"""Seeded request streams for the four service workloads.

Everything here is pure: a stream is a function of ``(workload, seed,
seconds)`` and nothing else, so the same seed always yields byte-identical
requests and the server receives only what was generated.

A stream is made of *blocks*.  Every block of a workload holds the same
multiset of requests (same keys, same precision mix), and the seed only
shuffles the order within each block.  The sweep's parameters and the
open-loop arrival times come from fixed random streams (common random
numbers): the seed decides which request takes which parameters or which
arrival, not what they are.  A run answers whole blocks, so every seed
asks the server for the same work, and what is left of the run-to-run
spread is the server and the host.

The amount of work is fixed per ``seconds``: ``blocks(workload, seconds)``
blocks, sized so that one run takes about ``seconds`` at the commit that
introduced the benchmark.  A faster server therefore finishes the same
work sooner; it does not get more requests.
"""

from __future__ import annotations

import random

#: The one server every workload runs against (flags after ``serve``).
SERVER_ARGS = (
    "--port", "0",
    "--transactions", "600",
    "--items", "128",
    "--seed", "3",
    "--schemes", "k-anonymity", "km", "bipartite",
    "--k", "2",
    "--workers", "2",
)
K = 2  # the anonymity parameter every request asks for (``--k`` above)

SCHEMES = ("k-anonymity", "km", "bipartite")
QUERIES = ("Q1", "Q2", "Q3")

#: The hot set H in Zipf rank order: the nine workload queries, then the
#: two ad-hoc MIN/MAX keys.  Ad-hoc COUNT/SUM on k-anonymity and MIN/MAX
#: on km are left out: at this scale each takes 26-53 s (README.md).
HOT_KEYS = tuple({"query": q, "scheme": s} for q in QUERIES for s in SCHEMES) + (
    {"aggregate": "max", "scheme": "k-anonymity"},
    {"aggregate": "min", "scheme": "bipartite"},
)
#: open_hot's keys: bipartite Q1-Q3 and k-anonymity Q1-Q2.  The bipartite
#: answers stay in L1; the two k-anonymity queries evict each other.
OPEN_KEYS = tuple(
    {"query": q, "scheme": "bipartite"} for q in QUERIES
) + tuple({"query": q, "scheme": "k-anonymity"} for q in ("Q1", "Q2"))

ZIPF_S = 1.1
OPEN_RATE = 4.0  # requests per second
OPEN_DEADLINE_MS = 1000.0  # the SLO target of repro.obs.slo: 95% under 1 s

#: Sweep grids, endpoints included, rounded to the grid step.
PA_GRID = [round(0.100 + 0.001 * i, 3) for i in range(151)]  # 0.100 .. 0.250
PB_GRID = [round(0.100 + 0.025 * i, 3) for i in range(17)]  # 0.100 .. 0.500
Q3_GRID = [round(0.060 + 0.001 * i, 3) for i in range(81)]  # 0.060 .. 0.140

#: Seconds one block takes at the commit that introduced the benchmark
#: (a 2-vCPU host); ``blocks`` divides the run length by these.
NOMINAL_BLOCK_S = {"dashboard": 8.1, "sweep": 11.0, "interactive": 4.6, "open_hot": 6.0}

#: The workloads BENCHMARK.json compares.  open_hot runs only when asked
#: for: on a shared 2-vCPU host its latency spread past any bound the
#: benchmark format allows (README.md, "Steady numbers").
COMPARED = ("dashboard", "sweep", "interactive")
WORKLOADS = COMPARED + ("open_hot",)


def zipf_quota(n_keys: int, scale: int) -> list:
    """Per-rank request counts ``max(1, round(scale * p_rank))`` under
    Zipf(s=1.1): every key appears in every block, the head dominates."""
    weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, n_keys + 1)]
    total = sum(weights)
    return [max(1, round(scale * w / total)) for w in weights]


def blocks(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_BLOCK_S[workload]))


def request_key(spec: dict) -> str:
    """The identity of an answer (precision and deadline excluded)."""
    name = spec.get("query") or spec["aggregate"]
    params = ",".join(f"{k}={v}" for k, v in sorted(spec.get("params", {}).items()))
    return f"{name}/{spec['scheme']}/{params}"


def _spec(key: dict, precision: str, **extra) -> dict:
    return {**key, "precision": precision, **extra}


def _stratified(rng: random.Random, grid: list, count: int) -> list:
    """``count`` grid values, one from each of ``count`` equal strata of
    the grid, in random order (a Latin-hypercube margin).  Distinct when
    ``count <= len(grid)``; beyond that the grid is covered again."""
    picks = []
    while len(picks) < count:
        n = min(count - len(picks), len(grid))
        for i in range(n):
            picks.append(grid[rng.randrange(i * len(grid) // n, (i + 1) * len(grid) // n)])
    rng.shuffle(picks)
    return picks


def _dashboard_block() -> list:
    quota = zipf_quota(len(HOT_KEYS), 25)
    return [_spec(key, "tight") for key, n in zip(HOT_KEYS, quota) for _ in range(n)]


def _dashboard_stream(rng: random.Random, n_blocks: int) -> list:
    """Shuffled dashboard blocks, each Q3 at a fixed slot.

    A Q3 answer takes 1-2.5 s when solved and about 0.2 s when its
    components are still in L1.  In a free shuffle, which of the two it
    was depended on where the seed put the previous Q3 on the same scheme,
    and that moved the throughput by up to 12% between seeds.  At fixed
    slots each Q3 recurs a whole block later, after 25 other requests,
    which evict its components.  The slots run from the end of the block
    (km, k-anonymity, bipartite), so the first ones are also far from the
    warm-up pass.
    """
    block = _dashboard_block()
    q3 = {spec["scheme"]: spec for spec in block if spec.get("query") == "Q3"}
    rest = [spec for spec in block if spec.get("query") != "Q3"]
    slots = {
        scheme: len(block) - 1 - i * len(block) // 3
        for i, scheme in enumerate(("km", "k-anonymity", "bipartite"))
    }
    stream = []
    for _ in range(n_blocks):
        order = [dict(spec) for spec in rest]
        rng.shuffle(order)
        for scheme, slot in sorted(slots.items(), key=lambda item: item[1]):
            order.insert(slot, dict(q3[scheme]))
        stream.extend(order)
    return stream


def _interactive_block() -> list:
    keys = [key for key in HOT_KEYS if "query" in key]
    quota = zipf_quota(len(keys), 10)
    return [
        _spec(key, precision)
        for key, n in zip(keys, quota)
        for _ in range(n)
        for precision in ("fast", "balanced")
    ]


def _open_block() -> list:
    """Each bipartite key twice, each k-anonymity key once, at 2/3 tight
    and 1/3 fast.  Three quarters of the requests are the cheap bipartite
    answers, so the median sits inside that cluster instead of on the edge
    between it and the ~100 ms k-anonymity cluster, where it would jump."""
    return [
        _spec(key, precision, deadline_ms=OPEN_DEADLINE_MS)
        for key in OPEN_KEYS
        for _ in range(2 if key["scheme"] == "bipartite" else 1)
        for precision in ("tight", "tight", "fast")
    ]


def _sweep_stream(rng: random.Random, n_blocks: int) -> list:
    """Per block and scheme: Q1, Q1, Q2, Q2, Q3 (Q1/Q2 4/5, Q3 1/5).

    Each (scheme, query) draws all of its run's parameters at once,
    stratified over the grid, so every run covers the whole parameter
    range and no parameterisation repeats.  The draws are the same for
    every seed: with 30 requests a run, different draws moved the median
    by 16% between seeds on an otherwise quiet host.
    """
    fixed = random.Random("sweep:params")
    draws = {}
    for scheme in SCHEMES:
        for query in ("Q1", "Q2"):
            n = 2 * n_blocks
            draws[scheme, query] = list(
                zip(_stratified(fixed, PA_GRID, n), _stratified(fixed, PB_GRID, n))
            )
        draws[scheme, "Q3"] = [(q3,) for q3 in _stratified(fixed, Q3_GRID, n_blocks)]
    for values in draws.values():
        rng.shuffle(values)
    stream = []
    for _ in range(n_blocks):
        block = [(s, q) for s in SCHEMES for q in ("Q1", "Q1", "Q2", "Q2", "Q3")]
        rng.shuffle(block)
        for scheme, query in block:
            values = draws[scheme, query].pop()
            if query == "Q3":
                params = {"q3_selectivity": values[0]}
            else:
                params = {"pa_selectivity": values[0], "pb_selectivity": values[1]}
            stream.append(_spec({"query": query, "scheme": scheme}, "tight", params=params))
    return stream


def _shuffled_blocks(rng: random.Random, block: list, n_blocks: int) -> list:
    stream = []
    for _ in range(n_blocks):
        order = [dict(spec) for spec in block]
        rng.shuffle(order)
        stream.extend(order)
    return stream


def _arrivals(rng: random.Random, n_blocks: int, per_block: int) -> list:
    """Poisson arrivals at OPEN_RATE, conditioned on ``per_block``
    arrivals in each block window: sorted uniform offsets per window."""
    window = per_block / OPEN_RATE
    times = []
    for b in range(n_blocks):
        times.extend(sorted(b * window + rng.uniform(0, window) for _ in range(per_block)))
    return times


def timed_stream(workload: str, seed: int, seconds: float) -> list:
    """The timed requests of one run, in send order.  open_hot entries
    carry ``due``: seconds after the start of the timed phase."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    n_blocks = blocks(workload, seconds)
    if workload == "sweep":
        return _sweep_stream(rng, n_blocks)
    if workload == "dashboard":
        return _dashboard_stream(rng, n_blocks)
    if workload == "interactive":
        return _shuffled_blocks(rng, _interactive_block(), n_blocks)
    return _open_stream(rng, n_blocks)


def _open_stream(rng: random.Random, n_blocks: int) -> list:
    """open_hot's blocks, with arrival times.

    Every seed shares one arrival path (common random numbers): with ~75
    arrivals per run, the luck of the burst pattern would otherwise move
    the latency more than any server change worth detecting.  The
    k-anonymity requests take every fourth arrival and the bipartite ones
    the rest, each class in seeded order: which cheap requests overlap an
    expensive one drives the median, and a free shuffle moved it by 15%
    between seeds.
    """
    block = _open_block()
    heavy = [spec for spec in block if spec["scheme"] == "k-anonymity"]
    light = [spec for spec in block if spec["scheme"] != "k-anonymity"]
    stride = len(block) // len(heavy)
    arrivals = iter(_arrivals(random.Random("open_hot:arrivals"), n_blocks, len(block)))
    stream = []
    for _ in range(n_blocks):
        order = {True: [dict(s) for s in heavy], False: [dict(s) for s in light]}
        for specs in order.values():
            rng.shuffle(specs)
        for i in range(len(block)):
            spec = order[i % stride == 0].pop()
            spec["due"] = round(next(arrivals), 6)
            stream.append(spec)
    return stream


def warmup_stream(workload: str) -> list:
    """The untimed first pass: every distinct timed key once.  The sweep
    has no repeated keys, so it warms one default Q1 per scheme instead,
    none of which recurs in its timed phase."""
    if workload == "sweep":
        return [_spec({"query": "Q1", "scheme": s}, "tight") for s in SCHEMES]
    block = {
        "dashboard": _dashboard_block,
        "interactive": _interactive_block,
        "open_hot": _open_block,
    }[workload]()
    seen, out = set(), []
    for spec in block:
        identity = (request_key(spec), spec["precision"])
        if identity not in seen:
            seen.add(identity)
            out.append(spec)
    return out
