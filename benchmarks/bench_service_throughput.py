"""Closed-loop load generator for the aggregate-query service.

Boots a real serving process (``python -m repro serve --port 0``), waits on
its ``--ready-file``, then drives it through three phases:

* **mixed**    — ``CLIENTS`` (>= 8) closed-loop client threads, each cycling
  through canned queries and ad-hoc aggregates for ``DURATION_S`` seconds.
  Every issued request must come back with a terminal status — the
  zero-dropped-requests invariant.
* **dedup**    — barrier-synchronized bursts of identical requests against a
  cold BIP fingerprint, until the scheduler reports at least one request
  coalesced onto an in-flight solve.
* **deadline** — requests carrying a deadline that is already unmeetable;
  they must answer ``degraded`` (Monte Carlo fallback) or ``timeout``
  (fallback disabled) — never hang.

Results land in ``BENCH_service_throughput.json`` at the repo root.

Run with::

    pytest benchmarks/bench_service_throughput.py --benchmark-only

or standalone (the CI smoke job reuses it against a running server)::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py [--server URL]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from repro.service.api import STATUS_DEGRADED, STATUS_TIMEOUT, STATUSES, QueryRequest
from repro.service.client import ServiceClient

CLIENTS = 8
DURATION_S = 4.0
REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
RESULTS_PATH = os.path.join(REPO_ROOT, "BENCH_service_throughput.json")

#: the mixed-phase request cycle — canned plans, ad-hoc aggregates, and a
#: couple of param variants so the fingerprint space is not a single key.
#: All linear (COUNT/SUM) plans: under the ``bb`` backend, Q3's nested
#: HavingCount and the MIN/MAX case-probe sweeps cost whole seconds under
#: the model lock, which would turn a throughput phase into a lock
#: benchmark.  MIN/MAX coverage runs as untimed one-off checks instead.
_WORKLOAD = (
    {"query": "Q1"},
    {"aggregate": "count"},
    {"query": "Q2"},
    {"aggregate": "sum"},
    {"query": "Q1", "params": {"pb_selectivity": 0.3}},
    {"query": "Q2", "params": {"pb_selectivity": 0.3}},
)


def _spawn_server(
    tmp_dir: str,
    trace_path: str | None = None,
    fabric: str | None = None,
    solve_workers: int | None = None,
):
    """Start ``python -m repro serve`` on an ephemeral port; return (proc, url)."""
    ready_file = os.path.join(tmp_dir, "ready.json")
    log_path = os.path.join(tmp_dir, "server.log")
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0",
        "--transactions", "200",
        "--items", "64",
        "--workers", "4",
        "--queue-size", "64",
        "--seed", "3",
        # The from-scratch B&B backend: cold solves cost real time, which is
        # what gives in-flight dedup (and deadline budgets) a window to act
        # in.  Repeat solves still amortize through the shared solve cache.
        "--backend", "bb",
        "--ready-file", ready_file,
    ]
    if fabric:
        cmd += ["--fabric", fabric]
    if solve_workers:
        cmd += ["--solve-workers", str(solve_workers)]
    if trace_path:
        cmd += ["--trace", trace_path]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    log = open(log_path, "w", encoding="utf-8")
    proc = subprocess.Popen(cmd, cwd=REPO_ROOT, env=env, stdout=log, stderr=log)
    deadline = time.monotonic() + 180.0
    while not os.path.exists(ready_file):
        if proc.poll() is not None:
            log.close()
            with open(log_path, encoding="utf-8") as handle:
                raise RuntimeError(
                    f"serve exited with {proc.returncode} before ready:\n{handle.read()}"
                )
        if time.monotonic() > deadline:
            proc.terminate()
            raise RuntimeError("serve did not become ready within 180s")
        time.sleep(0.1)
    with open(ready_file, encoding="utf-8") as handle:
        ready = json.load(handle)
    return proc, ready["url"]


def _mixed_phase(url: str, clients: int, duration_s: float):
    """Closed-loop load; returns per-request (status, latency_s, dedup) records."""
    records = []
    records_lock = threading.Lock()
    start_barrier = threading.Barrier(clients)
    stop_at = [0.0]  # set after the barrier releases, shared by reference

    def _client(index: int) -> None:
        client = ServiceClient(url, timeout=120.0)
        mine = []
        position = index  # offset the cycle so clients collide on some keys
        if start_barrier.wait() == 0:
            stop_at[0] = time.monotonic() + duration_s
        while stop_at[0] == 0.0:
            time.sleep(0.001)
        while time.monotonic() < stop_at[0]:
            fields = dict(_WORKLOAD[position % len(_WORKLOAD)])
            position += 1
            t0 = time.perf_counter()
            try:
                response = client.query(**fields)
            except Exception as exc:  # noqa: BLE001 — a drop, recorded as such
                mine.append(
                    {
                        "status": "transport_error",
                        "latency_s": time.perf_counter() - t0,
                        "dedup": False,
                        "cache_hits": 0,
                        "error": repr(exc),
                    }
                )
                continue
            mine.append(
                {
                    "status": response.status,
                    "latency_s": time.perf_counter() - t0,
                    "dedup": response.dedup,
                    "cache_hits": response.cache_hits,
                }
            )
        with records_lock:
            records.extend(mine)

    threads = [
        threading.Thread(target=_client, args=(i,), name=f"bench-client-{i}")
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def _dedup_phase(url: str, clients: int, max_rounds: int = 8):
    """Bursts of identical cold-fingerprint requests until one coalesces.

    Identical requests only coalesce while the first solve is still in
    flight, so each round uses a fresh ``pb_selectivity`` (a cold cache key)
    and a barrier so all posts land at once.  Fast solves can legitimately
    finish before the followers arrive (then they are cache hits instead);
    rounds repeat until the scheduler has seen at least one dedup.
    """
    rounds = []
    for round_index in range(max_rounds):
        selectivity = 0.31 + 0.01 * round_index  # never seen before this round
        barrier = threading.Barrier(clients)
        results = [None] * clients

        def _burst(slot: int, sel: float) -> None:
            client = ServiceClient(url, timeout=120.0)
            request = QueryRequest(query="Q2", params={"pb_selectivity": sel})
            barrier.wait()
            results[slot] = client.query(request)

        threads = [
            threading.Thread(target=_burst, args=(i, selectivity)) for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        dedup_count = sum(1 for r in results if r is not None and r.dedup)
        cache_count = sum(1 for r in results if r is not None and r.cache_hits)
        rounds.append(
            {
                "pb_selectivity": selectivity,
                "statuses": [r.status for r in results if r is not None],
                "dedup": dedup_count,
                "cache_hits": cache_count,
            }
        )
        if dedup_count:
            break
    return rounds


def _deadline_phase(url: str):
    """Unmeetable deadlines: degraded with MC fallback, timeout without."""
    client = ServiceClient(url, timeout=120.0)
    degraded = client.query(
        query="Q2",
        params={"pb_selectivity": 0.27},  # cold key: the solve cannot be a cache hit
        deadline_ms=0.01,
        mc_fallback=True,
        mc_samples=4,
    )
    timed_out = client.query(
        query="Q2",
        params={"pb_selectivity": 0.28},
        deadline_ms=0.01,
        mc_fallback=False,
    )
    return degraded, timed_out


def run_load(url: str, clients: int = CLIENTS, duration_s: float = DURATION_S) -> dict:
    """Drive all three phases against ``url``; return the results document."""
    client = ServiceClient(url, timeout=120.0)
    client.healthz()
    # Warm every workload key once, serially: the first min/max case-probe
    # sweep and the cold BIP solves land here, so the timed phase measures
    # steady-state serving (cache hits + occasional fresh solves).
    for fields in _WORKLOAD:
        client.query(**dict(fields))

    t0 = time.perf_counter()
    mixed = _mixed_phase(url, clients, duration_s)
    mixed_wall_s = time.perf_counter() - t0
    dedup_rounds = _dedup_phase(url, clients)
    degraded, timed_out = _deadline_phase(url)
    # The ad-hoc MIN/MAX path (case-probe sweeps), untimed.
    minmax = {
        aggregate: client.query(aggregate=aggregate).to_dict()
        for aggregate in ("min", "max")
    }

    status_counts = {}
    for record in mixed:
        status_counts[record["status"]] = status_counts.get(record["status"], 0) + 1
    latencies = sorted(record["latency_s"] for record in mixed)

    def _pct(q: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

    server_status = client.status()
    metrics_text = client.metrics()
    scheduler = server_status["scheduler"]

    return {
        "url": url,
        "clients": clients,
        "duration_s": duration_s,
        "mixed": {
            "requests": len(mixed),
            "wall_s": mixed_wall_s,
            "throughput_rps": len(mixed) / mixed_wall_s if mixed_wall_s else 0.0,
            "status_counts": status_counts,
            "latency_s": {
                "p50": _pct(0.50),
                "p99": _pct(0.99),
                "mean": statistics.fmean(latencies) if latencies else 0.0,
                "max": latencies[-1] if latencies else 0.0,
            },
            "dedup_responses": sum(1 for r in mixed if r["dedup"]),
            "cache_hit_responses": sum(1 for r in mixed if r["cache_hits"]),
        },
        "dedup_rounds": dedup_rounds,
        "minmax": minmax,
        "deadline": {
            "with_fallback": degraded.to_dict(),
            "without_fallback": timed_out.to_dict(),
        },
        "scheduler": scheduler,
        "metrics_families": sorted(
            {
                line.split()[2]
                for line in metrics_text.splitlines()
                if line.startswith("# TYPE ")
            }
        ),
    }


def _cold_solve_phase(url: str, clients: int, keys: int, base: float) -> dict:
    """``keys`` never-before-seen BIP fingerprints through ``clients``
    concurrent posters: every request is a real cold solve, so the wall
    time measures how well the solve fabric overlaps backend work (the
    mixed phase, being cache-dominated, cannot see that)."""
    selectivities = [round(base + 0.001 * i, 6) for i in range(keys)]
    results: list = [None] * keys
    barrier = threading.Barrier(clients)
    cursor = [0]
    cursor_lock = threading.Lock()

    def _poster() -> None:
        client = ServiceClient(url, timeout=300.0)
        barrier.wait()
        while True:
            with cursor_lock:
                index = cursor[0]
                if index >= keys:
                    return
                cursor[0] += 1
            results[index] = client.query(
                query="Q2", params={"pb_selectivity": selectivities[index]}
            )

    threads = [threading.Thread(target=_poster) for _ in range(clients)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - t0
    statuses = [r.status if r is not None else "dropped" for r in results]
    return {
        "keys": keys,
        "clients": clients,
        "wall_s": wall_s,
        "rps": keys / wall_s if wall_s else 0.0,
        "statuses": sorted(set(statuses)),
        "ok": sum(1 for s in statuses if s == "ok"),
    }


def run_worker_sweep(
    fabrics: tuple = ("process",),
    workers_list: tuple = (1, 2, 4, 8),
    keys: int = 12,
    clients: int = 4,
) -> dict:
    """The rps-vs-workers curve: one server boot per (fabric, workers).

    Cold-key solves only — the quantity that scales with solve workers,
    and only the process fabric has workers to scale (inline runs one
    unit at a time).  On a single-core runner the process fabric pays
    fork+IPC overhead with no parallel speedup, so its curve is
    flat-to-worse there; the committed numbers record the machine they
    came from (``cpu_count``).
    """
    import tempfile

    sweep: dict = {"cpu_count": os.cpu_count(), "curves": {}}
    base = 0.6
    for fabric in fabrics:
        curve = []
        for workers in workers_list:
            tmp_dir = tempfile.mkdtemp(prefix=f"bench_sweep_{fabric}{workers}_")
            proc, url = _spawn_server(tmp_dir, fabric=fabric, solve_workers=workers)
            try:
                client = ServiceClient(url, timeout=300.0)
                client.healthz()
                # one warm key so the first timed request is not also
                # paying the model-lock prepare of a cold (scheme, k)
                client.query(query="Q2")
                base = round(base + keys * 0.001 + 0.005, 6)
                phase = _cold_solve_phase(url, clients, keys, base)
                phase["fabric"] = fabric
                phase["solve_workers"] = workers
                curve.append(phase)
                print(
                    f"sweep {fabric} workers={workers}: "
                    f"{phase['rps']:.2f} solves/s ({phase['wall_s']:.1f}s wall)",
                    flush=True,
                )
            finally:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
        sweep["curves"][fabric] = curve
    return sweep


def check_acceptance(results: dict) -> None:
    """The ISSUE acceptance criteria, as assertions over one results document."""
    mixed = results["mixed"]
    scheduler = results["scheduler"]
    # >= 8 concurrent clients actually produced load.
    assert results["clients"] >= 8, results["clients"]
    assert mixed["requests"] >= results["clients"], mixed
    # Zero dropped requests: every answer carried a terminal status (no
    # transport errors, no hangs), and the scheduler completed (or
    # rejected) everything it admitted.
    assert all(status in STATUSES for status in mixed["status_counts"]), mixed
    accounted = scheduler["completed"] + scheduler["rejected_full"]
    assert accounted >= scheduler["submitted"], scheduler
    # Identical in-flight requests coalesced onto a single solve.
    total_dedup = scheduler["dedup_hits"]
    assert total_dedup >= 1, results["dedup_rounds"]
    # Deadline-exceeded requests terminate as degraded/timeout — never hang.
    with_fb = results["deadline"]["with_fallback"]
    without_fb = results["deadline"]["without_fallback"]
    assert with_fb["status"] == STATUS_DEGRADED, with_fb
    assert with_fb.get("mc_samples", 0) > 0, with_fb
    assert without_fb["status"] in (STATUS_TIMEOUT, STATUS_DEGRADED), without_fb
    # The MC fallback reports a real (observed) range.
    assert with_fb["lower"] <= with_fb["upper"], with_fb
    # The ad-hoc MIN/MAX probe path answers exactly when unconstrained.
    for aggregate, answer in results["minmax"].items():
        assert answer["status"] == "ok", (aggregate, answer)
    # /metrics exposes the service families next to the engine ones; the
    # deprecated point-in-time quantile gauges must be gone.
    for family in (
        "repro_service_requests_total",
        "repro_service_dedup_hits_total",
    ):
        assert family in results["metrics_families"], results["metrics_families"]
    assert "repro_service_latency_seconds" not in results["metrics_families"]


def run_benchmark(
    server_url: str | None = None,
    clients: int = CLIENTS,
    duration_s: float = DURATION_S,
    results_path: str = RESULTS_PATH,
    sweep: bool = False,
) -> dict:
    """Spawn (or reuse) a server, run the load, write + check the results.

    ``sweep=True`` additionally boots one process-fabric server per
    solve-worker count and appends the cold-solve rps-vs-workers curve.
    """
    import tempfile

    proc = None
    tmp_dir = None
    try:
        if server_url is None:
            tmp_dir = tempfile.mkdtemp(prefix="bench_service_")
            proc, server_url = _spawn_server(tmp_dir)
        results = run_load(server_url, clients=clients, duration_s=duration_s)
    finally:
        if proc is not None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
    if sweep:
        results["worker_sweep"] = run_worker_sweep()
    with open(results_path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    check_acceptance(results)
    return results


def test_service_throughput(benchmark):
    results = run_benchmark()
    benchmark.extra_info.update(
        {
            "throughput_rps": round(results["mixed"]["throughput_rps"], 1),
            "requests": results["mixed"]["requests"],
            "dedup_hits": results["scheduler"]["dedup_hits"],
            "latency_p99_ms": round(results["mixed"]["latency_s"]["p99"] * 1e3, 1),
        }
    )
    benchmark(lambda: None)  # load already driven above; satisfy the fixture


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--server", default=None, help="use a running server instead of spawning one"
    )
    parser.add_argument("--clients", type=int, default=CLIENTS)
    parser.add_argument("--duration", type=float, default=DURATION_S)
    parser.add_argument("--out", default=RESULTS_PATH)
    parser.add_argument(
        "--sweep",
        action="store_true",
        help="also sweep solve-worker counts (1/2/4/8) for the process "
        "fabric (one server boot each) and record the rps curve",
    )
    args = parser.parse_args(argv)
    results = run_benchmark(
        server_url=args.server,
        clients=args.clients,
        duration_s=args.duration,
        results_path=args.out,
        sweep=args.sweep,
    )
    mixed = results["mixed"]
    print(
        f"{mixed['requests']} requests @ {mixed['throughput_rps']:.1f} req/s, "
        f"p50 {mixed['latency_s']['p50'] * 1e3:.1f} ms, "
        f"p99 {mixed['latency_s']['p99'] * 1e3:.1f} ms, "
        f"dedup_hits={results['scheduler']['dedup_hits']}"
    )
    print(f"results: {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
