#!/usr/bin/env python3
"""The service benchmark: one seeded run of one workload on a real server.

    python3 benchmarks/suite/run.py --workload dashboard --seed 1 --seconds 20 --trace 0

Boots ``python -m repro serve`` with ``workloads.SERVER_ARGS`` as a
subprocess, drives it over HTTP with ``ServiceClient`` from this process,
checks every answer against reference bounds computed in this process, and
prints every metric as ``metric <name> <value> <unit>`` and the workload's
measured properties as ``property <name> <value>``.  The last line of a
workload's report is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without ``--workload`` all four
run in turn.

``--trace 0`` reports the end-to-end metrics (``END_TO_END``).  Latency
and throughput are scaled to a reference host speed, which a fixed probe
kernel measures in this process between requests (``host_probe_ms``); the
unscaled values are printed as properties.
``--trace 1`` drives a plain server and one started through
``traced_serve.py`` with the same requests and reports the per-layer
metrics of ``layers.METRICS``, including the tracing overhead.  README.md
says what each workload and metric is for.

The run exits 1 when an answer is wrong, 2 without a result when there is
no ``src/repro`` next to it, and with a traceback when a server fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import layers
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CACHE = HERE / ".cache"
WORK = HERE / ".work"

#: The compared metrics.  The latency is the geometric mean over requests:
#: the median of a few dozen requests jumps between clusters of cheap and
#: expensive keys.  warmup_s and the tail latency are printed as properties
#: instead: their run-to-run spread reached 0.33 and 0.39 (README.md).
END_TO_END = (
    ("setup_s", "s"),
    ("latency_gmean_ms", "ms"),
    ("throughput_rps", "1/s"),
)
SETUPS = 3  # server boots per untraced run; setup_s is their median
VERIFY_SWEEP = 10  # timed sweep keys checked against a reference per run
KANON_Q1 = wl.request_key({"query": "Q1", "scheme": "k-anonymity"})
KANON_Q1_BOUNDS = [30, 101]

#: The host probe's input and its median time on the host where the
#: benchmark was introduced (a 2-vCPU VM).  The host's speed drifts by
#: 10-20% over minutes; the probe slows with it, the program does not
#: change it.
PROBE_INPUT = np.random.default_rng(0).random(50_000)
PROBE_REF_MS = 0.74


class Server:
    """One ``repro serve`` subprocess, plain or under ``traced_serve.py``."""

    def __init__(self, workdir: Path, name: str, traced: bool):
        self.ready = workdir / f"{name}.ready.json"
        self.log = workdir / f"{name}.log"
        self.spans = workdir / f"{name}.spans.jsonl" if traced else None
        self.proc = None
        self.url = None

    def start(self) -> float:
        """Spawn the server; returns seconds from spawn to its ready file."""
        if self.spans is not None:
            head = [str(HERE / "traced_serve.py"), "--spans-out", str(self.spans)]
        else:
            head = ["-m", "repro"]
        command = [sys.executable, *head, "serve", *wl.SERVER_ARGS, "--ready-file", str(self.ready)]
        env = {k: v for k, v in os.environ.items() if k != "REPRO_SCALE"}
        env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        started = time.monotonic()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                command, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT
            )
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}:\n"
                    + self.log.read_text(errors="replace")[-2000:]
                )
            try:
                self.url = json.loads(self.ready.read_text())["url"]
                return time.monotonic() - started
            except (FileNotFoundError, json.JSONDecodeError):
                pass
            if time.monotonic() - started > 120:
                raise RuntimeError("server not ready after 120 s")
            time.sleep(0.005)

    def stop(self) -> None:
        """SIGTERM (the server's graceful path) and wait for the exit."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def send(client, spec: dict) -> dict:
    from repro.service.api import QueryRequest

    request = QueryRequest(k=wl.K, **{k: v for k, v in spec.items() if k != "due"})
    sent = time.monotonic()
    try:
        response, error = client.query(request), None
    except Exception as exc:  # noqa: BLE001 — a transport failure is a failed request
        response, error = None, repr(exc)
    return {"spec": spec, "sent": sent, "done": time.monotonic(), "response": response, "error": error}


def host_probe_ms() -> float:
    """One timing of a fixed memory-bound kernel: sort and prefix-sum 50k
    floats, with the allocations that go with them.  Across runs its
    median moves with the server's request times (README.md)."""
    start = time.perf_counter()
    np.sort(PROBE_INPUT)
    np.cumsum(PROBE_INPUT)
    return (time.perf_counter() - start) * 1e3


def closed_loop(client, stream: list) -> list:
    """One request at a time, the host probe before each while the server
    is idle."""
    records = []
    for spec in stream:
        probe = host_probe_ms()
        records.append({**send(client, spec), "probe_ms": probe})
    return records


def open_loop(url: str, stream: list, shift: float = 0.0):
    """Send each request ``due - shift`` seconds after the start, each from
    its own thread on its own connection, as independent users would:
    nothing waits in the client, so any queueing happens in the server.

    Returns the records (latency counts from the due time) and the
    schedule origin.  ``released - due`` is how late the generator ran.
    The host probe runs after each release, while the generator waits.
    """
    from repro.service.client import ServiceClient

    records = [None] * len(stream)
    probes = []

    def user(i: int, due: float, released: float):
        client = ServiceClient(url, timeout=120)
        try:
            records[i] = {**send(client, stream[i]), "due": due, "released": released}
        finally:
            client.close()

    threads = []
    origin = time.monotonic() + 0.1
    for i, spec in enumerate(stream):
        due = origin + spec["due"] - shift
        pause = due - time.monotonic()
        if pause > 0:
            time.sleep(pause)
        thread = threading.Thread(target=user, args=(i, due, time.monotonic()), daemon=True)
        thread.start()
        threads.append(thread)
        probes.append(host_probe_ms())
    for thread in threads:
        thread.join()
    for record, probe in zip(records, probes):
        record["probe_ms"] = probe
    return records, origin


@dataclasses.dataclass
class Pass:
    """What one server lifetime produced."""

    setup_s: list
    warm: list
    timed: list
    origin: float
    spans: list


def run_servers(workload: str, workdir: Path, traced: tuple, setups: int,
                warm_stream: list, timed_stream: list, block: int) -> list:
    """Boot one server per entry of ``traced`` (True: under
    traced_serve.py), give each the same requests, and return one Pass
    each.  The first server is booted ``setups`` times; setup_s holds
    every boot.

    With several servers the requests go out in chunks of ``block``
    requests, each chunk to every server in turn, alternating which goes
    first (ABBA), so the servers see the same machine conditions.
    """
    from repro.service.client import ServiceClient

    setup_s = []
    for i in range(setups - 1):
        server = Server(workdir, f"boot{i}", traced[0])
        try:
            setup_s.append(server.start())
        finally:
            server.stop()
    servers = [Server(workdir, f"server{j}", flag) for j, flag in enumerate(traced)]
    chunks = [timed_stream[i:i + block] for i in range(0, len(timed_stream), block)]
    warm = [[] for _ in servers]
    timed = [[] for _ in servers]
    origin = None
    try:
        boots = [server.start() for server in servers]
        clients = [ServiceClient(server.url, timeout=120) for server in servers]
        for j, client in enumerate(clients):
            warm[j] = [send(client, spec) for spec in warm_stream]
        for c, chunk in enumerate(chunks):
            for j in (range(len(servers)) if c % 2 else reversed(range(len(servers)))):
                if workload == "open_hot":
                    records, start = open_loop(servers[j].url, chunk, c * block / wl.OPEN_RATE)
                else:
                    records = closed_loop(clients[j], chunk)
                    start = records[0]["sent"]
                origin = start if origin is None else origin
                timed[j] += records
        for client in clients:
            client.close()
    finally:
        for server in servers:
            server.stop()
    passes = []
    for j, server in enumerate(servers):
        spans = []
        if server.spans is not None:
            spans = [s for s in layers.load_spans(server.spans) if s["start"] >= origin]
        passes.append(Pass(setup_s + [boots[j]], warm[j], timed[j], origin, spans))
    return passes


def latency_ms(record: dict) -> float:
    return (record["done"] - record.get("due", record["sent"])) * 1e3


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(samples: int) -> int:
    """The highest whole percentile with at least ten samples beyond it
    (never below the median): p90 needs 100 requests, p80 needs 50."""
    return max(50, math.floor(100 * (1 - 10 / samples)))


def unscaled(run: Pass) -> dict:
    """Geometric-mean latency and throughput as measured, and the median
    host probe of the same timed phase."""
    return {
        "latency_gmean_ms": math.exp(statistics.fmean(math.log(latency_ms(r)) for r in run.timed)),
        "throughput_rps": len(run.timed) / (max(r["done"] for r in run.timed) - run.origin),
        "host_probe_ms": statistics.median(r["probe_ms"] for r in run.timed),
    }


def end_to_end(run: Pass) -> dict:
    """setup_s as measured (the probe does not follow boot times); latency
    and throughput scaled to the host speed at which the probe takes
    PROBE_REF_MS."""
    raw = unscaled(run)
    slowdown = raw["host_probe_ms"] / PROBE_REF_MS
    return {
        "setup_s": statistics.median(run.setup_s),
        "latency_gmean_ms": raw["latency_gmean_ms"] / slowdown,
        "throughput_rps": raw["throughput_rps"] * slowdown,
    }


# -- correctness ---------------------------------------------------------------
def source_digest() -> str:
    """Identifies the program and fixture the references belong to."""
    digest = hashlib.sha256(json.dumps([wl.SERVER_ARGS, wl.K]).encode())
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def compute_references(specs) -> dict:
    """Exact bounds from a fresh context, with no solve cache at all.  The
    context's fixture comes from the server's own flags, read by the
    server's own parser."""
    from repro.__main__ import build_parser
    from repro.engine.session import SolveSession
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import ExperimentContext
    from repro.queries import answer_licm
    from repro.queries.workload import QUERY_BUILDERS
    from repro.relational.query import MaxAttr, MinAttr, NaturalJoin, Scan

    flags = build_parser().parse_args(["serve", *wl.SERVER_ARGS])
    context = ExperimentContext(ExperimentConfig(
        num_transactions=flags.transactions, num_items=flags.items, seed=flags.seed
    ))
    out = {}
    try:
        for spec in specs:
            encoded = context.encoding(spec["scheme"], wl.K).encoded
            if "query" in spec:
                params = dataclasses.replace(context.config.params, **spec.get("params", {}))
                plan = QUERY_BUILDERS[spec["query"]](encoded, params)
            else:
                priced = NaturalJoin(encoded.transitem_plan(), Scan("ITEM"))
                plan = (MaxAttr if spec["aggregate"] == "max" else MinAttr)(priced, "Price")
            with SolveSession(encoded.model, cache_size=0) as session:
                answer = answer_licm(encoded, plan, session=session)
            if not answer.bounds.exact:
                raise RuntimeError(f"reference for {wl.request_key(spec)} is not exact")
            out[wl.request_key(spec)] = [answer.lower, answer.upper]
    finally:
        context.close()
    return out


def references(specs: list) -> dict:
    """Reference bounds for ``specs``, computed once per source tree and
    kept in ``.cache/`` inside the checkout."""
    path = CACHE / f"reference-{source_digest()}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    missing = {wl.request_key(s): s for s in specs if wl.request_key(s) not in known}
    if missing:
        known.update(compute_references(missing.values()))
        CACHE.mkdir(exist_ok=True)
        partial = path.with_suffix(f".{os.getpid()}.tmp")
        partial.write_text(json.dumps(known, sort_keys=True))
        os.replace(partial, path)
    return {wl.request_key(s): known[wl.request_key(s)] for s in specs}


def check(records: list, refs: dict) -> tuple:
    """``(failed, wrong)``: requests that are not ``ok`` or not right, and
    descriptions of the wrong ones.  ``tight`` answers must equal the
    reference; ``fast``/``balanced`` answers must contain it."""
    failed, wrong = 0, []
    for record in records:
        response, spec = record["response"], record["spec"]
        if response is None or response.status != "ok":
            failed += 1
            continue
        ref = refs.get(wl.request_key(spec))
        got = [response.lower, response.upper]
        if ref is None:
            right = None not in got and got[0] <= got[1]
        elif spec["precision"] == "tight":
            right = got == ref
        else:
            right = got[0] <= ref[0] and got[1] >= ref[1]
        if not right:
            failed += 1
            wrong.append(f"{wl.request_key(spec)} {spec['precision']}: got {got}, reference {ref}")
    return failed, wrong


def reference_specs(workload: str, seed: int, warm: list, timed: list) -> list:
    specs = [{"query": "Q1", "scheme": "k-anonymity"}] + warm
    if workload == "sweep":
        specs += random.Random(f"verify:{seed}").sample(timed, min(VERIFY_SWEEP, len(timed)))
    else:
        specs += timed
    return specs


# -- reporting -----------------------------------------------------------------
def describe(run: Pass) -> dict:
    """Workload properties and harness health (printed, not compared)."""
    seen = {wl.request_key(r["spec"]) for r in run.warm}
    repeated = 0
    for record in run.timed:
        key = wl.request_key(record["spec"])
        repeated += key in seen
        seen.add(key)
    answered = [r["response"] for r in run.timed if r["response"] is not None]
    latencies = [latency_ms(r) for r in run.timed]
    raw = unscaled(run)
    out = {
        "requests": len(run.timed),
        "repeated_key_share": repeated / len(run.timed),
        "full_l1_hit_share": sum(r.cache_hits >= 2 for r in answered) / len(run.timed),
        "mean_components": statistics.fmean(r.components for r in answered) if answered else 0.0,
        "warmup_s": run.warm[-1]["done"] - run.warm[0]["sent"],
        "host_probe_ms": raw["host_probe_ms"],
        "unscaled_latency_gmean_ms": raw["latency_gmean_ms"],
        "unscaled_throughput_rps": raw["throughput_rps"],
        # client latency outside the server's total_ms: the HTTP front-end
        # and TCP (a traced run's service.http_ms understates it, README.md)
        "http_gap_ms": statistics.fmean(
            (r["done"] - r["sent"]) * 1e3 - r["response"].total_ms
            for r in run.timed if r["response"] is not None
        ),
        "latency_p50_ms": percentile(latencies, 50),
        "tail_percentile": tail_percentile(len(latencies)),
        "latency_tail_ms": percentile(latencies, tail_percentile(len(latencies))),
        "latency_p90_ms": percentile(latencies, 90),
        "latency_max_ms": max(latencies),
    }
    for precision in ("tight", "balanced", "fast"):
        out[f"{precision}_share"] = sum(
            r["spec"]["precision"] == precision for r in run.timed
        ) / len(run.timed)
    if "due" in run.timed[0]:
        lag = [(r["released"] - r["due"]) * 1e3 for r in run.timed]
        out["generator_lag_p50_ms"] = percentile(lag, 50)
        out["generator_lag_p99_ms"] = percentile(lag, 99)
        out["slo_miss_ratio"] = sum(
            r["response"] is None or r["response"].status != "ok" or latency_ms(r) > wl.OPEN_DEADLINE_MS
            for r in run.timed
        ) / len(run.timed)
    return out


def print_breakdown(records: list, spans: list) -> None:
    """Mean self ms per layer for each key (closed loops)."""
    per_key = layers.by_key(spans, records, lambda r: wl.request_key(r["spec"]))
    totals = {}
    for record in records:
        totals.setdefault(wl.request_key(record["spec"]), []).append(record["response"].total_ms)
    for key in sorted(per_key):
        top = sorted(per_key[key].items(), key=lambda item: -item[1])[:6]
        parts = " ".join(f"{layer}={ms:.1f}" for layer, ms in top)
        print(f"layers_by_key {key} n={len(totals[key])} total_ms={statistics.fmean(totals[key]):.1f} {parts}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, help="default: all four in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0, help="nominal measured seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("REPRO_SCALE", None)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    results = [run_workload(w, args) for w in ([args.workload] if args.workload else wl.WORKLOADS)]
    return 0 if all(results) else 1


def run_workload(workload: str, args) -> bool:
    """One workload's run and report; True when every answer was right."""
    warm_stream = wl.warmup_stream(workload)
    timed_stream = wl.timed_stream(workload, args.seed, args.seconds)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        # A trace run gives a plain and a traced server the same requests,
        # alternating between them request by request (the open loop:
        # quarter by quarter), so the tracing overhead is measured under
        # the same machine conditions.  Each server answers the first half
        # of the blocks, so the run takes about as long as an untraced one.
        if args.trace:
            n_blocks = wl.blocks(workload, args.seconds)
            timed_stream = timed_stream[:len(timed_stream) * max(1, n_blocks // 2) // n_blocks]
            block = max(1, len(timed_stream) // 4) if workload == "open_hot" else 1
            passes = run_servers(workload, workdir, (False, True), 1,
                                 warm_stream, timed_stream, block)
        else:
            passes = run_servers(workload, workdir, (False,), SETUPS,
                                 warm_stream, timed_stream, len(timed_stream))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    refs = references(reference_specs(workload, args.seed, warm_stream, timed_stream))
    attempted = failed = 0
    wrong = []
    if refs[KANON_Q1] != KANON_Q1_BOUNDS:
        wrong.append(f"reference {KANON_Q1} is {refs[KANON_Q1]}, expected {KANON_Q1_BOUNDS}")
    for run in passes:
        records = run.warm + run.timed
        attempted += len(records)
        run_failed, run_wrong = check(records, refs)
        failed += run_failed
        wrong += run_wrong
    if args.trace:
        for plain, traced in zip(passes[0].timed, passes[1].timed):
            a, b = plain["response"], traced["response"]
            if a is not None and b is not None and (a.lower, a.upper) != (b.lower, b.upper):
                wrong.append(f"{wl.request_key(plain['spec'])}: traced {b.lower, b.upper} "
                             f"!= untraced {a.lower, a.upper}")

    print(f"workload {workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for name, value in describe(passes[-1]).items():
        print(f"property {name} {value:.6g}")
    print(f"property failed_ratio {failed / attempted:.6g}")
    for problem in wrong:
        print(f"WRONG {problem}")
    if args.trace:
        answered = [r for r in passes[1].timed if r["response"] is not None]
        values = layers.summarize(passes[1].spans, answered)
        # Tracing runs inside the server, so its overhead is read off the
        # server's own total_ms, as the median over requests of the traced
        # to plain ratio (client latency also carries the HTTP front-end's
        # delayed-ACK stalls, which tracing does not touch).
        values["trace_overhead_pct"] = 100.0 * (statistics.median(
            traced["response"].total_ms / plain["response"].total_ms
            for plain, traced in zip(passes[0].timed, passes[1].timed)
            if plain["response"] is not None and traced["response"] is not None
        ) - 1)
        units = dict(layers.METRICS)
        if workload != "open_hot":
            print_breakdown(answered, passes[1].spans)
    else:
        values = end_to_end(passes[0])
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return not wrong


if __name__ == "__main__":
    raise SystemExit(main())
