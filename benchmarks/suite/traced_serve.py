"""``python -m repro serve`` with per-layer spans recorded from outside.

    PYTHONPATH=src python benchmarks/suite/traced_serve.py \\
        --spans-out spans.jsonl serve --port 0 ...

Before handing over to ``repro.__main__.main``, this wraps each call in
``WRAPS`` as bound where the server calls it (a module global, a class
method, or the values of the ``QUERY_BUILDERS`` dict).  Every wrapped call
records a span (layer, thread, start, end, parent from a thread-local
stack, and a few result attributes) in memory; nothing inside ``src/``
changes.  Garbage collections are recorded the same way, through
``gc.callbacks``.  The spans are written as JSONL when the server exits,
which SIGTERM triggers through the server's own graceful-shutdown path.
Timestamps are ``time.monotonic()``, which Linux shares across processes,
so the load generator can line spans up with its own requests.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import itertools
import json
import threading
import time

#: (layer, module, attribute) for every wrapped call.  The attribute is a
#: module global, ``Class.method``, or a dict whose values are wrapped.
WRAPS = (
    ("queries.plan_build", "repro.service.scheduler", "QUERY_BUILDERS"),
    ("queries.licm_eval", "repro.service.scheduler", "evaluate_licm"),
    ("queries.licm_eval", "repro.queries.answer", "evaluate_licm"),
    ("core.minmax_bounds", "repro.core.bounds", "minmax_bounds"),
    ("engine.prepare", "repro.engine.session", "SolveSession.prepare"),
    ("engine.prune", "repro.engine.session", "prune"),
    ("engine.from_licm", "repro.engine.session", "from_licm"),
    ("engine.canonicalize", "repro.engine.session", "canonicalize"),
    ("engine.split_blocks", "repro.engine.session", "split_blocks"),
    ("engine.solve_prepared", "repro.engine.session", "SolveSession.solve_prepared"),
    ("engine.l1_get", "repro.engine.cache", "SolveCache.get"),
    ("solver.solve", "repro.engine.fabric", "portfolio_solve"),
    ("estimator.answer", "repro.estimator.tiered", "TieredAnswerer.answer"),
    ("estimator.structural", "repro.estimator.structural", "StructuralEstimator.estimate"),
    ("estimator.entropy", "repro.estimator.entropy", "EntropyEstimator.estimate"),
    ("estimator.lp", "repro.estimator.lp", "LPRelaxationEstimator.estimate"),
    ("mc.fallback", "repro.service.scheduler", "run_monte_carlo"),
    ("obs.request_log", "repro.service.scheduler", "wide_event"),
)

#: Result attributes recorded per layer (the counts behind the ratios).
OBSERVE = {
    "engine.split_blocks": lambda blocks: {"blocks": len(blocks)},
    "engine.l1_get": lambda entry: {"hit": entry is not None},
    "solver.solve": lambda solution: {"nodes": solution.nodes},
    "estimator.answer": lambda answer: {
        "components": answer.components,
        "escalations": answer.escalations,
    },
}


def resolve(module_name: str, attribute: str):
    """``(owner, name)`` such that ``getattr(owner, name)`` is the target."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Recorder:
    """Collects spans from every thread; ``wrap`` makes a recording call."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, layer: str, fn):
        observe = OBSERVE.get(layer)
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            attrs = {}
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    attrs = observe(result)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                spans.append(
                    (span_id, parent, layer, threading.current_thread().name, start, end, attrs)
                )

        return recorded

    def on_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: each collection is a ``python.gc`` span,
        nested under whatever call on this thread triggered it."""
        stack = self._local.__dict__.setdefault("stack", [])
        if phase == "start":
            self._local.gc = (next(self._ids), stack[-1] if stack else None, time.monotonic())
            return
        span_id, parent, start = self._local.gc
        self.spans.append(
            (span_id, parent, "python.gc", threading.current_thread().name, start,
             time.monotonic(), {"generation": info["generation"]})
        )

    def install(self) -> None:
        gc.callbacks.append(self.on_gc)
        for layer, module_name, attribute in WRAPS:
            owner, name = resolve(module_name, attribute)
            target = getattr(owner, name)
            if isinstance(target, dict):
                for key, fn in list(target.items()):
                    target[key] = self.wrap(layer, fn)
            else:
                setattr(owner, name, self.wrap(layer, target))

    def dump(self, path: str) -> None:
        fields = ("id", "parent", "layer", "thread", "start", "end", "attrs")
        with open(path, "w", encoding="utf-8") as handle:
            for span in list(self.spans):
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans-out", required=True, help="JSONL file written on exit")
    parser.add_argument("repro_args", nargs=argparse.REMAINDER, help="e.g. serve --port 0")
    args = parser.parse_args(argv)
    recorder = Recorder()
    recorder.install()
    from repro.__main__ import main as repro_main

    try:
        return repro_main(args.repro_args)
    finally:
        recorder.dump(args.spans_out)


if __name__ == "__main__":
    raise SystemExit(main())
