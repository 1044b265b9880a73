"""Run a query over sampled possible worlds and report the observed range.

This is the paper's MC baseline: "sample a number of possible worlds, and
evaluate the same query on each using a traditional DBMS".  The observed
minimum/maximum are what Figure 5 plots as M_min / M_max, against LICM's
exact L_min / L_max.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List

from repro.anonymize.encode import EncodedDatabase
from repro.errors import SamplingError
from repro.mc.sampler import sample_world
from repro.obs.export import phase
from repro.obs.tracer import Stopwatch, current_tracer
from repro.relational.query import PlanNode, evaluate


@dataclass
class MCResult:
    """Observed aggregate answers over the sampled worlds."""

    values: List[int] = field(default_factory=list)
    sample_time: float = 0.0
    query_time: float = 0.0

    @property
    def minimum(self) -> int:
        return min(self.values)

    @property
    def maximum(self) -> int:
        return max(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def total_time(self) -> float:
        return self.sample_time + self.query_time

    def __repr__(self) -> str:
        return (
            f"MCResult(n={len(self.values)}, observed=[{self.minimum}, "
            f"{self.maximum}], mean={self.mean:.1f})"
        )


def run_monte_carlo(
    encoded: EncodedDatabase,
    plan: PlanNode,
    samples: int = 20,
    seed: int = 0,
    max_workers: int = 1,
) -> MCResult:
    """Sample ``samples`` worlds (the paper uses 20) and evaluate the plan.

    The plan must end in a terminal aggregate (CountStar / SumAttr).

    Sampling is always serial (the RNG stream defines the worlds, so the
    result is identical for any ``max_workers``); the per-world query
    evaluations fan out over a thread pool when ``max_workers > 1``.
    ``sample_time``/``query_time`` are summed per-world CPU-ish costs, not
    wall time — unchanged semantics from the serial implementation.
    """
    if samples < 1:
        raise SamplingError("need at least one sample")
    tracer = current_tracer()
    rng = random.Random(seed)
    result = MCResult()

    with tracer.span("mc.sample", samples=samples) as sample_span:
        with phase("mc_sample"):
            worlds = []
            for _ in range(samples):
                per_world = Stopwatch()
                worlds.append(sample_world(encoded, rng))
                result.sample_time += per_world.stop()
        if result.sample_time > 0:
            sample_span.set("worlds_per_s", samples / result.sample_time)

    # Worker threads inherit this span explicitly so their per-world spans
    # stay attached to the trace tree.
    def evaluate_one_traced(db, parent):
        with tracer.span("mc.world_eval", parent=parent):
            per_world = Stopwatch()
            value = evaluate(plan, db)
            return value, per_world.stop()

    with tracer.span("mc.evaluate", samples=samples, workers=max_workers) as eval_span:
        with phase("mc_evaluate"):
            if max_workers > 1:
                with ThreadPoolExecutor(
                    max_workers=max_workers, thread_name_prefix="repro-mc"
                ) as pool:
                    outcomes = list(
                        pool.map(lambda db: evaluate_one_traced(db, eval_span), worlds)
                    )
            else:
                outcomes = [evaluate_one_traced(db, eval_span) for db in worlds]

        for value, elapsed in outcomes:
            result.query_time += elapsed
            if not isinstance(value, int):
                raise SamplingError("Monte Carlo evaluation requires an aggregate plan")
            result.values.append(value)
        if result.query_time > 0:
            eval_span.set("worlds_per_s", samples / result.query_time)
    return result
