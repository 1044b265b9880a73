"""The shared solve engine: one session per model, reused across queries.

A :class:`SolveSession` owns the full ``model -> prune -> split -> one
BIP per block -> solve(min) + solve(max) -> witness`` pipeline that
every aggregate bound in the repo needs, and layers on top of it:

* a fingerprint of each independent block of a pruned problem, built
  once in its canonical column order (:mod:`repro.engine.canonical`), so
  structurally repeated blocks are recognised even though each
  evaluation allocates its own lineage variables;
* a memo of prepared problems under a key the caller names (the service
  scheduler's plan identity), so a repeated request skips plan
  evaluation and prepare entirely (see :meth:`SolveSession.prepare`);
* a bounded cost-aware solve cache (:mod:`repro.engine.cache`) keyed by
  ``(fingerprint, sense)`` — the L1 tier, GreedyDual-evicted by each
  entry's recompute seconds — invalidated when the model's base store
  changes.  Queries evaluated inside
  :meth:`~repro.core.database.LICMModel.scoped` never change it, so a
  Figure-5 k-sweep amortizes its solves;
* whole exact answers kept in that same L1 under ``("answer", key)``
  (:meth:`SolveSession.kept_answer` / :meth:`SolveSession.keep_answer`),
  so a repeated exact answer is one read — same lifetime, same eviction;
* optionally, a cross-process L2 tier (:mod:`repro.engine.l2cache`)
  shared by every worker pointed at the same SQLite file — pass
  ``l2_path``;
* dispatch of every ``(component, sense)`` solve unit through an
  :class:`~repro.engine.fabric.ExecutorFabric` — inline (serial) or a
  pool of forked worker processes — one code path, two scheduling
  configurations;
* counters and phase timings on the process metrics registry
  (:func:`repro.obs.export.count` / :func:`~repro.obs.export.phase`),
  in place of hand-rolled ``perf_counter`` bookkeeping.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.constraints import LinearConstraint
from repro.core.linexpr import LinearExpr
from repro.core.pruning import prune
from repro.engine.cache import CachedSolve, KeptAnswer, LRUCache, SolveCache
from repro.engine.canonical import canonicalize
from repro.engine.fabric import (
    ExecutorFabric,
    InlineFabric,
    SolveUnit,
    UnitResult,
    l2_handle,
    l2_read,
)
from repro.errors import EngineError, InfeasibleError
from repro.obs.export import count, global_registry, phase
from repro.obs.tracer import Stopwatch, current_tracer
from repro.solver.decompose import closed_form, split_blocks
from repro.solver.interface import _resolve_backend
from repro.solver.model import from_licm
from repro.solver.result import Solution, SolverOptions

_SENSES = ("min", "max")

#: Bucket edges for the components-per-solve histogram (counts, not seconds).
_COMPONENT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: L1 entries per memoized prepared problem.  An L1 entry is one solution
#: vector; a prepared problem of the benchmark fixture (600 transactions)
#: holds megabytes of per-block dense forms, and answering it fills two
#: L1 entries per component anyway.  The default ``cache_size=128`` keeps
#: 8 prepared problems per session.
_L1_ENTRIES_PER_PREPARED = 16


@dataclass
class PreparedComponent:
    """One independent block of a prepared problem.

    ``problem`` is the block's own dense BIP, in the canonical column
    order :func:`~repro.solver.model.from_licm` fixes; ``dense`` maps
    *model* variable indices to its columns, and ``fingerprint`` names the
    problem (:func:`~repro.engine.canonical.canonicalize`) — the
    per-component cache key.  A solution vector, cached or fresh, is
    indexed by those columns.  A problem that does not split has one
    component: the whole problem, objective constant included.
    Everything here is plain data, so a component crosses a process
    boundary intact.  ``kernel`` is the block's
    :class:`~repro.solver.kernels.CompiledProblem`, built by the first
    root pass that needs it and shared by both senses.
    """

    problem: object
    dense: dict
    fingerprint: str
    kernel: Optional[object] = field(default=None, repr=False, compare=False)


@dataclass
class PreparedProblem:
    """A pruned problem split into normalized components — ready to solve.

    Produced by :meth:`SolveSession.prepare`; hand it back to
    :meth:`SolveSession.solve_prepared` for the bounds.

    ``components`` holds the connected components of the constraint
    graph — one or more: each solves and caches independently, and
    :meth:`SolveSession.solve_prepared` adds up the per-component
    optima plus ``objective_offset``: the objective constant when the
    problem splits (sub-objectives carry none), 0 when its one component
    is the whole problem.  ``fingerprint`` names the problem (trace spans,
    responses): its one component's fingerprint, or a digest of the
    sorted component fingerprints and the offset.

    The session memoizes prepared problems and shares their parts between
    callers, so nothing downstream may mutate one.  The one exception is
    ``verdicts``: the estimator tier verdicts
    :class:`~repro.estimator.tiered.TieredAnswerer` computed for this
    problem's components, keyed by answerer and component fingerprint.
    A memo hit shares the dict, so the verdicts live exactly as long as
    the memo entry.  Nothing but the answerer reads it.

    A prepared problem is self-contained: it outlives the lineage scope
    that evaluated its query.  A memo hit returns the first preparation
    with only ``prep_time`` refreshed; its ``prune_stats`` ``*_before``
    count the base model plus that query's own lineage.

    ``tuples`` is empty but for a MIN/MAX or AVG problem
    (:func:`repro.core.bounds.prepare_minmax`,
    :func:`~repro.core.bounds.avg_bounds`): one ``(value, index)`` pair
    per result tuple, ``index`` the model variable of its existence (a
    key of the one component's ``dense``) or ``None`` for a certain
    tuple.  Such a problem's objective only seeds the pruning: it is not
    the aggregate.  It is one component, since the probes' rows couple
    its blocks.
    """

    components: Tuple[PreparedComponent, ...]
    fingerprint: str
    objective_offset: float = 0
    prune_stats: dict = field(default_factory=dict)
    prep_time: float = 0.0
    tuples: tuple = ()
    verdicts: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def decomposed(self) -> bool:
        return len(self.components) > 1


def _fingerprint(components: Sequence[PreparedComponent], offset) -> str:
    """The whole problem's name: its one component's fingerprint, else a
    digest of the sorted component fingerprints and the offset."""
    if len(components) == 1:
        return components[0].fingerprint
    key = (tuple(sorted(part.fingerprint for part in components)), offset)
    return hashlib.blake2b(repr(key).encode("utf-8"), digest_size=16).hexdigest()


def _root_span_record(
    result: UnitResult, component: int, start_unix: float, source: str
) -> dict:
    """The ``engine.solve.*`` span of a block the root pass claimed, as a
    record ``_collect`` ingests like a worker's (see ``run_unit``).
    ``source`` names what found the closing point: ``seed`` (the greedy
    seed) or ``enumeration``."""
    attributes = {
        "component": component,
        "cached": False,
        "status": result.status,
        "objective": result.objective,
        "nodes": result.nodes,
        "backend": result.backend,
        "root_pass": True,
    }
    if result.l2_hit:
        attributes["l2_hit"] = True
    elif result.objective is not None:
        # The point that closed the block, in the search's negated-max
        # space (see explain.mine_timeline).
        signed = -result.objective if result.sense == "min" else result.objective
        attributes["incumbents"] = [
            {"node": 0, "objective": signed, "source": source, "t": result.solve_time}
        ]
    return {
        "name": f"engine.solve.{result.sense}",
        "start_unix": start_unix,
        "duration": result.solve_time,
        "status": "ok",
        "thread": threading.current_thread().name,
        "attributes": attributes,
    }


class SolveSession:
    """Reusable solve pipeline bound to one LICM model.

    :param model: the shared :class:`~repro.core.database.LICMModel`.
    :param options: solver options applied to every solve in the session.
    :param prune_method: ``'lineage'`` (default), ``'fixpoint'`` or
        ``'single_pass'`` — see :mod:`repro.core.pruning`.
    :param cache_size: L1 capacity in solve outcomes and kept answers; it
        also sizes the prepared-problem memo (one entry per 16, rounded
        up).  ``0`` disables both.  Both evict GreedyDual by recompute
        cost: an L1 entry costs its solve wall (or L2 read), a kept answer
        at least the entries it replaces, a memo entry its ``prep_time``.
    :param fabric: inject a shared :class:`ExecutorFabric` — the service
        scheduler passes one fabric to every session; the session will
        not close it.  ``None`` (default) runs every unit inline.
    :param l2_path: SQLite file for the cross-process L2 solve cache;
        ``None`` (default) disables the L2 tier.
    """

    def __init__(
        self,
        model,
        options: Optional[SolverOptions] = None,
        prune_method: str = "lineage",
        cache_size: int = 128,
        fabric: Optional[ExecutorFabric] = None,
        l2_path: Optional[str] = None,
    ):
        self.model = model
        self.options = options or SolverOptions()
        self.prune_method = prune_method
        self.cache = SolveCache(cache_size)
        self._prepared = LRUCache(-(-cache_size // _L1_ENTRIES_PER_PREPARED))
        self.l2_path = l2_path
        self._external_fabric = fabric is not None
        self.fabric = fabric if fabric is not None else InlineFabric()
        self._closed = False
        self._seen_generation = model.constraints.generation

    # -- lifecycle ---------------------------------------------------------
    def __enter__(self) -> "SolveSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the session-owned fabric (injected ones are kept).

        Idempotent: closing twice is a no-op.  Any solve attempted after
        the first ``close()`` raises :class:`~repro.errors.EngineError`.
        """
        if self._closed:
            return
        if not self._external_fabric:
            self.fabric.close()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def parallel(self) -> bool:
        return self.fabric.kind != "inline"

    # -- cache freshness ---------------------------------------------------
    def _ensure_fresh(self) -> None:
        """Invalidate the caches if the model's base store changed.

        The store generation counts appends made outside a
        :meth:`~repro.core.database.LICMModel.scoped` block: a user
        correlation, a manual ``model.add``, and also lineage evaluated
        without a scope (conservatively).  Any such append clears the L1
        (kept answers included) and the prepared memo.
        """
        if self._closed:
            raise EngineError(
                f"SolveSession for {self.model!r} is closed "
                "(close() was called; its fabric is shut down) — "
                "create a new session to keep solving"
            )
        generation = self.model.constraints.generation
        if generation == self._seen_generation:
            return
        self._seen_generation = generation
        self.cache.clear()
        self._prepared.clear()
        count("cache_invalidations")

    # -- pipeline phases ---------------------------------------------------
    def _prepare(
        self,
        objective: LinearExpr,
        extra_constraints: Sequence[LinearConstraint],
        do_prune: bool,
        span,
        split: bool = True,
    ) -> Tuple[Tuple[PreparedComponent, ...], dict]:
        """Prune, split and normalize one objective under the caller's
        ``engine.prepare`` span.  Returns ``(components, prune_stats)``.

        With ``split``, union-find over the LICM constraint scopes plus
        the objective's support (objective-only variables form the
        trailing *free* block — solved in closed form) cuts the pruned
        problem into connected components.  Each is normalized and
        fingerprinted on its own, once, so the solve cache hits per block:
        a repeat query touching one changed anonymization group re-solves
        only that block.  A problem that does not separate (one block, or
        a degenerate empty-scope constraint) is normalized once, whole,
        objective constant included, as its one component.
        """
        with phase("prune"):
            extra = list(extra_constraints)
            if do_prune:
                seeds = set(objective.coeffs)
                for constraint in extra:
                    seeds.update(constraint.variables)
                pruned = prune(
                    self.model.constraints, seeds, self.prune_method, model=self.model
                )
                constraints = pruned.constraints + extra
                variables = pruned.variables
                prune_stats = dict(pruned.stats)
            else:
                constraints = list(self.model.constraints) + extra
                variables = set(objective.coeffs)
                for constraint in constraints:
                    variables.update(constraint.variables)
                prune_stats = {
                    "variables_before": len(variables),
                    "constraints_before": len(constraints),
                    "variables_after": len(variables),
                    "constraints_after": len(constraints),
                }
        for key, value in prune_stats.items():
            span.set(key, value)
        parts = [(objective, constraints)]
        scopes = [constraint.variables for constraint in constraints]
        if split and all(scopes):
            with current_tracer().span("engine.decompose") as decompose:
                blocks = split_blocks(scopes, variables=objective.coeffs)
                decompose.set("components", max(len(blocks), 1))
                self._observe_components(max(len(blocks), 1))
            if len(blocks) > 1:
                count("decomposed_prepares")
                coeffs = objective.coeffs
                parts = [
                    (
                        LinearExpr(
                            {i: coeffs[i] for i in block.variables if i in coeffs}, 0
                        ),
                        [constraints[cid] for cid in block.constraint_ids],
                    )
                    for block in blocks
                ]
        with phase("normalize"):
            names = self.model.pool.names(variables)
            components = []
            for sub_objective, sub_constraints in parts:
                problem, dense = from_licm(sub_objective, sub_constraints, names)
                components.append(
                    PreparedComponent(problem, dense, canonicalize(problem))
                )
        return tuple(components), prune_stats

    def _observe_components(self, components: int) -> None:
        """The always-on components-per-solve distribution (+ exemplar)."""
        span = current_tracer().current()
        trace_id = getattr(span, "trace_id", "") if span is not None else ""
        global_registry().histogram(
            "engine_components_per_solve",
            "Connected components per prepared engine BIP (1 = inseparable)",
            buckets=_COMPONENT_BUCKETS,
        ).observe(
            float(components),
            exemplar={"trace_id": trace_id} if trace_id else None,
        )

    # -- unit dispatch -----------------------------------------------------
    def _l1_probe(self, fingerprint: str, sense: str, component: int) -> Optional[CachedSolve]:
        """One L1 lookup, with its counters.  ``None`` means miss."""
        entry = self.cache.get((fingerprint, sense))
        if entry is None:
            count("cache_misses")
            return None
        count("cache_hits")
        tracer = current_tracer()
        if tracer.enabled:
            with tracer.span(f"engine.solve.{sense}") as span:
                span.set("component", component)
                span.set("cached", True).set("status", entry.status)
                span.set("objective", entry.objective).set("nodes", entry.nodes)
                span.set("backend", entry.backend)
        return entry

    def _unit(
        self,
        part: PreparedComponent,
        sense: str,
        component: int,
        options: Optional[SolverOptions],
    ) -> SolveUnit:
        tracer = current_tracer()
        trace_id = getattr(tracer.current(), "trace_id", "")
        return SolveUnit(
            problem=part.problem,
            sense=sense,
            fingerprint=part.fingerprint,
            options=options or self.options,
            # A solve under per-call options (a request deadline) is not
            # authoritative for the fingerprint — see the cache guards.
            authoritative=options is None,
            component=component,
            l2_path=self.l2_path,
            # Seed the worker-side recording tracer: repatriated spans
            # and exemplars must carry the *requesting* trace's id.
            trace_id=trace_id or None,
            sample_every=tracer.sample_every or 64,
        )

    def _collect(
        self,
        result: UnitResult,
        fingerprint: str,
        sense: str,
        options: Optional[SolverOptions],
    ) -> Tuple[CachedSolve, bool, float, bool]:
        """Fold one :class:`UnitResult` back into session state.

        Runs on the submitting thread: L1 write-through (guarded), the
        always-on counters, phase timings and metrics, adoption of any
        span records shipped home from a worker process, and replay of the
        worker's metrics delta into this process's global registry.  Returns
        ``(entry, cached, seconds, l2_hit)``.
        """
        tracer = current_tracer()
        if result.metrics_delta:
            global_registry().merge_delta(result.metrics_delta)
        if result.spans and tracer.enabled:
            tracer.ingest(result.spans)
        entry = result.to_cached()
        # A solve truncated by per-call options (a request deadline) is not
        # authoritative for the fingerprint: only cache it when optimal, so
        # a degraded request never poisons later full-budget answers.
        if options is None or entry.status == "optimal":
            # Costed by what recomputing it would take: the solve wall, the
            # root pass's per-block share, or the L2 read on an L2 hit.
            self.cache.put((fingerprint, sense), entry, cost=result.solve_time)
        registry = global_registry()
        # The solve ran (and was timed) on the fabric; credit its wall time.
        registry.counter("phase_seconds_total").inc(
            result.solve_time, labels={"phase": f"solve_{sense}"}
        )
        count("solver_nodes", result.nodes)
        registry.counter(
            "engine_fabric_units_total",
            "Solve units executed, by fabric kind",
        ).inc(labels={"fabric": self.fabric.kind})
        if self.l2_path is not None:
            if result.l2_hit:
                registry.counter(
                    "engine_l2_hits_total", "Cross-process L2 solve cache hits"
                ).inc()
            else:
                registry.counter(
                    "engine_l2_misses_total", "Cross-process L2 solve cache misses"
                ).inc()
            if result.l2_stored:
                registry.counter(
                    "engine_l2_writes_total", "Cross-process L2 solve cache writes"
                ).inc()
        if not result.l2_hit:
            # Always-on distribution of real solve walls (cache hits
            # excluded), exemplar-linked to the request trace so a slow
            # bucket names a specific span tree.
            trace_id = getattr(tracer.current(), "trace_id", "")
            registry.histogram(
                "engine_solve_seconds", "Wall seconds per engine BIP solve direction"
            ).observe(
                result.solve_time,
                labels={"sense": sense, "backend": result.backend or "unknown"},
                exemplar={"trace_id": trace_id} if trace_id else None,
            )
        return entry, False, result.solve_time, result.l2_hit

    def _root_pass(
        self,
        tasks: Sequence[Tuple[PreparedComponent, str, int]],
        options: Optional[SolverOptions],
    ) -> Dict[Tuple[str, str], UnitResult]:
        """Close every root-closable L1 miss of ``tasks`` in one kernel pass.

        Takes the distinct ``(fingerprint, sense)`` pairs of prepared
        components that are not in L1 and that the solver facade would
        route to the branch-and-bound, stacks them into one
        :class:`~repro.solver.kernels.RootBatch` and
        keeps the blocks the root kernels close: propagation proved them
        infeasible, or a validated greedy point reaches the kernel bound
        (the proof of the branch-and-bound's node-0 seed shortcut), or
        the block has at most
        :data:`~repro.solver.kernels.ENUMERATE_MAX_FREE` free variables
        left and listing every completion found its checked optimum or
        proved it infeasible.  A claimed block carries what its unit
        would have returned: ``backend='bb'``, one node (none when
        presolve would have fixed every variable or proved
        infeasibility).  Constraint-free blocks get their closed form,
        as in a unit.  A claimed key found in L2 takes the stored
        outcome if it passes :func:`~repro.engine.fabric.l2_read`'s
        check, and a fresh one is written through, so L2 sees exactly
        what the unit path would show it.  The ``engine.root_pass`` span
        records ``blocks``, ``closed`` and ``enumerated``.  Returns the
        claimed results by key; every other task becomes a unit.

        Skipped when ``seed_incumbent=False`` (each unit then runs as
        before), and when the options already ask to stop — the pre-check
        ``_solve_max`` makes before any root work.
        """
        effective = options or self.options
        if not effective.seed_incumbent:
            return {}
        todo: Dict[Tuple[str, str], Tuple[object, int]] = {}
        for part, sense, component in tasks:
            key = (part.fingerprint, sense)
            if key in todo or key in self.cache:
                continue
            if _resolve_backend(effective.backend, part.problem) == "bb":
                todo[key] = (part, component)
        if not todo or effective.should_stop():
            return {}
        from repro.solver import kernels

        tracer = current_tracer()
        with tracer.span("engine.root_pass", blocks=len(todo)) as pass_span:
            start_unix = time.time()
            clock = Stopwatch()
            solved: Dict[Tuple[str, str], object] = {}
            kernel_keys = []
            for key, (part, _) in todo.items():
                if not part.problem.constraints:
                    solved[key] = closed_form(part.problem, key[1])
                    continue
                if part.kernel is None:
                    part.kernel = kernels.compile_problem(part.problem)
                kernel_keys.append(key)
            verdicts = kernels.close_roots(
                [(todo[key][0].kernel, 1 if key[1] == "max" else -1) for key in kernel_keys]
            )
            enumerated = 0
            for key, verdict in zip(kernel_keys, verdicts):
                if verdict.closed:
                    solved[key] = verdict
                    enumerated += verdict.enumerated
            share = clock.stop() / max(len(solved), 1)
            pass_span.set("closed", len(solved)).set("enumerated", enumerated)
            if enumerated:
                global_registry().counter(
                    "engine_root_enumerated_total",
                    "Blocks the root pass settled by enumerating every completion",
                ).inc(enumerated)

            claims: Dict[Tuple[str, str], UnitResult] = {}
            l2 = l2_handle(self.l2_path)
            for key, outcome in solved.items():
                part, component = todo[key]
                fingerprint, sense = key
                read = Stopwatch()
                stored = (
                    l2_read(l2, part.problem, fingerprint, sense) if l2 is not None else None
                )
                if stored is not None:
                    result = UnitResult.from_cached(
                        fingerprint, sense, stored, l2_hit=True,
                        solve_time=read.stop(), worker_pid=os.getpid(),
                    )
                else:
                    result = self._root_result(part, sense, outcome, effective, share)
                    if l2 is not None:
                        result.l2_stored = l2.put(
                            fingerprint, sense, result.to_cached(),
                            authoritative=options is None,
                        )
                if tracer.enabled:
                    source = "enumeration" if getattr(outcome, "enumerated", False) else "seed"
                    result.spans.append(
                        _root_span_record(result, component, start_unix, source)
                    )
                claims[key] = result
        return claims

    @staticmethod
    def _root_result(part, sense: str, outcome, options: SolverOptions, seconds: float):
        """The :class:`UnitResult` of one block the root pass closed.

        ``outcome`` is a closed-form :class:`Solution` or a closed
        :class:`~repro.solver.kernels.RootVerdict` (signed max space).
        """
        if isinstance(outcome, Solution):
            status, objective, x = outcome.status, outcome.objective, outcome.x
            nodes, backend = outcome.nodes, outcome.backend
        else:
            status = "optimal" if outcome.feasible else "infeasible"
            objective, x = outcome.objective, outcome.x
            if objective is not None and sense == "min":
                objective = -objective
            # Presolve settles a block its root propagation fixes or
            # refutes before the search counts a node; a block only
            # enumeration settles would have reached the search.
            presolved = (
                options.use_presolve
                and not outcome.enumerated
                and (not outcome.feasible or outcome.fixed)
            )
            nodes = 0 if presolved else 1
            backend = "bb"
        return UnitResult(
            fingerprint=part.fingerprint,
            sense=sense,
            status=status,
            objective=objective,
            x_canonical=None if x is None else tuple(x),
            bound=None if objective is None else float(objective),
            nodes=nodes,
            backend=backend,
            solve_time=seconds,
            worker_pid=os.getpid(),
        )

    def _solve_tasks(
        self,
        tasks: Sequence[Tuple[PreparedComponent, str, int]],
        options: Optional[SolverOptions],
    ) -> List[Tuple[CachedSolve, bool, float, bool]]:
        """Run ``(component, sense, index)`` tasks.

        The one dispatch path for every fabric.  First the root pass
        (:meth:`_root_pass`) closes what the kernels can close for the
        whole batch at once; then tasks are taken strictly in order: an
        L1 probe, else the pass's result, else a unit on the fabric.  A
        serial (inline) fabric waits for each unit before the next probe,
        so a later task whose key an earlier one just stored hits L1.  A
        process fabric submits every miss before collecting, with all
        directions and components in flight at once; a task whose key is
        already in flight waits for it and then probes L1, so duplicate
        keys cost one solve and count as hits on every fabric.
        """
        claims = self._root_pass(tasks, options) if tasks else {}
        outcomes: List[Optional[Tuple[CachedSolve, bool, float, bool]]] = [None] * len(
            tasks
        )

        def collect(i: int, result: UnitResult) -> None:
            part, sense, _ = tasks[i]
            outcomes[i] = self._collect(result, part.fingerprint, sense, options)

        def start(i: int):
            """Probe, claim or submit task ``i``; a future when submitted."""
            part, sense, component = tasks[i]
            hit = self._l1_probe(part.fingerprint, sense, component)
            if hit is not None:
                outcomes[i] = (hit, True, 0.0, False)
                return None
            claim = claims.get((part.fingerprint, sense))
            if claim is not None:
                collect(i, claim)
                return None
            unit = self._unit(part, sense, component, options)
            return self.fabric.submit_unit(unit)

        pending = []
        in_flight = set()
        waiting = []
        for i, (part, sense, _) in enumerate(tasks):
            key = (part.fingerprint, sense)
            if key in in_flight:
                waiting.append(i)
                continue
            future = start(i)
            if future is None:
                continue
            if self.parallel:
                pending.append((i, future))
                in_flight.add(key)
            else:
                collect(i, future.result())
        for i, future in pending:
            collect(i, future.result())
        for i in waiting:
            future = start(i)
            if future is not None:
                collect(i, future.result())
        return outcomes  # type: ignore[return-value]

    # -- public API --------------------------------------------------------
    def solve_units(
        self,
        tasks: Sequence[Tuple[PreparedComponent, str, int]],
        options: Optional[SolverOptions] = None,
    ) -> List[Tuple[CachedSolve, bool, float, bool]]:
        """Dispatch raw ``(component, sense, index)`` units through the
        session's fabric and caches.

        The escalation entry point for the tiered answerer
        (:mod:`repro.estimator`): individual disagreeing components go to
        the exact solver without re-running the whole prepared problem.
        Identical cache/L2 semantics to :meth:`solve_prepared` — entries
        under per-call ``options`` are cached only when optimal.  Returns
        one ``(entry, cached, seconds, l2_hit)`` tuple per task, in order.
        """
        self._ensure_fresh()
        return self._solve_tasks(list(tasks), options)

    def kept_answer(self, key: Hashable) -> Optional[KeptAnswer]:
        """The exact answer :meth:`keep_answer` kept under ``key``, or ``None``.

        Runs the freshness check first, so a base append drops every kept
        answer before it can be read; counts ``answer_hits`` or
        ``answer_misses``.  ``key`` must determine the answer given the
        base model: the service scheduler keys every answer by its plan
        identity (each evaluation writes its own lineage over the same
        base, inside a scope).
        """
        self._ensure_fresh()
        kept = self.cache.get(("answer", key))
        count("answer_hits" if kept is not None else "answer_misses")
        return kept

    def keep_answer(
        self,
        key: Hashable,
        answer: KeptAnswer,
        cost: float,
        replaces: Sequence[PreparedComponent] = (),
    ) -> None:
        """Keep an exact answer in L1 under ``key`` (nothing when
        ``cache_size=0``).

        Priced at ``cost`` or the summed L1 cost of the ``(component,
        sense)`` entries of ``replaces``, whichever is higher: a read
        stands in for all of those entries, so it must not be cheaper to
        evict than any one of them.
        """
        floor = sum(
            self.cache.cost((part.fingerprint, sense))
            for part in replaces
            for sense in _SENSES
        )
        self.cache.put(("answer", key), answer, cost=max(cost, floor))

    def memoized(self, key: Hashable) -> Optional[PreparedProblem]:
        """The problem :meth:`prepare` memoized under ``key`` (with a fresh
        ``prep_time``), or ``None``.  Runs the freshness check first; a hit
        opens the ``engine.prepare`` span with ``memo=True`` and counts
        ``prepare_memo_hits``."""
        self._ensure_fresh()
        prep = Stopwatch()
        memoized = self._prepared.get(key)
        if memoized is not None:
            with current_tracer().span("engine.prepare", memo=True) as span:
                span.set("fingerprint", memoized.fingerprint)
            count("prepare_memo_hits")
            memoized = replace(memoized, prep_time=prep.stop())
        return memoized

    def prepare(
        self,
        objective: LinearExpr,
        extra_constraints: Sequence[LinearConstraint] = (),
        do_prune: bool = True,
        key: Optional[Hashable] = None,
        tuples: tuple = (),
    ) -> PreparedProblem:
        """Run the prune/split/normalize phases without solving.

        Each component of the returned :class:`PreparedProblem` is built
        (``from_licm``) and fingerprinted (``canonicalize``) once; finish via
        :meth:`solve_prepared` (or the tiered answerer).

        With a ``key`` the result is memoized under it, and a problem
        memoized there is returned instead (:meth:`memoized`).  The key
        must determine the problem given the base model: the service
        scheduler passes the plan identity and evaluates each plan inside
        :meth:`~repro.core.database.LICMModel.scoped`.  Without a key
        nothing is memoized — objective indices are reused across scopes.
        ``tuples`` is carried onto the result unchanged
        (:attr:`PreparedProblem.tuples`); such a problem is not split.
        """
        memoized = self.memoized(key)  # nothing is ever stored under None
        if memoized is not None:
            return memoized
        prep = Stopwatch()
        with current_tracer().span("engine.prepare") as span:
            components, prune_stats = self._prepare(
                objective, tuple(extra_constraints), do_prune, span, split=not tuples
            )
            offset = objective.constant if len(components) > 1 else 0
            fingerprint = _fingerprint(components, offset)
            span.set("fingerprint", fingerprint)
        prepared = PreparedProblem(
            components=components,
            fingerprint=fingerprint,
            objective_offset=offset,
            prune_stats=prune_stats,
            prep_time=prep.stop(),
            tuples=tuples,
        )
        if key is not None:
            self._prepared.put(key, prepared, cost=prepared.prep_time)
        return prepared

    def solve_prepared(
        self,
        prepared: PreparedProblem,
        options: Optional[SolverOptions] = None,
    ):
        """Both directions of an already-prepared problem.

        ``options`` overrides the session's solver options for this call
        only (the service layer passes a deadline-carrying copy); results
        from overridden solves enter the caches only when optimal.  Returns
        :class:`~repro.core.bounds.AggregateBounds`.

        Every ``(component, sense)`` pair runs through the per-component
        cache (its own canonical fingerprint) and the fabric; deadline
        options and cancellation apply to each component solve.  The
        recombination is additive: ``min Σ = Σ min`` and ``max Σ = Σ max``
        because no constraint crosses components, an infeasible component
        proves global infeasibility, and per-component dual bounds sum to
        a valid global bound.  ``cache_hits`` stays 0..2 (a direction
        counts as cached only when *every* component entry was); the raw
        per-component count is ``stats['component_cache_hits']``.
        """
        from repro.core.bounds import AggregateBounds

        self._ensure_fresh()
        components = prepared.components
        tasks = [(sense, c) for sense in _SENSES for c in range(len(components))]
        results = self._solve_tasks(
            [(components[c], sense, c) for sense, c in tasks], options
        )
        outcomes = dict(zip(tasks, results))

        for entry, _, _, _ in outcomes.values():
            if entry.status == "infeasible":
                raise InfeasibleError("the LICM constraints admit no possible world")

        def summed(values):
            """Σ per-component values + the objective offset; ``None`` if
            any component has none."""
            if any(value is None for value in values):
                return None
            return sum(values) + prepared.objective_offset

        def side(sense: str):
            entries = [outcomes[(sense, c)][0] for c in range(len(components))]
            all_cached = all(outcomes[(sense, c)][1] for c in range(len(components)))
            hits = sum(int(outcomes[(sense, c)][1]) for c in range(len(components)))
            seconds = sum(outcomes[(sense, c)][2] for c in range(len(components)))
            l2_hits = sum(int(outcomes[(sense, c)][3]) for c in range(len(components)))
            objective = summed([entry.objective for entry in entries])
            bound = summed([entry.bound for entry in entries])
            witness = None
            if all(entry.x_canonical is not None for entry in entries):
                witness = {}
                for component, entry in zip(components, entries):
                    x = entry.x_canonical
                    witness.update(
                        {index: x[column] for index, column in component.dense.items()}
                    )
            return {
                "entries": entries,
                "objective": objective,
                "bound": bound,
                "witness": witness,
                "exact": all(entry.status == "optimal" for entry in entries),
                "nodes": sum(entry.nodes for entry in entries),
                "cached": all_cached,
                "hits": hits,
                "l2_hits": l2_hits,
                "seconds": seconds,
            }

        low, high = side("min"), side("max")
        backend = next(
            (
                entry.backend
                for entry in high["entries"]
                if entry.backend and entry.backend != "closed-form"
            ),
            "closed-form",
        )
        return AggregateBounds(
            lower=low["objective"],
            upper=high["objective"],
            lower_witness=low["witness"],
            upper_witness=high["witness"],
            exact=low["exact"] and high["exact"],
            lower_bound_proven=low["bound"],
            upper_bound_proven=high["bound"],
            stats={
                **prepared.prune_stats,
                "problem_variables": sum(c.problem.num_vars for c in components),
                "problem_constraints": sum(
                    c.problem.num_constraints for c in components
                ),
                "prep_time": prepared.prep_time,
                "solve_time": low["seconds"] + high["seconds"],
                "nodes": low["nodes"] + high["nodes"],
                "backend": backend,
                "cache_hits": int(low["cached"]) + int(high["cached"]),
                "component_cache_hits": low["hits"] + high["hits"],
                "l2_hits": low["l2_hits"] + high["l2_hits"],
                "components": len(components),
                "fingerprint": prepared.fingerprint,
            },
        )

    def bounds(
        self,
        objective: LinearExpr,
        extra_constraints: Sequence[LinearConstraint] = (),
        do_prune: bool = True,
        options: Optional[SolverOptions] = None,
    ):
        """Min/max of a linear objective over all possible worlds.

        The engine-native equivalent of
        :func:`repro.core.bounds.objective_bounds`: both directions go
        through the cache, and on a cold cache they run concurrently when
        the session is parallel.  Equivalent to :meth:`prepare` followed
        by :meth:`solve_prepared`.  Returns
        :class:`~repro.core.bounds.AggregateBounds`.
        """
        return self.solve_prepared(
            self.prepare(objective, extra_constraints, do_prune), options=options
        )

    def __repr__(self) -> str:
        mode = (
            f"{self.fabric.kind}(workers={self.fabric.workers})"
            if self.parallel
            else "serial"
        )
        return (
            f"SolveSession({self.model!r}, {mode}, cache={self.cache.stats['size']}/"
            f"{self.cache.maxsize})"
        )
