"""The shared solve engine: one session per model, reused across queries.

A :class:`SolveSession` owns the full ``model -> prune -> BIP normal form
-> solve(min) + solve(max) -> witness`` pipeline that every aggregate
bound in the repo needs, and layers on top of it:

* a canonical fingerprint of each pruned problem
  (:mod:`repro.engine.canonical`), so structurally repeated queries are
  recognised even though each evaluation allocates fresh lineage
  variables;
* a memo of prepared problems keyed by the objective's content, so a
  structurally repeated request skips prune, normalize, canonicalize and
  decompose entirely (see :meth:`SolveSession.prepare`);
* a bounded LRU solve cache (:mod:`repro.engine.cache`) keyed by
  ``(fingerprint, sense)`` — the L1 tier — invalidated when non-lineage
  constraints are added to the model's store (lineage-only appends —
  i.e. answering more queries — keep the cache warm, which is what makes
  a Figure-5 k-sweep amortize its solves);
* optionally, a cross-process L2 tier (:mod:`repro.engine.l2cache`)
  shared by every worker pointed at the same SQLite file — pass
  ``l2_path``;
* dispatch of every ``(component, sense)`` solve unit through an
  :class:`~repro.engine.fabric.ExecutorFabric` — inline (serial),
  thread pool, or a pool of forked worker processes — one code path,
  three scheduling configurations;
* structured instrumentation (:mod:`repro.engine.telemetry`) replacing
  the hand-rolled ``perf_counter`` bookkeeping previously scattered over
  ``core/bounds.py``, ``queries/answer.py`` and the experiment harness.

``repro.core.bounds.objective_bounds`` and ``repro.queries.answer_licm``
remain as thin facades constructing a throwaway session, so existing
callers and their signatures are untouched.
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass, field, replace
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.constraints import LinearConstraint
from repro.core.linexpr import LinearExpr
from repro.core.pruning import prune
from repro.engine.cache import CachedSolve, LRUCache, SolveCache
from repro.engine.canonical import CanonicalBIP, canonicalize
from repro.engine.fabric import (
    ExecutorFabric,
    InlineFabric,
    SolveUnit,
    ThreadFabric,
    UnitResult,
)
from repro.engine.telemetry import (
    CacheProbe,
    ProblemPrepared,
    SolveFinished,
    Stopwatch,
    Telemetry,
)
from repro.errors import EngineError, InfeasibleError
from repro.obs.export import global_registry
from repro.obs.tracer import current_tracer
from repro.solver.decompose import split_blocks
from repro.solver.model import from_licm
from repro.solver.result import Solution, SolverOptions

_SENSES = ("min", "max")

#: Bucket edges for the components-per-solve histogram (counts, not seconds).
_COMPONENT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: L1 entries per memoized prepared problem.  An L1 entry is one solution
#: vector; a prepared problem of the benchmark fixture (600 transactions)
#: holds megabytes of dense and canonical forms, and answering it fills two
#: L1 entries per component anyway.  The default ``cache_size=128`` keeps
#: 8 prepared problems per session.
_L1_ENTRIES_PER_PREPARED = 16


@dataclass
class PreparedComponent:
    """One independent block of a decomposed problem.

    Shaped exactly like the monolithic ``(problem, dense, canonical)``
    triple so a component rides the same cache/solve path: ``problem`` is
    the block's own dense BIP, ``dense`` maps *model* variable indices to
    its solution positions, and ``canonical`` carries the block's own
    fingerprint — the per-component cache key.  Everything here is plain
    data, so a component crosses a process boundary intact.
    """

    problem: object
    dense: dict
    canonical: CanonicalBIP


@dataclass
class PreparedProblem:
    """A pruned, densified, canonicalized problem — ready to solve.

    Produced by :meth:`SolveSession.prepare`; its ``fingerprint`` is the
    dedup key the service scheduler coalesces identical in-flight requests
    on, *before* any solver work happens.  Hand it back to
    :meth:`SolveSession.solve_prepared` for the bounds.

    ``components`` holds the block-separable decomposition when the
    constraint graph splits (and decomposition is enabled): each entry
    solves and caches independently, and :meth:`SolveSession.solve_prepared`
    recombines the per-component optima additively.  Empty means
    monolithic.

    The session memoizes prepared problems and shares their parts between
    callers, so nothing downstream may mutate one.  A memo hit returns the
    first preparation with only ``prep_time`` refreshed: its
    ``prune_stats`` — in particular ``variables_before`` and
    ``constraints_before`` — describe the store as of that first prepare.
    """

    problem: object
    dense: dict
    canonical: CanonicalBIP
    prune_stats: dict = field(default_factory=dict)
    prep_time: float = 0.0
    components: Tuple[PreparedComponent, ...] = ()

    @property
    def fingerprint(self) -> str:
        return self.canonical.fingerprint

    @property
    def decomposed(self) -> bool:
        return len(self.components) > 1


class SolveSession:
    """Reusable solve pipeline bound to one LICM model.

    :param model: the shared :class:`~repro.core.database.LICMModel`.
    :param options: solver options applied to every solve in the session.
    :param prune_method: ``'lineage'`` (default), ``'fixpoint'`` or
        ``'single_pass'`` — see :mod:`repro.core.pruning`.
    :param cache_size: L1 LRU capacity in solve outcomes; it also sizes
        the prepared-problem memo (one entry per 16, rounded up).  ``0``
        disables both.
    :param max_workers: ``> 1`` builds a thread fabric running the min and
        max directions (and per-component fan-out) concurrently; ``1`` is
        strictly serial.  Ignored when ``fabric`` is given.
    :param telemetry: a shared :class:`Telemetry`; a private one is
        created when omitted.
    :param executor: inject a pre-built thread executor (wrapped in a
        thread fabric; the session will not shut it down).
    :param fabric: inject a shared :class:`ExecutorFabric` — the service
        scheduler passes one process fabric to every session; the session
        will not close it.
    :param l2_path: SQLite file for the cross-process L2 solve cache;
        ``None`` (default) disables the L2 tier.
    """

    def __init__(
        self,
        model,
        options: Optional[SolverOptions] = None,
        prune_method: str = "lineage",
        cache_size: int = 128,
        max_workers: int = 1,
        telemetry: Optional[Telemetry] = None,
        executor: Optional[Executor] = None,
        fabric: Optional[ExecutorFabric] = None,
        l2_path: Optional[str] = None,
    ):
        self.model = model
        self.options = options or SolverOptions()
        self.prune_method = prune_method
        self.cache = SolveCache(cache_size)
        self._prepared = LRUCache(-(-cache_size // _L1_ENTRIES_PER_PREPARED))
        self.max_workers = max_workers
        self.telemetry = telemetry or Telemetry()
        self.l2_path = l2_path
        self._external_fabric = fabric is not None
        if fabric is None:
            if executor is not None:
                fabric = ThreadFabric(max_workers, executor=executor)
            elif max_workers > 1:
                fabric = ThreadFabric(max_workers)
            else:
                fabric = InlineFabric()
        self.fabric = fabric
        self._closed = False
        self._seen_generation = model.constraints.generation
        self._seen_length = len(model.constraints)

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
        """Invalidate the caches if non-lineage constraints were added.

        The store is append-only, so its generation counter equals its
        length.  Appends that are all registered operator lineage cannot
        change any previously fingerprinted pruned problem (lineage
        constraints are deterministic and sibling lineage is never part
        of another query's pruned BIP), so the cache stays warm across
        repeated query evaluations.  The same argument keeps the
        prepared-problem memo warm under lineage pruning (see
        :meth:`prepare`).  Any other append — a user correlation, a manual
        ``model.add`` — clears the cache and the memo.
        """
        if self._closed:
            raise EngineError(
                f"SolveSession for {self.model!r} is closed "
                "(close() was called; its fabric is shut down) — "
                "create a new session to keep solving"
            )
        store = self.model.constraints
        generation = store.generation
        if generation == self._seen_generation:
            return
        appended = generation - self._seen_generation
        new_length = len(store)
        lineage_only = new_length - self._seen_length == appended and all(
            self.model.is_lineage_constraint(store[pos])
            for pos in range(self._seen_length, new_length)
        )
        self._seen_generation = generation
        self._seen_length = new_length
        if lineage_only:
            return
        self.cache.clear()
        self._prepared.clear()
        self.telemetry.count("cache_invalidations")
        self.telemetry.emit(CacheProbe("invalidate", size=0))

    # -- pipeline phases ---------------------------------------------------
    def _prepare(
        self,
        objective: LinearExpr,
        extra_constraints: Sequence[LinearConstraint],
        do_prune: bool,
        decompose: bool = False,
    ):
        """Prune + densify + canonicalize one objective. Returns
        ``(problem, dense, canonical, prune_stats, components)``."""
        with current_tracer().span("engine.prepare") as span:
            with self.telemetry.timer("prune"):
                extra = list(extra_constraints)
                if do_prune:
                    seeds = set(objective.coeffs)
                    for constraint in extra:
                        seeds.update(constraint.variables)
                    pruned = prune(
                        self.model.constraints, seeds, self.prune_method, model=self.model
                    )
                    constraints = pruned.constraints + extra
                    prune_stats = dict(pruned.stats)
                else:
                    constraints = list(self.model.constraints) + extra
                    seen = set(objective.coeffs)
                    for constraint in constraints:
                        seen.update(constraint.variables)
                    prune_stats = {
                        "variables_before": len(seen),
                        "constraints_before": len(constraints),
                        "variables_after": len(seen),
                        "constraints_after": len(constraints),
                    }
            with self.telemetry.timer("normalize"):
                names = {var.index: var.name for var in self.model.pool}
                problem, dense = from_licm(objective, constraints, names)
                canonical = canonicalize(objective, constraints)
            components: Tuple[PreparedComponent, ...] = ()
            if decompose and self.options.enable_decomposition:
                components = self._decompose(objective, constraints, names)
            span.set("fingerprint", canonical.fingerprint)
            for key, value in prune_stats.items():
                span.set(key, value)
        self.telemetry.emit(ProblemPrepared(canonical.fingerprint, **prune_stats))
        return problem, dense, canonical, prune_stats, components

    def _decompose(
        self,
        objective: LinearExpr,
        constraints: Sequence[LinearConstraint],
        names: dict,
    ) -> Tuple[PreparedComponent, ...]:
        """Split the pruned problem into connected components.

        Union-find over the LICM constraint scopes plus the objective's
        support (objective-only variables form the trailing *free* block —
        solved in closed form).  Each component is normalized and
        fingerprinted independently, so the solve cache hits per block: a
        repeat query touching one changed anonymization group re-solves
        only that block.  Returns ``()`` when the problem does not
        separate (single component, or a degenerate empty-scope
        constraint), which keeps the monolithic path byte-identical.
        """
        scopes = [constraint.variables for constraint in constraints]
        if any(not scope for scope in scopes):
            return ()
        with current_tracer().span("engine.decompose") as span:
            blocks = split_blocks(scopes, variables=objective.coeffs)
            span.set("components", max(len(blocks), 1))
            self._observe_components(max(len(blocks), 1))
            if len(blocks) <= 1:
                return ()
            components = []
            for block in blocks:
                sub_objective = LinearExpr(
                    {
                        index: objective.coeffs[index]
                        for index in block.variables
                        if index in objective.coeffs
                    },
                    0,
                )
                sub_constraints = [constraints[cid] for cid in block.constraint_ids]
                sub_problem, sub_dense = from_licm(
                    sub_objective, sub_constraints, names
                )
                components.append(
                    PreparedComponent(
                        problem=sub_problem,
                        dense=sub_dense,
                        canonical=canonicalize(sub_objective, sub_constraints),
                    )
                )
            span.set("largest_vars", max(c.problem.num_vars for c in components))
            self.telemetry.count("decomposed_prepares")
        return tuple(components)

    def _observe_components(self, count: int) -> None:
        """The always-on components-per-solve distribution (+ exemplar)."""
        span = current_tracer().current()
        trace_id = getattr(span, "trace_id", "") if span is not None else ""
        global_registry().histogram(
            "engine_components_per_solve",
            "Connected components per prepared engine BIP (1 = inseparable)",
            buckets=_COMPONENT_BUCKETS,
        ).observe(
            float(count),
            exemplar={"trace_id": trace_id} if trace_id else None,
        )

    # -- unit dispatch -----------------------------------------------------
    def _l1_probe(
        self,
        canonical: CanonicalBIP,
        sense: str,
        component: Optional[int],
        parent_span,
    ) -> Optional[CachedSolve]:
        """One L1 lookup, with its telemetry.  ``None`` means miss."""
        entry = self.cache.get((canonical.fingerprint, sense))
        if entry is None:
            self.telemetry.count("cache_misses")
            self.telemetry.emit(
                CacheProbe("miss", canonical.fingerprint, len(self.cache))
            )
            return None
        self.telemetry.count("cache_hits")
        self.telemetry.emit(CacheProbe("hit", canonical.fingerprint, len(self.cache)))
        tracer = current_tracer()
        if tracer.enabled:
            with tracer.span(f"engine.solve.{sense}", parent=parent_span) as span:
                if component is not None:
                    span.set("component", component)
                span.set("cached", True).set("status", entry.status)
                span.set("objective", entry.objective).set("nodes", entry.nodes)
                span.set("backend", entry.backend)
        self.telemetry.emit(
            SolveFinished(
                sense=sense,
                status=entry.status,
                objective=entry.objective,
                nodes=0,
                seconds=0.0,
                backend=entry.backend,
                fingerprint=canonical.fingerprint,
                cached=True,
            )
        )
        return entry

    def _unit(
        self,
        problem,
        dense: dict,
        canonical: CanonicalBIP,
        sense: str,
        component: Optional[int],
        options: Optional[SolverOptions],
        parent_span=None,
    ) -> SolveUnit:
        tracer = current_tracer()
        span = parent_span if parent_span is not None else tracer.current()
        trace_id = getattr(span, "trace_id", "") if span is not None else ""
        return SolveUnit(
            problem=problem,
            sense=sense,
            fingerprint=canonical.fingerprint,
            var_order=tuple(canonical.var_order),
            dense=dense,
            options=options or self.options,
            closed_form_ok=component is not None,
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
        canonical: CanonicalBIP,
        sense: str,
        options: Optional[SolverOptions],
        parent_span,
    ) -> Tuple[CachedSolve, bool, float, bool]:
        """Fold one :class:`UnitResult` back into session state.

        Runs on the submitting thread: L1 write-through (guarded),
        telemetry, the always-on metrics, adoption of any span records
        shipped home from a worker process, and replay of the worker's
        metrics delta into this process's global registry.  Returns
        ``(entry, cached, seconds, l2_hit)``.
        """
        tracer = current_tracer()
        if result.metrics_delta:
            global_registry().merge_delta(result.metrics_delta)
        if result.spans and tracer.enabled:
            tracer.ingest(result.spans, parent=parent_span)
        entry = result.to_cached()
        # A solve truncated by per-call options (a request deadline) is not
        # authoritative for the fingerprint: only cache it when optimal, so
        # a degraded request never poisons later full-budget answers.
        if options is None or entry.status == "optimal":
            self.cache.put((canonical.fingerprint, sense), entry)
            self.telemetry.emit(
                CacheProbe("store", canonical.fingerprint, len(self.cache))
            )
        self.telemetry.record(f"solve_{sense}", result.solve_time)
        self.telemetry.count("solver_nodes", result.nodes)
        registry = global_registry()
        registry.counter(
            "engine_fabric_units_total",
            "Solve units executed, by fabric kind",
        ).inc(labels={"fabric": self.fabric.kind})
        if self.l2_path is not None:
            if result.l2_hit:
                self.telemetry.count("l2_hits")
                registry.counter(
                    "engine_l2_hits_total", "Cross-process L2 solve cache hits"
                ).inc()
            else:
                self.telemetry.count("l2_misses")
                registry.counter(
                    "engine_l2_misses_total", "Cross-process L2 solve cache misses"
                ).inc()
            if result.l2_stored:
                self.telemetry.count("l2_writes")
                registry.counter(
                    "engine_l2_writes_total", "Cross-process L2 solve cache writes"
                ).inc()
        if not result.l2_hit:
            # Always-on distribution of real solve walls (cache hits
            # excluded), exemplar-linked to the request trace so a slow
            # bucket names a specific span tree.
            span = parent_span if parent_span is not None else tracer.current()
            trace_id = getattr(span, "trace_id", "") if span is not None else ""
            registry.histogram(
                "engine_solve_seconds", "Wall seconds per engine BIP solve direction"
            ).observe(
                result.solve_time,
                labels={"sense": sense, "backend": result.backend or "unknown"},
                exemplar={"trace_id": trace_id} if trace_id else None,
            )
        self.telemetry.emit(
            SolveFinished(
                sense=sense,
                status=entry.status,
                objective=entry.objective,
                nodes=result.nodes,
                seconds=result.solve_time,
                backend=entry.backend,
                fingerprint=canonical.fingerprint,
                cached=False,
            )
        )
        return entry, False, result.solve_time, result.l2_hit

    def _solve_tasks(
        self,
        tasks: Sequence[Tuple[object, dict, CanonicalBIP, str, Optional[int]]],
        options: Optional[SolverOptions],
    ) -> List[Tuple[CachedSolve, bool, float, bool]]:
        """Run ``(problem, dense, canonical, sense, component)`` tasks.

        The one dispatch path for every fabric.  Serial (inline) fabrics
        process tasks strictly in order — a later task whose fingerprint
        was just stored by an earlier one hits L1, exactly like the
        historical serial engine.  Parallel fabrics probe L1 for the
        whole batch first, then submit every miss and collect as futures
        complete; both directions (and all components) are in flight at
        once.
        """
        parent_span = current_tracer().current()
        outcomes: List[Optional[Tuple[CachedSolve, bool, float, bool]]] = [None] * len(
            tasks
        )
        if not self.parallel:
            for i, (problem, dense, canonical, sense, component) in enumerate(tasks):
                hit = self._l1_probe(canonical, sense, component, parent_span)
                if hit is not None:
                    outcomes[i] = (hit, True, 0.0, False)
                    continue
                unit = self._unit(
                    problem, dense, canonical, sense, component, options, parent_span
                )
                result = self.fabric.submit_unit(unit, parent_span).result()
                outcomes[i] = self._collect(result, canonical, sense, options, parent_span)
            return outcomes  # type: ignore[return-value]
        pending = []
        for i, (problem, dense, canonical, sense, component) in enumerate(tasks):
            hit = self._l1_probe(canonical, sense, component, parent_span)
            if hit is not None:
                outcomes[i] = (hit, True, 0.0, False)
                continue
            unit = self._unit(
                problem, dense, canonical, sense, component, options, parent_span
            )
            pending.append(
                (i, canonical, sense, self.fabric.submit_unit(unit, parent_span))
            )
        for i, canonical, sense, future in pending:
            outcomes[i] = self._collect(
                future.result(), canonical, sense, options, parent_span
            )
        return outcomes  # type: ignore[return-value]

    # -- public API --------------------------------------------------------
    def solve_units(
        self,
        tasks: Sequence[Tuple[object, dict, CanonicalBIP, str, Optional[int]]],
        options: Optional[SolverOptions] = None,
    ) -> List[Tuple[CachedSolve, bool, float, bool]]:
        """Dispatch raw ``(problem, dense, canonical, sense, component)``
        units through the session's fabric and caches.

        The escalation entry point for the tiered answerer
        (:mod:`repro.estimator`): individual disagreeing components go to
        the exact solver without re-running the whole prepared problem.
        Identical cache/L2 semantics to :meth:`solve_prepared` — entries
        under per-call ``options`` are cached only when optimal.  Returns
        one ``(entry, cached, seconds, l2_hit)`` tuple per task, in order.
        """
        self._ensure_fresh()
        return self._solve_tasks(list(tasks), options)

    def prepare(
        self,
        objective: LinearExpr,
        extra_constraints: Sequence[LinearConstraint] = (),
        do_prune: bool = True,
    ) -> PreparedProblem:
        """Run the prune/normalize/canonicalize phases without solving.

        The returned :class:`PreparedProblem` carries the canonical
        fingerprint, so callers (the service scheduler's in-flight dedup)
        can recognise a structurally identical problem *before* paying for
        the BIP solves, then finish via :meth:`solve_prepared`.

        Results are memoized by the objective's content (its terms and
        constant), the extra constraints and ``do_prune``.  Under
        ``prune_method="lineage"`` with pruning on, a memoized problem
        stays valid across lineage-only appends: sibling lineage never
        enters another query's pruned problem.  Every other mode can pull
        later appends into the problem, so its key also carries the store
        generation.  A hit still opens the ``engine.prepare`` span (with
        ``memo=True``) and counts ``prepare_memo_hits``.
        """
        self._ensure_fresh()
        prep = Stopwatch()
        extra = tuple(extra_constraints)
        key = (
            tuple(sorted(objective.coeffs.items())),
            objective.constant,
            extra,
            do_prune,
        )
        if not (do_prune and self.prune_method == "lineage"):
            key += (self.model.constraints.generation,)
        memoized = self._prepared.get(key)
        if memoized is not None:
            with current_tracer().span("engine.prepare", memo=True) as span:
                span.set("fingerprint", memoized.fingerprint)
            self.telemetry.count("prepare_memo_hits")
            return replace(memoized, prep_time=prep.stop())
        problem, dense, canonical, prune_stats, components = self._prepare(
            objective, extra, do_prune, decompose=True
        )
        prepared = PreparedProblem(
            problem=problem,
            dense=dense,
            canonical=canonical,
            prune_stats=prune_stats,
            prep_time=prep.stop(),
            components=components,
        )
        self._prepared.put(key, prepared)
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

        A decomposed preparation (``prepared.components``) dispatches
        every ``(component, sense)`` pair through the fabric and
        recombines the per-component optima additively; deadline options
        and cancellation apply to each component solve.
        """
        from repro.core.bounds import AggregateBounds

        self._ensure_fresh()
        if prepared.decomposed:
            return self._solve_prepared_decomposed(prepared, options)
        problem, dense, canonical = prepared.problem, prepared.dense, prepared.canonical

        results = self._solve_tasks(
            [(problem, dense, canonical, sense, None) for sense in _SENSES], options
        )
        outcomes = dict(zip(_SENSES, results))

        for entry, _, _, _ in outcomes.values():
            if entry.status == "infeasible":
                raise InfeasibleError("the LICM constraints admit no possible world")

        (min_entry, min_cached, min_time, min_l2) = outcomes["min"]
        (max_entry, max_cached, max_time, max_l2) = outcomes["max"]

        def witness(entry: CachedSolve):
            if entry.x_canonical is None:
                return None
            return canonical.witness(entry.x_canonical)

        exact = min_entry.status == "optimal" and max_entry.status == "optimal"
        return AggregateBounds(
            lower=min_entry.objective,
            upper=max_entry.objective,
            lower_witness=witness(min_entry),
            upper_witness=witness(max_entry),
            exact=exact,
            lower_bound_proven=min_entry.bound,
            upper_bound_proven=max_entry.bound,
            stats={
                **prepared.prune_stats,
                "problem_variables": problem.num_vars,
                "problem_constraints": problem.num_constraints,
                "prep_time": prepared.prep_time,
                "solve_time": min_time + max_time,
                "nodes": min_entry.nodes + max_entry.nodes,
                "backend": max_entry.backend,
                "cache_hits": int(min_cached) + int(max_cached),
                "l2_hits": int(min_l2) + int(max_l2),
                "components": 1,
                "fingerprint": canonical.fingerprint,
            },
        )

    def _solve_prepared_decomposed(
        self,
        prepared: PreparedProblem,
        options: Optional[SolverOptions] = None,
    ):
        """Both directions of a block-separable preparation.

        Every ``(component, sense)`` pair runs through the per-component
        cache (its own canonical fingerprint) and the recombination is
        additive: ``min Σ = Σ min`` and ``max Σ = Σ max`` because no
        constraint crosses components, an infeasible component proves
        global infeasibility, and per-component dual bounds sum to a
        valid global bound.  ``cache_hits`` stays 0..2 (a direction
        counts as cached only when *every* component entry was); the raw
        per-component count is ``stats['component_cache_hits']``.
        """
        from repro.core.bounds import AggregateBounds

        components = prepared.components
        tasks = [(sense, c) for sense in _SENSES for c in range(len(components))]
        results = self._solve_tasks(
            [
                (
                    components[c].problem,
                    components[c].dense,
                    components[c].canonical,
                    sense,
                    c,
                )
                for sense, c in tasks
            ],
            options,
        )
        outcomes = dict(zip(tasks, results))

        for entry, _, _, _ in outcomes.values():
            if entry.status == "infeasible":
                raise InfeasibleError("the LICM constraints admit no possible world")

        constant = prepared.problem.objective_constant

        def side(sense: str):
            entries = [outcomes[(sense, c)][0] for c in range(len(components))]
            all_cached = all(outcomes[(sense, c)][1] for c in range(len(components)))
            hits = sum(int(outcomes[(sense, c)][1]) for c in range(len(components)))
            seconds = sum(outcomes[(sense, c)][2] for c in range(len(components)))
            l2_hits = sum(int(outcomes[(sense, c)][3]) for c in range(len(components)))
            objective = None
            if all(entry.objective is not None for entry in entries):
                objective = sum(entry.objective for entry in entries) + constant
            bound = None
            if all(entry.bound is not None for entry in entries):
                bound = sum(entry.bound for entry in entries) + constant
            witness = None
            if all(entry.x_canonical is not None for entry in entries):
                witness = {}
                for component, entry in zip(components, entries):
                    witness.update(component.canonical.witness(entry.x_canonical))
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
                "problem_variables": prepared.problem.num_vars,
                "problem_constraints": prepared.problem.num_constraints,
                "prep_time": prepared.prep_time,
                "solve_time": low["seconds"] + high["seconds"],
                "nodes": low["nodes"] + high["nodes"],
                "backend": backend,
                "cache_hits": int(low["cached"]) + int(high["cached"]),
                "component_cache_hits": low["hits"] + high["hits"],
                "l2_hits": low["l2_hits"] + high["l2_hits"],
                "components": len(components),
                "fingerprint": prepared.canonical.fingerprint,
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

    def optimize(
        self,
        objective: LinearExpr,
        sense: str,
        extra_constraints: Sequence[LinearConstraint] = (),
        options: Optional[SolverOptions] = None,
    ) -> Tuple[Solution, dict]:
        """One direction with query-local side constraints.

        Returns ``(solution, dense)`` where ``dense`` maps model variable
        indices to positions in ``solution.x`` — the contract the AVG
        (Dinkelbach) and MIN/MAX (feasibility-probe) paths rely on.
        ``solution.solve_time`` is the solver's wall time (0 on a cache
        hit).
        """
        self._ensure_fresh()
        problem, dense, canonical, _, _ = self._prepare(
            objective, extra_constraints, do_prune=True
        )
        ((entry, _, seconds, _),) = self._solve_tasks(
            [(problem, dense, canonical, sense, None)], options
        )
        x = None
        if entry.x_canonical is not None:
            x = [0] * problem.num_vars
            for c, value in enumerate(entry.x_canonical):
                x[dense[canonical.var_order[c]]] = int(value)
        solution = Solution(
            status=entry.status,
            objective=entry.objective,
            x=x,
            bound=entry.bound,
            nodes=entry.nodes,
            solve_time=seconds,
            backend=entry.backend,
        )
        return solution, dense

    def feasible(
        self,
        extra_constraints: Iterable[LinearConstraint],
        options: Optional[SolverOptions] = None,
    ) -> bool:
        """Is there a valid world satisfying the extra constraints too?"""
        solution, _ = self.optimize(
            LinearExpr({}, 0), "max", list(extra_constraints), options=options
        )
        return solution.status != "infeasible"

    def map(self, fn, items):
        """Run ``fn`` over ``items``, on the fabric's workers when possible.

        Order-preserving; used for fan-out workloads (per-group bounds,
        MC per-world evaluation) that want to share the session's
        scheduling.  Process fabrics run this inline — arbitrary closures
        do not cross the process boundary; only solve units do.
        """
        return self.fabric.map(fn, items)

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
