"""EXPLAIN: answer-shaped accounts of what a solve did and why.

The stack emits rich raw telemetry — spans down to B&B node events,
histograms, wide events, repatriated worker deltas — but none of it is
*answer-shaped*: nothing says "this query decomposed into 4 components,
3 were L1 hits, the 4th escalated to exact on worker 1234 and spent 80%
of its nodes pruned by bound".  This module assembles exactly that: a
:class:`SolveExplanation` built from the request's finished span tree
(popped from the :class:`~repro.obs.slowlog.SpanBuffer`), the prepared
problem's decomposition map, the tier cascade's per-component provenance
(:attr:`~repro.estimator.tiered.TieredAnswer.component_tiers`), and — for
infeasible databases — the IIS from :mod:`repro.solver.diagnostics`.

Everything here is **read-only over telemetry that already exists**: an
explanation never re-solves, never touches the caches, and never changes
the bounds.  Worker-side events participate transparently because
:meth:`~repro.obs.tracer.Tracer.ingest` preserves ``start_unix`` on
repatriated spans — inline and process-fabric events share one absolute
time axis.

Sense convention: minimization searches record their incumbents and
bounds in internal *negated-max* space (``solve_bip`` recurses through
the max path).  The timeline miner negates values for display, so a min
search's incumbents decrease toward the minimum and its proven bound
climbs — both monotone in the solve sense.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = [
    "SolveExplanation",
    "build_explanation",
    "decomposition_map",
    "mine_components",
    "mine_timeline",
    "PRUNE_REASONS",
]

#: prune reasons the B&B reports (``prune_<reason>`` span attributes and
#: the ``repro_bb_prunes_total{reason=...}`` counter share this list).
PRUNE_REASONS = (
    "bound",
    "child_bound",
    "propagation",
    "lp_infeasible",
    "kernel_bound",
)

_SOLVE_SPAN = re.compile(r"^engine\.solve\.(min|max)$")


# ---------------------------------------------------------------------------
# decomposition map (built while the PreparedProblem is in scope)
# ---------------------------------------------------------------------------


def _constraint_shape(problem) -> Dict[str, int]:
    """Histogram of constraint operators — the 'shape' of a block."""
    shape: Dict[str, int] = {}
    for constraint in problem.constraints:
        shape[constraint.op] = shape.get(constraint.op, 0) + 1
    return shape


def decomposition_map(prepared) -> dict:
    """The decomposition's structure, as a JSON-ready dict.

    ``prepared`` is an :class:`~repro.engine.session.PreparedProblem`;
    a problem that does not split has one component, the whole system.
    """
    blocks = [
        {
            "component": index,
            "vars": component.problem.num_vars,
            "constraints": component.problem.num_constraints,
            "shape": _constraint_shape(component.problem),
            "fingerprint": component.fingerprint,
        }
        for index, component in enumerate(prepared.components)
    ]
    return {
        "decomposed": prepared.decomposed,
        "components": len(blocks),
        "total_vars": sum(block["vars"] for block in blocks),
        "total_constraints": sum(block["constraints"] for block in blocks),
        "blocks": blocks,
    }


# ---------------------------------------------------------------------------
# span mining
# ---------------------------------------------------------------------------


def _solve_ancestor(span: dict, by_id: Dict[str, dict]):
    """Walk the parent chain to the nearest ``engine.solve.{sense}`` span.

    The solver facade opens an intermediate ``solver.solve`` span between
    ``engine.solve.*`` and ``bb.search``, so a single parent hop is not
    enough.  Returns ``(solve_span, sense)`` or ``(None, None)``.
    """
    seen = set()
    current: Optional[dict] = span
    while current is not None:
        match = _SOLVE_SPAN.match(current.get("name", ""))
        if match:
            return current, match.group(1)
        parent = current.get("parent_id")
        if parent is None or parent in seen:
            return None, None
        seen.add(parent)
        current = by_id.get(parent)
    return None, None


def _bb_details(span: dict) -> dict:
    """One ``bb.search`` span's search statistics."""
    attrs = span.get("attributes") or {}
    prunes = {
        reason: int(attrs.get(f"prune_{reason}", 0) or 0)
        for reason in PRUNE_REASONS
    }
    detail = {
        "nodes": attrs.get("nodes"),
        "prunes": prunes,
        "root_cuts": attrs.get("root_cuts"),
        "root_lp_bound": attrs.get("root_lp_bound"),
        "max_depth": attrs.get("max_depth"),
        "incumbent_updates": attrs.get("incumbent_updates"),
        "bound_improvements": attrs.get("bound_improvements"),
        "hit_limit": attrs.get("hit_limit"),
    }
    return detail


def mine_components(spans: Sequence[dict]) -> List[dict]:
    """Per-solve provenance from a request's finished span dicts.

    One entry per ``engine.solve.{sense}`` span: component index (``None``
    for :meth:`~repro.engine.session.SolveSession.optimize` probes),
    sense, cache level (``l1`` when the session cache answered, ``l2`` for
    the shared cross-process store, ``miss`` otherwise), fabric placement
    (``worker:<pid>`` or ``inline``), solver status/objective/nodes/backend,
    wall seconds, and — when the solve ran a search — the ``bb.search``
    breakdown (prunes by reason, root cuts, root LP bound, depth).
    """
    by_id = {s["span_id"]: s for s in spans if s.get("span_id")}
    entries: Dict[str, dict] = {}
    order: List[str] = []
    for span in spans:
        match = _SOLVE_SPAN.match(span.get("name", ""))
        if not match:
            continue
        attrs = span.get("attributes") or {}
        if attrs.get("cached"):
            cache = "l1"
        elif attrs.get("l2_hit"):
            cache = "l2"
        else:
            cache = "miss"
        worker_pid = attrs.get("worker_pid")
        entry = {
            "component": attrs.get("component"),
            "sense": match.group(1),
            "cache": cache,
            "fabric": f"worker:{worker_pid}" if worker_pid else "inline",
            "status": attrs.get("status"),
            "objective": attrs.get("objective"),
            "nodes": attrs.get("nodes"),
            "backend": attrs.get("backend"),
            "wall_s": span.get("duration"),
            "bb": None,
        }
        key = span.get("span_id")
        if key:
            entries[key] = entry
            order.append(key)
    for span in spans:
        if span.get("name") != "bb.search":
            continue
        solve_span, _sense = _solve_ancestor(span, by_id)
        if solve_span is None:
            continue
        entry = entries.get(solve_span.get("span_id"))
        if entry is not None:
            entry["bb"] = _bb_details(span)
    return [entries[key] for key in order]


def mine_timeline(spans: Sequence[dict]) -> List[dict]:
    """The bound-convergence timeline, reconstructed from B&B events.

    Each ``bb.search`` span carries ``incumbents`` and ``bounds`` event
    lists with search-relative offsets (``t`` seconds after the search
    started); absolute time is ``span.start_unix + t``, which holds for
    repatriated worker spans too (ingest preserves ``start_unix``).  A
    block the engine's root pass closed has no search; its
    ``engine.solve.*`` span carries the one incumbent instead.
    Minimization searches run in negated-max space internally, so their
    values are negated back for display.  Events are returned sorted by
    absolute time.
    """
    by_id = {s["span_id"]: s for s in spans if s.get("span_id")}
    events: List[dict] = []
    for span in spans:
        name = span.get("name", "")
        if name != "bb.search" and not _SOLVE_SPAN.match(name):
            continue
        solve_span, sense = _solve_ancestor(span, by_id)
        if sense is None:
            continue
        negate = sense == "min"
        start = span.get("start_unix") or 0.0
        attrs = span.get("attributes") or {}
        component = None
        if solve_span is not None:
            component = (solve_span.get("attributes") or {}).get("component")
        for payload in attrs.get("incumbents", ()) or ():
            value = payload.get("objective")
            events.append(
                {
                    "t_unix": start + float(payload.get("t", 0.0) or 0.0),
                    "kind": "incumbent",
                    "sense": sense,
                    "component": component,
                    "value": -value if (negate and value is not None) else value,
                    "node": payload.get("node"),
                    "source": payload.get("source"),
                }
            )
        for payload in attrs.get("bounds", ()) or ():
            value = payload.get("bound")
            events.append(
                {
                    "t_unix": start + float(payload.get("t", 0.0) or 0.0),
                    "kind": "bound",
                    "sense": sense,
                    "component": component,
                    "value": -value if (negate and value is not None) else value,
                    "node": payload.get("node"),
                }
            )
    events.sort(key=lambda event: (event["t_unix"], event["kind"]))
    return events


def _totals(components: Sequence[dict]) -> dict:
    prunes = {reason: 0 for reason in PRUNE_REASONS}
    nodes = 0
    wall = 0.0
    l1 = l2 = 0
    searches = 0
    for entry in components:
        nodes += int(entry.get("nodes") or 0)
        wall += float(entry.get("wall_s") or 0.0)
        if entry.get("cache") == "l1":
            l1 += 1
        elif entry.get("cache") == "l2":
            l2 += 1
        bb = entry.get("bb")
        if bb:
            searches += 1
            for reason, count in (bb.get("prunes") or {}).items():
                prunes[reason] = prunes.get(reason, 0) + int(count or 0)
    return {
        "solves": len(components),
        "searches": searches,
        "nodes": nodes,
        "prunes": prunes,
        "solve_wall_s": wall,
        "l1_hits": l1,
        "l2_hits": l2,
    }


# ---------------------------------------------------------------------------
# the explanation object
# ---------------------------------------------------------------------------


@dataclass
class SolveExplanation:
    """A structured account of one solve: decomposition, provenance,
    convergence, and (when infeasible) the minimal conflict set."""

    request: dict = field(default_factory=dict)
    status: str = "ok"
    bounds: dict = field(default_factory=dict)
    decomposition: dict = field(default_factory=dict)
    components: List[dict] = field(default_factory=list)
    timeline: List[dict] = field(default_factory=list)
    totals: dict = field(default_factory=dict)
    infeasibility: Optional[dict] = None

    def to_dict(self) -> dict:
        payload = {
            "request": self.request,
            "status": self.status,
            "bounds": self.bounds,
            "decomposition": self.decomposition,
            "components": self.components,
            "timeline": self.timeline,
            "totals": self.totals,
        }
        if self.infeasibility is not None:
            payload["infeasibility"] = self.infeasibility
        return payload

    def compact(self, top: int = 3) -> dict:
        """A small summary for slow-query ring entries: enough to say
        *why* the request was slow without storing the full payload."""
        costed = [c for c in self.components if c.get("wall_s") is not None]
        costed.sort(key=lambda c: c["wall_s"], reverse=True)
        summary = {
            "status": self.status,
            "components": self.decomposition.get("components"),
            "totals": self.totals,
            "timeline_events": len(self.timeline),
            "top_cost": [
                {
                    "component": c.get("component"),
                    "sense": c.get("sense"),
                    "cache": c.get("cache"),
                    "fabric": c.get("fabric"),
                    "nodes": c.get("nodes"),
                    "wall_s": c.get("wall_s"),
                }
                for c in costed[:top]
            ],
        }
        if self.infeasibility is not None:
            summary["infeasibility"] = self.infeasibility
        return summary

    # -- human rendering ---------------------------------------------------
    def render_text(self, max_rows: int = 24) -> str:
        """A terminal-friendly rendering: decomposition, ranked component
        costs, and a time-ordered convergence chart.

        Each section is elided past ``max_rows`` rows (the convergence
        chart keeps its head *and* tail — the endgame is where bounds
        meet); ``--json`` carries the unabridged payload.
        """
        lines: List[str] = []
        bounds = self.bounds or {}
        lines.append(
            f"status={self.status}"
            f"  bounds=[{bounds.get('lower')}, {bounds.get('upper')}]"
            f"  exact={bounds.get('exact')}"
            f"  precision={bounds.get('precision')}"
            f"  tier={bounds.get('tier')}"
        )
        decomp = self.decomposition or {}
        if decomp:
            lines.append(
                f"decomposition: {decomp.get('components', 0)} component(s), "
                f"{decomp.get('total_vars', 0)} vars, "
                f"{decomp.get('total_constraints', 0)} constraints"
            )
            blocks = list(decomp.get("blocks", ()))
            for block in blocks[:max_rows]:
                shape = " ".join(
                    f"{op}x{count}"
                    for op, count in sorted((block.get("shape") or {}).items())
                )
                fingerprint = (block.get("fingerprint") or "")[:12]
                lines.append(
                    f"  #{block.get('component')}  {block.get('vars')} vars"
                    f"  {block.get('constraints')} constraints"
                    f"  [{shape}]  fp={fingerprint}"
                )
            if len(blocks) > max_rows:
                lines.append(f"  … {len(blocks) - max_rows} more component(s)")
        if self.components:
            lines.append("solves (ranked by cost):")
            ranked = sorted(
                self.components,
                key=lambda c: c.get("wall_s") or 0.0,
                reverse=True,
            )
            elided = len(ranked) - max_rows
            ranked = ranked[:max_rows]
            for entry in ranked:
                label = (
                    "whole"
                    if entry.get("component") is None
                    else f"#{entry.get('component')}"
                )
                wall = entry.get("wall_s")
                took = f"  {wall * 1e3:.2f}ms" if wall is not None else ""
                tier = entry.get("tier")
                tier_label = f"  tier={tier}" if tier else ""
                lines.append(
                    f"  {label:>6} {entry.get('sense'):>4}"
                    f"  cache={entry.get('cache')}"
                    f"  fabric={entry.get('fabric')}"
                    f"  status={entry.get('status')}"
                    f"  nodes={entry.get('nodes')}{tier_label}{took}"
                )
                bb = entry.get("bb")
                if bb:
                    prunes = ", ".join(
                        f"{reason}={count}"
                        for reason, count in (bb.get("prunes") or {}).items()
                        if count
                    )
                    lines.append(
                        f"         bb: root_lp={bb.get('root_lp_bound')}"
                        f" cuts={bb.get('root_cuts')}"
                        f" depth={bb.get('max_depth')}"
                        f" prunes[{prunes or 'none'}]"
                    )
            if elided > 0:
                lines.append(f"  … {elided} cheaper solve(s)")
        if self.timeline:
            lines.append("convergence:")
            t0 = self.timeline[0]["t_unix"]
            events = list(self.timeline)
            if len(events) > 2 * max_rows:
                skipped = len(events) - 2 * max_rows
                events = (
                    events[:max_rows]
                    + [{"_gap": skipped}]
                    + events[-max_rows:]
                )
            for event in events:
                if "_gap" in event:
                    lines.append(f"  … {event['_gap']} event(s) elided …")
                    continue
                rel = event["t_unix"] - t0
                label = (
                    "whole"
                    if event.get("component") is None
                    else f"#{event.get('component')}"
                )
                tail = (
                    f" ({event.get('source')})"
                    if event["kind"] == "incumbent" and event.get("source")
                    else ""
                )
                lines.append(
                    f"  +{rel:8.4f}s  [{event['sense']} {label}]"
                    f"  {event['kind']:<9} = {event.get('value')}"
                    f"  node={event.get('node')}{tail}"
                )
        totals = self.totals or {}
        if totals:
            prunes = ", ".join(
                f"{reason}={count}"
                for reason, count in (totals.get("prunes") or {}).items()
                if count
            )
            lines.append(
                f"totals: {totals.get('solves', 0)} solves"
                f" ({totals.get('searches', 0)} searches)"
                f"  nodes={totals.get('nodes', 0)}"
                f"  l1={totals.get('l1_hits', 0)} l2={totals.get('l2_hits', 0)}"
                f"  prunes[{prunes or 'none'}]"
            )
        if self.infeasibility is not None:
            lines.append("infeasible — irreducible conflict set:")
            for rendered in self.infeasibility.get("iis", ()):
                lines.append(f"  {rendered}")
            if self.infeasibility.get("budget_exhausted"):
                lines.append(
                    "  (time budget exhausted: conflict set is sound but"
                    " may not be minimal)"
                )
        return "\n".join(lines)


def build_explanation(
    request: dict,
    status: str,
    bounds: Optional[dict] = None,
    spans: Optional[Sequence[dict]] = None,
    decomposition: Optional[dict] = None,
    component_tiers: Optional[Sequence[dict]] = None,
    infeasibility: Optional[dict] = None,
    kept: bool = False,
) -> SolveExplanation:
    """Assemble a :class:`SolveExplanation` from already-collected parts.

    ``spans`` is the request's finished span-dict list (from
    :meth:`~repro.obs.slowlog.SpanBuffer.pop`); ``decomposition`` is the
    :func:`decomposition_map` snapshot; ``component_tiers`` is the tier
    cascade's per-component provenance (estimation paths only).  Tier
    entries are joined onto the mined solve provenance by component
    index, so each component reports *both* how it was answered (tier)
    and what the exact machinery did when it ran (cache/fabric/nodes).
    ``kept`` marks a read of an exact answer kept whole in the session
    L1: no solve span opened, so each component surfaces with cache
    ``answer``.
    """
    spans = list(spans or ())
    components = mine_components(spans)
    timeline = mine_timeline(spans)
    if component_tiers:
        tiers_by_component = {
            entry.get("component"): entry for entry in component_tiers
        }
        for entry in components:
            tier = tiers_by_component.get(entry.get("component"))
            if tier is not None:
                entry["tier"] = tier.get("tier")
                entry["tier_detail"] = tier
        # components answered purely by estimators, or read from a kept
        # answer, never open solve spans; surface them anyway so the
        # provenance list is complete.
        source = "answer" if kept else "estimated"
        mined = {entry.get("component") for entry in components}
        for tier in component_tiers:
            if tier.get("component") not in mined and not tier.get("escalated"):
                components.append(
                    {
                        "component": tier.get("component"),
                        "sense": "both",
                        "cache": source,
                        "fabric": "inline",
                        "status": "optimal" if kept else "estimated",
                        "objective": None,
                        "nodes": 0,
                        "backend": tier.get("tier"),
                        "wall_s": tier.get("seconds"),
                        "bb": None,
                        "tier": tier.get("tier"),
                        "tier_detail": tier,
                    }
                )
    return SolveExplanation(
        request=dict(request or {}),
        status=status,
        bounds=dict(bounds or {}),
        decomposition=dict(decomposition or {}),
        components=components,
        timeline=timeline,
        totals=_totals(components),
        infeasibility=infeasibility,
    )
