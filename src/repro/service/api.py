"""Typed request/response contracts for the aggregate-query service.

A request names a workload query (``Q1``/``Q2``/``Q3``) *or* an ad-hoc
aggregate over the uncertain TRANSITEM view, the encoding to run it
against (``scheme``, ``k``), an optional deadline, and an optional
``precision`` — ``fast`` (estimator tiers only), ``balanced`` (estimators
with escalation of disagreeing components) or ``tight`` (exact BIP; see
docs/estimators.md).  A response always carries a terminal ``status``:

* ``ok``       — bounds within the deadline at the requested precision:
  exact LICM bounds for ``tight``, a provably containing estimator
  interval otherwise (``tier`` and the ``*_components`` fields say which);
* ``degraded`` — the deadline cut the answer short; the bounds still
  contain the exact range (a fast estimator pass over a COUNT/SUM
  problem, or what a MIN/MAX request's stopped probes proved);
* ``timeout``  — the deadline passed with no containing interval at hand;
* ``rejected`` — admission control refused the request (queue full);
* ``error``    — the request was invalid or execution failed.

Everything (de)serializes to flat JSON dicts — the wire format of
``POST /v1/query`` — and validation happens in :meth:`QueryRequest.from_dict`
so the HTTP layer can map :class:`~repro.errors.ValidationError` straight
to a 400.
"""

from __future__ import annotations

import dataclasses
import json
import math
import uuid
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ValidationError

STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_TIMEOUT = "timeout"
STATUS_REJECTED = "rejected"
STATUS_ERROR = "error"
STATUSES = (STATUS_OK, STATUS_DEGRADED, STATUS_TIMEOUT, STATUS_REJECTED, STATUS_ERROR)

#: canned workload plans (the paper's evaluation queries)
QUERIES = ("Q1", "Q2", "Q3")
#: ad-hoc aggregates over the uncertain TRANSITEM view
AGGREGATES = ("count", "sum", "min", "max")
#: anonymization schemes the service can hold encodings for
SCHEMES = ("km", "k-anonymity", "bipartite", "coherence")
#: answering precision levels (``None`` on a request = the server default)
PRECISIONS = ("fast", "balanced", "tight")

#: HTTP status the front-end answers with, per terminal request status
_HTTP_STATUS = {
    STATUS_OK: 200,
    STATUS_DEGRADED: 200,
    STATUS_TIMEOUT: 504,
    STATUS_REJECTED: 429,
    STATUS_ERROR: 400,
}


def http_status_for(status: str) -> int:
    """The HTTP code ``POST /v1/query`` responds with for ``status``."""
    return _HTTP_STATUS.get(status, 500)


def _new_request_id() -> str:
    return uuid.uuid4().hex[:12]


def _param_problems(params: dict) -> list:
    """What is wrong with ``params`` as :class:`QueryParams` overrides: an
    unknown key, a value not of its field's type (an int passes for a
    float), a non-finite number, or a selectivity outside (0, 1]."""
    from repro.queries.workload import QueryParams

    fields = {f.name: f for f in dataclasses.fields(QueryParams)}
    problems = []
    for key in sorted(params):
        value = params[key]
        if key not in fields:
            problems.append(f"unknown params key {key!r}")
            continue
        kind = type(fields[key].default)
        allowed = (int, float) if kind is float else (kind,)
        if isinstance(value, bool) or not isinstance(value, allowed):
            problems.append(f"params {key!r} must be {kind.__name__}, got {value!r}")
        elif isinstance(value, float) and not math.isfinite(value):
            problems.append(f"params {key!r} must be finite, got {value!r}")
        elif key.endswith("_selectivity") and not 0 < value <= 1:
            problems.append(f"params {key!r} must be in (0, 1], got {value!r}")
    return problems


@dataclass
class QueryRequest:
    """One aggregate-bound question, as posted to ``/v1/query``.

    Exactly one of ``query`` (a canned workload plan) or ``aggregate``
    (an ad-hoc aggregate over TRANSITEM; ``sum``/``min``/``max`` apply to
    ITEM.Price) must be set.  ``params`` optionally overrides
    :class:`~repro.queries.workload.QueryParams` fields for canned plans.
    ``precision`` picks the answering tier policy (``fast``, ``balanced``
    or ``tight``); ``None`` defers to the server's configured default.
    """

    scheme: str = "km"
    k: int = 2
    query: Optional[str] = None
    aggregate: Optional[str] = None
    precision: Optional[str] = None
    deadline_ms: Optional[float] = None
    params: dict = field(default_factory=dict)
    #: attach a structured :mod:`~repro.obs.explain` payload to the
    #: response.  Excluded from :meth:`plan_key` and never cached —
    #: explanations describe this execution, not the answer.
    explain: bool = False
    request_id: str = field(default_factory=_new_request_id)

    @property
    def kind(self) -> str:
        """``'query'`` (canned plan) or ``'aggregate'`` (ad-hoc)."""
        return "query" if self.query is not None else "aggregate"

    # -- validation --------------------------------------------------------
    def validate(self) -> "QueryRequest":
        """Raise :class:`~repro.errors.ValidationError` listing every problem."""
        problems = []
        if (self.query is None) == (self.aggregate is None):
            problems.append("exactly one of 'query' or 'aggregate' must be set")
        if self.query is not None and self.query not in QUERIES:
            problems.append(f"query must be one of {QUERIES}, got {self.query!r}")
        if self.aggregate is not None and self.aggregate not in AGGREGATES:
            problems.append(
                f"aggregate must be one of {AGGREGATES}, got {self.aggregate!r}"
            )
        if self.scheme not in SCHEMES:
            problems.append(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.precision is not None and self.precision not in PRECISIONS:
            problems.append(
                f"precision must be one of {PRECISIONS}, got {self.precision!r}"
            )
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            problems.append(f"k must be a positive integer, got {self.k!r}")
        if self.deadline_ms is not None:
            if not isinstance(self.deadline_ms, (int, float)) or isinstance(
                self.deadline_ms, bool
            ):
                problems.append(f"deadline_ms must be a number, got {self.deadline_ms!r}")
            elif not math.isfinite(self.deadline_ms) or self.deadline_ms <= 0:
                # json.loads parses NaN, Infinity and 1e400; NaN would never
                # expire a leader and would expire a parked follower at once.
                problems.append(
                    f"deadline_ms must be finite and > 0, got {self.deadline_ms!r}"
                )
        if not isinstance(self.params, dict):
            problems.append(f"params must be an object, got {type(self.params).__name__}")
        elif self.params and self.aggregate is not None:
            problems.append("params apply to canned queries only, not to 'aggregate'")
        else:
            problems.extend(_param_problems(self.params))
        if not isinstance(self.explain, bool):
            problems.append(f"explain must be a boolean, got {self.explain!r}")
        if not isinstance(self.request_id, str) or not self.request_id:
            problems.append("request_id must be a non-empty string")
        if problems:
            raise ValidationError(problems)
        return self

    # -- wire format -------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: dict) -> "QueryRequest":
        """Build and validate a request from a decoded JSON object."""
        if not isinstance(payload, dict):
            raise ValidationError("request body must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValidationError([f"unknown field {name!r}" for name in unknown])
        return cls(**payload).validate()

    @classmethod
    def from_json(cls, body: str) -> "QueryRequest":
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"request body is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        if not out.get("explain"):
            out.pop("explain", None)  # keep the wire format stable when off
        return {key: value for key, value in out.items() if value is not None}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def plan_key(self) -> tuple:
        """The plan identity: (scheme, k, kind, query or aggregate, params).

        The scheduler keys in-flight dedup, the session's memoized
        prepared problems and kept exact answers on it.  ``precision`` is
        excluded: one leader prepares, and each follower answers the
        published prepared problem at its own precision.  ``explain`` and
        ``request_id`` are excluded too: an explain request coalesces with
        (and reuses the cache entries of) its plain twin — explanations
        never perturb answers or cache state.
        """
        return (
            self.scheme,
            self.k,
            self.kind,
            self.query or self.aggregate,
            tuple(sorted(self.params.items())),
        )


@dataclass
class QueryResponse:
    """The terminal answer for one request (wire format of ``/v1/query``)."""

    request_id: str
    status: str
    lower: Optional[float] = None
    upper: Optional[float] = None
    exact: bool = False
    error: Optional[str] = None
    fingerprint: Optional[str] = None
    #: coalesced onto another in-flight request for the same plan.  A
    #: deduped follower is *parked* (no serving slot held) until the
    #: leader finishes, then answers the leader's prepared problem at its
    #: own precision — solve-cache hits, so its ``solve_ms`` is small — or
    #: degrades over it when its deadline expires first.
    dedup: bool = False
    cache_hits: int = 0
    l2_hits: int = 0
    components: int = 0
    backend: Optional[str] = None
    nodes: int = 0
    #: answering-tier provenance: the deepest tier that contributed
    #: (``structural``/``entropy``/``lp``/``exact``), how many
    #: decomposed components were answered exactly vs. by estimators, how
    #: many escalated past the estimator tiers, and the worst
    #: per-component tier disagreement at decision time (0.0 when exact).
    tier: Optional[str] = None
    exact_components: int = 0
    estimated_components: int = 0
    escalations: int = 0
    gap: Optional[float] = None
    queue_ms: float = 0.0
    solve_ms: float = 0.0
    total_ms: float = 0.0
    trace_id: Optional[str] = None
    #: structured EXPLAIN payload (:class:`repro.obs.explain.SolveExplanation`
    #: as a dict) — present only when the request set ``explain=true``.
    explain: Optional[dict] = None

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"status must be one of {STATUSES}, got {self.status!r}")

    @property
    def http_status(self) -> int:
        return http_status_for(self.status)

    @property
    def terminal(self) -> bool:
        """Every response status is terminal — the no-hang invariant."""
        return self.status in STATUSES

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryResponse":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in payload.items() if key in known})

    @classmethod
    def from_json(cls, body: str) -> "QueryResponse":
        return cls.from_dict(json.loads(body))

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        return {key: value for key, value in out.items() if value is not None}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)
