"""LICM relations: ordinary tuples plus the special ``Ext`` attribute.

Definition 2 of the paper: an LICM relation has schema
``{A1, ..., Ak, Ext}`` where ``Ext`` is either the constant 1 (the tuple is
certain) or a binary variable (the tuple is a *maybe-tuple*).
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence, Tuple, Union

from repro.core.variables import BoolVar
from repro.errors import SchemaError

Ext = Union[int, BoolVar]


def is_certain(ext: Ext) -> bool:
    """True when the Ext value is the constant 1 (tuple exists in every world)."""
    return not isinstance(ext, BoolVar) and ext == 1


class LICMTuple:
    """One row of an LICM relation: attribute values plus its Ext value."""

    __slots__ = ("values", "ext")

    def __init__(self, values: Tuple, ext: Ext):
        self.values = values
        self.ext = ext

    @property
    def certain(self) -> bool:
        return is_certain(self.ext)

    def __repr__(self) -> str:
        return f"({', '.join(map(repr, self.values))} | Ext={self.ext})"

    def __eq__(self, other) -> bool:
        if isinstance(other, LICMTuple):
            return self.values == other.values and self.ext == other.ext
        return NotImplemented

    def __hash__(self) -> int:
        ext_key = self.ext if isinstance(self.ext, BoolVar) else int(self.ext)
        return hash((self.values, ext_key))


class LICMRelation:
    """A named LICM relation bound to its model.

    Rows are kept in insertion order.  Operators never mutate their input
    relations; they build fresh output relations in the same model and
    append lineage constraints to the model's shared store.
    """

    def __init__(self, name: str, attributes: Sequence[str], model):
        if len(set(attributes)) != len(attributes):
            raise SchemaError(f"duplicate attribute names in {list(attributes)}")
        if "Ext" in attributes:
            raise SchemaError("'Ext' is implicit and cannot be a normal attribute")
        self.name = name
        self.attributes: Tuple[str, ...] = tuple(attributes)
        self.model = model
        self.rows: list[LICMTuple] = []
        self._positions = {attr: i for i, attr in enumerate(self.attributes)}
        self._indexes: dict[Tuple[int, ...], dict[Tuple, list[LICMTuple]]] = {}

    # -- construction ------------------------------------------------------
    def insert(self, values: Sequence, ext: Ext = 1) -> LICMTuple:
        """Append a row; ``ext=1`` marks a certain tuple."""
        values = tuple(values)
        if len(values) != len(self.attributes):
            raise SchemaError(
                f"{self.name} expects {len(self.attributes)} values, got {len(values)}"
            )
        if not (isinstance(ext, BoolVar) or is_certain(ext)):
            raise SchemaError("Ext must be the constant 1 or a BoolVar")
        row = LICMTuple(values, ext)
        self.rows.append(row)
        # A new dict, not clear(): a build racing this insert stores its
        # (possibly stale) index into the dropped one.
        self._indexes = {}
        return row

    def extend(self, rows: Iterable[LICMTuple]) -> None:
        """Append rows the operators built, unchecked: their values come
        from rows of the input relations and their Ext from the operator
        kernels.  Encoders and users go through :meth:`insert`.  Rows are
        shared with the input relations where an operator passes them
        through unchanged; nothing mutates a row."""
        self.rows.extend(rows)
        self._indexes = {}  # as in insert: a new dict, once per batch

    def insert_maybe(self, values: Sequence) -> LICMTuple:
        """Append a maybe-tuple with a fresh existence variable."""
        return self.insert(values, self.model.new_var())

    # -- inspection --------------------------------------------------------
    def position(self, attribute: str) -> int:
        try:
            return self._positions[attribute]
        except KeyError:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {attribute!r}; "
                f"schema is {list(self.attributes)}"
            ) from None

    def column(self, attribute: str) -> list:
        """All values of one attribute, in row order."""
        pos = self.position(attribute)
        return [row.values[pos] for row in self.rows]

    def ext_column(self) -> list[Ext]:
        """The Ext column, mixing 1s and variables (objective building block)."""
        return [row.ext for row in self.rows]

    @property
    def maybe_rows(self) -> list[LICMTuple]:
        return [row for row in self.rows if not row.certain]

    @property
    def certain_rows(self) -> list[LICMTuple]:
        return [row for row in self.rows if row.certain]

    def index(self, positions: Sequence[int]) -> dict[Tuple, list[LICMTuple]]:
        """Rows bucketed by their values at ``positions``, in row order.

        Built on first use and cached per ``positions`` until the next
        :meth:`insert`, so a base relation joined again and again is
        bucketed once.  The result is shared: read it, never mutate it.
        Not locked: the service evaluates an encoding's plans under its
        model lock, and anywhere else the worst race is a duplicate build
        (an insert during a build leaves the build in a dropped cache).
        """
        key = tuple(positions)
        indexes = self._indexes
        buckets = indexes.get(key)
        if buckets is None:
            rows = list(self.rows)
            buckets = defaultdict(list)
            for values, row in zip(self.keys(key, rows), rows):
                buckets[values].append(row)
            buckets.default_factory = None  # a miss is a KeyError, not a new bucket
            indexes[key] = buckets
        return buckets

    def keys(
        self, positions: Sequence[int], rows: Sequence[LICMTuple] | None = None
    ) -> list[Tuple]:
        """``tuple(row.values[p] for p in positions)`` for every row (of
        ``rows``, by default this relation's), in row order."""
        if rows is None:
            rows = self.rows
        if len(positions) == 1:
            position = positions[0]
            return [(row.values[position],) for row in rows]
        if list(positions) == list(range(len(self.attributes))):
            return [row.values for row in rows]
        if not positions:
            return [()] * len(rows)
        get = itemgetter(*positions)
        return [get(row.values) for row in rows]

    def getter(self, attributes: Sequence[str]) -> Callable[[LICMTuple], Tuple]:
        """Fast key extractor over a subset of attributes."""
        positions = [self.position(a) for a in attributes]
        return lambda row: tuple(row.values[p] for p in positions)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[LICMTuple]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"LICMRelation({self.name!r}, {list(self.attributes)}, {len(self.rows)} rows)"

    def pretty(self, limit: int = 20) -> str:
        """A small fixed-width rendering for docs and debugging."""
        header = list(self.attributes) + ["Ext"]
        body = [
            [str(v) for v in row.values] + [str(row.ext)] for row in self.rows[:limit]
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(header, widths)),
            "  ".join("-" * w for w in widths),
        ]
        lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in body]
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)
