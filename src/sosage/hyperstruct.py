"""Executable algebra of ordered structures.

A universe holds immutable structures arranged in a cumulative hierarchy:
order-1 primitives carry opaque payloads, higher orders aggregate lower ones
(overlap allowed, constituents may span several lower orders). Two level-tagged
relations join structures: directed dependency edges, whose direct edges span
exactly one order, and symmetric interaction edges, which construction and
dependency imply. `Universe` stores the structures and the dependency levels,
and derives every interaction edge from them. Per-level observer functions
supply observable properties; a property of a composite is emergent when it is
observable at the composite's level but at the level below on none of its
constituents, which `Universe.is_emergent` asks. The evolution loop tests no
emergence: a gate that could refuse a break needs an observable that differs
between levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .errors import (
    EmptyConstituents,
    NotComposite,
    OrderCapExceeded,
    OrderGapViolation,
    UnknownStructure,
)

StructureId = int

DEFAULT_MAX_ORDER = 8


@dataclass(frozen=True)
class Structure:
    """One node of the hierarchy. Immutable once created.

    order == 1 exactly when constituents is empty exactly when a payload is
    present; for composites order == 1 + max(constituent orders).
    """

    id: StructureId
    order: int
    constituents: frozenset[StructureId]
    payload: Any = None
    tag: str = ""


@dataclass(frozen=True)
class ObsRecord:
    """A named property observed on a structure at a given level."""

    property: str
    value: Any
    level: int


# Observer: pure function (structure, universe) -> iterable of ObsRecord,
# filed under one level in Universe.observers and required to emit records at
# that level only.
Observer = Callable[[Structure, "Universe"], Iterable[ObsRecord]]


@dataclass
class Universe:
    """Id-indexed structure store, its two relations and its observers.

    Only dependency edges are stored, each (dependent, dependee) pair mapped
    to its set of levels. Every interaction edge is read off the structures
    and those edges: a composite interacts with each constituent at its own
    order, and a dependency edge implies the interaction edge at its level.
    Reflexivity is a query-level guarantee.

    Mutation is single-writer; queries are pure. Structure ids are assigned
    sequentially and never reused, even after a structure leaves every active
    roster or is dropped by `retain`. Two universes are equal when every
    field is.
    """

    max_order: int = DEFAULT_MAX_ORDER
    structures: dict[StructureId, Structure] = field(default_factory=dict)
    depends: dict[tuple[StructureId, StructureId], set[int]] = field(default_factory=dict)
    observers: dict[int, list[Observer]] = field(default_factory=dict)
    next_id: StructureId = 0  # the id the next structure gets; checkpoints store it

    # --- store primitives ---

    def __contains__(self, structure_id: StructureId) -> bool:
        return structure_id in self.structures

    def get(self, structure_id: StructureId) -> Structure:
        try:
            return self.structures[structure_id]
        except KeyError:
            raise UnknownStructure(f"unknown structure id {structure_id}") from None

    def _fresh_id(self) -> StructureId:
        i = self.next_id
        self.next_id += 1
        return i

    def retain(self, keep: set[StructureId]) -> None:
        """Drop every structure outside `keep` and every edge with an end
        outside it. `keep` must be closed under constituents; the id counter
        is untouched, so dropped ids are never handed out again."""
        for i in self.structures.keys() - keep:
            del self.structures[i]
        for pair in [p for p in self.depends if not keep.issuperset(p)]:
            del self.depends[pair]

    # --- construction ---

    def add_primitive(self, payload: Any, tag: str = "") -> StructureId:
        """Create an order-1 structure carrying `payload`."""
        i = self._fresh_id()
        self.structures[i] = Structure(id=i, order=1, constituents=frozenset(), payload=payload, tag=tag)
        return i

    def construct(self, constituents: Iterable[StructureId], tag: str = "") -> StructureId:
        """Aggregate existing structures into a new one-order-higher composite.

        The new order is 1 + max(constituent orders); constituents may span
        multiple lower orders and may already belong to other composites.
        The new structure interacts with each constituent at the new level.
        """
        members = frozenset(constituents)
        if not members:
            raise EmptyConstituents("construct() requires at least one constituent")
        orders = [self.get(c).order for c in sorted(members)]
        order = 1 + max(orders)
        if order > self.max_order:
            raise OrderCapExceeded(
                f"constructing order {order} exceeds max_order {self.max_order}"
            )
        i = self._fresh_id()
        self.structures[i] = Structure(id=i, order=order, constituents=members, tag=tag)
        return i

    # --- queries ---

    def structural_order(self, structure_id: StructureId) -> int:
        return self.get(structure_id).order

    def depends_on(self, a: StructureId, b: StructureId) -> bool:
        """True iff b is reachable from a over one or more direct dependency edges."""
        self.get(a)
        self.get(b)
        seen = set()
        frontier = [a]
        while frontier:
            cur = frontier.pop()
            for d, e in self.depends:
                if d == cur and e not in seen:
                    seen.add(e)
                    frontier.append(e)
        return b in seen

    def interacts(self, a: StructureId, b: StructureId) -> bool:
        return a == b or any(
            (x, y) in self.depends or (x in self.structures and y in self.structures[x].constituents)
            for x, y in ((a, b), (b, a))
        )

    def dependency_levels(self, dependent: StructureId, dependee: StructureId) -> frozenset[int]:
        return frozenset(self.depends.get((dependent, dependee), ()))

    def dependency_edges(self) -> list[tuple[StructureId, StructureId, int]]:
        return sorted((d, e, lv) for (d, e), levels in self.depends.items() for lv in levels)

    def interaction_edges(self) -> list[tuple[StructureId, StructureId, int]]:
        edges = {(min(i, c), max(i, c), s.order) for i, s in self.structures.items() for c in s.constituents}
        edges.update((min(d, e), max(d, e), lv) for d, e, lv in self.dependency_edges())
        return sorted(edges)

    # --- relations ---

    def declare_dependency(self, dependent: StructureId, dependee: StructureId, level: int) -> None:
        """Record a direct dependency edge; the order gap must be exactly 1.
        The edge implies the interaction edge at its level."""
        gap = self.get(dependent).order - self.get(dependee).order
        if level < 1:
            raise ValueError("dependency level must be >= 1")
        if gap != 1:
            raise OrderGapViolation(
                f"direct dependency {dependent} <- {dependee} spans order gap {gap}; "
                "direct edges must span exactly 1"
            )
        self.depends.setdefault((dependent, dependee), set()).add(level)

    # --- observation & emergence ---

    def observe(self, structure_id: StructureId, level: int) -> frozenset[ObsRecord]:
        """Union of all level-`level` observer outputs on the structure."""
        s = self.get(structure_id)
        if level < 1:
            raise ValueError("observation level must be >= 1")
        records: set[ObsRecord] = set()
        for obs in self.observers.get(level, ()):
            for rec in obs(s, self):
                if rec.level != level:
                    raise ValueError(
                        f"observer at level {level} produced a record at level {rec.level}"
                    )
                records.add(rec)
        return frozenset(records)

    def is_emergent(self, property_name: str, structure_id: StructureId) -> bool:
        """True iff the property shows at the composite's level and at the level
        below on none of its constituents."""
        s = self.get(structure_id)
        if s.order < 2:
            raise NotComposite(f"structure {structure_id} has order 1; emergence needs order >= 2")
        def shows(i: StructureId, level: int) -> bool:
            return any(r.property == property_name for r in self.observe(i, level))

        return shows(structure_id, s.order) and not any(shows(c, s.order - 1) for c in sorted(s.constituents))
