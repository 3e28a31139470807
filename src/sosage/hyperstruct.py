"""Executable algebra of ordered structures.

A universe holds immutable structures arranged in a cumulative hierarchy:
order-1 primitives carry opaque payloads, higher orders aggregate lower ones
(overlap allowed, constituents may span several lower orders). Two level-tagged
relations join structures: directed dependency edges, whose direct edges span
exactly one order, and symmetric interaction edges, which construction and
dependency imply and a caller may also declare. Per-level observer
functions supply observable properties; a property of a composite is emergent
when it is observable at the composite's level but at the level below on none
of its constituents. `emergent` is that rule over a set of levels, and the
population's break gate asks it of the ledger's pending levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Container, Iterable, Mapping

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


def emergent(levels: Container[int], level: int) -> bool:
    """The one rule of emergence: observed at `level` and not at the level
    below. The break gate, verify and `Universe.is_emergent` all ask it."""
    return level in levels and (level - 1) not in levels


class InteractionGraph:
    """Interaction (symmetric) and dependency (directed) edges, level-tagged.

    Only dependency and declared interaction edges are stored. A composite in
    the structure map interacts with each constituent at its own order, and a
    dependency edge implies the interaction edge at its level; interaction
    pairs come low id first, and reflexivity is a query-level guarantee.
    """

    def __init__(self, structures: Mapping[StructureId, Structure]) -> None:
        self._structures = structures
        self._declared: dict[tuple[StructureId, StructureId], set[int]] = {}
        self._depends: dict[tuple[StructureId, StructureId], set[int]] = {}

    @staticmethod
    def _norm(a: StructureId, b: StructureId) -> tuple[StructureId, StructureId]:
        return (a, b) if a <= b else (b, a)

    def add_interaction(self, a: StructureId, b: StructureId, level: int) -> None:
        self._declared.setdefault(self._norm(a, b), set()).add(level)

    def add_dependency(self, dependent: StructureId, dependee: StructureId, level: int) -> None:
        self._depends.setdefault((dependent, dependee), set()).add(level)

    def interacts(self, a: StructureId, b: StructureId) -> bool:
        return a == b or any(
            (x, y) in self._declared or (x, y) in self._depends
            or (x in self._structures and y in self._structures[x].constituents)
            for x, y in ((a, b), (b, a))
        )

    def direct_dependees(self, dependent: StructureId) -> frozenset[StructureId]:
        return frozenset(e for d, e in self._depends if d == dependent)

    def dependency_levels(self, dependent: StructureId, dependee: StructureId) -> frozenset[int]:
        return frozenset(self._depends.get((dependent, dependee), ()))

    def declared_interactions(self) -> list[tuple[StructureId, StructureId, int]]:
        return sorted((a, b, lv) for (a, b), levels in self._declared.items() for lv in levels)

    def interaction_edges(self) -> list[tuple[StructureId, StructureId, int]]:
        edges = {(*self._norm(i, c), s.order) for i, s in self._structures.items() for c in s.constituents}
        edges.update((*self._norm(d, e), lv) for d, e, lv in self.dependency_edges())
        return sorted(edges.union(self.declared_interactions()))

    def dependency_edges(self) -> list[tuple[StructureId, StructureId, int]]:
        return sorted(
            (d, e, lv) for (d, e), levels in self._depends.items() for lv in levels
        )

    def retain(self, keep: set[StructureId]) -> None:
        """Drop every stored edge with an end outside `keep`."""
        def kept(edges):
            return {(a, b): lv for (a, b), lv in edges.items() if a in keep and b in keep}

        self._declared = kept(self._declared)
        self._depends = kept(self._depends)


@dataclass
class Universe:
    """Id-indexed structure store plus its interaction graph and observers.

    Mutation is single-writer; queries are pure. Structure ids are assigned
    sequentially and never reused, even after a structure leaves every active
    roster or is dropped by `retain`.
    """

    max_order: int = DEFAULT_MAX_ORDER
    structures: dict[StructureId, Structure] = field(default_factory=dict)
    graph: InteractionGraph = field(init=False)  # reads `structures`, which is never rebound
    observers: dict[int, list[Observer]] = field(default_factory=dict)
    next_id: StructureId = 0  # the id the next structure gets; checkpoints store it

    def __post_init__(self) -> None:
        self.graph = InteractionGraph(self.structures)

    # --- store primitives ---

    def __contains__(self, structure_id: StructureId) -> bool:
        return structure_id in self.structures

    def get(self, structure_id: StructureId) -> Structure:
        try:
            return self.structures[structure_id]
        except KeyError:
            raise UnknownStructure(structure_id) from None

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
        self.graph.retain(keep)

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
            for dep in self.graph.direct_dependees(cur):
                if dep == b:
                    return True
                if dep not in seen:
                    seen.add(dep)
                    frontier.append(dep)
        return False

    # --- relations ---

    def declare_interaction(self, a: StructureId, b: StructureId, level: int) -> None:
        self.get(a)
        self.get(b)
        if level < 1:
            raise ValueError("interaction level must be >= 1")
        self.graph.add_interaction(a, b, level)

    def declare_dependency(self, dependent: StructureId, dependee: StructureId, level: int) -> None:
        """Record a direct dependency edge; the order gap must be exactly 1.
        The edge implies the interaction edge at its level."""
        gap = self.get(dependent).order - self.get(dependee).order
        if level < 1:
            raise ValueError("dependency level must be >= 1")
        if gap != 1:
            raise OrderGapViolation(dependent, dependee, gap)
        self.graph.add_dependency(dependent, dependee, level)

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
        levels = set()
        if property_name in {r.property for r in self.observe(structure_id, s.order)}:
            levels.add(s.order)
            if any(
                property_name in {r.property for r in self.observe(c, s.order - 1)}
                for c in sorted(s.constituents)
            ):
                levels.add(s.order - 1)
        return emergent(levels, s.order)
