"""Population roster and the breaking operator.

The roster starts homogeneous at the base order and raises its own order by
"breaking": when two top-stratum members of equal order show a dependency,
they are aggregated into a one-order-higher composite, lifting the population
order by exactly one. Breaking has a reverse that dissolves a composite back
into its constituents when the higher order is no longer earning its keep.
An equal-order dependency is no legal edge, so the loop keeps none: a break
houses the observed dependency as two direct edges from the new composite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from .errors import (
    AlreadyReversed,
    EmptyPopulation,
    LimitExceeded,
    NotAComposite,
    PreconditionViolated,
)
from .hyperstruct import StructureId, Universe


@dataclass(frozen=True)
class ProblemSpec:
    """Declared problem and base-solver complexity orders.

    Neither is computable from the problem itself; they are declared integers
    and the goal predicate compares them to the population's reached order.
    """

    problem_order_x: int = field(default=1, metadata={"low": 1, "high": 10**4})
    base_solver_order_r: int = field(default=1, metadata={"low": 1, "high": 10**4})


@dataclass
class BreakEvent:
    generation: int
    dependent: StructureId
    dependee: StructureId
    composite: StructureId
    reversed_at: Optional[int] = None


@dataclass
class Population:
    """Active roster of mixed-order members with its break history."""

    members: list[StructureId]
    base_order_r: int
    pop_order_n: int
    population_limit: int
    break_log: list[BreakEvent] = field(default_factory=list)

    @property
    def top_order(self) -> int:
        return self.base_order_r + self.pop_order_n - 1


@dataclass
class StallDetector:
    """Fires when the best-fitness window shows too little improvement.
    `history` keeps the last window_G best fitnesses, oldest first."""

    window_G: int
    min_improvement: float
    history: list[float] = field(default_factory=list)

    def update(self, best_fitness: float) -> None:
        self.history.append(best_fitness)
        if len(self.history) > self.window_G:
            del self.history[0]

    def reset(self) -> None:
        self.history.clear()

    def stalled(self) -> bool:
        """True iff the last window_G generations improved by less than
        min_improvement; a history shorter than the window never fires."""
        w = self.window_G
        if len(self.history) < w:
            return False
        return (self.history[-1] - self.history[-w]) < self.min_improvement


def init_population(
    universe: Universe,
    problem: ProblemSpec,
    genomes: Sequence[Any],
    limit: int,
) -> Population:
    """Wrap each genome as an order-1 primitive, chained up to order r when the
    base solver order is above 1."""
    if not genomes:
        raise EmptyPopulation("at least one genome is required")
    if len(genomes) > limit:
        raise LimitExceeded(f"{len(genomes)} genomes exceed population limit {limit}")
    members: list[StructureId] = []
    for k, genome in enumerate(genomes):
        i = universe.add_primitive(genome, tag=f"g{k}")
        for _ in range(problem.base_solver_order_r - 1):
            i = universe.construct({i}, tag=f"g{k}-wrap")
        members.append(i)
    return Population(
        members=members,
        base_order_r=problem.base_solver_order_r,
        pop_order_n=1,
        population_limit=limit,
    )


def can_break(
    universe: Universe,
    pop: Population,
    candidate_pairs: Iterable[tuple[StructureId, StructureId]],
) -> Optional[tuple[StructureId, StructureId]]:
    """Select the breakable (dependent, dependee) pair, if any.

    A pair qualifies when both members sit in the top stratum and the
    composite would not exceed the universe's order cap. Absence is a normal
    outcome: a full roster, an order cap, or no qualifying pair all yield
    None. Ties break on lowest (dependent, dependee).
    """
    if len(pop.members) == pop.population_limit:
        return None
    top = pop.top_order
    if top + 1 > universe.max_order:
        return None
    active = set(pop.members)
    best: Optional[tuple[StructureId, StructureId]] = None
    for x, y in candidate_pairs:
        if x == y or x not in active or y not in active:
            continue
        if universe.structural_order(x) != top or universe.structural_order(y) != top:
            continue
        if best is None or (x, y) < best:
            best = (x, y)
    return best


def apply_break(
    universe: Universe,
    pop: Population,
    x: StructureId,
    y: StructureId,
    generation: int,
) -> Population:
    """Aggregate the qualifying pair into a composite one order up.

    The dependent leaves the active roster (subsumed by the composite), the
    dependee stays (overlap allowed: others may still lean on it), and the
    population order rises by exactly one. Both dependency edges from the
    composite span exactly one order, so the equal-order observation that
    selected the pair becomes two legal direct edges.
    """
    top = pop.top_order
    if (
        x == y
        or x not in pop.members
        or y not in pop.members
        or universe.structural_order(x) != top
        or universe.structural_order(y) != top
    ):
        raise PreconditionViolated(
            f"apply_break({x}, {y}) without a qualifying pair at order {top}"
        )
    n = pop.pop_order_n
    z = universe.construct({x, y}, tag=f"break-g{generation}")
    universe.declare_dependency(z, x, level=n + 1)
    universe.declare_dependency(z, y, level=n + 1)
    pop.members.remove(x)
    pop.members.append(z)
    pop.pop_order_n = n + 1
    pop.break_log.append(BreakEvent(generation=generation, dependent=x, dependee=y, composite=z))
    return pop


def apply_reverse_break(
    universe: Universe,
    pop: Population,
    composite: StructureId,
    generation: int,
) -> Population:
    """Dissolve a break-created composite, restoring its direct constituents.

    Only composites with a live (un-reversed) break event can be dissolved.
    Restoration deduplicates against the roster and re-checks the population
    limit before mutating anything.
    """
    event = None
    for e in pop.break_log:
        if e.composite == composite:
            event = e
            break
    if event is None or composite not in pop.members:
        raise NotAComposite(f"structure {composite} is not an active break composite")
    if event.reversed_at is not None:
        raise AlreadyReversed(f"composite {composite} was reversed at generation {event.reversed_at}")
    restored = [c for c in sorted(universe.get(composite).constituents) if c not in pop.members]
    new_size = len(pop.members) - 1 + len(restored)
    if new_size > pop.population_limit:
        raise LimitExceeded(
            f"restoring {len(restored)} constituents would put the roster at "
            f"{new_size} > limit {pop.population_limit}"
        )
    pop.members.remove(composite)
    pop.members.extend(restored)
    event.reversed_at = generation
    pop.pop_order_n = 1 + max(universe.structural_order(m) for m in pop.members) - pop.base_order_r
    return pop


def goal_reached(problem: ProblemSpec, pop: Population, solved_flag: bool) -> bool:
    """The environment reports success and the reached structural order covers
    the declared problem order (the implementable proxy for capability)."""
    return bool(solved_flag) and pop.top_order >= problem.problem_order_x
