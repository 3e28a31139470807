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

from .errors import LimitExceeded, SosageError
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
    """Active roster of mixed-order members with its break history. The
    roster limit is no field: the operators that grow the roster take it."""

    members: list[StructureId]
    base_order_r: int
    pop_order_n: int
    break_log: list[BreakEvent] = field(default_factory=list)

    @property
    def top_order(self) -> int:
        return self.base_order_r + self.pop_order_n - 1


def init_population(
    universe: Universe,
    problem: ProblemSpec,
    genomes: Sequence[Any],
    limit: int,
) -> Population:
    """Wrap each genome as an order-1 primitive, chained up to order r when the
    base solver order is above 1; more genomes than `limit` are refused."""
    if not genomes:
        raise SosageError("at least one genome is required")
    if len(genomes) > limit:
        raise LimitExceeded(f"{len(genomes)} genomes exceed population limit {limit}")
    members: list[StructureId] = []
    for k, genome in enumerate(genomes):
        i = universe.add_primitive(genome, tag=f"g{k}")
        for _ in range(problem.base_solver_order_r - 1):
            i = universe.construct({i}, tag=f"g{k}-wrap")
        members.append(i)
    return Population(members=members, base_order_r=problem.base_solver_order_r, pop_order_n=1)


def can_break(
    pop: Population,
    candidate_pairs: Iterable[tuple[StructureId, StructureId]],
    limit: int,
    max_order: int,
) -> Optional[tuple[StructureId, StructureId]]:
    """Select the breakable (dependent, dependee) pair: the lowest candidate,
    or None when the roster is full (at `limit`, the run's population_limit),
    the composite would pass `max_order` (the run's order cap), or there is
    no candidate.

    Each break gate is checked in one place: the warmup and the stall in
    run_symbiosis; the top stratum, the sample floor and dependency_delta in
    detect_dependency, which yields the candidates; a full roster and the
    order cap here; apply_break refuses any other pair.
    """
    if len(pop.members) == limit or pop.top_order + 1 > max_order:
        return None
    return min(candidate_pairs, default=None)


def apply_break(
    universe: Universe,
    pop: Population,
    x: StructureId,
    y: StructureId,
    generation: int,
) -> None:
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
        raise SosageError(
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


def apply_reverse_break(
    universe: Universe,
    pop: Population,
    composite: StructureId,
    generation: int,
    limit: int,
) -> None:
    """Dissolve a break-created composite, restoring its direct constituents.

    Only composites with a live (un-reversed) break event can be dissolved.
    Restoration deduplicates against the roster and checks the roster
    against `limit` before mutating anything.
    """
    event = next((e for e in pop.break_log if e.composite == composite), None)
    if event is None or composite not in pop.members:
        raise SosageError(f"structure {composite} is not an active break composite")
    if event.reversed_at is not None:
        raise SosageError(f"composite {composite} was reversed at generation {event.reversed_at}")
    restored = [c for c in sorted(universe.get(composite).constituents) if c not in pop.members]
    new_size = len(pop.members) - 1 + len(restored)
    if new_size > limit:
        raise LimitExceeded(
            f"restoring {len(restored)} constituents would put the roster at "
            f"{new_size} > limit {limit}"
        )
    pop.members.remove(composite)
    pop.members.extend(restored)
    event.reversed_at = generation
    pop.pop_order_n = 1 + max(universe.structural_order(m) for m in pop.members) - pop.base_order_r


def goal_reached(problem: ProblemSpec, pop: Population, solved_flag: bool) -> bool:
    """The environment reports success and the reached structural order covers
    the declared problem order (the implementable proxy for capability)."""
    return bool(solved_flag) and pop.top_order >= problem.problem_order_x
