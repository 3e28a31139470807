"""Symbiotic neuro-evolution over the structure roster.

Order-1 members carry neuron genomes. Each generation samples roster members
into complete single-hidden-layer networks (composites are sampled as one
unit and flattened to their neurons for wiring), evaluates them on the
environment, and distributes the concrete network fitness back to the
members that took part. Co-occurrence statistics over the top stratum feed
dependency detection; a stalled population may then break a dependent pair
into a composite that is evolved as an indivisible unit from then on.
Evolution is stratified: genomes only ever cross within their own order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Callable, Collection, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    LimitExceeded,
    NoScores,
    RosterTooSmall,
    UnevaluatedAssembly,
    ValidationError,
)
from .hyperstruct import StructureId, Universe
from .population import (
    PendingDependency,
    Population,
    ProblemSpec,
    StallDetector,
    apply_break,
    apply_reverse_break,
    can_break,
    goal_reached,
    init_population,
)
from .rng import samples_without_replacement, substream

# ring capacity for per-member fitness samples, in units of top_m
SAMPLE_RING_FACTOR = 4

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# genomes and networks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NeuronGene:
    """One hidden neuron: input weights (bias last) and output connections."""

    in_weights: tuple[float, ...]
    out_targets: tuple[tuple[int, float], ...]
    activation: str = "tanh"  # "tanh" | "step"


def random_genome(input_dim: int, output_dim: int, rng: np.random.Generator) -> NeuronGene:
    in_weights = tuple(float(w) for w in rng.uniform(-1.0, 1.0, size=input_dim + 1))
    out_targets = tuple((k, float(rng.uniform(-1.0, 1.0))) for k in range(output_dim))
    return NeuronGene(in_weights=in_weights, out_targets=out_targets)


def _clamp(w: float, w_max: float) -> float:
    return max(-w_max, min(w_max, w))


def mutate_genome(
    gene: NeuronGene, rng: np.random.Generator, rate: float, sigma: float, w_max: float
) -> NeuronGene:
    def jiggle(w: float) -> float:
        if rng.random() < rate:
            return _clamp(w + float(rng.normal(0.0, sigma)), w_max)
        return w

    return NeuronGene(
        tuple(jiggle(w) for w in gene.in_weights),
        tuple((slot, jiggle(w)) for slot, w in gene.out_targets),
        gene.activation,
    )


def crossover_genomes(a: NeuronGene, b: NeuronGene, rng: np.random.Generator) -> NeuronGene:
    """Uniform crossover position-by-position; topology slots are shared.
    One coin per position, input weights first, all from one draw call."""
    weights = list(zip(a.in_weights, b.in_weights))
    targets = list(zip(a.out_targets, b.out_targets))
    heads = (rng.random(len(weights) + len(targets)) < 0.5).tolist()
    in_weights = tuple(aw if head else bw for (aw, bw), head in zip(weights, heads))
    out_targets = tuple(
        (sa, wa if head else wb)
        for ((sa, wa), (_, wb)), head in zip(targets, heads[len(weights):])
    )
    return NeuronGene(in_weights, out_targets, a.activation)


def _activate(kind: str, x: float) -> float:
    if kind == "tanh":
        return math.tanh(x)
    return 1.0 if x >= 0.0 else -1.0  # "step"


def net_forward(wiring: Sequence[NeuronGene], obs: Sequence[float], output_dim: int) -> list[float]:
    out = [0.0] * output_dim
    for gene in wiring:
        pre = gene.in_weights[-1]
        for w, v in zip(gene.in_weights, obs):
            pre += w * v
        h = _activate(gene.activation, pre)
        for slot, w in gene.out_targets:
            out[slot] += w * h
    return out


# ---------------------------------------------------------------------------
# assemblies
# ---------------------------------------------------------------------------

@dataclass
class Assembly:
    """A complete evaluable network sampled from the roster."""

    participants: tuple[StructureId, ...]
    wiring: tuple[NeuronGene, ...]
    fitness: Optional[float] = None
    solved: bool = False


def flatten_to_genes(universe: Universe, participants: Sequence[StructureId]) -> tuple[NeuronGene, ...]:
    """All order-1 descendants of the participants, each wired once, in
    first-encounter depth-first order. The search runs on an explicit stack,
    so a constituent chain of any depth fits: popping the lowest pending id
    first and skipping ids already seen visits nodes in the order a
    recursive search would."""
    seen: set[StructureId] = set()
    genes: list[NeuronGene] = []
    stack = list(reversed(participants))
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        s = universe.get(i)
        if s.order == 1:
            if not isinstance(s.payload, NeuronGene):
                raise TypeError(f"structure {i} payload is not a neuron genome")
            genes.append(s.payload)
        else:
            stack += sorted(s.constituents, reverse=True)
    return tuple(genes)


# ---------------------------------------------------------------------------
# fitness ledger
# ---------------------------------------------------------------------------

@dataclass
class CooccurCell:
    both_count: int = 0
    both_total: float = 0.0
    solo_count: int = 0
    solo_total: float = 0.0


class FitnessLedger:
    """Per-member fitness statistics, co-occurrence tallies, and pending
    equal-order dependency observations."""

    def __init__(self, top_m: int) -> None:
        if top_m < 1:
            raise ValueError("top_m must be >= 1")
        self.top_m = top_m
        # each member's most recent fitness samples, oldest first
        self.per_member: dict[StructureId, list[float]] = {}
        self.cooccur: dict[tuple[StructureId, StructureId], CooccurCell] = {}
        self.pending: dict[tuple[StructureId, StructureId], set[int]] = {}

    # --- member credit ---

    def credit(self, member: StructureId, fitness: float) -> None:
        samples = self.per_member.setdefault(member, [])
        samples.append(fitness)
        if len(samples) > SAMPLE_RING_FACTOR * self.top_m:
            del samples[0]

    def score(self, member: StructureId) -> Optional[float]:
        samples = self.per_member.get(member)
        if not samples:
            return None
        best = sorted(samples, reverse=True)[: self.top_m]
        return reduce(add, best, 0.0) / len(best)

    def ranked(self, members: Iterable[StructureId]) -> list[tuple[StructureId, Optional[float]]]:
        """(member, score) pairs, best score first, unscored members last,
        ties to the lowest id. Each member is scored once."""
        scored = [(m, self.score(m)) for m in members]
        scored.sort(key=lambda pair: (-(NEG_INF if pair[1] is None else pair[1]), pair[0]))
        return scored

    # --- co-occurrence ---

    def tally_cooccurrence(
        self,
        outcomes: Sequence[tuple[Collection[StructureId], float]],
        cohort: Sequence[StructureId],
    ) -> None:
        """Tally a generation's assemblies, given as (participants, fitness)
        pairs in assembly order. For every cohort member x that took part and
        every other cohort member y, cell (x, y) adds each of x's fitnesses to
        its both half when y shared that assembly and to its solo half when
        it did not.

        The tally runs row by row. x's assemblies are gathered once; a partner
        that shared none of them takes them all on its solo half, so a new
        cell starts at their count and left-to-right fold and an existing one
        folds them onto its own total. Only partners that shared one walk the
        list. Every cell receives its additions one at a time in assembly
        order, as tallying assembly by assembly would.
        """
        in_cohort = set(cohort)
        rows: dict[StructureId, list[tuple[set[StructureId], float]]] = {}
        for participants, fitness in outcomes:
            team = set(participants)
            for x in team & in_cohort:
                rows.setdefault(x, []).append((team, fitness))
        cooccur = self.cooccur
        for x in cohort:
            row = rows.get(x)
            if row is None:
                continue
            fitnesses = [f for _, f in row]
            n, total = len(fitnesses), reduce(add, fitnesses, 0.0)
            partners = {m for team, _ in row for m in team}
            for y in cohort:
                if y == x:
                    continue
                cell = cooccur.get((x, y))
                if y in partners:
                    if cell is None:
                        cell = cooccur[x, y] = CooccurCell()
                    for team, f in row:
                        if y in team:
                            cell.both_count += 1
                            cell.both_total += f
                        else:
                            cell.solo_count += 1
                            cell.solo_total += f
                elif cell is None:
                    cooccur[x, y] = CooccurCell(0, 0.0, n, total)
                else:
                    cell.solo_count += n
                    cell.solo_total = reduce(add, fitnesses, cell.solo_total)

    # --- pending dependency observations ---

    def record_pending(self, dependent: StructureId, dependee: StructureId, level: int) -> None:
        self.pending.setdefault((dependent, dependee), set()).add(level)

    def pending_levels(self, dependent: StructureId, dependee: StructureId) -> frozenset[int]:
        return frozenset(self.pending.get((dependent, dependee), ()))

    def retain(self, keep: set[StructureId]) -> None:
        """Drop every member and every pair with an end outside `keep`."""
        def kept(pairs):
            return {(x, y): v for (x, y), v in pairs.items() if x in keep and y in keep}

        self.per_member = {m: samples for m, samples in self.per_member.items() if m in keep}
        self.cooccur = kept(self.cooccur)
        self.pending = kept(self.pending)


# ---------------------------------------------------------------------------
# evolution configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvolutionConfig:
    network_size: int = 3
    assemblies_per_generation: int = 30
    elite_fraction: float = 0.25
    mutation_rate: float = 0.3
    mutation_sigma: float = 0.5
    crossover_rate: float = 0.7
    top_m: int = 5
    dependency_delta: float = 0.25
    min_cooccur_samples: int = 6
    window_G: int = 8
    min_improvement: float = 0.01
    break_warmup: int = 0
    max_generations: int = 200
    seed: int = 0
    w_max: float = 5.0

    def validate(self) -> None:
        def check(cond: bool, name: str, rule: str) -> None:
            if not cond:
                raise ValidationError(f"evolution.{name}", rule)

        check(self.network_size >= 1, "network_size", "must be >= 1")
        check(self.assemblies_per_generation >= 1, "assemblies_per_generation", "must be >= 1")
        check(0.0 < self.elite_fraction < 1.0, "elite_fraction", "must lie in (0, 1)")
        check(0.0 <= self.mutation_rate <= 1.0, "mutation_rate", "must lie in [0, 1]")
        check(self.mutation_sigma > 0.0, "mutation_sigma", "must be > 0")
        check(0.0 <= self.crossover_rate <= 1.0, "crossover_rate", "must lie in [0, 1]")
        check(self.top_m >= 1, "top_m", "must be >= 1")
        check(self.dependency_delta > 0.0, "dependency_delta", "must be > 0")
        check(self.min_cooccur_samples >= 1, "min_cooccur_samples", "must be >= 1")
        check(self.window_G >= 1, "window_G", "must be >= 1")
        check(self.min_improvement >= 0.0, "min_improvement", "must be >= 0")
        check(self.break_warmup >= 0, "break_warmup", "must be >= 0")
        check(self.max_generations >= 0, "max_generations", "must be >= 0")
        check(self.w_max > 0.0, "w_max", "must be > 0")


# ---------------------------------------------------------------------------
# generation phases
# ---------------------------------------------------------------------------

def assemble(
    universe: Universe,
    pop: Population,
    config: EvolutionConfig,
    rng: np.random.Generator,
) -> list[Assembly]:
    """Sample the generation's assemblies.

    Members are dealt from one shuffle into the first assemblies so every
    roster member appears at least once per generation; remaining assemblies
    are uniform without-replacement samples. Composites count as one sampled
    unit and are flattened to their neurons for wiring.
    """
    roster = list(pop.members)
    k = config.network_size
    if len(roster) < k:
        raise RosterTooSmall(f"roster of {len(roster)} cannot fill networks of size {k}")
    order = [roster[i] for i in rng.permutation(len(roster))]
    cover = min(-(-len(roster) // k), config.assemblies_per_generation)  # ceil
    chunks = [order[a * k: (a + 1) * k] for a in range(cover)]
    # only the last cover chunk can fall short; other members fill it up
    short = k - len(chunks[-1])
    shapes = [(len(roster) - len(chunks[-1]), short)] if short else []
    shapes += [(len(roster), k)] * (config.assemblies_per_generation - cover)
    samples = iter(samples_without_replacement(rng, shapes))
    if short:
        pool = [m for m in roster if m not in chunks[-1]]
        chunks[-1] += [pool[i] for i in next(samples)]
    chunks += ([roster[i] for i in picks] for picks in samples)
    return [Assembly(tuple(chunk), flatten_to_genes(universe, chunk)) for chunk in chunks]


def evaluate(assembly: Assembly, env, episodes: int) -> float:
    """Roll out the assembly's network and record its fitness: the summed
    episodic return over the evaluation batch. The assembly is solved when
    every episode succeeds."""
    for gene in assembly.wiring:
        if len(gene.in_weights) != env.input_dim + 1:
            raise DimensionMismatch(
                f"genome expects {len(gene.in_weights) - 1} inputs, env has {env.input_dim}"
            )
        for slot, _ in gene.out_targets:
            if not 0 <= slot < env.output_dim:
                raise DimensionMismatch(f"output slot {slot} outside env outputs {env.output_dim}")
    wiring, output_dim = assembly.wiring, env.output_dim

    def policy(obs: tuple[float, ...]) -> int:
        return env.select_action(net_forward(wiring, obs, output_dim))

    total = 0.0
    solved = episodes > 0
    for ep_idx in range(episodes):
        episode_return, succeeded = env.rollout(ep_idx, policy)
        total += episode_return
        solved = solved and succeeded
    assembly.fitness = total
    assembly.solved = solved
    return total


def distribute_fitness(
    ledger: FitnessLedger,
    assemblies: Sequence[Assembly],
    cohort: Sequence[StructureId] = (),
) -> None:
    """Credit every participant with its assemblies' fitnesses and tally
    co-occurrence over the dependency cohort (the top stratum).

    Members in no assembly this generation are untouched, so their score is
    exactly what it was before.
    """
    for assembly in assemblies:
        if assembly.fitness is None:
            raise UnevaluatedAssembly(f"assembly {assembly.participants} has no fitness")
    for assembly in assemblies:
        for member in assembly.participants:
            ledger.credit(member, assembly.fitness)
    ledger.tally_cooccurrence([(a.participants, a.fitness) for a in assemblies], cohort)


def detect_dependency(
    universe: Universe,
    ledger: FitnessLedger,
    pop: Population,
    config: EvolutionConfig,
) -> list[tuple[StructureId, StructureId]]:
    """Equal-order pairs (X, Y) in the top stratum where X's assemblies do
    better with Y present by at least dependency_delta, both cells having
    enough samples. Sorted; pure."""
    top = pop.top_order
    stratum = {m for m in pop.members if universe.structural_order(m) == top}
    pairs: list[tuple[StructureId, StructureId]] = []
    for (x, y), cell in ledger.cooccur.items():
        if x not in stratum or y not in stratum:
            continue
        if cell.both_count < config.min_cooccur_samples or cell.solo_count < config.min_cooccur_samples:
            continue
        gain = cell.both_total / cell.both_count - cell.solo_total / cell.solo_count
        if gain >= config.dependency_delta:
            pairs.append((x, y))
    return sorted(pairs)


def _clone_composite(
    universe: Universe,
    original: StructureId,
    mutate: Callable[[NeuronGene], NeuronGene],
    generation: int,
) -> StructureId:
    """Deep-copy a composite with mutated leaf genomes and fresh ids at every
    level; internal dependency edges are copied at their recorded levels.
    Every cloned node is tagged with its own original so lineage stays
    auditable per stratum. A constituent reached along two paths is cloned
    twice. Ids are handed out in post-order and leaves mutated in visit
    order, as a recursive copy would; the explicit stack lets a constituent
    chain of any depth fit."""

    def enter(i: StructureId) -> tuple[Optional[StructureId], Optional[tuple]]:
        """A leaf's clone id, or the stack frame of a composite to copy."""
        s = universe.get(i)
        if s.order == 1:
            return universe.add_primitive(mutate(s.payload), tag=f"c{generation}:{i}"), None
        return None, (i, iter(sorted(s.constituents)), {})

    new_id, frame = enter(original)
    # frames: (original id, constituents left to copy, constituent -> clone id)
    stack = [frame] if frame is not None else []
    while stack:
        i, pending, clones = stack[-1]
        for c in pending:
            new_id, frame = enter(c)
            if frame is not None:
                stack.append(frame)
                break
            clones[c] = new_id
        else:
            stack.pop()
            new_id = universe.construct(set(clones.values()), tag=f"c{generation}:{i}")
            for c, c_clone in clones.items():
                for level in universe.graph.dependency_levels(i, c):
                    universe.declare_dependency(new_id, c_clone, level)
            if stack:
                stack[-1][2][i] = new_id
    return new_id


def evolve_generation(
    universe: Universe,
    pop: Population,
    ledger: FitnessLedger,
    config: EvolutionConfig,
    rng: np.random.Generator,
    generation: int = 0,
) -> None:
    """Replace each stratum's non-elites with offspring of its elites.

    Order-1 offspring come from uniform crossover of two elites (probability
    crossover_rate, else a clone) plus Gaussian weight mutation. Higher-order
    members are cloned whole: inner genomes mutate together and never cross
    with outsiders. Offspring take over the replaced roster slots under fresh
    ids; member counts and orders per stratum are preserved.
    """
    ranking = ledger.ranked(pop.members)
    if all(s is None for _, s in ranking):
        raise NoScores("no roster member has a fitness score; distribute fitness first")
    # a stratum's ranking is the roster ranking restricted to it
    strata: dict[int, list[StructureId]] = {}
    for m, _ in ranking:
        strata.setdefault(universe.structural_order(m), []).append(m)
    slot_of = {m: i for i, m in enumerate(pop.members)}
    for order in sorted(strata):
        ranked = strata[order]
        n_elite = max(1, int(config.elite_fraction * len(ranked)))
        elites = ranked[:n_elite]
        for m in ranked[n_elite:]:
            if order == 1:
                if rng.random() < config.crossover_rate and len(elites) >= 2:
                    pa, pb = (elites[i] for i in samples_without_replacement(rng, [(len(elites), 2)])[0])
                    child = crossover_genomes(universe.get(pa).payload, universe.get(pb).payload, rng)
                    tag = f"o{generation}:{pa}x{pb}"
                else:
                    pa = elites[int(rng.integers(len(elites)))]
                    child = universe.get(pa).payload
                    tag = f"o{generation}:{pa}"
                child = mutate_genome(child, rng, config.mutation_rate, config.mutation_sigma, config.w_max)
                new_id = universe.add_primitive(child, tag=tag)
            else:
                pa = elites[int(rng.integers(len(elites)))]
                new_id = _clone_composite(
                    universe,
                    pa,
                    lambda g: mutate_genome(g, rng, config.mutation_rate, config.mutation_sigma, config.w_max),
                    generation,
                )
            pop.members[slot_of[m]] = new_id


# ---------------------------------------------------------------------------
# the symbiosis loop
# ---------------------------------------------------------------------------

@dataclass
class LoopState:
    """Everything the loop mutates; checkpoints snapshot exactly this."""

    universe: Universe
    problem: ProblemSpec
    pop: Population
    ledger: FitnessLedger
    detector: StallDetector
    reverse_counters: dict[StructureId, int] = field(default_factory=dict)
    solved_at: Optional[int] = None


@dataclass
class GenerationRow:
    generation: int
    best_fitness: float
    mean_fitness: float
    pop_order: int
    roster_size: int
    breaks_so_far: int


@dataclass
class LoopOutcome:
    solved: bool
    generations_to_solve: Optional[int]
    final_pop_order: int
    next_generation: int


def new_loop_state(
    problem: ProblemSpec,
    env,
    config: EvolutionConfig,
    roster_size: int,
    population_limit: int,
    max_order: int,
) -> LoopState:
    """Fresh universe + homogeneous initial population of random genomes."""
    universe = Universe(max_order=max_order)
    rng = substream(config.seed, "init")
    genomes = [random_genome(env.input_dim, env.output_dim, rng) for _ in range(roster_size)]
    pop = init_population(universe, problem, genomes, population_limit)
    ledger = FitnessLedger(top_m=config.top_m)
    detector = StallDetector(window_G=config.window_G, min_improvement=config.min_improvement)
    return LoopState(universe=universe, problem=problem, pop=pop, ledger=ledger, detector=detector)


def live_structures(universe: Universe, pop: Population) -> set[StructureId]:
    """The structures the loop can still read: the roster members and every
    break-log event's composite, dependent and dependee, closed under
    constituents. Ids missing from the universe are skipped."""
    stack = list(pop.members)
    for event in pop.break_log:
        stack += (event.composite, event.dependent, event.dependee)
    live: set[StructureId] = set()
    while stack:
        i = stack.pop()
        if i in live or i not in universe:
            continue
        live.add(i)
        stack.extend(universe.structures[i].constituents)
    return live


def compact(state: LoopState) -> None:
    """Drop every structure and ledger entry outside the live set.

    Exact: a structure re-enters the roster only through a reverse break,
    which restores the direct constituents of a break-log composite (every
    other entry gets a fresh id), and every read the loop makes (scores of
    roster members, co-occurrence cells and pending levels of roster pairs,
    the descendants of roster composites) stays inside the live set, as do
    the break-log structures, edges and pending levels that verify checks.
    """
    live = live_structures(state.universe, state.pop)
    state.universe.retain(live)
    state.ledger.retain(live)


def run_symbiosis(
    env,
    config: EvolutionConfig,
    state: LoopState,
    breaks_enabled: bool = True,
    reverse_enabled: bool = True,
    start_generation: int = 0,
    on_row: Optional[Callable[[GenerationRow], None]] = None,
    on_checkpoint: Optional[Callable[[int, LoopState], None]] = None,
    checkpoint_every: int = 0,
) -> LoopOutcome:
    """Drive generations until the goal is reached or the budget runs out.

    Each generation: assemble, evaluate, distribute fitness, then (stall
    permitting) detect dependencies and apply at most one break, then the
    reverse-break safeguard, then stratified evolution and compaction. A
    solving generation stops before evolution; it only credits roster
    members and their cells, so its state is as compact. The checkpoint hook
    fires at the start of a generation so a resumed run replays it exactly.
    """
    universe, pop, ledger, detector = state.universe, state.pop, state.ledger, state.detector
    generation = start_generation
    while generation < config.max_generations:
        if state.solved_at is not None:
            break  # resumed a finished run
        if on_checkpoint is not None and checkpoint_every > 0 and generation > start_generation \
                and (generation % checkpoint_every) == 0:
            on_checkpoint(generation, state)

        assemblies = assemble(universe, pop, config, substream(config.seed, "assemble", generation))
        for assembly in assemblies:
            evaluate(assembly, env, env.eval_episodes)
        top = pop.top_order
        cohort = [m for m in pop.members if universe.structural_order(m) == top]
        distribute_fitness(ledger, assemblies, cohort)

        fitnesses = [a.fitness for a in assemblies]
        best = max(fitnesses)
        mean = reduce(add, fitnesses, 0.0) / len(fitnesses)
        # the detector watches the running best so sampling noise in a single
        # generation's best cannot mask a stall; resets restart the reference
        prior = detector.history[-1] if detector.history else NEG_INF
        detector.update(max(best, prior))
        solved_now = any(a.solved for a in assemblies)
        done = goal_reached(state.problem, pop, solved_now)
        if done and state.solved_at is None:
            state.solved_at = generation

        if not done:
            # breaks wait out the warmup: a population still in its first
            # selection sweeps has not failed, it just has not started
            if breaks_enabled and generation >= config.break_warmup and detector.stalled():
                pairs = detect_dependency(universe, ledger, pop, config)
                n = pop.pop_order_n
                for x, y in pairs:
                    ledger.record_pending(x, y, n)
                candidates = [
                    PendingDependency(x, y, ledger.pending_levels(x, y)) for x, y in pairs
                ]
                selected = can_break(universe, pop, candidates)
                if selected is not None:
                    apply_break(universe, pop, selected[0], selected[1], generation)
                    detector.reset()
            if reverse_enabled:
                _maybe_reverse(state, config, generation)

        row = GenerationRow(
            generation=generation,
            best_fitness=best,
            mean_fitness=mean,
            pop_order=pop.pop_order_n,
            roster_size=len(pop.members),
            breaks_so_far=len(pop.break_log),
        )
        if on_row is not None:
            on_row(row)
        generation += 1
        if done:
            break
        evolve_generation(universe, pop, ledger, config, substream(config.seed, "evolve", row.generation), row.generation)
        # in the loop, not at save time, so a resumed run holds the same state
        compact(state)

    return LoopOutcome(
        solved=state.solved_at is not None,
        generations_to_solve=state.solved_at,
        final_pop_order=pop.pop_order_n,
        next_generation=generation,
    )


def _maybe_reverse(state: LoopState, config: EvolutionConfig, generation: int) -> None:
    """Dissolve at most one composite stuck in the roster's bottom quartile
    for window_G straight generations.

    The cohort is the whole roster, not the composite's own order stratum: a
    break-created composite usually sits alone at its order, where a
    within-stratum quartile is vacuous and a useless composite would survive
    forever. Ranking it against every member it competes with for assembly
    slots makes the safeguard selective: composites that pull their weight
    stay, the rest dissolve. Only break-created composites with a live event
    qualify; rosters below 4 members have no bottom quartile."""
    universe, pop, ledger = state.universe, state.pop, state.ledger
    live = {e.composite for e in pop.break_log if e.reversed_at is None}
    counters = state.reverse_counters
    in_roster = set(pop.members)
    for stale in [c for c in counters if c not in in_roster or c not in live]:
        del counters[stale]
    if live.isdisjoint(in_roster):
        return  # nothing to rank or count, and no counter is left
    size = len(pop.members)
    threshold = -(-3 * size // 4)  # ceil(3s/4); ranks below it are safe
    for rank, (m, _) in enumerate(ledger.ranked(pop.members)):
        if m not in live:
            continue
        if rank >= threshold:
            counters[m] = counters.get(m, 0) + 1
        else:
            counters.pop(m, None)
    due = sorted(c for c, n in counters.items() if n >= config.window_G)
    for composite in due:
        try:
            apply_reverse_break(universe, pop, composite, generation)
        except LimitExceeded:
            continue  # roster limit blocks restoration; retry next generation
        del counters[composite]
        state.detector.reset()
        break
