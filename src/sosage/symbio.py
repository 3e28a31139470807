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
from functools import lru_cache, reduce
from operator import add, itemgetter
from typing import Callable, Collection, Iterable, Optional, Sequence

from .envs import EnvSpec, Episode
from .errors import LimitExceeded, SosageError
from .hyperstruct import StructureId, Universe
from .population import (
    Population,
    ProblemSpec,
    apply_break,
    apply_reverse_break,
    can_break,
    goal_reached,
    init_population,
)
from .rng import Stream, substream

# ring capacity for per-member fitness samples, in units of top_m
SAMPLE_RING_FACTOR = 4

NEG_INF = float("-inf")
_SUCCEEDED = itemgetter(1)  # of an episode's (return, succeeded)


# ---------------------------------------------------------------------------
# genomes and networks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NeuronGene:
    """One tanh hidden neuron: its input weights (bias last), and one weight
    per output, in output order."""

    in_weights: tuple[float, ...]
    out_weights: tuple[float, ...]


def random_genome(input_dim: int, output_dim: int, rng: Stream) -> NeuronGene:
    """A neuron of the one shape the loop writes, its input weights drawn
    first, each uniform in [-1, 1)."""
    in_weights = tuple(rng.uniform(-1.0, 1.0) for _ in range(input_dim + 1))
    out_weights = tuple(rng.uniform(-1.0, 1.0) for _ in range(output_dim))
    return NeuronGene(in_weights, out_weights)


def mutate_genome(
    gene: NeuronGene, rng: Stream, rate: float, sigma: float, w_max: float
) -> NeuronGene:
    def jiggle(w: float) -> float:
        if rng.random() < rate:
            return max(-w_max, min(w_max, w + rng.normal(0.0, sigma)))
        return w

    return NeuronGene(tuple(map(jiggle, gene.in_weights)), tuple(map(jiggle, gene.out_weights)))


def crossover_genomes(a: NeuronGene, b: NeuronGene, rng: Stream) -> NeuronGene:
    """Uniform crossover position by position: one coin per weight, input
    weights first, so output k of the child is output k of a parent."""
    def pick(xs: tuple[float, ...], ys: tuple[float, ...]) -> tuple[float, ...]:
        return tuple(x if rng.random() < 0.5 else y for x, y in zip(xs, ys))

    return NeuronGene(pick(a.in_weights, b.in_weights), pick(a.out_weights, b.out_weights))


def genome_shape_fault(gene: NeuronGene, input_dim: int, output_dim: int) -> Optional[str]:
    """Why `gene` is not of the one shape the loop writes, or None when it
    is: `input_dim` input weights and a bias, and `output_dim` output
    weights."""
    if len(gene.in_weights) != input_dim + 1:
        return f"has {len(gene.in_weights)} input weights, want {input_dim + 1}"
    if len(gene.out_weights) != output_dim:
        return f"has {len(gene.out_weights)} output weights, want {output_dim}"
    return None


def _kernel_source(n_in: int, n_out: int) -> str:
    """A forward pass unrolled for `n_in` observations and `n_out` outputs,
    over neurons of the shape `genome_shape_fault` passes. The float
    operations run in a fixed order: `b + w0 * o0 + w1 * o1 + ...` folds
    left to right, from the bias, and each neuron then adds `u_k * h` to
    output k, for k = 0, 1, ..."""
    lines = [
        "def forward(wiring, obs):",
        f"    ({''.join(f'o{i}, ' for i in range(n_in))}) = obs",
        f"    out = [{', '.join(['0.0'] * n_out)}]",
        "    for gene in wiring:",
        f"        ({''.join(f'w{i}, ' for i in range(n_in))}b, ) = gene.in_weights",
        f"        h = tanh(b{''.join(f' + w{i} * o{i}' for i in range(n_in))})",
        f"        ({''.join(f'u{k}, ' for k in range(n_out))}) = gene.out_weights",
    ]
    lines += [f"        out[{k}] += u{k} * h" for k in range(n_out)]
    lines.append("    return out")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=64)
def _forward_kernel(n_in: int, n_out: int) -> Callable[..., list[float]]:
    """The generated forward function of one shape, compiled at first use."""
    namespace = {"tanh": math.tanh}
    exec(compile(_kernel_source(n_in, n_out), f"<forward {n_in}x{n_out}>", "exec"), namespace)
    return namespace["forward"]


def net_forward(wiring: Sequence[NeuronGene], obs: Sequence[float], output_dim: int) -> list[float]:
    """The outputs of the network wired from `wiring` on one observation:
    output k sums each neuron's k-th output weight times its activation.
    Every neuron must have len(obs) + 1 input weights and `output_dim`
    output weights; the kernel's unpacking raises ValueError on another
    length."""
    return _forward_kernel(len(obs), output_dim)(wiring, obs)


# ---------------------------------------------------------------------------
# assemblies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Assembly:
    """A complete evaluable network sampled from the roster; `evaluate` returns its `Outcome`."""

    participants: tuple[StructureId, ...]
    wiring: tuple[NeuronGene, ...]


@dataclass(frozen=True, slots=True)
class Outcome:
    """An assembly's evaluation: each episode's (return, succeeded), in episode
    order. The fitness and the solve derive from them, so neither can disagree."""

    episodes: tuple[Episode, ...]

    @property
    def fitness(self) -> float:
        """The returns folded left to right from 0.0, in a loop, which beats `reduce` here."""
        total = 0.0
        for episode_return, _ in self.episodes:
            total += episode_return
        return total

    @property
    def solved(self) -> bool:
        """True iff there is an episode and every one succeeded."""
        return bool(self.episodes) and all(map(_SUCCEEDED, self.episodes))


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
                raise SosageError(f"structure {i} payload is not a neuron genome")
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


@dataclass
class FitnessLedger:
    """Per-member fitness samples and co-occurrence tallies. The calls that
    read top_m, which sizes the sample ring and the score, take it."""

    # each member's most recent fitness samples, oldest first
    per_member: dict[StructureId, list[float]] = field(default_factory=dict)
    cooccur: dict[tuple[StructureId, StructureId], CooccurCell] = field(default_factory=dict)

    # --- member credit ---

    def credit(self, member: StructureId, fitness: float, top_m: int) -> None:
        samples = self.per_member.setdefault(member, [])
        samples.append(fitness)
        if len(samples) > SAMPLE_RING_FACTOR * top_m:
            del samples[0]

    def score(self, member: StructureId, top_m: int) -> Optional[float]:
        samples = self.per_member.get(member)
        if not samples:
            return None
        best = sorted(samples, reverse=True)[:top_m]
        return reduce(add, best, 0.0) / len(best)

    def ranked(self, members: Iterable[StructureId], top_m: int) -> list[tuple[StructureId, Optional[float]]]:
        """(member, score) pairs, best score first, unscored members last,
        ties to the lowest id. Each member is scored once."""
        scored = [(m, self.score(m, top_m)) for m in members]
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

        The tally runs row by row: x's assemblies are gathered once, and each
        partner's cell walks that row, so every cell receives its additions
        one at a time in assembly order, as tallying assembly by assembly
        would.
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
            for y in cohort:
                if y == x:
                    continue
                cell = cooccur.get((x, y))
                if cell is None:
                    cell = cooccur[x, y] = CooccurCell()
                for team, f in row:
                    if y in team:
                        cell.both_count += 1
                        cell.both_total += f
                    else:
                        cell.solo_count += 1
                        cell.solo_total += f

    # --- compaction ---

    def retain(self, keep: set[StructureId]) -> None:
        """Drop every member and every pair with an end outside `keep`."""
        self.per_member = {m: samples for m, samples in self.per_member.items() if m in keep}
        self.cooccur = {(x, y): c for (x, y), c in self.cooccur.items() if x in keep and y in keep}


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvolutionConfig:
    """Each numeric field's metadata holds its bounds, which config._read_fields applies."""

    network_size: int = field(default=3, metadata={"low": 1, "high": 500})
    assemblies_per_generation: int = field(default=30, metadata={"low": 1, "high": 10**6})
    elite_fraction: float = field(default=0.25, metadata={"above": 0, "below": 1})
    mutation_rate: float = field(default=0.3, metadata={"low": 0, "high": 1})
    mutation_sigma: float = field(default=0.5, metadata={"above": 0})
    crossover_rate: float = field(default=0.7, metadata={"low": 0, "high": 1})
    top_m: int = field(default=5, metadata={"low": 1, "high": 1000})
    dependency_delta: float = field(default=0.25, metadata={"above": 0})
    min_cooccur_samples: int = field(default=6, metadata={"low": 1, "high": 10**6})
    window_G: int = field(default=8, metadata={"low": 1, "high": 10**6})
    min_improvement: float = field(default=0.01, metadata={"low": 0})
    break_warmup: int = field(default=0, metadata={"low": 0, "high": 10**6})
    max_generations: int = field(default=200, metadata={"low": 0, "high": 10**6})
    w_max: float = field(default=5.0, metadata={"low": 1})  # random_genome draws in [-1, 1), unclamped


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    problem: ProblemSpec
    env: EnvSpec
    evolution: EvolutionConfig
    seed: int = field(default=0, metadata={"low": 0, "high": 2**64 - 1, "rule": "be an unsigned 64-bit integer"})
    roster_size: int = field(default=24, metadata={"low": 1, "high": 500})
    population_limit: int = field(metadata={"low": 1, "high": 1000})  # default: twice roster_size
    max_order: int = field(default=8, metadata={"low": 1, "high": 10**4})
    breaks_enabled: bool = True
    reverse_enabled: bool = True
    output_dir: str = "runs"
    checkpoint_every: int = field(default=0, metadata={"low": 0, "high": 10**6})


# ---------------------------------------------------------------------------
# generation phases
# ---------------------------------------------------------------------------

def assemble(
    universe: Universe,
    pop: Population,
    config: EvolutionConfig,
    rng: Stream,
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
        raise SosageError(f"roster of {len(roster)} cannot fill networks of size {k}")
    order = [roster[i] for i in rng.permutation(len(roster))]
    cover = min(-(-len(roster) // k), config.assemblies_per_generation)  # ceil
    chunks = [order[a * k: (a + 1) * k] for a in range(cover)]
    # only the last cover chunk can fall short; other members fill it up
    if len(chunks[-1]) < k:
        pool = [m for m in roster if m not in chunks[-1]]
        chunks[-1] += [pool[i] for i in rng.sample(len(pool), k - len(chunks[-1]))]
    for _ in range(config.assemblies_per_generation - cover):
        chunks.append([roster[i] for i in rng.sample(len(roster), k)])
    return [Assembly(tuple(chunk), flatten_to_genes(universe, chunk)) for chunk in chunks]


def evaluate(assembly: Assembly, env) -> Outcome:
    """Roll out the assembly's network over the env's `eval_episodes`, in
    order, into the `Outcome` of each episode's (return, succeeded). A gene
    with the wrong number of input or output weights, as `genome_shape_fault`
    counts them, raises SosageError ("genome " and the fault) before any
    episode runs."""
    wiring, input_dim, output_dim = assembly.wiring, env.input_dim, env.output_dim
    for gene in wiring:
        if (fault := genome_shape_fault(gene, input_dim, output_dim)) is not None:
            raise SosageError(f"genome {fault}")
    # bound once per assembly, at call time, so a rebound name is still used
    forward, select_action, rollout = net_forward, env.select_action, env.rollout

    def policy(obs: tuple[float, ...]) -> int:
        return select_action(forward(wiring, obs, output_dim))

    return Outcome(tuple([rollout(ep_idx, policy) for ep_idx in range(env.eval_episodes)]))


def distribute_fitness(
    ledger: FitnessLedger,
    outcomes: Sequence[tuple[Collection[StructureId], float]],
    top_m: int,
) -> None:
    """Credit every participant of the generation's (participants, fitness)
    pairs, in assembly order, in a ring of SAMPLE_RING_FACTOR * top_m
    samples. It makes no co-occurrence cell: run_symbiosis tallies those.

    Members in no assembly this generation are untouched, so their score is
    exactly what it was before.
    """
    for participants, fitness in outcomes:
        for member in participants:
            ledger.credit(member, fitness, top_m)


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
                for level in universe.dependency_levels(i, c):
                    universe.declare_dependency(new_id, c_clone, level)
            if stack:
                stack[-1][2][i] = new_id
    return new_id


def evolve_generation(
    universe: Universe,
    pop: Population,
    ledger: FitnessLedger,
    config: EvolutionConfig,
    rng: Stream,
    generation: int = 0,
) -> None:
    """Replace each stratum's non-elites with offspring of its elites.

    Order-1 offspring come from uniform crossover of two elites (probability
    crossover_rate, else a clone) plus Gaussian weight mutation. Higher-order
    members are cloned whole: inner genomes mutate together and never cross
    with outsiders. Offspring take over the replaced roster slots under fresh
    ids; member counts and orders per stratum are preserved.
    """
    ranking = ledger.ranked(pop.members, config.top_m)
    if all(s is None for _, s in ranking):
        raise SosageError("no roster member has a fitness score; distribute fitness first")
    # a stratum's ranking is the roster ranking restricted to it
    strata: dict[int, list[StructureId]] = {}
    for m, _ in ranking:
        strata.setdefault(universe.structural_order(m), []).append(m)
    slot_of = {m: i for i, m in enumerate(pop.members)}

    def mutate(genome: NeuronGene) -> NeuronGene:
        return mutate_genome(genome, rng, config.mutation_rate, config.mutation_sigma, config.w_max)

    for order in sorted(strata):
        ranked = strata[order]
        n_elite = max(1, int(config.elite_fraction * len(ranked)))
        elites = ranked[:n_elite]
        for m in ranked[n_elite:]:
            if order == 1:
                if rng.random() < config.crossover_rate and len(elites) >= 2:
                    pa, pb = (elites[i] for i in rng.sample(len(elites), 2))
                    child = crossover_genomes(universe.get(pa).payload, universe.get(pb).payload, rng)
                    tag = f"o{generation}:{pa}x{pb}"
                else:
                    pa = elites[rng.integers(len(elites))]
                    child = universe.get(pa).payload
                    tag = f"o{generation}:{pa}"
                new_id = universe.add_primitive(mutate(child), tag=tag)
            else:
                pa = elites[rng.integers(len(elites))]
                new_id = _clone_composite(universe, pa, mutate, generation)
            pop.members[slot_of[m]] = new_id


# ---------------------------------------------------------------------------
# the symbiosis loop
# ---------------------------------------------------------------------------

@dataclass
class LoopState:
    """Everything the loop mutates; checkpoints snapshot exactly this. The
    fields are the checkpoint's sections: universe, population and ledger,
    then the loop's three plain values. stall_history holds the last window_G
    running bests, oldest first."""

    universe: Universe
    pop: Population
    ledger: FitnessLedger
    stall_history: list[float] = field(default_factory=list)
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


def new_loop_state(env, config: RunConfig) -> LoopState:
    """Fresh universe + homogeneous initial population of random genomes,
    from the config's seed, problem and roster_size; the roster must fit
    population_limit. The state keeps one setting, the roster's base order,
    which top_order reads: the loop reads top_m, population_limit and
    max_order from the config it runs under."""
    universe = Universe()
    rng = substream(config.seed, "init")
    genomes = [random_genome(env.input_dim, env.output_dim, rng) for _ in range(config.roster_size)]
    pop = init_population(universe, config.problem, genomes, config.population_limit)
    return LoopState(universe=universe, pop=pop, ledger=FitnessLedger())


def stalled(history: Sequence[float], config: EvolutionConfig) -> bool:
    """True iff the last window_G running bests improved by less than
    min_improvement; a history shorter than the window never stalls."""
    w = config.window_G
    return len(history) >= w and (history[-1] - history[-w]) < config.min_improvement


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
    roster members, co-occurrence cells of roster pairs, the descendants of
    roster composites) stays inside the live set, as do the break-log
    structures and edges that verify checks.
    """
    live = live_structures(state.universe, state.pop)
    state.universe.retain(live)
    state.ledger.retain(live)


def run_symbiosis(
    env,
    config: RunConfig,
    state: LoopState,
    start_generation: int = 0,
    on_row: Optional[Callable[[GenerationRow], None]] = None,
    on_checkpoint: Optional[Callable[[int, LoopState], None]] = None,
) -> int:
    """Drive generations until the goal is reached or the budget runs out,
    and return the generation a resume would start from. A finished state
    runs no generation.

    Each generation runs its phases in order: assemble, evaluate, the stall
    history, the solve and the credit; then, unless it solves, the detecting
    tally, detect_dependency and at most one break (stall permitting), the
    reverse-break safeguard, stratified evolution and compaction; then the
    tally of a generation that did not detect; and last the row. The row
    and the solve read each assembly's `Outcome` by name. The credit makes
    no cell; `detecting` alone picks where the loop tallies the cohort:
    before `detect_dependency` when it detects, else over the cohort
    members still in the universe. A solving generation neither evolves nor
    compacts, so that is its whole cohort; it only credits roster members
    and their cells, so its state is as compact. `on_row` sees the finished
    generation, the state the next checkpoint saves; the checkpoint hook
    fires at the start of a generation so a resumed run replays it exactly.

    The config's seed, problem, population_limit, max_order, breaks_enabled,
    reverse_enabled and checkpoint_every are read here, and its evolution
    section, top_m included, goes to each phase. Of the settings, the state
    keeps only the roster's base order.
    The loop keeps the stall history itself, trimmed to evo.window_G here,
    and a break or a reverse clears it.
    """
    universe, pop, ledger, history = state.universe, state.pop, state.ledger, state.stall_history
    evo = config.evolution
    generation = start_generation
    while generation < evo.max_generations and state.solved_at is None:
        if on_checkpoint is not None and config.checkpoint_every > 0 and generation > start_generation \
                and (generation % config.checkpoint_every) == 0:
            on_checkpoint(generation, state)

        assemblies = assemble(universe, pop, evo, substream(config.seed, "assemble", generation))
        results = [evaluate(assembly, env) for assembly in assemblies]
        fitnesses = [r.fitness for r in results]
        top = pop.top_order
        cohort = [m for m in pop.members if universe.structural_order(m) == top]
        outcomes = [(a.participants, f) for a, f in zip(assemblies, fitnesses)]

        best = max(fitnesses)
        mean = reduce(add, fitnesses, 0.0) / len(fitnesses)
        # the stall history holds the running best so sampling noise in a
        # single generation's best cannot mask a stall; clearing it restarts
        # the reference
        history.append(max(best, history[-1]) if history else best)
        del history[:-evo.window_G]
        solved_now = any(r.solved for r in results)
        done = goal_reached(config.problem, pop, solved_now)
        if done:
            state.solved_at = generation
        # breaks wait out the warmup: a population still in its first
        # selection sweeps has not failed, it just has not started
        detecting = not done and config.breaks_enabled and generation >= evo.break_warmup \
            and stalled(history, evo)
        distribute_fitness(ledger, outcomes, evo.top_m)

        if not done:
            if detecting:
                # detect_dependency reads the whole cohort's cells now
                ledger.tally_cooccurrence(outcomes, cohort)
                pairs = detect_dependency(universe, ledger, pop, evo)
                selected = can_break(pop, pairs, config.population_limit, config.max_order)
                if selected is not None:
                    apply_break(universe, pop, selected[0], selected[1], generation)
                    history.clear()
            if config.reverse_enabled:
                _maybe_reverse(state, config, generation)
            evolve_generation(universe, pop, ledger, evo, substream(config.seed, "evolve", generation), generation)
            # in the loop, not at save time, so a resumed run holds the same state
            compact(state)
        if not detecting:
            # nothing since the credit read or wrote a cell, and compaction
            # kept just the live structures, so tallying the cohort members
            # still in the universe gives every kept cell what a full tally
            # would, and makes none that compaction would drop
            ledger.tally_cooccurrence(outcomes, [m for m in cohort if m in universe])

        if on_row is not None:
            on_row(GenerationRow(
                generation=generation,
                best_fitness=best,
                mean_fitness=mean,
                pop_order=pop.pop_order_n,
                roster_size=len(pop.members),
                breaks_so_far=len(pop.break_log),
            ))
        generation += 1

    return generation


def _maybe_reverse(state: LoopState, config: RunConfig, generation: int) -> None:
    """Dissolve at most one composite stuck in the roster's bottom quartile
    for window_G straight generations.

    The counters are rebuilt each generation by one rule: each counter is on
    the composite of a standing break event that is in the roster and ranks
    in its bottom quartile, and holds its previous count plus 1. The cohort
    is the whole roster, not the composite's own order stratum: a
    break-created composite usually sits alone at its order, where a
    within-stratum quartile is vacuous and a useless composite would survive
    forever. Ranking it against every member it competes with for assembly
    slots makes the safeguard selective: composites that pull their weight
    stay, the rest dissolve. Rosters below 4 members have no bottom quartile."""
    universe, pop, ledger = state.universe, state.pop, state.ledger
    standing = {e.composite for e in pop.break_log if e.reversed_at is None}.intersection(pop.members)
    threshold = -(-3 * len(pop.members) // 4)  # ceil(3s/4); ranks below it are safe
    bottom = ledger.ranked(pop.members, config.evolution.top_m)[threshold:] if standing else ()
    counters = state.reverse_counters
    counts = {m: counters.get(m, 0) + 1 for m, _ in bottom if m in standing}
    counters.clear()
    counters.update(counts)
    due = sorted(c for c, n in counters.items() if n >= config.evolution.window_G)
    for composite in due:
        try:
            apply_reverse_break(universe, pop, composite, generation, config.population_limit)
        except LimitExceeded:
            continue  # roster limit blocks restoration; retry next generation
        del counters[composite]
        state.stall_history.clear()
        break
