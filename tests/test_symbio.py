"""Genome ops, assemblies, the fitness ledger, dependency detection, and the
generation loop."""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosage.config import load_config, with_seed
from sosage.envs import GridNavEnv, XorEnv, make_env
from sosage.errors import (
    DimensionMismatch,
    NoScores,
    RosterTooSmall,
    UnevaluatedAssembly,
)
from sosage.harness import build_state
from sosage.hyperstruct import Universe
from sosage.population import ProblemSpec, StallDetector, apply_break, init_population
from sosage.symbio import (
    FORWARD_KERNEL_CAP,
    SAMPLE_RING_FACTOR,
    Assembly,
    CooccurCell,
    EvolutionConfig,
    FitnessLedger,
    LoopState,
    NeuronGene,
    _clone_composite,
    _forward_kernel,
    _general_forward,
    assemble,
    crossover_genomes,
    detect_dependency,
    distribute_fitness,
    evaluate,
    evolve_generation,
    flatten_to_genes,
    mutate_genome,
    net_forward,
    new_loop_state,
    random_genome,
    run_symbiosis,
)

from support import constant_one_gene, fold, interacts_disagreements, stream, xor_solver_genes
from test_digests import CONFIG_DIR, REVERSING

PROPERTY_SETTINGS = settings(max_examples=120, deadline=None)


def genome_pop(universe, genomes, limit=None):
    problem = ProblemSpec(problem_order_x=1, base_solver_order_r=1)
    return init_population(universe, problem, list(genomes), limit or 2 * len(genomes))


def fresh_gene(rng, input_dim=2, output_dim=1):
    return random_genome(input_dim, output_dim, rng)


class TestGenomeOps:
    def test_random_genome_shape_and_bounds(self, rng):
        gene = random_genome(input_dim=4, output_dim=3, rng=rng)
        assert len(gene.in_weights) == 5
        assert [slot for slot, _ in gene.out_targets] == [0, 1, 2]
        weights = list(gene.in_weights) + [w for _, w in gene.out_targets]
        assert all(-1.0 <= w <= 1.0 for w in weights)
        assert gene.activation == "tanh"

    def test_random_genome_deterministic(self):
        a = random_genome(3, 2, stream(42))
        b = random_genome(3, 2, stream(42))
        assert a == b

    def test_mutate_rate_zero_is_identity(self, rng):
        gene = fresh_gene(stream(1))
        assert mutate_genome(gene, rng, rate=0.0, sigma=1.0, w_max=5.0) == gene

    def test_mutate_rate_one_touches_every_weight(self):
        gene = fresh_gene(stream(1), input_dim=3, output_dim=2)
        out = mutate_genome(gene, stream(2), rate=1.0, sigma=0.5, w_max=5.0)
        assert all(a != b for a, b in zip(gene.in_weights, out.in_weights))
        assert all(wa != wb for (_, wa), (_, wb) in zip(gene.out_targets, out.out_targets))
        assert [s for s, _ in out.out_targets] == [s for s, _ in gene.out_targets]

    def test_mutate_clamps_to_w_max(self):
        gene = fresh_gene(stream(1))
        out = mutate_genome(gene, stream(3), rate=1.0, sigma=50.0, w_max=5.0)
        weights = list(out.in_weights) + [w for _, w in out.out_targets]
        assert all(-5.0 <= w <= 5.0 for w in weights)
        assert any(abs(w) == 5.0 for w in weights)  # sigma 50 saturates something

    def test_mutate_deterministic(self):
        gene = fresh_gene(stream(1))
        a = mutate_genome(gene, stream(7), 0.5, 0.5, 5.0)
        b = mutate_genome(gene, stream(7), 0.5, 0.5, 5.0)
        assert a == b

    def test_crossover_picks_each_position_from_a_parent(self):
        a = NeuronGene((1.0, 2.0, 3.0), ((0, 4.0),), activation="step")
        b = NeuronGene((-1.0, -2.0, -3.0), ((0, -4.0),))
        child = crossover_genomes(a, b, stream(5))
        for k, w in enumerate(child.in_weights):
            assert w in (a.in_weights[k], b.in_weights[k])
        assert child.out_targets[0][1] in (4.0, -4.0)
        assert child.out_targets[0][0] == 0
        assert child.activation == a.activation

    def test_crossover_of_identical_parents_is_identity(self, rng):
        a = fresh_gene(stream(1))
        assert crossover_genomes(a, a, rng) == a


def loop_forward(wiring, obs, output_dim):
    """net_forward as the general loops wrote it before the shape kernels;
    the oracle for every shape."""
    def activate(kind, x):
        if kind == "tanh":
            return math.tanh(x)
        return 1.0 if x >= 0.0 else -1.0  # "step"

    out = [0.0] * output_dim
    for gene in wiring:
        pre = gene.in_weights[-1]
        for w, v in zip(gene.in_weights, obs):
            pre += w * v
        h = activate(gene.activation, pre)
        for slot, w in gene.out_targets:
            out[slot] += w * h
    return out


def outcome(fn, *args):
    """The result as hex floats, bit for bit, or the error's type and message."""
    try:
        return [v.hex() for v in fn(*args)]
    except Exception as e:  # the oracle's error is the expected one
        return type(e), str(e)


# floats that use every mantissa bit, so that another order of the same
# additions rounds differently, and awkward ones: signed zeros, the smallest
# subnormal, a size that swamps 1.0 in a sum, and infinities
FULL_MANTISSA = st.integers(0, 2 ** 32 - 1).map(lambda seed: random.Random(seed).uniform(-1.0, 1.0))
AWKWARD = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1.0, -1.0, math.inf, -math.inf])


@st.composite
def forward_cases(draw):
    """(wiring, obs, output_dim): shapes of 0-6 inputs and outputs and one
    above the kernel cap; most neurons fit the shape, others have another
    weight or target count, duplicate, out-of-order or out-of-range slots."""
    widths = st.sampled_from([*range(7), FORWARD_KERNEL_CAP + 1])
    n_in, output_dim = draw(widths, label="inputs"), draw(widths, label="outputs")
    # an awkward value saturates tanh, so half the cases have none
    floats = draw(st.sampled_from([FULL_MANTISSA, FULL_MANTISSA | AWKWARD]), label="floats")
    obs = tuple(draw(st.lists(floats, min_size=n_in, max_size=n_in), label="obs"))
    slots = st.integers(0, output_dim - 1) if output_dim else st.nothing()

    def count(fit, low, high, label):
        """`fit` three times in four, else any count in [low, high]."""
        return fit if draw(st.integers(0, 3), label=label) else draw(st.integers(low, high), label=label)

    wiring = []
    for _ in range(draw(st.integers(0, 5), label="neurons")):
        n_weights = count(n_in + 1, 0, n_in + 3, "weights")
        n_targets = count(output_dim, 0, output_dim + 2, "targets")
        if draw(st.integers(0, 19), label="bad slot") == 0:
            slots_here = slots | st.sampled_from([-1, output_dim, output_dim + 1])
        else:
            slots_here = slots if output_dim else st.sampled_from([-1, 0])
        wiring.append(NeuronGene(
            tuple(draw(st.lists(floats, min_size=n_weights, max_size=n_weights))),
            tuple((draw(slots_here), draw(floats)) for _ in range(n_targets)),
            draw(st.sampled_from(["tanh", "tanh", "step", "relu"]), label="activation"),
        ))
    return tuple(wiring), obs, output_dim


class TestForward:
    def test_single_tanh_neuron_exact(self):
        gene = NeuronGene((1.0, -1.0, 0.5), ((0, 2.0), (1, -1.0)))
        out = net_forward([gene], (2.0, 3.0), output_dim=3)
        pre = 0.5
        pre += 1.0 * 2.0
        pre += -1.0 * 3.0
        h = math.tanh(pre)
        assert out == [0.0 + 2.0 * h, 0.0 + -1.0 * h, 0.0]

    def test_additions_keep_their_order(self):
        # 1e16 + 1.0 rounds to 1e16, so another order of these sums differs
        weights = NeuronGene((1e16, -1e16, 1.0, 1.0), ((0, 1.0),))
        pre = ((1.0 + 1e16) + -1e16) + 1.0
        assert pre == 1.0
        assert net_forward([weights], (1.0, 1.0, 1.0), 1) == [0.0 + 1.0 * math.tanh(pre)]
        targets = NeuronGene((1.0, 1.0, 1.0, 1.0), ((0, 1.0), (0, 1e16), (0, -1e16)), activation="step")
        assert net_forward([targets], (1.0, 1.0, 1.0), 3) == [((0.0 + 1.0) + 1e16) + -1e16, 0.0, 0.0] \
            == [0.0, 0.0, 0.0]

    @settings(max_examples=300, deadline=None)
    @given(case=forward_cases())
    def test_kernels_equal_the_general_loops(self, case):
        wiring, obs, output_dim = case
        assert outcome(net_forward, wiring, obs, output_dim) == outcome(loop_forward, wiring, obs, output_dim)

    @pytest.mark.parametrize("n_in, output_dim", [(0, 0), (0, 3), (2, 0), (4, 4), (FORWARD_KERNEL_CAP, 1)])
    def test_shapes_up_to_the_cap_get_a_kernel(self, n_in, output_dim):
        assert _forward_kernel(n_in, output_dim) is not _general_forward
        gene = NeuronGene((0.5,) * (n_in + 1), tuple((k, 2.0) for k in range(output_dim)))
        assert net_forward([gene], (1.0,) * n_in, output_dim) == loop_forward([gene], (1.0,) * n_in, output_dim)

    @pytest.mark.parametrize("n_in, output_dim", [(FORWARD_KERNEL_CAP + 1, 1), (2, FORWARD_KERNEL_CAP + 1),
                                                  (2, -1), (2, True), (2, 4.0)])
    def test_other_shapes_take_the_general_loops(self, n_in, output_dim):
        assert _forward_kernel(n_in, output_dim) is _general_forward
        gene = NeuronGene((0.5,) * (n_in + 1), ((0, 2.0),))
        obs = (1.0,) * n_in
        assert outcome(net_forward, [gene], obs, output_dim) == outcome(loop_forward, [gene], obs, output_dim)

    def test_step_activation_signs(self):
        gene = NeuronGene((1.0, 0.0), ((0, 1.0),), activation="step")
        assert net_forward([gene], (0.5,), 1) == [1.0]
        assert net_forward([gene], (-0.5,), 1) == [-1.0]

    def test_outputs_accumulate_across_neurons(self):
        shared = ((0, 1.0),)
        genes = [
            NeuronGene((0.0, 1.0), shared, activation="step"),
            NeuronGene((0.0, 1.0), shared, activation="step"),
        ]
        assert net_forward(genes, (0.0,), 1) == [2.0]


class TestFlatten:
    def test_duplicates_wire_once(self, universe, rng):
        g = fresh_gene(rng)
        a = universe.add_primitive(g)
        assert flatten_to_genes(universe, [a, a]) == (g,)

    def test_composites_flatten_in_sorted_id_order(self, universe, rng):
        g1, g2, g3 = (fresh_gene(rng) for _ in range(3))
        a = universe.add_primitive(g1)
        b = universe.add_primitive(g2)
        c = universe.add_primitive(g3)
        z = universe.construct({b, a})
        assert flatten_to_genes(universe, [z, c]) == (g1, g2, g3)
        assert flatten_to_genes(universe, [z, b]) == (g1, g2)

    def test_non_genome_payload_rejected(self, universe):
        s = universe.add_primitive("just a label")
        with pytest.raises(TypeError):
            flatten_to_genes(universe, [s])


def per_weight_crossover(a, b, rng):
    """One coin per weight from a numpy Generator: the oracle for
    crossover_genomes' children and for where it leaves the stream."""
    in_weights = tuple(aw if rng.random() < 0.5 else bw for aw, bw in zip(a.in_weights, b.in_weights))
    out_targets = tuple(
        (sa, wa if rng.random() < 0.5 else wb) for (sa, wa), (_, wb) in zip(a.out_targets, b.out_targets)
    )
    return dataclasses.replace(a, in_weights=in_weights, out_targets=out_targets)


class TestCrossoverMatchesThePerWeightOracle:
    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2 ** 32 - 1), input_dim=st.integers(0, 6), output_dim=st.integers(1, 4),
           activation=st.sampled_from(["tanh", "step"]))
    def test_children_and_later_draws_are_equal(self, seed, input_dim, output_dim, activation):
        genes = stream(seed)
        a = dataclasses.replace(fresh_gene(genes, input_dim, output_dim), activation=activation)
        b = fresh_gene(genes, input_dim, output_dim)
        ours, oracle = stream(seed + 1), np.random.default_rng(seed + 1)
        assert crossover_genomes(a, b, ours) == per_weight_crossover(a, b, oracle)
        assert ours.random() == oracle.random()


def per_call_assemble(universe, pop, config, rng):
    """The assembly sampler that made one Generator.choice call per sample;
    the oracle for assemble."""
    roster = list(pop.members)
    k = config.network_size
    order = [roster[i] for i in rng.permutation(len(roster))]
    chunks = []
    for a in range(min(-(-len(roster) // k), config.assemblies_per_generation)):
        chunk = order[a * k: (a + 1) * k]
        if len(chunk) < k:
            pool = [m for m in roster if m not in chunk]
            chunk = chunk + [pool[int(i)] for i in rng.choice(len(pool), size=k - len(chunk), replace=False)]
        chunks.append(tuple(chunk))
    while len(chunks) < config.assemblies_per_generation:
        chunks.append(tuple(roster[int(i)] for i in rng.choice(len(roster), size=k, replace=False)))
    return chunks


class TestAssemble:
    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30), data=st.data())
    def test_matches_the_per_call_oracle(self, seed, n, data):
        k = data.draw(st.integers(1, n), label="network_size")
        apg = data.draw(st.integers(1, 40), label="assemblies_per_generation")
        universe, pop, config, _ = self.make(n, k, apg)
        ours, oracle = stream(seed), np.random.default_rng(seed)
        got = assemble(universe, pop, config, ours)
        assert [a.participants for a in got] == per_call_assemble(universe, pop, config, oracle)
        assert ours.random() == oracle.random()

    def make(self, n, k, apg, seed=0):
        universe = Universe(max_order=8)
        rng = stream(1)
        pop = genome_pop(universe, [fresh_gene(rng) for _ in range(n)])
        config = EvolutionConfig(network_size=k, assemblies_per_generation=apg)
        return universe, pop, config, stream(seed)

    def test_every_member_appears_each_generation(self):
        universe, pop, config, rng = self.make(n=7, k=3, apg=6)
        assemblies = assemble(universe, pop, config, rng)
        assert len(assemblies) == 6
        covered = set()
        for a in assemblies:
            assert len(a.participants) == 3
            assert len(set(a.participants)) == 3
            covered |= set(a.participants)
        assert covered == set(pop.members)

    def test_short_final_chunk_topped_up_without_replacement(self):
        universe, pop, config, rng = self.make(n=4, k=3, apg=2)
        assemblies = assemble(universe, pop, config, rng)
        assert len(assemblies) == 2
        assert all(len(set(a.participants)) == 3 for a in assemblies)

    def test_deterministic_given_rng(self):
        universe, pop, config, _ = self.make(n=6, k=3, apg=8)
        one = assemble(universe, pop, config, stream(11))
        two = assemble(universe, pop, config, stream(11))
        assert [a.participants for a in one] == [a.participants for a in two]

    def test_small_roster_rejected(self):
        universe, pop, config, rng = self.make(n=2, k=3, apg=2)
        with pytest.raises(RosterTooSmall):
            assemble(universe, pop, config, rng)


class TestEvaluate:
    def wire(self, universe, genes):
        ids = [universe.add_primitive(g) for g in genes]
        return Assembly(tuple(ids), flatten_to_genes(universe, ids))

    def test_hand_solver_scores_perfect_xor(self, universe):
        assembly = self.wire(universe, xor_solver_genes())
        env = XorEnv()
        fitness = evaluate(assembly, env, env.eval_episodes)
        assert env.eval_episodes == 4
        assert fitness == 4.0  # one point per episode: all four ran and won
        assert assembly.solved

    def test_constant_net_scores_half(self, universe):
        assembly = self.wire(universe, (constant_one_gene(),))
        fitness = evaluate(assembly, XorEnv(), 4)
        assert fitness == 2.0
        assert not assembly.solved

    def test_fitness_sums_over_episode_batch(self, universe):
        assembly = self.wire(universe, (constant_one_gene(),))
        assert evaluate(assembly, XorEnv(), 8) == 4.0

    def test_input_width_mismatch_rejected(self, universe):
        assembly = self.wire(universe, xor_solver_genes())
        with pytest.raises(DimensionMismatch):
            evaluate(assembly, GridNavEnv(), 1)

    def test_output_slot_mismatch_rejected(self, universe):
        bad = NeuronGene((0.0, 0.0, 1.0), ((3, 5.0),), activation="step")
        assembly = self.wire(universe, (bad,))
        with pytest.raises(DimensionMismatch):
            evaluate(assembly, XorEnv(), 4)

    def test_distribute_requires_evaluated_assemblies(self, universe):
        assembly = self.wire(universe, (constant_one_gene(),))
        with pytest.raises(UnevaluatedAssembly):
            distribute_fitness(FitnessLedger(top_m=3), [assembly])


class TestLedger:
    def test_score_is_top_m_mean(self):
        ledger = FitnessLedger(top_m=3)
        assert ledger.score(1) is None
        for f in (1.0, 5.0, 3.0, 2.0, 4.0):
            ledger.credit(1, f)
        assert ledger.score(1) == pytest.approx((5.0 + 4.0 + 3.0) / 3)

    def test_score_with_fewer_samples_than_top_m(self):
        ledger = FitnessLedger(top_m=5)
        ledger.credit(1, 2.0)
        assert ledger.score(1) == 2.0

    def test_ring_keeps_newest_samples(self):
        ledger = FitnessLedger(top_m=2)
        cap = SAMPLE_RING_FACTOR * 2
        for f in range(cap + 2):
            ledger.credit(1, float(f))
        assert ledger.per_member[1] == [float(v) for v in range(2, cap + 2)]
        assert ledger.score(1) == pytest.approx((cap + 1 + cap) / 2)

    @pytest.mark.parametrize(
        "generations",
        [[[({1, 2}, 1.0)], [({1}, 0.25)]], [[((1, 2), 1.0), ((1,), 0.25)]]],
        ids=["two-generations", "one-generation"],
    )
    def test_cooccurrence_cells_split_by_partner_presence(self, generations):
        ledger = FitnessLedger(top_m=3)
        cohort = (1, 2, 3)
        for outcomes in generations:
            ledger.tally_cooccurrence(outcomes, cohort)
        both = ledger.cooccur[(1, 2)]
        assert (both.both_count, both.both_total) == (1, 1.0)
        assert (both.solo_count, both.solo_total) == (1, 0.25)
        away = ledger.cooccur[(1, 3)]
        assert (away.both_count, away.solo_count) == (0, 2)
        assert (2, 3) in ledger.cooccur and (3, 1) not in ledger.cooccur

    def test_unpaired_cells_fold_onto_their_own_totals(self):
        ledger = FitnessLedger(top_m=3)
        ledger.tally_cooccurrence([((1, 2), 1e16), ((1, 3), 1.0)], (1, 2, 3))
        assert ledger.cooccur[(1, 2)] == CooccurCell(1, 1e16, 1, 1.0)
        assert ledger.cooccur[(2, 3)] == CooccurCell(0, 0.0, 1, 1e16)
        # 1e16 + 1.0 + 1.0 rounds each step back to 1e16; 1e16 + 2.0 would not
        ledger.tally_cooccurrence([((2, 9), 1.0), ((2,), 1.0)], (1, 2, 3))
        assert ledger.cooccur[(2, 3)] == CooccurCell(0, 0.0, 3, 1e16)
        assert ledger.cooccur[(2, 1)] == CooccurCell(1, 1e16, 2, 2.0)
        assert (3, 2) in ledger.cooccur and (9, 2) not in ledger.cooccur and (2, 9) not in ledger.cooccur

    def test_pending_levels_accumulate(self):
        ledger = FitnessLedger(top_m=3)
        assert ledger.pending_levels(1, 2) == frozenset()
        ledger.record_pending(1, 2, 1)
        ledger.record_pending(1, 2, 2)
        assert ledger.pending_levels(1, 2) == frozenset({1, 2})

    def test_ranked_orders_by_score_then_id_and_scores_each_member_once(self, monkeypatch):
        ledger = FitnessLedger(top_m=2)
        for member, fitness in ((5, 1.0), (3, 2.0), (4, 1.0), (9, -1.0)):
            ledger.credit(member, fitness)
        calls = []
        score = ledger.score
        monkeypatch.setattr(ledger, "score", lambda m: calls.append(m) or score(m))
        ranking = ledger.ranked([9, 7, 5, 4, 3])
        assert ranking == [(3, 2.0), (4, 1.0), (5, 1.0), (9, -1.0), (7, None)]
        assert sorted(calls) == [3, 4, 5, 7, 9]


class TestDetection:
    def detection_pop(self, n):
        universe = Universe(max_order=8)
        pop = genome_pop(universe, [f"m{k}" for k in range(n)])
        return universe, pop

    def test_gain_threshold_and_sample_floor(self):
        universe, pop = self.detection_pop(3)
        a, b, c = pop.members
        config = EvolutionConfig(dependency_delta=0.5, min_cooccur_samples=2)
        ledger = FitnessLedger(top_m=3)
        cohort = tuple(pop.members)
        for _ in range(2):
            # a with b: fitness 1.0; a without b: 0.2
            ledger.tally_cooccurrence([({a, b}, 1.0), ({a, c}, 0.2)], cohort)
        got = detect_dependency(universe, ledger, pop, config)
        assert (a, b) in got
        assert (a, c) not in got  # gain is negative for c
        # one sample short on the solo side blocks the pair
        thin = FitnessLedger(top_m=3)
        thin.tally_cooccurrence([({a, b}, 1.0), ({a, b}, 1.0), ({a, c}, 0.2)], cohort)
        assert detect_dependency(universe, thin, pop, config) == []

    def test_only_top_stratum_pairs_reported(self):
        universe, pop = self.detection_pop(4)
        a, b, c, d = pop.members
        config = EvolutionConfig(dependency_delta=0.1, min_cooccur_samples=1)
        ledger = FitnessLedger(top_m=3)
        cohort = tuple(pop.members)
        ledger.tally_cooccurrence([({a, b}, 1.0), ({a, c}, 0.0)], cohort)
        apply_break(universe, pop, c, d, generation=0)  # top order becomes 2
        assert detect_dependency(universe, ledger, pop, config) == []

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 6),
        k=st.integers(2, 3),
        delta=st.sampled_from((0.1, 0.5, 1.0)),
        min_samples=st.integers(1, 3),
    )
    def test_matches_exhaustive_history_oracle(self, seed, n, k, delta, min_samples):
        rng = np.random.default_rng(seed)
        universe, pop = self.detection_pop(n)
        members = list(pop.members)
        config = EvolutionConfig(dependency_delta=delta, min_cooccur_samples=min_samples)
        ledger = FitnessLedger(top_m=3)
        history: list[tuple[set, float]] = []
        for _ in range(int(rng.integers(4, 40))):
            picks = rng.choice(n, size=k, replace=False)
            team = {members[int(i)] for i in picks}
            fitness = float(rng.choice((0.0, 0.5, 1.0, 1.42)))
            history.append((team, fitness))
        # the history, cut into generations of one or more assemblies each
        cuts = [0, *sorted({int(c) for c in rng.integers(1, len(history), size=3)}), len(history)]
        for start, stop in zip(cuts, cuts[1:]):
            ledger.tally_cooccurrence(history[start:stop], tuple(members))
        expected = []
        for x in members:
            for y in members:
                if x == y:
                    continue
                both = [f for team, f in history if x in team and y in team]
                solo = [f for team, f in history if x in team and y not in team]
                if len(both) < min_samples or len(solo) < min_samples:
                    continue
                gain = fold(both) / len(both) - fold(solo) / len(solo)
                if gain >= delta:
                    expected.append((x, y))
        assert detect_dependency(universe, ledger, pop, config) == sorted(expected)


class TestEvolve:
    def scored_pop(self, n, scores, seed=1):
        universe = Universe(max_order=8)
        rng = stream(seed)
        pop = genome_pop(universe, [fresh_gene(rng) for _ in range(n)])
        ledger = FitnessLedger(top_m=3)
        for m, s in zip(pop.members, scores):
            if s is not None:
                ledger.credit(m, s)
        return universe, pop, ledger

    def test_elite_count_is_floor_of_fraction(self):
        universe, pop, ledger = self.scored_pop(8, [float(8 - i) for i in range(8)])
        elites = pop.members[:2]  # int(0.25 * 8) = 2, highest scores first two
        before = list(pop.members)
        config = EvolutionConfig(elite_fraction=0.25)
        evolve_generation(universe, pop, ledger, config, stream(0), generation=4)
        assert pop.members[:2] == elites
        assert all(m not in before for m in pop.members[2:])
        assert len(pop.members) == 8
        for m in pop.members[2:]:
            assert universe.get(m).tag.startswith("o4:")

    def test_elite_floor_is_one(self):
        universe, pop, ledger = self.scored_pop(3, [3.0, 2.0, 1.0])
        config = EvolutionConfig(elite_fraction=0.25)
        evolve_generation(universe, pop, ledger, config, stream(0))
        assert pop.members[0] == 0 and len(pop.members) == 3

    def test_offspring_parents_are_elites(self):
        universe, pop, ledger = self.scored_pop(8, [float(8 - i) for i in range(8)])
        elites = set(pop.members[:2])
        config = EvolutionConfig(elite_fraction=0.25)
        evolve_generation(universe, pop, ledger, config, stream(0), generation=1)
        for m in pop.members[2:]:
            tag = universe.get(m).tag
            parents = tag.split(":", 1)[1].split("x")
            assert set(map(int, parents)) <= elites

    def test_clone_only_when_crossover_disabled(self):
        universe, pop, ledger = self.scored_pop(4, [4.0, 3.0, 2.0, 1.0])
        config = EvolutionConfig(elite_fraction=0.25, crossover_rate=0.0)
        evolve_generation(universe, pop, ledger, config, stream(0), generation=2)
        for m in pop.members[1:]:
            assert "x" not in universe.get(m).tag

    def test_unscored_members_rank_last(self):
        universe, pop, ledger = self.scored_pop(4, [None, 1.0, None, 2.0])
        config = EvolutionConfig(elite_fraction=0.25)
        evolve_generation(universe, pop, ledger, config, stream(0))
        assert pop.members[3] == 3  # only the top scorer survives

    def test_no_scores_at_all_rejected(self):
        universe, pop, ledger = self.scored_pop(4, [None] * 4)
        with pytest.raises(NoScores):
            evolve_generation(universe, pop, ledger, EvolutionConfig(), stream(0))

    def test_deterministic(self):
        rosters = []
        for _ in range(2):
            universe, pop, ledger = self.scored_pop(6, [6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
            config = EvolutionConfig(elite_fraction=0.3)
            evolve_generation(universe, pop, ledger, config, stream(9), generation=3)
            rosters.append([universe.get(m).payload for m in pop.members])
        assert rosters[0] == rosters[1]


class TestCloneComposite:
    def build_composite(self):
        universe = Universe(max_order=8)
        rng = stream(2)
        pop = genome_pop(universe, [fresh_gene(rng) for _ in range(4)])
        a, b = pop.members[0], pop.members[1]
        apply_break(universe, pop, a, b, generation=0)
        return universe, pop, pop.members[-1], (a, b)

    def test_clone_preserves_shape_with_fresh_ids(self):
        universe, pop, z, (a, b) = self.build_composite()
        clone = _clone_composite(universe, z, lambda g: g, generation=6)
        assert clone != z
        assert universe.structural_order(clone) == universe.structural_order(z)
        assert universe.get(clone).tag == f"c6:{z}"
        kids = sorted(universe.get(clone).constituents)
        assert all(k not in (a, b) for k in kids)
        for k in kids:
            assert universe.graph.dependency_levels(clone, k) == {2}
        # an identity mutation copies each leaf genome unchanged
        leaves = {universe.get(k).payload for k in kids}
        assert leaves == {universe.get(a).payload, universe.get(b).payload}

    def test_evolve_replaces_weak_composite_with_clone_of_strong(self):
        universe = Universe(max_order=8)
        rng = stream(3)
        genomes = [fresh_gene(rng) for _ in range(4)]
        pop = genome_pop(universe, genomes)
        a, b, c, d = pop.members
        apply_break(universe, pop, a, b, generation=0)
        z1 = pop.members[-1]
        # a second same-order composite, built directly
        z2 = universe.construct({c, d}, tag="manual")
        universe.declare_dependency(z2, c, 2)
        universe.declare_dependency(z2, d, 2)
        pop.members[:] = [z1, z2]
        ledger = FitnessLedger(top_m=3)
        ledger.credit(z1, 2.0)
        ledger.credit(z2, 0.5)
        config = EvolutionConfig(elite_fraction=0.25)
        evolve_generation(universe, pop, ledger, config, stream(0), generation=7)
        assert pop.members[0] == z1
        replacement = pop.members[1]
        assert replacement not in (z1, z2)
        assert universe.structural_order(replacement) == 2
        assert universe.get(replacement).tag == f"c7:{z1}"


def recursive_flatten(universe, participants):
    """The recursive search that flatten_to_genes replaced; the oracle for
    its visit order."""
    seen = set()
    genes = []

    def visit(i):
        if i in seen:
            return
        seen.add(i)
        s = universe.get(i)
        if s.order == 1:
            genes.append(s.payload)
        else:
            for c in sorted(s.constituents):
                visit(c)

    for p in participants:
        visit(p)
    return tuple(genes)


def recursive_clone(universe, original, mutate, generation):
    """The recursive copy that _clone_composite replaced; the oracle for its
    id assignment and the order of its mutate calls."""
    s = universe.get(original)
    tag = f"c{generation}:{original}"
    if s.order == 1:
        return universe.add_primitive(mutate(s.payload), tag=tag)
    clones = {c: recursive_clone(universe, c, mutate, generation) for c in sorted(s.constituents)}
    new_id = universe.construct(set(clones.values()), tag=tag)
    for c, c_clone in clones.items():
        for level in universe.graph.dependency_levels(original, c):
            universe.declare_dependency(new_id, c_clone, level)
    return new_id


@st.composite
def shared_composites(draw):
    """A recipe for a universe whose composites share constituents freely:
    primitive count, each composite's constituents (any earlier ids),
    dependency edge candidates, and one id to start from."""
    n_prim = draw(st.integers(1, 5))
    groups = []
    for j in range(draw(st.integers(0, 8))):
        groups.append(draw(st.sets(st.integers(0, n_prim + j - 1), min_size=1, max_size=3)))
    n = n_prim + len(groups)
    deps = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 3)), max_size=12))
    participants = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    return n_prim, groups, deps, participants


def build_shared(recipe):
    n_prim, groups, deps, _ = recipe
    u = Universe(max_order=64)
    for k in range(n_prim):
        u.add_primitive(NeuronGene(in_weights=(float(k), 0.0), out_targets=((0, 1.0),)), tag=f"p{k}")
    for members in groups:
        u.construct(members)
    for d, e, level in deps:
        if u.get(d).order - u.get(e).order == 1:
            u.declare_dependency(d, e, level)
    return u


def recording_mutation():
    """A mutation that logs which leaf it was called on and stamps the copy
    with its call number."""
    calls = []

    def mutate(gene):
        calls.append(gene.in_weights[0])
        return dataclasses.replace(gene, in_weights=(gene.in_weights[0], float(len(calls))))

    return mutate, calls


class TestTraversalsMatchTheRecursiveOracles:
    @PROPERTY_SETTINGS
    @given(recipe=shared_composites())
    def test_flatten_visits_in_recursive_order(self, recipe):
        u = build_shared(recipe)
        participants = recipe[3]
        got = flatten_to_genes(u, participants)
        want = recursive_flatten(u, participants)
        assert len(got) == len(want) and all(a is b for a, b in zip(got, want))

    @PROPERTY_SETTINGS
    @given(recipe=shared_composites())
    def test_clone_assigns_ids_and_mutates_in_recursive_order(self, recipe):
        original = max(recipe[3])
        mine, theirs = build_shared(recipe), build_shared(recipe)
        mutate, calls = recording_mutation()
        oracle_mutate, oracle_calls = recording_mutation()
        got = _clone_composite(mine, original, mutate, generation=3)
        want = recursive_clone(theirs, original, oracle_mutate, generation=3)
        assert got == want
        assert calls == oracle_calls
        assert mine.structures == theirs.structures and mine.next_id == theirs.next_id
        assert mine.graph.interaction_edges() == theirs.graph.interaction_edges()
        assert mine.graph.dependency_edges() == theirs.graph.dependency_edges()

    def chain(self, depth):
        """A primitive under `depth` single-constituent composites, each
        depending on the next one down."""
        u = Universe(max_order=depth + 1)
        top = u.add_primitive(NeuronGene(in_weights=(0.5, 0.0), out_targets=((0, 1.0),)))
        for _ in range(depth):
            below, top = top, u.construct({top})
            u.declare_dependency(top, below, 1)
        return u, top

    def test_chains_deeper_than_the_recursion_limit(self):
        u, top = self.chain(3000)
        assert flatten_to_genes(u, [top]) == (u.get(0).payload,)
        mutate, calls = recording_mutation()
        clone = _clone_composite(u, top, mutate, generation=1)
        assert calls == [0.5]
        assert u.structural_order(clone) == 3001
        assert len(u.structures) == 2 * 3001
        node = clone
        for _ in range(3000):
            (below,) = u.get(node).constituents
            assert u.graph.dependency_levels(node, below) == {1}
            node = below
        assert u.get(node).payload.in_weights == (0.5, 1.0)


def per_assembly_tally(ledger, participants, fitness, cohort):
    """The per-assembly tally that FitnessLedger.tally_cooccurrence replaced;
    the oracle for its cells."""
    present = [m for m in cohort if m in participants]
    for x in present:
        for y in cohort:
            if y == x:
                continue
            cell = ledger.cooccur.setdefault((x, y), CooccurCell())
            if y in participants:
                cell.both_count += 1
                cell.both_total += fitness
            else:
                cell.solo_count += 1
                cell.solo_total += fitness


AWKWARD_FITNESS = (0.1, 1e16, -0.0, 5e-324, 1.0, -3.5, 0.0)


@st.composite
def tally_generations(draw):
    """Generations of (cohort, [(team, fitness), ...]). Cohorts of 1-8 are
    drawn from ids 0-11 and change between generations; teams draw from ids
    0-15, so some hold non-cohort members and some cohort members sit out."""
    fitness = st.one_of(st.sampled_from(AWKWARD_FITNESS), st.floats(-1e3, 1e3))
    generation = st.tuples(
        st.lists(st.integers(0, 11), min_size=1, max_size=8, unique=True),
        st.lists(st.tuples(st.lists(st.integers(0, 15), min_size=1, max_size=4, unique=True), fitness),
                 max_size=10),
    )
    return draw(st.lists(generation, min_size=1, max_size=5))


def cell_bits(ledger):
    return {
        key: (c.both_count, c.both_total.hex(), c.solo_count, c.solo_total.hex())
        for key, c in ledger.cooccur.items()
    }


class TestTallyMatchesThePerAssemblyOracle:
    @PROPERTY_SETTINGS
    @given(generations=tally_generations())
    def test_cells_are_bit_identical_after_every_generation(self, generations):
        ledger, oracle = FitnessLedger(top_m=3), FitnessLedger(top_m=3)
        for cohort, outcomes in generations:
            ledger.tally_cooccurrence([(tuple(team), f) for team, f in outcomes], cohort)
            for team, f in outcomes:
                per_assembly_tally(oracle, set(team), f, cohort)
            assert ledger.cooccur.keys() == oracle.cooccur.keys()
            assert cell_bits(ledger) == cell_bits(oracle)

    def test_a_whole_roster_generation(self):
        rng = np.random.default_rng(5)
        cohort = [int(m) for m in rng.permutation(24)]
        ledger, oracle = FitnessLedger(top_m=3), FitnessLedger(top_m=3)
        for _ in range(3):
            teams = [tuple(int(m) for m in rng.choice(24, size=3, replace=False)) for _ in range(30)]
            outcomes = [(team, float(rng.choice(AWKWARD_FITNESS))) for team in teams]
            ledger.tally_cooccurrence(outcomes, cohort)
            for team, f in outcomes:
                per_assembly_tally(oracle, set(team), f, cohort)
        assert len(ledger.cooccur) == 24 * 23
        assert cell_bits(ledger) == cell_bits(oracle)


class TestLoop:
    def solver_state(self, config):
        universe = Universe(max_order=8)
        problem = ProblemSpec(problem_order_x=1, base_solver_order_r=1)
        pop = init_population(universe, problem, list(xor_solver_genes()), 8)
        ledger = FitnessLedger(top_m=config.top_m)
        detector = StallDetector(config.window_G, config.min_improvement)
        return LoopState(universe=universe, problem=problem, pop=pop, ledger=ledger, detector=detector)

    def test_zero_budget_returns_empty_outcome(self):
        config = EvolutionConfig(max_generations=0, network_size=3, assemblies_per_generation=2)
        state = self.solver_state(config)
        rows = []
        next_generation = run_symbiosis(XorEnv(), config, state, on_row=rows.append)
        assert (state.solved_at, rows, next_generation) == (None, [], 0)

    def test_planted_solver_finishes_at_generation_zero(self):
        config = EvolutionConfig(max_generations=5, network_size=3, assemblies_per_generation=2)
        state = self.solver_state(config)
        rows = []
        next_generation = run_symbiosis(XorEnv(), config, state, on_row=rows.append)
        assert (state.solved_at, next_generation) == (0, 1)
        assert len(rows) == 1
        assert rows[0].best_fitness == 4.0

    def test_unsolved_run_fills_the_budget(self):
        problem = ProblemSpec(problem_order_x=2, base_solver_order_r=1)
        config = EvolutionConfig(
            max_generations=4, network_size=2, assemblies_per_generation=3, seed=5
        )
        state = new_loop_state(problem, XorEnv(), config, roster_size=4, population_limit=8, max_order=8)
        rows = []
        next_generation = run_symbiosis(
            XorEnv(), config, state, breaks_enabled=False, on_row=rows.append
        )
        assert state.solved_at is None
        assert [r.generation for r in rows] == [0, 1, 2, 3]
        assert all(r.breaks_so_far == 0 for r in rows)
        assert all(r.roster_size == 4 and r.pop_order == 1 for r in rows)
        assert (next_generation, state.pop.pop_order_n) == (4, 1)

    def test_rows_are_reproducible(self):
        problem = ProblemSpec(problem_order_x=2, base_solver_order_r=1)
        config = EvolutionConfig(
            max_generations=6, network_size=2, assemblies_per_generation=4, seed=12
        )
        runs = []
        for _ in range(2):
            state = new_loop_state(problem, XorEnv(), config, 5, 10, 8)
            rows = []
            run_symbiosis(XorEnv(), config, state, on_row=rows.append)
            runs.append(rows)
        assert runs[0] == runs[1]

    def test_checkpoint_hook_fires_on_schedule(self):
        problem = ProblemSpec(problem_order_x=2, base_solver_order_r=1)
        config = EvolutionConfig(
            max_generations=5, network_size=2, assemblies_per_generation=3, seed=3
        )
        state = new_loop_state(problem, XorEnv(), config, 4, 8, 8)
        seen = []
        run_symbiosis(
            XorEnv(), config, state,
            on_checkpoint=lambda g, s: seen.append(g), checkpoint_every=2,
        )
        assert seen == [2, 4]

    @pytest.mark.parametrize("r", [1, 2])
    def test_interacts_agrees_with_the_edge_list_at_every_generation(self, r):
        base = with_seed(load_config(CONFIG_DIR / "xor.json"), 1)
        config = dataclasses.replace(
            base,
            problem=ProblemSpec(problem_order_x=r, base_solver_order_r=r),
            evolution=dataclasses.replace(base.evolution, **REVERSING, max_generations=40),
        )
        state = build_state(config)
        edges = []

        def check(generation, now):
            assert interacts_disagreements(now.universe) == [], generation
            edges.append(len(now.universe.graph.interaction_edges()))

        next_generation = run_symbiosis(
            make_env(config.env.name, config.env.params), config.evolution, state,
            on_checkpoint=check, checkpoint_every=1,
        )
        check(next_generation, state)
        assert len(edges) == next_generation and max(edges) > 0


class TestWhatTheLoopFeedsTheRule:
    """The loop records a pair only while both members sit in the top
    stratum, so each pending entry holds one level: the members' order less
    the base order plus one, the population order at the time. Since
    structures never change order, no second level is ever added, and
    `hyperstruct.emergent` cannot refuse a pair the loop recorded."""

    @pytest.mark.parametrize(
        "seed,changes", [(7, {}), (1, {**REVERSING, "max_generations": 120})], ids=["xor-7", "xor-1-reversing"]
    )
    def test_each_pending_entry_is_one_level_set_by_its_order(self, seed, changes):
        base = with_seed(load_config(CONFIG_DIR / "xor.json"), seed)
        config = dataclasses.replace(base, evolution=dataclasses.replace(base.evolution, **changes))
        state = build_state(config)
        entries = []

        def check(generation, now):
            order = now.universe.structural_order
            for (x, y), levels in now.ledger.pending.items():
                assert order(x) == order(y), (generation, x, y)
                assert levels == {order(x) - now.pop.base_order_r + 1}, (generation, x, y, levels)
            entries.append(len(now.ledger.pending))

        next_generation = run_symbiosis(
            make_env(config.env.name, config.env.params), config.evolution, state,
            breaks_enabled=config.breaks_enabled, reverse_enabled=config.reverse_enabled,
            on_checkpoint=check, checkpoint_every=1,
        )
        check(next_generation, state)
        assert len(entries) == next_generation and sum(entries) > 0
        assert state.pop.break_log
