"""Genome ops, assemblies, the fitness ledger, dependency detection, and the
generation loop."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sosage import symbio
from sosage.checkpoint import Checkpoint, checkpoint_to_json_dict, load_checkpoint
from sosage.config import load_config, make_env, with_seed
from sosage.envs import EnvSpec, GridNavEnv, XorEnv
from sosage.errors import LimitExceeded, SosageError
from sosage.harness import OUTPUT_DIR_ENV, build_state, run
from sosage.hyperstruct import Universe
from sosage.population import BreakEvent, Population, ProblemSpec, apply_break, apply_reverse_break, init_population
from sosage.symbio import (
    SAMPLE_RING_FACTOR,
    Assembly,
    CooccurCell,
    EvolutionConfig,
    FitnessLedger,
    LoopState,
    NeuronGene,
    Outcome,
    RunConfig,
    _clone_composite,
    _forward_kernel,
    _maybe_reverse,
    assemble,
    crossover_genomes,
    detect_dependency,
    distribute_fitness,
    evaluate,
    evolve_generation,
    flatten_to_genes,
    genome_shape_fault,
    mutate_genome,
    net_forward,
    new_loop_state,
    random_genome,
    run_symbiosis,
    stalled,
)

from support import constant_one_gene, exactly, fold, interacts_disagreements, stream, xor_solver_genes
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
        assert len(gene.out_weights) == 3
        assert all(-1.0 <= w <= 1.0 for w in gene.in_weights + gene.out_weights)

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
        assert all(wa != wb for wa, wb in zip(gene.out_weights, out.out_weights))
        assert len(out.out_weights) == len(gene.out_weights)

    def test_mutate_clamps_to_w_max(self):
        gene = fresh_gene(stream(1))
        out = mutate_genome(gene, stream(3), rate=1.0, sigma=50.0, w_max=5.0)
        weights = out.in_weights + out.out_weights
        assert all(-5.0 <= w <= 5.0 for w in weights)
        assert any(abs(w) == 5.0 for w in weights)  # sigma 50 saturates something

    def test_mutate_deterministic(self):
        gene = fresh_gene(stream(1))
        a = mutate_genome(gene, stream(7), 0.5, 0.5, 5.0)
        b = mutate_genome(gene, stream(7), 0.5, 0.5, 5.0)
        assert a == b

    def test_crossover_picks_each_position_from_a_parent(self):
        a = NeuronGene((1.0, 2.0, 3.0), (4.0, 5.0))
        b = NeuronGene((-1.0, -2.0, -3.0), (-4.0, -5.0))
        child = crossover_genomes(a, b, stream(5))
        for k, w in enumerate(child.in_weights):
            assert w in (a.in_weights[k], b.in_weights[k])
        assert child.out_weights[0] in (4.0, -4.0)
        assert child.out_weights[1] in (5.0, -5.0)

    def test_crossover_of_identical_parents_is_identity(self, rng):
        a = fresh_gene(stream(1))
        assert crossover_genomes(a, a, rng) == a


def loop_forward(wiring, obs, output_dim):
    """net_forward as plain loops over the weights, each output weight
    adding into the output its position names; the oracle for every shape."""
    out = [0.0] * output_dim
    for gene in wiring:
        pre = gene.in_weights[-1]
        for w, v in zip(gene.in_weights, obs):
            pre += w * v
        h = math.tanh(pre)
        for k, w in enumerate(gene.out_weights):
            out[k] += w * h
    return out


def bits(values):
    """The floats as hex, bit for bit."""
    return [v.hex() for v in values]


# floats that use every mantissa bit, so that another order of the same
# additions rounds differently, and awkward ones: signed zeros, the smallest
# subnormal, a size that swamps 1.0 in a sum, and infinities
FULL_MANTISSA = st.integers(0, 2 ** 32 - 1).map(lambda seed: random.Random(seed).uniform(-1.0, 1.0))
AWKWARD = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1.0, -1.0, math.inf, -math.inf])
WIDE = 17  # wider than any shipped environment


@st.composite
def forward_cases(draw):
    """(wiring, obs, output_dim): 0-6 inputs and outputs, or 17, and tanh
    neurons of the one shape the loop writes."""
    widths = st.sampled_from([*range(7), WIDE])
    n_in, output_dim = draw(widths, label="inputs"), draw(widths, label="outputs")
    # an awkward value saturates tanh, so half the cases have none
    floats = draw(st.sampled_from([FULL_MANTISSA, FULL_MANTISSA | AWKWARD]), label="floats")
    obs = tuple(draw(st.lists(floats, min_size=n_in, max_size=n_in), label="obs"))
    wiring = tuple(
        NeuronGene(
            tuple(draw(st.lists(floats, min_size=n_in + 1, max_size=n_in + 1))),
            tuple(draw(st.lists(floats, min_size=output_dim, max_size=output_dim))),
        )
        for _ in range(draw(st.integers(0, 5), label="neurons"))
    )
    return wiring, obs, output_dim


class TestForward:
    def test_single_tanh_neuron_exact(self):
        gene = NeuronGene((1.0, -1.0, 0.5), (2.0, -1.0, 0.0))
        out = net_forward([gene], (2.0, 3.0), output_dim=3)
        pre = 0.5
        pre += 1.0 * 2.0
        pre += -1.0 * 3.0
        h = math.tanh(pre)
        assert out == [0.0 + 2.0 * h, 0.0 + -1.0 * h, 0.0 + 0.0 * h]

    def test_additions_keep_their_order(self):
        # 1e16 + 1.0 rounds to 1e16, so another order of these sums differs
        weights = NeuronGene((1e16, -1e16, 1.0, 1.0), (1.0,))
        pre = ((1.0 + 1e16) + -1e16) + 1.0
        assert pre == 1.0
        assert net_forward([weights], (1.0, 1.0, 1.0), 1) == [0.0 + 1.0 * math.tanh(pre)]
        # neurons add into an output in wiring order; tanh(20.0) is exactly 1.0
        targets = [NeuronGene((5.0, 5.0, 5.0, 5.0), (w,)) for w in (1.0, 1e16, -1e16)]
        assert math.tanh(20.0) == 1.0
        assert net_forward(targets, (1.0, 1.0, 1.0), 1) == [((0.0 + 1.0) + 1e16) + -1e16] == [0.0]

    @settings(max_examples=300, deadline=None)
    @given(case=forward_cases())
    def test_kernels_equal_the_plain_loops(self, case):
        wiring, obs, output_dim = case
        assert bits(net_forward(wiring, obs, output_dim)) == bits(loop_forward(wiring, obs, output_dim))

    @pytest.mark.parametrize("n_in, output_dim", [(0, 0), (0, 3), (2, 0), (4, 4), (16, 1), (WIDE, WIDE)])
    def test_every_shape_gets_a_kernel(self, n_in, output_dim):
        kernel = _forward_kernel(n_in, output_dim)
        assert kernel.__code__.co_filename == f"<forward {n_in}x{output_dim}>"
        gene = NeuronGene((0.5,) * (n_in + 1), tuple(2.0 + k for k in range(output_dim)))
        assert net_forward([gene], (1.0,) * n_in, output_dim) == loop_forward([gene], (1.0,) * n_in, output_dim)

    @pytest.mark.parametrize("gene", [
        NeuronGene((0.5,), (1.0,)),
        NeuronGene((0.5, 0.5, 0.5), (1.0,)),
        NeuronGene((0.5, 0.5), ()),
        NeuronGene((0.5, 0.5), (1.0, 1.0)),
    ], ids=["few weights", "many weights", "few outputs", "many outputs"])
    def test_a_neuron_of_another_shape_is_a_caller_error(self, gene):
        with pytest.raises(ValueError):
            net_forward([gene], (1.0,), 1)

    def test_outputs_accumulate_across_neurons(self):
        # pre is 20.0 and -20.0, where tanh is exactly 1.0 and -1.0
        genes = [NeuronGene((0.0, 20.0), (1.0,)), NeuronGene((0.0, -20.0), (-1.0,))]
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
        with pytest.raises(SosageError, match=exactly(f"structure {s} payload is not a neuron genome")):
            flatten_to_genes(universe, [s])


def per_weight_crossover(a, b, rng):
    """One coin per weight from a numpy Generator: the oracle for
    crossover_genomes' children and for where it leaves the stream."""
    in_weights = tuple(aw if rng.random() < 0.5 else bw for aw, bw in zip(a.in_weights, b.in_weights))
    out_weights = tuple(aw if rng.random() < 0.5 else bw for aw, bw in zip(a.out_weights, b.out_weights))
    return NeuronGene(in_weights, out_weights)


class TestCrossoverMatchesThePerWeightOracle:
    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2 ** 32 - 1), input_dim=st.integers(0, 6), output_dim=st.integers(1, 4))
    def test_children_and_later_draws_are_equal(self, seed, input_dim, output_dim):
        genes = stream(seed)
        a = fresh_gene(genes, input_dim, output_dim)
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
        universe = Universe()
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
        with pytest.raises(SosageError, match=exactly("roster of 2 cannot fill networks of size 3")):
            assemble(universe, pop, config, rng)


class TestEvaluate:
    def wire(self, universe, genes):
        ids = [universe.add_primitive(g) for g in genes]
        return Assembly(tuple(ids), flatten_to_genes(universe, ids))

    def test_hand_solver_scores_perfect_xor(self, universe):
        assembly = self.wire(universe, xor_solver_genes())
        env = XorEnv()
        assert env.eval_episodes == 4
        # one point per episode: all four ran and won
        outcome = evaluate(assembly, env)
        assert (outcome.fitness, outcome.solved) == (4.0, True)
        assert outcome.episodes == ((1.0, True),) * 4

    def test_constant_net_scores_half(self, universe):
        assembly = self.wire(universe, (constant_one_gene(),))
        outcome = evaluate(assembly, XorEnv())
        assert (outcome.fitness, outcome.solved) == (2.0, False)
        assert outcome.episodes == ((0.0, False), (1.0, True), (1.0, True), (0.0, False))

    def test_fitness_sums_over_episode_batch(self, universe):
        assembly = self.wire(universe, (constant_one_gene(),))
        env = XorEnv()
        env.eval_episodes = 8
        outcome = evaluate(assembly, env)
        assert (outcome.fitness, outcome.solved, len(outcome.episodes)) == (4.0, False, 8)

    def test_input_width_mismatch_rejected(self, universe):
        assembly = self.wire(universe, xor_solver_genes())
        with pytest.raises(SosageError, match=exactly("genome has 3 input weights, want 5")):
            evaluate(assembly, GridNavEnv())

    @pytest.mark.parametrize("n_in, fault", [
        (4, "has 4 input weights, want 5"),
        (6, "has 6 input weights, want 5"),
    ], ids=["missing", "extra"])
    def test_a_wrong_input_count_is_rejected(self, universe, rng, n_in, fault):
        env = GridNavEnv()
        good = random_genome(env.input_dim, env.output_dim, rng)
        bad = dataclasses.replace(good, in_weights=(0.5,) * n_in)
        assert genome_shape_fault(good, env.input_dim, env.output_dim) is None
        assert genome_shape_fault(bad, env.input_dim, env.output_dim) == fault
        with pytest.raises(SosageError, match=exactly(f"genome {fault}")):
            evaluate(self.wire(universe, (good, bad)), env)

    @pytest.mark.parametrize("n_out, fault", [
        (3, "has 3 output weights, want 4"),
        (5, "has 5 output weights, want 4"),
    ], ids=["missing", "extra"])
    def test_a_wrong_output_count_is_rejected(self, universe, rng, n_out, fault):
        env = GridNavEnv()
        good = random_genome(env.input_dim, env.output_dim, rng)
        bad = dataclasses.replace(good, out_weights=(0.5,) * n_out)
        assert genome_shape_fault(good, env.input_dim, env.output_dim) is None
        assert genome_shape_fault(bad, env.input_dim, env.output_dim) == fault
        with pytest.raises(SosageError, match=exactly(f"genome {fault}")):
            evaluate(self.wire(universe, (good, bad)), env)

    @PROPERTY_SETTINGS
    @given(name=st.sampled_from(["xor", "gridnav_comp"]), data=st.data())
    def test_an_outcome_is_its_rollouts(self, name, data):
        config = load_config(CONFIG_DIR / f"{name}.json")
        env = make_env(config.env.name, config.env.params)
        weights = st.floats(-5.0, 5.0, allow_nan=False)
        genes = [
            NeuronGene(
                tuple(data.draw(st.lists(weights, min_size=env.input_dim + 1, max_size=env.input_dim + 1))),
                tuple(data.draw(st.lists(weights, min_size=env.output_dim, max_size=env.output_dim))),
            )
            for _ in range(data.draw(st.integers(1, 6), label="neurons"))
        ]
        if name == "xor" and data.draw(st.booleans(), label="the exact solver"):
            genes = xor_solver_genes()  # so the solved side is drawn too
        assembly = self.wire(Universe(), genes)
        outcome = evaluate(assembly, env)
        event(f"{name} solved: {outcome.solved}")

        def policy(obs):
            return env.select_action(net_forward(assembly.wiring, obs, env.output_dim))

        direct = tuple(env.rollout(e, policy) for e in range(env.eval_episodes))
        assert outcome.episodes == direct
        assert outcome.fitness.hex() == fold(r for r, _ in direct).hex()
        assert outcome.solved is all(succeeded for _, succeeded in direct)
        env.eval_episodes = 0
        empty = evaluate(assembly, env)
        assert (empty.fitness, empty.solved, empty.episodes) == (0.0, False, ())
        assert math.copysign(1.0, empty.fitness) == 1.0

    def test_an_outcome_stores_only_its_episodes(self, universe):
        outcome = evaluate(self.wire(universe, xor_solver_genes()), XorEnv())
        assert [f.name for f in dataclasses.fields(Outcome)] == ["episodes"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            outcome.episodes = ()

    def test_an_assembly_is_its_participants_and_wiring(self, universe):
        assembly = self.wire(universe, xor_solver_genes())
        assert [f.name for f in dataclasses.fields(Assembly)] == ["participants", "wiring"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            assembly.participants = ()

    def test_distribute_credits_each_pair_and_makes_no_cell(self):
        outcomes = [((1, 2), 1.0), ((1,), 0.25), ((2, 3), -0.5)]
        ledger = FitnessLedger()
        distribute_fitness(ledger, outcomes, 3)
        assert ledger.per_member == {1: [1.0, 0.25], 2: [1.0, -0.5], 3: [-0.5]}
        assert ledger.cooccur == {}


class TestLedger:
    def test_score_is_top_m_mean(self):
        ledger = FitnessLedger()
        assert ledger.score(1, top_m=3) is None
        for f in (1.0, 5.0, 3.0, 2.0, 4.0):
            ledger.credit(1, f, top_m=3)
        assert ledger.score(1, top_m=3) == pytest.approx((5.0 + 4.0 + 3.0) / 3)
        # one ledger scores under whichever top_m the caller reads from its config
        assert ledger.score(1, top_m=2) == pytest.approx((5.0 + 4.0) / 2)

    def test_score_with_fewer_samples_than_top_m(self):
        ledger = FitnessLedger()
        ledger.credit(1, 2.0, top_m=5)
        assert ledger.score(1, top_m=5) == 2.0

    def test_ring_keeps_newest_samples(self):
        ledger = FitnessLedger()
        cap = SAMPLE_RING_FACTOR * 2
        for f in range(cap + 2):
            ledger.credit(1, float(f), top_m=2)
        assert ledger.per_member[1] == [float(v) for v in range(2, cap + 2)]
        assert ledger.score(1, top_m=2) == pytest.approx((cap + 1 + cap) / 2)

    @pytest.mark.parametrize(
        "generations",
        [[[({1, 2}, 1.0)], [({1}, 0.25)]], [[((1, 2), 1.0), ((1,), 0.25)]]],
        ids=["two-generations", "one-generation"],
    )
    def test_cooccurrence_cells_split_by_partner_presence(self, generations):
        ledger = FitnessLedger()
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
        ledger = FitnessLedger()
        ledger.tally_cooccurrence([((1, 2), 1e16), ((1, 3), 1.0)], (1, 2, 3))
        assert ledger.cooccur[(1, 2)] == CooccurCell(1, 1e16, 1, 1.0)
        assert ledger.cooccur[(2, 3)] == CooccurCell(0, 0.0, 1, 1e16)
        # 1e16 + 1.0 + 1.0 rounds each step back to 1e16; 1e16 + 2.0 would not
        ledger.tally_cooccurrence([((2, 9), 1.0), ((2,), 1.0)], (1, 2, 3))
        assert ledger.cooccur[(2, 3)] == CooccurCell(0, 0.0, 3, 1e16)
        assert ledger.cooccur[(2, 1)] == CooccurCell(1, 1e16, 2, 2.0)
        assert (3, 2) in ledger.cooccur and (9, 2) not in ledger.cooccur and (2, 9) not in ledger.cooccur

    def test_ranked_orders_by_score_then_id_and_scores_each_member_once(self, monkeypatch):
        ledger = FitnessLedger()
        for member, fitness in ((5, 1.0), (3, 2.0), (4, 1.0), (9, -1.0)):
            ledger.credit(member, fitness, top_m=2)
        calls = []
        score = ledger.score
        monkeypatch.setattr(ledger, "score", lambda m, top_m: calls.append(m) or score(m, top_m))
        ranking = ledger.ranked([9, 7, 5, 4, 3], top_m=2)
        assert ranking == [(3, 2.0), (4, 1.0), (5, 1.0), (9, -1.0), (7, None)]
        assert sorted(calls) == [3, 4, 5, 7, 9]


class TestDetection:
    def detection_pop(self, n):
        universe = Universe()
        pop = genome_pop(universe, [f"m{k}" for k in range(n)])
        return universe, pop

    def test_gain_threshold_and_sample_floor(self):
        universe, pop = self.detection_pop(3)
        a, b, c = pop.members
        config = EvolutionConfig(dependency_delta=0.5, min_cooccur_samples=2)
        ledger = FitnessLedger()
        cohort = tuple(pop.members)
        for _ in range(2):
            # a with b: fitness 1.0; a without b: 0.2
            ledger.tally_cooccurrence([({a, b}, 1.0), ({a, c}, 0.2)], cohort)
        got = detect_dependency(universe, ledger, pop, config)
        assert (a, b) in got
        assert (a, c) not in got  # gain is negative for c
        # one sample short on the solo side blocks the pair
        thin = FitnessLedger()
        thin.tally_cooccurrence([({a, b}, 1.0), ({a, b}, 1.0), ({a, c}, 0.2)], cohort)
        assert detect_dependency(universe, thin, pop, config) == []

    def test_only_top_stratum_pairs_reported(self):
        universe, pop = self.detection_pop(4)
        a, b, c, d = pop.members
        config = EvolutionConfig(dependency_delta=0.1, min_cooccur_samples=1)
        ledger = FitnessLedger()
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
        ledger = FitnessLedger()
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
        universe = Universe()
        rng = stream(seed)
        pop = genome_pop(universe, [fresh_gene(rng) for _ in range(n)])
        ledger = FitnessLedger()
        for m, s in zip(pop.members, scores):
            if s is not None:
                ledger.credit(m, s, top_m=3)
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
        message = "no roster member has a fitness score; distribute fitness first"
        with pytest.raises(SosageError, match=exactly(message)):
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
        universe = Universe()
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
            assert universe.dependency_levels(clone, k) == {2}
        # an identity mutation copies each leaf genome unchanged
        leaves = {universe.get(k).payload for k in kids}
        assert leaves == {universe.get(a).payload, universe.get(b).payload}

    def test_evolve_replaces_weak_composite_with_clone_of_strong(self):
        universe = Universe()
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
        ledger = FitnessLedger()
        ledger.credit(z1, 2.0, top_m=3)
        ledger.credit(z2, 0.5, top_m=3)
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
        for level in universe.dependency_levels(original, c):
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
    u = Universe()
    for k in range(n_prim):
        u.add_primitive(NeuronGene(in_weights=(float(k), 0.0), out_weights=(1.0,)), tag=f"p{k}")
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
        assert mine.interaction_edges() == theirs.interaction_edges()
        assert mine.dependency_edges() == theirs.dependency_edges()

    def chain(self, depth):
        """A primitive under `depth` single-constituent composites, each
        depending on the next one down."""
        u = Universe()
        top = u.add_primitive(NeuronGene(in_weights=(0.5, 0.0), out_weights=(1.0,)))
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
            assert u.dependency_levels(node, below) == {1}
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
        ledger, oracle = FitnessLedger(), FitnessLedger()
        for cohort, outcomes in generations:
            ledger.tally_cooccurrence([(tuple(team), f) for team, f in outcomes], cohort)
            for team, f in outcomes:
                per_assembly_tally(oracle, set(team), f, cohort)
            assert ledger.cooccur.keys() == oracle.cooccur.keys()
            assert cell_bits(ledger) == cell_bits(oracle)

    def test_a_whole_roster_generation(self):
        rng = np.random.default_rng(5)
        cohort = [int(m) for m in rng.permutation(24)]
        ledger, oracle = FitnessLedger(), FitnessLedger()
        for _ in range(3):
            teams = [tuple(int(m) for m in rng.choice(24, size=3, replace=False)) for _ in range(30)]
            outcomes = [(team, float(rng.choice(AWKWARD_FITNESS))) for team in teams]
            ledger.tally_cooccurrence(outcomes, cohort)
            for team, f in outcomes:
                per_assembly_tally(oracle, set(team), f, cohort)
        assert len(ledger.cooccur) == 24 * 23
        assert cell_bits(ledger) == cell_bits(oracle)


@st.composite
def kept_tallies(draw):
    """(ledger, outcomes, cohort, keep): a ledger whose existing cells have
    ends drawn from ids 0-11, so some have both in `keep` and some do not,
    and a generation over ids 0-15 with a cohort and a keep set."""
    fitness = st.one_of(st.sampled_from(AWKWARD_FITNESS), st.floats(-1e3, 1e3))
    ids = st.integers(0, 11)
    pairs = st.tuples(ids, ids).filter(lambda pair: pair[0] != pair[1])
    cells = draw(st.dictionaries(pairs, st.tuples(st.integers(0, 5), fitness, st.integers(0, 5), fitness),
                                 max_size=12))
    ledger = FitnessLedger(cooccur={key: CooccurCell(*cell) for key, cell in cells.items()})
    outcomes = draw(st.lists(st.tuples(st.lists(st.integers(0, 15), min_size=1, max_size=4, unique=True), fitness),
                             max_size=10))
    cohort = draw(st.lists(ids, min_size=1, max_size=8, unique=True))
    keep = draw(st.sets(st.integers(0, 15)))
    return ledger, [(tuple(team), f) for team, f in outcomes], cohort, keep


class TestTallyOfTheKeptCohort:
    """The loop tallies a generation that neither solves nor detects after
    compaction, over the cohort members compaction kept."""

    @PROPERTY_SETTINGS
    @given(drawn=kept_tallies())
    def test_it_keeps_the_cells_a_full_tally_keeps(self, drawn):
        ledger, outcomes, cohort, keep = drawn
        kept_cohort = [m for m in cohort if m in keep]
        full, restricted, compacted = (copy.deepcopy(ledger) for _ in range(3))
        full.tally_cooccurrence(outcomes, cohort)
        full.retain(keep)
        restricted.tally_cooccurrence(outcomes, kept_cohort)
        made = restricted.cooccur.keys() - ledger.cooccur.keys()
        assert all(x in keep and y in keep for x, y in made)
        restricted.retain(keep)
        # the loop's order: compaction, then the kept cohort's tally
        compacted.retain(keep)
        compacted.tally_cooccurrence(outcomes, kept_cohort)
        for other in (restricted, compacted):
            assert list(other.cooccur) == list(full.cooccur)
            assert cell_bits(other) == cell_bits(full)


def stall_rule(window_G, min_improvement):
    return EvolutionConfig(window_G=window_G, min_improvement=min_improvement)


class TestStalled:
    def test_insufficient_history_never_stalls(self):
        assert not stalled([1.0, 1.0], stall_rule(3, 0.1))
        assert not stalled([], stall_rule(1, 0.1))

    def test_flat_window_stalls(self):
        assert stalled([1.0, 1.0, 1.0], stall_rule(3, 0.1))

    def test_improving_window_does_not_stall(self):
        assert not stalled([1.0, 1.2, 1.4], stall_rule(3, 0.1))

    def test_stalled_reads_its_history_alone(self):
        rule = stall_rule(4, 0.5)
        assert stalled([1.0, 1.1, 1.2, 1.3], rule)  # 0.3 < 0.5
        assert not stalled([0.0, 0.2, 0.4, 1.0], rule)

    @PROPERTY_SETTINGS
    @given(
        series=st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=20),
        window=st.integers(1, 8),
    )
    def test_stalled_matches_window_difference(self, series, window):
        expected = len(series) >= window and (series[-1] - series[-window]) < 0.01
        assert stalled(series, stall_rule(window, 0.01)) == expected


def loop_config(problem_order_x: int, evolution: dict, **settings) -> RunConfig:
    """An xor run config of base solver order 1 and max_order 8."""
    problem = ProblemSpec(problem_order_x=problem_order_x, base_solver_order_r=1)
    return RunConfig(problem=problem, env=EnvSpec("xor", {}), evolution=EvolutionConfig(**evolution),
                     max_order=8, **settings)


class TestMaybeReverse:
    """The reverse safeguard on a hand-built roster: with an empty ledger
    every member is unscored, so the break composite, the highest id, ranks
    last, in the bottom quartile."""

    def broken_state(self):
        universe = Universe()
        pop = genome_pop(universe, [f"m{k}" for k in range(5)])
        apply_break(universe, pop, pop.members[0], pop.members[1], generation=0)
        return LoopState(universe=universe, pop=pop, ledger=FitnessLedger(), stall_history=[1.0])

    @staticmethod
    def config(limit):
        return loop_config(1, dict(window_G=3), roster_size=4, population_limit=limit)

    @pytest.mark.parametrize("stale", ["dependent", "plain member"])
    def test_a_counter_off_a_standing_break_composite_is_dropped(self, stale):
        state = self.broken_state()
        event = state.pop.break_log[0]
        other = event.dependent if stale == "dependent" else state.pop.members[1]
        state.reverse_counters.update({event.composite: 1, other: 2})
        _maybe_reverse(state, self.config(10), generation=1)
        assert state.reverse_counters == {event.composite: 2}

    def test_a_reverse_the_limit_blocks_waits_for_room(self):
        state = self.broken_state()
        event = state.pop.break_log[0]
        # with the dependee gone too, a reverse restores two members for one
        state.pop.members.remove(event.dependee)
        state.reverse_counters[event.composite] = 2
        _maybe_reverse(state, self.config(4), generation=1)
        assert state.reverse_counters == {event.composite: 3}  # due, but the roster would pass 4
        assert (event.reversed_at, len(state.pop.members), state.stall_history) == (None, 4, [1.0])
        _maybe_reverse(state, self.config(5), generation=2)
        assert (event.reversed_at, len(state.pop.members), state.stall_history) == (2, 5, [])
        assert state.reverse_counters == {}

    def test_a_counter_on_a_composite_above_the_bottom_quartile_is_dropped(self):
        state = self.broken_state()
        event = state.pop.break_log[0]
        state.ledger.credit(event.composite, 1.0, top_m=5)  # the one scored member ranks first
        state.reverse_counters[event.composite] = 2
        _maybe_reverse(state, self.config(10), generation=1)
        assert (state.reverse_counters, event.reversed_at, state.stall_history) == ({}, None, [1.0])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_the_counters_follow_the_incremental_rule(self, data):
        state, config = data.draw(reverse_cases())
        expected = copy.deepcopy(state)
        incremental_reverse(expected, config, generation=5)
        before = dict(state.reverse_counters)
        _maybe_reverse(state, config, generation=5)
        assert state.reverse_counters == expected.reverse_counters
        assert [e.reversed_at for e in state.pop.break_log] == [e.reversed_at for e in expected.pop.break_log]
        assert state.stall_history == expected.stall_history
        assert (state.pop.members, state.pop.pop_order_n) == (expected.pop.members, expected.pop.pop_order_n)
        standing = {e.composite for e in state.pop.break_log if e.reversed_at is None} & set(state.pop.members)
        event(f"counters reset: {any(c in standing and c not in state.reverse_counters for c in before)}")
        event(f"stale counters: {any(c not in standing for c in before)}")
        event(f"reversed: {state.stall_history == []}")


def incremental_reverse(state, config, generation):
    """The reverse safeguard as it was written before its counters were
    rebuilt by one rule: the stale keys swept, then each standing composite
    in the roster counted up in the bottom quartile and its counter dropped
    above it, one member at a time."""
    universe, pop, ledger = state.universe, state.pop, state.ledger
    live = {e.composite for e in pop.break_log if e.reversed_at is None}
    counters = state.reverse_counters
    in_roster = set(pop.members)
    for stale in [c for c in counters if c not in in_roster or c not in live]:
        del counters[stale]
    if live.isdisjoint(in_roster):
        return
    threshold = -(-3 * len(pop.members) // 4)
    for rank, (m, _) in enumerate(ledger.ranked(pop.members, config.evolution.top_m)):
        if m not in live:
            continue
        if rank >= threshold:
            counters[m] = counters.get(m, 0) + 1
        else:
            counters.pop(m, None)
    due = sorted(c for c, n in counters.items() if n >= config.evolution.window_G)
    for composite in due:
        try:
            apply_reverse_break(universe, pop, composite, generation, config.population_limit)
        except LimitExceeded:
            continue
        del counters[composite]
        state.stall_history.clear()
        break


@st.composite
def reverse_cases(draw):
    """A hand-built roster of primitives and break composites, some of whose
    events are reversed, with a random ledger (few distinct fitnesses, so
    ties occur), counters on roster members, on composites outside the
    roster, on reversed events and on an unknown id, and a roster limit that
    may block a reverse."""
    universe = Universe()
    primitives = [universe.add_primitive(f"m{k}", tag=f"g{k}") for k in range(draw(st.integers(2, 8)))]
    pairs = st.lists(st.sampled_from(primitives), min_size=2, max_size=2, unique=True)
    log = []
    for k, (x, y) in enumerate(draw(st.lists(pairs, max_size=4))):
        composite = universe.construct({x, y}, tag=f"break-g{k}")
        log.append(BreakEvent(k, x, y, composite, reversed_at=draw(st.sampled_from([None, None, k]))))
    ids = primitives + [e.composite for e in log]
    members = draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
    pop = Population(members=members, base_order_r=1, pop_order_n=max(universe.structural_order(m) for m in members),
                     break_log=log)
    top_m = draw(st.integers(1, 3))
    ledger = FitnessLedger()
    for m in draw(st.lists(st.sampled_from(ids), max_size=12)):
        ledger.credit(m, draw(st.sampled_from([0.0, 0.5, 1.0])), top_m)
    counters = draw(st.dictionaries(st.sampled_from(ids + [10**6]), st.integers(1, 4), max_size=5))
    state = LoopState(universe=universe, pop=pop, ledger=ledger, stall_history=[1.0, 2.0], reverse_counters=counters)
    limit = draw(st.integers(len(members), len(members) + 2))
    config = loop_config(1, dict(window_G=draw(st.integers(1, 3)), top_m=top_m), roster_size=1, population_limit=limit)
    return state, config


class TestLoop:
    def solver_state(self, config):
        universe = Universe()
        pop = init_population(universe, config.problem, list(xor_solver_genes()), config.population_limit)
        return LoopState(universe=universe, pop=pop, ledger=FitnessLedger())

    def test_zero_budget_returns_empty_outcome(self):
        config = loop_config(1, dict(max_generations=0, network_size=3, assemblies_per_generation=2),
                             seed=0, roster_size=3, population_limit=8)
        state = self.solver_state(config)
        rows = []
        next_generation = run_symbiosis(XorEnv(), config, state, on_row=rows.append)
        assert (state.solved_at, rows, next_generation) == (None, [], 0)

    def test_planted_solver_finishes_at_generation_zero(self):
        config = loop_config(1, dict(max_generations=5, network_size=3, assemblies_per_generation=2),
                             seed=0, roster_size=3, population_limit=8)
        state = self.solver_state(config)
        rows = []
        next_generation = run_symbiosis(XorEnv(), config, state, on_row=rows.append)
        assert (state.solved_at, next_generation) == (0, 1)
        assert len(rows) == 1
        assert rows[0].best_fitness == 4.0

    def test_unsolved_run_fills_the_budget(self):
        config = loop_config(2, dict(max_generations=4, network_size=2, assemblies_per_generation=3),
                             seed=5, roster_size=4, population_limit=8, breaks_enabled=False)
        state = new_loop_state(XorEnv(), config)
        rows = []
        next_generation = run_symbiosis(XorEnv(), config, state, on_row=rows.append)
        assert state.solved_at is None
        assert [r.generation for r in rows] == [0, 1, 2, 3]
        assert all(r.breaks_so_far == 0 for r in rows)
        assert all(r.roster_size == 4 and r.pop_order == 1 for r in rows)
        assert (next_generation, state.pop.pop_order_n) == (4, 1)

    def test_rows_are_reproducible(self):
        config = loop_config(2, dict(max_generations=6, network_size=2, assemblies_per_generation=4),
                             seed=12, roster_size=5, population_limit=10)
        runs = []
        for _ in range(2):
            state = new_loop_state(XorEnv(), config)
            rows = []
            run_symbiosis(XorEnv(), config, state, on_row=rows.append)
            runs.append(rows)
        assert runs[0] == runs[1]

    def test_checkpoint_hook_fires_on_schedule(self):
        config = loop_config(2, dict(max_generations=5, network_size=2, assemblies_per_generation=3),
                             seed=3, roster_size=4, population_limit=8, checkpoint_every=2)
        state = new_loop_state(XorEnv(), config)
        seen = []
        run_symbiosis(XorEnv(), config, state, on_checkpoint=lambda g, s: seen.append(g))
        assert seen == [2, 4]

    def test_run_switches_reach_the_loop_from_the_config(self):
        base = with_seed(load_config(CONFIG_DIR / "xor.json"), 3)
        base = dataclasses.replace(base, evolution=dataclasses.replace(base.evolution, **REVERSING, max_generations=120))

        def break_log(**switches):
            config = dataclasses.replace(base, **switches)
            state = build_state(config)
            run_symbiosis(make_env(config.env.name, config.env.params), config, state)
            return state.pop.break_log

        assert break_log(reverse_enabled=True)[0].reversed_at == 2
        kept = break_log(reverse_enabled=False)
        assert kept and all(e.reversed_at is None for e in kept)
        assert break_log(breaks_enabled=False) == []

    def test_a_generation_that_does_not_detect_makes_only_the_cells_it_keeps(self, monkeypatch):
        made = []

        class CountedCell(CooccurCell):
            def __init__(self, *fields):
                made.append(1)
                super().__init__(*fields)

        monkeypatch.setattr(symbio, "CooccurCell", CountedCell)
        config = dataclasses.replace(with_seed(load_config(CONFIG_DIR / "gridnav_comp.json"), 3),
                                     breaks_enabled=False)
        state = build_state(config)
        generations = run_symbiosis(make_env(config.env.name, config.env.params), config, state)
        assert (generations, state.solved_at) == (150, None)
        assert len(made) <= 2 * generations

    def test_a_solving_generation_keeps_its_whole_cohorts_cells(self, tmp_path, monkeypatch):
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        config = dataclasses.replace(with_seed(load_config(CONFIG_DIR / "xor.json"), 13), output_dir=str(tmp_path))
        final = load_checkpoint(run(config).checkpoint_path).state
        assert (final.solved_at, final.pop.break_log, len(final.pop.members)) == (1, [], 24)
        assert len(final.ledger.cooccur) == 24 * 23

    @pytest.mark.parametrize("name, seed, evolution, shows", [
        ("xor.json", 1, {**REVERSING, "max_generations": 120}, "reverse"),
        ("gridnav_comp.json", 9, {"max_generations": 60}, "drop"),
    ])
    def test_stall_history_is_the_trimmed_running_best_cleared_by_breaks_and_reverses(
            self, name, seed, evolution, shows):
        base = with_seed(load_config(CONFIG_DIR / name), seed)
        config = dataclasses.replace(
            base, evolution=dataclasses.replace(base.evolution, **evolution), checkpoint_every=1
        )
        window = config.evolution.window_G
        state = build_state(config)
        rows, histories = [], []
        next_generation = run_symbiosis(make_env(config.env.name, config.env.params), config, state,
                                        on_row=rows.append,
                                        on_checkpoint=lambda g, s: histories.append(list(s.stall_history)))
        histories.append(list(state.stall_history))
        assert len(histories) == len(rows) == next_generation

        log = state.pop.break_log
        clears = {e.generation for e in log} | {e.reversed_at for e in log if e.reversed_at is not None}
        # each run shows the part of the rule its name says: a reverse, or a
        # generation whose best falls below the running best it extends
        reversed_ = any(e.reversed_at is not None for e in log)
        dropped = any(h and row.best_fitness < h[-1] for row, h in zip(rows[1:], histories))
        assert {"reverse": reversed_, "drop": dropped}[shows]
        history, expected = [], []
        for row in rows:
            history = (history + [max(row.best_fitness, history[-1]) if history else row.best_fitness])[-window:]
            if row.generation in clears:
                history = []
            expected.append(history)
        assert histories == expected
        # the window was full when a clear came, and a cleared history does not stall
        assert any(len(histories[g - 1]) == window and histories[g] == [] for g in clears)
        assert all(not stalled(histories[g], config.evolution) for g in clears)

    @pytest.mark.parametrize("name, seed, generations", [
        ("xor.json", 7, 46), ("gridnav_comp.json", 9, 150), ("xor.json", 13, 2),
    ])
    def test_a_row_reports_the_finished_generation(self, name, seed, generations):
        """Each row sees the state the next checkpoint saves: the periodic one
        of the next generation, or the final one."""
        config = dataclasses.replace(with_seed(load_config(CONFIG_DIR / name), seed), checkpoint_every=1)
        state = build_state(config)

        def digest(generation, now):
            doc = checkpoint_to_json_dict(Checkpoint(config=config, generation=generation, state=now))
            return hashlib.sha256(json.dumps(doc).encode()).hexdigest()

        at_rows, saved = [], []
        next_generation = run_symbiosis(make_env(config.env.name, config.env.params), config, state,
                                        on_row=lambda row: at_rows.append(digest(row.generation + 1, state)),
                                        on_checkpoint=lambda g, now: saved.append(digest(g, now)))
        saved.append(digest(next_generation, state))
        assert len(at_rows) == next_generation == generations
        assert [g for g, (a, b) in enumerate(zip(at_rows, saved)) if a != b] == []

    @pytest.mark.parametrize("r", [1, 2])
    def test_interacts_agrees_with_the_edge_list_at_every_generation(self, r):
        base = with_seed(load_config(CONFIG_DIR / "xor.json"), 1)
        config = dataclasses.replace(
            base,
            problem=ProblemSpec(problem_order_x=r, base_solver_order_r=r),
            evolution=dataclasses.replace(base.evolution, **REVERSING, max_generations=40),
            checkpoint_every=1,
        )
        state = build_state(config)
        edges = []

        def check(generation, now):
            assert interacts_disagreements(now.universe) == [], generation
            edges.append(len(now.universe.interaction_edges()))

        next_generation = run_symbiosis(make_env(config.env.name, config.env.params), config, state,
                                        on_checkpoint=check)
        check(next_generation, state)
        assert len(edges) == next_generation and max(edges) > 0
