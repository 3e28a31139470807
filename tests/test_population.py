"""Roster lifecycle: init, breaking and its reverse."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosage.errors import LimitExceeded, SosageError
from sosage.hyperstruct import Universe
from sosage.population import (
    ProblemSpec,
    apply_break,
    apply_reverse_break,
    can_break,
    goal_reached,
    init_population,
)

from support import exactly

PROPERTY_SETTINGS = settings(max_examples=120, deadline=None)


def make_pop(universe, n=4, limit=8, r=1):
    problem = ProblemSpec(problem_order_x=1, base_solver_order_r=r)
    return init_population(universe, problem, [f"g{k}" for k in range(n)], limit)


class TestInitPopulation:
    def test_members_wrapped_to_base_order(self, universe):
        pop = make_pop(universe, n=3, r=2)
        assert all(universe.structural_order(m) == 2 for m in pop.members)
        assert pop.top_order == 2

    def test_plain_base_order_one(self, universe):
        pop = make_pop(universe, n=3, r=1)
        assert all(universe.structural_order(m) == 1 for m in pop.members)
        assert pop.pop_order_n == 1

    def test_a_fresh_roster_has_no_interaction_edge(self, universe):
        make_pop(universe, n=4)
        assert universe.interaction_edges() == []

    def test_empty_genomes_rejected(self, universe):
        with pytest.raises(SosageError, match=exactly("at least one genome is required")):
            init_population(universe, ProblemSpec(), [], 8)

    def test_limit_enforced(self, universe):
        with pytest.raises(LimitExceeded):
            init_population(universe, ProblemSpec(), ["a", "b", "c"], 2)


class TestGoal:
    def test_requires_solved_flag_and_order(self, universe):
        pop = make_pop(universe)
        problem = ProblemSpec(problem_order_x=2, base_solver_order_r=1)
        assert not goal_reached(problem, pop, True)  # order short
        pop.pop_order_n = 2
        assert goal_reached(problem, pop, True)
        assert not goal_reached(problem, pop, False)


class TestCanBreak:
    def test_selects_top_stratum_pair(self, universe):
        pop = make_pop(universe)
        a, b = pop.members[0], pop.members[1]
        assert can_break(pop, [(a, b)], 8, 8) == (a, b)

    def test_full_roster_blocks(self, universe):
        pop = make_pop(universe, n=4, limit=4)
        a, b = pop.members[0], pop.members[1]
        assert can_break(pop, [(a, b)], 4, 8) is None
        # the roster is full against the limit passed in, not one kept in the population
        assert can_break(pop, [(a, b)], 5, 8) == (a, b)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_order_cap_enforced(self, universe, r):
        pop = make_pop(universe, r=r)
        a, b = pop.members[0], pop.members[1]
        # a break builds order top + 1: refused above the cap passed in, allowed at it
        assert can_break(pop, [(a, b)], 8, r) is None
        assert can_break(pop, [(a, b)], 8, r + 1) == (a, b)

    def test_ties_break_on_lowest_pair(self, universe):
        pop = make_pop(universe)
        a, b, c = pop.members[:3]
        got = can_break(pop, [(b, c), (a, c), (a, b)], 8, 8)
        assert got == (a, b)


class TestApplyBreak:
    def test_composite_one_order_up_with_both_edges(self, universe):
        pop = make_pop(universe)
        a, b = pop.members[0], pop.members[1]
        before = list(pop.members)
        apply_break(universe, pop, a, b, generation=5)
        z = pop.members[-1]
        assert universe.structural_order(z) == 2
        assert universe.get(z).constituents == {a, b}
        assert universe.dependency_levels(z, a) == {2}
        assert universe.dependency_levels(z, b) == {2}
        assert a not in pop.members and b in pop.members
        assert len(pop.members) == len(before)

    def test_population_order_rises_by_exactly_one(self, universe):
        pop = make_pop(universe)
        a, b = pop.members[0], pop.members[1]
        apply_break(universe, pop, a, b, generation=0)
        assert pop.pop_order_n == 2
        z = pop.members[-1]
        c = pop.members[0]
        # no second break from mismatched strata
        with pytest.raises(SosageError, match=exactly(f"apply_break({c}, {z}) without a qualifying pair at order 2")):
            apply_break(universe, pop, c, z, generation=1)

    def test_event_logged_with_its_pair_and_composite(self, universe):
        pop = make_pop(universe)
        a, b = pop.members[0], pop.members[1]
        apply_break(universe, pop, a, b, generation=7)
        ev = pop.break_log[-1]
        assert (ev.generation, ev.dependent, ev.dependee, ev.composite) == (7, a, b, pop.members[-1])
        # the level is no field of the event: the composite's order gives it
        assert universe.structural_order(ev.composite) == pop.base_order_r + 1
        assert ev.reversed_at is None

    def test_non_roster_pair_rejected(self, universe):
        pop = make_pop(universe)
        a = pop.members[0]
        ghost = universe.add_primitive("ghost")
        with pytest.raises(SosageError, match=exactly(f"apply_break({a}, {ghost}) without a qualifying pair at order 1")):
            apply_break(universe, pop, a, ghost, generation=0)

    def test_self_pair_rejected_and_nothing_changes(self, universe):
        pop = make_pop(universe)
        a = pop.members[0]
        before = (copy.deepcopy(universe), copy.deepcopy(pop))
        with pytest.raises(SosageError, match=exactly(f"apply_break({a}, {a}) without a qualifying pair at order 1")):
            apply_break(universe, pop, a, a, generation=0)
        assert (universe, pop) == before

    def test_lower_stratum_pair_rejected(self, universe):
        pop = make_pop(universe)
        a, b, c, d = pop.members
        apply_break(universe, pop, a, b, generation=0)
        with pytest.raises(SosageError, match=exactly(f"apply_break({c}, {d}) without a qualifying pair at order 2")):
            apply_break(universe, pop, c, d, generation=1)


class TestReverseBreak:
    def test_reverse_restores_prior_roster(self, universe):
        pop = make_pop(universe)
        a, b = pop.members[0], pop.members[1]
        before_members = set(pop.members)
        before_order = pop.pop_order_n
        apply_break(universe, pop, a, b, generation=1)
        z = pop.members[-1]
        apply_reverse_break(universe, pop, z, generation=3, limit=8)
        assert set(pop.members) == before_members
        assert pop.pop_order_n == before_order
        assert pop.break_log[-1].reversed_at == 3

    def test_restoration_deduplicates_against_roster(self, universe):
        pop = make_pop(universe)
        a, b = pop.members[0], pop.members[1]
        apply_break(universe, pop, a, b, generation=0)
        z = pop.members[-1]
        # b stayed on the roster; only a comes back
        apply_reverse_break(universe, pop, z, generation=1, limit=8)
        assert pop.members.count(b) == 1
        assert pop.members.count(a) == 1

    def test_double_reverse_rejected(self, universe):
        pop = make_pop(universe)
        a, b = pop.members[0], pop.members[1]
        apply_break(universe, pop, a, b, generation=0)
        z = pop.members[-1]
        apply_reverse_break(universe, pop, z, generation=1, limit=8)
        with pytest.raises(SosageError, match=exactly(f"structure {z} is not an active break composite")):
            apply_reverse_break(universe, pop, z, generation=2, limit=8)

    def test_reverse_of_unlogged_structure_rejected(self, universe):
        pop = make_pop(universe)
        m = pop.members[0]
        with pytest.raises(SosageError, match=exactly(f"structure {m} is not an active break composite")):
            apply_reverse_break(universe, pop, m, generation=0, limit=8)

    def test_reverse_blocked_when_limit_would_overflow(self, universe):
        pop = make_pop(universe, n=4, limit=5)
        a, b = pop.members[0], pop.members[1]
        apply_break(universe, pop, a, b, generation=0)
        z = pop.members[-1]
        # generational turnover drops the dependee, fillers reach the limit:
        # dissolving z would then restore two constituents for one slot freed
        pop.members.remove(b)
        pop.members.append(universe.add_primitive("filler"))
        pop.members.append(universe.add_primitive("filler2"))
        assert len(pop.members) == 5
        with pytest.raises(LimitExceeded):
            apply_reverse_break(universe, pop, z, generation=1, limit=5)
        assert pop.break_log[-1].reversed_at is None
        assert z in pop.members
        # the same roster dissolves z under a limit one higher
        apply_reverse_break(universe, pop, z, generation=1, limit=6)
        assert len(pop.members) == 6 and z not in pop.members

    def test_already_reversed_before_roster_check(self, universe):
        pop = make_pop(universe)
        a, b = pop.members[0], pop.members[1]
        apply_break(universe, pop, a, b, generation=0)
        z = pop.members[-1]
        apply_reverse_break(universe, pop, z, generation=1, limit=8)
        pop.members.append(z)  # simulate corruption: composite back on roster
        with pytest.raises(SosageError, match=exactly(f"composite {z} was reversed at generation 1")):
            apply_reverse_break(universe, pop, z, generation=2, limit=8)


class TestScriptedSequences:
    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1))
    def test_break_reverse_scripts_hold_the_laws(self, seed):
        rng = np.random.default_rng(seed)
        u = Universe()
        pop = make_pop(u, n=6, limit=12)
        orders = [pop.pop_order_n]
        for step in range(int(rng.integers(1, 8))):
            live = [e for e in pop.break_log if e.reversed_at is None]
            do_reverse = live and rng.random() < 0.4
            if do_reverse:
                ev = live[int(rng.integers(len(live)))]
                apply_reverse_break(u, pop, ev.composite, generation=step, limit=12)
            else:
                top = pop.top_order
                stratum = [m for m in pop.members if u.structural_order(m) == top]
                if len(stratum) < 2 or len(pop.members) == 12:
                    continue
                picks = rng.choice(len(stratum), size=2, replace=False)
                x, y = stratum[int(picks[0])], stratum[int(picks[1])]
                prev = pop.pop_order_n
                apply_break(u, pop, x, y, generation=step)
                assert pop.pop_order_n == prev + 1
            assert len(pop.members) <= 12
            assert pop.top_order == max(u.structural_order(m) for m in pop.members)
            orders.append(pop.pop_order_n)
        for ev in pop.break_log:
            if ev.reversed_at is None:
                assert ev.composite in pop.members
