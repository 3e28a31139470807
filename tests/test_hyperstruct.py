"""Structure algebra: construction orders, relations, emergence, integrity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosage.errors import (
    EmptyConstituents,
    NotComposite,
    OrderCapExceeded,
    OrderGapViolation,
    UnknownStructure,
)
from sosage.hyperstruct import ObsRecord, Universe

from support import (
    build_layered,
    constituent_graph,
    edge_graph,
    emergence_oracle,
    has_cycle,
    interacts_disagreements,
    random_universe,
    reachability_oracle,
    table_observers,
    traversal_order_oracle,
)

PROPERTY_SETTINGS = settings(max_examples=120, deadline=None)


class TestConstruction:
    def test_primitive_has_order_one(self, universe):
        i = universe.add_primitive(payload="p")
        assert universe.structural_order(i) == 1
        assert universe.get(i).constituents == frozenset()

    def test_composite_order_is_one_above_max_constituent(self, universe):
        a = universe.add_primitive("a")
        b = universe.add_primitive("b")
        ab = universe.construct({a, b})
        assert universe.structural_order(ab) == 2
        c = universe.add_primitive("c")
        mixed = universe.construct({ab, c})
        assert universe.structural_order(mixed) == 3

    def test_constituents_may_span_several_orders(self, universe):
        a = universe.add_primitive("a")
        ab = universe.construct({a, universe.add_primitive("b")})
        top = universe.construct({ab, a})
        assert universe.get(top).constituents == {ab, a}
        assert universe.structural_order(top) == 3

    def test_overlapping_membership_is_allowed(self, universe):
        a = universe.add_primitive("a")
        b = universe.add_primitive("b")
        c = universe.add_primitive("c")
        left = universe.construct({a, b})
        right = universe.construct({b, c})
        assert universe.structural_order(left) == universe.structural_order(right) == 2

    def test_empty_constituents_rejected(self, universe):
        with pytest.raises(EmptyConstituents):
            universe.construct(set())

    def test_order_cap_enforced(self):
        u = Universe(max_order=2)
        a = u.add_primitive("a")
        ab = u.construct({a})
        with pytest.raises(OrderCapExceeded):
            u.construct({ab})

    def test_ids_are_sequential_and_never_reused(self, universe):
        ids = [universe.add_primitive(k) for k in range(3)]
        assert ids == [0, 1, 2]
        assert universe.construct(set(ids)) == 3
        universe.retain(set(ids))
        assert universe.add_primitive("new") == 4

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_layered_fixture_reaches_two_plus_r(self, universe, r):
        top = build_layered(universe, r)
        assert universe.structural_order(top) == 2 + r
        assert traversal_order_oracle(universe, top) == 2 + r

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1))
    def test_order_equals_traversal_oracle_everywhere(self, seed):
        u = random_universe(np.random.default_rng(seed))
        for i in u.structures:
            assert u.structural_order(i) == traversal_order_oracle(u, i)


class TestInteraction:
    def test_reflexive_without_storage(self, universe):
        a = universe.add_primitive("a")
        assert universe.interacts(a, a)
        assert universe.interaction_edges() == []

    def test_symmetric_query(self, universe):
        a = universe.add_primitive("a")
        c = universe.add_primitive("c")
        z = universe.construct({a})
        universe.declare_dependency(z, c, level=3)
        assert universe.interacts(z, c)
        assert universe.interacts(c, z)

    def test_edges_stored_normalized_low_id_first(self, universe):
        a = universe.add_primitive("a")
        b = universe.add_primitive("b")
        ab = universe.construct({b})
        universe.declare_dependency(ab, a, level=3)
        assert universe.interaction_edges() == [(a, ab, 3), (b, ab, 2)]

    def test_construct_records_interaction_with_each_constituent(self, universe):
        a = universe.add_primitive("a")
        b = universe.add_primitive("b")
        ab = universe.construct({a, b})
        assert universe.interacts(ab, a)
        assert universe.interacts(ab, b)
        assert not universe.interacts(a, b)
        assert universe.interaction_edges() == [(a, ab, 2), (b, ab, 2)]

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1))
    def test_interacts_agrees_with_the_edge_list(self, seed):
        u = random_universe(np.random.default_rng(seed))
        assert interacts_disagreements(u) == []


class TestDependency:
    def test_direct_edge_requires_order_gap_exactly_one(self, universe):
        a = universe.add_primitive("a")
        b = universe.add_primitive("b")
        ab = universe.construct({a, b})
        top = universe.construct({ab})
        universe.declare_dependency(ab, a, level=1)
        with pytest.raises(OrderGapViolation):
            universe.declare_dependency(a, b, level=1)  # gap 0
        with pytest.raises(OrderGapViolation):
            universe.declare_dependency(top, a, level=1)  # gap 2
        with pytest.raises(OrderGapViolation):
            universe.declare_dependency(a, ab, level=1)  # gap -1

    def test_dependency_implies_interaction(self, universe):
        a = universe.add_primitive("a")
        ab = universe.construct({a})
        universe.declare_dependency(ab, a, level=3)
        assert universe.interacts(ab, a)

    def test_dependency_levels_accumulate(self, universe):
        a = universe.add_primitive("a")
        ab = universe.construct({a})
        universe.declare_dependency(ab, a, level=1)
        universe.declare_dependency(ab, a, level=2)
        assert universe.dependency_levels(ab, a) == {1, 2}
        assert universe.dependency_levels(a, ab) == frozenset()

    def test_depends_on_follows_chains(self, universe):
        a = universe.add_primitive("a")
        ab = universe.construct({a})
        top = universe.construct({ab})
        universe.declare_dependency(top, ab, level=1)
        universe.declare_dependency(ab, a, level=1)
        assert universe.depends_on(top, a)
        assert not universe.depends_on(a, top)

    def test_depends_on_unknown_id_rejected(self, universe):
        a = universe.add_primitive("a")
        with pytest.raises(UnknownStructure):
            universe.depends_on(a, 42)

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1))
    def test_depends_on_equals_reachability_oracle(self, seed):
        u = random_universe(np.random.default_rng(seed))
        closure = reachability_oracle(u)
        ids = sorted(u.structures)
        for a in ids:
            for b in ids:
                assert u.depends_on(a, b) == ((a, b) in closure)

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1))
    def test_every_dependency_edge_implies_interaction_and_gap_one(self, seed):
        u = random_universe(np.random.default_rng(seed))
        for d, e, _level in u.dependency_edges():
            assert u.interacts(d, e)
            assert u.structural_order(d) - u.structural_order(e) == 1


class TestEquality:
    """A universe compares by what it holds, so two loads of one checkpoint
    are equal."""

    @staticmethod
    def build():
        u = Universe()
        a, b = u.add_primitive("a"), u.add_primitive("b")
        ab = u.construct({a, b})
        u.declare_dependency(ab, a, level=2)
        return u, (a, b, ab)

    def test_universes_built_by_the_same_calls_are_equal(self):
        assert Universe() == Universe()
        assert self.build()[0] == self.build()[0]

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_universes_drawn_alike_are_equal(self, seed):
        assert random_universe(np.random.default_rng(seed)) == random_universe(np.random.default_rng(seed))

    @pytest.mark.parametrize(
        "more",
        [
            lambda u, a, b, ab: u.declare_dependency(ab, b, level=2),
            lambda u, a, b, ab: u.declare_dependency(ab, a, level=3),
        ],
        ids=["dependency-edge", "dependency-level"],
    )
    def test_one_more_edge_or_level_makes_them_differ(self, more):
        (u, ids), (same, _) = self.build(), self.build()
        more(u, *ids)
        assert u != same


class TestObservation:
    def test_observe_unions_all_observers_at_level(self, universe):
        a = universe.add_primitive("a")
        universe.observers[1] = [
            lambda s, u: [ObsRecord("p", 1, 1)],
            lambda s, u: [ObsRecord("q", 2, 1)],
        ]
        assert {r.property for r in universe.observe(a, 1)} == {"p", "q"}

    def test_observe_level_routing(self, universe):
        a = universe.add_primitive("a")
        universe.observers[2] = [lambda s, u: [ObsRecord("deep", 0, 2)]]
        assert universe.observe(a, 1) == frozenset()
        assert {r.property for r in universe.observe(a, 2)} == {"deep"}

    def test_observer_emitting_wrong_level_rejected(self, universe):
        a = universe.add_primitive("a")
        universe.observers[1] = [lambda s, u: [ObsRecord("p", 0, 3)]]
        with pytest.raises(ValueError):
            universe.observe(a, 1)

    def test_observation_level_must_be_positive(self, universe):
        a = universe.add_primitive("a")
        with pytest.raises(ValueError):
            universe.observe(a, 0)


class TestEmergence:
    @pytest.mark.parametrize(
        "levels,want",
        [({2}, True), ({2, 3}, True), ({1, 2}, False), ({1}, False), ({3}, False), (set(), False)],
    )
    def test_the_rule_over_levels(self, universe, levels, want):
        a, b, ab = self.build(universe, {(i, level): {"p"} for i in (0, 1, 2) for level in levels})
        assert universe.is_emergent("p", ab) is want

    def build(self, universe, table):
        a = universe.add_primitive("a")
        b = universe.add_primitive("b")
        ab = universe.construct({a, b})
        table_observers(universe, table)
        return a, b, ab

    def test_emergent_when_absent_on_all_constituents_below(self, universe):
        a, b, ab = self.build(universe, {(2, 2): {"whole"}})
        assert universe.is_emergent("whole", ab)

    def test_not_emergent_when_any_constituent_shows_it_below(self, universe):
        a, b, ab = self.build(universe, {(2, 2): {"whole"}, (0, 1): {"whole"}})
        assert not universe.is_emergent("whole", ab)

    def test_not_emergent_when_absent_at_own_level(self, universe):
        a, b, ab = self.build(universe, {(0, 1): {"part"}})
        assert not universe.is_emergent("part", ab)

    def test_order_one_has_no_emergence(self, universe):
        a = universe.add_primitive("a")
        with pytest.raises(NotComposite):
            universe.is_emergent("p", a)

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1))
    def test_agrees_with_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        u = random_universe(rng)
        props = ["alpha", "beta", "gamma"]
        table: dict[tuple[int, int], set[str]] = {}
        for i, s in u.structures.items():
            for level in (s.order, max(1, s.order - 1)):
                chosen = {p for p in props if rng.random() < 0.35}
                if chosen:
                    table.setdefault((i, level), set()).update(chosen)
        table_observers(u, table)
        for i, s in u.structures.items():
            if s.order < 2:
                continue
            for p in props:
                assert u.is_emergent(p, i) == emergence_oracle(u, table, i, p)


class TestIntegrity:
    def test_constructed_universes_are_acyclic(self, universe):
        build_layered(universe, 2)
        assert not has_cycle(constituent_graph(universe))

    def test_hand_corrupted_cycle_detected(self, universe):
        from dataclasses import replace
        a = universe.add_primitive("a")
        ab = universe.construct({a})
        corrupt = replace(universe.get(a), constituents=frozenset({ab}))
        universe.structures[a] = corrupt
        assert has_cycle(constituent_graph(universe))

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_universes_are_acyclic(self, seed):
        u = random_universe(np.random.default_rng(seed))
        assert not has_cycle(constituent_graph(u))
        assert not has_cycle(edge_graph(u.dependency_edges()))
        # orders fall strictly along both relations, which is why they hold no cycle
        assert all(u.structures[c].order < s.order for s in u.structures.values() for c in s.constituents)
        assert all(u.structures[d].order > u.structures[e].order for d, e, _ in u.dependency_edges())

    def test_chains_deeper_than_the_recursion_limit(self):
        universe = Universe(max_order=5001)
        top = universe.add_primitive("leaf")
        for _ in range(5000):
            top = universe.construct({top})
        assert not has_cycle(constituent_graph(universe))
        assert universe.structural_order(top) == 5001
