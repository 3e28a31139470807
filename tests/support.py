"""Shared builders and independent oracles for the test suite.

Oracles here must not lean on the implementations they check: reachability is
recomputed from the raw edge lists, expected orders are recomputed by direct
traversal, and the XOR nets are written out by hand.
"""

from __future__ import annotations

from functools import reduce
from graphlib import CycleError, TopologicalSorter
from operator import add
from typing import Iterable, Mapping

import numpy as np

from sosage.hyperstruct import ObsRecord, Universe
from sosage.symbio import NeuronGene


def fold(values) -> float:
    """Left-to-right float total, the way sosage adds. The builtin sum()
    compensates its rounding from Python 3.12 on, so it is no oracle."""
    return reduce(add, values, 0.0)


def random_universe(rng: np.random.Generator, max_structures: int = 12) -> Universe:
    """A random legal universe: primitives, overlapping composites, extra
    interactions, and dependencies on random order-gap-1 pairs."""
    u = Universe(max_order=8)
    n_total = int(rng.integers(2, max_structures + 1))
    n_prim = int(rng.integers(1, max(2, n_total // 2) + 1))
    for k in range(n_prim):
        u.add_primitive(payload=k, tag=f"p{k}")
    while len(u.structures) < n_total:
        ids = sorted(u.structures)
        size = int(rng.integers(1, min(4, len(ids)) + 1))
        picks = rng.choice(len(ids), size=size, replace=False)
        members = {ids[int(i)] for i in picks}
        if 1 + max(u.structures[m].order for m in members) > u.max_order:
            continue
        u.construct(members, tag=f"c{len(u.structures)}")
    ids = sorted(u.structures)
    for _ in range(int(rng.integers(0, 2 * len(ids)))):
        a, b = (ids[int(i)] for i in rng.choice(len(ids), size=2, replace=False))
        u.declare_interaction(a, b, level=int(rng.integers(1, 4)))
    gap_one = [
        (d, e)
        for d in ids
        for e in ids
        if d != e and u.structures[d].order - u.structures[e].order == 1
    ]
    if gap_one:
        for _ in range(int(rng.integers(0, len(gap_one) + 1))):
            d, e = gap_one[int(rng.integers(len(gap_one)))]
            u.declare_dependency(d, e, level=int(rng.integers(1, 4)))
    return u


def reachability_oracle(universe: Universe) -> set[tuple[int, int]]:
    """Transitive closure of the dependency relation, recomputed from the raw
    edge list by breadth-first search."""
    adjacency: dict[int, set[int]] = {}
    for d, e, _level in universe.graph.dependency_edges():
        adjacency.setdefault(d, set()).add(e)
    closure: set[tuple[int, int]] = set()
    for start in universe.structures:
        frontier = [start]
        seen: set[int] = set()
        while frontier:
            cur = frontier.pop()
            for nxt in adjacency.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        closure.update((start, t) for t in seen)
    return closure


def has_cycle(successors: Mapping[int, Iterable[int]]) -> bool:
    """Whether a directed graph, given as each node's successors, holds a
    cycle (a self-loop included); the stdlib topological sorter decides."""
    try:
        TopologicalSorter(successors).prepare()
    except CycleError:
        return True
    return False


def constituent_graph(universe: Universe) -> dict[int, frozenset[int]]:
    return {i: s.constituents for i, s in universe.structures.items()}


def edge_graph(edges: Iterable[tuple[int, int, int]]) -> dict[int, set[int]]:
    """Each node's successors over level-tagged (from, to, level) edges."""
    graph: dict[int, set[int]] = {}
    for a, b, _level in edges:
        graph.setdefault(a, set()).add(b)
    return graph


def traversal_order_oracle(universe: Universe, structure_id: int) -> int:
    """Structure order recomputed by independent recursive traversal."""
    s = universe.structures[structure_id]
    if not s.constituents:
        return 1
    return 1 + max(traversal_order_oracle(universe, c) for c in s.constituents)


def build_layered(universe: Universe, r: int) -> int:
    """Two aggregation layers over base-order-r solvers; the top comes out at
    order 2 + r. Returns the top structure id."""
    solvers = []
    for k in range(4):
        i = universe.add_primitive(payload=f"s{k}", tag=f"solver{k}")
        for _ in range(r - 1):
            i = universe.construct({i}, tag=f"solver{k}-wrap")
        solvers.append(i)
    mid_a = universe.construct(set(solvers[:2]), tag="mid-a")
    mid_b = universe.construct(set(solvers[2:]), tag="mid-b")
    return universe.construct({mid_a, mid_b}, tag="top")


def table_observers(universe: Universe, table: dict[tuple[int, int], set[str]]) -> None:
    """Register observers that report exactly the properties listed in
    `table[(structure_id, level)]`."""
    levels = {level for (_sid, level) in table}
    for level in levels:
        def obs(s, _u, _level=level):
            return [
                ObsRecord(property=p, value=True, level=_level)
                for p in sorted(table.get((s.id, _level), set()))
            ]
        universe.observers.register(level, obs)


def emergence_oracle(
    universe: Universe, table: dict[tuple[int, int], set[str]], structure_id: int, prop: str
) -> bool:
    """Brute-force emergence: present at the composite's level, absent one
    level below on every constituent."""
    s = universe.structures[structure_id]
    if prop not in table.get((s.id, s.order), set()):
        return False
    return all(
        prop not in table.get((c, s.order - 1), set()) for c in s.constituents
    )


def xor_solver_genes() -> tuple[NeuronGene, ...]:
    """Hand-built exact XOR net: two difference detectors and a bias unit,
    step activations, output positive exactly when the inputs differ."""
    return (
        NeuronGene(in_weights=(1.0, -1.0, -1.0),
                   out_targets=((0, 5.0),), activation="step"),
        NeuronGene(in_weights=(-1.0, 1.0, -1.0),
                   out_targets=((0, 5.0),), activation="step"),
        NeuronGene(in_weights=(0.0, 0.0, 1.0),
                   out_targets=((0, 5.0),), activation="step"),
    )


def constant_one_gene() -> NeuronGene:
    """Pushes the XOR output positive regardless of input: two of the four
    patterns right."""
    return NeuronGene(in_weights=(0.0, 0.0, 1.0),
                      out_targets=((0, 5.0),), activation="step")


def grid_shortest_steps(size: int, start: tuple[int, int], stops: list[tuple[int, int]]) -> int:
    """Breadth-first shortest path length visiting `stops` in order."""
    from collections import deque

    def bfs(a: tuple[int, int], b: tuple[int, int]) -> int:
        if a == b:
            return 0
        queue = deque([(a, 0)])
        seen = {a}
        while queue:
            (x, y), d = queue.popleft()
            for dx, dy in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                nx, ny = min(size - 1, max(0, x + dx)), min(size - 1, max(0, y + dy))
                if (nx, ny) == b:
                    return d + 1
                if (nx, ny) not in seen:
                    seen.add((nx, ny))
                    queue.append(((nx, ny), d + 1))
        raise AssertionError("unreachable cell")

    total = 0
    cur = start
    for stop in stops:
        total += bfs(cur, stop)
        cur = stop
    return total
