"""Shared builders and independent oracles for the test suite.

Oracles here must not lean on the implementations they check: reachability is
recomputed from the raw edge lists, expected orders are recomputed by direct
traversal, and the XOR nets are written out by hand.
"""

from __future__ import annotations

import copy
import re
import struct
from functools import reduce
from graphlib import CycleError, TopologicalSorter
from operator import add
from typing import Iterable, Mapping

import numpy as np

from sosage.hyperstruct import ObsRecord, Observer, Universe
from sosage.rng import Stream
from sosage.symbio import NeuronGene


def exactly(message: str) -> str:
    """A `pytest.raises` match pattern that accepts this message and no other."""
    return f"^{re.escape(message)}$"


def numpy_blocks(bit_generator: np.random.BitGenerator):
    """A `Stream` block source over a numpy bit generator's raw words."""
    return lambda: bit_generator.random_raw(64).tolist()


def stream(seed: int) -> Stream:
    """A Stream that draws exactly as np.random.default_rng(seed) does."""
    return Stream(numpy_blocks(np.random.PCG64(seed)))


M64 = 2**64 - 1


def philox_words(key: list[int], n: int) -> list[int]:
    """The first n words of numpy's Philox with this two-word key, as
    random_raw gives them: Philox4x64-10 over the counters 1, 2, 3, ...,
    four words per counter, one counter at a time."""
    out, counter = [], 0
    while len(out) < n:
        counter += 1
        c = [(counter >> s) & M64 for s in (0, 64, 128, 192)]
        k0, k1 = key
        for _ in range(10):
            p0, p1 = 0xD2E7470EE14C6C93 * c[0], 0xCA5A826395121157 * c[2]
            c = [(p1 >> 64) ^ c[1] ^ k0, p1 & M64, (p0 >> 64) ^ c[3] ^ k1, p0 & M64]
            k0, k1 = (k0 + 0x9E3779B97F4A7C15) & M64, (k1 + 0xBB67AE8584CAA73B) & M64
        out += c
    return out[:n]


def fold(values) -> float:
    """Left-to-right float total, the way sosage adds. The builtin sum()
    compensates its rounding from Python 3.12 on, so it is no oracle."""
    return reduce(add, values, 0.0)


def random_universe(rng: np.random.Generator, max_structures: int = 12) -> Universe:
    """A random legal universe: primitives, overlapping composites, and
    dependencies on random order-gap-1 pairs."""
    u = Universe()
    n_total = int(rng.integers(2, max_structures + 1))
    n_prim = int(rng.integers(1, max(2, n_total // 2) + 1))
    for k in range(n_prim):
        u.add_primitive(payload=k, tag=f"p{k}")
    while len(u.structures) < n_total:
        ids = sorted(u.structures)
        size = int(rng.integers(1, min(4, len(ids)) + 1))
        picks = rng.choice(len(ids), size=size, replace=False)
        members = {ids[int(i)] for i in picks}
        if 1 + max(u.structures[m].order for m in members) > 8:
            continue
        u.construct(members, tag=f"c{len(u.structures)}")
    ids = sorted(u.structures)
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
    for d, e, _level in universe.dependency_edges():
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


def interacts_disagreements(universe: Universe) -> list[tuple[int, int]]:
    """Every pair of ids, one past the last included, on which
    `graph.interacts` differs from membership in `interaction_edges()`."""
    linked = {(a, b) for a, b, _level in universe.interaction_edges()}
    ids = sorted(universe.structures) + [universe.next_id]
    return [
        (a, b) for a in ids for b in ids
        if universe.interacts(a, b) != (a == b or (min(a, b), max(a, b)) in linked)
    ]


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


def table_observers(table: dict[tuple[int, int], set[str]]) -> dict[int, list[Observer]]:
    """The observer dict, one observer per level the table names, that
    reports exactly the properties listed in `table[(structure_id, level)]`."""
    observers: dict[int, list[Observer]] = {}
    for level in {level for (_sid, level) in table}:
        def obs(s, _u, _level=level):
            return [
                ObsRecord(property=p, value=True, level=_level)
                for p in sorted(table.get((s.id, _level), set()))
            ]
        observers[level] = [obs]
    return observers


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
    """Hand-built exact XOR net: two difference detectors and a bias unit.
    The output is 5 * (tanh(1) - tanh(3) + tanh(1)), about +2.64, when the
    inputs differ, and 5 * -tanh(1), about -3.81, when they agree."""
    return (
        NeuronGene(in_weights=(1.0, -1.0, -1.0), out_weights=(5.0,)),
        NeuronGene(in_weights=(-1.0, 1.0, -1.0), out_weights=(5.0,)),
        NeuronGene(in_weights=(0.0, 0.0, 1.0), out_weights=(5.0,)),
    )


def constant_one_gene() -> NeuronGene:
    """Pushes the XOR output positive regardless of input: two of the four
    patterns right."""
    return NeuronGene(in_weights=(0.0, 0.0, 1.0), out_weights=(5.0,))


def float_slots(doc: dict) -> list[tuple[list, int]]:
    """Every float slot of a checkpoint document, as (list, index), in order
    of first use: structure rows by id (each genome's in_weights, then its
    out_weights), per_member rows by id, cooccur rows by pair (both_total,
    then solo_total), then stall_history."""
    slots = []
    for row in sorted(doc["universe"]["structures"], key=lambda row: row[0]):
        if row[1] == 1 and len(row) == 6:  # a genome; a row of another width is left for the reader to refuse
            slots += [(row[w], i) for w in (4, 5) for i in range(len(row[w]))]
    ledger = doc["ledger"]
    for _, samples in sorted(ledger["per_member"], key=lambda row: row[0]):
        slots += [(samples, i) for i in range(len(samples))]
    for cell in sorted(ledger["cooccur"], key=lambda row: row[:2]):
        slots += [(cell, 3), (cell, 5)]
    history = doc["loop"]["stall_history"]
    return slots + [(history, i) for i in range(len(history))]


def table_floats(doc: dict) -> dict:
    """A document with each float in its slot, as v6 and earlier wrote it,
    put in the table layout that v7 and later write: each float slot takes
    the index of its value's bits in a new top-level `floats` table, whose
    entries follow first use in `float_slots` order. The format marker is
    left as it is."""
    doc = copy.deepcopy(doc)
    table: dict[bytes, int] = {}
    for node, i in float_slots(doc):
        node[i] = table.setdefault(struct.pack("<d", node[i]), len(table))
    doc["floats"] = [struct.unpack("<d", bits)[0] for bits in table]
    return doc


def inline_floats(doc: dict) -> dict:
    """The inverse of `table_floats`: each index replaced by the float it
    names, and the table dropped."""
    doc = copy.deepcopy(doc)
    floats = doc.pop("floats")
    for node, i in float_slots(doc):
        node[i] = floats[node[i]]
    return doc


def v9_to_v10(doc: dict) -> dict:
    """The v9 to v10 transform: the format marker changes; `per_member`,
    `cooccur` and `reverse_counters`, objects keyed by decimal ids in v9,
    become arrays of rows sorted by id (`[id, samples]`, `[x, y, both_count,
    both_total, solo_count, solo_total]`, `[id, count]`); and each break
    event becomes the row of its fields in order, without `level_observed`.
    Nothing else changes, the floats table included."""
    doc = copy.deepcopy(doc)
    doc["format"] = "sosage-checkpoint-v10"
    ledger, loop = doc["ledger"], doc["loop"]
    ledger["per_member"] = sorted([int(key), samples] for key, samples in ledger["per_member"].items())
    ledger["cooccur"] = sorted([*map(int, key.split(",")), *cell] for key, cell in ledger["cooccur"].items())
    loop["reverse_counters"] = sorted([int(key), count] for key, count in loop["reverse_counters"].items())
    doc["population"]["break_log"] = [
        [e["generation"], e["dependent"], e["dependee"], e["composite"], e["reversed_at"]]
        for e in doc["population"]["break_log"]
    ]
    return doc


def v10_to_v9(doc: dict) -> dict:
    """The inverse of `v9_to_v10`: a break event's `level_observed` is its
    composite's order less the base order, as `apply_break` logged it."""
    doc = copy.deepcopy(doc)
    doc["format"] = "sosage-checkpoint-v9"
    ledger, loop = doc["ledger"], doc["loop"]
    ledger["per_member"] = {str(m): samples for m, samples in ledger["per_member"]}
    ledger["cooccur"] = {f"{x},{y}": cell for x, y, *cell in ledger["cooccur"]}
    loop["reverse_counters"] = {str(m): count for m, count in loop["reverse_counters"]}
    orders = {row[0]: row[1] for row in doc["universe"]["structures"]}
    base = doc["config"]["problem"]["base_solver_order_r"]
    doc["population"]["break_log"] = [
        {"generation": g, "dependent": x, "dependee": y, "composite": z, "level_observed": orders[z] - base,
         "reversed_at": reversed_at}
        for g, x, y, z, reversed_at in doc["population"]["break_log"]
    ]
    return doc


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
