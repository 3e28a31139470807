"""The structural verifier: 9 invariants over a checkpoint's state."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .checkpoint import Checkpoint
from .envs import ENVS
from .symbio import SAMPLE_RING_FACTOR, NeuronGene, genome_shape_fault, live_structures


@dataclass
class InvariantResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerifyReport:
    results: list[InvariantResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[InvariantResult]:
        return [r for r in self.results if not r.passed]


# lineage tags as the loop writes them, ASCII digits only: o{gen}:{parent}[x{parent}], c{gen}:{original}
_LINEAGE_TAG = re.compile(r"o[0-9]+:([0-9]+)(?:x([0-9]+))?|c[0-9]+:([0-9]+)")
_ID_DIGITS = 4300  # the longest integer a file can hold; a longer run names no structure


def verify(ckpt: Checkpoint) -> VerifyReport:
    """Run every structural invariant against the snapshot; failures carry the
    offending ids instead of raising. It alone judges a state: the reader
    refuses only forms the writer never writes. No check looks for cycles:
    orders fall strictly along every constituent and every dependency edge
    that passes construction-order and dependency-order-gap, so a cycle
    fails one of them."""
    u, pop, ledger = ckpt.state.universe, ckpt.state.pop, ckpt.state.ledger
    env = ENVS[ckpt.config.env.name]  # its class holds the dimensions genome-shape checks
    w_max = ckpt.config.evolution.w_max
    max_order = ckpt.config.max_order
    results: list[InvariantResult] = []

    def record(name: str, bad: list[str]) -> None:
        results.append(InvariantResult(name, not bad, "; ".join(bad[:5])))

    bad = []
    for i, s in u.structures.items():
        if s.order < 1 or s.order > max_order:
            bad.append(f"structure {i} order {s.order} outside 1..{max_order}")
        if s.order == 1 and s.constituents:
            bad.append(f"primitive {i} has constituents")
        if s.order > 1:
            if not s.constituents:
                bad.append(f"composite {i} has no constituents")
            elif any(c not in u for c in s.constituents):
                bad.append(f"composite {i} references unknown constituents")
            elif s.order != 1 + max(u.structures[c].order for c in s.constituents):
                bad.append(f"composite {i} violates the order law")
    if u.structures and u.next_id <= (top := max(u.structures)):
        bad.append(f"next_id {u.next_id} does not exceed structure id {top}")
    record("construction-order", bad)

    bad = []
    for d, e, level in u.dependency_edges():
        if level < 1:
            bad.append(f"dependency ({d},{e}) at level {level} < 1")
        if d not in u or e not in u:
            bad.append(f"dependency ({d},{e}) references unknown structure")
        elif (gap := u.structures[d].order - u.structures[e].order) != 1:
            bad.append(f"dependency ({d},{e}) spans order gap {gap}")
    record("dependency-order-gap", bad)

    bad = []
    seen_members: set[int] = set()
    for m in pop.members:
        if m not in u:
            bad.append(f"member {m} not in universe")
        if m in seen_members:
            bad.append(f"member {m} listed twice")
        seen_members.add(m)
    if len(pop.members) > ckpt.config.population_limit:
        bad.append(f"roster {len(pop.members)} exceeds limit {ckpt.config.population_limit}")
    # a break swaps one member for one and a reverse restores at least one
    if len(pop.members) < ckpt.config.roster_size:
        bad.append(f"roster {len(pop.members)} is below roster_size {ckpt.config.roster_size}")
    record("roster-membership", bad)

    bad = []
    if pop.pop_order_n < 1:
        bad.append(f"pop_order {pop.pop_order_n} < 1")
    orders = [u.get(m).order for m in pop.members if m in u]
    if orders:
        if max(orders) != pop.top_order:
            bad.append(f"max member order {max(orders)} != top order {pop.top_order}")
        if min(orders) < pop.base_order_r:
            bad.append(f"member order {min(orders)} below base order {pop.base_order_r}")
    record("population-order", bad)

    # the solve and every break came before the checkpoint: a generation makes
    # at most one break, and a reverse may come in its break's own generation
    bad = []
    if (solved_at := ckpt.state.solved_at) is not None and not 0 <= solved_at < ckpt.generation:
        bad.append(f"solved at generation {solved_at}, outside 0..{ckpt.generation - 1}")
    previous = -1
    for event in pop.break_log:
        if not previous < event.generation < ckpt.generation:
            bad.append(f"break at generation {event.generation} outside {previous + 1}..{ckpt.generation - 1}")
        previous = event.generation
        if event.reversed_at is not None and not event.generation <= event.reversed_at < ckpt.generation:
            bad.append(
                f"break at generation {event.generation} reversed at {event.reversed_at}, "
                f"outside {event.generation}..{ckpt.generation - 1}"
            )
        if event.composite not in u:
            bad.append(f"break composite {event.composite} missing")
            continue
        z = u.get(event.composite)
        if z.constituents != frozenset((event.dependent, event.dependee)):
            bad.append(f"break composite {event.composite} constituents differ from the event pair")
        # a break at population order n builds a composite of order base + n, its edges at level n + 1
        expected_level = z.order - pop.base_order_r + 1
        for part in (event.dependent, event.dependee):
            if expected_level not in u.dependency_levels(event.composite, part):
                bad.append(
                    f"break composite {event.composite} lacks the level-{expected_level} "
                    f"dependency on {part}"
                )
    # the reverse safeguard counts only composites whose break still stands,
    # from 1, and drops a counter rather than lower it
    standing = {e.composite for e in pop.break_log if e.reversed_at is None}
    counters = sorted(ckpt.state.reverse_counters.items())
    bad += [f"reverse counter on {c}, no composite of an un-reversed break" for c, _ in counters if c not in standing]
    bad += [f"reverse counter on {c} at {n}, below 1" for c, n in counters if n < 1]
    record("break-log", bad)

    # a key naming an unknown id is never live: state-compact reports it; the
    # loop trims its stall history to window_G on every update
    bad = []
    cap = SAMPLE_RING_FACTOR * ckpt.config.evolution.top_m
    for m, samples in ledger.per_member.items():
        if len(samples) > cap:
            bad.append(f"ledger member {m} holds {len(samples)} samples, cap {cap}")
    if len(ckpt.state.stall_history) > (window := ckpt.config.evolution.window_G):
        bad.append(f"stall_history holds {len(ckpt.state.stall_history)} entries, window_G {window}")
    # the tally adds at most one count to a cell per assembly of a generation
    tallies = ckpt.generation * ckpt.config.evolution.assemblies_per_generation
    for (x, y), c in ledger.cooccur.items():
        if x == y:
            bad.append(f"cooccurrence pair ({x},{y}) is reflexive")
        if not (c.both_count >= 0 and c.solo_count >= 0 and c.both_count + c.solo_count <= tallies):
            bad.append(f"cooccurrence pair ({x},{y}) holds a negative count or more than {tallies} in all")
    record("ledger-references", bad)

    bad = []
    for i, s in u.structures.items():
        if s.order != 1:
            continue
        g = s.payload
        if not isinstance(g, NeuronGene):
            bad.append(f"primitive {i} payload is not a genome")
            continue
        fault = genome_shape_fault(g, env.input_dim, env.output_dim)
        if fault is not None:
            bad.append(f"genome {i} {fault}")
        if any(not abs(w) <= w_max for w in (*g.in_weights, *g.out_weights)):  # NaN fails too
            bad.append(f"genome {i} weight exceeds {w_max}")
    record("genome-shape", bad)

    bad = []
    for i, s in u.structures.items():
        if (m := _LINEAGE_TAG.fullmatch(s.tag)) is None:
            continue
        kind, source = ("offspring", "parent") if s.tag[0] == "o" else ("clone", "original")
        for p in (int(p) for p in m.groups() if p is not None and len(p) <= _ID_DIGITS):
            if p in u and u.get(p).order != s.order:
                bad.append(f"{kind} {i} (order {s.order}) from {source} {p} of other order")
    record("lineage-strata", bad)

    # every checkpoint follows a compaction, or a solving generation that
    # adds nothing outside the live set
    live = live_structures(u, pop)
    bad = [f"structure {i} is not live" for i in sorted(u.structures) if i not in live]
    bad += [f"ledger member {m} is not live" for m in sorted(ledger.per_member) if m not in live]
    bad += [
        f"cooccurrence pair ({x},{y}) is not live"
        for x, y in sorted(ledger.cooccur) if x not in live or y not in live
    ]
    record("state-compact", bad)

    return VerifyReport(results)
