"""Acceptance gate: eight checks, one printed verdict line each.

Every check computes its result, prints
    criterion N (name): PASS|FAIL [detail]
to the real terminal (capture suspended, so the line shows even when the
test passes), then asserts. Time budgets are part of the verdict. Frozen
values were measured once with the shipped configs and are pinned below; a
change in behavior shows up as a frozen-value mismatch, not a silent
re-measurement.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sosage.checkpoint import load_checkpoint
from sosage.config import load_config, with_seed
from sosage.envs import XorEnv
from sosage.errors import LimitExceeded, NotComposite
from sosage.harness import OUTPUT_DIR_ENV, resume, run
from sosage.hyperstruct import Universe
from sosage.population import (
    ProblemSpec,
    apply_break,
    apply_reverse_break,
    can_break,
    init_population,
)
from sosage.symbio import (
    Assembly,
    EvolutionConfig,
    FitnessLedger,
    detect_dependency,
    distribute_fitness,
    evaluate,
    flatten_to_genes,
    random_genome,
)

from support import (
    build_layered,
    emergence_oracle,
    fold,
    random_universe,
    reachability_oracle,
    table_observers,
    traversal_order_oracle,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# frozen reference values; re-measure only on a deliberate behavior change
XOR_FROZEN_GENERATIONS = 45
COMP_FROZEN_ENABLED_MEDIAN = 33.5
COMP_FROZEN_DISABLED_MEDIAN = 43.0
COMP_FROZEN_ENABLED_SOLVES = 17
COMP_FROZEN_DISABLED_SOLVES = 17


@pytest.fixture(autouse=True)
def isolated_output(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)


@pytest.fixture
def verdict(capfd):
    def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
        line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _verdict


def metrics_rows(path) -> list[str]:
    return Path(path).read_text().splitlines()[1:]


def test_criterion_1_operator_laws(verdict):
    start = time.perf_counter()
    violations = 0
    for seed in range(200):
        u = random_universe(np.random.default_rng(seed), max_structures=12)
        ids = sorted(u.structures)
        interactions = set(u.interaction_edges())
        for a in ids:
            if not u.interacts(a, a):
                violations += 1
            for b in ids:
                if u.interacts(a, b) != u.interacts(b, a):
                    violations += 1
        for d, e, level in u.dependency_edges():
            if (min(d, e), max(d, e), level) not in interactions:
                violations += 1
            if u.structural_order(d) - u.structural_order(e) != 1:
                violations += 1
        oracle = reachability_oracle(u)
        for a in ids:
            for b in ids:
                if a != b and u.depends_on(a, b) != ((a, b) in oracle):
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 5.0
    verdict(1, "operator laws", ok,
            f"200 universes, {violations} violations, {elapsed:.2f}s < 5s")


def test_criterion_2_construction_order(verdict):
    start = time.perf_counter()
    violations = 0
    constructs = 0
    seed = 0
    while constructs < 1000:
        rng = np.random.default_rng(seed)
        seed += 1
        u = Universe(max_order=10)
        for k in range(int(rng.integers(2, 6))):
            u.add_primitive(payload=k)
        for _ in range(int(rng.integers(2, 10))):
            ids = sorted(u.structures)
            size = int(rng.integers(1, min(4, len(ids)) + 1))
            picks = rng.choice(len(ids), size=size, replace=False)
            members = {ids[int(i)] for i in picks}
            if 1 + max(u.structural_order(m) for m in members) > u.max_order:
                continue
            sid = u.construct(members)
            expected = 1 + max(traversal_order_oracle(u, m) for m in members)
            if u.structural_order(sid) != expected:
                violations += 1
            constructs += 1
            if constructs == 1000:
                break
    layered_ok = True
    for r in (1, 2, 3):
        u = Universe(max_order=8)
        top = build_layered(u, r)
        if u.structural_order(top) != 2 + r or traversal_order_oracle(u, top) != 2 + r:
            layered_ok = False
    elapsed = time.perf_counter() - start
    ok = violations == 0 and layered_ok and constructs == 1000
    verdict(2, "construction order", ok,
            f"{constructs} constructs, {violations} violations, "
            f"layered 2+r fixture {'ok' if layered_ok else 'broken'}, {elapsed:.2f}s")


def test_criterion_3_emergence_oracle(verdict):
    start = time.perf_counter()
    props = ("hot", "cold", "spin")
    disagreements = 0
    checked = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        u = random_universe(rng, max_structures=10)
        table: dict[tuple[int, int], set[str]] = {}
        for sid, s in u.structures.items():
            for level in range(1, s.order + 1):
                chosen = {p for p in props if rng.random() < 0.4}
                if chosen:
                    table[(sid, level)] = chosen
        table_observers(u, table)
        for sid, s in u.structures.items():
            if s.order < 2:
                continue
            for prop in props:
                got = u.is_emergent(prop, sid)
                want = emergence_oracle(u, table, sid, prop)
                if got != want:
                    disagreements += 1
                checked += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and checked > 0
    verdict(3, "emergence oracle", ok,
            f"100 universes, {checked} composite-property pairs, "
            f"{disagreements} disagreements, {elapsed:.2f}s")


def test_criterion_4_break_laws(verdict):
    start = time.perf_counter()
    violations: list[str] = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        u = Universe(max_order=int(rng.integers(3, 9)))
        n = int(rng.integers(4, 9))
        limit = n + int(rng.integers(1, 5))
        pop = init_population(u, ProblemSpec(1, 1), [f"g{k}" for k in range(n)], limit)
        records = []
        for step in range(12):
            roll = rng.random()
            top = pop.top_order
            stratum = [m for m in pop.members if u.structural_order(m) == top]
            if roll < 0.55 and len(stratum) >= 2:
                pairs = []
                for _ in range(3):
                    i, j = rng.choice(len(stratum), size=2, replace=False)
                    pair = (stratum[int(i)], stratum[int(j)])
                    if pair not in pairs:
                        pairs.append(pair)
                selected = can_break(u, pop, pairs)
                if selected is not None:
                    x, y = selected
                    before = (set(pop.members), pop.pop_order_n)
                    apply_break(u, pop, x, y, generation=step)
                    if pop.pop_order_n != before[1] + 1:
                        violations.append(f"seed {seed}: order rose by != 1")
                    records.append((pop.break_log[-1], before[1]))
                    if rng.random() < 0.4:
                        ev = pop.break_log[-1]
                        apply_reverse_break(u, pop, ev.composite, generation=step)
                        after = (set(pop.members), pop.pop_order_n)
                        if after != before:
                            violations.append(f"seed {seed}: reverse did not restore state")
            elif roll < 0.75:
                live = [e for e in pop.break_log if e.reversed_at is None]
                if live:
                    ev = live[int(rng.integers(len(live)))]
                    try:
                        apply_reverse_break(u, pop, ev.composite, generation=step)
                    except LimitExceeded:
                        pass
            if len(pop.members) > pop.population_limit:
                violations.append(f"seed {seed}: roster above the limit")
        for ev, order_before in records:
            if ev.reversed_at is not None:
                continue
            # a break at population order n builds a composite of order
            # base + n, whose edges lie at level n + 1
            level = u.structural_order(ev.composite) - pop.base_order_r
            if level != order_before:
                violations.append(f"seed {seed}: break composite at level {level}, not {order_before}")
            for part in (ev.dependent, ev.dependee):
                if level + 1 not in u.dependency_levels(ev.composite, part):
                    violations.append(f"seed {seed}: composite lost a dependency edge")
    elapsed = time.perf_counter() - start
    ok = not violations
    verdict(4, "break laws", ok,
            f"50 scripted sequences, {len(violations)} violations, {elapsed:.2f}s")


def test_criterion_5_dependency_oracle(verdict):
    start = time.perf_counter()
    env = XorEnv()
    disagreements = 0
    cases = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 7))      # roster <= 6
        k = int(rng.integers(2, 4))      # network_size <= 3
        u = Universe(max_order=8)
        genomes = [random_genome(env.input_dim, env.output_dim, rng) for _ in range(n)]
        pop = init_population(u, ProblemSpec(1, 1), genomes, 2 * n)
        members = list(pop.members)
        ledger = FitnessLedger(top_m=64)
        history: list[tuple[set[int], float]] = []
        assemblies = []
        for combo in itertools.combinations(members, k):
            asm = Assembly(tuple(combo), flatten_to_genes(u, combo))
            evaluate(asm, env, env.eval_episodes)
            assemblies.append(asm)
            history.append((set(combo), asm.fitness))
        distribute_fitness(ledger, assemblies, cohort=members)
        for delta in (0.1, 0.5, 1.0):
            config = EvolutionConfig(
                network_size=k, dependency_delta=delta, min_cooccur_samples=1
            )
            got = detect_dependency(u, ledger, pop, config)
            expected = []
            for x in members:
                for y in members:
                    if x == y:
                        continue
                    both = [f for team, f in history if x in team and y in team]
                    solo = [f for team, f in history if x in team and y not in team]
                    if not both or not solo:
                        continue
                    gain = fold(both) / len(both) - fold(solo) / len(solo)
                    if gain >= delta:
                        expected.append((x, y))
            cases += 1
            if got != sorted(expected):
                disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 30.0
    verdict(5, "dependency detection vs exhaustive oracle", ok,
            f"{cases} roster/delta cases, {disagreements} disagreements, "
            f"{elapsed:.2f}s < 30s")


def test_criterion_6_xor_regression(tmp_path, verdict):
    start = time.perf_counter()
    config = load_config(CONFIG_DIR / "xor.json")
    config = replace(config, output_dir=str(tmp_path))
    report = run(config)
    elapsed = time.perf_counter() - start
    last = metrics_rows(report.metrics_path)[-1].split(",")
    best = last[1]
    ok = (
        report.solved
        and report.generations_to_solve == XOR_FROZEN_GENERATIONS
        and best == "4.000000"
        and elapsed < 60.0
    )
    verdict(6, "xor regression", ok,
            f"solved={report.solved} at generation {report.generations_to_solve} "
            f"(frozen {XOR_FROZEN_GENERATIONS}), final best {best}, {elapsed:.1f}s < 60s")


def test_criterion_7_break_utility(tmp_path, verdict):
    start = time.perf_counter()
    base = load_config(CONFIG_DIR / "gridnav_comp.json")
    budget = base.evolution.max_generations
    stats: dict[str, tuple[float, int]] = {}
    for arm, enabled in (("enabled", True), ("disabled", False)):
        out = tmp_path / arm
        generations: list[int] = []
        solves = 0
        for seed in range(20):
            cfg = replace(
                with_seed(base, seed), output_dir=str(out), breaks_enabled=enabled
            )
            report = run(cfg)
            solves += int(report.solved)
            # an unsolved run counts as the full generation budget
            generations.append(
                report.generations_to_solve if report.solved else budget
            )
        stats[arm] = (statistics.median(generations), solves)
    elapsed = time.perf_counter() - start
    med_on, solves_on = stats["enabled"]
    med_off, solves_off = stats["disabled"]
    ok = (
        med_on <= med_off
        and solves_on >= solves_off
        and med_on == COMP_FROZEN_ENABLED_MEDIAN
        and med_off == COMP_FROZEN_DISABLED_MEDIAN
        and solves_on == COMP_FROZEN_ENABLED_SOLVES
        and solves_off == COMP_FROZEN_DISABLED_SOLVES
        and elapsed < 600.0
    )
    verdict(7, "break utility", ok,
            f"20 seeds: enabled median {med_on} solves {solves_on}/20, "
            f"disabled median {med_off} solves {solves_off}/20 "
            f"(frozen {COMP_FROZEN_ENABLED_MEDIAN}/{COMP_FROZEN_DISABLED_MEDIAN}, "
            f"{COMP_FROZEN_ENABLED_SOLVES}/{COMP_FROZEN_DISABLED_SOLVES}), "
            f"{elapsed:.0f}s < 600s")


def test_criterion_8_determinism_and_resume(tmp_path, verdict):
    start = time.perf_counter()
    base = load_config(CONFIG_DIR / "xor.json")
    evo = replace(base.evolution, max_generations=25)
    runs = {}
    for label in ("a", "b"):
        cfg = replace(base, evolution=evo, checkpoint_every=10,
                      output_dir=str(tmp_path / label))
        runs[label] = run(cfg)
    bytes_a = Path(runs["a"].metrics_path).read_bytes()
    bytes_b = Path(runs["b"].metrics_path).read_bytes()
    identical = bytes_a == bytes_b

    seed = base.seed
    ckpt = load_checkpoint(tmp_path / "a" / f"checkpoint-{seed}-gen10.json")
    resumed = resume(ckpt)
    full_rows = metrics_rows(runs["a"].metrics_path)
    resumed_rows = metrics_rows(resumed.metrics_path)
    row_match = resumed_rows == full_rows[10:]
    final_match = (
        json.loads(Path(runs["a"].checkpoint_path).read_text())
        == json.loads(Path(resumed.checkpoint_path).read_text())
    )
    elapsed = time.perf_counter() - start
    ok = identical and row_match and final_match
    verdict(8, "determinism and resume", ok,
            f"twin metrics byte-identical={identical}, resume rows 10.. "
            f"match={row_match}, final checkpoints equal={final_match}, {elapsed:.1f}s")
