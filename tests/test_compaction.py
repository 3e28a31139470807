"""Bounded run state: the loop drops every structure and ledger entry it can
never read again, at every generation boundary, and nothing it writes
changes because of it."""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from sosage import symbio
from sosage.checkpoint import load_checkpoint
from sosage.config import load_config, with_seed
from sosage.harness import OUTPUT_DIR_ENV, resume, run
from sosage.hyperstruct import Universe
from sosage.invariants import verify
from sosage.population import BreakEvent, Population
from sosage.symbio import FitnessLedger, live_structures

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# fast stall detection: both configs break early and later reverse a break
REVERSING = dict(
    dependency_delta=0.05, window_G=2, min_cooccur_samples=2, break_warmup=0, max_generations=120
)


@pytest.fixture(autouse=True)
def isolated_output(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)


def shipped(name, seed, **evolution):
    config = with_seed(load_config(CONFIG_DIR / name), seed)
    return dataclasses.replace(config, evolution=dataclasses.replace(config.evolution, **evolution))


def reversing(name, seed):
    return shipped(name, seed, **REVERSING)


def rows(path):
    return Path(path).read_bytes().splitlines(keepends=True)


class TestRetain:
    def test_universe_drops_structures_and_their_edges(self):
        u = Universe()
        a, b, c = (u.add_primitive(k) for k in "abc")
        ab = u.construct({a, b})
        u.declare_dependency(ab, a, level=2)
        u.declare_dependency(ab, b, level=2)
        u.retain({a, b, ab})
        assert sorted(u.structures) == [a, b, ab]
        assert u.interaction_edges() == [(a, ab, 2), (b, ab, 2)]
        assert u.dependency_edges() == [(ab, a, 2), (ab, b, 2)]
        u.retain({a})
        assert sorted(u.structures) == [a]
        assert u.interaction_edges() == [] and u.dependency_edges() == []
        assert not any(d == ab for d, _ in u.depends)

    def test_ledger_drops_members_and_pairs(self):
        ledger = FitnessLedger()
        for m in (1, 2, 3):
            ledger.credit(m, float(m), top_m=2)
        ledger.tally_cooccurrence([({1, 2}, 1.0)], [1, 2, 3])
        ledger.retain({1, 2})
        assert sorted(ledger.per_member) == [1, 2]
        assert sorted(ledger.cooccur) == [(1, 2), (2, 1)]
        assert ledger.score(1, top_m=2) == 1.0


def test_live_set_is_roster_and_break_log_closed_under_constituents():
    u = Universe()
    a, b, c, d, e = (u.add_primitive(k) for k in "abcde")
    ab = u.construct({a, b})
    top = u.construct({ab, c})
    cd = u.construct({c, d})
    pop = Population(members=[top, e], base_order_r=1, pop_order_n=3)
    assert live_structures(u, pop) == {top, ab, a, b, c, e}
    pop.break_log.append(BreakEvent(generation=0, dependent=c, dependee=d, composite=cd, reversed_at=1))
    assert live_structures(u, pop) == {top, ab, a, b, c, e, cd, d}


INVISIBLE = {
    "xor-7": shipped("xor.json", 7),
    "gridnav_comp-0": shipped("gridnav_comp.json", 0),
    "gridnav_comp-3": shipped("gridnav_comp.json", 3),
    "xor-1-reversing": reversing("xor.json", 1),
    "gridnav_comp-0-reversing": reversing("gridnav_comp.json", 0),
}


@pytest.mark.parametrize("name", sorted(INVISIBLE))
def test_compaction_is_invisible_in_the_metrics(tmp_path, monkeypatch, name):
    config = INVISIBLE[name]
    compacted = run(dataclasses.replace(config, output_dir=str(tmp_path / "on")))
    monkeypatch.setattr(symbio, "compact", lambda state: None)
    kept = run(dataclasses.replace(config, output_dir=str(tmp_path / "off")))
    assert Path(compacted.metrics_path).read_bytes() == Path(kept.metrics_path).read_bytes()
    small = load_checkpoint(compacted.checkpoint_path).state
    large = load_checkpoint(kept.checkpoint_path).state
    assert small.universe.structures.keys() < large.universe.structures.keys()
    assert small.pop.break_log == large.pop.break_log


@pytest.mark.parametrize("name,reversed_at", [("xor.json", 88), ("gridnav_comp.json", 2)])
def test_resume_across_a_reversal_replays_exactly(tmp_path, name, reversed_at):
    seed = 1 if name == "xor.json" else 0
    config = dataclasses.replace(reversing(name, seed), output_dir=str(tmp_path), checkpoint_every=1)
    full = run(config)
    final = load_checkpoint(full.checkpoint_path)
    assert [e.reversed_at for e in final.state.pop.break_log][0] == reversed_at
    start = reversed_at + 1
    ckpt = load_checkpoint(tmp_path / f"checkpoint-{seed}-gen{start}.json")
    # the restored constituents are still there to be restored and scored
    first = ckpt.state.pop.break_log[0]
    assert {first.dependent, first.dependee} <= ckpt.state.universe.structures.keys()
    resumed = resume(ckpt)
    original = rows(full.metrics_path)
    assert rows(resumed.metrics_path) == original[:1] + original[1 + start:]
    assert Path(resumed.checkpoint_path).read_bytes() == Path(full.checkpoint_path).read_bytes()
    for path in sorted(tmp_path.glob(f"checkpoint-{seed}-gen*.json")):
        report = verify(load_checkpoint(path))
        assert report.passed, (path.name, report.failures())


def test_checkpoint_size_stays_flat_over_a_long_run(tmp_path):
    # gridnav_comp seed 9 does not solve within its 150 generations
    config = dataclasses.replace(
        shipped("gridnav_comp.json", 9), output_dir=str(tmp_path), checkpoint_every=1
    )
    report = run(config)
    assert not report.solved
    early = (tmp_path / "checkpoint-9-gen20.json").stat().st_size
    late = (tmp_path / "checkpoint-9-gen140.json").stat().st_size
    assert late <= 1.5 * early
