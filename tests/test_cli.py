"""End-to-end command behavior through main(argv), in process."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import sosage
from sosage import harness
from sosage.checkpoint import CHECKPOINT_FORMAT, checkpoint_from_json_dict, load_checkpoint, save_checkpoint
from sosage.cli import EXIT_BROKEN_PIPE, EXIT_INTERNAL, EXIT_OK, EXIT_UNSOLVED, EXIT_USAGE, EXIT_VERIFY_FAILED, main
from sosage.harness import OUTPUT_DIR_ENV
from sosage.invariants import verify
from sosage.population import BreakEvent

from support import inline_floats, table_floats, v10_to_v9
from test_digests import CONFIG_DIR
from test_envs import REFUSALS, env_config


@pytest.fixture(autouse=True)
def isolated_output(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)


@pytest.fixture
def config_path(tmp_path):
    doc = {
        "seed": 0,
        "env": {"name": "xor"},
        "problem": {"problem_order_x": 2, "base_solver_order_r": 1},
        "evolution": {"network_size": 2, "assemblies_per_generation": 3, "max_generations": 4},
        "roster_size": 4,
        "population_limit": 8,
        "output_dir": str(tmp_path / "runs"),
        "checkpoint_every": 2,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_run_prints_artifact_paths(self, config_path, capsys, tmp_path):
        code, out, err = run_cli(capsys, "run", str(config_path))
        assert code == EXIT_OK
        metrics, checkpoint = out.splitlines()
        assert Path(metrics).exists() and Path(checkpoint).exists()
        assert "gen 0:" in err  # progress goes to stderr

    def test_require_solve_flags_unsolved(self, config_path, capsys):
        code, _, _ = run_cli(capsys, "run", str(config_path), "--require-solve")
        assert code == EXIT_UNSOLVED

    def test_a_crash_is_no_unsolved_run(self, config_path, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")
        monkeypatch.setattr(harness, "run", crash)
        code, out, err = run_cli(capsys, "run", str(config_path), "--require-solve")
        assert (code, out) == (EXIT_INTERNAL, "")
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("RuntimeError: boom\n")

    def test_seed_override_renames_artifacts(self, config_path, capsys):
        code, out, _ = run_cli(capsys, "run", str(config_path), "--seed", "9")
        assert code == EXIT_OK
        assert "metrics-9.csv" in out.splitlines()[0]

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_override_outside_64_bits_writes_nothing(self, config_path, capsys, tmp_path, seed):
        code, out, err = run_cli(capsys, "run", str(config_path), "--seed", seed)
        assert code == EXIT_USAGE
        assert out == "" and err == "error: seed: must be an unsigned 64-bit integer\n"
        assert not (tmp_path / "runs").exists()

    def test_missing_config_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", str(tmp_path / "nope.json"))
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_invalid_config_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"env": {"name": "xor"}, "turbo": 1}))
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == EXIT_USAGE
        assert "turbo" in err

    @pytest.mark.parametrize("text", [
        json.dumps({"env": {"name": "xor"}, "roster_size": 501}),
        '{"env": {"name": "xor"}, "seed": ' + "1" * 5000 + "}",
        json.dumps({"env": {"name": "xor"}, "output_dir": "a\0b"}),
        json.dumps({"env": {"name": "xor"}, "output_dir": "\ud800x"}),
        json.dumps({"env": {"name": "gridnav", "params": {"size": 10 ** 400}}}),
        json.dumps({"env": {"name": "gridnav", "params": {"subgoal_reward": 0.9}}}),
        '{"env": {"name": "xor"}, "roster_size": ' + "9" * 4300 + "}",
        json.dumps({"env": {"name": "xor"}, "evolution": {"assemblies_per_generation": 10**9}}),
        json.dumps({"env": {"name": "xor"}, "max_order": 10**15}),
        json.dumps({"env": {"name": "xor"}, "evolution": {"w_max": 0.5}}),
    ], ids=["roster-past-its-bound", "long-seed", "nul-dir", "surrogate-dir", "huge-grid",
            "plain-subgoal-reward", "4300-digit-roster", "billion-assemblies", "huge-max-order",
            "w-max-below-initial-weights"])
    def test_a_config_no_run_can_use_is_usage_error(self, capsys, tmp_path, monkeypatch, text):
        # the first is a plain bound; each of the others once loaded, or
        # escaped as a traceback with exit 1; the last four loaded: a roster
        # no digest can echo and no state can hold, four billion env steps a
        # generation, an order cap of 10**15, and a weight bound below the
        # initial weights, which only mutation clamps, so that run wrote
        # checkpoints its own verify failed
        monkeypatch.chdir(tmp_path)  # where the default output_dir would be made
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    @pytest.mark.parametrize("name,params,message", REFUSALS.values(), ids=REFUSALS)
    def test_each_env_refusal_is_one_error_line_and_no_file(self, capsys, tmp_path, monkeypatch,
                                                             name, params, message):
        monkeypatch.chdir(tmp_path)  # where the default output_dir would be made
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(env_config(name, params)))
        assert run_cli(capsys, "run", str(path)) == (EXIT_USAGE, "", f"error: {message}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    def test_rewards_whose_totals_can_overflow_are_refused_before_any_file(self, capsys, tmp_path, monkeypatch):
        # this config once wrote two metrics rows of -inf, then failed to
        # encode its checkpoint and left the metrics file behind
        doc = json.loads((CONFIG_DIR / "gridnav_comp.json").read_text())
        doc["env"]["params"]["step_penalty"] = 1e308
        doc["evolution"]["max_generations"] = 2
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, "run", str(path)) == (EXIT_USAGE, "", (
            "error: env.params: rewards let an episode return inf in size, "
            "and 40 such returns in a run can total more than 4.49423e+307\n"))
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    @pytest.mark.parametrize("text,key", [
        ('{"env": {"name": "xor"}, "roster_size": 20, "roster_size": 30}', "roster_size"),
        ('{"env": {"name": "xor", "name": "gridnav"}}', "name"),
    ], ids=["top-level", "nested"])
    def test_a_key_written_twice_is_usage_error(self, capsys, tmp_path, monkeypatch, text, key):
        # json alone keeps the last value: the first config once ran with a roster of 30
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "twice.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == EXIT_USAGE
        assert out == "" and err == f"error: {path}: key '{key}' appears twice in one object\n"
        assert [p.name for p in tmp_path.iterdir()] == ["twice.json"]

    def test_the_lowest_weight_bound_verifies_and_resumes(self, config_path, capsys, tmp_path):
        doc = json.loads(config_path.read_text())
        doc["evolution"]["w_max"] = 1.0
        doc["checkpoint_every"] = 1
        config_path.write_text(json.dumps(doc))
        assert run_cli(capsys, "run", str(config_path))[0] == EXIT_OK
        runs = tmp_path / "runs"
        checkpoints = sorted(runs.glob("checkpoint-0-*.json"))
        assert len(checkpoints) == 4
        for path in checkpoints:
            assert run_cli(capsys, "verify", str(path))[0] == EXIT_OK, path.name
        assert run_cli(capsys, "resume", str(runs / "checkpoint-0-gen1.json"))[0] == EXIT_OK
        assert (runs / "checkpoint-0-from1-final.json").read_bytes() == (runs / "checkpoint-0-final.json").read_bytes()

    def test_an_integer_beyond_the_digit_limit_names_the_limit(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"env": {"name": "xor"}, "seed": ' + "1" * 5000 + "}")
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == EXIT_USAGE
        assert out == "" and err == f"error: {path}: an integer has more than 4300 digits\n"

    def test_usage_error_without_command(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()


def child_env() -> dict:
    """The environment of a fresh interpreter that imports this sosage."""
    src = str(Path(sosage.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_a_run_does_not_import_numpy(tmp_path):
    """sosage computes its random words itself; numpy is the tests' oracle
    only, so a run in a fresh interpreter leaves it unimported."""
    doc = json.loads((CONFIG_DIR / "xor.json").read_text())
    doc["evolution"]["max_generations"] = 2
    doc["output_dir"] = str(tmp_path / "runs")
    config = tmp_path / "xor.json"
    config.write_text(json.dumps(doc))
    script = (
        "import sys\n"
        "from sosage import cli\n"
        f"status = cli.main(['run', {str(config)!r}])\n"
        "print(status, 'numpy' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{EXIT_OK} False"
    assert len((tmp_path / "runs" / "metrics-7.csv").read_text().splitlines()) == 3


class TestResumeCommand:
    def test_resume_from_periodic_checkpoint(self, config_path, capsys, tmp_path):
        run_cli(capsys, "run", str(config_path))
        ckpt = tmp_path / "runs" / "checkpoint-0-gen2.json"
        code, out, _ = run_cli(capsys, "resume", str(ckpt))
        assert code == EXIT_OK
        assert "metrics-0-from2.csv" in out.splitlines()[0]

    def test_require_solve_flags_an_unsolved_resume(self, config_path, capsys, tmp_path):
        run_cli(capsys, "run", str(config_path))
        ckpt = tmp_path / "runs" / "checkpoint-0-gen2.json"
        code, out, _ = run_cli(capsys, "resume", str(ckpt), "--require-solve")
        assert code == EXIT_UNSOLVED
        # the resume ran to its budget and wrote its files all the same
        assert [Path(p).name for p in out.splitlines()] == ["metrics-0-from2.csv", "checkpoint-0-from2-final.json"]

    def test_resume_rejects_tampered_checkpoint(self, config_path, capsys, tmp_path):
        run_cli(capsys, "run", str(config_path))
        path = tmp_path / "runs" / "checkpoint-0-gen2.json"
        doc = json.loads(path.read_text())
        doc["config"]["roster_size"] = 5
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "resume", str(path))
        assert code == EXIT_USAGE
        assert "digest" in err.lower() or "match" in err.lower()

    def test_resume_refuses_a_checkpoint_that_fails_verify(self, config_path, capsys, tmp_path):
        run_cli(capsys, "run", str(config_path))
        out = tmp_path / "runs"
        path = out / "checkpoint-0-gen2.json"
        doc = inline_floats(json.loads(path.read_text()))  # each float in its slot, so a weight can go
        member = doc["population"]["members"][0]
        row = next(r for r in doc["universe"]["structures"] if r[0] == member)
        row[5] = row[5][:-1]  # a genome with no output weight
        path.write_text(json.dumps(table_floats(doc)))
        before = sorted(p.name for p in out.iterdir())
        code, stdout, err = run_cli(capsys, "resume", str(path))
        assert code == EXIT_VERIFY_FAILED
        assert stdout == ""
        assert "FAIL  genome-shape" in err.splitlines()[0]
        assert all(line.startswith("FAIL") for line in err.splitlines())
        assert sorted(p.name for p in out.iterdir()) == before


OUTPUT_COUNT_BREAKS = {
    "dropped": (lambda weights: weights[:-1], "has 3 output weights, want 4"),
    "extra": (lambda weights: weights + weights[:1], "has 5 output weights, want 4"),
}


def assert_genome_edit_fails_genome_shape_alone(capsys, tmp_path, item, edit, fault):
    """Run gridnav_comp to a checkpoint, apply `edit` to item `item` of a
    member genome's row (4: input weights, 5: output weights), and check
    that verify and resume fail on genome-shape alone, writing no file."""
    doc = json.loads((CONFIG_DIR / "gridnav_comp.json").read_text())
    doc.update(seed=9, checkpoint_every=5, output_dir=str(tmp_path / "runs"))
    doc["evolution"]["max_generations"] = 10
    config = tmp_path / "gridnav.json"
    config.write_text(json.dumps(doc))
    run_cli(capsys, "run", str(config))
    out = tmp_path / "runs"
    path = out / "checkpoint-9-gen5.json"
    ckpt = inline_floats(json.loads(path.read_text()))
    member = ckpt["population"]["members"][0]
    row = next(r for r in ckpt["universe"]["structures"] if r[0] == member)
    assert row[1] == 1 and len(row[4]) == 5 and len(row[5]) == 4
    row[item] = edit(row[item])
    path.write_text(json.dumps(table_floats(ckpt)))
    fail_line = f"FAIL  genome-shape  (genome {member} {fault})"
    code, stdout, _ = run_cli(capsys, "verify", str(path))
    assert code == EXIT_VERIFY_FAILED
    assert [line for line in stdout.splitlines() if not line.startswith("pass  ")] == [fail_line]
    before = sorted(p.name for p in out.iterdir())
    code, stdout, err = run_cli(capsys, "resume", str(path))
    assert (code, stdout, err.splitlines()) == (EXIT_VERIFY_FAILED, "", [fail_line])
    assert sorted(p.name for p in out.iterdir()) == before


@pytest.mark.parametrize("form", sorted(OUTPUT_COUNT_BREAKS))
def test_a_genome_of_another_output_count_fails_genome_shape_alone(capsys, tmp_path, form):
    edit, fault = OUTPUT_COUNT_BREAKS[form]
    assert_genome_edit_fails_genome_shape_alone(capsys, tmp_path, 5, edit, fault)


def test_a_genome_without_its_bias_fails_genome_shape_alone(capsys, tmp_path):
    assert_genome_edit_fails_genome_shape_alone(
        capsys, tmp_path, 4, lambda weights: weights[:-1], "has 4 input weights, want 5")


def set_break(i, **changes):
    """Set fields of break event `i`, a row of BreakEvent's fields in order."""
    def edit(doc):
        row = doc["population"]["break_log"][i]
        for k, f in enumerate(fields(BreakEvent)):
            row[k] = changes.get(f.name, row[k])
    return edit


def set_counts(both, solo):
    """Set the two counts of the first co-occurrence row,
    `[x, y, both_count, both_total, solo_count, solo_total]`."""
    def edit(doc):
        row = doc["ledger"]["cooccur"][0]
        row[2], row[4] = both, solo
    return edit


def swap_breaks(doc):
    log = doc["population"]["break_log"]
    log[0], log[1] = log[1], log[0]


def long_history(doc):
    history = doc["loop"]["stall_history"]
    history.append(history[-1])


def empty_roster(doc):
    doc["universe"].update(structures=[], depends=[])
    doc["population"].update(members=[], break_log=[])
    doc["ledger"].update(per_member=[], cooccur=[])
    doc["loop"].update(stall_history=[], reverse_counters=[], solved_at=None)


# the xor seed 7 run breaks at generation 10 and ends at 46; the reversing
# xor seed 1 run breaks at 1 (reversed at 88) and at 90, and ends at 120
UNREACHABLE_STATES = {
    "break-at-the-end": (7, set_break(0, generation=46), "break-log",
                         "break at generation 46 outside 0..45"),
    "reversed-before-the-break": (7, set_break(0, reversed_at=5), "break-log",
                                  "break at generation 10 reversed at 5, outside 10..45"),
    "reversed-at-the-end": (7, set_break(0, reversed_at=46), "break-log",
                            "break at generation 10 reversed at 46, outside 10..45"),
    "breaks-swapped": (1, swap_breaks, "break-log", "break at generation 1 outside 91..119"),
    "break-far-ahead": (1, set_break(1, generation=10**6), "break-log",
                        "break at generation 1000000 outside 2..119"),
    "roster-emptied": (7, empty_roster, "roster-membership", "roster 0 is below roster_size 24"),
    # 46 generations of 30 assemblies tally at most 1,380 counts into a cell
    "counts-past-the-tally": (7, set_counts(10**400, 10**400), "ledger-references",
                              "cooccurrence pair (4,11) holds a negative count or more than 1380 in all"),
    # the loop trims its stall history to window_G (8), starts a reverse
    # counter at 1, solves before the checkpoint and never hands out an id
    # twice; structure 204 is the composite of the standing break, and 834
    # the highest id
    "history-past-the-window": (7, long_history, "ledger-references", "stall_history holds 9 entries, window_G 8"),
    "counter-at-zero": (7, lambda doc: doc["loop"].update(reverse_counters=[[204, 0]]), "break-log",
                        "reverse counter on 204 at 0, below 1"),
    "solved-at-the-end": (7, lambda doc: doc["loop"].update(solved_at=46), "break-log",
                          "solved at generation 46, outside 0..45"),
    "next-id-at-zero": (7, lambda doc: doc["universe"].update(next_id=0), "construction-order",
                        "next_id 0 does not exceed structure id 834"),
}


@pytest.mark.parametrize("case", sorted(UNREACHABLE_STATES))
def test_a_state_the_loop_cannot_reach_fails_one_invariant(capsys, tmp_path, case):
    seed, edit, invariant, fault = UNREACHABLE_STATES[case]
    doc = json.loads((CONFIG_DIR / "xor.json").read_text())
    doc.update(seed=seed, output_dir=str(tmp_path / "runs"))
    if seed == 1:  # the reversing settings
        doc["evolution"].update(
            dependency_delta=0.05, window_G=2, min_cooccur_samples=2, break_warmup=0, max_generations=120
        )
    config = tmp_path / "xor.json"
    config.write_text(json.dumps(doc))
    run_cli(capsys, "run", str(config))
    out = tmp_path / "runs"
    path = out / f"checkpoint-{seed}-final.json"
    ckpt = inline_floats(json.loads(path.read_text()))
    edit(ckpt)
    path.write_text(json.dumps(table_floats(ckpt)))
    fail_line = f"FAIL  {invariant}  ({fault})"
    code, stdout, _ = run_cli(capsys, "verify", str(path))
    assert code == EXIT_VERIFY_FAILED
    assert [line for line in stdout.splitlines() if not line.startswith("pass  ")] == [fail_line]
    before = sorted(p.name for p in out.iterdir())
    code, stdout, err = run_cli(capsys, "resume", str(path))
    assert (code, stdout, err.splitlines()) == (EXIT_VERIFY_FAILED, "", [fail_line])
    assert sorted(p.name for p in out.iterdir()) == before


class TestInspectCommand:
    def test_text_and_json_formats(self, config_path, capsys, tmp_path):
        run_cli(capsys, "run", str(config_path))
        ckpt = str(tmp_path / "runs" / "checkpoint-0-final.json")
        code, out, _ = run_cli(capsys, "inspect", ckpt)
        assert code == EXIT_OK and "generation: 4" in out
        code, out, _ = run_cli(capsys, "inspect", ckpt, "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["generation"] == 4


    @pytest.mark.parametrize("command", ["verify", "inspect", "resume"])
    def test_a_ghost_roster_member_fails_verify(self, config_path, capsys, tmp_path, command):
        run_cli(capsys, "run", str(config_path))
        path = tmp_path / "runs" / "checkpoint-0-final.json"
        doc = json.loads(path.read_text())
        doc["population"]["members"].append(99999)
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, str(path))
        assert code == EXIT_VERIFY_FAILED
        lines = (out if command == "verify" else err).splitlines()
        assert "FAIL  roster-membership  (member 99999 not in universe)" in lines
        if command != "verify":
            assert out == ""
            assert all(line.startswith("FAIL") for line in lines)


class TestVerifyCommand:
    def test_healthy_checkpoint_passes(self, config_path, capsys, tmp_path):
        run_cli(capsys, "run", str(config_path))
        ckpt = str(tmp_path / "runs" / "checkpoint-0-final.json")
        code, out, _ = run_cli(capsys, "verify", ckpt)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 9
        assert all(line.startswith("pass") for line in lines)

    @pytest.mark.parametrize("tag", ["o1:" + "9" * 5000, "c1:" + "9" * 5000], ids=["offspring", "clone"])
    @pytest.mark.parametrize("command", ["verify", "inspect", "resume"])
    def test_a_lineage_id_longer_than_any_file_integer_names_no_parent(self, capsys, tmp_path, command, tag):
        # no file holds an integer of 5,000 digits, so no structure has that
        # id; reading the run as one once crashed every command in int()
        doc = json.loads((CONFIG_DIR / "xor.json").read_text())
        doc.update(seed=7, checkpoint_every=5, output_dir=str(tmp_path / "runs"))
        doc["evolution"]["max_generations"] = 12
        config = tmp_path / "xor.json"
        config.write_text(json.dumps(doc))
        assert run_cli(capsys, "run", str(config))[0] == EXIT_OK
        path = tmp_path / "runs" / "checkpoint-7-gen10.json"
        ckpt = json.loads(path.read_text())
        next(row for row in ckpt["universe"]["structures"] if row[1] == 1)[3] = tag
        path.write_text(json.dumps(ckpt))
        assert "lineage-strata" in [r.name for r in verify(load_checkpoint(path)).results if r.passed]
        code, _, err = run_cli(capsys, command, str(path))
        assert (code, "Traceback" in err) == (EXIT_OK, False)

    @pytest.mark.parametrize("command", ["verify", "inspect"])
    def test_a_reader_that_left_ends_the_command_quietly(self, config_path, capsys, tmp_path, monkeypatch, command):
        # `sosage verify ckpt | true`: the pipe's reader is gone before the first write
        run_cli(capsys, "run", str(config_path))
        ckpt = str(tmp_path / "runs" / "checkpoint-0-final.json")

        def gone(text):
            raise BrokenPipeError(32, "Broken pipe")

        captured = sys.stdout
        monkeypatch.setattr(sys, "stdout", captured)  # put back after main points it at devnull
        monkeypatch.setattr(captured, "write", gone)
        code = main([command, ckpt])
        assert code == EXIT_BROKEN_PIPE == 141
        assert capsys.readouterr().err == ""
        assert sys.stdout is not captured and sys.stdout.name == os.devnull
        sys.stdout.close()

    @pytest.mark.parametrize("command", ["verify", "inspect"])
    def test_a_pipe_closed_before_the_start_ends_the_process_quietly(self, config_path, capsys, tmp_path, command):
        # the same in a real process, whose stdout to a pipe is buffered as a
        # shell's is and flushed again at exit: no error line and no
        # traceback may follow the 141
        run_cli(capsys, "run", str(config_path))
        ckpt = str(tmp_path / "runs" / "checkpoint-0-final.json")
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "sosage.cli", command, ckpt], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (EXIT_BROKEN_PIPE, b"")

    def test_corrupted_checkpoint_fails(self, config_path, capsys, tmp_path):
        run_cli(capsys, "run", str(config_path))
        path = tmp_path / "runs" / "checkpoint-0-final.json"
        ckpt = load_checkpoint(path)
        ckpt.state.pop.members.append(31337)
        save_checkpoint(path, ckpt)
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == EXIT_VERIFY_FAILED
        assert any(line.startswith("FAIL  roster-membership") for line in out.splitlines())

    @pytest.mark.parametrize("command", ["verify", "inspect", "resume"])
    def test_dependency_on_an_unknown_id_fails_verify(self, config_path, capsys, tmp_path, command):
        run_cli(capsys, "run", str(config_path))
        path = tmp_path / "runs" / "checkpoint-0-gen2.json"
        doc = json.loads(path.read_text())
        member = doc["population"]["members"][0]
        doc["universe"]["depends"].append([99999, member, 1])
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, str(path))
        assert code == EXIT_VERIFY_FAILED
        lines = (out if command == "verify" else err).splitlines()
        assert f"FAIL  dependency-order-gap  (dependency (99999,{member}) references unknown structure)" in lines
        assert "error" not in err

    @pytest.mark.parametrize("command", ["verify", "inspect", "resume"])
    def test_malformed_checkpoint_is_usage_error(self, capsys, tmp_path, command):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"format": CHECKPOINT_FORMAT}))
        code, out, err = run_cli(capsys, command, str(path))
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: malformed checkpoint")

    @pytest.mark.parametrize("command", ["verify", "inspect", "resume"])
    def test_checkpoint_with_a_loose_scalar_is_usage_error(self, config_path, capsys, tmp_path, command):
        # each of these once loaded and passed every invariant (a lone
        # payload item failed only verify), or is the v5 spelling of a float;
        # a float is edited in the floats table, at the entry its slot names
        def first_weight(doc, value):
            row = next(r for r in doc["universe"]["structures"] if r[1] == 1)
            doc["floats"][row[4][0]] = value

        def first_sample(doc, value):
            doc["floats"][doc["ledger"]["per_member"][0][1][0]] = value

        def payload_item(doc, value):
            # a primitive row [id, 1, [], tag, value], the genome's entries
            # dropped from the table
            inline = inline_floats(doc)
            next(r for r in inline["universe"]["structures"] if r[1] == 1)[4:] = [value]
            doc.update(table_floats(inline))

        def set_key(*path):
            def edit(doc, value):
                for key in path[:-1]:
                    doc = doc[key]
                doc[path[-1]] = value
            return edit

        overflow = "OVERFLOW"  # written as the JSON number 1e400, which reads as inf
        edits = [
            (first_weight, float("nan")),
            (first_sample, float("inf")),
            (set_key("floats", -1), overflow),
            (first_weight, "0.5"),
            (first_sample, "-0.5"),
            (first_sample, 0),
            (set_key("generation"), "7"),
            (set_key("generation"), 7.9),
            (set_key("generation"), True),
            (set_key("generation"), -3),
            (set_key("generation"), 10**6),
            (set_key("population", "pop_order_n"), 1.5),
            (set_key("population", "members", 0), "21"),
            (set_key("ledger", "pending"), {}),
            (payload_item, "not a genome"),
        ]
        run_cli(capsys, "run", str(config_path))
        out_dir = tmp_path / "runs"
        source = json.loads((out_dir / "checkpoint-0-gen2.json").read_text())
        path = tmp_path / "edited.json"
        for edit, value in edits:
            doc = json.loads(json.dumps(source))
            edit(doc, value)
            path.write_text(json.dumps(doc).replace(f'"{overflow}"', "1e400"))
            before = sorted(p.name for p in out_dir.iterdir())
            code, out, err = run_cli(capsys, command, str(path))
            assert code == EXIT_USAGE, (edit, value)
            assert out == "" and err.startswith("error: malformed checkpoint") and err.count("\n") == 1
            assert sorted(p.name for p in out_dir.iterdir()) == before

    @pytest.mark.parametrize("command", ["verify", "inspect", "resume"])
    def test_version_2_checkpoint_is_usage_error(self, config_path, capsys, tmp_path, command):
        run_cli(capsys, "run", str(config_path))
        out_dir = tmp_path / "runs"
        path = out_dir / "checkpoint-0-final.json"
        text = path.read_text()

        def v8_layout(doc):
            # a v9 file keyed the ledger tables and the reverse counters by
            # decimal ids, and wrote each break event as an object with its
            # level; a v8 file also wrote each output weight beside its slot,
            # and the activation
            doc = v10_to_v9(doc)
            for row in doc["universe"]["structures"]:
                if row[1] == 1:
                    row[5:] = [list(map(list, enumerate(row[5]))), "tanh"]
            return doc

        v9 = v10_to_v9(json.loads(text))
        v8 = v8_layout(json.loads(text))
        v8["format"] = "sosage-checkpoint-v8"
        # a v7 file also kept a pending-levels table in the ledger
        v7 = json.loads(json.dumps(v8))
        v7["format"] = "sosage-checkpoint-v7"
        v7["ledger"]["pending"] = {}
        # a v6 file wrote each float in its slot
        v6 = v8_layout(inline_floats(json.loads(text)))
        v6["format"] = "sosage-checkpoint-v6"
        v6["ledger"]["pending"] = {}
        # a v5 file wrote each structure row as an object and each float as a
        # "%.17g" string
        v5 = json.loads(json.dumps(v6))
        v5["format"] = "sosage-checkpoint-v5"
        rows = v5["universe"]["structures"]
        for i, (sid, order, constituents, tag, *genome) in enumerate(rows):
            rows[i] = {"id": sid, "order": order, "constituents": constituents, "tag": tag}
            if genome:
                in_weights, out_targets, activation = genome
                rows[i]["payload"] = {
                    "in_weights": ["%.17g" % w for w in in_weights],
                    "out_targets": [[slot, "%.17g" % w] for slot, w in out_targets],
                    "activation": activation,
                }
        ledger = v5["ledger"]
        ledger["per_member"] = {k: ["%.17g" % v for v in samples] for k, samples in ledger["per_member"].items()}
        ledger["cooccur"] = {
            k: [bc, "%.17g" % bt, sc, "%.17g" % st] for k, (bc, bt, sc, st) in ledger["cooccur"].items()
        }
        v5["loop"]["stall_history"] = ["%.17g" % v for v in v5["loop"]["stall_history"]]
        # a v4 file also listed every interaction edge, low id first
        v4 = json.loads(json.dumps(v5))
        v4["format"] = "sosage-checkpoint-v4"
        v4["universe"]["interacts"] = [list(e) for e in load_checkpoint(path).state.universe.interaction_edges()]
        # a v3 file wrote each co-occurrence cell as an object
        v3 = json.loads(json.dumps(v4))
        v3["format"] = "sosage-checkpoint-v3"
        v3["ledger"]["cooccur"] = {
            key: {"with_both": cell[:2], "with_x_only": cell[2:]} for key, cell in v4["ledger"]["cooccur"].items()
        }
        # a v2 file also carried the settings that v3 reads from the config
        v2 = json.loads(json.dumps(v3))
        v2["format"] = "sosage-checkpoint-v2"
        v2["ledger"]["top_m"] = v2["config"]["evolution"]["top_m"]
        v2["population"]["population_limit"] = v2["config"]["population_limit"]
        for doc in (v2, v3, v4, v5, v6, v7, v8, v9):
            path.write_text(json.dumps(doc))
            before = sorted(p.name for p in out_dir.iterdir())
            code, out, err = run_cli(capsys, command, str(path))
            assert code == EXIT_USAGE
            assert out == "" and err == "error: not a sosage-checkpoint-v10 document\n"
            assert sorted(p.name for p in out_dir.iterdir()) == before

    @pytest.mark.parametrize("command", ["verify", "inspect", "resume"])
    def test_interaction_edges_beside_the_structures_are_usage_error(self, config_path, capsys, tmp_path, command):
        # v4's universe.interacts under the v10 marker: the relation is derived, never read
        run_cli(capsys, "run", str(config_path))
        out_dir = tmp_path / "runs"
        path = out_dir / "checkpoint-0-gen2.json"
        doc = json.loads(path.read_text())
        doc["universe"]["interacts"] = [list(e) for e in load_checkpoint(path).state.universe.interaction_edges()]
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        before = sorted(p.name for p in out_dir.iterdir())
        code, out, err = run_cli(capsys, command, str(edited))
        assert code == EXIT_USAGE
        assert out == "" and err == "error: malformed checkpoint: ValueError: universe.interacts: unknown key\n"
        assert sorted(p.name for p in out_dir.iterdir()) == before

    @pytest.mark.parametrize("command", ["verify", "inspect", "resume"])
    def test_settings_beside_the_config_are_usage_error(self, config_path, capsys, tmp_path, command):
        # the v2 settings in a v3 file: once ignored, so verify and resume exited 0
        run_cli(capsys, "run", str(config_path))
        out_dir = tmp_path / "runs"
        doc = json.loads((out_dir / "checkpoint-0-gen2.json").read_text())
        doc["ledger"]["top_m"] = 1
        doc["population"]["population_limit"] = 3
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        before = sorted(p.name for p in out_dir.iterdir())
        code, out, err = run_cli(capsys, command, str(path))
        assert code == EXIT_USAGE
        assert out == "" and err.startswith("error: malformed checkpoint") and "unknown key" in err
        assert sorted(p.name for p in out_dir.iterdir()) == before


    @pytest.mark.parametrize("command", ["verify", "inspect", "resume"])
    def test_a_generation_beyond_the_digit_limit_is_usage_error(self, config_path, capsys, tmp_path, command):
        run_cli(capsys, "run", str(config_path))
        out_dir = tmp_path / "runs"
        text, edits = re.subn(r'"generation":\d+', '"generation":' + "9" * 5000,
                              (out_dir / "checkpoint-0-gen2.json").read_text())
        assert edits == 1
        path = tmp_path / "edited.json"
        path.write_text(text)
        before = sorted(p.name for p in out_dir.iterdir())
        code, out, err = run_cli(capsys, command, str(path))
        assert code == EXIT_USAGE
        assert out == "" and err == f"error: {path}: an integer has more than 4300 digits\n"
        assert sorted(p.name for p in out_dir.iterdir()) == before

    @pytest.mark.parametrize("command", ["verify", "inspect", "resume"])
    def test_a_key_written_twice_is_usage_error(self, config_path, capsys, tmp_path, command):
        # json alone keeps the last value, and the file would load and verify
        run_cli(capsys, "run", str(config_path))
        out_dir = tmp_path / "runs"
        text, edits = re.subn(r'"generation":2\b', '"generation":3,"generation":2',
                              (out_dir / "checkpoint-0-gen2.json").read_text())
        assert edits == 1
        assert verify(checkpoint_from_json_dict(json.loads(text))).passed
        path = tmp_path / "edited.json"
        path.write_text(text)
        before = sorted(p.name for p in out_dir.iterdir())
        code, out, err = run_cli(capsys, command, str(path))
        assert code == EXIT_USAGE
        assert out == "" and err == f"error: {path}: key 'generation' appears twice in one object\n"
        assert sorted(p.name for p in out_dir.iterdir()) == before

    @pytest.mark.parametrize("command", ["verify", "inspect", "resume"])
    def test_a_generation_past_the_budget_is_usage_error(self, config_path, capsys, tmp_path, command):
        # a final checkpoint is written at the budget at most; this one once
        # verified, and resume wrote checkpoint-0-from1000000-final.json
        run_cli(capsys, "run", str(config_path))
        out_dir = tmp_path / "runs"
        doc = json.loads((out_dir / "checkpoint-0-final.json").read_text())
        assert doc["generation"] == doc["config"]["evolution"]["max_generations"] == 4
        doc["generation"] = 10**6
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        before = sorted(p.name for p in out_dir.iterdir())
        code, out, err = run_cli(capsys, command, str(path))
        assert code == EXIT_USAGE
        assert out == "" and err == (
            "error: malformed checkpoint: ValueError: generation 1000000 is outside 0..max_generations 4\n"
        )
        assert sorted(p.name for p in out_dir.iterdir()) == before

    @pytest.mark.parametrize("command", ["verify", "inspect", "resume"])
    @pytest.mark.parametrize("output_dir", ["a\0b", "\ud800x"])
    def test_an_embedded_output_dir_no_path_can_hold_is_usage_error(
        self, config_path, capsys, tmp_path, command, output_dir
    ):
        run_cli(capsys, "run", str(config_path))
        out_dir = tmp_path / "runs"
        doc = json.loads((out_dir / "checkpoint-0-gen2.json").read_text())
        doc["config"]["output_dir"] = output_dir
        # the digest matches, so only the output_dir rule can refuse the file
        canonical = json.dumps(doc["config"], sort_keys=True, separators=(",", ":"))
        doc["config_digest"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        before = sorted(p.name for p in out_dir.iterdir())
        code, out, err = run_cli(capsys, command, str(path))
        assert code == EXIT_USAGE
        assert out == "" and err == "error: output_dir: must not contain NUL or a lone surrogate\n"
        assert sorted(p.name for p in out_dir.iterdir()) == before


class TestSweepCommand:
    def test_sweep_prints_summary_path(self, config_path, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "sweep", str(config_path), "--seeds", "2")
        assert code == EXIT_OK
        summary = Path(out.strip().splitlines()[-1])
        assert summary.name == "sweep-summary.csv"
        assert len(summary.read_text().splitlines()) == 3

    def test_sweep_crossing_64_bits_writes_nothing(self, config_path, capsys, tmp_path):
        doc = json.loads(config_path.read_text())
        doc["seed"] = 2 ** 64 - 2
        config_path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "sweep", str(config_path), "--seeds", "3")
        assert code == EXIT_USAGE
        assert out == "" and err == "error: seed: must be an unsigned 64-bit integer\n"
        assert not (tmp_path / "runs").exists()

    def test_sweep_require_solve(self, config_path, capsys):
        code, _, _ = run_cli(capsys, "sweep", str(config_path), "--seeds", "2", "--require-solve")
        assert code == EXIT_UNSOLVED
