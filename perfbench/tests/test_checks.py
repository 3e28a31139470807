"""The benchmark's output checks catch tampered metrics CSVs and checkpoints.

    python3 -m pytest perfbench/tests
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from sosage import harness

import checks
import workloads

GRIDNAV_PARAMS = harness.load_config(workloads.CONFIGS / "gridnav_comp.json").env.params


def rows(*best: float, order: int = 1, breaks: int = 0) -> list[checks.Row]:
    return [checks.Row(g, b, order, breaks) for g, b in enumerate(best)]


def test_gridnav_band_from_params():
    band = checks.gridnav_band(GRIDNAV_PARAMS)
    # 5x5 grid: route (0,0) -> subgoal (0,4) -> goal (4,4) is 8 steps, max_steps 50
    assert band.lo == pytest.approx(1.0)
    assert band.hi == pytest.approx(1.42)
    assert band.below == pytest.approx(0.0)


@pytest.mark.parametrize(
    "series, solve, problem",
    [
        ((-0.5, 0.0, 1.3), 2, None),
        ((-0.5, -0.5), None, None),
        ((-0.5, 1.3, 1.3), 2, "first row in the solve band is 1"),
        ((-0.5, 0.2, 1.3), 2, "above the no-solve bound"),
        ((-0.5, 0.0, 1.43), 2, "first row in the solve band is None"),
        ((-0.5, 0.0, 1.3, 1.3), 2, "4 rows, expected 3"),
    ],
)
def test_gridnav_rows(series, solve, problem):
    band = checks.gridnav_band(GRIDNAV_PARAMS)
    found = checks.check_rows(rows(*series), band, solve, max_generations=2)
    if problem is None:
        assert found == []
    else:
        assert any(problem in p for p in found), found


def test_breaks_off_rows():
    summary = checks.SummaryRow(0, True, 1, 1, 0)
    assert checks.check_breaks_off(rows(0.0, 1.3), summary) == []
    assert checks.check_breaks_off(rows(0.0, 1.3, order=2, breaks=1), summary)
    assert checks.check_breaks_off(rows(0.0, 1.3), replace(summary, breaks=1))


@pytest.fixture(scope="module")
def xor_sweep(tmp_path_factory) -> Path:
    """Seeds 7 and 8 of the xor config, which solve at generations 45 and 17."""
    out = tmp_path_factory.mktemp("xor")
    config = workloads._config("xor.json", 7, out)
    config = replace(config, evolution=replace(config.evolution, max_generations=60))
    harness.sweep(config, 2)
    return out


def sweep_problems(out: Path) -> list[str]:
    return checks.check_sweep(out, 7, 2, checks.XOR_BAND, 60, True, {7: 45})


def copy_sweep(src: Path, dst: Path) -> Path:
    for p in src.iterdir():
        (dst / p.name).write_bytes(p.read_bytes())
    return dst


def test_untouched_sweep_passes(xor_sweep):
    assert sweep_problems(xor_sweep) == []


def test_tampered_metrics_row_is_caught(xor_sweep, tmp_path):
    out = copy_sweep(xor_sweep, tmp_path)
    metrics = out / "metrics-7.csv"
    lines = metrics.read_text().splitlines(keepends=True)
    fields = lines[11].split(",")
    fields[1] = "4.000000"
    lines[11] = ",".join(fields)
    metrics.write_text("".join(lines))
    assert any("first row in the solve band is 10" in p for p in sweep_problems(out))


def test_tampered_summary_is_caught(xor_sweep, tmp_path):
    out = copy_sweep(xor_sweep, tmp_path)
    summary = out / "sweep-summary.csv"
    summary.write_text(summary.read_text().replace("7,true,45,", "7,true,44,"))
    found = sweep_problems(out)
    assert any("summary says 44" in p for p in found)
    assert any("frozen 45" in p for p in found)


def test_truncated_metrics_is_caught(xor_sweep, tmp_path):
    out = copy_sweep(xor_sweep, tmp_path)
    metrics = out / "metrics-8.csv"
    metrics.write_text("".join(metrics.read_text().splitlines(keepends=True)[:-1]))
    assert any("seed 8" in p for p in sweep_problems(out))


@pytest.fixture(scope="module")
def checkpointed(tmp_path_factory):
    """Six unsolved xor generations, checkpointed after every one."""
    out = tmp_path_factory.mktemp("ckpt")
    config = replace(workloads._config("xor.json", 7, out), checkpoint_every=1)
    config = replace(config, evolution=replace(config.evolution, max_generations=6))
    return out, harness.run(config)


def readback_problems(paths: list[Path]) -> list[str]:
    sample = workloads.Pass()
    workloads.readback(sample, paths[0].parent, paths)
    assert sample.attempted == len(paths)
    return sample.problems


def test_untouched_checkpoints_pass(checkpointed):
    out, report = checkpointed
    paths = sorted(out.glob("checkpoint-7-*.json"))
    assert len(paths) == 6
    assert readback_problems(paths) == []
    assert workloads.check_resume(out, report, 7, 3, 6) == []


def tampered(src: Path, dst: Path, edit) -> Path:
    doc = json.loads(src.read_text())
    edit(doc)
    dst.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return dst


def test_checkpoint_with_unknown_member_is_caught(checkpointed, tmp_path):
    out, _ = checkpointed
    path = tampered(out / "checkpoint-7-gen2.json", tmp_path / "checkpoint-7-gen2.json",
                    lambda doc: doc["population"]["members"].__setitem__(0, 10 ** 6))
    assert any("roster-membership" in p for p in readback_problems([path]))


def test_checkpoint_with_wrong_generation_is_caught(checkpointed, tmp_path):
    out, _ = checkpointed
    path = tampered(out / "checkpoint-7-gen2.json", tmp_path / "checkpoint-7-gen2.json",
                    lambda doc: doc.__setitem__("generation", 3))
    assert any("holds generation 3" in p for p in readback_problems([path]))


def test_checkpoint_with_edited_config_is_caught(checkpointed, tmp_path):
    out, _ = checkpointed
    path = tampered(out / "checkpoint-7-gen2.json", tmp_path / "checkpoint-7-gen2.json",
                    lambda doc: doc["config"].__setitem__("roster_size", 23))
    sample = workloads.Pass()
    workloads.readback(sample, tmp_path, [path])
    assert sample.failed == 1


def test_resume_against_tampered_final_checkpoint_is_caught(checkpointed, tmp_path, monkeypatch):
    out, report = checkpointed
    copy = copy_sweep(out, tmp_path)
    monkeypatch.setenv(harness.OUTPUT_DIR_ENV, str(copy))
    final = copy / "checkpoint-7-final.json"
    tampered(final, final, lambda doc: doc["loop"].__setitem__("solved_at", 5))
    report = replace(report, metrics_path=str(copy / "metrics-7.csv"), checkpoint_path=str(final))
    assert workloads.check_resume(copy, report, 7, 3, 6) == ["resume from 3: final checkpoint differs"]


def test_pass_that_writes_other_bytes_is_caught(xor_sweep, tmp_path):
    first, second = workloads.Pass(), workloads.Pass()
    first.digest(xor_sweep)
    out = copy_sweep(xor_sweep, tmp_path)
    metrics = out / "metrics-8.csv"
    metrics.write_text(metrics.read_text().replace("\n", "\r\n"))
    (out / "checkpoint-7-final.json").unlink()
    second.digest(out)
    assert checks.check_same_outputs(first.digests, first.digests) == []
    assert checks.check_same_outputs(first.digests, second.digests) == [
        "checkpoint-7-final.json: differs from the first pass",
        "metrics-8.csv: differs from the first pass",
    ]
