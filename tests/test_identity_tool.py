"""tools/identity.py, the byte-identity check between two trees, run on a
two-run subset of its matrix so the tool cannot rot."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from test_digests import REVERSING

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "identity.py"


def identity(old: Path, new: Path, *only: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), str(old), str(new), "--only", *only],
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_this_tree_is_byte_identical_to_itself():
    done = identity(ROOT, ROOT, "xor-cap1", "grid-big")
    assert (done.returncode, done.stdout) == (
        0, "64 files compared (22 metrics CSVs, 42 checkpoints): 0 mismatched; 0 of 84 checkpoints fail NEW's verify\n"
    )


def tree_with_xor_config(tmp_path: Path, **changes) -> Path:
    """A tree of this tree's `src` whose configs/xor.json has `changes`."""
    tree = tmp_path / "tree"
    (tree / "configs").mkdir(parents=True)
    (tree / "src").symlink_to(ROOT / "src")
    doc = json.loads((ROOT / "configs" / "xor.json").read_text())
    doc.update(changes)
    (tree / "configs" / "xor.json").write_text(json.dumps(doc))
    return tree


def test_a_changed_setting_is_the_first_mismatch(tmp_path):
    # with max_order 1 no break fires, so population_limit binds nothing: every
    # metrics CSV matches, and every checkpoint differs in its config echo
    tree = tree_with_xor_config(tmp_path, population_limit=49)
    done = identity(ROOT, tree, "xor-cap1")
    assert done.returncode == 1
    assert done.stdout.splitlines() == [
        "62 files compared (21 metrics CSVs, 41 checkpoints): 41 mismatched; 0 of 82 checkpoints fail NEW's verify",
        "first mismatch: runs-xor-cap1/checkpoint-7-final.json at $.config.population_limit",
    ]


def test_a_run_that_fails_stops_the_tool_with_its_output(tmp_path):
    tree = tree_with_xor_config(tmp_path, roster_size=0)
    done = identity(ROOT, tree, "xor-cap1")
    assert (done.returncode, done.stdout) == (1, "")
    assert f"{tree.resolve()}: sosage run xor-cap1.json --seed 7 exited 2:\nerror: roster_size:" in done.stderr


def test_the_first_difference_is_found_in_document_order(tool):
    assert tool.first_difference({"a": [1, 2], "b": 3}, {"a": [1, 2], "b": 3}) is None
    assert tool.first_difference({"a": [1, 2], "b": 3}, {"a": [1, 5], "b": 4}) == "$.a[1]"
    assert tool.first_difference({"a": [1, 2]}, {"a": [1, 2, 3]}) == "$.a[2]"
    assert tool.first_difference({"a": 1}, {"a": 1, "z": 2}) == "$.z"
    assert tool.first_difference({"a": 1}, {"a": 1.0}) == "$.a"


def test_the_matrix_reverses_under_the_pinned_reversing_settings(tool):
    assert tool.REVERSING == REVERSING
