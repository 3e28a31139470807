"""Byte identity between two source trees over one committed matrix of runs.

    python tools/identity.py OLD_TREE NEW_TREE [--only NAME ...]

Each tree is a checkout of this repository. For each tree, a fresh
interpreter with only that tree's `src` on its path drives the matrix in
process through `sosage.cli.main`: every run, then a resume from every
periodic checkpoint. Both sides run in their own work directory with the same
relative output directories, so the config echo in each checkpoint is the
same. The tool hashes every metrics CSV and checkpoint of both sides, runs
NEW's `verify` on every checkpoint of both, and prints the number of files
compared and the first mismatch, with its JSON path or CSV line. It exits 0
when every file is byte-identical and every checkpoint passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, NamedTuple, Optional, Sequence

# the break settings under which xor also reverses breaks
REVERSING = {"dependency_delta": 0.05, "window_G": 2, "min_cooccur_samples": 2, "break_warmup": 0}


class Entry(NamedTuple):
    """Runs of one config from a tree's `configs/`, one per seed, with the
    overrides given by config section."""

    name: str
    config: str
    seeds: tuple[int, ...]
    checkpoint_every: int
    evolution: dict = {}
    problem: dict = {}
    top: dict = {}


MATRIX = (
    Entry("xor", "xor.json", (1, 7, 13), 5),
    Entry("xor-rev", "xor.json", (1, 3), 5, evolution={**REVERSING, "max_generations": 120}),
    Entry("grid", "gridnav_comp.json", (0, 9), 1),
    Entry("xor-r2", "xor.json", (0, 1, 2), 5, problem={"base_solver_order_r": 2}),
    Entry("xor-cap1", "xor.json", (7,), 5, top={"max_order": 1}),
    Entry("xor-big", "xor.json", (2**32, 2**40 + 3, 2**64 - 1), 5, evolution={"max_generations": 60}),
    Entry("grid-big", "gridnav_comp.json", (2**32 + 7,), 3, evolution={"max_generations": 40}),
    # breaks off: the stall gate never opens, so each unsolved generation tallies after compaction
    Entry("grid-off", "gridnav_comp.json", (3,), 5, top={"breaks_enabled": False}),
    Entry("xor-off", "xor.json", (7,), 5, top={"breaks_enabled": False}),
)
ENTRIES = {e.name: e for e in MATRIX}

OUTPUT_DIR_ENV = "SOSAGE_OUTPUT_DIR"  # a set output directory would override the runs' own


# ---------------------------------------------------------------------------
# one tree's side, in its own interpreter
# ---------------------------------------------------------------------------

def _import_cli(tree: Path):
    """The tree's `sosage.cli`, refused when `sosage` comes from elsewhere."""
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    from sosage import cli

    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"sosage imported from {cli.__file__}, not from {src}")
    return cli


def _main_quietly(cli, argv: list[str]) -> tuple[int, str]:
    """`cli.main(argv)` with its output captured: its exit code, and what it
    printed to stdout and then to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def _drive(tree: Path, work: Path, names: Sequence[str]) -> dict[str, str]:
    """Run the named entries and their resumes in `work`, and return the
    sha256 of every file they wrote, by path relative to `work`."""
    cli = _import_cli(tree)
    os.chdir(work)
    runs = []
    for entry in map(ENTRIES.__getitem__, names):
        doc = json.loads((tree / "configs" / entry.config).read_text(encoding="utf-8"))
        doc.update(entry.top, output_dir=f"runs-{entry.name}", checkpoint_every=entry.checkpoint_every)
        doc["evolution"].update(entry.evolution)
        doc["problem"].update(entry.problem)
        Path(f"{entry.name}.json").write_text(json.dumps(doc), encoding="utf-8")
        runs += [["run", f"{entry.name}.json", "--seed", str(seed)] for seed in entry.seeds]
    for argv in runs:
        _must_pass(tree, cli, argv)
    for path in sorted(Path(".").glob("runs-*/checkpoint-*-gen*.json")):  # the periodic ones
        _must_pass(tree, cli, ["resume", str(path)])
    return {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path(".").glob("runs-*/*"))}


def _must_pass(tree: Path, cli, argv: list[str]) -> None:
    code, printed = _main_quietly(cli, argv)
    if code != 0:
        tail = "".join(printed.splitlines(keepends=True)[-20:])
        raise SystemExit(f"{tree}: sosage {' '.join(argv)} exited {code}:\n{tail}")


def _verify(tree: Path, dirs: Sequence[Path]) -> dict[str, str]:
    """`sosage verify` of the tree on every checkpoint under `dirs`: what it
    printed on each one that fails, by path."""
    cli = _import_cli(tree)
    failed = {}
    for path in sorted(p for d in dirs for p in d.glob("runs-*/checkpoint-*.json")):
        code, printed = _main_quietly(cli, ["verify", str(path)])
        if code != 0:
            failed[str(path)] = printed
    return failed


def _side(mode: str, tree: Path, *args: str) -> Any:
    """Run `mode` in a fresh interpreter that sees no PYTHONPATH, user site
    or output-directory override and writes no bytecode into the tree, and
    return what it printed, as JSON."""
    env = {k: v for k, v in os.environ.items() if k != OUTPUT_DIR_ENV}
    done = subprocess.run(
        [sys.executable, "-I", "-B", str(Path(__file__).resolve()), mode, str(tree), *args],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{mode} of {tree} exited {done.returncode}")
    return json.loads(done.stdout)


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------

def first_difference(a: Any, b: Any, path: str = "$") -> Optional[str]:
    """The JSON path of the first value, in document order, where `a` and
    `b` differ, or None when they are equal."""
    if type(a) is not type(b):
        return path
    if isinstance(a, dict):
        for key in [*a, *(k for k in b if k not in a)]:
            if key not in a or key not in b:
                return f"{path}.{key}"
            if (found := first_difference(a[key], b[key], f"{path}.{key}")) is not None:
                return found
        return None
    if isinstance(a, list):
        for i, (x, y) in enumerate(zip(a, b)):
            if (found := first_difference(x, y, f"{path}[{i}]")) is not None:
                return found
        return None if len(a) == len(b) else f"{path}[{min(len(a), len(b))}]"
    return None if a == b else path


def _where(old: Path, new: Path) -> str:
    """Where two differing files first differ: a JSON path or a CSV line."""
    if old.suffix == ".json":
        at = first_difference(json.loads(old.read_bytes()), json.loads(new.read_bytes()))
        return f"at {at}" if at is not None else "in bytes only (the JSON values are equal)"
    lines = zip(old.read_bytes().splitlines(), new.read_bytes().splitlines())
    line = next((n for n, (x, y) in enumerate(lines, 1) if x != y), None)
    return f"at line {line}" if line is not None else "in length"


def compare(old_tree: Path, new_tree: Path, names: Sequence[str]) -> int:
    """Drive the named entries on both trees and report; 0 when identical."""
    with tempfile.TemporaryDirectory(prefix="sosage-identity-") as tmp:
        old_work, new_work = Path(tmp, "old"), Path(tmp, "new")
        old_work.mkdir()
        new_work.mkdir()
        old = _side("_drive", old_tree, str(old_work), *names)
        new = _side("_drive", new_tree, str(new_work), *names)
        failed = _side("_verify", new_tree, str(old_work), str(new_work))
        paths = sorted(old.keys() | new.keys())
        mismatched = [p for p in paths if old.get(p) != new.get(p)]
        checkpoints = sum(p.endswith(".json") for p in paths)
        print(f"{len(paths)} files compared ({len(paths) - checkpoints} metrics CSVs, {checkpoints} checkpoints): "
              f"{len(mismatched)} mismatched; {len(failed)} of {2 * checkpoints} checkpoints fail NEW's verify")
        if mismatched:
            p = mismatched[0]
            where = (f"only in {'NEW' if p in new else 'OLD'}" if p not in old or p not in new
                     else _where(old_work / p, new_work / p))
            print(f"first mismatch: {p} {where}")
        for path, out in failed.items():
            print(f"verify fails on {Path(path).relative_to(tmp)}:\n{out}", end="")
    return 0 if not mismatched and not failed else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["_drive"]:
        print(json.dumps(_drive(Path(argv[1]), Path(argv[2]), argv[3:])))
        return 0
    if argv[:1] == ["_verify"]:
        print(json.dumps(_verify(Path(argv[1]), [Path(d) for d in argv[2:]])))
        return 0
    parser = argparse.ArgumentParser(prog="identity", description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree", type=Path)
    parser.add_argument("new_tree", type=Path)
    parser.add_argument("--only", nargs="+", choices=list(ENTRIES), default=list(ENTRIES),
                        help="run these matrix entries only")
    args = parser.parse_args(argv)
    return compare(args.old_tree.resolve(), args.new_tree.resolve(), args.only)


if __name__ == "__main__":
    sys.exit(main())
