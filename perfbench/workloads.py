"""The benchmark's three workloads, each run as passes of identical work.

A pass always runs the same configs and seeds, so every pass of every run
does the same work, and times are scaled to a fixed host speed
(hostclock.py), so that the host's own swings do not read as the program's.
The benchmark seed only shuffles the order of each pass's seed runs; it
changes nothing on ``ckpt-long``. Seeds within a sweep run very different
amounts of work (xor seed 13 solves at generation 1, seed 15 runs all 300),
so a window of seeds that moved with the benchmark seed would measure the
window, not the program.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Optional

from sosage import harness
from sosage.errors import SosageError

import checks
from hostclock import HostClock

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


@dataclass
class Pass:
    """What one pass measured, in host-scaled seconds (see hostclock.py),
    plus its operation counts, check results and output digests."""

    gens: int = 0
    run_s: float = 0.0  # inside harness.sweep / harness.run
    raw_run_s: float = 0.0  # the same, unscaled
    gen_s: list[float] = field(default_factory=list)
    read_s: float = 0.0  # load_checkpoint + verify
    ckpt_bytes: int = 0
    digests: dict[str, bytes] = field(default_factory=dict)  # output file -> sha256
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)  # operations that raised
    problems: list[str] = field(default_factory=list)  # outputs that failed a check

    def fail(self, operations: int, what: str, error: SosageError) -> None:
        self.failed += operations
        self.errors.append(f"{what}: {type(error).__name__}: {error}")

    def timed_run(self, fn: Callable[[Callable[[str], None]], object]) -> object:
        """Call ``fn(progress)``, which makes one seed run, and record its time
        and each generation's time: the span between the ``progress``
        callbacks of two consecutive generations."""
        clock = HostClock()
        last: Optional[int] = None

        def progress(message: str) -> None:
            nonlocal last
            if not message.startswith("gen "):
                return  # a sweep's per-seed line
            g = int(message[4:message.index(":")])
            span = clock.mark()
            self.gens += 1
            if last == g - 1:
                self.gen_s.append(span)
            last = g

        clock.mark()
        try:
            return fn(progress)
        finally:
            clock.mark()
            self.run_s += clock.scaled_s
            self.raw_run_s += clock.raw_s
            self.problems += clock.problems

    def digest(self, out: Path) -> None:
        for path in sorted(out.rglob("*")):
            if path.is_file():
                self.digests[str(path.relative_to(out))] = hashlib.sha256(path.read_bytes()).digest()


def _config(name: str, seed: int, out: Path, **changes) -> harness.RunConfig:
    config = harness.with_seed(harness.load_config(CONFIGS / name), seed)
    return replace(config, output_dir=str(out), **changes)


def readback(sample: Pass, out: Path, paths: list[Path]) -> None:
    """Load and verify every checkpoint, timing each one."""
    clock = HostClock()
    for path in paths:
        name = str(path.relative_to(out))
        sample.attempted += 1
        sample.ckpt_bytes += path.stat().st_size
        clock.mark()
        try:
            ckpt = harness.load_checkpoint(path)
            report = harness.verify(ckpt)
        except SosageError as e:
            sample.fail(1, name, e)
            continue
        finally:
            sample.read_s += clock.mark()
        if not report.passed:
            sample.problems += [f"{name}: {r.name}: {r.detail}" for r in report.failures()]
        stem = path.stem.rsplit("-gen", 1)
        if len(stem) == 2 and ckpt.generation != int(stem[1]):
            sample.problems.append(f"{name}: holds generation {ckpt.generation}")
    sample.problems += clock.problems


_ARM_DIR = {True: "on", False: "off"}


@dataclass(frozen=True)
class Sweep:
    """``config`` swept over ``seeds``, once per arm (breaks on, breaks off).
    Each seed runs as its own one-seed ``harness.sweep``, so that it writes
    the summary row the checks compare against, and the seed runs of a pass
    are shuffled. ``reference`` maps (arm, seed) to the frozen solve
    generation (None: unsolved)."""

    config: str
    seeds: range
    arms: tuple[bool, ...]
    reference: Mapping[tuple[bool, int], Optional[int]]
    pass_s: float  # wall seconds of one pass, read-back included, on the reference host

    def run_pass(self, out: Path, rng: random.Random, first: bool) -> Pass:
        runs = [(arm, s) for arm in self.arms for s in self.seeds]
        rng.shuffle(runs)
        sample = Pass()
        for arm, s in runs:
            key = f"{_ARM_DIR[arm]}-{s}"
            config = _config(self.config, s, out / key, breaks_enabled=arm)
            sample.attempted += 1
            try:
                sample.timed_run(lambda progress: harness.sweep(config, 1, progress))
            except SosageError as e:
                sample.fail(1, f"seed run {key}", e)
                continue
            sample.problems += checks.check_sweep(
                out / key, s, 1, checks.band(config.env.name, config.env.params),
                config.evolution.max_generations, arm, {s: self.reference[(arm, s)]},
            )
        readback(sample, out, sorted(out.glob("*/checkpoint-*.json")))
        sample.digest(out)
        return sample


# the shipped gridnav_comp config does not solve seed 9 within 150 generations
LONG_SEED = 9
# a fixed late checkpoint, so that the traced counts do not depend on the seed
RESUME_FROM = 95


@dataclass(frozen=True)
class CheckpointLong:
    """One unsolved gridnav-compositional run checkpointed every generation
    and its checkpoints read back; the first pass also replays a resume from
    the checkpoint of generation ``RESUME_FROM``. ``generations`` is 101 so
    that the run has 100 generation times, and so 10 beyond the 90th
    percentile."""

    config: str = "gridnav_comp.json"
    generations: int = 101
    pass_s: float = 20.0

    def run_pass(self, out: Path, rng: random.Random, first: bool) -> Pass:
        config = _config(self.config, LONG_SEED, out, checkpoint_every=1)
        config = replace(config, evolution=replace(config.evolution, max_generations=self.generations))
        sample = Pass()
        sample.attempted += 1
        try:
            report = sample.timed_run(lambda progress: harness.run(config, progress))
        except SosageError as e:
            sample.fail(1, "run", e)
            return sample
        sample.problems += checks.check_rows(
            checks.read_metrics(Path(report.metrics_path)),
            checks.band(config.env.name, config.env.params), None, self.generations,
        )
        paths = sorted(out.glob(f"checkpoint-{LONG_SEED}-*.json"))
        # periodic checkpoints at generations 1 .. generations - 1, and the final one
        if len(paths) != self.generations:
            sample.problems.append(f"{len(paths)} checkpoints, expected {self.generations}")
        readback(sample, out, paths)
        sample.digest(out)
        if first:
            sample.attempted += 1
            try:
                sample.problems += check_resume(out, report, LONG_SEED, RESUME_FROM, self.generations)
            except SosageError as e:
                sample.fail(1, f"resume from {RESUME_FROM}", e)
        return sample


def check_resume(out: Path, report: harness.RunReport, seed: int, start: int, generations: int) -> list[str]:
    """A resume from generation ``start`` must replay the remaining metrics
    rows, the later periodic checkpoints and the final checkpoint byte for
    byte. Raises what ``load_checkpoint`` or ``resume`` raise."""
    later = [out / f"checkpoint-{seed}-gen{g}.json" for g in range(start + 1, generations)]
    digests = [hashlib.sha256(p.read_bytes()).digest() for p in later]
    resumed = harness.resume(harness.load_checkpoint(out / f"checkpoint-{seed}-gen{start}.json"))
    problems = []
    original = Path(report.metrics_path).read_bytes().splitlines(keepends=True)
    replayed = Path(resumed.metrics_path).read_bytes().splitlines(keepends=True)
    if replayed != original[:1] + original[1 + start:]:
        problems.append(f"resume from {start}: metrics rows differ")
    if Path(resumed.checkpoint_path).read_bytes() != Path(report.checkpoint_path).read_bytes():
        problems.append(f"resume from {start}: final checkpoint differs")
    if [hashlib.sha256(p.read_bytes()).digest() for p in later] != digests:
        problems.append(f"resume from {start}: periodic checkpoints differ")
    return problems


WORKLOADS = {
    # acceptance criterion 7's first five seeds, with breaks on and with breaks off
    "gridnav-sweep": Sweep(
        "gridnav_comp.json", range(0, 5), (True, False),
        reference={(True, 0): 75, (True, 1): 0, (True, 2): 37, (True, 3): 95, (True, 4): 1,
                   (False, 0): 54, (False, 1): 0, (False, 2): 37, (False, 3): None, (False, 4): 1},
        pass_s=8.0,
    ),
    # the xor reference run (seed 7, solved at generation 45) and the 9 seeds after it
    "xor-sweep": Sweep(
        "xor.json", range(7, 17), (True,),
        reference={(True, 7): 45, (True, 8): 17, (True, 9): 9, (True, 10): 9, (True, 11): 155,
                   (True, 12): 17, (True, 13): 1, (True, 14): 19, (True, 15): None, (True, 16): 66},
        pass_s=6.5,
    ),
    "ckpt-long": CheckpointLong(),
}
