"""Output checks that recompute what each run must have written.

The expected values come from the config and the environment's rules as the
README states them, not from sosage's own bookkeeping: a gridnav solve band
is derived from the env params, an xor solve is a perfect 4.0, and the
solve generation recorded in ``sweep-summary.csv`` must be the first row of
the metrics CSV that lies inside that band. Every function returns a list
of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

METRICS_COLUMNS = [
    "generation", "best_fitness", "mean_fitness", "pop_order", "roster_size", "breaks_so_far",
]
SUMMARY_COLUMNS = ["seed", "solved", "generations_to_solve", "final_pop_order", "breaks"]

# metrics rows print fitness with 6 decimals
TOL = 1e-6
XOR_SOLVE = 4.0


@dataclass(frozen=True)
class Row:
    generation: int
    best_fitness: float
    pop_order: int
    breaks_so_far: int


@dataclass(frozen=True)
class SummaryRow:
    seed: int
    solved: bool
    generations_to_solve: Optional[int]
    final_pop_order: int
    breaks: int


def _read_csv(path: Path, columns: list[str]) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != columns:
            raise ValueError(f"{path.name}: header {reader.fieldnames} != {columns}")
        return list(reader)


def read_metrics(path: Path) -> list[Row]:
    return [
        Row(int(r["generation"]), float(r["best_fitness"]), int(r["pop_order"]),
            int(r["breaks_so_far"]))
        for r in _read_csv(path, METRICS_COLUMNS)
    ]


def read_summary(path: Path) -> list[SummaryRow]:
    rows = []
    for r in _read_csv(path, SUMMARY_COLUMNS):
        gts = r["generations_to_solve"]
        rows.append(SummaryRow(
            int(r["seed"]), r["solved"] == "true", int(gts) if gts else None,
            int(r["final_pop_order"]), int(r["breaks"]),
        ))
    return rows


@dataclass(frozen=True)
class Band:
    """Best-fitness values of a solving generation lie in [lo, hi]; a
    generation without a solve scores at most ``below``."""

    lo: float
    hi: float
    below: float

    def solves(self, fitness: float) -> bool:
        return self.lo - TOL <= fitness <= self.hi + TOL


def gridnav_band(params: Mapping[str, float]) -> Band:
    """One episode per evaluation, starting at (0, 0). A solve walks k steps,
    at least the Manhattan route through the subgoal and at most max_steps,
    and is paid goal + subgoal - penalty * k. A miss runs all max_steps
    steps and collects at most the subgoal reward."""
    gx, gy = params["goal_x"], params["goal_y"]
    sx, sy = params["subgoal_x"], params["subgoal_y"]
    penalty, max_steps = params["step_penalty"], params["max_steps"]
    paid = params["goal_reward"] + params["subgoal_reward"]
    shortest = abs(sx) + abs(sy) + abs(gx - sx) + abs(gy - sy)
    return Band(
        lo=paid - penalty * max_steps,
        hi=paid - penalty * shortest,
        below=params["subgoal_reward"] - penalty * max_steps,
    )


# four one-step episodes, each paying 1 or 0
XOR_BAND = Band(lo=XOR_SOLVE, hi=XOR_SOLVE, below=XOR_SOLVE - 1.0)


def band(env_name: str, params: Mapping[str, float]) -> Band:
    """The solve band of the xor or the gridnav-compositional env."""
    return XOR_BAND if env_name == "xor" else gridnav_band(params)


def check_rows(
    rows: list[Row], band: Band, generations_to_solve: Optional[int], max_generations: int
) -> list[str]:
    """The first row in the band is the recorded solve and ends the run;
    every earlier row lies below the band; an unsolved run uses the whole
    generation budget."""
    problems = []
    if [r.generation for r in rows] != list(range(len(rows))):
        problems.append("generations are not 0, 1, 2, ...")
    first = next((r.generation for r in rows if band.solves(r.best_fitness)), None)
    if first != generations_to_solve:
        problems.append(f"first row in the solve band is {first}, summary says {generations_to_solve}")
    for r in rows:
        if r.generation == first:
            break
        if r.best_fitness > band.below + TOL:
            problems.append(f"gen {r.generation}: best {r.best_fitness} above the no-solve bound {band.below}")
            break
    expected_rows = max_generations if generations_to_solve is None else generations_to_solve + 1
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
    return problems


def check_breaks_off(rows: list[Row], summary: SummaryRow) -> list[str]:
    """With breaks disabled the population never leaves order 1."""
    problems = [
        f"gen {r.generation}: pop_order {r.pop_order} breaks {r.breaks_so_far} with breaks off"
        for r in rows if r.pop_order != 1 or r.breaks_so_far != 0
    ][:1]
    if summary.final_pop_order != 1 or summary.breaks != 0:
        problems.append("summary reports a break with breaks off")
    return problems


def check_sweep(
    out_dir: Path, first_seed: int, n_seeds: int, band: Band, max_generations: int,
    breaks_enabled: bool, reference: Mapping[int, int] = {},
) -> list[str]:
    """Check one ``sweep`` output directory; ``reference`` maps seeds to
    frozen solve generations."""
    summary = read_summary(out_dir / "sweep-summary.csv")
    problems = []
    if [s.seed for s in summary] != list(range(first_seed, first_seed + n_seeds)):
        problems.append(f"summary seeds {[s.seed for s in summary]}")
    for s in summary:
        if s.solved != (s.generations_to_solve is not None):
            seed_problems = ["solved flag and generation disagree"]
        else:
            rows = read_metrics(out_dir / f"metrics-{s.seed}.csv")
            seed_problems = check_rows(rows, band, s.generations_to_solve, max_generations)
            if not breaks_enabled:
                seed_problems += check_breaks_off(rows, s)
        if s.seed in reference and s.generations_to_solve != reference[s.seed]:
            seed_problems.append(f"solved at {s.generations_to_solve}, frozen {reference[s.seed]}")
        problems += [f"seed {s.seed}: {p}" for p in seed_problems]
    return problems


def check_same_outputs(first: Mapping[str, bytes], other: Mapping[str, bytes]) -> list[str]:
    """Two passes of the same work must write the same files, byte for byte
    (compared by digest, keyed by path within the pass)."""
    return [f"{name}: differs from the first pass"
            for name in sorted(set(first) | set(other)) if first.get(name) != other.get(name)]
