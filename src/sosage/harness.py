"""Running experiments: runs, resumes and sweeps, metrics files, the inspect summary.

Everything here is deterministic plumbing around the symbiosis loop. A config,
seed included, fully determines the metrics CSV and checkpoint bytes;
resuming a checkpoint replays the exact continuation of the original run.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, TextIO

from .checkpoint import Checkpoint, checked_generation, save_checkpoint
from .config import RunConfig, _as_int, config_from_dict, config_to_json_dict, make_env, with_seed
from .errors import SosageError, ValidationError, VerifyFailed
from .invariants import verify
from .symbio import GenerationRow, LoopState, new_loop_state, run_symbiosis

# perfbench calls and rebinds these two as harness attributes; nothing here uses them
from .checkpoint import load_checkpoint; from .config import load_config

METRICS_HEADER = ",".join(f.name for f in fields(GenerationRow))
# field name -> format spec of its column; floats keep six decimals
_ROW_FORMATS = {f.name: ".6f" if f.type == "float" else "" for f in fields(GenerationRow)}
OUTPUT_DIR_ENV = "SOSAGE_OUTPUT_DIR"


@dataclass(frozen=True)
class RunReport:
    generations_to_solve: Optional[int]
    final_pop_order: int
    metrics_path: str
    checkpoint_path: str
    break_events: int

    @property
    def solved(self) -> bool:
        return self.generations_to_solve is not None


def resolve_output_dir(config: RunConfig) -> Path:
    out = Path(os.environ.get(OUTPUT_DIR_ENV) or config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_metrics_header(sink: TextIO) -> None:
    sink.write(METRICS_HEADER + "\n")
    sink.flush()

def write_metrics_row(sink: TextIO, row: GenerationRow) -> None:
    cells = (format(getattr(row, name), spec) for name, spec in _ROW_FORMATS.items())
    sink.write(",".join(cells) + "\n")
    sink.flush()


def build_state(config: RunConfig) -> LoopState:
    return new_loop_state(make_env(config.env.name, config.env.params), config)


def _as_read(config: RunConfig) -> RunConfig:
    """`config` as its file form would read: env params filled, a bad setting
    refused by name with ValidationError."""
    return config_from_dict(config_to_json_dict(config))


def _admit(ckpt: Checkpoint) -> Checkpoint:
    """`ckpt` held to its file's rules, before any directory or file is made:
    its config re-read, its generation held to the codec's rule, then its state
    verified under both, a failure refused with VerifyFailed."""
    config = _as_read(ckpt.config)
    try:
        generation = checked_generation(ckpt.generation, config)
    except (TypeError, ValueError) as e:
        raise SosageError(str(e)) from e
    ckpt = Checkpoint(config=config, generation=generation, state=ckpt.state)
    if failures := verify(ckpt).failures():
        raise VerifyFailed(failures)
    return ckpt


def _drive(ckpt: Checkpoint, suffix: str, progress: Optional[Callable[[str], None]]) -> RunReport:
    """Run the loop on `ckpt`'s state from its generation, into the metrics CSV
    and final checkpoint named by the seed and `suffix`. `ckpt` is a fresh one
    from `run` or one `_admit` let in, so its config reads as its file would."""
    config, state = ckpt.config, ckpt.state
    out_dir = resolve_output_dir(config)
    env = make_env(config.env.name, config.env.params)
    seed = config.seed
    metrics_path = out_dir / f"metrics-{seed}{suffix}.csv"
    final_path = out_dir / f"checkpoint-{seed}{suffix}-final.json"

    def on_row(row) -> None:
        write_metrics_row(sink, row)
        if progress is not None:
            progress(
                f"gen {row.generation}: best {row.best_fitness:.4f} "
                f"mean {row.mean_fitness:.4f} order {row.pop_order} "
                f"breaks {row.breaks_so_far}"
            )

    def on_checkpoint(generation: int, st: LoopState) -> None:
        save_checkpoint(
            out_dir / f"checkpoint-{seed}-gen{generation}.json",
            Checkpoint(config=config, generation=generation, state=st),
        )

    with open(metrics_path, "w", encoding="utf-8", newline="") as sink:
        write_metrics_header(sink)
        next_generation = run_symbiosis(env, config, state, ckpt.generation, on_row, on_checkpoint)
    save_checkpoint(final_path, Checkpoint(config=config, generation=next_generation, state=state))
    return RunReport(
        generations_to_solve=state.solved_at,
        final_pop_order=state.pop.pop_order_n,
        metrics_path=str(metrics_path),
        checkpoint_path=str(final_path),
        break_events=len(state.pop.break_log),
    )


def run(config: RunConfig, progress: Optional[Callable[[str], None]] = None) -> RunReport:
    """Execute a fresh run: metrics CSV, periodic checkpoints, final checkpoint.
    The config is re-read as its file form would be before any file is made."""
    config = _as_read(config)
    return _drive(Checkpoint(config=config, generation=0, state=build_state(config)), "", progress)


def resume(ckpt: Checkpoint, progress: Optional[Callable[[str], None]] = None) -> RunReport:
    """Continue a checkpointed run. `_admit` refuses a bad setting, generation
    or state first, before any directory or file is made. The metrics CSV and
    the final checkpoint go to from-generation suffixed files, so the original
    run's stay intact. The periodic checkpoints keep the original run's names:
    each one after the resume point is written again, with the same bytes, as
    the replay is exact."""
    ckpt = _admit(ckpt)
    return _drive(ckpt, f"-from{ckpt.generation}", progress)


SWEEP_HEADER = "seed,solved,generations_to_solve,final_pop_order,breaks"


def sweep(
    config: RunConfig, n_seeds: int, progress: Optional[Callable[[str], None]] = None
) -> tuple[list[RunReport], str]:
    """Run n_seeds consecutive seeds starting at the config seed and write a
    one-row-per-seed summary CSV."""
    if _as_int(n_seeds, "seeds") < 1:
        raise ValidationError("seeds", "must be >= 1")
    config = _as_read(config)  # read as run reads it, before any file
    base = config.seed
    with_seed(config, base + n_seeds - 1)  # the largest seed, refused before any file is written
    out_dir = resolve_output_dir(config)
    reports: list[RunReport] = []
    summary_path = out_dir / "sweep-summary.csv"
    with open(summary_path, "w", encoding="utf-8", newline="") as sink:
        sink.write(SWEEP_HEADER + "\n")
        for i in range(n_seeds):
            cfg = with_seed(config, base + i)
            report = run(cfg, progress)
            reports.append(report)
            gts = "" if report.generations_to_solve is None else report.generations_to_solve
            sink.write(
                f"{base + i},{str(report.solved).lower()},{gts},"
                f"{report.final_pop_order},{report.break_events}\n"
            )
            sink.flush()
            if progress is not None:
                progress(f"seed {base + i}: solved={report.solved} breaks={report.break_events}")
    return reports, str(summary_path)


def summarize_checkpoint(ckpt: Checkpoint) -> dict:
    """The inspect payload: population order, strata, break table, top scores.
    `_admit` holds `ckpt` to its file's rules first, as `resume` does."""
    ckpt = _admit(ckpt)
    u = ckpt.state.universe
    pop = ckpt.state.pop
    strata: dict[int, list[int]] = {}
    for m in pop.members:
        strata.setdefault(u.structural_order(m), []).append(m)
    scored = [[m, s] for m, s in ckpt.state.ledger.ranked(pop.members, ckpt.config.evolution.top_m) if s is not None]
    return {
        "generation": ckpt.generation,
        "pop_order": pop.pop_order_n,
        "roster_size": len(pop.members),
        "strata": {str(order): sorted(members) for order, members in sorted(strata.items())},
        "breaks": [asdict(e) for e in pop.break_log],
        "top_scores": scored[:5],
        "solved_at": ckpt.state.solved_at,
    }


def format_summary_text(summary: Mapping[str, Any]) -> str:
    lines = [
        f"generation: {summary['generation']}",
        f"pop_order: {summary['pop_order']}",
        f"roster_size: {summary['roster_size']}",
        "strata:",
    ]
    for order, members in summary["strata"].items():
        shown = ", ".join(str(m) for m in members)
        lines.append(f"  order {order}: {len(members)} members [{shown}]")
    lines.append("breaks:")
    if not summary["breaks"]:
        lines.append("  (none)")
    else:
        lines.append("  generation  dependent  dependee  composite  reversed")
        for e in summary["breaks"]:
            reversed_mark = "-" if e["reversed_at"] is None else str(e["reversed_at"])
            lines.append(
                f"  {e['generation']:<11} {e['dependent']:<10} {e['dependee']:<9} "
                f"{e['composite']:<10} {reversed_mark}"
            )
    lines.append("top scores:")
    if not summary["top_scores"]:
        lines.append("  (none)")
    for m, s in summary["top_scores"]:
        lines.append(f"  {m}: {s:.6f}")
    solved = summary["solved_at"]
    lines.append(f"solved_at: {'-' if solved is None else solved}")
    return "\n".join(lines) + "\n"
