"""Run the workloads over several seeds and print each end-to-end metric's
median and spread, as the bounds in BENCHMARK.json are checked.

    python3 perfbench/spread.py --seeds 100 109 --out .perfbench-spread/a.jsonl
    python3 perfbench/spread.py --seeds 200 209 --out .perfbench-spread/b.jsonl \\
        --against .perfbench-spread/a.jsonl

Every workload of BENCHMARK.json runs for its ``run_seconds``, and the
workloads are interleaved: each seed runs every workload once before the
next seed, so a slow spell of the host is shared out among them. The spread is the
distance between the first and third quartile (``statistics.quantiles(n=4)``)
as a share of the median. Every run's result line is appended to ``--out``
(JSON lines) with its wall time and probe-loop diagnostics; ``--against``
compares the medians with an earlier file of the same form and prints how
far each moved in its worse direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def medians_and_spreads(results: list[dict], names: list[str]) -> dict[str, tuple[float, float]]:
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = (median, (q3 - q1) / median)
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()

    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        for workload in workloads:
            t0 = time.monotonic()
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            wall = time.monotonic() - t0
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            results[workload].append(result)
            with open(args.out, "a", encoding="utf-8") as f:
                f.write(json.dumps({"workload": workload, "seed": seed, "wall_s": round(wall, 2),
                                    "diagnostics": lines[:-1], "result": result}) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} wall {wall:.1f} s", flush=True)

    before = None
    if args.against:
        rows = [json.loads(line) for line in args.against.read_text().splitlines()]
    for workload in workloads:
        print(f"== {workload}")
        if args.against:
            before = medians_and_spreads(
                [r["result"] for r in rows if r["workload"] == workload], list(metrics))
        for name, (median, spread) in medians_and_spreads(results[workload], list(metrics)).items():
            m = metrics[name]
            line = (f"{name:20s} median {median:12.6g} {m['unit']:6s} spread {spread:6.1%}  "
                    f"bound {m['bound']:.2f}")
            if before is not None:
                moved = median / before[name][0] - 1.0
                worse = moved if m["better"] == "lower" else -moved
                line += f"  worse by {worse:+.1%}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
