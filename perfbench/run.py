"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload gridnav-sweep --seed 0 --seconds 30 --trace 0

Run from the root of a sosage source tree. With ``--trace 0`` the run makes
as many passes of the workload as fit in ``--seconds`` on the reference host
(at least one; see workloads.py and ``OVERHEAD_S``) and prints the
end-to-end metrics of BENCHMARK.json, with every time scaled to a fixed
host speed (hostclock.py). With ``--trace 1`` it makes one pass untraced
and one traced and prints the per-layer metrics, including the tracing
overhead. The last stdout line is the JSON
result; lines starting with ``#`` before it are diagnostics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostclock  # this directory is on sys.path, as the script's own

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# no worker threads: numpy's BLAS pool is not needed by anything measured
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# outputs go to the run's own temporary directory, never to an inherited one
os.environ.pop("SOSAGE_OUTPUT_DIR", None)

SETUP_PROBES = 7
PROBE_LOOP = 300_000
# wall seconds of a run outside its passes on the reference host: interpreter
# start, the set-up probes and the probe loops
OVERHEAD_S = 4.0


def probe_loop_ms() -> float:
    """Median of five timings of a fixed pure-Python loop; it rises when the
    host is slow, so a set of runs made during a slow spell can be told apart."""
    return statistics.median(hostclock.probe_s(PROBE_LOOP) for _ in range(5)) * 1000.0


def setup_seconds(config: Path, seed: int) -> float:
    """Interpreter start to initial state, in a fresh child interpreter,
    scaled by the host probes taken just before and after it."""
    before = hostclock.probe_s()
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(config), str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return hostclock.scale(float(done.stdout.split()[-1]) - t0, before, hostclock.probe_s())


def run_passes(workload, rng: random.Random, count: int) -> list:
    passes = []
    # every pass writes to the same relative path (the working directory is
    # the run's scratch directory), since checkpoints embed the output directory
    pass_dir = Path("pass")
    for i in range(count):
        t0 = time.perf_counter()
        pass_dir.mkdir()
        try:
            passes.append(workload.run_pass(pass_dir, rng, first=i == 0))
        finally:
            shutil.rmtree(pass_dir)
        print(f"# pass {i} wall_s {time.perf_counter() - t0:.2f}", flush=True)
    return passes


def gens_per_s(passes) -> float:
    return sum(p.gens for p in passes) / sum(p.run_s for p in passes)


def end_to_end(passes, setups: list[float]) -> dict[str, float]:
    gen_ms = [t * 1000.0 for p in passes for t in p.gen_s]
    return {
        "setup_s": statistics.median(setups),
        "gens_per_s": gens_per_s(passes),
        "gen_ms.p50": statistics.median(gen_ms),
        "gen_ms.p90": statistics.quantiles(gen_ms, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ckpt_bytes_per_gen": passes[0].ckpt_bytes / passes[0].gens,
        "readback_s": statistics.mean(p.read_s for p in passes),
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still removes its scratch directory and set-up probe
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "sosage" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: {ROOT} holds no sosage source tree (src/sosage, configs)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import sosage

    if not Path(sosage.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported sosage from {sosage.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    import checks
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    config = workloads.CONFIGS / workload.config
    print(f"# probe_loop_ms before {probe_loop_ms():.2f}", flush=True)
    out_root = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    os.chdir(out_root)
    try:
        if args.trace:
            # both passes run the seed runs in the same order
            plain = run_passes(workload, random.Random(args.seed), 1)
            with tracing.traced(tracing.Tracer()) as tracer:
                traced = run_passes(workload, random.Random(args.seed), 1)
            passes = plain + traced
            metrics = tracer.metrics()
            metrics["trace.overhead_frac"] = gens_per_s(plain) / gens_per_s(traced) - 1.0
            wanted = spec["per_layer"]
        else:
            # the count depends on --seconds only, so every run does the same work
            count = max(1, round((args.seconds - OVERHEAD_S) / workload.pass_s))
            # probe set-up on both sides of the passes, so a slow spell on one
            # side does not decide the median
            setups = [setup_seconds(config, args.seed) for _ in range(SETUP_PROBES // 2)]
            passes = run_passes(workload, random.Random(args.seed), count)
            setups += [setup_seconds(config, args.seed) for _ in range(SETUP_PROBES - len(setups))]
            metrics = end_to_end(passes, setups)
            wanted = spec["end_to_end"]
    finally:
        os.chdir(ROOT)
        shutil.rmtree(out_root)
    print(f"# probe_loop_ms after {probe_loop_ms():.2f}", flush=True)
    raw_s = sum(p.raw_run_s for p in passes)
    print(f"# passes {len(passes)} gens {sum(p.gens for p in passes)} run_s {raw_s:.3f} unscaled, "
          f"{sum(p.run_s for p in passes):.3f} scaled; unscaled gens_per_s "
          f"{sum(p.gens for p in passes) / raw_s:.2f}", flush=True)

    if sorted(metrics) != sorted(m["name"] for m in wanted):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    # an operation that raised counts in `failed`; `correct` covers the outputs
    # of the operations that completed, and every pass must write the same bytes
    problems = [p for s in passes for p in s.problems]
    problems += [p for s in passes[1:] for p in checks.check_same_outputs(passes[0].digests, s.digests)]
    for line in [f"failed: {e}" for s in passes for e in s.errors] + [f"check failed: {p}" for p in problems]:
        print(f"# {line}", flush=True)
    result = {
        "correct": not problems,
        "attempted": sum(s.attempted for s in passes),
        "failed": sum(s.failed for s in passes),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
