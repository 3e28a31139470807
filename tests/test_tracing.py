"""The benchmark's per-layer trace still reaches the program.

``perfbench/tracing.py`` rebinds module attributes of sosage from outside
(``harness.write_metrics_row``, ``harness.run_symbiosis`` and others). A
refactor that stops looking one of them up at call time would leave
``perfbench/run.py --trace 1`` silently reporting zeros; these tests run the
XOR reference config under the tracer, and the unmodified benchmark against
the tree.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from sosage import harness
from sosage.config import load_config
from sosage.harness import OUTPUT_DIR_ENV, run
from test_digests import XOR_SEED_7

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    return tracing


def test_traced_xor_reference_run(tmp_path, tracing):
    config = replace(load_config(ROOT / "configs" / "xor.json"), output_dir=str(tmp_path))
    original = harness.write_metrics_row
    with tracing.traced(tracing.Tracer()) as tracer:
        report = run(config)
    assert harness.write_metrics_row is original
    metrics = Path(report.metrics_path).read_bytes()
    assert hashlib.sha256(metrics).hexdigest() == XOR_SEED_7
    generations = len(metrics.splitlines()) - 1
    assert tracer.calls["harness.write_metrics_row"] == generations
    assert tracer.calls["symbio.run_symbiosis"] == 1
    assert tracer.calls["harness.save_checkpoint"] == 1
    assert tracer.metrics()["symbio.net_forward.calls"] > 0
    # every rollout step goes through the traced forward pass and env methods
    assert tracer.calls["symbio.net_forward"] == tracer.calls["envs.observation"] \
        == tracer.calls["envs.step"] > 0


def test_traced_gridnav_steps_reach_every_layer(tmp_path, tracing):
    config = load_config(ROOT / "configs" / "gridnav_comp.json")
    config = replace(config, output_dir=str(tmp_path),
                     evolution=replace(config.evolution, max_generations=3))
    with tracing.traced(tracing.Tracer()) as tracer:
        run(config)
    assert tracer.calls["symbio.net_forward"] == tracer.calls["envs.observation"] \
        == tracer.calls["envs.step"] > tracer.calls["symbio.evaluate"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_the_benchmark_runs_against_the_tree(trace):
    """A name the benchmark reads from ``harness`` that is missing fails here,
    not first in a benchmark run; a traced run must reach each rebound name."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ckpt-long", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stdout
    if trace:
        for name in ("harness.save_checkpoint.calls", "harness.load_checkpoint.self_ms",
                     "harness.verify.self_ms", "harness.write_metrics_row.self_ms"):
            assert result["metrics"][name]["value"] > 0, name
