"""The benchmark's per-layer trace still reaches the program.

``perfbench/tracing.py`` rebinds module attributes of sosage from outside
(``harness.write_metrics_row``, ``harness.run_symbiosis`` and others). A
refactor that stops looking one of them up at call time would leave
``perfbench/run.py --trace 1`` silently reporting zeros; this test runs the
XOR reference config under the tracer instead.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from sosage import harness
from sosage.harness import OUTPUT_DIR_ENV, load_config, run
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
