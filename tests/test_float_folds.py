"""Metrics bytes that do not depend on the interpreter's sum().

CPython 3.12 changed the builtin sum() of floats to compensated (Neumaier)
summation, so code that totals floats with sum() writes different metrics
on 3.12 and later than on 3.10 and 3.11. sosage totals floats with plain
left-to-right folds instead. These checks put an emulation of 3.12's sum()
into every sosage module's namespace and run the pinned reference runs
under it. The emulation is checked here against documented 3.12 results
only; no numpy-equipped 3.12 interpreter runs this suite.
"""

from __future__ import annotations

import importlib
import math
import pkgutil
import statistics
from dataclasses import replace

import pytest

import sosage
from sosage.config import load_config, with_seed
from sosage.harness import OUTPUT_DIR_ENV, run

from test_acceptance import (
    COMP_FROZEN_DISABLED_MEDIAN,
    COMP_FROZEN_DISABLED_SOLVES,
    COMP_FROZEN_ENABLED_MEDIAN,
    COMP_FROZEN_ENABLED_SOLVES,
)
from test_digests import CONFIG_DIR, GRIDNAV_COMP, XOR_SEED_7, metrics_digest


def compensated_sum(iterable, start=0):
    """CPython 3.12's builtin sum() on ints and floats: exact integer adds
    until the total turns float, then Neumaier's compensated summation."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for x in items:
            total = total + x
            if type(total) is not int:
                break
    if type(total) is not float:
        for x in items:
            total = total + x
        return total
    c = 0.0
    for x in items:
        if type(x) is float:
            t = total + x
            c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        else:
            total += float(x)
    return total + c if c and math.isfinite(c) else total


@pytest.fixture
def sum_of_python_312(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    for info in pkgutil.iter_modules(sosage.__path__):
        module = importlib.import_module(f"sosage.{info.name}")
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)


def test_emulation_matches_documented_312_results():
    # "sum([0.1] * 10) == 1.0" is the example of the 3.12 release notes
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1e100, 1.0, -1e100, 1.0]) == 2.0
    assert compensated_sum([1, 2, 3]) == 6 and type(compensated_sum([1, 2])) is int
    assert compensated_sum([]) == 0
    assert compensated_sum([-0.01] * 3) == -0.03


def test_pinned_digests_hold(tmp_path, sum_of_python_312):
    xor = replace(load_config(CONFIG_DIR / "xor.json"), output_dir=str(tmp_path / "xor"))
    assert metrics_digest(xor) == XOR_SEED_7
    base = load_config(CONFIG_DIR / "gridnav_comp.json")
    for (seed, breaks), digest in sorted(GRIDNAV_COMP.items()):
        config = replace(
            with_seed(base, seed), output_dir=str(tmp_path / "grid"), breaks_enabled=breaks
        )
        assert metrics_digest(config) == digest, (seed, breaks)


def test_criterion_7_values_hold(tmp_path, sum_of_python_312):
    base = load_config(CONFIG_DIR / "gridnav_comp.json")
    budget = base.evolution.max_generations
    stats = {}
    for enabled in (True, False):
        reports = [
            run(replace(with_seed(base, seed), output_dir=str(tmp_path), breaks_enabled=enabled))
            for seed in range(20)
        ]
        stats[enabled] = (
            statistics.median(r.generations_to_solve if r.solved else budget for r in reports),
            sum(r.solved for r in reports),
        )
    assert stats == {
        True: (COMP_FROZEN_ENABLED_MEDIAN, COMP_FROZEN_ENABLED_SOLVES),
        False: (COMP_FROZEN_DISABLED_MEDIAN, COMP_FROZEN_DISABLED_SOLVES),
    }
