"""Retired names and forms that must not come back into the sources.

Each check is a list of regular expressions, read as `grep -E` reads them,
each with the glob of the Python files under `src/` it scans. A check fails
on every source line one of its patterns matches, and names that line.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def word(pattern: str) -> str:
    """`pattern` as `grep -w` matches it: not inside a longer word."""
    return rf"(?<!\w)(?:{pattern})(?!\w)"


ALL = "**/*.py"

# name -> [(pattern, glob of the files under src/ it scans), ...]
CHECKS = {
    # every draw is a sosage.rng.Stream method over words sosage computes
    # itself; numpy's draw algorithms, the retired batch sampler and numpy
    # itself must not come back into src/
    "no-numpy": [
        (word("Generator|default_rng|samples_without_replacement"), ALL),
        (re.escape(".choice("), ALL),
        (r"^\s*(import\s+numpy|from\s+numpy)\b", ALL),
    ],
    # the generated kernel is the only forward path; the general loops it
    # replaced must not come back into src/
    "no-second-forward-path": [(word("_general_forward|_forward_neuron|FORWARD_KERNEL_CAP"), ALL)],
    # interaction edges are derived from the structures and the dependency
    # edges, and Universe.is_emergent holds the one emergence rule; neither
    # caller-declared interactions nor a second rule may come back into src/
    "no-declared-interactions": [(r"declare_interaction|declared_interactions|def emergent\b", ALL)],
    # a neuron is its weights: a tanh unit whose output weight k feeds
    # output k, so neither slot numbers nor a second activation may come
    # back into src/
    "no-output-slots": [(r'out_targets|\.activation|"step"', ALL)],
    # checkpoint tables are rows whose ids are JSON integers, and a break
    # event's level follows from its composite's order; neither the
    # decimal-key readers nor a stored level may come back into src/
    "no-decimal-id-keys": [(word("_id_key|_pair_key|_PAIR_KEY|level_observed"), ALL)],
    # every failure is a SosageError, and a subclass exists only where a
    # caller catches it by type or reads a field from it; the classes that
    # nothing caught must not come back into src/
    "no-uncaught-error-subclasses": [(word(
        "UnknownStructure|EmptyConstituents|OrderGapViolation|NotComposite|OrderCapExceeded"
        "|EmptyPopulation|PreconditionViolated|NotAComposite|AlreadyReversed|RosterTooSmall"
        "|DimensionMismatch|UnevaluatedAssembly|NoScores|DigestMismatch|InvalidAction"
    ), ALL)],
    # the seed is a RunConfig field, read and echoed as every other
    # setting is; neither a seed kept in EvolutionConfig nor the key
    # arithmetic and echo move that came with it may come back into src/
    "no-seed-special-case": [(r'evolution\.seed|[|-] \{"seed"\}|pop\("seed"\)', ALL)],
    # the loop takes the whole RunConfig and reads its settings itself;
    # neither harness passing settings one by one nor a copy of the
    # problem kept in LoopState may come back into src/
    "loop-reads-the-run-config": [
        (r"\b\w+=config\.", "sosage/harness.py"),
        (r"state\.problem|problem=config\.problem", ALL),
    ],
    # the loop keeps the stall history in LoopState and symbio.stalled
    # reads window_G and min_improvement from the config; a detector
    # object that copies those settings may not come back into src/
    "stall-rule-in-the-loop": [(r"StallDetector|\bdetector\b", ALL)],
    # loop state holds only what the checkpoint writes: the loop and
    # verify read top_m, population_limit and max_order from the
    # RunConfig, can_break takes the order cap as it takes the limit, and
    # observers are an argument of the queries; none of those copies may
    # come back into src/
    "loop-state-holds-no-setting": [
        (r"ledger\.top_m|self\.top_m|pop\.population_limit|population_limit=limit|\.observers\b", ALL),
        (r"universe\.max_order|self\.max_order|u\.max_order|Universe\(max_order", ALL),
    ],
    # a generation's results are values: evaluate returns (fitness, solved)
    # and reads the episode count from the env, an assembly holds only its
    # participants and wiring, and distribute_fitness takes (participants,
    # fitness) pairs; neither results stored on the assembly, nor the
    # refusal of an unevaluated one, nor an episode count passed in may
    # come back into src/
    "generation-results-are-values": [(r"assembly\.(fitness|solved)|has no fitness|episodes: int", ALL)],
}


def matches(check: list[tuple[str, str]], root: Path = SRC) -> list[str]:
    """Every `path:line: text` under `root` that a pattern of `check`
    matches in a file of its glob."""
    found = []
    for pattern, files in check:
        compiled = re.compile(pattern)
        for path in sorted(root.glob(files)):
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
                if compiled.search(line):
                    found.append(f"{path.relative_to(root)}:{n}: {line.strip()}")
    return found


@pytest.mark.parametrize("name", CHECKS)
def test_no_retired_form_in_src(name):
    assert matches(CHECKS[name]) == []


@pytest.mark.parametrize("text, hit", [
    ("x = rng.Generator()", True),
    ("x = rng.GeneratorX()", False),
    ("def emergent_rule(", False),
    ("def emergent(", True),
    ("    import numpy as np", True),
    ("numpy_free = 1", False),
    ("    run(seed=config.seed)", True),
    ("    config = config_from_dict(config_to_json_dict(config))", False),
])
def test_patterns_read_as_grep_reads_them(tmp_path, text, hit):
    (tmp_path / "sosage").mkdir()
    (tmp_path / "sosage" / "harness.py").write_text(text + "\n")
    found = [name for name, check in CHECKS.items() if matches(check, tmp_path)]
    assert bool(found) is hit, found
