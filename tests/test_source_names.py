"""Source rules over `src/`: retired names and forms that must not come
back, and the module layering, which lists the imports a module may not make.

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
# a line that imports a sosage module, relatively or by the package name
SOSAGE_IMPORT = r"(from|import)\s+(\.|sosage\b)"

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
    # a primitive row is its genome, [id, 1, [], tag, in_weights,
    # out_weights]: the writer refuses any other payload, so neither the
    # reader of a one-item payload nor the writer of one may come back
    "one-primitive-row-shape": [(r"_payload_from_row|for verify to report", "sosage/checkpoint.py")],
    # the reader decodes and verify judges: the stall window, the reverse
    # counters' floor, the solve before the checkpoint and next_id above
    # every id are invariants, so none of them may come back into the reader
    "reader-decodes-only": [
        (r"window_G|is below 1|is not a generation before|does not exceed every structure id", "sosage/checkpoint.py"),
    ],
    # harness refuses a state that fails verify before it resumes or
    # summarizes it, and the CLI only prints the VerifyFailed it catches;
    # neither the CLI's own gate nor a second reading of verify's failures
    # may come back into cli.py
    "verify-gate-in-harness": [(r"_load_verified|\.failures\(\)", "sosage/cli.py")],
    # harness admits a checkpoint built in Python through one gate, which
    # re-reads its config, holds its generation to the codec's rule and
    # verifies it, and the loop driver takes one checkpoint; neither the
    # verify-only gate nor the driver's fresh-or-given fork may come back
    "one-admission-gate": [(r"_refuse_unverified|start_generation|Optional\[LoopState\]", "sosage/harness.py")],
    # module layering: config, checkpoint and invariants sit below harness,
    # so none of them may import harness or cli
    "config-checkpoint-invariants-below-harness": [
        (r"^\s*(from|import)\s.*\b(harness|cli)\b", f"sosage/{name}.py")
        for name in ("config", "checkpoint", "invariants")
    ],
    # config reads and bounds every setting, env params too: the env layer
    # validates nothing, so ValidationError cannot move back into envs.py
    "envs-validate-nothing": [(word("ValidationError"), "sosage/envs.py")],
    # the algebra sits below the roster: hyperstruct imports no sosage
    # module but errors, and population none but errors and hyperstruct
    "hyperstruct-imports-only-errors": [
        (rf"^\s*(?!from\s+(\.|sosage\.)errors\s+import\s){SOSAGE_IMPORT}", "sosage/hyperstruct.py"),
    ],
    "population-imports-only-errors-and-hyperstruct": [
        (rf"^\s*(?!from\s+(\.|sosage\.)(errors|hyperstruct)\s+import\s){SOSAGE_IMPORT}", "sosage/population.py"),
    ],
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
    found = failed_checks(tmp_path, "harness", text)
    assert bool(found) is hit, found


LAYERS = "config-checkpoint-invariants-below-harness"
HYPERSTRUCT = "hyperstruct-imports-only-errors"
POPULATION = "population-imports-only-errors-and-hyperstruct"


@pytest.mark.parametrize("module, text, check", [
    ("config", "from .harness import run", LAYERS),
    ("invariants", "import sosage.cli", LAYERS),
    ("envs", "raise ValidationError(field)", "envs-validate-nothing"),
    ("hyperstruct", "from .errors import SosageError", None),
    ("hyperstruct", "from sosage.errors import SosageError", None),
    ("hyperstruct", "from . import errors", HYPERSTRUCT),
    ("hyperstruct", "    from .population import Population", HYPERSTRUCT),
    ("population", "from .hyperstruct import Structure, Universe", None),
    ("population", "from .symbio import NeuronGene", POPULATION),
    ("population", "import sosage.errors", POPULATION),
])
def test_layering_rules_allow_only_the_imports_they_name(tmp_path, module, text, check):
    assert failed_checks(tmp_path, module, text) == ([check] if check else [])


def failed_checks(tmp_path: Path, module: str, text: str) -> list[str]:
    """The checks that fail on a tree whose one source file,
    sosage/<module>.py, holds the line `text`."""
    (tmp_path / "sosage").mkdir()
    (tmp_path / "sosage" / f"{module}.py").write_text(text + "\n")
    return [name for name, check in CHECKS.items() if matches(check, tmp_path)]


@pytest.mark.parametrize("text", [
    "def _payload_from_row(rest: list, floats: _FloatTable) -> Any:",
    "        if s.order == 1:  # a payload that is no genome is one item, written as it is for verify to report",
])
@pytest.mark.parametrize("module, checks", [("checkpoint", ["one-primitive-row-shape"]), ("invariants", [])])
def test_the_one_item_payload_row_is_caught_in_checkpoint_only(tmp_path, text, module, checks):
    assert failed_checks(tmp_path, module, text) == checks


@pytest.mark.parametrize("text", [
    '        raise ValueError(f"stall_history holds {len(history)} entries, more than window_G {evo.window_G}")',
    '        raise ValueError(f"reverse counter {min(counters.values())} is below 1")',
    '        raise ValueError(f"solved_at {solved_at} is not a generation before {generation}")',
    '        raise ValueError(f"next_id {u.next_id} does not exceed every structure id")',
])
@pytest.mark.parametrize("module, checks", [("checkpoint", ["reader-decodes-only"]), ("invariants", [])])
def test_a_state_rule_is_caught_in_checkpoint_only(tmp_path, text, module, checks):
    assert failed_checks(tmp_path, module, text) == checks


@pytest.mark.parametrize("text", [
    "def _load_verified(path: str) -> Optional[Checkpoint]:",
    "    failures = verify(ckpt).failures()",
])
@pytest.mark.parametrize("module, checks", [("cli", ["verify-gate-in-harness"]), ("harness", [])])
def test_the_verify_gate_is_caught_in_cli_only(tmp_path, text, module, checks):
    assert failed_checks(tmp_path, module, text) == checks


@pytest.mark.parametrize("text", [
    "def _refuse_unverified(ckpt: Checkpoint) -> None:",
    "    state: Optional[LoopState],",
    "    start_generation: int,",
])
@pytest.mark.parametrize("module, checks", [("harness", ["one-admission-gate"]), ("symbio", [])])
def test_the_admission_gate_is_caught_in_harness_only(tmp_path, text, module, checks):
    assert failed_checks(tmp_path, module, text) == checks
