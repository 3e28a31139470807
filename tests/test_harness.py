"""Config parsing, metrics files, checkpoint round-trips, resume, sweep, and
the structural verifier."""

from __future__ import annotations

import dataclasses
import functools
import io
import itertools
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from sosage import checkpoint
from sosage.checkpoint import (
    CHECKPOINT_FORMAT,
    Checkpoint,
    checked_generation,
    checkpoint_from_json_dict,
    checkpoint_to_json_dict,
    load_checkpoint,
    save_checkpoint,
)
from sosage.cli import EXIT_VERIFY_FAILED, main
from sosage.config import (
    MAX_RETURN_TOTAL,
    RunConfig,
    bounds_text,
    config_digest,
    config_from_dict,
    config_to_json_dict,
    load_config,
    make_env,
    with_seed,
)
from sosage.envs import ENVS, EnvSpec
from sosage.errors import ParseError, SosageError, ValidationError, VerifyFailed
from sosage.harness import (
    METRICS_HEADER,
    OUTPUT_DIR_ENV,
    SWEEP_HEADER,
    build_state,
    format_summary_text,
    resolve_output_dir,
    resume,
    run,
    summarize_checkpoint,
    sweep,
    write_metrics_header,
    write_metrics_row,
)
from sosage.invariants import verify
from sosage.hyperstruct import Universe
from sosage.population import BreakEvent, Population, ProblemSpec, can_break
from sosage.symbio import (
    SAMPLE_RING_FACTOR,
    CooccurCell,
    EvolutionConfig,
    FitnessLedger,
    GenerationRow,
    NeuronGene,
    run_symbiosis,
)

from support import edge_graph, exactly, float_slots, has_cycle, inline_floats, table_floats, v9_to_v10, v10_to_v9
from test_cli import OUTPUT_COUNT_BREAKS, UNREACHABLE_STATES
from test_digests import REVERSING

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

INVARIANT_NAMES = [
    "construction-order",
    "dependency-order-gap",
    "roster-membership",
    "population-order",
    "break-log",
    "ledger-references",
    "genome-shape",
    "lineage-strata",
    "state-compact",
]


@pytest.fixture(autouse=True)
def isolated_output(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)


def base_doc(tmp_path, **over):
    doc = {
        "seed": 0,
        "env": {"name": "xor"},
        "problem": {"problem_order_x": 2, "base_solver_order_r": 1},
        "evolution": {"network_size": 2, "assemblies_per_generation": 3, "max_generations": 6},
        "roster_size": 4,
        "population_limit": 8,
        "output_dir": str(tmp_path / "runs"),
        "checkpoint_every": 2,
    }
    doc.update(over)
    return doc


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    return lines[1:]


class TestConfigParsing:
    def test_minimal_config_fills_defaults(self):
        config = config_from_dict({"env": {"name": "xor"}})
        assert config.roster_size == 24
        assert config.population_limit == 48
        assert config.max_order == 8
        assert config.breaks_enabled and config.reverse_enabled
        assert config.output_dir == "runs"
        assert config.checkpoint_every == 0
        assert config.evolution == EvolutionConfig()
        assert config.problem.problem_order_x == 1
        assert config.env.name == "xor"

    def test_population_limit_defaults_to_double_roster(self):
        config = config_from_dict({"env": {"name": "xor"}, "roster_size": 10})
        assert config.population_limit == 20

    @pytest.mark.parametrize(
        "doc,label",
        [
            ({"env": {"name": "xor"}, "speed": 1}, "speed"),
            ({"env": {"name": "xor", "extra": 1}}, "env.extra"),
            ({"env": {"name": "xor"}, "problem": {"goal_fitness": 1}}, "problem.goal_fitness"),
            ({"env": {"name": "xor"}, "evolution": {"elitism": 2}}, "evolution.elitism"),
            ({"env": {"name": "xor"}, "evolution": {"seed": 2}}, "evolution.seed"),
        ],
    )
    def test_unknown_keys_rejected_with_field_label(self, doc, label):
        with pytest.raises(ValidationError, match=label):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "doc,label",
        [
            ({"env": {"name": "xor"}, "seed": True}, "seed"),
            ({"env": {"name": "xor"}, "roster_size": "big"}, "roster_size"),
            ({"env": {"name": "xor"}, "evolution": {"window_G": 2.5}}, "evolution.window_G"),
            ({"env": {"name": "xor"}, "breaks_enabled": 1}, "breaks_enabled"),
            ({"env": {"name": "xor"}, "evolution": {"mutation_rate": "high"}},
             "evolution.mutation_rate"),
        ],
    )
    def test_wrong_types_rejected(self, doc, label):
        with pytest.raises(ValidationError, match=label):
            config_from_dict(doc)

    def test_integer_accepted_for_float_fields(self):
        config = config_from_dict({"env": {"name": "xor"}, "evolution": {"mutation_rate": 1}})
        assert config.evolution.mutation_rate == 1.0

    def test_env_section_required_and_shaped(self):
        with pytest.raises(ValidationError, match="env.name"):
            config_from_dict({})
        with pytest.raises(ValidationError, match="env"):
            config_from_dict({"env": 3})
        with pytest.raises(ValidationError, match="env.params"):
            config_from_dict({"env": {"name": "xor", "params": 5}})

    @pytest.mark.parametrize(
        "over,label",
        [
            ({"roster_size": 9, "population_limit": 8}, "roster_size"),
            ({"roster_size": 2, "evolution": {"network_size": 3}}, "evolution.network_size"),
            ({"max_order": 1, "problem": {"base_solver_order_r": 2}}, "max_order"),
            ({"checkpoint_every": -1}, "checkpoint_every"),
            ({"roster_size": 0}, "roster_size"),
            ({"output_dir": ""}, "output_dir"),
            ({"evolution": {"elite_fraction": 1.5}}, "evolution.elite_fraction"),
            ({"problem": {"problem_order_x": 0}}, "problem.problem_order_x"),
            ({"evolution": {"w_max": 0.5}}, "evolution.w_max"),
        ],
    )
    def test_cross_field_rules(self, tmp_path, over, label):
        doc = base_doc(tmp_path)
        for key, value in over.items():
            if isinstance(value, dict):
                doc[key] = {**doc.get(key, {}), **value}
            else:
                doc[key] = value
        with pytest.raises(ValidationError, match=label):
            config_from_dict(doc)

    @pytest.mark.parametrize("env,at_cap,past_cap,message", [
        # the structures build_state makes: roster_size * base_solver_order_r
        ({"name": "xor"}, {"roster_size": 100, "problem": {"base_solver_order_r": 100}},
         {"roster_size": 100, "problem": {"base_solver_order_r": 101}},
         "roster_size: times base_solver_order_r exceeds 10000"),
        # the env steps of a generation: assemblies * episodes * max_steps
        ({"name": "xor"}, {"evolution": {"assemblies_per_generation": 250_000}},
         {"evolution": {"assemblies_per_generation": 250_001}},
         "evolution.assemblies_per_generation: times the env's episodes and max_steps exceeds 1000000"),
        ({"name": "gridnav", "params": {"size": 100, "max_steps": 2000}},
         {"evolution": {"assemblies_per_generation": 500}},
         {"evolution": {"assemblies_per_generation": 501}},
         "evolution.assemblies_per_generation: times the env's episodes and max_steps exceeds 1000000"),
    ])
    def test_products_that_size_a_run_are_capped(self, env, at_cap, past_cap, message):
        assert_runnable(config_from_dict({"env": env, "max_order": 200, **at_cap}))
        with pytest.raises(ValidationError, match=exactly(message)):
            config_from_dict({"env": env, "max_order": 200, **past_cap})

    @pytest.mark.parametrize(
        "roster,limit,message",
        [
            (4, 4, "evolution.network_size: must not exceed roster_size"),
            (6, 4, "roster_size: must not exceed population_limit"),
        ],
    )
    def test_network_above_population_limit_fails_on_the_roster_rules(
        self, tmp_path, roster, limit, message
    ):
        """network_size <= roster_size <= population_limit already bounds
        network_size by population_limit; one of those two rules fires."""
        doc = base_doc(tmp_path, roster_size=roster, population_limit=limit,
                       evolution={"network_size": 5})
        with pytest.raises(ValidationError, match=exactly(message)):
            config_from_dict(doc)

    def test_echo_round_trips_exactly(self, tmp_path):
        doc = base_doc(tmp_path, env={"name": "gridnav-compositional", "params": {"size": 6}})
        config = config_from_dict(doc)
        echoed = config_to_json_dict(config)
        assert config_from_dict(echoed) == config
        assert echoed["env"]["params"]["goal_x"] == 5
        assert echoed["env"]["params"]["subgoal_x"] == 0
        assert "break_warmup" in echoed["evolution"]

    def test_load_config_reads_files(self, tmp_path):
        doc = base_doc(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert load_config(path) == config_from_dict(doc)
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        with pytest.raises(ParseError, match="line 2"):
            load_config(bad)
        with pytest.raises(ParseError):
            load_config(tmp_path / "missing.json")

    @pytest.mark.parametrize("name", ["mutation_sigma", "dependency_delta", "w_max", "min_improvement"])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), 10**400, -10**400])
    def test_non_finite_numbers_rejected(self, name, value):
        with pytest.raises(ValidationError, match=f"evolution.{name}: must be a finite number"):
            config_from_dict({"env": {"name": "xor"}, "evolution": {name: value}})

    def test_infinity_literal_rejected_from_file(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text('{"env": {"name": "xor"}, "evolution": {"w_max": Infinity}}')
        with pytest.raises(ValidationError, match="evolution.w_max"):
            load_config(path)

    @pytest.mark.parametrize("loader", [load_config, load_checkpoint])
    def test_unreadable_text_is_a_parse_error(self, tmp_path, loader):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        with pytest.raises(ParseError, match="nested too deeply"):
            loader(deep)
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"{\xff}")
        with pytest.raises(ParseError, match="cannot read"):
            loader(binary)

    @pytest.mark.parametrize("loader", [load_config, load_checkpoint])
    def test_an_integer_beyond_the_digit_limit_is_a_parse_error(self, tmp_path, loader):
        # json.loads refuses it with a plain ValueError, not a JSONDecodeError
        path = tmp_path / "long.json"
        path.write_text('{"seed": ' + "1" * 5000 + "}")
        with pytest.raises(ParseError, match="digits"):
            loader(path)

    @pytest.mark.parametrize("output_dir", ["a\0b", "\ud800x", "runs/\udfff"])
    def test_an_output_dir_no_path_can_hold_is_refused(self, output_dir):
        with pytest.raises(ValidationError, match="^output_dir: must not contain NUL or a lone surrogate$"):
            config_from_dict({"env": {"name": "xor"}, "output_dir": output_dir})


# every setting by its config label
SETTINGS = {
    prefix + f.name: f
    for cls, prefix in ((RunConfig, ""), (ProblemSpec, "problem."), (EvolutionConfig, "evolution."))
    for f in dataclasses.fields(cls) if f.type in ("int", "float", "bool", "str")
}
LONGEST = int("9" * 4300)  # the longest integer literal a file can hold
MEMORY_BUDGET = 64 * 2**20  # bytes build_state may allocate for any config that loads


def edges(f):
    """(value, inside) for each end of a field's bounds and for the value
    one step past it: the next integer, or the next float."""
    def step(end, way):
        return end + way if f.type == "int" else math.nextafter(end, way * math.inf)

    found = []
    # key, the way out of the bounds from its end, whether the end is inside
    for key, out, closed in (("low", -1, True), ("above", -1, False), ("high", 1, True), ("below", 1, False)):
        if key in f.metadata:
            end = f.metadata[key]
            # past a closed end lies outside; one step in from an open end, inside
            found += [(end, closed), (step(end, out if closed else -out), not closed)]
    return found


EDGE_CASES = [
    (label, value, inside)
    for label, f in SETTINGS.items() if f.metadata
    for value, inside in edges(f) + ([(LONGEST, False), (-LONGEST, False)] if f.type == "int" else [])
]


def edge_id(case):
    label, value, _ = case
    return f"{label}={'-' * (value < 0)}4300-digits" if abs(value) == LONGEST else f"{label}={value!r}"


def setting_doc(label, value):
    """A config that sets one setting and leaves room for every value inside
    its bounds: a one-member roster, one-step episodes and the top order cap,
    or for network_size the largest roster."""
    doc = {
        "env": {"name": "gridnav", "params": {"max_steps": 1}},
        "roster_size": 1,
        "evolution": {"network_size": 1},
        "max_order": SETTINGS["max_order"].metadata["high"],
    }
    if label == "evolution.network_size":
        doc["roster_size"] = SETTINGS["roster_size"].metadata["high"]
    *section, name = label.split(".")
    (doc.setdefault(section[0], {}) if section else doc)[name] = value
    return doc


def assert_runnable(config):
    """A config that loads has a digest, and the state a run starts from
    fits the memory budget."""
    assert re.fullmatch("[0-9a-f]{64}", config_digest(config))
    tracemalloc.start()
    try:
        build_state(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MEMORY_BUDGET


NUMBERS = st.integers() | st.floats() | st.sampled_from([10**400, -(2**64), 2**64, LONGEST, -LONGEST])
ANY_VALUE = NUMBERS | st.booleans() | st.none() | st.text(max_size=4) | st.lists(NUMBERS, max_size=2)


def mostly(likely, other, odds=15):
    """`likely` `odds` times for each time `other` is drawn. With the default
    odds most configs load, so the round trip is exercised too, and each kind
    of fault still turns up many times a run."""
    return st.integers(0, odds).flatmap(lambda k: likely if k else other)


def field_values(default, f=None):
    """Mostly values of the default's type that its field's own rule
    accepts, now and then an end of the field's bounds or one step past it,
    or any value."""
    if isinstance(default, bool):
        typed = st.booleans()
    elif isinstance(default, int):
        typed = st.integers(-(-default // 2), default)
    elif isinstance(default, float):
        typed = st.floats(default / 2, default)
    else:
        # now and then a NUL or a lone surrogate, which no path can hold
        typed = st.text(min_size=1, max_size=4) | st.text(
            st.sampled_from("a/\0\ud800\udfff"), min_size=1, max_size=4
        )
    if f is not None and f.metadata:
        return mostly(typed, mostly(st.sampled_from([value for value, _ in edges(f)]), ANY_VALUE, odds=1))
    return mostly(typed, ANY_VALUE)


def config_section(defaults, prefix=None):
    """Some of a section's fields, or now and then a non-object or a section
    with an unknown key. Given the section's `prefix`, each field also draws
    the ends of its bounds from SETTINGS."""
    fields = st.fixed_dictionaries({}, optional={
        key: field_values(value, SETTINGS.get(f"{prefix}.{key}")) for key, value in defaults.items()
    })
    return mostly(fields, mostly(fields.map(lambda doc: {**doc, "bogus": 1}), ANY_VALUE, odds=1))


DEFAULT_ECHO = config_to_json_dict(config_from_dict({"env": {"name": "xor"}}))
ENV_PARAMS = {
    name: config_to_json_dict(config_from_dict({"env": {"name": name}}))["env"]["params"]
    for name in ENVS
}


def env_section(name, params):
    return st.fixed_dictionaries({"name": name}, optional={"params": config_section(params)})


ENV_SECTIONS = st.sampled_from(list(ENVS)).flatmap(lambda name: env_section(st.just(name), ENV_PARAMS[name]))
CONFIG_DOCS = st.fixed_dictionaries(
    {"env": mostly(ENV_SECTIONS, mostly(
        env_section(ANY_VALUE, ENV_PARAMS["gridnav-compositional"]), ANY_VALUE, odds=1))},
    optional={
        **{key: field_values(value, SETTINGS[key]) for key, value in DEFAULT_ECHO.items()
           if key not in ("env", "problem", "evolution")},
        "problem": config_section(DEFAULT_ECHO["problem"], "problem"),
        "evolution": config_section(DEFAULT_ECHO["evolution"], "evolution"),
    },
)


class TestConfigProperty:
    @settings(max_examples=400, deadline=None)
    @given(doc=CONFIG_DOCS)
    def test_any_config_loads_or_fails_as_sosage_error(self, doc):
        try:
            config = config_from_dict(doc)
        except SosageError:
            return
        echoed = config_to_json_dict(config)
        assert config_from_dict(json.loads(json.dumps(echoed))) == config
        # a config that loads can make its output directory: each name in
        # the path is made side by side, so none leaves the temporary directory
        with tempfile.TemporaryDirectory() as tmp:
            for name in config.output_dir.split("/"):
                if name not in ("", ".", ".."):
                    (Path(tmp) / name).mkdir(exist_ok=True)
        assert_runnable(config)

    @pytest.mark.parametrize("label,value,inside", EDGE_CASES, ids=map(edge_id, EDGE_CASES))
    def test_each_bound_and_one_step_past_it(self, label, value, inside):
        doc = setting_doc(label, value)
        if not inside:
            with pytest.raises(ValidationError) as refused:
                config_from_dict(doc)
            assert refused.value.field == label
            return
        config = config_from_dict(doc)
        assert resolve(config_to_json_dict(config), label.split(".")) == value
        assert_runnable(config)


class TestSettingsTable:
    def test_the_readme_table_matches_the_fields(self):
        """The Configuration table of README.md gives every setting, its
        default and, for a number, the range its field's metadata allows."""
        lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
        start = lines.index("| Setting | Default | Range |") + 2
        rows = {}
        for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
            label, default, bounds = (cell.strip() for cell in line.strip("|").split("|"))
            rows[label.strip("`")] = (default, bounds)
        assert rows.keys() == SETTINGS.keys()
        for label, f in SETTINGS.items():
            default, bounds = rows[label]
            assert default == (
                "twice `roster_size`" if f.default is dataclasses.MISSING else json.dumps(f.default)
            ), label
            if f.metadata:
                assert bounds == bounds_text(f.metadata), label


    def test_the_readme_grid_table_matches_the_env_fields(self):
        """The grid params table of README.md gives every field of the
        compositional grid env in order, its default unless size sets it,
        and its metadata's range."""
        lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
        start = lines.index("| Param | Default | Range |") + 2
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:])]
        env_fields = dataclasses.fields(ENVS["gridnav-compositional"])
        assert [label.strip("`") for label, _, _ in rows] == [f.name for f in env_fields]
        for (label, default, bounds), f in zip(rows, env_fields):
            if f.default is not None:
                assert default == json.dumps(f.default), label
            assert bounds == (f.metadata["rule"].removeprefix("lie in ") if f.metadata else "any finite number"), label


class TestDigest:
    def test_digest_ignores_key_order(self, tmp_path):
        doc = base_doc(tmp_path)
        shuffled = dict(reversed(list(doc.items())))
        assert config_digest(config_from_dict(doc)) == config_digest(config_from_dict(shuffled))

    def test_digest_tracks_content(self, tmp_path):
        config = config_from_dict(base_doc(tmp_path))
        reseeded = with_seed(config, 99)
        assert reseeded.seed == 99
        assert dataclasses.replace(reseeded, seed=0) == config
        assert config_digest(config) != config_digest(reseeded)


class TestMetricsFormat:
    def test_header_and_row_format(self):
        sink = io.StringIO()
        write_metrics_header(sink)
        write_metrics_row(sink, GenerationRow(3, 1.42, 0.2567891, 2, 10, 1))
        lines = sink.getvalue().splitlines()
        assert lines[0] == METRICS_HEADER
        assert lines[1] == "3,1.420000,0.256789,2,10,1"


@pytest.fixture
def finished_run(tmp_path):
    config = config_from_dict(base_doc(tmp_path))
    report = run(config)
    return config, report, tmp_path / "runs"


class TestRunArtifacts:
    def test_metrics_and_checkpoints_on_disk(self, finished_run):
        config, report, out = finished_run
        assert not report.solved and report.generations_to_solve is None
        assert report.break_events == 0
        rows = read_rows(report.metrics_path)
        assert [r.split(",")[0] for r in rows] == [str(g) for g in range(6)]
        assert Path(report.checkpoint_path).name == "checkpoint-0-final.json"
        for g in (2, 4):
            assert (out / f"checkpoint-0-gen{g}.json").exists()

    def test_checkpoint_save_load_is_byte_stable(self, finished_run, tmp_path):
        _, report, _ = finished_run
        ckpt = load_checkpoint(report.checkpoint_path)
        copy = tmp_path / "copy.json"
        save_checkpoint(copy, ckpt)
        assert copy.read_bytes() == Path(report.checkpoint_path).read_bytes()

    def test_two_loads_of_a_final_checkpoint_hold_equal_universes(self, finished_run):
        _, report, _ = finished_run
        first, second = (load_checkpoint(report.checkpoint_path).state.universe for _ in range(2))
        assert first == second
        doc = valid_checkpoint_doc()  # just after a break, so it holds dependency edges
        first, second = (checkpoint_from_json_dict(doc).state.universe for _ in range(2))
        assert first.depends and first == second

    def test_no_temp_file_left_by_a_run(self, finished_run):
        _, _, out = finished_run
        assert all(p.name.startswith(("metrics-", "checkpoint-")) for p in out.iterdir())

    @pytest.mark.parametrize("stage", ["encode", "write", "rename"])
    def test_failed_save_leaves_the_previous_file(self, finished_run, monkeypatch, stage):
        _, report, out = finished_run
        path = Path(report.checkpoint_path)
        before = path.read_bytes()
        names = sorted(p.name for p in out.iterdir())
        ckpt = load_checkpoint(path)
        ckpt.generation -= 1  # another state, still within the budget
        encode = checkpoint.checkpoint_to_json_dict

        def not_json(c):
            doc = encode(c)
            doc["zz"] = object()  # encoding fails before the temp file is opened
            return doc

        class HalfWrite(io.TextIOWrapper):
            def write(self, text):
                super().write(text[: len(text) // 2])
                self.flush()
                raise OSError(28, "No space left on device")

        def half_open(file, mode, **kwargs):
            return HalfWrite(open(file, mode + "b"), **kwargs)

        def no_rename(src, dst):
            raise OSError(18, "Invalid cross-device link")

        if stage == "encode":
            monkeypatch.setattr(checkpoint, "checkpoint_to_json_dict", not_json)
        elif stage == "write":
            monkeypatch.setattr(checkpoint, "open", half_open, raising=False)
        else:
            monkeypatch.setattr(checkpoint.os, "replace", no_rename)
        with pytest.raises(SosageError if stage == "encode" else OSError):
            save_checkpoint(path, ckpt)
        assert path.read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == names

    def test_saved_file_is_one_line_of_compact_json(self, finished_run):
        _, report, _ = finished_run
        text = Path(report.checkpoint_path).read_text(encoding="utf-8")
        doc = checkpoint_to_json_dict(load_checkpoint(report.checkpoint_path))
        assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert text.count("\n") == 1

    def test_tampered_config_rejected(self, finished_run, tmp_path):
        _, report, _ = finished_run
        doc = json.loads(Path(report.checkpoint_path).read_text())
        doc["config"]["roster_size"] = 6
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        with pytest.raises(SosageError, match=exactly("embedded config does not match its stored digest")):
            load_checkpoint(tampered)

    def test_tampered_seed_rejected(self, finished_run, tmp_path):
        _, report, _ = finished_run
        doc = json.loads(Path(report.checkpoint_path).read_text())
        doc["config"]["seed"] = 5
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        with pytest.raises(SosageError, match=exactly("embedded config does not match its stored digest")):
            load_checkpoint(tampered)

    def test_wrong_format_marker_rejected(self, finished_run, tmp_path):
        _, report, _ = finished_run
        doc = json.loads(Path(report.checkpoint_path).read_text())
        doc["format"] = "something-else"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_checkpoint(bad)
        assert doc["config"] is not None  # sanity: we tampered the marker only

    def test_output_dir_env_override(self, tmp_path, monkeypatch, finished_run):
        config, _, _ = finished_run
        elsewhere = tmp_path / "elsewhere"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(elsewhere))
        assert resolve_output_dir(config) == elsewhere
        assert elsewhere.is_dir()


def edited_checkpoint(tmp_path: Path, name: str, top: dict, evolution: dict, checkpoint: str, edit) -> Path:
    """Run configs/`name` with the `top` and `evolution` settings changed
    into tmp_path/runs, apply `edit` to the document of its checkpoint file
    `checkpoint`, and write the document back."""
    doc = json.loads((CONFIG_DIR / name).read_text())
    doc.update(top, output_dir=str(tmp_path / "runs"))
    doc["evolution"].update(evolution)
    run(config_from_dict(doc))
    path = tmp_path / "runs" / checkpoint
    ckpt = inline_floats(json.loads(path.read_text()))
    edit(ckpt)
    path.write_text(json.dumps(table_floats(ckpt)))
    return path


def unreachable_state(case):
    seed, edit, invariant, fault = UNREACHABLE_STATES[case]
    evolution = {**REVERSING, "max_generations": 120} if seed == 1 else {}
    return lambda tmp_path: (edited_checkpoint(
        tmp_path, "xor.json", {"seed": seed}, evolution, f"checkpoint-{seed}-final.json", edit), invariant, fault)


def misshapen_genome(item, edit_weights, fault):
    """A gridnav_comp genome whose item `item` (4: input weights, 5: output
    weights) `edit_weights` changes."""
    def edit(doc):
        member = doc["population"]["members"][0]
        row = next(r for r in doc["universe"]["structures"] if r[0] == member)
        row[item] = edit_weights(row[item])
    return lambda tmp_path: (edited_checkpoint(
        tmp_path, "gridnav_comp.json", {"seed": 9, "checkpoint_every": 5}, {"max_generations": 10},
        "checkpoint-9-gen5.json", edit), "genome-shape", fault)


# the edits test_cli checks `sosage resume` against, each failing one
# invariant, and xor seed 7's periodic checkpoint of generation 5 with next_id 0
REFUSED_EDITS = {
    **{case: unreachable_state(case) for case in UNREACHABLE_STATES},
    **{f"genome-outputs-{form}": misshapen_genome(5, *OUTPUT_COUNT_BREAKS[form]) for form in OUTPUT_COUNT_BREAKS},
    "genome-without-bias": misshapen_genome(4, lambda weights: weights[:-1], "has 4 input weights, want 5"),
    "next-id-at-zero-gen5": lambda tmp_path: (edited_checkpoint(
        tmp_path, "xor.json", {"seed": 7, "checkpoint_every": 5}, {}, "checkpoint-7-gen5.json",
        lambda doc: doc["universe"].update(next_id=0)), "construction-order", "next_id 0 does not exceed structure id"),
}


# case -> the generation set on a checkpoint built in Python, from its own
# generation and budget; the codec refuses each
GENERATION_EDITS = {
    "text": lambda g, budget: "10",
    "null": lambda g, budget: None,
    "float": lambda g, budget: float(g),
    "past-the-budget": lambda g, budget: budget + 1,
    "negative": lambda g, budget: -1,
    "bool": lambda g, budget: True,
}


class TestResume:
    def test_resume_replays_row_for_row(self, finished_run, tmp_path):
        config, report, out = finished_run
        full_rows = read_rows(report.metrics_path)
        ckpt = load_checkpoint(out / "checkpoint-0-gen4.json")
        resumed = resume(ckpt)
        resumed_rows = read_rows(resumed.metrics_path)
        assert Path(resumed.metrics_path).name == "metrics-0-from4.csv"
        assert resumed_rows == full_rows[4:]
        final_full = json.loads(Path(report.checkpoint_path).read_text())
        final_resumed = json.loads(Path(resumed.checkpoint_path).read_text())
        assert final_resumed == final_full

    def test_a_payload_that_is_no_genome_fails_verify_and_resume_as_sosage_errors(self, finished_run):
        # no file holds such a payload, but a state built in Python can
        _, _, out = finished_run
        ckpt = load_checkpoint(out / "checkpoint-0-gen2.json")
        u = ckpt.state.universe
        for s in list(u.structures.values()):
            if s.order == 1:
                u.structures[s.id] = dataclasses.replace(s, payload="not a genome")
        assert "genome-shape" in {r.name for r in verify(ckpt).failures()}
        with pytest.raises(VerifyFailed) as refused:
            resume(ckpt)
        assert [r.name for r in refused.value.failures] == ["genome-shape"]

    @pytest.mark.parametrize("case", sorted(REFUSED_EDITS))
    def test_a_state_that_fails_verify_is_refused_before_any_file(self, tmp_path, monkeypatch, case):
        # each edit fails one invariant, so resume and the summary refuse it
        # before the output directory is made; an unverified resume of
        # next-id-at-zero-gen5 would hand out live ids again and solve at 30, not 45
        path, invariant, fault = REFUSED_EDITS[case](tmp_path)
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "resumed"))
        before = sorted(tmp_path.rglob("*"))
        for call in (resume, summarize_checkpoint):
            with pytest.raises(VerifyFailed) as refused:
                call(load_checkpoint(path))
            assert [r.name for r in refused.value.failures] == [invariant]
            assert fault in refused.value.failures[0].detail
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("field, change", [
        ("env.name", lambda c: dataclasses.replace(c, env=dataclasses.replace(c.env, name="nope"))),
        ("evolution.top_m", lambda c: dataclasses.replace(c, evolution=dataclasses.replace(c.evolution, top_m=None))),
    ])
    def test_a_setting_built_in_python_is_refused_by_name_before_verify(self, tmp_path, monkeypatch, field, change):
        # verify reads the env class and the settings, so it runs on the re-read config
        ckpt = checkpoint_from_json_dict(valid_checkpoint_doc())
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "resumed"))
        for call in (resume, summarize_checkpoint):
            with pytest.raises(ValidationError) as refused:
                call(dataclasses.replace(ckpt, config=change(ckpt.config)))
            assert refused.value.field == field
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("call", [resume, summarize_checkpoint])
    @pytest.mark.parametrize("case", sorted(GENERATION_EDITS))
    def test_a_generation_the_codec_refuses_is_refused_before_verify(self, tmp_path, monkeypatch, case, call):
        # verify reads the generation, so the writer's and reader's rule runs
        # first; a state past the budget would run and fail only at its final save
        ckpt = checkpoint_from_json_dict(valid_checkpoint_doc())
        generation = GENERATION_EDITS[case](ckpt.generation, ckpt.config.evolution.max_generations)
        with pytest.raises((TypeError, ValueError)) as rule:
            checked_generation(generation, ckpt.config)
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "resumed"))
        with pytest.raises(SosageError) as refused:
            call(dataclasses.replace(ckpt, generation=generation))
        assert not isinstance(refused.value, VerifyFailed)
        assert str(refused.value) == str(rule.value)
        assert list(tmp_path.iterdir()) == []

    def test_indented_file_from_earlier_builds_resumes_the_same(self, finished_run):
        # no build writes v7 indented, but such a file differs only in whitespace
        _, report, out = finished_run
        compact = out / "checkpoint-0-gen2.json"
        doc = json.loads(compact.read_text())
        indented = out / "indented" / "checkpoint-0-gen2.json"
        indented.parent.mkdir()
        indented.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
        assert indented.read_text().count("\n") > 100
        ckpt = load_checkpoint(indented)
        assert checkpoint_to_json_dict(ckpt) == doc
        assert verify(ckpt).passed
        outcomes = []
        for source in (indented, compact):
            resumed = resume(load_checkpoint(source))
            outcomes.append(
                (read_rows(resumed.metrics_path), Path(resumed.checkpoint_path).read_bytes())
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == read_rows(report.metrics_path)[2:]
        assert outcomes[0][1] == Path(report.checkpoint_path).read_bytes()

    def test_composite_chains_deeper_than_the_recursion_limit(self, tmp_path):
        # two roster members each top a 3,000-link chain, so each generation
        # flattens both and clones the weaker one whole
        config = config_from_dict(base_doc(tmp_path, max_order=5000))
        full = run(config)
        doc = json.loads((tmp_path / "runs" / "checkpoint-0-gen2.json").read_text())
        universe, pop = doc["universe"], doc["population"]
        links = 3000
        for slot in (0, 1):
            below = pop["members"][slot]
            for order in range(2, links + 2):
                universe["structures"].append([universe["next_id"], order, [below], "chain"])
                below = universe["next_id"]
                universe["next_id"] += 1
            pop["members"][slot] = below
        pop["pop_order_n"] = links + 1
        ckpt = checkpoint_from_json_dict(doc)
        assert verify(ckpt).passed
        resumed = resume(ckpt)
        assert len(read_rows(resumed.metrics_path)) == len(read_rows(full.metrics_path)) - 2
        final = load_checkpoint(resumed.checkpoint_path)
        assert verify(final).passed
        assert max(s.order for s in final.state.universe.structures.values()) == links + 1

    def test_resume_of_finished_run_adds_nothing(self, finished_run):
        _, report, _ = finished_run
        ckpt = load_checkpoint(report.checkpoint_path)
        resumed = resume(ckpt)
        assert read_rows(resumed.metrics_path) == []
        assert resumed.solved is False
        assert Path(resumed.checkpoint_path).read_bytes() == Path(report.checkpoint_path).read_bytes()


@st.composite
def valid_run_docs(draw):
    """A small valid config for any env. Most draws leave room to break (a
    roster below its limit, networks smaller than the roster, an order cap
    above the base order) and set loose break settings, so many runs break
    and some reverse. A grid draws its goal and subgoal cells, and rewards
    that are now and then as large as the reward rule lets them be at once."""
    generations, assemblies = draw(st.integers(2, 16)), draw(st.integers(3, 10))
    env = draw(st.sampled_from(list(ENVS)))
    params = {}
    if env != "xor":
        size = draw(st.integers(2, 5))
        cell = st.integers(0, size - 1)
        params = {"size": size, "max_steps": draw(st.integers(1, min(50, 4 * size * size))),
                  "goal_x": draw(cell), "goal_y": draw(cell)}
        rewards = ["step_penalty", "goal_reward"]
        if env == "gridnav-compositional":
            params |= {"subgoal_x": draw(cell), "subgoal_y": draw(cell)}
            rewards.append("subgoal_reward")
        # an episode's return is at most max_steps step penalties and one of each other reward
        largest = MAX_RETURN_TOTAL / (generations * assemblies * (params["max_steps"] + len(rewards) - 1))
        largest *= 1 - 2**-20  # room for the rounding of that quotient
        for key in rewards:
            params[key] = draw(st.floats(-2, 2) | st.sampled_from([1e7, -1e7, largest, -largest]))
    r = draw(st.integers(1, 3))
    room = draw(st.integers(0, 3).map(bool))
    roster = draw(st.integers(2 + room, 6))
    return {
        "seed": draw(st.integers(0, 2 ** 64 - 1)),
        "env": {"name": env, "params": params},
        "problem": {"problem_order_x": draw(st.integers(1, r + 1)), "base_solver_order_r": r},
        "evolution": {
            "network_size": draw(st.integers(1 + room, min(3, roster - room))),
            "assemblies_per_generation": assemblies,
            "dependency_delta": draw(st.sampled_from([0.001, 0.01, 0.05])),
            "min_cooccur_samples": draw(st.integers(1, 3 - room)),
            "window_G": draw(st.integers(1, 3 - room)),
            "break_warmup": draw(st.integers(0, 2)),
            "max_generations": generations,
            "w_max": draw(st.floats(1, 10)),
        },
        "roster_size": roster,
        "population_limit": draw(st.integers(roster + room, 2 * roster)),
        "max_order": draw(st.integers(r + room, r + 3)),
        "breaks_enabled": draw(st.integers(0, 3).map(bool)),
        "reverse_enabled": draw(st.booleans()),
        "checkpoint_every": draw(st.integers(1, 3)),
    }


class TestValidConfigsEndToEnd:
    @settings(max_examples=40, deadline=None)
    @given(doc=valid_run_docs(), data=st.data())
    def test_every_checkpoint_verifies_and_a_resume_replays_exactly(self, doc, data):
        with tempfile.TemporaryDirectory() as out:
            doc["output_dir"] = out
            report = run(config_from_dict(doc))
            final = Path(report.checkpoint_path)
            event(f"breaks: {min(report.break_events, 2)}")
            reversed_ = sum(e.reversed_at is not None for e in load_checkpoint(final).state.pop.break_log)
            event(f"reversals: {min(reversed_, 1)}")
            periodic = sorted(Path(out).glob(f"checkpoint-{doc['seed']}-gen*.json"))
            for path in periodic + [final]:
                ckpt = load_checkpoint(path)
                assert verify(ckpt).passed, path.name
                # the stall history is a trimmed running best
                history = ckpt.state.stall_history
                assert len(history) <= doc["evolution"]["window_G"], path.name
                assert all(a <= b for a, b in zip(history, history[1:])), path.name
                # both halves of a pair fold the same shared assemblies in assembly order
                cells = ckpt.state.ledger.cooccur
                assert all((c.both_count, c.both_total.hex()) == (cells[y, x].both_count, cells[y, x].both_total.hex())
                           for (x, y), c in cells.items() if (y, x) in cells), path.name
            if not periodic:
                return
            ckpt = load_checkpoint(data.draw(st.sampled_from(periodic), label="resume from"))
            before = [path.read_bytes() for path in periodic]
            resumed = resume(ckpt)
            assert read_rows(resumed.metrics_path) == read_rows(report.metrics_path)[ckpt.generation:]
            assert Path(resumed.checkpoint_path).read_bytes() == final.read_bytes()
            # the resume writes the later periodic files again under their own names
            assert [path.read_bytes() for path in periodic] == before


class TestSweep:
    def test_summary_covers_consecutive_seeds(self, tmp_path):
        config = config_from_dict(
            base_doc(tmp_path, checkpoint_every=0, evolution={
                "network_size": 2, "assemblies_per_generation": 3, "max_generations": 2,
            })
        )
        reports, summary_path = sweep(config, 3)
        assert len(reports) == 3
        lines = Path(summary_path).read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert [row.split(",")[0] for row in lines[1:]] == ["0", "1", "2"]
        for row in lines[1:]:
            seed, solved, gts, order, breaks = row.split(",")
            assert solved in ("true", "false")
            assert gts == "" or gts.isdigit()
        out = tmp_path / "runs"
        for seed in range(3):
            assert (out / f"metrics-{seed}.csv").exists()

    @pytest.mark.parametrize("n_seeds", [0, -1, "3", None, 2.5, True])
    def test_seed_count_validated(self, tmp_path, n_seeds):
        # read as an int setting is, under its own name, before any file
        config = config_from_dict(base_doc(tmp_path))
        with pytest.raises(ValidationError) as refused:
            sweep(config, n_seeds)
        assert refused.value.field == "seeds"
        assert not (tmp_path / "runs").exists()


class TestConfigBuiltInPython:
    """run, resume and sweep re-read a config made by the constructor or by
    dataclasses.replace, which skip the reader: it runs as its file form
    would, or is refused before any directory or file is made."""

    def grid(self, tmp_path, **over):
        base = load_config(CONFIG_DIR / "gridnav_comp.json")
        evolution = dataclasses.replace(base.evolution, max_generations=3)
        return dataclasses.replace(
            base, evolution=evolution, output_dir=str(tmp_path / "runs"), checkpoint_every=1, **over
        )

    def test_unfilled_env_params_run_and_resume_as_the_filled_config(self, tmp_path):
        config = self.grid(tmp_path, env=EnvSpec("gridnav-compositional", {}))
        report = run(config)
        ckpt = load_checkpoint(report.checkpoint_path)
        assert ckpt.config == config_from_dict(config_to_json_dict(config))
        assert ckpt.config.env == config_from_dict({"env": {"name": "gridnav-compositional"}}).env
        assert verify(ckpt).passed
        resumed = resume(load_checkpoint(tmp_path / "runs" / "checkpoint-0-gen2.json"))
        assert read_rows(resumed.metrics_path) == read_rows(report.metrics_path)[2:]

    def test_a_seed_outside_64_bits_is_refused_before_any_file(self, tmp_path):
        with pytest.raises(ValidationError, match="^seed: must be an unsigned 64-bit integer"):
            run(self.grid(tmp_path, seed=-1))
        assert not (tmp_path / "runs").exists()

    def test_sweep_refuses_before_its_summary_exists(self, tmp_path):
        # the largest of the three seeds, 1, is in bounds: the base seed is not
        with pytest.raises(ValidationError, match="^seed: must be an unsigned 64-bit integer"):
            sweep(self.grid(tmp_path, seed=-1), 3)
        assert not (tmp_path / "runs" / "sweep-summary.csv").exists()
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RunConfig)])
    def test_a_field_set_to_none_is_refused_by_name_before_any_file(self, tmp_path, monkeypatch, name):
        # each once escaped the config echo as a bare TypeError
        monkeypatch.chdir(tmp_path)  # where an output_dir of None would resolve
        with pytest.raises(ValidationError, match=f"^{name}: "):
            run(dataclasses.replace(self.grid(tmp_path), **{name: None}))
        assert list(tmp_path.iterdir()) == []


class TestSeed:
    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_64_bits_names_the_top_level_key(self, tmp_path, seed):
        with pytest.raises(ValidationError, match="^seed: must be an unsigned 64-bit integer"):
            config_from_dict(base_doc(tmp_path, seed=seed))
        config = config_from_dict(base_doc(tmp_path))
        with pytest.raises(ValidationError, match="^seed: must be an unsigned 64-bit integer"):
            with_seed(config, seed)

    def test_largest_seed_round_trips(self, tmp_path):
        config = with_seed(config_from_dict(base_doc(tmp_path)), 2 ** 64 - 1)
        report = run(config)
        assert load_checkpoint(report.checkpoint_path).config == config


class TestVerify:
    def test_healthy_checkpoint_passes_all_invariants(self, finished_run):
        _, report, _ = finished_run
        ckpt = load_checkpoint(report.checkpoint_path)
        result = verify(ckpt)
        assert [r.name for r in result.results] == INVARIANT_NAMES
        assert result.passed
        assert result.failures() == []

    def corrupt(self, finished_run, mutate):
        _, report, _ = finished_run
        ckpt = load_checkpoint(report.checkpoint_path)
        mutate(ckpt)
        return verify(ckpt)

    def test_ghost_member_detected(self, finished_run):
        result = self.corrupt(finished_run, lambda c: c.state.pop.members.append(9999))
        assert "roster-membership" in {r.name for r in result.failures()}

    def test_population_order_drift_detected(self, finished_run):
        def mutate(c):
            c.state.pop.pop_order_n = 5
        result = self.corrupt(finished_run, mutate)
        assert "population-order" in {r.name for r in result.failures()}

    def test_a_population_order_below_one_fails_population_order(self, finished_run, tmp_path):
        _, report, _ = finished_run
        doc = json.loads(Path(report.checkpoint_path).read_text())
        doc["population"]["pop_order_n"] = 0
        failures = {r.name: r.detail for r in verify(checkpoint_from_json_dict(doc)).failures()}
        assert "pop_order 0 < 1" in failures["population-order"]
        path = tmp_path / "order-zero.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == EXIT_VERIFY_FAILED

    def test_order_law_violation_detected(self, finished_run):
        def mutate(c):
            u = c.state.universe
            first = min(u.structures)
            u.structures[first] = dataclasses.replace(u.structures[first], order=2)
        result = self.corrupt(finished_run, mutate)
        assert "construction-order" in {r.name for r in result.failures()}

    @pytest.mark.parametrize("weight", [99.0, math.nan])
    def test_oversized_weight_detected(self, finished_run, weight):
        def mutate(c):
            u = c.state.universe
            first = min(u.structures)
            s = u.structures[first]
            gene = dataclasses.replace(s.payload, in_weights=(weight, 0.0, 0.0))
            u.structures[first] = dataclasses.replace(s, payload=gene)
        result = self.corrupt(finished_run, mutate)
        assert "genome-shape" in {r.name for r in result.failures()}

    def test_unknown_ledger_member_detected(self, finished_run):
        def mutate(c):
            c.state.ledger.credit(4242, 1.0, c.config.evolution.top_m)
        result = self.corrupt(finished_run, mutate)
        failures = {r.name: r.detail for r in result.failures()}
        assert failures == {"state-compact": "ledger member 4242 is not live"}

    def test_orphan_primitive_detected(self, finished_run):
        def mutate(c):
            u = c.state.universe
            u.add_primitive(u.get(c.state.pop.members[0]).payload, tag="orphan")
        result = self.corrupt(finished_run, mutate)
        assert [r.name for r in result.failures()] == ["state-compact"]

    def test_ledger_cell_naming_a_dropped_id_detected(self, finished_run):
        def mutate(c):
            u = c.state.universe
            dropped = next(i for i in range(max(u.structures)) if i not in u)
            c.state.ledger.cooccur[(c.state.pop.members[0], dropped)] = CooccurCell()
        result = self.corrupt(finished_run, mutate)
        assert "state-compact" in {r.name for r in result.failures()}

    def test_dependency_cycle_detected(self, finished_run):
        a, b = 0, 0

        def mutate(c):
            nonlocal a, b
            a, b = sorted(c.state.pop.members[:2])
            c.state.universe.depends.setdefault((b, a), set()).add(1)
            c.state.universe.depends.setdefault((a, b), set()).add(1)
        result = self.corrupt(finished_run, mutate)
        failures = {r.name: r.detail for r in result.failures()}
        assert failures == {
            "dependency-order-gap":
                f"dependency ({a},{b}) spans order gap 0; dependency ({b},{a}) spans order gap 0"
        }

    def test_a_dependency_edge_below_level_one_is_reported(self):
        # a second, level-0 edge beside the break composite's own: the break
        # log reads only the level-2 one, so the gap check alone must see it
        doc = valid_checkpoint_doc()
        z, part, level = doc["universe"]["depends"][0]
        assert level == 2
        doc["universe"]["depends"].append([z, part, 0])
        failures = {r.name: r.detail for r in verify(checkpoint_from_json_dict(doc)).failures()}
        assert failures == {"dependency-order-gap": f"dependency ({z},{part}) at level 0 < 1"}

    def test_dependency_on_an_unknown_id_is_reported_not_raised(self, finished_run):
        _, report, _ = finished_run
        doc = json.loads(Path(report.checkpoint_path).read_text())
        member = doc["population"]["members"][0]
        doc["universe"]["depends"].append([99999, member, 1])
        failures = {r.name: r.detail for r in verify(checkpoint_from_json_dict(doc)).failures()}
        assert failures["dependency-order-gap"] == f"dependency (99999,{member}) references unknown structure"

    def test_constituent_chain_deeper_than_the_recursion_limit(self, finished_run):
        # 3,000 composites, each the constituent and the dependee of the one
        # before it, ending on a roster primitive; the head joins the roster,
        # so the live-set walk follows every link
        _, report, _ = finished_run
        doc = json.loads(Path(report.checkpoint_path).read_text())
        universe = doc["universe"]
        start, links = universe["next_id"], 3000
        ids = list(range(start, start + links)) + [doc["population"]["members"][0]]
        for i, nxt in zip(ids, ids[1:]):
            universe["structures"].append([i, 2, [nxt], "chain"])
            universe["depends"].append([i, nxt, 1])
        universe["next_id"] = start + links
        doc["population"]["members"].append(start)
        result = verify(checkpoint_from_json_dict(doc))
        assert [r.name for r in result.results] == INVARIANT_NAMES
        names = {r.name for r in result.failures()}
        assert {"construction-order", "dependency-order-gap", "population-order"} == names

    def test_fabricated_break_event_detected(self, finished_run):
        def mutate(c):
            c.state.pop.break_log.append(
                BreakEvent(generation=0, dependent=0, dependee=1, composite=12345)
            )
        result = self.corrupt(finished_run, mutate)
        failures = {r.name: r.detail for r in result.failures()}
        assert failures == {"break-log": "break composite 12345 missing"}

    @pytest.mark.parametrize("shift", [1, -1])
    def test_a_break_composite_off_its_edge_level_fails_break_log_alone(self, tmp_path, capsys, shift):
        # the edges of a break at population order n lie at level n + 1, and
        # its composite has order base + n: the level follows from the order
        doc = valid_checkpoint_doc()
        _, x, y, z, _ = doc["population"]["break_log"][0]
        order = next(row[1] for row in doc["universe"]["structures"] if row[0] == z)
        level = order - doc["config"]["problem"]["base_solver_order_r"] + 1
        edges = [edge for edge in doc["universe"]["depends"] if edge[0] == z]
        assert sorted(edges) == [[z, x, level], [z, y, level]]
        for edge in edges:
            edge[2] += shift
        path = tmp_path / "corrupted.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == EXIT_VERIFY_FAILED
        failed = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("pass  ")]
        assert failed == [
            f"FAIL  break-log  (break composite {z} lacks the level-{level} dependency on {x}; "
            f"break composite {z} lacks the level-{level} dependency on {y})"
        ]

    def test_a_reverse_counter_off_a_standing_break_composite_fails_break_log_alone(self):
        doc = valid_checkpoint_doc()
        _, dependent, _, composite, reversed_at = doc["population"]["break_log"][0]
        assert reversed_at is None
        doc["loop"]["reverse_counters"] = [[composite, 3]]
        assert verify(checkpoint_from_json_dict(doc)).passed
        for stray in (dependent, 99999):
            doc["loop"]["reverse_counters"] = [[composite, 3], [stray, 1]]
            failures = {r.name: r.detail for r in verify(checkpoint_from_json_dict(doc)).failures()}
            assert failures == {"break-log": f"reverse counter on {stray}, no composite of an un-reversed break"}

    def test_a_clone_of_another_order_fails_lineage_strata_alone(self):
        doc = valid_checkpoint_doc()
        z = doc["population"]["break_log"][0][3]
        first, second = [row for row in doc["universe"]["structures"] if row[1] == 1][:2]
        first[3] = f"c5:{second[0]}"  # a primitive cloned from a primitive keeps its order
        assert verify(checkpoint_from_json_dict(doc)).passed
        first[3] = f"c5:{z}"
        failures = {r.name: r.detail for r in verify(checkpoint_from_json_dict(doc)).failures()}
        assert failures == {"lineage-strata": f"clone {first[0]} (order 1) from original {z} of other order"}

    @pytest.mark.parametrize("kind, noun, source", [("o", "offspring", "parent"), ("c", "clone", "original")])
    def test_a_lineage_tag_names_its_parent_in_the_loops_digits_only(self, kind, noun, source):
        # the loop writes a parent id in ASCII digits; another script's
        # digits, a run longer than any integer a file holds, or a trailing
        # newline make no lineage tag the loop writes, so none names a parent
        doc = valid_checkpoint_doc()
        z = doc["population"]["break_log"][0][3]
        first = next(row for row in doc["universe"]["structures"] if row[1] == 1)
        first[3] = f"{kind}5:{z}"
        failures = {r.name: r.detail for r in verify(checkpoint_from_json_dict(doc)).failures()}
        assert failures == {"lineage-strata": f"{noun} {first[0]} (order 1) from {source} {z} of other order"}
        arabic_indic = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
        for tag in (f"{kind}5:{str(z).translate(arabic_indic)}", f"{kind}5:{'9' * 5000}", f"{kind}5:{z}\n"):
            first[3] = tag
            assert verify(checkpoint_from_json_dict(doc)).passed, tag
        # of two parents, the one an id can name is still checked
        first[3] = f"o5:{'9' * 5000}x{z}"
        failures = {r.name: r.detail for r in verify(checkpoint_from_json_dict(doc)).failures()}
        assert failures == {"lineage-strata": f"offspring {first[0]} (order 1) from parent {z} of other order"}

    def test_cooccurrence_counts_past_the_tally_fail_ledger_references_alone(self):
        # a generation adds at most one count to a cell per assembly; past
        # that, a count too large for a float once passed verify and crashed
        # the resume's detect_dependency
        doc = valid_checkpoint_doc()
        tallies = doc["generation"] * doc["config"]["evolution"]["assemblies_per_generation"]
        row = doc["ledger"]["cooccur"][0]
        fault = f"cooccurrence pair ({row[0]},{row[1]}) holds a negative count or more than {tallies} in all"
        for both, solo, passed in ((tallies, 0, True), (1, tallies - 1, True), (0, tallies + 1, False),
                                   (10**400, 10**400, False), (-1, 2, False), (2, -1, False)):
            row[2], row[4] = both, solo
            failures = {r.name: r.detail for r in verify(checkpoint_from_json_dict(doc)).failures()}
            assert failures == ({} if passed else {"ledger-references": fault}), (both, solo)


class TestInspect:
    def test_summary_shape_and_text(self, finished_run):
        _, report, _ = finished_run
        ckpt = load_checkpoint(report.checkpoint_path)
        summary = summarize_checkpoint(ckpt)
        assert summary["generation"] == 6
        assert summary["pop_order"] == 1
        assert summary["roster_size"] == 4
        assert set(summary["strata"]) == {"1"}
        assert summary["breaks"] == [] and summary["solved_at"] is None
        assert len(summary["top_scores"]) <= 5
        text = format_summary_text(summary)
        assert "generation: 6" in text
        assert "order 1: 4 members" in text
        assert "(none)" in text
        assert text.endswith("solved_at: -\n")


class TestMaxOrder:
    @pytest.mark.parametrize("max_order", [1, 3])
    def test_checkpoint_round_trip_keeps_the_cap(self, tmp_path, max_order):
        config = config_from_dict(base_doc(tmp_path, max_order=max_order))
        report = run(config)
        ckpt = load_checkpoint(report.checkpoint_path)
        copy_path = tmp_path / "copy.json"
        save_checkpoint(copy_path, ckpt)
        pop = ckpt.state.pop
        pair = (pop.members[0], pop.members[1])
        for loaded in (ckpt, load_checkpoint(copy_path)):
            assert loaded.config.max_order == max_order
            # the cap reaches the gate from the embedded config: a roster at it breaks no further
            for n in range(1, max_order + 1):
                at_n = dataclasses.replace(pop, pop_order_n=n)
                refused = can_break(at_n, [pair], loaded.config.population_limit, loaded.config.max_order) is None
                assert refused == (n == max_order)

    def test_resumed_run_keeps_the_cap(self, tmp_path):
        # capped at order 1 this run never breaks; a resume that fell back to
        # the default cap of 8 would break once and diverge
        base = load_config(CONFIG_DIR / "gridnav_comp.json")
        evolution = dataclasses.replace(base.evolution, break_warmup=0, max_generations=30)
        config = dataclasses.replace(
            base, evolution=evolution, max_order=1, checkpoint_every=5, output_dir=str(tmp_path)
        )
        full = run(config)
        assert full.break_events == 0 and full.final_pop_order == 1
        ckpt = load_checkpoint(tmp_path / "checkpoint-0-gen5.json")
        assert ckpt.config.max_order == 1
        resumed = resume(ckpt)
        assert read_rows(resumed.metrics_path) == read_rows(full.metrics_path)[5:]
        assert (resumed.break_events, resumed.final_pop_order) == (0, 1)
        assert verify(load_checkpoint(resumed.checkpoint_path)).passed


@functools.lru_cache(maxsize=None)
def _checkpoint_text() -> str:
    """A small gridnav checkpoint just after a break at generation 5: it holds
    a composite, a break log and co-occurrence cells."""
    base = with_seed(load_config(CONFIG_DIR / "gridnav_comp.json"), 5)
    evolution = dataclasses.replace(
        base.evolution, break_warmup=0, max_generations=6, assemblies_per_generation=8
    )
    config = dataclasses.replace(base, evolution=evolution, roster_size=4, population_limit=8)
    state = build_state(config)
    generation = run_symbiosis(make_env(config.env.name, config.env.params), config, state)
    assert state.pop.break_log
    ckpt = Checkpoint(config=config, generation=generation, state=state)
    return json.dumps(checkpoint_to_json_dict(ckpt))


def valid_checkpoint_doc() -> dict:
    return json.loads(_checkpoint_text())


@functools.lru_cache(maxsize=None)
def _xor_seed_7_final_text() -> str:
    """xor.json under seed 7, run to its solve at generation 45: the final
    checkpoint, which holds the composite of the break at generation 10."""
    config = with_seed(load_config(CONFIG_DIR / "xor.json"), 7)
    state = build_state(config)
    generation = run_symbiosis(make_env(config.env.name, config.env.params), config, state)
    return json.dumps(checkpoint_to_json_dict(Checkpoint(config=config, generation=generation, state=state)))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


ANY = "*"  # a list index
ENTRY = "@"  # the floats table entry that the float slot before it names


def schema_paths(node, prefix=()) -> set:
    """Every path into the document with list indices written as ANY, so
    each field of the format is one path however many rows the document
    has."""
    if isinstance(node, dict):
        children = list(node.items())
    elif isinstance(node, list):
        children = [(ANY, v) for v in node]
    else:
        return set()
    out = set()
    for key, child in children:
        out.add(prefix + (key,))
        out |= schema_paths(child, prefix + (key,))
    return out


@functools.lru_cache(maxsize=None)
def checkpoint_schema() -> list:
    """The state fields, plus the config as a whole: an edit inside the
    config only ever meets the digest check."""
    paths = schema_paths(valid_checkpoint_doc())
    return sorted((p for p in paths if p[0] != "config" or len(p) == 1), key=repr)


def resolve(doc, path):
    return functools.reduce(lambda node, key: node[key], path, doc)


def edit_id(arg) -> str:
    """A test id part for an edit: a path as its keys joined by dots, a
    value as the JSON written there, or "deleted" for KeyError."""
    if isinstance(arg, tuple):
        return ".".join(map(str, arg))
    return "deleted" if arg is KeyError else json.dumps(arg, separators=(",", ":"))


def edit(doc, path, value) -> None:
    """Set the field at `path`, or delete it when `value` is KeyError. ENTRY
    moves to the floats table entry that the slot before it names."""
    concrete = ()
    for key in path:
        concrete = ("floats", resolve(doc, concrete)) if key == ENTRY else concrete + (key,)
    parent = resolve(doc, concrete[:-1])
    if value is KeyError:
        del parent[concrete[-1]]
    else:
        parent[concrete[-1]] = value


def draw_path(data, doc) -> tuple:
    """A concrete path for a random field of the format: every field is
    equally likely, and rows are picked at random. Stops early where an
    earlier edit removed the way."""
    path: tuple = ()
    node = doc
    for step in data.draw(st.sampled_from(checkpoint_schema()), label="field"):
        if isinstance(node, (dict, list)) and node and step == ANY:
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            step = data.draw(st.sampled_from(keys), label="row")
        elif not isinstance(node, dict) or step not in node:
            break
        path += (step,)
        node = node[step]
    return path


def load_or_sosage_error(doc) -> None:
    """The property every checkpoint document must have: it fails to load as
    a SosageError, or it verifies and then summarizes or fails as one."""
    try:
        ckpt = checkpoint_from_json_dict(doc)
    except SosageError:
        return
    verify(ckpt)  # reports every fault, never raises
    try:
        format_summary_text(summarize_checkpoint(ckpt))
    except SosageError:
        pass


class TestSettingsLiveInTheConfig:
    def test_saved_state_holds_no_setting_or_unread_field(self):
        doc = valid_checkpoint_doc()

        def keys(node):
            if isinstance(node, dict):
                for k, v in node.items():
                    yield k
                    yield from keys(v)
            elif isinstance(node, list):
                for v in node:
                    yield from keys(v)

        state = {k: v for k, v in doc.items() if k != "config"}
        assert not {"unit_id", "participation_count", "top_m"} & set(keys(state))
        assert not {"population_limit", "base_order_r"} & set(doc["population"])

    def test_loader_takes_settings_from_the_digested_config(self):
        doc = valid_checkpoint_doc()
        cfg = doc["config"]
        cfg["max_order"] += 1
        cfg["evolution"]["top_m"] += 2
        cfg["population_limit"] += 1
        cfg["problem"]["base_solver_order_r"] += 1
        doc["config_digest"] = config_digest(config_from_dict(cfg))
        ckpt = checkpoint_from_json_dict(doc)
        # the state keeps only the base order, which top_order reads
        assert ckpt.config.max_order == cfg["max_order"]
        assert ckpt.state.pop.base_order_r == cfg["problem"]["base_solver_order_r"]
        # the roster was bred at base order 1, so the edited config no longer
        # fits it; a higher limit and a longer ring still hold it
        assert {r.name for r in verify(ckpt).failures()} == {"population-order", "break-log"}

    @staticmethod
    def xor_run(seed, generations):
        """xor.json under `seed`, `generations` long and checkpointed every generation."""
        base = with_seed(load_config(CONFIG_DIR / "xor.json"), seed)
        evolution = dataclasses.replace(base.evolution, max_generations=generations)
        return dataclasses.replace(base, evolution=evolution, checkpoint_every=1)

    @staticmethod
    def rows_of(config, state, start=0, saved=None):
        """The loop's rows on `state` under `config`; into `saved`, if given,
        each periodic checkpoint's JSON text by generation."""
        rows = []
        def save(g, s):
            saved[g] = json.dumps(checkpoint_to_json_dict(Checkpoint(config, g, s)))
        env = make_env(config.env.name, config.env.params)
        run_symbiosis(env, config, state, start, rows.append, None if saved is None else save)
        return rows

    def assert_runs_and_resumes_as_the_configs_own(self, config, other):
        """A state built under `other` runs `config`'s own rows, and a resume
        from each of its checkpoints verifies and replays them exactly."""
        own = self.rows_of(config, build_state(config))
        saved = {}
        assert self.rows_of(config, build_state(other), saved=saved) == own
        assert sorted(saved) == list(range(1, len(own)))
        for g, text in saved.items():
            ckpt = checkpoint_from_json_dict(json.loads(text))
            assert verify(ckpt).passed
            assert self.rows_of(config, ckpt.state, g) == own[g:]
        return own

    def test_a_state_built_under_other_settings_runs_and_resumes_as_the_configs_own(self):
        """xor seed 3: a state built under top_m 2 and a full roster."""
        config = self.xor_run(3, 60)
        other = dataclasses.replace(
            config, evolution=dataclasses.replace(config.evolution, top_m=2), population_limit=config.roster_size
        )
        own = self.assert_runs_and_resumes_as_the_configs_own(config, other)
        assert len(own) < 60  # solved before the budget

    @pytest.mark.parametrize("seed, solved_at", [(1, 32), (7, 45)])
    def test_a_state_built_under_another_cap_runs_and_resumes_as_the_configs_own(self, seed, solved_at):
        """xor, 80 generations: a state built under max_order 1, where no break
        passes the gate, breaks as the config's own does."""
        config = self.xor_run(seed, 80)
        own = self.assert_runs_and_resumes_as_the_configs_own(config, dataclasses.replace(config, max_order=1))
        assert (len(own), own[-1].breaks_so_far, own[-1].pop_order) == (solved_at + 1, 1, 2)

    def test_a_state_built_under_another_base_order_is_refused_on_resume(self, tmp_path, capsys):
        """xor seed 7, 30 generations: a roster wrapped to base order 2 and run
        under base order 1 fails population-order at every periodic
        checkpoint, so resume refuses each one with exit 3."""
        config = self.xor_run(7, 30)
        other = dataclasses.replace(config, problem=dataclasses.replace(config.problem, base_solver_order_r=2))
        saved = {}
        self.rows_of(config, build_state(other), saved=saved)
        assert sorted(saved) == list(range(1, 30))
        for g, text in saved.items():
            path = tmp_path / f"checkpoint-gen{g}.json"
            path.write_text(text)
            assert main(["resume", str(path)]) == EXIT_VERIFY_FAILED
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("FAIL  population-order  (max member order ")

    def test_state_types_hold_only_what_the_checkpoint_writes(self):
        def names(cls):
            return [f.name for f in dataclasses.fields(cls)]

        # base_order_r is the one setting the state keeps: top_order reads it
        assert names(Universe) == ["structures", "depends", "next_id"]
        assert names(Population) == ["members", "base_order_r", "pop_order_n", "break_log"]
        assert names(FitnessLedger) == ["per_member", "cooccur"]

    def test_verify_reads_the_limit_and_ring_cap_from_the_config(self):
        ckpt = checkpoint_from_json_dict(valid_checkpoint_doc())
        config, state = ckpt.config, ckpt.state
        assert verify(ckpt).passed
        longest = max(map(len, state.ledger.per_member.values()))
        top_m = (longest - 1) // SAMPLE_RING_FACTOR  # the largest top_m whose ring is shorter
        assert top_m >= 1
        short_ring = dataclasses.replace(config, evolution=dataclasses.replace(config.evolution, top_m=top_m))
        report = verify(Checkpoint(short_ring, ckpt.generation, state))
        assert [r.name for r in report.failures()] == ["ledger-references"]
        assert f"cap {SAMPLE_RING_FACTOR * top_m}" in report.failures()[0].detail
        roster = len(state.pop.members)
        low_limit = dataclasses.replace(config, population_limit=roster - 1)
        report = verify(Checkpoint(low_limit, ckpt.generation, state))
        assert [(r.name, r.detail) for r in report.failures()] == [
            ("roster-membership", f"roster {roster} exceeds limit {roster - 1}")
        ]


AWKWARD = (0.1 + 0.2, 1e-17, -0.0, 2.0 / 3.0, -1.2345678901234567, 5.0, -1e300, 5e-324)


def round_trip(ckpt: Checkpoint) -> Checkpoint:
    """Through the file format and back, as a save and a load would go."""
    return checkpoint_from_json_dict(json.loads(json.dumps(checkpoint_to_json_dict(ckpt))))


class TestCheckpointCodec:
    def test_departures_that_change_no_fact_load_as_the_written_document(self):
        doc = valid_checkpoint_doc()
        first, second = sorted(doc["population"]["members"])[:2]
        doc["loop"]["reverse_counters"] = [[first, 1], [second, 2]]
        edited = json.loads(json.dumps(doc))
        universe = edited["universe"]
        universe["structures"].reverse()
        for row in universe["structures"]:
            row[2] = row[2][::-1] * 2
        universe["depends"] = universe["depends"][::-1] * 2
        # the id-sorted tables load the same in any row order
        for table in (edited["ledger"]["per_member"], edited["ledger"]["cooccur"], edited["loop"]["reverse_counters"]):
            assert len(table) > 1
            table.reverse()
        assert edited != doc
        assert checkpoint_to_json_dict(checkpoint_from_json_dict(edited)) == doc

    def test_awkward_floats_round_trip_exactly(self):
        ckpt = checkpoint_from_json_dict(valid_checkpoint_doc())
        u, ledger = ckpt.state.universe, ckpt.state.ledger
        first = min(u.structures)
        gene = NeuronGene(in_weights=AWKWARD[:5], out_weights=AWKWARD[5:7])
        u.structures[first] = dataclasses.replace(u.structures[first], payload=gene)
        member = min(ledger.per_member)
        ledger.per_member[member] = list(AWKWARD)
        pair = min(ledger.cooccur)
        ledger.cooccur[pair] = CooccurCell(3, AWKWARD[0], 4, AWKWARD[7])
        ckpt.state.stall_history[:] = AWKWARD[1:4]
        back = round_trip(ckpt)
        assert back.state.universe.get(first).payload == gene
        assert [math.copysign(1.0, w) for w in back.state.universe.get(first).payload.in_weights] \
            == [math.copysign(1.0, w) for w in AWKWARD[:5]]
        assert back.state.ledger.per_member[member] == list(AWKWARD)
        assert back.state.ledger.cooccur[pair] == CooccurCell(3, AWKWARD[0], 4, AWKWARD[7])
        assert back.state.stall_history == list(AWKWARD[1:4])

    def test_the_table_follows_ids_not_insertion_order(self, tmp_path):
        # a loaded ledger holds its dicts in the file's key order, so a table
        # in insertion order would change the bytes a resume writes
        texts = []
        for reverse in (False, True):
            ckpt = checkpoint_from_json_dict(valid_checkpoint_doc())
            ledger = ckpt.state.ledger
            # each entry first uses a value of its own
            samples = {m: [m + 0.25] for m in ledger.per_member}
            cells = {(x, y): CooccurCell(1, x + y / 1000, 1, y + x / 1000) for x, y in ledger.cooccur}
            for table, items in ((ledger.per_member, samples), (ledger.cooccur, cells)):
                table.clear()
                table.update(sorted(items.items(), reverse=reverse))
            assert len(ledger.per_member) > 1 and len(ledger.cooccur) > 1
            save_checkpoint(tmp_path / "checkpoint.json", ckpt)
            texts.append((tmp_path / "checkpoint.json").read_bytes())
        assert texts[0] == texts[1]

    def test_zeros_a_subnormal_and_an_int_total_keep_their_bits(self, tmp_path):
        ckpt = checkpoint_from_json_dict(valid_checkpoint_doc())
        u, ledger = ckpt.state.universe, ckpt.state.ledger
        first, member, pair = min(u.structures), min(ledger.per_member), min(ledger.cooccur)
        weights = (0.0, -0.0, 5e-324, 1e308, -0.0)
        gene = NeuronGene(in_weights=weights, out_weights=(-0.0, 1e308))
        u.structures[first] = dataclasses.replace(u.get(first), payload=gene)
        ledger.per_member[member] = [-0.0, 0.0, 5e-324]
        ledger.cooccur[pair] = CooccurCell(2, 3, 1, -0.0)
        ckpt.state.stall_history[:] = [1e308, 0.0, -0.0]
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, ckpt)
        floats = json.loads(path.read_text())["floats"]
        assert [x.hex() for x in floats if x == 0.0] == [(0.0).hex(), (-0.0).hex()]
        assert len(set(map(float.hex, floats))) == len(floats)
        assert 3.0 in floats
        back = load_checkpoint(path).state
        back_gene = back.universe.get(first).payload
        assert same_floats(back_gene.in_weights, weights)
        assert same_floats(back_gene.out_weights, [-0.0, 1e308])
        assert same_floats(back.ledger.per_member[member], [-0.0, 0.0, 5e-324])
        cell = back.ledger.cooccur[pair]
        assert (cell.both_count, cell.solo_count) == (2, 1)
        assert type(cell.both_total) is float and same_floats([cell.both_total, cell.solo_total], [3.0, -0.0])
        assert same_floats(back.stall_history, [1e308, 0.0, -0.0])

    def test_the_file_is_its_v6_layout_through_the_stated_transform(self):
        doc = valid_checkpoint_doc()
        v6 = inline_floats(doc)
        assert {type(node[i]) for node, i in float_slots(v6)} == {float}
        assert table_floats(v6) == doc

    def test_the_file_is_its_v9_layout_through_the_stated_transform(self):
        # v9 keyed the ledger tables and the reverse counters by decimal ids,
        # and wrote each break event as an object with the population order
        # it was observed at
        doc = valid_checkpoint_doc()
        doc["loop"]["reverse_counters"] = [[doc["population"]["break_log"][0][3], 2]]
        v9 = v10_to_v9(doc)
        assert v9["population"]["break_log"][0]["level_observed"] == 1
        assert v9_to_v10(v9) == doc

    def test_next_id_survives_dropping_the_highest_id(self):
        ckpt = checkpoint_from_json_dict(valid_checkpoint_doc())
        u = ckpt.state.universe
        top = u.add_primitive(u.get(ckpt.state.pop.members[0]).payload, tag="dropped")
        u.retain(set(u.structures) - {top})
        back = round_trip(ckpt).state.universe
        assert top not in back and back.next_id == top + 1
        assert back.add_primitive(None) == top + 1

    def test_next_id_is_required(self):
        # a next_id at or below a structure id loads, and fails construction-order
        doc = valid_checkpoint_doc()
        del doc["universe"]["next_id"]
        with pytest.raises(ParseError, match="KeyError: 'next_id'"):
            checkpoint_from_json_dict(doc)

    def test_only_primitives_carry_a_payload(self):
        # [id, order, constituents, tag], and a primitive's genome after it:
        # [in_weights, out_weights]
        rows = valid_checkpoint_doc()["universe"]["structures"]
        assert {row[1] > 1 for row in rows} == {True, False}
        for row in rows:
            assert len(row) == (6 if row[1] == 1 else 4)

    def test_ledger_cells_round_trip(self):
        ckpt = checkpoint_from_json_dict(valid_checkpoint_doc())
        ledger = ckpt.state.ledger
        assert ledger.cooccur
        assert round_trip(ckpt).state.ledger == ledger

    # the break at generation 5 of a checkpoint at 6 can be reversed only at
    # 5, and then its composite keeps no reverse counter, so the state verifies
    @pytest.mark.parametrize("reversed_at", [None, 5])
    def test_break_events_round_trip(self, reversed_at):
        ckpt = checkpoint_from_json_dict(valid_checkpoint_doc())
        log = ckpt.state.pop.break_log
        assert log
        log[0].reversed_at = reversed_at
        if reversed_at is not None:
            del ckpt.state.reverse_counters[log[0].composite]
        assert round_trip(ckpt).state.pop.break_log == log
        assert summarize_checkpoint(ckpt)["breaks"][0]["reversed_at"] == reversed_at

    @pytest.mark.parametrize("where", ["sample", "weight", "total", "history"])
    def test_a_non_finite_float_is_refused_before_any_file_is_opened(self, tmp_path, where):
        ckpt = checkpoint_from_json_dict(valid_checkpoint_doc())
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, ckpt)
        before = path.read_bytes()
        u, ledger = ckpt.state.universe, ckpt.state.ledger
        if where == "sample":
            ledger.per_member[min(ledger.per_member)].append(math.nan)
        elif where == "weight":
            s = u.get(min(u.structures))
            u.structures[s.id] = dataclasses.replace(s, payload=NeuronGene((math.inf,), ()))
        elif where == "total":
            ledger.cooccur[min(ledger.cooccur)].both_total = math.nan
        else:
            ckpt.state.stall_history.append(-math.inf)
        with pytest.raises(SosageError, match="^cannot encode checkpoint: Out of range float values"):
            save_checkpoint(path, ckpt)
        assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == before

    @pytest.mark.parametrize("payload", [{1, 2}, "not a genome"], ids=["set", "str"])
    def test_a_payload_that_is_no_genome_is_refused_before_any_file_is_opened(self, tmp_path, payload):
        ckpt = checkpoint_from_json_dict(valid_checkpoint_doc())
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, ckpt)
        before = path.read_bytes()
        top = ckpt.state.universe.add_primitive(payload)
        with pytest.raises(SosageError, match=f"^cannot encode checkpoint: primitive {top} payload is not a neuron genome$"):
            save_checkpoint(path, ckpt)
        assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == before

    def test_a_composite_that_carries_a_payload_is_refused_before_any_file_is_opened(self, tmp_path):
        # a composite row has no payload, so one would load back as None;
        # verify does not look at a composite's payload
        ckpt = checkpoint_from_json_dict(json.loads(_xor_seed_7_final_text()))
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, ckpt)
        before = path.read_bytes()
        u = ckpt.state.universe
        z = ckpt.state.pop.break_log[0].composite
        u.structures[z] = dataclasses.replace(u.get(z), payload="extra")
        assert verify(ckpt).passed
        with pytest.raises(SosageError, match=exactly(f"cannot encode checkpoint: composite {z} carries a payload")):
            save_checkpoint(path, ckpt)
        assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == before

    def test_int_weights_and_totals_are_written_as_floats_that_load(self, tmp_path):
        ckpt = checkpoint_from_json_dict(valid_checkpoint_doc())
        u, ledger = ckpt.state.universe, ckpt.state.ledger
        first = min(u.structures)
        u.structures[first] = dataclasses.replace(
            u.get(first), payload=NeuronGene(in_weights=(1, 0, -2), out_weights=(3,))
        )
        pair = min(ledger.cooccur)
        ledger.cooccur[pair] = CooccurCell(2, 1, 0, 0)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path).state
        gene = back.universe.get(first).payload
        assert gene == NeuronGene(in_weights=(1.0, 0.0, -2.0), out_weights=(3.0,))
        assert {type(w) for w in gene.in_weights + gene.out_weights} == {float}
        assert back.ledger.cooccur[pair] == CooccurCell(2, 1.0, 0, 0.0)
        assert type(back.ledger.cooccur[pair].both_total) is float

    def test_the_config_echo_is_built_once_per_save(self, tmp_path, monkeypatch):
        ckpt = checkpoint_from_json_dict(valid_checkpoint_doc())
        built = []

        def counted(c):
            built.append(c)
            return config_to_json_dict(c)

        for module in ("checkpoint", "config"):  # config_digest builds one through its own module
            monkeypatch.setattr(f"sosage.{module}.config_to_json_dict", counted)
        save_checkpoint(tmp_path / "checkpoint.json", ckpt)
        assert built == [ckpt.config]
        doc = json.loads((tmp_path / "checkpoint.json").read_text())
        assert doc["config_digest"] == config_digest(ckpt.config)


# the extremes of float64: signed zero, the least subnormal, the largest finite
EXTREME_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308)
FINITE_FLOATS = st.sampled_from(EXTREME_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)


def same_floats(back, sent) -> bool:
    """Equal value by value, with the same sign bit, so -0.0 is no 0.0."""
    return len(back) == len(sent) and all(
        x == y and math.copysign(1.0, x) == math.copysign(1.0, y) for x, y in zip(back, sent)
    )


class TestFloatsAtTheFileBoundary:
    @settings(max_examples=100, deadline=None)
    @given(
        in_weights=st.lists(FINITE_FLOATS, min_size=1, max_size=6),
        out_weights=st.lists(FINITE_FLOATS, max_size=4),
        samples=st.lists(FINITE_FLOATS, min_size=1, max_size=8),
        totals=st.tuples(FINITE_FLOATS, FINITE_FLOATS),
        history=st.lists(FINITE_FLOATS, max_size=6),
    )
    @example(
        in_weights=list(EXTREME_FLOATS), out_weights=list(EXTREME_FLOATS), samples=list(EXTREME_FLOATS),
        totals=EXTREME_FLOATS[4:], history=list(EXTREME_FLOATS),
    )
    def test_save_load_save_keeps_every_float_and_its_sign(self, in_weights, out_weights, samples, totals, history):
        ckpt = checkpoint_from_json_dict(valid_checkpoint_doc())
        u, ledger = ckpt.state.universe, ckpt.state.ledger
        first, member, pair = min(u.structures), min(ledger.per_member), min(ledger.cooccur)
        gene = NeuronGene(tuple(in_weights), tuple(out_weights))
        u.structures[first] = dataclasses.replace(u.get(first), payload=gene)
        ledger.per_member[member] = list(samples)
        ledger.cooccur[pair] = CooccurCell(3, totals[0], 1, totals[1])
        ckpt.state.stall_history[:] = history
        with tempfile.TemporaryDirectory() as out:
            saved, again = Path(out) / "saved.json", Path(out) / "again.json"
            save_checkpoint(saved, ckpt)
            back = load_checkpoint(saved)
            save_checkpoint(again, back)
            assert saved.read_bytes() == again.read_bytes()
        back_gene = back.state.universe.get(first).payload
        cell = back.state.ledger.cooccur[pair]
        assert same_floats(back_gene.in_weights, in_weights)
        assert same_floats(back_gene.out_weights, out_weights)
        assert same_floats(back.state.ledger.per_member[member], samples)
        assert same_floats((cell.both_total, cell.solo_total), totals)
        assert same_floats(back.state.stall_history, history)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_state_the_writer_accepts_loads_back_as_itself(self, data):
        # the reader refuses only what the writer refuses, here a generation
        # outside the budget; verify judges the rest, the same on both sides
        ckpt = checkpoint_from_json_dict(valid_checkpoint_doc())
        state, evolution = ckpt.state, ckpt.config.evolution
        ckpt.generation = data.draw(st.integers(-2, evolution.max_generations + 2), label="generation")
        state.stall_history[:] = data.draw(st.lists(FINITE_FLOATS, max_size=3 * evolution.window_G), label="history")
        ids = st.sampled_from(sorted(state.universe.structures)) | st.integers()
        state.reverse_counters = data.draw(st.dictionaries(ids, st.integers(), max_size=3), label="counters")
        state.solved_at = data.draw(st.none() | st.integers(), label="solved_at")
        state.universe.next_id = data.draw(st.integers(), label="next_id")
        member = min(state.ledger.per_member)
        state.ledger.per_member[member] = data.draw(st.lists(FINITE_FLOATS, min_size=1, max_size=8), label="samples")
        report = verify(ckpt)
        with tempfile.TemporaryDirectory() as out:
            saved, again = Path(out) / "saved.json", Path(out) / "again.json"
            if not 0 <= ckpt.generation <= evolution.max_generations:
                with pytest.raises(SosageError, match="^cannot encode checkpoint: generation "):
                    save_checkpoint(saved, ckpt)
                assert list(Path(out).iterdir()) == []
                return
            save_checkpoint(saved, ckpt)
            back = load_checkpoint(saved)
            save_checkpoint(again, back)
            assert saved.read_bytes() == again.read_bytes()
        event(f"verify passed={report.passed}")
        assert back == ckpt
        assert verify(back) == report


class TestMalformedCheckpoints:
    def test_valid_document_loads(self):
        ckpt = checkpoint_from_json_dict(valid_checkpoint_doc())
        assert verify(ckpt).passed

    def test_bare_format_marker_is_a_parse_error(self):
        with pytest.raises(ParseError, match="malformed checkpoint"):
            checkpoint_from_json_dict({"format": CHECKPOINT_FORMAT})

    def test_non_object_documents_are_parse_errors(self):
        for doc in ([], "sosage-checkpoint-v1", 3, None):
            with pytest.raises(ParseError):
                checkpoint_from_json_dict(doc)

    @pytest.mark.parametrize(
        "path,value",
        [
            (("loop",), KeyError),
            (("generation",), "ten"),
            (("universe", "next_id"), KeyError),
            (("population", "members"), 5),
            # a break event is [generation, dependent, dependee, composite, reversed_at]
            (("population", "break_log", 0, 3), None),
            # a structure row is [id, order, constituents, tag], then on a
            # primitive [in_weights, out_weights]
            (("universe", "structures", 0, 3), 3),
            (("universe", "structures", 0, 4), ["x"]),
            (("universe", "depends"), {"abc": 1}),
            (("ledger", "cooccur"), [1, 2]),
            # v9 keyed these tables by decimal ids
            (("ledger", "cooccur"), {"1,2": [1, 0, 0, 0]}),
            (("ledger", "per_member"), {"1": [0]}),
            (("loop", "reverse_counters"), {"1": 1}),
            (("loop", "stall_history"), [[]]),
            (("loop", "solved_at"), 1e400),
            (("loop", "solved_at"), True),
            # a string where a list is iterated is refused, never read
            # character by character
            (("universe", "structures", 0, 4), "12345"),
            (("universe", "structures", 0, 5), "12"),
            (("universe", "structures", 0, 2), "12"),
            (("universe", "structures", 0), "123456"),
            (("universe", "depends", 0), "123"),
            (("ledger", "per_member", 0), "12"),
            (("ledger", "per_member", 0, 1), "12"),
            (("ledger", "cooccur", 0), "123456"),
            (("loop", "reverse_counters"), ["12"]),
            (("population", "break_log", 0), "12345"),
            (("population", "members"), "12"),
            (("loop", "stall_history"), "12"),
            # a scalar is read only in the form the writer gives it: a float
            # is a finite JSON number in the floats table, never a string or
            # an int (ENTRY: the entry the slot before it names)
            (("universe", "structures", 0, 4, 0, ENTRY), math.nan),
            (("universe", "structures", 0, 4, 0, ENTRY), "0.5"),
            (("universe", "structures", 0, 4, 0, ENTRY), 1),
            (("universe", "structures", 0, 5, 0, ENTRY), "0.5"),
            (("universe", "structures", 0, 5, 0, ENTRY), math.inf),
            (("ledger", "per_member", 0, 1, 0, ENTRY), math.inf),
            (("ledger", "per_member", 0, 1, 0, ENTRY), "0.5"),
            (("floats", -1), 1e400),
            (("floats", -1), 0),
            # each float slot is an index: an int, no bool, inside the table
            (("universe", "structures", 0, 4, 0), True),
            (("ledger", "cooccur", 0, 5), False),
            (("ledger", "per_member", 0, 1, 0), 0.0),
            (("universe", "structures", 0, 5, 0), 1.0),
            (("universe", "structures", 0, 4, 0), -1),
            (("loop", "stall_history"), [-1]),
            (("ledger", "cooccur", 0, 3), 10**6),
            (("ledger", "per_member", 0, 1, 0), "0"),
            (("floats",), {"0": 0.5}),
            (("generation",), "7"),
            (("generation",), 7.9),
            (("generation",), True),
            (("generation",), -3),  # the writer never writes a negative generation
            (("population", "pop_order_n"), 1.5),
            (("population", "members", 0), "21"),
            (("population", "break_log", 0, 4), 2.5),
            (("population", "break_log", 0, 0), True),
            (("loop", "reverse_counters"), [[1, 1.0]]),
            # a co-occurrence row is [x, y, both_count, both_total,
            # solo_count, solo_total], the totals indices of floats; a v9
            # cell without its pair and a v3 object cell are refused
            (("ledger", "cooccur", 0), [1, 0, 0, 0]),
            (("ledger", "cooccur", 0), {"with_both": [1, 1.0], "with_x_only": [0, 0.0]}),
            (("ledger", "cooccur", 0, 2), True),
            (("ledger", "cooccur", 0, 4), 1.0),
            (("ledger", "cooccur", 0, 3, ENTRY), "1.5"),
            (("ledger", "cooccur", 0, 3, ENTRY), 0),
            (("ledger", "cooccur", 0, 5, ENTRY), math.nan),
            # every key the writer writes is required
            (("loop", "solved_at"), KeyError),
            (("floats",), KeyError),
            (("population", "break_log", 0, 4), KeyError),
            (("universe", "structures", 0, 3), KeyError),
            # a dependency edge is exactly [dependent, dependee, level]
            (("universe", "depends", 0), [19, 8]),
            (("universe", "depends", 0, 2), "2"),
            # no key the writer does not write: not the settings a v2 file
            # held, not an extra key on any object
            (("ledger", "top_m"), 1),
            (("population", "population_limit"), 3),
            (("population", "break_log", 0), {"generation": 5}),  # a v9 event object
            (("universe", "extra"), 1),
            (("universe", "interacts"), []),  # a v4 key: interaction edges are derived
            (("ledger", "pending"), {}),  # a v7 key: the loop keeps no pending levels
            (("loop", "extra"), 1),
            (("extra",), 1),
        ],
        ids=edit_id,
    )
    def test_missing_keys_and_wrong_types_are_parse_errors(self, path, value):
        doc = valid_checkpoint_doc()
        edit(doc, path, value)
        with pytest.raises(ParseError, match="malformed checkpoint"):
            checkpoint_from_json_dict(doc)

    @pytest.mark.parametrize(
        "index,edit,fault",
        [
            # a genome with a third item, as v8 wrote its activation
            pytest.param(0, lambda row: row + ["tanh"], "a structure row of order 1 has 7 items", id="0-activation-appended"),
            pytest.param(0, lambda row: row[:5], "a structure row of order 1 has 5 items", id="0-out-weights-dropped"),
            # v8's [slot, index] pairs
            pytest.param(0, lambda row: row[:5] + [list(map(list, enumerate(row[5])))],
                         "TypeError: out_weights must be a list of int", id="0-out-weights-as-slot-pairs"),
            pytest.param(0, lambda row: row[:5] + [list(map(list, enumerate(row[5]))), "tanh"],
                         "a structure row of order 1 has 7 items", id="0-v8-genome"),
            # a primitive always has a payload, and it is a genome
            pytest.param(0, lambda row: row[:4], "a structure row of order 1 has 4 items", id="0-payload-dropped"),
            pytest.param(0, lambda row: row[:4] + ["not a genome"], "a structure row of order 1 has 5 items",
                         id="0-payload-no-genome"),
            # row 2 is the break composite, which has none
            pytest.param(2, lambda row: row + [None], "a structure row of order 2 has 5 items", id="2-payload-appended"),
            pytest.param(0, lambda row: row[:3], "not enough values to unpack", id="0-tag-and-payload-dropped"),
            pytest.param(0, lambda row: dict(zip(["id", "order", "constituents", "tag"], row)),
                         "TypeError: structures must be a list of list", id="0-v5-object-row"),
        ],
    )
    def test_structure_rows_of_another_shape_are_parse_errors(self, index, edit, fault):
        # each fails on its own shape, not on a floats entry it leaves unnamed
        doc = valid_checkpoint_doc()
        rows = doc["universe"]["structures"]
        rows[index] = edit(rows[index])
        with pytest.raises(ParseError, match=f"^malformed checkpoint: .*{re.escape(fault)}"):
            checkpoint_from_json_dict(doc)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    def test_a_non_finite_json_number_is_a_parse_error(self, tmp_path, literal):
        # json reads each of these as a float, so the finite check must refuse it
        doc = valid_checkpoint_doc()
        doc["floats"][doc["ledger"]["cooccur"][0][3]] = "TOTAL"
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc).replace('"TOTAL"', literal))
        with pytest.raises(ParseError, match="malformed checkpoint: ValueError: floats must hold finite numbers only"):
            load_checkpoint(edited)

    @pytest.mark.parametrize("slot", [
        ("universe", "structures", 0, 4, 0), ("universe", "structures", 0, 5, 0), ("ledger", "cooccur", 0, 5),
    ])
    @pytest.mark.parametrize("index", [lambda n: -1, lambda n: -n, lambda n: n, lambda n: n + 1, lambda n: True])
    def test_an_index_must_name_an_entry_of_the_table(self, slot, index):
        # Python would take a negative index from the end of the table, and
        # true as 1; the refusal names the index, not an entry left unused
        doc = valid_checkpoint_doc()
        edit(doc, slot, index(len(doc["floats"])))
        with pytest.raises(ParseError, match="names an index outside the floats table|of int$|writes an int$"):
            checkpoint_from_json_dict(doc)

    def test_an_entry_no_slot_names_is_a_parse_error(self):
        doc = valid_checkpoint_doc()
        assert 0.125 not in doc["floats"]
        doc["floats"].append(0.125)
        with pytest.raises(ParseError, match=f"floats entry {len(doc['floats']) - 1} is named by no slot"):
            checkpoint_from_json_dict(doc)

    @pytest.mark.parametrize("value", [0.125, -0.0, 5e-324])
    def test_an_entry_written_twice_is_a_parse_error(self, value):
        doc = valid_checkpoint_doc()
        assert value.hex() not in map(float.hex, doc["floats"])
        n = len(doc["floats"])
        doc["floats"].append(value)
        doc["loop"]["stall_history"] = [n]
        checkpoint_from_json_dict(doc)  # every entry named once and no two alike: it loads
        doc["floats"].append(value)
        doc["loop"]["stall_history"] = [n, n + 1]
        with pytest.raises(ParseError, match="floats holds one value twice"):
            checkpoint_from_json_dict(doc)

    def test_structure_listed_twice_is_a_parse_error(self):
        doc = valid_checkpoint_doc()
        rows = doc["universe"]["structures"]
        rows.append(rows[0][:3] + ["impostor"] + rows[0][4:])
        with pytest.raises(ParseError, match=f"structure {rows[0][0]} is listed twice"):
            checkpoint_from_json_dict(doc)

    @staticmethod
    def table_doc() -> tuple[dict, dict]:
        """The valid document with a reverse counter on its break composite,
        and its four row tables by name."""
        doc = valid_checkpoint_doc()
        doc["loop"]["reverse_counters"] = [[doc["population"]["break_log"][0][3], 2]]
        tables = {"per_member": doc["ledger"]["per_member"], "cooccur": doc["ledger"]["cooccur"],
                  "reverse_counters": doc["loop"]["reverse_counters"], "break_log": doc["population"]["break_log"]}
        assert verify(checkpoint_from_json_dict(doc)).passed
        return doc, tables

    @staticmethod
    def refusal(doc: dict) -> str:
        with pytest.raises(ParseError) as refused:
            checkpoint_from_json_dict(doc)
        return str(refused.value)

    @pytest.mark.parametrize("table", ["per_member", "cooccur", "reverse_counters"])
    @pytest.mark.parametrize("value", ["3", 3.0, True], ids=["str", "float", "bool"])
    def test_an_id_that_is_no_json_integer_is_a_parse_error(self, table, value):
        doc, tables = self.table_doc()
        tables[table][0][0] = value
        kind = type(value).__name__
        assert self.refusal(doc) == (
            f"malformed checkpoint: TypeError: a {table} row holds a {kind} where the writer writes an int"
        )

    @pytest.mark.parametrize(
        "table,width", [("per_member", 2), ("cooccur", 6), ("reverse_counters", 2), ("break_log", 5)]
    )
    @pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
    def test_a_row_of_the_wrong_length_is_a_parse_error(self, table, width, change):
        # a long break_log row is a v9 event with its level observed
        doc, tables = self.table_doc()
        row = tables[table][0]
        tables[table][0] = row[:-1] if change < 0 else row[:-1] + [1, row[-1]]
        assert self.refusal(doc) == (
            f"malformed checkpoint: ValueError: a {table} row has {width + change} items, not {width}"
        )

    @pytest.mark.parametrize("table,key", [("per_member", "id"), ("cooccur", "pair"), ("reverse_counters", "id")])
    def test_an_id_listed_twice_is_a_parse_error(self, table, key):
        # json keeps the last of two equal keys, so v9 could not see this;
        # the second row holds other values, so neither row may win
        doc, tables = self.table_doc()
        rows = tables[table]
        keyed = 2 if key == "pair" else 1
        twice = rows[0][:keyed]
        rows.append(twice + (rows[1][keyed:] if len(rows) > 1 else [3]))
        shown = tuple(twice) if key == "pair" else twice[0]
        assert self.refusal(doc) == f"malformed checkpoint: ValueError: {table} lists {key} {shown} twice"

    def test_a_generation_past_the_budget_is_a_parse_error(self, tmp_path):
        doc = valid_checkpoint_doc()
        budget = doc["config"]["evolution"]["max_generations"]
        doc["generation"] = budget
        ckpt = checkpoint_from_json_dict(doc)  # a final checkpoint is written at the budget at most
        rule = f"generation {budget + 1} is outside 0..max_generations {budget}"
        # the writer holds the generation to the same rule, before it opens a file
        path, fresh = tmp_path / "checkpoint.json", tmp_path / "fresh.json"
        save_checkpoint(path, ckpt)
        before = path.read_bytes()
        ckpt.generation = budget + 1
        for target in (path, fresh):
            with pytest.raises(SosageError, match=exactly(f"cannot encode checkpoint: {rule}")):
                save_checkpoint(target, ckpt)
        assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == before
        doc["generation"] = budget + 1
        assert self.refusal(doc) == f"malformed checkpoint: ValueError: {rule}"

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_an_index_or_table_entry_replaced_loads_or_fails_as_sosage_error(self, data):
        doc = valid_checkpoint_doc()
        n = len(doc["floats"])
        slots = float_slots(doc) + [(doc["floats"], i) for i in range(n)]
        node, i = slots[data.draw(st.integers(0, len(slots) - 1), label="slot")]
        node[i] = data.draw(st.integers(-2, n + 1) | JSON_VALUES, label="value")
        load_or_sosage_error(json.loads(json.dumps(doc)))  # as a file would hold it

    @settings(max_examples=100, deadline=None)
    @given(doc=st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=6), marked=st.booleans())
    def test_any_json_object_loads_or_fails_as_sosage_error(self, doc, marked):
        if marked:
            doc["format"] = CHECKPOINT_FORMAT
        load_or_sosage_error(doc)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damaged_checkpoints_load_or_fail_as_sosage_error(self, data):
        doc = valid_checkpoint_doc()
        for _ in range(data.draw(st.integers(1, 3), label="edits")):
            path = draw_path(data, doc)
            if not path:
                break
            parent = resolve(doc, path[:-1])
            if data.draw(st.booleans(), label="delete"):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(JSON_VALUES, label="value")
        load_or_sosage_error(doc)


@st.composite
def corrupted_checkpoint_docs(draw):
    """A real gridnav_comp checkpoint with 1-4 corruptions: edges to unknown
    or dropped ids, cycles in either relation, extra constituents, ghost
    members, ledger keys and reverse counters, and wrong orders."""
    doc = inline_floats(valid_checkpoint_doc())  # each float in its slot, so a row can drop its genome
    universe, ledger = doc["universe"], doc["ledger"]
    rows = {row[0]: row for row in universe["structures"]}
    known = st.sampled_from(sorted(rows))
    dropped = [i for i in range(universe["next_id"]) if i not in rows]
    any_id = st.sampled_from(sorted(rows) + dropped + [universe["next_id"], 99999])
    level = st.integers(0, 3)
    genome = next(row[4:] for row in rows.values() if row[1] == 1)
    for _ in range(draw(st.integers(1, 4), label="corruptions")):
        kind = draw(st.sampled_from([
            "depends", "dependency cycle", "constituent cycle",
            "constituent", "member", "ledger key", "reverse counter", "order",
        ]), label="kind")
        if kind == "depends":
            universe["depends"].append([draw(any_id), draw(any_id), draw(level)])
        elif kind in ("dependency cycle", "constituent cycle"):
            ring = draw(st.lists(known, min_size=1, max_size=3), label="ring")
            for a, b in zip(ring, ring[1:] + ring[:1]):
                if kind == "dependency cycle":
                    universe["depends"].append([a, b, draw(level)])
                else:
                    rows[a][2].append(b)
        elif kind == "constituent":
            rows[draw(known)][2].append(draw(any_id))
        elif kind == "member":
            doc["population"]["members"].append(draw(any_id))
        elif kind == "ledger key":
            # a row for a key the table holds already takes that row's place
            x, y = draw(any_id), draw(any_id)
            if draw(st.sampled_from(["per_member", "cooccur"])) == "per_member":
                ledger["per_member"] = [row for row in ledger["per_member"] if row[0] != x] + [[x, [1.0]]]
            else:
                ledger["cooccur"] = [row for row in ledger["cooccur"] if row[:2] != [x, y]] + [[x, y, 1, 1.0, 0, 0.0]]
        elif kind == "reverse counter":
            x, counters = draw(any_id), doc["loop"]["reverse_counters"]
            doc["loop"]["reverse_counters"] = [row for row in counters if row[0] != x] + [[x, draw(st.integers(1, 3))]]
        else:
            # the row keeps the shape the reader wants: a genome on order 1 only
            row = rows[draw(known)]
            row[1] = draw(st.integers(0, doc["config"]["max_order"] + 1), label="order")
            row[4:] = (row[4:] or genome) if row[1] == 1 else []
    return table_floats(doc)


class TestCorruptedCheckpoints:
    @settings(max_examples=300, deadline=None)
    @given(doc=corrupted_checkpoint_docs())
    def test_verify_reports_every_cycle_and_never_raises(self, doc):
        try:
            ckpt = checkpoint_from_json_dict(doc)
        except SosageError:
            event("refused on load")
            return
        report = verify(ckpt)
        universe = doc["universe"]
        constituents = {row[0]: row[2] for row in universe["structures"]}
        cyclic = has_cycle(constituents) or has_cycle(edge_graph(universe["depends"]))
        event(f"loaded, cycle={cyclic}, passed={report.passed}")
        if cyclic:
            assert not report.passed
