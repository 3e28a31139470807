"""Experiment orchestration: config files, metrics, checkpoints, verification.

Everything here is deterministic plumbing around the symbiosis loop. A config
plus its seed fully determines the metrics CSV and checkpoint bytes; resuming
a checkpoint replays the exact continuation of the original run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import Field, asdict, dataclass, field, fields, replace
from functools import cache
from pathlib import Path
from typing import AbstractSet, Any, Callable, Mapping, Optional, TextIO

from .envs import EnvSpec, finite_float, make_env
from .errors import DigestMismatch, ParseError, ValidationError
from .hyperstruct import DEFAULT_MAX_ORDER, Structure, Universe, emergent
from .population import BreakEvent, Population, ProblemSpec, StallDetector
from .symbio import (
    SAMPLE_RING_FACTOR,
    CooccurCell,
    EvolutionConfig,
    FitnessLedger,
    GenerationRow,
    LoopState,
    NeuronGene,
    live_structures,
    new_loop_state,
    run_symbiosis,
)

METRICS_HEADER = ",".join(f.name for f in fields(GenerationRow))
# field name -> format spec of its column; floats keep six decimals
_ROW_FORMATS = {f.name: ".6f" if f.type == "float" else "" for f in fields(GenerationRow)}
CHECKPOINT_FORMAT = "sosage-checkpoint-v3"
OUTPUT_DIR_ENV = "SOSAGE_OUTPUT_DIR"
# caps on products of settings (config_from_dict forms them): the structures
# build_state makes, and the env steps one generation may take
MAX_INITIAL_STRUCTURES = 10**4
MAX_GENERATION_STEPS = 10**6


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class RunConfig:
    problem: ProblemSpec
    env: EnvSpec
    evolution: EvolutionConfig
    roster_size: int = field(default=24, metadata={"low": 1, "high": 500})
    population_limit: int = field(metadata={"low": 1, "high": 1000})  # default: twice roster_size
    max_order: int = field(default=DEFAULT_MAX_ORDER, metadata={"low": 1, "high": 10**4})
    breaks_enabled: bool = True
    reverse_enabled: bool = True
    output_dir: str = "runs"
    checkpoint_every: int = field(default=0, metadata={"low": 0, "high": 10**6})

    @property
    def seed(self) -> int:
        return self.evolution.seed


@dataclass(frozen=True)
class RunReport:
    solved: bool
    generations_to_solve: Optional[int]
    final_pop_order: int
    metrics_path: str
    checkpoint_path: str
    break_events: int


@cache
def _names(cls: type) -> frozenset[str]:
    return frozenset(f.name for f in fields(cls))


def _reject_unknown(doc: Mapping[str, Any], allowed: AbstractSet[str], where: str,
                    error: Callable[[str, str], Exception] = ValidationError) -> None:
    if not doc.keys() <= allowed:
        first = min(doc.keys() - allowed)
        raise error(f"{where}.{first}" if where else first, "unknown key")


def _section(doc: Mapping[str, Any], key: str) -> Mapping[str, Any]:
    raw = doc.get(key, {})
    if not isinstance(raw, Mapping):
        raise ValidationError(key, "must be an object")
    return raw


def _as_int(raw: Any, field: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ValidationError(field, "must be an integer")
    return raw


def _as_bool(raw: Any, field: str) -> bool:
    if not isinstance(raw, bool):
        raise ValidationError(field, "must be true or false")
    return raw


def _as_text(raw: Any, field: str) -> str:
    if not isinstance(raw, str) or not raw:
        raise ValidationError(field, "must be a non-empty string")
    # no path can hold either; a surrogate left in a str has no partner
    if "\0" in raw or any("\ud800" <= c <= "\udfff" for c in raw):
        raise ValidationError(field, "must not contain NUL or a lone surrogate")
    return raw


# annotation -> reader of a config value of that type
_READERS = {"int": _as_int, "float": finite_float, "bool": _as_bool, "str": _as_text}


def bounds_text(bounds: Mapping[str, Any]) -> str:
    """The interval a numeric field's metadata allows, as [1, 500] or (0, inf)."""
    low = f"[{bounds['low']}" if "low" in bounds else f"({bounds['above']}"
    return f"{low}, {bounds['high']}]" if "high" in bounds else f"{low}, {bounds.get('below', math.inf)})"


@cache
def _scalar_fields(cls: type) -> tuple[tuple[Field, float, float, float, float], ...]:
    """Each field of `cls` a config sets as a plain value, with the bounds in
    its metadata: closed "low" and "high", open "above" and "below", or infinite."""
    ends = (("low", -math.inf), ("high", math.inf), ("above", -math.inf), ("below", math.inf))
    return tuple((f, *(f.metadata.get(end, unset) for end, unset in ends))
                 for f in fields(cls) if f.type in _READERS)


def _read_fields(cls: type, doc: Mapping[str, Any], prefix: str) -> dict[str, Any]:
    """The scalar fields of `cls` that `doc` sets, each read by its annotation
    and held to its bounds; a "rule" in the metadata words the error."""
    settings = {}
    for f, low, high, above, below in _scalar_fields(cls):
        if f.name in doc:
            value = settings[f.name] = _READERS[f.type](doc[f.name], prefix + f.name)
            if f.metadata and not (low <= value <= high and above < value < below):
                rule = f.metadata.get("rule", "lie in " + bounds_text(f.metadata))
                raise ValidationError(prefix + f.name, "must " + rule)
    return settings


def config_from_dict(doc: Mapping[str, Any]) -> RunConfig:
    """Validate a raw config mapping and fill every default. The dataclasses
    are the schema: a key naming no field, or a value outside its field's bounds, is refused."""
    if not isinstance(doc, Mapping):
        raise ValidationError("config", "top level must be an object")
    _reject_unknown(doc, _names(RunConfig) | {"seed"}, "")

    env_doc = _section(doc, "env")
    _reject_unknown(env_doc, _names(EnvSpec), "env")
    if "name" not in env_doc:
        raise ValidationError("env.name", "is required")
    env_params = env_doc.get("params", {})
    if not isinstance(env_params, Mapping):
        raise ValidationError("env.params", "must be an object")
    # building the env validates name and params and fills param defaults
    env = make_env(env_doc["name"], env_params)

    problem_doc = _section(doc, "problem")
    _reject_unknown(problem_doc, _names(ProblemSpec), "problem")
    problem = ProblemSpec(**_read_fields(ProblemSpec, problem_doc, "problem."))

    evo_doc = _section(doc, "evolution")
    # seed is set at the top level only, the one key there that names a field of EvolutionConfig
    _reject_unknown(evo_doc, _names(EvolutionConfig) - {"seed"}, "evolution")
    evolution = EvolutionConfig(**_read_fields(EvolutionConfig, evo_doc, "evolution."),
                                **_read_fields(EvolutionConfig, doc, ""))

    settings = _read_fields(RunConfig, doc, "")
    if "population_limit" not in settings:  # twice roster_size, read as a set value is
        roster = settings.get("roster_size", RunConfig.roster_size)
        settings |= _read_fields(RunConfig, {"population_limit": 2 * roster}, "")
    config = RunConfig(problem=problem, env=env.spec, evolution=evolution, **settings)

    if config.roster_size > config.population_limit:
        raise ValidationError("roster_size", "must not exceed population_limit")
    if evolution.network_size > config.roster_size:
        raise ValidationError("evolution.network_size", "must not exceed roster_size")
    if config.max_order < problem.base_solver_order_r:
        raise ValidationError("max_order", "must be >= problem.base_solver_order_r")
    if config.roster_size * problem.base_solver_order_r > MAX_INITIAL_STRUCTURES:
        raise ValidationError("roster_size", f"times base_solver_order_r exceeds {MAX_INITIAL_STRUCTURES}")
    if evolution.assemblies_per_generation * env.eval_episodes * env.max_steps > MAX_GENERATION_STEPS:
        raise ValidationError("evolution.assemblies_per_generation",
                              f"times the env's episodes and max_steps exceeds {MAX_GENERATION_STEPS}")
    return config


def _read_json(path: str | Path, what: str) -> Any:
    """Parse a JSON file; every way it can fail is a ParseError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {what} {path}: {e}") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from e
    except ValueError as e:  # an integer literal beyond Python's int-digit limit
        raise ParseError(f"{path}: an integer has more than 4300 digits") from e
    except RecursionError as e:
        raise ParseError(f"{path}: nested too deeply") from e


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON config file, defaults filled."""
    return config_from_dict(_read_json(path, "config"))


def _echo(value: Any) -> Any:
    """A config dataclass as a dict of its fields, recursively, each dict copied.
    Its instance dict holds just its fields: fields() costs 3x, asdict() 10x."""
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, dict):
        return dict(value)
    return {name: _echo(field) for name, field in vars(value).items()}


def config_to_json_dict(config: RunConfig) -> dict:
    """Every field of the config in file schema form, seed at the top level."""
    doc = _echo(config)
    doc["seed"] = doc["evolution"].pop("seed")
    return doc


def config_digest(config: RunConfig) -> str:
    canonical = json.dumps(config_to_json_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def with_seed(config: RunConfig, seed: int) -> RunConfig:
    """The config with its seed replaced; a seed outside 64 bits is refused."""
    evolution = replace(config.evolution, **_read_fields(EvolutionConfig, {"seed": seed}, ""))
    return replace(config, evolution=evolution)


def resolve_output_dir(config: RunConfig) -> Path:
    out = Path(os.environ.get(OUTPUT_DIR_ENV) or config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def write_metrics_header(sink: TextIO) -> None:
    sink.write(METRICS_HEADER + "\n")
    sink.flush()

def write_metrics_row(sink: TextIO, row: GenerationRow) -> None:
    cells = (format(getattr(row, name), spec) for name, spec in _ROW_FORMATS.items())
    sink.write(",".join(cells) + "\n")
    sink.flush()


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    config: RunConfig
    generation: int
    state: LoopState


def _fmt_weight(x: float) -> str:
    """Decimal string with 17 significant digits; round-trips float64 exactly."""
    return "%.17g" % x


def checkpoint_to_json_dict(ckpt: Checkpoint) -> dict:
    """The whole v3 document. Floats are `"%.17g"` strings; settings live
    only in the embedded config; save_checkpoint sorts every object's keys."""
    u, pop, ledger = ckpt.state.universe, ckpt.state.pop, ckpt.state.ledger
    structures = []
    for i in sorted(u.structures):
        s = u.structures[i]
        row: dict[str, Any] = {
            "id": s.id, "order": s.order, "constituents": sorted(s.constituents), "tag": s.tag,
        }
        if s.order == 1:  # a payload that is no genome is written as it is, for verify to report
            g = s.payload
            row["payload"] = g if not isinstance(g, NeuronGene) else {
                "in_weights": [_fmt_weight(w) for w in g.in_weights],
                "out_targets": [[slot, _fmt_weight(w)] for slot, w in g.out_targets],
                "activation": g.activation,
            }
        structures.append(row)
    return {
        "format": CHECKPOINT_FORMAT,
        "config": config_to_json_dict(ckpt.config),
        "config_digest": config_digest(ckpt.config),
        "generation": ckpt.generation,
        "universe": {
            "structures": structures,
            "interacts": [list(e) for e in u.graph.interaction_edges()],
            "depends": [list(e) for e in u.graph.dependency_edges()],
            "next_id": u.next_id,
        },
        "population": {
            "members": list(pop.members),
            "pop_order_n": pop.pop_order_n,
            "break_log": [asdict(e) for e in pop.break_log],
        },
        "ledger": {
            "per_member": {
                str(m): [_fmt_weight(v) for v in samples]
                for m, samples in ledger.per_member.items()
            },
            "cooccur": {
                f"{x},{y}": {
                    "with_both": [cell.both_count, _fmt_weight(cell.both_total)],
                    "with_x_only": [cell.solo_count, _fmt_weight(cell.solo_total)],
                }
                for (x, y), cell in ledger.cooccur.items()
            },
            "pending": {f"{x},{y}": sorted(levels) for (x, y), levels in ledger.pending.items()},
        },
        "loop": {
            "stall_history": [_fmt_weight(v) for v in ckpt.state.detector.history],
            "reverse_counters": {str(k): v for k, v in ckpt.state.reverse_counters.items()},
            "solved_at": ckpt.state.solved_at,
        },
    }


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    """Write one line of compact JSON atomically: encode the whole document
    in one call, write it into a temp file beside `path` in one write, then
    rename it over `path`. A failed save leaves the previous file as it was
    and removes the temp file. The temp name starts with a dot and ends in
    .tmp, so it never matches checkpoint-*.json."""
    path = Path(path)
    text = json.dumps(checkpoint_to_json_dict(ckpt), sort_keys=True, separators=(",", ":")) + "\n"
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as sink:
            sink.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def checkpoint_from_json_dict(doc: Mapping[str, Any]) -> Checkpoint:
    """Rebuild a checkpoint; a document with missing keys or values of the
    wrong type raises ParseError."""
    if not isinstance(doc, Mapping) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ParseError(f"not a {CHECKPOINT_FORMAT} document")
    try:
        return _checkpoint_from_doc(doc)
    except (LookupError, TypeError, ValueError, AttributeError, ArithmeticError) as e:
        raise ParseError(f"malformed checkpoint: {type(e).__name__}: {e}") from e


# The readers below take each value only in the form the writer gives it:
# no string is taken apart into characters, no "7" or true passes for 7, no
# non-finite float or unwritten key gets in. They raise TypeError, ValueError
# or KeyError, which checkpoint_from_json_dict turns into a ParseError.

def _of(kind: type, raw: Any, what: str) -> Any:
    """`raw` when its type is exactly `kind`, so a bool is no int."""
    if type(raw) is not kind:
        raise TypeError(f"{what} must be {kind.__name__}, got {type(raw).__name__}")
    return raw


def _list(raw: Any, what: str, of: Optional[type] = None) -> list:
    """`raw` when it is a list, and when `of` is given, one whose items all
    have exactly that type (checked whole, to keep loading cheap)."""
    if type(raw) is not list or not (of is None or {of}.issuperset(map(type, raw))):
        raise TypeError(f"{what} must be a list" + (f" of {of.__name__}" if of else ""))
    return raw


def _floats(raw: Any, what: str) -> list[float]:
    """Finite floats, each written as a decimal string."""
    values = list(map(float, _list(raw, what, str)))
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} must hold finite numbers only")
    return values


def _float(raw: Any, what: str) -> float:
    """One finite float, written as a decimal string."""
    if type(raw) is not str:
        raise TypeError(f"{what} must be a decimal string, got {type(raw).__name__}")
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {raw!r}")
    return value


def _malformed(label: str, rule: str) -> ValueError:
    return ValueError(f"{label}: {rule}")


_ID = "(0|[1-9][0-9]*)"  # an id in canonical decimal
_ID_KEY, _PAIR_KEY = re.compile(_ID), re.compile(f"{_ID},{_ID}")


def _id_key(key: str, what: str) -> int:
    if not _ID_KEY.fullmatch(key):
        raise ValueError(f"{what} key {key!r} is not an id in canonical decimal")
    return int(key)


def _pair_key(key: str, what: str) -> tuple[int, int]:
    m = _PAIR_KEY.fullmatch(key)
    if m is None:
        raise ValueError(f"{what} key {key!r} is not two ids in canonical decimal")
    return int(m[1]), int(m[2])


def _payload_from_json(raw: Any) -> Any:
    """A genome from its object; any other payload stays as it is, for
    verify's genome-shape check to report."""
    if not (isinstance(raw, dict) and {"in_weights", "out_targets"} <= raw.keys()):
        return raw
    _reject_unknown(raw, {"in_weights", "out_targets", "activation"}, "payload", _malformed)
    return NeuronGene(
        in_weights=tuple(_floats(raw["in_weights"], "in_weights")),
        out_targets=tuple(
            (_of(int, slot, "an output slot"), _float(w, "an output weight"))
            for slot, w in _list(raw["out_targets"], "out_targets", list)
        ),
        activation=_of(str, raw["activation"], "activation"),
    )


def _universe_from_json(doc: Mapping[str, Any], max_order: int) -> Universe:
    u = Universe(max_order=max_order)
    _reject_unknown(doc, {"structures", "interacts", "depends", "next_id"}, "universe", _malformed)
    for row in _list(doc["structures"], "structures"):
        s = Structure(
            id=_of(int, row["id"], "a structure id"),
            order=_of(int, row["order"], "a structure order"),
            constituents=frozenset(_list(row["constituents"], "constituents", int)),
            payload=_payload_from_json(row["payload"]) if row["order"] == 1 else None,
            tag=_of(str, row["tag"], "a structure tag"),
        )
        # only a primitive carries a payload, and it always does
        keys = {"id", "order", "constituents", "tag"} | ({"payload"} if s.order == 1 else set())
        _reject_unknown(row, keys, "structures", _malformed)
        if s.id in u.structures:
            raise ValueError(f"structure {s.id} is listed twice")
        u.structures[s.id] = s
    # stored, not derived: the highest ids may have been dropped by retain
    u.next_id = _of(int, doc["next_id"], "next_id")
    if u.next_id <= max(u.structures, default=-1):
        raise ValueError(f"next_id {u.next_id} does not exceed every structure id")
    for key, add_edge in (("interacts", u.graph.add_interaction), ("depends", u.graph.add_dependency)):
        edges = _list(doc[key], key, list)
        _list([v for edge in edges for v in edge], key, int)
        for a, b, level in edges:
            if key == "interacts" and a > b:  # the writer puts the lower id first
                raise ValueError(f"interaction ({a},{b}) is not written low id first")
            add_edge(a, b, level)
    return u


def _population_from_json(doc: Mapping[str, Any], base_order_r: int, population_limit: int) -> Population:
    def event(row: Mapping[str, Any]) -> BreakEvent:
        _reject_unknown(row, _names(BreakEvent), "break_log", _malformed)
        # every field is required; reversed_at is null until a reverse
        return BreakEvent(**{
            f.name: _of(int, row[f.name], f.name) for f in fields(BreakEvent)
            if f.name != "reversed_at" or row[f.name] is not None
        })

    _reject_unknown(doc, {"members", "pop_order_n", "break_log"}, "population", _malformed)
    return Population(
        members=list(_list(doc["members"], "members", int)),
        base_order_r=base_order_r,
        pop_order_n=_of(int, doc["pop_order_n"], "pop_order_n"),
        population_limit=population_limit,
        break_log=[event(row) for row in _list(doc["break_log"], "break_log")],
    )


def _ledger_from_json(doc: Mapping[str, Any], top_m: int) -> FitnessLedger:
    ledger = FitnessLedger(top_m)
    _reject_unknown(doc, {"per_member", "cooccur", "pending"}, "ledger", _malformed)
    for key, samples in doc["per_member"].items():
        ledger.per_member[_id_key(key, "per_member")] = _floats(samples, "per_member samples")
    for key, row in doc["cooccur"].items():
        _reject_unknown(row, {"with_both", "with_x_only"}, "cooccur", _malformed)
        bc, bt = _list(row["with_both"], "with_both")
        sc, st = _list(row["with_x_only"], "with_x_only")
        ledger.cooccur[_pair_key(key, "cooccur")] = CooccurCell(
            _of(int, bc, "a count"), _float(bt, "a total"), _of(int, sc, "a count"), _float(st, "a total")
        )
    for key, levels in doc["pending"].items():
        ledger.pending[_pair_key(key, "pending")] = set(_list(levels, "pending levels", int))
    return ledger


def _checkpoint_from_doc(doc: Mapping[str, Any]) -> Checkpoint:
    keys = {"format", "config", "config_digest", "generation", "universe", "population", "ledger", "loop"}
    _reject_unknown(doc, keys, "checkpoint", _malformed)
    config = config_from_dict(doc["config"])
    stored = doc.get("config_digest", "")
    if config_digest(config) != stored:
        raise DigestMismatch("embedded config does not match its stored digest")
    # settings come from the digested config only
    evo = config.evolution
    loop = doc["loop"]
    _reject_unknown(loop, {"stall_history", "reverse_counters", "solved_at"}, "loop", _malformed)
    solved_at = loop["solved_at"]
    state = LoopState(
        universe=_universe_from_json(doc["universe"], config.max_order),
        problem=config.problem,
        pop=_population_from_json(
            doc["population"], config.problem.base_solver_order_r, config.population_limit
        ),
        ledger=_ledger_from_json(doc["ledger"], evo.top_m),
        detector=StallDetector(
            window_G=evo.window_G,
            min_improvement=evo.min_improvement,
            history=_floats(loop["stall_history"], "stall_history"),
        ),
        reverse_counters={
            _id_key(k, "reverse_counters"): _of(int, v, "a reverse counter")
            for k, v in loop["reverse_counters"].items()
        },
        solved_at=None if solved_at is None else _of(int, solved_at, "solved_at"),
    )
    return Checkpoint(config=config, generation=_of(int, doc["generation"], "generation"), state=state)


def load_checkpoint(path: str | Path) -> Checkpoint:
    return checkpoint_from_json_dict(_read_json(path, "checkpoint"))


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def build_state(config: RunConfig) -> LoopState:
    return new_loop_state(
        problem=config.problem,
        env=make_env(config.env.name, config.env.params),
        config=config.evolution,
        roster_size=config.roster_size,
        population_limit=config.population_limit,
        max_order=config.max_order,
    )


def _drive(
    config: RunConfig,
    state: LoopState,
    start_generation: int,
    suffix: str,
    progress: Optional[Callable[[str], None]],
) -> RunReport:
    """Run the loop on `state` from `start_generation`, into the metrics CSV
    and final checkpoint named by the seed and `suffix`."""
    out_dir = resolve_output_dir(config)
    env = make_env(config.env.name, config.env.params)
    seed = config.evolution.seed
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
        outcome = run_symbiosis(
            env,
            config.evolution,
            state,
            breaks_enabled=config.breaks_enabled,
            reverse_enabled=config.reverse_enabled,
            start_generation=start_generation,
            on_row=on_row,
            on_checkpoint=on_checkpoint,
            checkpoint_every=config.checkpoint_every,
        )
    save_checkpoint(final_path, Checkpoint(config=config, generation=outcome.next_generation, state=state))
    return RunReport(
        solved=outcome.solved,
        generations_to_solve=outcome.generations_to_solve,
        final_pop_order=outcome.final_pop_order,
        metrics_path=str(metrics_path),
        checkpoint_path=str(final_path),
        break_events=len(state.pop.break_log),
    )


def run(config: RunConfig, progress: Optional[Callable[[str], None]] = None) -> RunReport:
    """Execute a fresh run: metrics CSV, periodic checkpoints, final checkpoint."""
    return _drive(config, build_state(config), 0, "", progress)


def resume(ckpt: Checkpoint, progress: Optional[Callable[[str], None]] = None) -> RunReport:
    """Continue a checkpointed run; outputs go to from-generation suffixed files
    so the original run's files stay intact."""
    g = ckpt.generation
    return _drive(ckpt.config, ckpt.state, g, f"-from{g}", progress)


SWEEP_HEADER = "seed,solved,generations_to_solve,final_pop_order,breaks"


def sweep(
    config: RunConfig, n_seeds: int, progress: Optional[Callable[[str], None]] = None
) -> tuple[list[RunReport], str]:
    """Run n_seeds consecutive seeds starting at the config seed and write a
    one-row-per-seed summary CSV."""
    if n_seeds < 1:
        raise ValidationError("seeds", "must be >= 1")
    base = config.evolution.seed
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


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass
class InvariantResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerifyReport:
    results: list[InvariantResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[InvariantResult]:
        return [r for r in self.results if not r.passed]


_OFFSPRING_TAG = re.compile(r"^o\d+:(\d+)(?:x(\d+))?$")
_CLONE_TAG = re.compile(r"^c\d+:(\d+)$")


def verify(ckpt: Checkpoint) -> VerifyReport:
    """Run every structural invariant against the snapshot; failures carry the
    offending ids instead of raising. No check looks for cycles: orders fall
    strictly along every constituent and every dependency edge that passes
    construction-order and dependency-order-gap, so a cycle fails one of them."""
    u = ckpt.state.universe
    pop = ckpt.state.pop
    ledger = ckpt.state.ledger
    env = make_env(ckpt.config.env.name, ckpt.config.env.params)
    w_max = ckpt.config.evolution.w_max
    results: list[InvariantResult] = []

    def record(name: str, bad: list[str]) -> None:
        results.append(InvariantResult(name, not bad, "; ".join(bad[:5])))

    bad = []
    for i, s in u.structures.items():
        if s.order < 1 or s.order > u.max_order:
            bad.append(f"structure {i} order {s.order} outside 1..{u.max_order}")
        if s.order == 1 and s.constituents:
            bad.append(f"primitive {i} has constituents")
        if s.order > 1:
            if not s.constituents:
                bad.append(f"composite {i} has no constituents")
            elif any(c not in u for c in s.constituents):
                bad.append(f"composite {i} references unknown constituents")
            elif s.order != 1 + max(u.structures[c].order for c in s.constituents):
                bad.append(f"composite {i} violates the order law")
    record("construction-order", bad)

    bad = []
    for a, b, level in u.graph.interaction_edges():
        if a not in u or b not in u:
            bad.append(f"interaction ({a},{b}) references unknown structure")
        if level < 1:
            bad.append(f"interaction ({a},{b}) at level {level} < 1")
    record("interaction-symmetry", bad)

    bad = []
    for d, e, _ in u.graph.dependency_edges():
        if d not in u or e not in u:
            bad.append(f"dependency ({d},{e}) references unknown structure")
        elif (gap := u.structures[d].order - u.structures[e].order) != 1:
            bad.append(f"dependency ({d},{e}) spans order gap {gap}")
    record("dependency-order-gap", bad)

    bad = []
    seen_members: set[int] = set()
    for m in pop.members:
        if m not in u:
            bad.append(f"member {m} not in universe")
        if m in seen_members:
            bad.append(f"member {m} listed twice")
        seen_members.add(m)
    if len(pop.members) > pop.population_limit:
        bad.append(f"roster {len(pop.members)} exceeds limit {pop.population_limit}")
    record("roster-membership", bad)

    bad = []
    if pop.pop_order_n < 1:
        bad.append(f"pop_order {pop.pop_order_n} < 1")
    orders = [u.get(m).order for m in pop.members if m in u]
    if orders:
        if max(orders) != pop.top_order:
            bad.append(f"max member order {max(orders)} != top order {pop.top_order}")
        if min(orders) < pop.base_order_r:
            bad.append(f"member order {min(orders)} below base order {pop.base_order_r}")
    record("population-order", bad)

    bad = []
    for event in pop.break_log:
        if event.composite not in u:
            bad.append(f"break composite {event.composite} missing")
            continue
        z = u.get(event.composite)
        if z.constituents != frozenset((event.dependent, event.dependee)):
            bad.append(f"break composite {event.composite} constituents differ from the event pair")
        expected_level = event.level_observed + 1
        for part in (event.dependent, event.dependee):
            if expected_level not in u.graph.dependency_levels(event.composite, part):
                bad.append(
                    f"break composite {event.composite} lacks the level-{expected_level} "
                    f"dependency on {part}"
                )
        if z.order != pop.base_order_r + event.level_observed:
            bad.append(f"break composite {event.composite} order {z.order} off its level")
    record("break-log", bad)

    bad = []
    for event in pop.break_log:
        levels = ledger.pending_levels(event.dependent, event.dependee)
        if not emergent(levels, event.level_observed):
            bad.append(
                f"break at gen {event.generation}: level {event.level_observed} is not "
                f"emergent in the pending levels {sorted(levels)}"
            )
    record("break-log-emergence", bad)

    # a key naming an unknown id is never live: state-compact reports it
    bad = []
    cap = SAMPLE_RING_FACTOR * ledger.top_m
    for m, samples in ledger.per_member.items():
        if len(samples) > cap:
            bad.append(f"ledger member {m} holds {len(samples)} samples, cap {cap}")
    bad += [f"cooccurrence pair ({x},{y}) is reflexive" for x, y in ledger.cooccur if x == y]
    record("ledger-references", bad)

    bad = []
    for i, s in u.structures.items():
        if s.order != 1:
            continue
        g = s.payload
        if not isinstance(g, NeuronGene):
            bad.append(f"primitive {i} payload is not a genome")
            continue
        if len(g.in_weights) != env.input_dim + 1:
            bad.append(f"genome {i} has {len(g.in_weights)} input weights, want {env.input_dim + 1}")
        if any(not 0 <= slot < env.output_dim for slot, _ in g.out_targets):
            bad.append(f"genome {i} targets an output slot outside 0..{env.output_dim - 1}")
        if g.activation not in ("tanh", "step"):
            bad.append(f"genome {i} activation {g.activation!r}")
        weights = list(g.in_weights) + [w for _, w in g.out_targets]
        if any(not abs(w) <= w_max for w in weights):  # NaN fails too
            bad.append(f"genome {i} weight exceeds {w_max}")
    record("genome-shape", bad)

    bad = []
    for i, s in u.structures.items():
        m = _OFFSPRING_TAG.match(s.tag)
        if m is not None:
            parents = [int(p) for p in m.groups() if p is not None]
            for p in parents:
                if p in u and u.get(p).order != s.order:
                    bad.append(f"offspring {i} (order {s.order}) from parent {p} of other order")
            continue
        m = _CLONE_TAG.match(s.tag)
        if m is not None:
            orig = int(m.group(1))
            if orig in u and u.get(orig).order != s.order:
                bad.append(f"clone {i} (order {s.order}) from original {orig} of other order")
    record("lineage-strata", bad)

    # every checkpoint follows a compaction, or a solving generation that
    # adds nothing outside the live set
    live = live_structures(u, pop)
    bad = [f"structure {i} is not live" for i in sorted(u.structures) if i not in live]
    bad += [f"ledger member {m} is not live" for m in sorted(ledger.per_member) if m not in live]
    for table, label in ((ledger.cooccur, "cooccurrence"), (ledger.pending, "pending")):
        bad += [
            f"{label} pair ({x},{y}) is not live"
            for x, y in sorted(table) if x not in live or y not in live
        ]
    record("state-compact", bad)

    return VerifyReport(results)


# ---------------------------------------------------------------------------
# inspection
# ---------------------------------------------------------------------------

def summarize_checkpoint(ckpt: Checkpoint) -> dict:
    """The inspect payload: population order, strata, break table, top scores."""
    u = ckpt.state.universe
    pop = ckpt.state.pop
    strata = pop.strata(u)
    scored = [[m, s] for m, s in ckpt.state.ledger.ranked(pop.members) if s is not None]
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
