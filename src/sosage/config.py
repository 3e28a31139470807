"""Run configs. The dataclasses are the schema: each numeric field carries
its bounds in its metadata, and `_read_fields` applies them as it reads the
value, so a config that loads can run."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import Field, dataclass, field, fields, replace
from functools import cache
from pathlib import Path
from typing import AbstractSet, Any, Callable, Mapping

from .envs import EnvSpec, finite_float, make_env
from .errors import ParseError, ValidationError
from .hyperstruct import DEFAULT_MAX_ORDER
from .population import ProblemSpec
from .symbio import EvolutionConfig

# caps on products of settings (config_from_dict forms them): the structures
# build_state makes, and the env steps one generation may take
MAX_INITIAL_STRUCTURES = 10**4
MAX_GENERATION_STEPS = 10**6


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
