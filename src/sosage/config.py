"""The run config reader. The dataclasses are the schema (`RunConfig` and
`EvolutionConfig` live in symbio, beside the loop that reads them): each
numeric field carries its bounds in its metadata, and `_read_fields` applies
them as it reads the value, so a config that loads can run."""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections import Counter
from dataclasses import Field, fields, is_dataclass, replace
from functools import cache
from pathlib import Path
from typing import AbstractSet, Any, Callable, Mapping

from .envs import ENVS, EnvSpec
from .errors import ParseError, ValidationError
from .population import ProblemSpec
from .symbio import EvolutionConfig, RunConfig

# caps on products of settings (config_from_dict forms them): the structures
# build_state makes, the env steps of one generation, and any total of returns
MAX_INITIAL_STRUCTURES = 10**4
MAX_GENERATION_STEPS = 10**6
MAX_RETURN_TOTAL = sys.float_info.max / 4


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


def finite_float(raw: Any, field: str) -> float:
    """A config number as a float. Bools, non-numbers, infinities, nan and
    ints beyond the float range raise ValidationError naming `field`."""
    # the bound check is exact for big ints and false for nan
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) \
            or not abs(raw) <= sys.float_info.max:
        raise ValidationError(field, "must be a finite number")
    return float(raw)


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


# annotation -> reader of a config value of that type; an `int | None` field
# is None only until its class fills in a default, and no file sets it None
_READERS = {"int": _as_int, "int | None": _as_int, "float": finite_float, "bool": _as_bool, "str": _as_text}


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


def make_env(name: Any, params: Any):
    """Build an environment from its config name and raw params map. The env
    class's fields are the schema: each param is read as every other setting
    is, and a "size_cap" in its metadata is checked once size is known."""
    if not isinstance(name, str) or name not in ENVS:
        raise ValidationError("env.name", f"must be one of {tuple(ENVS)}, got {name!r}")
    if not isinstance(params, Mapping):
        raise ValidationError("env.params", "must be an object")
    cls = ENVS[name]
    _reject_unknown(params, _names(cls), "env.params")
    env = cls(**_read_fields(cls, params, "env.params."))
    for f in fields(env):
        if "size_cap" in f.metadata and getattr(env, f.name) > (cap := f.metadata["size_cap"](env.size)):
            raise ValidationError(f"env.params.{f.name}", f"must {f.metadata['rule']} = [{f.metadata['low']}, {cap}]")
    return env


def config_from_dict(doc: Mapping[str, Any]) -> RunConfig:
    """Validate a raw config mapping and fill every default. The dataclasses
    are the schema: a key naming no field, or a value outside its field's bounds, is refused."""
    if not isinstance(doc, Mapping):
        raise ValidationError("config", "top level must be an object")
    _reject_unknown(doc, _names(RunConfig), "")

    env_doc = _section(doc, "env")
    _reject_unknown(env_doc, _names(EnvSpec), "env")
    if "name" not in env_doc:
        raise ValidationError("env.name", "is required")
    env = make_env(env_doc["name"], env_doc.get("params", {}))

    problem_doc = _section(doc, "problem")
    _reject_unknown(problem_doc, _names(ProblemSpec), "problem")
    problem = ProblemSpec(**_read_fields(ProblemSpec, problem_doc, "problem."))

    evo_doc = _section(doc, "evolution")
    _reject_unknown(evo_doc, _names(EvolutionConfig), "evolution")
    evolution = EvolutionConfig(**_read_fields(EvolutionConfig, evo_doc, "evolution."))

    settings = _read_fields(RunConfig, doc, "")
    if "population_limit" not in settings:  # twice roster_size, read as a set value is
        roster = settings.get("roster_size", RunConfig.roster_size)
        settings |= _read_fields(RunConfig, {"population_limit": 2 * roster}, "")
    params = {f.name: getattr(env, f.name) for f in fields(env)}  # asdict() costs 6x
    config = RunConfig(problem=problem, env=EnvSpec(env.name, params), evolution=evolution, **settings)

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
    # A ledger total folds up to max_generations * assemblies_per_generation fitnesses,
    # each eval_episodes returns of at most return_bound in size (a grid's max_steps *
    # |step_penalty| + |goal_reward| + |subgoal_reward|). detect_dependency and the
    # stall check take differences of totals, means or bests, up to twice that product,
    # and a factor 2 more covers rounding: hence float max / 4, past which one is inf.
    returns = evolution.max_generations * evolution.assemblies_per_generation * env.eval_episodes
    if returns * env.return_bound > MAX_RETURN_TOTAL:
        raise ValidationError("env.params", f"rewards let an episode return {env.return_bound:g} in size, "
                              f"and {returns} such returns in a run can total more than {MAX_RETURN_TOTAL:g}")
    return config


def _one_of_each(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object's dict, refused when it lists one key twice (json alone
    keeps the last value)."""
    if len(doc := dict(pairs)) < len(pairs):
        key = Counter(k for k, _ in pairs).most_common(1)[0][0]
        raise ParseError(f"key {key!r} appears twice in one object")
    return doc


_DECODER = json.JSONDecoder(object_pairs_hook=_one_of_each)  # built once: json.loads with a hook builds one per call


def _read_json(path: str | Path, what: str) -> Any:
    """Parse a JSON file; every way it can fail is a ParseError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {what} {path}: {e}") from e
    try:
        return _DECODER.decode(text)
    except ParseError as e:  # a key written twice
        raise ParseError(f"{path}: {e}") from None
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
    """A config dataclass as a dict of its fields, recursively, each dict copied,
    and any other value as it is, for config_from_dict to refuse by name.
    Its instance dict holds just its fields: fields() costs 3x, asdict() 10x."""
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, dict):
        return dict(value)
    if is_dataclass(value):
        return {name: _echo(field) for name, field in vars(value).items()}
    return value


def config_to_json_dict(config: RunConfig) -> dict:
    """Every field of the config in file schema form."""
    return _echo(config)


def config_digest(config: RunConfig) -> str:
    return echo_digest(config_to_json_dict(config))


def echo_digest(echo: Mapping[str, Any]) -> str:
    """The sha256 of a config echo as compact JSON with sorted keys."""
    canonical = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def with_seed(config: RunConfig, seed: int) -> RunConfig:
    """The config with its seed replaced; a seed outside 64 bits is refused."""
    return replace(config, **_read_fields(RunConfig, {"seed": seed}, ""))
