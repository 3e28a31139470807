"""The checkpoint file format, `sosage-checkpoint-v6`. No other module knows
it: one writer encodes the config, generation and loop state, and one reader
takes each value only in the form the writer gives it."""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Mapping, Optional

from .config import (
    RunConfig,
    _names,
    _read_json,
    _reject_unknown,
    config_digest,
    config_from_dict,
    config_to_json_dict,
    echo_digest,
)
from .errors import DigestMismatch, ParseError, SosageError
from .hyperstruct import Structure, Universe
from .population import BreakEvent, Population, StallDetector
from .symbio import CooccurCell, FitnessLedger, LoopState, NeuronGene

CHECKPOINT_FORMAT = "sosage-checkpoint-v6"


@dataclass
class Checkpoint:
    config: RunConfig
    generation: int
    state: LoopState


def checkpoint_to_json_dict(ckpt: Checkpoint) -> dict:
    """The whole v6 document. Structure rows and co-occurrence cells are flat
    arrays; every float is a JSON number, an int weight or total written as
    its float; settings live only in the embedded config; save_checkpoint
    sorts every object's keys."""
    u, pop, ledger = ckpt.state.universe, ckpt.state.pop, ckpt.state.ledger
    if declared := u.declared_interactions():  # the file derives every other interaction edge
        raise SosageError(f"declared interaction edge {declared[0]} has no place in a checkpoint")
    structures = []
    for i in sorted(u.structures):
        s = u.structures[i]
        row: list[Any] = [s.id, s.order, sorted(s.constituents), s.tag]
        if s.order == 1:  # a payload that is no genome is one item, written as it is for verify to report
            g = s.payload
            row += [g] if not isinstance(g, NeuronGene) else [
                list(map(float, g.in_weights)), [[slot, float(w)] for slot, w in g.out_targets], g.activation,
            ]
        structures.append(row)
    echo = config_to_json_dict(ckpt.config)
    return {
        "format": CHECKPOINT_FORMAT,
        "config": echo,
        "config_digest": echo_digest(echo),
        "generation": ckpt.generation,
        "universe": {
            "structures": structures,
            "depends": [list(e) for e in u.dependency_edges()],
            "next_id": u.next_id,
        },
        "population": {
            "members": list(pop.members),
            "pop_order_n": pop.pop_order_n,
            "break_log": [asdict(e) for e in pop.break_log],
        },
        "ledger": {
            "per_member": {str(m): list(map(float, samples)) for m, samples in ledger.per_member.items()},
            "cooccur": {  # one flat array per cell, in CooccurCell's field order
                f"{x},{y}": [c.both_count, float(c.both_total), c.solo_count, float(c.solo_total)]
                for (x, y), c in ledger.cooccur.items()
            },
            "pending": {f"{x},{y}": sorted(levels) for (x, y), levels in ledger.pending.items()},
        },
        "loop": {
            "stall_history": list(map(float, ckpt.state.detector.history)),
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
    try:  # a non-finite float or an unencodable payload is refused here, before any file is opened
        doc = checkpoint_to_json_dict(ckpt)
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    except (TypeError, ValueError) as e:
        raise SosageError(f"cannot encode checkpoint: {e}") from e
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
    """Finite floats, each written as a JSON number with a decimal point or
    exponent, so an int is no float."""
    if not all(map(math.isfinite, _list(raw, what, float))):
        raise ValueError(f"{what} must hold finite numbers only")
    return list(raw)


def _float(raw: Any, what: str) -> float:
    """One finite float, written as a JSON number."""
    if not math.isfinite(_of(float, raw, what)):
        raise ValueError(f"{what} must be finite, got {raw!r}")
    return raw


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


def _payload_from_row(rest: list) -> Any:
    """A genome from its three items, `[in_weights, out_targets, activation]`;
    a payload that is no genome is one item, kept as it is for verify's
    genome-shape check to report."""
    if len(rest) == 1:
        return rest[0]
    in_weights, out_targets, activation = rest
    return NeuronGene(
        in_weights=tuple(_floats(in_weights, "in_weights")),
        out_targets=tuple(
            (_of(int, slot, "an output slot"), _float(w, "an output weight"))
            for slot, w in _list(out_targets, "out_targets", list)
        ),
        activation=_of(str, activation, "activation"),
    )


def _universe_from_json(doc: Mapping[str, Any], max_order: int) -> Universe:
    u = Universe(max_order=max_order)
    _reject_unknown(doc, {"structures", "depends", "next_id"}, "universe", _malformed)
    for row in _list(doc["structures"], "structures", list):
        sid, order, constituents, tag, *rest = row
        # only a primitive carries a payload, and it always does
        if len(rest) not in ((1, 3) if _of(int, order, "a structure order") == 1 else (0,)):
            raise ValueError(f"a structure row of order {order} has {len(row)} items")
        s = Structure(
            id=_of(int, sid, "a structure id"),
            order=order,
            constituents=frozenset(_list(constituents, "constituents", int)),
            payload=_payload_from_row(rest) if rest else None,
            tag=_of(str, tag, "a structure tag"),
        )
        if s.id in u.structures:
            raise ValueError(f"structure {s.id} is listed twice")
        u.structures[s.id] = s
    # stored, not derived: the highest ids may have been dropped by retain
    u.next_id = _of(int, doc["next_id"], "next_id")
    if u.next_id <= max(u.structures, default=-1):
        raise ValueError(f"next_id {u.next_id} does not exceed every structure id")
    edges = _list(doc["depends"], "depends", list)
    _list([v for edge in edges for v in edge], "depends", int)
    for d, e, level in edges:  # stored as read, unchecked: verify reports a bad edge
        u.depends.setdefault((d, e), set()).add(level)
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
        bc, bt, sc, st = _list(row, "cooccur")
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
    generation = _of(int, doc["generation"], "generation")
    if generation < 0:
        raise ValueError(f"generation {generation} is negative")
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
    return Checkpoint(config=config, generation=generation, state=state)


def load_checkpoint(path: str | Path) -> Checkpoint:
    return checkpoint_from_json_dict(_read_json(path, "checkpoint"))
