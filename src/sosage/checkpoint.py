"""The checkpoint file format, `sosage-checkpoint-v10`. No other module
knows it: one writer encodes the config, generation and loop state, and one
reader takes each value only in the form the writer gives it. Every float of
the state is written once, in the document's `floats` table, and each slot
that holds it holds its index. A genome is its two weight lists: the
position of an output weight is its output, so no slot number or activation
is written. Every table is an array of positional rows, each id a JSON
integer."""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass, fields
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

from .config import (
    RunConfig,
    _read_json,
    _reject_unknown,
    config_digest,
    config_from_dict,
    config_to_json_dict,
    echo_digest,
)
from .errors import ParseError, SosageError
from .hyperstruct import Structure, Universe
from .population import BreakEvent, Population
from .symbio import CooccurCell, FitnessLedger, LoopState, NeuronGene

CHECKPOINT_FORMAT = "sosage-checkpoint-v10"


@dataclass
class Checkpoint:
    config: RunConfig
    generation: int
    state: LoopState


def checkpoint_to_json_dict(ckpt: Checkpoint) -> dict:
    """The whole v10 document. Every table is an array of flat rows, the
    id-keyed ones sorted by id: a primitive's structure row is `[id, 1, [],
    tag, in_weights, out_weights]`, a per_member row `[id, samples]`, a
    cooccur row `[x, y, both_count, both_total, solo_count, solo_total]`, a
    reverse counter `[id, count]`, and a break log row BreakEvent's fields,
    one row per break in order. Each float slot holds an index into
    `floats`, which lists each distinct value once (an int weight or total as
    its float) in order of first use: structures by id, per_member by id,
    cooccur by pair, then stall_history. Settings live only in the embedded
    config; save_checkpoint sorts every object's keys."""
    u, pop, ledger = ckpt.state.universe, ckpt.state.pop, ckpt.state.ledger
    table: dict[Any, int] = {}

    def at(value: Any) -> int:
        return table.setdefault(_float_key(float(value)), len(table))

    structures = []
    for i in sorted(u.structures):
        s = u.structures[i]
        row: list[Any] = [s.id, s.order, sorted(s.constituents), s.tag]
        if s.order == 1:  # a payload that is no genome is one item, written as it is for verify to report
            g = s.payload
            row += [g] if not isinstance(g, NeuronGene) else [list(map(at, g.in_weights)), list(map(at, g.out_weights))]
        structures.append(row)
    echo = config_to_json_dict(ckpt.config)
    return {  # built in this order, so the table follows first use
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
            "break_log": [list(vars(e).values()) for e in pop.break_log],
        },
        "ledger": {
            "per_member": [[m, list(map(at, samples))] for m, samples in sorted(ledger.per_member.items())],
            "cooccur": [  # the pair, then CooccurCell's fields
                [x, y, c.both_count, at(c.both_total), c.solo_count, at(c.solo_total)]
                for (x, y), c in sorted(ledger.cooccur.items())
            ],
        },
        "loop": {
            "stall_history": list(map(at, ckpt.state.stall_history)),
            "reverse_counters": [list(item) for item in sorted(ckpt.state.reverse_counters.items())],
            "solved_at": ckpt.state.solved_at,
        },
        "floats": list(map(float, table)),
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


def _float_key(value: float) -> Any:
    """`value` itself, or a zero by its text, so 0.0 and -0.0 are two entries
    and `float` of the key is the value."""
    return value if value else str(value)


class _FloatTable:
    """The document's `floats`: finite floats, each written as a JSON number
    with a decimal point or exponent, so an int is no float, and no two with
    the same bits. Reading a slot marks the entries it names, so `unused`
    ends up holding the entries no slot names."""

    def __init__(self, raw: Any):
        self.values = _list(raw, "floats", float)
        if not all(map(math.isfinite, self.values)):
            raise ValueError("floats must hold finite numbers only")
        # distinct values have distinct bits; only 0.0 == -0.0 needs the keys
        n = len(self.values)
        if len(set(self.values)) < n and len(set(map(_float_key, self.values))) < n:
            raise ValueError("floats holds one value twice")
        self.unused = set(range(n))

    def each(self, raw: Any, what: str) -> list[float]:
        """The floats a list of indices names: each index an int, no bool,
        inside the table (a negative index would count from its end)."""
        indices = _list(raw, what, int)
        if indices and (min(indices) < 0 or max(indices) >= len(self.values)):
            raise ValueError(f"{what} names an index outside the floats table")
        self.unused.difference_update(indices)
        return list(map(self.values.__getitem__, indices))


def _malformed(label: str, rule: str) -> ValueError:
    return ValueError(f"{label}: {rule}")


_ID, _PAIR = itemgetter(0), itemgetter(0, 1)


def _rows(raw: Any, what: str, width: int, ints: int, key: Optional[Callable[[list], Any]] = None) -> list[list]:
    """`raw` when it is a list of rows of `width` items whose first `ints`
    items are ints (checked whole, to keep loading cheap), and with a `key`
    (`_ID` or `_PAIR`), no two rows with one key. The writer sorts such a
    table by key, but the loop reads it in no order: rows in another order
    load the same."""
    rows = _list(raw, what, list)
    if widths := set(map(len, rows)) - {width}:
        raise ValueError(f"a {what} row has {min(widths)} items, not {width}")
    if not {int}.issuperset(kinds := {type(v) for row in rows for v in row[:ints]}):
        kind = min(k.__name__ for k in kinds - {int})
        raise TypeError(f"a {what} row holds a {kind} where the writer writes an int")
    if key is not None and len(set(map(key, rows))) < len(rows):
        twice = min(k for k, n in Counter(map(key, rows)).items() if n > 1)
        raise ValueError(f"{what} lists {'id' if key is _ID else 'pair'} {twice} twice")
    return rows


def _payload_from_row(rest: list, floats: _FloatTable) -> Any:
    """A genome from its two items, `[in_weights, out_weights]`, each a list
    of indices into the floats table; a payload that is no genome is one
    item, kept as it is for verify's genome-shape check to report."""
    if len(rest) == 1:
        return rest[0]
    in_weights, out_weights = rest
    return NeuronGene(tuple(floats.each(in_weights, "in_weights")), tuple(floats.each(out_weights, "out_weights")))


def _universe_from_json(doc: Mapping[str, Any], floats: _FloatTable) -> Universe:
    u = Universe()
    _reject_unknown(doc, {"structures", "depends", "next_id"}, "universe", _malformed)
    for row in _list(doc["structures"], "structures", list):
        sid, order, constituents, tag, *rest = row
        # only a primitive carries a payload, and it always does
        if len(rest) not in ((1, 2) if _of(int, order, "a structure order") == 1 else (0,)):
            raise ValueError(f"a structure row of order {order} has {len(row)} items")
        s = Structure(
            id=_of(int, sid, "a structure id"),
            order=order,
            constituents=frozenset(_list(constituents, "constituents", int)),
            payload=_payload_from_row(rest, floats) if rest else None,
            tag=_of(str, tag, "a structure tag"),
        )
        if s.id in u.structures:
            raise ValueError(f"structure {s.id} is listed twice")
        u.structures[s.id] = s
    # stored, not derived: the highest ids may have been dropped by retain
    u.next_id = _of(int, doc["next_id"], "next_id")
    if u.next_id <= max(u.structures, default=-1):
        raise ValueError(f"next_id {u.next_id} does not exceed every structure id")
    # stored as read, unchecked: verify reports a bad edge
    for d, e, level in _rows(doc["depends"], "depends", 3, 3):
        u.depends.setdefault((d, e), set()).add(level)
    return u


def _population_from_json(doc: Mapping[str, Any], base_order_r: int) -> Population:
    _reject_unknown(doc, {"members", "pop_order_n", "break_log"}, "population", _malformed)
    # a row holds BreakEvent's fields in order; reversed_at is null until a reverse
    width = len(fields(BreakEvent))
    events = _rows(doc["break_log"], "break_log", width, width - 1)
    if any(r is not None and type(r) is not int for *_, r in events):
        raise TypeError("a break_log reversed_at must be int or null")
    return Population(
        members=list(_list(doc["members"], "members", int)),
        base_order_r=base_order_r,
        pop_order_n=_of(int, doc["pop_order_n"], "pop_order_n"),
        break_log=[BreakEvent(*row) for row in events],
    )


def _ledger_from_json(doc: Mapping[str, Any], floats: _FloatTable) -> FitnessLedger:
    _reject_unknown(doc, {"per_member", "cooccur"}, "ledger", _malformed)
    rows = _rows(doc["per_member"], "per_member", 2, 1, _ID)
    per_member = {m: floats.each(samples, "per_member samples") for m, samples in rows}
    rows = _rows(doc["cooccur"], "cooccur", 6, 6, _PAIR)  # every item an int, the totals' indices too
    totals = iter(floats.each([i for row in rows for i in row[3::2]], "cooccur totals"))  # both, then solo
    cooccur = {(x, y): CooccurCell(bc, next(totals), sc, next(totals)) for x, y, bc, _, sc, _ in rows}
    return FitnessLedger(per_member, cooccur)


def _checkpoint_from_doc(doc: Mapping[str, Any]) -> Checkpoint:
    keys = {"format", "config", "config_digest", "generation", "universe", "population", "ledger", "loop", "floats"}
    _reject_unknown(doc, keys, "checkpoint", _malformed)
    config = config_from_dict(doc["config"])
    stored = doc.get("config_digest", "")
    if config_digest(config) != stored:
        raise SosageError("embedded config does not match its stored digest")
    # settings come from the digested config only; the state keeps just the
    # base order, which top_order reads
    evo = config.evolution
    loop = doc["loop"]
    _reject_unknown(loop, {"stall_history", "reverse_counters", "solved_at"}, "loop", _malformed)
    solved_at = loop["solved_at"]
    generation = _of(int, doc["generation"], "generation")
    # a periodic checkpoint comes before the budget and the solve, a final
    # one after the solve and at the budget at most
    if not 0 <= generation <= evo.max_generations:
        raise ValueError(f"generation {generation} is outside 0..max_generations {evo.max_generations}")
    if solved_at is not None and not 0 <= _of(int, solved_at, "solved_at") < generation:
        raise ValueError(f"solved_at {solved_at} is not a generation before {generation}")
    # the loop keeps at most window_G of history, and a reverse counter starts at 1 and only grows
    history = _list(loop["stall_history"], "stall_history")
    if len(history) > evo.window_G:
        raise ValueError(f"stall_history holds {len(history)} entries, more than window_G {evo.window_G}")
    counters = dict(_rows(loop["reverse_counters"], "reverse_counters", 2, 2, _ID))
    if counters and min(counters.values()) < 1:
        raise ValueError(f"reverse counter {min(counters.values())} is below 1")
    floats = _FloatTable(doc["floats"])
    state = LoopState(
        universe=_universe_from_json(doc["universe"], floats),
        pop=_population_from_json(doc["population"], config.problem.base_solver_order_r),
        ledger=_ledger_from_json(doc["ledger"], floats),
        stall_history=floats.each(history, "stall_history"),
        reverse_counters=counters,
        solved_at=solved_at,
    )
    if floats.unused:
        raise ValueError(f"floats entry {min(floats.unused)} is named by no slot")
    return Checkpoint(config=config, generation=generation, state=state)


def load_checkpoint(path: str | Path) -> Checkpoint:
    return checkpoint_from_json_dict(_read_json(path, "checkpoint"))
