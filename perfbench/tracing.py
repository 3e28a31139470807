"""Per-layer tracing from outside the program.

``traced()`` rebinds the public functions of sosage's modules, at the names
through which they are called, to timing wrappers, and puts the originals
back on exit. Calls nest: a wrapper's self time is its duration minus the
time of the traced calls made inside it. Every span is folded into per-name
totals (calls, self time) as it closes, so the hot leaves (``net_forward``,
env ``step``) cost two clock reads and no record per call.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

from sosage import envs, harness, symbio


def _reachable(universe, roots) -> set:
    seen: set = set()
    stack = [r for r in roots if r in universe]
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        stack.extend(universe.get(i).constituents)
    return seen


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        # child time of each open span; the bottom entry collects top-level spans
        self._open = [0.0]
        self.checkpoint_bytes = 0
        self.forward_repeats = 0
        self._seen_obs: set = set()
        self.cells_scanned = 0
        self.cells_live = 0
        # (structures, live structures, cooccurrence cells) at the end of each run
        self.run_ends: list[tuple[int, int, int]] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """Time ``fn`` under ``name``. The hooks see the call's arguments
        (``after`` also its result); their time counts as nobody's self time."""
        open_, calls, self_s = self._open, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                h0 = clock()
                before(*args, **kwargs)
                open_[-1] += clock() - h0
            open_.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = open_.pop()
                open_[-1] += dur
                calls[name] += 1
                self_s[name] += dur - child
            if after is not None:
                h0 = clock()
                after(result, *args, **kwargs)
                open_[-1] += clock() - h0
            return result

        return wrapper

    # --- hooks ---

    def _new_evaluation(self, *args: Any, **kwargs: Any) -> None:
        self._seen_obs = set()

    def _forward(self, wiring, obs, output_dim) -> None:
        if obs in self._seen_obs:
            self.forward_repeats += 1
        else:
            self._seen_obs.add(obs)

    def _detect(self, universe, ledger, pop, config) -> None:
        top = pop.top_order
        stratum = {m for m in pop.members if universe.structural_order(m) == top}
        self.cells_scanned += len(ledger.cooccur)
        self.cells_live += sum(1 for x, y in ledger.cooccur if x in stratum and y in stratum)

    def _saved(self, result, path, ckpt) -> None:
        self.checkpoint_bytes += os.path.getsize(path)

    def _run_end(self, result, env, config, state, *args: Any, **kwargs: Any) -> None:
        pop = state.pop
        roots = list(pop.members)
        for e in pop.break_log:
            roots += [e.composite, e.dependent, e.dependee]
        u = state.universe
        self.run_ends.append((len(u.structures), len(_reachable(u, roots)), len(state.ledger.cooccur)))

    # --- report ---

    def metrics(self) -> dict[str, float]:
        def ms(name: str) -> float:
            return self.self_s[name] * 1000.0

        forward_calls = self.calls["symbio.net_forward"]
        structures = sum(s for s, _, _ in self.run_ends)
        runs = max(1, len(self.run_ends))
        out = {}
        for name in ("envs.step", "symbio.evaluate", "symbio.net_forward", "rng.substream",
                     "harness.save_checkpoint", "symbio.detect_dependency",
                     "population.apply_break", "population.apply_reverse_break"):
            out[f"{name}.calls"] = self.calls[name]
        for name in ("envs.step", "envs.observation", "symbio.evaluate", "symbio.net_forward",
                     "rng.substream", "harness.save_checkpoint", "harness.load_checkpoint",
                     "harness.verify", "harness.write_metrics_row", "symbio.assemble",
                     "symbio.distribute_fitness", "symbio.evolve_generation",
                     "symbio.detect_dependency"):
            out[f"{name}.self_ms"] = ms(name)
        out["symbio.net_forward.repeat_frac"] = self.forward_repeats / max(1, forward_calls)
        out["harness.save_checkpoint.bytes"] = self.checkpoint_bytes
        out["symbio.detect_dependency.live_cell_frac"] = self.cells_live / max(1, self.cells_scanned)
        out["symbio.ledger.cooccur_cells"] = sum(c for _, _, c in self.run_ends) / runs
        out["hyperstruct.structures"] = structures / runs
        out["hyperstruct.live_structure_frac"] = (
            sum(live for _, live, _ in self.run_ends) / max(1, structures)
        )
        return out


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Rebind the traced names for the duration of the block.

    Names are patched where they are looked up at call time: ``symbio``
    imported ``substream``, ``apply_break`` and ``apply_reverse_break`` by
    name, ``harness`` imported ``run_symbiosis``, and env ``step`` and
    ``observation`` are methods of the env classes.
    """
    t = tracer
    targets = [
        (envs.XorEnv, "step", "envs.step", None, None),
        (envs.GridNavEnv, "step", "envs.step", None, None),
        (envs.XorEnv, "observation", "envs.observation", None, None),
        (envs.GridNavEnv, "observation", "envs.observation", None, None),
        (symbio, "net_forward", "symbio.net_forward", t._forward, None),
        (symbio, "evaluate", "symbio.evaluate", t._new_evaluation, None),
        (symbio, "assemble", "symbio.assemble", None, None),
        (symbio, "distribute_fitness", "symbio.distribute_fitness", None, None),
        (symbio, "detect_dependency", "symbio.detect_dependency", t._detect, None),
        (symbio, "evolve_generation", "symbio.evolve_generation", None, None),
        (symbio, "substream", "rng.substream", None, None),
        (symbio, "apply_break", "population.apply_break", None, None),
        (symbio, "apply_reverse_break", "population.apply_reverse_break", None, None),
        (harness, "run_symbiosis", "symbio.run_symbiosis", None, t._run_end),
        (harness, "write_metrics_row", "harness.write_metrics_row", None, None),
        (harness, "save_checkpoint", "harness.save_checkpoint", None, t._saved),
        (harness, "load_checkpoint", "harness.load_checkpoint", None, None),
        (harness, "verify", "harness.verify", None, None),
    ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in targets]
    try:
        for owner, attr, name, before, after in targets:
            setattr(owner, attr, t.wrap(name, owner.__dict__[attr], before, after))
        yield t
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
