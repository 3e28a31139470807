"""Desk-scale reinforcement environments.

Each environment is a stateless transition function over an immutable episode
state: reset picks the initial state for an episode index, step maps
(state, action) to (next state, reinforcement, terminal). rollout plays one
episode under a policy (observation -> action) and reports its undiscounted
return, the sum of the per-step reinforcements, and whether it succeeded.
Episode cycling on xor is deterministic so fitness is exact, not sampled.
Float totals here and in symbio are plain left-to-right folds, never the
builtin sum(), which compensates its rounding from Python 3.12 on and so
would give different bytes on different interpreters.

A gridnav rollout stops at the first repeated (x, y, subgoal visited) state
and books the rest of the episode without stepping it. This is exact for a
policy that is a pure function of the observation: the observation depends
only on (x, y), and the next state only on (x, y, subgoal visited, action),
so once a state repeats the episode cycles until the step counter ends it.
Every step of that cycle pays exactly -step_penalty: a subgoal visit would
set the flag, so the state could not repeat; a visit to the armed goal ends
the episode; a visit to the unarmed goal pays nothing. The episode then runs
out at max_steps without reaching the goal.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import add
from typing import Callable, Mapping, Sequence

from .errors import InvalidAction, ValidationError

ENV_NAMES = ("xor", "gridnav", "gridnav-compositional")

Policy = Callable[[tuple[float, ...]], int]


@dataclass(frozen=True)
class EnvSpec:
    name: str
    params: dict


class XorEnv:
    """Single-step XOR classification over the four +-1 input patterns.

    Episodes cycle the patterns in a fixed order; the action is the thresholded
    class of the network's single output and earns 1.0 when it matches the
    pattern's parity.
    """

    PATTERNS = ((-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0))

    input_dim = 2
    output_dim = 1
    max_steps = 1
    eval_episodes = 4

    def __init__(self) -> None:
        self.spec = EnvSpec("xor", {})

    def reset(self, episode_index: int):
        return self.PATTERNS[episode_index % 4]

    def observation(self, state) -> tuple[float, ...]:
        return state

    def select_action(self, outputs: Sequence[float]) -> int:
        return 1 if outputs[0] > 0.0 else 0

    def step(self, state, action: int):
        if action not in (0, 1):
            raise InvalidAction(f"xor action must be 0 or 1, got {action}")
        target = 1 if (state[0] > 0.0) != (state[1] > 0.0) else 0
        return state, (1.0 if action == target else 0.0), True

    def rollout(self, episode_index: int, policy: Policy) -> tuple[float, bool]:
        """One step; success is the right class."""
        state = self.reset(episode_index)
        _, reward, _ = self.step(state, policy(self.observation(state)))
        return reward, reward == 1.0


class GridNavEnv:
    """Grid navigation from a fixed start toward a goal, four move actions.

    The observation is (agent x, agent y, goal dx, goal dy), each mapped
    through v -> 2v/(size-1) - 1. The compositional variant keeps the same
    observation but pays the goal only after the subgoal has been visited, so
    following the goal delta is not enough: the policy has to route through
    the subgoal from position information alone.
    """

    # action -> (dx, dy); ties in select_action resolve to the lowest index
    MOVES = ((0, 1), (1, 0), (0, -1), (-1, 0))  # N, E, S, W

    eval_episodes = 1

    def __init__(
        self,
        size: int = 5,
        goal: tuple[int, int] = (4, 4),
        subgoal: tuple[int, int] | None = None,
        step_penalty: float = 0.01,
        goal_reward: float = 1.0,
        subgoal_reward: float = 0.5,
        max_steps: int | None = None,
    ) -> None:
        if size < 2:
            raise ValidationError("env.params.size", "grid size must be >= 2")
        if max_steps is None:
            max_steps = min(50, 4 * size * size)
        if max_steps < 1:
            raise ValidationError("env.params.max_steps", "must be >= 1")
        if max_steps > 4 * size * size:
            raise ValidationError(
                "env.params.max_steps", f"must be <= 4*size^2 = {4 * size * size}"
            )
        for label, (px, py) in (("goal", goal),) + ((("subgoal", subgoal),) if subgoal else ()):
            if not (0 <= px < size and 0 <= py < size):
                raise ValidationError(f"env.params.{label}", "must lie inside the grid")
        self.size = size
        self.goal = goal
        self.subgoal = subgoal
        self.step_penalty = step_penalty
        self.goal_reward = goal_reward
        self.subgoal_reward = subgoal_reward
        self.max_steps = max_steps
        self.input_dim = 4
        self.output_dim = 4
        name = "gridnav-compositional" if subgoal else "gridnav"
        params = {
            "size": size,
            "goal_x": goal[0],
            "goal_y": goal[1],
            "step_penalty": step_penalty,
            "goal_reward": goal_reward,
            "max_steps": max_steps,
        }
        if subgoal:
            params.update(subgoal_x=subgoal[0], subgoal_y=subgoal[1], subgoal_reward=subgoal_reward)
        self.spec = EnvSpec(name, params)

    def reset(self, episode_index: int):
        # (x, y, steps taken, subgoal visited)
        return (0, 0, 0, False)

    def _norm(self, v: float) -> float:
        return 2.0 * v / (self.size - 1) - 1.0

    def observation(self, state) -> tuple[float, ...]:
        x, y, _, _ = state
        tx, ty = self.goal
        return (self._norm(x), self._norm(y), self._norm(tx - x), self._norm(ty - y))

    def select_action(self, outputs: Sequence[float]) -> int:
        best = 0
        for k in range(1, 4):
            if outputs[k] > outputs[best]:
                best = k
        return best

    def step(self, state, action: int):
        if not 0 <= action < 4:
            raise InvalidAction(f"gridnav action must be in 0..3, got {action}")
        x, y, steps, subgoal_done = state
        dx, dy = self.MOVES[action]
        nx = min(self.size - 1, max(0, x + dx))
        ny = min(self.size - 1, max(0, y + dy))
        steps += 1
        reward = -self.step_penalty
        terminal = steps >= self.max_steps
        if self.subgoal is not None and not subgoal_done and (nx, ny) == self.subgoal:
            subgoal_done = True
            reward += self.subgoal_reward
        goal_armed = subgoal_done or self.subgoal is None
        if goal_armed and (nx, ny) == self.goal:
            reward += self.goal_reward
            terminal = True
        return (nx, ny, steps, subgoal_done), reward, terminal

    def rollout(self, episode_index: int, policy: Policy) -> tuple[float, bool]:
        """Play one episode; success is ending on the armed goal. Stops at
        the first repeated (x, y, subgoal visited) state, which is exact for
        a policy that is a pure function of the observation (module
        docstring)."""
        state = self.reset(episode_index)
        total = 0.0
        seen: set[tuple[int, int, bool]] = set()
        terminal = False
        while not terminal:
            x, y, steps, subgoal_done = state
            key = (x, y, subgoal_done)
            if key in seen:
                # the cycle's penalties are added one at a time, as its steps would be
                return reduce(add, repeat(-self.step_penalty, self.max_steps - steps), total), False
            seen.add(key)
            state, reward, terminal = self.step(state, policy(self.observation(state)))
            total += reward
        x, y, _, subgoal_done = state
        armed = subgoal_done or self.subgoal is None
        return total, armed and (x, y) == self.goal


def finite_float(raw: object, field: str) -> float:
    """A config number as a float. Bools, non-numbers, infinities, nan and
    ints beyond the float range raise ValidationError naming `field`."""
    # the bound check is exact for big ints and false for nan
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) \
            or not abs(raw) <= sys.float_info.max:
        raise ValidationError(field, "must be a finite number")
    return float(raw)


def make_env(name: str, params: Mapping[str, object] | None = None):
    """Build an environment from its config-facing name and flat params map.
    Grid params must be integers and reward params finite numbers; nothing
    is coerced."""
    params = dict(params or {})
    if name == "xor":
        if params:
            raise ValidationError("env.params", f"xor takes no params, got {sorted(params)}")
        return XorEnv()
    if name in ("gridnav", "gridnav-compositional"):
        for key in ("size", "goal_x", "goal_y", "subgoal_x", "subgoal_y", "max_steps"):
            raw = params.get(key, 0)
            if isinstance(raw, bool) or not isinstance(raw, int):
                raise ValidationError(f"env.params.{key}", "must be an integer")
        size = params.pop("size", 5)
        goal = (params.pop("goal_x", size - 1), params.pop("goal_y", size - 1))
        subgoal = None
        if name == "gridnav-compositional":
            subgoal = (params.pop("subgoal_x", 0), params.pop("subgoal_y", size - 1))
        kwargs = {}
        for key in ("step_penalty", "goal_reward", "subgoal_reward"):
            if key in params:
                kwargs[key] = finite_float(params.pop(key), f"env.params.{key}")
        if "max_steps" in params:
            kwargs["max_steps"] = params.pop("max_steps")
        if params:
            raise ValidationError("env.params", f"unknown keys {sorted(params)}")
        return GridNavEnv(size=size, goal=goal, subgoal=subgoal, **kwargs)
    raise ValidationError("env.name", f"must be one of {ENV_NAMES}, got {name!r}")
