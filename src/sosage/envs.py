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

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import repeat
from operator import add
from typing import Callable, Sequence

from .errors import SosageError

Policy = Callable[[tuple[float, ...]], int]
Episode = tuple[float, bool]  # what rollout returns: (return, succeeded)


@dataclass(frozen=True)
class EnvSpec:
    name: str
    params: dict


class _CellTable(dict):
    """A table filled entry by entry: a missing key is computed as
    `fill(*key)` at its first lookup and kept."""

    __slots__ = ("fill",)

    def __init__(self, fill: Callable[..., object]) -> None:
        super().__init__()
        self.fill = fill

    def __missing__(self, key: tuple):
        value = self[key] = self.fill(*key)
        return value


@dataclass
class XorEnv:
    """Single-step XOR classification over the four +-1 input patterns.

    Episodes cycle the patterns in a fixed order; the action is the thresholded
    class of the network's single output and earns 1.0 when it matches the
    pattern's parity. It has no fields, so it takes no params.
    """

    PATTERNS = ((-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0))

    name = "xor"
    input_dim = 2
    output_dim = 1
    max_steps = 1
    eval_episodes = 4
    return_bound = 1.0  # an episode pays 0.0 or 1.0

    def reset(self, episode_index: int):
        return self.PATTERNS[episode_index % 4]

    def observation(self, state) -> tuple[float, ...]:
        return state

    def select_action(self, outputs: Sequence[float]) -> int:
        return 1 if outputs[0] > 0.0 else 0

    def step(self, state, action: int):
        if action not in (0, 1):
            raise SosageError(f"xor action must be 0 or 1, got {action}")
        target = 1 if (state[0] > 0.0) != (state[1] > 0.0) else 0
        return state, (1.0 if action == target else 0.0), True

    def rollout(self, episode_index: int, policy: Policy) -> Episode:
        """One step; success is the right class."""
        state = self.PATTERNS[episode_index % 4]
        _, reward, _ = self.step(state, policy(self.observation(state)))
        return reward, reward == 1.0


# a cell coordinate; config checks the top end, size -> cap, once size is known
CELL = {"low": 0, "size_cap": lambda size: size - 1, "rule": "lie in [0, size-1]"}


@dataclass
class GridNavEnv:
    """Grid navigation from a fixed start toward a goal, four move actions.

    The observation is (agent x, agent y, goal dx, goal dy), each mapped
    through v -> 2v/(size-1) - 1. Its fields are its params, each with its
    bounds in its metadata; a field left None takes its default from size.
    """

    # action -> (dx, dy); ties in select_action resolve to the lowest index
    MOVES = ((0, 1), (1, 0), (0, -1), (-1, 0))  # N, E, S, W

    name = "gridnav"
    input_dim = 4
    output_dim = 4
    eval_episodes = 1
    subgoal = None

    # up to 2**53 every cell coordinate and goal delta is exact in float64
    size: int = field(default=5, metadata={"low": 2, "high": 2**53, "rule": "lie in [2, 2**53]"})
    goal_x: int | None = field(default=None, metadata=CELL)  # default size-1
    goal_y: int | None = field(default=None, metadata=CELL)  # default size-1
    step_penalty: float = 0.01
    goal_reward: float = 1.0
    max_steps: int | None = field(default=None, metadata={  # default min(50, 4*size^2)
        "low": 1, "size_cap": lambda size: 4 * size * size, "rule": "lie in [1, 4*size^2]"})

    def __post_init__(self) -> None:
        self.goal_x = self.size - 1 if self.goal_x is None else self.goal_x
        self.goal_y = self.size - 1 if self.goal_y is None else self.goal_y
        self.max_steps = min(50, 4 * self.size * self.size) if self.max_steps is None else self.max_steps
        self.goal = (self.goal_x, self.goal_y)

    @property
    def return_bound(self) -> float:  # no episode's return is larger in size
        return self.max_steps * abs(self.step_penalty) + abs(self.goal_reward)

    def reset(self, episode_index: int):
        # (x, y, steps taken, subgoal visited)
        return (0, 0, 0, False)

    def _norm(self, v: float) -> float:
        return 2.0 * v / (self.size - 1) - 1.0

    # The tables are made at the first step and filled cell by cell as
    # episodes reach them: a whole table takes O(size^2) memory (95 KB at
    # size 9, 11.6 MB at size 100), and an env is also made to read a
    # checkpoint, where it never steps.

    @cached_property
    def _observations(self) -> _CellTable:
        return _CellTable(self._cell_observation)

    @cached_property
    def _moves(self) -> _CellTable:
        return _CellTable(self._cell_moves)

    def _cell_observation(self, x: int, y: int) -> tuple[float, ...]:
        tx, ty = self.goal
        return (self._norm(x), self._norm(y), self._norm(tx - x), self._norm(ty - y))

    def _cell_moves(self, x: int, y: int, subgoal_done: bool) -> tuple:
        """What each action does from (x, y): the next cell, whether the
        subgoal is now visited, the step's reward and whether the step ends
        on the armed goal."""
        def outcome(dx: int, dy: int):
            nx = min(self.size - 1, max(0, x + dx))
            ny = min(self.size - 1, max(0, y + dy))
            reward = -self.step_penalty
            done = subgoal_done
            if self.subgoal is not None and not done and (nx, ny) == self.subgoal:
                done = True
                reward += self.subgoal_reward
            goal_armed = done or self.subgoal is None
            on_goal = goal_armed and (nx, ny) == self.goal
            if on_goal:
                reward += self.goal_reward
            return nx, ny, done, reward, on_goal

        return tuple(outcome(dx, dy) for dx, dy in self.MOVES)

    def observation(self, state) -> tuple[float, ...]:
        x, y, _, _ = state
        return self._observations[x, y]

    def select_action(self, outputs: Sequence[float]) -> int:
        """The index of the largest of the first four outputs; a tie or a
        nan goes to the lowest index."""
        best, top = 0, outputs[0]
        if outputs[1] > top:
            best, top = 1, outputs[1]
        if outputs[2] > top:
            best, top = 2, outputs[2]
        if outputs[3] > top:
            best = 3
        return best

    def step(self, state, action: int):
        """One move, read from the move table."""
        if not 0 <= action < 4:
            raise SosageError(f"gridnav action must be in 0..3, got {action}")
        x, y, steps, subgoal_done = state
        nx, ny, subgoal_done, reward, on_goal = self._moves[x, y, subgoal_done][action]
        steps += 1
        return (nx, ny, steps, subgoal_done), reward, on_goal or steps >= self.max_steps

    def rollout(self, episode_index: int, policy: Policy) -> Episode:
        """Play one episode; success is ending on the armed goal. Stops at
        the first repeated (x, y, subgoal visited) state, which is exact for
        a policy that is a pure function of the observation (module
        docstring)."""
        step, observation = self.step, self.observation
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
            state, reward, terminal = step(state, policy(observation(state)))
            total += reward
        x, y, _, subgoal_done = state
        armed = subgoal_done or self.subgoal is None
        return total, armed and (x, y) == self.goal


@dataclass
class CompositionalGridNavEnv(GridNavEnv):
    """Grid navigation whose goal pays only after the subgoal has been
    visited. The observation is plain gridnav's, so following the goal delta
    is not enough: the policy has to route through the subgoal from position
    information alone."""

    name = "gridnav-compositional"

    subgoal_x: int = field(default=0, metadata=CELL)
    subgoal_y: int | None = field(default=None, metadata=CELL)  # default size-1
    subgoal_reward: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        self.subgoal_y = self.size - 1 if self.subgoal_y is None else self.subgoal_y
        self.subgoal = (self.subgoal_x, self.subgoal_y)

    @property
    def return_bound(self) -> float:
        return super().return_bound + abs(self.subgoal_reward)


# config name -> env class; a class's fields are the params its config takes
ENVS = {env.name: env for env in (XorEnv, GridNavEnv, CompositionalGridNavEnv)}

