"""Environment semantics: xor cycling, grid kinematics, reward gating."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosage.checkpoint import load_checkpoint
from sosage.config import MAX_RETURN_TOTAL, config_from_dict, make_env
from sosage.envs import CompositionalGridNavEnv, EnvSpec, GridNavEnv, XorEnv
from sosage.errors import SosageError, ValidationError
from sosage.harness import run
from sosage.invariants import verify
from sosage.symbio import net_forward, random_genome

from support import exactly, fold, grid_shortest_steps

PROPERTY_SETTINGS = settings(max_examples=120, deadline=None)


def grid(goal=None, subgoal=None, **params):
    """A grid env with its goal and, given a subgoal, the compositional one."""
    if goal is not None:
        params.update(goal_x=goal[0], goal_y=goal[1])
    if subgoal is None:
        return GridNavEnv(**params)
    return CompositionalGridNavEnv(subgoal_x=subgoal[0], subgoal_y=subgoal[1], **params)


def walk(env, policy, episode_index=0):
    """Step-by-step oracle: drive env.step until the episode ends, with no
    cut-off. The policy sees the observation and the state. Returns the
    per-step rewards, the terminal flag and the final state."""
    state = env.reset(episode_index)
    rewards = []
    terminal = False
    while not terminal and len(rewards) < env.max_steps:
        state, reward, terminal = env.step(state, policy(env.observation(state), state))
        rewards.append(reward)
    return rewards, terminal, state


def walk_outcome(env, policy):
    """(return, succeeded) of a full walk: success is ending on the goal
    with the subgoal, if there is one, visited."""
    rewards, _, (x, y, _, subgoal_done) = walk(env, lambda obs, _state: policy(obs))
    reached = (x, y) == env.goal and (subgoal_done or env.subgoal is None)
    return fold(rewards), reached


def counting(policy):
    """Wrap a policy so calls[0] counts the steps actually played."""
    calls = [0]

    def wrapped(obs):
        calls[0] += 1
        return policy(obs)

    return wrapped, calls


def cell(env, obs):
    """Grid cell of an observation (inverse of the position map)."""
    return tuple(round((v + 1.0) * (env.size - 1) / 2.0) for v in obs[:2])


class TestXor:
    def test_patterns_cycle_deterministically(self):
        env = XorEnv()
        assert [env.reset(k) for k in range(8)] == list(XorEnv.PATTERNS) * 2

    def test_observation_is_the_pattern(self):
        env = XorEnv()
        assert env.observation((-1.0, 1.0)) == (-1.0, 1.0)

    def test_action_threshold(self):
        env = XorEnv()
        assert env.select_action([0.5]) == 1
        assert env.select_action([0.0]) == 0
        assert env.select_action([-2.0]) == 0

    @pytest.mark.parametrize("pattern", XorEnv.PATTERNS)
    def test_reward_is_parity_match(self, pattern):
        env = XorEnv()
        target = 1 if (pattern[0] > 0) != (pattern[1] > 0) else 0
        _, hit, terminal = env.step(pattern, target)
        _, miss, _ = env.step(pattern, 1 - target)
        assert (hit, miss, terminal) == (1.0, 0.0, True)

    def test_invalid_action_rejected(self):
        with pytest.raises(SosageError, match=exactly("xor action must be 0 or 1, got 2")):
            XorEnv().step((-1.0, -1.0), 2)

    def test_succeeded_reads_final_reward(self):
        env = XorEnv()
        for k, (a, b) in enumerate(XorEnv.PATTERNS):
            target = 1 if (a > 0) != (b > 0) else 0
            right, calls = counting(lambda obs: target)
            assert env.rollout(k, right) == (1.0, True)
            assert calls[0] == 1
            assert env.rollout(k, lambda obs: 1 - target) == (0.0, False)


class TestGridKinematics:
    def test_moves_match_compass(self):
        env = grid(size=5, goal=(4, 4))
        state = (2, 2, 0, False)
        for action, (dx, dy) in enumerate(GridNavEnv.MOVES):
            (nx, ny, steps, _), reward, terminal = env.step(state, action)
            assert (nx, ny) == (2 + dx, 2 + dy)
            assert steps == 1 and reward == -0.01 and not terminal

    def test_walls_clip(self):
        env = grid(size=3, goal=(2, 2), max_steps=30)
        for state, action in (((0, 0, 0, False), 3), ((0, 0, 0, False), 2),
                              ((2, 0, 0, False), 1), ((0, 2, 0, False), 0)):
            (nx, ny, _, _), _, _ = env.step(state, action)
            assert (nx, ny) == state[:2]

    def test_max_steps_terminates_without_goal(self):
        env = grid(size=5, goal=(4, 4), max_steps=3)
        rewards, terminal, _ = walk(env, lambda obs, s: 2)  # walk south into the wall
        assert terminal and len(rewards) == 3
        episode_return, succeeded = env.rollout(0, lambda obs: 2)
        assert not succeeded
        assert episode_return == fold(rewards) == pytest.approx(-0.03)

    def test_rollout_stops_stepping_at_first_repeated_state(self):
        env = grid(size=5, goal=(4, 4), max_steps=50)
        # north from row 0, south from row 1: a two-cell loop from the start
        bounce, calls = counting(lambda obs: 0 if obs[1] == -1.0 else 2)
        episode_return, succeeded = env.rollout(0, bounce)
        assert calls[0] == 2
        assert not succeeded
        assert episode_return == fold([-0.01] * 50)
        assert (episode_return, succeeded) == walk_outcome(env, bounce)

    def test_cycle_penalties_are_added_without_a_list(self):
        # south from the start stays put, so the state repeats after one step;
        # the other 39,999 penalties are added one at a time, as steps would be
        env = grid(size=100, goal=(99, 99), max_steps=40_000)
        tracemalloc.start()
        try:
            episode_return, succeeded = env.rollout(0, lambda obs: 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not succeeded
        assert episode_return == fold([-0.01] * 40_000)
        assert peak < 64_000  # a list of the penalties alone takes 320 KB

    def test_unarmed_goal_can_sit_on_the_loop(self):
        env = grid(size=2, goal=(0, 1), subgoal=(1, 1), max_steps=16)
        bounce = lambda obs: 0 if obs[1] == -1.0 else 2  # (0,0) <-> (0,1)
        assert env.rollout(0, bounce) == walk_outcome(env, bounce)
        assert env.rollout(0, bounce) == (fold([-0.01] * 16), False)

    def test_revisited_cell_with_the_subgoal_flag_set_is_no_repeat(self):
        # a clockwise lap past the unarmed goal (1,0), through the subgoal
        # (1,1), back to the start and onto the now-armed goal
        env = grid(size=2, goal=(1, 0), subgoal=(1, 1), max_steps=16)
        lap = {(0, 0): 1, (1, 0): 0, (1, 1): 3, (0, 1): 2}
        episode_return, succeeded = env.rollout(0, lambda obs: lap[cell(env, obs)])
        assert succeeded
        assert episode_return == fold([-0.01, 0.49, -0.01, -0.01, 0.99])

    def test_goal_step_pays_and_terminates(self):
        env = grid(size=5, goal=(0, 1))
        (x, y, _, _), reward, terminal = env.step((0, 0, 0, False), 0)
        assert (x, y) == (0, 1) and terminal
        assert reward == pytest.approx(1.0 - 0.01)

    def test_tie_selects_lowest_action(self):
        env = GridNavEnv()
        assert env.select_action([1.0, 1.0, 0.0, 1.0]) == 0
        assert env.select_action([0.0, 2.0, 2.0, 0.0]) == 1

    def test_invalid_action_rejected(self):
        with pytest.raises(SosageError, match=exactly("gridnav action must be in 0..3, got 4")):
            GridNavEnv().step((0, 0, 0, False), 4)


class TestNormalization:
    def test_reset_observation_on_default_grid(self):
        env = grid(size=5, goal=(4, 4))
        assert env.observation(env.reset(0)) == (-1.0, -1.0, 1.0, 1.0)

    def test_center_reads_zero(self):
        env = grid(size=5, goal=(4, 4))
        x, y, dx, dy = env.observation((2, 2, 0, False))
        assert (x, y) == (0.0, 0.0)
        assert dx == pytest.approx(0.0) and dy == pytest.approx(0.0)

    def test_zero_delta_reads_negative_one(self):
        # deltas share the position map, so a zero component sits at -1
        env = grid(size=5, goal=(0, 4))
        _, _, dx, dy = env.observation((0, 0, 0, False))
        assert dx == -1.0 and dy == 1.0


class TestCompositionalGating:
    def test_goal_pays_nothing_until_subgoal(self):
        env = grid(size=5, goal=(4, 4), subgoal=(0, 4))
        state = (4, 3, 0, False)
        (x, y, _, done), reward, terminal = env.step(state, 0)
        assert (x, y) == (4, 4) and not done
        assert reward == pytest.approx(-0.01) and not terminal

    def test_subgoal_pays_once(self):
        env = grid(size=5, goal=(4, 4), subgoal=(0, 1))
        state, reward, _ = env.step((0, 0, 0, False), 0)
        assert reward == pytest.approx(0.5 - 0.01) and state[3]
        state, _, _ = env.step(state, 2)  # step off
        _, again, _ = env.step(state, 0)  # step back on
        assert again == pytest.approx(-0.01)

    def test_armed_goal_terminates_with_reward(self):
        env = grid(size=5, goal=(4, 4), subgoal=(0, 1))
        _, reward, terminal = env.step((4, 3, 10, True), 0)
        assert terminal and reward == pytest.approx(1.0 - 0.01)

    def test_optimal_route_return(self):
        env = grid(size=5, goal=(4, 4), subgoal=(0, 4))
        shortest = grid_shortest_steps(5, (0, 0), [(0, 4), (4, 4)])
        assert shortest == 8
        # N up the west edge, then E along the north edge
        route, calls = counting(lambda obs: 0 if obs[0] == -1.0 and obs[1] < 1.0 else 1)
        episode_return, succeeded = env.rollout(0, route)
        assert succeeded
        assert calls[0] == shortest
        expected = 0.5 + 1.0 - 0.01 * shortest
        assert episode_return == pytest.approx(expected, abs=1e-12)

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1))
    def test_success_implies_subgoal_before_goal(self, seed):
        rng = np.random.default_rng(seed)
        env = grid(size=4, goal=(3, 3), subgoal=(0, 3), max_steps=40)
        # a random per-cell policy that mostly keeps to the route above
        table = {(x, y): int(rng.integers(4)) for x in range(4) for y in range(4)}
        for c, action in (((0, 0), 0), ((0, 1), 0), ((0, 2), 0), ((0, 3), 1), ((1, 3), 1), ((2, 3), 1)):
            if rng.random() < 0.8:
                table[c] = action

        def policy(obs):
            return table[cell(env, obs)]

        episode_return, succeeded = env.rollout(0, policy)
        rewards, _, final = walk(env, lambda obs, _state: policy(obs))
        if succeeded:
            assert final[3]  # subgoal flag set on the goal step
            assert episode_return == pytest.approx(0.5 + 1.0 - 0.01 * len(rewards), abs=1e-12)
        else:
            assert episode_return < 1.0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_rollout_matches_step_by_step_oracle(self, data):
        size = data.draw(st.integers(2, 5), label="size")
        cells = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
        env = grid(
            size=size,
            goal=data.draw(cells, label="goal"),
            subgoal=data.draw(st.none() | cells, label="subgoal"),
            max_steps=data.draw(st.integers(1, 4 * size * size), label="max_steps"),
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if data.draw(st.booleans(), label="network"):
            wiring = tuple(
                random_genome(env.input_dim, env.output_dim, rng)
                for _ in range(data.draw(st.integers(1, 4), label="neurons"))
            )

            def policy(obs):
                return env.select_action(net_forward(wiring, obs, env.output_dim))
        else:
            # an arbitrary per-cell policy: long loops through goal and subgoal
            table = rng.integers(4, size=(size, size))

            def policy(obs):
                return int(table[cell(env, obs)])

        assert env.rollout(0, policy) == walk_outcome(env, policy)

    def test_episodic_return_sums_steps(self):
        env = grid(size=3, goal=(1, 2), subgoal=(1, 1))
        route = lambda obs: 1 if obs[0] == -1.0 else 0  # E, then N, N
        rewards, terminal, _ = walk(env, lambda obs, _state: route(obs))
        assert terminal and rewards == [-0.01, -0.01 + 0.5, -0.01 + 1.0]
        episode_return, succeeded = env.rollout(0, route)
        assert succeeded
        assert episode_return == fold(rewards) == pytest.approx(1.47)


def formula_observation(env, state):
    """GridNavEnv.observation before its table: the oracle."""
    x, y, _, _ = state
    tx, ty = env.goal
    return (env._norm(x), env._norm(y), env._norm(tx - x), env._norm(ty - y))


def formula_step(env, state, action):
    """GridNavEnv.step before its table, clamping each move: the oracle."""
    if not 0 <= action < 4:
        raise SosageError(f"gridnav action must be in 0..3, got {action}")
    x, y, steps, subgoal_done = state
    dx, dy = env.MOVES[action]
    nx = min(env.size - 1, max(0, x + dx))
    ny = min(env.size - 1, max(0, y + dy))
    steps += 1
    reward = -env.step_penalty
    terminal = steps >= env.max_steps
    if env.subgoal is not None and not subgoal_done and (nx, ny) == env.subgoal:
        subgoal_done = True
        reward += env.subgoal_reward
    goal_armed = subgoal_done or env.subgoal is None
    if goal_armed and (nx, ny) == env.goal:
        reward += env.goal_reward
        terminal = True
    return (nx, ny, steps, subgoal_done), reward, terminal


def loop_select_action(outputs):
    """GridNavEnv.select_action before it was unrolled: the oracle."""
    best = 0
    for k in range(1, 4):
        if outputs[k] > outputs[best]:
            best = k
    return best


def exact(value):
    """A step's result or an observation with every float as hex, so that
    -0.0 and 0.0 differ, and every other value with its type."""
    if isinstance(value, tuple):
        return tuple(exact(v) for v in value)
    return value.hex() if isinstance(value, float) else (type(value), value)


REWARDS = st.sampled_from([0.0, -0.0, 0.01, 0.5, 1.0, 5e-324, 1e16]) | st.floats(-2.0, 2.0)


class TestGridTablesMatchTheFormulas:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), size=st.integers(2, 9))
    def test_observation_and_step_on_every_cell(self, data, size):
        cells = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
        subgoal = data.draw(st.none() | cells, label="subgoal")
        rewards = ("step_penalty", "goal_reward") + ("subgoal_reward",) * (subgoal is not None)
        env = grid(
            size=size,
            goal=data.draw(cells, label="goal"),
            subgoal=subgoal,
            max_steps=data.draw(st.integers(1, 4 * size * size), label="max_steps"),
            **{key: data.draw(REWARDS, label=key) for key in rewards},
        )
        # both sides of max_steps, and one more step count anywhere
        step_counts = {0, env.max_steps - 1, env.max_steps, env.max_steps + 1,
                       data.draw(st.integers(0, env.max_steps + 1), label="steps")}
        for x in range(size):
            for y in range(size):
                for steps in step_counts:
                    for subgoal_done in (False, True):
                        state = (x, y, steps, subgoal_done)
                        assert exact(env.observation(state)) == exact(formula_observation(env, state))
                        for action in range(4):
                            assert exact(env.step(state, action)) == exact(formula_step(env, state, action))

    @pytest.mark.parametrize("action", [-1, 4, 1.5])
    def test_an_invalid_action_fails_as_before(self, action):
        env, state = GridNavEnv(), (0, 0, 0, False)
        with pytest.raises(Exception) as ours:
            env.step(state, action)
        with pytest.raises(Exception) as oracle:
            formula_step(env, state, action)
        assert (type(ours.value), str(ours.value)) == (type(oracle.value), str(oracle.value))

    @PROPERTY_SETTINGS
    @given(outputs=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, math.nan, math.inf, -math.inf]),
                            min_size=4, max_size=6))
    def test_select_action_equals_the_loop(self, outputs):
        assert GridNavEnv().select_action(outputs) == loop_select_action(outputs)


def env_config(name, params=None, **settings):
    """A config that sets the env and, given them, other top-level settings."""
    return {"env": {"name": name} if params is None else {"name": name, "params": params}, **settings}


# case -> (env name, params, the reader's exact refusal); each was refused
# before the params became fields, most in other words
REFUSALS = {
    "xor-takes-no-params": ("xor", {"size": 5}, "env.params.size: unknown key"),
    "unknown-name": ("maze", None,
                     "env.name: must be one of ('xor', 'gridnav', 'gridnav-compositional'), got 'maze'"),
    "unknown-param": ("gridnav", {"speed": 2}, "env.params.speed: unknown key"),
    "plain-subgoal-reward": ("gridnav", {"subgoal_reward": 0.9}, "env.params.subgoal_reward: unknown key"),
    "size-1": ("gridnav", {"size": 1}, "env.params.size: must lie in [2, 2**53]"),
    "size-past-exact-floats": ("gridnav", {"size": 2 ** 53 + 1}, "env.params.size: must lie in [2, 2**53]"),
    "size-400-digits": ("gridnav", {"size": 10 ** 400}, "env.params.size: must lie in [2, 2**53]"),
    "goal-past-the-grid": ("gridnav", {"goal_x": 9}, "env.params.goal_x: must lie in [0, size-1] = [0, 4]"),
    "goal-below-the-grid": ("gridnav", {"goal_y": -1}, "env.params.goal_y: must lie in [0, size-1]"),
    "max-steps-past-4-size-squared": ("gridnav", {"size": 3, "max_steps": 100},
                                      "env.params.max_steps: must lie in [1, 4*size^2] = [1, 36]"),
    "max-steps-0": ("gridnav", {"max_steps": 0}, "env.params.max_steps: must lie in [1, 4*size^2]"),
    "subgoal-past-the-grid": ("gridnav-compositional", {"subgoal_x": 9},
                              "env.params.subgoal_x: must lie in [0, size-1] = [0, 4]"),
    "subgoal-past-a-small-grid": ("gridnav-compositional", {"size": 3, "subgoal_y": 3},
                                  "env.params.subgoal_y: must lie in [0, size-1] = [0, 2]"),
    "rewards-that-overflow": ("gridnav-compositional", {"step_penalty": 1e308},
                              "env.params: rewards let an episode return inf in size, "
                              "and 6000 such returns in a run can total more than 4.49423e+307"),
}


class TestEnvParamsAtTheReader:
    def test_names_and_defaults(self):
        assert config_from_dict(env_config("xor")).env == EnvSpec("xor", {})
        plain = config_from_dict(env_config("gridnav", {"size": 7})).env
        assert plain == EnvSpec("gridnav", {
            "size": 7, "goal_x": 6, "goal_y": 6, "step_penalty": 0.01, "goal_reward": 1.0, "max_steps": 50,
        })
        assert make_env("gridnav", {"size": 7}).goal == (6, 6)
        comp = make_env("gridnav-compositional", {})
        assert comp.subgoal == (0, 4) and comp.goal == (4, 4)
        params = config_from_dict(env_config("gridnav-compositional")).env.params
        assert (params["subgoal_x"], params["subgoal_y"], params["subgoal_reward"]) == (0, 4, 0.5)

    @pytest.mark.parametrize("name,params,message", REFUSALS.values(), ids=REFUSALS)
    def test_refusals(self, name, params, message):
        with pytest.raises(ValidationError, match=exactly(message)):
            config_from_dict(env_config(name, params))

    @pytest.mark.parametrize("name", [[], {}, 3, None])
    def test_a_name_that_is_no_string_is_refused(self, name):
        with pytest.raises(ValidationError, match=exactly(f"env.name: must be one of "
                                                          f"('xor', 'gridnav', 'gridnav-compositional'), got {name!r}")):
            config_from_dict(env_config(name))

    def test_the_largest_size_loads(self):
        # up to 2**53 every coordinate and goal delta is exact in float64
        env = make_env("gridnav", {"size": 2 ** 53})
        assert env.observation(env.reset(0)) == (-1.0, -1.0, 1.0, 1.0)

    @pytest.mark.parametrize("key", ["size", "goal_x", "goal_y", "subgoal_x", "subgoal_y", "max_steps"])
    @pytest.mark.parametrize("value", ["5", 2.9, 3.0, True, None, [3]])
    def test_grid_params_must_be_integers(self, key, value):
        with pytest.raises(ValidationError, match=exactly(f"env.params.{key}: must be an integer")):
            config_from_dict(env_config("gridnav-compositional", {key: value}))

    @pytest.mark.parametrize("key", ["step_penalty", "goal_reward", "subgoal_reward"])
    def test_reward_params_take_ints_or_floats(self, key):
        env = make_env("gridnav-compositional", {key: 2})
        assert getattr(env, key) == 2.0
        assert isinstance(config_from_dict(env_config("gridnav-compositional", {key: 2})).env.params[key], float)
        assert getattr(make_env("gridnav-compositional", {key: 0.25}), key) == 0.25
        for bad in ("1", True, None, float("nan"), float("inf"), 10**400):
            with pytest.raises(ValidationError, match=exactly(f"env.params.{key}: must be a finite number")):
                config_from_dict(env_config("gridnav-compositional", {key: bad}))

    @pytest.mark.parametrize("size,max_steps", [(2, 16), (3, 36), (4, 50), (5, 50), (7, 50)])
    def test_default_max_steps_fits_the_grid(self, size, max_steps):
        assert make_env("gridnav-compositional", {"size": size}).max_steps == max_steps

    @pytest.mark.parametrize("cls", [GridNavEnv, CompositionalGridNavEnv])
    @pytest.mark.parametrize("size", [2, 3, 5, 7, 40])
    def test_an_env_built_from_size_alone_takes_the_config_defaults(self, cls, size):
        env = cls(size=size)
        assert env.goal == (size - 1, size - 1) and env.max_steps == min(50, 4 * size * size)
        assert EnvSpec(cls.name, dataclasses.asdict(env)) == \
            config_from_dict(env_config(cls.name, {"size": size})).env

    def test_large_rewards_within_the_bound_load(self):
        config = config_from_dict(env_config("gridnav-compositional", {"goal_reward": 1e7}))
        assert config.env.params["goal_reward"] == 1e7

    @pytest.mark.parametrize("sign", [1, -1])
    def test_the_reward_bound_and_one_step_past_it(self, tmp_path, sign):
        # 4 generations of 16 one-episode assemblies fold at most 64 returns,
        # each at most 32 step penalties: so a penalty of MAX_RETURN_TOTAL /
        # 2048 is the largest that loads, with every product exact
        evolution = {"max_generations": 4, "assemblies_per_generation": 16, "network_size": 2}
        edge = sign * MAX_RETURN_TOTAL / 2048
        params = {"size": 4, "max_steps": 32, "step_penalty": edge, "goal_reward": 0}
        config = config_from_dict(env_config("gridnav", params, evolution=evolution, roster_size=4,
                                             output_dir=str(tmp_path), checkpoint_every=2))
        # a run at the bound writes every file, and its totals stay finite
        assert verify(load_checkpoint(run(config).checkpoint_path)).passed
        params["step_penalty"] = math.nextafter(edge, sign * math.inf)
        with pytest.raises(ValidationError, match=r"^env\.params: rewards let an episode return "):
            config_from_dict(env_config("gridnav", params, evolution=evolution, roster_size=4))
