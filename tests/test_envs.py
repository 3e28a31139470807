"""Environment semantics: xor cycling, grid kinematics, reward gating."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sosage.envs import GridNavEnv, XorEnv, make_env
from sosage.errors import InvalidAction, ValidationError
from sosage.symbio import net_forward, random_genome

from support import fold, grid_shortest_steps

PROPERTY_SETTINGS = settings(max_examples=120, deadline=None)


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
        with pytest.raises(InvalidAction):
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
        env = GridNavEnv(size=5, goal=(4, 4))
        state = (2, 2, 0, False)
        for action, (dx, dy) in enumerate(GridNavEnv.MOVES):
            (nx, ny, steps, _), reward, terminal = env.step(state, action)
            assert (nx, ny) == (2 + dx, 2 + dy)
            assert steps == 1 and reward == -0.01 and not terminal

    def test_walls_clip(self):
        env = GridNavEnv(size=3, goal=(2, 2), max_steps=30)
        for state, action in (((0, 0, 0, False), 3), ((0, 0, 0, False), 2),
                              ((2, 0, 0, False), 1), ((0, 2, 0, False), 0)):
            (nx, ny, _, _), _, _ = env.step(state, action)
            assert (nx, ny) == state[:2]

    def test_max_steps_terminates_without_goal(self):
        env = GridNavEnv(size=5, goal=(4, 4), max_steps=3)
        rewards, terminal, _ = walk(env, lambda obs, s: 2)  # walk south into the wall
        assert terminal and len(rewards) == 3
        episode_return, succeeded = env.rollout(0, lambda obs: 2)
        assert not succeeded
        assert episode_return == fold(rewards) == pytest.approx(-0.03)

    def test_rollout_stops_stepping_at_first_repeated_state(self):
        env = GridNavEnv(size=5, goal=(4, 4), max_steps=50)
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
        env = GridNavEnv(size=100, goal=(99, 99), max_steps=40_000)
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
        env = GridNavEnv(size=2, goal=(0, 1), subgoal=(1, 1), max_steps=16)
        bounce = lambda obs: 0 if obs[1] == -1.0 else 2  # (0,0) <-> (0,1)
        assert env.rollout(0, bounce) == walk_outcome(env, bounce)
        assert env.rollout(0, bounce) == (fold([-0.01] * 16), False)

    def test_revisited_cell_with_the_subgoal_flag_set_is_no_repeat(self):
        # a clockwise lap past the unarmed goal (1,0), through the subgoal
        # (1,1), back to the start and onto the now-armed goal
        env = GridNavEnv(size=2, goal=(1, 0), subgoal=(1, 1), max_steps=16)
        lap = {(0, 0): 1, (1, 0): 0, (1, 1): 3, (0, 1): 2}
        episode_return, succeeded = env.rollout(0, lambda obs: lap[cell(env, obs)])
        assert succeeded
        assert episode_return == fold([-0.01, 0.49, -0.01, -0.01, 0.99])

    def test_goal_step_pays_and_terminates(self):
        env = GridNavEnv(size=5, goal=(0, 1))
        (x, y, _, _), reward, terminal = env.step((0, 0, 0, False), 0)
        assert (x, y) == (0, 1) and terminal
        assert reward == pytest.approx(1.0 - 0.01)

    def test_tie_selects_lowest_action(self):
        env = GridNavEnv()
        assert env.select_action([1.0, 1.0, 0.0, 1.0]) == 0
        assert env.select_action([0.0, 2.0, 2.0, 0.0]) == 1

    def test_invalid_action_rejected(self):
        with pytest.raises(InvalidAction):
            GridNavEnv().step((0, 0, 0, False), 4)


class TestNormalization:
    def test_reset_observation_on_default_grid(self):
        env = GridNavEnv(size=5, goal=(4, 4))
        assert env.observation(env.reset(0)) == (-1.0, -1.0, 1.0, 1.0)

    def test_center_reads_zero(self):
        env = GridNavEnv(size=5, goal=(4, 4))
        x, y, dx, dy = env.observation((2, 2, 0, False))
        assert (x, y) == (0.0, 0.0)
        assert dx == pytest.approx(0.0) and dy == pytest.approx(0.0)

    def test_zero_delta_reads_negative_one(self):
        # deltas share the position map, so a zero component sits at -1
        env = GridNavEnv(size=5, goal=(0, 4))
        _, _, dx, dy = env.observation((0, 0, 0, False))
        assert dx == -1.0 and dy == 1.0


class TestCompositionalGating:
    def test_goal_pays_nothing_until_subgoal(self):
        env = GridNavEnv(size=5, goal=(4, 4), subgoal=(0, 4))
        state = (4, 3, 0, False)
        (x, y, _, done), reward, terminal = env.step(state, 0)
        assert (x, y) == (4, 4) and not done
        assert reward == pytest.approx(-0.01) and not terminal

    def test_subgoal_pays_once(self):
        env = GridNavEnv(size=5, goal=(4, 4), subgoal=(0, 1))
        state, reward, _ = env.step((0, 0, 0, False), 0)
        assert reward == pytest.approx(0.5 - 0.01) and state[3]
        state, _, _ = env.step(state, 2)  # step off
        _, again, _ = env.step(state, 0)  # step back on
        assert again == pytest.approx(-0.01)

    def test_armed_goal_terminates_with_reward(self):
        env = GridNavEnv(size=5, goal=(4, 4), subgoal=(0, 1))
        _, reward, terminal = env.step((4, 3, 10, True), 0)
        assert terminal and reward == pytest.approx(1.0 - 0.01)

    def test_optimal_route_return(self):
        env = GridNavEnv(size=5, goal=(4, 4), subgoal=(0, 4))
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
        env = GridNavEnv(size=4, goal=(3, 3), subgoal=(0, 3), max_steps=40)
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
        env = GridNavEnv(
            size=size,
            goal=data.draw(cells, label="goal"),
            subgoal=data.draw(st.none() | cells, label="subgoal"),
            max_steps=data.draw(st.integers(1, 4 * size * size), label="max_steps"),
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if data.draw(st.booleans(), label="network"):
            wiring = tuple(
                dataclasses.replace(
                    random_genome(env.input_dim, env.output_dim, rng),
                    activation=data.draw(st.sampled_from(("tanh", "step")), label="activation"),
                )
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


class TestMakeEnv:
    def test_names_and_defaults(self):
        assert make_env("xor").spec.name == "xor"
        plain = make_env("gridnav", {"size": 7})
        assert plain.goal == (6, 6) and plain.spec.name == "gridnav"
        comp = make_env("gridnav-compositional", {})
        assert comp.subgoal == (0, 4) and comp.goal == (4, 4)
        assert comp.spec.name == "gridnav-compositional"
        assert comp.spec.params["subgoal_reward"] == 0.5

    def test_xor_takes_no_params(self):
        with pytest.raises(ValidationError):
            make_env("xor", {"size": 5})

    def test_unknown_name_and_keys_rejected(self):
        with pytest.raises(ValidationError):
            make_env("maze")
        with pytest.raises(ValidationError):
            make_env("gridnav", {"speed": 2})

    def test_geometry_validated(self):
        with pytest.raises(ValidationError):
            make_env("gridnav", {"size": 1})
        with pytest.raises(ValidationError):
            make_env("gridnav", {"goal_x": 9})
        with pytest.raises(ValidationError):
            make_env("gridnav", {"size": 3, "max_steps": 100})
        with pytest.raises(ValidationError):
            make_env("gridnav-compositional", {"subgoal_x": 9})
        # an episode always takes at least one step
        with pytest.raises(ValidationError, match="max_steps"):
            make_env("gridnav", {"max_steps": 0})

    @pytest.mark.parametrize("key", ["size", "goal_x", "goal_y", "subgoal_x", "subgoal_y", "max_steps"])
    @pytest.mark.parametrize("value", ["5", 2.9, 3.0, True, None, [3]])
    def test_grid_params_must_be_integers(self, key, value):
        with pytest.raises(ValidationError, match=f"env.params.{key}: must be an integer"):
            make_env("gridnav-compositional", {key: value})

    @pytest.mark.parametrize("key", ["step_penalty", "goal_reward", "subgoal_reward"])
    def test_reward_params_take_ints_or_floats(self, key):
        env = make_env("gridnav-compositional", {key: 2})
        assert getattr(env, key) == 2.0 and isinstance(env.spec.params[key], float)
        assert getattr(make_env("gridnav-compositional", {key: 0.25}), key) == 0.25
        for bad in ("1", True, None, float("nan"), float("inf"), 10**400):
            with pytest.raises(ValidationError, match=f"env.params.{key}: must be a finite number"):
                make_env("gridnav-compositional", {key: bad})

    @pytest.mark.parametrize("size,max_steps", [(2, 16), (3, 36), (4, 50), (5, 50), (7, 50)])
    def test_default_max_steps_fits_the_grid(self, size, max_steps):
        assert make_env("gridnav-compositional", {"size": size}).max_steps == max_steps

    def test_episodic_return_sums_steps(self):
        env = GridNavEnv(size=3, goal=(1, 2), subgoal=(1, 1))
        route = lambda obs: 1 if obs[0] == -1.0 else 0  # E, then N, N
        rewards, terminal, _ = walk(env, lambda obs, _state: route(obs))
        assert terminal and rewards == [-0.01, -0.01 + 0.5, -0.01 + 1.0]
        episode_return, succeeded = env.rollout(0, route)
        assert succeeded
        assert episode_return == fold(rewards) == pytest.approx(1.47)
