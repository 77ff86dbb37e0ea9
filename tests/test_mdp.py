import json
import math

import numpy as np
import pytest

from gumbelkit.mdp import (
    OfflineDataset,
    TabularMdp,
    behavior_value,
    generate_dataset,
    load_mdp,
    save_mdp,
    soft_value,
    zoo,
    zoo_names,
)
from gumbelkit.rng import stream


def iterative_policy_evaluation(mdp, sweeps=10_000):
    # independent oracle: plain fixed-point iteration under the behavior policy
    p_mu = np.einsum("sa,sat->st", mdp.behavior_policy, mdp.transition)
    r_mu = np.einsum("sa,sa->s", mdp.behavior_policy, mdp.reward)
    v = np.zeros(mdp.num_states)
    for _ in range(sweeps):
        v = r_mu + mdp.gamma * p_mu @ v
    return v


def single_action_mdp():
    transition = np.zeros((2, 1, 2))
    transition[0, 0, 1] = 1.0
    transition[1, 0, 0] = 0.7
    transition[1, 0, 1] = 0.3
    reward = np.array([[1.0], [-0.5]])
    policy = np.ones((2, 1))
    return TabularMdp(transition, reward, gamma=0.85, behavior_policy=policy)


class TestTabularMdp:
    def test_row_sums_validated(self):
        bad = np.zeros((1, 1, 1))
        with pytest.raises(ValueError):
            TabularMdp(bad, np.zeros((1, 1)), 0.9, np.ones((1, 1)))

    def test_gamma_validated(self):
        with pytest.raises(ValueError):
            TabularMdp(np.ones((1, 1, 1)), np.zeros((1, 1)), 1.0, np.ones((1, 1)))

    # json reads NaN and Infinity, so a file can hold them
    @pytest.mark.parametrize("table", ("transition", "reward", "behavior_policy"))
    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_entries_rejected(self, table, bad):
        mdp = zoo("bandit1")
        tables = {name: getattr(mdp, name).copy() for name in ("transition", "reward", "behavior_policy")}
        tables[table].flat[0] = bad
        with pytest.raises(ValueError, match=f"^{table} entries must be finite$"):
            TabularMdp(gamma=mdp.gamma, **tables)

    def test_tables_are_frozen(self):
        mdp = zoo("bandit1")
        with pytest.raises(ValueError):
            mdp.reward[0, 0] = 5.0

    def test_zoo_names(self):
        assert zoo_names() == ("bandit1", "chain3", "risky5")
        with pytest.raises(KeyError):
            zoo("gridworld")


class TestBehaviorValue:
    def test_single_state_geometric_series(self):
        mdp = TabularMdp(np.ones((1, 1, 1)), np.array([[1.0]]), 0.5, np.ones((1, 1)))
        assert behavior_value(mdp)[0] == pytest.approx(2.0, rel=1e-12)

    def test_zero_reward_gives_zero_value(self):
        mdp = zoo("chain3")
        zeroed = TabularMdp(mdp.transition, np.zeros_like(mdp.reward), mdp.gamma, mdp.behavior_policy)
        np.testing.assert_allclose(behavior_value(zeroed), 0.0, atol=1e-12)

    @pytest.mark.parametrize("name", ("bandit1", "chain3", "risky5"))
    def test_matches_iterative_oracle(self, name):
        mdp = zoo(name)
        np.testing.assert_allclose(behavior_value(mdp), iterative_policy_evaluation(mdp), atol=1e-8)

    @pytest.mark.parametrize("name", ("bandit1", "chain3", "risky5"))
    def test_bellman_residual_tiny(self, name):
        mdp = zoo(name)
        v = behavior_value(mdp)
        p_mu = np.einsum("sa,sat->st", mdp.behavior_policy, mdp.transition)
        r_mu = np.einsum("sa,sa->s", mdp.behavior_policy, mdp.reward)
        residual = v - (r_mu + mdp.gamma * p_mu @ v)
        assert np.linalg.norm(residual) < 1e-10


class TestSoftValue:
    def test_single_action_equals_behavior_value(self):
        mdp = single_action_mdp()
        v, q = soft_value(mdp, beta=1.0)
        np.testing.assert_allclose(v, behavior_value(mdp), atol=1e-9)
        np.testing.assert_allclose(q[:, 0], mdp.reward[:, 0] + mdp.gamma * (mdp.transition[:, 0, :] @ v), atol=1e-9)

    def test_myopic_two_action_closed_form(self):
        transition = np.ones((1, 2, 1))
        reward = np.array([[0.0, 1.0]])
        mdp = TabularMdp(transition, reward, gamma=0.0, behavior_policy=np.array([[0.5, 0.5]]))
        v, _ = soft_value(mdp, beta=1.0)
        assert v[0] == pytest.approx(math.log((1.0 + math.e) / 2.0), abs=1e-10)

    def test_large_temperature_approaches_behavior_value(self):
        mdp = zoo("risky5")
        v, _ = soft_value(mdp, beta=100.0)
        assert np.max(np.abs(v - behavior_value(mdp))) < 0.05

    @pytest.mark.parametrize("name", ("bandit1", "chain3", "risky5"))
    def test_dominates_behavior_value(self, name):
        mdp = zoo(name)
        v_mu = behavior_value(mdp)
        for beta in (0.5, 1.0, 2.0):
            v, _ = soft_value(mdp, beta=beta)
            assert np.all(v >= v_mu - 1e-9)

    def test_monotone_in_temperature(self):
        mdp = zoo("risky5")
        values = [soft_value(mdp, beta=b)[0] for b in (0.5, 1.0, 2.0, 4.0)]
        for lo, hi in zip(values, values[1:]):
            assert np.all(lo >= hi - 1e-9)

    def test_beta_validated(self):
        with pytest.raises(ValueError):
            soft_value(zoo("bandit1"), beta=0.0)


class TestDatasets:
    def test_exhaustive_proportionality(self):
        transition = np.zeros((2, 2, 2))
        transition[:, 0, 0] = 1.0
        transition[:, 1, 1] = 1.0
        mdp = TabularMdp(transition, np.zeros((2, 2)), 0.9, np.full((2, 2), 0.5))
        data = generate_dataset(mdp, "exhaustive", 40)
        counts = data.counts(2, 2).pair_counts
        np.testing.assert_array_equal(counts, np.full((2, 2), 10.0))

    def test_exhaustive_matches_joint_weights_exactly(self):
        mdp = zoo("risky5")
        size = 500  # multiple of every probability denominator in the zoo entry
        data = generate_dataset(mdp, "exhaustive", size)
        triple_counts = np.zeros((5, 2, 5))
        np.add.at(triple_counts, (data.states, data.actions, data.next_states), 1.0)
        expected = size * mdp.behavior_policy[:, :, None] * mdp.transition / 5.0
        np.testing.assert_allclose(triple_counts, expected, atol=1e-9)
        np.testing.assert_allclose(data.counts(5, 2).visits, expected, atol=1e-9)

    def test_exhaustive_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_dataset(zoo("risky5"), "exhaustive", 10)

    @pytest.mark.parametrize("mode", ("exhaustive", "rollout"))
    @pytest.mark.parametrize("size", (0, -5))
    def test_nonpositive_size_rejected(self, mode, size):
        with pytest.raises(ValueError, match="must be positive"):
            generate_dataset(zoo("bandit1"), mode, size, rng=stream(0, 0))

    def test_rollout_deterministic_dynamics_repeat_one_trajectory(self):
        transition = np.zeros((2, 1, 2))
        transition[0, 0, 1] = 1.0
        transition[1, 0, 0] = 1.0
        mdp = TabularMdp(transition, np.zeros((2, 1)), 0.9, np.ones((2, 1)))
        data = generate_dataset(mdp, "rollout", 10, rng=stream(0, 0))
        np.testing.assert_array_equal(data.states, [0, 1] * 5)
        np.testing.assert_array_equal(data.next_states, [1, 0] * 5)

    def test_rollout_frequencies_match_stationary_distribution(self):
        mdp = zoo("risky5")
        p_mu = np.einsum("sa,sat->st", mdp.behavior_policy, mdp.transition)
        # power-iteration oracle for the stationary distribution of P_mu
        dist = np.full(mdp.num_states, 1.0 / mdp.num_states)
        for _ in range(10_000):
            dist = dist @ p_mu
        joint = dist[:, None] * mdp.behavior_policy

        data = generate_dataset(mdp, "rollout", 100_000, rng=stream(8, 0))
        counts = data.counts(mdp.num_states, mdp.num_actions).pair_counts
        empirical = counts / counts.sum()
        total_variation = 0.5 * np.abs(empirical - joint).sum()
        assert total_variation < 0.01

    def test_rollout_needs_rng(self):
        with pytest.raises(ValueError):
            generate_dataset(zoo("bandit1"), "rollout", 10)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            generate_dataset(zoo("bandit1"), "uniform", 10)

    def test_dataset_shape_validation(self):
        with pytest.raises(ValueError):
            OfflineDataset(np.array([0]), np.array([0, 1]), np.array([0.0]), np.array([0]))
        data = OfflineDataset(np.array([0, 1]), np.array([0, 2]), np.zeros(2), np.array([1, 0]))
        data.counts(2, 3)
        for shape in ((2, 2), (1, 3)):  # an action, then a state, outside the MDP
            with pytest.raises(ValueError):
                data.counts(*shape)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        mdp = zoo("risky5")
        path = tmp_path / "risky5.json"
        save_mdp(mdp, path)
        loaded = load_mdp(path)
        np.testing.assert_array_equal(loaded.transition, mdp.transition)
        np.testing.assert_array_equal(loaded.reward, mdp.reward)
        np.testing.assert_array_equal(loaded.behavior_policy, mdp.behavior_policy)
        assert loaded.gamma == mdp.gamma
        assert loaded.name == "risky5"

    # int() would read 1.9 as 1 and True as 1, and str() would name an MDP "None"
    @pytest.mark.parametrize("key,value,message", [
        ("num_states", 1.9, "must be integers"),
        ("num_states", 1.0, "must be integers"),
        ("num_actions", True, "must be integers"),
        ("num_actions", "2", "must be integers"),
        ("name", None, "name must be a string"),
        ("name", 3, "name must be a string"),
    ])
    def test_counts_must_be_integers_and_the_name_a_string(self, tmp_path, key, value, message):
        path = tmp_path / "bad.json"
        save_mdp(zoo("bandit1"), path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_mdp(path)
