import dataclasses
import math

import numpy as np
import pytest
from scipy import optimize

from gumbelkit.losses import LossSpec, clipped_gumbel_loss, expanded_gumbel_loss
from gumbelkit.mdp import TabularMdp, behavior_value, generate_dataset, soft_value, zoo
from gumbelkit.rng import stream
from gumbelkit.value_fitting import TrainConfig, ValueTables, q_step, train, train_many, v_step

EXACT_SIZES = {"bandit1": 400, "chain3": 1200, "risky5": 2000}


def sweep_config(loss, beta, **overrides):
    defaults = dict(
        loss=loss,
        v_steps=50,
        lr_v=0.01 * beta * beta,
        outer_iterations=800,
        tolerance=1e-9,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def noisy_rollout(name="chain3", size=600, seed=3):
    """Rollout dataset whose rewards vary within each (s, a, s') cell."""
    mdp = zoo(name)
    data = generate_dataset(mdp, "rollout", size, rng=stream(seed, 0))
    noise = stream(seed, 1).normal(size=size)
    return mdp, dataclasses.replace(data, rewards=data.rewards + noise)


def two_q_bandit(rewards, gamma=0.0, policy=(0.5, 0.5)):
    transition = np.ones((1, 2, 1))
    return TabularMdp(
        transition,
        np.array([list(rewards)], dtype=float),
        gamma=gamma,
        behavior_policy=np.array([list(policy)], dtype=float),
    )


class TestVStep:
    def test_closed_form_mean(self):
        mdp = zoo("risky5")
        data = generate_dataset(mdp, "exhaustive", EXACT_SIZES["risky5"])
        q = np.arange(10, dtype=float).reshape(5, 2)
        v, notes = v_step(np.zeros((1, 5)), q[None], data.counts(5, 2), [LossSpec.l2()], [0.1],
                          steps=1, mode="closed_form_n2")
        expected = (mdp.behavior_policy * q).sum(axis=1)
        np.testing.assert_allclose(v[0], expected, atol=1e-12)
        assert notes == [""]

    def test_closed_form_requires_squared_loss(self):
        mdp = zoo("bandit1")
        data = generate_dataset(mdp, "exhaustive", 400)
        with pytest.raises(ValueError):
            v_step(np.zeros((1, 1)), np.zeros((1, 1, 2)), data.counts(1, 2), [LossSpec.gumbel()],
                   [0.1], 1, mode="closed_form_n2")

    def test_absent_states_untouched(self):
        mdp = zoo("bandit1")
        data = generate_dataset(mdp, "exhaustive", 400)
        # widen the tables artificially: state 1 never appears in the dataset
        q = np.array([[[0.0, 1.0], [5.0, 5.0]]])
        v, _ = v_step(np.array([[0.0, -3.0]]), q, data.counts(2, 2), [LossSpec.l2()], [0.5], 10)
        assert v[0, 1] == -3.0
        assert v[0, 0] != 0.0

    def test_exponential_loss_reaches_log_partition(self):
        mdp = two_q_bandit((0.0, 1.0))
        data = generate_dataset(mdp, "exhaustive", 100)
        q = np.array([[[0.0, 1.0]]])
        v = np.zeros((1, 1))
        for _ in range(400):
            v, _ = v_step(v, q, data.counts(1, 2), [LossSpec.gumbel()], [0.2], steps=10)
        assert v[0, 0] == pytest.approx(math.log((1.0 + math.e) / 2.0), abs=1e-9)

    def test_truncated_loss_lands_between_mean_and_log_partition(self):
        mdp = two_q_bandit((0.0, 1.0))
        data = generate_dataset(mdp, "exhaustive", 100)
        q = np.array([[[0.0, 1.0]]])
        v = np.zeros((1, 1))
        for _ in range(400):
            v, _ = v_step(v, q, data.counts(1, 2), [LossSpec.expanded(8)], [0.2], steps=10)
        mean, lse = 0.5, math.log((1.0 + math.e) / 2.0)
        assert mean < v[0, 0] < lse
        # independent check: golden-section minimization of the empirical loss
        oracle = optimize.minimize_scalar(
            lambda t: 0.5 * (expanded_gumbel_loss(0.0 - t, 1.0, 8) + expanded_gumbel_loss(1.0 - t, 1.0, 8)),
            bracket=(0.0, 1.0),
            method="golden",
            options={"xtol": 1e-12},
        )
        assert v[0, 0] == pytest.approx(oracle.x, abs=1e-7)

    def test_a_row_that_breaks_keeps_its_input_and_spares_the_rest(self):
        mdp = zoo("risky5")
        counts = generate_dataset(mdp, "exhaustive", EXACT_SIZES["risky5"]).counts(5, 2)
        rng = np.random.default_rng(4)
        q = rng.normal(size=(7, 5, 2))
        q[5, 3, 1] = math.inf
        v = rng.normal(size=(7, 5))
        specs = [LossSpec.expanded(4), LossSpec.gumbel(0.5), LossSpec.clipped(0.7),
                 # the exponential overflows on the first step, the order-8 series
                 # after a few growing oscillations, and row 5 reads an infinite Q
                 LossSpec.gumbel(0.005), LossSpec.expanded(8, beta=0.3), LossSpec.l2(),
                 LossSpec.expectile(0.7)]
        lr = [0.05, 0.05, 0.05, 0.05, 3.0, 0.05, 0.05]
        got, notes = v_step(v, q, counts, specs, lr, steps=40)
        assert [bool(note) for note in notes] == [False, False, False, True, True, True, False]
        assert notes[3].startswith("non-finite gradient while fitting V at state ")
        assert "(residual about " in notes[3]
        assert notes[4].startswith("non-finite gradient")
        assert notes[5] == "non-finite residual while fitting V at state 3"
        for row in range(7):
            want = v[row] if notes[row] else v_step(v[[row]], q[[row]], counts, [specs[row]],
                                                   [lr[row]], steps=40)[0][0]
            assert got[row].tobytes() == want.tobytes(), row


class TestQStep:
    def test_deterministic_transitions_exact(self):
        transition = np.zeros((2, 1, 2))
        transition[0, 0, 1] = 1.0
        transition[1, 0, 0] = 1.0
        mdp = TabularMdp(transition, np.array([[1.0], [2.0]]), 0.5, np.ones((2, 1)))
        data = generate_dataset(mdp, "exhaustive", 10)
        v = np.array([3.0, 4.0])
        q = q_step(np.zeros((2, 1)), v, data.counts(2, 1), mdp.gamma)
        np.testing.assert_allclose(q[:, 0], [1.0 + 0.5 * 4.0, 2.0 + 0.5 * 3.0], atol=1e-12)

    def test_myopic_gives_mean_reward(self):
        mdp = two_q_bandit((0.25, 0.75))
        data = generate_dataset(mdp, "exhaustive", 100)
        q = q_step(np.zeros((1, 2)), np.array([9.9]), data.counts(1, 2), gamma=0.0)
        np.testing.assert_allclose(q, [[0.25, 0.75]], atol=1e-12)

    def test_stochastic_exhaustive_matches_expectation(self):
        mdp = zoo("risky5")
        data = generate_dataset(mdp, "exhaustive", EXACT_SIZES["risky5"])
        v = np.linspace(-1.0, 1.0, 5)
        q = q_step(np.zeros((5, 2)), v, data.counts(5, 2), mdp.gamma)
        expected = mdp.reward + mdp.gamma * np.einsum("sat,t->sa", mdp.transition, v)
        np.testing.assert_allclose(q, expected, atol=1e-12)

    def test_matches_row_level_mean_with_noisy_rewards(self):
        mdp, data = noisy_rollout()
        v = np.array([0.3, -1.2, 2.5])
        q = q_step(np.zeros((3, 2)), v, data.counts(3, 2), mdp.gamma)
        targets = data.rewards + mdp.gamma * v[data.next_states]
        for s in range(3):
            for a in range(2):
                rows = (data.states == s) & (data.actions == a)
                assert rows.any()
                np.testing.assert_allclose(q[s, a], targets[rows].mean(), rtol=1e-12)


class TestTrain:
    @pytest.mark.parametrize("name", ("bandit1", "chain3", "risky5"))
    def test_squared_loss_recovers_behavior_value(self, name):
        mdp = zoo(name)
        data = generate_dataset(mdp, "exhaustive", EXACT_SIZES[name])
        config = TrainConfig(
            loss=LossSpec.expanded(2, beta=1.0),
            v_mode="closed_form_n2",
            outer_iterations=2000,
            tolerance=1e-12,
        )
        out = train(mdp, data, config)
        assert out.converged and not out.diverged
        np.testing.assert_allclose(out.v, behavior_value(mdp), atol=1e-6)

    def test_higher_order_closes_on_soft_value(self):
        mdp = zoo("risky5")
        data = generate_dataset(mdp, "exhaustive", EXACT_SIZES["risky5"])
        v_star, _ = soft_value(mdp, beta=1.0)
        gap = {}
        for order in (8, 20):
            out = train(mdp, data, sweep_config(LossSpec.expanded(order, beta=1.0), 1.0))
            assert out.converged
            gap[order] = float(np.max(np.abs(out.v - v_star)))
        assert gap[20] < gap[8]
        assert gap[20] < 1e-2

    def test_exponential_loss_fixed_point_is_soft_value(self):
        mdp = zoo("risky5")
        data = generate_dataset(mdp, "exhaustive", EXACT_SIZES["risky5"])
        out = train(mdp, data, sweep_config(LossSpec.gumbel(beta=1.0), 1.0))
        assert out.converged
        v_star, _ = soft_value(mdp, beta=1.0)
        np.testing.assert_allclose(out.v, v_star, atol=1e-6)

    @pytest.mark.parametrize("beta", (0.5, 1.0, 2.0))
    def test_values_ordered_between_oracles(self, beta):
        mdp = zoo("chain3")
        data = generate_dataset(mdp, "exhaustive", EXACT_SIZES["chain3"])
        v_mu = behavior_value(mdp)
        v_star, _ = soft_value(mdp, beta=beta)
        for order in (2, 8):
            out = train(mdp, data, sweep_config(LossSpec.expanded(order, beta=beta), beta))
            assert out.converged
            assert np.all(out.v >= v_mu - 1e-4)
            assert np.all(out.v <= v_star + 1e-4)

    def test_small_temperature_exponential_diverges_but_truncation_survives(self):
        # Q spread of 5 at temperature 0.05: scaled residuals near 100 blow
        # the exponential loss up immediately, while the order-4 truncation
        # converges at a step size that respects its curvature
        mdp = two_q_bandit((0.0, 5.0))
        data = generate_dataset(mdp, "exhaustive", 100)
        shared = dict(v_steps=200, lr_v=2e-7, outer_iterations=300, tolerance=1e-10)
        diverged = train(mdp, data, TrainConfig(loss=LossSpec.gumbel(beta=0.05), **shared))
        assert diverged.diverged
        assert diverged.divergence_note
        survived = train(mdp, data, TrainConfig(loss=LossSpec.expanded(4, beta=0.05), **shared))
        assert survived.converged and not survived.diverged
        assert 0.0 < survived.v[0] < 5.0

    def test_divergence_returns_partial_trace(self):
        mdp = two_q_bandit((0.0, 5.0))
        data = generate_dataset(mdp, "exhaustive", 100)
        out = train(mdp, data, TrainConfig(loss=LossSpec.gumbel(beta=0.05), lr_v=0.5))
        assert out.diverged and not out.converged
        assert out.iterations >= 1

    def test_deterministic_traces(self):
        mdp = zoo("bandit1")
        data = generate_dataset(mdp, "exhaustive", 400)
        config = sweep_config(LossSpec.expanded(8, beta=1.0), 1.0)
        a = train(mdp, data, config)
        b = train(mdp, data, config)
        np.testing.assert_array_equal(a.v, b.v)
        assert a.trace.shape == b.trace.shape and a.trace.tobytes() == b.trace.tobytes()

    def test_trace_records_losses(self):
        mdp = zoo("bandit1")
        data = generate_dataset(mdp, "exhaustive", 400)
        out = train(mdp, data, sweep_config(LossSpec.expanded(2, beta=1.0), 1.0))
        assert out.trace[0, 0] > out.trace[-1, 0]
        assert math.isfinite(out.final_v_loss) and math.isfinite(out.final_q_loss)

    @pytest.mark.parametrize("loss", (LossSpec.expanded(4), LossSpec.clipped(beta=1.0, clip=7.0)))
    def test_trace_losses_match_row_level_formulas(self, loss):
        mdp, data = noisy_rollout()
        out = train(mdp, data, sweep_config(loss, 1.0, outer_iterations=7))
        assert not out.converged and not out.diverged
        q_rows = out.q[data.states, data.actions]
        targets = data.rewards + mdp.gamma * out.v[data.next_states]
        np.testing.assert_allclose(out.final_q_loss, np.mean((targets - q_rows) ** 2), rtol=1e-12)
        residuals = q_rows - out.v[data.states]
        if loss.variant == "clipped_gumbel":
            v_loss = clipped_gumbel_loss(residuals, loss.beta, loss.clip)
        else:
            v_loss = np.mean(expanded_gumbel_loss(residuals, loss.beta, loss.order))
        np.testing.assert_allclose(out.final_v_loss, v_loss, rtol=1e-12)


class TestConfigValidation:
    def test_mode_names(self):
        with pytest.raises(ValueError):
            TrainConfig(loss=LossSpec.l2(), v_mode="newton")

    def test_closed_form_needs_squared_loss(self):
        with pytest.raises(ValueError):
            TrainConfig(loss=LossSpec.gumbel(), v_mode="closed_form_n2")

    def test_positive_rates(self):
        for field in ("lr_v", "tolerance", "escape_factor"):
            for value in (0.0, math.nan, math.inf):
                with pytest.raises(ValueError):
                    TrainConfig(loss=LossSpec.l2(), **{field: value})


def every_variant(beta):
    return [LossSpec.expanded(n, beta=beta) for n in (2, 4, 8, 12, 20)] + [
        LossSpec.l2(beta=beta), LossSpec.gumbel(beta=beta), LossSpec.clipped(beta=beta),
        LossSpec.expectile(0.7)]


def assert_same_tables(got: ValueTables, want: ValueTables) -> None:
    """Every field equal bit for bit: arrays by their bytes, the rest by repr."""
    for f in dataclasses.fields(ValueTables):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
        else:
            assert repr(a) == repr(b), f.name


class TestTrainMany:
    @pytest.mark.parametrize("name", ("bandit1", "chain3", "risky5"))
    def test_stack_of_every_variant_matches_solo_fits(self, name):
        mdp = zoo(name)
        data = generate_dataset(mdp, "exhaustive", EXACT_SIZES[name])
        configs = [
            TrainConfig(loss=spec, v_steps=20, lr_v=0.01 * beta * beta, outer_iterations=100,
                        tolerance=1e-3)
            for beta in (0.5, 2.0) for spec in every_variant(beta)
        ]
        stacked = train_many(mdp, data, configs)
        # rows leave at different iterations, so the compaction is exercised
        assert len({out.iterations for out in stacked}) > 1
        for out, config in zip(stacked, configs):
            assert_same_tables(out, train(mdp, data, config))

    def test_closed_form_stack_matches_solo_fits(self):
        mdp = zoo("chain3")
        data = generate_dataset(mdp, "exhaustive", EXACT_SIZES["chain3"])
        configs = [TrainConfig(loss=spec, v_mode="closed_form_n2", outer_iterations=300,
                               tolerance=1e-12)
                   for spec in (LossSpec.expanded(2, beta=1.0), LossSpec.l2(beta=0.5))]
        for out, config in zip(train_many(mdp, data, configs), configs):
            assert out.converged
            assert_same_tables(out, train(mdp, data, config))

    def test_diverging_rows_leave_their_neighbours_alone(self):
        mdp = two_q_bandit((0.0, 5.0))
        data = generate_dataset(mdp, "exhaustive", 100)
        shared = dict(v_steps=200, outer_iterations=300, tolerance=1e-10)
        configs = [
            # escapes the value-scale bound after its first step
            TrainConfig(loss=LossSpec.gumbel(beta=0.05), lr_v=2e-7, **shared),
            # its gradient overflows inside v_step, which stops this row alone
            TrainConfig(loss=LossSpec.expanded(8, beta=0.3), lr_v=3.0, **shared),
            TrainConfig(loss=LossSpec.expanded(4, beta=0.05), lr_v=2e-7, **shared),
        ]
        stacked = train_many(mdp, data, configs)
        assert [out.diverged for out in stacked] == [True, True, False]
        assert stacked[0].divergence_note.startswith("table entries went beyond")
        assert stacked[1].divergence_note.startswith("non-finite gradient")
        assert stacked[2].converged
        for out, config in zip(stacked, configs):
            assert_same_tables(out, train(mdp, data, config))

    def test_trace_rows_follow_how_each_row_leaves(self):
        mdp = zoo("bandit1")
        data = generate_dataset(mdp, "exhaustive", EXACT_SIZES["bandit1"])
        shared = dict(v_steps=20, outer_iterations=50)
        configs = [
            TrainConfig(loss=LossSpec.expanded(4), lr_v=0.05, tolerance=1e-6, **shared),
            # overshoots further each step until its residuals overflow inside v_step
            TrainConfig(loss=LossSpec.l2(), lr_v=5.0, escape_factor=None, **shared),
            TrainConfig(loss=LossSpec.expanded(8), lr_v=1e-4, **shared),
        ]
        converged, diverged, exhausted = stacked = train_many(mdp, data, configs)
        assert converged.converged and diverged.diverged
        assert not (exhausted.converged or exhausted.diverged)
        assert converged.trace.shape == (converged.iterations, 3)
        assert diverged.trace.shape == (diverged.iterations - 1, 3)
        assert exhausted.trace.shape == (50, 3)
        # a fit that runs out reports its last recorded losses
        assert type(exhausted.final_v_loss) is float and type(exhausted.final_q_loss) is float
        assert [exhausted.final_v_loss, exhausted.final_q_loss] == exhausted.trace[-1, 1:].tolist()
        for out, config in zip(stacked, configs):
            assert_same_tables(out, train(mdp, data, config))

    @pytest.mark.parametrize("name", ("bandit1", "risky5"))
    def test_overflowing_trace_losses_record_infinity(self, name):
        # the tables grow past 1e154 before they overflow, so the squared losses
        # overflow first; risky5 also has (s, a, s') cells the dataset never visits
        mdp = zoo(name)
        data = generate_dataset(mdp, "exhaustive", EXACT_SIZES[name])
        out = train(mdp, data, TrainConfig(loss=LossSpec.l2(), lr_v=5.0, escape_factor=None,
                                           outer_iterations=50, v_steps=20))
        assert out.diverged
        assert not np.isnan(out.trace).any()
        assert np.isposinf(out.trace[-1, 1:]).all()

    @pytest.mark.parametrize("field,value", (("v_steps", 20), ("v_mode", "closed_form_n2"),
                                             ("outer_iterations", 10)))
    def test_configs_must_share_the_loop_shape(self, field, value):
        mdp = zoo("bandit1")
        data = generate_dataset(mdp, "exhaustive", 400)
        base = TrainConfig(loss=LossSpec.l2())
        with pytest.raises(ValueError, match="share"):
            train_many(mdp, data, [base, dataclasses.replace(base, **{field: value})])

    def test_empty_stack_rejected(self):
        mdp = zoo("bandit1")
        with pytest.raises(ValueError):
            train_many(mdp, generate_dataset(mdp, "exhaustive", 400), [])
