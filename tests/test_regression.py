import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gumbelkit.losses import LossSpec, loss_grads, loss_values
from gumbelkit.regression import (
    RegressionConfig,
    RegressionTrace,
    experiment_rows,
    full_batch_descent,
    generate_data,
    run_cell,
    run_experiment,
    run_repeat,
    target_value,
)
from gumbelkit.rng import stream

EULER_MASCHERONI = 0.5772156649015329


def cell_config(beta_data, beta_reg, loss, **overrides):
    defaults = dict(
        beta_data=beta_data,
        beta_reg=beta_reg,
        loss=loss,
        n_data=2000,
        repeats=4,
        master_seed=7,
    )
    defaults.update(overrides)
    return RegressionConfig(**defaults)


class TestGenerateData:
    def test_degenerate_scale_limit(self):
        x = generate_data(1e-6, 5000, stream(1, 0))
        assert np.max(np.abs(x)) < 1e-4

    def test_monte_carlo_mean(self):
        n = 10_000
        x = generate_data(1.0, n, stream(2, 0))
        sigma = math.pi / math.sqrt(6.0) / math.sqrt(n)
        assert abs(x.mean() - (-EULER_MASCHERONI)) < 5 * sigma

    def test_determinism(self):
        a = generate_data(2.0, 1000, stream(3, 5))
        b = generate_data(2.0, 1000, stream(3, 5))
        np.testing.assert_array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_data(0.0, 10, stream(0, 0))
        with pytest.raises(ValueError):
            generate_data(1.0, 0, stream(0, 0))


class TestTargetValue:
    def test_constant_data(self):
        for beta in (0.5, 1.0, 4.0):
            assert target_value(np.full(9, 3.25), beta) == pytest.approx(3.25, rel=1e-12)

    def test_two_point_closed_form(self):
        expected = math.log((1.0 + math.e) / 2.0)
        assert target_value(np.array([0.0, 1.0]), 1.0) == pytest.approx(expected, rel=1e-12)

    def test_logsumexp_convention(self):
        data = np.array([0.0, 1.0])
        expected = math.log(1.0 + math.e)
        assert target_value(data, 1.0, convention="logsumexp") == pytest.approx(expected, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            target_value(np.array([]), 1.0)

    @given(
        st.lists(st.floats(min_value=-20, max_value=20), min_size=1, max_size=50),
        st.floats(min_value=0.2, max_value=5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_below_sample_mean(self, values, beta):
        data = np.asarray(values)
        assert target_value(data, beta) >= data.mean() - 1e-12


class TestFullBatchDescent:
    def test_single_squared_step_hits_the_mean_exactly(self):
        data = generate_data(1.0, 512, stream(4, 0))
        h = full_batch_descent(data, LossSpec.expanded(2, beta=1.0), lr=1.0, updates=1, init_h=0.0)
        assert h == np.mean(data)

    def test_matched_scale_reaches_the_minimizer(self):
        data = generate_data(2.0, 2000, stream(5, 0))
        spec = LossSpec.gumbel(beta=2.0)
        h = full_batch_descent(data, spec, lr=0.02, updates=20_000, init_h=1.0)
        assert abs(h - target_value(data, 2.0)) < 1e-4


class TestRunRepeat:
    def test_matched_cell_converges(self):
        config = cell_config(2.0, 2.0, LossSpec.gumbel(beta=2.0))
        result = run_repeat(config, 0)
        assert not result.diverged
        assert result.errors[-1] < result.errors[0]

    def test_mismatched_exponential_escapes(self):
        config = cell_config(10.0, 0.5, LossSpec.gumbel(beta=0.5))
        result = run_repeat(config, 0)
        assert result.diverged
        assert result.diverged_at is not None
        assert np.isnan(result.errors[-1])

    def test_escape_detection_can_be_disabled(self):
        # without the escape bound the blow-up freezes at a huge finite
        # estimate and the non-finiteness check alone never fires
        config = cell_config(10.0, 0.5, LossSpec.gumbel(beta=0.5), escape_factor=None)
        result = run_repeat(config, 0)
        assert not result.diverged
        assert math.isfinite(result.final_h)
        assert result.errors[-1] > 1e3

    def test_polynomial_gradients_overflow_at_mismatched_scales(self):
        config = cell_config(10.0, 0.5, LossSpec.expanded(4, beta=0.5), escape_factor=None)
        result = run_repeat(config, 0)
        assert result.diverged
        assert result.diverged_at is not None and result.diverged_at < 50

    def test_missing_checkpoints_after_divergence(self):
        config = cell_config(10.0, 0.5, LossSpec.gumbel(beta=0.5))
        result = run_repeat(config, 1)
        recorded = ~np.isnan(result.errors)
        if recorded.any():
            # recorded prefix, missing suffix
            last = np.max(np.nonzero(recorded))
            assert not np.isnan(result.errors[: last + 1]).any()
            assert np.isnan(result.errors[last + 1 :]).all()

    def test_bit_identical_reruns(self):
        config = cell_config(2.0, 0.5, LossSpec.gumbel(beta=0.5))
        a = run_repeat(config, 3)
        b = run_repeat(config, 3)
        np.testing.assert_array_equal(a.errors, b.errors)
        assert a.final_h == b.final_h

    def test_fixed_dataset_shares_target(self):
        config = cell_config(1.0, 1.0, LossSpec.gumbel(beta=1.0), resample_data=False)
        r0 = run_repeat(config, 0)
        r1 = run_repeat(config, 1)
        assert r0.target == r1.target
        assert not np.array_equal(r0.errors, r1.errors)

    def test_resampled_targets_differ(self):
        config = cell_config(1.0, 1.0, LossSpec.gumbel(beta=1.0))
        assert run_repeat(config, 0).target != run_repeat(config, 1).target


def reference_repeat(config, repeat_index):
    """One repeat as a scalar loop, one batch per iteration: the loop that
    run_cell's array loop must reproduce bit for bit."""
    rng = stream(config.master_seed, *config.stream_key, 1 + repeat_index)
    if config.resample_data:
        data = generate_data(config.beta_data, config.n_data, rng)
    else:
        shared_rng = stream(config.master_seed, *config.stream_key, 0)
        data = generate_data(config.beta_data, config.n_data, shared_rng)
    target = target_value(data, config.beta_reg, config.target)
    bound = math.inf
    if config.escape_factor is not None:
        scale = max(float(np.max(np.abs(data))), abs(config.init_h))
        bound = config.escape_factor * (1.0 + scale)

    total = config.checkpoints[-1]
    cp_index = {cp: i for i, cp in enumerate(config.checkpoints)}
    errors = np.full(len(config.checkpoints), np.nan)
    batches = rng.integers(0, config.n_data, size=(total, config.batch_size))

    h = config.init_h
    diverged_at = None
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, total + 1):
            residuals = data[batches[t - 1]] - h
            if not np.all(np.isfinite(residuals)):
                diverged_at = t
                break
            grads = loss_grads(config.loss, residuals)
            losses = loss_values(config.loss, residuals)
            step = float(np.mean(grads))
            finite = (
                math.isfinite(step)
                and bool(np.all(np.isfinite(grads)))
                and bool(np.all(np.isfinite(np.atleast_1d(losses))))
            )
            if not finite:
                diverged_at = t
                break
            h = h - config.lr * step
            if not math.isfinite(h) or abs(h) > bound:
                diverged_at = t
                break
            if t in cp_index:
                errors[cp_index[t]] = abs(h - target)
    return errors, diverged_at, target, h


ORACLE_LOSSES = {
    "gumbel": LossSpec.gumbel,
    "expanded4": lambda beta: LossSpec.expanded(4, beta=beta),
    "expanded8": lambda beta: LossSpec.expanded(8, beta=beta),
    "l2": LossSpec.l2,
    "clipped": LossSpec.clipped,
    "expectile": lambda beta: LossSpec.expectile(0.7),
}


def assert_matches_reference(result, reference):
    errors, diverged_at, target, final_h = reference
    np.testing.assert_array_equal(result.errors, errors)
    assert result.diverged_at == diverged_at
    assert result.diverged == (diverged_at is not None)
    assert result.target == target
    np.testing.assert_array_equal(result.final_h, final_h)


def assert_trace_rows_match(trace, references):
    """The trace's arrays row by row, and its aggregates against a stack of the
    surviving reference rows, bit for bit."""
    assert trace.errors.shape == (len(references), len(trace.config.checkpoints))
    for i, (errors, diverged_at, target, final_h) in enumerate(references):
        np.testing.assert_array_equal(trace.errors[i], errors)
        assert trace.diverged_at[i] == (0 if diverged_at is None else diverged_at)
        assert trace.targets[i] == target
        assert trace.final_h[i] == final_h
    survivors = [errors for errors, diverged_at, _, _ in references if diverged_at is None]
    assert trace.diverged_count == len(references) - len(survivors)
    if survivors:
        np.testing.assert_array_equal(trace.mean_abs_error, np.vstack(survivors).mean(axis=0))
    else:
        assert trace.mean_abs_error is None
    if len(survivors) >= 2:
        np.testing.assert_array_equal(
            trace.std_abs_error, np.vstack(survivors).std(axis=0, ddof=1)
        )
    else:
        assert trace.std_abs_error is None


class TestArrayLoopMatchesScalarLoop:
    # (2, 0.5) under the order-4 loss loses repeats at different steps, some
    # past the first chunk of drawn indices, while others run to the end
    @pytest.mark.parametrize("cell", [(2.0, 2.0), (10.0, 0.5), (0.5, 10.0), (2.0, 0.5)])
    @pytest.mark.parametrize("loss", sorted(ORACLE_LOSSES))
    def test_bit_identical_to_the_scalar_loop(self, loss, cell):
        beta_data, beta_reg = cell
        # 210 steps span three chunks of drawn batch indices
        base = cell_config(
            beta_data, beta_reg, ORACLE_LOSSES[loss](beta_reg),
            n_data=300, repeats=5, checkpoints=(10, 100, 210), stream_key=(3,),
        )
        for config in (
            base,
            dataclasses.replace(base, resample_data=False),
            dataclasses.replace(base, escape_factor=None),
        ):
            trace = run_cell(config)
            references = [reference_repeat(config, i) for i in range(config.repeats)]
            for i, result in enumerate(trace.repeats):
                assert_matches_reference(result, references[i])
            assert_trace_rows_match(trace, references)
            assert_matches_reference(run_repeat(config, 3), references[3])


class TestAggregation:
    def test_matched_cell_mean_error_decays_through_checkpoints(self):
        # start far enough from the optimum that every checkpoint is above
        # the SGD noise floor until the last one
        config = cell_config(
            2.0, 2.0, LossSpec.gumbel(beta=2.0), repeats=40, n_data=10_000, init_h=5.0
        )
        trace = run_cell(config)
        assert trace.diverged_count == 0
        means = trace.mean_abs_error
        assert all(a >= b for a, b in zip(means[1:], means[2:]))  # from checkpoint 100 on
        assert means[-1] < means[0]

    def test_cell_aggregates_over_survivors(self):
        config = cell_config(2.0, 2.0, LossSpec.gumbel(beta=2.0), repeats=5)
        trace = run_cell(config)
        assert trace.diverged_count == 0
        assert trace.mean_abs_error is not None and trace.std_abs_error is not None
        assert trace.mean_abs_error.shape == (len(config.checkpoints),)
        assert np.all(trace.std_abs_error >= 0)

    def test_aggregates_survive_errors_whose_squares_overflow(self):
        config = cell_config(2.0, 2.0, LossSpec.gumbel(beta=2.0))
        errors = np.array([[1e300, 0.25, 3.0], [2e300, 0.5, 1e-3], [4e300, 0.125, 7.5]])
        trace = RegressionTrace(config, errors, np.zeros(3, dtype=int), np.zeros(3), np.zeros(3))
        # the huge column, scaled down by hand; the ordinary ones as numpy gives them
        np.testing.assert_allclose(trace.mean_abs_error[0], 1e300 * 7 / 3, rtol=1e-15)
        np.testing.assert_allclose(trace.std_abs_error[0], 1e300 * np.std([1, 2, 4], ddof=1),
                                   rtol=1e-15)
        assert trace.mean_abs_error[1:].tobytes() == errors[:, 1:].mean(axis=0).tobytes()
        assert trace.std_abs_error[1:].tobytes() == errors[:, 1:].std(axis=0, ddof=1).tobytes()

    def test_all_diverged_cell_is_flagged(self):
        config = cell_config(10.0, 0.5, LossSpec.gumbel(beta=0.5), repeats=5)
        trace = run_cell(config)
        assert trace.all_diverged
        assert trace.mean_abs_error is None

    def test_rows_contain_no_nan_text(self):
        base = cell_config(10.0, 0.5, LossSpec.gumbel(beta=0.5), repeats=3)
        cells = run_experiment(base, betas=(0.5, 10.0))
        rows = experiment_rows(cells)
        assert len(rows) == 4 * len(base.checkpoints)
        flat = ",".join(str(v) for row in rows for v in row)
        assert "nan" not in flat.lower()
        assert "inf" not in flat.lower()

    def test_experiment_grid_keys_are_sorted(self):
        base = cell_config(2.0, 2.0, LossSpec.gumbel(beta=2.0), repeats=2, n_data=500)
        cells = run_experiment(base, betas=(2.0, 0.5))
        keys = [(t.config.beta_data, t.config.beta_reg) for t in cells]
        assert keys == [(0.5, 0.5), (0.5, 2.0), (2.0, 0.5), (2.0, 2.0)]

    def test_experiment_rekeys_loss_beta_per_cell(self):
        base = cell_config(2.0, 2.0, LossSpec.gumbel(beta=2.0), repeats=2, n_data=500)
        cells = run_experiment(base, betas=(0.5, 2.0))
        assert [t.config.loss.beta for t in cells] == [0.5, 2.0, 0.5, 2.0]


class TestKnownHarnessLimits:
    """Two stability claims that plain SGD at these scales contradicts.

    Once the estimate leaves the data range, a truncated loss's polynomial
    gradient grows like a power of the estimate, so the descent map amplifies
    it without bound and reaches a literal overflow within a few steps.  The
    exponential loss instead freezes at a huge finite value.  Both runs
    collapse, but only the polynomial one ever turns non-finite, so truncated
    losses cannot show fewer divergences than the exponential loss in the
    strongly mismatched cells.
    """

    @pytest.mark.xfail(
        reason="polynomial-gradient SGD overflows in the mismatched cell while the "
        "exponential loss freezes finite, so divergence counts are not monotone "
        "in the truncation order",
        strict=True,
    )
    def test_divergence_counts_monotone_in_truncation_order(self):
        counts = []
        for spec in (
            LossSpec.gumbel(beta=0.5),
            LossSpec.expanded(12, beta=0.5),
            LossSpec.expanded(8, beta=0.5),
            LossSpec.expanded(4, beta=0.5),
        ):
            config = cell_config(10.0, 0.5, spec, repeats=40, master_seed=2024)
            counts.append(run_cell(config).diverged_count)
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    @pytest.mark.xfail(
        reason="the order-4 loss overflows deterministically wherever the fitting "
        "scale is far below the data scale, so some grid cells always diverge",
        strict=True,
    )
    def test_order_four_survives_every_grid_cell(self):
        base = cell_config(1.0, 1.0, LossSpec.expanded(4, beta=1.0), repeats=5, master_seed=11)
        cells = run_experiment(base)
        assert all(t.diverged_count == 0 for t in cells)


class TestConfigValidation:
    def test_loss_beta_must_match(self):
        with pytest.raises(ValueError):
            cell_config(1.0, 2.0, LossSpec.gumbel(beta=1.0))

    def test_checkpoints_must_ascend(self):
        with pytest.raises(ValueError):
            cell_config(1.0, 1.0, LossSpec.gumbel(beta=1.0), checkpoints=(10, 5))

    def test_target_name_validated(self):
        with pytest.raises(ValueError):
            cell_config(1.0, 1.0, LossSpec.gumbel(beta=1.0), target="caption")

    def test_positive_counts_enforced(self):
        for override in (dict(repeats=0), dict(lr=0.0), dict(lr=math.nan), dict(lr=math.inf),
                         dict(escape_factor=math.inf), dict(init_h=math.nan),
                         dict(init_h=math.inf)):
            with pytest.raises(ValueError):
                cell_config(1.0, 1.0, LossSpec.gumbel(beta=1.0), **override)
