import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gumbelkit import regression
from gumbelkit.losses import LossSpec, _loss_finite_within, loss_grads, loss_values
from gumbelkit.regression import (
    RegressionConfig,
    RegressionTrace,
    cell_bytes,
    experiment_rows,
    full_batch_descent,
    generate_data,
    run_cell,
    run_cells,
    run_experiment,
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

    def test_an_estimate_that_overflows_stops_at_the_next_residuals(self):
        # the first squared step moves the estimate by 1e308 * 10 to -inf, so the
        # second step's residuals are infinite
        data = np.full(4, -10.0)
        assert full_batch_descent(data, LossSpec.l2(), lr=1e308, updates=1) == -math.inf
        assert full_batch_descent(data, LossSpec.l2(), lr=1e308, updates=2) == math.inf

    def test_an_overflowing_gradient_stops_the_descent(self):
        # e**1000 overflows, so the mean gradient is -inf from finite residuals
        h = full_batch_descent(np.array([1000.0]), LossSpec.gumbel(), lr=0.1, updates=1)
        assert h == math.inf


class TestRunRepeat:
    def test_matched_cell_converges(self):
        config = cell_config(2.0, 2.0, LossSpec.gumbel(beta=2.0))
        trace = run_cell(config)
        assert trace.diverged_at[0] == 0
        assert trace.errors[0, -1] < trace.errors[0, 0]

    def test_mismatched_exponential_escapes(self):
        config = cell_config(10.0, 0.5, LossSpec.gumbel(beta=0.5))
        trace = run_cell(config)
        assert trace.diverged_at[0] != 0
        assert 1 <= trace.diverged_at[0] <= config.checkpoints[-1]
        assert np.isnan(trace.errors[0, -1])

    def test_escape_detection_can_be_disabled(self):
        # without the escape bound the blow-up freezes at a huge finite
        # estimate and the non-finiteness check alone never fires
        config = cell_config(10.0, 0.5, LossSpec.gumbel(beta=0.5), escape_factor=None)
        trace = run_cell(config)
        assert trace.diverged_at[0] == 0
        assert math.isfinite(trace.final_h[0])
        assert trace.errors[0, -1] > 1e3

    def test_polynomial_gradients_overflow_at_mismatched_scales(self):
        config = cell_config(10.0, 0.5, LossSpec.expanded(4, beta=0.5), escape_factor=None)
        trace = run_cell(config)
        assert trace.diverged_at[0] != 0
        assert 1 <= trace.diverged_at[0] < 50

    def test_missing_checkpoints_after_divergence(self):
        config = cell_config(10.0, 0.5, LossSpec.gumbel(beta=0.5))
        errors = run_cell(config).errors[1]
        recorded = ~np.isnan(errors)
        if recorded.any():
            # recorded prefix, missing suffix
            last = np.max(np.nonzero(recorded))
            assert not np.isnan(errors[: last + 1]).any()
            assert np.isnan(errors[last + 1 :]).all()

    def test_bit_identical_reruns(self):
        config = cell_config(2.0, 0.5, LossSpec.gumbel(beta=0.5))
        a = run_cell(config)
        b = run_cell(config)
        np.testing.assert_array_equal(a.errors[3], b.errors[3])
        assert a.final_h[3] == b.final_h[3]

    def test_fixed_dataset_shares_target(self):
        config = cell_config(1.0, 1.0, LossSpec.gumbel(beta=1.0), resample_data=False)
        trace = run_cell(config)
        assert trace.targets[0] == trace.targets[1]
        assert not np.array_equal(trace.errors[0], trace.errors[1])

    def test_resampled_targets_differ(self):
        config = cell_config(1.0, 1.0, LossSpec.gumbel(beta=1.0))
        trace = run_cell(config)
        assert trace.targets[0] != trace.targets[1]


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
    "expanded20": lambda beta: LossSpec.expanded(20, beta=beta),
    "l2": LossSpec.l2,
    "clipped": LossSpec.clipped,
    "expectile": lambda beta: LossSpec.expectile(0.7),
}


def assert_matches_reference(trace, i, reference):
    """Row i of a trace against a scalar reference, whose diverged_at is None for a survivor."""
    errors, diverged_at, target, final_h = reference
    np.testing.assert_array_equal(trace.errors[i], errors)
    assert trace.diverged_at[i] == (0 if diverged_at is None else diverged_at)
    assert (trace.diverged_at[i] != 0) == (diverged_at is not None)
    assert trace.targets[i] == target
    np.testing.assert_array_equal(trace.final_h[i], final_h)


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
    # past the first chunk of drawn indices, while others run to the end; at
    # lr 0.5 the mismatched cells lose their rows within the first steps
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
            dataclasses.replace(base, lr=0.5),
        ):
            trace = run_cell(config)
            references = [reference_repeat(config, i) for i in range(config.repeats)]
            for i, reference in enumerate(references):
                assert_matches_reference(trace, i, reference)
            assert_trace_rows_match(trace, references)
            # a row does not depend on the cell's size
            grown = run_cell(dataclasses.replace(config, repeats=4))
            assert_matches_reference(grown, 3, references[3])

    # Each way a row can fail a chunk's fast pass, so that its path is checked step
    # by step; the check must give the scalar loop's rows, and the rows kept beside
    # them theirs.
    @staticmethod
    def assert_matches_scalar_loop(config):
        trace = run_cell(config)
        for i in range(config.repeats):
            assert_matches_reference(trace, i, reference_repeat(config, i))
        return trace

    # seeds found by search: a row of seed 56 overflows at t = 10, a checkpoint
    # inside the first chunk, and one of seed 11 at t = 100, the last step of the
    # first chunk; both cells keep other rows alive past them
    @pytest.mark.parametrize("seed,step", [(56, 10), (11, 100)])
    def test_a_row_diverging_inside_or_at_the_end_of_a_chunk(self, seed, step):
        config = cell_config(
            2.0, 0.5, LossSpec.expanded(4, beta=0.5), n_data=300, repeats=5,
            checkpoints=(10, 100, 210), master_seed=seed, stream_key=(3,),
        )
        trace = self.assert_matches_scalar_loop(config)
        assert step in trace.diverged_at and 0 in trace.diverged_at

    # with no escape bound, one check alone stops rows on the last step of a chunk:
    # over a one-step run nothing else shows the failure
    @pytest.mark.parametrize("overrides", [
        # the order-8 loss overflows near z = -2e39, where its gradient does not
        dict(loss=LossSpec.expanded(8), init_h=2e39),
        # a residual overflows against data near -1e308, while the clipped loss
        # and its gradient, 0 past the clip, stay finite
        dict(loss=LossSpec.clipped(beta=1.0), init_h=1.5e308, beta_data=1e307),
        # the update overflows the estimate from a finite residual, loss and gradient
        dict(loss=LossSpec.expectile(0.7), init_h=1e150, lr=1e200),
        # the clipped gradient, 1 / beta times a bounded term, overflows at beta
        # 1e-308, while the clipped loss, which beta does not scale, stays finite
        dict(loss=LossSpec.clipped(beta=1e-308), beta_data=1e-308, beta_reg=1e-308, init_h=0.0),
    ], ids=["loss", "residual", "estimate", "gradient"])
    @pytest.mark.parametrize("checkpoints", [(1,), (10, 100, 210)])
    def test_one_check_alone_stops_a_row(self, overrides, checkpoints):
        config = cell_config(**{
            "beta_data": 2.0, "beta_reg": 1.0, "n_data": 300, "repeats": 3,
            "checkpoints": checkpoints, "escape_factor": None, "stream_key": (3,), **overrides,
        })
        trace = self.assert_matches_scalar_loop(config)
        assert 1 in trace.diverged_at

    @pytest.mark.parametrize("overrides", [
        # the residuals are data near -1e307 at this scale, or the estimate near
        # 1e307 above data near 0: every residual and loss is finite, but a hundred
        # of them sum past the largest float; the rates move the estimate visibly
        dict(beta_data=1e307, beta_reg=1e307, loss=LossSpec.gumbel(beta=1e307), lr=1e307),
        dict(init_h=1e307, beta_reg=0.5, loss=LossSpec.gumbel(beta=0.5), lr=1e300),
    ], ids=["data", "estimate"])
    def test_a_residual_sum_that_overflows_replays_to_the_same_rows(self, overrides):
        config = cell_config(**{
            "beta_data": 2.0, "n_data": 300, "repeats": 3, "checkpoints": (10, 100, 210),
            "escape_factor": None, "stream_key": (3,), **overrides,
        })
        trace = self.assert_matches_scalar_loop(config)
        assert trace.diverged_count == 0
        assert np.all(np.isfinite(trace.errors))


def assert_same_trace(trace, alone):
    """Two traces of one cell, array for array, bit for bit."""
    assert trace.config == alone.config
    for name in ("errors", "diverged_at", "targets", "final_h"):
        a, b = getattr(trace, name), getattr(alone, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestRunCells:
    @staticmethod
    def column(loss, **overrides):
        """Three cells of one beta_reg column, with per-row fields that differ:
        repeats, start point, target, escape bound and seed."""
        beta_reg = 0.5 if loss == "expectile" else 2.0
        spec = ORACLE_LOSSES[loss](beta_reg)
        return [
            cell_config(beta_data, beta_reg, spec, n_data=300, checkpoints=(10, 100, 210),
                        stream_key=(k,), **{**cell, **overrides})
            for k, (beta_data, cell) in enumerate([
                (0.5, dict(repeats=3)),
                (2.0, dict(repeats=5, init_h=-1.5, target="logsumexp")),
                (10.0, dict(repeats=2, escape_factor=None, master_seed=3)),
            ])
        ]

    @pytest.mark.parametrize("resample", [True, False], ids=["resampled", "fixed"])
    @pytest.mark.parametrize("loss", ["gumbel", "expanded8", "expanded20", "clipped",
                                      "expectile", "l2"])
    def test_each_stacked_cell_is_the_cell_run_alone(self, loss, resample):
        configs = self.column(loss, resample_data=resample)
        for trace, config in zip(run_cells(configs), configs, strict=True):
            assert_same_trace(trace, run_cell(config))

    def test_a_cell_that_collapses_in_its_first_chunk_beside_cells_that_live_out(self):
        spec = LossSpec.gumbel(beta=0.5)
        configs = [
            cell_config(beta_data, 0.5, spec, n_data=300, repeats=repeats,
                        checkpoints=(10, 100, 210), stream_key=(k,))
            for k, (beta_data, repeats) in enumerate([(0.5, 4), (10.0, 6), (0.5, 3)])
        ]
        traces = run_cells(configs)
        assert traces[1].all_diverged and traces[1].diverged_at.max() <= 100
        assert traces[0].diverged_count == traces[2].diverged_count == 0
        for trace, config in zip(traces, configs, strict=True):
            assert_same_trace(trace, run_cell(config))

    @pytest.mark.parametrize("field,value", [
        ("loss", LossSpec.expectile(0.3)),
        ("n_data", 301),
        ("lr", 0.05),
        ("batch_size", 16),
        ("checkpoints", (10, 100, 200)),
        ("resample_data", False),
    ])
    def test_cells_must_share_what_their_rows_step_with(self, field, value):
        configs = self.column("expectile")
        configs[1] = dataclasses.replace(configs[1], **{field: value})
        with pytest.raises(ValueError, match=f"must share {field}"):
            run_cells(configs)

    @pytest.mark.parametrize("overrides", [
        dict(repeats=3),
        dict(repeats=3, resample_data=False),
        dict(repeats=100, n_data=10_000, checkpoints=(10,)),     # every cell runs alone
    ], ids=["resampled", "fixed", "over-budget"])
    def test_experiment_keeps_the_cell_order_of_cells_run_alone(self, overrides):
        base = cell_config(2.0, 2.0, LossSpec.expanded(8, beta=2.0),
                           **{"n_data": 300, "checkpoints": (10, 100, 210), **overrides})
        cells = run_experiment(base, betas=(10.0, 0.5, 2.0))
        grid = (0.5, 2.0, 10.0)
        assert [(t.config.beta_data, t.config.beta_reg) for t in cells] == [
            (d, r) for d in grid for r in grid]
        assert [t.config.stream_key for t in cells] == [(k,) for k in range(9)]
        for trace in cells:
            assert_same_trace(trace, run_cell(trace.config))

    @pytest.mark.parametrize("repeats,resample,sizes", [
        (10, True, [5, 4]),         # the benchmark's grid: 1.07 MB a cell
        (20, True, [2, 2, 2, 2, 1]),
        (100, True, [1] * 9),       # the default grid: 10.7 MB a cell runs alone
        (1000, False, [1] * 9),     # one shared dataset, but 25.6 MB of drawn batches
    ])
    def test_experiment_cuts_the_grid_into_stacks_that_fit_the_budget(
            self, monkeypatch, repeats, resample, sizes):
        stacks = []
        monkeypatch.setattr(regression, "run_cells",
                            lambda configs: stacks.append(configs) or configs)
        base = RegressionConfig(2.0, 2.0, LossSpec.gumbel(beta=2.0), repeats=repeats,
                                resample_data=resample)
        cells = run_experiment(base)
        assert [len(stack) for stack in stacks] == sizes
        assert [c.stream_key for c in cells] == [(k,) for k in range(9)]
        # the losses of a stack agree up to their beta
        assert all(len({dataclasses.replace(c.loss, beta=1.0) for c in stack}) == 1
                   for stack in stacks)

    def test_cell_bytes_counts_what_each_repeat_stream_holds(self):
        stream(0, 0)                # the first stream loads numpy.random
        tracemalloc.start()
        try:
            streams = [stream(0, 1, i) for i in range(1000)]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(streams) * regression._STREAM_BYTES >= held
        one = RegressionConfig(1.0, 1.0, LossSpec.gumbel(), n_data=1, batch_size=1, repeats=1)
        two = dataclasses.replace(one, repeats=2)
        assert cell_bytes(two) - cell_bytes(one) == 8 * (1 + 100) + regression._STREAM_BYTES


def assert_rows_bit_identical(trace, references):
    """The trace's arrays against the scalar loop's rows, byte for byte."""
    errors, diverged_at, targets, final_h = zip(*references)
    expected = {
        "errors": np.array(errors),
        "diverged_at": np.array([at or 0 for at in diverged_at]),
        "targets": np.array(targets),
        "final_h": np.array(final_h),
    }
    for name, want in expected.items():
        got = getattr(trace, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (name, got, want)


# moderate temperatures, plus the edges where z = residual / beta under- or overflows
FUZZ_BETAS = st.floats(1e-3, 1e3) | st.sampled_from([1e-300, 1e300])


@st.composite
def fuzzed_stacks(draw, variant):
    """One to three cells that share a loss up to beta and their stepping settings,
    each with its own beta, repeats, seed, start point, escape factor and target."""
    order = 2 * draw(st.integers(1, 100)) if variant == "expanded_gumbel" else None
    shared = dict(
        n_data=draw(st.integers(1, 300)),
        lr=draw(st.sampled_from([0.02, 0.5])),
        batch_size=draw(st.integers(1, 64)),
        # the last spans three chunks of drawn batch indices
        checkpoints=draw(st.sampled_from([(1,), (3, 100), (10, 100, 210)])),
        resample_data=draw(st.booleans()),
    )
    configs = []
    for k in range(draw(st.integers(1, 3))):
        beta = draw(FUZZ_BETAS)
        loss = LossSpec(variant, order=order,
                        clip=7.0 if variant == "clipped_gumbel" else None,
                        tau=0.7 if variant == "expectile" else None,
                        beta=1.0 if variant == "expectile" else beta)
        configs.append(RegressionConfig(
            beta_data=draw(st.floats(1e-3, 1e3)),
            beta_reg=beta,
            loss=loss,
            repeats=draw(st.integers(1, 3)),
            master_seed=draw(st.integers(0, 2**16)),
            init_h=draw(st.floats(-5.0, 5.0) | st.floats(-1e300, 1e300)),
            escape_factor=draw(st.none() | st.floats(0.5, 100.0)),
            target=draw(st.sampled_from(["minimizer", "logsumexp"])),
            stream_key=(k,),
            **shared,
        ))
    return configs


class TestFuzzedStacks:
    @pytest.mark.parametrize("variant", ["gumbel", "expanded_gumbel", "l2", "clipped_gumbel",
                                         "expectile"])
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_a_stack_is_the_scalar_loop_row_by_row(self, variant, data):
        configs = data.draw(fuzzed_stacks(variant))
        for trace, config in zip(run_cells(configs), configs, strict=True):
            assert_rows_bit_identical(
                trace, [reference_repeat(config, i) for i in range(config.repeats)])


class TestReachLimit:
    """The fast pass keeps a row only while its reach, the largest data magnitude
    plus the chunk's peak |estimate|, bounds every residual inside the region
    where the loss is finite wherever its gradient is."""

    SPECS = [LossSpec.gumbel(0.5), LossSpec.clipped(0.5), LossSpec.expanded(8, 0.5),
             LossSpec.expanded(20, 0.5), LossSpec.expanded(200, 0.5), LossSpec.l2(0.5),
             LossSpec.expectile(0.7)]

    @staticmethod
    def edge(spec):
        """The largest reach that passes the limit and the smallest that fails: adjacent
        floats, found by bisection over the bit patterns, which order as the floats do."""
        def passes(bits):
            return bool(_loss_finite_within(spec, np.int64(bits).view(np.float64), spec.beta))

        lo, hi = 0, int(np.float64(np.inf).view(np.int64))
        with np.errstate(over="ignore"):
            assert passes(lo) and not passes(hi)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if passes(mid) else (lo, mid)
        return float(np.int64(lo).view(np.float64)), float(np.int64(hi).view(np.float64))

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: f"{spec.variant}{spec.order or ''}")
    def test_the_loss_is_finite_up_to_the_largest_passing_reach(self, spec):
        reach, _ = self.edge(spec)
        residuals = np.array([-reach, reach])
        with np.errstate(over="ignore", invalid="ignore"):
            grads, values = loss_grads(spec, residuals), loss_values(spec, residuals)
        assert np.isfinite(values[np.isfinite(grads)]).all()
        assert np.isfinite(values[0])

    # one step from a start at the reach, at a rate that leaves the estimate where it
    # is, over data within 1e-298 of 0: every residual is -reach.  At gumbel's
    # smallest failing reach, z = -inf: the loss is inf but the gradient 1 / beta,
    # so only the reach tells the fast pass that the row diverged
    @pytest.mark.parametrize("side", ["passes", "fails"])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: f"{spec.variant}{spec.order or ''}")
    def test_a_row_at_the_edge_matches_the_scalar_loop(self, spec, side):
        reach = self.edge(spec)[side == "fails"]
        config = cell_config(1e-300, spec.beta, spec, n_data=10, repeats=2, checkpoints=(1,),
                             lr=1e-300, init_h=reach, escape_factor=None)
        trace = run_cell(config)
        assert_rows_bit_identical(trace, [reference_repeat(config, i) for i in range(2)])
        if spec.variant == "gumbel":
            assert list(trace.diverged_at) == ([0, 0] if side == "passes" else [1, 1])


class TestBatchIndexDraws:
    @pytest.mark.parametrize("n", [1, 2, 10_000, 2**31 - 1])
    def test_draws_do_not_depend_on_how_they_are_chunked(self, n):
        """run_cells draws a row's batch indices a chunk of steps at a time; the
        scalar loop it must match draws them all at once."""
        whole = stream(5, 1, 2).integers(0, n, size=(10, 3))
        rng = stream(5, 1, 2)
        # odd-sized chunks, so that a 32-bit half of a 64-bit draw crosses a call
        parts = [rng.integers(0, n, size=(k, 3)) for k in (1, 4, 5)]
        np.testing.assert_array_equal(np.concatenate(parts), whole)


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
