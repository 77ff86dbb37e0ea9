import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gumbelkit.losses import (
    LossSpec,
    _row_kernel,
    _spec_kernel,
    clipped_gumbel_loss,
    clipped_gumbel_loss_grad,
    expanded_gumbel_loss,
    expanded_gumbel_loss_grad,
    expectile_loss,
    expectile_loss_grad,
    gumbel_loss,
    gumbel_loss_grad,
    loss_curve,
    loss_grads,
    loss_values,
)

BETAS = (0.5, 1.0, 2.0, 10.0)
ORDERS = (2, 4, 8, 20)


def central_difference(loss_fn, residual, step=1e-5):
    # derivative w.r.t. the prediction: moving the prediction by +d moves the
    # residual by -d
    return (loss_fn(residual - step) - loss_fn(residual + step)) / (2.0 * step)


class TestGumbelLoss:
    def test_zero_at_zero(self):
        assert gumbel_loss(0.0, 1.0) == 0.0

    def test_closed_forms(self):
        assert gumbel_loss(1.0, 1.0) == pytest.approx(math.e - 2.0, rel=1e-12)
        assert gumbel_loss(-1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_grad_closed_forms(self):
        assert gumbel_loss_grad(0.0, 1.0) == 0.0
        assert gumbel_loss_grad(1.0, 1.0) == pytest.approx(1.0 - math.e, rel=1e-12)

    def test_overflow_returns_inf(self):
        assert math.isinf(gumbel_loss(800.0, 1.0))
        assert gumbel_loss_grad(800.0, 1.0) == -math.inf

    def test_nonfinite_residual_rejected(self):
        with pytest.raises(ValueError):
            gumbel_loss(math.nan, 1.0)
        with pytest.raises(ValueError):
            gumbel_loss_grad(math.inf, 1.0)

    def test_bad_beta_rejected(self):
        with pytest.raises(ValueError):
            gumbel_loss(1.0, 0.0)
        with pytest.raises(ValueError):
            gumbel_loss(1.0, -2.0)

    @pytest.mark.parametrize("beta", BETAS)
    def test_matches_finite_differences(self, beta):
        for r in np.linspace(-5.0, 5.0, 40):  # even count, avoids the flat point at 0
            fd = central_difference(lambda x: gumbel_loss(x, beta), r)
            an = gumbel_loss_grad(r, beta)
            assert abs(an - fd) / max(abs(an), abs(fd)) < 1e-6


class TestClippedGumbelLoss:
    def test_zero_batch_of_zero(self):
        assert clipped_gumbel_loss([0.0], 1.0, 7.0) == 0.0

    def test_two_point_batch(self):
        # m = 1: mean of (1 - 2/e) and e**-2
        expected = ((1.0 - 2.0 / math.e) + math.exp(-2.0)) / 2.0
        assert clipped_gumbel_loss([1.0, -1.0], 1.0, 7.0) == pytest.approx(expected, rel=1e-12)

    def test_clamp_saturates(self):
        assert clipped_gumbel_loss([100.0], 1.0, 7.0) == clipped_gumbel_loss([7.0], 1.0, 7.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            clipped_gumbel_loss([], 1.0, 7.0)

    @given(st.floats(min_value=-0.99, max_value=6.99))
    def test_single_sample_closed_form(self, z):
        # one unclamped sample with z >= -1: m = z, value 1 - (z + 1) e**-z
        expected = 1.0 - (z + 1.0) * math.exp(-z)
        assert clipped_gumbel_loss([z], 1.0, 7.0) == pytest.approx(expected, abs=1e-12)

    def test_grad_zero_outside_clip(self):
        grads = clipped_gumbel_loss_grad([100.0, 0.5], 1.0, 7.0)
        assert grads[0] == 0.0
        assert grads[1] != 0.0

    def test_grad_matches_finite_differences_inside(self):
        # perturb non-maximal samples only: the batch maximum is treated as a
        # constant by the defining procedure, so its own derivative drops the
        # coupling term on purpose
        batch = np.array([0.5, -1.2, 2.0])
        grads = clipped_gumbel_loss_grad(batch, 1.0, 7.0)
        for i in (0, 1):
            def mean_loss_at(pred_shift, i=i):
                shifted = batch.copy()
                shifted[i] -= pred_shift
                return clipped_gumbel_loss(shifted, 1.0, 7.0)

            fd = (mean_loss_at(1e-6) - mean_loss_at(-1e-6)) / 2e-6
            assert grads[i] / len(batch) == pytest.approx(fd, rel=1e-5)


class TestExpandedGumbelLoss:
    def test_zero_at_zero(self):
        for beta in BETAS:
            assert expanded_gumbel_loss(0.0, beta, 8) == 0.0

    def test_order_two_is_half_square(self):
        assert expanded_gumbel_loss(1.0, 1.0, 2) == 0.5

    def test_order_four_series_sum(self):
        assert expanded_gumbel_loss(1.0, 1.0, 4) == pytest.approx(1/2 + 1/6 + 1/24, rel=1e-12)

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            expanded_gumbel_loss(1.0, 1.0, 3)
        with pytest.raises(ValueError):
            LossSpec.expanded(5)

    def test_grad_trivials(self):
        assert expanded_gumbel_loss_grad(0.0, 1.0, 8) == 0.0
        assert expanded_gumbel_loss_grad(1.0, 1.0, 2) == -1.0

    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("order", ORDERS)
    def test_matches_finite_differences(self, beta, order):
        for r in np.linspace(-5.0, 5.0, 40):
            fd = central_difference(lambda x: expanded_gumbel_loss(x, beta, order), r)
            an = expanded_gumbel_loss_grad(r, beta, order)
            assert abs(an - fd) / max(abs(an), abs(fd)) < 1e-6

    @given(
        st.floats(min_value=-40.0, max_value=40.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.integers(min_value=1, max_value=10).map(lambda k: 2 * k),
    )
    def test_nonnegative_for_even_orders(self, residual, beta, order):
        assert expanded_gumbel_loss(residual, beta, order) >= 0.0

    @given(st.floats(min_value=-30.0, max_value=30.0), st.floats(min_value=0.1, max_value=10.0))
    def test_order_two_equals_l2(self, residual, beta):
        z = residual / beta
        expected = 0.5 * z * z
        got = expanded_gumbel_loss(residual, beta, 2)
        assert abs(got - expected) <= 1e-15 * max(1.0, expected)

    def test_order_past_the_float_factorials_matches_the_exponential(self):
        # 171! and above overflow a float; their reciprocals must not
        z = np.linspace(-3.0, 3.0, 601)
        spec = LossSpec.expanded(200)
        np.testing.assert_allclose(loss_values(spec, z), np.expm1(z) - z, rtol=1e-14, atol=0)
        np.testing.assert_allclose(loss_grads(spec, z), -np.expm1(z), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("order", (2, 4, 8, 12, 16))
    def test_taylor_remainder_bound(self, order):
        # |T_n(z) - (e^z - z - 1)| <= |z|**(n+1) e**|z| / (n+1)!
        zs = np.linspace(-2.0, 2.0, 801)
        diff = np.abs(expanded_gumbel_loss(zs, 1.0, order) - gumbel_loss(zs, 1.0))
        bound = np.abs(zs) ** (order + 1) * np.exp(np.abs(zs)) / math.factorial(order + 1)
        slack = 8 * np.finfo(float).eps * np.maximum(1.0, gumbel_loss(zs, 1.0))
        assert np.all(diff <= bound + slack)

    def test_gradient_never_steeper_than_exponential_on_the_right(self):
        zs = np.linspace(1e-3, 8.0, 200)
        full = np.abs(gumbel_loss_grad(zs, 1.0))
        eps = np.finfo(float).eps
        for order in ORDERS:
            truncated = np.abs(expanded_gumbel_loss_grad(zs, 1.0, order))
            assert np.all(truncated <= full * (1.0 + 8 * eps))
            # strict wherever the tail gap z**n / n! is resolvable in doubles
            resolvable = zs**order / math.factorial(order) > 8 * eps * full
            assert resolvable.any()
            assert np.all(truncated[resolvable] < full[resolvable])
        assert expanded_gumbel_loss_grad(0.0, 1.0, 8) == gumbel_loss_grad(0.0, 1.0) == 0.0


class TestExpectileLoss:
    def test_values(self):
        assert expectile_loss(1.0, 0.7) == pytest.approx(0.7, rel=1e-12)
        assert expectile_loss(-1.0, 0.7) == pytest.approx(0.3, rel=1e-12)
        assert expectile_loss(0.0, 0.3) == 0.0

    def test_tau_validated(self):
        with pytest.raises(ValueError):
            expectile_loss(1.0, 0.0)
        with pytest.raises(ValueError):
            LossSpec.expectile(1.0)

    def test_grad_matches_finite_differences(self):
        for tau in (0.3, 0.7, 0.9):
            for r in np.linspace(-5.0, 5.0, 40):
                fd = central_difference(lambda x: expectile_loss(x, tau), r)
                an = loss_grads(LossSpec.expectile(tau), r)
                assert abs(an - fd) / max(abs(an), abs(fd), 1e-9) < 1e-6


class TestLossSpec:
    def test_variant_validated(self):
        with pytest.raises(ValueError):
            LossSpec("huber")

    def test_irrelevant_parameters_rejected(self):
        with pytest.raises(ValueError):
            LossSpec("gumbel", order=4)
        with pytest.raises(ValueError):
            LossSpec("l2", clip=7.0)
        with pytest.raises(ValueError):
            LossSpec("gumbel", tau=0.5)

    def test_required_parameters_enforced(self):
        with pytest.raises(ValueError):
            LossSpec("expanded_gumbel")
        with pytest.raises(ValueError):
            LossSpec("clipped_gumbel")
        with pytest.raises(ValueError):
            LossSpec("expectile")

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_every_family_zero_at_zero(self, beta):
        specs = [
            LossSpec.gumbel(beta),
            LossSpec.clipped(beta, 7.0),
            LossSpec.expanded(8, beta),
            LossSpec.l2(beta),
            LossSpec.expectile(0.7),
        ]
        for spec in specs:
            assert loss_values(spec, 0.0) == 0.0


class TestSpecDispatchOnBatches:
    @pytest.mark.parametrize(
        "spec",
        [
            LossSpec.gumbel(2.0),
            LossSpec.clipped(2.0, 3.0),
            LossSpec.expanded(4, 2.0),
            LossSpec.expanded(8, 2.0),
            LossSpec.l2(2.0),
            LossSpec.expectile(0.7),
        ],
        ids=lambda spec: f"{spec.variant}{spec.order or ''}",
    )
    def test_each_row_is_its_own_batch(self, spec):
        # rows of different scales, one entirely below z = -1, so every clipped
        # row has its own maximum and a shared one would change the results
        noise = np.random.default_rng(5).normal(size=(4, 32))
        batches = np.vstack([0.5 * noise[0], 2.0 * noise[1], 8.0 * noise[2], -4.0 - np.abs(noise[3])])
        for fn in (loss_grads, loss_values):
            whole = fn(spec, batches)
            assert whole.shape == batches.shape
            for row, got in zip(batches, whole):
                np.testing.assert_array_equal(got, fn(spec, row))


def edge_residuals(rows):
    """Signed zeros, subnormals, the far tails and overflow, plus per-row noise."""
    edges = [-0.0, 0.0, 5e-324, -5e-324, -800.0, 800.0, 1e200, -1e200]
    noise = np.random.default_rng(12).normal(scale=5.0, size=(rows, 40))
    return np.hstack([np.tile(edges, (rows, 1)), noise])


EDGE_SPECS = [LossSpec.expanded(n, beta) for n in (*range(2, 21, 2), 200) for beta in (0.5, 2.0)]
EDGE_SPECS += [LossSpec.l2(0.7), LossSpec.gumbel(0.5), LossSpec.gumbel(3.0),
               LossSpec.clipped(1.5, 2.0), LossSpec.clipped(0.5, 7.0), LossSpec.expectile(0.3)]
# beta exactly 1, where the in-place gradient kernel skips its divides
EDGE_SPECS += [LossSpec.expanded(4), LossSpec.expanded(20), LossSpec.l2(), LossSpec.gumbel(),
               LossSpec.clipped()]


class TestRowGrads:
    @pytest.mark.parametrize("values", (False, True))
    def test_each_row_matches_the_scalar_spec_path(self, values):
        # interleaved, so each kernel's rows are scattered through the stack
        order = np.random.default_rng(11).permutation(len(EDGE_SPECS))
        specs = [EDGE_SPECS[i] for i in order]
        residuals = edge_residuals(len(specs))
        with np.errstate(over="ignore", invalid="ignore"):
            got = _row_kernel(tuple(specs), residuals.shape[1], values=values)(residuals)
            for spec, row, out in zip(specs, residuals, got):
                if not values:
                    want = loss_grads(spec, row)
                elif spec.variant == "clipped_gumbel":
                    # a clipped row is one batch around its own maximum
                    assert np.mean(out) == clipped_gumbel_loss(row, spec.beta, spec.clip), spec
                    continue
                else:
                    want = loss_values(spec, row)
                assert out.tobytes() == want.tobytes(), spec

    # interleaved, each kernel's rows are scattered; grouped, each gumbel and series
    # group of one beta is contiguous and writes its gradients in place
    @pytest.mark.parametrize("values", (False, True))
    @pytest.mark.parametrize("grouped", (False, True), ids=("interleaved", "grouped"))
    def test_a_kernel_fills_a_given_out_as_it_fills_its_own(self, values, grouped):
        specs = (sorted(EDGE_SPECS, key=lambda spec: (spec.variant, spec.beta, spec.order or 0))
                 if grouped else [EDGE_SPECS[i] for i in np.random.default_rng(11).permutation(
                     len(EDGE_SPECS))])
        residuals = edge_residuals(len(specs))
        kernel = _row_kernel(tuple(specs), residuals.shape[1], values=values)
        buf = np.full_like(residuals, np.nan)
        with np.errstate(over="ignore", invalid="ignore"):
            want = kernel(residuals)
            assert kernel(residuals, buf) is buf
        assert buf.tobytes() == want.tobytes()
        assert residuals.tobytes() == edge_residuals(len(specs)).tobytes()

    @pytest.mark.parametrize("spec", EDGE_SPECS, ids=lambda spec: f"{spec.variant}{spec.order or ''}")
    def test_spec_kernels_match_the_per_row_paths(self, spec):
        residuals = edge_residuals(3)
        with np.errstate(over="ignore", invalid="ignore"):
            values = _spec_kernel(spec, values=True)(residuals)
            grads = _spec_kernel(spec)(residuals)
        for row, got_values, got_grads in zip(residuals, values, grads):
            assert got_grads.tobytes() == loss_grads(spec, row).tobytes()
            if spec.variant == "clipped_gumbel":
                # a clipped row is one batch around its own maximum
                assert np.mean(got_values) == clipped_gumbel_loss(row, spec.beta, spec.clip)
            else:
                assert got_values.tobytes() == loss_values(spec, row).tobytes()


def spec_id(spec):
    return f"{spec.variant}{spec.order or ''}-beta{spec.beta:g}"


class TestWriteGrads:
    """The one gradient writer of each variant, as ``_spec_kernel`` binds it."""

    @pytest.mark.parametrize("spec", EDGE_SPECS, ids=spec_id)
    def test_a_given_out_is_filled_as_a_fresh_one_and_r_is_only_read(self, spec):
        residuals = edge_residuals(3)
        kernel = _spec_kernel(spec)
        buf = np.full_like(residuals, np.nan)
        with np.errstate(over="ignore", invalid="ignore"):
            want = kernel(residuals)
            assert kernel(residuals, buf) is buf
        assert buf.tobytes() == want.tobytes()
        assert residuals.tobytes() == edge_residuals(3).tobytes()

    # each closed form as one expression; the in-place writer must give its bytes
    @pytest.mark.parametrize("spec", [LossSpec.clipped(1.5, 2.0), LossSpec.clipped(0.5, 7.0),
                                      LossSpec.clipped(), LossSpec.expectile(0.3),
                                      LossSpec.expectile(0.9)], ids=spec_id)
    def test_clipped_and_expectile_write_their_closed_forms(self, spec):
        # non-finite residuals too, as a diverging value fit forms them
        r = np.hstack([edge_residuals(4), np.tile([np.nan, np.inf, -np.inf], (4, 1))])
        out = np.full_like(r, np.nan)
        with np.errstate(over="ignore", invalid="ignore"):
            _spec_kernel(spec)(r, out)
            if spec.variant == "expectile":
                w = np.where(r < 0, 1.0 - spec.tau, spec.tau)
                want = -2.0 * w * r
            else:
                zraw = r / spec.beta
                z = np.clip(zraw, -spec.clip, spec.clip)
                em = np.exp(-np.maximum(z.max(axis=-1, keepdims=True), -1.0))
                want = np.where(np.abs(zraw) <= spec.clip, em * (1.0 - np.exp(z)) / spec.beta, 0.0)
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", [LossSpec.gumbel(), LossSpec.clipped(1.5, 2.0), LossSpec.l2(),
                                      LossSpec.expanded(4), LossSpec.expanded(20),
                                      LossSpec.expanded(200), LossSpec.expectile(0.3)], ids=spec_id)
    @pytest.mark.parametrize("shape", ("column", "full"))
    def test_an_array_beta_matches_each_row_under_its_own_scalar_beta(self, spec, shape):
        betas = np.array([0.5, 1.0, 2.0, 3.0, 1e-3, 1e3])
        residuals = edge_residuals(len(betas))
        beta = betas[:, None]
        if shape == "full":
            beta = np.repeat(beta, residuals.shape[1], axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _spec_kernel(spec, beta=beta)(residuals, np.empty_like(residuals))
        assert residuals.tobytes() == edge_residuals(len(betas)).tobytes()
        for b, row, out in zip(betas, residuals, got):
            solo = dataclasses.replace(spec, beta=float(b))
            assert out.tobytes() == loss_grads(solo, row).tobytes(), solo


class TestNoRuntimeWarnings:
    """Each public entry point holds its own errstate: overflow comes back as inf
    or NaN without a RuntimeWarning, with no errstate around the call."""

    def test_entry_points_are_quiet_on_overflowing_inputs(self):
        r = np.array([-1e200, -800.0, -0.0, 800.0, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gumbel_loss(800.0, 1.0) == math.inf
            assert gumbel_loss_grad(800.0, 1.0) == -math.inf
            assert math.isfinite(clipped_gumbel_loss(r, 1.0, 1000.0))
            clipped_gumbel_loss_grad(r, 1.0, 1000.0)
            assert np.isinf(expanded_gumbel_loss(r, 1.0, 8)).any()
            assert np.isinf(expanded_gumbel_loss_grad(r, 1.0, 8)).any()
            assert np.isinf(expectile_loss(r, 0.3)).any()
            assert np.isfinite(expectile_loss_grad(r, 0.3)).all()
            for spec in EDGE_SPECS:
                loss_values(spec, r)
                loss_grads(spec, r)
                loss_curve(spec, r)


class TestLossCurve:
    def test_l2_curve(self):
        table = loss_curve(LossSpec.l2(), np.array([-1.0, 0.0, 1.0]))
        assert table.shape == (3, 2)
        np.testing.assert_allclose(table[:, 1], [0.5, 0.0, 0.5], atol=1e-15)

    def test_gumbel_curve_at_zero(self):
        table = loss_curve(LossSpec.gumbel(), np.array([0.0]))
        assert table[0, 1] == 0.0

    def test_higher_order_tracks_exponential_closer(self):
        grid = np.linspace(-2.0, 2.0, 401)
        reference = gumbel_loss(grid, 1.0)
        dev4 = np.max(np.abs(loss_curve(LossSpec.expanded(4), grid)[:, 1] - reference))
        dev8 = np.max(np.abs(loss_curve(LossSpec.expanded(8), grid)[:, 1] - reference))
        assert dev8 < dev4

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            loss_curve(LossSpec.gumbel(), np.array([]))
