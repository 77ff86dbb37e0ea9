import math

import numpy as np
import pytest
from scipy import integrate, stats

from gumbelkit.distributions import (
    DensityCurve,
    GumbelParams,
    SupportNotCoveredError,
    gumbel_pdf,
    gumbel_quantile,
    implied_error_density,
    sample_gumbel,
)
from gumbelkit.losses import LossSpec
from gumbelkit.rng import stream

EULER_MASCHERONI = 0.5772156649015329


class TestSampling:
    def test_quantile_at_half(self):
        assert gumbel_quantile(0.5, GumbelParams()) == pytest.approx(-math.log(math.log(2.0)), rel=1e-12)

    def test_quantile_rejects_endpoints(self):
        with pytest.raises(ValueError):
            gumbel_quantile(0.0, GumbelParams())
        with pytest.raises(ValueError):
            gumbel_quantile(1.0, GumbelParams())

    def test_quantile_rejects_nan(self):
        for u in (math.nan, [0.5, math.nan]):
            with pytest.raises(ValueError, match=r"^u must lie strictly inside \(0, 1\)$"):
                gumbel_quantile(u, GumbelParams())

    def test_negated_flips_centered_draw(self):
        p = GumbelParams(location=3.0, scale=2.0)
        n = GumbelParams(location=3.0, scale=2.0, negated=True)
        assert gumbel_quantile(0.3, p) - 3.0 == pytest.approx(-(gumbel_quantile(0.3, n) - 3.0), rel=1e-12)

    def test_monte_carlo_mean_standard(self):
        draws = sample_gumbel(GumbelParams(), stream(11, 0), size=1_000_000)
        assert abs(draws.mean() - EULER_MASCHERONI) < 0.02

    def test_monte_carlo_mean_negated_scale_two(self):
        draws = sample_gumbel(GumbelParams(scale=2.0, negated=True), stream(12, 0), size=1_000_000)
        assert abs(draws.mean() - (-2.0 * EULER_MASCHERONI)) < 0.04

    def test_identical_seed_identical_stream(self):
        a = sample_gumbel(GumbelParams(), stream(99, 3), size=1000)
        b = sample_gumbel(GumbelParams(), stream(99, 3), size=1000)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = sample_gumbel(GumbelParams(), stream(99, 3), size=1000)
        b = sample_gumbel(GumbelParams(), stream(99, 4), size=1000)
        assert not np.array_equal(a, b)

    def test_scale_validated(self):
        with pytest.raises(ValueError):
            GumbelParams(scale=0.0)


class TestPdf:
    def test_value_at_location(self):
        assert gumbel_pdf(0.0, GumbelParams()) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert gumbel_pdf(2.0, GumbelParams(location=2.0, scale=3.0)) == pytest.approx(
            math.exp(-1.0) / 3.0, rel=1e-12
        )

    def test_negated_reflects_about_location(self):
        p = GumbelParams(location=1.5, scale=0.7)
        n = GumbelParams(location=1.5, scale=0.7, negated=True)
        for t in (0.1, 0.9, 2.4):
            assert gumbel_pdf(1.5 - t, n) == pytest.approx(gumbel_pdf(1.5 + t, p), rel=1e-12)

    @pytest.mark.parametrize("params", [GumbelParams(), GumbelParams(1.0, 2.0), GumbelParams(-1.0, 0.5, True)])
    def test_integrates_to_one(self, params):
        total, _ = integrate.quad(
            lambda x: gumbel_pdf(x, params),
            params.location - 20 * params.scale,
            params.location + 20 * params.scale,
            limit=200,
        )
        assert abs(total - 1.0) < 1e-6

    def test_matches_scipy(self):
        xs = np.linspace(-5, 8, 50)
        mine = gumbel_pdf(xs, GumbelParams(location=0.5, scale=1.3))
        ref = stats.gumbel_r.pdf(xs, loc=0.5, scale=1.3)
        np.testing.assert_allclose(mine, ref, rtol=1e-12)


class TestImpliedDensity:
    def test_squared_loss_gives_standard_normal(self):
        grid = np.linspace(-10.0, 10.0, 4001)
        curve = implied_error_density(LossSpec.l2(), grid)
        at_zero = curve.density[np.argmin(np.abs(grid))]
        assert at_zero == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-8)

    @pytest.mark.parametrize("beta", (1.0, 2.0))
    def test_order_two_is_normal_with_std_beta(self, beta):
        grid = np.linspace(-12.0 * beta, 12.0 * beta, 4001)
        curve = implied_error_density(LossSpec.expanded(2, beta=beta), grid)
        np.testing.assert_allclose(curve.density, stats.norm.pdf(grid, scale=beta), atol=1e-8)

    def test_gumbel_density_closed_form(self):
        grid = np.linspace(-32.0, 10.0, 4001)
        curve = implied_error_density(LossSpec.gumbel(), grid)
        assert curve.normalizer == pytest.approx(math.e, abs=1e-8)
        np.testing.assert_allclose(curve.density, np.exp(grid - np.exp(grid)), atol=1e-8)

    @pytest.mark.parametrize(
        "spec",
        [
            LossSpec.expanded(2),
            LossSpec.expanded(8),
            LossSpec.expanded(16),
            LossSpec.l2(beta=2.0),
            LossSpec.expectile(0.7),
        ],
    )
    def test_trapezoid_integral_is_one(self, spec):
        grid = np.linspace(-20.0, 20.0, 20_001)
        assert abs(implied_error_density(spec, grid).trapezoid_integral() - 1.0) < 1e-6

    def test_distance_to_gumbel_shape_decreases_with_order(self):
        grid = np.linspace(-10.0, 10.0, 4001)
        reference = np.exp(grid - np.exp(grid))
        distances = []
        for order in (2, 4, 8, 12, 16):
            curve = implied_error_density(LossSpec.expanded(order), grid)
            distances.append(float(np.max(np.abs(curve.density - reference))))
        assert all(a > b for a, b in zip(distances, distances[1:]))

    def test_narrow_grid_rejected(self):
        with pytest.raises(SupportNotCoveredError):
            implied_error_density(LossSpec.gumbel(), np.linspace(-10.0, 10.0, 1001))

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            implied_error_density(LossSpec.l2(), np.array([0.0, -1.0, 1.0]))

    def test_curve_rows_roundtrip(self):
        grid = np.linspace(-10.0, 10.0, 101)
        curve = implied_error_density(LossSpec.l2(), grid)
        rows = list(curve.rows())
        assert len(rows) == 101
        assert rows[0][0] == -10.0

    def test_density_curve_validators_leave_fields_alone(self):
        grid = np.linspace(-1, 1, 11)
        curve = DensityCurve(grid=grid, density=np.ones(11) / 2.0, normalizer=2.0)
        assert curve.trapezoid_integral() == pytest.approx(1.0)
