"""End-to-end acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line;
run ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  The shared fixture for criterion 4 performs the full default
regression grid (9 cells, 100 repeats each) once.

Criterion 4c asserts that the order-4 truncated loss never diverges in the
strongly mismatched cell.  Plain SGD at the default step size provably
escapes there (the cubic gradient amplifies the estimate without bound, see
notes in the repository), so that check fails; it is kept as stated rather
than weakened.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from gumbelkit.cli import main as cli_main
from gumbelkit.distributions import GumbelParams, implied_error_density, sample_gumbel
from gumbelkit.losses import LossSpec, loss_grads, loss_values
from gumbelkit.mdp import behavior_value, generate_dataset, soft_value, zoo
from gumbelkit.regression import (
    RegressionConfig,
    full_batch_descent,
    generate_data,
    run_cell,
    run_experiment,
    target_value,
)
from gumbelkit.rng import stream
from gumbelkit.value_fitting import TrainConfig, train, train_many

ACCEPTANCE_SEED = 2024
EULER_MASCHERONI = 0.5772156649015329
GUMBEL_STD = 1.2825498301618641  # pi / sqrt(6)

ZOO_SIZES = {"bandit1": 400, "chain3": 1200, "risky5": 2000}


def _report(num: str, label: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:>3}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _sweep_config(order: int, beta: float) -> TrainConfig:
    return TrainConfig(
        loss=LossSpec.expanded(order, beta=beta),
        v_steps=50,
        lr_v=0.01 * beta * beta,
        outer_iterations=800,
        tolerance=1e-9,
    )


def test_criterion_1_order_two_is_the_scaled_square():
    start = time.time()
    residuals = np.linspace(-5.0, 5.0, 10_000)
    worst = 0.0
    for beta in (0.5, 1.0, 2.0, 10.0):
        got = loss_values(LossSpec.expanded(2, beta), residuals)
        expected = residuals**2 / (2.0 * beta * beta)
        worst = max(worst, float(np.max(np.abs(got - expected))))
    elapsed = time.time() - start
    _report("1", "order-2 loss equals residual^2 / (2 beta^2) within 1e-12",
            worst <= 1e-12 and elapsed < 1.0, f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_taylor_remainder_bound_and_shrink():
    start = time.time()
    zs = np.linspace(-2.0, 2.0, 801)
    reference = loss_values(LossSpec.gumbel(), zs)
    slack = 8 * np.finfo(float).eps * np.maximum(1.0, np.abs(reference))
    max_devs = []
    bound_ok = True
    for order in (2, 4, 8, 12, 16):
        diff = np.abs(loss_values(LossSpec.expanded(order), zs) - reference)
        bound = np.abs(zs) ** (order + 1) * np.exp(np.abs(zs)) / math.factorial(order + 1)
        bound_ok = bound_ok and bool(np.all(diff <= bound + slack))
        max_devs.append(float(diff.max()))
    shrinking = all(a > b for a, b in zip(max_devs, max_devs[1:]))
    elapsed = time.time() - start
    _report("2", "remainder bound holds and the deviation shrinks with order",
            bound_ok and shrinking and elapsed < 1.0,
            f"max devs {['%.1e' % d for d in max_devs]}, {elapsed:.2f}s")


def test_criterion_3_gradients_match_finite_differences():
    start = time.time()
    step = 1e-5
    residuals = np.linspace(-5.0, 5.0, 40)  # even count: excludes the flat point 0
    worst = 0.0
    for beta in (0.5, 1.0, 2.0, 10.0):
        spec = LossSpec.gumbel(beta)
        fd = (loss_values(spec, residuals - step) - loss_values(spec, residuals + step)) / (2.0 * step)
        analytic = loss_grads(spec, residuals)
        worst = max(worst, float(np.max(np.abs(analytic - fd) / np.maximum(np.abs(analytic), np.abs(fd)))))
        for order in (2, 4, 8, 20):
            spec_n = LossSpec.expanded(order, beta)
            fd_n = (loss_values(spec_n, residuals - step)
                    - loss_values(spec_n, residuals + step)) / (2.0 * step)
            analytic_n = loss_grads(spec_n, residuals)
            rel = np.abs(analytic_n - fd_n) / np.maximum(np.abs(analytic_n), np.abs(fd_n))
            worst = max(worst, float(np.max(rel)))
    elapsed = time.time() - start
    _report("3", "analytic gradients match central differences within 1e-6",
            worst < 1e-6 and elapsed < 5.0, f"worst rel err {worst:.2e}, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def default_gumbel_grid():
    base = RegressionConfig(
        beta_data=1.0, beta_reg=1.0, loss=LossSpec.gumbel(), master_seed=ACCEPTANCE_SEED
    )
    start = time.time()
    cells = run_experiment(base)
    return {(t.config.beta_data, t.config.beta_reg): t for t in cells}, time.time() - start


def test_criterion_4a_matched_cells_improve(default_gumbel_grid):
    cells, elapsed = default_gumbel_grid
    details = []
    ok = elapsed < 120.0
    for beta in (0.5, 2.0, 10.0):
        trace = cells[(beta, beta)]
        first, last = trace.mean_abs_error[0], trace.mean_abs_error[-1]
        details.append(f"beta {beta}: {first:.3f}->{last:.3f}")
        ok = ok and trace.diverged_count == 0 and last < first
    _report("4a", "matched-scale error at update 2000 sits below update 10",
            ok, "; ".join(details) + f"; grid {elapsed:.0f}s")


def test_criterion_4b_mismatched_exponential_collapses(default_gumbel_grid):
    cells, _ = default_gumbel_grid
    trace = cells[(10.0, 0.5)]
    _report("4b", "raw exponential loss diverges in >= 90 of 100 mismatched repeats",
            trace.diverged_count >= 90, f"{trace.diverged_count}/100 diverged")


def test_criterion_4c_order_four_survives_the_same_cell():
    config = RegressionConfig(
        beta_data=10.0, beta_reg=0.5, loss=LossSpec.expanded(4, beta=0.5),
        master_seed=ACCEPTANCE_SEED,
    )
    trace = run_cell(config)
    finite_final = trace.mean_abs_error is not None and np.isfinite(trace.mean_abs_error[-1])
    _report("4c", "order-4 truncation diverges in 0 of 100 mismatched repeats",
            trace.diverged_count == 0 and finite_final, f"{trace.diverged_count}/100 diverged")


def test_criterion_5_full_batch_descent_recovers_the_minimizer():
    start = time.time()
    data = generate_data(2.0, 10_000, stream(ACCEPTANCE_SEED, 500))
    spec = LossSpec.gumbel(beta=2.0)
    h = full_batch_descent(data, spec, lr=0.02, updates=50_000, init_h=1.0)
    gap = abs(h - target_value(data, 2.0))
    elapsed = time.time() - start
    _report("5", "matched full-batch descent reaches the log-partition minimizer within 1e-4",
            gap < 1e-4 and elapsed < 30.0, f"gap {gap:.2e}, {elapsed:.1f}s")


def test_criterion_6_density_suite():
    start = time.time()
    ok = True
    details = []

    wide = np.linspace(-10.0, 10.0, 20_001)
    reference = np.exp(wide - np.exp(wide))
    distances = []
    for order in (2, 4, 8, 12, 16):
        curve = implied_error_density(LossSpec.expanded(order), wide)
        ok = ok and abs(curve.trapezoid_integral() - 1.0) < 1e-6
        distances.append(float(np.max(np.abs(curve.density - reference))))
    ok = ok and all(a > b for a, b in zip(distances, distances[1:]))
    details.append(f"distances {['%.1e' % d for d in distances]}")

    for beta in (1.0, 2.0):
        grid = np.linspace(-12.0 * beta, 12.0 * beta, 20_001)
        curve = implied_error_density(LossSpec.expanded(2, beta=beta), grid)
        dev = float(np.max(np.abs(curve.density - sps.norm.pdf(grid, scale=beta))))
        ok = ok and dev < 1e-8 and abs(curve.trapezoid_integral() - 1.0) < 1e-6

    gumbel_grid = np.linspace(-32.0, 10.0, 20_001)
    curve = implied_error_density(LossSpec.gumbel(), gumbel_grid)
    dev = float(np.max(np.abs(curve.density - np.exp(gumbel_grid - np.exp(gumbel_grid)))))
    ok = ok and dev < 1e-8 and abs(curve.trapezoid_integral() - 1.0) < 1e-6
    details.append(f"gumbel curve dev {dev:.1e}")

    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    _report("6", "implied densities normalize, match closed forms, approach the gumbel shape",
            ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_7_value_fitting_endpoints():
    start = time.time()
    ok = True
    details = []
    for name in ("bandit1", "chain3", "risky5"):
        mdp = zoo(name)
        data = generate_dataset(mdp, "exhaustive", ZOO_SIZES[name])
        v_mu = behavior_value(mdp)
        v_star, _ = soft_value(mdp, beta=1.0)

        squared = TrainConfig(
            loss=LossSpec.expanded(2, beta=1.0), v_mode="closed_form_n2",
            outer_iterations=2000, tolerance=1e-12,
        )
        out2 = train(mdp, data, squared)
        gap2 = float(np.max(np.abs(out2.v - v_mu)))
        ok = ok and out2.converged and gap2 < 1e-6

        gaps = []
        for out in train_many(mdp, data, [_sweep_config(order, 1.0) for order in (4, 8, 12, 20)]):
            ok = ok and out.converged and not out.diverged
            gaps.append(float(np.max(np.abs(out.v - v_star))))
        ok = ok and all(a >= b for a, b in zip(gaps, gaps[1:])) and gaps[-1] < 1e-2
        details.append(f"{name}: n2 gap {gap2:.1e}, n20 gap {gaps[-1]:.1e}")
    elapsed = time.time() - start
    ok = ok and elapsed < 30.0
    _report("7", "order 2 recovers the behavior value; the sweep closes on the soft value",
            ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_8_values_ordered_between_the_oracles():
    start = time.time()
    ok = True
    worst_low, worst_high = 0.0, 0.0
    for name in ("bandit1", "chain3", "risky5"):
        mdp = zoo(name)
        data = generate_dataset(mdp, "exhaustive", ZOO_SIZES[name])
        v_mu = behavior_value(mdp)
        for beta in (0.5, 1.0, 2.0):
            v_star, _ = soft_value(mdp, beta=beta)
            sweep = [_sweep_config(order, beta) for order in (2, 4, 8, 12, 20)]
            for out in train_many(mdp, data, sweep):
                ok = ok and out.converged and not out.diverged
                worst_low = max(worst_low, float(np.max(v_mu - out.v)))
                worst_high = max(worst_high, float(np.max(out.v - v_star)))
    ok = ok and worst_low <= 1e-4 and worst_high <= 1e-4
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    _report("8", "fitted values sit between behavior and soft oracles within 1e-4",
            ok, f"below by {worst_low:.1e}, above by {worst_high:.1e}, {elapsed:.0f}s")


def test_criterion_9_sampler_calibration():
    start = time.time()
    draws = sample_gumbel(GumbelParams(), stream(ACCEPTANCE_SEED, 900), size=1_000_000)
    mean_gap = abs(float(draws.mean()) - EULER_MASCHERONI)
    std_gap = abs(float(draws.std(ddof=1)) - GUMBEL_STD)
    elapsed = time.time() - start
    _report("9", "a million draws calibrate to the known mean and spread within 0.02",
            mean_gap < 0.02 and std_gap < 0.02 and elapsed < 5.0,
            f"mean gap {mean_gap:.4f}, std gap {std_gap:.4f}, {elapsed:.1f}s")


def test_criterion_10_byte_identical_reruns(tmp_path):
    pairs = []
    regress_args = ["regress", "--betas", "0.5,2", "--repeats", "5", "--data-size", "500",
                    "--seed", "77"]
    train_args = ["mdp-train", "--mdp", "bandit1", "--orders", "2,8", "--seed", "77"]
    curve_args = ["loss-curve", "--seed", "77"]
    for label, args in (("regress", regress_args), ("mdp-train", train_args),
                        ("loss-curve", curve_args)):
        out_a = tmp_path / f"{label}_a.csv"
        out_b = tmp_path / f"{label}_b.csv"
        assert cli_main([*args, "--out", str(out_a)]) == 0
        assert cli_main([*args, "--out", str(out_b)]) == 0
        pairs.append((label, out_a.read_bytes() == out_b.read_bytes()))
    ok = all(same for _, same in pairs)
    _report("10", "same seed reruns produce byte-identical CSV",
            ok, ", ".join(f"{label}: {'same' if same else 'DIFFERENT'}" for label, same in pairs))
