"""An exact oracle for where in-sample value fitting lands, order by order.

For an even order k the V target of state s is the root of
sum_a w_sa * L_k'((Q_sa - V_s) / beta) = 0, with w_sa the state's share of
rows per action.  L_k' is the degree-(k - 1) Taylor polynomial of e^z - 1 and
L_k'' the degree-(k - 2) one of e^z, which is positive everywhere for even k,
so the root is unique and a Newton step kept inside its bracket finds it.  The
exponential loss has the closed-form root beta * log sum_a w_sa e^(Q_sa / beta).
Alternating that V map with Q = r + gamma P V, read from the dataset's counts,
is a gamma-contraction, iterated here to 1e-13.
"""

import math

import numpy as np
import pytest

from gumbelkit.losses import LossSpec
from gumbelkit.mdp import generate_dataset, zoo
from gumbelkit.value_fitting import TrainConfig, train_many

ORDERS = (2, 4, 8, 12, 20)
ORACLE_TOL = 1e-13


def taylor_exp(z, degree):
    """sum_{j <= degree} z**j / j!, nested as 1 + z (1 + z/2 (1 + ... (1 + z/degree)))."""
    acc = np.ones_like(z)
    for j in range(degree, 0, -1):
        acc = 1.0 + z * acc / j
    return acc


def v_roots(q, w, spec, start):
    """Each state's V: the root of sum_a w_a L'((q_a - V) / beta) = 0.

    ``q`` and ``w`` are (states, actions), with zero weight on the pairs a
    state never saw; the Newton iterations start from ``start``.
    """
    seen = w > 0
    scaled = np.where(seen, q / spec.beta, 0.0)
    top = np.where(seen, scaled, -np.inf).max(axis=1)
    if spec.variant == "gumbel":
        return spec.beta * (top + np.log(np.sum(w * np.exp(scaled - top[:, None]), axis=1)))
    k = spec.order
    # g(u) = sum_a w_a L'(scaled_a - u) falls in u, from >= 0 at the state's
    # smallest scaled Q to <= 0 at its largest
    lo, hi = np.where(seen, scaled, np.inf).min(axis=1), top
    u = np.clip(start / spec.beta, lo, hi)
    for _ in range(100):
        z = scaled - u[:, None]
        g = np.sum(w * (taylor_exp(z, k - 1) - 1.0), axis=1)
        lo, hi = np.where(g > 0, u, lo), np.where(g < 0, u, hi)
        nxt = u + g / np.sum(w * taylor_exp(z, k - 2), axis=1)
        nxt = np.where((lo <= nxt) & (nxt <= hi), nxt, 0.5 * (lo + hi))
        # near the root a step may swing between neighbouring doubles
        done = np.all(np.abs(nxt - u) <= 1e-15 * (1.0 + np.abs(u)))
        u = nxt
        if done:
            break
    return spec.beta * u


def fixed_point(counts, gamma, spec, tol=ORACLE_TOL):
    """The in-sample V that alternating Q and V fits converge to under ``spec``."""
    pairs = counts.pair_counts
    seen = pairs.sum(axis=1) > 0
    weights = (pairs / np.maximum(pairs.sum(axis=1, keepdims=True), 1.0))[seen]
    v = np.zeros(len(pairs))
    for _ in range(100_000):
        q = np.sum(counts.visits * (counts.mean_reward + gamma * v), axis=2) / np.maximum(pairs, 1.0)
        v_new = v.copy()
        v_new[seen] = v_roots(q[seen], weights, spec, v[seen])
        if np.max(np.abs(v_new - v)) < tol:
            return v_new
        v = v_new
    raise AssertionError("the oracle did not reach its tolerance")


def cli_dataset(name):
    """The dataset ``mdp-train`` builds by default: exhaustive, 200 rows per pair."""
    mdp = zoo(name)
    return mdp, generate_dataset(mdp, "exhaustive", 200 * mdp.num_states * mdp.num_actions)


def specs(beta):
    return [LossSpec.expanded(n, beta=beta) for n in ORDERS] + [LossSpec.gumbel(beta=beta)]


@pytest.mark.parametrize("name", ("bandit1", "chain3", "risky5"))
def test_default_cli_fits_land_on_the_oracle(name):
    mdp, data = cli_dataset(name)
    counts = data.counts(mdp.num_states, mdp.num_actions)
    # mdp-train's defaults at beta 1
    configs = [TrainConfig(loss=spec, v_steps=150, lr_v=0.002, outer_iterations=400,
                           tolerance=1e-10) for spec in specs(1.0)]
    for config, out in zip(configs, train_many(mdp, data, configs)):
        assert out.converged, config.loss
        oracle = fixed_point(counts, mdp.gamma, config.loss)
        assert np.max(np.abs(out.v - oracle)) < 1e-8, config.loss


@pytest.mark.parametrize("beta", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("name", ("bandit1", "chain3", "risky5"))
def test_oracle_value_rises_with_order_up_to_the_exponential(name, beta):
    mdp, data = cli_dataset(name)
    counts = data.counts(mdp.num_states, mdp.num_actions)
    values = np.array([fixed_point(counts, mdp.gamma, spec) for spec in specs(beta)])
    # consecutive orders may agree to within the oracle's own tolerance
    assert np.all(np.diff(values, axis=0) >= -10 * ORACLE_TOL)
