"""Finite tabular MDPs, offline datasets, and exact value oracles.

Two oracles anchor every experiment: the behavior value (policy evaluation
solved as a linear system) and the soft optimal value (temperature-weighted
log-partition over the behavior policy, found by fixed-point iteration).
Both are exact up to tight numerical tolerances, so learned tables can be
compared against them directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "TabularMdp",
    "OfflineDataset",
    "DatasetCounts",
    "behavior_value",
    "soft_value",
    "generate_dataset",
    "zoo",
    "zoo_names",
    "load_mdp",
    "save_mdp",
]

_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class TabularMdp:
    """Finite MDP with a behavior policy.

    transition       (S, A, S) stochastic tensor, rows sum to one
    reward           (S, A) table
    gamma            discount in [0, 1)
    behavior_policy  (S, A) stochastic table, rows sum to one
    """

    transition: np.ndarray
    reward: np.ndarray
    gamma: float
    behavior_policy: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        transition = np.asarray(self.transition, dtype=float)
        reward = np.asarray(self.reward, dtype=float)
        policy = np.asarray(self.behavior_policy, dtype=float)
        if transition.ndim != 3 or transition.shape[0] != transition.shape[2]:
            raise ValueError(f"transition must be (S, A, S), got {transition.shape}")
        s, a, _ = transition.shape
        if reward.shape != (s, a):
            raise ValueError(f"reward must be (S, A) = {(s, a)}, got {reward.shape}")
        if policy.shape != (s, a):
            raise ValueError(f"behavior_policy must be (S, A) = {(s, a)}, got {policy.shape}")
        for name, arr in (("transition", transition), ("reward", reward), ("behavior_policy", policy)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} entries must be finite")
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        if np.any(transition < 0) or np.any(np.abs(transition.sum(axis=2) - 1.0) > _ROW_SUM_TOL):
            raise ValueError("transition rows must be nonnegative and sum to 1")
        if np.any(policy < 0) or np.any(np.abs(policy.sum(axis=1) - 1.0) > _ROW_SUM_TOL):
            raise ValueError("behavior_policy rows must be nonnegative and sum to 1")
        for arr in (transition, reward, policy):
            arr.setflags(write=False)
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "reward", reward)
        object.__setattr__(self, "behavior_policy", policy)

    @property
    def num_states(self) -> int:
        return self.transition.shape[0]

    @property
    def num_actions(self) -> int:
        return self.transition.shape[1]


@dataclass(frozen=True)
class DatasetCounts:
    """What the value fits read of a dataset: counts and mean rewards per cell.

    visits         (S, A, S) number of rows per (s, a, s') cell
    mean_reward    (S, A, S) mean reward of each cell's rows, 0 where a cell is empty
    reward_sq_dev  sum over rows of (r - mean reward of the row's cell)**2
    """

    visits: np.ndarray
    mean_reward: np.ndarray
    reward_sq_dev: float

    # derived once per summary and shared by every step of a fit, so read-only

    @cached_property
    def pair_counts(self) -> np.ndarray:
        """(S, A) visit counts."""
        return _read_only(self.visits.sum(axis=2))

    @cached_property
    def observed(self) -> np.ndarray:
        """(S, A) mask of the pairs with at least one row."""
        return _read_only(self.pair_counts > 0)

    @cached_property
    def pair_states(self) -> np.ndarray:
        """State of each observed pair, in row-major pair order."""
        return _read_only(np.nonzero(self.observed)[0])

    @cached_property
    def pair_weights(self) -> np.ndarray:
        """Each observed pair's share of the rows of its state."""
        state_counts = self.pair_counts.sum(axis=1)
        return _read_only(self.pair_counts[self.observed] / state_counts[self.pair_states])


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class OfflineDataset:
    """Transitions (s, a, r, s') as parallel arrays; multiplicity is implicit."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.states)
        if not (len(self.actions) == len(self.rewards) == len(self.next_states) == n):
            raise ValueError("dataset arrays must share one length")
        if n == 0:
            raise ValueError("dataset must be nonempty")

    def __len__(self) -> int:
        return len(self.states)

    def counts(self, num_states: int, num_actions: int) -> DatasetCounts:
        """Reduce the rows to per-(s, a, s') counts for an MDP of the given shape.

        Raises ValueError when a state or action lies outside that shape.
        """
        shape = (num_states, num_actions, num_states)
        cells = np.ravel_multi_index((self.states, self.actions, self.next_states), shape)
        size = num_states * num_actions * num_states
        visits = np.bincount(cells, minlength=size).astype(float)
        sums = np.bincount(cells, weights=self.rewards, minlength=size)
        mean = sums / np.maximum(visits, 1.0)
        sq_dev = float(np.sum((self.rewards - mean[cells]) ** 2))
        return DatasetCounts(visits.reshape(shape), mean.reshape(shape), sq_dev)


def behavior_value(mdp: TabularMdp) -> np.ndarray:
    """Exact policy evaluation: solve V = r_mu + gamma P_mu V."""
    mu = mdp.behavior_policy
    p_mu = np.einsum("sa,sat->st", mu, mdp.transition)
    r_mu = np.einsum("sa,sa->s", mu, mdp.reward)
    eye = np.eye(mdp.num_states)
    return np.linalg.solve(eye - mdp.gamma * p_mu, r_mu)


def _soft_backup(mdp: TabularMdp, q: np.ndarray, beta: float) -> np.ndarray:
    """V(s) = beta * log sum_a mu(a|s) exp(Q(s,a) / beta), max-shifted."""
    mu = mdp.behavior_policy
    scaled = q / beta
    masked = np.where(mu > 0, scaled, -np.inf)
    m = masked.max(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        inner = np.sum(mu * np.exp(np.where(mu > 0, scaled - m, 0.0)) * (mu > 0), axis=1)
    return beta * (m[:, 0] + np.log(inner))


def soft_value(
    mdp: TabularMdp, beta: float, tol: float = 1e-10, max_iterations: int = 1_000_000
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed point of Q = r + gamma P V, V = soft backup of Q at temperature beta.

    The composed operator is a gamma-contraction, so iteration converges for
    any gamma < 1; stops when the max change over V and Q falls below tol.
    """
    if not (beta > 0 and math.isfinite(beta)):
        raise ValueError(f"beta must be a positive finite real, got {beta}")
    v = np.zeros(mdp.num_states)
    q = np.zeros((mdp.num_states, mdp.num_actions))
    for _ in range(max_iterations):
        q_new = mdp.reward + mdp.gamma * np.einsum("sat,t->sa", mdp.transition, v)
        v_new = _soft_backup(mdp, q_new, beta)
        change = max(float(np.max(np.abs(v_new - v))), float(np.max(np.abs(q_new - q))))
        v, q = v_new, q_new
        if change < tol:
            return v, q
    raise RuntimeError(f"soft_value did not reach tol {tol} in {max_iterations} iterations")


def generate_dataset(
    mdp: TabularMdp,
    mode: str,
    size: int,
    rng: np.random.Generator | None = None,
) -> OfflineDataset:
    """Offline transitions gathered under the behavior policy.

    ``exhaustive`` enumerates every (s, a, s') cell with multiplicity
    proportional to uniform(s) * mu(a|s) * P(s'|s,a), quantized to the
    requested size by largest remainder; it errs if the size cannot give
    every positive-probability cell at least one row.  ``rollout`` simulates
    one trajectory of ``size`` steps from state 0 and needs an rng.
    """
    if size <= 0:
        raise ValueError(f"dataset size must be positive, got {size}")
    if mode == "exhaustive":
        states, actions, next_states = _exhaustive_rows(mdp, size)
    elif mode == "rollout":
        if rng is None:
            raise ValueError("rollout mode requires an rng")
        states, actions, next_states = _rollout_rows(mdp, size, rng)
    else:
        raise ValueError(f"mode must be 'exhaustive' or 'rollout', got {mode!r}")
    return OfflineDataset(states, actions, mdp.reward[states, actions], next_states)


def _exhaustive_rows(mdp: TabularMdp, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    s_count, a_count = mdp.num_states, mdp.num_actions
    weights = (mdp.behavior_policy[:, :, None] * mdp.transition) / s_count
    flat = weights.reshape(-1)
    support = flat > 0
    raw = flat * size
    counts = np.floor(raw).astype(int)
    remainder = size - counts.sum()
    if remainder > 0:
        # largest fractional parts first; ties resolved by cell index
        frac = raw - counts
        order = np.lexsort((np.arange(flat.size), -frac))
        counts[order[:remainder]] += 1
    if np.any(counts[support] == 0):
        needed = int(math.ceil(1.0 / flat[support].min()))
        raise ValueError(
            f"size {size} too small to cover the dataset support; "
            f"need at least about {needed} rows"
        )
    idx = np.repeat(np.arange(flat.size), counts)
    states, rest = np.divmod(idx, a_count * s_count)
    actions, next_states = np.divmod(rest, s_count)
    return states, actions, next_states


def _rollout_rows(
    mdp: TabularMdp, steps: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    states = np.empty(steps, dtype=int)
    actions = np.empty(steps, dtype=int)
    next_states = np.empty(steps, dtype=int)
    s = 0
    action_ids = np.arange(mdp.num_actions)
    state_ids = np.arange(mdp.num_states)
    for t in range(steps):
        a = rng.choice(action_ids, p=mdp.behavior_policy[s])
        ns = rng.choice(state_ids, p=mdp.transition[s, a])
        states[t], actions[t], next_states[t] = s, a, ns
        s = ns
    return states, actions, next_states


def _bandit1() -> TabularMdp:
    # one state, two self-loop actions with different rewards
    transition = np.ones((1, 2, 1))
    reward = np.array([[0.0, 1.0]])
    policy = np.array([[0.5, 0.5]])
    return TabularMdp(transition, reward, gamma=0.5, behavior_policy=policy, name="bandit1")


def _chain3() -> TabularMdp:
    # three states in a line; action 0 drifts left, action 1 drifts right
    transition = np.zeros((3, 2, 3))
    for s in range(3):
        left = max(s - 1, 0)
        right = min(s + 1, 2)
        transition[s, 0, left] += 0.8
        transition[s, 0, s] += 0.2
        transition[s, 1, right] += 0.8
        transition[s, 1, s] += 0.2
    reward = np.array([[0.0, 0.1], [0.1, 0.4], [0.2, 1.0]])
    policy = np.full((3, 2), 0.5)
    return TabularMdp(transition, reward, gamma=0.8, behavior_policy=policy, name="chain3")


def _risky5() -> TabularMdp:
    # five states on a ring; the risky action pays well but the behavior
    # policy rarely takes it, so the soft optimum sits well above the
    # behavior value
    s_count, a_count = 5, 2
    transition = np.zeros((s_count, a_count, s_count))
    reward = np.zeros((s_count, a_count))
    for s in range(s_count):
        ahead = (s + 1) % s_count
        behind = (s - 1) % s_count
        transition[s, 0, s] += 0.6          # safe: mostly stay
        transition[s, 0, behind] += 0.4
        transition[s, 1, ahead] += 0.9      # risky: move on
        transition[s, 1, s] += 0.1
        reward[s, 0] = 0.1
        reward[s, 1] = 1.0 if s in (1, 3) else 0.5
    policy = np.tile(np.array([0.8, 0.2]), (s_count, 1))
    return TabularMdp(transition, reward, gamma=0.8, behavior_policy=policy, name="risky5")


_ZOO = {"bandit1": _bandit1, "chain3": _chain3, "risky5": _risky5}


def zoo_names() -> tuple[str, ...]:
    return tuple(sorted(_ZOO))


def zoo(name: str) -> TabularMdp:
    """Built-in MDPs used by the exact-oracle test suite."""
    try:
        return _ZOO[name]()
    except KeyError:
        raise KeyError(f"unknown zoo MDP {name!r}, available: {', '.join(zoo_names())}") from None


def save_mdp(mdp: TabularMdp, path) -> None:
    """Write the MDP as a JSON document with flattened tables."""
    doc = {
        "num_states": mdp.num_states,
        "num_actions": mdp.num_actions,
        "gamma": mdp.gamma,
        "transition": mdp.transition.reshape(-1).tolist(),
        "reward": mdp.reward.reshape(-1).tolist(),
        "behavior_policy": mdp.behavior_policy.reshape(-1).tolist(),
        "name": mdp.name,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_mdp(path) -> TabularMdp:
    """Read an MDP from the JSON layout written by :func:`save_mdp`."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    s, a, name = doc["num_states"], doc["num_actions"], doc.get("name", "")
    # a JSON integer, not a bool or a real such as 2.0 that int() would truncate
    if type(s) is not int or type(a) is not int:
        raise ValueError(f"num_states and num_actions must be integers, got {s!r} and {a!r}")
    if not isinstance(name, str):
        raise ValueError(f"name must be a string, got {name!r}")
    return TabularMdp(
        transition=np.asarray(doc["transition"], dtype=float).reshape(s, a, s),
        reward=np.asarray(doc["reward"], dtype=float).reshape(s, a),
        gamma=float(doc["gamma"]),
        behavior_policy=np.asarray(doc["behavior_policy"], dtype=float).reshape(s, a),
        name=name,
    )
