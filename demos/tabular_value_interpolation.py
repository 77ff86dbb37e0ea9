"""Sweeping the truncation order moves the fitted value between two oracles.

On a finite MDP with offline data gathered under a behavior policy, fitting
state values with the squared loss (order 2) reproduces the behavior value,
the on-policy fixed point.  Fitting with the exponential loss reproduces the
soft optimal value, the temperature-weighted log-partition over in-dataset
actions.  Even truncation orders in between interpolate, trading optimality
against the stability the low orders buy.

Run:  python demos/tabular_value_interpolation.py
"""

import numpy as np

from gumbelkit import (
    LossSpec,
    TrainConfig,
    behavior_value,
    generate_dataset,
    soft_value,
    train_many,
    zoo,
)

BETA = 1.0
mdp = zoo("risky5")
dataset = generate_dataset(mdp, "exhaustive", 2000)
v_mu = behavior_value(mdp)
v_soft, _ = soft_value(mdp, beta=BETA)

print(f"MDP {mdp.name}: {mdp.num_states} states, {mdp.num_actions} actions, gamma {mdp.gamma}")
print(f"behavior value   {np.array2string(v_mu, precision=4)}")
print(f"soft value       {np.array2string(v_soft, precision=4)}  (temperature {BETA})")
print()

print(f"{'order':>6} {'fitted V (state 0..4)':^46} {'gap to soft':>12}")
orders = (2, 4, 8, 12, 20)
specs = [LossSpec.expanded(order, beta=BETA) for order in orders] + [LossSpec.gumbel(beta=BETA)]
configs = [
    TrainConfig(loss=spec, v_steps=50, lr_v=0.01 * BETA * BETA, outer_iterations=800,
                tolerance=1e-9)
    for spec in specs
]
# one stacked fit of all six losses; each row comes out as if fitted alone
for label, out in zip([*orders, "exp"], train_many(mdp, dataset, configs)):
    gap = np.max(np.abs(out.v - v_soft))
    print(f"{label:>6} {np.array2string(out.v, precision=4):^46} {gap:>12.2e}")
print()
print("order 2 sits on the behavior value, the exponential loss on the soft")
print("value, and the sweep climbs monotonically from one to the other.")
