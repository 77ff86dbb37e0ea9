"""How the exponential regression loss compares with its series truncations.

The exponential loss e**z - z - 1 punishes under-prediction (positive scaled
residual z) exponentially and over-prediction only linearly.  Truncating its
series at an even order keeps the curve nonnegative and convex but tames the
right side: the gradient grows polynomially instead of exponentially, which
is what keeps fitting stable when residuals run large.

Run:  python demos/loss_landscapes.py
"""

import numpy as np

from gumbelkit import LossSpec, loss_curve, loss_grads, loss_values

grid = np.linspace(-3.0, 3.0, 13)

print("loss values at beta = 1 (z = residual)")
header = f"{'z':>6} {'gumbel':>12} {'n=2':>12} {'n=4':>12} {'n=8':>12}"
print(header)
print("-" * len(header))
curves = {
    "gumbel": loss_curve(LossSpec.gumbel(), grid)[:, 1],
    "n2": loss_curve(LossSpec.expanded(2), grid)[:, 1],
    "n4": loss_curve(LossSpec.expanded(4), grid)[:, 1],
    "n8": loss_curve(LossSpec.expanded(8), grid)[:, 1],
}
for i, z in enumerate(grid):
    print(f"{z:>6.2f} {curves['gumbel'][i]:>12.5f} {curves['n2'][i]:>12.5f} "
          f"{curves['n4'][i]:>12.5f} {curves['n8'][i]:>12.5f}")

print()
print("gradient magnitude on the steep side (z = 3):")
print(f"  exponential: {abs(loss_grads(LossSpec.gumbel(), 3.0)):.3f}")
for order in (2, 4, 8):
    print(f"  order {order:>2}:    {abs(loss_grads(LossSpec.expanded(order), 3.0)):.3f}")

print()
print("largest deviation from the exponential loss on [-2, 2]:")
dense = np.linspace(-2.0, 2.0, 801)
reference = loss_values(LossSpec.gumbel(), dense)
for order in (2, 4, 8, 12, 16):
    dev = np.max(np.abs(loss_curve(LossSpec.expanded(order), dense)[:, 1] - reference))
    print(f"  order {order:>2}: {dev:.3e}")
print("deviation shrinks factorially with the order, so a handful of terms")
print("already shadows the exponential loss over the residuals that matter.")
