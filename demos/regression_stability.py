"""When exponential-loss regression collapses, and what truncation changes.

A scalar location is fitted by SGD to heavy-tailed samples drawn at scale
beta_data, while the loss assumes scale beta_reg.  Matched scales converge
quickly.  When the assumed scale is far below the data scale, the
exponential loss meets scaled residuals whose gradients span twenty orders
of magnitude: one bad batch catapults the estimate out of the data range and
the run never recovers.  The order-4 truncation is no refuge at this step
size; its cubic gradient feedback amplifies the estimate to literal overflow
within a few steps.  Stability at strongly mismatched scales needs either a
matched temperature or a smaller step.

Run:  python demos/regression_stability.py   (about half a minute)
"""

from gumbelkit import LossSpec, RegressionConfig, run_cell

REPEATS = 20
SEED = 314


def describe(beta_data, beta_reg, spec):
    config = RegressionConfig(
        beta_data=beta_data, beta_reg=beta_reg, loss=spec,
        repeats=REPEATS, master_seed=SEED,
    )
    trace = run_cell(config)
    name = spec.variant if spec.order is None else f"{spec.variant}(n={spec.order})"
    if trace.all_diverged:
        print(f"  data {beta_data:>4}, fit {beta_reg:>4}, {name:<22} all {REPEATS} repeats diverged")
        return
    first = trace.mean_abs_error[0]
    last = trace.mean_abs_error[-1]
    print(f"  data {beta_data:>4}, fit {beta_reg:>4}, {name:<22} "
          f"err@10 {first:>9.4f}  err@2000 {last:>9.4f}  diverged {trace.diverged_count}/{REPEATS}")


print("matched scales: fast, clean convergence")
for beta in (0.5, 2.0):
    describe(beta, beta, LossSpec.gumbel(beta=beta))

print()
print("assumed scale far above the data scale: stable but slow")
describe(0.5, 10.0, LossSpec.gumbel(beta=10.0))

print()
print("assumed scale far below the data scale: collapse")
describe(10.0, 0.5, LossSpec.gumbel(beta=0.5))
describe(10.0, 0.5, LossSpec.expanded(4, beta=0.5))
describe(10.0, 0.5, LossSpec.clipped(beta=0.5, clip=7.0))

print()
print("the clipped variant masks the blow-up by bounding the scaled residual,")
print("which is exactly why the plain loss is the right probe for stability.")
