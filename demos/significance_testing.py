"""Deciding whether two training setups really differ.

Per-repeat final errors from two regression setups are compared with the
unequal-variance (Welch) t-test, the same protocol the CLI's ``compare``
subcommand applies to result CSVs.  Replicating one setup under two seeds
shows pure noise (no significant difference), while fitting the same data
with the squared loss instead of the exponential one moves the fixed point
and the test flags it decisively.

Run:  python demos/significance_testing.py
"""

from gumbelkit import LossSpec, RegressionConfig, run_cell, welch_t_test


def final_errors(beta_data, beta_reg, spec, repeats=30, seed=555):
    config = RegressionConfig(
        beta_data=beta_data, beta_reg=beta_reg, loss=spec,
        repeats=repeats, master_seed=seed,
    )
    trace = run_cell(config)
    return trace.errors[trace.diverged_at == 0, -1], trace.diverged_count


print("matched cell (data 2, fit 2): the same setup under two independent seeds")
a, div_a = final_errors(2.0, 2.0, LossSpec.gumbel(beta=2.0), seed=555)
b, div_b = final_errors(2.0, 2.0, LossSpec.gumbel(beta=2.0), seed=556)
result = welch_t_test(a, b)
print(f"  seed 555: mean {a.mean():.4f} (n={len(a)}, diverged {div_a})")
print(f"  seed 556: mean {b.mean():.4f} (n={len(b)}, diverged {div_b})")
print(f"  Welch t = {result.t:+.3f}, dof = {result.dof:.1f}, p = {result.p:.3f}"
      f"  -> {'significant' if result.p < 0.05 else 'no significant difference'} at 0.05")

print()
print("same cell, exponential vs order 2: different fixed points")
a, div_a = final_errors(2.0, 2.0, LossSpec.gumbel(beta=2.0))
b, div_b = final_errors(2.0, 2.0, LossSpec.expanded(2, beta=2.0))
result = welch_t_test(a, b)
print(f"  exponential: mean {a.mean():.4f} (n={len(a)}, diverged {div_a})")
print(f"  order 2:     mean {b.mean():.4f} (n={len(b)}, diverged {div_b})")
print(f"  Welch t = {result.t:+.3f}, dof = {result.dof:.1f}, p = {result.p:.2e}"
      f"  -> {'significant' if result.p < 0.05 else 'no significant difference'} at 0.05")
print("  (order 2 converges to the sample mean, which sits a fixed distance")
print("   from the log-partition target the error is measured against)")

print()
print("the same arithmetic is available from summary statistics alone, which")
print("is how the CLI joins and tests two result CSVs cell by cell.")
