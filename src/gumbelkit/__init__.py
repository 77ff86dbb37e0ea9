"""Gumbel-family regression losses and exactly solvable value-learning experiments.

The package covers five things: the exponential (Gumbel) regression loss and
its series-truncated stabilizations, the error densities those losses imply,
a scalar-regression stability harness over mismatched temperature scales,
tabular in-sample value fitting whose truncation order interpolates between
the behavior value and the soft optimal value, and the Welch significance
test used to compare runs.
"""

from .distributions import (
    DensityCurve,
    GumbelParams,
    SupportNotCoveredError,
    gumbel_pdf,
    gumbel_quantile,
    implied_error_density,
    sample_gumbel,
)
from .losses import (
    LossSpec,
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
from .mdp import (
    DatasetCounts,
    OfflineDataset,
    TabularMdp,
    behavior_value,
    generate_dataset,
    load_mdp,
    save_mdp,
    soft_value,
    zoo,
    zoo_names,
)
from .regression import (
    RegressionConfig,
    RegressionTrace,
    RepeatResult,
    full_batch_descent,
    generate_data,
    run_experiment,
    run_repeat,
    target_value,
)
from .rng import stream
from .stats import (
    SampleSummary,
    TTestResult,
    regularized_incomplete_beta,
    summarize,
    t_test_from_summary,
    welch_t_test,
)
from .value_fitting import (
    DivergenceError,
    TrainConfig,
    ValueTables,
    q_step,
    train,
    train_many,
    v_step,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DensityCurve",
    "GumbelParams",
    "SupportNotCoveredError",
    "gumbel_pdf",
    "gumbel_quantile",
    "implied_error_density",
    "sample_gumbel",
    "LossSpec",
    "clipped_gumbel_loss",
    "clipped_gumbel_loss_grad",
    "expanded_gumbel_loss",
    "expanded_gumbel_loss_grad",
    "expectile_loss",
    "expectile_loss_grad",
    "gumbel_loss",
    "gumbel_loss_grad",
    "loss_curve",
    "loss_grads",
    "loss_values",
    "DatasetCounts",
    "OfflineDataset",
    "TabularMdp",
    "behavior_value",
    "generate_dataset",
    "load_mdp",
    "save_mdp",
    "soft_value",
    "zoo",
    "zoo_names",
    "RegressionConfig",
    "RegressionTrace",
    "RepeatResult",
    "full_batch_descent",
    "generate_data",
    "run_experiment",
    "run_repeat",
    "target_value",
    "stream",
    "SampleSummary",
    "TTestResult",
    "regularized_incomplete_beta",
    "summarize",
    "t_test_from_summary",
    "welch_t_test",
    "DivergenceError",
    "TrainConfig",
    "ValueTables",
    "q_step",
    "train",
    "train_many",
    "v_step",
]
