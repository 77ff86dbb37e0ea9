"""Gumbel-family regression losses and exactly solvable value-learning experiments.

The package covers five things: the exponential (Gumbel) regression loss and
its series-truncated stabilizations, the error densities those losses imply,
a scalar-regression stability harness over mismatched temperature scales,
tabular in-sample value fitting whose truncation order interpolates between
the behavior value and the soft optimal value, and the Welch significance
test used to compare runs.  The package exports each submodule's ``__all__``.
"""

from . import distributions, losses, mdp, regression, rng, stats, value_fitting
from .distributions import *  # noqa: F401,F403
from .losses import *  # noqa: F401,F403
from .mdp import *  # noqa: F401,F403
from .regression import *  # noqa: F401,F403
from .rng import *  # noqa: F401,F403
from .stats import *  # noqa: F401,F403
from .value_fitting import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (distributions, losses, mdp, regression, rng, stats, value_fitting)
    for name in module.__all__
]
