"""Toolkit for bipartite quantum correlations and their finite-dimensional limits.

Builds and analyzes correlations p(a, b | x, y): tilted-CHSH building blocks,
a family of strategies on truncated sequence spaces whose exact correlation
is available in closed form, Schmidt-spectrum certificates for the dimension
such strategies require, and a see-saw search for the best fixed-dimension
approximation.

The package exports every name in the ``__all__`` of its six library modules.
"""

from . import analysis, correlation, seesaw, separating, strategy, tilted_chsh
from .analysis import *  # noqa: F403
from .correlation import *  # noqa: F403
from .seesaw import *  # noqa: F403
from .separating import *  # noqa: F403
from .strategy import *  # noqa: F403
from .tilted_chsh import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (correlation, strategy, tilted_chsh, separating, analysis, seesaw)
    for name in module.__all__
] + ["__version__"]
