"""Meromorphic function classes on the punctured unit disc.

Truncated Laurent series with a simple pole at the origin, membership
checks for four related classes, the catalog of sharpness functions, and
seedable verification suites over the numbered results.

Each library module's `__all__` is its public API; the package exports the
union of them, so a public name is declared in exactly one place.
"""

from . import classes, convolution, extremal, harness, partial_sums, reporting, series, tme, tolerances
from .classes import *  # noqa: F403
from .convolution import *  # noqa: F403
from .extremal import *  # noqa: F403
from .harness import *  # noqa: F403
from .partial_sums import *  # noqa: F403
from .reporting import *  # noqa: F403
from .series import *  # noqa: F403
from .tme import *  # noqa: F403
from .tolerances import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (classes, convolution, extremal, harness, partial_sums, reporting, series, tme, tolerances)
    for name in module.__all__
] + ["__version__"]
