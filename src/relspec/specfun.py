"""Special functions used throughout the package.

The closed forms of this package need two classical special functions: the
scaled complementary error function (heat traces) and the cosine integral
(finite part of the oscillatory zeta tail).

All functions here are pure and thread safe.  The evaluations are
delegated to scipy.special, which meets the accuracy targets with large
margin; the test suite checks them against independent
series/continued-fraction oracles.
"""

import math

from scipy.special import erfcx as _erfcx
from scipy.special import sici as _sici


def erfc_scaled(x):
    """exp(x^2) * erfc(x) for x >= 0.

    The scaled form stays O(1/x) for large x, where exp(x^2) alone would
    overflow; heat traces multiply exactly this combination.
    """
    if not (isinstance(x, (int, float)) and math.isfinite(x)) or x < 0:
        raise ValueError(f"erfc_scaled requires finite x >= 0, got {x!r}")
    return float(_erfcx(x))


def cosine_integral(x):
    """Cosine integral Ci(x) = -int_x^inf cos(t)/t dt, for x > 0."""
    if not (isinstance(x, (int, float)) and math.isfinite(x)) or x <= 0:
        raise ValueError(f"cosine_integral requires finite x > 0, got {x!r}")
    _, ci_val = _sici(x)
    return float(ci_val)
