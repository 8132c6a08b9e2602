"""The scaled complementary error function of the closed heat traces.

Pure Python over the math module, so that importing the package stays
cheap: every CLI call is a fresh interpreter.
"""

import math

# Below this x, erfc(x) is a normal float; from here the asymptotic series
# needs at most 8 terms for full double precision.
_ASYMPTOTIC_FROM = 26.0
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant


def erfc_scaled(x):
    """exp(x^2) * erfc(x) for x >= 0.

    The scaled form stays O(1/x) for large x, where exp(x^2) alone would
    overflow; heat traces multiply exactly this combination.  Below x = 26
    it is exp(p) (1 + q) erfc(x) with x^2 = p + q exactly (Veltkamp's
    split; Dekker, Numer. Math. 18, 224 (1971)), so the rounding of x^2
    is not amplified by exp.  From x = 26 up it is the asymptotic series
    (DLMF 7.12.1).
    """
    if not (isinstance(x, (int, float)) and math.isfinite(x)) or x < 0:
        raise ValueError(f"erfc_scaled requires finite x >= 0, got {x!r}")
    if x < _ASYMPTOTIC_FROM:
        c = _SPLIT * x
        hi = c - (c - x)
        lo = x - hi
        p = x * x
        q = ((hi * hi - p) + 2.0 * hi * lo) + lo * lo
        return math.exp(p) * (1.0 + q) * math.erfc(x)
    r = 0.5 / (x * x)
    total = term = 1.0
    m = 1
    while abs(term) > 1e-17:
        term *= -(2 * m - 1) * r
        total += term
        m += 1
    return total / math.sqrt(math.pi) / x
