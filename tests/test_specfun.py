import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relspec.specfun import erfc_scaled

mpmath.mp.dps = 30


# ---------------------------------------------------------------------------
# independent oracles (kept local so they cannot share code with the library)
# ---------------------------------------------------------------------------

def erfcx_continued_fraction(x, depth=400):
    """erfcx via the classical continued fraction, valid for x >= 1."""
    tail = 0.0
    for n in range(depth, 0, -1):
        tail = (n / 2.0) / (x + tail)
    return 1.0 / (math.sqrt(math.pi) * (x + tail))


# ---------------------------------------------------------------------------
# erfc_scaled
# ---------------------------------------------------------------------------

def test_erfc_scaled_at_zero():
    assert erfc_scaled(0.0) == 1.0


def test_erfc_scaled_frozen_oracle_value():
    # continued-fraction oracle, frozen: erfcx(1) = 0.42758357615580700441
    assert erfcx_continued_fraction(1.0) == pytest.approx(
        0.42758357615580700441, abs=1e-15)
    assert erfc_scaled(1.0) == pytest.approx(0.42758357615580700441,
                                             rel=1e-12)


def test_erfc_scaled_large_x_asymptotic():
    x = 50.0
    assert erfc_scaled(x) == pytest.approx(1.0 / (x * math.sqrt(math.pi)),
                                           rel=1e-3)


def test_erfc_scaled_accuracy_against_mpmath():
    # log grid over [1e-6, 1e3], plus both sides of the switch to the
    # asymptotic series at x = 26
    grid = [10.0 ** (-6.0 + 9.0 * i / 300) for i in range(301)]
    for x in grid + [25.999999, 26.0, 26.000001]:
        mx = mpmath.mpf(x)
        exact = mpmath.erfc(mx) * mpmath.exp(mx * mx)
        assert abs(erfc_scaled(x) - exact) <= 2e-15 * exact, x


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0.0, max_value=30.0),
       st.floats(min_value=1e-6, max_value=5.0))
def test_erfc_scaled_decreasing(x, step):
    assert erfc_scaled(x) > erfc_scaled(x + step)


def test_erfc_scaled_domain():
    with pytest.raises(ValueError):
        erfc_scaled(-0.1)
    with pytest.raises(ValueError):
        erfc_scaled(math.nan)
