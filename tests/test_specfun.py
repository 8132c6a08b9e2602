import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relspec.specfun import cosine_integral, erfc_scaled

EULER_GAMMA = 0.57721566490153286061

mpmath.mp.dps = 30


# ---------------------------------------------------------------------------
# independent oracles (kept local so they cannot share code with the library)
# ---------------------------------------------------------------------------

def ci_series(x):
    """Power series Ci(x) = gamma + log x + sum (-x^2)^k / (2k (2k)!)."""
    total = 0.0
    term = 1.0
    for k in range(1, 60):
        term *= -x * x / ((2 * k) * (2 * k - 1))
        contrib = term / (2 * k)
        total += contrib
        if abs(contrib) < 1e-20:
            break
    return EULER_GAMMA + math.log(x) + total


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
    for x in (1e-6, 0.03, 0.7, 1.0, 3.0, 12.0, 30.0, 200.0):
        exact = float(mpmath.erfc(x) * mpmath.exp(mpmath.mpf(x) ** 2))
        assert erfc_scaled(x) == pytest.approx(exact, rel=1e-12)


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


# ---------------------------------------------------------------------------
# cosine_integral
# ---------------------------------------------------------------------------

def test_cosine_integral_frozen_series_values():
    # power-series oracle, frozen to the digits it produces
    assert ci_series(1.0) == pytest.approx(0.33740392290096813466, abs=1e-15)
    assert ci_series(2.0) == pytest.approx(0.42298082877486499570, abs=1e-15)
    assert cosine_integral(1.0) == pytest.approx(0.33740392290096813466,
                                                 abs=1e-12)
    assert cosine_integral(2.0) == pytest.approx(0.42298082877486499570,
                                                 abs=1e-12)


def test_cosine_integral_small_x_logarithmic():
    for x in (1e-3, 1e-2):
        assert cosine_integral(x) == pytest.approx(
            EULER_GAMMA + math.log(x), abs=x * x)


def test_cosine_integral_against_series_oracle():
    for x in (1e-3, 0.05, 0.3, 1.0, 2.5, 4.0):
        assert cosine_integral(x) == pytest.approx(ci_series(x), abs=1e-13)


def test_cosine_integral_against_mpmath_large_x():
    for x in (5.0, 17.0, 100.0, 1e3):
        assert cosine_integral(x) == pytest.approx(float(mpmath.ci(x)),
                                                   abs=1e-13)


def test_cosine_integral_derivative():
    # d Ci/dx = cos(x)/x, central difference
    h = 1e-5
    for x in (0.5, 1.0, 2.0, 5.0):
        fd = (cosine_integral(x + h) - cosine_integral(x - h)) / (2 * h)
        assert fd == pytest.approx(math.cos(x) / x, abs=1e-6)


def test_cosine_integral_domain():
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError):
            cosine_integral(bad)
