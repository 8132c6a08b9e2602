import cmath
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import integrate_finite
from relspec.models import OnePointModel, one_point_spectral_measure
from relspec.quad import (MAX_TOL, IntegrandError, NonConvergenceError,
                          QuadratureSpec, integrate_to_infinity,
                          require_converged)


# ---------------------------------------------------------------------------
# the adaptive engine on a finite interval, as integrate_to_infinity takes
# its mapped range (0, 1)
# ---------------------------------------------------------------------------

def test_finite_arctan():
    r = integrate_finite(lambda v: 1.0 / (1.0 + v * v), 0.0, 1.0)
    assert r.converged
    assert r.value == pytest.approx(math.pi / 4.0, abs=1e-12)


def test_finite_linear():
    r = integrate_finite(lambda v: v, 0.0, 1.0)
    assert r.converged
    assert r.value == pytest.approx(0.5, abs=1e-14)


def test_finite_oscillatory_segment():
    # frozen by the integration-by-parts oracle:
    # cos(2) - cos(20)/10 - 2 (Si(20) - Si(2))
    r = integrate_finite(lambda v: math.cos(2 * v) / (v * v), 1.0, 10.0)
    assert r.converged
    assert r.value == pytest.approx(-0.34261249120997156878, abs=1e-11)


@pytest.mark.parametrize("k", range(0, 9))
def test_finite_monomials(k):
    r = integrate_finite(lambda v: v ** k, 0.0, 1.0)
    assert r.value == pytest.approx(1.0 / (k + 1), rel=1e-13)


def test_integrand_error_carries_abscissa():
    def f(x):
        return math.nan if 0.4 < x < 0.6 else math.exp(-x)

    with pytest.raises(IntegrandError) as err:
        integrate_to_infinity(f, 0.0)
    assert 0.4 < err.value.abscissa < 0.6


def test_non_convergence_is_flagged_not_raised():
    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300)
    r = integrate_to_infinity(lambda v: math.exp(-v) * math.sin(7 * v), 0.0,
                              spec)
    assert not r.converged
    assert math.isfinite(r.value)
    with pytest.raises(NonConvergenceError) as err:
        require_converged(r, "test piece")
    assert "test piece" in str(err.value)
    assert err.value.result is r


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=math.inf)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=math.inf)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=math.nan)
    # finite but above the documented cap
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=1e300)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=2e-3)
    assert QuadratureSpec(abs_tol=MAX_TOL, rel_tol=MAX_TOL).abs_tol == 1e-3


def test_default_spec_is_the_tight_one():
    # the one default every library quadrature resolves spec=None to
    assert QuadratureSpec() == QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11)


# ---------------------------------------------------------------------------
# semi-infinite interval
# ---------------------------------------------------------------------------

def test_gaussian_tail():
    r = integrate_to_infinity(lambda v: math.exp(-v * v), 0.0)
    assert r.converged
    assert r.value == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-12)


def test_lorentzian_tail():
    r = integrate_to_infinity(lambda v: 1.0 / (1.0 + v * v), 0.0)
    assert r.converged
    assert r.value == pytest.approx(math.pi / 2.0, abs=1e-11)


def test_oscillatory_infinite_frozen_value():
    # integration-by-parts oracle: cos 2 - 2 (pi/2 - Si(2)); the tail is
    # Re int exp(2iv)/v^2 dv, taken on the line v = 1 + ix
    def f(x):
        v = complex(1.0, x)
        return (1j * cmath.exp(2j * v) / (v * v)).real

    r = integrate_to_infinity(f, 0.0)
    assert r.converged
    assert r.value == pytest.approx(-0.34691353653154592831, abs=1e-12)


@pytest.mark.parametrize("a", (0.5, 1.0, 2.0))
def test_oscillatory_cosine_integral_identity(a):
    # int_1^inf cos(2av)/v dv = -Ci(2a), taken on the line v = 1 + ix/a
    # as the paper route's interaction tail is
    def f(x):
        v = complex(1.0, x / a)
        return (1j / a * cmath.exp(2j * a * v) / v).real

    r = integrate_to_infinity(f, 0.0)
    assert r.converged
    assert r.value == pytest.approx(-float(mpmath.ci(2 * a)), abs=1e-12)


def test_additivity_spectral_measure():
    e = one_point_spectral_measure(OnePointModel(0.25))
    whole = integrate_to_infinity(e.eval, 0.0)
    head = integrate_finite(e.eval, 0.0, 1.0)
    tail = integrate_to_infinity(e.eval, 1.0)
    assert whole.converged and head.converged and tail.converged
    combined_err = (whole.error_estimate + head.error_estimate
                    + tail.error_estimate)
    assert abs(whole.value - (head.value + tail.value)) <= max(
        combined_err, 1e-12)


def test_result_reports_evaluations():
    r = integrate_finite(lambda v: v * v, 0.0, 1.0)
    assert r.evaluations >= 15
    assert r.error_estimate >= 0.0


def test_converged_error_within_tolerance_contract():
    # converged implies error_estimate <= max(abs_tol, rel_tol |value|)
    e = one_point_spectral_measure(OnePointModel(0.25)).eval
    default = QuadratureSpec()
    loose = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-8)
    cases = [
        (integrate_finite(e, 0.0, 1.0), default),
        (integrate_to_infinity(e, 0.0), default),
        (integrate_to_infinity(
            lambda v: math.exp(-v * v) * math.cos(2 * v), 0.0, loose), loose),
    ]
    for r, spec in cases:
        assert r.converged
        assert r.error_estimate <= max(spec.abs_tol,
                                       spec.rel_tol * abs(r.value))


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.2, max_value=5.0),
       st.floats(min_value=0.1, max_value=4.0))
def test_exponential_scaling_property(rate, upper):
    r = integrate_finite(lambda v: math.exp(-rate * v), 0.0, upper)
    exact = (1.0 - math.exp(-rate * upper)) / rate
    assert r.value == pytest.approx(exact, rel=1e-10)
