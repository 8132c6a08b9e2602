import cmath
import math

import pytest

from references import (WrongSheetError, one_point_resolvent_trace,
                        two_point_resolvent_trace, two_rim_measure)
from relspec.models import (BoundStateRegimeError, OnePointModel,
                            SpectralMeasure, TwoPointModel,
                            one_point_spectral_measure,
                            two_point_interaction,
                            two_point_interaction_ratio,
                            two_point_spectral_measure)
from relspec.quad import integrate_to_infinity


# ---------------------------------------------------------------------------
# model validation
# ---------------------------------------------------------------------------

def test_one_point_rejects_negative_alpha():
    with pytest.raises(BoundStateRegimeError):
        OnePointModel(-0.1)


def test_two_point_rejects_bound_state_regime():
    with pytest.raises(BoundStateRegimeError):
        TwoPointModel(0.01, 0.01, 1.0)
    with pytest.raises(BoundStateRegimeError):
        TwoPointModel(-1.0, -1.0, 10.0)
    with pytest.raises(ValueError):
        TwoPointModel(1.0, 1.0, -1.0)


def test_two_point_boundary_warns():
    # parameters tuned so the constraint product is exactly 1.0 in floats
    alpha1 = None
    base = 1.0 / (4.0 * math.pi ** 2)
    for cand in (base, math.nextafter(base, 1.0), math.nextafter(base, 0.0)):
        if 4.0 * math.pi ** 2 * 1.0 * cand * 1.0 ** 2 == 1.0:
            alpha1 = cand
            break
    assert alpha1 is not None
    with pytest.warns(UserWarning, match="boundary"):
        TwoPointModel(1.0, alpha1, 1.0)


# ---------------------------------------------------------------------------
# resolvent traces
# ---------------------------------------------------------------------------

def test_one_point_trace_free_case():
    # alpha = 0: trace = 1/(2k^2) evaluated at k = i
    value = one_point_resolvent_trace(OnePointModel(0.0), 1j)
    assert value == pytest.approx(-0.5)


def test_one_point_trace_unit_coupling():
    # 4 pi alpha = 1, k = i: 1/(2i*i*(1+1)) = -1/4
    value = one_point_resolvent_trace(OnePointModel(1.0 / (4 * math.pi)), 1j)
    assert value == pytest.approx(-0.25)


def test_one_point_trace_frozen_complex_pin():
    # independent high-precision evaluation of the same formula
    value = one_point_resolvent_trace(OnePointModel(0.25), 0.3 + 0.7j)
    assert value.real == pytest.approx(-0.15090525924213759095, abs=1e-14)
    assert value.imag == pytest.approx(-0.07910580189803315516, abs=1e-14)


def test_wrong_sheet_rejected():
    m = OnePointModel(0.25)
    for k in (1.0 + 0.0j, 0.5 - 0.2j, -2j):
        with pytest.raises(WrongSheetError):
            one_point_resolvent_trace(m, k)
    m2 = TwoPointModel(1.0, 1.0, 1.0)
    with pytest.raises(WrongSheetError):
        two_point_resolvent_trace(m2, 1.0 - 1e-12j)


def test_two_point_trace_frozen_pin():
    value = two_point_resolvent_trace(TwoPointModel(1.0, 1.0, 1.0), 1j)
    assert value.real == pytest.approx(-0.07450179819815870394, abs=1e-14)
    assert value.imag == pytest.approx(0.0, abs=1e-16)


def test_two_point_trace_degenerates_to_one_point():
    # alpha1 -> infinity removes the second center
    one = one_point_resolvent_trace(OnePointModel(0.5), 1j)
    two = two_point_resolvent_trace(TwoPointModel(0.5, 1e6, 1.0), 1j)
    assert abs(two - one) / abs(one) < 1e-4


def test_two_point_trace_swap_symmetry():
    for k in (1j, 0.4 + 1.1j, -0.3 + 0.2j):
        a = two_point_resolvent_trace(TwoPointModel(0.5, 2.0, 1.3), k)
        b = two_point_resolvent_trace(TwoPointModel(2.0, 0.5, 1.3), k)
        assert a == b


# ---------------------------------------------------------------------------
# imaginary-axis interaction factor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha0, alpha1, a", [
    (1.0, 1.0, 1.0), (0.3, 3.0, 2.0), (1.0, 1.0, 7.0), (0.25, 1e4, 1.0),
    (0.3, 3.0, 0.168)])
def test_interaction_factor_matches_resolvent_trace(alpha0, alpha1, a):
    # r(i xi) = -(1/(2 xi)) d/dxi log D(i xi) with
    # D(i xi) = (c0 + x)(c1 + x)(1 - g(x)), x = xi a
    m = TwoPointModel(alpha0, alpha1, a)
    g, log_factor, dlog = two_point_interaction(m)
    c0 = 4 * math.pi * alpha0 * a
    c1 = 4 * math.pi * alpha1 * a
    for xi in (1e-3, 0.1, 0.7, 2.0, 6.0):
        x = xi * a
        # D(i xi) = (c0 + x)(c1 + x) - exp(-2x)
        assert (c0 + x) * (c1 + x) * (1 - g(x)) == pytest.approx(
            (c0 + x) * (c1 + x) - math.exp(-2 * x), rel=1e-14)
        # log(1 - g) is the antiderivative of the checked derivative
        h = 1e-5 * x
        assert (log_factor(x + h) - log_factor(x - h)) / (2 * h) \
            == pytest.approx(dlog(x), rel=1e-6)
        single = 1 / (c0 + x) + 1 / (c1 + x)
        trace = two_point_resolvent_trace(m, 1j * xi)
        assert trace.imag == pytest.approx(0.0, abs=1e-12 * abs(trace))
        assert -(a / (2 * xi)) * (single + dlog(x)) == pytest.approx(
            trace.real, rel=1e-12)
        # the interaction part alone, where it is not lost in rounding
        interaction_part = -2 * xi * trace.real / a - single
        assert abs(interaction_part - dlog(x)) <= 1e-13 * single


def test_interaction_factor_bounded_at_constraint_edge():
    # g(0) = 1/(c0 c1) = 1/4 exactly at 4 pi^2 alpha0 alpha1 a^2 = 1
    a_edge = 1.0 / (2 * math.pi)
    g, log_factor, dlog = two_point_interaction(
        TwoPointModel(1.0, 1.0, 1.0000001 * a_edge))
    assert g(0.0) == pytest.approx(0.25, rel=1e-6)
    assert math.isfinite(log_factor(0.0)) and dlog(0.0) > 0


@pytest.mark.parametrize("alpha0, alpha1, a", [
    (1.0, 1.0, 1.0), (0.3, 3.0, 2.0), (1.0, 1.0, 7.0), (0.25, 1e4, 1.0),
    (0.3, 3.0, 0.168)])
def test_interaction_ratio_is_measure_minus_lorentzians(alpha0, alpha1, a):
    # (2a/pi) Re(exp(2iva) R(va)) = e - e1(alpha0) - e1(alpha1), real v
    m = TwoPointModel(alpha0, alpha1, a)
    ratio = two_point_interaction_ratio(m)
    e = two_point_spectral_measure(m).eval
    e0 = one_point_spectral_measure(OnePointModel(alpha0)).eval
    e1 = one_point_spectral_measure(OnePointModel(alpha1)).eval
    for v in (0.0, 0.3, 1.0, 7.5, 60.0):
        h2 = 2 * a / math.pi * (cmath.exp(2j * v * a)
                                * ratio(v * a, 0.0)).real
        scale = abs(e(v)) + e0(v) + e1(v)
        assert abs(h2 - (e(v) - e0(v) - e1(v))) <= 1e-13 * scale, v


# ---------------------------------------------------------------------------
# one-point spectral measure
# ---------------------------------------------------------------------------

def test_one_point_measure_at_origin():
    e = one_point_spectral_measure(OnePointModel(1.0 / (4 * math.pi)))
    assert e.eval(0.0) == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_one_point_measure_frozen_value():
    e = one_point_spectral_measure(OnePointModel(0.25))
    assert e.eval(1.0) == pytest.approx(0.09199966835037523246, rel=1e-13)


def test_one_point_sum_rule():
    for alpha in (0.1, 1.0, 10.0):
        e = one_point_spectral_measure(OnePointModel(alpha))
        r = integrate_to_infinity(e.eval, 0.0)
        assert r.converged
        assert r.value == pytest.approx(0.5, abs=1e-8)


def test_one_point_zero_measure():
    e = one_point_spectral_measure(OnePointModel(0.0))
    assert e.is_zero
    assert e.eval(1.0) == 0.0


def test_one_point_profiles_match_eval():
    # e(0) = 1/(4 pi^2 alpha) and e(v) ~ 4 alpha / v^2
    alpha = 0.25
    e = one_point_spectral_measure(OnePointModel(alpha))
    at_origin = 1.0 / (4 * math.pi ** 2 * alpha)
    assert e.eval(0.0) == pytest.approx(at_origin, rel=1e-14)
    assert e.eval(1e-6) == pytest.approx(at_origin, rel=1e-10)
    for v in (1e3, 1e4):
        assert e.eval(v) == pytest.approx(4 * alpha / v ** 2, rel=1e-5)


# ---------------------------------------------------------------------------
# two-point spectral measure
# ---------------------------------------------------------------------------

def test_two_point_measure_at_origin():
    # (a/pi)(4 pi (alpha0+alpha1) a + 2)/(16 pi^2 alpha0 alpha1 a^2 - 1)
    m = TwoPointModel(1.0, 1.0, 1.0)
    e = two_point_spectral_measure(m)
    expected = (1.0 / math.pi) * (8 * math.pi + 2) / (16 * math.pi ** 2 - 1)
    assert e.eval(0.0) == pytest.approx(expected, rel=1e-14)
    assert e.eval(0.0) == pytest.approx(0.05504058218377025754, rel=1e-13)
    assert e.eval(1e-6) == pytest.approx(expected, rel=1e-9)


def test_two_point_frozen_value():
    e = two_point_spectral_measure(TwoPointModel(1.0, 1.0, 1.0))
    assert e.eval(1.0) == pytest.approx(0.04791270763091527274, rel=1e-13)


def test_two_point_reality_and_finiteness():
    e = two_point_spectral_measure(TwoPointModel(0.7, 1.9, 0.8))
    for v in (0.0, 1e-4, 0.3, 2.0, 17.0, 400.0):
        val = e.eval(v)
        assert isinstance(val, float)
        assert math.isfinite(val)


def test_two_point_swap_symmetry_exact():
    ea = two_point_spectral_measure(TwoPointModel(0.5, 2.0, 1.1))
    eb = two_point_spectral_measure(TwoPointModel(2.0, 0.5, 1.1))
    for v in (0.1, 1.0, 7.3, 52.0):
        assert ea.eval(v) == eb.eval(v)


def test_two_point_degeneracy_pointwise():
    e_one = one_point_spectral_measure(OnePointModel(0.25))
    worst_prev = math.inf
    for alpha1 in (1e2, 1e3, 1e4):
        e_two = two_point_spectral_measure(TwoPointModel(0.25, alpha1, 1.0))
        worst = max(abs(e_two.eval(v) - e_one.eval(v))
                    for v in (0.1, 1.0, 10.0))
        assert worst < worst_prev
        worst_prev = worst
    assert worst_prev < 1e-3


def test_two_point_tail_residual_decay():
    # |e - (4 pi sigma a - 2 cos 2av)/(pi a v^2)| <= C / v^3 on [10, 1e3],
    # sigma = alpha0 + alpha1; C frozen from a dense scan
    e = two_point_spectral_measure(TwoPointModel(1.0, 1.0, 1.0))
    sigma, a = 2.0, 1.0
    C = 80.0
    for i in range(60):
        v = 10.0 * (100.0 ** (i / 59.0))
        tail = ((4 * math.pi * sigma * a - 2 * math.cos(2 * a * v))
                / (math.pi * a * v ** 2))
        assert abs(e.eval(v) - tail) <= C / v ** 3


# ---------------------------------------------------------------------------
# two-rim construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", [
    OnePointModel(0.25),
    TwoPointModel(1.0, 1.0, 1.0),
])
def test_two_rim_limit_linear_in_eps(model):
    if isinstance(model, OnePointModel):
        e = one_point_spectral_measure(model)
    else:
        e = two_point_spectral_measure(model)
    for v in (0.5, 2.0):
        exact = e.eval(v)
        d_coarse = two_rim_measure(model, v, 1e-4) - exact
        d_fine = two_rim_measure(model, v, 1e-6) - exact
        # linear approach: errors scale like eps
        assert abs(d_coarse) / abs(d_fine) == pytest.approx(100.0, rel=0.5)
        # Richardson extrapolation in eps recovers the closed form
        extrapolated = two_rim_measure(model, v, 1e-6) \
            + (two_rim_measure(model, v, 1e-6)
               - two_rim_measure(model, v, 1e-4)) / 99.0
        assert abs(extrapolated - exact) < 1e-6
        assert abs(complex(d_fine).imag) < 1e-6


def test_two_rim_domain():
    with pytest.raises(ValueError):
        two_rim_measure(OnePointModel(0.25), -1.0, 1e-4)
    with pytest.raises(ValueError):
        two_rim_measure(OnePointModel(0.25), 1.0, 4.0)


def test_measure_is_callable():
    e = one_point_spectral_measure(OnePointModel(0.25))
    assert e(1.0) == e.eval(1.0)
    assert isinstance(e, SpectralMeasure)
