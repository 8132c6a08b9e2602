import math
import random

import pytest

from relspec import zetareg
from relspec.models import (OnePointModel, TwoPointModel,
                            one_point_spectral_measure,
                            two_point_spectral_measure)
from relspec.quad import NonConvergenceError, QuadratureSpec
from relspec.zetareg import (ContinuationRequiredError, LaurentData,
                             ProbeInconsistencyError, ZetaPoleError,
                             numeric_laurent_probe,
                             one_point_heat_trace_closed, one_point_laurent,
                             one_point_zeta_closed, relative_heat_trace,
                             relative_zeta_in_strip, two_point_heat_trace,
                             two_point_laurent, two_point_laurent_parts)


# ---------------------------------------------------------------------------
# heat traces
# ---------------------------------------------------------------------------

def test_heat_trace_matches_closed_form_on_log_grid():
    m = OnePointModel(0.25)
    e = one_point_spectral_measure(m)
    worst = 0.0
    for i in range(25):
        t = 10.0 ** (-3.0 + 4.0 * i / 24.0)
        diff = abs(relative_heat_trace(e, t)
                   - one_point_heat_trace_closed(m, t))
        worst = max(worst, diff)
    assert worst < 1e-8


def test_heat_trace_within_tight_on_wide_grid():
    # the mass of exp(-v^2 t) e(v) sits at v ~ 1/sqrt(t); at large t no node
    # of a quadrature in v lands on it (alpha = 1e-3, t = 1e6 read 2.9e-81
    # against the closed 7.1e-3)
    for alpha in (1e-3, 0.03, 1.0, 30.0, 1e4):
        m = OnePointModel(alpha)
        e = one_point_spectral_measure(m)
        for k in range(-24, 25):
            t = 10.0 ** (k / 2)
            closed = one_point_heat_trace_closed(m, t)
            assert abs(relative_heat_trace(e, t) - closed) <= \
                QuadratureSpec().tolerance_for(closed), (alpha, t)


def test_heat_trace_small_t_limit():
    # leading scaled-erfc expansion: 1/2 - (4 pi alpha) sqrt(t/pi)
    m = OnePointModel(0.7)
    e = one_point_spectral_measure(m)
    c = 4 * math.pi * m.alpha
    assert relative_heat_trace(e, 1e-9) == pytest.approx(
        0.5 - c * math.sqrt(1e-9) / math.sqrt(math.pi), abs=1e-7)
    assert one_point_heat_trace_closed(m, 1e-12) == pytest.approx(0.5,
                                                                  abs=1e-5)


def test_heat_trace_large_t_asymptotic():
    alpha = 0.5
    m = OnePointModel(alpha)
    c = 4 * math.pi * alpha
    t = (50.0 / c) ** 2  # 4 pi alpha sqrt(t) = 50
    expected = 1.0 / (8 * math.pi * alpha * math.sqrt(math.pi * t))
    assert one_point_heat_trace_closed(m, t) == pytest.approx(expected,
                                                              rel=1e-3)


def test_heat_trace_alpha_zero_conventions():
    # closed form keeps the threshold-resonance constant 1/2; the zero
    # measure convention drops it
    m = OnePointModel(0.0)
    assert one_point_heat_trace_closed(m, 3.0) == 0.5
    e = one_point_spectral_measure(m)
    assert relative_heat_trace(e, 3.0) == 0.0


def test_heat_trace_frozen_value():
    # (1/2) e erfc(1) at 4 pi alpha sqrt(t) = 1
    m = OnePointModel(1.0 / (4 * math.pi))
    assert one_point_heat_trace_closed(m, 1.0) == pytest.approx(
        0.5 * 0.42758357615580700441, rel=1e-12)


def test_heat_trace_two_point_runs():
    e = two_point_spectral_measure(TwoPointModel(1.0, 1.0, 1.0))
    val = relative_heat_trace(e, 0.5)
    assert math.isfinite(val)
    assert 0.0 < val < 1.0


def test_heat_trace_domain():
    e = one_point_spectral_measure(OnePointModel(0.25))
    with pytest.raises(ValueError):
        relative_heat_trace(e, 0.0)
    with pytest.raises(ValueError):
        one_point_heat_trace_closed(OnePointModel(0.25), -1.0)


# ---------------------------------------------------------------------------
# zeta in the strip
# ---------------------------------------------------------------------------

def test_zeta_strip_at_zero_is_half():
    e = one_point_spectral_measure(OnePointModel(0.25))
    assert relative_zeta_in_strip(e, 0.0) == pytest.approx(0.5, abs=1e-10)


def test_zeta_strip_quarter_matches_closed():
    alpha = 0.25
    m = OnePointModel(alpha)
    e = one_point_spectral_measure(m)
    expected = 0.5 * (4 * math.pi * alpha) ** -0.5 / math.cos(math.pi / 4)
    assert relative_zeta_in_strip(e, 0.25) == pytest.approx(expected,
                                                            abs=1e-10)
    assert one_point_zeta_closed(m, 0.25) == pytest.approx(expected,
                                                           rel=1e-14)


def test_zeta_strip_consistency_random_points():
    rng = random.Random(20260808)
    for alpha in (0.1, 1.0):
        m = OnePointModel(alpha)
        e = one_point_spectral_measure(m)
        # 20 random points, then one just inside the strip
        for s in [rng.uniform(-0.45, 0.45) for _ in range(20)] + [0.49]:
            closed = one_point_zeta_closed(m, s)
            assert abs(relative_zeta_in_strip(e, s) - closed) <= \
                QuadratureSpec().tolerance_for(closed), (alpha, s)


def test_zeta_strip_within_tolerance_on_wide_grid():
    # a split at v = 1 cancels its Lorentzian tail against 4 alpha/(2s + 1)
    # at large alpha (974 x the tolerance at alpha = 3162, s = 0.499), and
    # its tail divides by zero at alpha = 1e12
    strip = (-0.499, -0.45, -0.4, -0.3, -0.2, -0.1, 0.0,
             0.1, 0.2, 0.3, 0.4, 0.45, 0.499)
    for spec in (QuadratureSpec(), QuadratureSpec(1e-12, 1e-12)):
        for k in range(-24, 25):
            m = OnePointModel(10.0 ** (k / 2))
            e = one_point_spectral_measure(m)
            for s in strip:
                closed = one_point_zeta_closed(m, s)
                assert abs(relative_zeta_in_strip(e, s, spec) - closed) <= \
                    spec.tolerance_for(closed), (spec, m.alpha, s)


def test_one_point_zeta_takes_one_quadrature(quadratures):
    e = one_point_spectral_measure(OnePointModel(3162.2776601683795))
    for s in (-0.6, -0.2, 0.0, 0.499):
        quadratures.clear()
        zetareg._continued_zeta(e, s)
        assert len(quadratures) == 1, s


# the continuation range in steps of 0.04, s = -1/2 excluded
_S_GRID = [s for s in (round(-0.74 + 0.04 * k, 2) for k in range(31))
           if s != -0.5]


def test_one_point_zeta_evaluation_budget(quadratures):
    # x^(-2s) f(x) near x = 0 cost up to 675 evaluations at s = -0.74
    # before the head was taken in z = -(1 - 2s) log x
    for k in range(-12, 13, 2):
        e = one_point_spectral_measure(OnePointModel(10.0 ** k))
        for s in _S_GRID:
            quadratures.clear()
            zetareg._continued_zeta(e, s)
            assert quadratures[0].evaluations <= 400, (k, s)


def test_interaction_zeta_evaluation_budget(quadratures):
    for alpha0 in (0.1, 1.0, 10.0):
        for ratio in (0.1, 1.0, 10.0):
            edge = 1.0 / (2.0 * math.pi * alpha0 * math.sqrt(ratio))
            for a in (edge * (1.0 + 1e-12), 0.5 * (edge + 12.0), 12.0):
                m = TwoPointModel(alpha0, alpha0 * ratio, a)
                for s in _S_GRID:
                    quadratures.clear()
                    zetareg._interaction_zeta(m, s, QuadratureSpec())
                    assert sum(r.evaluations for r in quadratures) <= 600, (
                        alpha0, ratio, a, s)


def test_zeta_strip_two_point_frozen_value():
    # zeta(0) equals the full measure integral, which is exactly 1
    e = two_point_spectral_measure(TwoPointModel(1.0, 1.0, 1.0))
    assert relative_zeta_in_strip(e, 0.0) == pytest.approx(1.0, abs=1e-8)


def test_zeta_strip_zero_measure():
    e = one_point_spectral_measure(OnePointModel(0.0))
    assert relative_zeta_in_strip(e, 0.2) == 0.0


def test_zeta_outside_strip_raises():
    e = one_point_spectral_measure(OnePointModel(0.25))
    for s in (-0.5, -0.6, 0.5, 0.8):
        with pytest.raises(ContinuationRequiredError):
            relative_zeta_in_strip(e, s)
    # the continuation is real-s only
    with pytest.raises(TypeError):
        relative_zeta_in_strip(e, 0.1 + 0.2j)


# ---------------------------------------------------------------------------
# closed one-point zeta
# ---------------------------------------------------------------------------

def test_zeta_closed_values():
    m = OnePointModel(1.0 / (4 * math.pi))
    assert one_point_zeta_closed(m, 0.0) == pytest.approx(0.5, rel=1e-14)
    # (4 pi alpha) = 1 kills the power factor: 1/(2 cos(pi/4))
    assert one_point_zeta_closed(m, 0.25) == pytest.approx(
        0.70710678118654752440, rel=1e-13)


def test_zeta_closed_pole_error():
    m = OnePointModel(0.25)
    for s in (-0.5, 0.5, 1.5):
        with pytest.raises(ZetaPoleError):
            one_point_zeta_closed(m, s)


def test_zeta_closed_alpha_zero():
    assert one_point_zeta_closed(OnePointModel(0.0), 0.3) == 0.0


# ---------------------------------------------------------------------------
# Laurent data
# ---------------------------------------------------------------------------

def test_one_point_laurent_values():
    lau = one_point_laurent(OnePointModel(0.25))
    assert lau.residue == 0.5
    assert lau.finite_part == pytest.approx(-math.log(math.pi), rel=1e-14)
    # log(4 pi alpha) = 0 at alpha = 1/(4 pi)
    lau = one_point_laurent(OnePointModel(1.0 / (4 * math.pi)))
    assert lau.finite_part == pytest.approx(0.0, abs=1e-14)
    lau = one_point_laurent(OnePointModel(1.0))
    assert lau.finite_part == pytest.approx(-10.124096987877163172, rel=1e-13)


def test_one_point_laurent_degenerate_warns():
    with pytest.warns(UserWarning, match="degenerate"):
        lau = one_point_laurent(OnePointModel(0.0))
    assert lau == LaurentData(0.0, 0.0)


def test_two_point_residue_exact():
    lau = two_point_laurent(TwoPointModel(1.0, 1.0, 1.0))
    assert lau.residue == 4.0
    lau = two_point_laurent(TwoPointModel(0.25, 1e4, 1.0))
    assert lau.residue == 2.0 * 1e4 + 0.5


def test_two_point_finite_part_frozen_oracle():
    # frozen by a 30-digit quadrature oracle for alpha0 = alpha1 = a = 1
    lau = two_point_laurent(TwoPointModel(1.0, 1.0, 1.0))
    assert lau.finite_part == pytest.approx(-20.249131413324218427, abs=5e-8)


# 30-digit references from the real-axis measure
# (scripts/derive_reference_values.py); the last point is 0.3 % above the
# constraint edge
_ZETA_REFERENCES = [
    (1.0, 1.0, 1.0, -0.4125, 29.7275711435550435077661929725),
    (1.0, 1.0, 1.0, 0.01, 0.951173972643196397044196968282),
    (1.0, 1.0, 1.0, 0.3, 0.378377161997465990121672181695),
    (0.3, 3.0, 2.0, -0.4125, 42.2982795123170684800593561539),
    (0.3, 3.0, 2.0, 0.01, 0.952382070480072879451944908466),
    (0.3, 3.0, 2.0, 0.3, 0.482447984715349042960669607531),
    (1.0, 1.0, 7.0, -0.4125, 29.7285351669000086046618511073),
    (1.0, 1.0, 7.0, 0.01, 0.951110077630124913817614359516),
    (1.0, 1.0, 7.0, 0.3, 0.372972878591078537050258236151),
    (0.25, 1e4, 1.0, -0.4125, 29662.8534640632329286457127179),
    (0.25, 1e4, 1.0, 0.01, 0.884472906998848312287943950336),
    (0.25, 1e4, 1.0, 0.3, 0.428761457793162298391295026787),
    (0.3, 3.0, 0.168, -0.4125, 42.1733675558638600175716238004),
    (0.3, 3.0, 0.168, 0.01, 0.955240197594406902845506845118),
    (0.3, 3.0, 0.168, 0.3, 0.611497560646112638998125276374),
]
_FINITE_PART_REFERENCES = [
    (1.0, 1.0, 1.0, -20.2491314133242184274628568759),
    (0.3, 3.0, 2.0, -45.148231135251493116570026414),
    (1.0, 1.0, 7.0, -20.2481968813698931291820190663),
    (0.25, 1e4, 1.0, -469655.729488058028241419722798),
    (0.3, 3.0, 0.168, -45.3015082318022316758848071336),
]


@pytest.mark.parametrize("alpha0, alpha1, a, s, ref", _ZETA_REFERENCES)
def test_two_point_zeta_frozen_references(alpha0, alpha1, a, s, ref):
    e = two_point_spectral_measure(TwoPointModel(alpha0, alpha1, a))
    assert relative_zeta_in_strip(e, s) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("alpha0, alpha1, a, ref", _FINITE_PART_REFERENCES)
def test_two_point_finite_part_frozen_references(alpha0, alpha1, a, ref):
    m = TwoPointModel(alpha0, alpha1, a)
    assert two_point_laurent(m).finite_part == pytest.approx(ref, rel=1e-10)
    tight = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    assert two_point_laurent(m, tight).finite_part == pytest.approx(
        ref, rel=1e-10)


@pytest.mark.parametrize("alpha0, alpha1, a, ref", _FINITE_PART_REFERENCES)
def test_two_point_laurent_parts_frozen_references(alpha0, alpha1, a, ref):
    # the paper route, its interaction tail taken on the line Re v = 1
    m = TwoPointModel(alpha0, alpha1, a)
    tight = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    for spec in (None, tight):
        assert two_point_laurent_parts(m, spec)["finite_part"] \
            == pytest.approx(ref, rel=1e-12)


# 30-digit real-axis rows (scripts/derive_reference_values.py): closed
# one-point parts plus the quadrature of exp(-v^2 t) h2(v)
_HEAT_TRACE_REFERENCES = [
    (1.0, 1.0, 1.0, 1e-3, 0.672339054997028724835235704254),
    (1.0, 1.0, 1.0, 0.1, 0.137852064450395351938885900063),
    (1.0, 1.0, 1.0, 1.0, 0.04595664826369448225065800366),
    (1.0, 1.0, 1.0, 10.0, 0.0152825427928351801052809618693),
    (0.3, 3.0, 2.0, 1e-3, 0.629391299574907881712581560961),
    (0.3, 3.0, 2.0, 0.1, 0.213715552011221684470191423982),
    (0.3, 3.0, 2.0, 1.0, 0.0799370848784445020962507598902),
    (0.3, 3.0, 2.0, 10.0, 0.0263701005461536660096880956505),
    (1.0, 1.0, 7.0, 1e-3, 0.672339054997028724835235704254),
    (1.0, 1.0, 7.0, 0.1, 0.137851903200332178699044438718),
    (1.0, 1.0, 7.0, 1.0, 0.0447559538434521005530939946065),
    (1.0, 1.0, 7.0, 10.0, 0.0141942065766390586608848948652),
]


@pytest.mark.parametrize("alpha0, alpha1, a, t, ref", _HEAT_TRACE_REFERENCES)
def test_two_point_heat_trace_frozen_references(alpha0, alpha1, a, t, ref):
    e = two_point_spectral_measure(TwoPointModel(alpha0, alpha1, a))
    assert relative_heat_trace(e, t) == pytest.approx(ref, rel=1e-9)


def test_real_axis_heat_trace_converges_at_small_t():
    # exp(-v^2 t) damps the cos(2av) tail even at t = 1e-6
    m = TwoPointModel(1.0, 1.0, 1.0)
    real_axis = relative_heat_trace(two_point_spectral_measure(m), 1e-6)
    assert abs(real_axis - two_point_heat_trace(m, 1e-6)) <= 1e-10


# 30-digit rows at a^2/t = 2 and 20 on the real axis, and at t = 1e-8 and
# 1e-6, where the interaction part is bounded below 1e-30
# (scripts/derive_reference_values.py)
_HEAT_TRACE_CONTOUR_REFERENCES = [
    (1.0, 1.0, 1.0, 0.5, 0.0636348389574319693385086120533),
    (1.0, 1.0, 1.0, 0.05, 0.189942224486726130948891955468),
    (1.0, 1.0, 1.0, 1e-8, 0.9985836145644539582897726785),
    (1.0, 1.0, 1.0, 1e-6, 0.985976802466200119941268449374),
    (0.3, 3.0, 2.0, 2.0, 0.0574688995049308015321005585564),
    (0.3, 3.0, 2.0, 0.2, 0.163500394801039210031484122971),
    (0.3, 3.0, 2.0, 1e-8, 0.997667517970942455460132581965),
    (0.3, 3.0, 2.0, 1e-6, 0.977301648027097233689505028752),
    (1.0, 1.0, 7.0, 24.5, 0.00908283248182351072302642050865),
    (1.0, 1.0, 7.0, 2.45, 0.0286465742592962075471875659743),
    (1.0, 1.0, 7.0, 1e-8, 0.9985836145644539582897726785),
    (1.0, 1.0, 7.0, 1e-6, 0.985976802466200119941268449374),
]


@pytest.mark.parametrize(
    "alpha0, alpha1, a, t, ref",
    _HEAT_TRACE_REFERENCES + _HEAT_TRACE_CONTOUR_REFERENCES)
def test_two_point_heat_trace_contour_references(alpha0, alpha1, a, t, ref):
    m = TwoPointModel(alpha0, alpha1, a)
    assert two_point_heat_trace(m, t) == pytest.approx(ref, rel=1e-10)


def test_two_point_heat_trace_interaction_underflows_to_zero():
    # a^2/t = 1e6: exp(-a^2/t) is 0.0, so only the closed parts remain
    m = TwoPointModel(1.0, 1.0, 1.0)
    assert two_point_heat_trace(m, 1e-6) == 2.0 * one_point_heat_trace_closed(
        OnePointModel(1.0), 1e-6)
    with pytest.raises(ValueError):
        two_point_heat_trace(m, 0.0)


def test_two_point_parts_decomposition():
    parts = two_point_laurent_parts(TwoPointModel(1.0, 1.0, 1.0))
    assert parts["zeta0"] == pytest.approx(0.025461325917743234, abs=1e-10)
    assert parts["residue"] == 4.0
    assert parts["finite_part"] == pytest.approx(
        two_point_laurent(TwoPointModel(1.0, 1.0, 1.0)).finite_part,
        abs=1e-12)


def test_two_point_laurent_non_convergence_names_piece():
    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300)
    m = TwoPointModel(1.0, 1.0, 1.0)
    with pytest.raises(NonConvergenceError) as err:
        two_point_laurent(m, spec)
    assert "E_int (interaction energy)" in str(err.value)
    with pytest.raises(NonConvergenceError) as err:
        relative_zeta_in_strip(two_point_spectral_measure(m), 0.2, spec)
    assert "zeta_int (interaction head) at s=0.2" in str(err.value)
    # the real-axis route names its own pieces
    with pytest.raises(NonConvergenceError) as err:
        two_point_laurent_parts(m, spec)
    assert "zeta0" in str(err.value) or "zA" in str(err.value)


def test_two_point_degeneracy_trend_of_finite_part():
    # the interaction part of the finite part decays as the second coupling
    # grows; the alpha0 share approaches the isolated one-point data
    def one_point_share(alpha):
        return -4.0 * alpha * math.log(4 * math.pi * alpha)

    deltas = []
    for alpha1 in (1e2, 1e3, 1e4):
        lau = two_point_laurent(TwoPointModel(0.25, alpha1, 1.0))
        deltas.append(abs(lau.finite_part - one_point_share(0.25)
                          - one_point_share(alpha1)))
    assert deltas[0] > deltas[1] > deltas[2]
    assert deltas[2] < 1e-5


# ---------------------------------------------------------------------------
# numeric Laurent probe
# ---------------------------------------------------------------------------

def test_probe_one_point():
    m = OnePointModel(0.25)
    e = one_point_spectral_measure(m)
    probe = numeric_laurent_probe(e)
    assert probe.residue == pytest.approx(0.5, abs=1e-5)
    assert probe.finite_part == pytest.approx(-math.log(math.pi), abs=1e-5)


def test_probe_one_point_vanishing_finite_part():
    m = OnePointModel(1.0 / (4 * math.pi))
    probe = numeric_laurent_probe(one_point_spectral_measure(m))
    assert probe.finite_part == pytest.approx(0.0, abs=1e-5)


def test_probe_two_point():
    m = TwoPointModel(1.0, 1.0, 1.0)
    probe = numeric_laurent_probe(two_point_spectral_measure(m))
    exact = two_point_laurent(m)
    assert probe.residue == pytest.approx(exact.residue, abs=1e-4)
    assert probe.finite_part == pytest.approx(exact.finite_part, abs=1e-4)


def test_probe_zero_measure():
    e = one_point_spectral_measure(OnePointModel(0.0))
    assert numeric_laurent_probe(e) == LaurentData(0.0, 0.0)


def test_probe_requires_halving_deltas():
    e = one_point_spectral_measure(OnePointModel(0.25))
    with pytest.raises(ValueError):
        numeric_laurent_probe(e, deltas=(0.04, 0.03, 0.01))


def test_probe_inconsistency_diagnostic():
    # deltas far too large for the curvature near the pole: the Richardson
    # levels disagree and the probe must say so, carrying both values
    e = one_point_spectral_measure(OnePointModel(0.25))
    with pytest.raises(ProbeInconsistencyError) as err:
        numeric_laurent_probe(e, deltas=(0.24, 0.12, 0.06),
                              consistency_tol=1e-6)
    assert err.value.coarse != err.value.fine
