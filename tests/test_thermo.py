import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import _e1, eta_series_check
from relspec import thermo
from relspec.models import (OnePointModel, TwoPointModel,
                            one_point_spectral_measure, two_point_interaction,
                            two_point_spectral_measure)
from relspec.quad import QuadratureSpec, integrate_to_infinity
from relspec.thermo import (ForceEstimate, ThermalState, casimir_force,
                            log_eta, one_point_log_eta_closed,
                            one_point_log_z_closed, one_point_partition,
                            relative_partition, two_point_log_eta,
                            two_point_partition)
from relspec.verify import paper_route_forces
from relspec.zetareg import LaurentData, one_point_laurent, two_point_laurent


# ---------------------------------------------------------------------------
# thermal state
# ---------------------------------------------------------------------------

def test_thermal_state_ell_defaults_to_one():
    assert ThermalState(beta=2 * math.pi).ell == 1.0


def test_thermal_state_validation():
    with pytest.raises(ValueError):
        ThermalState(0.0)
    with pytest.raises(ValueError):
        ThermalState(1.0, ell=-2.0)


# ---------------------------------------------------------------------------
# log eta
# ---------------------------------------------------------------------------

def test_log_eta_frozen_unit_value():
    # 2 alpha tau = 1: value is -(1 - log(2 pi)/2)
    m = OnePointModel(0.25)
    e = one_point_spectral_measure(m)
    assert log_eta(e, 2.0) == pytest.approx(-0.08106146679532725822, abs=1e-10)
    assert one_point_log_eta_closed(m, 2.0) == pytest.approx(
        -0.08106146679532725822, rel=1e-13)


def test_log_eta_frozen_value_z_two():
    # 2 alpha tau = 2
    m = OnePointModel(0.5)
    assert one_point_log_eta_closed(m, 2.0) == pytest.approx(
        -0.04134069595540929409, rel=1e-12)


def test_log_eta_closed_large_z_stirling_decay():
    # Stirling cancellation leaves -1/(12 z) + O(z^-3)
    for z in (20.0, 100.0):
        m = OnePointModel(0.5)
        tau = z / (2 * m.alpha)
        assert one_point_log_eta_closed(m, tau) == pytest.approx(
            -1.0 / (12.0 * z), rel=0.01)


def test_log_eta_closed_against_mpmath_on_log_grid():
    # minus Binet's function, 1e-13 relative from z = 1e-3 to 1e8, with a
    # dense stretch around the switch to Stirling's series at z = 7; the
    # reference cancels 18 digits at z = 1e8, hence 50-digit arithmetic
    grid = [10.0 ** (-3 + 11 * i / 110) for i in range(111)]
    grid += [1.0 + 9.0 * i / 300 for i in range(301)]
    m = OnePointModel(0.5)
    with mpmath.workdps(50):
        for z in grid:
            zm = mpmath.mpf(z)
            exact = -(mpmath.loggamma(zm) + mpmath.log(zm) / 2
                      - zm * (mpmath.log(zm) - 1)
                      - mpmath.log(2 * mpmath.pi) / 2)
            value = one_point_log_eta_closed(m, z)
            assert abs(value - exact) <= 1e-13 * abs(exact), z


def test_log_eta_closed_form_grid():
    worst = 0.0
    for i in range(5):
        for j in range(5):
            alpha = 0.1 + 1.9 * i / 4.0
            tau = 0.1 + 1.9 * j / 4.0
            m = OnePointModel(alpha)
            e = one_point_spectral_measure(m)
            worst = max(worst, abs(log_eta(e, tau)
                                   - one_point_log_eta_closed(m, tau)))
    assert worst < 1e-8


def test_log_eta_vanishes_at_large_tau():
    # decays like -1/(12 z) with z = 2 alpha tau
    e = one_point_spectral_measure(OnePointModel(0.25))
    assert log_eta(e, 200.0) == pytest.approx(-1.0 / (12.0 * 100.0), rel=0.02)
    assert abs(log_eta(e, 200.0)) < abs(log_eta(e, 20.0)) < abs(
        log_eta(e, 2.0))


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.05, max_value=3.0),
       st.floats(min_value=0.05, max_value=10.0))
def test_log_eta_negative(alpha, tau):
    m = OnePointModel(alpha)
    assert one_point_log_eta_closed(m, tau) < 0.0


def test_log_eta_negative_by_quadrature():
    for alpha, tau in ((0.1, 0.3), (1.0, 1.0), (2.0, 5.0)):
        e = one_point_spectral_measure(OnePointModel(alpha))
        assert log_eta(e, tau) < 0.0


def test_log_eta_within_tolerance_on_wide_grid():
    # the mass of log(1 - exp(-tau v)) e(v) sits at v ~ 1/tau; in v no node
    # of the tail map lands on it at large tau (alpha = 0.03, tau = 3.2e7
    # read -2.0e-14 against the closed -4.4e-8)
    for spec in (QuadratureSpec(), QuadratureSpec(1e-12, 1e-12)):
        for alpha in (1e-3, 0.03, 1.0, 30.0, 1e4):
            m = OnePointModel(alpha)
            e = one_point_spectral_measure(m)
            for k in range(-24, 25):
                tau = 10.0 ** (k / 2)
                closed = one_point_log_eta_closed(m, tau)
                assert abs(log_eta(e, tau, spec) - closed) <= \
                    spec.tolerance_for(closed), (spec, alpha, tau)


def test_log_eta_zero_measure():
    e = one_point_spectral_measure(OnePointModel(0.0))
    assert log_eta(e, 1.0) == 0.0


def test_log_eta_domain():
    e = one_point_spectral_measure(OnePointModel(0.25))
    with pytest.raises(ValueError):
        log_eta(e, 0.0)
    with pytest.raises(ValueError):
        one_point_log_eta_closed(OnePointModel(0.0), 1.0)


# ---------------------------------------------------------------------------
# eta series
# ---------------------------------------------------------------------------

def test_e1_against_mpmath():
    # series below x = 1, continued fraction above; log grid over [1e-8, 700]
    span = math.log10(700.0) + 8.0
    grid = [10.0 ** (-8.0 + span * i / 300) for i in range(301)]
    with mpmath.workdps(30):
        for x in grid + [0.999999, 1.0, 1.000001]:
            exact = mpmath.e1(mpmath.mpf(x))
            assert abs(_e1(x) - exact) <= 1e-13 * exact, x


def test_eta_series_matches_direct_value():
    e = one_point_spectral_measure(OnePointModel(0.25))
    direct = log_eta(e, 2.0)
    assert eta_series_check(e, 2.0, 50) == pytest.approx(direct, abs=1e-8)


def test_eta_series_two_point():
    e = two_point_spectral_measure(TwoPointModel(1.0, 1.0, 1.0))
    direct = log_eta(e, 2.0)
    assert eta_series_check(e, 2.0, 50) == pytest.approx(direct, abs=1e-8)


def test_eta_series_remainder_bound():
    # the corrected partial sums sit far inside the first omitted term
    e = one_point_spectral_measure(OnePointModel(0.25))
    direct = log_eta(e, 2.0)
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)
    for n in (5, 20, 50):
        def term(v, _n=n):
            x = (_n + 1) * 2.0 * v
            return 0.0 if x > 700 else math.exp(-x) * e.eval(v)
        bound = integrate_to_infinity(term, 0.0, spec).value / (n + 1)
        resid = abs(eta_series_check(e, 2.0, n) - direct)
        assert resid <= bound


def test_eta_series_improves_with_n():
    e = one_point_spectral_measure(OnePointModel(0.25))
    direct = log_eta(e, 2.0)
    r5 = abs(eta_series_check(e, 2.0, 5) - direct)
    r50 = abs(eta_series_check(e, 2.0, 50) - direct)
    assert r50 < r5


def test_eta_series_large_tau_single_term():
    e = one_point_spectral_measure(OnePointModel(0.25))
    assert abs(eta_series_check(e, 1500.0, 1)) < 2e-4
    assert abs(eta_series_check(e, 1500.0, 1)) < abs(
        eta_series_check(e, 150.0, 1))


@pytest.mark.parametrize("n_max", (1, 5))
@pytest.mark.parametrize("tau", (1e4, 1e6, 1e8))
def test_eta_series_at_large_tau_within_first_omitted_term(tau, n_max):
    # the first omitted term is about e(0) / ((N + 1)^2 tau),
    # e(0) = 1/(4 pi^2 alpha); it read about 0 where the mass at
    # v ~ 1/tau fell between the nodes
    m = OnePointModel(0.25)
    value = eta_series_check(one_point_spectral_measure(m), tau, n_max)
    bound = 1.0 / (4.0 * math.pi ** 2 * m.alpha) / ((n_max + 1) ** 2 * tau)
    assert abs(value - one_point_log_eta_closed(m, tau)) <= bound


def test_eta_series_takes_two_quadratures(quadratures):
    # the partial sum and its remainder are one kernel, so the cost does
    # not grow with n_max
    e = one_point_spectral_measure(OnePointModel(0.25))
    for n_max in (1, 50):
        quadratures.clear()
        eta_series_check(e, 2.0, n_max)
        assert len(quadratures) == 2
    assert sum(r.evaluations for r in quadratures) <= 400


def test_eta_series_validation():
    e = one_point_spectral_measure(OnePointModel(0.25))
    with pytest.raises(ValueError):
        eta_series_check(e, 1.0, 0)
    assert eta_series_check(one_point_spectral_measure(OnePointModel(0.0)),
                            1.0, 5) == 0.0


# ---------------------------------------------------------------------------
# partition function
# ---------------------------------------------------------------------------

def test_vacuum_energy_special_alpha():
    # at alpha = 1/(8 pi), ell = 1 the log term cancels: E_vac = 2 alpha
    m = OnePointModel(1.0 / (8 * math.pi))
    report = one_point_partition(m, ThermalState(5.0))
    assert report.vacuum_energy == pytest.approx(1.0 / (4 * math.pi),
                                                 rel=1e-12)


def test_log_z_matches_closed_form_grid():
    worst = 0.0
    for alpha in (0.25, 1.0):
        for beta in (1.0, 5.0, 30.0):
            for ell in (1.0, 2.0):
                m = OnePointModel(alpha)
                th = ThermalState(beta, ell)
                report = one_point_partition(m, th)
                worst = max(worst, abs(report.log_z
                                       - one_point_log_z_closed(m, th)))
    assert worst < 1e-8


def test_log_z_closed_frozen_values():
    assert one_point_log_z_closed(OnePointModel(0.25), ThermalState(5.0)) \
        == pytest.approx(2.12785553954329999639, rel=1e-12)
    assert one_point_log_z_closed(OnePointModel(1.0), ThermalState(30.0, 2.0)) \
        == pytest.approx(175.04050536138071172, rel=1e-12)


def test_report_reassembles_exactly():
    m = OnePointModel(0.4)
    th = ThermalState(3.0, 1.5)
    report = one_point_partition(m, th)
    scale = math.log(2.0 * th.ell) - 1.0
    rebuilt = th.beta * scale * report.laurent.residue \
        - 0.5 * th.beta * report.laurent.finite_part - report.eta_log
    assert report.log_z == rebuilt
    rebuilt_evac = -scale * report.laurent.residue \
        + 0.5 * report.laurent.finite_part
    assert report.vacuum_energy == rebuilt_evac


def test_low_temperature_slope_one_point():
    m = OnePointModel(0.5)
    evac = one_point_partition(m, ThermalState(30.0)).vacuum_energy

    def log_z(beta):
        return one_point_partition(m, ThermalState(beta)).log_z

    slope = (log_z(40.0) - log_z(20.0)) / 20.0
    assert slope == pytest.approx(-evac, abs=1e-3)


def test_ell_covariance():
    m = OnePointModel(0.5)
    beta = 3.0
    r1 = one_point_partition(m, ThermalState(beta, 1.0))
    r2 = one_point_partition(m, ThermalState(beta, 2.0))
    assert r2.log_z - r1.log_z == pytest.approx(
        beta * r1.laurent.residue * math.log(2.0), abs=1e-10)


def test_partition_zero_alpha():
    report = one_point_partition(OnePointModel(0.0), ThermalState(2.0))
    assert report.log_z == 0.0
    assert report.vacuum_energy == 0.0


def test_relative_partition_custom_measure_tag():
    e = one_point_spectral_measure(OnePointModel(0.25))
    report = relative_partition(e, one_point_laurent(OnePointModel(0.25)),
                                ThermalState(2.0))
    assert report.model.startswith("one-point")


# ---------------------------------------------------------------------------
# two-point partition
# ---------------------------------------------------------------------------

def test_two_point_partition_matches_generic_assembly():
    m = TwoPointModel(1.0, 1.0, 1.0)
    th = ThermalState(5.0, 1.0)
    direct = two_point_partition(m, th)
    generic = relative_partition(two_point_spectral_measure(m),
                                 two_point_laurent(m), th)
    assert direct.log_z == pytest.approx(generic.log_z, abs=1e-8)
    assert direct.vacuum_energy == pytest.approx(generic.vacuum_energy,
                                                 abs=1e-10)
    assert set(direct.terms) == {"scale_term", "one_point_term",
                                 "interaction_term", "eta_term"}
    assert sum(direct.terms.values()) == direct.log_z


# 30-digit references from the real-axis measure
# (scripts/derive_reference_values.py): (alpha0, alpha1, a, beta, log eta,
# log Z at ell = 1); the last point is 0.3 % above the constraint edge
_LOG_ETA_REFERENCES = [
    (1.0, 1.0, 1.0, 0.5, -0.16506492908663807597134608049,
     4.61364214353758330167152454238),
    (1.0, 1.0, 1.0, 5.0, -0.017948903656038631495403218355,
     44.5037210481654908884971878373),
    (1.0, 1.0, 1.0, 200.0, -0.000452687718214967185720986120584,
     1779.43133846809630524725710574),
    (0.3, 3.0, 2.0, 0.5, -0.264590380960219448353390473326,
     10.5390338606209122485727630776),
    (0.3, 3.0, 2.0, 5.0, -0.0310168781862751191531642848891,
     102.775451674793203121346890328),
    (0.3, 3.0, 2.0, 200.0, -0.000783680435846212902086504660859,
     4109.77817554471296630065112823),
    (1.0, 1.0, 7.0, 0.5, -0.162186829464434402699782181699,
     4.61053041092679830382975119119),
    (1.0, 1.0, 7.0, 5.0, -0.0167184851079243057051482716803,
     44.5001542997315633170048383666),
    (1.0, 1.0, 7.0, 200.0, -0.000421442066414525135586939656479,
     1779.33785402701197497712319074),
    (0.25, 1e4, 1.0, 0.5, -0.272519912753742441433467009632,
     114345.599984321853883296039689),
    (0.25, 1e4, 1.0, 5.0, -0.0331642467229030233374925130526,
     1143453.30780833772431156939971),
    (0.25, 1e4, 1.0, 200.0, -0.000833366761386997346722142133629,
     45738130.9865970068177288398356),
    (0.3, 3.0, 0.168, 0.5, -0.369401406645444610612130848134,
     10.6821641604438220506601986323),
    (0.3, 3.0, 0.168, 5.0, -0.0516641775882906395986740568679,
     103.179291715572065040079351899),
    (0.3, 3.0, 0.168, 200.0, -0.00130967276083161486535834656638,
     4125.10641119211180763409247203),
]


@pytest.mark.parametrize("alpha0, alpha1, a, beta, eta_ref, log_z_ref",
                         _LOG_ETA_REFERENCES)
def test_two_point_log_eta_and_log_z_frozen_references(
        alpha0, alpha1, a, beta, eta_ref, log_z_ref):
    m = TwoPointModel(alpha0, alpha1, a)
    assert abs(two_point_log_eta(m, beta) - eta_ref) <= 1e-12
    report = two_point_partition(m, ThermalState(beta))
    assert abs(report.eta_log - eta_ref) <= 1e-12
    # log Z reaches 5e7; 1e-12 absolute is below its rounding there
    assert abs(report.log_z - log_z_ref) <= 1e-12 * max(1.0, abs(log_z_ref))


def test_two_point_log_eta_at_large_tau():
    # about 3 tau/a Matsubara terms: 99,939 at tau = 3.14e4 (the sum),
    # 101,859 at 3.2e4, past 1e5 the real-axis quadrature, whose cost does
    # not grow with tau
    m = TwoPointModel(1.0, 1.0, 1.0)
    e = two_point_spectral_measure(m)
    assert abs(two_point_log_eta(m, 3.14e4) - log_eta(e, 3.14e4)) < 1e-12
    assert two_point_log_eta(m, 3.14e4) != log_eta(e, 3.14e4)
    assert two_point_log_eta(m, 3.2e4) == log_eta(e, 3.2e4)
    assert two_point_log_eta(m, 1e9) == log_eta(e, 1e9)
    assert two_point_partition(m, ThermalState(1e9)).eta_log == log_eta(
        e, 1e9)


@pytest.mark.parametrize("tau", (1e8, 1e9))
def test_two_point_log_eta_past_the_matsubara_cap(tau):
    # the Euler-Maclaurin form of the Matsubara remainder: with h = 2 pi a/tau
    # and L = log(1 - g), sum'_{n>=0} L(n h) - (1/h) int_0^inf L dx
    # = -(h/12) L'(0) + O(h^3); it read -1.2e-15 against -9.05e-10
    m = TwoPointModel(1.0, 1.0, 1.0)
    h = 2.0 * math.pi * m.a / tau
    reference = (2.0 * one_point_log_eta_closed(OnePointModel(1.0), tau)
                 - h / 12.0 * two_point_interaction(m)[2](0.0))
    assert abs(two_point_log_eta(m, tau) - reference) <= \
        1e-12 * abs(reference)


def test_two_point_log_z_frozen_value():
    # 30-digit oracle: beta = 5, ell = 1, alpha0 = alpha1 = a = 1
    report = two_point_partition(TwoPointModel(1.0, 1.0, 1.0),
                                 ThermalState(5.0, 1.0))
    assert report.log_z == pytest.approx(44.503721048165490888, abs=5e-7)


def test_two_point_non_eta_part_linear_in_beta():
    m = TwoPointModel(1.0, 1.0, 1.0)
    reports = {beta: two_point_partition(m, ThermalState(beta))
               for beta in (5.0, 10.0)}
    linear = {beta: rep.log_z + rep.eta_log for beta, rep in reports.items()}
    slope = (linear[10.0] - linear[5.0]) / 5.0
    assert slope == pytest.approx(-reports[5.0].vacuum_energy, abs=1e-7)


def test_two_point_log_z_tracks_decoupled_one_point_sum():
    # as alpha1 grows, log Z splits into the two isolated one-point parts
    th = ThermalState(5.0)

    def log_z_one(alpha):
        return one_point_partition(OnePointModel(alpha), th).log_z

    deltas = []
    for alpha1 in (1e2, 1e3):
        z_two = two_point_partition(TwoPointModel(0.25, alpha1, 1.0),
                                    th).log_z
        deltas.append(abs(z_two - log_z_one(0.25) - log_z_one(alpha1)))
    assert deltas[1] < deltas[0]
    assert deltas[1] < 1e-3


def test_low_temperature_slope_two_point():
    m = TwoPointModel(1.0, 1.0, 1.0)
    evac = two_point_partition(m, ThermalState(30.0)).vacuum_energy

    def log_z(beta):
        return two_point_partition(m, ThermalState(beta)).log_z

    slope = log_z(30.5) - log_z(29.5)
    assert slope == pytest.approx(-evac, abs=1e-3)


# ---------------------------------------------------------------------------
# Casimir force
# ---------------------------------------------------------------------------

def _edge(alpha0, alpha1):
    return 1.0 / (2 * math.pi * math.sqrt(alpha0 * alpha1))


# 30-digit oracles of the imaginary-axis integral
@pytest.mark.parametrize("alpha0, alpha1, a, ref", [
    (1.0, 1.0, 1.001 * _edge(1.0, 1.0), -1.67736781354915108317585747233),
    (1.0, 1.0, 2.0, -8.98757120619334449807157569344e-5),
    (1.0, 1.0, 5.0, -2.36926157079497744428517945499e-6),
    (1.0, 1.0, 20.0, -9.3989973300236075709552496023e-9),
    (0.3, 3.0, 1.001 * _edge(0.3, 3.0), -1.28386399526465544429827265956),
    (0.3, 3.0, 2.0, -9.62382927104014263640915549068e-5),
    (0.3, 3.0, 5.0, -2.5897719346496834627111903986e-6),
    (0.3, 3.0, 20.0, -1.03981810030736937631680630985e-8),
])
def test_force_frozen_references(alpha0, alpha1, a, ref):
    f = casimir_force(TwoPointModel(alpha0, alpha1, a))
    assert isinstance(f, ForceEstimate)
    assert abs(f.value - ref) <= 1e-10 * abs(ref)
    assert abs(f.value - ref) <= f.error_estimate


@pytest.mark.parametrize("alpha0, alpha1, a", [
    (5.518129003266242e-14, 613826202.6650016, 14713.54357005834),
    (7.54e-10, 7.47e10, 20.2),
    (6e-05, 5.23e16, 4.83e-05),
])
def test_force_bar_covers_mpmath_where_c0_is_tiny(alpha0, alpha1, a):
    # c0 ~ 1e-7 and c0 c1 / 4 ~ 1e6: the integral is about 1e-13, below
    # abs_tol, and its feature of width c0 at x = 0 is what a quadrature
    # accepted too early misses.  Reference: 40-digit mpmath quadrature
    # of the same integral, split at c0, c1, 1 and 60.
    with mpmath.workdps(40):
        a_mp = mpmath.mpf(a)
        c0 = 4 * mpmath.pi * mpmath.mpf(alpha0) * a_mp
        c1 = 4 * mpmath.pi * mpmath.mpf(alpha1) * a_mp

        def integrand(x):
            g = mpmath.exp(-2 * x) / ((c0 + x) * (c1 + x))
            return g * (2 * x + 2) / (1 - g)

        points = sorted([mpmath.mpf(0), c0, c1, mpmath.mpf(1),
                         mpmath.mpf(60)]) + [mpmath.inf]
        ref = float(-mpmath.quad(integrand, points)
                    / (2 * mpmath.pi * a_mp ** 2))
    f = casimir_force(TwoPointModel(alpha0, alpha1, a))
    assert abs(f.value - ref) <= f.error_estimate
    assert abs(f.value - ref) <= 1e-10 * abs(ref)


def test_force_finite_near_constraint_edge():
    f = casimir_force(TwoPointModel(1.0, 1.0, 1.01 * _edge(1.0, 1.0)))
    assert math.isfinite(f.value) and f.value < 0.0
    assert math.isfinite(f.error_estimate)


def test_force_ell_invariance():
    forces = paper_route_forces(TwoPointModel(1.0, 1.0, 1.5),
                                (0.5, 1.0, 2.0))
    assert abs(forces[1] - forces[0]) < 1e-10
    assert abs(forces[2] - forces[0]) < 1e-10


def test_force_decays_with_separation():
    magnitudes = [abs(casimir_force(TwoPointModel(1.0, 1.0, a)).value)
                  for a in (1.0, 2.0, 5.0, 10.0, 50.0)]
    assert all(x > y for x, y in zip(magnitudes, magnitudes[1:]))
    assert magnitudes[-1] < 1e-4
    assert magnitudes[-1] < 1e-9  # regression bound, frozen from a dense run
