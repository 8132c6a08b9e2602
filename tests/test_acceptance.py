"""Acceptance suite: every criterion the package must meet, one test per
criterion, each printing a single PASS line with the achieved figure.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math

import pytest

from references import eta_series_check, integrate_finite
from relspec.cli import main as cli_main
from relspec.models import (OnePointModel, TwoPointModel,
                            one_point_spectral_measure,
                            two_point_spectral_measure)
from relspec.quad import QuadratureSpec, integrate_to_infinity
from relspec.thermo import (ThermalState, casimir_force, log_eta,
                            one_point_log_eta_closed, one_point_log_z_closed,
                            one_point_partition, two_point_partition)
from relspec.verify import paper_route_forces
from relspec.zetareg import (numeric_laurent_probe,
                             one_point_heat_trace_closed, one_point_laurent,
                             one_point_zeta_closed, relative_heat_trace,
                             relative_zeta_in_strip, two_point_laurent)


def report(criterion, achieved, tolerance):
    print(f"PASS {criterion}: achieved {achieved:.3e} "
          f"(tolerance {tolerance:.0e})")


def test_criterion_01_zeta_strip_matches_closed_form():
    tol = 1e-7
    worst = 0.0
    points = [-0.45 + 0.9 * i / 19.0 for i in range(20)]
    for alpha in (0.1, 0.25, 1.0):
        m = OnePointModel(alpha)
        e = one_point_spectral_measure(m)
        for s in points:
            worst = max(worst, abs(relative_zeta_in_strip(e, s)
                                   - one_point_zeta_closed(m, s)))
    assert worst < tol
    report("criterion 1 (zeta strip vs closed form, 20 pts x 3 alpha)",
           worst, tol)


def test_criterion_02_one_point_laurent_probe():
    tol = 1e-4
    worst = 0.0
    for alpha in (0.25, 1.0):
        m = OnePointModel(alpha)
        probe = numeric_laurent_probe(one_point_spectral_measure(m))
        worst = max(worst,
                    abs(probe.residue - 2.0 * alpha),
                    abs(probe.finite_part
                        + 4.0 * alpha * math.log(4 * math.pi * alpha)))
    assert worst < tol
    report("criterion 2 (numeric probe recovers one-point Laurent data)",
           worst, tol)


def test_criterion_03_heat_trace_equality():
    tol = 1e-8
    worst = 0.0
    for alpha in (0.25, 1.0):
        m = OnePointModel(alpha)
        e = one_point_spectral_measure(m)
        for i in range(25):
            t = 10.0 ** (-3.0 + 4.0 * i / 24.0)
            worst = max(worst, abs(relative_heat_trace(e, t)
                                   - one_point_heat_trace_closed(m, t)))
    assert worst < tol
    report("criterion 3 (heat trace: quadrature vs closed form, log grid)",
           worst, tol)


def test_criterion_04_eta_equality_and_series():
    tol = 1e-8
    worst = 0.0
    for i in range(5):
        for j in range(5):
            alpha = 0.1 + 1.9 * i / 4.0
            tau = 0.1 + 1.9 * j / 4.0
            m = OnePointModel(alpha)
            e = one_point_spectral_measure(m)
            worst = max(worst, abs(log_eta(e, tau)
                                   - one_point_log_eta_closed(m, tau)))
    assert worst < tol
    e = one_point_spectral_measure(OnePointModel(0.25))
    series_diff = abs(eta_series_check(e, 2.0, 50) - log_eta(e, 2.0))
    assert series_diff < tol
    report("criterion 4 (eta closed form 5x5 grid + mode series at n=50)",
           max(worst, series_diff), tol)


def test_criterion_05_explicit_one_point_log_z():
    tol = 1e-8
    worst = 0.0
    for alpha in (0.25, 1.0):
        for beta in (1.0, 5.0, 30.0):
            for ell in (1.0, 2.0):
                m = OnePointModel(alpha)
                th = ThermalState(beta, ell)
                assembled = one_point_partition(m, th).log_z
                worst = max(worst,
                            abs(assembled - one_point_log_z_closed(m, th)))
    assert worst < tol
    report("criterion 5 (assembled log Z vs explicit closed form)",
           worst, tol)


def test_criterion_06_low_temperature_slope():
    tol = 1e-3
    worst = 0.0
    m1 = OnePointModel(0.5)
    evac1 = one_point_partition(m1, ThermalState(30.0)).vacuum_energy
    slope1 = one_point_partition(m1, ThermalState(30.5)).log_z \
        - one_point_partition(m1, ThermalState(29.5)).log_z
    worst = max(worst, abs(slope1 + evac1))
    m2 = TwoPointModel(1.0, 1.0, 1.0)
    evac2 = two_point_partition(m2, ThermalState(30.0)).vacuum_energy
    slope2 = two_point_partition(m2, ThermalState(30.5)).log_z \
        - two_point_partition(m2, ThermalState(29.5)).log_z
    worst = max(worst, abs(slope2 + evac2))
    assert worst < tol
    report("criterion 6 (low-temperature slope equals -E_vacuum)",
           worst, tol)


def test_criterion_07_two_point_residue():
    tol = 1e-4
    m = TwoPointModel(1.0, 1.0, 1.0)
    lau = two_point_laurent(m)
    assert lau.residue == 4.0  # exact
    probe = numeric_laurent_probe(two_point_spectral_measure(m))
    diff = abs(probe.residue - 4.0)
    assert diff < tol
    report("criterion 7 (two-point residue exact + probe confirmation)",
           diff, tol)


def test_criterion_08_degeneracy_limit():
    tol = 1e-3
    e_one = one_point_spectral_measure(OnePointModel(0.25))
    worst_by_alpha1 = []
    for alpha1 in (1e2, 1e3, 1e4):
        e_two = two_point_spectral_measure(TwoPointModel(0.25, alpha1, 1.0))
        worst_by_alpha1.append(max(abs(e_two.eval(v) - e_one.eval(v))
                                   for v in (0.1, 1.0, 10.0)))
    assert worst_by_alpha1[0] > worst_by_alpha1[1] > worst_by_alpha1[2]
    assert worst_by_alpha1[2] < tol
    report("criterion 8 (two-point degenerates to one-point, monotone)",
           worst_by_alpha1[2], tol)


def test_criterion_09_sum_rule():
    tol = 1e-8
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11)
    worst = 0.0
    for alpha in (0.1, 1.0, 10.0):
        e = one_point_spectral_measure(OnePointModel(alpha))
        res = integrate_to_infinity(e.eval, 0.0, spec)
        assert res.converged
        worst = max(worst, abs(res.value - 0.5))
    assert worst < tol
    report("criterion 9 (spectral measure sum rule = 1/2)", worst, tol)


def _zeta_via_mellin(alpha, s, t_cut=100.0):
    """(1/Gamma(s)) int_0^inf t^(s-1) Tr(exp(-tL)-exp(-tL0)) dt.

    The heat trace is evaluated by quadrature of the spectral measure; the
    integrable t^(s-1) endpoint is removed by u = t^s, and the slow t^(-1/2)
    tail beyond t_cut is summed from the measure's small-v Taylor data
    (e(v) = e0 + e2 v^2 + e4 v^4 + ...), whose Gaussian moments give

        HT(t) ~ sqrt(pi) [ e0/2 t^(-1/2) + e2/4 t^(-3/2) + 3 e4/8 t^(-5/2) ].
    """
    m = OnePointModel(alpha)
    e = one_point_spectral_measure(m)
    spec = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9)

    def head_integrand(u):
        t = u ** (1.0 / s)
        return relative_heat_trace(e, t) / s

    head = integrate_finite(head_integrand, 0.0, t_cut ** s, spec)
    assert head.converged
    c2 = (4.0 * math.pi * alpha) ** 2
    e0 = 4.0 * alpha / c2
    e2 = -4.0 * alpha / c2 ** 2
    e4 = 4.0 * alpha / c2 ** 3
    rt_pi = math.sqrt(math.pi)
    tail = rt_pi * (e0 / 2.0 * t_cut ** (s - 0.5) / (0.5 - s)
                    + e2 / 4.0 * t_cut ** (s - 1.5) / (1.5 - s)
                    + 3.0 * e4 / 8.0 * t_cut ** (s - 2.5) / (2.5 - s))
    return (head.value + tail) / math.gamma(s)


def test_criterion_10_mellin_consistency():
    tol = 1e-6
    alpha = 0.25
    e = one_point_spectral_measure(OnePointModel(alpha))
    worst = 0.0
    for s in (0.1, 0.25, 0.4):
        via_mellin = _zeta_via_mellin(alpha, s)
        direct = relative_zeta_in_strip(e, s)
        worst = max(worst, abs(via_mellin - direct))
    assert worst < tol
    report("criterion 10 (Mellin transform of heat trace vs direct zeta)",
           worst, tol)


def test_criterion_11_casimir_force_invariance_and_decay():
    tol = 1e-10
    worst = 0.0
    for a in (1.0, 3.0):
        forces = paper_route_forces(TwoPointModel(1.0, 1.0, a),
                                    (0.5, 1.0, 2.0))
        worst = max(worst, max(abs(f - forces[0]) for f in forces))
    assert worst < tol
    magnitudes = [abs(casimir_force(TwoPointModel(1.0, 1.0, a)).value)
                  for a in (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)]
    assert all(x > y for x, y in zip(magnitudes, magnitudes[1:]))
    assert magnitudes[-1] < 1e-4
    report("criterion 11 (force ell-invariant, decaying over a in [1,50])",
           worst, tol)


def test_criterion_12_cli_contract(tmp_path, capsys):
    # determinism
    args = ["zeta", "--alpha", "0.25", "--s-min", "-0.4", "--s-max", "0.4",
            "--samples", "9"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(f1)]) == 0
    assert cli_main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    # exit-code contract
    assert cli_main(["spectral-measure", "--alpha", "-1"]) == 2
    assert cli_main(["heat-trace", "--alpha", "0.25", "--t-min", "1",
                     "--t-max", "2", "--samples", "2",
                     "--abs-tol", "1e-300", "--rel-tol", "1e-300"]) == 3
    # verify green end-to-end
    summary_file = tmp_path / "verify.json"
    assert cli_main(["verify", "--out", str(summary_file)]) == 0
    summary = json.loads(summary_file.read_text())
    assert summary["all_passed"] is True
    assert cli_main(["verify", "--inject-failure",
                     "--out", str(tmp_path / "v2.json")]) != 0
    capsys.readouterr()
    report("criterion 12 (CLI determinism, exit codes, verify)", 0.0, 1.0)
