"""Internal consistency suite behind the ``verify`` CLI subcommand.

Each check exercises one identity the library is built on: closed forms
against quadrature, sum rules, Laurent probes against analytic data, the
degeneracy limit of the two-point model, and, for each of the two-point
Laurent data, log eta, the heat trace and the Casimir force, the paper's
real-axis route against the imaginary-axis or shifted-contour one.
All checks run in a fraction of a second on one core.
"""

import math
from dataclasses import dataclass

from . import models, thermo, zetareg
from .quad import integrate_to_infinity, require_converged


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    value: float
    tolerance: float


def _check(name, error, tol, detail=""):
    return CheckResult(name=name, passed=abs(error) <= tol,
                       detail=detail or f"|err| = {abs(error):.3e}",
                       value=float(error), tolerance=tol)


def check_sum_rule():
    worst = 0.0
    value_at_one = None
    for alpha in (0.1, 1.0, 10.0):
        e = models.one_point_spectral_measure(models.OnePointModel(alpha))
        value = require_converged(integrate_to_infinity(e.eval, 0.0),
                                  "sum rule")
        if alpha == 1.0:
            value_at_one = value
        worst = max(worst, abs(value - 0.5))
    return _check("one_point_sum_rule", worst, 1e-8,
                  detail=f"integral at alpha=1: {value_at_one:.12g} "
                         f"(target 0.5), worst |err| = {worst:.3e}")


def check_heat_trace():
    m = models.OnePointModel(0.25)
    e = models.one_point_spectral_measure(m)
    worst = max(abs(zetareg.relative_heat_trace(e, t)
                    - zetareg.one_point_heat_trace_closed(m, t))
                for t in (0.01, 0.1, 1.0, 10.0))
    return _check("heat_trace_closed_form", worst, 1e-8)


def check_eta_closed_form():
    worst = 0.0
    for alpha in (0.25, 1.0):
        m = models.OnePointModel(alpha)
        e = models.one_point_spectral_measure(m)
        for tau in (0.5, 2.0):
            worst = max(worst, abs(thermo.log_eta(e, tau)
                                   - thermo.one_point_log_eta_closed(m, tau)))
    return _check("eta_closed_form", worst, 1e-8)


def check_zeta_strip():
    worst = 0.0
    for alpha in (0.25, 1.0):
        m = models.OnePointModel(alpha)
        e = models.one_point_spectral_measure(m)
        for s in (-0.3, 0.0, 0.3):
            worst = max(worst, abs(zetareg.relative_zeta_in_strip(e, s)
                                   - zetareg.one_point_zeta_closed(m, s)))
    return _check("zeta_strip_closed_form", worst, 1e-7)


def check_one_point_probe():
    m = models.OnePointModel(0.25)
    e = models.one_point_spectral_measure(m)
    probe = zetareg.numeric_laurent_probe(e)
    exact = zetareg.one_point_laurent(m)
    worst = max(abs(probe.residue - exact.residue),
                abs(probe.finite_part - exact.finite_part))
    return _check("one_point_laurent_probe", worst, 1e-4)


def check_two_point_probe():
    """The probe of the imaginary-axis zeta against the real-axis parts."""
    m = models.TwoPointModel(1.0, 1.0, 1.0)
    e = models.two_point_spectral_measure(m)
    probe = zetareg.numeric_laurent_probe(e)
    parts = zetareg.two_point_laurent_parts(m)
    worst = max(abs(probe.residue - parts["residue"]),
                abs(probe.finite_part - parts["finite_part"]))
    return _check("two_point_laurent_probe", worst, 1e-4)


def check_degeneracy():
    e1 = models.one_point_spectral_measure(models.OnePointModel(0.25))
    e2 = models.two_point_spectral_measure(
        models.TwoPointModel(0.25, 1e4, 1.0))
    worst = max(abs(e2.eval(v) - e1.eval(v)) for v in (0.1, 1.0, 10.0))
    return _check("two_point_degeneracy_limit", worst, 1e-3)


def check_explicit_log_z():
    m = models.OnePointModel(0.25)
    th = thermo.ThermalState(beta=5.0, ell=1.0)
    report = thermo.one_point_partition(m, th)
    closed = thermo.one_point_log_z_closed(m, th)
    return _check("one_point_explicit_log_z", report.log_z - closed, 1e-8)


def check_ell_covariance():
    m = models.OnePointModel(0.5)
    beta = 3.0
    r1 = thermo.one_point_partition(m, thermo.ThermalState(beta, ell=1.0))
    r2 = thermo.one_point_partition(m, thermo.ThermalState(beta, ell=2.0))
    expected = beta * r1.laurent.residue * math.log(2.0)
    return _check("log_z_ell_covariance",
                  (r2.log_z - r1.log_z) - expected, 1e-10)


def paper_route_forces(m, ells):
    """-dE_vac/da at each ell, by a central difference of the paper route.

    E_vac(a +- delta), delta = 3e-3 a, is assembled from the real-axis
    Laurent data (head + Lorentzian and interaction tails), independently
    of the imaginary-axis integral behind thermo.casimir_force.
    """
    delta = 3e-3 * m.a
    lo, hi = (zetareg.two_point_laurent_parts(
        models.TwoPointModel(m.alpha0, m.alpha1, m.a + step))
        for step in (-delta, delta))

    def e_vac(parts, ell):
        return (-(math.log(2.0 * ell) - 1.0) * parts["residue"]
                + 0.5 * parts["finite_part"])

    return [-(e_vac(hi, ell) - e_vac(lo, ell)) / (2.0 * delta)
            for ell in ells]


def check_two_point_energy_split():
    """R0(two)/2 = R0(alpha0)/2 + R0(alpha1)/2 + E_int(a).

    The left side comes from the real-axis Laurent route, E_int from the
    imaginary-axis integral (1/(2 pi a)) int_0^inf log(1 - g(x)) dx.
    """
    m = models.TwoPointModel(1.0, 1.0, 1.2)
    singles = sum(zetareg.one_point_laurent(models.OnePointModel(alpha))
                  .finite_part for alpha in (m.alpha0, m.alpha1))
    split = 0.5 * (zetareg.two_point_laurent_parts(m)["finite_part"]
                   - singles)
    e_int = zetareg.two_point_interaction_energy(m)
    return _check("two_point_energy_split", split - e_int, 1e-8)


def check_two_point_log_eta_two_routes():
    """Real-axis quadrature of log eta against the Matsubara sum."""
    m = models.TwoPointModel(1.0, 1.0, 1.2)
    real_axis = thermo.log_eta(models.two_point_spectral_measure(m), 2.0)
    return _check("two_point_log_eta_two_routes",
                  real_axis - thermo.two_point_log_eta(m, 2.0), 1e-8)


def check_two_point_heat_trace_two_routes():
    """Real-axis heat trace against the steepest-descent line."""
    m = models.TwoPointModel(1.0, 1.0, 1.0)
    real_axis = zetareg.relative_heat_trace(
        models.two_point_spectral_measure(m), 1.0)
    return _check("two_point_heat_trace_two_routes",
                  real_axis - zetareg.two_point_heat_trace(m, 1.0), 1e-9)


def check_force_two_routes():
    m = models.TwoPointModel(1.0, 1.0, 1.2)
    (quotient,) = paper_route_forces(m, (1.0,))
    return _check("casimir_force_two_routes",
                  thermo.casimir_force(m).value - quotient, 1e-6)


ALL_CHECKS = (
    check_sum_rule,
    check_heat_trace,
    check_eta_closed_form,
    check_zeta_strip,
    check_one_point_probe,
    check_two_point_probe,
    check_degeneracy,
    check_explicit_log_z,
    check_ell_covariance,
    check_two_point_energy_split,
    check_two_point_log_eta_two_routes,
    check_two_point_heat_trace_two_routes,
    check_force_two_routes,
)


def run_all(inject_failure=False):
    """Run every check; returns (results, all_passed).

    inject_failure is a test hook that forces one artificial failure, used
    to verify the nonzero-exit contract of the CLI.
    """
    results = [fn() for fn in ALL_CHECKS]
    if inject_failure:
        results.append(CheckResult(
            name="injected_failure", passed=False,
            detail="artificial failure injected via test hook",
            value=1.0, tolerance=0.0))
    return results, all(r.passed for r in results)
