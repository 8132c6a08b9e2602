"""Partition function, vacuum energy and Casimir force.

For a spatial operator pair with spectral measure e(v) and Laurent data
(residue R1, finite part R0) at s = -1/2, the zeta-regularized partition
function at inverse temperature beta and renormalization scale ell is

    log Z = beta (log 2 ell - 1) R1 - (beta/2) R0 - log eta(beta),

    log eta(tau) = int_0^inf log(1 - exp(-tau v)) e(v) dv,

and the vacuum energy, which is the low-temperature slope of -log Z, is

    E_vac = -(log 2 ell - 1) R1 + R0 / 2.

E_vac is always assembled from the Laurent data; the formally equivalent
integral of v e(v) diverges and is never used.  The Casimir force between
the two centers of a two-point model is the derivative of E_vac in the
separation:

    force = - dE_vac/da        (attractive = negative).

The renormalization scale enters E_vac only through the a-independent
residue term, so the force is exactly ell-independent.  The a-dependent
part of R0/2 is the interaction energy, which on the imaginary axis
(v = i xi; Kenneth & Klich, PRL 97, 160401) reads

    E_int(a) = (1/(2 pi a)) int_0^inf log(1 - g(x)) dx,

    g(x) = exp(-2x) / ((c0 + x)(c1 + x)),  x = xi a,  c_j = 4 pi alpha_j a.

Its exact a-derivative gives the force as one smooth, non-oscillating
integral,

    force = -(1/(2 pi a^2)) int_0^inf g (2x + 2) / (1 - g) dx,

and g(0) = 1/(c0 c1) <= 1/4 in the admissible region, so the integrand is
regular even at the constraint edge.

On the same axis, log eta of the two-point pair is the finite-temperature
(Matsubara) form of the determinant (Bordag, Mohideen & Mostepanenko,
Phys. Rep. 353, 1):

    log eta(beta) = log eta1(alpha0) + log eta1(alpha1)
                    + sum'_{n>=0} log(1 - g(2 pi n a / beta)) - beta E_int,

with the closed one-point forms and the n = 0 term halved; the terms fall
like exp(-4 pi n a / beta).  In log Z the beta E_int terms cancel, so the
two-point partition function is closed forms plus a finite sum.  The
paper's real-axis routes, the Laurent parts (head + Lorentzian and
interaction tails) and the quadrature log_eta, are the independent
cross-checks in ``verify``.  log_eta is one thermal integral
int_0^inf K(tau v) e(v) dv, taken in w = max(1, tau/100) v so that its
nodes reach the mass at v ~ 1/tau however large tau is; the tests take the
thermal mode series through the same integral.
"""

import math
from dataclasses import dataclass
from typing import Optional

from .models import (OnePointModel, SpectralMeasure, TwoPointModel,
                     one_point_spectral_measure, two_point_interaction,
                     two_point_spectral_measure)
from .quad import integrate_to_infinity, require_converged
from .zetareg import (LaurentData, _power_head, one_point_laurent,
                      two_point_interaction_energy)


@dataclass(frozen=True)
class ThermalState:
    """Inverse temperature beta and renormalization scale ell (defaults 1)."""

    beta: float
    ell: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be > 0, got {self.beta!r}")
        if not (math.isfinite(self.ell) and self.ell > 0):
            raise ValueError(f"ell must be > 0, got {self.ell!r}")


@dataclass(frozen=True)
class PartitionReport:
    """Assembled thermodynamic output for one model and thermal state."""

    log_z: float
    vacuum_energy: float
    eta_log: float
    laurent: LaurentData
    model: str
    terms: Optional[dict] = None


@dataclass(frozen=True)
class ForceEstimate:
    """Casimir force value with its quadrature error estimate."""

    value: float
    error_estimate: float


def _thermal_integral(kernel, e: SpectralMeasure, tau, spec, piece):
    """int_0^inf K(tau v) e(v) dv for a kernel K(x) with at most a log
    singularity at x = 0 and exp(-x) decay.

    Taken in w = r v, r = max(1, tau/100), so that past tau = 100 the mass
    at v ~ 1/tau sits at w ~ 1/100, where the nodes reach it, rather than
    between them.  Two mapped quadratures: the head w in (0, 1), the s = 0
    power head of zetareg, in y = -log w, where a log singularity becomes
    a decaying (log(tau/r) - y) exp(-y); and the tail (1, inf), where
    exp(-tau v) damps the cos(2av) factor of a two-point measure.  Their
    sum is divided by r.
    """
    r = max(1.0, tau / 100.0)

    def tail(w):
        v = w / r
        x = tau * v
        if x == 0.0 or x > 745.0:
            return 0.0
        return kernel(x) * e.eval(v)

    head_val = _power_head(tail, 0.0, spec, f"{piece} head")
    tail_val = require_converged(integrate_to_infinity(tail, 1.0, spec),
                                 f"{piece} tail")
    return (head_val + tail_val) / r


def log_eta(e: SpectralMeasure, tau, spec=None):
    """log eta(tau) = int_0^inf log(1 - exp(-tau v)) e(v) dv, tau > 0.

    Nonpositive whenever e >= 0.  One thermal integral (_thermal_integral)
    of the kernel log(1 - exp(-x)), taken as log(-expm1(-x)), so tau v may
    lie far below the rounding of 1.
    """
    if not tau > 0:
        raise ValueError(f"log_eta needs tau > 0, got {tau!r}")
    if e.is_zero:
        return 0.0
    return _thermal_integral(lambda x: math.log(-math.expm1(-x)), e, tau,
                             spec, "log_eta")


# B_2k / (2k (2k - 1)), k = 1..12: Stirling's series for Binet's function
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
             1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0,
             -3617.0 / 122400.0, 43867.0 / 244188.0, -174611.0 / 125400.0,
             77683.0 / 5796.0, -236364091.0 / 1506960.0)


def one_point_log_eta_closed(m: OnePointModel, tau):
    """Closed form of log eta for the one-point pair: minus Binet's function.

    With z = 2 alpha tau,

        log eta = -mu(z),  mu(z) = log Gamma(z) - (z - 1/2) log z + z
                                   - (1/2) log 2 pi,

    Binet's remainder in Stirling's formula (log eta < 0, decaying like
    -1/(12 z)).  The direct difference cancels O(z log z) terms, so mu is
    summed instead: for z >= 7 as Stirling's series sum_k B_2k / (2k (2k-1)
    z^(2k-1)) through k = 12 (DLMF 5.11.1; truncation below 2e-16
    relative), and below 7 through the recurrence
    mu(z) = mu(z + 1) + (z + 1/2) log(1 + 1/z) - 1.
    """
    if not m.alpha > 0:
        raise ValueError("closed eta form needs alpha > 0")
    if not tau > 0:
        raise ValueError(f"log_eta needs tau > 0, got {tau!r}")
    z = 2.0 * m.alpha * tau
    mu = 0.0
    while z < 7.0:
        mu += (z + 0.5) * math.log1p(1.0 / z) - 1.0
        z += 1.0
    w = 1.0 / (z * z)
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * w + c
    return -(mu + series / z)


def relative_partition(e: SpectralMeasure, laurent: LaurentData,
                       th: ThermalState, spec=None) -> PartitionReport:
    """Assemble log Z and the vacuum energy from measure and Laurent data."""
    eta_log = log_eta(e, th.beta, spec)
    scale = math.log(2.0 * th.ell) - 1.0
    log_z = th.beta * scale * laurent.residue \
        - 0.5 * th.beta * laurent.finite_part - eta_log
    e_vac = -scale * laurent.residue + 0.5 * laurent.finite_part
    return PartitionReport(log_z=log_z, vacuum_energy=e_vac,
                           eta_log=eta_log, laurent=laurent,
                           model=e.model.describe())


def one_point_partition(m: OnePointModel, th: ThermalState,
                        spec=None) -> PartitionReport:
    """Partition report for the one-point pair (generic assembly)."""
    return relative_partition(one_point_spectral_measure(m),
                              one_point_laurent(m) if m.alpha > 0
                              else LaurentData(0.0, 0.0), th, spec)


def one_point_log_z_closed(m: OnePointModel, th: ThermalState):
    """Closed form of the one-point log Z, for cross-checking the assembly.

    log Z = 2 alpha beta (log(8 pi alpha ell) - 1) + log Gamma(2 alpha beta)
            + (1/2) log(2 alpha beta) - 2 alpha beta (log(2 alpha beta) - 1)
            - (1/2) log 2 pi.

    This is the Laurent-data assembly with log eta in its Gamma-function
    form; the low-temperature slope is -E_vac = -2 alpha (1 - log(8 pi
    alpha ell)) as required by the vacuum-energy formula.
    """
    if m.alpha == 0.0:
        return 0.0
    scale_term = 2.0 * m.alpha * th.beta * (
        math.log(8.0 * math.pi * m.alpha * th.ell) - 1.0)
    return scale_term - one_point_log_eta_closed(m, th.beta)


# Beyond this many Matsubara terms log eta is taken on the real axis.
_MAX_MATSUBARA_TERMS = 100_000


def _two_point_log_eta(m: TwoPointModel, tau, e_int, spec):
    # terms past x = 20 are below 5e-18 of the first:
    # |log(1 - g(x))| <= exp(-2x) |log(1 - g(0))|; 20/step itself
    # overflows (or divides by zero) for tau near the float maximum
    step = 2.0 * math.pi * m.a / tau
    if step * (_MAX_MATSUBARA_TERMS + 1) <= 20.0:
        return log_eta(two_point_spectral_measure(m), tau, spec)
    count = int(20.0 / step)
    log_factor = two_point_interaction(m)[1]
    matsubara = math.fsum([0.5 * log_factor(0.0)]
                          + [log_factor(n * step)
                             for n in range(1, count + 1)])
    return (one_point_log_eta_closed(OnePointModel(m.alpha0), tau)
            + one_point_log_eta_closed(OnePointModel(m.alpha1), tau)
            + matsubara - tau * e_int)


def two_point_log_eta(m: TwoPointModel, tau, spec=None):
    """log eta of the two-point pair as a Matsubara sum, tau > 0.

        log eta = log eta1(alpha0) + log eta1(alpha1)
                  + sum'_{n>=0} log(1 - g(2 pi n a / tau)) - tau E_int,

    with the closed one-point forms, the n = 0 term halved and E_int from
    zetareg.two_point_interaction_energy; spec applies to E_int.  The sum
    takes about 3 tau/a terms.  Past _MAX_MATSUBARA_TERMS of them
    (tau > 3e4 a) the real-axis quadrature log_eta is used instead: its
    integrand dies within v ~ 40/tau, so its cost does not grow with tau,
    and exp(-tau v) damps the cos(2av) tail, so no panel summation is
    needed.
    """
    if not tau > 0:
        raise ValueError(f"log_eta needs tau > 0, got {tau!r}")
    return _two_point_log_eta(m, tau, two_point_interaction_energy(m, spec),
                              spec)


def two_point_partition(m: TwoPointModel, th: ThermalState,
                        spec=None) -> PartitionReport:
    """Partition report for the two-point pair, assembled term by term.

    The four contributions (scale term, one-point finite parts, interaction
    energy -beta E_int, thermal eta) are reported in ``terms``; log Z is
    their sum.  On the Matsubara route the beta E_int of the interaction
    term cancels against the one inside log eta, so log Z itself is the
    closed one-point parts minus the Matsubara sum.
    """
    e_int = two_point_interaction_energy(m, spec)
    eta_log = _two_point_log_eta(m, th.beta, e_int, spec)
    singles = sum(one_point_laurent(OnePointModel(alpha)).finite_part
                  for alpha in (m.alpha0, m.alpha1))
    laurent = LaurentData(2.0 * (m.alpha0 + m.alpha1),
                          singles + 2.0 * e_int)
    scale = math.log(2.0 * th.ell) - 1.0
    terms = {
        "scale_term": th.beta * scale * laurent.residue,
        "one_point_term": -0.5 * th.beta * singles,
        "interaction_term": -th.beta * e_int,
        "eta_term": -eta_log,
    }
    log_z = sum(terms.values())
    e_vac = -scale * laurent.residue + 0.5 * laurent.finite_part
    return PartitionReport(log_z=log_z, vacuum_energy=e_vac,
                           eta_log=eta_log, laurent=laurent,
                           model=m.describe(), terms=terms)


def casimir_force(m: TwoPointModel, spec=None) -> ForceEstimate:
    """Casimir force -dE_vac/da from the imaginary-axis interaction energy.

    One mapped quadrature of the exact a-derivative (see the module
    docstring), taken in units of g(0) = 1/(c0 c1): the integrand is
    c0 c1 g (2x + 2)/(1 - g), of order 1 near x = 0 wherever the
    parameters lie.  Unscaled, with c0 tiny and c1 huge, the integral would
    sit far below abs_tol and be accepted before any node reached its
    feature of width c0 at x = 0.  spec bounds the error of the scaled
    integral, and the error estimate is that quadrature error times
    1/(2 pi a^2 c0 c1).  The force depends on neither beta nor ell.
    """
    c0 = 4.0 * math.pi * m.alpha0 * m.a
    c1 = 4.0 * math.pi * m.alpha1 * m.a

    def integrand(x):
        # c0 c1 g, formed without c0 c1 itself, which may overflow
        h = math.exp(-2.0 * x) / ((1.0 + x / c0) * (1.0 + x / c1))
        return h * (2.0 * x + 2.0) / (1.0 - h / c0 / c1)

    res = integrate_to_infinity(integrand, 0.0, spec)
    scale = 1.0 / (2.0 * math.pi * m.a * m.a * c0 * c1)
    return ForceEstimate(
        value=-scale * require_converged(res, "casimir force"),
        error_estimate=scale * res.error_estimate)
