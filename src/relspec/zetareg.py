"""Relative heat traces, zeta functions, and Laurent data at s = -1/2.

The relative zeta function of an operator pair with spectral measure e(v) is

    zeta(s) = int_0^inf v^(-2s) e(v) dv,

convergent on the strip -1/2 < s < 1/2 for the models implemented here
(e is bounded at v = 0 and decays like v^-2).  The thermodynamic formulas
need the residue and finite part of the continuation at s = -1/2, where the
v^-2 tail produces a simple pole.  Only real s is supported.

One-point pair: the measure e1(alpha; v) = 4 alpha / (c^2 + v^2),
c = 4 pi alpha, is a Lorentzian of width c.  In w = v/c (4 alpha/c = 1/pi)
the tail w > 1 folds onto (0, 1) by w -> 1/w, and its w^(2s) pole part
integrates in closed form,

    zeta(s) = (c^(-2s)/pi) [int_0^1 w^(-2s) (1 - w^(4s+2))/(1 + w^2) dw
                            + 1/(2s + 1)],

one O(1) integral for every alpha, with the pole in the explicit
1/(2s + 1).  This quadrature cross-checks the closed one-point forms.

Two-point pair: on the imaginary axis the determinant of the resolvent
trace factorizes into the two one-center factors times 1 - g(x), x = xi a
(models.two_point_interaction).  With L = log(1 - g) and the closed
one-point zeta1,

    zeta(s) = zeta1(alpha0; s) + zeta1(alpha1; s)
            + (sin(pi s) / pi) a^(2s) int_0^inf x^(-2s) L'(x) dx.

L' decays like exp(-2x), so the interaction term is a smooth integral,
analytic for real s < 1/2 and free of the pole: the residue is
2 (alpha0 + alpha1), and at s = -1/2 the interaction term becomes 2 E_int,

    E_int = (1/(2 pi a)) int_0^inf L(x) dx,   R0 = R0(alpha0) + R0(alpha1)
                                                   + 2 E_int.

The paper's real-axis route stays as two_point_laurent_parts, the
independent cross-check: split at v = 1, subtract both Lorentzians from the
tail and restore them in closed form (-2 alpha_j log(1 + (4 pi alpha_j)^2)
at s = -1/2), and integrate v h2, h2 = e - e1(alpha0) - e1(alpha1), over
(1, inf).  v h2 decays only like cos(2av)/v there, so it is taken on the
line v = 1 + ix/a (models.two_point_interaction_ratio), where it decays
like exp(-2x).

The two-point heat trace is the closed one-point traces plus the integral
of exp(-v^2 t) h2(v), moved off the real axis onto the line Im v = a/t
through the saddle of exp(-v^2 t + 2iva) (two_point_heat_trace).  There
the Gaussian-times-phase factor is exp(-a^2/t) exp(-t x^2), so the
integrand is smooth.  relative_heat_trace on the two-point measure is its
real-axis cross-check, one mapped integral as well: exp(-v^2 t) damps the
cos(2av) tail.
"""

import cmath
import math
import warnings
from dataclasses import dataclass

from .models import (OnePointModel, SpectralMeasure, TwoPointModel,
                     two_point_interaction, two_point_interaction_ratio,
                     two_point_spectral_measure)
from .quad import integrate_to_infinity, require_converged
from .specfun import erfc_scaled


class ContinuationRequiredError(ValueError):
    """s lies outside the convergence strip of the direct integral."""


class ZetaPoleError(ZeroDivisionError):
    """Closed-form zeta evaluated at a pole of 1/cos(pi s)."""


class ProbeInconsistencyError(ArithmeticError):
    """Richardson levels of the numeric Laurent probe disagree."""

    def __init__(self, quantity, coarse, fine):
        self.quantity = quantity
        self.coarse = coarse
        self.fine = fine
        super().__init__(
            f"laurent probe extrapolation inconsistent for {quantity}: "
            f"{coarse!r} vs {fine!r}")


@dataclass(frozen=True)
class LaurentData:
    """Laurent coefficients of zeta(s) at s = -1/2.

    residue multiplies 1/(s + 1/2); finite_part is the constant term.
    """

    residue: float
    finite_part: float


def relative_heat_trace(e: SpectralMeasure, t, spec=None):
    """Tr(exp(-tL) - exp(-tL0)) = int_0^inf exp(-v^2 t) e(v) dv for t > 0.

    The generic real-axis integral of a measure, one mapped quadrature:
    exp(-v^2 t) damps the cos(2av) tail of a two-point measure too.  For
    two centers it is the cross-check of two_point_heat_trace.  It is
    taken in z = v sqrt(t), int_0^inf exp(-z^2) e(z/sqrt(t))/sqrt(t) dz,
    so the mass of the integrand sits at z ~ 1 for every t and the nodes
    of the mapped quadrature land on it.
    """
    if not t > 0:
        raise ValueError(f"heat trace needs t > 0, got {t!r}")
    if e.is_zero:
        return 0.0
    root_t = math.sqrt(t)

    def integrand(z):
        return math.exp(-z * z) * e.eval(z / root_t) / root_t

    res = integrate_to_infinity(integrand, 0.0, spec)
    return require_converged(res, f"heat trace at t={t:g}")


def one_point_heat_trace_closed(m: OnePointModel, t):
    """Closed heat trace (1/2) exp(c^2 t) erfc(c sqrt(t)), c = 4 pi alpha.

    Evaluated through the scaled erfc, so it cannot overflow for large
    alpha^2 t.  Note the alpha = 0 value is 1/2 for all t: the zero-strength
    point interaction is a threshold-resonant operator, not the free one,
    and its relative trace keeps the constant 1/2 that the pointwise-zero
    spectral measure convention drops.
    """
    if not t > 0:
        raise ValueError(f"heat trace needs t > 0, got {t!r}")
    return 0.5 * erfc_scaled(4.0 * math.pi * m.alpha * math.sqrt(t))


def two_point_heat_trace(m: TwoPointModel, t, spec=None):
    """Two-point heat trace on the steepest-descent line Im v = a/t.

    K = K1(alpha0) + K1(alpha1) + K_int with the closed one-point traces
    and R = models.two_point_interaction_ratio,

        K_int = (2a/pi) exp(-a^2/t) int_0^inf exp(-t x^2)
                Re R(x + i a/t) dx.

    On the real axis h2 = (2a/pi) Re(exp(2iva) R) is the measure minus
    its one-point Lorentzians; R is analytic for Im v >= 0, so the
    integral moves to the line through the saddle of exp(-v^2 t + 2iva),
    where that factor is exp(-a^2/t) exp(-t x^2) and nothing oscillates.
    Past a^2/t = 745 the prefactor underflows and K_int is exactly 0.
    spec applies to K_int, taken in z = x sqrt(t).
    """
    if not t > 0:
        raise ValueError(f"heat trace needs t > 0, got {t!r}")
    a = m.a
    b = a * a / t
    ones = sum(one_point_heat_trace_closed(OnePointModel(alpha), t)
               for alpha in (m.alpha0, m.alpha1))
    root_t = math.sqrt(t)
    scale = 2.0 * a / (math.pi * root_t) * math.exp(-b)
    if scale == 0.0:
        return ones
    ratio = two_point_interaction_ratio(m)

    def integrand(z):
        # v a = x a + i a^2/t on the line
        return scale * math.exp(-z * z) * ratio(z * a / root_t, b).real

    res = integrate_to_infinity(integrand, 0.0, spec)
    return ones + require_converged(res, f"heat trace at t={t:g}")


def one_point_zeta_closed(m: OnePointModel, s):
    """Closed relative zeta (1/2) (4 pi alpha)^(-2s) / cos(pi s), real s."""
    if m.alpha == 0.0:
        return 0.0
    cos_ps = math.cos(math.pi * s)
    if abs(cos_ps) < 1e-12:
        nearest = round(s - 0.5) + 0.5
        raise ZetaPoleError(
            f"zeta has a pole at half-integer s; s = {s} is too close to "
            f"{nearest}")
    return 0.5 * (4.0 * math.pi * m.alpha) ** (-2.0 * s) / cos_ps


def one_point_laurent(m: OnePointModel) -> LaurentData:
    """Laurent data at s = -1/2: residue 2 alpha, finite part
    -4 alpha log(4 pi alpha)."""
    if m.alpha == 0.0:
        warnings.warn("one-point model with alpha = 0 is degenerate; "
                      "Laurent data is identically zero", stacklevel=2)
        return LaurentData(0.0, 0.0)
    return LaurentData(2.0 * m.alpha,
                       -4.0 * m.alpha * math.log(4.0 * math.pi * m.alpha))


# ----------------------------------------------------------------------
# continuation core
# ----------------------------------------------------------------------

def _power_head(f, s, spec, piece):
    """int_0^1 x^(-2s) f(x) dx for real s < 1/2 and f smooth on (0, 1].

    The exact substitution z = -(1 - 2s) log x, q = 1/(1 - 2s), turns it
    into int_0^inf q exp(-z) f(exp(-qz)) dz, one mapped quadrature for
    every s: the endpoint power becomes the factor exp(-z), the pole at
    s = 1/2 stays in the explicit q, and a power or log singularity of f
    at 0 becomes a growth in z that exp(-z) damps.
    """
    q = 1.0 / (1.0 - 2.0 * s)

    def integrand(z):
        return q * math.exp(-z) * f(math.exp(-q * z))

    res = integrate_to_infinity(integrand, 0.0, spec)
    return require_converged(res, f"{piece} at s={s:g}")


def _interaction_tail(m: TwoPointModel, spec):
    """zA = int_1^inf v h2(v) dv, the s = -1/2 tail of a two-point measure.

    On the real axis v h2 = (2a/pi) Re(v exp(2iva) R) decays only like
    cos(2av)/v.  R has no poles for Im v >= 0, so zA moves to the line
    v = 1 + ix/a: (2/pi) int_0^inf Re(i v exp(2iva) R) dx, where
    exp(2iva) = exp(2ia) exp(-2x).
    """
    a = m.a
    ratio = two_point_interaction_ratio(m)
    phase = cmath.exp(2j * a)

    def f(x):
        # v a = a + ix on the line
        return ((1j * complex(a, x) * phase * ratio(a, x)).real
                * math.exp(-2.0 * x))

    res = integrate_to_infinity(f, 0.0, spec)
    return (2.0 / (math.pi * a)
            * require_converged(res, "zA (interaction tail) at s=-0.5"))


def _interaction_zeta(m: TwoPointModel, s, spec):
    """zeta_int(s) = (sin pi s / pi) a^(2s) int_0^inf x^(-2s) L'(x) dx,

    L = log(1 - g) the interaction factor of the imaginary-axis
    determinant; split at x = 1 into a power head and a mapped tail.
    """
    dlog = two_point_interaction(m)[2]

    def tail(x):
        return x ** (-2.0 * s) * dlog(x)

    head = _power_head(dlog, s, spec, "zeta_int (interaction head)")
    res = integrate_to_infinity(tail, 1.0, spec)
    total = head + require_converged(
        res, f"zeta_int (interaction tail) at s={s:g}")
    return math.sin(math.pi * s) / math.pi * m.a ** (2.0 * s) * total


def two_point_interaction_energy(m: TwoPointModel, spec=None):
    """E_int = (1/(2 pi a)) int_0^inf log(1 - g(x)) dx, the a-dependent
    part of R0/2 (one mapped quadrature on the imaginary axis)."""
    res = integrate_to_infinity(two_point_interaction(m)[1], 0.0, spec)
    return (require_converged(res, "E_int (interaction energy)")
            / (2.0 * math.pi * m.a))


def _continued_zeta(e: SpectralMeasure, s, spec=None):
    """Analytic continuation of the zeta integral to real s in (-0.75, 0.5).

    The pole at s = -1/2 is carried by the explicit 1/(2s+1) term of the
    one-point integral and by the closed one-point forms of the two-point
    pair, so s = -1/2 itself is excluded.
    """
    if e.is_zero:
        return 0.0
    if not -0.75 < s < 0.5:
        raise ContinuationRequiredError(
            f"continuation implemented for -0.75 < s < 0.5, got {s}")
    if s == -0.5:
        raise ZetaPoleError("zeta(s) has a simple pole at s = -1/2; "
                            "use the Laurent data instead")

    m = e.model
    if isinstance(m, OnePointModel):
        # the integral in w = v/c of the module docstring
        p = 4.0 * s + 2.0

        def f(w):
            if w == 0.0:  # exp(-qz) underflowed near s = 1/2, where p > 0
                return 1.0
            return -math.expm1(p * math.log(w)) / (1.0 + w * w)

        c = 4.0 * math.pi * m.alpha
        return c ** (-2.0 * s) / math.pi * (
            _power_head(f, s, spec, "zeta1 (one-point integral)")
            + 1.0 / (2.0 * s + 1.0))
    return (one_point_zeta_closed(OnePointModel(m.alpha0), s)
            + one_point_zeta_closed(OnePointModel(m.alpha1), s)
            + _interaction_zeta(m, s, spec))


def relative_zeta_in_strip(e: SpectralMeasure, s, spec=None):
    """zeta(s) = int_0^inf v^(-2s) e(v) dv for real s inside the strip.

    Outside the strip a ContinuationRequiredError is raised; the Laurent
    data functions handle s = -1/2.  Complex s raises TypeError.
    """
    if not -0.5 < s < 0.5:
        raise ContinuationRequiredError(
            f"s = {s} outside convergence strip "
            "(-0.5, 0.5); use the continuation/Laurent API")
    return _continued_zeta(e, s, spec)


def two_point_laurent_parts(m: TwoPointModel, spec=None):
    """Pieces of the paper's real-axis continuation at s = -1/2.

    Returns a dict with zeta0 (head integral), residue and finite_part.
    The finite part is zeta0 plus the closed Lorentzian tails and the
    interaction tail int_1^inf v h2 dv (_interaction_tail).  This route
    takes the head on the real axis and is the independent cross-check of
    two_point_laurent.  The head fails to converge at a >= 1e4, where e(v)
    has more than 3,000 periods on (0, 1).
    """
    zeta0 = _power_head(two_point_spectral_measure(m).eval, -0.5, spec,
                        "zeta0 (head integral)")
    tails = (sum(-2.0 * alpha * math.log1p((4.0 * math.pi * alpha) ** 2)
                 for alpha in (m.alpha0, m.alpha1))
             + _interaction_tail(m, spec))
    return {
        "zeta0": zeta0,
        "residue": 2.0 * (m.alpha0 + m.alpha1),
        "finite_part": zeta0 + tails,
    }


def two_point_laurent(m: TwoPointModel, spec=None) -> LaurentData:
    """Laurent data of the two-point zeta at s = -1/2.

    The residue 2 (alpha0 + alpha1) is exact; the finite part is
    R0(alpha0) + R0(alpha1) + 2 E_int, the closed one-point parts plus
    the imaginary-axis interaction energy.
    """
    singles = sum(one_point_laurent(OnePointModel(alpha)).finite_part
                  for alpha in (m.alpha0, m.alpha1))
    return LaurentData(2.0 * (m.alpha0 + m.alpha1),
                       singles + 2.0 * two_point_interaction_energy(m, spec))


def numeric_laurent_probe(e: SpectralMeasure, deltas=(0.04, 0.02, 0.01),
                          consistency_tol=1e-4, spec=None) -> LaurentData:
    """Residue and finite part at s = -1/2 by Richardson extrapolation.

    Evaluates the continued zeta at s = -1/2 +- delta for a halving ladder
    of deltas; the symmetric/antisymmetric combinations isolate residue and
    finite part with even-power error expansions, which two Richardson
    levels then eliminate.  This is a cross-check of the closed Laurent
    data through an independent numerical path.
    """
    if e.is_zero:
        return LaurentData(0.0, 0.0)
    if any(d2 * 2 != d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ValueError("deltas must halve at each step")

    res_ladder = []
    fin_ladder = []
    for d in deltas:
        z_plus = _continued_zeta(e, -0.5 + d, spec)
        z_minus = _continued_zeta(e, -0.5 - d, spec)
        res_ladder.append(d * (z_plus - z_minus) / 2.0)
        fin_ladder.append((z_plus + z_minus) / 2.0)

    def richardson(values):
        # even error expansion in delta, ladder halves delta each step
        table = list(values)
        levels = [table[-1]]
        factor = 4.0
        while len(table) > 1:
            table = [(factor * b - a) / (factor - 1.0)
                     for a, b in zip(table, table[1:])]
            levels.append(table[-1])
            factor *= 4.0
        return levels

    res_levels = richardson(res_ladder)
    fin_levels = richardson(fin_ladder)
    for name, levels in (("residue", res_levels),
                         ("finite part", fin_levels)):
        scale = max(1.0, abs(levels[-1]))
        if abs(levels[-1] - levels[-2]) > consistency_tol * scale:
            raise ProbeInconsistencyError(name, levels[-2], levels[-1])
    return LaurentData(res_levels[-1], fin_levels[-1])
