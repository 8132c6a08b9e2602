"""Relative heat traces, zeta functions, and Laurent data at s = -1/2.

The relative zeta function of an operator pair with spectral measure e(v) is

    zeta(s) = int_0^inf v^(-2s) e(v) dv,

convergent on the strip -1/2 < Re s < 1/2 for the models implemented here
(e is bounded at v = 0 and decays like v^-2).  The thermodynamic formulas
need the residue and finite part of the continuation at s = -1/2, where the
v^-2 tail produces a simple pole.

Continuation strategy: split at v = 1, subtract the exact Lorentzian
measures of the individual interaction points from the tail, and carry the
subtracted pieces in closed form.  Writing e1(alpha; v) = 4 alpha /
((4 pi alpha)^2 + v^2),

    zeta(s) = int_0^1 v^(-2s) e dv
            + sum_j [ int_1^inf v^(-2s) (e1(alpha_j) - 4 alpha_j / v^2) dv
                      + 4 alpha_j / (2s + 1) ]
            + int_1^inf v^(-2s) h2(v) dv,

with h2 = e - sum_j e1(alpha_j).  The pole lives entirely in the explicit
4 alpha_j/(2s+1) terms; the h2 integral is an interaction remainder whose
oscillatory v^-2 tail is summed by half-period panels.  At s = -1/2 the
Lorentzian tail integrals collapse to -2 alpha_j log(1 + (4 pi alpha_j)^2),
which reproduces the closed one-point Laurent data exactly and keeps the
two-point evaluation well conditioned even when one coupling is huge.

The subtraction data (the couplings alpha_j, the cos(2av) period pi/a and
the Ci term) come from the model.  Every SpectralMeasure carries its model,
so the strip and the continuation need no other description of e.
"""

import cmath
import math
import warnings
from dataclasses import dataclass, replace

from .models import (OnePointModel, SpectralMeasure, TwoPointModel,
                     two_point_spectral_measure)
from .quad import (TIGHT, QuadratureSpec, integrate_finite,
                   integrate_to_infinity, require_converged)
from .specfun import cosine_integral, erfc_scaled

# Accelerated oscillatory tails have an honest error floor around 1e-10, so
# their internal default tolerance sits above it.
_OSC = QuadratureSpec(abs_tol=2e-9, rel_tol=1e-9)


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
    """Tr(exp(-tL) - exp(-tL0)) = int_0^inf exp(-v^2 t) e(v) dv for t > 0."""
    if not t > 0:
        raise ValueError(f"heat trace needs t > 0, got {t!r}")
    if e.is_zero:
        return 0.0
    spec = spec or TIGHT
    period = e.oscillation_period
    if period is not None:
        spec = replace(spec, oscillation_period=period)

    def integrand(v):
        return math.exp(-v * v * t) * e.eval(v)

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


def one_point_zeta_closed(m: OnePointModel, s):
    """Closed relative zeta (1/2) (4 pi alpha)^(-2s) / cos(pi s)."""
    s = complex(s)
    if m.alpha == 0.0:
        return 0.0 if s.imag == 0 else 0.0 + 0.0j
    cos_ps = cmath.cos(math.pi * s)
    if abs(cos_ps) < 1e-12:
        nearest = round(s.real - 0.5) + 0.5
        raise ZetaPoleError(
            f"zeta has a pole at half-integer s; s = {s} is too close to "
            f"{nearest}")
    val = 0.5 * (4.0 * math.pi * m.alpha) ** (-2.0 * s) / cos_ps
    if s.imag == 0:
        return val.real
    return val


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

def _lorentzian(alpha):
    c2 = (4.0 * math.pi * alpha) ** 2
    return lambda v: 4.0 * alpha / (c2 + v * v)


def _power_parts(s):
    """Real and imaginary integrand factors of v^(-2s)."""
    s = complex(s)
    sr, si = s.real, s.imag
    if si == 0.0:
        return (lambda v: v ** (-2.0 * sr)), None
    def re_part(v):
        return v ** (-2.0 * sr) * math.cos(2.0 * si * math.log(v))
    def im_part(v):
        return -v ** (-2.0 * sr) * math.sin(2.0 * si * math.log(v))
    return re_part, im_part


def _zeta_head(e, s, spec):
    """int_0^1 v^(-2s) e(v) dv.

    For Re s > 0 the integrable endpoint singularity is removed by the
    substitution v = u^q with q = 1/(1 - 2 Re s).
    """
    spec = spec or TIGHT
    s = complex(s)
    sr, si = s.real, s.imag
    if sr >= 0.5:
        raise ContinuationRequiredError(f"head integral diverges at s={s}")

    def one_part(imag):
        if sr > 0.05:
            q = 1.0 / (1.0 - 2.0 * sr)

            def f(u):
                v = u ** q
                base = q * e.eval(v)
                if si == 0.0:
                    return base
                phase = 2.0 * si * q * math.log(u)
                return base * (-math.sin(phase) if imag else math.cos(phase))
        else:
            rp, ip = _power_parts(s)
            power = ip if imag else rp

            def f(v):
                if v == 0.0:
                    return 0.0
                return power(v) * e.eval(v)
        res = integrate_finite(f, 0.0, 1.0, spec)
        return require_converged(res, f"zeta head at s={s}")

    real = one_part(False)
    if si == 0.0:
        return real
    return complex(real, one_part(True))


def _integral_tail(g, s, spec, oscillation_period=None):
    """int_1^inf v^(-2s) g(v) dv, handling complex s by two real passes.

    spec may be None; smooth tails then run at the tight default,
    oscillatory ones at the accelerator default.
    """
    s = complex(s)
    rp, ip = _power_parts(s)
    if oscillation_period is not None:
        spec = replace(spec or _OSC, oscillation_period=oscillation_period)
    else:
        spec = spec or TIGHT

    def run(power):
        f = lambda v: power(v) * g(v)
        res = integrate_to_infinity(f, 1.0, spec)
        return require_converged(res, f"zeta tail at s={s}")

    real = run(rp)
    if ip is None:
        return real
    return complex(real, run(ip))


def _lorentzian_tail(alpha, s, spec):
    """int_1^inf v^(-2s) (e1(alpha; v) - 4 alpha / v^2) dv (smooth)."""
    c2 = (4.0 * math.pi * alpha) ** 2

    def g(v):
        v2 = v * v
        return -4.0 * alpha * c2 / (v2 * (c2 + v2))

    return _integral_tail(g, s, spec)


def _lorentzian_tail_at_half(alpha):
    """The s = -1/2 value of the Lorentzian tail in closed form."""
    c2 = (4.0 * math.pi * alpha) ** 2
    return -2.0 * alpha * math.log1p(c2)


def _continued_zeta(e: SpectralMeasure, s, spec=None):
    """Analytic continuation of the zeta integral near and inside the strip.

    Valid for Re s in (-0.75, 0.5) excluding the pole at s = -1/2, which is
    carried by the explicit 4 alpha_j/(2s+1) terms.
    """
    s = complex(s)
    if e.is_zero:
        return 0.0 if s.imag == 0 else 0.0 + 0.0j
    if not -0.75 < s.real < 0.5:
        raise ContinuationRequiredError(
            f"continuation implemented for -0.75 < Re s < 0.5, got {s}")
    if s == -0.5:
        raise ZetaPoleError("zeta(s) has a simple pole at s = -1/2; "
                            "use the Laurent data instead")

    total = _zeta_head(e, s, spec)
    model = e.model
    if isinstance(model, OnePointModel):
        alphas = (model.alpha,)
    else:
        alphas = (model.alpha0, model.alpha1)
    for a in alphas:
        total += _lorentzian_tail(a, s, spec) + 4.0 * a / (2.0 * s + 1.0)
    if isinstance(model, TwoPointModel):
        lorentzians = [_lorentzian(a) for a in alphas]

        def h2(v):
            return e.eval(v) - sum(l(v) for l in lorentzians)
        total += _integral_tail(h2, s, spec,
                                oscillation_period=e.oscillation_period)
    return total if s.imag != 0 else complex(total).real


def relative_zeta_in_strip(e: SpectralMeasure, s, spec=None):
    """zeta(s) = int_0^inf v^(-2s) e(v) dv for s inside the strip.

    Real s gives an exactly real result (all quadratures run on real
    integrands).  Outside the strip a ContinuationRequiredError is raised;
    the Laurent data functions handle s = -1/2.
    """
    if not -0.5 < complex(s).real < 0.5:
        raise ContinuationRequiredError(
            f"s = {s} outside convergence strip "
            "(-0.5, 0.5); use the continuation/Laurent API")
    return _continued_zeta(e, s, spec)


def two_point_laurent_parts(m: TwoPointModel, spec=None):
    """Pieces of the two-point continuation at s = -1/2.

    Returns a dict with zeta0 (head integral), z_a (subtracted tail
    integral), ci_term (2 Ci(2a)/(pi a), the closed finite part of the
    oscillatory tail), residue and finite_part.
    """
    e = two_point_spectral_measure(m)
    head_res = integrate_finite(lambda v: v * e.eval(v), 0.0, 1.0,
                                spec or TIGHT)
    zeta0 = require_converged(head_res, "zeta0 (head integral)")

    lor0 = _lorentzian(m.alpha0)
    lor1 = _lorentzian(m.alpha1)

    def vh2(v):
        return v * (e.eval(v) - lor0(v) - lor1(v))

    osc_spec = replace(spec or _OSC, oscillation_period=e.oscillation_period)
    tail_res = integrate_to_infinity(vh2, 1.0, osc_spec)
    interaction = require_converged(tail_res, "zA (interaction tail)")

    closed = (_lorentzian_tail_at_half(m.alpha0)
              + _lorentzian_tail_at_half(m.alpha1))
    ci_term = 2.0 * cosine_integral(2.0 * m.a) / (math.pi * m.a)
    z_a = closed + interaction - ci_term
    residue = 2.0 * (m.alpha0 + m.alpha1)
    finite = zeta0 + z_a + ci_term
    return {
        "zeta0": zeta0,
        "z_a": z_a,
        "ci_term": ci_term,
        "residue": residue,
        "finite_part": finite,
    }


def two_point_laurent(m: TwoPointModel, spec=None) -> LaurentData:
    """Laurent data of the two-point zeta at s = -1/2.

    The residue 2 (alpha0 + alpha1) is exact; the finite part combines the
    head integral, the subtracted tail and the closed cosine-integral term.
    """
    parts = two_point_laurent_parts(m, spec)
    return LaurentData(parts["residue"], parts["finite_part"])


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
