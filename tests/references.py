"""Reference routes that only the tests use.

Each is an independent way to a quantity the library computes another way:

* the resolvent-trace differences r(k) = Tr(R(k^2, L) - R(k^2, L0)) of
  both models, and the relative spectral measure taken from them as the
  jump across the continuous spectrum with the rims a finite angle apart
  (two_rim_measure), for the closed forms of models;
* log eta through the thermal mode series (eta_series_check), which runs
  through the same thermal integral as thermo.log_eta;
* a bounded-interval quadrature on the adaptive engine of quad
  (integrate_finite), which the library itself only enters through the
  map of integrate_to_infinity.
"""

import cmath
import math

from relspec import quad
from relspec.models import (Model, OnePointModel, SpectralMeasure,
                            TwoPointModel)
from relspec.thermo import _thermal_integral


class WrongSheetError(ValueError):
    """Resolvent requested off the physical sheet (Im k <= 0)."""


class SingularPointError(ArithmeticError):
    """Resolvent denominator vanished at the requested point."""


def _require_upper_half(k):
    k = complex(k)
    if not (math.isfinite(k.real) and math.isfinite(k.imag)):
        raise WrongSheetError(f"k must be finite, got {k!r}")
    if k.imag <= 0:
        raise WrongSheetError(
            f"resolvent trace is defined for Im k > 0, got k = {k!r}")
    return k


def one_point_resolvent_trace(m: OnePointModel, k):
    """Tr(R(k^2, -Delta_alpha) - R(k^2, -Delta)) = 1/(2ik(4 pi alpha - ik))."""
    k = _require_upper_half(k)
    denom = 2j * k * (4.0 * math.pi * m.alpha - 1j * k)
    if denom == 0:
        raise SingularPointError(f"resolvent trace singular at k = {k!r}")
    return 1.0 / denom


def two_point_resolvent_trace(m: TwoPointModel, k):
    """Trace of the two-center resolvent difference at spectral point k.

    The trace is (a^2/(ika)) * N / D with

        N = 2 pi (alpha0 + alpha1) a - ika + exp(2ika)
        D = (4 pi alpha0 a - ika)(4 pi alpha1 a - ika) - exp(2ika)

    and is symmetric under alpha0 <-> alpha1.
    """
    k = _require_upper_half(k)
    a = m.a
    ika = 1j * k * a
    phase = cmath.exp(2j * k * a)
    num = 2.0 * math.pi * (m.alpha0 + m.alpha1) * a - ika + phase
    den = ((4.0 * math.pi * m.alpha0 * a - ika)
           * (4.0 * math.pi * m.alpha1 * a - ika) - phase)
    if den == 0:
        raise SingularPointError(f"resolvent trace singular at k = {k!r}")
    return (a * a / ika) * num / den


def two_rim_measure(m: Model, v, eps):
    """Relative spectral measure evaluated with an explicit rim offset.

    Computes (v/(pi i)) (r(k_lower) - r(k_upper)) with the spectral
    parameter rotated off the cut by +-eps/2; the exact measure is the
    eps -> 0 limit, approached linearly.
    """
    if v <= 0:
        raise ValueError("two_rim_measure needs v > 0")
    if not 0 < eps < math.pi:
        raise ValueError("eps must lie in (0, pi)")
    k_up = v * cmath.exp(0.5j * eps)
    k_low = v * cmath.exp(1j * (math.pi - 0.5 * eps))
    if isinstance(m, OnePointModel):
        r_up = one_point_resolvent_trace(m, k_up)
        r_low = one_point_resolvent_trace(m, k_low)
    else:
        r_up = two_point_resolvent_trace(m, k_up)
        r_low = two_point_resolvent_trace(m, k_low)
    return (v / (math.pi * 1j)) * (r_low - r_up)


_EULER_GAMMA = 0.5772156649015329


def _e1(x):
    """Exponential integral E1(x) = int_x^inf exp(-t)/t dt for x > 0.

    The power series (DLMF 6.6.2) up to x = 1, the continued fraction
    (DLMF 6.9.1, even part, modified Lentz) above.
    """
    if x <= 1.0:
        total = 0.0
        term = 1.0
        k = 1
        while True:
            term *= -x / k
            total += term / k
            if abs(term) <= 1e-17 * abs(total):
                return -_EULER_GAMMA - math.log(x) - total
            k += 1
    # E1 = exp(-x) / (x + 1 - 1/(x + 3 - 4/(x + 5 - ...)))
    b = x + 1.0
    c = 1e300  # modified Lentz starts C at 1/tiny
    d = 1.0 / b
    h = d
    k = 1
    while True:
        a = -float(k * k)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        step = c * d
        h *= step
        if abs(step - 1.0) < 3e-16:  # within an ulp of 1
            return h * math.exp(-x)
        k += 1


def eta_series_check(e: SpectralMeasure, tau, n_max, spec=None):
    """log eta through the thermal mode series, for cross-validation.

    Expanding the logarithm, log(1 - exp(-x)) = -sum_{n>=1} exp(-n x)/n.
    The mode terms decay only like n^-2 (the measure is finite at v = 0),
    so the sum through N = n_max is followed by the Euler-Maclaurin
    remainder sum_{n>N} f(n) ~ int_{N+1/2}^inf f + f'(N + 1/2)/24.  By
    linearity sum and remainder are one thermal integral
    (thermo._thermal_integral, two quadratures whatever N is) of the
    kernel, with m = N + 1/2,

        S_N(x) = -[sum_{n<=N} exp(-n x)/n + E1(m x)
                   - exp(-m x) (1/m^2 + x/m)/24].

    The corrected value approaches log_eta as n_max grows and its residual
    stays below the first omitted term.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not tau > 0:
        raise ValueError(f"eta series needs tau > 0, got {tau!r}")
    if e.is_zero:
        return 0.0
    mid = n_max + 0.5

    def kernel(x):
        partial = sum(math.exp(-n * x) / n for n in range(1, n_max + 1))
        return -(partial + _e1(mid * x)
                 - math.exp(-mid * x) * (1.0 / (mid * mid) + x / mid) / 24.0)

    return _thermal_integral(kernel, e, tau, spec, "eta series")


class _Counted:
    """f with a count of its calls, as quad._adaptive reads it."""

    __slots__ = ("f", "count")

    def __init__(self, f):
        self.f = f
        self.count = 0

    def __call__(self, x):
        self.count += 1
        return self.f(x)


def integrate_finite(f, lo, hi, spec=None):
    """quad's adaptive Gauss-Kronrod engine on the bounded interval
    (lo, hi)."""
    return quad._adaptive(_Counted(f), lo, hi, spec or quad.QuadratureSpec())
