"""Reference values for every row the benchmarked CLI prints.

Nothing here imports relspec.  One-point quantities come from closed forms
(math.lgamma, scipy.special.erfcx); two-point tables integrate the
benchmark's own copy of the relative spectral measure with
scipy.integrate.quad; Laurent data and Casimir forces use the
imaginary-axis (Lifshitz/TGTG) form of the interaction energy,

    E_int(a) = (1/2 pi) int_0^inf log(1 - g(xi)) dxi,
    g(xi)    = exp(-2 xi a) / ((4 pi alpha0 + xi)(4 pi alpha1 + xi) a^2),

so that R0(two-point) = R0(alpha0) + R0(alpha1) + 2 E_int(a) and
F = -dE_int/da = -(1/2 pi) int_0^inf g (2 xi + 2/a) / (1 - g) dxi
(Kenneth & Klich, PRL 97, 160401, 2006).

Two-point real-axis integrals subtract the two one-point Lorentzians
(carried in closed form) and integrate the interaction remainder

    h2(v) = (2a/pi) Re( e^{2iva} (Q + A - iva) / (Q (Q - e^{2iva})) ),
    Q = (c0 - iva)(c1 - iva),  c_j = 4 pi alpha_j a,
    A = 2 pi (alpha0 + alpha1) a,

directly up to a split point and, beyond it, harmonic by harmonic with
QUADPACK's Fourier-weight routine (see _two_point_real_axis).
"""

import cmath
import functools
import math

from scipy.integrate import quad
from scipy.special import erfcx

_FOUR_PI = 4.0 * math.pi
_LOG_2PI = math.log(2.0 * math.pi)
_CACHE = 4096


# ----------------------------------------------------------------------
# one-point closed forms
# ----------------------------------------------------------------------

def binet(z):
    """log Gamma(z) - Stirling's approximation; the Stirling series for
    large z avoids the cancellation of the direct difference."""
    if z >= 10.0:
        z2 = z * z
        inner = 1.0 / 1260.0 - 1.0 / (1680.0 * z2)
        return (1.0 / 12.0 - (1.0 / 360.0 - inner / z2) / z2) / z
    return math.lgamma(z) + 0.5 * math.log(z) - z * (math.log(z) - 1.0) \
        - 0.5 * _LOG_2PI


def one_heat(alpha, t):
    return 0.5 * float(erfcx(_FOUR_PI * alpha * math.sqrt(t)))


def one_zeta(alpha, s):
    return 0.5 * (_FOUR_PI * alpha) ** (-2.0 * s) / math.cos(math.pi * s)


def one_log_eta(alpha, tau):
    return -binet(2.0 * alpha * tau)


def one_finite_part(alpha):
    return -4.0 * alpha * math.log(_FOUR_PI * alpha)


# ----------------------------------------------------------------------
# two-point: imaginary axis
# ----------------------------------------------------------------------

def _g(alpha0, alpha1, a, xi):
    return math.exp(-2.0 * xi * a) / (
        (_FOUR_PI * alpha0 + xi) * (_FOUR_PI * alpha1 + xi) * a * a)


def _imag_axis(f, a):
    # g decays like exp(-2 xi a); splitting at a few decay lengths keeps
    # QUADPACK from sampling the flat far tail only
    scale = 1.0 / a
    points = [0.0, scale, 5.0 * scale, 20.0 * scale, 60.0 * scale]
    total = 0.0
    for lo, hi in zip(points, points[1:]):
        total += quad(f, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
    return total


@functools.lru_cache(maxsize=_CACHE)
def interaction_energy(alpha0, alpha1, a):
    return _imag_axis(
        lambda xi: math.log1p(-_g(alpha0, alpha1, a, xi)), a) / (2.0 * math.pi)


@functools.lru_cache(maxsize=_CACHE)
def casimir_force(alpha0, alpha1, a):
    def f(xi):
        g = _g(alpha0, alpha1, a, xi)
        return g * (2.0 * xi + 2.0 / a) / (1.0 - g)
    return -_imag_axis(f, a) / (2.0 * math.pi)


def two_finite_part(alpha0, alpha1, a):
    return (one_finite_part(alpha0) + one_finite_part(alpha1)
            + 2.0 * interaction_energy(alpha0, alpha1, a))


# ----------------------------------------------------------------------
# two-point: real axis
# ----------------------------------------------------------------------

def _two_point_real_axis(alpha0, alpha1, a, weight):
    """int_0^inf weight(v) h2(v) dv for a smooth, non-oscillating weight.

    Past v1, where |Q| >= 1e4, 1/(Q - p) is expanded in p/Q, so that
    h2 = Re sum_n e^{2i(n+1)va} G_n(v) with G_n = (2a/pi)(Q + A - iva)/Q^{n+2}
    and each harmonic goes to QUADPACK's Fourier routine (QAWF).  Before
    v1 h2 is integrated directly, one period per call; the split
    keeps about 30 oscillations there.
    """
    c0 = _FOUR_PI * alpha0 * a
    c1 = _FOUR_PI * alpha1 * a
    big_a = 2.0 * math.pi * (alpha0 + alpha1) * a
    coeff = 2.0 * a / math.pi

    def q_of(v):
        iva = 1j * v * a
        return (c0 - iva) * (c1 - iva), iva

    def h2(v):
        q, iva = q_of(v)
        p = cmath.exp(2.0 * iva)
        return (coeff * p * (q + big_a - iva) / (q * (q - p))).real * weight(v)

    # |Q(v)| grows like v^2 a^2
    v1 = max(1.0, 100.0 / a)
    while abs(q_of(v1)[0]) < 1e4:
        v1 *= 1.5
    ratio = 1.0 / abs(q_of(v1)[0])
    harmonics = max(1, math.ceil(16.0 / -math.log10(ratio)))

    panels = max(1, math.ceil(v1 * a / math.pi))
    edges = [v1 * i / panels for i in range(panels + 1)]
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        total += quad(h2, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)[0]

    for n in range(harmonics):
        def amp(v, _n=n):
            q, iva = q_of(v)
            return coeff * (q + big_a - iva) / q ** (_n + 2) * weight(v)
        omega = 2.0 * (n + 1) * a
        total += quad(lambda v: amp(v).real, v1, math.inf, weight="cos",
                      wvar=omega, epsabs=1e-13, limlst=200)[0]
        total -= quad(lambda v: amp(v).imag, v1, math.inf, weight="sin",
                      wvar=omega, epsabs=1e-13, limlst=200)[0]
    return total


@functools.lru_cache(maxsize=_CACHE)
def two_heat(alpha0, alpha1, a, t):
    rest = _two_point_real_axis(alpha0, alpha1, a,
                                lambda v: math.exp(-v * v * t))
    return one_heat(alpha0, t) + one_heat(alpha1, t) + rest


@functools.lru_cache(maxsize=_CACHE)
def two_zeta(alpha0, alpha1, a, s):
    rest = _two_point_real_axis(alpha0, alpha1, a,
                                lambda v: v ** (-2.0 * s))
    return one_zeta(alpha0, s) + one_zeta(alpha1, s) + rest


@functools.lru_cache(maxsize=_CACHE)
def two_log_eta(alpha0, alpha1, a, tau):
    def weight(v):
        x = tau * v
        return math.log1p(-math.exp(-x)) if x < 745.0 else 0.0
    rest = _two_point_real_axis(alpha0, alpha1, a, weight)
    return one_log_eta(alpha0, tau) + one_log_eta(alpha1, tau) + rest
