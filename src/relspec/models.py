"""Point-interaction models and their relative spectral measures.

The two implemented operator pairs are a single delta center of strength
``alpha`` against the free Laplacian in R^3, and two delta centers of
strengths ``alpha0``, ``alpha1`` separated by a distance ``a``.  Everything
downstream (heat traces, zeta functions, partition functions) is built from
the relative spectral measure e(v): the jump across the continuous
spectrum of the trace of the resolvent difference

    r(k) = Tr(R(k^2, L) - R(k^2, L0)),   Im k > 0.

r(k) itself is not coded here; the tests keep it, with the jump taken
between rims a finite angle apart, as the oracle for the closed forms.

The two-point e(v) is coded as ``(2a/pi) * Re(N(v)/D(v))`` with N, D read
off the resolvent trace; the two rim contributions are complex conjugates,
so taking twice the real part performs the boundary-value limit exactly and
keeps e real by construction.

A SpectralMeasure is the pair (eval, model).  Its asymptotics are not stored
separately: they follow from the model, and the builders' docstrings state
them.

On the imaginary axis k = i xi the two-center determinant has no zeros and
no oscillation; two_point_interaction gives its interaction factor, from
which the production two-point zeta function, Laurent data, log eta and
Casimir force are built.  two_point_interaction_ratio continues the
interaction part of e(v) into the upper half-plane, where the heat trace
and the paper route's Laurent tail are taken off the oscillating real
axis.  e(v), the boundary value, serves the real-axis cross-checks.
"""

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Union


class BoundStateRegimeError(ValueError):
    """Model parameters admit negative eigenvalues; out of supported range."""


@dataclass(frozen=True)
class OnePointModel:
    """Single delta interaction of strength alpha >= 0 (units 1/length).

    alpha = 0 is the degenerate case: the pair coincides with the free
    Laplacian and every relative quantity vanishes.
    """

    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise BoundStateRegimeError(
                f"one-point model needs alpha >= 0 (got {self.alpha!r}); "
                "negative alpha produces a bound state")

    def describe(self):
        return f"one-point(alpha={self.alpha:g})"


@dataclass(frozen=True)
class TwoPointModel:
    """Two delta interactions (alpha0, alpha1) at separation a > 0.

    The spectrum stays purely absolutely continuous iff
    4 pi^2 alpha0 alpha1 a^2 >= 1; construction enforces that constraint.
    Exact equality is admitted but sits on the edge of the allowed region,
    so a warning is emitted there.
    """

    alpha0: float
    alpha1: float
    a: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"separation a must be > 0, got {self.a!r}")
        if not (math.isfinite(self.alpha0) and math.isfinite(self.alpha1)
                and self.alpha0 > 0 and self.alpha1 > 0):
            raise BoundStateRegimeError(
                "two-point model needs alpha0 > 0 and alpha1 > 0, got "
                f"({self.alpha0!r}, {self.alpha1!r})")
        q = self.constraint_value()
        if q < 1.0:
            raise BoundStateRegimeError(
                "bound-state regime: 4 pi^2 alpha0 alpha1 a^2 = "
                f"{q:.6g} < 1")
        if q == 1.0:
            warnings.warn(
                "two-point model at the constraint boundary "
                "(4 pi^2 alpha0 alpha1 a^2 = 1); zero-energy threshold "
                "behaviour is not excluded", stacklevel=2)

    def constraint_value(self):
        # (2 pi alpha0 a)(2 pi alpha1 a): a^2 alone overflows past a ~ 1e154
        # and misjudges the region where alpha a is tiny or huge
        return (2.0 * math.pi * (self.alpha0 * self.a)) \
            * (2.0 * math.pi * (self.alpha1 * self.a))

    def describe(self):
        return (f"two-point(alpha0={self.alpha0:g} "
                f"alpha1={self.alpha1:g} a={self.a:g})")


Model = Union[OnePointModel, TwoPointModel]


@dataclass(frozen=True)
class SpectralMeasure:
    """Pointwise-evaluable relative spectral measure of a model.

    eval(v) is finite and real for every v >= 0.  model is the generating
    operator pair; continuation code reads from it what pointwise values
    do not carry: the Lorentzian couplings and the separation a.
    """

    eval: Callable[[float], float]
    model: Model

    def __call__(self, v):
        return self.eval(v)

    @property
    def is_zero(self):
        return isinstance(self.model, OnePointModel) and self.model.alpha == 0


def two_point_interaction(m: TwoPointModel):
    """Interaction factor of the two-center determinant on the imaginary axis.

    At k = i xi the denominator D of the two-center resolvent trace
    (see two_point_spectral_measure) factorizes as

        D(i xi) = (c0 + x)(c1 + x)(1 - g(x)),   x = xi a,
        g(x) = exp(-2x) / ((c0 + x)(c1 + x)),   c_j = 4 pi alpha_j a,

    and r(i xi) = -(1/(2 xi)) d/dxi log D(i xi).  The two linear factors
    are the one-center determinants; log(1 - g) is the interaction.  In the
    admissible region c0 c1 >= 4, so 0 < g <= 1/4 and 1 - g never
    vanishes; every term decays like exp(-2x).

    Returns the functions (g, log(1 - g), d/dx log(1 - g)) of x >= 0.
    """
    c0 = 4.0 * math.pi * m.alpha0 * m.a
    c1 = 4.0 * math.pi * m.alpha1 * m.a

    def g(x):
        return math.exp(-2.0 * x) / ((c0 + x) * (c1 + x))

    def log_factor(x):
        return math.log1p(-g(x))

    def dlog(x):
        gx = g(x)
        return gx * (2.0 + 1.0 / (c0 + x) + 1.0 / (c1 + x)) / (1.0 - gx)

    return g, log_factor, dlog


def two_point_interaction_ratio(m: TwoPointModel):
    """R(x, y), x + iy = v a, with (2a/pi) Re(exp(2iva) R) = e(v)
    - e1(alpha0; v) - e1(alpha1; v) for real v:

        R = (1 + (1/w0 + 1/w1)/2) / (w0 (w1 - exp(2iva)/w0)),

    w_j = c_j - iva, c_j = 4 pi alpha_j a.  For Im v >= 0, |w0 w1| >= c0 c1
    >= 4 > |exp(2iva)|, so R has no poles there.  No product w0 w1 is
    formed on its own, so R reads 0, not nan, where |w0 w1| overflows.
    """
    c0 = 4.0 * math.pi * m.alpha0 * m.a
    c1 = 4.0 * math.pi * m.alpha1 * m.a

    def ratio(x, y):
        w0 = complex(c0 + y, -x)
        w1 = complex(c1 + y, -x)
        p = cmath.exp(complex(-2.0 * y, 2.0 * x))
        return (1.0 + 0.5 * (1.0 / w0 + 1.0 / w1)) / (w0 * (w1 - p / w0))

    return ratio


def one_point_spectral_measure(m: OnePointModel) -> SpectralMeasure:
    """Relative spectral measure e(v) = 4 alpha / ((4 pi alpha)^2 + v^2).

    Small v: e(0) = 1/(4 pi^2 alpha).  Large v: 4 alpha/v^2 + O(v^-4).
    For alpha = 0 the measure is identically zero (the pair degenerates to
    two copies of the free Laplacian).
    """
    alpha = m.alpha
    if alpha == 0.0:
        return SpectralMeasure(eval=lambda v: 0.0, model=m)
    c = 4.0 * math.pi * alpha

    def eval_one(v):
        # divide by |(c, v)| twice: c^2 would underflow below alpha ~ 1e-155
        # and overflow above alpha ~ 1e153
        h = math.hypot(c, v)
        return 4.0 * alpha / h / h

    return SpectralMeasure(eval=eval_one, model=m)


def two_point_spectral_measure(m: TwoPointModel) -> SpectralMeasure:
    """Relative spectral measure of the two-center pair.

    Derived from the resolvent trace by evaluating its boundary values on
    the two rims of the continuous spectrum; the rims are complex conjugate
    for real parameters, which collapses the jump to

        e(v) = (2a/pi) * Re( N(v) / D(v) ),

        N(v) = 2 pi (alpha0+alpha1) a - iva + exp(2iva),
        D(v) = (4 pi alpha0 a - iva)(4 pi alpha1 a - iva) - exp(2iva).

    Small-v limit: (a/pi)(4 pi (alpha0+alpha1) a + 2)/(16 pi^2 alpha0
    alpha1 a^2 - 1).  Large v: (4 pi (alpha0+alpha1) a - 2 cos(2av))
    / (pi a v^2) + O(v^-3), so the tail oscillates with period pi/a.
    """
    a = m.a
    sigma = m.alpha0 + m.alpha1
    c0 = 4.0 * math.pi * m.alpha0 * a
    c1 = 4.0 * math.pi * m.alpha1 * a
    two_pi_sigma_a = 2.0 * math.pi * sigma * a
    coeff = 2.0 * a / math.pi

    def eval_two(v):
        y = v * a
        iva = 1j * y
        phase = cmath.exp(2j * v * a)
        num = two_pi_sigma_a - iva + phase
        w0 = c0 - iva
        w1 = c1 - iva
        if (c0 + y) * (c1 + y) > 1e300:
            # w0 w1 could overflow: take N and D in units of one power of
            # two, an exact scaling that leaves N/D as it was
            s0 = 2.0 ** -math.frexp(c0 + y)[1]
            s1 = 2.0 ** -math.frexp(c1 + y)[1]
            num = num * s0 * s1
            den = (w0 * s0) * (w1 * s1) - phase * s0 * s1
        else:
            den = w0 * w1 - phase
        return coeff * (num / den).real

    return SpectralMeasure(eval=eval_two, model=m)


def spectral_measure(m: Model) -> SpectralMeasure:
    """Measure for either model kind."""
    if isinstance(m, OnePointModel):
        return one_point_spectral_measure(m)
    return two_point_spectral_measure(m)

