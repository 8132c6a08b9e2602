"""Adaptive quadrature for the semi-infinite spectral integrals.

One entry point, :func:`integrate_to_infinity`, for ``(lo, inf)`` and
decaying integrands: the range is mapped onto (0, 1) through
``v = lo + u/(1-u)`` and taken there by a globally adaptive Gauss-Kronrod
(7, 15) bisection scheme.  Every library integral, bounded ones included,
is written in this form.

Non-convergence is reported through the ``converged`` flag on the result,
never by raising: parameter sweeps must survive a single hard point.  Callers
that need a hard failure use :func:`require_converged`.
"""

import heapq
import math
from dataclasses import dataclass


# 15-point Kronrod extension of 7-point Gauss (QUADPACK qk15 constants).
_XGK = (
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
)
_WGK = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
)
_WG = (0.129484966168870, 0.279705391489277, 0.381830050505119,
       0.417959183673469)

_EPS = 2.220446049250313e-16


class IntegrandError(ValueError):
    """The integrand returned a non-finite value."""

    def __init__(self, abscissa, value):
        self.abscissa = abscissa
        self.value = value
        super().__init__(f"integrand returned {value!r} at x = {abscissa!r}")


class NonConvergenceError(RuntimeError):
    """A required quadrature did not converge; carries the partial result."""

    def __init__(self, result, context=""):
        self.result = result
        self.context = context
        msg = f"quadrature failed to converge ({context}): " if context else \
            "quadrature failed to converge: "
        super().__init__(msg + f"value={result.value!r} "
                               f"error_estimate={result.error_estimate!r}")


# Largest accepted tolerance, far above the defaults (1e-12, 1e-11).
MAX_TOL = 1e-3


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances of a quadrature call.

    A result converges when its error estimate is at most
    max(abs_tol, rel_tol |value|); both tolerances must be positive and at
    most MAX_TOL, above which a "converged" result would be too rough to
    print without an error bar.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-11

    def __post_init__(self):
        if not (0 < self.abs_tol <= MAX_TOL and 0 < self.rel_tol <= MAX_TOL):
            raise ValueError(f"tolerances must be positive and at most "
                             f"{MAX_TOL:g}")

    def tolerance_for(self, value):
        return max(self.abs_tol, self.rel_tol * abs(value))


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def require_converged(result, context=""):
    """Return result.value, raising NonConvergenceError on a failed flag."""
    if not result.converged:
        raise NonConvergenceError(result, context)
    return result.value


def _gk15(f, a, b):
    """One Gauss-Kronrod (7,15) panel: (value, error)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(center)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    resabs = _WGK[7] * abs(fc)
    fvals = [fc]
    for j in range(7):
        dx = half * _XGK[j]
        f1 = f(center - dx)
        f2 = f(center + dx)
        fvals.append(f1)
        fvals.append(f2)
        resk += _WGK[j] * (f1 + f2)
        resabs += _WGK[j] * (abs(f1) + abs(f2))
        if j % 2 == 1:
            resg += _WG[j // 2] * (f1 + f2)
    mean = resk * 0.5
    resasc = _WGK[7] * abs(fc - mean)
    for j in range(7):
        resasc += _WGK[j] * (abs(fvals[1 + 2 * j] - mean)
                             + abs(fvals[2 + 2 * j] - mean))
    value = resk * half
    resabs *= abs(half)
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    # QUADPACK error magnification: protects against rough integrands for
    # which |K15 - G7| underestimates the K15 error.
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs)
    return value, err


def _adaptive(counter, lo, hi, spec):
    """Heap-driven bisection of (lo, hi), at most 2,000 splits."""
    total, total_err = _gk15(counter, lo, hi)
    heap = [(-total_err, 0, lo, hi, total, total_err)]
    seq = 1
    splits = 0
    while total_err > spec.tolerance_for(total) and splits < 2000:
        _, _, a, b, v, e = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break  # interval at floating point resolution
        v1, e1 = _gk15(counter, a, mid)
        v2, e2 = _gk15(counter, mid, b)
        total += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, seq, a, mid, v1, e1))
        heapq.heappush(heap, (-e2, seq + 1, mid, b, v2, e2))
        seq += 2
        splits += 1
    converged = total_err <= spec.tolerance_for(total)
    return QuadratureResult(total, total_err, counter.count, converged)


class _MappedTail:
    """Integrand transported by v = lo + u/(1-u), with a count of its
    calls; reports a non-finite value at v."""

    __slots__ = ("f", "lo", "count")

    def __init__(self, f, lo):
        self.f = f
        self.lo = lo
        self.count = 0

    def __call__(self, u):
        self.count += 1
        w = 1.0 - u
        v = self.lo + u / w
        y = self.f(v) / (w * w)
        if not math.isfinite(y):
            raise IntegrandError(v, y)
        return y


def integrate_to_infinity(f, lo, spec: QuadratureSpec | None = None):
    """Quadrature of f over (lo, inf); f must decay integrably."""
    return _adaptive(_MappedTail(f, lo), 0.0, 1.0, spec or QuadratureSpec())
