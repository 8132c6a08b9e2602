"""Adaptive quadrature for the semi-infinite spectral integrals.

Two entry points:

* :func:`integrate_finite` is a globally adaptive Gauss-Kronrod (7, 15)
  bisection scheme on a bounded interval.

* :func:`integrate_to_infinity` handles ``(lo, inf)`` for decaying
  integrands, mapped onto (0, 1) through ``v = lo + u/(1-u)``.

* :func:`integrate_oscillatory` handles ``(lo, inf)`` for an integrand with
  a persistent trigonometric factor of known period that decays too slowly
  for the mapping (the conditionally convergent cos(2av)/v tail of the
  paper's real-axis continuation).  It sums half-period panels, whose
  contributions alternate in sign, and accelerates the partial sums with
  Wynn's epsilon algorithm.  The epsilon table is kept as one last
  diagonal, updated once per panel; the 50-wide and the half window read
  prefixes of it, at O(window) cost.

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


# Largest accepted tolerance; every internal spec is at most 2e-9.
MAX_TOL = 1e-3


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances of a quadrature call.

    A result converges when its error estimate is at most
    max(abs_tol, rel_tol |value|); both tolerances must be positive and at
    most MAX_TOL, above which a "converged" result would be too rough to
    print without an error bar.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8

    def __post_init__(self):
        if not (0 < self.abs_tol <= MAX_TOL and 0 < self.rel_tol <= MAX_TOL):
            raise ValueError(f"tolerances must be positive and at most "
                             f"{MAX_TOL:g}")

    def tolerance_for(self, value):
        return max(self.abs_tol, self.rel_tol * abs(value))


# Internal default for smooth integrals: they are cheap, so they run tighter
# than the engine default.
TIGHT = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11)


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


class _EvalCounter:
    __slots__ = ("f", "count")

    def __init__(self, f):
        self.f = f
        self.count = 0

    def __call__(self, x):
        self.count += 1
        y = self.f(x)
        if not math.isfinite(y):
            raise IntegrandError(x, y)
        return y


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


def integrate_finite(f, lo, hi, spec: QuadratureSpec | None = None):
    """Adaptive quadrature of f over the bounded interval (lo, hi)."""
    spec = spec or QuadratureSpec()
    if not lo < hi:
        raise ValueError(f"integrate_finite requires lo < hi, got [{lo}, {hi}]")
    return _adaptive(_EvalCounter(f), lo, hi, spec, budget=2000)


def _adaptive(counter, lo, hi, spec, budget):
    """Heap-driven bisection of (lo, hi), at most budget splits."""
    total, total_err = _gk15(counter, lo, hi)
    heap = [(-total_err, 0, lo, hi, total, total_err)]
    seq = 1
    splits = 0
    while total_err > spec.tolerance_for(total) and splits < budget:
        _, _, a, b, v, e = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            # interval at floating point resolution, put it back and stop
            heapq.heappush(heap, (-e, seq, a, b, v, e))
            seq += 1
            break
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
    """Integrand transported by v = lo + u/(1-u); reports errors at v."""

    __slots__ = ("inner", "lo")

    def __init__(self, inner, lo):
        self.inner = inner
        self.lo = lo

    def __call__(self, u):
        w = 1.0 - u
        v = self.lo + u / w
        y = self.inner(v) / (w * w)
        if not math.isfinite(y):
            raise IntegrandError(v, y)
        return y

    @property
    def count(self):
        return self.inner.count


def integrate_to_infinity(f, lo, spec: QuadratureSpec | None = None):
    """Quadrature of f over (lo, inf); f must decay integrably."""
    mapped = _MappedTail(_EvalCounter(f), lo)
    return _adaptive(mapped, 0.0, 1.0, spec or QuadratureSpec(), budget=2000)


class _EpsilonDiagonal:
    """Last diagonal of Wynn's epsilon table over the latest depth sums.

    Entry k is epsilon_k of the last k + 1 sums, so the table of any window
    of the latest sums ends in a prefix of it.  A zero or non-finite
    difference ends a column: the diagonal is cut there, and the failed
    entry's (start index, column) caps the depth of every window holding it.
    """

    __slots__ = ("depth", "diag", "count", "cuts")

    def __init__(self, depth):
        self.depth = depth
        self.diag = []
        self.count = 0
        self.cuts = []

    def push(self, s):
        old, new, below = self.diag, [s], 0.0
        for k in range(min(len(old), self.depth - 1)):
            d = new[k] - old[k]
            if d == 0.0 or not math.isfinite(d):
                self.cuts.append((self.count - k - 1, k + 1))
                break
            new.append(below + 1.0 / d)
            below = old[k]
        self.diag = new
        self.count += 1
        self.cuts = [c for c in self.cuts if c[0] >= self.count - self.depth]

    def estimate(self, width):
        """(estimate, error) of the last width sums: the last finite
        even-column entry and its distance to the one before."""
        last = width - 1
        for start, col in self.cuts:
            if start >= self.count - width:
                last = min(last, col - 1)
        history = [self.diag[0]] + [x for x in self.diag[2:last + 1:2]
                                    if math.isfinite(x)]
        if len(history) >= 2:
            return history[-1], abs(history[-1] - history[-2])
        return history[0], math.inf


def integrate_oscillatory(f, lo, period, spec: QuadratureSpec | None = None):
    """Quadrature of f over (lo, inf), f = decaying envelope times a
    trigonometric factor of the given period.

    Panels of width period/2 give sign-alternating contributions once the
    envelope dominates; Wynn's epsilon on the partial sums then converges
    far beyond the walked range.  At most 600 panels are walked, each with
    at most 60 bisections.
    """
    spec = spec or QuadratureSpec()
    half = period / 2.0
    counter = _EvalCounter(f)
    panel_spec = QuadratureSpec(abs_tol=max(spec.abs_tol / 50.0, 1e-15),
                                rel_tol=min(spec.rel_tol, 1e-10))
    eps = _EpsilonDiagonal(50)
    total = previous = 0.0
    best = 0.0
    best_err = math.inf
    for j in range(600):
        a = lo + j * half
        b = a + half
        r = _adaptive(counter, a, b, panel_spec, budget=60)
        previous, total = total, total + r.value
        eps.push(total)
        if j >= 7:
            width = min(j + 1, eps.depth)
            est, eps_err = eps.estimate(width)
            # the epsilon-table spread alone is overconfident; re-estimate
            # on a half window and treat the drift as systematic error
            est_half, _ = eps.estimate(width - width // 2)
            err = 2.0 * max(eps_err, abs(est - est_half))
            if math.isfinite(est) and err < best_err:
                best, best_err = est, err
            if best_err <= spec.tolerance_for(best):
                return QuadratureResult(best, best_err, counter.count, True)
    if best_err is math.inf:
        best, best_err = total, abs(total - previous)
    converged = best_err <= spec.tolerance_for(best)
    return QuadratureResult(best, best_err, counter.count, converged)
