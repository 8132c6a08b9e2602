import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relspec.models import (OnePointModel, TwoPointModel,
                            one_point_spectral_measure)
from relspec.quad import (MAX_TOL, IntegrandError, NonConvergenceError,
                          QuadratureSpec, _EpsilonDiagonal, integrate_finite,
                          integrate_oscillatory, integrate_to_infinity,
                          require_converged)
from relspec.specfun import cosine_integral
from relspec.zetareg import two_point_laurent_parts

TIGHT = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11)


# ---------------------------------------------------------------------------
# finite interval
# ---------------------------------------------------------------------------

def test_finite_arctan():
    r = integrate_finite(lambda v: 1.0 / (1.0 + v * v), 0.0, 1.0, TIGHT)
    assert r.converged
    assert r.value == pytest.approx(math.pi / 4.0, abs=1e-12)


def test_finite_linear():
    r = integrate_finite(lambda v: v, 0.0, 1.0)
    assert r.converged
    assert r.value == pytest.approx(0.5, abs=1e-14)


def test_finite_oscillatory_segment():
    # frozen by the integration-by-parts oracle:
    # cos(2) - cos(20)/10 - 2 (Si(20) - Si(2))
    r = integrate_finite(lambda v: math.cos(2 * v) / (v * v), 1.0, 10.0,
                         TIGHT)
    assert r.converged
    assert r.value == pytest.approx(-0.34261249120997156878, abs=1e-11)


@pytest.mark.parametrize("k", range(0, 9))
def test_finite_monomials(k):
    r = integrate_finite(lambda v: v ** k, 0.0, 1.0)
    assert r.value == pytest.approx(1.0 / (k + 1), rel=1e-13)


def test_finite_requires_ordered_bounds():
    with pytest.raises(ValueError):
        integrate_finite(lambda v: v, 1.0, 0.0)


def test_integrand_error_carries_abscissa():
    def f(x):
        return math.nan if 0.4 < x < 0.6 else 1.0

    with pytest.raises(IntegrandError) as err:
        integrate_finite(f, 0.0, 1.0)
    assert 0.4 < err.value.abscissa < 0.6


def test_non_convergence_is_flagged_not_raised():
    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300)
    r = integrate_finite(lambda v: math.exp(-v) * math.sin(7 * v), 0.0, 5.0,
                         spec)
    assert not r.converged
    assert math.isfinite(r.value)
    with pytest.raises(NonConvergenceError) as err:
        require_converged(r, "test piece")
    assert "test piece" in str(err.value)
    assert err.value.result is r


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=math.inf)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=math.inf)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=math.nan)
    # finite but above the documented cap
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=1e300)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=2e-3)
    assert QuadratureSpec(abs_tol=MAX_TOL, rel_tol=MAX_TOL).abs_tol == 1e-3


# ---------------------------------------------------------------------------
# semi-infinite interval
# ---------------------------------------------------------------------------

def test_gaussian_tail():
    r = integrate_to_infinity(lambda v: math.exp(-v * v), 0.0, TIGHT)
    assert r.converged
    assert r.value == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-12)


def test_lorentzian_tail():
    r = integrate_to_infinity(lambda v: 1.0 / (1.0 + v * v), 0.0, TIGHT)
    assert r.converged
    assert r.value == pytest.approx(math.pi / 2.0, abs=1e-11)


def test_oscillatory_infinite_frozen_value():
    # integration-by-parts oracle: cos 2 - 2 (pi/2 - Si(2))
    r = integrate_oscillatory(lambda v: math.cos(2 * v) / (v * v), 1.0,
                              math.pi, TIGHT)
    assert r.converged
    assert r.value == pytest.approx(-0.34691353653154592831, abs=1e-10)


@pytest.mark.parametrize("a", (0.5, 1.0, 2.0))
def test_oscillatory_cosine_integral_identity(a):
    # int_1^inf cos(2av)/v dv = -Ci(2a)
    r = integrate_oscillatory(lambda v: math.cos(2 * a * v) / v, 1.0,
                              math.pi / a, TIGHT)
    assert r.converged
    assert r.value == pytest.approx(-cosine_integral(2 * a), abs=1e-9)


def test_additivity_spectral_measure():
    e = one_point_spectral_measure(OnePointModel(0.25))
    whole = integrate_to_infinity(e.eval, 0.0, TIGHT)
    head = integrate_finite(e.eval, 0.0, 1.0, TIGHT)
    tail = integrate_to_infinity(e.eval, 1.0, TIGHT)
    assert whole.converged and head.converged and tail.converged
    combined_err = (whole.error_estimate + head.error_estimate
                    + tail.error_estimate)
    assert abs(whole.value - (head.value + tail.value)) <= max(
        combined_err, 1e-12)


def test_result_reports_evaluations():
    r = integrate_finite(lambda v: v * v, 0.0, 1.0)
    assert r.evaluations >= 15
    assert r.error_estimate >= 0.0


def test_converged_error_within_tolerance_contract():
    # converged implies error_estimate <= max(abs_tol, rel_tol |value|)
    e = one_point_spectral_measure(OnePointModel(0.25)).eval
    loose = QuadratureSpec(abs_tol=1e-10, rel_tol=1e-8)
    cases = [
        (integrate_finite(e, 0.0, 1.0, TIGHT), TIGHT),
        (integrate_to_infinity(e, 0.0, TIGHT), TIGHT),
        (integrate_to_infinity(
            lambda v: math.exp(-v * v) * math.cos(2 * v), 0.0, loose), loose),
        (integrate_oscillatory(
            lambda v: math.cos(2 * v) / (v * v), 1.0, math.pi, loose), loose),
    ]
    for r, spec in cases:
        assert r.converged
        assert r.error_estimate <= max(spec.abs_tol,
                                       spec.rel_tol * abs(r.value))


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.2, max_value=5.0),
       st.floats(min_value=0.1, max_value=4.0))
def test_exponential_scaling_property(rate, upper):
    r = integrate_finite(lambda v: math.exp(-rate * v), 0.0, upper, TIGHT)
    exact = (1.0 - math.exp(-rate * upper)) / rate
    assert r.value == pytest.approx(exact, rel=1e-10)


# ---------------------------------------------------------------------------
# Wynn epsilon: incremental diagonal against the full table
# ---------------------------------------------------------------------------

def _wynn_full_table(partial_sums):
    """Reference: build the whole epsilon table of partial_sums.

    A zero or non-finite difference ends the table at the previous column.
    Returns the last finite even-column entry of the last diagonal and its
    distance to the one before (inf when there is none).
    """
    prev = [0.0] * (len(partial_sums) + 1)
    cur = list(partial_sums)
    history = [cur[-1]]
    col = 0
    while len(cur) >= 2:
        nxt = []
        for i in range(len(cur) - 1):
            d = cur[i + 1] - cur[i]
            if d == 0.0 or not math.isfinite(d):
                nxt = None
                break
            nxt.append(prev[i + 1] + 1.0 / d)
        if not nxt:
            break
        prev, cur = cur, nxt
        col += 1
        if col % 2 == 0 and math.isfinite(cur[-1]):
            history.append(cur[-1])
    if len(history) >= 2:
        return history[-1], abs(history[-1] - history[-2])
    return history[0], math.inf


def _bits(pair):
    return tuple(struct.pack("<d", x) for x in pair)


def _epsilon_sequence(rng):
    """Partial sums of an alternating series, with exact repeats (zero
    steps), spikes that overflow a difference, and scales at which steps
    are subnormal (1/d = inf) or entries overflow."""
    n = rng.randint(1, 120)
    p = rng.uniform(0.5, 3.0)
    scale = rng.choice((1.0, 1.0, 1e-300, 1e-320, 1e307))
    glitch = rng.choice((0.0, 0.0, 0.01, 0.03, 0.1))
    sums = []
    total = scale * rng.uniform(-1.0, 1.0)
    for k in range(n):
        total += scale * (-1) ** k / (k + 1) ** p
        u = rng.random()
        if sums and u < glitch:
            sums.append(rng.choice((sums[-1], rng.choice(sums))))
        elif u < 2 * glitch:
            sums.append(rng.choice((0.0, 5e-324, rng.choice((-1, 1))
                                    * rng.uniform(1.0, 1.7) * 1e308)))
        else:
            sums.append(total)
    return sums


# Opposite spikes around a small sum: 1/d overflows in column 2, so an
# even-column entry of the last diagonal is inf.
_SPIKES = [0.5, -1.5e308, 0.25, 1.4e308, -0.125, -1.3e308, 0.0625,
           1.6e308] * 8
# One zero step, then a clean series: its cut caps the 50-wide window
# until the step leaves the window.
_ONE_ZERO_STEP = [math.fsum((-1) ** i / (i + 1) ** 2 for i in range(k + 1))
                  for k in range(120)]
_ONE_ZERO_STEP[4] = _ONE_ZERO_STEP[3]


@pytest.mark.parametrize(
    "sums", [_epsilon_sequence(random.Random(seed)) for seed in range(24)]
    + [_SPIKES, _ONE_ZERO_STEP],
    ids=[f"seed{seed}" for seed in range(24)] + ["spikes", "one_zero_step"])
def test_epsilon_diagonal_matches_full_table(sums):
    eps = _EpsilonDiagonal(50)
    for n in range(1, len(sums) + 1):
        eps.push(sums[n - 1])
        width = min(n, 50)
        for w in (width, width - width // 2):
            assert _bits(eps.estimate(w)) == \
                _bits(_wynn_full_table(sums[n - w:n])), (n, w)


# (value, error_estimate, evaluations, converged) as recorded when the
# epsilon table was rebuilt in full after every panel, one case per exit of
# integrate_oscillatory; the diagonal must reproduce them exactly.
def _frozen(r):
    return (r.value, r.error_estimate, r.evaluations, r.converged)


def test_oscillatory_exit_wynn_converged():
    r = integrate_oscillatory(lambda v: math.cos(2 * v) / (v * v), 1.0,
                              math.pi, TIGHT)
    assert _frozen(r) == (-0.3469135365315447, 2.5337509867995323e-12, 330,
                          True)


def test_oscillatory_exit_no_finite_estimate():
    # linear partial sums: the table ends at column 1, so after 600
    # panels the last sum and its last step are returned
    r = integrate_oscillatory(lambda v: 1.0, 0.0, math.pi)
    assert _frozen(r) == (942.4777960769503, 1.570796326794948, 9000, False)


def test_oscillatory_exit_unconverged_best_estimate():
    tight = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
    with pytest.raises(NonConvergenceError) as err:
        two_point_laurent_parts(TwoPointModel(1.0, 1.0, 1.0), tight)
    assert "interaction tail" in err.value.context
    assert _frozen(err.value.result) == (
        -0.0011483336096928653, 1.1564403948338686e-12, 9180, False)
