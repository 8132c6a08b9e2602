"""Recompute the frozen reference constants used in the test suite.

Every [frozen] numeric literal asserted in tests/ comes from this script
(30-digit mpmath arithmetic, independent of the library's own quadrature).
Run it after any change to the reference definitions and compare.

    python scripts/derive_reference_values.py

The two-point heat-trace, zeta, finite-part and log eta rows integrate the
real-axis measure e(v) with mpmath's own quadrature (quadosc for the
oscillatory tails), so they stay independent of the library, which takes
every two-point quantity off the real axis (imaginary axis, the line
Im v = a/t or the line Re v = 1); the script takes about fifteen minutes
on one core.
"""

from mpmath import (ceil, ci, cos, erfc, exp, inf, loggamma, log, mp, mpc,
                    mpf, pi, quad, quadosc, re, si, sqrt)

mp.dps = 30


def e_two(alpha0, alpha1, a):
    sigma = alpha0 + alpha1
    def f(v):
        num = 2 * pi * sigma * a - 1j * v * a + exp(2j * v * a)
        den = (4 * pi * alpha0 * a - 1j * v * a) \
            * (4 * pi * alpha1 * a - 1j * v * a) - exp(2j * v * a)
        return (2 * a / pi) * re(num / den)
    return f


def e_one(alpha):
    c = 4 * pi * alpha
    return lambda v: 4 * alpha / (c * c + v * v)


def h2_two(alpha0, alpha1, a):
    """Interaction remainder e - e1(alpha0) - e1(alpha1) of the measure."""
    f2, l0, l1 = e_two(alpha0, alpha1, a), e_one(alpha0), e_one(alpha1)
    return lambda v: f2(v) - l0(v) - l1(v)


def real_axis_zeta(alpha0, alpha1, a, s):
    """Closed one-point zetas plus int_0^inf v^(-2s) h2 dv on the real
    axis; the oscillatory tail past v = 1 goes to quadosc."""
    h2 = h2_two(alpha0, alpha1, a)
    ones = sum(0.5 * (4 * pi * alpha) ** (-2 * s) / cos(pi * s)
               for alpha in (alpha0, alpha1))
    head = quad(lambda v: v ** (-2 * s) * h2(v), [0, 1])
    tail = quadosc(lambda v: v ** (-2 * s) * h2(v), [1, inf], period=pi / a)
    return ones + head + tail


def one_point_heat_traces(alpha0, alpha1, t):
    """Closed one-point heat traces (1/2) erfcx(4 pi alpha sqrt t), summed."""
    return sum(erfc(c) * exp(c * c) / 2
               for c in (4 * pi * alpha0 * sqrt(t), 4 * pi * alpha1 * sqrt(t)))


def real_axis_heat_trace(alpha0, alpha1, a, t):
    """Closed one-point heat traces plus int_0^inf exp(-v^2 t) h2 dv, cut
    at v^2 t = 80, in panels of about one period pi/a."""
    h2 = h2_two(alpha0, alpha1, a)
    top = sqrt(80 / t)
    panels = int(ceil(top * a / pi))
    points = [top * k / panels for k in range(panels + 1)]
    return (one_point_heat_traces(alpha0, alpha1, t)
            + quad(lambda v: exp(-v * v * t) * h2(v), points))


def small_t_heat_trace(alpha0, alpha1, a, t):
    """Closed one-point heat traces, where the interaction part is below
    1e-30.  On the line Im v = a/t the interaction part is

        K_int = (2a/pi) exp(-a^2/t) int_0^inf exp(-t x^2) Re R dx,
        R = (w0 w1 + (w0 + w1)/2) / (w0 w1 (w0 w1 - p)),

    w_j = c_j - iva, c_j = 4 pi alpha_j a, p = exp(2iva).  There
    |w_j| >= m_j = c_j + a^2/t and |p| <= 1, so

        |K_int| <= (2a/pi) exp(-a^2/t) sqrt(pi/(4t)) max|R|,
        max|R|  <= (1 + (1/m0 + 1/m1)/2) / (m0 m1 - 1),

    and the bound is asserted below 1e-30."""
    m0, m1 = (4 * pi * alpha * a + a * a / t for alpha in (alpha0, alpha1))
    max_r = (1 + (1 / m0 + 1 / m1) / 2) / (m0 * m1 - 1)
    bound = 2 * a / pi * exp(-a * a / t) * sqrt(pi / (4 * t)) * max_r
    assert bound < mpf("1e-30"), bound
    return one_point_heat_traces(alpha0, alpha1, t)


def real_axis_finite_part(alpha0, alpha1, a):
    """R0: head int_0^1 v e dv, closed Lorentzian tails and the
    oscillatory int_1^inf v h2 dv."""
    f2, h2 = e_two(alpha0, alpha1, a), h2_two(alpha0, alpha1, a)
    zeta0 = quad(lambda v: v * f2(v), [0, 1])
    closed = sum(-2 * alpha * log(1 + (4 * pi * alpha) ** 2)
                 for alpha in (alpha0, alpha1))
    return zeta0 + closed + quadosc(lambda v: v * h2(v), [1, inf],
                                    period=pi / a)


def real_axis_log_eta(alpha0, alpha1, a, beta):
    """int_0^inf log(1 - exp(-beta v)) e(v) dv, cut at beta v = 80, in
    panels of about one period pi/a."""
    f2 = e_two(alpha0, alpha1, a)
    top = 80 / beta
    panels = int(ceil(top * a / pi))
    points = [0] + [top * k / panels for k in range(1, panels + 1)]
    return quad(lambda v: log(1 - exp(-beta * v)) * f2(v), points)


def casimir_force(alpha0, alpha1, a):
    """-dE_int/da from the imaginary-axis interaction energy, x = xi a."""
    c0 = 4 * pi * alpha0 * a
    c1 = 4 * pi * alpha1 * a

    def f(x):
        g = exp(-2 * x) / ((c0 + x) * (c1 + x))
        return g * (2 * x + 2) / (1 - g)
    return -quad(f, [0, 1, 5, 20, 60, inf]) / (2 * pi * a * a)


def main():
    print("# special functions")
    print("erfcx(1)          =", erfc(1) * exp(1))
    print("Ci(1)             =", ci(1))
    print("Ci(2)             =", ci(2))

    print("# quadrature pins")
    print("int_1^10 cos(2v)/v^2  =",
          cos_partial := quad(lambda v: mp.cos(2 * v) / v ** 2,
                              [1, 2, 4, 7, 10]))
    print("int_1^inf cos(2v)/v^2 =", mp.cos(2) - 2 * (pi / 2 - si(2)))

    print("# resolvent traces")
    tr1 = 1 / (2j * mpc("0.3", "0.7")
               * (4 * pi * mpf("0.25") - 1j * mpc("0.3", "0.7")))
    print("one-point trace (alpha=0.25, k=0.3+0.7i) =", tr1)
    k = mpc(0, 1)
    num = 2 * pi * 2 - 1j * k + exp(2j * k)
    den = (4 * pi - 1j * k) ** 2 - exp(2j * k)
    print("two-point trace (1,1,1; k=i) =", (1 / (1j * k)) * num / den)

    print("# spectral measures")
    print("one-point e(1), alpha=0.25   =", 1 / (1 + pi ** 2))
    f2 = e_two(1, 1, 1)
    print("two-point e(0+), (1,1,1)     =",
          (1 / pi) * (8 * pi + 2) / (16 * pi ** 2 - 1))
    print("two-point e(1),  (1,1,1)     =", f2(mpf(1)))

    print("# Laurent data, alpha0 = alpha1 = a = 1")
    zeta0 = quad(lambda v: v * f2(v), [0, 1])
    lor = e_one(mpf(1))
    vh2 = quadosc(lambda v: v * (f2(v) - 2 * lor(v)), [1, inf], period=pi)
    closed = -4 * log(1 + (4 * pi) ** 2)
    finite = zeta0 + closed + vh2
    print("zeta0(-1/2)       =", zeta0)
    print("finite part       =", finite)
    cross = zeta0 + quadosc(
        lambda v: v * (f2(v) - (8 * pi - 2 * mp.cos(2 * v)) / (pi * v ** 2)),
        [1, inf], period=pi) + 2 * ci(2) / pi
    print("finite (via the cos-subtracted tail split, cross-check) =", cross)

    print("# thermodynamics")
    print("-binet(1) [= log eta at 2 alpha tau = 1] =",
          -(loggamma(1) + log(1) / 2 - 1 * (log(1) - 1) - log(2 * pi) / 2))
    print("-binet(2)         =",
          -(loggamma(2) + log(2) / 2 - 2 * (log(2) - 1) - log(2 * pi) / 2))

    def log_z_closed(alpha, beta, ell):
        z = 2 * alpha * beta
        binet = loggamma(z) + log(z) / 2 - z * (log(z) - 1) - log(2 * pi) / 2
        return 2 * alpha * beta * (log(8 * pi * alpha * ell) - 1) + binet

    print("log Z(0.25, beta=5, ell=1) =", log_z_closed(mpf("0.25"), 5, 1))
    print("log Z(1, beta=30, ell=2)   =", log_z_closed(1, 30, 2))
    log_eta_two = quad(lambda v: log(1 - exp(-5 * v)) * f2(v),
                       [0, mpf("0.1"), 1, 3, 8, 15])
    print("two-point log eta(beta=5)  =", log_eta_two)
    print("two-point log Z(beta=5)    =",
          5 * (log(2) - 1) * 4 - mpf(5) / 2 * finite - log_eta_two)
    print("one-point Laurent finite, alpha=1 =", -4 * log(4 * pi))

    print("# two-point references on the real axis; log Z at ell = 1")
    for point in (("1", "1", "1"), ("0.3", "3", "2"), ("1", "1", "7"),
                  ("0.25", "1e4", "1"), ("0.3", "3", "0.168")):
        alpha0, alpha1, a = (mpf(x) for x in point)
        label = ", ".join(point)
        for s in ("-0.4125", "0.01", "0.3"):
            print(f"zeta({label}; s = {s}) =",
                  real_axis_zeta(alpha0, alpha1, a, mpf(s)))
        finite = real_axis_finite_part(alpha0, alpha1, a)
        print(f"R0({label}) =", finite)
        for beta in ("0.5", "5", "200"):
            beta = mpf(beta)
            eta = real_axis_log_eta(alpha0, alpha1, a, beta)
            print(f"log eta({label}; beta = {beta}) =", eta)
            print(f"log Z({label}; beta = {beta}) =",
                  beta * (log(2) - 1) * 2 * (alpha0 + alpha1)
                  - beta / 2 * finite - eta)

    print("# two-point heat traces on the real axis; the last two t of each"
          " point sit at a^2/t = 2 and 20")
    for point, ts in ((("1", "1", "1"), ("0.5", "0.05")),
                      (("0.3", "3", "2"), ("2", "0.2")),
                      (("1", "1", "7"), ("24.5", "2.45"))):
        alpha0, alpha1, a = (mpf(x) for x in point)
        for t in ("1e-3", "0.1", "1", "10") + ts:
            print(f"K({', '.join(point)}; t = {t}) =",
                  real_axis_heat_trace(alpha0, alpha1, a, mpf(t)))
        for t in ("1e-8", "1e-6"):
            print(f"K({', '.join(point)}; t = {t}) =",
                  small_t_heat_trace(alpha0, alpha1, a, mpf(t)))

    print("# Casimir force, a_edge = 1/(2 pi sqrt(alpha0 alpha1))")
    for alpha0, alpha1 in ((1, 1), (mpf("0.3"), 3)):
        a_edge = 1 / (2 * pi * sqrt(alpha0 * alpha1))
        for label, a in (("1.001 a_edge", mpf("1.001") * a_edge),
                         ("2", 2), ("5", 5), ("20", 20)):
            print(f"force({alpha0}, {alpha1}, a = {label}) =",
                  casimir_force(alpha0, alpha1, mpf(a)))


if __name__ == "__main__":
    main()
