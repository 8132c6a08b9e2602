"""Recompute the frozen reference constants used in the test suite.

Every [frozen] numeric literal asserted in tests/ comes from this script
(30-digit mpmath arithmetic, independent of the library's own quadrature).
Run it after any change to the reference definitions and compare.

    python scripts/derive_reference_values.py
"""

from mpmath import (ci, erfc, exp, inf, loggamma, log, mp, mpc, mpf, pi,
                    quad, quadosc, re, si, sqrt)

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

    print("# Casimir force, a_edge = 1/(2 pi sqrt(alpha0 alpha1))")
    for alpha0, alpha1 in ((1, 1), (mpf("0.3"), 3)):
        a_edge = 1 / (2 * pi * sqrt(alpha0 * alpha1))
        for label, a in (("1.001 a_edge", mpf("1.001") * a_edge),
                         ("2", 2), ("5", 5), ("20", 20)):
            print(f"force({alpha0}, {alpha1}, a = {label}) =",
                  casimir_force(alpha0, alpha1, mpf(a)))


if __name__ == "__main__":
    main()
