"""Independent routes for the benchmark's output checks, in mpmath at 30
digits.  Nothing here calls into mirabolic: character values are rebuilt
from the exact exponent tables, and every Gamma-type closed form is
evaluated from its defining formula with mpmath's gamma and zeta.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import mpmath as mp

mp.mp.dps = 30


def _c(z) -> mp.mpc:
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def e_frac(q: Fraction) -> mp.mpc:
    """e(q) = exp(2 pi i q) for an exact rational q."""
    return mp.expjpi(2 * mp.mpf(q.numerator) / q.denominator)


def abs_pow(x: float, z) -> mp.mpc:
    return mp.exp(_c(z) * mp.log(abs(mp.mpf(x))))


def sgn_pow(x: float, eta: int) -> int:
    return -1 if (eta % 2 and x < 0) else 1


def G(s, delta: int) -> mp.mpc:
    """G_delta(s) = i^delta Gamma_R(s+delta) / Gamma_R(1-s+delta)."""
    s, d = _c(s), delta % 2
    return (
        mp.mpc(0, 1) ** d
        * mp.power(mp.pi, (1 - 2 * s) / 2)
        * mp.gamma((s + d) / 2)
        * mp.rgamma((1 - s + d) / 2)
    )


def beta_like_closed(beta, eta, t: float) -> mp.mpc:
    num = mp.mpc(1)
    for b, e in zip(beta, eta):
        num *= G(b, e)
    total_b, total_e = sum(complex(b) for b in beta), sum(eta) % 2
    return num / G(total_b, total_e) * abs_pow(t, total_b - 1) * sgn_pow(t, total_e)


def oscillatory_closed(nu, n: int, eps: int, d: int, k: int) -> mp.mpc:
    m = d * k
    return (
        (-1) ** eps
        * abs_pow(m, n / 2 - complex(nu) - 1)
        * sgn_pow(m, eps)
        * G(complex(nu) - n / 2 + 1, eps)
    )


def h_closed(lam, delta, nu, eps: int, eta: int) -> mp.mpc:
    """The n = 2 H integral as the signed beta-like ratio at t = 1, with
    beta_0 = nu, beta_1 = 1/2 - lambda_1 - lambda_2 - nu/2."""
    nu = complex(nu)
    beta = [nu, 0.5 - complex(lam[1]) - complex(lam[2]) - nu / 2]
    etas = [eps % 2, (delta[1] + delta[2] + eta) % 2]
    sign = (-1) ** ((delta[1] + delta[2] + eta) % 2)
    return sign * beta_like_closed(beta, etas, 1.0)


def compose_scalar(nu) -> mp.mpc:
    """I_{-nu} I~_nu acts on test functions as G_0(nu) G_0(-nu)."""
    return G(nu, 0) * G(-complex(nu), 0)


def bump(center: float, width: float, x):
    u = (x - center) / width
    if abs(u) >= 1:
        return mp.mpf(0)
    return mp.exp(1 - 1 / (1 - u * u))


def intertwine_apply(center: float, width: float, nu, y: float) -> mp.mpc:
    """int bump(z) |-y-z|^{nu-1} dz (epsilon = 0) by tanh-sinh, split at the
    kernel singularity z = -y when it lies in the support."""
    nu = _c(nu)
    y = mp.mpf(y)

    def g(z):
        d = -y - z
        if d == 0:
            return mp.mpf(0)
        return bump(center, width, z) * mp.power(abs(d), nu - 1)

    a, b = mp.mpf(center - width), mp.mpf(center + width)
    points = [a, -y, b] if a < -y < b else [a, b]
    with mp.workdps(20):
        return mp.quad(g, points)


class HurwitzTable:
    """zeta(s, p/q) from mpmath, cached so that all characters mod q share
    the same Hurwitz values.  L(s, chi) = q^{-s} sum_p chi(p) zeta(s, p/q)
    is the formula mpmath.dirichlet evaluates."""

    def __init__(self):
        self._cache: dict = {}

    def zeta(self, s, p: int, q: int) -> mp.mpc:
        g = gcd(p, q)
        key = (complex(s), p // g, q // g)
        if key not in self._cache:
            self._cache[key] = mp.zeta(_c(s), (p // g, q // g))
        return self._cache[key]

    def dirichlet_L(self, s, modulus: int, exponents: dict) -> mp.mpc:
        total = mp.mpc(0)
        for p in range(1, modulus + 1):
            q = exponents.get(p % modulus)
            if q is not None:
                total += e_frac(q) * self.zeta(s, p, modulus)
        return total / mp.power(modulus, _c(s))


def finite_fourier(modulus: int, exponents: dict, m: int) -> mp.mpc:
    """psi-hat(m) = sum_a psi(a) e(a m / N) from the definition."""
    return mp.fsum(
        e_frac(q) * e_frac(Fraction(a * m, modulus)) for a, q in exponents.items()
    )


def gamma_product(factors, s) -> mp.mpc:
    """prod Gamma_R(s+shift) or Gamma_C(s+shift), from their definitions."""
    s = _c(s)
    out = mp.mpc(1)
    for kind, shift in factors:
        z = s + _c(shift)
        if kind == "R":
            out *= mp.power(mp.pi, -z / 2) * mp.gamma(z / 2)
        else:
            out *= 2 * mp.power(2 * mp.pi, -z) * mp.gamma(z)
    return out


def coeff_big_cell(n: int, nu, modulus: int, exponents: dict, r) -> mp.mpc:
    """a_r = N^{-nu-n/2} sum_{d | gcd(r)} d^{-nu+n/2-1} psi-hat(-r_1/d), r != 0."""
    nu = _c(nu)
    g = 0
    for x in r:
        g = gcd(g, abs(int(x)))
    total = mp.mpc(0)
    for d in range(1, g + 1):
        if g % d == 0:
            total += mp.power(d, -nu + mp.mpf(n) / 2 - 1) * finite_fourier(
                modulus, exponents, -int(r[0]) // d
            )
    return mp.power(modulus, -nu - mp.mpf(n) / 2) * total


def euler_phi(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)
