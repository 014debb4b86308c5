"""Complex special functions: Gamma, Gamma_R, Gamma_C, the oscillatory factor
G_delta, Hurwitz zeta and Dirichlet L-functions with analytic continuation.

Everything Gamma-like is computed in log space (scipy's complex loggamma,
which tracks the branch continuously) and exponentiated at the boundary, so
ratios like G_delta stay finite where the naive quotient would overflow; a
value whose exponential is still too large for a double raises
ValueOverflowError.  scipy.special is imported by its two callers (log_gamma
and L(1, psi) through digamma) on first use, so importing this module, and
the CLI commands that need no Gamma value, do not load scipy.

Hurwitz zeta uses Euler-Maclaurin with a fixed rule: M = max(30,
int(1.2 |Im s|) + 10) directly summed terms and J = 25 Bernoulli corrections
B_2 .. B_50; a sum beyond the double range raises ValueOverflowError.
Dirichlet L-functions are assembled from it as
L(s, psi) = N^{-s} sum_a psi(a) zeta(s, a/N), which continues L to the whole
plane (minus s=1 for principal psi).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import pi

from .characters import DirichletCharacter, euler_phi
from .errors import NotPrincipalError, PoleError, ValueOverflowError

_POLE_TOL = 1e-12
_EM_MIN_TERMS = 30  # Euler-Maclaurin: at least this many terms summed directly
_EM_DEPTH = 25  # Bernoulli corrections B_2 .. B_50


def _is_nonpositive_even_integer(z: complex) -> bool:
    return (
        abs(z.imag) < _POLE_TOL
        and z.real < _POLE_TOL
        and abs(z.real / 2 - round(z.real / 2)) < _POLE_TOL
    )


def _is_nonpositive_integer(z: complex) -> bool:
    return (
        abs(z.imag) < _POLE_TOL
        and z.real < _POLE_TOL
        and abs(z.real - round(z.real)) < _POLE_TOL
    )


def finite_exp(z: complex, what: str) -> complex:
    """exp(z) for a log-space value z of `what`: raises ValueOverflowError
    when exp(z) exceeds the double range, and PoleError when z is already
    not finite (a NaN, or an infinite log at a pole)."""
    try:
        value = cmath.exp(z)
    except OverflowError:
        raise ValueOverflowError(
            f"{what} overflows a double: log of its magnitude is {z.real:.6g}"
        ) from None
    if not cmath.isfinite(value):
        raise PoleError(f"{what} evaluated to a non-finite value")
    return value


def log_gamma(s: complex) -> complex:
    import scipy.special as sp

    s = complex(s)
    if _is_nonpositive_integer(s):
        raise PoleError(f"Gamma pole at s={s}")
    return complex(sp.loggamma(s))


def log_gamma_R(s: complex) -> complex:
    """log of Gamma_R(s) = pi^{-s/2} Gamma(s/2)."""
    s = complex(s)
    return -s / 2 * cmath.log(pi) + log_gamma(s / 2)


def gamma_R(s: complex) -> complex:
    """Gamma_R(s) = pi^{-s/2} Gamma(s/2); poles at even nonpositive integers."""
    return finite_exp(log_gamma_R(s), "Gamma_R")


def log_gamma_C(s: complex) -> complex:
    """log of Gamma_C(s) = 2 (2 pi)^{-s} Gamma(s)."""
    s = complex(s)
    return cmath.log(2) - s * cmath.log(2 * pi) + log_gamma(s)


def gamma_C(s: complex) -> complex:
    """Gamma_C(s) = 2 (2 pi)^{-s} Gamma(s); poles at nonpositive integers."""
    return finite_exp(log_gamma_C(s), "Gamma_C")


def G_delta_is_pole(s: complex, delta: int) -> bool:
    """True at s in {-delta, -delta-2, -delta-4, ...}."""
    return _is_nonpositive_even_integer(complex(s) + delta)


def G_delta_is_zero(s: complex, delta: int) -> bool:
    """True at s in {1+delta, 3+delta, ...} (zeros of the Gamma_R ratio)."""
    return _is_nonpositive_even_integer(1 - complex(s) + delta)


def G_delta(s: complex, delta: int) -> complex:
    """G_delta(s) = i^delta Gamma_R(s+delta) / Gamma_R(1-s+delta).

    Satisfies G_delta(s) G_delta(1-s) = (-1)^delta.  Computed as a single
    exponential of a log difference.
    """
    s = complex(s)
    delta = int(delta) % 2
    if G_delta_is_pole(s, delta):
        raise PoleError(f"G_{delta} pole at s={s}")
    if G_delta_is_zero(s, delta):
        return 0j
    return 1j**delta * finite_exp(
        log_gamma_R(s + delta) - log_gamma_R(1 - s + delta), "G_delta"
    )


@lru_cache(maxsize=None)
def _bernoulli(n: int) -> Fraction:
    """B_n (B_1 = -1/2 convention) by the standard recurrence, exact."""
    if n == 0:
        return Fraction(1)
    # sum_{k=0}^{n} C(n+1,k) B_k = 0  for n >= 1
    total = Fraction(0)
    binom = 1  # C(n+1, 0)
    for k in range(n):
        total += binom * _bernoulli(k)
        binom = binom * (n + 1 - k) // (k + 1)
    return -total / (n + 1)


def hurwitz_zeta(s: complex, a: float) -> complex:
    """zeta(s, a) = sum_{k>=0} (k+a)^{-s}, continued by Euler-Maclaurin.

    a must lie in (0, 1]; s != 1.
    """
    s = complex(s)
    if not 0 < a <= 1:
        raise ValueError("a must lie in (0, 1]")
    if abs(s - 1) < _POLE_TOL:
        raise PoleError("Hurwitz zeta pole at s=1")

    M = max(_EM_MIN_TERMS, int(1.2 * abs(s.imag)) + 10)

    try:
        total = 0j
        for k in range(M):
            total += cmath.exp(-s * cmath.log(a + k))
        x = a + M
        logx = cmath.log(x)
        total += cmath.exp((1 - s) * logx) / (s - 1)
        total += cmath.exp(-s * logx) / 2

        # Bernoulli tail: sum_j B_{2j}/(2j)! * (s)_{2j-1} * x^{-s-2j+1}
        poch = s  # (s)_1
        xpow = cmath.exp((-s - 1) * logx)
        for j in range(1, _EM_DEPTH + 1):
            b = _bernoulli(2 * j)
            fact = 1
            for i in range(2, 2 * j + 1):
                fact *= i
            total += float(b) / fact * poch * xpow
            poch *= (s + 2 * j - 1) * (s + 2 * j)
            xpow /= x * x
    except OverflowError:
        raise ValueOverflowError(
            f"Hurwitz zeta({s}, {a}) overflows a double"
        ) from None
    return total


def riemann_zeta(s: complex) -> complex:
    return hurwitz_zeta(s, 1.0)


def dirichlet_L(s: complex, psi: DirichletCharacter) -> complex:
    """L(s, psi) = N^{-s} sum_{a=1}^{N} psi(a) zeta(s, a/N).

    Agrees with the Dirichlet series for Re s > 1; the only pole is at s=1
    for principal psi.
    """
    s = complex(s)
    N = psi.modulus
    if abs(s - 1) < _POLE_TOL:
        if psi.is_principal:
            raise PoleError("L(s, principal) pole at s=1")
        # nontrivial psi: the zeta poles cancel; evaluate just off-axis is
        # unnecessary because the combination below is formed termwise.
        return _dirichlet_L_at_1(psi)
    total = 0j
    for a in psi.units:
        aa = a if a != 0 else N  # modulus 1 stores residue 0
        total += psi(a) * hurwitz_zeta(s, aa / N)
    return finite_exp(-s * cmath.log(N), "N^-s") * total


def _dirichlet_L_at_1(psi: DirichletCharacter) -> complex:
    # The simple poles of zeta(s, a/N) cancel for nonprincipal psi; take the
    # finite parts: zeta(s,a) = 1/(s-1) - psi0(a) + O(s-1) with digamma.
    # Use the digamma formula L(1,psi) = -(1/N) sum psi(a) digamma(a/N).
    import scipy.special as sp

    N = psi.modulus
    total = 0j
    for a in psi.units:
        total += psi(a) * complex(sp.digamma(a / N))
    return -total / N


def residue_L_at_1(psi: DirichletCharacter) -> float:
    """Residue of L(s, psi) at s=1 for principal psi: phi(N)/N."""
    if not psi.is_principal:
        raise NotPrincipalError("residue defined only for principal characters")
    return euler_phi(psi.modulus) / psi.modulus
