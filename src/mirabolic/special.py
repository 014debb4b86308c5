"""Complex special functions: Gamma, Gamma_R, Gamma_C, the oscillatory factor
G_delta, Hurwitz zeta and Dirichlet L-functions with analytic continuation.

Pure Python on math and cmath.  Everything Gamma-like is computed in log
space, by log_gamma on the principal branch (Stirling's series, reached by
a short recurrence or, left of the imaginary axis, by reflection), and
exponentiated at the boundary, so ratios like G_delta stay finite where the
naive quotient would overflow; a value whose exponential is still too large
for a double raises ValueOverflowError.  Digamma, which L(1, psi) needs,
uses the same recurrence and series.  The series coefficients of log Gamma,
digamma and Euler-Maclaurin all come from one table of even Bernoulli
numbers, computed once on first use.

Hurwitz zeta uses Euler-Maclaurin with a fixed rule: M = max(30,
int(1.2 |Im s|) + 10) directly summed terms and J = 25 Bernoulli corrections
B_2 .. B_50; a sum beyond the double range raises ValueOverflowError.
Dirichlet L-functions are assembled from it as
L(s, psi) = N^{-s} sum_a psi(a) zeta(s, a/N), which continues L to the whole
plane (minus s=1 for principal psi).

parse_complex reads a complex argument as the CLI flags and the twists of
the rep grammar write it, `re` or `re,im`.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from math import ceil, comb, copysign, factorial, floor, gcd, lgamma, log, nan, pi
from typing import TYPE_CHECKING

from .errors import NotPrincipalError, ParseError, PoleError, ValueOverflowError

if TYPE_CHECKING:
    from .characters import DirichletCharacter

_POLE_TOL = 1e-12
_EM_MIN_TERMS = 30  # Euler-Maclaurin: at least this many terms summed directly
_EM_DEPTH = 25  # Bernoulli corrections B_2 .. B_50
_STIRLING_MIN = 10.0  # log Gamma and digamma: asymptotic series for Re z >= this
_STIRLING_MIN_IMAG = 7.0  # ... or, for log Gamma, for |Im z| >= this
_STIRLING_TERMS = 10  # B_2 .. B_20: exact to rounding in both regions
_HALF_LOG_2PI = 0.5 * log(2 * pi)
_LOG_PI = log(pi)


def _is_nonpositive_even_integer(z: complex) -> bool:
    return (
        abs(z.imag) < _POLE_TOL
        and z.real < _POLE_TOL
        and cmath.isfinite(z)  # round() raises on an infinite real part
        and abs(z.real / 2 - round(z.real / 2)) < _POLE_TOL
    )


def _is_nonpositive_integer(z: complex) -> bool:
    return (
        abs(z.imag) < _POLE_TOL
        and z.real < _POLE_TOL
        and cmath.isfinite(z)  # round() raises on an infinite real part
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


def parse_complex(text: str, position: int | None = None) -> complex:
    """A finite complex number written `re` or `re,im` (a CLI flag or a
    twist of the rep grammar); ParseError, carrying position, when malformed
    or when a part is inf or nan."""
    parts = text.split(",")
    try:
        z = complex(*map(float, parts)) if len(parts) <= 2 else None
    except ValueError:
        z = None
    if z is None:
        raise ParseError(f"bad complex value {text!r} (expected re or re,im)", position)
    if not cmath.isfinite(z):
        raise ParseError(f"non-finite complex value {text!r}", position)
    return z


def log_gamma(s: complex) -> complex:
    """Principal branch of log Gamma(s): the continuation of the real
    log Gamma from s > 0, cut along the negative real axis, which takes its
    value from above (from below for an imaginary part of -0.0).

    The layout of Hare (J. Algorithms 25, 1997), in O(1) steps anywhere:
    - real s: math.lgamma gives log|Gamma|, and each negative factor of
      Gamma(x) = Gamma(x+m) / (x (x+1) ... (x+m-1)) adds -i pi;
    - Re s >= _STIRLING_MIN or |Im s| >= _STIRLING_MIN_IMAG: Stirling's
      series, exact to rounding there;
    - Re s < 0: reflection, log pi - log sin(pi s) - log Gamma(1-s) plus
      Hare's 2 pi i branch term; |Im s| < 7 bounds |sin(pi s)| by
      cosh(7 pi) < 2e9, and the argument of sin is reduced exactly;
    - otherwise log Gamma(z) = log Gamma(z+2) - log(z (z+1)) shifts z to
      Stirling's region; with Re z >= 0 the principal log of z (z+1) is
      the sum of those of z and z+1, which keeps the branch."""
    z = complex(s)
    if _is_nonpositive_integer(z):
        raise PoleError(f"Gamma pole at s={z}")
    if not cmath.isfinite(z):
        return complex(nan, nan)
    x, y = z.real, z.imag
    if y == 0:
        return complex(lgamma(x), -copysign(pi, y) * ceil(-x) if x < 0 else y)
    shift = 0j
    if abs(y) < _STIRLING_MIN_IMAG:
        if x < 0:
            n = round(x)
            sin_pi = cmath.sin(pi * complex(x - n, y)) * (-1) ** (n % 2)
            branch = copysign(2 * pi, y) * floor(0.5 * x + 0.25)
            return complex(_LOG_PI, branch) - cmath.log(sin_pi) - log_gamma(1 - z)
        while z.real < _STIRLING_MIN:
            shift += cmath.log(z * (z + 1))
            z += 2
    w = 1 / z
    w2 = w * w
    series = 0j
    for c in reversed(_stirling_coefficients()):
        series = series * w2 + c
    return (z - 0.5) * cmath.log(z) - z + _HALF_LOG_2PI + series * w - shift


def _digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for real x > 0: the recurrence
    psi(x) = psi(x+1) - 1/x up to x >= _STIRLING_MIN, then the asymptotic
    series log x - 1/(2x) - sum_k B_2k / (2k x^2k)."""
    shift = 0.0
    while x < _STIRLING_MIN:
        shift += 1 / x
        x += 1
    w2 = 1 / (x * x)
    coeffs = _stirling_coefficients()
    series = 0.0
    for k in range(_STIRLING_TERMS, 0, -1):
        series = series * w2 + (2 * k - 1) * coeffs[k - 1]
    return log(x) - 0.5 / x - series * w2 - shift


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
def _even_bernoulli() -> tuple[float, ...]:
    """B_0, B_2, ..., B_{2 _EM_DEPTH} as floats, each the correctly rounded
    quotient p/q of the exact value, kept as a reduced integer pair (p, q),
    q > 0, through the recurrence sum_{k=0}^{2m} C(2m+1, k) B_k = 0
    (B_1 = -1/2, and B_k = 0 for odd k >= 3):
    B_2m = ((2m-1)/2 - sum_{j=1}^{m-1} C(2m+1, 2j) B_2j) / (2m+1)."""
    exact = [(1, 1)]
    for m in range(1, _EM_DEPTH + 1):
        p, q = 2 * m - 1, 2
        for j in range(1, m):
            pj, qj = exact[j]
            p, q = p * qj - comb(2 * m + 1, 2 * j) * pj * q, q * qj
            g = gcd(p, q)
            p, q = p // g, q // g
        q *= 2 * m + 1
        g = gcd(p, q)
        exact.append((p // g, q // g))
    return tuple(p / q for p, q in exact)


@lru_cache(maxsize=None)
def _euler_maclaurin_coefficients() -> tuple[float, ...]:
    """B_2j / (2j)! for j = 1 .. _EM_DEPTH."""
    bern = _even_bernoulli()
    return tuple(bern[j] / factorial(2 * j) for j in range(1, _EM_DEPTH + 1))


@lru_cache(maxsize=None)
def _stirling_coefficients() -> tuple[float, ...]:
    """B_2k / (2k (2k-1)) for k = 1 .. _STIRLING_TERMS: Stirling's series
    log Gamma(z) ~ (z - 1/2) log z - z + log(2 pi)/2 + sum_k c_k z^(1-2k)."""
    bern = _even_bernoulli()
    return tuple(bern[k] / (2 * k * (2 * k - 1)) for k in range(1, _STIRLING_TERMS + 1))


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
        for j, coeff in enumerate(_euler_maclaurin_coefficients(), 1):
            total += coeff * poch * xpow
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
    N = psi.modulus
    total = 0j
    for a in psi.units:
        total += psi(a) * _digamma(a / N)
    return -total / N


def residue_L_at_1(psi: DirichletCharacter) -> float:
    """Residue of L(s, psi) at s=1 for principal psi: phi(N)/N."""
    from .characters import euler_phi

    if not psi.is_principal:
        raise NotPrincipalError("residue defined only for principal characters")
    return euler_phi(psi.modulus) / psi.modulus
