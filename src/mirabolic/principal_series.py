"""Principal-series parameter bundles and abelian coefficient transforms:
evaluation of the inducing character chi_{lambda,delta}, renormalization of
Fourier coefficients, the Whittaker normalization factor D(k), and the
contragredient involution.

Coefficient maps are sparse dictionaries keyed by (n-1)-tuples of Fractions
(or ints); only explicitly supplied indices exist.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import ZeroComponentError, ZeroEntryError, _Value
from .special import signed_power

if TYPE_CHECKING:
    from fractions import Fraction


class PSParams(_Value):
    """Parameters (lambda, delta) of a principal series of GL(n, R)."""

    __slots__ = ("n", "lam", "delta")

    def __init__(self, n: int, lam: tuple[complex, ...], delta: tuple[int, ...]):
        if n < 1:
            raise ValueError("n must be positive")
        if len(lam) != n or len(delta) != n:
            raise ValueError("lambda and delta must both have length n")
        if any(d not in (0, 1) for d in delta):
            raise ValueError("delta entries must be parity bits")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "delta", delta)

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "lambda": [{"re": z.real, "im": z.imag} for z in map(complex, self.lam)],
            "delta": list(self.delta),
        }


def rho(n: int) -> tuple[Fraction, ...]:
    """The half-sum vector ((n-1)/2, (n-3)/2, ..., (1-n)/2)."""
    from fractions import Fraction

    if n < 1:
        raise ValueError("n must be positive")
    return tuple(Fraction(n - 1 - 2 * j, 2) for j in range(n))


def chi_eval(ps: PSParams, b) -> complex:
    """chi_{lambda,delta}(b) = prod_j (sgn b_j)^{delta_j} |b_j|^{lambda_j}."""
    if len(b) != ps.n:
        raise ValueError(f"b must have length {ps.n}")
    out = 1 + 0j
    for bj, lj, dj in zip(b, ps.lam, ps.delta):
        bj = float(bj)
        if bj == 0:
            raise ZeroEntryError("chi_eval requires all b_j nonzero")
        out *= signed_power(bj, lj, dj)
    return out


def renormalize_coeffs(c: dict, ps: PSParams) -> dict:
    """a_r = prod_{j=1}^{n-1} (sgn r_j)^{delta_1+...+delta_j}
    |r_j|^{lambda_1+...+lambda_j} * c_r, for every key r of c."""
    n = ps.n
    lam_partial = []
    delta_partial = []
    acc_l, acc_d = 0j, 0
    for j in range(n - 1):
        acc_l += complex(ps.lam[j])
        acc_d += ps.delta[j]
        lam_partial.append(acc_l)
        delta_partial.append(acc_d)
    out = {}
    for r, cr in c.items():
        if len(r) != n - 1:
            raise ValueError(f"coefficient index {r} must have length {n - 1}")
        factor = 1 + 0j
        for rj, lj, dj in zip(r, lam_partial, delta_partial):
            rjf = float(rj)
            if rjf == 0:
                raise ZeroComponentError(f"zero component in index {r}")
            factor *= signed_power(rjf, lj, dj)
        out[r] = factor * complex(cr)
    return out


def whittaker_D_factor(k, n: int) -> float:
    """D(k) = |prod_{j=1}^{n-1} k_j^{j(n-j)/2}|."""
    if len(k) != n - 1:
        raise ValueError(f"k must have length {n - 1}")
    out = 1.0
    for j, kj in enumerate(k, start=1):
        kj = float(kj)
        if kj == 0:
            raise ZeroComponentError("whittaker_D_factor requires all k_j nonzero")
        out *= abs(kj) ** (j * (n - j) / 2)
    return out


def contragredient(ps: PSParams, c: dict) -> tuple[PSParams, dict]:
    """The dual bundle: lambda-tilde = reversed negation of lambda,
    delta-tilde = reversed delta, c-tilde_k = c_{reversed negated k}."""
    lam_t = tuple(-complex(l) for l in reversed(ps.lam))
    delta_t = tuple(reversed(ps.delta))
    ps_t = PSParams(ps.n, lam_t, delta_t)
    c_t = {}
    for r, cr in c.items():
        key = tuple(-x for x in reversed(r))
        c_t[key] = cr
    return ps_t, c_t
