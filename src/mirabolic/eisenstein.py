"""Fourier coefficients, delta-atom expansions, poles and local Euler factors
of the mirabolic Eisenstein distributions for Gamma_0(N) in GL(n, Z).

Both coefficient families are finite divisor sums away from r = 0:

    a_r = N^{-nu-n/2} sum_{d | gcd(r)} d^{-nu+n/2-1} psihat(-r_1/d)
    c_r = N^{1-n}     sum_{d | gcd(r)} psi(d) d^{-nu+n/2-1}

At r = 0 the sums are infinite and are defined by analytic continuation:
c_0 = N^{1-n} L(nu-n/2+1, psi), and a_0 uses psihat(0) in place of the
psi(d)-sum (so a_0 = 0 identically for nonprincipal psi).

``brute_force_c_r`` is the independent oracle: it evaluates the unreduced
double sum over d and v in (Z/d)^{n-1} without using the collapse of the
inner exponential sum.
"""

from __future__ import annotations

import cmath
import itertools
from math import gcd, lcm
from typing import TYPE_CHECKING

from .characters import DirichletCharacter, divisors, euler_phi, finite_fourier
from .errors import ConvergenceRegionError, PoleError, _Value
from .special import dirichlet_L, residue_L_at_1, riemann_zeta, signed_power

if TYPE_CHECKING:
    from fractions import Fraction


class EisParams(_Value):
    """Parameter bundle (n, nu, psi, epsilon) of a mirabolic Eisenstein
    distribution of level N = psi.modulus."""

    __slots__ = ("n", "nu", "psi", "epsilon")

    def __init__(self, n: int, nu: complex, psi: DirichletCharacter, epsilon: int):
        if n < 2:
            raise ValueError("n must be at least 2")
        if epsilon not in (0, 1):
            raise ValueError("epsilon must be 0 or 1")
        if psi.parity != epsilon:
            # psi(-1) = (-1)^epsilon is forced; otherwise the series is 0.
            raise ValueError(
                f"parity mismatch: psi(-1) = (-1)^{psi.parity}, epsilon = {epsilon}"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "epsilon", epsilon)

    @property
    def level(self) -> int:
        return self.psi.modulus

    @property
    def rho_mir(self) -> float:
        return self.n / 2


class DeltaAtom(_Value):
    """A point mass: weight * delta at a rational point of the (n-1)-torus."""

    __slots__ = ("location", "weight")

    def __init__(self, location: tuple[Fraction, ...], weight: complex):
        object.__setattr__(self, "location", location)
        object.__setattr__(self, "weight", weight)


def _index(params: EisParams, r) -> tuple[tuple[int, ...], int]:
    """The coefficient index r as n-1 integers, and the gcd of its entries
    (0 for r = 0); ValueError for any other length."""
    r = tuple(int(x) for x in r)
    if len(r) != params.n - 1:
        raise ValueError(f"r must have length n-1 = {params.n - 1}")
    return r, gcd(*r)


def coeff_big_cell(params: EisParams, r) -> complex:
    """Big-cell Fourier coefficient a_r; r has length n-1."""
    r, g = _index(params, r)
    n, nu, psi = params.n, complex(params.nu), params.psi
    N = params.level
    pref = signed_power(N, -nu - n / 2)
    if g == 0:
        if not psi.is_principal:
            return 0j  # psihat(0) = 0
        if abs(nu - n / 2) < 1e-12:
            raise PoleError("a_0 pole at nu = n/2 for principal psi")
        return pref * euler_phi(N) * riemann_zeta(nu - n / 2 + 1)
    total = 0j
    for d in divisors(g):
        total += signed_power(d, -nu + n / 2 - 1) * finite_fourier(psi, -r[0] // d)
    return pref * total


def coeff_wlong_cell(params: EisParams, r) -> complex:
    """Long-Weyl-cell Fourier coefficient c_r; r has length n-1."""
    _, g = _index(params, r)
    n, nu, psi = params.n, complex(params.nu), params.psi
    N = params.level
    pref = float(N) ** (1 - n)
    if g == 0:
        return pref * dirichlet_L(nu - n / 2 + 1, psi)
    total = 0j
    for d in divisors(g):
        total += psi(d) * signed_power(d, -nu + n / 2 - 1)
    return pref * total


def brute_force_c_r(params: EisParams, r, d_max: int) -> complex:
    """Oracle for c_r by unreduced double summation over d and v in (Z/d)^{n-1}.

    Requires r != 0 and d_max at least the largest divisor of gcd(r); all
    terms with d > gcd(r) contribute zero, so equality with coeff_wlong_cell
    is exact up to rounding.
    """
    r, g = _index(params, r)
    if g == 0:
        raise ValueError("brute-force oracle requires r != 0")
    if d_max < g:
        raise ValueError("d_max must cover every divisor of gcd(r)")
    n, nu, psi = params.n, complex(params.nu), params.psi
    N = params.level
    psi_values = [psi(d) for d in range(1, d_max + 1)]
    total = bf_weighted_sum(n, nu, r, d_max, psi_values)
    return float(N) ** (1 - n) * total


def grid_exp_sum(d: int, r) -> complex:
    """sum over v in (Z/d)^m of e((r . v)/d), by direct grid summation.

    The phase index is accumulated modulo d in integer arithmetic, so the
    result is a sum of exact d-th roots of unity.  numpy is imported here,
    not with the module: only this oracle uses it.
    """
    import numpy as np

    r = np.asarray(r, dtype=np.int64)
    m = len(r)
    if d == 1:
        return complex(1.0)
    roots = np.exp(2j * np.pi * np.arange(d) / d)
    v = np.arange(d, dtype=np.int64)
    idx = np.zeros((1,), dtype=np.int64)
    for i in range(m):
        idx = (idx[:, None] + (r[i] % d) * v[None, :]) % d
        idx = idx.reshape(-1)
    return complex(roots[idx].sum())


def bf_weighted_sum(n: int, nu: complex, r, d_max: int, psi_values) -> complex:
    """sum_{d=1}^{d_max} psi(d) d^{-nu-n/2} grid_exp_sum(d, r).

    psi_values[d-1] must hold psi(d) for d = 1..d_max.
    """
    total = 0j
    for d in range(1, d_max + 1):
        w = complex(psi_values[d - 1])
        if w == 0:
            continue
        total += w * signed_power(d, -nu - n / 2) * grid_exp_sum(d, r)
    return total


def delta_atom_sum(
    params: EisParams, cell: str, height_cutoff: int
) -> list[DeltaAtom]:
    """Lattice-vector enumeration of the delta-function expansion.

    cell is "big" (v_1 > 0, locations (v_n/v_1, v_{n-1}/v_1, ..., v_2/v_1))
    or "wlong" (v_n > 0, locations (v_1/v_n, ..., v_{n-1}/v_n)).  All of
    v_1..v_{n-1} must be divisible by the level.  Coordinates are enumerated
    over 0..height_cutoff (the positivity-constrained one over 1..cutoff);
    zero weights psi(v_n) = 0 are omitted.
    """
    from fractions import Fraction

    if cell not in ("big", "wlong"):
        raise ValueError("cell must be 'big' or 'wlong'")
    n, nu, psi = params.n, complex(params.nu), params.psi
    N = params.level
    if nu.real <= n / 2:
        raise ConvergenceRegionError("delta-atom sum needs Re nu > n/2")
    H = int(height_cutoff)
    atoms: list[DeltaAtom] = []
    divisible = range(0, H + 1, N)

    if cell == "big":
        for v1 in range(N, H + 1, N):
            scale = signed_power(v1, -nu - n / 2)
            for middle in itertools.product(divisible, repeat=n - 2):
                for vn in range(0, H + 1):
                    w = psi(vn)
                    if w == 0:
                        continue
                    v = (v1,) + middle + (vn,)
                    weight = w * scale
                    loc = tuple(
                        Fraction(v[n - 1 - i], v1) for i in range(n - 1)
                    )  # (v_n/v_1, v_{n-1}/v_1, ..., v_2/v_1)
                    atoms.append(DeltaAtom(loc, weight))
    else:
        for vn in range(1, H + 1):
            w = psi(vn)
            if w == 0:
                continue
            weight = w * signed_power(vn, -nu - n / 2)
            for head in itertools.product(divisible, repeat=n - 1):
                loc = tuple(Fraction(v, vn) for v in head)
                atoms.append(DeltaAtom(loc, weight))
    return atoms


def atom_fourier_c_r(atoms: list[DeltaAtom], r, N: int, n: int) -> complex:
    """Fourier integral of a wlong atom list over the period-N torus.

    Recovers c_r from atoms whose locations lie in [0, N)^{n-1}:
    N^{1-n} * sum weight * e(-(r . loc)/N).  With loc_i = p_i/d_i in lowest
    terms and D = lcm(d_i), the phase (r . loc)/N is reduced exactly, as an
    integer numerator mod N*D, before it is exponentiated.
    """
    r = tuple(int(x) for x in r)
    total = 0j
    for atom in atoms:
        nums = [q.numerator for q in atom.location]
        dens = [q.denominator for q in atom.location]
        if not all(0 <= p < N * d for p, d in zip(nums, dens)):
            continue
        D = lcm(*dens)
        M = N * D
        k = sum(ri * p * (D // d) for ri, p, d in zip(r, nums, dens)) % M
        total += atom.weight * cmath.exp(-2j * cmath.pi * (k / M))
    return float(N) ** (1 - n) * total


def pole_data(params: EisParams) -> dict:
    """Polar behaviour of c_0 at nu = n/2.

    Polar iff psi is principal; the residue of c_0 in nu there is
    N^{1-n} * phi(N)/N.
    """
    psi = params.psi
    if not psi.is_principal:
        return {"is_polar": False, "residue_c0": 0j}
    N = params.level
    res = float(N) ** (1 - params.n) * residue_L_at_1(psi)
    return {"is_polar": True, "residue_c0": complex(res)}


def nu_from_s(n: int, s: complex) -> complex:
    """nu = n(s - 1/2); maps s <-> 1-s to nu <-> -nu."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return n * (complex(s) - 0.5)


def s_from_nu(n: int, nu: complex) -> complex:
    if n < 2:
        raise ValueError("n must be at least 2")
    return complex(nu) / n + 0.5


class Ramified(_Value):
    """Marker for a local character component ramified at p, with its
    ramification degree (the exponent of the conductor at p)."""

    __slots__ = ("degree",)

    def __init__(self, degree: int):
        object.__setattr__(self, "degree", degree)


class RamifiedConstant(_Value):
    """Symbolic classification of a ramified local integral: a nonzero
    constant (not pinned down) times psi(v_n)."""

    __slots__ = ("description",)

    def __init__(self, description: str = "constant * psi(v_n)"):
        object.__setattr__(self, "description", description)


def local_euler_factor(
    p: int, s: complex, n: int, psi_local, N_p: int
) -> complex | RamifiedConstant:
    """Value of the local Tate-type integral at a finite prime p.

    psi_local is the unramified value psi(p) (a complex root of unity or 0)
    or a Ramified(degree) marker.  N_p is the level exponent at p.
    """
    s = complex(s)
    if N_p == 0:
        if isinstance(psi_local, Ramified):
            return 0j
        return 1 / (1 - complex(psi_local) * signed_power(p, -n * s))
    degree = psi_local.degree if isinstance(psi_local, Ramified) else 0
    if degree > N_p:
        return 0j
    return RamifiedConstant()
