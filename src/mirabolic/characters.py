"""Exact arithmetic of Dirichlet characters mod N.

Every value of a character mod N is an L-th root of unity, where L is the
exponent of the unit group (Z/N)* (the lcm of the orders of its cyclic
factors).  A character is therefore stored as a row of integers k_a in
[0, L), one per unit a, with psi(a) = e(k_a / L), e(z) = exp(2*pi*i*z).
All characters mod N share one sorted unit list and one residue -> position
index.  Group operations (inverse, parity, conductor tests, Fourier sums)
are integer arithmetic on the rows mod L; conversion to complex happens
only at the boundary, through the cached tables of the L-th roots of unity
(character values) and the N-th roots (the additive twist e(a*m/N) of a
Fourier sum).  The module is plain Python: rows are tuples of ints.

The enumeration is deterministic: the unit group (Z/N)* is decomposed into
cyclic factors using the smallest primitive root for each odd prime power
and the (-1, 5) generator pair for 2^k, k >= 3.  The rows of all phi(N)
characters are built one cyclic factor at a time from the discrete logs.
"""

from __future__ import annotations

import cmath
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm
from typing import TYPE_CHECKING

from .errors import _Value

if TYPE_CHECKING:
    from fractions import Fraction


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as a list of (p, exponent) pairs."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(n: int) -> int:
    """phi(n) = |(Z/n)*| for n >= 1."""
    if n < 1:
        raise ValueError("modulus must be positive")
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def _smallest_primitive_root(q: int) -> int:
    # q is an odd prime power; a primitive root exists.
    phi = euler_phi(q)
    prime_divs = [p for p, _ in factorize(phi)]
    for g in range(2, q):
        if gcd(g, q) != 1:
            continue
        if all(pow(g, phi // p, q) != 1 for p in prime_divs):
            return g
    raise AssertionError(f"no primitive root mod {q}")


def _unit_group_structure(n: int) -> tuple[tuple[int, int], ...]:
    """Cyclic decomposition of (Z/n)* as ((generator, order), ...).

    Generators are lifted to mod-n residues via CRT so that each one is
    congruent to 1 modulo the complementary prime-power factors.
    """
    if n == 1:
        return ()
    comps: list[tuple[int, int, int]] = []  # (gen mod q, order, q)
    for p, e in factorize(n):
        q = p**e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                comps.append((3, 2, q))
            else:
                comps.append((q - 1, 2, q))
                comps.append((5, 2 ** (e - 2), q))
        else:
            comps.append((_smallest_primitive_root(q), euler_phi(q), q))
    out = []
    for g, order, q in comps:
        m = n // q
        # CRT lift: x = g mod q, x = 1 mod n/q
        if m == 1:
            lift = g % n
        else:
            inv = pow(q, -1, m)
            lift = (g + q * ((1 - g) * inv % m)) % n
        out.append((lift, order))
    return tuple(out)


class _UnitGroup:
    """(Z/N)* with what all characters mod N share: the sorted units, the
    residue -> position index, the group exponent L, the discrete logs of
    the units over the cyclic generators, and the root-of-unity tables."""

    def __init__(self, modulus: int):
        structure = _unit_group_structure(modulus)
        self.modulus = modulus
        self.orders = tuple(s for _, s in structure)
        self.root_order = lcm(*self.orders)
        # residues[j] = prod g_i^l_i, j running over the exponent vectors l in
        # lexicographic order (the character order), so l_i = j // stride_i % s_i
        residues = [1 % modulus]
        for g, s in structure:
            powers = [pow(g, k, modulus) for k in range(s)]
            residues = [r * p % modulus for r in residues for p in powers]
        by_residue = sorted(range(len(residues)), key=residues.__getitem__)
        self.units = tuple(residues[j] for j in by_residue)
        # unit_steps[i][u] = l_i (L/s_i) for units[u]: the exponent of the
        # character with k_i = 1 (and every other k zero) over the L-th roots
        self.unit_steps = []
        stride = len(residues)
        for s in self.orders:
            stride //= s
            step = self.root_order // s
            self.unit_steps.append([j // stride % s * step for j in by_residue])
        self.position: list[int | None] = [None] * modulus
        for i, a in enumerate(self.units):
            self.position[a] = i

    @cached_property
    def roots(self) -> list[complex]:
        """roots[k] = e(k/L), bit for bit the value e(q) of the reduced q = k/L."""
        L = self.root_order
        return [cmath.exp(2j * cmath.pi * (k / L)) for k in range(L)]

    @cached_property
    def modulus_roots(self) -> list[complex]:
        """modulus_roots[a] = e(a/N), for the additive characters of Z/N."""
        N = self.modulus
        return [cmath.exp(2j * cmath.pi * (a / N)) for a in range(N)]

    @cached_property
    def unit_labels(self) -> list[str]:
        return [str(a) for a in self.units]

    @cached_property
    def exponent_labels(self) -> list[str]:
        """exponent_labels[k] is k/L in lowest terms, "p/q", and "0" for
        k = 0, the one k in [0, L) whose reduced denominator is 1: the text
        str(Fraction(k, L)) would give, by integer gcd."""
        L = self.root_order
        labels = ["0"]
        for k in range(1, L):
            g = gcd(k, L)
            labels.append(f"{k // g}/{L // g}")
        return labels


@lru_cache(maxsize=64)
def _unit_group(modulus: int) -> _UnitGroup:
    return _UnitGroup(modulus)


class DirichletCharacter:
    """A Dirichlet character mod N as a row of exact integer exponents.

    ``row[i]`` is the integer k in [0, L) with psi(units[i]) = e(k / L),
    where ``units`` is the sorted list of unit residues mod N (residue 0
    stands for 1 when N = 1) and L = ``root_order`` is the exponent of
    (Z/N)*.  Non-units have no entry; psi(a) = 0 there.  Immutable, since
    it is hashed: assigning or deleting a field raises AttributeError.
    """

    __slots__ = ("modulus", "row", "_group")

    def __init__(self, modulus: int, row: tuple[int, ...]):
        group = _unit_group(modulus)
        if len(row) != len(group.units):
            raise ValueError(f"a character mod {modulus} has {len(group.units)} exponents")
        object.__setattr__(self, "_group", group)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "row", tuple(row))

    __setattr__ = _Value.__setattr__
    __delattr__ = _Value.__delattr__

    def __reduce__(self):
        return DirichletCharacter, (self.modulus, self.row)

    def __repr__(self):
        return f"DirichletCharacter(modulus={self.modulus}, principal={self.is_principal})"

    def __hash__(self):
        return hash((self.modulus, self.row))

    def __eq__(self, other):
        return (
            isinstance(other, DirichletCharacter)
            and self.modulus == other.modulus
            and self.row == other.row
        )

    @property
    def units(self) -> tuple[int, ...]:
        """The unit residues mod N in ascending order, shared by all
        characters mod N."""
        return self._group.units

    @property
    def root_order(self) -> int:
        """L, the exponent of (Z/N)*: every value of psi is an L-th root of 1."""
        return self._group.root_order

    @property
    def exponents(self) -> dict[int, Fraction]:
        """Each unit residue a mapped to the Fraction q in [0,1) with
        psi(a) = e(q), built from the row on each access."""
        from fractions import Fraction

        L = self._group.root_order
        return {a: Fraction(k, L) for a, k in zip(self._group.units, self.row)}

    def exponent(self, a: int) -> Fraction | None:
        """Exact exponent q with psi(a) = e(q), or None when gcd(a, N) > 1."""
        from fractions import Fraction

        i = self._group.position[a % self.modulus]
        return None if i is None else Fraction(self.row[i], self._group.root_order)

    def __call__(self, a: int) -> complex:
        i = self._group.position[a % self.modulus]
        if i is None:
            return 0j
        return self._group.roots[self.row[i]]

    @property
    def is_principal(self) -> bool:
        return not any(self.row)

    @property
    def parity(self) -> int:
        """epsilon in {0,1} with psi(-1) = (-1)^epsilon."""
        return int(self.row[self._group.position[-1 % self.modulus]] != 0)

    def inverse(self) -> "DirichletCharacter":
        """The character psi^{-1} = conjugate of psi."""
        L = self._group.root_order
        return DirichletCharacter(self.modulus, tuple(-k % L for k in self.row))

    def to_record(self) -> dict:
        """JSON-ready record: modulus, exponent table, parity."""
        labels = self._group.exponent_labels
        return {
            "modulus": self.modulus,
            "exponents": {a: labels[k] for a, k in zip(self._group.unit_labels, self.row)},
            "parity": self.parity,
        }


def enumerate_characters(N: int) -> list[DirichletCharacter]:
    """All phi(N) characters mod N, principal first, in a fixed order.

    With generators g_i of orders s_i, the character with exponent vector k
    takes the unit prod g_i^l_i to e(sum_i k_i l_i / s_i).  Over the common
    denominator L the rows are built one cyclic factor at a time: each row so
    far is extended by the s_i integer rows k_i (L/s_i) l_i mod L, so the
    characters come in lexicographic order of k.
    """
    if N < 1:
        raise ValueError("modulus must be positive")
    group = _unit_group(N)
    L = group.root_order
    factors = [
        [[k * b % L for b in base] for k in range(s)]
        for s, base in zip(group.orders, group.unit_steps)
    ]
    rows = factors[0] if factors else [[0]]
    for factor in factors[1:]:
        rows = [[(a + b) % L for a, b in zip(row, f)] for row in rows for f in factor]
    return [DirichletCharacter(N, tuple(row)) for row in rows]


def finite_fourier(psi: DirichletCharacter, m: int) -> complex:
    """psi-hat(m) = sum_{a mod N} psi(a) e(a*m/N), summed over the units as
    roots[k_a] * modulus_roots[a*m mod N]: both exponents are reduced exactly,
    as integers, before they index the root tables."""
    group = psi._group
    N, roots, twist = psi.modulus, group.roots, group.modulus_roots
    m %= N
    return sum(roots[k] * twist[a * m % N] for k, a in zip(psi.row, group.units))


def gauss_sum(psi: DirichletCharacter) -> complex:
    """tau_psi = psi-hat(1)."""
    return finite_fourier(psi, 1)


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1 in ascending order, by trial division
    up to sqrt(n)."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def conductor(psi: DirichletCharacter) -> int:
    """Smallest f | N such that psi factors through (Z/f)*, i.e. psi is
    trivial on the units congruent to 1 mod f."""
    N, row, position = psi.modulus, psi.row, psi._group.position
    for f in divisors(N):
        kernel = (position[a] for a in range(1 % f, N, f))
        if not any(row[i] for i in kernel if i is not None):
            return f
    return N


def is_primitive(psi: DirichletCharacter) -> bool:
    return conductor(psi) == psi.modulus
