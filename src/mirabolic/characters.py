"""Exact arithmetic of Dirichlet characters mod N.

Characters are stored as tables of rational exponents q with value e(q),
e(z) = exp(2*pi*i*z).  All group-theoretic operations (multiplicativity,
Fourier sums, conductor tests) are done on the exponents with Fraction
arithmetic; conversion to complex happens only at the boundary.

The enumeration is deterministic: the unit group (Z/N)* is decomposed into
cyclic factors using the smallest primitive root for each odd prime power
and the (-1, 5) generator pair for 2^k, k >= 3.
"""

from __future__ import annotations

import cmath
import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt


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


@lru_cache(maxsize=None)
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


def e_of(q: Fraction | float) -> complex:
    """e(q) = exp(2*pi*i*q)."""
    return cmath.exp(2j * cmath.pi * float(q))


class DirichletCharacter:
    """A Dirichlet character mod N with exact root-of-unity values.

    ``exponents`` maps each unit residue a to the Fraction q in [0,1) with
    psi(a) = e(q).  Non-units are not in the table; psi(a) = 0 there.
    """

    __slots__ = ("modulus", "exponents", "_key")

    def __init__(self, modulus: int, exponents: dict[int, Fraction]):
        self.modulus = modulus
        self.exponents = exponents
        self._key = (modulus, tuple(sorted(exponents.items())))

    def __repr__(self):
        return f"DirichletCharacter(modulus={self.modulus}, principal={self.is_principal})"

    def __hash__(self):
        return hash(self._key)

    def __eq__(self, other):
        return isinstance(other, DirichletCharacter) and self._key == other._key

    def exponent(self, a: int) -> Fraction | None:
        """Exact exponent q with psi(a) = e(q), or None when gcd(a, N) > 1."""
        return self.exponents.get(a % self.modulus)

    def __call__(self, a: int) -> complex:
        q = self.exponent(a)
        if q is None:
            return 0j
        return e_of(q)

    @property
    def is_principal(self) -> bool:
        return all(q == 0 for q in self.exponents.values())

    @property
    def parity(self) -> int:
        """epsilon in {0,1} with psi(-1) = (-1)^epsilon."""
        q = self.exponents.get((-1) % self.modulus, Fraction(0))
        return 0 if q == 0 else 1

    def inverse(self) -> "DirichletCharacter":
        """The character psi^{-1} = conjugate of psi."""
        return DirichletCharacter(
            self.modulus,
            {a: (-q) % 1 for a, q in self.exponents.items()},
        )

    def to_record(self) -> dict:
        """JSON-ready record: modulus, exponent table, parity."""
        return {
            "modulus": self.modulus,
            "exponents": {str(a): str(q) for a, q in sorted(self.exponents.items())},
            "parity": self.parity,
        }


def enumerate_characters(N: int) -> list[DirichletCharacter]:
    """All phi(N) characters mod N, principal first, in a fixed order."""
    if N < 1:
        raise ValueError("modulus must be positive")
    if N == 1:
        return [DirichletCharacter(1, {0: Fraction(0)})]
    structure = _unit_group_structure(N)
    gens = [g for g, _ in structure]
    orders = [s for _, s in structure]

    # Discrete-log table: unit residue -> exponent tuple over the generators.
    logs: dict[int, tuple[int, ...]] = {}
    for ks in itertools.product(*(range(s) for s in orders)):
        a = 1
        for g, k, s in zip(gens, ks, orders):
            a = a * pow(g, k, N) % N
        logs[a] = ks
    assert len(logs) == euler_phi(N)

    chars = []
    for ks in itertools.product(*(range(s) for s in orders)):
        table = {}
        for a, ls in logs.items():
            q = sum(
                (Fraction(k * l, s) for k, l, s in zip(ks, ls, orders)),
                Fraction(0),
            )
            table[a] = q % 1
        chars.append(DirichletCharacter(N, table))
    return chars


def finite_fourier(psi: DirichletCharacter, m: int) -> complex:
    """psi-hat(m) = sum_{a mod N} psi(a) e(a*m/N), exact exponent arithmetic."""
    N = psi.modulus
    total = 0j
    for a, q in psi.exponents.items():
        total += e_of((q + Fraction(a * m, N)) % 1)
    return total


def gauss_sum(psi: DirichletCharacter) -> complex:
    """tau_psi = psi-hat(1)."""
    return finite_fourier(psi, 1)


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1 in ascending order, by trial division
    up to sqrt(n)."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def conductor(psi: DirichletCharacter) -> int:
    """Smallest f | N such that psi factors through (Z/f)*."""
    N = psi.modulus
    for f in divisors(N):
        if all(
            psi.exponents[a % N] == 0
            for a in range(1, N + 1, f)
            if gcd(a, N) == 1
        ):
            return f
    return N


def is_primitive(psi: DirichletCharacter) -> bool:
    return conductor(psi) == psi.modulus
