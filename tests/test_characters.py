"""Character table, Gauss sum, and conductor tests against independent
oracles (direct definitions computed with complex arithmetic, the
Fraction-exponent enumeration the integer rows replaced, and 30-digit
mpmath Fourier sums)."""

import cmath
import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from mirabolic.characters import (
    DirichletCharacter,
    conductor,
    enumerate_characters,
    euler_phi,
    finite_fourier,
    gauss_sum,
    _unit_group,
    _unit_group_structure,
    divisors,
    is_primitive,
)


def brute_phi(n):
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


@pytest.mark.parametrize("N", list(range(1, 40)))
def test_enumeration_count_and_distinctness(N):
    chars = enumerate_characters(N)
    assert len(chars) == brute_phi(N) == euler_phi(N)
    assert len(set(chars)) == len(chars)
    # principal character is listed first
    assert chars[0].is_principal


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 8, 9, 12, 15, 16, 24, 35])
def test_complete_multiplicativity(N):
    for psi in enumerate_characters(N):
        for a in range(1, N + 1):
            for b in range(1, N + 1):
                lhs = psi(a * b)
                rhs = psi(a) * psi(b)
                assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("N", [3, 4, 5, 7, 8, 9, 12, 16, 21])
def test_period_and_vanishing(N):
    for psi in enumerate_characters(N):
        for a in range(-2 * N, 2 * N):
            if gcd(a % N if a % N else N, N) != 1:
                assert psi(a) == 0
            else:
                assert abs(psi(a) - psi(a + N)) < 1e-14


def test_parity_matches_value_at_minus_one():
    for N in [1, 3, 4, 5, 8, 12]:
        for psi in enumerate_characters(N):
            assert abs(psi(-1) - (-1.0) ** psi.parity) < 1e-14


def test_inverse_is_conjugate():
    for psi in enumerate_characters(21):
        inv = psi.inverse()
        for a in range(1, 22):
            assert abs(inv(a) - psi(a).conjugate()) < 1e-14


def brute_finite_fourier(psi, m):
    N = psi.modulus
    return sum(psi(a) * cmath.exp(2j * cmath.pi * a * m / N) for a in range(N))


@pytest.mark.parametrize("N", [1, 4, 5, 8, 9, 12])
def test_finite_fourier_against_direct_sum(N):
    for psi in enumerate_characters(N):
        for m in range(-N, 2 * N):
            assert abs(finite_fourier(psi, m) - brute_finite_fourier(psi, m)) < 1e-10


def test_odd_character_mod_4_fourier():
    # psi-hat(1) = 2i for the odd character mod 4
    psi = next(p for p in enumerate_characters(4) if p.parity == 1)
    assert abs(finite_fourier(psi, 1) - 2j) < 1e-12


def test_gauss_sum_twisted_translation_primitive():
    # psi-hat(m) = conj(psi)(m) * tau_psi for primitive psi and (m, N) = 1
    for N in [5, 7, 8, 12]:
        for psi in enumerate_characters(N):
            if not is_primitive(psi):
                continue
            tau = gauss_sum(psi)
            for m in range(1, N):
                if gcd(m, N) != 1:
                    continue
                expected = psi.inverse()(m) * tau
                assert abs(finite_fourier(psi, m) - expected) < 1e-10


def test_conductor_examples():
    # mod 1 and principal characters
    assert conductor(enumerate_characters(1)[0]) == 1
    for N in [6, 8, 12]:
        assert conductor(enumerate_characters(N)[0]) == 1
    # the quadratic character mod 3 lifted to mod 6 has conductor 3
    six = enumerate_characters(6)
    nonprincipal = [p for p in six if not p.is_principal]
    assert len(nonprincipal) == 1
    assert conductor(nonprincipal[0]) == 3
    assert not is_primitive(nonprincipal[0])


def test_primitive_counts_mod_8():
    prim = [p for p in enumerate_characters(8) if is_primitive(p)]
    # the two characters mod 8 not factoring through mod 4
    assert len(prim) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=36))
def test_character_orthogonality_rows(N):
    # sum_a psi(a) conj(xi(a)) = phi(N) [psi == xi]
    chars = enumerate_characters(N)
    phi = euler_phi(N)
    for i, psi in enumerate(chars[:4]):
        for xi in chars[:4]:
            s = sum(psi(a) * xi(a).conjugate() for a in range(1, N + 1))
            expected = phi if psi == xi else 0.0
            assert abs(s - expected) < 1e-9


# ---------------------------------------------------------------------------
# Oracle: characters as dicts of Fraction exponents, enumerated by summing
# Fractions for every (character, unit) pair, and every operation written
# on those dicts.


def e_of(q):
    return cmath.exp(2j * cmath.pi * float(q))


class FractionCharacter:
    def __init__(self, modulus, exponents):
        self.modulus = modulus
        self.exponents = exponents
        self.key = (modulus, tuple(sorted(exponents.items())))

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return self.key == other.key

    def __call__(self, a):
        q = self.exponents.get(a % self.modulus)
        return 0j if q is None else e_of(q)

    @property
    def is_principal(self):
        return all(q == 0 for q in self.exponents.values())

    @property
    def parity(self):
        return 0 if self.exponents[-1 % self.modulus] == 0 else 1

    def inverse(self):
        return FractionCharacter(self.modulus, {a: -q % 1 for a, q in self.exponents.items()})

    def to_record(self):
        return {
            "modulus": self.modulus,
            "exponents": {str(a): str(q) for a, q in sorted(self.exponents.items())},
            "parity": self.parity,
        }

    def conductor(self):
        N = self.modulus
        for f in divisors(N):
            if all(self.exponents[a % N] == 0 for a in range(1, N + 1, f) if gcd(a, N) == 1):
                return f

    def finite_fourier(self, m):
        N = self.modulus
        return sum(e_of((q + Fraction(a * m, N)) % 1) for a, q in self.exponents.items())


def fraction_characters(N):
    if N == 1:
        return [FractionCharacter(1, {0: Fraction(0)})]
    structure = _unit_group_structure(N)
    gens = [g for g, _ in structure]
    orders = [s for _, s in structure]
    logs = {}
    for ls in itertools.product(*(range(s) for s in orders)):
        a = 1
        for g, l in zip(gens, ls):
            a = a * pow(g, l, N) % N
        logs[a] = ls
    return [
        FractionCharacter(N, {
            a: sum((Fraction(k * l, s) for k, l, s in zip(ks, ls, orders)), Fraction(0)) % 1
            for a, ls in logs.items()
        })
        for ks in itertools.product(*(range(s) for s in orders))
    ]


# 2^k with k >= 3 (the (-1, 5) generator pair), an odd prime power, and
# products of several cyclic factors
ORACLE_MODULI = [1, 2, 4, 8, 9, 16, 15, 40, 60, 120, 210, 240]


@pytest.mark.parametrize("N", [1, 2, 12, 997, 1000, 1100, 2310])
def test_exponent_labels_match_fraction_text(N):
    # the labels are reduced by integer gcd; str(Fraction(k, L)) is the oracle
    L = _unit_group(N).root_order
    assert _unit_group(N).exponent_labels == [str(Fraction(k, L)) for k in range(L)]


@pytest.fixture(scope="module")
def both_tables():
    return {N: (enumerate_characters(N), fraction_characters(N)) for N in ORACLE_MODULI}


@pytest.mark.parametrize("N", ORACLE_MODULI)
def test_integer_rows_match_fraction_oracle(N, both_tables):
    chars, oracle = both_tables[N]
    assert len(chars) == len(oracle)
    for psi, ref in zip(chars, oracle):
        assert psi.exponents == ref.exponents
        assert all(isinstance(q, Fraction) for q in psi.exponents.values())
        assert all(psi.exponent(a) == ref.exponents.get(a % N) for a in range(-N, 2 * N))
        assert all(isinstance(psi.exponent(a), Fraction) for a in psi.units)
        assert psi.to_record() == ref.to_record()
        assert psi.inverse().exponents == ref.inverse().exponents
        assert psi.parity == ref.parity
        assert psi.is_principal == ref.is_principal
        assert conductor(psi) == ref.conductor()
        for a in range(-N, 2 * N):
            got, want = psi(a), ref(a)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_integer_rows_hash_eq_classes_match_fraction_oracle(both_tables):
    chars = [psi for N in ORACLE_MODULI for psi in both_tables[N][0]]
    oracle = [ref for N in ORACLE_MODULI for ref in both_tables[N][1]]
    inverses = [psi.inverse() for psi in chars]
    ref_inverses = [ref.inverse() for ref in oracle]
    for i, (psi, ref) in enumerate(zip(chars, oracle)):
        for xi, xref in zip(chars[i:] + inverses, oracle[i:] + ref_inverses):
            assert (psi == xi) == (ref == xref)
            if psi == xi:
                assert hash(psi) == hash(xi)


@pytest.mark.parametrize("N", ORACLE_MODULI)
def test_fourier_sums_match_fraction_oracle(N, both_tables):
    chars, oracle = both_tables[N]
    ms = sorted({-N - 1, -1, 0, 1, 2, 3, N // 2, N - 1, N, 5 * N + 7})
    for psi, ref in zip(chars, oracle):
        assert abs(gauss_sum(psi) - ref.finite_fourier(1)) <= 1e-12 * N
        for m in ms:
            assert abs(finite_fourier(psi, m) - ref.finite_fourier(m)) <= 1e-12 * N


# ---------------------------------------------------------------------------
# Oracle: the Fourier sum at 30 digits in mpmath, from the exact exponents
# k_a/L + a*m/N of each term, at moduli near 1000 and 2000.


def mp_finite_fourier(psi, m):
    N = psi.modulus
    with mp.workdps(30):
        total = mp.fsum(
            mp.expjpi(2 * mp.mpf(q.numerator) / q.denominator)
            for q in ((e + Fraction(a * m, N)) % 1 for a, e in psi.exponents.items())
        )
        return complex(total)


@pytest.mark.parametrize("N", [1000, 1100, 1994])
def test_fourier_sums_match_mpmath(N):
    chars = enumerate_characters(N)
    imprimitive = [p for p in chars[1:] if conductor(p) != N]
    primitive = [p for p in chars if conductor(p) == N]
    picked = [chars[0], imprimitive[0], imprimitive[-1], *primitive[:1]]
    ms = [0, 1, N // 2, N - 3]  # N // 2 is a non-unit: every N here is even
    assert gcd(N // 2, N) > 1
    for psi in picked:
        assert abs(gauss_sum(psi) - mp_finite_fourier(psi, 1)) <= 1e-12
        for m in ms:
            assert abs(finite_fourier(psi, m) - mp_finite_fourier(psi, m)) <= 1e-12
