"""Eisenstein coefficient tests: worked values, the brute-force double-sum
oracle, delta-atom enumeration and its Fourier recovery, pole data, and
local factors."""

import cmath
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirabolic.characters import enumerate_characters
from mirabolic.eisenstein import (
    EisParams,
    Ramified,
    RamifiedConstant,
    atom_fourier_c_r,
    brute_force_c_r,
    coeff_big_cell,
    coeff_wlong_cell,
    delta_atom_sum,
    local_euler_factor,
    nu_from_s,
    pole_data,
    s_from_nu,
)
from mirabolic.errors import ConvergenceRegionError, PoleError


def trivial_params(n, nu):
    psi0 = enumerate_characters(1)[0]
    return EisParams(n=n, nu=nu, psi=psi0, epsilon=0)


def test_params_validation():
    psi0 = enumerate_characters(1)[0]
    with pytest.raises(ValueError):
        EisParams(n=1, nu=1.0, psi=psi0, epsilon=0)
    with pytest.raises(ValueError):
        EisParams(n=2, nu=1.0, psi=psi0, epsilon=1)  # parity mismatch
    odd = next(p for p in enumerate_characters(4) if p.parity == 1)
    with pytest.raises(ValueError):
        EisParams(n=2, nu=1.0, psi=odd, epsilon=0)
    ok = EisParams(n=3, nu=2.0, psi=odd, epsilon=1)
    assert ok.level == 4 and ok.rho_mir == 1.5


def test_wlong_divisor_sum_n2_trivial():
    # c_r = sigma_{-nu+n/2-1}(r) at level 1: for nu=3, n=2, r=4:
    # 1 + 2^{-2} + 4^{-2} = 1.140625; and sigma over divisors of 6 at nu=2.
    p = trivial_params(2, 3.0)
    assert abs(coeff_wlong_cell(p, (4,)) - 1.140625) < 1e-12
    p2 = trivial_params(2, 2.0)
    want = sum(d ** (-2.0) for d in (1, 2, 3, 6))  # exponent -nu + n/2 - 1
    assert abs(coeff_wlong_cell(p2, (6,)) - want) < 1e-12


def test_big_cell_worked_values():
    # a_(6) = 4 for n=2, nu=1/2 shift making exponent ... fixed value from
    # the divisor identity sum_{d|6} d = 12 at exponent 1 scaled: use the
    # direct formula as oracle instead.
    p = trivial_params(2, 1.0)
    r = (6,)
    want = sum(d ** (-1.0 + 1.0 - 1) for d in (1, 2, 3, 6))  # d^{-nu+n/2-1}
    assert abs(coeff_big_cell(p, r) - want) < 1e-12
    # odd character mod 4: a_(1) = 4^{-nu-1} * psihat(-1); at nu=0 this is
    # (1/4) * (-2i) = -i/2
    odd = next(c for c in enumerate_characters(4) if c.parity == 1)
    p4 = EisParams(n=2, nu=0.0, psi=odd, epsilon=1)
    assert abs(coeff_big_cell(p4, (1,)) - (-0.5j)) < 1e-12


def test_wlong_level_scaling_n3():
    # c_(2,2) at N=4, n=3 with principal psi: N^{1-n} * sum_{d|2} psi(d) d^{-nu}
    psi0 = enumerate_characters(4)[0]
    p = EisParams(n=3, nu=1.5, psi=psi0, epsilon=0)
    want = 4.0 ** (-2) * sum(
        psi0(d) * d ** (-1.5 + 0.5) for d in (1, 2)
    )
    got = coeff_wlong_cell(p, (2, 2))
    assert abs(got - want) < 1e-12
    assert abs(got - 1 / 16) < 1e-12


def test_coefficients_depend_only_on_gcd():
    p = trivial_params(3, 2.3 + 0.4j)
    a = coeff_wlong_cell(p, (4, 6))
    b = coeff_wlong_cell(p, (2, 0))
    assert abs(a - b) < 1e-12
    c = coeff_big_cell(p, (-2, 2))
    d = coeff_big_cell(p, (2, -2))
    # big cell uses psihat(-r_1/d): trivial character is insensitive to sign
    assert abs(c - d) < 1e-12


def test_divisor_sum_reflection():
    # sigma_t(g) = g^t sigma_{-t}(g) transported to the coefficients:
    # c_r at nu and the dual exponent are related through the gcd power.
    p = trivial_params(2, 2.75)
    dual = trivial_params(2, -2.75)  # n=2: exponent t = -nu, so dual nu = -nu
    g = 12
    t = -2.75
    lhs = coeff_wlong_cell(p, (g,))
    rhs = float(g) ** t * coeff_wlong_cell(dual, (g,))
    assert abs(lhs - rhs) < 1e-12


def test_r_zero_continuations():
    # a_0 = 0 for nonprincipal psi; c_0 = N^{1-n} L(nu - n/2 + 1, psi)
    odd = next(c for c in enumerate_characters(4) if c.parity == 1)
    p = EisParams(n=2, nu=2.0, psi=odd, epsilon=1)
    assert coeff_big_cell(p, (0,)) == 0
    from mirabolic.special import dirichlet_L

    want = 4.0 ** (-1) * dirichlet_L(2.0, odd)
    assert abs(coeff_wlong_cell(p, (0,)) - want) < 1e-12
    # at nu = n/2 it is N^{1-n} L(1, chi_4) = pi/(4 * 16) for n = 3: Leibniz's
    # series, a closed form that no route of the package computes
    p = EisParams(n=3, nu=1.5, psi=odd, epsilon=1)
    assert abs(coeff_wlong_cell(p, (0, 0)) - cmath.pi / 64) < 1e-13


def test_pole_at_half_n():
    p = trivial_params(2, 1.0)
    with pytest.raises(PoleError):
        coeff_big_cell(p, (0,))
    info = pole_data(p)
    assert info["is_polar"] and abs(info["residue_c0"] - 1.0) < 1e-14
    odd = next(c for c in enumerate_characters(4) if c.parity == 1)
    info2 = pole_data(EisParams(n=2, nu=1.0, psi=odd, epsilon=1))
    assert not info2["is_polar"] and info2["residue_c0"] == 0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)),
    st.floats(0.1, 3.0),
    st.floats(-2.0, 2.0),
)
def test_brute_force_oracle_matches_divisor_sum(n, r3, re_nu, im_nu):
    r = r3[: n - 1]
    if all(x == 0 for x in r):
        r = (1,) + r[1:]
    p = trivial_params(n, complex(re_nu, im_nu))
    g = 0
    for x in r:
        g = gcd(g, abs(x))
    lhs = brute_force_c_r(p, r, d_max=g)
    rhs = coeff_wlong_cell(p, r)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_brute_force_preconditions():
    p = trivial_params(2, 1.0)
    with pytest.raises(ValueError):
        brute_force_c_r(p, (0,), d_max=5)
    with pytest.raises(ValueError):
        brute_force_c_r(p, (6,), d_max=3)


def test_delta_atom_worked_example():
    # n=2, trivial character, nu=3, wlong cell, cutoff 1: atoms at 0 (from
    # v=(0,1)) and at 1 (from v=(1,1)), each with weight 1.
    p = trivial_params(2, 3.0)
    atoms = delta_atom_sum(p, "wlong", 1)
    locs = sorted(a.location for a in atoms)
    assert locs == [(Fraction(0),), (Fraction(1),)]
    p3 = trivial_params(3, 4.0)
    atoms3 = [a for cell in ("big", "wlong") for a in delta_atom_sum(p3, cell, 2)]
    assert atoms3 and all(isinstance(x, Fraction) for a in atoms3 for x in a.location)
    for a in atoms:
        assert abs(a.weight - 1.0) < 1e-14


def test_delta_atom_region_check():
    p = trivial_params(2, 0.5)
    with pytest.raises(ConvergenceRegionError):
        delta_atom_sum(p, "wlong", 3)
    with pytest.raises(ValueError):
        delta_atom_sum(trivial_params(2, 3.0), "nope", 3)


def test_delta_atom_level_divisibility():
    odd = next(c for c in enumerate_characters(4) if c.parity == 1)
    p = EisParams(n=2, nu=4.0, psi=odd, epsilon=1)
    atoms = delta_atom_sum(p, "wlong", 8)
    assert atoms
    # locations are v_1/v_n with 4 | v_1 and v_n odd (psi kills even v_n),
    # so in lowest terms the numerator keeps its factor 4 and the
    # denominator stays odd
    for a in atoms:
        q = a.location[0]
        assert q.denominator % 2 == 1
        assert q.numerator % 4 == 0


def test_atom_fourier_recovers_wlong_coefficient():
    # Sum over the truncated atom family approximates c_r for Re nu large
    # (geometric convergence in the cutoff).
    p = trivial_params(2, 6.0)
    atoms = delta_atom_sum(p, "wlong", 400)
    for r in [(1,), (2,), (5,)]:
        approx = atom_fourier_c_r(atoms, r, N=1, n=2)
        exact = coeff_wlong_cell(p, r)
        assert abs(approx - exact) < 1e-9


def test_atom_fourier_recovers_with_level():
    odd = next(c for c in enumerate_characters(4) if c.parity == 1)
    p = EisParams(n=2, nu=6.0, psi=odd, epsilon=1)
    atoms = delta_atom_sum(p, "wlong", 1200)
    for r in [(1,), (3,)]:
        approx = atom_fourier_c_r(atoms, r, N=4, n=2)
        exact = coeff_wlong_cell(p, r)
        assert abs(approx - exact) < 1e-8


def test_nu_s_inverse_maps():
    for n in (2, 3, 5):
        for s in [0.3 + 1j, 0.5, 2.0 - 0.25j]:
            assert abs(s_from_nu(n, nu_from_s(n, s)) - s) < 1e-14
        # s <-> 1-s corresponds to nu <-> -nu
        s = 0.7 + 0.2j
        assert abs(nu_from_s(n, 1 - s) + nu_from_s(n, s)) < 1e-14


def test_local_euler_factor_cases():
    # unramified: (1 - psi(p) p^{-ns})^{-1}
    val = local_euler_factor(3, 0.8, 2, 1.0, N_p=0)
    want = 1 / (1 - 3.0 ** (-1.6))
    assert abs(val - want) < 1e-12
    # ramified character at an unramified place: integral vanishes
    assert local_euler_factor(3, 0.8, 2, Ramified(1), N_p=0) == 0
    # conductor exponent exceeding the level exponent: vanishes
    assert local_euler_factor(3, 0.8, 2, Ramified(2), N_p=1) == 0
    # otherwise a nonzero constant, reported symbolically
    out = local_euler_factor(3, 0.8, 2, Ramified(1), N_p=1)
    assert isinstance(out, RamifiedConstant)
    out2 = local_euler_factor(5, 0.3, 3, 1.0, N_p=2)
    assert isinstance(out2, RamifiedConstant)


def test_length_validation():
    p = trivial_params(3, 2.0)
    with pytest.raises(ValueError):
        coeff_wlong_cell(p, (1,))
    with pytest.raises(ValueError):
        coeff_big_cell(p, (1, 2, 3))
