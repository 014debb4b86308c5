"""Special-function tests: G_delta, Gamma_R / Gamma_C, Hurwitz zeta and
Dirichlet L against mpmath references (kept in pure-mpf arithmetic)."""

import cmath
import math

import mpmath as mp
import pytest

from mirabolic.characters import enumerate_characters, factorize
from mirabolic.errors import (
    MirabolicError,
    NotPrincipalError,
    PoleError,
    ValueOverflowError,
)
from mirabolic.gamma_factors import evaluate_gamma_product, l_factors, triv
from mirabolic.special import (
    G_delta,
    G_delta_is_pole,
    G_delta_is_zero,
    dirichlet_L,
    gamma_C,
    gamma_R,
    hurwitz_zeta,
    residue_L_at_1,
    riemann_zeta,
)


def test_gamma_R_basic_values():
    # Gamma_R(1) = pi^{-1/2} Gamma(1/2) = 1
    assert abs(gamma_R(1) - 1.0) < 1e-14
    # Gamma_R(2) = pi^{-1} Gamma(1) = 1/pi
    assert abs(gamma_R(2) - 1 / math.pi) < 1e-14


def test_gamma_C_value():
    # Gamma_C(1) = 2/(2 pi)
    assert abs(gamma_C(1) - 1 / math.pi) < 1e-14


def test_gamma_R_pole():
    with pytest.raises(PoleError):
        gamma_R(0)
    with pytest.raises(PoleError):
        gamma_R(-2)


def test_G_delta_half_point():
    # G_0(1/2) = 1 (self-dual point)
    assert abs(G_delta(0.5, 0) - 1.0) < 1e-14
    # G_1(1/2) = i * Gamma_R(3/2)/Gamma_R(3/2) = i
    assert abs(G_delta(0.5, 1) - 1j) < 1e-14


def test_G_delta_zeros_and_poles():
    assert G_delta_is_zero(1, 0) and G_delta(1, 0) == 0
    assert G_delta_is_zero(3, 0) and G_delta_is_zero(2, 1)
    assert G_delta_is_pole(0, 0) and G_delta_is_pole(-2, 0)
    assert G_delta_is_pole(-1, 1)
    with pytest.raises(PoleError):
        G_delta(0, 0)
    with pytest.raises(PoleError):
        G_delta(-1, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: gamma_R(1500),
        lambda: gamma_C(400),
        lambda: G_delta(700.3, 0),
        lambda: evaluate_gamma_product(l_factors(triv()), 1500),
        lambda: hurwitz_zeta(-300, 0.5),
        lambda: riemann_zeta(-300),
        lambda: dirichlet_L(-300, enumerate_characters(5)[1]),
    ],
    ids=[
        "gamma_R", "gamma_C", "G_delta", "evaluate_gamma_product",
        "hurwitz_zeta", "riemann_zeta", "dirichlet_L",
    ],
)
def test_overflow_is_typed(call):
    # finite values beyond the double range: a typed error, not a bare
    # OverflowError from cmath.exp, and still an OverflowError to callers
    with pytest.raises(ValueOverflowError) as ei:
        call()
    assert isinstance(ei.value, MirabolicError)
    assert isinstance(ei.value, OverflowError)


def test_G_delta_against_mpmath():
    mp.mp.dps = 30

    def ref(s, delta):
        s = mp.mpc(s)
        num = mp.pi ** (-(s + delta) / 2) * mp.gamma((s + delta) / 2)
        den = mp.pi ** (-(1 - s + delta) / 2) * mp.gamma((1 - s + delta) / 2)
        return mp.mpc(1j) ** delta * num / den

    for s in [0.3, 0.7 + 0.4j, -0.9 + 2j, 2.5 - 1j]:
        for d in (0, 1):
            got = G_delta(s, d)
            want = complex(ref(s, d))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_hurwitz_zeta_against_mpmath():
    mp.mp.dps = 30
    for s in [2.0, 0.5 + 3j, -1.5, 3.2 - 2j, 1.0001 + 0j]:
        for a_num, a_den in [(1, 1), (1, 2), (1, 3), (2, 5), (7, 12)]:
            want = complex(mp.zeta(mp.mpc(s), mp.mpf(a_num) / a_den))
            got = hurwitz_zeta(s, a_num / a_den)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_hurwitz_zeta_domain():
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 1.5)
    with pytest.raises(PoleError):
        hurwitz_zeta(1.0, 0.5)


def test_riemann_zeta_values():
    assert abs(riemann_zeta(2) - math.pi**2 / 6) < 1e-13
    assert abs(riemann_zeta(-1) - (-1 / 12)) < 1e-12
    assert abs(riemann_zeta(0) - (-0.5)) < 1e-12


def test_dirichlet_L_odd_mod_4_at_1():
    psi = next(p for p in enumerate_characters(4) if p.parity == 1)
    assert abs(dirichlet_L(1.0, psi) - math.pi / 4) < 1e-10


def test_dirichlet_L_principal_is_zeta_with_euler_factors():
    # L(s, psi0 mod N) = zeta(s) * prod_{p | N} (1 - p^{-s})
    for N in [2, 6, 12]:
        psi0 = enumerate_characters(N)[0]
        for s in [1.7, 2.5 + 1j]:
            euler = 1.0 + 0j
            for p, _ in factorize(N):
                euler *= 1 - cmath.exp(-complex(s) * cmath.log(p))
            want = riemann_zeta(s) * euler
            got = dirichlet_L(s, psi0)
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_dirichlet_L_pole_and_residue():
    psi0 = enumerate_characters(6)[0]
    with pytest.raises(PoleError):
        dirichlet_L(1.0, psi0)
    assert abs(residue_L_at_1(psi0) - 2 / 6) < 1e-15
    psi = next(p for p in enumerate_characters(5) if not p.is_principal)
    with pytest.raises(NotPrincipalError):
        residue_L_at_1(psi)


def test_dirichlet_L_against_mpmath_nonprincipal():
    mp.mp.dps = 25
    for N in [5, 7, 8]:
        for psi in enumerate_characters(N):
            if psi.is_principal:
                continue
            for s in [1.5, 0.5 + 2j, -0.5]:
                want = mp.mpc(0)
                for a in range(1, N + 1):
                    val = psi(a)
                    if val == 0:
                        continue
                    want += mp.mpc(val) * mp.zeta(mp.mpc(s), mp.mpf(a) / N)
                want *= mp.power(N, -mp.mpc(s))
                got = dirichlet_L(s, psi)
                assert abs(got - complex(want)) < 1e-9 * max(1.0, abs(complex(want)))
