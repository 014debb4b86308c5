"""Special-function tests: G_delta, Gamma_R / Gamma_C, Hurwitz zeta and
Dirichlet L against mpmath references (kept in pure-mpf arithmetic)."""

import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from mirabolic.characters import enumerate_characters, factorize
from mirabolic.eisenstein import (
    EisParams,
    brute_force_c_r,
    coeff_big_cell,
    coeff_wlong_cell,
    local_euler_factor,
)
from mirabolic.errors import (
    MirabolicError,
    NotPrincipalError,
    PoleError,
    ToleranceNotMetError,
    ValueOverflowError,
)
from mirabolic.fe_verify import (
    eisfe_scalar,
    pairing_fe_gamma_product,
    pairing_fe_gamma_product_s,
)
from mirabolic.gamma_factors import evaluate_gamma_product, l_factors, triv
from mirabolic.principal_series import PSParams, chi_eval, renormalize_coeffs
from mirabolic.special import (
    G_delta,
    G_delta_is_pole,
    G_delta_is_zero,
    _euler_maclaurin_coefficients,
    _even_bernoulli,
    _stirling_coefficients,
    dirichlet_L,
    gamma_C,
    gamma_R,
    hurwitz_zeta,
    log_gamma,
    residue_L_at_1,
    riemann_zeta,
    signed_power,
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
        lambda: log_gamma(1e308),
        lambda: gamma_R(1500),
        lambda: gamma_C(400),
        lambda: G_delta(700.3, 0),
        lambda: evaluate_gamma_product(l_factors(triv()), 1500),
        lambda: hurwitz_zeta(-300, 0.5),
        lambda: riemann_zeta(-300),
        lambda: dirichlet_L(-300, enumerate_characters(5)[1]),
        # 2^2000 in the divisor sums over d | 4, 7^1999 in the big-cell prefactor
        lambda: coeff_wlong_cell(_eis(-2000, 7), (4,)),
        lambda: coeff_big_cell(_eis(-2000, 7), (4,)),
        lambda: brute_force_c_r(_eis(-2000, 7), (4,), 4),
        lambda: local_euler_factor(2, -2000, 2, 1, 0),
        lambda: chi_eval(PSParams(1, (800,), (0,)), (1e300,)),
        lambda: renormalize_coeffs({(1e300,): 1.0}, PSParams(2, (800, 0), (0, 0))),
        # 5^1349.5, and (10^6)^1349.5 in both forms of the pairing scalar
        lambda: eisfe_scalar(_eis(900, 5, index=1)),
        lambda: pairing_fe_gamma_product([0] * 4, [0] * 4, 0, 900, 2, 10**6, 0),
        lambda: pairing_fe_gamma_product_s([0] * 4, [0] * 4, 0, 450.5, 2, 10**6, 0),
    ],
    ids=[
        "log_gamma", "gamma_R", "gamma_C", "G_delta", "evaluate_gamma_product",
        "hurwitz_zeta", "riemann_zeta", "dirichlet_L", "coeff_wlong_cell",
        "coeff_big_cell", "brute_force_c_r", "local_euler_factor", "chi_eval",
        "renormalize_coeffs", "eisfe_scalar", "pairing_fe_gamma_product",
        "pairing_fe_gamma_product_s",
    ],
)
def test_overflow_is_typed(call):
    # finite values beyond the double range: a typed error, not a bare
    # OverflowError from cmath.exp, and still an OverflowError to callers
    with pytest.raises(ValueOverflowError) as ei:
        call()
    assert isinstance(ei.value, MirabolicError)
    assert isinstance(ei.value, OverflowError)


def _eis(nu, N, index=0):
    psi = enumerate_characters(N)[index]
    return EisParams(2, nu, psi, psi.parity)


@pytest.mark.parametrize("parity", [0, 1, 2, 3])
@pytest.mark.parametrize("x", [-7, -0.3, 0.3, 1.5, 12])
@pytest.mark.parametrize("expo", [2.5, -1.25, 0.3 + 0.8j, -2 - 1.5j])
def test_signed_power(x, expo, parity):
    # |x|^expo sgn(x)^parity; only the parity's last bit counts
    sgn = -1 if x < 0 and parity % 2 else 1
    want = abs(x) ** expo * sgn
    assert cmath.isclose(signed_power(x, expo, parity), want, rel_tol=1e-14)


def _G_delta_ref(s, delta):
    s = mp.mpc(s)
    num = mp.pi ** (-(s + delta) / 2) * mp.gamma((s + delta) / 2)
    den = mp.pi ** (-(1 - s + delta) / 2) * mp.gamma((1 - s + delta) / 2)
    return complex(mp.mpc(1j) ** delta * num / den)


def test_G_delta_against_mpmath():
    mp.mp.dps = 30
    for s in [0.3, 0.7 + 0.4j, -0.9 + 2j, 2.5 - 1j]:
        for d in (0, 1):
            got = G_delta(s, d)
            want = _G_delta_ref(s, d)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_G_delta_left_half_plane_large_imaginary_part():
    # G_delta is exp of a difference of two log Gamma values of size
    # ~|s| log|s|, so rounding leaves a relative error of a few eps times
    # that, plus ~1e-14 from the cancellation in log Gamma's recurrence near
    # the origin.  No OverflowError either: a reflection formula applied at
    # large |Im s| would overflow in sin(pi s).
    mp.mp.dps = 40
    rng = random.Random(5)
    points = [complex(-1, 500)] + [
        complex(rng.uniform(-20, 0), rng.choice((-1, 1)) * 10 ** rng.uniform(-1, 3))
        for _ in range(60)
    ]
    for s in points:
        for d in (0, 1):
            got = G_delta(s, d)
            want = _G_delta_ref(s, d)
            bound = 2e-14 + 1e-14 * abs(s) * math.log(2 + abs(s))
            assert abs(got - want) <= bound * abs(want), (s, d, got, want)


def test_log_gamma_against_mpmath():
    # value and branch: the principal branch continues the real log Gamma
    # from s > 0 and is cut along the negative real axis, taking its values
    # there from above, as mpmath.loggamma does; a branch error is a
    # multiple of 2 pi i, far outside the bound
    mp.mp.dps = 30
    rng = random.Random(11)
    points = [
        complex(rng.uniform(-50, 50), rng.choice((-1, 1)) * 10 ** rng.uniform(-10, 3))
        for _ in range(400)
    ]
    # the real axis: negative non-integers, (0, 1], and both zeros 1 and 2
    points += [complex(k + rng.uniform(0.01, 0.99)) for k in range(-50, 50, 3)]
    points += [complex(x) for x in (1e-8, 0.5, 1.0, 2.0, -0.5, -2.5, -49.5)]
    # far left near the axis, where an upward recurrence would take ~|Re z| steps
    points += [complex(-1e6, 0.3), complex(-7.5e5 + 0.5, -6.9), complex(-1e12, 3.0)]
    for z in points:
        want = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
        got = log_gamma(z)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (z, got, want)


@pytest.mark.parametrize(
    "z",
    [-math.inf, complex(-math.inf, 0), math.inf, complex(0, math.inf), math.nan],
    ids=["-inf", "-inf+0j", "inf", "inf*1j", "nan"],
)
def test_log_gamma_of_non_finite_input_is_nan(z):
    # the pole test must not round an infinite real part
    assert cmath.isnan(log_gamma(z))


def test_series_coefficients_from_exact_bernoulli_numbers():
    # the cached float tables against mpmath's exact Bernoulli fractions,
    # each rounded once as the Euler-Maclaurin loop used to round them per
    # call, so hurwitz_zeta is bit-identical to that loop
    for j, coeff in enumerate(_euler_maclaurin_coefficients(), 1):
        p, q = mp.bernfrac(2 * j)
        assert coeff == float(Fraction(p, q)) / math.factorial(2 * j)
    for k, coeff in enumerate(_stirling_coefficients(), 1):
        p, q = mp.bernfrac(2 * k)
        assert coeff == float(Fraction(p, q)) / (2 * k * (2 * k - 1))


def test_even_bernoulli_matches_fraction_recurrence():
    # the integer numerator/denominator recurrence against the same
    # recurrence on Fractions, float for float
    exact = [Fraction(1)]
    for m in range(1, len(_even_bernoulli())):
        rest = sum(math.comb(2 * m + 1, 2 * j) * exact[j] for j in range(1, m))
        exact.append((Fraction(2 * m - 1, 2) - rest) / (2 * m + 1))
    assert [b.hex() for b in _even_bernoulli()] == [float(b).hex() for b in exact]


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
    with pytest.raises(PoleError):
        hurwitz_zeta(1 + 1e-13, 0.5)
    # beyond the rule's |Im s| <= 1e6: a typed error, not a math domain
    # error in the first term (1e308) nor a sum of 1.2e300 terms (1e300);
    # 1e308 comes first, so a rule without the limit fails here at once
    for s in (0.5 + 1e308j, 0.5 + 1e300j):
        with pytest.raises(ToleranceNotMetError):
            hurwitz_zeta(s, 0.5)


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


@pytest.mark.parametrize("N", [5, 12, 210])
def test_dirichlet_L_at_1_against_mpmath(N):
    # L(1, psi), the finite part of the Euler-Maclaurin sum at s = 1, against
    # an independent route: the Hurwitz sum in mpmath just off the pole,
    # s = 1 + 1e-30, with exact character values, so that the 1/(s-1) parts
    # cancel to 1e-20.  Within _POLE_TOL of 1 the sum is taken at s = 1.
    mp.mp.dps = 50
    nonprincipal = [p for p in enumerate_characters(N) if not p.is_principal]
    odd = [p for p in nonprincipal if p.parity == 1][:2]
    even = [p for p in nonprincipal if p.parity == 0][:2]
    assert odd and even
    s = 1 + mp.mpf("1e-30")
    for psi in odd + even:
        want = mp.mpc(0)
        for a, k in psi.exponents.items():
            value = mp.expjpi(2 * mp.mpf(k.numerator) / k.denominator)
            want += value * mp.zeta(s, mp.mpf(a) / N)
        want = complex(want * mp.power(N, -s))
        got = dirichlet_L(1.0, psi)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (N, psi.exponents, got, want)
        assert dirichlet_L(1 + 1e-13, psi) == got
        assert dirichlet_L(1 + 1e-13j, psi) == got
