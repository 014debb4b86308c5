"""Acceptance suite: one test per headline claim, each with its stated
tolerance and runtime budget.

Every closed form is checked against an independent route computed here in
the test (brute-force double sums, Euler-Maclaurin tails, direct
quadrature), never against the code path under test.
"""

import cmath
import math
import random
import time
from math import gcd

import numpy as np
import pytest

from mirabolic.characters import (
    enumerate_characters,
    euler_phi,
    finite_fourier,
    gauss_sum,
    is_primitive,
)
from mirabolic.eisenstein import (
    EisParams,
    brute_force_c_r,
    coeff_wlong_cell,
    pole_data,
)
from mirabolic.fe_verify import (
    Bump,
    QuadratureConfig,
    beta_like_closed,
    beta_like_quadrature,
    intertwine_apply_n2,
    intertwine_compose_n2,
    oscillatory_closed,
    oscillatory_integral,
)
from mirabolic.gamma_factors import (
    GammaProduct,
    boxplus,
    canonicalize,
    discrete,
    ext2,
    l_factors,
    sgn,
    sgn_power,
    sgn_twist,
    sym2,
    tensor,
    triv,
)
from mirabolic.principal_series import PSParams, contragredient
from mirabolic.special import G_delta, dirichlet_L, gamma_C, gamma_R


def _grid_points():
    # 100 points in -2 < Re s < 3, |Im s| <= 10, offset off the integers so
    # no Gamma factor pole or zero is hit
    res = np.linspace(-1.93, 2.91, 10)
    ims = np.linspace(-9.87, 9.87, 10)
    return [complex(re + 0.137, im + 0.041) for re in res for im in ims]


def test_criterion_1_G_reflection():
    """G_delta(s) G_delta(1-s) = (-1)^delta to 1e-10 on a 100-point grid,
    both parities, under 1 second."""
    t0 = time.perf_counter()
    pts = _grid_points()
    assert len(pts) == 100
    for delta in (0, 1):
        want = (-1.0) ** delta
        for s in pts:
            assert abs(G_delta(s, delta) * G_delta(1 - s, delta) - want) < 1e-10
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_gamma_C_duplication():
    """Gamma_C(s) = Gamma_R(s) Gamma_R(s+1) to 1e-12 relative on the same
    grid, under 1 second."""
    t0 = time.perf_counter()
    for s in _grid_points():
        lhs = gamma_C(s)
        rhs = gamma_R(s) * gamma_R(s + 1)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_3_divisor_sum_vs_brute_force():
    """coeff_wlong_cell agrees with the unreduced double-sum oracle to 1e-9
    relative, for every character of every modulus N <= 12, n in {2,3,4},
    entries |r_j| <= 30, 20 random nu per configuration, under 2 minutes."""
    t0 = time.perf_counter()
    rng = random.Random(20240817)
    for N in range(1, 13):
        for psi in enumerate_characters(N):
            for n in (2, 3, 4):
                params_eps = psi.parity
                for _ in range(20):
                    nu = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                    # draw a common factor g explicitly so that the brute
                    # force double sum actually runs over many moduli d
                    g0 = rng.randint(1, 15)
                    r = tuple(
                        g0 * rng.randint(-30 // g0, 30 // g0)
                        for _ in range(n - 1)
                    )
                    if all(x == 0 for x in r):
                        r = (g0,) + r[1:]
                    p = EisParams(n, nu, psi, params_eps)
                    g = 0
                    for x in r:
                        g = gcd(g, abs(x))
                    lhs = brute_force_c_r(p, r, d_max=g)
                    rhs = coeff_wlong_cell(p, r)
                    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
    assert time.perf_counter() - t0 < 120.0


def test_criterion_4_pole_structure_of_c0():
    """c_0 is finite near nu = n/2 for nonprincipal psi; for principal psi,
    (nu - n/2) c_0 extrapolates to N^{1-n} phi(N)/N within 1e-6 along
    nu = n/2 + 10^{-k}, k = 3..6, for N <= 12 and n <= 4."""
    for N in range(1, 13):
        for psi in enumerate_characters(N):
            for n in (2, 3, 4):
                if psi.is_principal:
                    vals = []
                    for k in (3, 4, 5, 6):
                        nu = n / 2 + 10.0 ** (-k)
                        p = EisParams(n, nu, psi, 0)
                        c0 = coeff_wlong_cell(p, (0,) * (n - 1))
                        vals.append((nu - n / 2) * c0)
                    # Richardson extrapolation in delta = 10^{-k} (two levels)
                    lvl1 = [
                        (10 * vals[i + 1] - vals[i]) / 9 for i in range(3)
                    ]
                    lvl2 = [
                        (100 * lvl1[i + 1] - lvl1[i]) / 99 for i in range(2)
                    ]
                    want = float(N) ** (1 - n) * euler_phi(N) / N
                    assert abs(lvl2[-1] - want) < 1e-6
                    assert abs(pole_data(EisParams(n, n / 2, psi, 0))[
                        "residue_c0"
                    ] - want) < 1e-12
                else:
                    for theta in np.linspace(0, 2 * math.pi, 8, endpoint=False):
                        nu = n / 2 + 1e-3 * cmath.exp(1j * theta)
                        p = EisParams(n, nu, psi, psi.parity)
                        c0 = coeff_wlong_cell(p, (0,) * (n - 1))
                        assert cmath.isfinite(c0) and abs(c0) < 1e6


def test_criterion_5_gauss_sums_and_orthogonality():
    """|tau_psi|^2 = N to 1e-10 for every primitive psi with N <= 50; and
    character orthogonality recovers the finite Fourier transform:
    (1/phi(N)) sum_a sum_xi psi-hat(a) xi(a)^{-1} xi(d) = psi-hat(d) for
    units d, 0 otherwise, to 1e-10 for N <= 24 and every d <= 2N."""
    for N in range(1, 51):
        for psi in enumerate_characters(N):
            if not is_primitive(psi):
                continue
            tau = gauss_sum(psi)
            assert abs(abs(tau) ** 2 - N) < 1e-10
    for N in range(1, 25):
        chars = enumerate_characters(N)
        phi = euler_phi(N)
        for psi in chars:
            fhat = [finite_fourier(psi, a) for a in range(N)]
            sums = [
                sum(fhat[a] * xi.inverse()(a) for a in range(N)) for xi in chars
            ]
            for d in range(1, 2 * N + 1):
                got = sum(t * xi(d) for t, xi in zip(sums, chars)) / phi
                want = fhat[d % N] if gcd(d, N) == 1 else 0.0
                assert abs(got - want) < 1e-10


def test_criterion_6_beta_like_quadrature():
    """Line quadrature reproduces the G-ratio closed form of the
    beta-like integral: n = 2 over a 3 x 3 x 4 grid of (beta_0, beta_1,
    parity pair) to 1e-6 relative; n = 3 on 4 cases to 1e-4 relative; under
    5 minutes."""
    t0 = time.perf_counter()
    cfg2 = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-8)
    for b0 in (0.2, 0.3, 0.45):
        for b1 in (0.25, 0.3, 0.4):
            for eta in ((0, 0), (0, 1), (1, 0), (1, 1)):
                beta = (b0, b1)
                val = beta_like_quadrature(beta, eta, 1.0, cfg2)
                closed = beta_like_closed(beta, eta, 1.0)
                assert abs(val - closed) <= 1e-6 * abs(closed)
    cfg3 = QuadratureConfig(abs_tol=1e-6, rel_tol=1e-4)
    beta3 = (0.25, 0.3, 0.35)
    for eta in ((0, 0, 0), (1, 0, 1), (0, 1, 0), (1, 1, 0)):
        val = beta_like_quadrature(beta3, eta, 1.0, cfg3)
        closed = beta_like_closed(beta3, eta, 1.0)
        assert abs(val - closed) <= 1e-4 * abs(closed)
    assert time.perf_counter() - t0 < 300.0


def test_criterion_7_oscillatory_integral():
    """The regularized oscillatory integral matches
    (-1)^eps |dk|^{n/2-nu-1} sgn(dk)^eps G_eps(nu - n/2 + 1) to 1e-5
    relative for d, k in {1, 2, 3}, both parities, five nu in the
    convergence strip, under 2 minutes."""
    t0 = time.perf_counter()
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-7)
    n = 2
    nus = [0.2, 0.45, 0.8, 0.7 + 0.3j, 0.35 - 0.2j]
    for nu in nus:
        for eps in (0, 1):
            for d in (1, 2, 3):
                for k in (1, 2, 3):
                    val = oscillatory_integral(nu, n, eps, d, k, cfg)
                    closed = oscillatory_closed(nu, n, eps, d, k)
                    assert abs(val - closed) <= 1e-5 * abs(closed)
    assert time.perf_counter() - t0 < 120.0


def _expected_ext2_factors(eps_list, s1, ks, s2, eta):
    """The five-piece closed form of L(s, Ext^2 Pi x sgn^eta) for
    Pi = (+)_i sgn^{eps_i}[s1_i] (+) (+)_j D_{k_j}[s2_j], assembled factor
    by factor (independent of the block calculus)."""
    factors = []
    r1, r2 = len(eps_list), len(ks)
    # piece 2: Gamma_R(s + 2 s2_j + eps'_j), eps'_j = k_j + eta mod 2
    for j in range(r2):
        factors.append(("R", 2 * s2[j] + (ks[j] + eta) % 2))
    # piece 3: Gamma_C(s + s1_i + s2_j + (k_j - 1)/2)
    for i in range(r1):
        for j in range(r2):
            factors.append(("C", s1[i] + s2[j] + (ks[j] - 1) / 2))
    # piece 4: Gamma_R(s + s1_i + s1_k + eps_{ik}), eps_{ik} = eps_i+eps_k+eta
    for i in range(r1):
        for k in range(i + 1, r1):
            factors.append(
                ("R", s1[i] + s1[k] + (eps_list[i] + eps_list[k] + eta) % 2)
            )
    # piece 5: Gamma_C(s + s2_j + s2_l + (k_j + k_l - 2)/2)
    #          Gamma_C(s + s2_j + s2_l + |k_j - k_l|/2)
    for j in range(r2):
        for l in range(j + 1, r2):
            sh = s2[j] + s2[l]
            factors.append(("C", sh + (ks[j] + ks[l] - 2) / 2))
            factors.append(("C", sh + abs(ks[j] - ks[l]) / 2))
    return GammaProduct(tuple((kind, complex(sh)) for kind, sh in factors))


def test_criterion_8_ext2_five_pieces():
    """ext2 followed by sgn_twist on a two-signs-two-discrete-series sum
    with dyadic shifts reproduces the five-piece closed-form factor multiset
    exactly (zero tolerance)."""
    configs = [
        ((0, 1), (0.125, -0.375), (2, 3), (0.25, 0.625)),
        ((1, 1), (-0.5, 0.0625), (4, 5), (0.75, -0.125)),
        ((0, 0), (0.25, 0.5), (2, 2), (0.0, 0.375)),
        ((1, 0), (0.1875, -0.0625), (3, 6), (-0.25, 0.5)),
    ]
    for eps_list, s1, ks, s2 in configs:
        pi = boxplus(
            *(sgn_power(e, s) for e, s in zip(eps_list, s1)),
            *(discrete(k, s) for k, s in zip(ks, s2)),
        )
        for eta in (0, 1):
            got = canonicalize(l_factors(sgn_twist(ext2(pi), eta)))
            want = canonicalize(_expected_ext2_factors(eps_list, s1, ks, s2, eta))
            assert got.factors == want.factors


def _random_isobaric(rng, max_dim=10):
    parts = []
    dim = 0
    while True:
        kind = rng.randrange(3)
        # dyadic shifts keep all downstream arithmetic exact
        shift = rng.randrange(-16, 17) / 16 + 1j * (rng.randrange(-8, 9) / 8)
        if kind == 2 and dim + 2 <= max_dim:
            parts.append(discrete(rng.randrange(2, 7), shift))
            dim += 2
        elif kind < 2 and dim + 1 <= max_dim:
            parts.append(sgn_power(kind, shift))
            dim += 1
        if dim >= max_dim or (parts and rng.random() < 0.25):
            break
    return boxplus(*parts)


def test_criterion_9_functorial_bookkeeping():
    """On 1000 random isobaric sums of dimension <= 10: dim Ext^2 =
    n(n-1)/2, dim Sym^2 = n(n+1)/2, dim(Pi x Pi') = n m, and
    L(Ext^2 + Sym^2) = L(Pi x Pi) in canonical form; under 30 seconds."""
    t0 = time.perf_counter()
    rng = random.Random(1729)
    for _ in range(1000):
        p = _random_isobaric(rng)
        q = _random_isobaric(rng, max_dim=6)
        n, m = p.dimension, q.dimension
        assert ext2(p).dimension == n * (n - 1) // 2
        assert sym2(p).dimension == n * (n + 1) // 2
        assert tensor(p, q).dimension == n * m
        lhs = canonicalize(l_factors(boxplus(ext2(p), sym2(p))))
        rhs = canonicalize(l_factors(tensor(p, p)))
        assert lhs.factors == rhs.factors
    assert time.perf_counter() - t0 < 30.0


# Euler-Maclaurin machinery for the independent Dirichlet series oracle
_B = [1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6]


def _em_tail(s, x0, N):
    """sum_{j>=0} (x0 + jN)^{-s} by Euler-Maclaurin with 7 correction terms."""
    s = complex(s)
    f0 = cmath.exp(-s * math.log(x0))
    total = cmath.exp((1 - s) * math.log(x0)) / ((s - 1) * N) + f0 / 2
    rising = s  # s (s+1) ... (s+m-1) for m = 2k-1
    fact = 1.0
    for k, b2k in enumerate(_B, start=1):
        m = 2 * k - 1
        fact = math.factorial(2 * k)
        deriv = -rising * N**m * cmath.exp(-(s + m) * math.log(x0))
        total -= b2k / fact * deriv
        rising *= (s + m) * (s + m + 1)
    return total


def _L_series_oracle(s, psi):
    N = psi.modulus
    J0 = 50
    head = sum(
        psi(m) * cmath.exp(-complex(s) * math.log(m))
        for m in range(1, J0 * N + 1)
        if psi(m) != 0
    )
    tail = sum(
        psi(a) * _em_tail(s, a + J0 * N, N)
        for a in range(1, N + 1)
        if psi(a) != 0
    )
    return head + tail


def test_criterion_10_dirichlet_L():
    """dirichlet_L matches a direct-series + Euler-Maclaurin-tail oracle to
    1e-10 at Re s >= 1.5 for every character mod N <= 12, and
    L(1, psi_odd mod 4) = pi/4 to 1e-8."""
    for N in range(1, 13):
        for psi in enumerate_characters(N):
            for s in (1.5, 1.5 + 2j, 2.7, 3.0 - 1j):
                want = _L_series_oracle(s, psi)
                got = dirichlet_L(s, psi)
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
    odd = next(p for p in enumerate_characters(4) if p.parity == 1)
    assert abs(dirichlet_L(1.0, odd) - math.pi / 4) < 1e-8


def test_criterion_11_involutions():
    """The contragredient on principal-series data and the sign twist on
    isobaric sums are exact involutions on 500 random inputs each."""
    rng = random.Random(31337)
    for _ in range(500):
        n = rng.randint(1, 6)
        lam = tuple(
            complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)
        )
        delta = tuple(rng.randint(0, 1) for _ in range(n))
        c = {
            tuple(rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(n - 1)):
            rng.uniform(-5, 5)
            for _ in range(rng.randint(0, 3))
        }
        ps = PSParams(n, lam, delta)
        ps2, c2 = contragredient(*contragredient(ps, c))
        assert ps2 == ps and c2 == c
    for _ in range(500):
        p = _random_isobaric(rng)
        assert sgn_twist(sgn_twist(p, 1), 1) == p
        assert sgn_twist(p, 0) == p


def test_criterion_12_intertwining_composition():
    """The composed intertwining operators I_{-nu} I_nu act as a scalar:
    the ratio (I_{-nu} I_nu f)(x) / f(x) is consistent within 1e-2 across
    two different bumps and probe points, and the forward operator decays
    like |y|^{Re nu - 1} within 10%, for nu in {0.6, 0.8 + 0.5i}; under 3
    minutes."""
    t0 = time.perf_counter()
    cfg = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-6)
    bumps = [Bump(0.0, 1.0), Bump(0.3, 0.7)]
    xs = [-0.2, 0.1]
    for nu in (0.6, 0.8 + 0.5j):
        ratios = []
        for f in bumps:
            vals = intertwine_compose_n2(f, nu, 0, xs, cfg)
            ratios.extend(complex(v) / f(x) for v, x in zip(vals, xs))
        base = ratios[0]
        for r in ratios[1:]:
            assert abs(r / base - 1) < 1e-2
        # decay exponent of the forward operator
        ys = np.array([20.0, 40.0, 80.0])
        vals = np.abs(intertwine_apply_n2(bumps[0], nu, 0, ys, cfg))
        slope = np.polyfit(np.log(ys), np.log(vals), 1)[0]
        expected = complex(nu).real - 1
        assert abs(slope - expected) < 0.1 * abs(expected)
    assert time.perf_counter() - t0 < 180.0
