"""Functional-equation verification tests: the two-point line integral,
beta-like integrals of every n, oscillatory integrals, the H integral, the
pairing scalars, and the n=2 intertwining operator."""

import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from mirabolic import fe_verify
from mirabolic.characters import enumerate_characters, gauss_sum
from mirabolic.eisenstein import EisParams
from mirabolic.errors import (
    ConvergenceRegionError,
    NormalizationError,
    NotPrimitiveError,
    PoleError,
    StripError,
    ToleranceNotMetError,
)
from mirabolic.fe_verify import (
    Bump,
    QuadratureConfig,
    _beta_like_chain,
    _certify,
    _line_integral,
    _power_product,
    _two_point_pieces,
    beta_like_closed,
    beta_like_quadrature,
    eisfe_scalar,
    h_integral,
    intertwine_apply_n2,
    intertwine_compose_n2,
    oscillatory_closed,
    oscillatory_integral,
    pairing_fe_gamma_product,
    pairing_fe_gamma_product_s,
)
from mirabolic.panels import _GAUSS_W, _KRONROD_W, _KRONROD_X
from mirabolic.special import G_delta


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=bad)
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=bad)


def test_line_pieces_near_piece_is_exact():
    # the near pieces must compute offsets from the singular point exactly,
    # even when the position itself is not representable relative to h.
    t = 1 / 3
    betas, etas = np.array([0.25, 0.25], dtype=complex), np.array([0, 1])
    h = 1e-300
    L, s, A, B, c = _two_point_pieces(0.25, 0.25, t)
    # every offset is exact: 0, +-1 or +-|t|
    assert set(np.abs(np.concatenate([A.ravel(), B.ravel()]))) <= {0.0, 1.0, t}

    def near_right_of(term):
        # the integrand at x = pos_term + h: phi(h) times the kernel h^{s-1}
        near = np.arange(L.size) < 4
        i = np.flatnonzero(near & (A[:, term] == 1.0) & (B[:, term] == 0.0))
        assert i.size == 1
        i = int(i[0])
        phi = c[i] * _power_product(betas, etas)(A[i] + B[i] * h)
        return complex(phi * h ** (s[i] - 1))

    v = near_right_of(0)
    # distance to the other singular point is t - 0 + h, from the exact offset
    want = h ** (0.25 - 1) * abs(t + h) ** (0.25 - 1) * math.copysign(1, t + h)
    assert v != 0 and abs(v - want) < 1e-12 * abs(want)
    # at the singular point itself the factor distance is exactly h
    assert near_right_of(1) != 0


def test_integrate_product_line_full_line_beta():
    # int_R |1 - x|^{a-1} |x|^{b-1} dx has the G-ratio closed form
    a, b = 0.3, 0.4
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)
    val, est = _line_integral(a, 0, b, 0, 1.0, cfg)
    want = beta_like_closed([a, b], [0, 0], 1.0)
    assert abs(val - want) < 1e-8 * abs(want)
    assert est < 1e-7


def test_beta_like_closed_basic_identities():
    # n=1 degenerates to G ratio = 1
    assert abs(beta_like_closed([0.3], [0], 1.0) - 1.0) < 1e-14
    # homogeneity in t
    b, e = [0.3, 0.25], [1, 0]
    v1 = beta_like_closed(b, e, 2.0)
    v2 = beta_like_closed(b, e, 1.0)
    assert abs(v1 - v2 * 2.0 ** (0.55 - 1)) < 1e-12
    # odd total parity flips sign with t
    v3 = beta_like_closed(b, e, -1.0)
    assert abs(v3 + v2) < 1e-12
    for t in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            beta_like_closed(b, e, t)
    with pytest.raises(ValueError):
        beta_like_closed([0.3], [0, 1], 1.0)


def test_beta_like_quadrature_n2():
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-8)
    cases = [
        ([0.3, 0.4], [0, 0], 1.0),
        ([0.2 + 0.3j, 0.35], [1, 0], -1.5),
        ([0.45, 0.3 - 0.2j], [1, 1], 0.7),
    ]
    for beta, eta, t in cases:
        v = beta_like_quadrature(beta, eta, t, cfg)
        assert abs(v - beta_like_closed(beta, eta, t)) < 1e-7


def test_beta_like_quadrature_n3():
    cfg = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-4)
    beta, eta = [0.25, 0.3, 0.35], [0, 1, 0]
    v = beta_like_quadrature(beta, eta, 1.0, cfg)
    closed = beta_like_closed(beta, eta, 1.0)
    assert abs(v - closed) < 1e-4 * abs(closed)


def test_beta_like_quadrature_n3_tail_underflow():
    # sum(beta) = 0.949, near the edge of the region: the mapped tails of the
    # second factor have the kernel u^{s-1} with s = 1 - sum(beta) = 0.051,
    # whose mass sits at u -> 0, where the smooth factor must stay finite.
    # The input must certify and meet the tolerance itself
    beta, eta, t = (0.2984, 0.3290, 0.3216), (0, 1, 1), 0.959
    cfg = QuadratureConfig()
    closed = beta_like_closed(beta, eta, t)
    v = beta_like_quadrature(beta, eta, t, cfg)
    assert abs(v - closed) <= max(cfg.abs_tol, cfg.rel_tol * abs(closed))


def _mp_G(s, delta):
    # G_delta(s) = i^delta Gamma_R(s + delta) / Gamma_R(1 - s + delta), in mpmath
    s, d = mp.mpc(s), delta % 2
    return (
        mp.mpc(0, 1) ** d
        * mp.power(mp.pi, 0.5 - s)
        * mp.gamma((s + d) / 2)
        * mp.rgamma((1 - s + d) / 2)
    )


def _mp_beta_like(beta, eta, t):
    num = mp.mpc(1)
    for b, e in zip(beta, eta):
        num *= _mp_G(b, e)
    total_b, total_e = mp.mpc(sum(beta)), sum(eta) % 2
    sign = -1 if total_e and t < 0 else 1
    return complex(
        num / _mp_G(total_b, total_e) * sign * mp.power(abs(mp.mpf(t)), total_b - 1)
    )


@pytest.mark.parametrize("t", [1e-7, -1e-7, 1e7, -1e7])
def test_beta_like_n2_far_apart_singular_points(t):
    # singular points at 0 and t, seven decades from unit distance, with
    # complex exponents: the value misses the mpmath closed form by no more
    # than its own error estimate plus the tolerance
    beta, eta = [0.3 + 0.4j, 0.25 - 0.1j], [1, 0]
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-8)
    closed = _mp_beta_like(beta, eta, t)
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(closed))
    val, est = _line_integral(beta[0], eta[0], beta[1], eta[1], t, cfg)
    assert abs(val - closed) <= est + tol
    assert beta_like_quadrature(beta, eta, t, cfg) == val


def _beta_like_sweep(seed, n=300):
    """n random n=2 beta-like inputs: complex beta with Re beta_j in
    (0.005, 0.97), |Im beta_j| <= 1.5 and Re(beta_0 + beta_1) < 0.97,
    random parities, t = +-10^U(-3, 3)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        re = rng.uniform(0.005, 0.97, 2)
        if re.sum() >= 0.97:
            continue
        beta = [complex(r, rng.uniform(-1.5, 1.5)) for r in re]
        eta = [int(e) for e in rng.integers(0, 2, 2)]
        t = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-3, 3))
        out.append((beta, eta, t))
    return out


@pytest.mark.parametrize(
    "cfg",
    [
        QuadratureConfig(abs_tol=1e-7, rel_tol=1e-4),
        QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9),
        QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12),
    ],
    ids=["loose", "default", "tight"],
)
def test_integrate_product_line_sweep_within_estimate(cfg):
    # near pieces with Re beta down to 0.005, exponents off the real axis and
    # singular points 10^-3 to 10^3 apart: the error against the closed form
    # never exceeds the estimate, and every input certifies
    for seed in (0, 1):
        for beta, eta, t in _beta_like_sweep(seed):
            val, est = _line_integral(beta[0], eta[0], beta[1], eta[1], t, cfg)
            assert abs(val - beta_like_closed(beta, eta, t)) <= est, (beta, eta, t)
            assert beta_like_quadrature(beta, eta, t, cfg) == val


@pytest.mark.parametrize(
    "cfg",
    [QuadratureConfig(abs_tol=1e-7, rel_tol=1e-4), QuadratureConfig(abs_tol=1e-12, rel_tol=1e-10)],
    ids=["loose", "tight"],
)
def test_beta_like_n3_negative_t_complex_beta(cfg):
    beta, eta, t = [0.25 + 0.2j, 0.3, 0.35], [1, 0, 1], -2.5
    closed = _mp_beta_like(beta, eta, t)
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(closed))
    val, est = _beta_like_chain(beta, eta, t, cfg)
    assert abs(val - closed) <= est + tol
    assert beta_like_quadrature(beta, eta, t, cfg) == val
    # the chain is I2(b0; beta1; 1) I2(b1; beta2; t), each factor at cfg/3
    third = QuadratureConfig(cfg.abs_tol / 3, cfg.rel_tol / 3)
    v1, e1 = _line_integral(beta[0], eta[0], beta[1], eta[1], 1.0, third)
    v2, e2 = _line_integral(beta[0] + beta[1], eta[0] + eta[1], beta[2], eta[2], t, third)
    assert val == v1 * v2
    assert est == abs(v1) * e2 + abs(v2) * e1 + e1 * e2


@pytest.mark.parametrize(
    "cfg",
    [QuadratureConfig(abs_tol=1e-7, rel_tol=1e-4), QuadratureConfig(abs_tol=1e-12, rel_tol=1e-10)],
    ids=["loose", "tight"],
)
@pytest.mark.parametrize(
    "beta, eta, t",
    [
        ([0.2 + 0.3j, 0.15, 0.25 - 0.2j, 0.1], [1, 0, 1, 1], -0.4),
        ([0.1, 0.2 - 0.1j, 0.15, 0.12 + 0.4j, 0.2], [0, 1, 1, 0, 1], -3.0),
    ],
    ids=["n4", "n5"],
)
def test_beta_like_chain_n4_n5_matches_mpmath(beta, eta, t, cfg):
    # beyond n = 3 the chain of n - 1 line integrals still misses the mpmath
    # closed form by no more than its composed estimate plus the tolerance
    closed = _mp_beta_like(beta, eta, t)
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(closed))
    val, est = _beta_like_chain(beta, eta, t, cfg)
    assert abs(val - closed) <= est + tol
    assert beta_like_quadrature(beta, eta, t, cfg) == val


def test_h_integral_odd_epsilon():
    # n = 2: H = int |1 + x|^{beta0-1} sgn(1 + x)^eps |x|^{beta1-1} sgn(x)^e1 dx
    # with beta0 = nu, beta1 = 1/2 - lambda_1 - lambda_2 - nu/2,
    # e1 = delta_1 + delta_2 + eta, equal to (-1)^e1 times the beta-like
    # ratio at t = 1
    lam, delta, nu, eps, eta = [0.1, -0.2, 0.15, -0.05], [1, 0, 1, 0], 0.35 + 0.25j, 1, 0
    beta1, e1 = 0.5 - lam[1] - lam[2] - nu / 2, (delta[1] + delta[2] + eta) % 2
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-7)
    closed = (-1) ** e1 * _mp_beta_like([nu, beta1], [eps, e1], 1.0)
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(closed))
    closed_lib, quad = h_integral(lam, delta, nu, 2, eps, eta, cfg)
    assert abs(closed_lib - closed) <= 1e-12 * abs(closed)
    val, est = _line_integral(nu, eps, beta1, e1, 1.0, cfg)
    assert quad == (-1) ** e1 * val
    assert abs(quad - closed) <= est + tol


@pytest.mark.parametrize("eps", [0, 1])
@pytest.mark.parametrize("nu", [0.6, 0.7 + 0.3j])
def test_h_integral_n3_quadrature_matches_mpmath(nu, eps):
    # n = 3, lambda = 0, delta = 0: beta = (nu - 1/2, 1/2 - nu/3, 1/2 - nu/3)
    # lies in the region, so H comes with a certified quadrature, the chain
    # of two line integrals (sign = +1 here)
    lam, delta, eta = [0.0] * 6, [0] * 6, 1
    beta, etas = [nu - 0.5, 0.5 - nu / 3, 0.5 - nu / 3], [eps, eta, eta]
    cfg = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-10)
    closed = _mp_beta_like(beta, etas, 1.0)
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(closed))
    closed_lib, quad = h_integral(lam, delta, nu, 3, eps, eta, cfg)
    assert abs(closed_lib - closed) <= 1e-12 * abs(closed)
    assert quad is not None
    val, est = _beta_like_chain(beta, etas, 1.0, cfg)
    assert quad == val
    assert abs(quad - closed) <= est + tol


def test_beta_like_quadrature_region_checks():
    cfg = QuadratureConfig()
    with pytest.raises(ConvergenceRegionError):
        beta_like_quadrature([0.6, 0.6], [0, 0], 1.0, cfg)
    with pytest.raises(ConvergenceRegionError):
        beta_like_quadrature([-0.1, 0.4], [0, 0], 1.0, cfg)
    # n = 1, parities of the wrong length, and t = 0 or not finite are
    # typed errors, raised before any quadrature
    with pytest.raises(ValueError):
        beta_like_quadrature([0.3], [0], 1.0, cfg)
    with pytest.raises(ValueError):
        beta_like_quadrature([0.3, 0.4], [0], 1.0, cfg)
    with pytest.raises(ValueError):
        beta_like_quadrature([0.3, 0.4, 0.1], [0, 1], 1.0, cfg)
    for t in (0.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            beta_like_quadrature([0.3, 0.4], [0, 1], t, cfg)
    with pytest.raises(ValueError):
        h_integral([0.1, -0.1], [0, 0], 0.4, 1, 0, 0, cfg)


def test_certification_failure_surfaces():
    # an impossible tolerance raises rather than silently passing
    cfg = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-30)
    with pytest.raises(ToleranceNotMetError) as ei:
        beta_like_quadrature([0.3, 0.4], [0, 0], 1.0, cfg)
    assert ei.value.achieved > 0
    # the intertwining operators certify against their own estimates, whose
    # rounding floor (sums of many panels in double precision) exceeds 1e-14
    cfg = QuadratureConfig(abs_tol=1e-16, rel_tol=1e-14)
    f = Bump(0.0, 1.0)
    with pytest.raises(ToleranceNotMetError) as ei:
        intertwine_compose_n2(f, 0.6, 0, [-0.2], cfg)
    assert ei.value.achieved > 0
    with pytest.raises(ToleranceNotMetError):
        intertwine_apply_n2(f, 0.6, 0, [0.3], cfg)


def test_intertwine_compose_does_not_retry_below_the_rounding_floor(monkeypatch):
    # at rel_tol 1e-300 the estimate a point misses is already at the
    # rounding floor, which no inner tolerance can lower: one outer
    # integral per point, not a second one at tightened inner tolerances
    outer = []
    rule = fe_verify.graded_integrals

    def counting(*args, **kwargs):
        if "base" in kwargs:  # the outer integral carries the window terms
            outer.append(args[0])
        return rule(*args, **kwargs)

    monkeypatch.setattr(fe_verify, "graded_integrals", counting)
    cfg = QuadratureConfig(abs_tol=1e-301, rel_tol=1e-300)
    with pytest.raises(ToleranceNotMetError):
        intertwine_compose_n2(Bump(0.0, 1.0), 0.6, 0, [-0.2, 0.1], cfg)
    assert len(outer) == 2


def test_certify_rejects_a_value_farther_than_tol_from_its_closed_form():
    # the estimate meets tol, the value misses it by up to 10 tol: that is a
    # failure, reported as the difference, however small the estimate
    cfg = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-8)
    closed = 2.0 + 1.0j
    tol = cfg.rel_tol * abs(closed)
    for diff in (1.5 * tol, 10 * tol):
        with pytest.raises(ToleranceNotMetError, match="disagrees") as ei:
            _certify(closed + diff, 0.1 * tol, closed, cfg)
        assert ei.value.achieved == abs(closed + diff - closed)
    # within tol the value is accepted even when the estimate is not
    _certify(closed + 0.5 * tol, 100 * tol, closed, cfg)
    with pytest.raises(ToleranceNotMetError, match="estimate") as ei:
        _certify(closed + 2 * tol, 100 * tol, closed, cfg)
    assert ei.value.achieved == 100 * tol


def test_oscillatory_integral_matches_closed():
    cfg = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-10)
    for nu, n in [(0.7, 2), (1.2 + 0.5j, 3)]:
        for eps in (0, 1):
            for d, k in [(1, 1), (2, -1)]:
                v = oscillatory_integral(nu, n, eps, d, k, cfg)
                c = oscillatory_closed(nu, n, eps, d, k)
                assert abs(v - c) < 1e-8 * max(1.0, abs(c))


def test_oscillatory_integral_domain():
    with pytest.raises(StripError):
        oscillatory_integral(2.5, 2, 0, 1, 1)
    with pytest.raises(ValueError):
        oscillatory_integral(0.7, 2, 0, 0, 1)
    with pytest.raises(ValueError):
        oscillatory_integral(0.7, 2, 0, 1, 0)


def _oscillatory_mpmath(nu, n, eps, m):
    # int_R |x|^w sgn(-x)^eps e(mx) dx, w = nu - n/2, by mpmath alone, split
    # at X = 0.7/|m|: mp.quad on [-X, 0] and [0, X] of the integrand less its
    # value at e(mx) = 1, whose integral (1 + (-1)^eps) X^a/a, a = w + 1, is
    # added exactly; and each tail int_X^inf x^w e(m'x) dx, m' = +-m, as
    # c^-a Gamma(a, cX) with c = -2 pi i m' = 2 pi |m| exp(-i sgn(m') pi/2),
    # its logarithm written out so that c^-a takes that branch
    with mp.workdps(20):
        w = mp.mpc(nu) - mp.mpf(n) / 2
        a, X = w + 1, mp.mpf(0.7) / abs(m)

        def f(x):
            sign = -1 if eps % 2 and x > 0 else 1
            return sign * mp.power(abs(x), w) * (mp.expjpi(2 * m * x) - 1)

        def tail(mt):
            log_c = mp.log(2 * mp.pi * abs(mt)) - 1j * mp.sign(mt) * mp.pi / 2
            return mp.exp(-a * log_c) * mp.gammainc(a, mp.exp(log_c) * X)

        near = mp.quad(f, [-X, 0, X]) + (1 + (-1) ** eps) * mp.power(X, a) / a
        return complex(near + (-1) ** eps * tail(m) + tail(-m))


@pytest.mark.parametrize("nu", [0.4, 0.795 - 0.691j, 0.5 + 10j, 0.3 - 10j])
def test_oscillatory_integral_matches_mpmath(nu, monkeypatch):
    # the rotated tails against mpmath's incomplete Gamma, both parities and
    # both signs of m, |Im nu| up to 10, at a tolerance that the tails' own
    # error must follow (nu = 0.795 - 0.691i, eps = 1, m = -4 needs it).  At
    # a whole or half number of periods e(+-mX) = +-1, so the route runs
    # also at a cutoff where the tails' phases are not real
    cfg = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-11)
    for eps in (0, 1):
        for m in (3, -4):
            want = _oscillatory_mpmath(nu, 2, eps, m)
            closed = oscillatory_closed(nu, 2, eps, 1, m)
            for cutoff in (fe_verify._OSC_CUTOFF, 0.6):
                monkeypatch.setattr(fe_verify, "_OSC_CUTOFF", cutoff)
                v = oscillatory_integral(nu, 2, eps, 1, m, cfg)
                for ref in (want, closed):
                    tol = max(cfg.abs_tol, cfg.rel_tol * abs(ref))
                    assert abs(v - ref) <= tol, (eps, m, cutoff)


def test_pairing_fe_normalization_errors():
    lam = [0.1, -0.1, 0.2, -0.1]  # nonzero sum
    with pytest.raises(NormalizationError):
        pairing_fe_gamma_product(lam, [0, 0, 0, 0], 0, 0.3, 2, 1, 0)
    lam_ok = [0.1, -0.1, 0.2, -0.2]
    with pytest.raises(NormalizationError):
        # sum(delta) = 1 but epsilon + n*eta = 0 (mod 2)
        pairing_fe_gamma_product(lam_ok, [1, 0, 0, 0], 0, 0.3, 2, 1, 0)
    with pytest.raises(ValueError):
        pairing_fe_gamma_product([0.0, 0.0], [0, 0], 0, 0.3, 2, 1, 0)


def test_pairing_nu_form_vs_s_form():
    # nu form = (-1)^{eps + delta_{n+1} + ... + delta_{2n}} x s form under
    # nu = n(s - 1/2)
    lam = [0.15, -0.05, 0.1, -0.2]
    delta = [1, 0, 1, 0]
    n, N, eta, eps = 2, 3, 1, 0
    s = 0.6 + 0.3j
    nu = n * (s - 0.5)
    v_nu = pairing_fe_gamma_product(lam, delta, eta, nu, n, N, eps)
    v_s = pairing_fe_gamma_product_s(lam, delta, eta, s, n, N, eps)
    sign = (-1) ** ((eps + delta[2] + delta[3]) % 2)
    assert abs(v_nu - sign * v_s) < 1e-10 * abs(v_s)


def test_eisfe_scalar_trivial_and_primitive():
    psi0 = enumerate_characters(1)[0]
    p = EisParams(n=2, nu=0.3, psi=psi0, epsilon=0)
    assert abs(eisfe_scalar(p) - G_delta(0.3, 0)) < 1e-12
    odd = next(c for c in enumerate_characters(4) if c.parity == 1)
    p4 = EisParams(n=2, nu=0.3, psi=odd, epsilon=1)
    want = (
        -gauss_sum(odd)
        * 4.0 ** (2 * 0.3 - 0.15 - 0.5)
        * G_delta(0.3, 1)
    )
    assert abs(eisfe_scalar(p4) - want) < 1e-12
    six = next(c for c in enumerate_characters(6) if not c.is_principal)
    with pytest.raises(NotPrimitiveError):
        eisfe_scalar(EisParams(n=2, nu=0.3, psi=six, epsilon=1))


def test_h_integral_matches_signed_beta_like():
    # n = 2 in the absolute-convergence region: quadrature returned and
    # certified against the closed form
    lam = [0.05, -0.15, 0.2, -0.1]
    delta = [0, 0, 0, 0]
    nu, eps, eta = 0.3, 0, 0
    cfg = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-7)
    closed, quad = h_integral(lam, delta, nu, 2, eps, eta, cfg)
    assert quad is not None
    assert abs(quad - closed) < 1e-6 * max(1.0, abs(closed))
    # outside the region: closed form only
    closed2, quad2 = h_integral(lam, delta, 1.2, 2, eps, eta, cfg)
    assert quad2 is None and closed2 != 0


def test_bump_shape_and_derivative():
    f = Bump(0.5, 2.0)
    assert f.support == (-1.5, 2.5)
    assert f(0.5) == 1.0
    assert f(2.5) == 0.0 and f(3.0) == 0.0
    h = 1e-6
    for x in [0.1, -0.7, 1.9]:
        fd = (f(x + h) - f(x - h)) / (2 * h)
        assert abs(f.derivative(x) - fd) < 1e-5
    assert f.derivative(4.0) == 0.0
    with pytest.raises(ValueError):
        Bump(0.0, 0.0)
    # on arrays: the same values as elementwise scalar calls, and as the
    # formula in math-module arithmetic, including the support edges |u| = 1
    xs = np.array([-1.5, -1.0, 0.1, 0.5, 1.9, 2.5, 3.0, 2.4999999])
    assert isinstance(f(0.1), float) and isinstance(f.derivative(0.1), float)
    assert f(xs).shape == xs.shape
    assert list(f(xs)) == [f(float(x)) for x in xs]
    assert list(f.derivative(xs)) == [f.derivative(float(x)) for x in xs]
    for x, v, d in zip(xs, f(xs), f.derivative(xs)):
        u = (x - 0.5) / 2.0
        if abs(u) >= 1:
            assert v == 0.0 and d == 0.0
            continue
        w = 1 - u * u
        want = math.exp(1 - 1 / w)
        assert abs(v - want) <= 1e-15 * want
        assert abs(d - want * (-2 * u / (w * w)) / 2.0) <= 1e-14 * abs(want / (w * w))


def _bump_by_where(center, width, x):
    """The bump and its derivative with the support tested by |u| < 1 and
    each branch chosen by np.where: the reference the one-pass form must
    match bit for bit."""
    u = (np.asarray(x, dtype=float) - center) / width
    inside = np.abs(u) < 1
    w = np.where(inside, 1 - u * u, 1.0)
    f = np.where(inside, np.exp(1 - 1 / w), 0.0)
    return f, np.where(inside, f * (-2 * u / (w * w)) / width, 0.0)


@pytest.mark.parametrize("center, width", [(0.0, 1.0), (0.5, 2.0), (-0.25, 0.75)])
def test_bump_matches_the_where_formula_bit_for_bit(center, width):
    f = Bump(center, width)
    a, b = f.support
    # u = 0, |u| = 1 exactly, the doubles next to the edges, and |u| > 1
    scalars = [center, a, b, 2 * b - center, a - 3 * width, 1e6, -1e6]
    scalars += [np.nextafter(a, b), np.nextafter(b, a), np.nextafter(a, -np.inf),
                np.nextafter(b, np.inf)]
    rng = np.random.default_rng(7)
    arrays = [np.array(scalars), rng.uniform(a - width, b + width, (195, 21)),
              center + width * np.linspace(-1.0, 1.0, 401)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning may escape
        for x in scalars:
            want_f, want_d = _bump_by_where(center, width, x)
            got_f, got_d = f(x), f.derivative(x)
            assert type(got_f) is float and type(got_d) is float
            assert np.float64(got_f).tobytes() == want_f.tobytes(), x
            assert np.float64(got_d).tobytes() == want_d.tobytes(), x
        for x in arrays:
            want_f, want_d = _bump_by_where(center, width, x)
            assert f(x).tobytes() == want_f.tobytes()
            assert f.derivative(x).tobytes() == want_d.tobytes()
    assert f(b) == 0.0 and f.derivative(a) == 0.0 and f(center) == 1.0


def test_kronrod_rule_exactness():
    # the 21-point Kronrod rule is exact to degree 31, its embedded 10-point
    # Gauss rule to degree 19
    for d in range(32):
        exact = (1 - (-1) ** (d + 1)) / (d + 1)
        assert abs(_KRONROD_W @ _KRONROD_X**d - exact) < 1e-14
        if d < 20:
            assert abs(_GAUSS_W @ _KRONROD_X**d - exact) < 1e-14


def test_intertwine_apply_scaling():
    # I_nu is linear and the kernel is even in (y, z) -> (-y, -z) for eps=0
    # with an even bump, so (I f)(y) = (I f)(-y).
    f = Bump(0.0, 1.0)
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-8)
    vals = intertwine_apply_n2(f, 0.6, 0, [0.4, -0.4], cfg)
    assert abs(vals[0] - vals[1]) < 1e-7
    with pytest.raises(ConvergenceRegionError):
        intertwine_apply_n2(f, -0.2, 0, [0.0], cfg)


def test_intertwine_compose_scalar():
    # I_{-nu} I_{nu} = gamma * id with gamma = G_0(nu) G_0(-nu)
    f = Bump(0.0, 1.0)
    cfg = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-6)
    nu = 0.6
    vals = intertwine_compose_n2(f, nu, 0, [-0.2, 0.1], cfg)
    gamma = complex(G_delta(nu, 0) * G_delta(-nu, 0))
    for x, v in zip([-0.2, 0.1], vals):
        ratio = complex(v) / f(x)
        assert abs(ratio - gamma) < 5e-3 * abs(gamma)
        assert abs(ratio - gamma) < 1e-5 * abs(gamma)
        # each x is computed on its own: a grid equals single-x calls
        assert intertwine_compose_n2(f, nu, 0, [x], cfg)[0] == v


def _apply_tanh_sinh(center, width, nu, y, k=0.0, splits=1):
    # int bump(z) cos(kz) |-y-z|^{nu-1} dz (epsilon = 0) by mpmath's
    # tanh-sinh on `splits` equal intervals of the support, split also at
    # the kernel singularity z = -y when it lies in the support; at 20
    # digits mp.quad's own error estimate stays below 3e-15 relative on
    # every case here, 8e-21 on the k = 200 ones with 8 splits
    nu, y = mp.mpc(nu), mp.mpf(y)

    def g(z):
        u, d = (z - center) / width, -y - z
        if abs(u) >= 1 or d == 0:
            return mp.mpf(0)
        return mp.exp(1 - 1 / (1 - u * u)) * mp.cos(k * z) * mp.power(abs(d), nu - 1)

    a, b = mp.mpf(center - width), mp.mpf(center + width)
    with mp.workdps(20):
        points = mp.linspace(a, b, splits + 1)
        return complex(mp.quad(g, sorted(points + [-y]) if a < -y < b else points))


@pytest.mark.parametrize("nu", [0.6, 0.8 + 0.5j])
def test_intertwine_apply_matches_tanh_sinh(nu):
    # support (-0.5, 1.0), both edges exact in binary: -y inside the
    # support, exactly on each edge, just outside (1e-12 to 1e-6 past an
    # edge, where the kernel's singular point lies at d0 > 0 from the
    # piece's start), and in the far field
    center, width = 0.25, 0.75
    f = Bump(center, width)
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-8)
    ys = [0.3, -0.55, 0.5, -1.0, -1.0 - 1e-9, 2.0, -40.0, 150.0,
          -1.0 - 1e-12, -1.0 - 1e-6, 0.5 + 1e-12, 0.5 + 1e-6]
    vals = intertwine_apply_n2(f, nu, 0, ys, cfg)
    for y, v in zip(ys, vals):
        want = _apply_tanh_sinh(center, width, nu, y)
        assert abs(v - want) <= max(cfg.abs_tol, cfg.rel_tol * abs(want)), y


class _ModulatedBump(Bump):
    """Bump(0, 1) times g, with its derivative from g's derivative dg."""

    def __init__(self, g, dg):
        super().__init__(0.0, 1.0)
        self.g, self.dg = g, dg

    def __call__(self, x):
        return super().__call__(x) * self.g(np.asarray(x))

    def derivative(self, x):
        x = np.asarray(x)
        return super().derivative(x) * self.g(x) + super().__call__(x) * self.dg(x)


@pytest.mark.parametrize("nu", [1.0, 2.0])
def test_intertwine_apply_at_integer_nu_matches_tanh_sinh(nu):
    # -y inside the support gives pieces whose kernel h^{nu-1} has moments
    # mu_k(nu) = 0 for k >= nu; the first endpoint panel [0, 1/16] spans two
    # periods of cos(200 x), which its 12 nodes do not resolve
    f = _ModulatedBump(lambda x: np.cos(200 * x), lambda x: -200 * np.sin(200 * x))
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-8)
    ys = [0.0, -0.3, -1.0]
    vals = intertwine_apply_n2(f, nu, 0, ys, cfg)
    for y, v in zip(ys, vals):
        want = _apply_tanh_sinh(0.0, 1.0, nu, y, k=200.0, splits=8)
        assert abs(v - want) <= max(cfg.abs_tol, cfg.rel_tol * abs(want)), y


@pytest.mark.parametrize("nu", [0.05, 0.2 + 1j])
def test_intertwine_apply_with_tiny_gap_matches_tanh_sinh(nu):
    # support (0, 2) with -y 1e-40 and 1e-300 left of its edge 0: pieces
    # whose kernel is singular at a d0 > 0 that no panel grading reaches
    f = Bump(1.0, 1.0)
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-8)
    ys = [1e-40, 1e-300]
    vals = intertwine_apply_n2(f, nu, 0, ys, cfg)
    for y, v in zip(ys, vals):
        want = _apply_tanh_sinh(1.0, 1.0, nu, y)
        assert abs(v - want) <= max(cfg.abs_tol, cfg.rel_tol * abs(want)), y


@pytest.mark.parametrize("center, width", [(0.0, 1.0), (0.3, 0.7)])
@pytest.mark.parametrize("nu", [0.3, 0.6, 0.8 + 0.5j])
@pytest.mark.parametrize("epsilon", [0, 1])
def test_intertwine_compose_at_both_parities(epsilon, nu, center, width):
    # I_{-nu} I_nu = (-1)^eps G_eps(nu) G_eps(-nu) * id: odd eps carries the
    # sign and its own G_1, both of which the ratio must show
    f = Bump(center, width)
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-8)
    gamma = (-1) ** epsilon * complex(G_delta(nu, epsilon) * G_delta(-nu, epsilon))
    xs = [-0.2, 0.1]
    for x, v in zip(xs, intertwine_compose_n2(f, nu, epsilon, xs, cfg)):
        want = gamma * f(x)
        assert abs(v - want) <= max(cfg.abs_tol, cfg.rel_tol * abs(want)), x


@pytest.mark.parametrize(
    "center, width, nu, x", [(0.0, 1.0, 0.6, -0.2), (0.3, 0.7, 0.3, 0.5)]
)
def test_intertwine_compose_tail_model_error_is_certified(center, width, nu, x):
    # the outer integral's tails, z = -x +- R/u, must carry g all the way
    # out: continued past |z| = 60 by its leading asymptote alone, g made
    # these values miss by 4.5e-8 and 1.9e-8 relative; they must certify at
    # rel_tol 1e-10
    f = Bump(center, width)
    cfg = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-10)
    want = complex(G_delta(nu, 0) * G_delta(-nu, 0)) * f(x)
    (v,) = intertwine_compose_n2(f, nu, 0, [x], cfg)
    assert abs(v - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize(
    "center, width, nu, x",
    [(64.0, 8.0, 0.6, 63.0), (64.0, 8.0, 0.6, 70.0), (-100.0, 4.0, 0.8 + 0.5j, -99.0)],
)
def test_intertwine_compose_far_from_the_origin(center, width, nu, x):
    # |x| >= 60 inside the support: the window and the mapped tails have no
    # limit on |x|
    f = Bump(center, width)
    cfg = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-6)
    want = complex(G_delta(nu, 0) * G_delta(-nu, 0)) * f(x)
    (v,) = intertwine_compose_n2(f, nu, 0, [x], cfg)
    assert abs(v - want) <= max(cfg.abs_tol, cfg.rel_tol * abs(want))


@pytest.mark.parametrize(
    "center, width, nu, x",
    [
        (0.0, 1.0, 0.3, -0.2),
        (0.0, 1.0, 0.6, 0.1),
        (0.3, 0.7, 0.9, 0.5),
        (0.0, 1.0, 0.8 + 0.5j, -0.2),
        (0.3, 0.7, 0.5 + 3j, 0.1),
        (0.0, 1.0, 0.1, 0.4),
    ],
)
def test_intertwine_compose_at_tight_tolerance(center, width, nu, x):
    # near the rounding floor of the outer sum; nu = 0.1 outside the support
    # (x = 3, where the value is 0) has a floor above 1e-13 absolute
    f = Bump(center, width)
    cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-11)
    want = complex(G_delta(nu, 0) * G_delta(-nu, 0)) * f(x)
    (v,) = intertwine_compose_n2(f, nu, 0, [x], cfg)
    assert abs(v - want) <= max(cfg.abs_tol, cfg.rel_tol * abs(want))


@pytest.mark.parametrize("center, width", [(0.0, 1.0), (0.3, 0.7)])
@pytest.mark.parametrize("epsilon", [0, 1])
def test_intertwine_real_nu_agrees_with_the_complex_path(epsilon, center, width):
    # nu = 0.6 runs in real arithmetic; nu = 0.6 + 1e-300 i takes the complex
    # path through the same panels.  Measured gap: at most 2.7e-8 of the
    # tolerance (3.6e-15 absolute)
    f = Bump(center, width)
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-8)
    ys, xs = [0.3, -0.55, 1.5, -1.5, -40.0, 150.0], [-0.2, 0.1]
    for operator, points in ((intertwine_apply_n2, ys), (intertwine_compose_n2, xs)):
        real = operator(f, 0.6, epsilon, points, cfg)
        cplx = operator(f, complex(0.6, 1e-300), epsilon, points, cfg)
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(real))
        assert np.all(np.abs(real - cplx) <= 1e-5 * tol), operator.__name__


def _exp_and_parts(k):
    """Bump(0, 1) times e^{ikx}, cos kx and sin kx, each with its derivative."""
    return (
        _ModulatedBump(lambda x: np.exp(1j * k * x), lambda x: 1j * k * np.exp(1j * k * x)),
        _ModulatedBump(lambda x: np.cos(k * x), lambda x: -k * np.sin(k * x)),
        _ModulatedBump(lambda x: np.sin(k * x), lambda x: k * np.cos(k * x)),
    )


@pytest.mark.parametrize(
    "operator, nu, epsilon, points",
    [
        (intertwine_apply_n2, 0.6, 0, [0.3, -0.55, 1.5, -1.5, -40.0, 150.0]),
        (intertwine_apply_n2, 0.6, 1, [0.3, -0.55, 1.5, -1.5, -40.0, 150.0]),
        (intertwine_compose_n2, 0.6, 0, [-0.2, 0.1]),
        (intertwine_compose_n2, 0.8 + 0.5j, 0, [-0.2, 0.1]),
    ],
    ids=["apply-eps0", "apply-eps1", "compose-real-nu", "compose-complex-nu"],
)
def test_intertwine_of_a_complex_valued_function(operator, nu, epsilon, points):
    # both operators are linear: v(f e^{3ix}) = v(f cos 3x) + i v(f sin 3x),
    # which a real-valued working array would lose the imaginary part of
    f, f_cos, f_sin = _exp_and_parts(3.0)
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-8)
    got = operator(f, nu, epsilon, points, cfg)
    want = operator(f_cos, nu, epsilon, points, cfg) + 1j * operator(f_sin, nu, epsilon, points, cfg)
    assert np.all(np.abs(got - want) <= np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(want)))


@pytest.mark.parametrize(
    "support", [(1.0, -1.0), (1.0, 1.0), (-1.0, math.inf), (math.nan, 1.0)],
    ids=["reversed", "empty", "unbounded", "nan"],
)
@pytest.mark.parametrize(
    "operator", [intertwine_apply_n2, intertwine_compose_n2], ids=["apply", "compose"]
)
def test_intertwine_rejects_a_support_that_is_not_a_finite_interval(operator, support):
    f = Bump(0.0, 1.0)
    f.support = support
    with pytest.raises(ValueError, match="support"):
        operator(f, 0.6, 0, [0.3])


@pytest.mark.parametrize("point", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "operator", [intertwine_apply_n2, intertwine_compose_n2], ids=["apply", "compose"]
)
def test_intertwine_rejects_non_finite_points(operator, point):
    with pytest.raises(ValueError, match="finite"):
        operator(Bump(0.0, 1.0), 0.6, 0, [0.3, point])


@pytest.mark.parametrize(
    "operator, attributes, missing",
    [
        (intertwine_compose_n2, {"support": (-1.0, 1.0)}, "derivative"),
        (intertwine_compose_n2, {"derivative": lambda x: -2 * x}, "support"),
        (intertwine_apply_n2, {}, "support"),
    ],
    ids=["compose-no-derivative", "compose-no-support", "apply-no-support"],
)
def test_intertwine_requires_test_function_attributes(operator, attributes, missing):
    def f(x):
        return np.maximum(0.0, 1 - x * x)

    for name, value in attributes.items():
        setattr(f, name, value)
    with pytest.raises(ValueError, match=missing):
        operator(f, 0.6, 0, [0.0])
