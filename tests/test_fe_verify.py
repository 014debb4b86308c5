"""Functional-equation verification tests: the singular-product quadrature
engine, beta-like integrals, oscillatory integrals, the H integral, the
pairing scalars, and the n=2 intertwining operator."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from mirabolic.characters import enumerate_characters, gauss_sum
from mirabolic.eisenstein import EisParams
from mirabolic.errors import (
    ConvergenceRegionError,
    MirabolicError,
    NormalizationError,
    NotPrimitiveError,
    PoleError,
    StripError,
    ToleranceNotMetError,
)
from mirabolic.fe_verify import (
    Bump,
    QuadratureConfig,
    SingularProduct,
    _beta_like_n3,
    beta_like_closed,
    beta_like_quadrature,
    default_config,
    eisfe_scalar,
    h_integral,
    integrate_product_line,
    intertwine_apply_n2,
    intertwine_compose_n2,
    oscillatory_closed,
    oscillatory_integral,
    pairing_fe_gamma_product,
    pairing_fe_gamma_product_s,
)
from mirabolic.panels import _GAUSS_W, _KRONROD_W, _KRONROD_X
from mirabolic.special import G_delta


def test_config_validation_and_env(monkeypatch):
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_depth=0)
    monkeypatch.setenv("MIRABOLIC_PRECISION", "1e-6")
    cfg = default_config()
    assert cfg.rel_tol == 1e-6 and cfg.abs_tol == 1e-8
    monkeypatch.setenv("MIRABOLIC_PRECISION", "garbage")
    with pytest.raises(ValueError):
        default_config()


def test_singular_product_eval_near_is_exact():
    # eval_near must compute offsets from the singular point exactly, even
    # when the position itself is not representable relative to h.
    t = 1 / 3
    sp = SingularProduct([(t, 0.25, 0), (0.0, 0.25, 1)])
    h = 1e-300
    v = sp.eval_near(0, h)
    # distance to the other singular point is t - (t + h) computed as -h + 0
    want = h ** (0.25 - 1) * abs(t + h) ** (0.25 - 1) * math.copysign(1, t + h)
    assert v != 0 and abs(v - want) < 1e-12 * abs(want)
    # at the singular point itself the factor distance is exactly h
    assert sp.eval_near(1, h) != 0


def test_integrate_product_line_full_line_beta():
    # int_R |1 - x|^{a-1} |x|^{b-1} dx has the G-ratio closed form
    a, b = 0.3, 0.4
    sp = SingularProduct([(1.0, a, 0), (0.0, b, 0)])
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)
    val, est = integrate_product_line(sp, a + b - 2, cfg)
    want = beta_like_closed([a, b], [0, 0], 1.0)
    assert abs(val - want) < 1e-8 * abs(want)
    assert est < 1e-7


def test_integrate_product_line_rejects_divergent_tail():
    sp = SingularProduct([(0.0, 0.5, 0)])
    with pytest.raises(ConvergenceRegionError):
        integrate_product_line(sp, -0.5, QuadratureConfig())


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
    with pytest.raises(ValueError):
        beta_like_closed(b, e, 0.0)
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
    # near sum(beta) = 0.95 the tail substitution's u**k and u*u underflow
    # to 0, where the tail integrand must not divide by zero
    beta, eta, t = (0.2984, 0.3290, 0.3216), (0, 1, 1), 0.959
    cfg = QuadratureConfig()
    closed = beta_like_closed(beta, eta, t)
    try:
        v = beta_like_quadrature(beta, eta, t, cfg)
    except MirabolicError:
        return
    assert abs(v - closed) <= 10 * max(cfg.abs_tol, cfg.rel_tol * abs(closed))


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
    sp = SingularProduct([(t, beta[0], eta[0]), (0.0, beta[1], eta[1])], const=-1.0)
    val, est = integrate_product_line(sp, 0.55 - 2, cfg)
    assert abs(val - closed) <= est + tol
    assert beta_like_quadrature(beta, eta, t, cfg) == val


def test_beta_like_n3_negative_t_complex_beta():
    beta, eta, t = [0.25 + 0.2j, 0.3, 0.35], [1, 0, 1], -2.5
    cfg = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-4)
    closed = _mp_beta_like(beta, eta, t)
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(closed))
    val, est = _beta_like_n3(beta, eta, t, cfg)
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
    sp = SingularProduct([(-1.0, nu, eps), (0.0, beta1, e1)])
    val, est = integrate_product_line(sp, (nu + beta1).real - 2, cfg)
    assert quad == val
    assert abs(val - closed) <= est + tol


def test_beta_like_quadrature_region_checks():
    cfg = QuadratureConfig()
    with pytest.raises(ConvergenceRegionError):
        beta_like_quadrature([0.6, 0.6], [0, 0], 1.0, cfg)
    with pytest.raises(ConvergenceRegionError):
        beta_like_quadrature([-0.1, 0.4], [0, 0], 1.0, cfg)
    with pytest.raises(ValueError):
        beta_like_quadrature([0.2, 0.2, 0.2, 0.2], [0, 0, 0, 0], 1.0, cfg)


def test_certification_failure_surfaces():
    # an impossible tolerance raises rather than silently passing
    cfg = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-30, max_depth=10)
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


def _apply_tanh_sinh(center, width, nu, y):
    # int bump(z) |-y-z|^{nu-1} dz (epsilon = 0) by mpmath's tanh-sinh,
    # split at the kernel singularity z = -y when it lies in the support
    nu, y = mp.mpc(nu), mp.mpf(y)

    def g(z):
        u, d = (z - center) / width, -y - z
        if abs(u) >= 1 or d == 0:
            return mp.mpf(0)
        return mp.exp(1 - 1 / (1 - u * u)) * mp.power(abs(d), nu - 1)

    a, b = mp.mpf(center - width), mp.mpf(center + width)
    with mp.workdps(30):
        return complex(mp.quad(g, [a, -y, b] if a < -y < b else [a, b]))


@pytest.mark.parametrize("nu", [0.6, 0.8 + 0.5j])
def test_intertwine_apply_matches_tanh_sinh(nu):
    # support (-0.5, 1.0), both edges exact in binary: -y inside the
    # support, exactly on each edge, just outside, and in the far field
    center, width = 0.25, 0.75
    f = Bump(center, width)
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-8)
    ys = [0.3, -0.55, 0.5, -1.0, -1.0 - 1e-9, 2.0, -40.0, 150.0]
    vals = intertwine_apply_n2(f, nu, 0, ys, cfg)
    for y, v in zip(ys, vals):
        want = _apply_tanh_sinh(center, width, nu, y)
        assert abs(v - want) <= max(cfg.abs_tol, cfg.rel_tol * abs(want)), y


def test_intertwine_compose_requires_derivative():
    def f(x):
        return max(0.0, 1 - x * x)

    f.support = (-1.0, 1.0)
    with pytest.raises(ValueError):
        intertwine_compose_n2(f, 0.6, 0, [0.0])
