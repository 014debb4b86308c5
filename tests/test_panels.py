"""The endpoint rule of mirabolic.panels: the Legendre moments of h^{s-1}
against an independent quadrature, exactness of the moment rule on
polynomials, and graded_integrals against mpmath where the rule's estimate
is tested hardest: integer s, where the moments vanish for k >= s, and
kernels shifted by a tiny d0 > 0."""

import math

import mpmath as mp
import numpy as np
import pytest

from mirabolic.panels import _M, _endpoint_moments, _legendre_moments, graded_integrals


def _legendre(k, x):
    p0, p1 = 1, x
    for j in range(1, k):
        p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
    return p0 if k == 0 else p1


def _moment_by_quadrature(k, s):
    # int_0^1 P_k(2t - 1) t^{s-1} dt = int_0^inf P_k(2e^{-u} - 1) e^{-su} du,
    # taken along the ray u = r e^{-i arg(s)/2}: the integrand is analytic
    # and decays in the sector between that ray and the real axis, and on
    # it both e^{-u} and e^{-su} decay, however close s is to the imaginary
    # axis
    s = mp.mpc(s)
    rot = mp.exp(-0.5j * mp.arg(s))

    def f(r):
        return _legendre(k, 2 * mp.exp(-r * rot) - 1) * mp.exp(-s * rot * r)

    return complex(rot * mp.quad(f, mp.linspace(0, 40 / mp.re(s * rot), 4) + [mp.inf]))


@pytest.mark.parametrize("s", [0.05, 2.0, 0.3 + 50j, 1 - 7j, 0.02 + 3j])
def test_legendre_moments_match_quadrature(s):
    mu = _legendre_moments(np.array([s]))[0]
    assert mu.shape == (_M,)
    for k in range(_M):
        want = _moment_by_quadrature(k, s)
        assert abs(mu[k] - want) <= 1e-14 * max(1.0, abs(want)), k


def test_endpoint_rule_is_exact_on_polynomials():
    # phi of degree < 12 in h/delta: int_0^delta phi(h) h^{s-1} dh =
    # delta^s sum_m a_m / (m + s)
    rng = np.random.default_rng(0)
    delta = np.array([0.37, 2.5e-9, 3.0])
    for s in [0.05, 0.5 + 3j, 1.0, 3.0, 1.7 - 20j, 2.0 + 50j]:
        s = complex(s)
        for degree in range(_M):
            a = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)

            def phi(p, h):
                u = h / delta[p][:, None]
                return sum(c * u**m for m, c in enumerate(a)), None

            v, q, mass, carried = _endpoint_moments(
                phi, 0 * delta, delta, np.arange(3), np.zeros(3), np.full(3, s)
            )
            m = np.arange(degree + 1)
            scale = np.abs(delta**s) * np.sum(np.abs(a / (m + s)))
            exact = delta**s * np.sum(a / (m + s))
            assert np.all(np.abs(v - exact) <= 1e-14 * scale), (s, degree)
            assert carried == 0.0
            # the estimate bounds the part carried by P_6 ... P_11; it falls
            # to rounding with them below degree 6, and it bounds that part
            # at every s, integers included, where mu_k(s) = 0 for k >= s
            bound = np.abs(delta**s / s) * np.sum(np.abs(a))
            if degree < _M // 2:
                assert np.all(q <= 1e-13 * bound)
            else:
                # c_degree = a_degree degree!^2 / (2 degree)!
                top = abs(a[-1]) * math.factorial(degree) ** 2 / math.factorial(2 * degree)
                assert np.all(q >= 0.99 * np.abs(delta**s / s) * top)


def _one_piece(phi, L, d0, s, abs_tol, rel_tol):
    v, e = graded_integrals(
        phi, np.array([L]), np.array([d0]), np.array([s], complex),
        np.zeros(1, int), 1, abs_tol, rel_tol, 200,
    )
    return complex(v[0]), float(e[0])


@pytest.mark.parametrize("s", [1.0, 2.0, 3.0, 1 + 1e-7, 2 - 1e-7])
def test_endpoint_estimate_holds_at_integer_s(s):
    # phi = e^{200ih}: the first endpoint panel [0, 1/16] spans two periods,
    # which 12 nodes do not resolve.  At s = 1, 2, 3 the moments mu_k(s)
    # vanish for k >= s, so an estimate built from them would read 0 there
    a = 200.0

    def phi(p, h):
        return np.exp(1j * a * h), None

    v, e = _one_piece(phi, 1.0, 0.0, s, 1e-12, 1e-10)
    with mp.workdps(25):
        want = complex(mp.quad(
            lambda h: mp.expj(a * h) * h ** (mp.mpf(s) - 1), mp.linspace(0, 1, 65)
        ))
    assert abs(v - want) <= e <= max(1e-12, 1e-10 * abs(want))


@pytest.mark.parametrize("d0", [1e-40, 1e-100, 1e-300])
@pytest.mark.parametrize("s", [0.05, 0.3, 1.5, 0.2 + 3j])
def test_tiny_kernel_shift_is_exact(d0, s):
    # int_0^1 e^{-h} (d0 + h)^{s-1} dh = e^{d0} (gamma(s, d0) - gamma(s, d0 + 1)):
    # at small Re s, a d0 this small still changes the value by about
    # d0^s / s, 0.2 at d0 = 1e-40 and s = 0.05, far beyond the scale that
    # panels graded by 1/4 reach within the panel budget
    def phi(p, h):
        return np.exp(-h), None

    v, e = _one_piece(phi, 1.0, d0, s, 1e-12, 1e-10)
    with mp.workdps(30):
        d, ms = mp.mpf(d0), mp.mpc(s)
        want = complex(mp.exp(d) * mp.gammainc(ms, d, d + 1))
    assert abs(v - want) <= e <= max(1e-12, 1e-10 * abs(want))
