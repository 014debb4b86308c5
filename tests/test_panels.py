"""The endpoint rule of mirabolic.panels: the Legendre moments of h^{s-1}
against an independent quadrature, exactness of the moment rule on
polynomials, and graded_integrals against mpmath where the rule's estimate
is tested hardest: integer s, where the moments vanish for k >= s, and
kernels shifted by a tiny d0 > 0; and every exit of graded_integrals'
refinement loop against closed forms."""

import math

import mpmath as mp
from mpmath.calculus.quadrature import TanhSinh
import numpy as np
import pytest

from mirabolic import panels
from mirabolic.panels import _M, _endpoint_moments, _legendre_moments, graded_integrals


# one rule for every s: its nodes on [-1, 1] are computed once per degree
_TANH_SINH = TanhSinh(mp.mp)


def _moments_by_quadrature(s):
    """mu_k(s), k < 12, by one tanh-sinh quadrature of all twelve integrands
    at once, and the largest change of any of them at the last doubling of
    the degree, which bounds their error (each doubling about doubles the
    correct digits).

    int_0^1 P_k(2t - 1) t^{s-1} dt = int_0^inf P_k(2e^{-u} - 1) e^{-su} du,
    taken along the ray u = r e^{-i arg(s)/2}: the integrand is analytic and
    decays in the sector between that ray and the real axis, and on it both
    e^{-u} and e^{-su} decay, however close s is to the imaginary axis.  The
    ray is cut at 40/Re(s e^{-i arg(s)/2}) into three equal pieces and the
    tail.  At each node the P_k come from the three-term recurrence."""
    with mp.workdps(20):
        s = mp.mpc(s)
        rot = mp.exp(-0.5j * mp.arg(s))
        # P_{j+1} = a_j x P_j - b_j P_{j-1}
        a = [mp.mpf(2 * j + 1) / (j + 1) for j in range(_M)]
        b = [mp.mpf(j) / (j + 1) for j in range(_M)]
        total, change = [mp.mpc(0)] * _M, mp.mpf(0)
        cuts = mp.linspace(0, 40 / mp.re(s * rot), 4) + [mp.inf]
        for lo, hi in zip(cuts, cuts[1:]):
            sums = None
            for degree in range(1, 12):
                # the nodes of this degree that the previous ones lack
                step = [mp.mpc(0)] * _M
                for r, w in _TANH_SINH.get_nodes(lo, hi, degree, mp.mp.prec):
                    x = 2 * mp.exp(-r * rot) - 1
                    f = w * mp.exp(-s * rot * r)
                    p0, p1 = f, f * x
                    step[0] += p0
                    step[1] += p1
                    for j in range(1, _M - 1):
                        p0, p1 = p1, a[j] * x * p1 - b[j] * p0
                        step[j + 1] += p1
                h = mp.mpf(2) ** -degree
                new = [h * v for v in step] if sums is None else [
                    v / 2 + h * w for v, w in zip(sums, step)
                ]
                diff = None if sums is None else max(abs(u - v) for u, v in zip(new, sums))
                sums = new
                if diff is not None and diff <= mp.mpf(10) ** -18:
                    break
            total = [t + v for t, v in zip(total, sums)]
            change += diff
        return [complex(rot * t) for t in total], float(abs(rot) * change)


@pytest.mark.parametrize("s", [0.05, 2.0, 0.3 + 50j, 1 - 7j, 0.02 + 3j])
def test_legendre_moments_match_quadrature(s):
    mu = _legendre_moments(np.array([s]))[0]
    assert mu.shape == (_M,)
    want, change = _moments_by_quadrature(s)
    assert change <= 1e-16
    for k in range(_M):
        assert abs(mu[k] - want[k]) <= 1e-14 * max(1.0, abs(want[k])), k


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


# ---------------------------------------------------------------------------
# every exit of graded_integrals' refinement loop, against closed forms


def _damped_exponential(c, d0, s, L):
    """int_0^L e^{-c h} (d0 + h)^{s-1} dh for Re c > 0, d0 >= 0:
    e^{c d0} c^{-s} int_{c d0}^{c (d0 + L)} e^{-t} t^{s-1} dt, the path in
    the right half-plane, where t^{s-1} = c^{s-1} (d0 + h)^{s-1}."""
    with mp.workdps(30):
        c, d0, s = mp.mpc(c), mp.mpf(d0), mp.mpc(s)
        return complex(mp.exp(c * d0) * c ** -s * mp.gammainc(s, c * d0, c * (d0 + L)))


def _counting_rounds(monkeypatch):
    """Count the rounds of graded_integrals (its calls of _eval_panels) and
    the panels it evaluates."""
    seen = {"rounds": 0, "panels": 0}
    inner = panels._eval_panels

    def counted(phi, lo, *args):
        seen["rounds"] += 1
        seen["panels"] += lo.size
        return inner(phi, lo, *args)

    monkeypatch.setattr(panels, "_eval_panels", counted)
    return seen


def _batch(c, d0, s, abs_tol, rel_tol, max_panels, edge_cuts=0):
    """One group per piece, L = 1, phi = e^{-c h} (real when c is)."""
    n = len(d0)

    def phi(p, h):
        return np.exp(-c * h), None

    return graded_integrals(
        phi, np.ones(n), np.array(d0, float), np.array(s), np.arange(n), n,
        abs_tol, rel_tol, max_panels, edge_cuts=edge_cuts,
    )


def test_refinement_exit_first_round(monkeypatch):
    seen = _counting_rounds(monkeypatch)
    v, e = _batch(1.0, [0.0], [0.5], 1e-6, 1e-6, 200)
    assert seen["rounds"] == 1
    want = _damped_exponential(1.0, 0.0, 0.5, 1.0)
    assert v.dtype == float and abs(v[0] - want) <= e[0] <= 1e-6


# d0 = 0 (the endpoint rule), 0 < d0 < 4^-40 L (the endpoint rule with the
# kernel's shift in closed form) and d0 > 0 (panels graded to the scale d0)
_D0 = [0.0, 1e-30, 1e-3]


@pytest.mark.parametrize("edge_cuts", [0, 4])
@pytest.mark.parametrize(
    "c, s",
    [(40.0, [0.3, 0.7, 1.5]), (40 - 300j, [0.3 + 2j, 0.7 - 1j, 1.5 + 0.5j])],
    ids=["real", "complex"],
)
def test_refinement_exit_converged_after_rounds(monkeypatch, c, s, edge_cuts):
    seen = _counting_rounds(monkeypatch)
    abs_tol, rel_tol = 1e-13, 1e-11
    v, e = _batch(c, _D0, s, abs_tol, rel_tol, 200, edge_cuts)
    assert seen["rounds"] >= 3
    assert (v.dtype.kind == "c") == isinstance(c, complex)
    for i, d0 in enumerate(_D0):
        want = _damped_exponential(c, d0, s[i], 1.0)
        assert abs(v[i] - want) <= e[i] <= max(abs_tol, rel_tol * abs(v[i])), (d0, s[i])


def test_refinement_exit_at_max_panels(monkeypatch):
    # the panel budget runs out with the estimate above the tolerance: the
    # sums are returned with that estimate, not raised
    seen = _counting_rounds(monkeypatch)
    c, s, max_panels = 4 - 60j, [0.3 + 2j, 0.7 - 1j, 1.5 + 0.5j], 6
    v, e = _batch(c, _D0, s, 1e-13, 1e-11, max_panels)
    assert seen["rounds"] >= 2
    assert np.all(e > 1e-11 * np.abs(v))
    for i, d0 in enumerate(_D0):
        want = _damped_exponential(c, d0, s[i], 1.0)
        assert abs(v[i] - want) <= e[i], (d0, s[i])


def test_refinement_exit_at_rounding_floor(monkeypatch):
    # tolerances far below rounding: the loop stops where every group's
    # estimate meets the rounding error of its sum, 50 eps times its mass,
    # before any piece has used its budget of 200 panels (fewer than 200
    # were evaluated in all)
    seen = _counting_rounds(monkeypatch)
    s = [0.3, 0.7, 1.5]
    v, e = _batch(3.0, _D0, s, 1e-300, 1e-300, 200)
    assert seen["rounds"] >= 2 and seen["panels"] < 200
    for i, d0 in enumerate(_D0):
        want = _damped_exponential(3.0, d0, s[i], 1.0)
        assert abs(v[i] - want) <= e[i] <= 1e-13 * abs(v[i]), (d0, s[i])
