"""Functional-equation scalar factors and quadrature oracles.

The closed forms here are ratios/products of G_delta factors (Gauss-sum and
level powers included where relevant); each one is paired with an independent
numerical route — adaptive quadrature with power-law substitutions at the
algebraic singularities, 1/u mappings on the tails, and repeated integration
by parts past a cutoff for the conditionally convergent oscillatory integral.
A quadrature oracle that cannot certify agreement with its closed form raises
ToleranceNotMetError rather than returning silently.

The n=2 intertwining operators (intertwine_apply_n2, intertwine_compose_n2)
use their own rule on numpy arrays, from mirabolic.panels: composite
21-point Gauss-Kronrod panels, graded geometrically toward each |h|^{p-1}
endpoint, with the last panel integrated against the exact kernel mass, and
adaptive bisection of the panels whose embedded estimate is too large.  A
whole batch of integrals (one per outer node of the composition) is refined
at once.  No closed form is inside the composition, so these two certify
each value against the summed error estimate of its pieces instead, and
raise ToleranceNotMetError when it misses the tolerance.  Their test
functions f (and f.derivative) must accept numpy arrays.
"""

from __future__ import annotations

import cmath
import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.integrate as _si

from .characters import gauss_sum, is_primitive
from .errors import (
    ConvergenceRegionError,
    NormalizationError,
    NotPrimitiveError,
    PoleError,
    StripError,
    ToleranceNotMetError,
)
from .eisenstein import EisParams, nu_from_s
from .panels import graded_integrals
from .special import G_delta, G_delta_is_zero

try:  # scipy >= 1.12
    from scipy.integrate import tanhsinh as _tanhsinh
except ImportError:  # pragma: no cover
    _tanhsinh = None

_TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and strategy knobs for the quadrature oracles.

    max_depth: subintervals per adaptive quadrature; for the intertwining
        operators, Gauss-Kronrod panels per piece.
    singularity_substitution: "power" maps |x-a|^{p-1} endpoint behaviour
        through x = a + u^k; "tanh_sinh" uses a double-exponential rule on
        the raw integrand.  The intertwining operators ignore it.
    oscillatory_cutoff: number of periods integrated directly before
        switching to the integrated-by-parts asymptotic tail.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-7
    max_depth: int = 200
    singularity_substitution: str = "power"
    oscillatory_cutoff: float = 10.0

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 1 <= self.max_depth <= 10_000:
            raise ValueError("max_depth out of range")
        if self.singularity_substitution not in ("power", "tanh_sinh"):
            raise ValueError("unknown singularity_substitution")
        if self.oscillatory_cutoff <= 0:
            raise ValueError("oscillatory_cutoff must be positive")


def default_config() -> QuadratureConfig:
    """Default config; MIRABOLIC_PRECISION overrides the relative tolerance
    (absolute tolerance is set two orders tighter)."""
    env = os.environ.get("MIRABOLIC_PRECISION")
    if env:
        rel = float(env)
        return QuadratureConfig(abs_tol=rel / 100, rel_tol=rel)
    return QuadratureConfig()


DEFAULT_QUAD = QuadratureConfig()


# ---------------------------------------------------------------------------
# generic singular-line quadrature


def _quad(f, a, b, cfg: QuadratureConfig):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _si.IntegrationWarning)
        val, err = _si.quad(
            f,
            a,
            b,
            epsabs=cfg.abs_tol,
            epsrel=cfg.rel_tol,
            limit=cfg.max_depth,
            complex_func=True,
        )
    if isinstance(err, complex):
        err = abs(err.real) + abs(err.imag)
    return complex(val), float(err)


def _power_sub_left(f, a, b, p):
    """Transform int_a^b f with |x-a|^{p-1} behaviour at a into a smooth
    integrand on [0, (b-a)^{1/k}]."""
    k = max(1, math.ceil(3.0 / p))
    top = (b - a) ** (1.0 / k)

    def g(u):
        return f(a + u**k) * k * u ** (k - 1)

    return g, 0.0, top


def _interval(f, a, b, p_a, p_b, cfg: QuadratureConfig):
    """Integrate f on [a, b] where the integrand behaves like
    |x-a|^{p_a - 1} near a and |x-b|^{p_b - 1} near b (None = regular)."""
    if p_a is not None and p_b is not None:
        mid = 0.5 * (a + b)
        va, ea = _interval(f, a, mid, p_a, None, cfg)
        vb, eb = _interval(f, mid, b, None, p_b, cfg)
        return va + vb, ea + eb
    if p_a is None and p_b is None:
        return _quad(f, a, b, cfg)
    if cfg.singularity_substitution == "tanh_sinh" and _tanhsinh is not None:
        res_re = _tanhsinh(
            lambda x: f(x).real, a, b, atol=cfg.abs_tol, rtol=cfg.rel_tol
        )
        res_im = _tanhsinh(
            lambda x: f(x).imag, a, b, atol=cfg.abs_tol, rtol=cfg.rel_tol
        )
        return (
            complex(res_re.integral, res_im.integral),
            float(abs(res_re.error) + abs(res_im.error)),
        )
    if p_a is not None:
        g, lo, hi = _power_sub_left(f, a, b, p_a)
    else:
        g, lo, hi = _power_sub_left(lambda x: f(a + b - x), a, b, p_b)
    return _quad(g, lo, hi, cfg)


def _tail(f, R, side, tail_exp, cfg: QuadratureConfig):
    """int over x > R (side=+1) or x < -R (side=-1) of f, where
    |f(x)| ~ |x|^{tail_exp} with tail_exp < -1.  Maps x = side*R/u."""

    def g(u):
        # the power substitution's u**k, and u*u here, can underflow to 0;
        # the integrand is taken as 0 there, as SingularProduct does at d = 0
        uu = u * u
        if uu == 0:
            return 0j
        return f(side * R / u) * R / uu

    p = -tail_exp - 1  # local exponent of g at u=0: u^{p-1}
    p_a = p if p < 1 else None
    return _interval(g, 0.0, 1.0, p_a, None, cfg)


def _sgn_pow(x: float, eta: int) -> float:
    if eta % 2 == 0:
        return 1.0
    return -1.0 if x < 0 else 1.0


def _abs_pow(x: float, expo: complex) -> complex:
    return cmath.exp(complex(expo) * math.log(abs(x)))


class SingularProduct:
    """An integrand prod_i |x - pos_i|^{beta_i - 1} sgn(x - pos_i)^{eta_i}
    times an optional smooth factor and a constant.

    The point of the class (rather than a closure) is exact-offset
    evaluation: near a singular point the caller supplies the signed
    distance h directly, so |x - pos_i| = |h| is computed without the
    catastrophic cancellation of reconstructing it from x = pos_i + h.
    """

    def __init__(self, terms, smooth=None, const: complex = 1.0):
        self.terms = [
            (float(pos), complex(beta), int(eta) % 2) for pos, beta, eta in terms
        ]
        self.smooth = smooth
        self.const = complex(const)
        self.positions = [t[0] for t in self.terms]
        self.exponents = [t[1].real for t in self.terms]

    def eval_near(self, idx: int, h: float) -> complex:
        pos0 = self.terms[idx][0]
        val = self.const
        for i, (pos, beta, eta) in enumerate(self.terms):
            d = h if i == idx else (pos0 - pos) + h
            if d == 0:
                return 0j
            val *= _abs_pow(d, beta - 1) * _sgn_pow(d, eta)
        if self.smooth is not None:
            val *= self.smooth(pos0 + h)
        return val

    def __call__(self, x: float) -> complex:
        val = self.const
        for pos, beta, eta in self.terms:
            d = x - pos
            if d == 0:
                return 0j
            val *= _abs_pow(d, beta - 1) * _sgn_pow(d, eta)
        if self.smooth is not None:
            val *= self.smooth(x)
        return val


def _piece_near(sp, idx: int, sign: int, length: float, cfg: QuadratureConfig):
    """Integrate sp over x = pos_idx + sign*h, h in (0, length), resolving
    the |h|^{p-1} endpoint behaviour (p = local exponent at pos_idx)."""
    p = sp.exponents[idx]
    if cfg.singularity_substitution == "tanh_sinh" and _tanhsinh is not None and p < 1:
        def g(h):
            return sp.eval_near(idx, sign * h)

        res_re = _tanhsinh(
            lambda h: g(h).real, 0.0, length, atol=cfg.abs_tol, rtol=cfg.rel_tol
        )
        res_im = _tanhsinh(
            lambda h: g(h).imag, 0.0, length, atol=cfg.abs_tol, rtol=cfg.rel_tol
        )
        return (
            complex(res_re.integral, res_im.integral),
            float(abs(res_re.error) + abs(res_im.error)),
        )
    k = max(1, math.ceil(3.0 / p)) if p < 3 else 1
    top = length ** (1.0 / k)

    def g(u):
        return sp.eval_near(idx, sign * u**k) * k * u ** (k - 1)

    return _quad(g, 0.0, top, cfg)


def integrate_product_line(sp, tail_exp: float, cfg: QuadratureConfig):
    """Integrate a SingularProduct-style integrand over the whole real line.

    tail_exp: decay exponent of |sp(x)| at infinity, must be < -1.
    Returns (value, error_estimate)."""
    if tail_exp >= -1:
        raise ConvergenceRegionError("integrand does not decay at infinity")
    order = sorted(range(len(sp.positions)), key=lambda i: sp.positions[i])
    total, err = 0j, 0.0
    # outermost bounded pieces (unit length past the extreme singular points)
    v, e = _piece_near(sp, order[0], -1, 1.0, cfg)
    total, err = total + v, err + e
    v, e = _piece_near(sp, order[-1], 1, 1.0, cfg)
    total, err = total + v, err + e
    # between consecutive singular points, split at the midpoint
    for i0, i1 in zip(order, order[1:]):
        gap = sp.positions[i1] - sp.positions[i0]
        if gap == 0:
            raise ValueError("coincident singular points are not supported")
        v, e = _piece_near(sp, i0, 1, gap / 2, cfg)
        total, err = total + v, err + e
        v, e = _piece_near(sp, i1, -1, gap / 2, cfg)
        total, err = total + v, err + e
    # tails, translated to start at +-1
    right = sp.positions[order[-1]] + 1.0
    left = sp.positions[order[0]] - 1.0
    v, e = _tail(lambda x: sp(x + right - 1.0), 1.0, 1, tail_exp, cfg)
    total, err = total + v, err + e
    v, e = _tail(lambda x: sp(x + left + 1.0), 1.0, -1, tail_exp, cfg)
    total, err = total + v, err + e
    return total, err


# ---------------------------------------------------------------------------
# closed forms


def eisfe_scalar(params: EisParams) -> complex:
    """The scalar relating I_nu E_{-nu,psi} to the dual Eisenstein
    distribution for primitive psi:
    (-1)^eps * tau_psi * N^{2nu-nu/n-1/2} * G_eps(nu-n/2+1)."""
    psi = params.psi
    if not is_primitive(psi):
        raise NotPrimitiveError("eisfe_scalar requires a primitive character")
    n, nu, eps = params.n, complex(params.nu), params.epsilon
    N = params.level
    npow = cmath.exp((2 * nu - nu / n - 0.5) * math.log(N)) if N > 1 else 1.0
    return (-1) ** eps * gauss_sum(psi) * npow * G_delta(nu - n / 2 + 1, eps)


def _check_pair_normalization(lam, delta, eta, n, epsilon, tol=1e-9):
    lam = [complex(x) for x in lam]
    delta = [int(d) for d in delta]
    if len(lam) != 2 * n or len(delta) != 2 * n:
        raise ValueError("lambda and delta must have length 2n")
    if abs(sum(lam)) > tol:
        raise NormalizationError("sum of lambda must vanish")
    if (sum(delta) - epsilon - n * eta) % 2 != 0:
        raise NormalizationError(
            "parity constraint sum(delta) = epsilon + n*eta (mod 2) fails"
        )
    return lam, delta


def pairing_fe_gamma_product(
    lam, delta, eta: int, nu: complex, n: int, N: int, epsilon: int
) -> complex:
    """The scalar of the pairing functional equation (nu form):
    (-1)^{eps+delta_{n+1}+...+delta_{2n}} N^{2nu-nu/n-1/2}
    prod_{j=1}^n G_{delta_{n+j}+delta_{n+1-j}+eta}
                 (lambda_{n+j}+lambda_{n+1-j}+nu/n+1/2)."""
    lam, delta = _check_pair_normalization(lam, delta, eta, n, epsilon)
    nu = complex(nu)
    sign = (-1) ** ((epsilon + sum(delta[n:])) % 2)
    npow = cmath.exp((2 * nu - nu / n - 0.5) * math.log(N)) if N > 1 else 1.0
    prod = 1 + 0j
    for j in range(1, n + 1):
        dd = (delta[n + j - 1] + delta[n - j] + eta) % 2
        arg = lam[n + j - 1] + lam[n - j] + nu / n + 0.5
        prod *= G_delta(arg, dd)
    return sign * npow * prod


def pairing_fe_gamma_product_s(
    lam, delta, eta: int, s: complex, n: int, N: int, epsilon: int
) -> complex:
    """The adelic (s-variable) form: N^{2ns-s-n} prod_j
    G_{delta_{n+j}+delta_{n+1-j}+eta}(s+lambda_{n+j}+lambda_{n+1-j}).

    Carries no sign prefactor; the nu form equals this times
    (-1)^{eps+delta_{n+1}+...+delta_{2n}} under nu = n(s-1/2)."""
    lam, delta = _check_pair_normalization(lam, delta, eta, n, epsilon)
    s = complex(s)
    npow = cmath.exp((2 * n * s - s - n) * math.log(N)) if N > 1 else 1.0
    prod = 1 + 0j
    for j in range(1, n + 1):
        dd = (delta[n + j - 1] + delta[n - j] + eta) % 2
        arg = s + lam[n + j - 1] + lam[n - j]
        prod *= G_delta(arg, dd)
    return npow * prod


def beta_like_closed(beta, eta, t_n: float) -> complex:
    """Closed form of the beta-like integral:
    G_{eta_0}(beta_0)...G_{eta_{n-1}}(beta_{n-1}) / G_{sum eta}(sum beta)
    times |t_n|^{sum beta - 1} (sgn t_n)^{sum eta}."""
    beta = [complex(b) for b in beta]
    eta = [int(e) for e in eta]
    if len(beta) != len(eta):
        raise ValueError("beta and eta must have equal length")
    t = float(t_n)
    if t == 0:
        raise ValueError("t_n must be nonzero")
    total_b = sum(beta)
    total_e = sum(eta) % 2
    if G_delta_is_zero(total_b, total_e):
        raise PoleError("denominator G factor vanishes; the ratio degenerates")
    denom = G_delta(total_b, total_e)  # raises PoleError at its poles
    num = 1 + 0j
    for b, e in zip(beta, eta):
        num *= G_delta(b, e)
    return num / denom * _abs_pow(t, total_b - 1) * _sgn_pow(t, total_e)


def _betalike_check_region(beta):
    total = sum(complex(b) for b in beta)
    if any(complex(b).real <= 0 for b in beta) or total.real >= 1:
        raise ConvergenceRegionError(
            "need Re beta_j > 0 and Re(sum beta) < 1 for absolute convergence"
        )


def _betalike_product(beta0, eta0, beta1, eta1, t) -> SingularProduct:
    """|t - t1|^{beta0-1} sgn(t-t1)^{eta0} |t1|^{beta1-1} sgn(t1)^{eta1}
    as a SingularProduct in t1 (sgn(t-t1) = (-1)^{eta0} sgn(t1-t))."""
    return SingularProduct(
        [(t, beta0, eta0), (0.0, beta1, eta1)], const=(-1.0) ** (eta0 % 2)
    )


def beta_like_quadrature(beta, eta, t_n: float, cfg: QuadratureConfig = DEFAULT_QUAD) -> complex:
    """The beta-like integral by direct (nested) adaptive quadrature,
    n = len(beta) in {2, 3}.  Certifies agreement with beta_like_closed."""
    beta = [complex(b) for b in beta]
    eta = [int(e) for e in eta]
    n = len(beta)
    if n not in (2, 3):
        raise ValueError("quadrature oracle implemented for n in {2, 3}")
    _betalike_check_region(beta)
    t = float(t_n)
    if n == 2:
        sp = _betalike_product(beta[0], eta[0], beta[1], eta[1], t)
        tail = (beta[0] + beta[1]).real - 2
        val, est = integrate_product_line(sp, tail, cfg)
    else:
        b01 = (beta[0] + beta[1]).real

        base_cache: dict[float, complex] = {}

        def inner(tprime: float) -> complex:
            # Beyond |t'| ~ 1e6 the two singular points are too far apart
            # for the piecewise substitutions to stay conditioned, so apply
            # the exact change of variables x = t' u first: the integral at
            # t' is |t'|^{beta0+beta1-1} times the one at sgn(t') (same
            # sign, so no extra parity factor), which is still computed by
            # quadrature.
            if abs(tprime) > 1e6:
                s = math.copysign(1.0, tprime)
                if s not in base_cache:
                    base_cache[s] = inner(s)
                return base_cache[s] * _abs_pow(tprime, beta[0] + beta[1] - 1)
            # The inner integral scales like |t'|^{b01-1} (homogeneity), so
            # its absolute tolerance must follow that scale or the outer
            # tail (which samples |t'| over many decades) sees O(1)
            # relative noise in the deep-tail region.
            scale = abs(tprime) ** (b01 - 1) if tprime != 0 else 1.0
            inner_cfg = replace(
                cfg,
                abs_tol=max(cfg.abs_tol / 100 * scale, 1e-300),
                rel_tol=cfg.rel_tol / 100,
            )
            sp1 = _betalike_product(beta[0], eta[0], beta[1], eta[1], tprime)
            v, _ = integrate_product_line(sp1, b01 - 2, inner_cfg)
            return v

        outer = _Nested3Integrand(inner, t, beta[2], eta[2], b01)
        tail = sum(b.real for b in beta) - 2
        outer_cfg = replace(cfg, abs_tol=cfg.abs_tol / 3, rel_tol=cfg.rel_tol / 3)
        val, est = integrate_product_line(outer, tail, outer_cfg)
    closed = beta_like_closed(beta, eta, t)
    _certify(val, est, closed, cfg)
    return val


class _Nested3Integrand:
    """Outer integrand of the n=3 beta-like integral:
    inner(t - t2) * |t2|^{beta2-1} sgn(t2)^{eta2}, with singular points at
    t2 = 0 (exponent beta2) and t2 = t, where the inner integral behaves
    like |t - t2|^{beta0+beta1-1} by homogeneity.  Implements the
    SingularProduct evaluation protocol with exact offsets."""

    def __init__(self, inner, t, beta2, eta2, b01):
        self.inner = inner
        self.t = float(t)
        self.beta2 = complex(beta2)
        self.eta2 = int(eta2) % 2
        self.positions = [0.0, self.t]
        self.exponents = [self.beta2.real, b01]

    def _factor(self, t2_dist: float) -> complex:
        if t2_dist == 0:
            return 0j
        return _abs_pow(t2_dist, self.beta2 - 1) * _sgn_pow(t2_dist, self.eta2)

    def eval_near(self, idx: int, h: float) -> complex:
        if idx == 0:  # t2 = h
            if h == 0 or self.t == h:
                return 0j
            return self._factor(h) * self.inner(self.t - h)
        # t2 = t + h, so the inner variable is exactly -h
        if h == 0:
            return 0j
        return self._factor(self.t + h) * self.inner(-h)

    def __call__(self, t2: float) -> complex:
        if t2 == 0 or t2 == self.t:
            return 0j
        return self._factor(t2) * self.inner(self.t - t2)


def _certify(val: complex, est: float, closed: complex, cfg: QuadratureConfig):
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(closed))
    diff = abs(val - closed)
    if diff <= tol:
        return
    if est > tol:
        raise ToleranceNotMetError(
            f"quadrature error estimate {est:.3g} exceeds tolerance {tol:.3g}",
            achieved=est,
        )
    if diff > 10 * tol:
        raise ToleranceNotMetError(
            f"quadrature disagrees with closed form by {diff:.3g}",
            achieved=diff,
        )


# ---------------------------------------------------------------------------
# oscillatory integral (the G_delta defining integral, rescaled)


def oscillatory_closed(nu: complex, n: int, epsilon: int, d: int, k: int) -> complex:
    """(-1)^eps |dk|^{n/2-nu-1} sgn(dk)^eps G_eps(nu-n/2+1)."""
    nu = complex(nu)
    m = d * k
    return (
        (-1) ** epsilon
        * _abs_pow(m, n / 2 - nu - 1)
        * _sgn_pow(float(m), epsilon)
        * G_delta(nu - n / 2 + 1, epsilon)
    )


def _osc_tail(w: complex, m: float, X: float, parts: int = 8):
    """int_X^inf x^w e(m x) dx by `parts` integrations by parts.

    Returns (value, bound on the dropped remainder)."""
    c = _TWO_PI_I * m
    E = cmath.exp(c * X)
    val = 0j
    coeff = 1 + 0j  # falling factorial (w)(w-1)...(w-i+1)
    cpow = c
    sign = -1.0
    for i in range(parts):
        val += sign * coeff * cmath.exp((w - i) * math.log(X)) * E / cpow
        coeff *= w - i
        cpow *= c
        sign = -sign
    rem = (
        abs(coeff)
        * X ** (w.real - parts + 1)
        / ((parts - 1 - w.real) * abs(cpow) / abs(c))
    )
    return val, rem


def oscillatory_integral(
    nu: complex,
    n: int,
    epsilon: int,
    d: int,
    k: int,
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> complex:
    """Regularized quadrature of int_R |x|^{nu-n/2} sgn(-x)^eps e(dk x) dx:
    direct adaptive quadrature for |x| <= cutoff periods, integration by
    parts beyond.  Certifies agreement with oscillatory_closed."""
    nu = complex(nu)
    w = nu - n / 2
    if not 0 < (w + 1).real < 1:
        raise StripError("Re(nu - n/2 + 1) must lie in (0, 1)")
    if d <= 0 or k == 0:
        raise ValueError("need d > 0 and k != 0")
    m = d * k
    X = cfg.oscillatory_cutoff / abs(m)

    # |x|^w sgn(-x)^eps e(mx) = (-1)^eps |x|^w sgn(x)^eps e(mx)
    sp = SingularProduct(
        [(0.0, w + 1, epsilon)],
        smooth=lambda x: cmath.exp(_TWO_PI_I * m * x),
        const=(-1.0) ** (epsilon % 2),
    )
    v1, e1 = _piece_near(sp, 0, -1, X, cfg)
    v2, e2 = _piece_near(sp, 0, 1, X, cfg)
    # tails: x > X contributes (-1)^eps int x^w e(mx); x < -X maps to
    # int_X^inf y^w e(-my) dy under y = -x (sgn(-x)^eps = +1 there).
    t1, r1 = _osc_tail(w, m, X)
    t2, r2 = _osc_tail(w, -m, X)
    val = v1 + v2 + (-1) ** epsilon * t1 + t2
    est = e1 + e2 + r1 + r2
    closed = oscillatory_closed(nu, n, epsilon, d, k)
    _certify(val, est, closed, cfg)
    return val


# ---------------------------------------------------------------------------
# the H integral of the pairing functional equation


def _h_parameters(lam, delta, nu, n, eta, epsilon):
    lam = [complex(x) for x in lam]
    delta = [int(x) for x in delta]
    if len(lam) != 2 * n or len(delta) != 2 * n:
        raise ValueError("lambda and delta must have length 2n")
    nu = complex(nu)
    beta = [nu - n / 2 + 1]
    etas = [epsilon % 2]
    for j in range(1, n):
        beta.append(-lam[n + j - 1] - lam[n - j] - nu / n + 0.5)
        etas.append((delta[n + j - 1] + delta[n - j] + eta) % 2)
    sign = (-1) ** ((sum(delta[1 : 2 * n - 1]) + (n - 1) * eta) % 2)
    return beta, etas, sign


def h_integral(
    lam,
    delta,
    nu: complex,
    n: int,
    epsilon: int,
    eta: int,
    cfg: QuadratureConfig = DEFAULT_QUAD,
):
    """The x-integral H of the pairing functional equation.

    Returns (closed, quadrature); quadrature is None unless n = 2 and the
    parameters lie in the absolute-convergence region of the beta-like
    lemma.  The closed form is the signed beta-like ratio at t = 1."""
    beta, etas, sign = _h_parameters(lam, delta, nu, n, eta, epsilon)
    closed = sign * beta_like_closed(beta, etas, 1.0)
    if n != 2:
        return closed, None
    if any(b.real <= 0 for b in beta) or sum(b.real for b in beta) >= 1:
        return closed, None
    b1, e1 = beta[1], etas[1]
    # |1+x|^{beta0-1} sgn(1+x)^{eps} |x|^{b1-1} sgn(x)^{e1}
    sp = SingularProduct([(-1.0, beta[0], epsilon), (0.0, b1, e1)])
    tail = (beta[0] + b1).real - 2
    val, est = integrate_product_line(sp, tail, cfg)
    _certify(val, est, closed, cfg)
    return closed, val


# ---------------------------------------------------------------------------
# n=2 intertwining operator


def _require(val, est, cfg: QuadratureConfig, what: str):
    """Raise unless every error estimate meets max(abs_tol, rel_tol*|val|)."""
    tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(val))
    bad = ~(est <= tol)  # a NaN estimate fails too
    if np.any(bad):
        i = int(np.argmax(np.where(bad, est / tol, -1.0)))
        raise ToleranceNotMetError(
            f"{what}: error estimate {float(est.flat[i]):.3g} exceeds "
            f"tolerance {float(tol.flat[i]):.3g}",
            achieved=float(est.flat[i]),
        )


class Bump:
    """A smooth compactly supported bump exp(1 - 1/(1-u^2)) on |u| < 1,
    u = (x - center)/width.  Accepts floats and numpy arrays."""

    def __init__(self, center: float = 0.0, width: float = 1.0):
        if width <= 0:
            raise ValueError("width must be positive")
        self.center = center
        self.width = width
        self.support = (center - width, center + width)

    def _parts(self, x):
        u = (np.asarray(x, dtype=float) - self.center) / self.width
        inside = np.abs(u) < 1
        w = np.where(inside, 1 - u * u, 1.0)
        return u, inside, w, np.where(inside, np.exp(1 - 1 / w), 0.0)

    def __call__(self, x):
        val = self._parts(x)[3]
        return val if val.ndim else float(val)

    def derivative(self, x):
        u, inside, w, f = self._parts(x)
        val = np.where(inside, f * (-2 * u / (w * w)) / self.width, 0.0)
        return val if val.ndim else float(val)


def _apply_pieces(y, a: float, b: float, epsilon: int):
    """Split int_a^b f(w) |-y-w|^{nu-1} sgn(-y-w)^eps dw, for each y, into
    pieces int_0^L c f(e + dir*h) (d0 + h)^{nu-1} dh at the singular point
    w0 = -y: the part of [a, b] left of w0 runs leftward from min(w0, b),
    the part right of it rightward from max(w0, a).  The kernel distance is
    the exact offset d0 + h, d0 being the gap between w0 and the support."""
    w0 = -y
    iL, iR = np.flatnonzero(w0 > a), np.flatnonzero(w0 < b)
    eL, eR = np.minimum(w0[iL], b), np.maximum(w0[iR], a)
    return (
        np.concatenate([iL, iR]),
        np.concatenate([eL, eR]),
        np.concatenate([-np.ones(iL.size), np.ones(iR.size)]),
        np.concatenate([eL - a, b - eR]),
        np.concatenate([np.maximum(-y[iL] - b, 0.0), np.maximum(a + y[iR], 0.0)]),
        np.concatenate([np.ones(iL.size), np.full(iR.size, (-1.0) ** (epsilon % 2))]),
    )


def _apply_batch(fs, nu, epsilon, y, which, a, b, abs_tol, rel_tol, max_panels):
    """(I_nu fs[which_i])(y_i) and error estimates for arrays y, which:
    each y_i is one group of the graded rule, evaluated in slices so that
    peak memory stays flat."""
    val = np.empty(y.size, complex)
    err = np.empty(y.size)
    step = 128  # y values per slice
    for i in range(0, y.size, step):
        ys, ws = y[i : i + step], which[i : i + step]
        owner, e, dirs, L, d0, c = _apply_pieces(ys, a, b, epsilon)
        fn = ws[owner]

        def phi(idx, h):
            w = e[idx] + dirs[idx] * h
            out = np.empty(h.size, complex)
            for n, func in enumerate(fs):
                m = fn[idx] == n
                if m.any():
                    out[m] = func(w[m])
            return c[idx] * out, None

        s = np.full(L.size, nu)
        val[i : i + step], err[i : i + step] = graded_integrals(
            phi, L, d0, s, owner, ys.size, abs_tol, rel_tol, max_panels
        )
    return val, err


def intertwine_apply_n2(
    f,
    nu: complex,
    epsilon: int,
    y_grid,
    cfg: QuadratureConfig = DEFAULT_QUAD,
    support=None,
) -> np.ndarray:
    """(I_nu f)(y) = int f(z) |{-y-z}|^{nu-1} sgn(-y-z)^eps dz for each y in
    y_grid; f must vanish outside `support` (taken from f.support when not
    given) and accept numpy arrays.  Requires Re nu > 0 (= n/2 - 1 for
    n = 2).  Every value is certified against its own error estimate."""
    nu = complex(nu)
    if nu.real <= 0:
        raise ConvergenceRegionError("intertwining integral needs Re nu > 0")
    if support is None:
        support = f.support
    a, b = float(support[0]), float(support[1])
    y = np.asarray(y_grid, dtype=float).ravel()
    val, err = _apply_batch(
        [f], nu, epsilon, y, np.zeros(y.size, int), a, b,
        cfg.abs_tol, cfg.rel_tol, cfg.max_depth,
    )
    _require(val, err, cfg, "intertwine_apply_n2")
    return val


def intertwine_compose_n2(
    f,
    nu: complex,
    epsilon: int,
    x_grid,
    cfg: QuadratureConfig = DEFAULT_QUAD,
    support=None,
    window: float = 1.0,
    far: float = 60.0,
) -> np.ndarray:
    """(I_{-nu} (I~_nu f))(x) for x in x_grid, 0 < Re nu < 1.

    The inner operator g is the convergent integral of intertwine_apply_n2;
    the outer kernel |x+z|^{-nu-1} is not locally integrable, so it is
    continued by its finite part around z = -x, taken by one integration by
    parts over |z+x| < R = window:
    FP int_{-R}^{R} g(-x+u) K(u) du = [g(-x+u) A(u)]_{-R}^{R}
        - int_{-R}^{R} g'(-x+u) A(u) du,
    with A the antiderivative (-1)^eps sgn(u)^{eps+1} |u|^{-nu}/(-nu) of K,
    whose u = 0 boundary terms continue to zero; g' = -I~_nu f' comes from
    f.derivative.  Beyond the window the outer integral runs to +-far, and
    past that g is continued by its asymptote g(+-far) (|z|/far)^{nu-1},
    whose tail integrals are in closed form; this leaves an O(far^-2)
    model error, which the error estimate does not cover.

    g and g' are computed for a whole batch of outer nodes at once, with
    inner tolerances a hundredth of cfg's, and their error estimates are
    carried through the outer weights.  Each value is certified against the
    summed error estimate of its pieces; when that misses the tolerance, the
    point is computed once more with inner tolerances tightened by the
    factor missed.  The operator is a scalar multiple of the identity; only
    ratios to the input are meaningful."""
    nu = complex(nu)
    if not 0 < nu.real < 1:
        raise ConvergenceRegionError("composition probe needs 0 < Re nu < 1")
    if support is None:
        support = f.support
    f_prime = getattr(f, "derivative", None)
    if f_prime is None:
        raise ValueError("f must provide a .derivative method")
    a, b = float(support[0]), float(support[1])
    R = float(window)
    sign = (-1.0) ** (epsilon % 2)

    def tail_integral(x):
        # int_far^inf (z/far)^{nu-1} (z + x)^{-nu-1} dz, |x| < far
        r = x / far
        if r == 0:
            return far**-nu
        return far**-nu * complex(np.expm1(-nu * math.log1p(r))) / (-nu * r)

    def point(x, share):
        def inner(z, which):
            # which = 0: g(z); which = 1: g'(z) = -(I~_nu f')(z)
            v, e = _apply_batch(
                [f, f_prime], nu, epsilon, z, which, a, b,
                cfg.abs_tol * share, cfg.rel_tol * share, cfg.max_depth,
            )
            return np.where(which == 1, -v, v), e

        g, ge = inner(np.array([-x + R, -x - R, far, -far]), np.zeros(4, int))
        # [g(-x+u) A(u)]_{-R}^{R}, A(R) = sign R^-nu/(-nu), A(-R) = R^-nu/nu
        aR = R**-nu / nu
        t_r, t_l = tail_integral(x), tail_integral(-x)
        known = -sign * aR * g[0] - aR * g[1] + sign * g[2] * t_r + g[3] * t_l
        known_err = abs(aR) * (ge[0] + ge[1]) + abs(t_r) * ge[2] + abs(t_l) * ge[3]
        # -int_0^R g'(-x+-h) A(+-h) dh, then g(z) K(-x-z) over [-x+R, far] and
        # [-far, -x-R], each as int_0^L phi(h) (d0 + h)^{s-1} dh
        e = np.array([-x, -x, -x + R, -x - R])
        dirs = np.array([1.0, -1.0, 1.0, -1.0])
        c = np.array([sign / nu, -1 / nu, sign, 1.0])
        of_derivative = np.array([1, 1, 0, 0])

        def phi(idx, h):
            v, ve = inner(e[idx] + dirs[idx] * h, of_derivative[idx])
            return c[idx] * v, np.abs(c[idx]) * ve

        val, err = graded_integrals(
            phi,
            np.array([R, R, far + x - R, far - x - R]),
            np.array([0.0, 0.0, R, R]),
            np.array([1 - nu, 1 - nu, -nu, -nu]),
            np.zeros(4, int),
            1,
            cfg.abs_tol / 2,
            cfg.rel_tol / 2,
            cfg.max_depth,
            base=known,
            chunk=21 * 12,  # each outer node is a batch of inner integrals
        )
        return val[0] + known, err[0] + known_err

    out, est = [], []
    for x in np.asarray(x_grid, dtype=float).ravel():
        if not 0 < R < far - abs(x):
            raise ValueError("need 0 < window < far - |x|")
        v, e = point(x, 1e-2)
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(v))
        if not e <= tol:
            v, e = point(x, 1e-2 * min(1e-2, tol / (4 * e)))
        out.append(v)
        est.append(e)
    out, est = np.asarray(out, dtype=complex), np.asarray(est)
    _require(out, est, cfg, "intertwine_compose_n2")
    return out
