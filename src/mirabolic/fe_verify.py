"""Functional-equation scalar factors and quadrature oracles.

The closed forms here are ratios/products of G_delta factors (Gauss-sum and
level powers included where relevant); each one is paired with an independent
numerical route.  Every route runs on one rule, from mirabolic.panels:
composite 21-point Gauss-Kronrod panels on numpy arrays, graded
geometrically toward each |x-a|^{p-1} endpoint, with the last panel
integrated against the exact kernel mass, and adaptive bisection of the
panels whose embedded estimate is too large.  A line integral is cut into
pieces at its singular points, evaluated at exact offsets from them, with
the tails mapped by x = a +- R/u; the conditionally convergent oscillatory
integral switches to repeated integration by parts past a cutoff.  Whole
batches of integrals are refined at once: the inner integrals at the outer
nodes of the nested n=3 beta-like integral, and those of the n=2
intertwining composition.

A quadrature oracle that cannot certify agreement with its closed form raises
ToleranceNotMetError rather than returning silently.  The intertwining
operators (intertwine_apply_n2, intertwine_compose_n2) have no closed form
inside them, so they certify each value against the summed error estimate
of its pieces instead, and raise ToleranceNotMetError when it misses the
tolerance.  Their test functions f (and f.derivative) must accept numpy
arrays.
"""
from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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

_TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the quadrature oracles, which all run on the graded
    Gauss-Kronrod rule of mirabolic.panels.

    max_depth: Gauss-Kronrod panels per piece of that rule.
    oscillatory_cutoff: number of periods integrated directly before
        switching to the integrated-by-parts asymptotic tail.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-7
    max_depth: int = 200
    oscillatory_cutoff: float = 10.0

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 1 <= self.max_depth <= 10_000:
            raise ValueError("max_depth out of range")
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
# singular products on the real line


def _sgn_pow(x: float, eta: int) -> float:
    if eta % 2 == 0:
        return 1.0
    return -1.0 if x < 0 else 1.0


def _abs_pow(x: float, expo: complex) -> complex:
    return cmath.exp(complex(expo) * math.log(abs(x)))


def _power_product(d, beta, eta):
    """prod_j |d_j|^{beta_j - 1} sgn(d_j)^{eta_j} over the last axis of the
    nonzero array d; real when every beta_j is."""
    logd = np.log(np.abs(d))
    v = np.exp(logd @ (beta.real - 1))
    odd = eta == 1
    if odd.any():
        v = np.where(np.count_nonzero(d[..., odd] < 0, axis=-1) % 2, -v, v)
    if beta.imag.any():
        t = logd @ beta.imag
        v = v * (np.cos(t) + 1j * np.sin(t))
    return v


class SingularProduct:
    """An integrand const * prod_i |x - pos_i|^{beta_i - 1} sgn(x - pos_i)^{eta_i}.

    The positions may be arrays of one shape: a batch of products that share
    their exponents, one product per position.  The point of the class
    (rather than a closure) is exact-offset evaluation: near a singular point
    the caller supplies the signed distance h directly, so |x - pos_i| = |h|
    is computed without the catastrophic cancellation of reconstructing it
    from x = pos_i + h, and the other factors get (pos_i - pos_j) + h.
    """

    def __init__(self, terms, const: complex = 1.0):
        pos, beta, eta = zip(*terms)
        pos = np.broadcast_arrays(*(np.asarray(p, dtype=float) for p in pos))
        self.positions = np.stack(pos, axis=-1)
        self.betas = np.array(beta, dtype=complex)
        self.etas = np.array(eta, dtype=int) % 2
        self.const = complex(const)

    def eval_near(self, idx: int, h):
        """The product at x = pos_idx + h, h a float or an array; 0 where
        some factor's distance is 0."""
        h = np.asarray(h, dtype=float)
        d = (self.positions[..., idx, None] - self.positions) + h[..., None]
        zero = (d == 0).any(axis=-1)
        d = np.where(zero[..., None], 1.0, d)
        val = np.where(zero, 0j, self.const * _power_product(d, self.betas, self.etas))
        return val if val.ndim else complex(val)


class _Pieces(NamedTuple):
    """Pieces int_0^L phi(h) h^{s-1} dh of a batch of line integrals, with
    phi(h) = c prod_j |A_j + B_j h|^{beta_j - 1} sgn(A_j + B_j h)^{eta_j}."""

    row: np.ndarray  # the product each piece belongs to
    anchor: np.ndarray  # the term whose singular point the piece starts at
    tail: np.ndarray  # whether the piece is a tail, in the variable u
    L: np.ndarray
    s: np.ndarray
    A: np.ndarray  # (pieces, terms)
    B: np.ndarray
    c: np.ndarray


def _line_pieces(sp: SingularProduct) -> _Pieces:
    """Cut the real line of each product of sp into pieces for
    panels.graded_integrals: two near pieces x = pos_i -+ h at each singular
    point, kernel h^{beta_i - 1}, meeting their neighbours' at the midpoints
    and reaching R past the extreme points (R the distance between those, 1
    for a single point); and two tail pieces x = pos_min - R/u and
    x = pos_max + R/u, u in (0, 1], kernel u^{s-1} with the
    complex s = -sum(beta_i - 1) - 1, so that phi stays smooth at u = 0.
    Every factor is computed from exact offsets pos_i - pos_j."""
    k = sp.betas.size
    pos = sp.positions.reshape(-1, k)
    m = pos.shape[0]
    order = np.argsort(pos, axis=1)
    p = np.take_along_axis(pos, order, axis=1)
    gap = np.diff(p, axis=1)
    if not np.all(gap > 0):
        raise ValueError("coincident singular points are not supported")
    R = p[:, -1] - p[:, 0] if k > 1 else np.ones(m)
    reach = np.column_stack([R, gap / 2, R])
    # per product: pieces left and right of each sorted point, then two tails
    rank = np.concatenate([np.repeat(np.arange(k), 2), [0, k - 1]])
    dirs = np.concatenate([np.tile([-1.0, 1.0], k), [-1.0, 1.0]])
    tail = np.arange(rank.size) >= 2 * k
    anchor = order[:, rank]
    off = p[:, rank, None] - pos[:, None, :]
    is_anchor = anchor[..., None] == np.arange(k)
    d3, R3 = dirs[:, None], R[:, None, None]
    A = np.where(tail[:, None], d3 * R3, np.where(is_anchor, d3, off))
    B = np.where(tail[:, None], off, np.where(is_anchor, 0.0, d3))
    L = np.where(tail, 1.0, reach[:, rank + (dirs > 0)])
    s = np.where(tail, -(sp.betas - 1).sum() - 1, sp.betas[anchor])
    c = sp.const * np.where(tail, R[:, None], 1.0)
    return _Pieces(
        np.repeat(np.arange(m), rank.size), anchor.ravel(), np.tile(tail, m),
        L.ravel(), s.ravel(), A.reshape(-1, k), B.reshape(-1, k), c.ravel(),
    )


def _product_line(sp: SingularProduct, abs_tol, rel_tol, max_panels):
    """Line integrals of every product of sp and their error estimates, as
    arrays; abs_tol may be one value per product."""
    P = _line_pieces(sp)

    def phi(idx, h):
        d = P.A[idx] + P.B[idx] * h[:, None]
        return P.c[idx] * _power_product(d, sp.betas, sp.etas), None

    return graded_integrals(
        phi, P.L, np.zeros(P.L.size), P.s, P.row, P.row[-1] + 1,
        abs_tol, rel_tol, max_panels,
    )


def integrate_product_line(sp, tail_exp: float, cfg: QuadratureConfig):
    """Integrate a SingularProduct over the whole real line, on the graded
    Gauss-Kronrod rule of mirabolic.panels.

    tail_exp: decay exponent Re sum(beta_i - 1) of |sp(x)| at infinity, must
    be < -1.  Returns (value, error_estimate), arrays for a batch."""
    if tail_exp >= -1:
        raise ConvergenceRegionError("integrand does not decay at infinity")
    val, est = _product_line(sp, cfg.abs_tol, cfg.rel_tol, cfg.max_depth)
    if sp.positions.ndim == 1:
        return complex(val[0]), float(est[0])
    return val, est


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
    """The beta-like integral by direct (nested) quadrature on the graded
    rule, n = len(beta) in {2, 3}.  Certifies agreement with
    beta_like_closed."""
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
        val, est = _beta_like_n3(beta, eta, t, cfg)
    closed = beta_like_closed(beta, eta, t)
    _certify(val, est, closed, cfg)
    return val


def _beta_like_n3(beta, eta, t: float, cfg: QuadratureConfig):
    """The n=3 beta-like integral as the line integral over t2 of
    |t2|^{beta2-1} sgn(t2)^{eta2} inner(t - t2), where inner(t') is the n=2
    integral with singular points t' and 0, computed by quadrature at every
    outer node: one batched call per evaluation of the outer phi, whose
    estimates are carried through the outer weights.

    The outer pieces are those of the product with singular points 0
    (exponent beta2) and t (exponent b = beta0 + beta1, as inner(t') is
    homogeneous of degree b - 1): phi takes inner(t') |t'|^{1-b} in place
    of that factor's |t'|^{b-1}.  At t' = 0 (the endpoint at t) and at
    t' = +-inf (u = 0 on the tails) it takes the homogeneity limit
    inner(sgn t'), with inner(+-1) again by quadrature."""
    b = beta[0] + beta[1]
    outer = SingularProduct([(0.0, beta[2], eta[2]), (t, b, 0)])
    P = _line_pieces(outer)
    step = 256  # inner integrals per batch, so that peak memory stays flat

    def inner(tp):
        # inner(t') |t'|^{1-b} and its error bound; the absolute tolerance
        # follows the scale |t'|^{Re b - 1} of inner(t'), or the outer tails,
        # which sample |t'| over many decades, would see O(1) relative noise
        val = np.empty(tp.size, complex)
        err = np.empty(tp.size)
        for i in range(0, tp.size, step):
            x = tp[i : i + step]
            scale = np.abs(x) ** (b.real - 1)
            v, e = _product_line(
                _betalike_product(beta[0], eta[0], beta[1], eta[1], x),
                cfg.abs_tol / 100 * scale, cfg.rel_tol / 100, cfg.max_depth,
            )
            val[i : i + step] = v * np.exp((1 - b) * np.log(np.abs(x)))
            err[i : i + step] = e / scale
        return val, err

    def phi(idx, h):
        d = P.A[idx] + P.B[idx] * h[:, None]
        v = P.c[idx] * _power_product(d, outer.betas, outer.etas)
        # t' = t - x from exact offsets: x - t is d1 on the near pieces at 0,
        # h d1 on those at t (d1 = +-1 there) and d1/u on the tails
        d1 = d[:, 1]
        with np.errstate(divide="ignore"):
            x_t = np.select([P.tail[idx], P.anchor[idx] == 1], [d1 / h, d1 * h], d1)
        g, ge = inner(np.where(np.isfinite(x_t) & (x_t != 0), -x_t, -np.sign(d1)))
        return v * g, np.abs(v) * ge

    val, est = graded_integrals(
        phi, P.L, np.zeros(P.L.size), P.s, P.row, 1,
        cfg.abs_tol / 3, cfg.rel_tol / 3, cfg.max_depth,
    )
    return complex(val[0]), float(est[0])


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
    graded panels for |x| <= cutoff periods, integration by parts beyond.  Certifies agreement with oscillatory_closed."""
    nu = complex(nu)
    w = nu - n / 2
    if not 0 < (w + 1).real < 1:
        raise StripError("Re(nu - n/2 + 1) must lie in (0, 1)")
    if d <= 0 or k == 0:
        raise ValueError("need d > 0 and k != 0")
    m = d * k
    X = cfg.oscillatory_cutoff / abs(m)

    # tails: x > X contributes (-1)^eps int x^w e(mx); x < -X maps to
    # int_X^inf y^w e(-my) dy under y = -x (sgn(-x)^eps = +1 there).
    t1, r1 = _osc_tail(w, m, X)
    t2, r2 = _osc_tail(w, -m, X)
    tails = (-1) ** epsilon * t1 + t2
    # near 0, x = dir*h: |x|^w sgn(-x)^eps e(mx) = c_dir h^w e(m dir h), with
    # c_dir = (-1)^eps for dir = 1 and 1 for dir = -1
    dirs = np.array([-1.0, 1.0])
    c = np.array([1.0, (-1.0) ** (epsilon % 2)])

    def phi(idx, h):
        return c[idx] * np.exp(_TWO_PI_I * m * dirs[idx] * h), None

    near, est = graded_integrals(
        phi, np.full(2, X), np.zeros(2), np.full(2, w + 1), np.zeros(2, int), 1,
        cfg.abs_tol, cfg.rel_tol, cfg.max_depth, base=tails,
    )
    val = complex(near[0]) + tails
    est = float(est[0]) + r1 + r2
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
