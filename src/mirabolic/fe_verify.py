"""Functional-equation scalar factors and quadrature oracles.

The closed forms here are ratios/products of G_delta factors (Gauss-sum and
level powers included where relevant); each one is paired with an independent
numerical route.  Every route runs on one rule, from mirabolic.panels:
composite 21-point Gauss-Kronrod panels on numpy arrays, with the panel at
each |x-a|^{p-1} endpoint integrated by exact Legendre moments of the
kernel, and adaptive refinement of the panels whose estimate is too
large.  A line integral is cut into
pieces at its singular points, evaluated at exact offsets from them, with
the tails mapped by x = a +- R/u; the conditionally convergent oscillatory
integral turns its tails into the complex plane past a cutoff, where they
decay exponentially, and maps them the same way.  The
beta-like integral of any n >= 2, and with it the H integral, is a product
of n-1 such line integrals, each with two singular points.  The n=2
intertwining composition maps its outer integral's tails the same way,
z = -x +- R/u, with nothing assumed about the inner operator at infinity,
and refines whole batches of integrals at once: the inner integrals at its
outer nodes.

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

import numpy as np

from .characters import gauss_sum, is_primitive
from .errors import (
    ConvergenceRegionError,
    NormalizationError,
    NotPrimitiveError,
    PoleError,
    StripError,
    ToleranceNotMetError,
    _Value,
)
from .eisenstein import EisParams, nu_from_s
from .panels import _ROUNDING, _kernel_powers, graded_integrals
from .special import G_delta, G_delta_is_zero, signed_power

_TWO_PI_I = 2j * math.pi
_MAX_PANELS = 200  # panels per piece of the graded rule
# periods on the real axis before the oscillatory contour turns.  Over 30
# seeded cases at (1e-9, 1e-7), CPU ms per call (medians of 15 interleaved
# runs, 2-core x86-64 VM) for 10, 2, 1, 1/2, 1/4 periods: 0.571, 0.369,
# 0.266, 0.264, 0.258; worst error relative to the closed form over 80 cases
# with |Im nu| <= 10 at three tolerances: 1.5e-14, 8.5e-15, 8.4e-15, 8.2e-14,
# 9.5e-13 (1/4 fails 10 of 80 at (1e-14, 1e-13)): below a period
# |(X + iy)^w| grows up to exp(|Im w| arctan(y/X)) before exp(-2 pi |m| y) wins
_OSC_CUTOFF = 1.0
_PAIR_NORM_TOL = 1e-9  # |sum lambda| accepted as zero by the pairing scalars
# the n=2 composition: finite part over |z + x| < _WINDOW, the rest of the
# line mapped by z = -x +- _WINDOW/u
_WINDOW = 1.0
# start cuts of each inner piece of the n=2 operators at L(1 - 2^-k),
# k = 1.._EDGE_CUTS, toward the support edge where a smooth test function is
# flat but not analytic (see graded_integrals).  CPU ms over the intertwine
# benchmark's 5 composition points (medians of 16 interleaved runs in one
# process, 2-core x86-64 VM): 114 (0 cuts), 96 (2), 86 (3), 78 (4), 79 (5),
# 85 (6)
_EDGE_CUTS = 4


class QuadratureConfig(_Value):
    """Tolerances for the quadrature oracles, which all run on the panel
    rule of mirabolic.panels."""

    __slots__ = ("abs_tol", "rel_tol")

    def __init__(self, abs_tol: float = 1e-9, rel_tol: float = 1e-7):
        if not (0 < abs_tol < math.inf and 0 < rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        object.__setattr__(self, "abs_tol", abs_tol)
        object.__setattr__(self, "rel_tol", rel_tol)


DEFAULT_QUAD = QuadratureConfig()


# ---------------------------------------------------------------------------
# two-point line integrals


def _power_product(beta, eta):
    """The function d -> prod_j |d_j|^{beta_j - 1} sgn(d_j)^{eta_j} over the
    last axis of the nonzero array d, real when every beta_j is; what
    depends on beta and eta alone is worked out once, here."""
    expo = beta.real - 1
    odd = (np.asarray(eta) % 2).nonzero()[0]
    freq = beta.imag if np.count_nonzero(beta.imag) else None

    def power(d):
        logd = np.log(np.abs(d))
        v = np.exp(logd @ expo)
        if odd.size:
            v = np.where(np.logical_xor.reduce(d[..., odd] < 0, axis=-1), -v, v)
        if freq is not None:
            t = logd @ freq
            v = v * (np.cos(t) + 1j * np.sin(t))
        return v

    return power


def _two_point_pieces(beta0: complex, beta1: complex, t: float):
    """Cut the real line at the singular points p_0 = t != 0 and p_1 = 0 of
    |x - t|^{beta0-1} |x|^{beta1-1} (times signs) into the six pieces of
    panels.graded_integrals, int_0^{L_i} phi_i(h) h^{s_i - 1} dh with
    phi_i(h) = c_i prod_j |A_ij + B_ij h|^{beta_j - 1} sgn(A_ij + B_ij h)^{eta_j}:

    - four near pieces x = p_a -+ h, kernel h^{beta_a - 1}, meeting their
      neighbour at the midpoint and reaching R = |t| outward;
    - two tails x = p_min - R/u and x = p_max + R/u, u in (0, 1], kernel
      u^{s-1} with s = -(beta0 - 1) - (beta1 - 1) - 1, so that phi stays
      smooth at u = 0 (the factors are multiplied by u, and dx = R du/u^2).

    Every A and B is an exact offset (0, +-1 or +-R), so |x - p_j| is never
    reconstructed from x.  Returns (L, s, A, B, c), A and B of shape (6, 2)."""
    pos = (t, 0.0)
    R = abs(t)
    lo, hi = (1, 0) if t > 0 else (0, 1)  # the points in ascending order
    near = ((lo, -1.0, R), (lo, 1.0, R / 2), (hi, -1.0, R / 2), (hi, 1.0, R))
    A = [[d if j == a else pos[a] - pos[j] for j in (0, 1)] for a, d, _ in near]
    B = [[0.0 if j == a else d for j in (0, 1)] for a, d, _ in near]
    for a, d in ((lo, -1.0), (hi, 1.0)):
        A.append([d * R, d * R])
        B.append([pos[a] - pos[j] for j in (0, 1)])
    beta = (complex(beta0), complex(beta1))
    s_tail = -((beta[0] - 1) + (beta[1] - 1)) - 1
    return (
        np.array([L for *_, L in near] + [1.0, 1.0]),
        np.array([beta[a] for a, _, _ in near] + [s_tail, s_tail]),
        np.array(A),
        np.array(B),
        np.array([1.0, 1.0, 1.0, 1.0, R, R]),
    )


def _line_integral(beta0, eta0, beta1, eta1, t: float, cfg: QuadratureConfig):
    """I2(t) = int_R k0(t - x) k1(x) dx, k_j(x) = |x|^{beta_j-1} sgn(x)^{eta_j},
    on the panel rule of mirabolic.panels over the pieces of
    _two_point_pieces, with k0(t - x) = (-1)^{eta0} |x - t|^{beta0-1}
    sgn(x - t)^{eta0}.  Needs t != 0, Re beta_j > 0 and
    Re(beta0 + beta1) < 1, the caller's region.  Returns (value, error
    estimate)."""
    L, s, A, B, c = _two_point_pieces(beta0, beta1, t)
    c = complex((-1.0) ** (eta0 % 2)) * c
    power = _power_product(np.array([beta0, beta1], dtype=complex), (eta0, eta1))
    A, B, c = A[:, None], B[:, None], c[:, None]

    def phi(idx, h):
        return c[idx] * power(A[idx] + B[idx] * h[..., None]), None

    val, est = graded_integrals(
        phi, L, np.zeros(L.size), s, np.zeros(L.size, int), 1,
        cfg.abs_tol, cfg.rel_tol, _MAX_PANELS,
    )
    return complex(val[0]), float(est[0])


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
    npow = signed_power(params.level, 2 * nu - nu / n - 0.5)
    return (-1) ** eps * gauss_sum(psi) * npow * G_delta(nu - n / 2 + 1, eps)


def _pair_args(lam, delta, n):
    """lambda as complex numbers and delta as ints; ValueError unless both
    have length 2n."""
    lam = [complex(x) for x in lam]
    delta = [int(d) for d in delta]
    if len(lam) != 2 * n or len(delta) != 2 * n:
        raise ValueError("lambda and delta must have length 2n")
    return lam, delta


def _check_pair_normalization(lam, delta, eta, n, epsilon):
    lam, delta = _pair_args(lam, delta, n)
    if abs(sum(lam)) > _PAIR_NORM_TOL:
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
    npow = signed_power(N, 2 * nu - nu / n - 0.5)
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
    npow = signed_power(N, 2 * n * s - s - n)
    prod = 1 + 0j
    for j in range(1, n + 1):
        dd = (delta[n + j - 1] + delta[n - j] + eta) % 2
        arg = s + lam[n + j - 1] + lam[n - j]
        prod *= G_delta(arg, dd)
    return npow * prod


def _beta_like_args(beta, eta, t_n):
    """beta as complex numbers, eta as ints and t_n as a float; ValueError
    unless t_n is finite and nonzero."""
    t = float(t_n)
    if t == 0 or not math.isfinite(t):
        raise ValueError("t_n must be finite and nonzero")
    return [complex(b) for b in beta], [int(e) for e in eta], t


def beta_like_closed(beta, eta, t_n: float) -> complex:
    """Closed form of the beta-like integral:
    G_{eta_0}(beta_0)...G_{eta_{n-1}}(beta_{n-1}) / G_{sum eta}(sum beta)
    times |t_n|^{sum beta - 1} (sgn t_n)^{sum eta}."""
    beta, eta, t = _beta_like_args(beta, eta, t_n)
    if len(beta) != len(eta):
        raise ValueError("beta and eta must have equal length")
    total_b = sum(beta)
    total_e = sum(eta) % 2
    if G_delta_is_zero(total_b, total_e):
        raise PoleError("denominator G factor vanishes; the ratio degenerates")
    denom = G_delta(total_b, total_e)  # raises PoleError at its poles
    num = 1 + 0j
    for b, e in zip(beta, eta):
        num *= G_delta(b, e)
    return num / denom * signed_power(t, total_b - 1, total_e)


def _in_betalike_region(beta) -> bool:
    """Re beta_j > 0 and Re(sum beta) < 1: where the beta-like integral
    converges absolutely."""
    return all(b.real > 0 for b in beta) and sum(beta).real < 1


def beta_like_quadrature(beta, eta, t_n: float, cfg: QuadratureConfig = DEFAULT_QUAD) -> complex:
    """The beta-like integral for n = len(beta) >= 2 by line quadrature on
    the graded rule: n - 1 independent two-point line integrals, joined by
    Fubini and homogeneity (see _beta_like_chain).  Certifies agreement with
    beta_like_closed, so the check compares that numerical route with the
    Gamma closed form.  Raises ValueError unless n >= 2, len(eta) = n and
    t_n is finite and nonzero, and ConvergenceRegionError outside the
    absolute-convergence region."""
    beta, eta, t = _beta_like_args(beta, eta, t_n)
    if len(beta) < 2 or len(eta) != len(beta):
        raise ValueError("need len(beta) = len(eta) >= 2")
    if not _in_betalike_region(beta):
        raise ConvergenceRegionError(
            "need Re beta_j > 0 and Re(sum beta) < 1 for absolute convergence"
        )
    val, est = _beta_like_chain(beta, eta, t, cfg)
    _certify(val, est, beta_like_closed(beta, eta, t), cfg)
    return val


def _beta_like_chain(beta, eta, t: float, cfg: QuadratureConfig):
    """The beta-like integral for n = len(beta) >= 2 as a product of n - 1
    two-point line integrals.  Returns (value, error estimate).

    Write k_j(x) = |x|^{beta_j-1} sgn(x)^{eta_j}, so that the beta-like
    integral is the convolution I_n(t) = (k_0 * ... * k_{n-1})(t) and
    I2(beta0, eta0; beta1, eta1; t) = (k0 * k1)(t) is one _line_integral.
    Induction step: substituting x = |t'| y in (k_0 * ... * k_{j-1})(t')
    (Fubini makes the order of integration free; in the region every
    partial sum b_j = beta_0 + ... + beta_j has 0 < Re b_j < 1, so every
    integral converges absolutely) shows that it is homogeneous,
    I_j(1) |t'|^{b_{j-1}-1} sgn(t')^{eta_0+...+eta_{j-1}}, i.e. I_j(1)
    times the kernel with exponent b_{j-1} and the summed parity.  So
    I_{j+1}(t) = I_j(1) I2(b_{j-1}, eta_0+...+eta_{j-1}; beta_j, eta_j; t),
    and unrolled

        I_n(t) = I2(b_0; beta_1; 1) ... I2(b_{n-3}; beta_{n-2}; 1)
                 * I2(b_{n-2}; beta_{n-1}; t),

    the parities summed the same way.

    Each of the m = n - 1 factors runs at cfg/(2m - 1): cfg itself for
    n = 2, a third for n = 3.  m factors of relative error at most
    e = r/(2m - 1) give a product of relative error at most
    (1 + e)^m - 1 <= m e/(1 - m e/2) <= r whenever r <= 2(m - 1)/m, so
    whenever rel_tol <= 1 for n >= 3.  The estimates compose exactly: with
    |V - V*| <= E and |v - v*| <= e,
    |V v - V* v*| <= |V| e + |v| E + E e, accumulated factor by factor
    from (V, E) = (1, 0); for n = 3 that is |v1| e2 + |v2| e1 + e1 e2.
    Fubini and homogeneity are exact theorems, used rather than integrated
    numerically."""
    m = len(beta) - 1
    part = QuadratureConfig(cfg.abs_tol / (2 * m - 1), cfg.rel_tol / (2 * m - 1))
    b, e = beta[0], eta[0]
    val, est = 1.0, 0.0
    for k in range(1, m + 1):
        v, err = _line_integral(b, e, beta[k], eta[k], t if k == m else 1.0, part)
        val, est = val * v, abs(val) * err + abs(v) * est + est * err
        b, e = b + beta[k], e + eta[k]
    return val, est


def _certify(val: complex, est: float, closed: complex, cfg: QuadratureConfig):
    """Check the quadrature value val, with error estimate est, against its
    closed form, with tol = max(abs_tol, rel_tol |closed|).

    The policy: accept exactly when |val - closed| <= tol, whatever the
    estimate.  Otherwise raise ToleranceNotMetError, with achieved = est
    when the estimate also exceeds tol, and achieved = the difference when
    the estimate meets tol but the value misses it."""
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(closed))
    diff = abs(val - closed)
    if diff <= tol:
        return
    if est > tol:
        raise ToleranceNotMetError(
            f"quadrature error estimate {est:.3g} exceeds tolerance {tol:.3g}",
            achieved=est,
        )
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
        * signed_power(m, n / 2 - nu - 1, epsilon)
        * G_delta(nu - n / 2 + 1, epsilon)
    )


def oscillatory_integral(
    nu: complex,
    n: int,
    epsilon: int,
    d: int,
    k: int,
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> complex:
    """Quadrature of int_R |x|^w sgn(-x)^eps e(mx) dx, w = nu - n/2, m = dk,
    e(t) = exp(2 pi i t).  Certifies agreement with oscillatory_closed.

    |x| <= X = _OSC_CUTOFF/|m| stays on the real axis: the near pieces
    x = -+h, kernel h^w, phi = e(-+mh) times sgn(-x)^eps.  Past X the
    contour turns.  With sigma = sgn(m), e(mx) decays where sigma Im x > 0,
    and x^w (principal branch) is analytic there, so by Cauchy and Jordan's
    lemma the ray x = X + i sigma y, y >= 0, replaces [X, inf):
        int_X^inf x^w e(mx) dx
            = i sigma e(mX) int_0^inf (X + i sigma y)^w exp(-2 pi |m| y) dy.
    The right tail, x > X, is (-1)^eps times this; the left tail, x = -y < -X,
    is the same with m -> -m.  Each rotated tail is mapped to u in (0, 1] by
    y = Y (1/u - 1), Y = 1/(2 pi |m|), as one flat-kernel piece (s = 1) with
    phi = (X + i sigma y)^w exp(1 - 1/u) Y/u^2: smooth, and decaying faster
    than any power of u at u = 0.  The four pieces are one graded_integrals
    call, so the tolerance governs the whole integral, and the route stays
    independent of the closed form, Euler's Gamma integral rotated from 0."""
    nu = complex(nu)
    w = nu - n / 2
    if not 0 < (w + 1).real < 1:
        raise StripError("Re(nu - n/2 + 1) must lie in (0, 1)")
    if d <= 0 or k == 0:
        raise ValueError("need d > 0 and k != 0")
    m = d * k
    X, Y = _OSC_CUTOFF / abs(m), 1 / (2 * math.pi * abs(m))
    sigma, sign = math.copysign(1.0, m), (-1.0) ** (epsilon % 2)
    # pieces: near x = -h, x = +h, then the tails x = +-(X + turn (1/u - 1))
    turn = np.array([0, 0, 1j * sigma * Y, -1j * sigma * Y])[:, None]
    c = np.array([
        1.0, sign,
        sign * 1j * sigma * cmath.exp(_TWO_PI_I * m * X) * Y,
        -1j * sigma * cmath.exp(-_TWO_PI_I * m * X) * Y,
    ])[:, None]
    rate = (_TWO_PI_I * m * np.array([-1.0, 1.0, 0.0, 0.0]))[:, None]
    tail = turn != 0

    def phi(idx, h):
        t = 1 / h - 1  # y/Y on the tails
        rotated = w * np.log(X + turn[idx] * t) - t - 2 * np.log(h)
        return c[idx] * np.exp(np.where(tail[idx], rotated, rate[idx] * h)), None

    val, est = graded_integrals(
        phi, np.array([X, X, 1.0, 1.0]), np.zeros(4), np.array([w + 1, w + 1, 1, 1]),
        np.zeros(4, int), 1, cfg.abs_tol, cfg.rel_tol, _MAX_PANELS,
    )
    val = complex(val[0])
    _certify(val, float(est[0]), oscillatory_closed(nu, n, epsilon, d, k), cfg)
    return val


# ---------------------------------------------------------------------------
# the H integral of the pairing functional equation


def _h_parameters(lam, delta, nu, n, eta, epsilon):
    if n < 2:
        raise ValueError("the H integral needs n >= 2")
    lam, delta = _pair_args(lam, delta, n)
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
    """The x-integral H of the pairing functional equation, n >= 2.

    H is the signed beta-like integral at t = 1, H = sign * BL(beta, eta; 1),
    with beta_0 = nu - n/2 + 1, beta_j = 1/2 - lambda_{n+j} - lambda_{n+1-j}
    - nu/n and the parities and sign of _h_parameters.  Returns (closed,
    quadrature): closed is sign times beta_like_closed at t = 1; quadrature
    is sign times _beta_like_chain, n - 1 independent line integrals joined
    by Fubini and homogeneity, certified against closed, or None outside
    the absolute-convergence region of the beta-like lemma.  Raises
    ValueError for n < 2."""
    beta, etas, sign = _h_parameters(lam, delta, nu, n, eta, epsilon)
    closed = sign * beta_like_closed(beta, etas, 1.0)
    if not _in_betalike_region(beta):
        return closed, None
    val, est = _beta_like_chain(beta, etas, 1.0, cfg)
    val = sign * val
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
        """u, 1 - u^2 clipped at 0 (so 0 off the support) and the bump,
        whose exp(1 - 1/0) = exp(-inf) = 0 off the support."""
        u = (np.asarray(x, dtype=float) - self.center) / self.width
        w = np.fmax(1 - u * u, 0.0)
        with np.errstate(divide="ignore"):
            return u, w, np.exp(1 - 1 / w)

    def __call__(self, x):
        val = self._parts(x)[2]
        return val if val.ndim else float(val)

    def derivative(self, x):
        u, w, f = self._parts(x)
        # off the support 0 * inf: the nan is masked
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.where(w > 0, f * (-2 * u / (w * w)) / self.width, 0.0)
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


def _apply_batch(fs, nu, epsilon, y, which, a, b, abs_tol, rel_tol):
    """(I_nu fs[which_i])(y_i) and error estimates for arrays y, which:
    each y_i is one group of the graded rule, evaluated in slices so that
    peak memory stays flat.

    Every piece of _apply_pieces ends on an edge of the support, where a
    smooth test function is flat but not analytic, so the panels that
    resolve it halve toward that edge: each piece starts with the
    _EDGE_CUTS start cuts L(1 - 2^-k) of graded_integrals, rather than
    finding one bisection per refinement round.  For real nu and real
    values of fs, the kernel powers, phi and the panel sums stay in
    float64; phi's working array takes the dtype of fs's values
    (np.result_type), so a complex-valued f keeps its imaginary part."""
    nu = nu.real if nu.imag == 0 else nu
    vals, errs = [np.empty(0)], [np.empty(0)]
    # y values per slice: 256 ran 0.96x the time of 128 on the intertwine
    # benchmark, with the same values and peak RSS
    step = 256
    for i in range(0, y.size, step):
        ys, ws = y[i : i + step], which[i : i + step]
        owner, e, dirs, L, d0, c = _apply_pieces(ys, a, b, epsilon)
        fn = ws[owner]
        e, dirs, c = e[:, None], dirs[:, None], c[:, None]

        def phi(idx, h):
            w = e[idx] + dirs[idx] * h
            own = fn[idx]
            if not np.count_nonzero(own != own[0]):  # one test function for the whole chunk
                return c[idx] * fs[own[0]](w), None
            parts = [(m, func(w[m])) for n, func in enumerate(fs) if np.count_nonzero(m := own == n)]
            out = np.empty(h.shape, np.result_type(float, *(v for _, v in parts)))
            for m, v in parts:
                out[m] = v
            return c[idx] * out, None

        v, err = graded_integrals(
            phi, L, d0, np.full(L.size, nu), owner, ys.size, abs_tol, rel_tol,
            _MAX_PANELS, edge_cuts=_EDGE_CUTS,
        )
        vals.append(v)
        errs.append(err)
    return np.concatenate(vals), np.concatenate(errs)


def _finite_grid(grid) -> np.ndarray:
    """The points of grid as a flat float array; raises ValueError unless
    every one is finite."""
    pts = np.asarray(grid, dtype=float).ravel()
    if not np.isfinite(pts).all():
        raise ValueError("grid points must be finite")
    return pts


def _support(f) -> tuple[float, float]:
    """The interval (a, b) outside which the test function f vanishes;
    raises ValueError unless a < b and both are finite."""
    support = getattr(f, "support", None)
    if support is None:
        raise ValueError("f must provide a .support (a, b) outside which it vanishes")
    a, b = float(support[0]), float(support[1])
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"f.support must be a finite interval (a, b) with a < b, got {support!r}")
    return a, b


def intertwine_apply_n2(
    f,
    nu: complex,
    epsilon: int,
    y_grid,
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> np.ndarray:
    """(I_nu f)(y) = int f(z) |{-y-z}|^{nu-1} sgn(-y-z)^eps dz for each y in
    y_grid, which must be finite (ValueError otherwise); f must vanish
    outside f.support and accept numpy arrays.
    Requires Re nu > 0 (= n/2 - 1 for n = 2).  Every value is certified
    against its own error estimate."""
    nu = complex(nu)
    if nu.real <= 0:
        raise ConvergenceRegionError("intertwining integral needs Re nu > 0")
    a, b = _support(f)
    y = _finite_grid(y_grid)
    val, err = _apply_batch(
        [f], nu, epsilon, y, np.zeros(y.size, int), a, b, cfg.abs_tol, cfg.rel_tol
    )
    _require(val, err, cfg, "intertwine_apply_n2")
    return val.astype(complex)


def intertwine_compose_n2(
    f,
    nu: complex,
    epsilon: int,
    x_grid,
    cfg: QuadratureConfig = DEFAULT_QUAD,
) -> np.ndarray:
    """(I_{-nu} (I~_nu f))(x) for x in x_grid, 0 < Re nu < 1; every x must
    be finite (ValueError otherwise).

    The inner operator g is the convergent integral of intertwine_apply_n2;
    the outer kernel |x+z|^{-nu-1} is not locally integrable, so it is
    continued by its finite part around z = -x, taken by one integration by
    parts over |z+x| < R = _WINDOW = 1:
    FP int_{-R}^{R} g(-x+u) K(u) du = [g(-x+u) A(u)]_{-R}^{R}
        - int_{-R}^{R} g'(-x+u) A(u) du,
    with A the antiderivative (-1)^eps sgn(u)^{eps+1} |u|^{-nu}/(-nu) of K,
    whose u = 0 boundary terms continue to zero; g' = -I~_nu f' comes from
    f.derivative.

    The rest of the line, |z+x| >= R, is mapped by z = -x +- R/u,
    u in (0, 1]: each side is
    int g(z) |x+z|^{-nu-1} dz = R^{-nu} int_0^1 g(-x +- R/u) u^{nu-1} du,
    times (-1)^eps on the right, where -x-z < 0.  Its integrand is smooth on
    (0, 1] because g is (f is), and analytic at u = 0: for z outside
    [-m, m], m = max(|a|, |b|) over the support (a, b) of f,
    g(z) = (-sgn z)^eps |z|^{nu-1} int_a^b f(w) (1 + w/z)^{nu-1} dw
    = |z|^{nu-1} G(1/z), with G analytic on |t| < 1/m; and for small u,
    u^{nu-1} |-x +- R/u|^{nu-1} = R^{nu-1} (1 -+ xu/R)^{nu-1} and
    1/z = u/(+-R - xu) are analytic at u = 0.  So each side is one piece of
    the graded rule with a flat kernel (s = 1); nothing is assumed about g
    at infinity, and |x| is not limited.

    g and g' are computed for a whole batch of outer nodes at once, with
    inner tolerances a hundredth of cfg's, and their error estimates are
    carried through the outer weights.  Each value is certified against the
    summed error estimate of its pieces; when that misses a tolerance above
    the rounding floor _ROUNDING |value|, the point is computed once more
    with inner tolerances tightened by the factor missed.  The value is
    (-1)^eps G_eps(nu) G_eps(-nu) f(x), the composition being that
    multiple of the identity."""
    nu = complex(nu)
    if not 0 < nu.real < 1:
        raise ConvergenceRegionError("composition probe needs 0 < Re nu < 1")
    a, b = _support(f)
    f_prime = getattr(f, "derivative", None)
    if f_prime is None:
        raise ValueError("f must provide a .derivative method")
    nu = nu.real if nu.imag == 0 else nu
    R = _WINDOW
    sign = (-1.0) ** (epsilon % 2)
    # pieces: -int_0^R g'(-x+-h) A(+-h) dh with kernel h^{-nu}, then the two
    # mapped sides z = -x +- R/u with kernel 1 and the weight R^-nu u^{nu-1}
    # in phi
    dirs = np.array([1.0, -1.0, 1.0, -1.0])
    c = np.array([sign / nu, -1 / nu, sign * R**-nu, R**-nu])
    of_derivative = np.array([1, 1, 0, 0])

    def point(x, share):
        def inner(z, which):
            # which = 0: g(z); which = 1: g'(z) = -(I~_nu f')(z)
            v, e = _apply_batch(
                [f, f_prime], nu, epsilon, z, which, a, b,
                cfg.abs_tol * share, cfg.rel_tol * share,
            )
            return np.where(which == 1, -v, v), e

        g, ge = inner(np.array([-x + R, -x - R]), np.zeros(2, int))
        # [g(-x+u) A(u)]_{-R}^{R}, A(R) = sign R^-nu/(-nu), A(-R) = R^-nu/nu
        aR = R**-nu / nu
        known = -sign * aR * g[0] - aR * g[1]
        known_err = abs(aR) * (ge[0] + ge[1])

        def phi(idx, h):
            mapped = of_derivative[idx][:, None] == 0
            z = -x + dirs[idx][:, None] * np.where(mapped, R / h, h)
            w = c[idx][:, None] * np.where(mapped, _kernel_powers(h, nu), 1.0)
            v, ve = inner(z.ravel(), np.repeat(of_derivative[idx], h.shape[1]))
            return w * v.reshape(h.shape), np.abs(w) * ve.reshape(h.shape)

        val, err = graded_integrals(
            phi,
            np.array([R, R, 1.0, 1.0]),
            np.zeros(4),
            np.array([1 - nu, 1 - nu, 1.0, 1.0]),
            np.zeros(4, int),
            1,
            cfg.abs_tol / 2,
            cfg.rel_tol / 2,
            _MAX_PANELS,
            base=known,
            chunk=21 * 12,  # each outer node is a batch of inner integrals
        )
        return val[0] + known, err[0] + known_err

    out, est = [], []
    for x in _finite_grid(x_grid):
        v, e = point(x, 1e-2)
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(v))
        if not e <= tol and tol > _ROUNDING * abs(v):
            # tighten the inner tolerances by the factor missed; below the
            # rounding floor no inner tolerance can help
            v, e = point(x, 1e-2 * min(1e-2, tol / (4 * e)))
        out.append(v)
        est.append(e)
    out, est = np.asarray(out, dtype=complex), np.asarray(est)
    _require(out, est, cfg, "intertwine_compose_n2")
    return out
