"""Gauss-Kronrod panels and an endpoint moment rule on numpy arrays: the
singular-endpoint rule of every quadrature in mirabolic.fe_verify.

graded_integrals integrates a whole batch of pieces
int_0^L phi(h) (d0 + h)^{s-1} dh at once, phi smooth and evaluated on numpy
arrays, the kernel singular at h = -d0 <= 0.  Away from h = 0 the pieces
run on 21-point Gauss-Kronrod panels, each with the embedded |K21 - G10|
error estimate.  Where the kernel is singular at the endpoint itself
(d0 = 0, or d0 so small against L that its shift of the kernel is taken in
closed form), the panel [0, delta] is a product-integration rule in the manner
of QUADPACK's QAWS (modified moments; Piessens et al., QUADPACK, 1983):
phi is expanded in shifted Legendre polynomials from its values at 12
Gauss-Legendre nodes, and each polynomial is integrated against h^{s-1}
exactly, by the closed-form moments of _legendre_moments.  Its error
estimate bounds the part of that sum carried by the upper half of the
expansion, |delta^s / s| sum_{k >= 6} |c_k| (every |mu_k(s)| is at most
1/|s|): unlike the signed sum it does not vanish where the moments do, for
k >= s at integer s, where the rule is still inexact on what it aliases.
"""

from __future__ import annotations

import numpy as np

# The 21-point Kronrod extension of the 10-point Gauss-Legendre rule on
# [-1, 1] (QUADPACK qk21): nodes x >= 0 in descending order, their Kronrod
# weights, and the Gauss weights of the Gauss nodes x[1], x[3], ..., x[9].
_GK_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_GK_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_GK_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# the same rule on all 21 nodes in ascending order
_KRONROD_X = np.concatenate([-_GK_X, _GK_X[-2::-1]])
_KRONROD_W = np.concatenate([_GK_WK, _GK_WK[-2::-1]])
_GAUSS_W = np.zeros(21)
_GAUSS_W[1:10:2] = _GK_WG
_GAUSS_W[11:20:2] = _GK_WG[::-1]
# Kronrod weights and Kronrod-minus-Gauss weights as the columns of one
# matrix; real values are multiplied by it directly, complex values through
# their real and imaginary parts, as numpy has no fast complex-by-real
# matrix product
_KG_MATRIX = np.stack([_KRONROD_W, _KRONROD_W - _GAUSS_W], axis=1)

# The 12-point Gauss-Legendre rule on [-1, 1]: nodes x > 0 in descending
# order and their weights.
_GL_X = np.array([
    0.981560634246719250690549090149281, 0.904117256370474856678465866119096,
    0.769902674194304687036893833212818, 0.587317954286617447296702418940534,
    0.367831498998180193752691536643718, 0.125233408511468915472441369463853,
])
_GL_W = np.array([
    0.0471753363865118271946159614850171, 0.106939325995318430960254718193996,
    0.160078328543346226334652529543359, 0.203167426723065921749064455809798,
    0.233492536538354808760849898924878, 0.249147045813402785000562436042951,
])
_M = 2 * _GL_X.size
_x = np.concatenate([-_GL_X, _GL_X[::-1]])
# the nodes on [0, 1] in ascending order, t = (1 + x)/2
_MOMENT_T = 0.5 * (1 + _x)
# _LEGENDRE[k, j] = (2k + 1) w_j P_k(x_j), with w_j the weights on [0, 1]:
# phi at the nodes t_j -> the coefficients c_k of phi = sum c_k P_k(2t - 1);
# P_k by the three-term recurrence (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}
_LEGENDRE = np.empty((_M, _M))
_LEGENDRE[0], _LEGENDRE[1] = 1.0, _x
for _k in range(1, _M - 1):
    _LEGENDRE[_k + 1] = ((2 * _k + 1) * _x * _LEGENDRE[_k] - _k * _LEGENDRE[_k - 1]) / (_k + 1)
_LEGENDRE *= (2 * np.arange(_M) + 1)[:, None] * 0.5 * np.concatenate([_GL_W, _GL_W[::-1]])
# phi at the nodes -> the expansion's value at t = 0, sum_k c_k P_k(-1)
_AT_ZERO = (-1.0) ** np.arange(_M) @ _LEGENDRE
del _x, _k

# nodes per vectorized evaluation.  At 8192 the temporaries of one chunk
# (128 KiB complex arrays) outgrew glibc's heap trim threshold, so the heap
# top was returned after every chunk and faulted back in on the next (~23k
# minor faults per intertwine pass; ~8k at 4096); smaller chunks fault less
# but cost more in per-chunk overhead than they save
_CHUNK = 1 << 12
# relative rounding error of a panel sum, as in QUADPACK: 50 eps
_ROUNDING = 50 * np.finfo(float).eps
# Gauss-Kronrod panels graded by 1/4 ahead of the first endpoint panel
_START_DEPTH = 2
# pieces with 0 < d0 < _SHIFT * L, which panels graded to the scale d0 would
# need more than 40 of, take the endpoint rule with the kernel's shift in
# closed form; what that leaves out is O(d0 phi'), far below rounding
_SHIFT = 4.0**-40
# 4^-j, j < 64: the start cuts toward h = 0, which never pass 4^-42 L
# (d0 >= _SHIFT * L off the endpoint rule)
_QUARTERS = 0.25 ** np.arange(64)


def _kernel_powers(d, s):
    """d^(s-1) for d > 0, elementwise with s broadcast against d."""
    logd = np.log(d)
    r = np.exp((s.real - 1) * logd)
    if not np.any(s.imag):
        return r
    t = s.imag * logd  # cos and sin: numpy's complex exp is slower
    k = np.empty(d.shape, complex)
    k.real, k.imag = r * np.cos(t), r * np.sin(t)
    return k


def _legendre_moments(s):
    """mu_k(s) = int_0^1 P_k(2t - 1) t^(s-1) dt for k < 12, Re s > 0, in
    the last axis: mu_k = prod_{j=1..k} (s - j) / prod_{j=0..k} (s + j),
    exact for complex s; real when s has a real dtype."""
    s = np.asarray(s, dtype=np.result_type(s, float))[..., None]
    k = np.arange(1, _M)
    return np.cumprod(np.concatenate([1 / s, (s - k) / (s + k)], axis=-1), axis=-1)


def _gauss_kronrod(phi, lo, hi, p, d0, s):
    """Value, |K21 - G10|, absolute mass and carried phi error of the
    Gauss-Kronrod panels [lo, hi] of pieces p."""
    half = 0.5 * (hi - lo)
    h = (0.5 * (hi + lo))[:, None] + half[:, None] * _KRONROD_X
    fv, fe = phi(p, h)
    # per-panel d0 and s broadcast over the 21 nodes of each row
    k = _kernel_powers(d0[p][:, None] + h, s[p][:, None])
    fk = fv * k
    carried = 0.0 if fe is None else half * ((np.abs(k) * fe) @ _KRONROD_W)
    if fk.dtype.kind != "c":
        re = fk @ _KG_MATRIX
        value, diff = re[:, 0], np.abs(re[:, 1])
    else:
        re, im = fk.real @ _KG_MATRIX, fk.imag @ _KG_MATRIX
        value, diff = re[:, 0] + 1j * im[:, 0], np.hypot(re[:, 1], im[:, 1])
    return half * value, half * diff, half * (np.abs(fk) @ _KRONROD_W), carried


def _endpoint_moments(phi, lo, delta, p, d0, s):
    """Value, expansion-tail estimate, absolute mass and carried phi error
    of the endpoint panels int_0^delta phi(p, h) (d0_p + h)^(s_p - 1) dh
    (lo is 0, d0_p is 0 or below L * _SHIFT): delta^s sum_k c_k mu_k(s), c_k
    the shifted Legendre coefficients of phi on [0, delta], plus for
    d0_p > 0 the expansion's value at 0 times the exact change of the
    kernel's mass.  The estimate bounds the part of this carried by the
    upper half of the expansion, (|delta^s / s| + |shift|) sum_{k >= 6}
    |c_k|."""
    fv, fe = phi(p, delta[:, None] * _MOMENT_T)
    sp, dp = s[p], d0[p]
    scale = delta * _kernel_powers(delta, sp)  # delta^s
    w = scale[:, None] * (_legendre_moments(sp) @ _LEGENDRE)
    # a kernel shifted by a tiny d0 > 0: phi(0) times the exact change of
    # the kernel's mass, ((d0 + delta)^s - delta^s - d0^s)/s; the rest of
    # the change is O(d0 phi')
    d = np.where(dp > 0, dp, delta)
    shift = np.where(
        dp > 0,
        (scale * np.expm1(sp * np.log1p(dp / delta)) - d * _kernel_powers(d, sp)) / sp,
        0.0,
    )
    w = w + shift[:, None] * _AT_ZERO
    # |mu_k(s)| <= |mu_0(s)| = 1/|s| (|s - j| <= |s + j|) and |P_k(-1)| = 1:
    # a bound on the upper half that holds also where mu_k(s) vanishes, as it
    # does for k >= s at s = 1, 2, ..., and the rule still aliases
    tail = np.abs(fv @ _LEGENDRE[_M // 2 :].T).sum(axis=1)
    aw = np.abs(w)
    carried = 0.0 if fe is None else (aw * fe).sum(axis=1)
    return (
        (w * fv).sum(axis=1),
        (np.abs(scale / sp) + np.abs(shift)) * tail,
        (aw * np.abs(fv)).sum(axis=1),
        carried,
    )


def _eval_panels(phi, lo, hi, pid, end, d0, s, chunk):
    """Value, quadrature error estimate, total error estimate and absolute
    mass of each panel of int phi(pid, h) (d0 + h)^(s-1) dh over [lo, hi]:
    Gauss-Kronrod panels, and the moment rule on the endpoint panels (end,
    lo = d0 = 0).  The total estimate is at least the rounding floor
    _ROUNDING * mass, plus the error bounds that phi reports for its own
    values, carried through the weights.  The values are real when every
    panel's are."""
    v = np.empty(lo.size)
    q = np.empty(lo.size)
    e = np.empty(lo.size)
    mass = np.empty(lo.size)
    for rule, at_end, nodes in ((_gauss_kronrod, False, 21), (_endpoint_moments, True, _M)):
        idx = np.flatnonzero(end == at_end)
        rows = max(1, chunk // nodes)
        for i in range(0, idx.size, rows):
            j = idx[i : i + rows]
            vj, q[j], mass[j], carried = rule(phi, lo[j], hi[j], pid[j], d0, s)
            if vj.dtype.kind == "c" and v.dtype.kind != "c":
                v = v.astype(complex)
            v[j] = vj
            e[j] = np.maximum(q[j], _ROUNDING * mass[j]) + carried
    return v, q, e, mass


def graded_integrals(phi, L, d0, s, group, n_groups, abs_tol, rel_tol,
                     max_panels, base=0.0, chunk=_CHUNK, edge_cuts=0):
    """Sum over the pieces i of each group of int_0^{L_i} phi(i, h)
    (d0_i + h)^{s_i - 1} dh, for a whole batch of pieces at once.

    phi(idx, h) evaluates the smooth factor on numpy arrays: idx holds one
    piece per panel, h the nodes of those panels (one row each); it returns
    (values, error bounds of the values or None), both shaped like h.
    Where phi's values and s are real (s of a real dtype), every panel sum
    stays in float64 and so do the returned values.

    A piece singular at or within L * 4^-40 of its endpoint (d0 < L * 4^-40,
    which needs Re s > 0) starts as Gauss-Kronrod panels [L/4, L] and
    [L/16, L/4] and the endpoint panel [0, L/16], which is integrated by
    Legendre moments against the exact kernel (see _endpoint_moments); any
    other piece starts as Gauss-Kronrod panels graded geometrically
    (ratio 1/4) toward h = 0 down to the scale d0.  With edge_cuts = K > 0
    the start panel [L/4, L] is also cut at L(1 - 2^-k), k = 1..K, graded
    toward h = L for a phi that is flat but not analytic there, and every
    piece starts one quarter level deeper toward h = 0.  Panels whose
    estimate is too large for their group's tolerance
    max(abs_tol, rel_tol*|sum + base|) are refined until every group meets
    it (or, when that is tighter than the rounding error of the group's
    sum, meets that) or a piece has max_panels panels: a Gauss-Kronrod
    panel is bisected, an endpoint panel [0, h] becomes the endpoint panel
    [0, h/4] and the Gauss-Kronrod panel [h/4, h].
    Returns (values, error estimates) per group."""
    singular = d0 < _SHIFT * L
    depth = np.where(
        singular, _START_DEPTH, np.ceil(np.log2(L / np.where(singular, L, d0)) / 2)
    ) + (edge_cuts > 0)
    depth = np.clip(depth, 1, max(1, max_panels - 1 - edge_cuts)).astype(int)
    count = depth + 1 + edge_cuts
    pid = np.repeat(np.arange(L.size), count)
    k = np.arange(pid.size) - np.repeat(np.cumsum(count) - count, count)
    # panel k of a piece runs from its cut k + 1 to its cut k, as fractions
    # of L from the top: 1, then 1 - 2^-j for j = edge_cuts, ..., 1, then 4^-j
    cut = np.concatenate([_QUARTERS[:1], 1 - 0.5 ** np.arange(edge_cuts, 0, -1), _QUARTERS[1:]])
    hi = L[pid] * cut[k]
    last = k == count[pid] - 1
    lo = np.where(last, 0.0, L[pid] * cut[k + 1])
    end = last & singular[pid]
    new = [lo, hi, pid, end]
    lo, hi, pid, end = lo[:0], hi[:0], pid[:0], end[:0]
    val = q = err = mass = np.empty(0)
    while True:
        v, qn, en, mn = _eval_panels(phi, *new, d0, s, chunk)
        lo, hi, pid, end = (np.concatenate(pair) for pair in zip((lo, hi, pid, end), new))
        val, q = np.concatenate([val, v]), np.concatenate([q, qn])
        err, mass = np.concatenate([err, en]), np.concatenate([mass, mn])
        g = group[pid]
        if val.dtype.kind != "c":
            total = np.bincount(g, val, n_groups)
        else:
            total = np.bincount(g, val.real, n_groups) + 1j * np.bincount(g, val.imag, n_groups)
        # no tighter than the rounding error of the group's sum
        tol = np.maximum.reduce([
            np.full(n_groups, abs_tol),
            rel_tol * np.abs(total + base),
            _ROUNDING * np.bincount(g, mass, n_groups),
        ])
        open_ = np.bincount(g, q, n_groups) > tol
        if not open_.any():
            break
        per_group = np.bincount(g, minlength=n_groups)
        per_piece = np.bincount(pid, minlength=L.size)
        mark = (
            open_[g]
            & (q > tol[g] / (2 * per_group[g]))
            & (per_piece[pid] < max_panels)
        )
        if not mark.any():
            break
        m_lo, m_hi, m_pid, m_end = lo[mark], hi[mark], pid[mark], end[mark]
        keep = ~mark
        lo, hi, pid, end = lo[keep], hi[keep], pid[keep], end[keep]
        val, q, err, mass = val[keep], q[keep], err[keep], mass[keep]
        gk, e_hi, e_pid = ~m_end, m_hi[m_end], m_pid[m_end]
        mid = 0.5 * (m_lo[gk] + m_hi[gk])
        new = [
            np.concatenate([m_lo[gk], mid, e_hi / 4, 0 * e_hi]),
            np.concatenate([mid, m_hi[gk], e_hi, e_hi / 4]),
            np.concatenate([m_pid[gk], m_pid[gk], e_pid, e_pid]),
            np.concatenate([np.zeros(2 * mid.size + e_hi.size, bool), np.ones(e_hi.size, bool)]),
        ]
    return total, np.bincount(g, err, n_groups)
