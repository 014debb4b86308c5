"""Graded Gauss-Kronrod panels on numpy arrays: the singular-endpoint rule
of every quadrature in mirabolic.fe_verify.

graded_integrals integrates a whole batch of pieces
int_0^L phi(h) (d0 + h)^{s-1} dh at once, phi smooth and evaluated on numpy
arrays, the kernel singular at h = -d0 <= 0.  Panels are graded
geometrically toward h = 0, each carries the embedded |K21 - G10| error
estimate of the 21-point Gauss-Kronrod pair, and the last panel at a
singular endpoint is integrated against the exact kernel mass.
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
# matrix; complex values are multiplied by it through their real and
# imaginary parts, as numpy has no fast complex-by-real matrix product
_KG_MATRIX = np.stack([_KRONROD_W, _KRONROD_W - _GAUSS_W], axis=1)

# nodes per vectorized evaluation: bounds the size of temporary arrays
_CHUNK = 1 << 13
# relative rounding error of a panel sum, as in QUADPACK: 50 eps
_ROUNDING = 50 * np.finfo(float).eps


def _kernel_powers(d, s):
    """d^(s-1) for d > 0, elementwise."""
    logd = np.log(d)
    r = np.exp((s.real - 1) * logd)
    if not np.any(s.imag):
        return r
    t = s.imag * logd  # cos and sin: numpy's complex exp is slower
    k = np.empty(d.shape, complex)
    k.real, k.imag = r * np.cos(t), r * np.sin(t)
    return k


def _kernel_mass(delta, d0, s):
    """int_0^delta (d0 + h)^(s-1) dh elementwise, for d0 >= 0 (Re s > 0
    where d0 = 0); written with expm1/log1p so it stays exact for d0 >> delta."""
    at_zero = d0 == 0
    d = np.where(at_zero, 1.0, d0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shifted = d**s * np.expm1(s * np.log1p(delta / d)) / s
        return np.where(at_zero, delta**s / s, shifted)


def _eval_panels(phi, lo, hi, pid, end, d0, s, chunk):
    """Value, quadrature error estimate, total error estimate and absolute
    mass of each panel of int phi(pid, h) (d0 + h)^(s-1) dh over [lo, hi].

    A Gauss-Kronrod panel estimates its error by |K21 - G10|.  An endpoint
    panel [0, hi] takes phi as constant, phi(0), against the exact kernel
    mass, and estimates the error by |phi(hi) - phi(0)| times the mass of
    |kernel|.  The total estimate is at least the rounding floor
    _ROUNDING * mass, plus the error bounds that phi reports for its own
    values, carried through the weights."""
    v = np.empty(lo.size, complex)
    q = np.empty(lo.size)
    e = np.empty(lo.size)
    mass = np.empty(lo.size)
    idx = np.flatnonzero(~end)
    rows = max(1, chunk // 21)
    for i in range(0, idx.size, rows):
        j = idx[i : i + rows]
        half = 0.5 * (hi[j] - lo[j])
        h = (0.5 * (hi[j] + lo[j]))[:, None] + half[:, None] * _KRONROD_X
        pj = np.repeat(pid[j], 21)
        fv, fe = phi(pj, h.ravel())
        k = _kernel_powers(d0[pj] + h.ravel(), s[pj]).reshape(-1, 21)
        fk = fv.reshape(-1, 21) * k
        re, im = fk.real @ _KG_MATRIX, fk.imag @ _KG_MATRIX
        v[j] = half * (re[:, 0] + 1j * im[:, 0])
        q[j] = half * np.hypot(re[:, 1], im[:, 1])
        mass[j] = half * (np.abs(fk) @ _KRONROD_W)
        e[j] = np.maximum(q[j], _ROUNDING * mass[j])
        if fe is not None:
            e[j] += half * ((np.abs(k) * fe.reshape(-1, 21)) @ _KRONROD_W)
    j = np.flatnonzero(end)
    if j.size:
        pj = pid[j]
        fv, fe = phi(np.concatenate([pj, pj]), np.concatenate([0 * hi[j], hi[j]]))
        f0, f1 = fv[: j.size], fv[j.size :]
        bound = _kernel_mass(hi[j], d0[pj], s[pj].real)
        v[j] = f0 * _kernel_mass(hi[j], d0[pj], s[pj])
        q[j] = np.abs(f1 - f0) * bound
        mass[j] = np.abs(f0) * bound
        e[j] = np.maximum(q[j], _ROUNDING * mass[j])
        if fe is not None:
            e[j] += fe[: j.size] * bound
    return v, q, e, mass


def graded_integrals(phi, L, d0, s, group, n_groups, abs_tol, rel_tol,
                     max_panels, base=0.0, chunk=_CHUNK):
    """Sum over the pieces i of each group of int_0^{L_i} phi(i, h)
    (d0_i + h)^{s_i - 1} dh, for a whole batch of pieces at once.

    phi(idx, h) evaluates the smooth factor of piece idx[j] at offset h[j]
    on numpy arrays and returns (values, error bounds of the values or
    None).  Each piece starts on panels graded geometrically
    (ratio 1/4) toward h = 0: down to an endpoint panel whose size follows
    from rel_tol when the kernel is singular there (d0 below that size),
    else down to the scale d0.  Panels whose Gauss-Kronrod estimate is too
    large for their group's tolerance max(abs_tol, rel_tol*|sum + base|),
    abs_tol one number or one per group, are split until every group meets
    it (or, when that is tighter than the rounding error of the group's
    sum, meets that) or a piece has max_panels panels.
    Returns (values, error estimates) per group."""
    # phi(h) - phi(0) = O(h), so an endpoint panel [0, tau L] leaves a
    # relative error of order tau^(1+p)
    p = np.maximum(s.real, 0.0)
    tau = (rel_tol / 8) ** (1 / (1 + p))
    analytic = d0 < L * tau
    depth = np.where(
        analytic,
        np.ceil(np.log2(1 / tau) / 2),
        np.ceil(np.log2(L / np.maximum(d0, L * tau)) / 2),
    )
    depth = np.clip(depth, 1, min(60, max(1, max_panels - 1))).astype(int)
    pid = np.repeat(np.arange(L.size), depth + 1)
    starts = np.cumsum(depth + 1) - (depth + 1)
    k = np.arange(pid.size) - np.repeat(starts, depth + 1)
    hi = L[pid] * 0.25**k
    last = k == depth[pid]
    lo = np.where(last, 0.0, hi / 4)
    end = last & analytic[pid]
    new = [lo, hi, pid, end]
    lo, hi, pid, end = lo[:0], hi[:0], pid[:0], end[:0]
    val = np.empty(0, complex)
    q = err = mass = np.empty(0)
    while True:
        v, qn, en, mn = _eval_panels(phi, *new, d0, s, chunk)
        lo, hi, pid, end = (np.concatenate(pair) for pair in zip((lo, hi, pid, end), new))
        val, q = np.concatenate([val, v]), np.concatenate([q, qn])
        err, mass = np.concatenate([err, en]), np.concatenate([mass, mn])
        g = group[pid]
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
        # a Gauss-Kronrod panel is bisected; an endpoint panel [0, h] becomes
        # [0, h/16] plus Gauss-Kronrod panels [h/16, h/4] and [h/4, h]
        gk, e_hi, e_pid = ~m_end, m_hi[m_end], m_pid[m_end]
        mid = 0.5 * (m_lo[gk] + m_hi[gk])
        new = [
            np.concatenate([m_lo[gk], mid, e_hi / 16, e_hi / 4, 0 * e_hi]),
            np.concatenate([mid, m_hi[gk], e_hi / 4, e_hi, e_hi / 16]),
            np.concatenate([m_pid[gk], m_pid[gk], e_pid, e_pid, e_pid]),
            np.concatenate([np.zeros(2 * mid.size + 2 * e_hi.size, bool), np.ones(e_hi.size, bool)]),
        ]
    return total, np.bincount(g, err, n_groups)
