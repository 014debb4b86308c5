"""arith: characters, L-values, coefficients and the Gamma-factor calculus,
with no quadrature.

The moduli are fixed and small (<= 210), so most of the time goes to
evaluating characters rather than building them; the seed draws the
evaluation points, the coefficient parameters and the Gamma-calculus
inputs, which changes the inputs but hardly the amount of work.  This workload is
the no-change control for fe_verify work, and guards that faster character
construction does not slow psi(a) or finite_fourier.

Left-half-plane L-values are kept on purpose: dirichlet_L and hurwitz_zeta
lose accuracy for Re s < 0 (ROADMAP item 5), so their checks fail there and
`failed` is nonzero at every seed.  Those cases carry known_defect=True.

Checks: dirichlet_L and hurwitz_zeta against mpmath's Hurwitz zeta at 30
digits, G_delta against mpmath's gamma, |tau_psi|^2 = N for primitive psi,
finite_fourier against its defining sum, coeff_wlong_cell against
brute_force_c_r (and c_0 against the mpmath L-value), coeff_big_cell
against its divisor sum in mpmath, dim Ext^2 = d(d-1)/2, dim Sym^2 =
d(d+1)/2, dim tensor = d d', and each Gamma product against mpmath.
"""

from __future__ import annotations

from math import gcd

from mirabolic import characters, eisenstein, gamma_factors, special
from mirabolic.eisenstein import EisParams

import oracles
from harness import Case, rel_close

SMALL_MODULI = (5, 7, 12)  # Re s < 0 L-values only for these (<= 12)
MEDIUM_MODULUS = 40
LARGE_MODULUS = 210

L_REL = 1e-9  # as tests/test_special.py against mpmath
G_REL = 1e-10
BOX = 8  # n = 3 coefficient box [-BOX, BOX]^2
N_HURWITZ, N_G, N_GAMMA = 12, 20, 30


# hurwitz_zeta sums max(30, 1.2 |Im s| + 10) terms, so each s-point's |Im s|
# lies in a band where that count is constant or nearly so: the seed then
# changes the inputs but not the work per pass.
LOW_IM = 16.0


def _band(rng, lo, hi):
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def s_points_small(rng):
    """Deep and near left half-plane, and the critical strip at |Im s| ~ 10^3."""
    return [
        complex(rng.uniform(-12.0, -6.0), _band(rng, 0.0, LOW_IM)),
        complex(rng.uniform(-3.0, -0.2), _band(rng, 0.0, LOW_IM)),
        complex(rng.uniform(0.1, 0.9), _band(rng, 950.0, 1000.0)),
    ]


def L_case(psi, s, table) -> Case:
    return Case(
        "dirichlet_L",
        lambda tr: tr.call("special.dirichlet_L", special.dirichlet_L, s, psi),
        lambda v: rel_close(v, table.dirichlet_L(s, psi.modulus, psi.exponents), L_REL),
        known_defect=s.real < 0,
    )


def hurwitz_case(rng, table) -> Case:
    s = rng.choice(s_points_small(rng))
    q = rng.randint(2, 12)
    p = rng.randint(1, q)
    return Case(
        "hurwitz_zeta",
        lambda tr: tr.call("special.hurwitz_zeta", special.hurwitz_zeta, s, p / q),
        lambda v: rel_close(v, table.zeta(s, p, q), L_REL),
        known_defect=s.real < 0,
    )


def G_case(rng) -> Case:
    s = complex(rng.uniform(-4.0, 4.0), _band(rng, 0.0, 20.0))
    delta = rng.randrange(2)
    return Case(
        "G_delta",
        lambda tr: tr.call("special.G_delta", special.G_delta, s, delta),
        lambda v: rel_close(v, oracles.G(s, delta), G_REL),
    )


def enumerate_case(N) -> Case:
    def check(chars):
        if len(chars) != oracles.euler_phi(N) or len(set(chars)) != len(chars):
            return f"{len(chars)} characters mod {N}, expected phi(N) distinct ones"
        units = sorted(chars[0].exponents)
        for psi in chars:  # psi(ab) = psi(a) psi(b) on a few unit pairs
            for a, b in zip(units, reversed(units)):
                if psi.exponent(a * b) != (psi.exponent(a) + psi.exponent(b)) % 1:
                    return f"character mod {N} is not multiplicative at ({a}, {b})"
        return None

    return Case(
        "enumerate_characters",
        lambda tr: tr.call("characters.enumerate_characters", characters.enumerate_characters, N),
        check,
    )


def character_case(psi, ms) -> Case:
    N = psi.modulus

    def run(tr):
        tau = tr.call("characters.gauss_sum", characters.gauss_sum, psi)
        f = tr.call("characters.conductor", characters.conductor, psi)
        hats = [tr.call("characters.finite_fourier", characters.finite_fourier, psi, m) for m in ms]
        return tau, f, hats

    def check(out):
        tau, f, hats = out
        if N % f:
            return f"conductor {f} does not divide {N}"
        if f == N and abs(abs(tau) ** 2 - N) > 1e-9 * N:
            return f"|tau|^2 = {abs(tau) ** 2:.12g} != N = {N} for primitive psi"
        for m, h in zip(ms, hats):
            msg = rel_close(h, oracles.finite_fourier(N, psi.exponents, m), 1e-10, floor=N)
            if msg:
                return f"finite_fourier(m={m}): {msg}"
        return None

    return Case("character", run, check)


def coeff_row_case(params: EisParams, r1: int, table) -> Case:
    def run(tr):
        row = []
        for r2 in range(-BOX, BOX + 1):
            r = (r1, r2)
            wl = tr.call("eisenstein.coeff_wlong_cell", eisenstein.coeff_wlong_cell, params, r)
            big = tr.call("eisenstein.coeff_big_cell", eisenstein.coeff_big_cell, params, r)
            g = gcd(r1, r2)
            bf = tr.call("eisenstein.brute_force_c_r", eisenstein.brute_force_c_r, params, r, g) if g else None
            row.append((wl, big, bf))
        return row

    psi, nu, n = params.psi, complex(params.nu), params.n
    N = psi.modulus

    def check(row):
        for r2, (wl, big, bf) in zip(range(-BOX, BOX + 1), row):
            r = (r1, r2)
            if bf is None:  # r = 0: c_0 = N^{1-n} L(nu - n/2 + 1), a_0 by its closed form
                want_c = table.dirichlet_L(nu - n / 2 + 1, N, psi.exponents) / N ** (n - 1)
                want_a = 0j
                if psi.is_principal:
                    want_a = (complex(oracles.euler_phi(N) * table.zeta(nu - n / 2 + 1, 1, 1))
                              * complex(oracles.abs_pow(N, -nu - n / 2)))
                msg = rel_close(wl, want_c, L_REL) or rel_close(big, want_a, L_REL)
            else:
                msg = rel_close(wl, bf, 1e-9) or rel_close(
                    big, oracles.coeff_big_cell(n, nu, N, psi.exponents, r), 1e-9
                )
            if msg:
                return f"r={r}: {msg}"
        return None

    return Case("coeff_row", run, check)


def random_rep(rng, blocks):
    parts = []
    for _ in range(blocks):
        shift = complex(rng.uniform(-0.4, 0.4), rng.uniform(-2.0, 2.0))
        kind = rng.choice(("triv", "sgn", "D"))
        if kind == "triv":
            parts.append(gamma_factors.triv(shift))
        elif kind == "sgn":
            parts.append(gamma_factors.sgn(shift))
        else:
            parts.append(gamma_factors.discrete(rng.randint(2, 6), shift))
    return gamma_factors.boxplus(*parts)


def gamma_case(rng) -> Case:
    p, q = random_rep(rng, rng.randint(1, 4)), random_rep(rng, rng.randint(1, 3))
    s = complex(rng.uniform(1.0, 3.0), _band(rng, 0.0, 10.0))

    def run(tr):
        reps = [
            p,
            tr.call("gamma_factors.functors", gamma_factors.tensor, p, q),
            tr.call("gamma_factors.functors", gamma_factors.ext2, p),
            tr.call("gamma_factors.functors", gamma_factors.sym2, p),
        ]
        out = []
        for rep in reps:
            g = tr.call("gamma_factors.l_factors", gamma_factors.l_factors, rep)
            val = tr.call("gamma_factors.evaluate_gamma_product", gamma_factors.evaluate_gamma_product, g, s)
            out.append((rep.dimension, g.factors, val))
        return out

    def check(out):
        d, dq = p.dimension, q.dimension
        want_dims = [d, d * dq, d * (d - 1) // 2, d * (d + 1) // 2]
        for name, want_dim, (dim, factors, val) in zip(("std", "tensor", "ext2", "sym2"), want_dims, out):
            if dim != want_dim:
                return f"dim {name} = {dim}, expected {want_dim}"
            if sum(1 if kind == "R" else 2 for kind, _ in factors) != dim:
                return f"{name}: Gamma factors do not account for dimension {dim}"
            msg = rel_close(val, oracles.gamma_product(factors, s), 1e-9, floor=0.0)
            if msg:
                return f"{name} Gamma product: {msg}"
        return None

    return Case("gamma_calculus", run, check)


def build(rng, small: bool = False) -> list[Case]:
    table = oracles.HurwitzTable()
    small_moduli, medium, large = list(SMALL_MODULI), MEDIUM_MODULUS, LARGE_MODULUS
    if small:
        small_moduli, medium, large = small_moduli[:1], None, None
    chars = {N: characters.enumerate_characters(N) for N in small_moduli + [medium, large] if N}

    cases = [enumerate_case(N) for N in chars]
    for N, psis in chars.items():
        for psi in psis:
            cases.append(character_case(psi, [rng.randrange(N), rng.randrange(N)]))
    for N in small_moduli:
        for s in s_points_small(rng):
            cases += [L_case(psi, s, table) for psi in chars[N]]
    if medium:
        for s in (complex(rng.uniform(0.5, 3.0), _band(rng, 95.0, 100.0)),
                  complex(rng.uniform(1.1, 3.0), _band(rng, 0.0, LOW_IM))):
            cases += [L_case(psi, s, table) for psi in chars[medium]]
    if large:
        s = complex(rng.uniform(1.1, 3.0), _band(rng, 0.0, LOW_IM))
        cases += [L_case(psi, s, table) for psi in chars[large]]
    cases += [hurwitz_case(rng, table) for _ in range(2 if small else N_HURWITZ)]
    cases += [G_case(rng) for _ in range(2 if small else N_G)]

    for _ in range(1 if small else 2):
        psi = rng.choice(chars[rng.choice(small_moduli)])
        params = EisParams(3, complex(rng.uniform(1.6, 3.0), _band(rng, 0.0, 5.0)), psi, psi.parity)
        rows = (0, 1) if small else range(-BOX, BOX + 1)
        cases += [coeff_row_case(params, r1, table) for r1 in rows]
    cases += [gamma_case(rng) for _ in range(2 if small else N_GAMMA)]
    return cases
