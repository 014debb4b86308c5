"""intertwine: the n = 2 intertwining operators, the Tier-1 bottleneck.

Per pass: intertwine_compose_n2 on two bumps x two x-points at nu = 0.6
(abs 1e-8, rel 1e-6, the acceptance-test configuration), one point at
nu = 0.8+0.5i at rel 1e-4, and intertwine_apply_n2 on a y-grid that runs
from inside the support to the far field: the first bump at both nu, the
second at nu = 0.6.  Nearly all of the
time is nested quadrature inside compose, so reusing the inner operator
across x-points shows here and nowhere else.

Checks: the composition ratio (I_{-nu} I~_nu f)(x) / f(x) against
G_0(nu) G_0(-nu), and each apply value against a tanh-sinh quadrature in
mpmath, both within 10x the requested tolerance.
"""

from __future__ import annotations

from mirabolic import fe_verify
from mirabolic.fe_verify import Bump, QuadratureConfig

import oracles
from harness import Case

CFG = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-6)
CFG_COMPLEX_NU = QuadratureConfig(abs_tol=1e-6, rel_tol=1e-4)
NU_REAL, NU_COMPLEX = 0.6, 0.8 + 0.5j


class CountingBump(Bump):
    """A Bump that counts calls to itself and its derivative into a tracer."""

    def __init__(self, center, width, tracer, counter):
        super().__init__(center, width)
        self._tracer, self._counter = tracer, counter

    def __call__(self, x):
        self._tracer.count(self._counter)
        return super().__call__(x)

    def derivative(self, x):
        self._tracer.count(self._counter)
        return super().derivative(x)


def make_bump(tracer, center, width, counter):
    """The test function handed to the library: counting when traced."""
    if tracer.enabled:
        return CountingBump(center, width, tracer, counter)
    return Bump(center, width)


def compose_case(center, width, nu, x, cfg) -> Case:
    def run(tr):
        f = make_bump(tr, center, width, "fe_verify.f_evals.compose")
        out = tr.call("fe_verify.compose", fe_verify.intertwine_compose_n2, f, nu, 0, [x], cfg)
        tr.count("fe_verify.compose_points")
        return complex(out[0])

    def check(value):
        ratio = value / Bump(center, width)(x)
        want = complex(oracles.compose_scalar(nu))
        err = abs(ratio / want - 1)
        tol = 10 * cfg.rel_tol
        return None if err <= tol else f"composition ratio off by {err:.3g} (> {tol:.3g})"

    return Case(f"compose nu={nu}", run, check)


def apply_case(center, width, nu, ys, cfg) -> Case:
    def run(tr):
        f = make_bump(tr, center, width, "fe_verify.f_evals.apply")
        return tr.call("fe_verify.apply", fe_verify.intertwine_apply_n2, f, nu, 0, ys, cfg)

    def check(values):
        for y, v in zip(ys, values):
            want = complex(oracles.intertwine_apply(center, width, nu, y))
            err = abs(complex(v) - want)
            tol = 10 * max(cfg.abs_tol, cfg.rel_tol * abs(want))
            if err > tol:
                return f"apply at y={y:.4g} off by {err:.3g} (> {tol:.3g})"
        return None

    return Case(f"apply nu={nu}", run, check)


def build(rng, small: bool = False) -> list[Case]:
    # The compose inputs are the acceptance test's (its bumps and x-points):
    # adaptive nested quadrature makes the work jump with small changes of
    # x, so the seed draws only the apply y-grid and the case order.
    bumps, xs = [(0.0, 1.0), (0.3, 0.7)], [-0.2, 0.1]
    # inside the support, just outside it, and the far field on both sides
    ys = [rng.uniform(-0.9, 0.9), rng.uniform(1.1, 3.0), -rng.uniform(1.1, 3.0),
          -rng.uniform(20.0, 40.0), rng.uniform(40.0, 80.0), rng.uniform(100.0, 200.0)]
    if small:
        return [compose_case(*bumps[0], NU_REAL, xs[0], CFG), apply_case(*bumps[0], NU_REAL, ys, CFG)]
    cases = [compose_case(c, w, NU_REAL, x, CFG) for c, w in bumps for x in xs]
    cases.append(compose_case(*bumps[0], NU_COMPLEX, xs[0], CFG_COMPLEX_NU))
    # Three apply cases (a few ms each) put the pass median of the case
    # latencies in the middle of the two cheaper nu = 0.6 compose points,
    # rather than on the edge between them and the two costlier ones.
    cases += [apply_case(*bumps[0], nu, ys, CFG) for nu in (NU_REAL, NU_COMPLEX)]
    cases.append(apply_case(*bumps[1], NU_REAL, ys, CFG))
    rng.shuffle(cases)
    return cases
