"""The mirabolic benchmark: end-to-end and per-layer numbers for four workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/selfcheck.py          # fast self-check of the harness

Workloads (see each wl_*.py for why it was chosen):
    quad-certify  certified quadrature: 32 flat cases + 8 nested n = 3 ones
    intertwine    n = 2 intertwining compose/apply (the Tier-1 bottleneck)
    arith         characters, L-values, coefficients, Gamma calculus; no quadrature
    cli-cold      fresh-process `mirabolic` CLI invocations, one client

A run builds the workload's fixed case list from the seed, then repeats it
(a pass) until --seconds have passed, ending at the pass boundary nearest to
it, and at least twice (intertwine: three times), one case at a time in a
single process with no threads.  Outputs are checked afterwards,
outside the timed region, against independent routes (mostly mpmath).

--trace 0 reports the end-to-end metrics: setup_s (import of mirabolic.cli
plus input generation; median of three set-ups: this process's, and two
fresh processes' after the passes), wall_s (median pass time), case_p50_ms /
case_p90_ms (over every case run in the run's passes; the sample count is
printed), and peak_rss_mb (this process, or for cli-cold the largest CLI
child; read before the set-up children run).  --trace 1 alternates
untraced and traced passes and reports the per-layer metrics: calls and
seconds of each traced layer function per pass, test-function evaluation
counts, CLI start-up probes, and trace.overhead_s = traced minus untraced
median pass time.  Spans are written to .perfbench/ when the run ends.

The lazy lru_caches (_unit_group_structure, _bernoulli) are not warmed
before timing: in-process workloads fill them in their first pass, and every
cli-cold case starts a fresh interpreter and pays them, and the scipy
import, again.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  `attempted` is the number of cases in the seed's list
and `failed` the number of them that raised or failed their check in some
pass, so both depend on the seed only, not on how many passes fit;
`correct` is false when any failure lies outside the documented
known-defect domain (dirichlet_L / hurwitz_zeta at Re s < 0).
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench")
CLEARED_ENV = ("MIRABOLIC_PRECISION", "MIRABOLIC_NO_EXT")
WORKLOADS = {
    "quad-certify": "wl_quad",
    "intertwine": "wl_intertwine",
    "arith": "wl_arith",
    "cli-cold": "wl_cli",
}
# At least this many passes per run (default 2).  An intertwine pass takes
# 7-11 s; three of them make its wall_s a median over more of the host's
# speed swings than two would.
MIN_PASSES = {"intertwine": 3}
SETUP_SAMPLES = 3
PROBE_SAMPLES = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "case_p50_ms": "ms",
    "case_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_SPANS = (
    "characters.enumerate_characters",
    "characters.gauss_sum",
    "characters.conductor",
    "characters.finite_fourier",
    "special.dirichlet_L",
    "special.hurwitz_zeta",
    "special.G_delta",
    "eisenstein.coeff_wlong_cell",
    "eisenstein.coeff_big_cell",
    "eisenstein.brute_force_c_r",
    "gamma_factors.functors",
    "gamma_factors.l_factors",
    "gamma_factors.evaluate_gamma_product",
    "gamma_factors.embedding_params",
    "fe_verify.beta_like_n2",
    "fe_verify.beta_like_n3",
    "fe_verify.oscillatory",
    "fe_verify.h_integral",
    "fe_verify.compose",
    "fe_verify.apply",
)
CLI_COMMANDS = ("chars", "eis", "gamma", "verify")


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in LAYER_SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.s"] = "s"
    units["fe_verify.f_evals"] = "count"
    units["fe_verify.f_evals_per_point"] = "evals/point"
    units["fe_verify.tolerance_not_met"] = "count"
    units["cli.interpreter_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    for command in CLI_COMMANDS:
        units[f"cli.{command}.ms"] = "ms"
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# set-up


def load_library():
    """Import mirabolic.cli from the checkout's src; return seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "mirabolic", "__init__.py")):
        raise SystemExit(f"error: no mirabolic source tree under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import mirabolic.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    import mirabolic

    if not os.path.abspath(mirabolic.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported mirabolic from {mirabolic.__file__}, not {SRC}")
    return elapsed


def build_cases(workload: str, seed: int, small: bool = False):
    """The workload's case list for a seed; returns (cases, seconds)."""
    import mpmath  # noqa: F401  (the checks' dependency, kept out of the timing)

    module = importlib.import_module(WORKLOADS[workload])
    rng = random.Random(f"{workload}:{seed}")
    start = time.perf_counter()
    if workload == "cli-cold":
        cases = module.build(rng, SRC, small)
    else:
        cases = module.build(rng, small)
    return cases, time.perf_counter() - start


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    """A helper child (set-up or start-up probe) that must succeed."""
    import harness

    proc = harness.run_child(argv, harness.child_env(SRC))
    if proc.returncode != 0:
        raise SystemExit(f"error: {argv[1:]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of one fresh process (import plus input generation)."""
    proc = run_child([sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)])
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def cli_probes() -> dict[str, float]:
    """Median bare-interpreter start and in-child import of mirabolic.cli."""
    interp, imports = [], []
    code = "import time; t = time.perf_counter(); import mirabolic.cli; print(time.perf_counter() - t)"
    for _ in range(PROBE_SAMPLES):
        start = time.perf_counter()
        run_child([sys.executable, "-c", "pass"])
        interp.append(time.perf_counter() - start)
        imports.append(float(run_child([sys.executable, "-c", code]).stdout))
    from harness import median

    return {"cli.interpreter_ms": 1e3 * median(interp), "cli.import_ms": 1e3 * median(imports)}


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    try:
        from mirabolic import _kernels

        kernels = _kernels.IMPLEMENTATION
    except ImportError:
        kernels = "absent"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "kernels_implementation": kernels,
        "cython": importlib.util.find_spec("Cython") is not None,
        "cleared_env": list(CLEARED_ENV),
        "caches_warmed_before_timing": False,
    }


# ---------------------------------------------------------------------------
# measurement


def measure(cases, seconds: float, trace: bool, min_passes: int):
    """Repeat the case list until `seconds` have passed, ending at the pass
    boundary nearest to it, and at least `min_passes` times.  With trace, odd
    passes are traced; latencies come from untraced passes only."""
    from harness import NullTracer, Outcomes, Tracer, median, run_pass

    null, tracer, outcomes = NullTracer(), Tracer(), Outcomes(cases)
    plain_walls, traced_walls, latencies = [], [], []
    start = time.perf_counter()
    while (len(outcomes.passes) < min_passes
           or time.perf_counter() - start + median(plain_walls + traced_walls) / 2 < seconds):
        traced = trace and len(outcomes.passes) % 2 == 1
        t0 = time.perf_counter()
        outs, secs = run_pass(cases, tracer if traced else null)
        wall = time.perf_counter() - t0
        (traced_walls if traced else plain_walls).append(wall)
        if not traced:
            latencies += secs
        outcomes.add(outs)
    return plain_walls, traced_walls, latencies, outcomes, tracer


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def layer_metrics(tracer, n_traced: int, plain_walls, traced_walls, probes) -> dict:
    from harness import median

    totals = tracer.totals()
    out = {}
    for span in LAYER_SPANS:
        calls, secs = totals.get(span, (0, 0.0))
        out[f"{span}.calls"] = calls / n_traced
        out[f"{span}.s"] = secs / n_traced
    c = tracer.counters
    compose_evals = c["fe_verify.f_evals.compose"] / n_traced
    points = c["fe_verify.compose_points"] / n_traced
    out["fe_verify.f_evals"] = compose_evals + c["fe_verify.f_evals.apply"] / n_traced
    out["fe_verify.f_evals_per_point"] = compose_evals / points if points else 0.0
    out["fe_verify.tolerance_not_met"] = c["fe_verify.tolerance_not_met"] / n_traced
    out.update(probes)
    for command in CLI_COMMANDS:
        durations = tracer.durations(f"cli.{command}")
        out[f"cli.{command}.ms"] = 1e3 * median(durations) if durations else 0.0
    out["trace.overhead_s"] = median(traced_walls) - median(plain_walls)
    return out


def write_spans(workload: str, seed: int, cases, tracer, t_origin: float) -> str:
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "cases": [c.kind for c in cases],
                "spans": [[n, s - t_origin, e - t_origin, i] for n, s, e, i in tracer.spans],
                "child_totals": tracer.merged,
            },
            fh,
        )
    return path


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    t_origin = time.perf_counter()
    import_s = load_library()
    cases, gen_s = build_cases(workload, seed)
    env = environment()
    print("# environment " + json.dumps(env))

    from harness import median, p90

    plain_walls, traced_walls, latencies, outcomes, tracer = measure(
        cases, seconds, trace, MIN_PASSES.get(workload, 2))
    # Read before any helper child runs: for cli-cold it is the largest CLI child.
    rss = peak_rss_mb(workload)
    probes, setups = {}, [import_s + gen_s]
    if trace:
        probes = cli_probes()
    else:
        setups += [setup_probe(workload, seed) for _ in range(SETUP_SAMPLES - 1)]

    failures = outcomes.failures()
    attempted = len(cases)  # each case once, however many passes timed it
    unexpected = [(c, why) for c, why in failures if not c.known_defect]

    print(f"# workload {workload} seed {seed}: {len(outcomes.passes)} passes of {len(cases)} cases "
          f"({len(plain_walls)} untraced, {len(traced_walls)} traced)")
    if trace:
        metrics = layer_metrics(tracer, len(traced_walls), plain_walls, traced_walls, probes)
        units = per_layer_units()
        print("# spans written to " + write_spans(workload, seed, cases, tracer, t_origin))
    else:
        metrics = {
            "setup_s": median(setups),
            "wall_s": median(plain_walls),
            "case_p50_ms": 1e3 * median(latencies),
            "case_p90_ms": 1e3 * p90(latencies),
            "peak_rss_mb": rss,
        }
        units = END_TO_END
        print(f"# setup_s samples {['%.4f' % s for s in setups]}; pass walls "
              f"{['%.3f' % w for w in plain_walls]}; latency samples n={len(latencies)}")
    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6g} {units[name]}")
    print(f"{'fail_frac':44s} {len(failures) / attempted:14.6g} "
          f"({len(failures)} of {attempted} attempted; {len(failures) - len(unexpected)} in the "
          f"known-defect domain, {len(unexpected)} unexpected)")
    for case, why in (unexpected or failures)[:5]:
        print(f"# {'UNEXPECTED' if not case.known_defect else 'known defect'} {case.kind}: {why}")

    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in a fresh process; prints one table."""
    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"\n{'workload':14s} {'metric':44s} {'value':>14s} unit")
    for workload, res in results.items():
        for name, m in res["metrics"].items():
            print(f"{workload:14s} {name:44s} {m['value']:14.6g} {m['unit']}")
        print(f"{workload:14s} {'fail_frac':44s} {res['failed'] / res['attempted']:14.6g} "
              f"({res['failed']}/{res['attempted']}, correct={res['correct']})")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mirabolic benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.setup_probe:
        import_s = load_library()
        _, gen_s = build_cases(args.workload, args.seed)
        print(json.dumps({"setup_s": import_s + gen_s}))
        return 0
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
