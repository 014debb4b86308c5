"""Fast self-check of the benchmark harness (about half a minute).

Usage: python3 perfbench/selfcheck.py   (from the root of a checkout)

For every workload: builds a small case list, runs one untraced and two
traced passes, and requires that every output passes its check (outside
the known-defect domain), that outputs and evaluation counts repeat exactly,
and that the checker rejects a perturbed output of each case kind (one case
of each kind that only the full list has runs once for this).  Also
checks the cached L-value oracle against mpmath.dirichlet, that
BENCHMARK.json names exactly the metrics run.py emits, and that run.py fails
without a source tree.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import run

run.load_library()

import oracles  # noqa: E402
from harness import CaseError, NullTracer, Outcomes, Tracer, run_pass  # noqa: E402
from mirabolic.characters import DirichletCharacter, enumerate_characters  # noqa: E402
from wl_cli import CliResult  # noqa: E402


def perturb(out):
    """A copy of a case output with one value made wrong."""
    if isinstance(out, CliResult):
        return CliResult(out.returncode, out.stdout[: len(out.stdout) // 2], out.stderr)
    if isinstance(out, (complex, float, np.ndarray)):
        return out + 1e-2 * np.maximum(1.0, np.abs(out))
    if isinstance(out, list) and out and isinstance(out[0], DirichletCharacter):
        return out[:-1]
    if isinstance(out, tuple):
        return out[:-1] + (perturb(out[-1]),)
    if isinstance(out, list):
        return [perturb(out[0])] + out[1:]
    raise TypeError(f"no perturbation for {type(out).__name__}")


def check_workload(name: str) -> list[str]:
    problems = []
    cases, _ = run.build_cases(name, seed=0, small=True)
    plain, _ = run_pass(cases, NullTracer())
    tracers = [Tracer(), Tracer()]
    traced = [run_pass(cases, tr)[0] for tr in tracers]
    outcomes = Outcomes(cases)
    for outs in (plain, *traced):
        outcomes.add(outs)
    for case, why in outcomes.failures():
        if not case.known_defect:
            problems.append(f"{name}: {case.kind} failed its check: {why}")
    for i, case in enumerate(cases):
        if any(not same(plain[i], t[i]) for t in traced):
            problems.append(f"{name}: {case.kind} output differs between passes")
    if tracers[0].counters != tracers[1].counters:
        problems.append(f"{name}: counters differ between traced passes")
    # The checker must reject a perturbed output of every case kind.  Kinds
    # that only the full case list has run here once, untraced.
    extra = {}
    for case in run.build_cases(name, seed=0)[0]:
        if case.kind not in {c.kind for c in cases}:
            extra.setdefault(case.kind, case)
    extra_out, _ = run_pass(list(extra.values()), NullTracer())
    perturbed = set()
    for case, out in [*zip(cases, plain), *zip(extra.values(), extra_out)]:
        if case.kind in perturbed or isinstance(out, CaseError) or case.check(out):
            continue
        perturbed.add(case.kind)
        verdict = case.check(perturb(out))
        if verdict is None:
            problems.append(f"{name}: checker accepted a perturbed {case.kind} output")
        else:
            print(f"{name}: perturbed {case.kind} output rejected: {verdict}")
    for kind in sorted(({c.kind for c in cases} | set(extra)) - perturbed):
        problems.append(f"{name}: no {kind} output passed its check, so its checker was not tested")
    print(f"{name}: {len(cases)} cases, counters {dict(tracers[0].counters)}")
    return problems


def same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def check_oracle() -> list[str]:
    import mpmath as mp

    psi = enumerate_characters(12)[3]
    s = 0.7 + 5j
    chi = [0 if psi.exponent(a) is None else oracles.e_frac(psi.exponent(a)) for a in range(12)]
    want = mp.dirichlet(mp.mpc(s.real, s.imag), chi)
    got = oracles.HurwitzTable().dirichlet_L(s, 12, psi.exponents)
    return [] if abs(got - want) < 1e-25 else [f"L oracle differs from mpmath.dirichlet by {abs(got - want)}"]


def check_benchmark_json() -> list[str]:
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != run.per_layer_units():
        problems.append("BENCHMARK.json per_layer differs from run.per_layer_units()")
    return problems


def check_no_source_tree() -> list[str]:
    """run.py must fail, without printing a result, beside no src/."""
    os.makedirs(run.TRACE_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selfcheck-", dir=run.TRACE_DIR)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "arith", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=scratch, env=env, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(scratch)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"run.py without a source tree exited {proc.returncode} and printed {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    problems = check_oracle() + check_benchmark_json() + check_no_source_tree()
    for name in run.WORKLOADS:
        problems += check_workload(name)
    for p in problems:
        print("FAIL " + p)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
