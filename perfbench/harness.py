"""Case execution, tracing and summary statistics shared by the workloads.

A workload is a fixed list of ``Case`` objects built from the seed.  A pass
runs every case once, in order, in this process; each case's wall time is
one latency sample.  Outputs are checked after the passes, outside the
timed region, against each case's independent route.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import statistics
import subprocess
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

from mirabolic.errors import ToleranceNotMetError

# Traced CLI children report their span totals on stderr after this prefix.
SPANS_PREFIX = "perfbench-spans "
CHILD_TIMEOUT_S = 120


def child_env(src_dir: str) -> dict:
    """Environment for child interpreters: this process's (run.py has
    removed the MIRABOLIC_* overrides) with the checkout's src first on
    PYTHONPATH, so children import the checked-out tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    """Run a child to completion; on timeout subprocess.run kills and reaps it."""
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


@dataclass
class Case:
    """One certified result from the library, or one CLI invocation.

    run: the timed work; receives the pass's tracer and returns the output.
    check: the independent route; returns None when the output agrees,
        else a one-line description of the disagreement.
    known_defect: the input lies in a documented defect domain (dirichlet_L
        and hurwitz_zeta at Re s < 0, ROADMAP item 5).  Such a case still
        counts in `failed` when its check fails, but does not make the run
        incorrect.
    """

    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any], Optional[str]]
    known_defect: bool = False


@dataclass(frozen=True)
class CaseError:
    """Output slot of a case whose run raised."""

    error: str
    message: str


class NullTracer:
    """Tracing off: layer calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass


class Tracer:
    """Spans around the calls into each layer, plus counters.

    A span is (name, start, end, case id); spans of one case share the case
    id.  Only the outermost layer call is recorded, so a layer function that
    calls another traced function (possible where module attributes are
    wrapped, as in cli_child.py) is timed once, at the boundary.
    """

    enabled = True

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.merged: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        self.case_id = -1
        self._inside = False

    def call(self, name, fn, *args, **kwargs):
        if self._inside:
            return fn(*args, **kwargs)
        self._inside = True
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, time.perf_counter(), self.case_id))
            self._inside = False

    def count(self, name, n=1):
        self.counters[name] += n

    def merge(self, totals: dict):
        """Add span totals {name: [calls, seconds]} recorded in a child process."""
        for name, (calls, secs) in totals.items():
            self.merged[name][0] += calls
            self.merged[name][1] += secs

    def totals(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        for name, start, end, _ in self.spans:
            out[name][0] += 1
            out[name][1] += end - start
        for name, (calls, secs) in self.merged.items():
            out[name][0] += calls
            out[name][1] += secs
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]


def run_pass(cases: list[Case], tracer) -> tuple[list, list[float]]:
    """Run every case once; return (outputs, per-case seconds)."""
    outputs, seconds = [], []
    for i, case in enumerate(cases):
        if tracer.enabled:
            tracer.case_id = i
        start = time.perf_counter()
        try:
            out = case.run(tracer)
        except Exception as exc:  # a case that raises is a failed case; the run goes on
            if isinstance(exc, ToleranceNotMetError):
                tracer.count("fe_verify.tolerance_not_met")
            out = CaseError(type(exc).__name__, str(exc))
        end = time.perf_counter()
        if tracer.enabled:
            tracer.spans.append((f"case.{case.kind}", start, end, i))
        seconds.append(end - start)
        outputs.append(out)
    return outputs, seconds


class Outcomes:
    """The outputs of every pass, reduced to digests; each distinct output is
    kept once, so memory does not grow with the number of passes and the
    independent routes run once per distinct output.  arith repeats its ~300
    cases about 60 times a run (on a 2-core x86-64 host): keeping every
    output raised its peak_rss_mb from 90 to 127 MB, and checking every
    repeat would add about 0.7 s per pass."""

    def __init__(self, cases: list[Case]):
        self.cases = cases
        self.passes: list[list[tuple[int, bytes]]] = []
        self.distinct: dict[tuple[int, bytes], Any] = {}

    def add(self, outputs: list) -> None:
        keys = []
        for i, out in enumerate(outputs):
            key = (i, hashlib.sha1(pickle.dumps(out)).digest())
            self.distinct.setdefault(key, out)
            keys.append(key)
        self.passes.append(keys)

    def failures(self) -> list[tuple[Case, str]]:
        """(case, reason) for every case whose output failed its check in
        some pass, once per case: a case is one operation however many
        passes timed it, so the counts depend on the seed only."""
        failed: dict[int, str] = {}
        for (i, _), out in self.distinct.items():
            if i in failed:
                continue
            if isinstance(out, CaseError):
                why = f"raised {out.error}: {out.message}"
            else:
                why = self.cases[i].check(out)
            if why:
                failed[i] = why
        return [(self.cases[i], why) for i, why in sorted(failed.items())]


def median(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    """90th percentile (statistics.quantiles, exclusive method)."""
    return float(statistics.quantiles(values, n=10)[8])


def rel_close(got, want, rel: float, floor: float = 1.0) -> Optional[str]:
    """None when |got - want| <= rel * max(floor, |want|), else a message."""
    err = abs(complex(got) - complex(want))
    tol = rel * max(floor, abs(complex(want)))
    if err <= tol:
        return None
    return f"|got - want| = {err:.3g} > {tol:.3g} (got {complex(got):.12g}, want {complex(want):.12g})"
