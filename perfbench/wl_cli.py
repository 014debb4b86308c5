"""cli-cold: fresh-process `mirabolic` CLI invocations, one after another
(a closed loop with one client).  This is what a CLI user waits for:
interpreter start, importing mirabolic.cli (mostly scipy), then the command.
Every invocation starts cold, so the scipy import and the lazy lru_caches
are paid each time, as they are by every CLI user.

Per pass: `chars --list` for moduli 1000 and 1100, one as JSON and one as
CSV (the one CSV run); these are the slow invocations, 2 cases in 10, so
case_p90_ms is their median.  Then `chars --index --gauss --conductor --fft`,
`eis --r-box`, `gamma` with each functor, and `verify --suite fe` /
`--suite oscillatory`.  Children run with
sys.executable and the checkout's src on PYTHONPATH, so they measure the
checked-out tree.  When traced, each child runs through cli_child.py, which
adds spans around the CLI's calls into the library layers.

Checks: exit code 0; the JSON envelope (version, command, inputs, result)
or the CSV table parses; plus cheap semantic checks (character count =
phi(N), |tau|^2 = N when primitive, functor dimensions, verify pass).
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from dataclasses import dataclass

import oracles
from harness import SPANS_PREFIX, Case, child_env, run_child

HERE = os.path.dirname(os.path.abspath(__file__))
LIST_MODULI = (1000, 1100)  # phi = 400, three cyclic factors each
INDEX_MODULI = (104, 105, 112, 130, 140, 144, 156, 168, 180, 210)  # phi = 48
COMMANDS = ("chars", "eis", "gamma", "verify")


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: str
    stderr: str


def invoke(tr, args: list[str], env: dict) -> CliResult:
    command = next(a for a in args if a in COMMANDS)
    if tr.enabled:
        argv = [sys.executable, os.path.join(HERE, "cli_child.py"), *args]
    else:
        argv = [sys.executable, "-m", "mirabolic.cli", *args]
    proc = tr.call(f"cli.{command}", run_child, argv, env)
    stderr = proc.stderr
    if tr.enabled:
        kept = []
        for line in stderr.splitlines():
            if line.startswith(SPANS_PREFIX):
                tr.merge(json.loads(line[len(SPANS_PREFIX):]))
            else:
                kept.append(line)
        stderr = "\n".join(kept)
    return CliResult(proc.returncode, proc.stdout, stderr)


def parse_envelope(res: CliResult, command: str):
    """(envelope, None) when the invocation succeeded with a JSON envelope."""
    if res.returncode != 0:
        return None, f"exit code {res.returncode}: {res.stderr.strip()[-200:]}"
    try:
        env = json.loads(res.stdout)
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"
    if not {"version", "command", "inputs", "result"} <= set(env) or env["command"] != command:
        return None, f"bad envelope keys {sorted(env)}"
    return env, None


def parse_csv(res: CliResult):
    if res.returncode != 0:
        return None, f"exit code {res.returncode}: {res.stderr.strip()[-200:]}"
    rows = list(csv.reader(io.StringIO(res.stdout)))
    if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
        return None, "CSV is empty or ragged"
    return rows, None


def cli_case(kind: str, args: list[str], env: dict, check) -> Case:
    return Case(kind, lambda tr: invoke(tr, args, env), check)


def _rep_text(rng, blocks) -> tuple[str, int]:
    parts, dim = [], 0
    for _ in range(blocks):
        re_, im_ = rng.uniform(-0.4, 0.4), rng.uniform(-2.0, 2.0)
        kind = rng.choice(("triv", "sgn", "D"))
        name = f"D{rng.randint(2, 6)}" if kind == "D" else kind
        dim += 2 if kind == "D" else 1
        parts.append(f"{name}[{re_:.4f},{im_:.4f}]")
    return "+".join(parts), dim


def build(rng, src_dir: str, small: bool = False) -> list[Case]:
    env = child_env(src_dir)
    cases = []

    def list_check(N, fmt):
        def check(res):
            if fmt == "json":
                env_, err = parse_envelope(res, "chars")
                if err:
                    return err
                count, listed = env_["result"]["count"], len(env_["result"]["characters"])
            else:
                rows, err = parse_csv(res)
                if err:
                    return err
                count = int(dict(rows[1:]).get("count", -1))
                listed = sum(1 for key, _ in rows[1:] if key.endswith("].modulus"))
            if count != oracles.euler_phi(N) or listed != count:
                return f"listed {listed} of {count} characters mod {N}, expected phi(N)"
            return None
        return check

    if not small:
        # `chars --list` near modulus 1000 as JSON and as CSV (the one CSV
        # run): the two slow cases, 20% of the total, so case_p90_ms is
        # their median.  Both moduli run in every pass and the seed picks
        # which one is listed as CSV, so the work does not vary with the seed.
        for fmt, N in zip(("json", "csv"), rng.sample(LIST_MODULI, 2)):
            cases.append(cli_case(f"chars --list ({fmt})",
                                  ["--format", fmt, "chars", "--modulus", str(N), "--list"],
                                  env, list_check(N, fmt)))

    N = rng.choice(INDEX_MODULI)
    index, m = rng.randrange(48), rng.randrange(N)

    def index_check(res):
        env_, err = parse_envelope(res, "chars")
        if err:
            return err
        out = env_["result"]
        tau = complex(out["gauss_sum"]["re"], out["gauss_sum"]["im"])
        if out["is_primitive"] and abs(abs(tau) ** 2 - N) > 1e-9 * N:
            return f"|tau|^2 = {abs(tau) ** 2} for a primitive character mod {N}"
        return None

    cases.append(cli_case("chars --index", ["chars", "--modulus", str(N), "--index", str(index),
                                            "--gauss", "--conductor", "--fft", str(m)], env, index_check))
    if not small:
        M = rng.choice((5, 7, 8, 12))
        nu = f"{rng.uniform(1.6, 3.0):.4f},{rng.uniform(-5.0, 5.0):.4f}"
        box = 6

        def eis_check(res):
            env_, err = parse_envelope(res, "eis")
            if err:
                return err
            if len(env_["result"]["rows"]) != (2 * box + 1) ** 2:
                return "r-box has the wrong number of rows"
            return None

        cases.append(cli_case("eis --r-box", ["eis", "--n", "3", "--nu", nu, "--modulus", str(M),
                                              "--char-index", str(rng.randrange(oracles.euler_phi(M))),
                                              "--r-box", str(box)], env, eis_check))

    # At least two blocks: Ext^2 of a one-dimensional rep is empty, and
    # `gamma --functor ext2 --embedding` then exits 1 with a ValueError
    # traceback (a CLI defect recorded in CHANGES.md, not benchmarked here).
    rep, d = _rep_text(rng, rng.randint(2, 4))
    other, d_other = _rep_text(rng, rng.randint(1, 3))
    s = f"{rng.uniform(1.0, 3.0):.4f},{rng.uniform(-10.0, 10.0):.4f}"
    dims = {"std": d, "tensor": d * d_other, "ext2": d * (d - 1) // 2, "sym2": d * (d + 1) // 2}
    for functor in ("std", "sym2") if small else ("std", "tensor", "ext2", "sym2"):
        args = ["gamma", "--rep", rep, "--functor", functor, "--eval", s, "--embedding"]
        if functor == "tensor":
            args += ["--other", other]

        def gamma_check(res, want=dims[functor]):
            env_, err = parse_envelope(res, "gamma")
            if err:
                return err
            if env_["result"]["dimension"] != want:
                return f"dimension {env_['result']['dimension']}, expected {want}"
            return None

        cases.append(cli_case(f"gamma {functor}", args, env, gamma_check))

    if not small:
        for suite in ("fe", "oscillatory"):
            def verify_check(res):
                env_, err = parse_envelope(res, "verify")
                if err:
                    return err
                return None if env_["result"]["pass"] is True else "verify reported a failing case"

            cases.append(cli_case(f"verify {suite}", ["verify", "--suite", suite], env, verify_check))
    return cases
