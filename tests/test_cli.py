"""CLI tests: envelope structure, JSON and CSV output, and exit codes.

main() is exercised in-process with capsys; fast suites only."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mirabolic
from mirabolic import __version__
from mirabolic.cli import EXIT_DOMAIN, EXIT_FAIL, EXIT_OK, EXIT_USAGE, _emit, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chars_list_envelope(capsys):
    code, out, err = run(capsys, "chars", "--modulus", "5", "--list")
    assert code == EXIT_OK and err == ""
    env = json.loads(out)
    assert env["version"] == __version__
    assert env["command"] == "chars"
    assert env["inputs"] == {"modulus": 5}
    assert env["result"]["count"] == 4
    assert len(env["result"]["characters"]) == 4


def test_chars_index_with_gauss_and_conductor(capsys):
    code, out, _ = run(
        capsys,
        "chars", "--modulus", "4", "--index", "1",
        "--gauss", "--conductor", "--fft", "1",
    )
    assert code == EXIT_OK
    env = json.loads(out)
    r = env["result"]
    assert r["conductor"] == 4 and r["is_primitive"] is True
    # odd character mod 4: psi-hat(1) = 2i, tau = gauss sum with |tau|^2 = 4
    assert abs(r["fft"]["im"] - 2.0) < 1e-10
    assert abs(r["gauss_sum"]["re"] ** 2 + r["gauss_sum"]["im"] ** 2 - 4) < 1e-9


def test_chars_usage_error(capsys):
    code, out, err = run(capsys, "chars", "--modulus", "5")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_eis_single_coefficient(capsys):
    code, out, _ = run(
        capsys, "eis", "--n", "2", "--nu", "3", "--modulus", "1", "--r", "4"
    )
    assert code == EXIT_OK
    env = json.loads(out)
    assert env["result"]["r"] == [4]
    assert abs(env["result"]["value"]["re"] - 1.140625) < 1e-10


def test_eis_r_box_csv(capsys):
    code, out, _ = run(
        capsys,
        "--format", "csv",
        "eis", "--n", "2", "--nu", "3", "--modulus", "1", "--r-box", "2",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "r1,re,im"
    assert len(lines) == 1 + 5  # r in -2..2


def test_eis_pole_is_domain_error(capsys):
    code, out, err = run(
        capsys, "eis", "--n", "2", "--nu", "1", "--modulus", "1", "--r", "0"
    )
    assert code == EXIT_DOMAIN
    payload = json.loads(err)
    assert payload["error"] == "PoleError"


def test_gamma_ext2_with_eval(capsys):
    code, out, _ = run(
        capsys,
        "gamma", "--rep", "D2+D3", "--functor", "ext2", "--eval", "1.5",
    )
    assert code == EXIT_OK
    env = json.loads(out)
    r = env["result"]
    # Ext^2(D2+D3) = triv + sgn + D4 + D2, dimension 6
    assert r["dimension"] == 6
    kinds = sorted(f["kind"] for f in r["factors"])
    assert kinds == ["C", "C", "R", "R"]
    assert "value" in r


@pytest.mark.parametrize(
    "argv",
    [
        # Gamma_R(1500) ~ e^3354 is beyond the double range
        ("gamma", "--rep", "triv", "--eval", "1500"),
        # c_0 = L(-300, 1) = zeta(-300), of size ~ 10^375
        ("eis", "--n", "2", "--nu", "-300", "--modulus", "1", "--r", "0"),
        ("eis", "--n", "2", "--nu", "-300", "--modulus", "1", "--r", "0", "--cell", "big"),
    ],
    ids=["gamma", "eis-wlong", "eis-big"],
)
def test_gamma_overflow_is_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_DOMAIN and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueOverflowError"


def test_gamma_parse_error_exit(capsys):
    code, out, err = run(capsys, "gamma", "--rep", "bogus")
    assert code == EXIT_USAGE
    assert "error:" in err


@pytest.mark.parametrize("flag", ["--eval=-inf", "--eval=nan", "--eval=1,inf"])
def test_gamma_non_finite_eval_is_usage_error(capsys, flag):
    code, out, err = run(capsys, "gamma", "--rep", "triv", flag)
    assert code == EXIT_USAGE and out == ""
    assert "non-finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("chars", "--modulus", "0", "--list"),
        ("chars", "--modulus", "-4", "--index", "0"),
        ("eis", "--n", "1", "--nu", "2", "--modulus", "7", "--r", "1"),
        ("eis", "--n", "3", "--nu", "2,1", "--modulus", "0", "--r", "1,2"),
        ("eis", "--n", "3", "--nu", "2,1", "--modulus", "7", "--r", "1,a"),
        ("eis", "--n", "3", "--nu", "2,1", "--modulus", "7", "--r", "1"),
        ("eis", "--n", "3", "--nu", "2,1", "--modulus", "7", "--r-box", "-1"),
        ("verify", "--suite", "fe", "--tol", "0"),
        ("verify", "--suite", "fe", "--tol", "nan"),
    ],
    ids=[
        "chars-modulus-0", "chars-modulus-negative", "eis-n-1", "eis-modulus-0",
        "eis-r-not-int", "eis-r-length", "eis-r-box-negative", "verify-tol-0",
        "verify-tol-nan",
    ],
)
def test_bad_flag_is_usage_error(capsys, argv):
    # a flag outside its domain is a usage error: exit 2 and one `error:`
    # line, never a traceback and never exit 1, the verification-failure code
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_gamma_embedding_and_validate(capsys):
    code, out, _ = run(
        capsys,
        "gamma", "--rep", "D3[0.1]+triv[-0.2]", "--embedding", "--validate",
    )
    assert code == EXIT_OK
    env = json.loads(out)
    emb = env["result"]["embedding"]
    assert emb["n"] == 3
    lam = [(x["re"], x["im"]) for x in emb["lambda"]]
    assert lam == [(-1.1, 0.0), (0.9, 0.0), (0.2, 0.0)]
    assert emb["delta"] == [1, 0, 0]
    assert env["result"]["violations"]  # 0.1/-0.2 shifts are not self-dual


def test_gamma_embedding_of_empty_sum_is_domain_error(capsys):
    # Ext^2 of a one-dimensional rep is the empty sum: no embedding exists
    code, out, err = run(
        capsys, "gamma", "--rep", "triv", "--functor", "ext2", "--embedding"
    )
    assert code == EXIT_DOMAIN and out == ""
    payload = json.loads(err)
    assert payload["error"] == "EmptyRepresentationError"


def test_verify_betalike_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "betalike", "--tol", "1e-6")
    assert code == EXIT_OK
    env = json.loads(out)
    assert env["result"]["pass"] is True
    (suite,) = env["result"]["suites"]
    assert suite["suite"] == "betalike" and suite["pass"] is True
    assert [len(case["inputs"]["beta"]) for case in suite["cases"]] == [2, 2, 2, 2, 3, 4]
    for case in suite["cases"]:
        assert case["pass"] and case["rel_err"] is not None


def test_verify_betalike_meets_tight_tol(capsys):
    # every case, n = 3 and n = 4 included, meets the suite's own tolerance
    code, out, _ = run(capsys, "verify", "--suite", "betalike", "--tol", "1e-9")
    assert code == EXIT_OK
    (suite,) = json.loads(out)["result"]["suites"]
    for case in suite["cases"]:
        assert case["rel_err"] is not None and case["rel_err"] <= 1e-9


def test_verify_fe_meets_tight_tol(capsys):
    # every fe case, the H integral included, is held to --tol itself
    code, out, _ = run(capsys, "verify", "--suite", "fe", "--tol", "1e-10")
    assert code == EXIT_OK
    (suite,) = json.loads(out)["result"]["suites"]
    for case in suite["cases"]:
        assert case["rel_err"] is not None and case["rel_err"] <= 1e-10
        assert case["pass"] is True


def test_verify_intertwine_is_held_to_tol(capsys):
    # at --tol 1e-9 every ratio-consistency probe passes only if its spread
    # is within 1e-9, and the decay-exponent fit states the slope tolerance
    # it is held to; a probe that cannot certify is a failed case carrying
    # the error
    code, out, _ = run(capsys, "verify", "--suite", "intertwine", "--tol", "1e-9")
    (suite,) = json.loads(out)["result"]["suites"]
    for case in suite["cases"]:
        if "error" in case:
            assert case["pass"] is False and case["rel_err"] is None
        elif case["inputs"]["probe"] == "ratio-consistency":
            assert case["pass"] is (case["rel_err"] <= 1e-9)
        else:
            assert case["pass"] is (case["abs_err"] <= case["inputs"]["abs_tol"])
    assert suite["pass"] is all(case["pass"] for case in suite["cases"])
    assert code == (EXIT_OK if suite["pass"] else EXIT_FAIL)


def test_verify_oscillatory_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "oscillatory", "--tol", "1e-6")
    assert code == EXIT_OK
    (suite,) = json.loads(out)["result"]["suites"]
    assert suite["pass"] is True
    assert all(case["pass"] is True for case in suite["cases"])


def test_verify_fail_exit_code(capsys):
    # an absurd tolerance cannot be met by the quadrature suites
    code, out, _ = run(
        capsys, "verify", "--suite", "oscillatory", "--tol", "1e-300"
    )
    assert code == EXIT_FAIL
    env = json.loads(out)
    assert env["result"]["pass"] is False


def test_verify_all_reports_every_suite_when_routes_cannot_certify(capsys):
    # at 1e-300 no quadrature certifies: in every suite that is a failed case
    # carrying the route's message (exit 1), never an aborted run (exit 3)
    code, out, err = run(capsys, "verify", "--suite", "all", "--tol", "1e-300")
    assert code == EXIT_FAIL and err == ""
    result = json.loads(out)["result"]
    assert result["pass"] is False
    keys = ["inputs", "closed", "quadrature", "abs_err", "rel_err", "pass"]
    failed = {}
    for suite in result["suites"]:
        assert suite["pass"] is False
        for case in suite["cases"]:
            if case["quadrature"] is None:
                assert list(case) == keys[:5] + ["error", "pass"]
                assert "exceeds tolerance" in case["error"]
                assert case["abs_err"] is None and case["pass"] is False
                failed.setdefault(suite["suite"], []).append(case)
            else:
                assert list(case) == keys and case["closed"] is not None
    assert {name: len(cases) for name, cases in failed.items()} == {
        "betalike": 6, "oscillatory": 6, "fe": 1, "intertwine": 4,
    }
    # the H integral and the ratio probes take their reference from the
    # route, so a failed route leaves it unknown; the others keep it
    (h_case,) = failed["fe"]
    assert h_case["closed"] is None
    for case in failed["intertwine"]:
        assert (case["closed"] is None) is (case["inputs"]["probe"] == "ratio-consistency")
    for case in failed["betalike"] + failed["oscillatory"]:
        assert case["closed"] is not None


def test_verify_csv_fallback(capsys):
    code, out, _ = run(
        capsys,
        "--format", "csv",
        "verify", "--suite", "betalike", "--tol", "1e-6",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("pass,") for line in lines)


def child_env():
    """The environment for a child interpreter that imports the same
    mirabolic tree as this test run."""
    env = dict(os.environ)
    package_root = str(Path(mirabolic.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p
    )
    return env


@pytest.mark.parametrize("module", ["scipy.integrate", "scipy.special"])
def test_cli_import_leaves_out_scipy_module(module):
    # the package does not use scipy, so a cold CLI start pays for no part
    # of it
    code = f"import sys, mirabolic.cli; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True
    )
    assert out.returncode == 0, f"child interpreter failed:\n{out.stderr}"
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["chars", "--modulus", "12", "--index", "1", "--gauss", "--conductor", "--fft", "5"],
        ["gamma", "--rep", "D2[0.1,0.5]+triv", "--functor", "sym2", "--eval", "1.5,2",
         "--embedding"],
        ["eis", "--n", "2", "--nu", "1", "--modulus", "5", "--char-index", "1", "--r-box", "1"],
        ["verify", "--suite", "all"],
    ],
    ids=["chars", "gamma", "eis", "verify"],
)
def test_cli_command_runs_without_scipy(argv):
    # -X importtime logs every module the run imports, one per stderr line;
    # gamma and verify evaluate Gamma values, eis n=2 at nu=1 takes L(1, psi)
    # through digamma
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "mirabolic.cli", *argv],
        env=child_env(), capture_output=True, text=True,
    )
    assert out.returncode == EXIT_OK, f"child CLI failed:\n{out.stderr}"
    imported = [
        line.rsplit("|", 1)[-1].strip()
        for line in out.stderr.splitlines()
        if line.startswith("import time:")
    ]
    # gamma needs no character and chars no special function; only verify
    # reaches the quadrature layers, the one part that uses numpy
    required = {
        "chars": {"mirabolic.characters"},
        "gamma": {"mirabolic.special"},
        "eis": {"mirabolic.characters", "mirabolic.special"},
        "verify": {
            "mirabolic.characters", "mirabolic.special", "mirabolic.fe_verify",
            "mirabolic.panels", "numpy",
        },
    }[argv[0]]
    assert required <= set(imported)
    assert not [m for m in imported if m == "scipy" or m.startswith("scipy.")]
    result = json.loads(out.stdout)["result"]
    if argv[0] == "chars":
        assert result["conductor"] == 3 and "gauss_sum" in result and "fft" in result
    if argv[0] == "verify":
        # at the default --tol 1e-6, every suite runs and passes
        assert result["pass"] is True
        assert [s["suite"] for s in result["suites"]] == [
            "betalike", "oscillatory", "fe", "intertwine"
        ]


# stdlib modules that a cold start of gamma, chars or eis does not load:
# dataclasses pulls in inspect (and with it ast, dis and tokenize), and
# fractions pulls in decimal
HEAVY_STDLIB = {"dataclasses", "fractions", "decimal", "inspect"}


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "--rep", "D2[0.1,0.5]+triv", "--functor", "sym2", "--eval", "1.5,2",
         "--embedding"],
        ["chars", "--modulus", "1000", "--list"],
        ["--format", "csv", "chars", "--modulus", "1100", "--list"],
        ["chars", "--modulus", "210", "--index", "5", "--gauss", "--conductor", "--fft", "3"],
        ["eis", "--n", "3", "--nu", "2,1", "--modulus", "7", "--char-index", "1",
         "--r-box", "6", "--cell", "wlong"],
        ["eis", "--n", "3", "--nu", "2,1", "--modulus", "7", "--char-index", "1",
         "--r-box", "6", "--cell", "big"],
    ],
    ids=["gamma", "chars-list", "chars-list-csv", "chars-index", "eis-wlong", "eis-big"],
)
def test_cli_command_runs_without_numpy(argv):
    # the Gamma-factor calculus, the characters and the Eisenstein
    # coefficients are pure Python, so these runs pay for no numpy import,
    # nor for the stdlib modules behind dataclasses and Fraction; chars
    # loads no layer but its own.  -X importtime logs every module the run
    # imports
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "mirabolic.cli", *argv],
        env=child_env(), capture_output=True, text=True,
    )
    assert out.returncode == EXIT_OK, f"child CLI failed:\n{out.stderr}"
    imported = [
        line.rsplit("|", 1)[-1].strip()
        for line in out.stderr.splitlines()
        if line.startswith("import time:")
    ]
    command = argv[2] if argv[0] == "--format" else argv[0]
    layer = {"gamma": "gamma_factors", "chars": "characters", "eis": "eisenstein"}[command]
    assert f"mirabolic.{layer}" in imported
    assert not [m for m in imported if m == "numpy" or m.startswith("numpy.")]
    assert not HEAVY_STDLIB & set(imported)
    if command == "chars":
        assert not {"mirabolic.gamma_factors", "mirabolic.special"} & set(imported)
    if "csv" in argv:
        assert out.stdout.startswith("key,value\n")
    elif command == "gamma":
        assert "value" in json.loads(out.stdout)["result"]
    else:
        assert json.loads(out.stdout)["command"] == command


def test_package_import_leaves_out_numpy():
    # the package and the CLI module load their layers lazily, and the
    # characters and Eisenstein layers are pure Python; a bare import of the
    # CLI loads no layer at all, and no heavy stdlib module
    code = (
        "import sys; import mirabolic; a = 'numpy' in sys.modules; "
        "import mirabolic.cli; b = 'numpy' in sys.modules; "
        "cli = sorted(m for m in sys.modules if m.startswith('mirabolic.')); "
        f"heavy = sorted({sorted(HEAVY_STDLIB)!r} & sys.modules.keys()); "
        "import mirabolic.characters, mirabolic.eisenstein; "
        "print(a, b, 'numpy' in sys.modules, ' '.join(cli), ' '.join(heavy) or '-')"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True
    )
    assert out.returncode == 0, f"child interpreter failed:\n{out.stderr}"
    assert out.stdout.split() == [
        "False", "False", "False", "mirabolic.cli", "mirabolic.errors", "-"
    ]


# ---------------------------------------------------------------------------
# _emit against the emitters it replaced: json.dumps(env, indent=2) and the
# row-list CSV walk below, byte for byte


def reference_csv_rows(result) -> list[list[str]]:
    def num(x):
        return repr(float(x))

    if isinstance(result, dict) and "rows" in result:
        header = result["columns"]
        rows = [header]
        for rec in result["rows"]:
            rows.append(
                [str(x) for x in rec["r"]] + [num(rec["value"]["re"]), num(rec["value"]["im"])]
            )
        return rows
    rows = [["key", "value"]]

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                walk(f"{prefix}[{i}]", v)
        else:
            rows.append([prefix, num(obj) if isinstance(obj, float) else str(obj)])

    walk("", result)
    return rows


def reference_csv(result) -> str:
    return "".join(",".join(row) + "\n" for row in reference_csv_rows(result)).rstrip("\n")


json_scalars = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\n", '"quoted"', "tab\there", "\u00e9", "\u2028", "\x00", ""]),
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
)
json_trees = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.one_of(st.text(), st.integers()), children, max_size=5),
    ),
    max_leaves=25,
)
coefficient_tables = st.builds(
    lambda rows: {"columns": ["r1", "re", "im"], "rows": rows},
    st.lists(
        st.builds(
            lambda r, re, im: {"r": [r], "value": {"re": re, "im": im}},
            st.integers(-5, 5), st.floats(), st.floats(),
        ),
        max_size=5,
    ),
)


@settings(max_examples=200, deadline=None)
@given(json_trees)
def test_emit_json_matches_indenting_encoder(result):
    env = {"version": __version__, "command": "x", "inputs": {}, "result": result}
    assert _emit(env, "json") == json.dumps(env, indent=2)
    assert _emit(result, "json") == json.dumps(result, indent=2)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        # a top-level "rows" key selects the coefficient-table layout
        json_trees.filter(lambda t: not (isinstance(t, dict) and "rows" in t)),
        coefficient_tables,
    )
)
def test_emit_csv_matches_row_walk(result):
    env = {"version": __version__, "command": "x", "inputs": {}, "result": result}
    assert _emit(env, "csv") == reference_csv(result)


@pytest.mark.parametrize(
    ("argv", "digest"),
    [
        (["chars", "--modulus", "1000", "--list"], "2be5b21da6d2eb1f"),
        (["--format", "csv", "chars", "--modulus", "1100", "--list"], "db0776a942e574b5"),
    ],
    ids=["json", "csv"],
)
def test_chars_list_output_is_pinned(capsys, argv, digest):
    # sha256 prefixes of stdout recorded from the row-walk / indent=2 emitters
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest
