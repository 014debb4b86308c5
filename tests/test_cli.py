"""CLI tests: envelope structure, JSON and CSV output, and exit codes.

main() is exercised in-process with capsys; fast suites only."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mirabolic
from mirabolic import __version__
from mirabolic.cli import EXIT_DOMAIN, EXIT_FAIL, EXIT_OK, EXIT_USAGE, main


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


def test_gamma_parse_error_exit(capsys):
    code, out, err = run(capsys, "gamma", "--rep", "bogus")
    assert code == EXIT_USAGE
    assert "error:" in err


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
    assert len(suite["cases"]) == 5
    for case in suite["cases"]:
        assert case["pass"] and case["rel_err"] is not None


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


def test_cli_import_leaves_out_scipy_integrate():
    # no quadrature route uses scipy.integrate, so a cold CLI start does not
    # pay for importing it; the child imports the same mirabolic tree
    env = dict(os.environ)
    package_root = str(Path(mirabolic.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p
    )
    code = "import sys, mirabolic.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, f"child interpreter failed:\n{out.stderr}"
    assert out.stdout.strip() == "False"
