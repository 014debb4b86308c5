"""Command-line front end: chars / eis / gamma / verify subcommands with
JSON (default) or CSV output.  All payloads are deterministic given the
flags; complex flags are written `re` or `re,im`."""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import replace

from . import __version__, characters, eisenstein, fe_verify, gamma_factors
from .errors import MirabolicError, ParseError, ToleranceNotMetError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _c(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _envelope(command: str, inputs: dict, result, precision=None) -> dict:
    env = {
        "version": __version__,
        "command": command,
        "inputs": inputs,
        "result": result,
    }
    if precision is not None:
        env["precision"] = precision
    return env


def _emit(env: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(env, indent=2)
    out = io.StringIO()
    rows = _csv_rows(env["result"])
    out.write(",".join(rows[0]) + "\n")
    for row in rows[1:]:
        out.write(",".join(row) + "\n")
    return out.getvalue().rstrip("\n")


def _csv_num(x) -> str:
    return repr(float(x))


def _csv_rows(result) -> list[list[str]]:
    if isinstance(result, dict) and "rows" in result:
        # coefficient table: r components + value
        header = result["columns"]
        rows = [header]
        for rec in result["rows"]:
            rows.append(
                [str(x) for x in rec["r"]]
                + [_csv_num(rec["value"]["re"]), _csv_num(rec["value"]["im"])]
            )
        return rows
    # generic fallback: flatten to key,value pairs
    rows = [["key", "value"]]

    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                walk(f"{prefix}[{i}]", v)
        else:
            val = _csv_num(obj) if isinstance(obj, float) else str(obj)
            rows.append([prefix, val])

    walk("", result)
    return rows


# ---------------------------------------------------------------------------
# chars


def cmd_chars(args) -> dict:
    N = args.modulus
    chars = characters.enumerate_characters(N)
    inputs = {"modulus": N}
    if args.list:
        result = {
            "count": len(chars),
            "characters": [psi.to_record() for psi in chars],
        }
        return _envelope("chars", inputs, result)
    if args.index is None:
        raise ParseError("chars requires --list or --index")
    if not 0 <= args.index < len(chars):
        raise ParseError(f"index out of range (have {len(chars)} characters)")
    psi = chars[args.index]
    inputs["index"] = args.index
    result = {"character": psi.to_record()}
    if args.gauss:
        result["gauss_sum"] = _c(characters.gauss_sum(psi))
    if args.fft is not None:
        inputs["fft"] = args.fft
        result["fft"] = _c(characters.finite_fourier(psi, args.fft))
    if args.conductor:
        result["conductor"] = characters.conductor(psi)
        result["is_primitive"] = characters.is_primitive(psi)
    return _envelope("chars", inputs, result)


# ---------------------------------------------------------------------------
# eis


def _eis_params(args) -> eisenstein.EisParams:
    chars = characters.enumerate_characters(args.modulus)
    if not 0 <= args.char_index < len(chars):
        raise ParseError(f"char index out of range (have {len(chars)})")
    psi = chars[args.char_index]
    return eisenstein.EisParams(args.n, gamma_factors.parse_complex(args.nu), psi, psi.parity)


def cmd_eis(args) -> dict:
    params = _eis_params(args)
    inputs = {
        "n": args.n,
        "nu": _c(params.nu),
        "modulus": args.modulus,
        "char_index": args.char_index,
        "cell": args.cell,
    }
    if args.pole:
        data = eisenstein.pole_data(params)
        result = {
            "is_polar": data["is_polar"],
            "residue_c0": _c(data["residue_c0"]),
        }
        return _envelope("eis", inputs, result)
    coeff = (
        eisenstein.coeff_big_cell
        if args.cell == "big"
        else eisenstein.coeff_wlong_cell
    )
    if args.r_box is not None:
        B = args.r_box
        inputs["r_box"] = B
        import itertools

        rows = []
        for r in itertools.product(range(-B, B + 1), repeat=args.n - 1):
            rows.append({"r": list(r), "value": _c(coeff(params, r))})
        result = {
            "columns": [f"r{i + 1}" for i in range(args.n - 1)] + ["re", "im"],
            "rows": rows,
        }
        return _envelope("eis", inputs, result)
    if args.r is None:
        raise ParseError("eis requires --r, --r-box, or --pole")
    r = tuple(int(x) for x in args.r.split(","))
    inputs["r"] = list(r)
    result = {"r": list(r), "value": _c(coeff(params, r))}
    return _envelope("eis", inputs, result)


# ---------------------------------------------------------------------------
# gamma


def cmd_gamma(args) -> dict:
    rep = gamma_factors.parse_rep(args.rep)
    inputs = {"rep": args.rep, "functor": args.functor}
    if args.functor == "tensor":
        if args.other is None:
            raise ParseError("--functor tensor requires --other")
        inputs["other"] = args.other
        out = gamma_factors.tensor(rep, gamma_factors.parse_rep(args.other))
    elif args.functor == "ext2":
        out = gamma_factors.ext2(rep)
    elif args.functor == "sym2":
        out = gamma_factors.sym2(rep)
    else:
        out = rep
    if args.twist_parity:
        inputs["twist_parity"] = args.twist_parity
        out = gamma_factors.sgn_twist(out, args.twist_parity)
    g = gamma_factors.l_factors(out)
    result = {
        "rep": str(out),
        "factors": g.to_record(),
        "dimension": out.dimension,
    }
    if args.eval is not None:
        s = gamma_factors.parse_complex(args.eval)
        inputs["eval"] = _c(s)
        result["value"] = _c(gamma_factors.evaluate_gamma_product(g, s))
    if args.embedding:
        result["embedding"] = gamma_factors.embedding_params(out).to_record()
    if args.validate:
        result["violations"] = gamma_factors.validate_generic_unitary(out)
    return _envelope("gamma", inputs, result)


# ---------------------------------------------------------------------------
# verify


def _case(inputs: dict, closed: complex, quad) -> dict:
    rec = {"inputs": inputs, "closed": _c(closed)}
    if isinstance(quad, complex):
        abs_err = abs(quad - closed)
        rel_err = abs_err / abs(closed) if closed != 0 else abs_err
        rec.update(
            quadrature=_c(quad),
            abs_err=abs_err,
            rel_err=rel_err,
        )
    else:  # error message from a failed quadrature
        rec.update(quadrature=None, abs_err=None, rel_err=None, error=str(quad))
    return rec


def _finish(case: dict, tol: float) -> dict:
    case["pass"] = case["rel_err"] is not None and case["rel_err"] <= tol
    return case


def _suite_betalike(tol: float, cfg) -> list[dict]:
    cases = []
    grid2 = [
        ((0.3, 0.4), (0, 0)),
        ((0.3, 0.4), (1, 1)),
        ((0.25, 0.45), (0, 1)),
        ((0.35, 0.3), (1, 0)),
    ]
    for beta, eta in grid2:
        closed = fe_verify.beta_like_closed(beta, eta, 1.0)
        try:
            quad = fe_verify.beta_like_quadrature(beta, eta, 1.0, cfg)
        except ToleranceNotMetError as exc:
            quad = exc
        cases.append(
            _finish(_case({"beta": list(beta), "eta": list(eta)}, closed, quad), tol)
        )
    beta3, eta3 = (0.2, 0.3, 0.3), (0, 0, 0)
    closed = fe_verify.beta_like_closed(beta3, eta3, 1.0)
    # the n=3 nested quadrature is certified at 1e-4; requesting more is slow
    cfg3 = replace(cfg, abs_tol=max(cfg.abs_tol, 1e-6), rel_tol=max(cfg.rel_tol, 1e-4))
    try:
        quad = fe_verify.beta_like_quadrature(beta3, eta3, 1.0, cfg3)
    except ToleranceNotMetError as exc:
        quad = exc
    cases.append(
        _finish(
            _case({"beta": list(beta3), "eta": list(eta3)}, closed, quad),
            max(tol, 1e-4),
        )
    )
    return cases


def _suite_oscillatory(tol: float, cfg) -> list[dict]:
    cases = []
    for eps in (0, 1):
        for d, k in ((1, 1), (2, 1), (1, 3)):
            nu = 0.4 if eps == 0 else 0.6
            closed = fe_verify.oscillatory_closed(nu, 2, eps, d, k)
            try:
                quad = fe_verify.oscillatory_integral(nu, 2, eps, d, k, cfg)
            except ToleranceNotMetError as exc:
                quad = exc
            cases.append(
                _finish(
                    _case(
                        {"nu": _c(nu), "epsilon": eps, "d": d, "k": k},
                        closed,
                        quad,
                    ),
                    tol,
                )
            )
    return cases


def _suite_fe(tol: float, cfg) -> list[dict]:
    from .special import G_delta

    cases = []
    # trivial-character reduction of the Eisenstein FE scalar
    psi = characters.enumerate_characters(1)[0]
    for nu in (0.3 + 0.2j, -0.7):
        params = eisenstein.EisParams(2, nu, psi, 0)
        closed = G_delta(complex(nu), 0)
        quad = fe_verify.eisfe_scalar(params)
        cases.append(_finish(_case({"nu": _c(nu), "n": 2, "N": 1}, closed, quad), tol))
    # G_delta reflection
    for delta in (0, 1):
        s = 0.3 + 1.1j
        closed = complex((-1) ** delta)
        quad = G_delta(s, delta) * G_delta(1 - s, delta)
        cases.append(_finish(_case({"s": _c(s), "delta": delta}, closed, quad), tol))
    # nu-form versus adelic s-form of the pairing FE scalar
    lam = (0.12, -0.05, 0.3, -0.37)
    delta = (0, 1, 1, 0)
    n, eps, eta = 2, 0, 0
    s = 0.55 + 0.15j
    nu = eisenstein.nu_from_s(n, s)
    sign = (-1) ** ((eps + sum(delta[n:])) % 2)
    closed = sign * fe_verify.pairing_fe_gamma_product_s(lam, delta, eta, s, n, 3, eps)
    quad = fe_verify.pairing_fe_gamma_product(lam, delta, eta, nu, n, 3, eps)
    cases.append(
        _finish(
            _case({"lambda": [_c(x) for x in map(complex, lam)], "s": _c(s)}, closed, quad),
            tol,
        )
    )
    # H integral, n=2, closed versus quadrature
    lam_h = (0.1, -0.2, 0.3, -0.2)
    delta_h = (0, 0, 0, 0)
    closed, quad = fe_verify.h_integral(lam_h, delta_h, 0.5, 2, 0, 0, cfg)
    cases.append(
        _finish(
            _case({"lambda": [_c(complex(x)) for x in lam_h], "nu": _c(0.5)}, closed, quad),
            max(tol, 1e-4),
        )
    )
    return cases


def _suite_intertwine(tol: float, cfg) -> list[dict]:
    import numpy as np

    tol = max(tol, 1e-2)
    cases = []
    f1 = fe_verify.Bump(0.0, 1.0)
    f2 = fe_verify.Bump(0.3, 0.7)
    probe_cfg = fe_verify.QuadratureConfig(
        abs_tol=1e-8, rel_tol=1e-6, max_depth=cfg.max_depth
    )
    xs = [-0.2, 0.1]
    for nu in (0.6, 0.8 + 0.5j):
        ratios = []
        for f in (f1, f2):
            vals = fe_verify.intertwine_compose_n2(f, nu, 0, xs, probe_cfg)
            ratios.extend(complex(v) / f(x) for v, x in zip(vals, xs))
        base = ratios[0]
        spread = max(abs(r / base - 1) for r in ratios[1:])
        cases.append(
            _finish(
                _case(
                    {"nu": _c(nu), "probe": "ratio-consistency"},
                    base,
                    base * (1 + spread),
                ),
                tol,
            )
        )
        # decay-exponent fit of the forward operator
        ys = np.array([20.0, 40.0, 80.0])
        vals = np.abs(fe_verify.intertwine_apply_n2(f1, nu, 0, ys, probe_cfg))
        slope = np.polyfit(np.log(ys), np.log(vals), 1)[0]
        expected = complex(nu).real - 1
        cases.append(
            _finish(
                _case(
                    {"nu": _c(nu), "probe": "decay-exponent"},
                    complex(expected),
                    complex(slope),
                ),
                0.1 / abs(expected),
            )
        )
    return cases


_SUITES = {
    "betalike": _suite_betalike,
    "oscillatory": _suite_oscillatory,
    "fe": _suite_fe,
    "intertwine": _suite_intertwine,
}


def cmd_verify(args) -> tuple[dict, bool]:
    tol = args.tol
    base = fe_verify.default_config()
    cfg = replace(base, abs_tol=min(base.abs_tol, tol / 10), rel_tol=min(base.rel_tol, tol))
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    suites = []
    all_pass = True
    for name in names:
        cases = _SUITES[name](tol, cfg)
        ok = all(c["pass"] for c in cases)
        all_pass = all_pass and ok
        suites.append({"suite": name, "cases": cases, "pass": ok})
    result = {"suites": suites, "pass": all_pass}
    inputs = {"suite": args.suite, "tol": tol}
    return _envelope("verify", inputs, result), all_pass


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mirabolic",
        description="Characters, Eisenstein coefficients, Gamma factors, "
        "and functional-equation verification.  Complex values are written "
        "re or re,im.",
    )
    ap.add_argument("--format", choices=["json", "csv"], default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chars", help="Dirichlet characters mod N")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--list", action="store_true")
    p.add_argument("--index", type=int)
    p.add_argument("--gauss", action="store_true")
    p.add_argument("--fft", type=int)
    p.add_argument("--conductor", action="store_true")

    p = sub.add_parser("eis", help="Eisenstein Fourier coefficients")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--char-index", type=int, default=0)
    p.add_argument("--cell", choices=["big", "wlong"], default="wlong")
    p.add_argument("--r")
    p.add_argument("--r-box", type=int)
    p.add_argument("--pole", action="store_true")

    p = sub.add_parser("gamma", help="isobaric sums and Gamma factors")
    p.add_argument("--rep", required=True)
    p.add_argument(
        "--functor", choices=["std", "tensor", "ext2", "sym2"], default="std"
    )
    p.add_argument("--twist-parity", type=int, choices=[0, 1], default=0)
    p.add_argument("--other")
    p.add_argument("--eval")
    p.add_argument("--embedding", action="store_true")
    p.add_argument("--validate", action="store_true")

    p = sub.add_parser("verify", help="quadrature-vs-closed-form suites")
    p.add_argument(
        "--suite",
        choices=["betalike", "oscillatory", "fe", "intertwine", "all"],
        default="all",
    )
    p.add_argument("--tol", type=float, default=1e-6)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "chars":
            env = cmd_chars(args)
        elif args.command == "eis":
            env = cmd_eis(args)
        elif args.command == "gamma":
            env = cmd_gamma(args)
        else:
            env, ok = cmd_verify(args)
            print(_emit(env, args.format))
            return EXIT_OK if ok else EXIT_FAIL
    except ParseError as exc:
        pos = f" at position {exc.position}" if exc.position is not None else ""
        print(f"error: {exc}{pos}", file=sys.stderr)
        return EXIT_USAGE
    except MirabolicError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return EXIT_DOMAIN
    print(_emit(env, args.format))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
