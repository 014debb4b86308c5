"""Command-line front end: chars / eis / gamma / verify subcommands with
JSON (default) or CSV output.  All payloads are deterministic given the
flags; complex flags are written `re` or `re,im`."""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from typing import TYPE_CHECKING

from . import __version__
from .errors import MirabolicError, ParseError, ToleranceNotMetError

if TYPE_CHECKING:
    from .eisenstein import EisParams

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def _c(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _envelope(command: str, inputs: dict, result) -> dict:
    return {
        "version": __version__,
        "command": command,
        "inputs": inputs,
        "result": result,
    }


def _emit(env: dict, fmt: str) -> str:
    """The envelope as JSON (the bytes of json.dumps(env, indent=2)) or as
    CSV lines."""
    if fmt == "json":
        return _json(env, "")
    result = env["result"]
    if isinstance(result, dict) and "rows" in result:
        # coefficient table: r components + value
        lines = [",".join(result["columns"])]
        for rec in result["rows"]:
            value = rec["value"]
            r = map(str, rec["r"])
            lines.append(",".join([*r, _csv_num(value["re"]), _csv_num(value["im"])]))
    else:
        # generic fallback: flatten to key,value pairs
        lines = ["key,value"]
        _csv_walk("", result, lines)
    return "\n".join(lines).rstrip("\n")


# Leaf types that the C JSON encoder writes exactly as the indenting
# pure-Python one does, and whose str() is the CSV value (str(x) is
# repr(x) for a float).
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _json(obj, pad: str) -> str:
    """json.dumps(obj, indent=2) for obj nested at indent `pad`.  A container
    whose values are all scalars goes to the C encoder in one call with the
    indent folded into its item separator (indent= forces the pure-Python
    encoder); only nested containers are walked here."""
    if isinstance(obj, dict):
        values, brackets = obj.values(), "{}"
    elif isinstance(obj, (list, tuple)):
        values, brackets = obj, "[]"
    else:
        return json.dumps(obj)
    if not values:
        return brackets
    inner = pad + "  "
    sep = ",\n" + inner
    if set(map(type, values)) <= _SCALARS:
        body = json.dumps(obj, separators=(sep, ": "))[1:-1]
    elif brackets == "{}":
        # a non-str key is written as its JSON text, quoted
        body = sep.join(
            f"{json.dumps(k if isinstance(k, str) else json.dumps(k))}: {_json(v, inner)}"
            for k, v in obj.items()
        )
    else:
        body = sep.join(_json(v, inner) for v in obj)
    return f"{brackets[0]}\n{inner}{body}\n{pad}{brackets[1]}"


def _csv_num(x) -> str:
    return repr(float(x))


def _csv_walk(prefix: str, obj, lines: list[str]) -> None:
    """Append the `key,value` lines of obj under `prefix`: dict keys joined
    by dots, list indices in brackets; any other value is a leaf."""
    if isinstance(obj, dict):
        head = f"{prefix}." if prefix else ""
        if set(map(type, obj.values())) <= _SCALARS:
            lines += [f"{head}{k},{v}" for k, v in obj.items()]
        else:
            for k, v in obj.items():
                _csv_walk(f"{head}{k}", v, lines)
    elif isinstance(obj, list):
        if set(map(type, obj)) <= _SCALARS:
            lines += [f"{prefix}[{i}],{v}" for i, v in enumerate(obj)]
        else:
            for i, v in enumerate(obj):
                _csv_walk(f"{prefix}[{i}]", v, lines)
    else:
        lines.append(f"{prefix},{_csv_num(obj) if isinstance(obj, float) else str(obj)}")


# ---------------------------------------------------------------------------
# chars


def _characters(modulus: int) -> list:
    """The characters mod --modulus; a modulus below 1 is a usage error."""
    from . import characters

    if modulus < 1:
        raise ParseError(f"--modulus must be positive, got {modulus}")
    return characters.enumerate_characters(modulus)


def cmd_chars(args) -> dict:
    from . import characters

    N = args.modulus
    chars = _characters(N)
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


def _eis_params(args) -> EisParams:
    from . import eisenstein
    from .special import parse_complex

    if args.n < 2:
        raise ParseError(f"--n must be at least 2, got {args.n}")
    chars = _characters(args.modulus)
    if not 0 <= args.char_index < len(chars):
        raise ParseError(f"char index out of range (have {len(chars)})")
    psi = chars[args.char_index]
    return eisenstein.EisParams(args.n, parse_complex(args.nu), psi, psi.parity)


def cmd_eis(args) -> dict:
    from . import eisenstein

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
        if B < 0:
            raise ParseError(f"--r-box must be nonnegative, got {B}")
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
    try:
        r = tuple(int(x) for x in args.r.split(","))
    except ValueError:
        raise ParseError(f"bad --r {args.r!r} (expected integers joined by commas)") from None
    if len(r) != args.n - 1:
        raise ParseError(f"--r must have n-1 = {args.n - 1} components, got {len(r)}")
    inputs["r"] = list(r)
    result = {"r": list(r), "value": _c(coeff(params, r))}
    return _envelope("eis", inputs, result)


# ---------------------------------------------------------------------------
# gamma


def cmd_gamma(args) -> dict:
    from . import gamma_factors
    from .special import parse_complex

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
        s = parse_complex(args.eval)
        inputs["eval"] = _c(s)
        result["value"] = _c(gamma_factors.evaluate_gamma_product(g, s))
    if args.embedding:
        result["embedding"] = gamma_factors.embedding_params(out).to_record()
    if args.validate:
        result["violations"] = gamma_factors.validate_generic_unitary(out)
    return _envelope("gamma", inputs, result)


# ---------------------------------------------------------------------------
# verify


def _case(tol: float, inputs: dict, closed, route) -> dict:
    """Run one verify case: route() gives the second route's value, compared
    with closed, the reference evaluated before the route runs, and held to
    tol.  closed is None when the route returns (closed, value) itself.  A
    route that cannot certify its tolerance (ToleranceNotMetError) makes a
    failed case carrying its message."""
    rec = {"inputs": inputs, "closed": None if closed is None else _c(closed)}
    try:
        quad = route()
    except ToleranceNotMetError as exc:
        rec.update(quadrature=None, abs_err=None, rel_err=None, error=str(exc))
        rec["pass"] = False
        return rec
    if closed is None:
        closed, quad = quad
    abs_err = abs(quad - closed)
    rel_err = abs_err / abs(closed) if closed != 0 else abs_err
    rec.update(closed=_c(closed), quadrature=_c(quad), abs_err=abs_err, rel_err=rel_err)
    rec["pass"] = rel_err <= tol
    return rec


# Each suite yields its cases as (inputs, closed, route), the arguments of
# _case after tol; every route runs on the one cfg cmd_verify derives from tol.


def _suite_betalike(cfg):
    from . import fe_verify

    grid = [
        ((0.3, 0.4), (0, 0)),
        ((0.3, 0.4), (1, 1)),
        ((0.25, 0.45), (0, 1)),
        ((0.35, 0.3), (1, 0)),
        ((0.2, 0.3, 0.3), (0, 0, 0)),
        ((0.2, 0.15, 0.25, 0.1), (1, 0, 1, 0)),
    ]
    for beta, eta in grid:
        yield (
            {"beta": list(beta), "eta": list(eta)},
            fe_verify.beta_like_closed(beta, eta, 1.0),
            partial(fe_verify.beta_like_quadrature, beta, eta, 1.0, cfg),
        )


def _suite_oscillatory(cfg):
    from . import fe_verify

    for eps in (0, 1):
        for d, k in ((1, 1), (2, 1), (1, 3)):
            nu = 0.4 if eps == 0 else 0.6
            yield (
                {"nu": _c(nu), "epsilon": eps, "d": d, "k": k},
                fe_verify.oscillatory_closed(nu, 2, eps, d, k),
                partial(fe_verify.oscillatory_integral, nu, 2, eps, d, k, cfg),
            )


def _suite_fe(cfg):
    from . import characters, eisenstein, fe_verify
    from .special import G_delta

    # trivial-character reduction of the Eisenstein FE scalar
    psi = characters.enumerate_characters(1)[0]
    for nu in (0.3 + 0.2j, -0.7):
        params = eisenstein.EisParams(2, nu, psi, 0)
        yield (
            {"nu": _c(nu), "n": 2, "N": 1},
            G_delta(complex(nu), 0),
            partial(fe_verify.eisfe_scalar, params),
        )
    # G_delta reflection
    s = 0.3 + 1.1j
    for delta in (0, 1):
        yield (
            {"s": _c(s), "delta": delta},
            complex((-1) ** delta),
            lambda delta=delta: G_delta(s, delta) * G_delta(1 - s, delta),
        )
    # nu-form versus adelic s-form of the pairing FE scalar
    lam = (0.12, -0.05, 0.3, -0.37)
    delta = (0, 1, 1, 0)
    n, eps, eta = 2, 0, 0
    s = 0.55 + 0.15j
    nu = eisenstein.nu_from_s(n, s)
    sign = (-1) ** ((eps + sum(delta[n:])) % 2)
    yield (
        {"lambda": [_c(x) for x in map(complex, lam)], "s": _c(s)},
        sign * fe_verify.pairing_fe_gamma_product_s(lam, delta, eta, s, n, 3, eps),
        partial(fe_verify.pairing_fe_gamma_product, lam, delta, eta, nu, n, 3, eps),
    )
    # H integral, n=2: h_integral returns the closed form with its quadrature
    lam_h = (0.1, -0.2, 0.3, -0.2)
    yield (
        {"lambda": [_c(complex(x)) for x in lam_h], "nu": _c(0.5)},
        None,
        partial(fe_verify.h_integral, lam_h, (0, 0, 0, 0), 0.5, 2, 0, 0, cfg),
    )


def _suite_intertwine(cfg):
    from . import fe_verify
    from .special import G_delta

    def compose_at(f, nu, eps, x):
        return complex(fe_verify.intertwine_compose_n2(f, nu, eps, [x], cfg)[0])

    # I_{-nu} I_nu is (-1)^eps G_eps(nu) G_eps(-nu) times the identity; one
    # bump is not even and one point lies far from the origin
    points = [((0.0, 1.0), -0.2), ((0.0, 1.0), 0.1), ((0.3, 0.7), 0.1), ((64.0, 8.0), 63.0)]
    for eps in (0, 1):
        for nu in (0.3, 0.6, 0.8 + 0.5j):
            scalar = (-1) ** eps * G_delta(nu, eps) * G_delta(-nu, eps)
            for (center, width), x in points:
                f = fe_verify.Bump(center, width)
                yield (
                    {"nu": _c(nu), "epsilon": eps, "center": center, "width": width, "x": x},
                    scalar * f(x),
                    partial(compose_at, f, nu, eps, x),
                )


_SUITES = {
    "betalike": _suite_betalike,
    "oscillatory": _suite_oscillatory,
    "fe": _suite_fe,
    "intertwine": _suite_intertwine,
}


def cmd_verify(args) -> dict:
    tol = args.tol
    if not sys.float_info.min <= tol < math.inf:  # tol / 10 stays positive
        raise ParseError(f"--tol must be finite and at least {sys.float_info.min:.3g}, got {tol}")
    from . import fe_verify

    base = fe_verify.DEFAULT_QUAD
    cfg = fe_verify.QuadratureConfig(
        abs_tol=min(base.abs_tol, tol / 10), rel_tol=min(base.rel_tol, tol)
    )
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    suites = []
    for name in names:
        cases = [_case(tol, *case) for case in _SUITES[name](cfg)]
        suites.append({"suite": name, "cases": cases, "pass": all(c["pass"] for c in cases)})
    result = {"suites": suites, "pass": all(suite["pass"] for suite in suites)}
    inputs = {"suite": args.suite, "tol": tol}
    return _envelope("verify", inputs, result)


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


_COMMANDS = {"chars": cmd_chars, "eis": cmd_eis, "gamma": cmd_gamma, "verify": cmd_verify}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        env = _COMMANDS[args.command](args)
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
    # a verify result carries its verdict; no other command has one
    return EXIT_FAIL if env["result"].get("pass") is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
