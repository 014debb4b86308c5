"""Run the mirabolic CLI with spans around its calls into the library layers.

Usage: python perfbench/cli_child.py <mirabolic CLI arguments>

Used by traced cli-cold runs in place of `python -m mirabolic.cli`.  The
CLI reaches the layers through module attributes (characters.gauss_sum,
fe_verify.oscillatory_integral, ...), so wrapping those attributes puts a
span at each CLI-to-layer boundary.  stdout and the exit code are the
CLI's own; the span totals go to stderr as one line starting with
"perfbench-spans ".
"""

import json
import sys

from mirabolic import characters, cli, eisenstein, fe_verify, gamma_factors, special

from harness import SPANS_PREFIX, Tracer

# (module, attribute, span name)
TARGETS = [
    (characters, "enumerate_characters", "characters.enumerate_characters"),
    (characters, "gauss_sum", "characters.gauss_sum"),
    (characters, "conductor", "characters.conductor"),
    (characters, "finite_fourier", "characters.finite_fourier"),
    (special, "G_delta", "special.G_delta"),
    (eisenstein, "coeff_wlong_cell", "eisenstein.coeff_wlong_cell"),
    (eisenstein, "coeff_big_cell", "eisenstein.coeff_big_cell"),
    (gamma_factors, "tensor", "gamma_factors.functors"),
    (gamma_factors, "ext2", "gamma_factors.functors"),
    (gamma_factors, "sym2", "gamma_factors.functors"),
    (gamma_factors, "l_factors", "gamma_factors.l_factors"),
    (gamma_factors, "evaluate_gamma_product", "gamma_factors.evaluate_gamma_product"),
    (gamma_factors, "embedding_params", "gamma_factors.embedding_params"),
    (fe_verify, "oscillatory_integral", "fe_verify.oscillatory"),
    (fe_verify, "h_integral", "fe_verify.h_integral"),
    (fe_verify, "intertwine_compose_n2", "fe_verify.compose"),
    (fe_verify, "intertwine_apply_n2", "fe_verify.apply"),
]


def wrap(tracer, fn, span):
    def traced(*args, **kwargs):
        return tracer.call(span, fn, *args, **kwargs)

    return traced


def wrap_beta_like(tracer, fn):
    def traced(beta, *args, **kwargs):
        return tracer.call(f"fe_verify.beta_like_n{len(beta)}", fn, beta, *args, **kwargs)

    return traced


def main() -> int:
    tracer = Tracer()
    for module, attr, span in TARGETS:
        setattr(module, attr, wrap(tracer, getattr(module, attr), span))
    fe_verify.beta_like_quadrature = wrap_beta_like(tracer, fe_verify.beta_like_quadrature)
    try:
        return cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        print(SPANS_PREFIX + json.dumps(tracer.totals()), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
