"""Number-theoretic toolkit around mirabolic Eisenstein distributions:
Dirichlet characters, G_delta / Gamma_R / Gamma_C special functions,
Eisenstein Fourier coefficients, isobaric Gamma-factor calculus, and
quadrature verification of the functional-equation scalar identities.

Importing the package loads no submodule: each public name is imported
from its module on first access (PEP 562), so a caller pays for numpy only
when it reaches the quadrature layers that use it (fe_verify, panels); the
characters, Eisenstein coefficients, special functions and Gamma-factor
calculus are plain Python.
"""

import sys

__version__ = "0.1.0"

# submodule -> the public names it exports through the package
_EXPORTS = {
    "characters": (
        "DirichletCharacter",
        "conductor",
        "enumerate_characters",
        "euler_phi",
        "finite_fourier",
        "gauss_sum",
        "is_primitive",
    ),
    "eisenstein": (
        "DeltaAtom",
        "EisParams",
        "Ramified",
        "RamifiedConstant",
        "brute_force_c_r",
        "coeff_big_cell",
        "coeff_wlong_cell",
        "delta_atom_sum",
        "local_euler_factor",
        "nu_from_s",
        "pole_data",
        "s_from_nu",
    ),
    "errors": (
        "ConvergenceRegionError",
        "EmptyRepresentationError",
        "MirabolicError",
        "NormalizationError",
        "NotPrimitiveError",
        "NotPrincipalError",
        "ParseError",
        "PoleError",
        "StripError",
        "ToleranceNotMetError",
        "ValueOverflowError",
        "ZeroComponentError",
        "ZeroEntryError",
    ),
    "fe_verify": (
        "Bump",
        "QuadratureConfig",
        "beta_like_closed",
        "beta_like_quadrature",
        "eisfe_scalar",
        "h_integral",
        "intertwine_apply_n2",
        "intertwine_compose_n2",
        "oscillatory_closed",
        "oscillatory_integral",
        "pairing_fe_gamma_product",
        "pairing_fe_gamma_product_s",
    ),
    "gamma_factors": (
        "GammaProduct",
        "IsobaricSum",
        "SigmaBlock",
        "boxplus",
        "canonicalize",
        "discrete",
        "embedding_params",
        "evaluate_gamma_product",
        "ext2",
        "l_factors",
        "parse_rep",
        "sgn",
        "sgn_twist",
        "sym2",
        "tensor",
        "triv",
        "twist",
        "validate_generic_unitary",
    ),
    "panels": (),
    "principal_series": (
        "PSParams",
        "chi_eval",
        "contragredient",
        "renormalize_coeffs",
        "rho",
        "whittaker_D_factor",
    ),
    "special": (
        "G_delta",
        "dirichlet_L",
        "gamma_C",
        "gamma_R",
        "hurwitz_zeta",
        "residue_L_at_1",
        "riemann_zeta",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name: str):
    module = name if name in _EXPORTS else _ORIGIN.get(name)
    if module is None:
        # lets `from mirabolic import <submodule>` fall back to the import system
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, takes the interpreter's C
    # import path, which `python -X importtime` logs
    qualified = f"{__name__}.{module}"
    __import__(qualified)
    value = sys.modules[qualified]
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
