"""The package namespace: every public name, loaded on first access from
the module that defines it."""

import importlib

import pytest

import mirabolic

# The package's public names, by defining module, as the eager package
# exported them; the submodules are public names too.
PUBLIC = {
    "characters": [
        "DirichletCharacter", "conductor", "enumerate_characters", "euler_phi",
        "finite_fourier", "gauss_sum", "is_primitive",
    ],
    "eisenstein": [
        "DeltaAtom", "EisParams", "Ramified", "RamifiedConstant", "brute_force_c_r",
        "coeff_big_cell", "coeff_wlong_cell", "delta_atom_sum", "local_euler_factor",
        "nu_from_s", "pole_data", "s_from_nu",
    ],
    "errors": [
        "ConvergenceRegionError", "EmptyRepresentationError", "MirabolicError",
        "NormalizationError", "NotPrimitiveError", "NotPrincipalError", "ParseError",
        "PoleError", "StripError", "ToleranceNotMetError", "ValueOverflowError",
        "ZeroComponentError", "ZeroEntryError",
    ],
    "fe_verify": [
        "Bump", "QuadratureConfig", "beta_like_closed", "beta_like_quadrature",
        "eisfe_scalar", "h_integral", "intertwine_apply_n2", "intertwine_compose_n2",
        "oscillatory_closed", "oscillatory_integral", "pairing_fe_gamma_product",
        "pairing_fe_gamma_product_s",
    ],
    "gamma_factors": [
        "GammaProduct", "IsobaricSum", "SigmaBlock", "boxplus", "canonicalize",
        "discrete", "embedding_params", "evaluate_gamma_product", "ext2", "l_factors",
        "parse_rep", "sgn", "sgn_twist", "sym2", "tensor", "triv", "twist",
        "validate_generic_unitary",
    ],
    "panels": [],
    "principal_series": [
        "PSParams", "chi_eval", "contragredient", "renormalize_coeffs", "rho",
        "whittaker_D_factor",
    ],
    "special": [
        "G_delta", "dirichlet_L", "gamma_C", "gamma_R", "hurwitz_zeta", "residue_L_at_1",
        "riemann_zeta",
    ],
}
CASES = [(module, name) for module, names in PUBLIC.items() for name in [module, *names]]


# first, so that the names still load through the module __getattr__
def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from mirabolic import *", namespace)
    for name in mirabolic.__all__:
        assert namespace[name] is getattr(mirabolic, name)


def test_all_lists_every_public_name():
    assert len(mirabolic.__all__) == 83
    assert sorted(mirabolic.__all__) == sorted(name for _, name in CASES)
    assert set(mirabolic.__all__) <= set(dir(mirabolic))
    assert "__version__" in dir(mirabolic)


def test_public_name_is_the_object_its_module_defines():
    wrong = []
    for module, name in CASES:
        origin = importlib.import_module(f"mirabolic.{module}")
        want = origin if name == module else getattr(origin, name)
        if getattr(mirabolic, name) is not want:
            wrong.append(name)
    assert wrong == []


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mirabolic.no_such_name  # noqa: B018
    # a name outside the table falls through to the import system
    with pytest.raises(ImportError):
        from mirabolic import _no_such_module  # noqa: F401
    from mirabolic import cli

    assert cli.main is importlib.import_module("mirabolic.cli").main
