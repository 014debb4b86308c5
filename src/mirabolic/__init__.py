"""Number-theoretic toolkit around mirabolic Eisenstein distributions:
Dirichlet characters, G_delta / Gamma_R / Gamma_C special functions,
Eisenstein Fourier coefficients, isobaric Gamma-factor calculus, and
quadrature verification of the functional-equation scalar identities.
"""

__version__ = "0.1.0"

from .characters import (
    DirichletCharacter,
    conductor,
    enumerate_characters,
    euler_phi,
    finite_fourier,
    gauss_sum,
    is_primitive,
)
from .eisenstein import (
    DeltaAtom,
    EisParams,
    Ramified,
    RamifiedConstant,
    brute_force_c_r,
    coeff_big_cell,
    coeff_wlong_cell,
    delta_atom_sum,
    local_euler_factor,
    nu_from_s,
    pole_data,
    s_from_nu,
)
from .errors import (
    ConvergenceRegionError,
    EmptyRepresentationError,
    MirabolicError,
    NormalizationError,
    NotPrimitiveError,
    NotPrincipalError,
    ParseError,
    PoleError,
    StripError,
    ToleranceNotMetError,
    ValueOverflowError,
    ZeroComponentError,
    ZeroEntryError,
)
from .fe_verify import (
    Bump,
    QuadratureConfig,
    beta_like_closed,
    beta_like_quadrature,
    eisfe_scalar,
    h_integral,
    intertwine_apply_n2,
    intertwine_compose_n2,
    oscillatory_closed,
    oscillatory_integral,
    pairing_fe_gamma_product,
    pairing_fe_gamma_product_s,
)
from .gamma_factors import (
    GammaProduct,
    IsobaricSum,
    SigmaBlock,
    boxplus,
    canonicalize,
    discrete,
    embedding_params,
    evaluate_gamma_product,
    ext2,
    l_factors,
    parse_rep,
    sgn,
    sgn_twist,
    sym2,
    tensor,
    triv,
    twist,
    validate_generic_unitary,
)
from .principal_series import (
    PSParams,
    chi_eval,
    contragredient,
    renormalize_coeffs,
    rho,
    whittaker_D_factor,
)
from .special import (
    G_delta,
    dirichlet_L,
    gamma_C,
    gamma_R,
    hurwitz_zeta,
    residue_L_at_1,
    riemann_zeta,
)

__all__ = [name for name in dir() if not name.startswith("_")]
