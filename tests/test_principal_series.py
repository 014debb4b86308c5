"""Principal-series parameter bundle tests: chi evaluation, coefficient
renormalization, Whittaker normalization, and the contragredient involution."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirabolic.errors import ZeroComponentError, ZeroEntryError
from mirabolic.principal_series import (
    PSParams,
    chi_eval,
    contragredient,
    renormalize_coeffs,
    rho,
    whittaker_D_factor,
)


def test_params_validation():
    with pytest.raises(ValueError):
        PSParams(0, (), ())
    with pytest.raises(ValueError):
        PSParams(2, (0.1,), (0, 0))
    with pytest.raises(ValueError):
        PSParams(2, (0.1, 0.2), (0, 2))


def test_rho_values():
    assert rho(1) == (Fraction(0),)
    assert rho(2) == (Fraction(1, 2), Fraction(-1, 2))
    assert rho(3) == (Fraction(1), Fraction(0), Fraction(-1))
    assert sum(rho(7)) == 0
    assert all(isinstance(x, Fraction) for n in (1, 2, 3, 6) for x in rho(n))


def test_chi_eval_is_multiplicative_in_b():
    ps = PSParams(3, (0.3 + 1j, -0.2, 0.1), (1, 0, 1))
    b1 = (2.0, -3.0, 0.5)
    b2 = (-1.5, 4.0, 2.0)
    prod = tuple(x * y for x, y in zip(b1, b2))
    assert abs(chi_eval(ps, prod) - chi_eval(ps, b1) * chi_eval(ps, b2)) < 1e-12


def test_chi_eval_sign_and_zero():
    ps = PSParams(2, (0.0, 0.0), (1, 0))
    assert abs(chi_eval(ps, (-1.0, 1.0)) + 1.0) < 1e-15
    assert abs(chi_eval(ps, (1.0, -1.0)) - 1.0) < 1e-15
    with pytest.raises(ZeroEntryError):
        chi_eval(ps, (0.0, 1.0))


def test_renormalize_partial_sums():
    # a_r multiplies c_r by prod_j (sgn r_j)^{d_1+..+d_j} |r_j|^{l_1+..+l_j}
    ps = PSParams(3, (0.5, -0.25, -0.25), (1, 1, 0))
    c = {(2, 3): 1.0, (-2, 1): 2.0}
    a = renormalize_coeffs(c, ps)
    assert abs(a[(2, 3)] - 2.0**0.5 * 3.0**0.25) < 1e-12
    # first slot: sgn^{delta_1} = -1 for r_1 = -2
    assert abs(a[(-2, 1)] - (-2.0) * 2.0**0.5) < 1e-12
    with pytest.raises(ZeroComponentError):
        renormalize_coeffs({(0, 1): 1.0}, ps)
    with pytest.raises(ValueError):
        renormalize_coeffs({(1,): 1.0}, ps)


def test_whittaker_D_factor():
    # D(k) = prod |k_j|^{j(n-j)/2}
    assert abs(whittaker_D_factor((2,), 2) - 2.0**0.5) < 1e-14
    assert abs(whittaker_D_factor((2, 3), 3) - 2.0 * 3.0) < 1e-12
    assert whittaker_D_factor((-2, 3), 3) == whittaker_D_factor((2, 3), 3)
    with pytest.raises(ZeroComponentError):
        whittaker_D_factor((0, 1), 3)
    with pytest.raises(ValueError):
        whittaker_D_factor((1,), 3)


complex_st = st.builds(
    complex,
    st.floats(-3, 3, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.tuples(*([complex_st] * n)),
            st.tuples(*([st.integers(0, 1)] * n)),
            st.dictionaries(
                st.tuples(*([st.integers(-9, 9).filter(bool)] * (n - 1))),
                st.floats(-5, 5, allow_nan=False),
                max_size=4,
            ),
        )
    )
)
def test_contragredient_is_involution(data):
    lam, delta, c = data
    ps = PSParams(len(lam), lam, delta)
    ps2, c2 = contragredient(*contragredient(ps, c))
    assert ps2 == ps
    assert c2 == c


def test_contragredient_worked_example():
    ps = PSParams(2, (0.3 + 1j, -0.1), (1, 0))
    c = {(5,): 2.0}
    ps_t, c_t = contragredient(ps, c)
    assert ps_t.lam == (0.1 + 0j, -0.3 - 1j)
    assert ps_t.delta == (0, 1)
    assert c_t == {(-5,): 2.0}


def test_to_record_shape():
    rec = PSParams(2, (0.5, -0.5), (0, 1)).to_record()
    assert rec["n"] == 2
    assert rec["delta"] == [0, 1]
    assert rec["lambda"][0] == {"re": 0.5, "im": 0.0}
