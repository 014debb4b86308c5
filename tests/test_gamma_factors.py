"""Isobaric-sum calculus tests: the tensor table, square functors, sign
twist, L-factor assembly, canonical equality, embedding parameters, and the
rep grammar."""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirabolic.errors import ParseError, PoleError
from mirabolic.gamma_factors import (
    EMPTY,
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
    sgn_power,
    sgn_twist,
    sym2,
    tensor,
    triv,
    twist,
    validate_generic_unitary,
)


def test_block_validation():
    with pytest.raises(ValueError):
        SigmaBlock("D", 1, 0j)
    with pytest.raises(ValueError):
        SigmaBlock("triv", 2, 0j)
    with pytest.raises(ValueError):
        SigmaBlock("weird", 0, 0j)


def test_d1_normalizes_eagerly():
    assert discrete(1, 0.3) == boxplus(triv(0.3), sgn(0.3))


def test_multiset_equality_ignores_order():
    a = boxplus(triv(0.1), discrete(3, -0.2), sgn())
    b = boxplus(sgn(), triv(0.1), discrete(3, -0.2))
    assert a == b and hash(a) == hash(b)
    assert a != boxplus(triv(0.1), discrete(3, -0.2))


def test_dimensions():
    assert EMPTY.dimension == 0
    assert triv().dimension == 1
    assert discrete(5).dimension == 2
    assert boxplus(discrete(2), sgn(), triv()).dimension == 4


def test_twist_adds_to_all_shifts():
    p = twist(boxplus(triv(0.1), discrete(2, -0.3)), 1j)
    assert p == boxplus(triv(0.1 + 1j), discrete(2, -0.3 + 1j))


def test_tensor_gl2_table():
    # D_2 x D_3 = D_4 + D_2
    assert tensor(discrete(2), discrete(3)) == boxplus(discrete(4), discrete(2))
    # D_2 x D_2 = D_3 + D_1 = D_3 + triv + sgn
    assert tensor(discrete(2), discrete(2)) == boxplus(discrete(3), triv(), sgn())
    # sgn x D_k = D_k; sgn x sgn = triv; shifts add
    assert tensor(sgn(0.25), discrete(4, 0.125)) == discrete(4, 0.375)
    assert tensor(sgn(0.2), sgn(-0.2)) == triv()
    assert tensor(triv(1j), discrete(2)) == discrete(2, 1j)


def test_tensor_bilinear_over_boxplus():
    p = boxplus(triv(0.1), discrete(2, -0.2))
    q = boxplus(sgn(0.3), discrete(3))
    want = boxplus(
        tensor(triv(0.1), sgn(0.3)),
        tensor(triv(0.1), discrete(3)),
        tensor(discrete(2, -0.2), sgn(0.3)),
        tensor(discrete(2, -0.2), discrete(3)),
    )
    assert tensor(p, q) == want


def test_ext2_block_rules():
    assert ext2(triv(0.4)) == EMPTY
    assert ext2(sgn(0.4)) == EMPTY
    # Ext^2 D_k[s] = sgn^k[2s]
    assert ext2(discrete(2, 0.1)) == triv(0.2)
    assert ext2(discrete(3, 0.1)) == sgn(0.2)
    # cross terms: Ext^2(a + b) = Ext^2 a + Ext^2 b + a x b
    p = boxplus(triv(0.1), sgn(-0.1))
    assert ext2(p) == sgn(0.0)
    q = boxplus(discrete(2, 0.1), discrete(3, -0.1))
    assert ext2(q) == boxplus(triv(0.2), sgn(-0.2), discrete(4), discrete(2))


def test_sym2_block_rules():
    assert sym2(triv(0.3)) == triv(0.6)
    assert sym2(sgn(0.3)) == triv(0.6)
    # Sym^2 D_k[s] = D_{2k-1}[2s] + sgn^{k+1}[2s]
    assert sym2(discrete(2, 0.1)) == boxplus(discrete(3, 0.2), sgn(0.2))
    assert sym2(discrete(3, 0.0)) == boxplus(discrete(5), triv())
    # cross terms match tensor
    p = boxplus(triv(), sgn())
    assert sym2(p) == boxplus(triv(), triv(), sgn())


def test_ext2_plus_sym2_is_tensor_square():
    for p in [
        boxplus(triv(0.1), sgn(-0.3), discrete(2, 0.2)),
        boxplus(discrete(4, 0.1j), discrete(2, -0.1j)),
        triv(),
    ]:
        lhs = canonicalize(l_factors(boxplus(ext2(p), sym2(p))))
        rhs = canonicalize(l_factors(tensor(p, p)))
        assert lhs == rhs


def test_sgn_twist_swaps_gl1_blocks_only():
    p = boxplus(triv(0.1), sgn(-0.2), discrete(3, 0.3))
    assert sgn_twist(p, 0) == p
    assert sgn_twist(p, 2) == p
    assert sgn_twist(p, 1) == boxplus(sgn(0.1), triv(-0.2), discrete(3, 0.3))


def test_l_factors_assembly():
    g = l_factors(boxplus(triv(0.1), sgn(0.2), discrete(4, 0.3)))
    assert g.factors == (("R", 0.1 + 0j), ("R", 1.2 + 0j), ("C", 0.3 + 1.5 + 0j))


def test_canonicalize_expands_gamma_C():
    g = GammaProduct((("C", 0.5 + 0j),))
    h = GammaProduct((("R", 1.5 + 0j), ("R", 0.5 + 0j)))
    assert canonicalize(g) == canonicalize(h)
    assert canonicalize(g).factors == (("R", 0.5 + 0j), ("R", 1.5 + 0j))


def test_evaluate_gamma_product():
    mp.mp.dps = 25
    g = l_factors(boxplus(triv(0.2), discrete(3, -0.1)))
    s = 1.3 + 0.7j
    want = complex(
        mp.power(mp.pi, -(mp.mpc(s) + 0.2) / 2)
        * mp.gamma((mp.mpc(s) + 0.2) / 2)
        * 2
        * mp.power(2 * mp.pi, -(mp.mpc(s) + 0.9))
        * mp.gamma(mp.mpc(s) + 0.9)
    )
    got = evaluate_gamma_product(g, s)
    assert abs(got - want) < 1e-12 * abs(want)


def test_evaluate_gamma_product_poles():
    with pytest.raises(PoleError):
        evaluate_gamma_product(GammaProduct((("R", 0j),)), 0.0)
    with pytest.raises(PoleError):
        evaluate_gamma_product(GammaProduct((("C", 0j),)), -1.0)
    # Gamma_R is finite at negative odd integers
    evaluate_gamma_product(GammaProduct((("R", 0j),)), -1.0)


def test_embedding_params_worked_example():
    p = boxplus(discrete(3, 0.1), triv(-0.2))
    ps = embedding_params(p)
    assert ps.n == 3
    assert ps.lam == (-1.1 + 0j, 0.9 + 0j, 0.2 + 0j)
    assert ps.delta == (1, 0, 0)
    alt = embedding_params(p, alt_delta=True)
    assert alt.lam == ps.lam and alt.delta == (0, 1, 0)


def test_validate_generic_unitary():
    ok = boxplus(triv(0.2), triv(-0.2), discrete(3, 0.1j))
    assert validate_generic_unitary(ok) == []
    bad = boxplus(triv(0.3))
    msgs = validate_generic_unitary(bad)
    assert any("dual partner" in m for m in msgs)
    edge = boxplus(sgn(0.5), sgn(-0.5))
    assert any("1/2" in m for m in validate_generic_unitary(edge))


def test_parse_rep_round_trip():
    p = parse_rep("triv[0.1]+sgn+D3[-0.2,0.5]")
    assert p == boxplus(triv(0.1), sgn(), discrete(3, complex(-0.2, 0.5)))
    assert parse_rep(str(p)) == p
    assert parse_rep("D1[0.2]") == boxplus(triv(0.2), sgn(0.2))


def test_parse_rep_errors():
    for bad in ["", "triv+", "bogus", "D0", "D2[x]", "D2[1,2,3]"]:
        with pytest.raises(ParseError):
            parse_rep(bad)
    try:
        parse_rep("triv+bogus")
    except ParseError as e:
        assert e.position == 5


@pytest.mark.parametrize(
    ("text", "position"), [("triv[inf]", 0), ("D2+sgn[1,nan]", 3), ("triv+D2[-inf,0]", 5)]
)
def test_parse_rep_rejects_non_finite_twist(text, position):
    with pytest.raises(ParseError, match="non-finite") as info:
        parse_rep(text)
    assert info.value.position == position


sum_st = st.lists(
    st.one_of(
        st.builds(triv, st.floats(-1, 1, allow_nan=False)),
        st.builds(sgn, st.floats(-1, 1, allow_nan=False)),
        st.builds(
            discrete,
            st.integers(2, 6),
            st.floats(-1, 1, allow_nan=False),
        ),
    ),
    min_size=0,
    max_size=5,
).map(lambda parts: boxplus(*parts))


@settings(max_examples=150, deadline=None)
@given(sum_st)
def test_dimension_bookkeeping(p):
    n = p.dimension
    assert ext2(p).dimension == n * (n - 1) // 2
    assert sym2(p).dimension == n * (n + 1) // 2
    assert sgn_twist(sgn_twist(p, 1), 1) == p


@settings(max_examples=100, deadline=None)
@given(sum_st, sum_st)
def test_tensor_dimension_and_symmetry(p, q):
    t = tensor(p, q)
    assert t.dimension == p.dimension * q.dimension
    assert t == tensor(q, p)
