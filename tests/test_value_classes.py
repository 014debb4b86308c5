"""The package's immutable value classes: construction, defaults, equality,
hashing, repr, immutability and field checks, as the frozen dataclasses
that first defined them behaved.  The repr strings are pinned from that
dataclass output."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from mirabolic.characters import enumerate_characters
from mirabolic.eisenstein import DeltaAtom, EisParams, Ramified, RamifiedConstant
from mirabolic.fe_verify import QuadratureConfig
from mirabolic.gamma_factors import GammaProduct, IsobaricSum, SigmaBlock
from mirabolic.principal_series import PSParams

PSI = enumerate_characters(5)[2]  # an even, nonprincipal character mod 5
ODD = enumerate_characters(5)[1]
BLOCK = SigmaBlock("D", 3, 0.25 + 1j)
TRIV = SigmaBlock("triv", 0, 0j)

# class, field names, values, other values (unequal), repr of the values,
# and (fields, ValueError message) pairs for invalid fields
CASES = [
    (
        SigmaBlock, ("kind", "k", "shift"), ("D", 3, 0.25 + 1j), ("D", 4, 0.25 + 1j),
        "SigmaBlock(kind='D', k=3, shift=(0.25+1j))",
        [
            (("x", 0, 0j), "unknown block kind 'x'"),
            (("D", 1, 0j), "discrete series weight must be >= 2 (D_1 is triv+sgn)"),
            (("sgn", 2, 0j), "GL(1) blocks carry no weight"),
        ],
    ),
    (
        IsobaricSum, ("blocks",), ((BLOCK, TRIV),), ((BLOCK,),),
        "IsobaricSum(blocks=(SigmaBlock(kind='D', k=3, shift=(0.25+1j)), "
        "SigmaBlock(kind='triv', k=0, shift=0j)))",
        [],
    ),
    (
        GammaProduct, ("factors",), ((("R", 0.5 + 0j), ("C", 1 + 2j)),), ((("R", 0.5 + 0j),),),
        "GammaProduct(factors=(('R', (0.5+0j)), ('C', (1+2j))))",
        [],
    ),
    (
        PSParams, ("n", "lam", "delta"), (2, (0.1 + 0j, -0.1j), (0, 1)),
        (2, (0.1 + 0j, -0.1j), (1, 1)),
        "PSParams(n=2, lam=((0.1+0j), (-0-0.1j)), delta=(0, 1))",
        [
            ((0, (), ()), "n must be positive"),
            ((2, (0j,), (0, 0)), "lambda and delta must both have length n"),
            ((1, (0j,), (2,)), "delta entries must be parity bits"),
        ],
    ),
    (
        EisParams, ("n", "nu", "psi", "epsilon"), (2, 0.3 + 0.2j, PSI, 0), (3, 0.3 + 0.2j, PSI, 0),
        "EisParams(n=2, nu=(0.3+0.2j), psi=DirichletCharacter(modulus=5, principal=False), "
        "epsilon=0)",
        [
            ((1, 0.3, PSI, 0), "n must be at least 2"),
            ((2, 0.3, PSI, 2), "epsilon must be 0 or 1"),
            ((2, 0.3, ODD, 0), "parity mismatch: psi(-1) = (-1)^1, epsilon = 0"),
        ],
    ),
    (
        DeltaAtom, ("location", "weight"), ((Fraction(1, 2), Fraction(3)), 0.5 - 1j),
        ((Fraction(1, 2), Fraction(3)), 0.5 + 1j),
        "DeltaAtom(location=(Fraction(1, 2), Fraction(3, 1)), weight=(0.5-1j))",
        [],
    ),
    (Ramified, ("degree",), (2,), (3,), "Ramified(degree=2)", []),
    (
        RamifiedConstant, ("description",), ("x",), ("y",),
        "RamifiedConstant(description='x')", [],
    ),
    (
        QuadratureConfig, ("abs_tol", "rel_tol"), (1e-12, 1e-10), (1e-12, 1e-9),
        "QuadratureConfig(abs_tol=1e-12, rel_tol=1e-10)",
        [
            ((0.0, 1e-7), "tolerances must be positive"),
            ((1e-9, -1.0), "tolerances must be positive"),
        ],
    ),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize(("cls", "names", "values", "other", "text", "invalid"), CASES, ids=IDS)
def test_value_class(cls, names, values, other, text, invalid):
    obj = cls(*values)
    assert tuple(getattr(obj, name) for name in names) == values
    assert cls(**dict(zip(names, values))) == obj
    # equality and hashing by value, within the class only
    twin = cls(*values)
    assert twin is not obj and twin == obj and not twin != obj
    assert hash(twin) == hash(obj)
    assert cls(*other) != obj
    assert obj.__eq__(object()) is NotImplemented
    assert repr(obj) == text
    for name in names:
        with pytest.raises(AttributeError):
            setattr(obj, name, values[0])
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert tuple(getattr(obj, name) for name in names) == values
    with pytest.raises(AttributeError):
        obj.undeclared = 1
    for copied in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert copied == obj and type(copied) is cls
    for bad, message in invalid:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(*bad)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(**dict(zip(names, bad)))


@pytest.mark.parametrize(
    ("obj", "fields"),
    [
        (QuadratureConfig(), {"abs_tol": 1e-9, "rel_tol": 1e-7}),
        (IsobaricSum(), {"blocks": ()}),
        (GammaProduct(), {"factors": ()}),
        (RamifiedConstant(), {"description": "constant * psi(v_n)"}),
    ],
    ids=["QuadratureConfig", "IsobaricSum", "GammaProduct", "RamifiedConstant"],
)
def test_value_class_defaults(obj, fields):
    assert {name: getattr(obj, name) for name in fields} == fields
    assert obj == type(obj)(**fields)


def test_isobaric_sum_is_a_multiset():
    # order is kept for display but is not observable by == or hash
    a, b = IsobaricSum((BLOCK, TRIV)), IsobaricSum((TRIV, BLOCK))
    assert a == b and hash(a) == hash(b)
    assert repr(a) != repr(b)
    assert IsobaricSum((BLOCK, BLOCK)) != IsobaricSum((BLOCK,))


def test_character_is_immutable():
    # a character is hashed, and held inside EisParams, whose constructor
    # checks epsilon against its parity: neither may change after the fact
    psi = enumerate_characters(5)[0]
    params = EisParams(2, 3.0, psi, 0)
    held = {params}
    for name in ("modulus", "row", "_group"):
        with pytest.raises(AttributeError):
            setattr(psi, name, (0, 2, 0, 2))
        with pytest.raises(AttributeError):
            delattr(psi, name)
    with pytest.raises(AttributeError):
        psi.undeclared = 1
    assert psi.row == (0, 0, 0, 0) and psi.parity == params.epsilon == 0
    assert params in held


def test_character_repr_eq_hash_ignore_the_unit_group():
    assert repr(PSI) == "DirichletCharacter(modulus=5, principal=False)"
    assert repr(enumerate_characters(1)[0]) == "DirichletCharacter(modulus=1, principal=True)"
    twin = enumerate_characters(5)[2]
    assert twin == PSI and hash(twin) == hash(PSI) == hash((5, PSI.row))
    assert PSI != ODD and PSI != PSI.row and PSI != object()


@pytest.mark.parametrize(
    "copier", [copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))]
)
def test_character_copies_round_trip(copier):
    for psi in (PSI, ODD, enumerate_characters(1)[0], enumerate_characters(24)[5]):
        copied = copier(psi)
        assert type(copied) is type(psi) and copied == psi and hash(copied) == hash(psi)
        assert copied.row == psi.row and copied.units == psi.units
        assert [copied(a) for a in range(psi.modulus)] == [psi(a) for a in range(psi.modulus)]
