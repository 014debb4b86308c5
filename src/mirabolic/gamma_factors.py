"""Isobaric-sum calculus for archimedean L-factors.

Blocks are twisted square-integrable representations of GL(1) or GL(2) over
the reals: triv[s], sgn[s], and discrete series D_k[s] (k >= 2; D_1 is
normalized away eagerly as triv + sgn).  Isobaric sums are multisets of
blocks; the functorial rewrite rules (tensor, Ext^2, Sym^2, sign twist)
operate block by block, and ``l_factors`` assembles the Gamma_R / Gamma_C
product attached to a sum.

Gamma products compare for equality in canonical form: every Gamma_C factor
expanded as Gamma_R(shift) Gamma_R(shift+1), the multiset sorted.
"""

from __future__ import annotations

import re as _re

from .errors import EmptyRepresentationError, ParseError, PoleError, _Value
from .principal_series import PSParams
from .special import (
    _is_nonpositive_multiple,
    finite_exp,
    log_gamma_C,
    log_gamma_R,
    parse_complex,
)

TRIV = "triv"
SGN = "sgn"
DISCRETE = "D"


class SigmaBlock(_Value):
    """One twisted block sigma[s]: kind in {triv, sgn, D}; k is the discrete
    series weight (0 for the GL(1) kinds); shift is the twist s."""

    __slots__ = ("kind", "k", "shift")

    def __init__(self, kind: str, k: int, shift: complex):
        if kind not in (TRIV, SGN, DISCRETE):
            raise ValueError(f"unknown block kind {kind!r}")
        if kind == DISCRETE and k < 2:
            raise ValueError("discrete series weight must be >= 2 (D_1 is triv+sgn)")
        if kind != DISCRETE and k != 0:
            raise ValueError("GL(1) blocks carry no weight")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "shift", shift)

    @property
    def dimension(self) -> int:
        return 2 if self.kind == DISCRETE else 1

    def _sort_key(self):
        s = complex(self.shift)
        return (self.kind, self.k, s.real, s.imag)

    def __str__(self):
        name = f"D{self.k}" if self.kind == DISCRETE else self.kind
        s = complex(self.shift)
        if s == 0:
            return name
        if s.imag == 0:
            return f"{name}[{s.real:g}]"
        return f"{name}[{s.real:g},{s.imag:g}]"


def triv(shift: complex = 0) -> "IsobaricSum":
    return IsobaricSum((SigmaBlock(TRIV, 0, complex(shift)),))


def sgn(shift: complex = 0) -> "IsobaricSum":
    return IsobaricSum((SigmaBlock(SGN, 0, complex(shift)),))


def sgn_power(eps: int, shift: complex = 0) -> "IsobaricSum":
    """sgn^eps[shift]: triv or sgn by the parity of eps."""
    return sgn(shift) if eps % 2 else triv(shift)


def discrete(k: int, shift: complex = 0) -> "IsobaricSum":
    """D_k[shift]; D_1 expands to triv + sgn per the standard convention."""
    if k < 1:
        raise ValueError("discrete series weight must be >= 1")
    if k == 1:
        return boxplus(triv(shift), sgn(shift))
    return IsobaricSum((SigmaBlock(DISCRETE, k, complex(shift)),))


class IsobaricSum(_Value):
    """A formal boxplus-sum of blocks.  Insertion order is preserved for
    display and embedding parameters, but equality and hashing are by
    multiset, so order is never observable structurally."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[SigmaBlock, ...] = ()):
        object.__setattr__(self, "blocks", blocks)

    def _multiset(self):
        return tuple(sorted(self.blocks, key=SigmaBlock._sort_key))

    def __eq__(self, other):
        if not isinstance(other, IsobaricSum):
            return NotImplemented
        return self._multiset() == other._multiset()

    def __hash__(self):
        return hash(self._multiset())

    @property
    def dimension(self) -> int:
        return sum(b.dimension for b in self.blocks)

    def __str__(self):
        if not self.blocks:
            return "0"
        return "+".join(str(b) for b in self.blocks)


EMPTY = IsobaricSum(())


def boxplus(*sums: IsobaricSum) -> IsobaricSum:
    """Multiset union (formal abelian addition)."""
    blocks: list[SigmaBlock] = []
    for p in sums:
        blocks.extend(p.blocks)
    return IsobaricSum(tuple(blocks))


def twist(p: IsobaricSum, s: complex) -> IsobaricSum:
    """Pi[s]: add s to every block shift."""
    s = complex(s)
    return IsobaricSum(
        tuple(SigmaBlock(b.kind, b.k, b.shift + s) for b in p.blocks)
    )


def _tensor_blocks(a: SigmaBlock, b: SigmaBlock) -> IsobaricSum:
    s = a.shift + b.shift
    if a.kind == TRIV:
        return IsobaricSum((SigmaBlock(b.kind, b.k, s),))
    if b.kind == TRIV:
        return IsobaricSum((SigmaBlock(a.kind, a.k, s),))
    if a.kind == SGN and b.kind == SGN:
        return triv(s)
    if a.kind == SGN:
        return discrete(b.k, s)
    if b.kind == SGN:
        return discrete(a.k, s)
    return boxplus(discrete(a.k + b.k - 1, s), discrete(abs(a.k - b.k) + 1, s))


def tensor(p: IsobaricSum, q: IsobaricSum) -> IsobaricSum:
    """Pi x Pi', bilinear over boxplus with the GL(2) base table."""
    return boxplus(*(_tensor_blocks(a, b) for a in p.blocks for b in q.blocks))


def _ext2_block(b: SigmaBlock) -> IsobaricSum:
    if b.kind != DISCRETE:
        return EMPTY
    return sgn_power(b.k, 2 * b.shift)


def _sym2_block(b: SigmaBlock) -> IsobaricSum:
    if b.kind != DISCRETE:
        return triv(2 * b.shift)
    return boxplus(
        discrete(2 * b.k - 1, 2 * b.shift), sgn_power(b.k + 1, 2 * b.shift)
    )


def _square_functor(p: IsobaricSum, block_rule) -> IsobaricSum:
    blocks = p.blocks
    parts = [block_rule(b) for b in blocks]
    parts.extend(
        _tensor_blocks(blocks[j], blocks[k])
        for j in range(len(blocks))
        for k in range(j + 1, len(blocks))
    )
    return boxplus(*parts)


def ext2(p: IsobaricSum) -> IsobaricSum:
    """Exterior square: Ext^2(boxplus Pi_j) = boxplus Ext^2 Pi_j + cross
    tensor terms; Ext^2 triv = Ext^2 sgn = 0, Ext^2 D_k[s] = sgn^k[2s]."""
    return _square_functor(p, _ext2_block)


def sym2(p: IsobaricSum) -> IsobaricSum:
    """Symmetric square: same recursion with Sym^2 triv = Sym^2 sgn = triv,
    Sym^2 D_k[s] = (D_{2k-1} + sgn^{k+1})[2s]."""
    return _square_functor(p, _sym2_block)


def sgn_twist(p: IsobaricSum, eta: int) -> IsobaricSum:
    """Tensor every block with sgn^eta (triv <-> sgn swap for eta odd; D_k
    blocks are fixed)."""
    if eta % 2 == 0:
        return p
    out = []
    for b in p.blocks:
        if b.kind == TRIV:
            out.append(SigmaBlock(SGN, 0, b.shift))
        elif b.kind == SGN:
            out.append(SigmaBlock(TRIV, 0, b.shift))
        else:
            out.append(b)
    return IsobaricSum(tuple(out))


class GammaProduct(_Value):
    """A finite product of Gamma_R(s+shift) / Gamma_C(s+shift) factors."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[str, complex], ...] = ()):
        object.__setattr__(self, "factors", factors)

    def to_record(self) -> list[dict]:
        return [
            {"kind": kind, "shift": {"re": complex(sh).real, "im": complex(sh).imag}}
            for kind, sh in self.factors
        ]


def l_factors(p: IsobaricSum) -> GammaProduct:
    """The archimedean L-factor of an isobaric sum:
    triv[s] -> Gamma_R(s), sgn[s] -> Gamma_R(s+1), D_k[s] -> Gamma_C(s+(k-1)/2)."""
    factors = []
    for b in p.blocks:
        if b.kind == TRIV:
            factors.append(("R", b.shift))
        elif b.kind == SGN:
            factors.append(("R", b.shift + 1))
        else:
            factors.append(("C", b.shift + (b.k - 1) / 2))
    return GammaProduct(tuple(factors))


def canonicalize(g: GammaProduct) -> GammaProduct:
    """Fully Gamma_R-expanded, sorted canonical form (for equality tests)."""
    out = []
    for kind, sh in g.factors:
        sh = complex(sh)
        if kind == "C":
            out.append(("R", sh))
            out.append(("R", sh + 1))
        else:
            out.append(("R", sh))
    out.sort(key=lambda f: (f[1].real, f[1].imag))
    return GammaProduct(tuple(out))


def evaluate_gamma_product(g: GammaProduct, s: complex) -> complex:
    """Numerical value of the product at s, accumulated in log space;
    raises ValueOverflowError when it exceeds the double range."""
    s = complex(s)
    total = 0j
    for kind, sh in g.factors:
        z = s + complex(sh)
        if kind == "R":
            if _is_nonpositive_multiple(z, 2):
                raise PoleError(f"Gamma_R pole in factor R({complex(sh)}) at s={s}")
            total += log_gamma_R(z)
        else:
            if _is_nonpositive_multiple(z, 1):
                raise PoleError(f"Gamma_C pole in factor C({complex(sh)}) at s={s}")
            total += log_gamma_C(z)
    return finite_exp(total, "Gamma product")


def embedding_params(p: IsobaricSum, alt_delta: bool = False) -> PSParams:
    """Principal-series parameters of the dual pi'_infty containing Pi.

    Each GL(1) block sigma[s] contributes lambda = -s with delta its parity;
    each D_k[s] contributes lambda = (-s-(k-1)/2, -s+(k-1)/2) with
    delta = (k mod 2, 0), or the equivalent (k+1 mod 2, 1) when alt_delta.
    Raises EmptyRepresentationError for the empty sum, which has no n >= 1."""
    if not p.blocks:
        raise EmptyRepresentationError(
            "the isobaric sum is empty, so it has no principal-series embedding"
        )
    lam: list[complex] = []
    delta: list[int] = []
    for b in p.blocks:
        if b.kind == DISCRETE:
            half = (b.k - 1) / 2
            lam.extend([-b.shift - half, -b.shift + half])
            if alt_delta:
                delta.extend([(b.k + 1) % 2, 1])
            else:
                delta.extend([b.k % 2, 0])
        else:
            lam.append(-b.shift)
            delta.append(0 if b.kind == TRIV else 1)
    return PSParams(len(lam), tuple(lam), tuple(delta))


def validate_generic_unitary(p: IsobaricSum, tol: float = 1e-9) -> list[str]:
    """Necessary unitarity conditions: the block multiset must equal its own
    dual {sigma[-conj(s)]} within tol, and every |Re s| must be < 1/2.
    Returns a list of violation descriptions (empty iff both conditions hold)."""
    violations = []
    unmatched = list(p.blocks)
    for b in p.blocks:
        target = -complex(b.shift).conjugate()
        hit = None
        for c in unmatched:
            if (
                c.kind == b.kind
                and c.k == b.k
                and abs(complex(c.shift) - target) <= tol
            ):
                hit = c
                break
        if hit is None:
            violations.append(f"no dual partner for block {b}")
        else:
            unmatched.remove(hit)
    for b in p.blocks:
        if abs(complex(b.shift).real) >= 0.5:
            violations.append(f"|Re s| >= 1/2 for block {b}")
    return violations


_BLOCK_RE = _re.compile(r"(triv|sgn|D(\d+))(?:\[([^\]]*)\])?")


def parse_rep(text: str) -> IsobaricSum:
    """Parse the rep grammar: blocks joined by `+`, block one of `triv`,
    `sgn`, `D<k>`, each with optional twist `[re]` or `[re,im]`."""
    pieces = []
    pos = 0
    for chunk in text.split("+"):
        body = chunk.strip()
        if not body:
            raise ParseError("empty block", position=pos)
        m = _BLOCK_RE.fullmatch(body)
        if m is None:
            raise ParseError(f"bad block {body!r}", position=pos)
        shift = parse_complex(m.group(3), pos) if m.group(3) is not None else 0j
        if m.group(2) is not None:
            k = int(m.group(2))
            if k < 1:
                raise ParseError(f"bad weight in {body!r}", position=pos)
            pieces.append(discrete(k, shift))
        elif body.startswith(TRIV):
            pieces.append(triv(shift))
        else:
            pieces.append(sgn(shift))
        pos += len(chunk) + 1
    return boxplus(*pieces)
