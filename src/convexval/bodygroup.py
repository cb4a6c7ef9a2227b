"""The finitely generated fragment of the group of polytope classes.

Elements are finite integer combinations of translation classes of polytopes.
A class is stored as its canonical representative: the polytope translated so
its lexicographically smallest vertex sits at the origin. Addition is free;
the inclusion-exclusion relation is not quotiented structurally, so equality
of stored sums is a sufficient but not necessary condition for equality in
the full group. Panels of translation-invariant valuations provide the sound
direction: a panel disagreement certifies that two sums differ as group
elements, while agreement is only a fingerprint match.

`mcmullen_components` realizes the grading: e_0[X], ..., e_d[X] are explicit
integer combinations of rational dilates of X with e_0[X] = [point],
sum e_i[X] = [X], re-extraction idempotence, and degree-i homogeneity under
dilation, all checkable exactly. The integers and dilation factors depend on
the degree only, so they are extracted once per degree into a table.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from . import polytope as pk
from .diffcalc import QQ_NONNEG, FunctionHandle, GroupOps, extract_components
from .errors import GuardExceeded, InvariantViolation, ParseError, ReconstructionFailure
from .rationals import point_str, rat
from .valuations import evaluate_sum


def class_rep(P: pk.Polytope) -> pk.Polytope:
    """Canonical representative: translate the least vertex to the origin."""
    least = P.vertices[0]
    if all(c == 0 for c in least):
        return P
    return pk.translate(P, tuple(-c for c in least))


def _sort_key(P: pk.Polytope):
    return (P.ambient_dim, P.vertices)


class FormalSum:
    """Finite integer combination of canonical polytope classes.

    ``terms`` holds (class representative, nonzero coefficient) pairs sorted
    by class; the representation is unique, so `==` decides equality of
    stored sums.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple = ()):
        object.__setattr__(self, "terms", terms)

    __setattr__ = __delattr__ = pk.Polytope.__setattr__

    def __reduce__(self):
        return FormalSum, (self.terms,)

    def __repr__(self):
        return f"FormalSum(terms={self.terms!r})"

    def __eq__(self, other):
        return self.terms == other.terms if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash((self.terms,))

    @staticmethod
    def zero() -> "FormalSum":
        return _ZERO

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return _collect(self.terms + other.terms)

    def __neg__(self):
        return FormalSum(tuple((poly, -coef) for poly, coef in self.terms))

    def __sub__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return _ZERO
        return FormalSum(tuple((poly, k * coef) for poly, coef in self.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for poly, coef in self.terms:
            body = "[" + ";".join(point_str(v) for v in poly.vertices) + "]"
            if coef == 1:
                parts.append(body)
            elif coef == -1:
                parts.append("-" + body)
            else:
                parts.append(f"{coef}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


_ZERO = FormalSum(())


def _collect(terms) -> FormalSum:
    """The sum of (class, integer coefficient) pairs: equal classes added,
    zero coefficients dropped, the terms sorted by class."""
    acc: dict = {}
    for poly, coef in terms:
        acc[poly] = acc.get(poly, 0) + coef
    return FormalSum(tuple(sorted(((poly, coef) for poly, coef in acc.items() if coef),
                                  key=lambda item: _sort_key(item[0]))))


def class_of(P: pk.Polytope) -> FormalSum:
    """The class [P]: a single canonical term with coefficient 1."""
    return FormalSum(((class_rep(P), 1),))


def dilate_class(s: FormalSum, factor) -> FormalSum:
    """Termwise dilation followed by re-canonicalization."""
    lam = rat(factor)
    return _collect((class_rep(pk.dilate(poly, lam)), coef) for poly, coef in s.terms)


def formal_sum_group() -> GroupOps:
    """Carrier record so the difference calculus can target formal sums."""
    return GroupOps(
        add=FormalSum.__add__,
        zero=_ZERO,
        neg=FormalSum.__neg__,
        scale=lambda k, s: k * s,
    )


# ---------------------------------------------------------------------------
# the graded components


def mcmullen_components(P: pk.Polytope, degree: int | None = None) -> list:
    """The components e_0[P], ..., e_d[P] of the class of P.

    Computed by extracting the polynomial expansion of t -> [t*P] in the
    group of formal sums; entry i is the degree-i component evaluated at
    dilation factor 1 and entry 0 is the constant [point]. The entries are
    integer combinations of rational dilates of P summing to [P] exactly.

    ``degree`` defaults to dim(P); any bound >= dim(P) is valid and yields
    identically zero extra components, and a smaller one raises
    ReconstructionFailure.
    """
    if degree is None:
        degree = pk.dim(P)
    return component_extraction_on_sum(class_of(P), degree)


def component_extraction_on_sum(s: FormalSum, degree: int) -> list:
    """Degree components of a formal sum; additive in the sum.

    Entry i is sum of coef * dilate_class(s, t) over row i of the degree's
    table. Raises ReconstructionFailure when ``degree`` is below the
    dimension of a term (t -> [tX] has degree dim X).
    """
    rows = component_table(degree)
    top = max((pk.dim(poly) for poly, _ in s.terms), default=0)
    if degree < top:
        raise ReconstructionFailure(
            f"degree {degree} is below the dimension {top} of a term; "
            f"the degree-{degree} vanishing hypothesis fails"
        )
    dilates: dict = {}

    def dilated(t) -> FormalSum:
        if t not in dilates:
            dilates[t] = dilate_class(s, t)
        return dilates[t]

    return [_collect((poly, coef * k) for t, coef in row for poly, k in dilated(t).terms)
            for row in rows]


def _merge(x: dict, y: dict) -> dict:
    acc = dict(x)
    for t, c in y.items():
        acc[t] = acc.get(t, 0) + c
    return {t: c for t, c in acc.items() if c}


# integer combinations of dilation factors: {t: coef} stands for
# sum coef * [tX], and t -> {t: 1} is the free dilation function
_FACTOR_SUMS = GroupOps(
    add=_merge,
    zero={},
    neg=lambda x: {t: -c for t, c in x.items()},
    scale=lambda k, x: {t: k * c for t, c in x.items()} if k else {},
)


@lru_cache(maxsize=32)
def component_table(degree: int) -> tuple:
    """The rows of the degree-``degree`` grading.

    rows[i] holds the (factor t, integer coef) pairs with
    e_i[X] = sum coef * [tX]. Extracted by the generic `extract_components`
    from the free dilation function t -> {t: 1}; every formal sum maps that
    function to t -> dilate_class(s, t) by a group homomorphism, so applying
    the rows to the dilates of s gives the components the generic extractor
    would. Once the degree is at least the dimension of every term, the rows
    rebuild every dilate, so no reconstruction probe is needed. Degrees
    above `polytope.DEGREE_GUARD` raise GuardExceeded.
    """
    if degree > pk.DEGREE_GUARD:
        raise GuardExceeded(f"grading degree {degree} > {pk.DEGREE_GUARD}")
    handle = FunctionHandle(lambda t: {t: 1}, QQ_NONNEG, _FACTOR_SUMS)
    expansion = extract_components(handle, degree, probes=[])
    return tuple(tuple(sorted(x.items())) for x in expansion.scalar_coefficients())


# ---------------------------------------------------------------------------
# panels


class PanelSignature(NamedTuple):
    """Ordered exact values a fixed valuation panel assigns to a sum."""

    entries: tuple

    def values(self):
        return tuple(v for _, v in self.entries)

    def __add__(self, other):
        if not isinstance(other, PanelSignature):
            return NotImplemented
        if tuple(k for k, _ in self.entries) != tuple(k for k, _ in other.entries):
            raise InvariantViolation("panel signatures over different panels")
        return PanelSignature(
            tuple((k, a + b) for (k, a), (_, b) in zip(self.entries, other.entries))
        )


def panel_signature(s: FormalSum, panel) -> PanelSignature:
    return PanelSignature(tuple((val.key(), evaluate_sum(val, s)) for val in panel))


class PanelComparison(NamedTuple):
    """Outcome of comparing two sums through a panel.

    ``witness`` is None when every panel valuation agrees. A witness
    certifies the sums are distinct group elements; agreement is NOT a proof
    of equality (the panel is a finite fingerprint).
    """

    equal_on_panel: bool
    witness: Optional[str] = None
    left: Optional[Fraction] = None
    right: Optional[Fraction] = None


def panel_compare(s1: FormalSum, s2: FormalSum, panel) -> PanelComparison:
    for val in panel:
        a = evaluate_sum(val, s1)
        b = evaluate_sum(val, s2)
        if a != b:
            return PanelComparison(False, val.key(), a, b)
    return PanelComparison(True)


# ---------------------------------------------------------------------------
# identity reports


class CheckRow(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


# equal rows are one object: the same check passing on another body repeats
# its row, and a caller that keeps many reports would keep a copy of each
_check_row = lru_cache(maxsize=1 << 10, typed=True)(CheckRow)


def _equality_row(name, left, right) -> CheckRow:
    """The row of the check left == right, naming both sides when they differ."""
    return _check_row(name, left == right, "" if left == right else f"{left} != {right}")


class Report(NamedTuple):
    title: str
    rows: tuple

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def failures(self):
        return [row for row in self.rows if not row.ok]


def verify_idempotence(P: pk.Polytope, panel) -> Report:
    """Re-extracting a component leaves slot i==j fixed and kills the rest.

    Checked at panel level: extraction slot i of e_j[P] must be panel-equal
    to e_j[P] when i == j and to the zero sum otherwise.
    """
    d = pk.dim(P)
    comps = mcmullen_components(P, d)
    rows = []
    for j, ej in enumerate(comps):
        re_extracted = component_extraction_on_sum(ej, d)
        for i, slot in enumerate(re_extracted):
            target = ej if i == j else FormalSum.zero()
            cmp = panel_compare(slot, target, panel)
            detail = "" if cmp.equal_on_panel else (
                f"{cmp.witness}: {cmp.left} != {cmp.right}"
            )
            rows.append(_check_row(f"e_{i} of e_{j}", cmp.equal_on_panel, detail))
    return Report("idempotence", tuple(rows))


def verify_homogeneity(P: pk.Polytope, factor, panel) -> Report:
    """Degree-i components rescale by factor**i through every panel valuation."""
    lam = rat(factor)
    d = pk.dim(P)
    base = mcmullen_components(P, d)
    dilated = mcmullen_components(pk.dilate(P, lam), d)
    rows = []
    for i in range(d + 1):
        for val in panel:
            rows.append(_equality_row(f"degree {i} under {val.key()}",
                                      evaluate_sum(val, dilated[i]),
                                      lam ** i * evaluate_sum(val, base[i])))
    return Report(f"homogeneity at {lam}", tuple(rows))


def simplex_identity_as_classes(basis: pk.SimplexBasis, a, b, panel) -> Report:
    """Inclusion-exclusion for the dilated staircase simplex, at class level.

    The class of the (a+b)-dilate equals the alternating sum of classes of
    the Minkowski-sum pieces, once each panel valuation is applied.
    """
    pieces = pk.decomposition_pieces(basis, a, b)
    av, bv = pieces.a, pieces.b
    lhs = class_of(pk.dilate(pk.simplex_from_basis(basis), av + bv))
    rhs = _collect([(class_rep(cell), 1) for cell in pieces.cells]
                   + [(class_rep(seam), -1) for seam in pieces.seams])
    rows = tuple(_equality_row(val.key(), evaluate_sum(val, lhs), evaluate_sum(val, rhs))
                 for val in panel)
    return Report(f"simplex class identity (a={av}, b={bv})", rows)


# ---------------------------------------------------------------------------
# serialization

def sum_to_obj(s: FormalSum) -> list:
    return [
        {"coef": coef, "polytope": pk.polytope_to_obj(poly)} for poly, coef in s.terms
    ]


def sum_from_obj(obj) -> FormalSum:
    if not isinstance(obj, list):
        raise ParseError("formal sum must be a JSON list of terms")
    terms = []
    for i, item in enumerate(obj):
        if not isinstance(item, dict) or "coef" not in item or "polytope" not in item:
            raise ParseError(f"term {i} must carry 'coef' and 'polytope'")
        coef = item["coef"]
        if not isinstance(coef, int) or isinstance(coef, bool):
            raise ParseError(f"term {i}: coefficient must be an integer")
        poly = class_rep(pk.polytope_from_obj(item["polytope"]))
        if terms and poly.ambient_dim != terms[0][0].ambient_dim:
            raise ParseError(f"term {i}: dimension {poly.ambient_dim} differs from term 0")
        terms.append((poly, coef))
    return _collect(terms)
