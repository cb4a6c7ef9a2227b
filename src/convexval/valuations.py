"""Concrete valuations on polytopes and expansions of their dilation behaviour.

A valuation assigns an exact rational to every polytope so that the
inclusion-exclusion law holds on convex unions. The panel kinds:

* volume: ambient-dimensional volume.
* euler: constantly 1 on every body (interesting only on formal sums).
* probe_volume(Q): P -> volume(P + Q), a translation-invariant probe that
  reads off mixed volumes with Q.
* support(u): P -> max over vertices of <u, v>; NOT translation-invariant,
  kept as the contrast case and barred from acting on translation classes.
* lattice_count: number of integer points, invariant under integer
  translations only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple, Optional

from . import polytope as pk
from .diffcalc import (
    QQ,
    NATURALS,
    FunctionHandle,
    PolynomialExpansion,
    extract_components,
)
from .errors import NonInvariantOnClasses, ReconstructionFailure, WrongDimension
from .rationals import point_str, rat_str

VOLUME = "volume"
EULER = "euler"
PROBE_VOLUME = "probe_volume"
SUPPORT = "support"
LATTICE = "lattice_count"


class ValuationDescriptor(NamedTuple):
    kind: str
    probe: Optional[pk.Polytope] = None
    direction: Optional[tuple] = None
    label: Optional[str] = None

    @property
    def translation_invariant(self) -> bool:
        return self.kind in (VOLUME, EULER, PROBE_VOLUME)

    def key(self) -> str:
        if self.kind == VOLUME:
            return "volume"
        if self.kind == EULER:
            return "euler"
        if self.kind == PROBE_VOLUME:
            tag = self.label or ";".join(point_str(v) for v in self.probe.vertices)
            return f"probe_vol:{tag}"
        if self.kind == SUPPORT:
            return "support:" + ",".join(rat_str(c) for c in self.direction)
        return "lattice"


def volume_valuation() -> ValuationDescriptor:
    return ValuationDescriptor(VOLUME)


def euler_valuation() -> ValuationDescriptor:
    return ValuationDescriptor(EULER)


def probe_volume(Q: pk.Polytope, label: str | None = None) -> ValuationDescriptor:
    return ValuationDescriptor(PROBE_VOLUME, probe=Q, label=label)


def support_valuation(direction) -> ValuationDescriptor:
    return ValuationDescriptor(SUPPORT, direction=pk.point(direction))


def lattice_valuation() -> ValuationDescriptor:
    return ValuationDescriptor(LATTICE)


# the named probe bodies by label: the default panel's probes and the
# CLI's `probe:` tokens
NAMED_PROBES = {
    "unit_cube": pk.unit_cube,
    "std_simplex": pk.standard_simplex,
    "asym_simplex": pk.asymmetric_simplex,
}


def default_panel(ambient_dim: int) -> tuple:
    """Volume, Euler, and the named probe volumes for a dimension."""
    return (volume_valuation(), euler_valuation()) + tuple(
        probe_volume(make(ambient_dim), name) for name, make in NAMED_PROBES.items())


@lru_cache(maxsize=pk.CACHE_SIZE)
def _evaluate(val: ValuationDescriptor, P: pk.Polytope) -> Fraction:
    if val.kind == VOLUME:
        return pk.volume(P)
    if val.kind == EULER:
        return Fraction(1)
    if val.kind == PROBE_VOLUME:
        return pk.volume(pk.minkowski_sum(P, val.probe))
    if val.kind == SUPPORT:
        return max(
            sum(c * x for c, x in zip(val.direction, v)) for v in P.vertices
        )
    if val.kind == LATTICE:
        return Fraction(pk.lattice_count(P))
    raise ValueError(f"unknown valuation kind {val.kind!r}")


def evaluate(val: ValuationDescriptor, P: pk.Polytope) -> Fraction:
    """Exact value of the valuation on a single polytope."""
    return _evaluate(val, P)


def evaluate_sum(val: ValuationDescriptor, s) -> Fraction:
    """Linear extension of a valuation to a formal sum of classes.

    Formal sums store translation-canonical representatives, so only
    translation-invariant valuations may act on them.
    """
    if not val.translation_invariant:
        raise NonInvariantOnClasses(
            f"{val.key()} is not translation-invariant and cannot act on "
            "translation classes"
        )
    # the terms add over the lcm of their denominators, into one Fraction
    values = [(coef, evaluate(val, rep)) for rep, coef in s.terms]
    den = lcm(*(v.denominator for _, v in values))
    return Fraction(sum(coef * v.numerator * (den // v.denominator) for coef, v in values), den)


def expansion_of_dilation(
    val: ValuationDescriptor,
    P: pk.Polytope,
    probe: pk.Polytope | None = None,
    degree: int | None = None,
) -> PolynomialExpansion:
    """Polynomial expansion of t -> val(t*P) or t -> val(t*P + probe).

    The degree bound defaults to dim(P) without a probe and to the ambient
    dimension with one. Requires a translation-invariant valuation.
    """
    if not val.translation_invariant:
        raise NonInvariantOnClasses(
            f"{val.key()} is not translation-invariant; its dilation function "
            "has no translation-stable expansion"
        )
    if degree is None:
        degree = P.ambient_dim if probe is not None else pk.dim(P)

    def fn(t):
        body = pk.dilate(P, t)
        return evaluate(val, body if probe is None else pk.minkowski_sum(body, probe))

    return extract_components(FunctionHandle(fn), degree)


def ehrhart_expansion(P: pk.Polytope, degree: int | None = None) -> PolynomialExpansion:
    """Expansion of k -> lattice_count(k*P) over the naturals.

    Exact for lattice polytopes. For non-integral vertices the counting
    function is a quasi-polynomial, and ReconstructionFailure is raised
    unless it is a polynomial; `polytope.guard_dilate_scan` refuses first.
    """
    if degree is None:
        degree = pk.dim(P)
    # D, the vertices' common denominator, is the integer form's scale; the
    # extraction counts dilates 0..degree and 0..3, the check 0..top - 1
    D = P._ints[1]
    top = D * (max(degree, pk.dim(P)) + 1)
    pk.guard_dilate_scan(P, max(top - 1, 3))

    @lru_cache(maxsize=None)
    def count(k):
        return Fraction(pk.lattice_count(pk.dilate(P, k)))

    expansion = extract_components(FunctionHandle(count, NATURALS, QQ), degree)
    # The count is a quasi-polynomial of degree dim P whose period divides the
    # common denominator D of the vertex coordinates (Ehrhart). It is the
    # extracted polynomial iff each of its D constituents agrees with it at
    # max(degree, dim P) + 1 dilates of its residue class mod D, all of which
    # lie below D * (max(degree, dim P) + 1). For a lattice polytope (D = 1)
    # extraction has already counted all of them.
    coeffs = expansion.scalar_coefficients()
    for k in range(top):
        if count(k) != sum(c * k**i for i, c in enumerate(coeffs)):
            raise ReconstructionFailure(
                f"lattice count of the {k}-dilate leaves the extracted "
                "polynomial; the counting function is a quasi-polynomial"
            )
    return expansion


def mixed_volume_2d(P: pk.Polytope, Q: pk.Polytope) -> Fraction:
    """Planar mixed volume: (vol(P+Q) - vol(P) - vol(Q)) / 2."""
    if P.ambient_dim != 2 or Q.ambient_dim != 2:
        raise WrongDimension("mixed_volume_2d needs two planar polytopes")
    return (
        pk.volume(pk.minkowski_sum(P, Q)) - pk.volume(P) - pk.volume(Q)
    ) / 2
