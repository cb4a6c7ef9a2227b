"""Difference-operator calculus over abelian semigroups.

For a function f from an additive carrier A into an abelian group M, the
difference operator is (delta_u f)(a) = f(a+u) - f(a). Iterated differences
detect polynomial behaviour, and when an (n+1)-fold iterated difference of f
vanishes identically, f splits into a constant plus diagonal evaluations of
symmetric multiadditive components of degrees 1..n. `extract_components`
computes those components constructively; everything is exact.

Carriers are described by small operation records so the same code runs over
nonnegative rationals, naturals, rational vectors, and formal sums of
polytope classes.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial
from typing import Any, Callable, NamedTuple, Optional

from .errors import DivisionUnsupported, GuardExceeded, ReconstructionFailure

# Highest degree `extract_components` accepts. Its checks read 2^k residual
# values per degree-k component: a cold `expand --degree k` on the unit
# segment took 0.85, 1.3, 2.9 and 5.6 s for k = 10..13 on a 2-core Xeon.
EXTRACTION_GUARD = 12


class SemigroupOps(NamedTuple):
    """Additive domain carrier.

    ``div`` (exact division by a positive integer, or None) is required for
    component extraction when the codomain is not divisible; ``one`` names
    the point at which single component values are reported.
    """

    add: Callable[[Any, Any], Any]
    zero: Any
    div: Optional[Callable[[Any, int], Any]]
    one: Any


class GroupOps(NamedTuple):
    """Abelian codomain carrier; ``scale(k, x)`` is k*x for an integer k, and
    elements compare with ``==``."""

    add: Callable[[Any, Any], Any]
    zero: Any
    neg: Callable[[Any], Any]
    scale: Callable[[int, Any], Any]
    div: Optional[Callable[[Any, int], Any]] = None


QQ_NONNEG = SemigroupOps(
    add=operator.add, zero=Fraction(0), div=lambda a, k: a / k, one=Fraction(1)
)
NATURALS = SemigroupOps(add=operator.add, zero=0, div=None, one=1)
QQ = GroupOps(
    add=operator.add,
    zero=Fraction(0),
    neg=operator.neg,
    scale=lambda k, x: x * k,
    div=lambda x, k: x / k,
)


def vector_group(length: int) -> GroupOps:
    """Componentwise group of rational vectors of a fixed length."""
    zero = (Fraction(0),) * length
    return GroupOps(
        add=lambda x, y: tuple(a + b for a, b in zip(x, y)),
        zero=zero,
        neg=lambda x: tuple(-a for a in x),
        scale=lambda k, x: tuple(k * a for a in x),
        div=lambda x, k: tuple(a / k for a in x),
    )


class FunctionHandle(NamedTuple):
    """A black-box evaluator A -> M together with its carrier operations."""

    fn: Callable[[Any], Any]
    domain: SemigroupOps = QQ_NONNEG
    codomain: GroupOps = QQ

    def __call__(self, a):
        return self.fn(a)


class ExpansionComponent(NamedTuple):
    """One extracted component: symmetric and additive in each argument."""

    arity: int
    evaluate: Callable[..., Any]
    at_ones: Any = None


class PolynomialExpansion(NamedTuple):
    """Constant plus degree-1..d components of an extracted expansion."""

    degree: int
    constant: Any
    components: tuple
    codomain: GroupOps = QQ

    def __repr__(self):  # the codomain's operations are left out
        return (f"PolynomialExpansion(degree={self.degree!r}, constant={self.constant!r},"
                f" components={self.components!r})")

    def value(self, a):
        """Reconstruct the source function at a: constant + sum of diagonals."""
        M = self.codomain
        acc = self.constant
        for comp in self.components:
            acc = M.add(acc, comp.evaluate(*((a,) * comp.arity)))
        return acc

    def scalar_coefficients(self):
        """[f_0, f_1(1), f_2(1,1), ...]: the constant and each component at ones."""
        return [self.constant] + [comp.at_ones for comp in self.components]


def _memoized(fn):
    cache = {}

    def wrapped(*args):
        try:
            return cache[args]
        except TypeError:
            return fn(*args)
        except KeyError:
            val = cache[args] = fn(*args)
            return val

    return wrapped


def iterated_delta(f: FunctionHandle, us, base=None):
    """Apply delta_{u_1} ... delta_{u_p} to f and evaluate at ``base``.

    Expands to the signed sum over subsets S of {1..p} of
    (-1)^(p-|S|) f(base + sum of u_i for i in S). Symmetric in the u's.
    """
    us = list(us)
    p = len(us)
    if p < 1:
        raise ValueError("iterated_delta needs at least one increment")
    A, M = f.domain, f.codomain
    if base is None:
        base = A.zero
    total = M.zero
    for mask in range(1 << p):
        a = base
        bits = 0
        for i in range(p):
            if (mask >> i) & 1:
                a = A.add(a, us[i])
                bits += 1
        val = f(a)
        if (p - bits) % 2:
            val = M.neg(val)
        total = M.add(total, val)
    return total


def verify_cocycle(f: FunctionHandle, u, v, base=None) -> bool:
    """Check (delta_{u+v} - delta_u - delta_v) f == delta_u delta_v f at base."""
    A, M = f.domain, f.codomain
    if base is None:
        base = A.zero
    lhs = M.add(
        iterated_delta(f, [A.add(u, v)], base),
        M.neg(M.add(iterated_delta(f, [u], base), iterated_delta(f, [v], base))),
    )
    rhs = iterated_delta(f, [u, v], base)
    return lhs == rhs


def verify_vanishing(f: FunctionHandle, n: int, u_samples, base_samples) -> bool:
    """Exhaustively check (n+1)-fold differences vanish on the sample lists."""
    if n < 0:
        raise ValueError("degree bound must be nonnegative")
    us = list(u_samples)
    bases = list(base_samples)
    if not us or not bases:
        raise ValueError("sample lists must be non-empty")
    M = f.codomain
    g = FunctionHandle(_memoized(f.fn), f.domain, f.codomain)
    for multiset in combinations_with_replacement(us, n + 1):
        for base in bases:
            if iterated_delta(g, list(multiset), base) != M.zero:
                return False
    return True


def _component_maker(residual_handle, k, base, use_domain_div):
    A, M = residual_handle.domain, residual_handle.codomain
    kfact = factorial(k)

    if kfact == 1:
        def evaluate(*us):
            return iterated_delta(residual_handle, list(us), base)
    elif use_domain_div:
        def evaluate(*us):
            scaled = [A.div(u, kfact) for u in us]
            h = iterated_delta(residual_handle, scaled, base)
            return M.scale(kfact ** (k - 1), h)
    else:
        def evaluate(*us):
            h = iterated_delta(residual_handle, list(us), base)
            return M.div(h, kfact)

    return evaluate


def _default_probes(A: SemigroupOps):
    one = A.one
    probes = [A.zero, one, A.add(one, one), A.add(A.add(one, one), one)]
    if A.div is not None:
        probes.append(A.div(one, 2))
        probes.append(A.div(A.add(one, one), 3))
    return probes


def extract_components(
    f: FunctionHandle, n: int, base=None, probes=None, check_additivity: bool = True
) -> PolynomialExpansion:
    """Extract the polynomial expansion of f assuming degree-n vanishing.

    Top degree first: the n-fold iterated difference of f is a constant
    symmetric multiadditive map h; the degree-n component is recovered from h
    either by dividing increments by n! in the domain (scaling the result
    back by (n!)^(n-1)) or by dividing h by n! in the codomain, whichever
    carrier supports exact division. Subtracting the diagonal and recursing
    yields the remaining components; the constant is the final residual.
    From `QQ_NONNEG` or `NATURALS` into `QQ` the diagonal subtracted is
    at_ones * a^k, so f is read only at the difference nodes base + j/k!
    (base + j over the naturals), j = 0..k, besides the probes.

    ``base`` is where the constant iterated differences are evaluated
    (default: the domain zero, which pins the constant term to f(0)).
    Raises GuardExceeded above `EXTRACTION_GUARD`, before f is read;
    DivisionUnsupported when neither carrier divides; and
    ReconstructionFailure when the result fails to rebuild f at the probe
    points, which means the vanishing hypothesis was false or n too small.

    ``check_additivity`` additionally requires each component to be additive
    at the probes; disable it for codomains where the hypothesis only holds
    modulo further relations (component additivity is then the caller's
    concern, e.g. it may hold only under a panel of homomorphisms).
    """
    A, M = f.domain, f.codomain
    if n < 0:
        raise ValueError("degree bound must be nonnegative")
    if n > EXTRACTION_GUARD:
        raise GuardExceeded(f"extraction degree {n} > {EXTRACTION_GUARD}")
    if base is None:
        base = A.zero
    use_domain_div = A.div is not None
    if n >= 2 and not use_domain_div and M.div is None:
        raise DivisionUnsupported(
            "component extraction needs exact division by factorials "
            "in the domain or the codomain"
        )

    # on rational scalars a symmetric k-additive map is Q-multilinear, so its
    # diagonal is at_ones * a^k; other carriers re-expand the component
    # through iterated differences at every point the residual is read
    scalar = (A is QQ_NONNEG or A is NATURALS) and M is QQ
    source = _memoized(f.fn)
    residual = source
    reversed_components = []
    for k in range(n, 0, -1):
        handle = FunctionHandle(residual, A, M)
        # the probe and additivity checks read each argument tuple once
        evaluate = _memoized(_component_maker(handle, k, base, use_domain_div))
        at_ones = evaluate(*((A.one,) * k))
        reversed_components.append(
            ExpansionComponent(arity=k, evaluate=evaluate, at_ones=at_ones)
        )

        if scalar:
            def next_residual(a, prev=residual, c=at_ones, arity=k):
                return prev(a) - c * a ** arity
        else:
            def next_residual(a, prev=residual, comp=evaluate, arity=k):
                return M.add(prev(a), M.neg(comp(*((a,) * arity))))

        residual = _memoized(next_residual)

    expansion = PolynomialExpansion(
        degree=n,
        constant=residual(base),
        components=tuple(reversed(reversed_components)),
        codomain=M,
    )

    checks = probes if probes is not None else _default_probes(A)
    for a in checks:
        if source(a) != expansion.value(a):
            raise ReconstructionFailure(
                f"expansion does not reconstruct the function at probe {a}; "
                f"the degree-{n} vanishing hypothesis fails"
            )
    # a false hypothesis can still reconstruct (the residual soaks up the
    # error), but then some component stops being additive: check that too
    nonzero = [a for a in checks if a != A.zero][:3]
    if check_additivity and len(nonzero) >= 2:
        for comp in expansion.components:
            for u in nonzero:
                for v in nonzero:
                    rest = (u,) * (comp.arity - 1)
                    joint = comp.evaluate(A.add(u, v), *rest)
                    split = M.add(comp.evaluate(u, *rest), comp.evaluate(v, *rest))
                    if joint != split:
                        raise ReconstructionFailure(
                            f"degree-{comp.arity} component is not additive; "
                            f"the degree-{n} vanishing hypothesis fails"
                        )
    return expansion


def component_value(f: FunctionHandle, n: int, k: int, args):
    """Value of the degree-k extracted component at the given argument tuple."""
    args = tuple(args)
    if not 1 <= k <= n:
        raise ValueError(f"component degree {k} outside 1..{n}")
    if len(args) != k:
        raise ValueError(f"component of degree {k} takes {k} arguments")
    expansion = extract_components(f, n)
    return expansion.components[k - 1].evaluate(*args)


def verify_diagonal_collapse(fn: Callable, samples) -> bool:
    """Check a multiadditive map over nonnegative rationals collapses to its
    diagonal: fn(t_1, ..., t_k) == g(t_1 * ... * t_k) with g(t) = fn(t, 1, .., 1).
    """
    for tup in samples:
        tup = tuple(tup)
        prod = Fraction(1)
        for t in tup:
            prod *= t
        ones = (Fraction(1),) * (len(tup) - 1)
        if fn(*tup) != fn(prod, *ones):
            return False
    return True
