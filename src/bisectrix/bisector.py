"""Bisection of conic sets, bisector arrangements, and bisector fields.

A line bisects a set of quadratics when every member it crosses yields the
same midpoint of the two crossing points (one of which may be at infinity);
a line crossing nothing is vacuously a bisector with undetermined midpoint.
A bisector arrangement is a set of line pairs in which every line of every
pair bisects the whole set.  Every nontrivial asymptotic pencil is a maximal
such arrangement (a bisector field); the verification suite documents that
the converse fails, so bisector fields here are always carried as
asymptotic pencils.
"""

from __future__ import annotations

from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Sequence

from .conic import (
    CROSSES_AT_INFINITY,
    MEETS_NO_CROSS,
    NO_MEET,
    LinePair,
    Quadratic,
    _has_root,
    _line_product,
    _mid_param,
    _restrict,
    distinct_lines,
    pairs_are_translates,
)
from .field import (
    FieldSpec,
    FieldTuple,
    Frozen,
    Scalar,
    coordinate,
    fill_reduced,
    raw_inverse,
    raw_is_zero,
    wrap,
)
from .geometry import (
    Line,
    MID_INFINITE,
    MID_UNDETERMINED,
    Midpoint,
    ProjectivePoint,
    _line,
    _point_at,
    intersect,
)
from .pencil import (
    AsymptoticPencil,
    Pencil,
    TrivialPencilError,
    _coords,
)

_new = object.__new__


class BisectorError(ValueError):
    """Base class for bisection-specific domain errors."""


class BasepointError(BisectorError):
    """The line passes through a basepoint of the pencil."""


class InsufficientDataError(BisectorError):
    """Too few usable members to pin the object down (tiny fields)."""


def bisects_set(line: Line, quadratics: Iterable[Quadratic]) -> Midpoint | None:
    """The common crossing midpoint, undetermined when nothing is crossed,
    None when two crossed members disagree; members met without crossing
    impose nothing.  Members are compared by their line parameters
    (``conic._mid_param``), a finite midpoint never agrees with an infinite
    one, and one ``Midpoint`` is built, at the end."""
    common = None
    for f in quadratics:
        t = _mid_param(f, line)
        if t is NO_MEET or t is MEETS_NO_CROSS:
            continue
        if common is None:
            common = t
        elif t is not common and t != common:  # CROSSES_AT_INFINITY is one shared record
            return None
    if common is None or common is CROSSES_AT_INFINITY:
        return MID_UNDETERMINED if common is None else MID_INFINITE
    return Midpoint.finite(_point_at(line, common))


class PairThroughLine(Frozen):
    """A reducible net member having the queried line as a component."""

    __slots__ = ("coords", "pair", "whole_family")

    def __repr__(self) -> str:
        return f"PairThroughLine({self.coords}, {self.pair})"


def pair_through_line(line: Line, pencil: Pencil) -> PairThroughLine | None:
    """The reducible net member with the line as a component, by linear algebra.

    Restrict the generators to the line as A t^2 + B t + C.  A combination
    alpha f1 + beta f2 splits off the line after a constant shift exactly
    when its restriction is constant, A = B = 0, which has a nonzero
    solution iff the determinant A1 B2 - A2 B1 is zero; the shift is then
    minus the combination's C.  When both rows vanish every direction
    qualifies; the smallest coordinates are returned with the whole_family
    flag set.  The second line is the member divided by the canonical line.
    """
    spec = pencil.spec
    A1, B1, C1 = _restrict(pencil.f1, line)
    A2, B2, C2 = _restrict(pencil.f2, line)
    if not raw_is_zero(spec, A1 * B2 - A2 * B1):
        return None
    whole_family = False
    if not (raw_is_zero(spec, A1) and raw_is_zero(spec, A2)):
        alpha, beta = A2, -A1
    elif not (raw_is_zero(spec, B1) and raw_is_zero(spec, B2)):
        alpha, beta = B2, -B1
    else:
        alpha, beta = 1, 0
        whole_family = True
    shift = -(alpha * C1 + beta * C2)
    member = [alpha * x + beta * y for x, y in zip(pencil.f1.raw, pencil.f2.raw)]
    member[5] += shift
    a, b, c, d, e, _ = member
    u, v, w = line.raw
    # (X + vY + w)(a X + (b - va) Y + (d - wa)), or (Y + w)(b X + c Y + (e - wc)).
    other = (a, b - v * a, d - w * a) if u else (b, c, e - w * c)
    if not all(raw_is_zero(spec, x - y) for x, y in zip(_line_product(line.raw, other), member)):
        raise AssertionError("the member does not split off the line")
    pair = LinePair(line, _line(spec, *other))
    return PairThroughLine(_coords(spec, alpha, beta, shift), pair, whole_family)


class ArrangementReport(Frozen):
    """Verdict and per-line midpoints (a read-only mapping) of a
    bisector-arrangement check."""

    __slots__ = ("ok", "midpoints")

    def __repr__(self) -> str:
        return f"ArrangementReport(ok={self.ok})"


def is_bisector_arrangement(pairs: Sequence[LinePair]) -> ArrangementReport:
    """Whether every line of every pair bisects all the product quadratics."""
    pairs = list(pairs)
    products = [pair.product() for pair in pairs]
    midpoints = {line: bisects_set(line, products) for line in distinct_lines(pairs)}
    ok = all(m is not None for m in midpoints.values())
    return ArrangementReport(ok, MappingProxyType(midpoints))


NONTRIVIAL = "nontrivial"
ALL_TRANSLATES = "all-translates"
ALL_CONCURRENT = "all-concurrent"
ALL_PARALLEL = "all-parallel"


def classify_trivial_arrangement(pairs: Sequence[LinePair]) -> str:
    """The matching triviality tag of an arrangement, or "nontrivial"."""
    pairs = list(pairs)
    if all(pairs_are_translates(p, q) for p, q in combinations(pairs, 2)):
        return ALL_TRANSLATES
    lines = distinct_lines(pairs)
    if all(line.is_parallel_to(lines[0]) for line in lines[1:]):
        return ALL_PARALLEL
    distinct = [line for line in lines[1:] if line != lines[0]]
    pt = intersect(lines[0], distinct[0])
    if isinstance(pt, ProjectivePoint) and not pt.is_infinite:
        if all(line.contains(pt) for line in lines):
            return ALL_CONCURRENT
    return NONTRIVIAL


class BisectorField(Frozen):
    """A maximal nontrivial bisector arrangement, as an asymptotic pencil.

    Over the rationals the pair set may be infinite, so membership is the
    interface; over a finite field the pairs can be materialized.
    """

    __slots__ = ("apencil",)

    def contains(self, pair: LinePair) -> bool:
        return self.apencil.contains_pair(pair)

    def pairs(self) -> list[LinePair]:
        return [pair for _, pair in self.apencil.members()]

    def __repr__(self) -> str:
        return f"BisectorField({self.apencil.pencil})"


def bisector_field_of(pencil: Pencil) -> BisectorField:
    """The bisector field of a pencil whose asymptotic pencil is nontrivial."""
    ap = AsymptoticPencil(pencil)
    if ap.is_trivial():
        raise TrivialPencilError(
            "the asymptotic pencil is trivial (only degenerate hyperbolas, all "
            "sharing one center), so it is not a bisector field"
        )
    return BisectorField(ap)


def _normalize_involution(inv, spec: FieldSpec, p, q, r):
    """Fill ``inv`` with (p, q, r) scaled so the first nonzero is 1; the one
    normalizer of involutions, which refuses p^2 + q r = 0."""
    if raw_is_zero(spec, p * p + q * r):
        raise BisectorError("degenerate involution coefficients")
    k = raw_inverse(spec, next(x for x in (p, q, r) if not raw_is_zero(spec, x)))
    return fill_reduced(inv, spec, p * k, q * k, r * k)


class Involution(FieldTuple):
    """An order-2 projective map t -> (p t + q) / (r t - p) on a line.

    Parameters are the line's affine parameter, with None standing for the
    point at infinity.  ``raw`` is the coefficient triple (p, q, r) in
    canonical scaling, the first nonzero 1; it must satisfy p^2 + q r != 0
    (nondegeneracy), which makes a double application the identity on every
    parameter.
    """

    __slots__ = ()

    _fill = _normalize_involution
    p, q, r = coordinate(0), coordinate(1), coordinate(2)

    def apply(self, t: Scalar | None) -> Scalar | None:
        spec = self.spec
        if t is None:
            p, _, r = self.raw
            return None if r == 0 else wrap(spec, p * raw_inverse(spec, r))
        p, q, r = self.raw_in(t.spec)
        denom = r * t.value - p
        if raw_is_zero(spec, denom):
            return None
        return wrap(spec, (p * t.value + q) * raw_inverse(spec, denom))

    def conjugates_restriction(self, A: Scalar, B: Scalar, C: Scalar) -> bool:
        """Whether the root pair of A t^2 + B t + C is conjugate under the map."""
        p, q, r = self.raw
        for x in (A, B, C):
            self.raw_in(x.spec)
        return raw_is_zero(self.spec, p * B.value - q * A.value + r * C.value)

    def __repr__(self) -> str:
        return "Involution(p={}, q={}, r={})".format(*self.raw)


def desargues_involution(pencil: Pencil, line: Line) -> Involution:
    """The involution pairing the crossings of the pencil's members with a line.

    Restricting each generator to the line gives a binary quadratic whose
    root pair must be conjugate; each restriction imposes one linear
    condition on the involution coefficients, and two independent members
    determine them.  The resultant of the two restrictions vanishing means
    the line goes through a basepoint of the pencil (possibly at infinity,
    or one rational only over the closure), and the construction refuses.
    """
    spec = pencil.spec
    r1 = _restrict(pencil.f1, line)
    r2 = _restrict(pencil.f2, line)
    zero1 = all(raw_is_zero(spec, x) for x in r1)
    zero2 = all(raw_is_zero(spec, x) for x in r2)
    if zero1 or zero2:
        if zero1 and zero2:
            raise BasepointError("the line is a common component of both generators")
        if _has_root(spec, *(r2 if zero1 else r1)):
            raise BasepointError(
                "the line is a generator component and meets the other generator"
            )
        raise InsufficientDataError(
            "the line is a generator component; every member restricts to a "
            "proportional quadratic"
        )
    A1, B1, C1 = r1
    A2, B2, C2 = r2
    p = A2 * C1 - A1 * C2
    q = C1 * B2 - B1 * C2
    r = A1 * B2 - A2 * B1
    if not raw_is_zero(spec, p * p + q * r):
        return _normalize_involution(_new(Involution), spec, p, q, r)
    if not all(raw_is_zero(spec, x) for x in (p, q, r)):
        raise BasepointError("the line passes through a basepoint of the pencil")
    if _has_root(spec, A1, B1, C1):
        raise BasepointError("the line passes through two basepoints of the pencil")
    raise InsufficientDataError(
        "all members restrict proportionally on this line and no rational "
        "crossing pair exists to fit an involution"
    )
