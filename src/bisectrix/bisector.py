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
from typing import Iterable, Sequence

from .conic import (
    LinePair,
    Quadratic,
    _restrict,
    distinct_lines,
    linear_combination,
    mid,
    pairs_are_translates,
    pullback,
    restrict_to_line,
)
from .field import Frozen, Scalar, raw_is_zero, raw_sqrt
from .geometry import (
    Line,
    MID_UNDETERMINED,
    Midpoint,
    ProjectivePoint,
    intersect,
    map_line_to_y0,
)
from .pencil import (
    AsymptoticPencil,
    NetCoords,
    Pencil,
    TrivialPencilError,
)


class BisectorError(ValueError):
    """Base class for bisection-specific domain errors."""


class BasepointError(BisectorError):
    """The line passes through a basepoint of the pencil."""


class InsufficientDataError(BisectorError):
    """Too few usable members to pin the object down (tiny fields)."""


def bisects_set(line: Line, quadratics: Iterable[Quadratic]) -> Midpoint | None:
    """The common crossing midpoint, undetermined when nothing is crossed.

    Returns None when two crossed members disagree (finite midpoints are
    compared exactly, and a finite midpoint never agrees with an infinite
    one); members the line meets without crossing impose no constraint.
    """
    common: Midpoint | None = None
    for f in quadratics:
        result = mid(f, line)
        if not result.crosses:
            continue
        if common is None:
            common = result.midpoint
        elif result.midpoint != common:
            return None
    return MID_UNDETERMINED if common is None else common


class PairThroughLine(Frozen):
    """A reducible net member having the queried line as a component."""

    __slots__ = ("coords", "pair", "whole_family")

    def __repr__(self) -> str:
        return f"PairThroughLine({self.coords}, {self.pair})"


def pair_through_line(line: Line, pencil: Pencil) -> PairThroughLine | None:
    """The reducible net member with the line as a component, by linear algebra.

    Normalize the line to Y = 0; a combination alpha f1 + beta f2 splits off
    the factor Y after a constant shift exactly when its X^2 and X
    coefficients vanish, which has a nonzero solution iff the 2x2
    determinant of those coefficient rows is zero.  When both rows vanish
    every direction qualifies; the smallest coordinates are returned with
    the whole_family flag set.

    Those rows are the generators restricted to the line, in a parameter
    that differs from the line's own by a nonzero factor, so the
    determinant is first tested on the raw restriction to the line and the generators
    are pulled back only when it vanishes.
    """
    A1, B1, _ = _restrict(pencil.f1, line)
    A2, B2, _ = _restrict(pencil.f2, line)
    if not raw_is_zero(line.spec, A1 * B2 - A2 * B1):
        return None
    to_y0 = map_line_to_y0(line)
    back = to_y0  # pull_line with this map sends new-coordinate lines back
    inv = to_y0.inverse()
    g1 = pullback(inv, pencil.f1)
    g2 = pullback(inv, pencil.f2)
    spec = pencil.spec
    whole_family = False
    if not (g1.a.is_zero and g2.a.is_zero):
        alpha, beta = g2.a, -g1.a
    elif not (g1.d.is_zero and g2.d.is_zero):
        alpha, beta = g2.d, -g1.d
    else:
        alpha, beta = spec.one, spec.zero
        whole_family = True
    member = linear_combination([(alpha, g1), (beta, g2)])
    # member = Y * (b X + c Y + e) + g with a = d = 0.
    partner = Line(member.b, member.c, member.e)
    y0 = Line(spec.zero, spec.one, spec.zero)
    original_pair = LinePair(back.pull_line(y0), back.pull_line(partner))
    if not original_pair.contains_line(line):
        raise AssertionError("normalization failed to send the line back to itself")
    coords = NetCoords(alpha, beta, -member.g)
    return PairThroughLine(coords, original_pair, whole_family)


class ArrangementReport(Frozen):
    """Verdict and per-line midpoints of a bisector-arrangement check."""

    __slots__ = ("ok", "midpoints")

    def __repr__(self) -> str:
        return f"ArrangementReport(ok={self.ok})"


def is_bisector_arrangement(pairs: Sequence[LinePair]) -> ArrangementReport:
    """Whether every line of every pair bisects all the product quadratics."""
    pairs = list(pairs)
    products = [pair.product() for pair in pairs]
    midpoints: dict[Line, Midpoint | None] = {}
    ok = True
    for line in distinct_lines(pairs):
        m = bisects_set(line, products)
        midpoints[line] = m
        if m is None:
            ok = False
    return ArrangementReport(ok, midpoints)


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


class Involution(Frozen):
    """An order-2 projective map t -> (p t + q) / (r t - p) on a line.

    Parameters are the line's affine parameter, with None standing for the
    point at infinity.  The coefficient triple is kept in canonical scaling
    and must satisfy p^2 + q r != 0 (nondegeneracy), which makes a double
    application the identity on every parameter.
    """

    __slots__ = ("p", "q", "r")

    def __init__(self, p: Scalar, q: Scalar, r: Scalar):
        if (p * p + q * r).is_zero:
            raise BisectorError("degenerate involution coefficients")
        for x in (p, q, r):
            if not x.is_zero:
                p, q, r = p / x, q / x, r / x
                break
        super().__init__(p, q, r)

    def apply(self, t: Scalar | None) -> Scalar | None:
        if t is None:
            return self.p / self.r if not self.r.is_zero else None
        denom = self.r * t - self.p
        if denom.is_zero:
            return None
        return (self.p * t + self.q) / denom

    def conjugates_restriction(self, A: Scalar, B: Scalar, C: Scalar) -> bool:
        """Whether the root pair of A t^2 + B t + C is conjugate under the map."""
        return (self.p * B - self.q * A + self.r * C).is_zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, Involution):
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.r == other.r

    def __hash__(self) -> int:
        return hash((self.p, self.q, self.r))

    def __repr__(self) -> str:
        return f"Involution(p={self.p}, q={self.q}, r={self.r})"


def _rational_projective_root(A: Scalar, B: Scalar, C: Scalar) -> bool:
    """Whether A t^2 + B t s + C s^2 has a root on the projective line."""
    a, b = A.value, B.value
    if a == 0:
        return True  # [1 : 0] is a root
    return raw_sqrt(A.spec, b * b - 4 * a * C.value) is not None


def desargues_involution(pencil: Pencil, line: Line) -> Involution:
    """The involution pairing the crossings of the pencil's members with a line.

    Restricting each generator to the line gives a binary quadratic whose
    root pair must be conjugate; each restriction imposes one linear
    condition on the involution coefficients, and two independent members
    determine them.  The resultant of the two restrictions vanishing means
    the line goes through a basepoint of the pencil (possibly at infinity,
    or one rational only over the closure), and the construction refuses.
    """
    r1 = restrict_to_line(pencil.f1, line)
    r2 = restrict_to_line(pencil.f2, line)
    zero1 = all(x.is_zero for x in r1)
    zero2 = all(x.is_zero for x in r2)
    if zero1 or zero2:
        if zero1 and zero2:
            raise BasepointError("the line is a common component of both generators")
        other = r2 if zero1 else r1
        if _rational_projective_root(*other):
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
    if not (p * p + q * r).is_zero:
        return Involution(p, q, r)
    proportional = p.is_zero and q.is_zero and r.is_zero
    if not proportional:
        raise BasepointError("the line passes through a basepoint of the pencil")
    if _rational_projective_root(A1, B1, C1):
        raise BasepointError("the line passes through two basepoints of the pencil")
    raise InsufficientDataError(
        "all members restrict proportionally on this line and no rational "
        "crossing pair exists to fit an involution"
    )
