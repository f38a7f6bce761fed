"""Complete quadrilaterals: two pairs of opposite sides and their pencil.

A quadrilateral is two pairs of lines such that neither pair is a
translation of the other, the pairs share no line, the four lines are
neither all concurrent nor all parallel.  Opposite sides may coincide, in
which case the quadrilateral is degenerate.
"""

from __future__ import annotations

from .bisector import (
    ALL_CONCURRENT,
    ALL_PARALLEL,
    ALL_TRANSLATES,
    NONTRIVIAL,
    bisects_set,
    classify_trivial_arrangement,
)
from .conic import CROSSING, DOUBLE, PARALLEL, LinePair
from .field import Frozen
from .geometry import Line, Midpoint, ProjectivePoint, intersect
from .pencil import (
    AsymptoticPencil,
    Pencil,
    TrivialPencilError,
    nets_equal,
)


TRANSLATION_PAIR = "translation-pair"
SHARED_LINE = "shared-line"

_TRIVIAL_MESSAGES = {
    ALL_PARALLEL: "all four sides are parallel",
    ALL_CONCURRENT: "all four sides share a point",
}


class QuadrilateralError(ValueError):
    """A rejected quadrilateral, tagged with the violated clause."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class Quadrilateral(Frozen):
    """Validated opposite-side pairs; build through :func:`validate`."""

    __slots__ = ("first", "second", "degenerate")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quadrilateral):
            return NotImplemented
        mine = {self.first, self.second}
        return mine == {other.first, other.second}

    def __hash__(self) -> int:
        return hash(frozenset((self.first, self.second)))

    def __repr__(self) -> str:
        return f"Quadrilateral({self.first}, {self.second})"


def validate(pair1: LinePair, pair2: LinePair) -> Quadrilateral:
    """Check the quadrilateral clauses; raise a tagged error on violation.

    The clauses are the triviality tags of the two-pair arrangement, with a
    shared line checked between the translation clause and the others.
    """
    tag = classify_trivial_arrangement([pair1, pair2])
    if tag == ALL_TRANSLATES:
        raise QuadrilateralError(
            TRANSLATION_PAIR, "one pair of opposite sides is a translation of the other"
        )
    if pair1.line_set() & pair2.line_set():
        raise QuadrilateralError(SHARED_LINE, "the opposite-side pairs share a line")
    if tag != NONTRIVIAL:
        raise QuadrilateralError(tag, _TRIVIAL_MESSAGES[tag])
    degenerate = pair1.kind == DOUBLE or pair2.kind == DOUBLE
    return Quadrilateral(pair1, pair2, degenerate)


def vertices(q: Quadrilateral) -> list[ProjectivePoint]:
    """The four vertices A.B, A.B', A'.B, A'.B' (possibly at infinity)."""
    a, a2 = q.first.lines()
    b, b2 = q.second.lines()
    out = []
    for s in (a, a2):
        for t in (b, b2):
            pt = intersect(s, t)
            if not isinstance(pt, ProjectivePoint):
                raise AssertionError("opposite-side pairs share no line")
            out.append(pt)
    return out


def pencil_of(q: Quadrilateral) -> Pencil:
    """The pencil spanned by the two opposite-side products."""
    return Pencil(q.first.product(), q.second.product())


def quadrilateral_of(ap: AsymptoticPencil) -> Quadrilateral:
    """A quadrilateral whose asymptotic pencil equals the given one.

    Requires a nontrivial pencil.  The field only supplies the candidates:
    over GF(p) the crossing and the parallel or double members, over Q the
    constructed asymptote pairs and the parallel family's pairs at
    r = 0 ... 5.  One rule then pairs the first crossing candidate with the
    first parallel pair sharing no line with it (a double pair only over
    GF(3)), else with the first crossing pair of another center; over
    fields with more than 3 elements the result is nondegenerate.
    """
    if ap.is_trivial():
        raise TrivialPencilError(
            "a trivial asymptotic pencil (same-center degenerate hyperbolas only) "
            "is not the asymptotic pencil of any quadrilateral"
        )
    spec = ap.spec
    if spec.is_finite:
        members = [pair for _, pair in ap.members()]
        crossing = [p for p in members if p.kind == CROSSING]
        parallel = [p for p in members if p.kind != CROSSING]
        family = None
    else:
        crossing = ap.degenerate_hyperbola_pairs()
        family = ap.parallel_family()
        parallel = [] if family is None else [family.pair_at(spec.scalar(r)) for r in range(6)]
    base = crossing[0]
    allowed = [p for p in parallel if p.kind == PARALLEL]
    if spec.p == 3:
        allowed += [p for p in parallel if p.kind == DOUBLE]
    partners = [p for p in allowed if not p.line_set() & base.line_set()]
    partners += [p for p in crossing if p.center != base.center]
    if not partners:
        raise AssertionError("nontrivial pencil must yield a quadrilateral partner")
    second = partners[0]
    if family is not None and second.kind != PARALLEL:
        raise AssertionError("a parallel family admits a disjoint parallel pair")

    q = validate(base, second)
    regenerated = pencil_of(q)
    if not nets_equal(regenerated, ap.pencil):
        raise AssertionError("extracted quadrilateral failed to regenerate the net")
    return q


def bisects_quadrilateral(line: Line, q: Quadrilateral) -> Midpoint | None:
    """The common midpoint when the line bisects both opposite-side pairs."""
    return bisects_set(line, [q.first.product(), q.second.product()])
