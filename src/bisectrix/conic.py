"""Quadratics in two variables as first-class exact objects.

A :class:`Quadratic` is the coefficient tuple (a, b, c, d, e, g) of
aX^2 + bXY + cY^2 + dX + eY + g with (a, b, c) != (0, 0, 0).  The quadratic,
not its zero set, is the primary object: over a finite field different
quadratics can share a zero locus, and constant shifts matter for
degenerations.

Classification is field-relative: a conic is a hyperbola / parabola /
ellipse according to whether its homogeneous part has 2 / 1 / 0 roots on the
projective line of directions over the ground field.
"""

from __future__ import annotations

from typing import Iterable

from .field import (
    FieldSpec,
    FieldTuple,
    Frozen,
    Scalar,
    coordinate,
    coordinates,
    as_fractions,
    fill_reduced,
    raw_inverse,
    raw_is_zero,
    raw_sqrt,
    same_field,
    set_raw,
    set_spec,
    wrap,
)
from .geometry import (
    AffineMap,
    Line,
    MID_INFINITE,
    Midpoint,
    ProjectivePoint,
    _line,
    _point,
    _point_at,
    intersect,
    midline,
)

_new = object.__new__


class ConicError(ValueError):
    """A conic-level precondition was violated."""


def _normalize_quadratic(f, spec: FieldSpec, a, b, c, d, e, g):
    """Fill ``f`` with the reduced coefficients; the one normalizer of quadratics."""
    p = spec.p
    if p:
        raw = (a % p, b % p, c % p, d % p, e % p, g % p)
    else:
        raw = as_fractions(a, b, c, d, e, g)
    if not (raw[0] or raw[1] or raw[2]):
        raise ConicError("quadratic must have degree exactly 2")
    set_spec(f, spec)
    set_raw(f, raw)
    return f


class Quadratic(FieldTuple):
    """A degree-2 polynomial aX^2 + bXY + cY^2 + dX + eY + g.

    ``raw`` is the tuple (a, b, c, d, e, g) of reduced values.
    """

    __slots__ = ()

    _fill = _normalize_quadratic
    a, b, c = coordinate(0), coordinate(1), coordinate(2)
    d, e, g = coordinate(3), coordinate(4), coordinate(5)

    @classmethod
    def from_ints(cls, spec: FieldSpec, coeffs) -> "Quadratic":
        return _quadratic(spec, *coeffs)

    def coefficients(self) -> tuple[Scalar, ...]:
        spec = self.spec
        return tuple([wrap(spec, x) for x in self.raw])

    def homogeneous_part(self) -> tuple[Scalar, Scalar, Scalar]:
        return (self.a, self.b, self.c)

    def disc(self) -> Scalar:
        """b^2 - 4ac, the discriminant of the homogeneous part."""
        return wrap(self.spec, _disc(self.raw))

    def det3(self) -> Scalar:
        """Determinant of [[a, b/2, d/2], [b/2, c, e/2], [d/2, e/2, g]].

        That is N/4 with N = 4acg + bde - ae^2 - cd^2 - gb^2.
        """
        spec = self.spec
        return wrap(spec, _det3_times_4(self.raw) * raw_inverse(spec, 4))

    def __add__(self, other):
        if isinstance(other, Quadratic):
            if other.spec is not self.spec:
                same_field(self.spec, other.spec)
            return _quadratic(self.spec, *(x + y for x, y in zip(self.raw, other.raw)))
        return self.add_constant(self.spec.scalar(other))

    def __sub__(self, other):
        if isinstance(other, Quadratic):
            if other.spec is not self.spec:
                same_field(self.spec, other.spec)
            return _quadratic(self.spec, *(x - y for x, y in zip(self.raw, other.raw)))
        return self.add_constant(-self.spec.scalar(other))

    def add_constant(self, t: Scalar) -> "Quadratic":
        if t.spec is not self.spec:
            same_field(self.spec, t.spec)
        a, b, c, d, e, g = self.raw
        return _quadratic(self.spec, a, b, c, d, e, g + t.value)

    def scale(self, t: Scalar) -> "Quadratic":
        if t.spec is not self.spec:
            same_field(self.spec, t.spec)
        k = t.value
        return _quadratic(self.spec, *(k * x for x in self.raw))

    def canonical(self) -> "Quadratic":
        """Scale so the first nonzero coefficient equals 1."""
        spec = self.spec
        k = raw_inverse(spec, next(x for x in self.raw if x != 0))
        return _quadratic(spec, *(k * x for x in self.raw))

    def same_up_to_scalar(self, other: "Quadratic") -> bool:
        """Whether other is a nonzero multiple of self, by cross-multiplication.

        With f[i] the first nonzero coefficient of self and g of other, that
        is g[j] f[i] == f[j] g[i] for every j (g[i] = 0 would force g = 0):
        exactly when the canonical forms are equal, without building either.
        """
        if other.spec is not self.spec:
            same_field(self.spec, other.spec)
        return _same_up_to_scalar(self.spec, self.raw, other.raw)

    def __repr__(self) -> str:
        return f"Quadratic({','.join(map(str, self.raw))})"


def _quadratic(spec: FieldSpec, a, b, c, d, e, g) -> Quadratic:
    """The quadratic with the given raw, possibly unreduced, coefficients."""
    return _normalize_quadratic(_new(Quadratic), spec, a, b, c, d, e, g)


def _same_up_to_scalar(spec: FieldSpec, fs, gs) -> bool:
    """``Quadratic.same_up_to_scalar`` of a reduced raw tuple fs and a raw tuple gs."""
    i = 0
    while fs[i] == 0:
        i += 1
    fi, gi = fs[i], gs[i]
    cross = [gj * fi - fj * gi for fj, gj in zip(fs, gs)]
    p = spec.p
    return not any([x % p for x in cross] if p else cross)


def _disc(raw):
    """b^2 - 4ac of a raw coefficient tuple, unreduced."""
    a, b, c = raw[0], raw[1], raw[2]
    return b * b - 4 * a * c


def _det3_times_4(raw):
    """4 det3 = 4acg + bde - ae^2 - cd^2 - gb^2 of a raw tuple, unreduced."""
    a, b, c, d, e, g = raw
    return (4 * a * c - b * b) * g + (b * e - c * d) * d - a * e * e


def pullback(mapping: AffineMap, f: Quadratic) -> Quadratic:
    """The composite f(mapping(x, y)), expanded exactly.

    Satisfies pullback(m1.compose(m2), f) == pullback(m2, pullback(m1, f)).
    """
    spec = f.spec
    m11, m12, m21, m22, t1, t2 = mapping.raw_in(spec)
    a, b, c, d, e, g = f.raw
    a2, c2 = a + a, c + c
    # (gx, gy): gradient of the homogeneous part at the image of the x-axis
    # direction (m11, m21); (hx, hy): gradient of f at the translation (t1, t2).
    gx, gy = a2 * m11 + b * m21, b * m11 + c2 * m21
    hx, hy = a2 * t1 + b * t2 + d, b * t1 + c2 * t2 + e
    half = raw_inverse(spec, 2)
    return _quadratic(
        spec,
        (gx * m11 + gy * m21) * half,
        gx * m12 + gy * m22,
        (a * m12 + b * m22) * m12 + c * m22 * m22,
        hx * m11 + hy * m21,
        hx * m12 + hy * m22,
        ((hx + d) * t1 + (hy + e) * t2) * half + g,
    )


# --- classification ---------------------------------------------------------

HYPERBOLA = "hyperbola"
PARABOLA = "parabola"
ELLIPSE = "ellipse"


class ConicClass(Frozen):
    __slots__ = ("kind", "degenerate")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConicClass):
            return NotImplemented
        return self.kind == other.kind and self.degenerate == other.degenerate

    def __hash__(self) -> int:
        return hash((self.kind, self.degenerate))

    def __repr__(self) -> str:
        flag = "degenerate" if self.degenerate else "nondegenerate"
        return f"ConicClass({self.kind}, {flag})"


def _form_roots(spec: FieldSpec, A, B, C) -> list[tuple]:
    """The rational roots [x : y] of A x^2 + B xy + C y^2 != 0, as raw pairs.

    A and B are reduced raw values.  [1 : 0] comes first when A = 0; the
    roots [x : 1] follow, (r - B)/2A before -(B + r)/2A with r^2 = B^2 - 4AC,
    and a double root once.  The one solver of binary quadratic forms:
    directions at infinity, asymptote and parallel-pair components, and
    parabola directions of a net.
    """
    if A == 0:
        if B == 0:
            return [(1, 0)]
        return [(1, 0), (-C * raw_inverse(spec, B), 1)]
    r = raw_sqrt(spec, B * B - 4 * A * C)
    if r is None:
        return []
    h = raw_inverse(spec, A + A)
    if r == 0:
        return [(-B * h, 1)]
    return [((r - B) * h, 1), (-(B + r) * h, 1)]


def _root_count(spec: FieldSpec, disc) -> int:
    """How many roots [x : y] a form A x^2 + B xy + C y^2 != 0 has: 0, 1 or 2
    as its raw discriminant B^2 - 4AC is a non-square, zero or a nonzero
    square.  With A = 0 it is B^2: the roots are [1 : 0] and, if B != 0, [-C : B]."""
    r = raw_sqrt(spec, disc)
    return 0 if r is None else 2 if r else 1


def _has_root(spec: FieldSpec, A, B, C) -> bool:
    """Whether A x^2 + B xy + C y^2, of raw values, has a root [x : y]."""
    return _root_count(spec, B * B - 4 * A * C) != 0


def points_at_infinity(f: Quadratic) -> list[ProjectivePoint]:
    """The rational roots of the homogeneous part on the line of directions."""
    spec = f.spec
    pts = [_point(spec, x, y, 0) for x, y in _form_roots(spec, *f.raw[:3])]
    return sorted(pts, key=ProjectivePoint.sort_key)


def classify(f: Quadratic) -> ConicClass:
    """Hyperbola / parabola / ellipse by the count of points at infinity."""
    spec, raw = f.spec, f.raw
    kind = (ELLIPSE, PARABOLA, HYPERBOLA)[_root_count(spec, _disc(raw))]
    if kind == ELLIPSE:
        degenerate = raw_is_zero(spec, _det3_times_4(raw))
    else:
        degenerate = is_reducible(f) is not None
    return ConicClass(kind, degenerate)


def center(f: Quadratic) -> ProjectivePoint:
    """The center of a hyperbola: the unique zero of the gradient."""
    spec, disc = f.spec, _disc(f.raw)
    if _root_count(spec, disc) != 2:
        raise ConicError("center is defined for hyperbolas only")
    return _center(spec, f.raw, raw_inverse(spec, disc))


def _center(spec: FieldSpec, raw, k) -> ProjectivePoint:
    """The zero of the gradient, given k = 1 / disc of the raw tuple (disc != 0)."""
    a, b, c, d, e, _ = raw
    return _point(spec, (c * d + c * d - b * e) * k, (a * e + a * e - b * d) * k, 1)


# --- reducibility and line pairs --------------------------------------------

CROSSING = "crossing"
PARALLEL = "parallel"
DOUBLE = "double"


class LinePair(Frozen):
    """An unordered pair of lines (possibly equal), i.e. a reducible conic.

    Crossing pairs carry their intersection point (the center); parallel and
    double pairs carry their midline.
    """

    __slots__ = ("first", "second", "kind", "center", "midline")

    def __init__(self, l1: Line, l2: Line):
        if l1.sort_key() > l2.sort_key():
            l1, l2 = l2, l1
        if l1 == l2:
            kind, ctr, mid = DOUBLE, None, l1
        elif l1.is_parallel_to(l2):
            kind, ctr, mid = PARALLEL, None, midline(l1, l2)
        else:
            kind, ctr, mid = CROSSING, intersect(l1, l2), None
        super().__init__(l1, l2, kind, ctr, mid)

    @classmethod
    def _crossing(cls, l1: Line, l2: Line, center: ProjectivePoint) -> "LinePair":
        """The crossing pair of two lines whose intersection is already known."""
        pair = _new(cls)  # filled as Scalar is, without Frozen.__init__
        if l1.sort_key() > l2.sort_key():
            l1, l2 = l2, l1
        first, second, kind, ctr, mid = cls._setters
        first(pair, l1), second(pair, l2), kind(pair, CROSSING), ctr(pair, center), mid(pair, None)
        return pair

    @property
    def spec(self) -> FieldSpec:
        return self.first.spec

    def lines(self) -> tuple[Line, Line]:
        return (self.first, self.second)

    def line_set(self) -> frozenset[Line]:
        return frozenset((self.first, self.second))

    def contains_line(self, line: Line) -> bool:
        return line == self.first or line == self.second

    def product(self) -> Quadratic:
        """The product of the two linear forms, in canonical scaling."""
        return _quadratic(self.first.spec, *_line_product(self.first.raw, self.second.raw))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinePair):
            return NotImplemented
        return self.first == other.first and self.second == other.second

    def __hash__(self) -> int:
        return hash((self.first, self.second))

    def __repr__(self) -> str:
        return f"LinePair({self.first}, {self.second})"

    def sort_key(self):
        return (self.first.sort_key(), self.second.sort_key())


def _line_product(r1, r2) -> tuple:
    """The raw, unreduced, coefficients of the product of two raw linear forms."""
    (u1, v1, w1), (u2, v2, w2) = r1, r2
    return (u1 * u2, u1 * v2 + u2 * v1, v1 * v2, u1 * w2 + u2 * w1, v1 * w2 + v2 * w1, w1 * w2)


def distinct_lines(pairs: Iterable[LinePair]) -> list[Line]:
    """The lines of the pairs, each once, in order of first appearance."""
    return list(dict.fromkeys(line for pair in pairs for line in pair.lines()))


def pairs_are_translates(p1: LinePair, p2: LinePair) -> bool:
    """Whether some translation of the plane maps one unordered pair onto the other.

    Directions must match as multisets.  Two crossing pairs with the same
    directions are always translates (the two direction equations pin the
    shift); pairs of parallel lines additionally need the constant offsets
    to match under one of the two pairings.
    """
    spec = p1.spec
    if p2.spec is not spec:
        same_field(spec, p2.spec)
    if sorted(l.raw[:2] for l in p1.lines()) != sorted(l.raw[:2] for l in p2.lines()):
        return False
    if p1.kind == CROSSING:
        return True
    a, b = p1.first.raw[2], p1.second.raw[2]
    c, d = p2.first.raw[2], p2.second.raw[2]
    return raw_is_zero(spec, a - c - b + d) or raw_is_zero(spec, a - d - b + c)


def _square_axis(raw, root) -> tuple:
    """Raw (scale, u, v) with homogeneous part scale (uX + vY)^2.

    ``root`` is the double root [x : y] of the part: a (X - xY)^2, or c Y^2
    when the root is [1 : 0].
    """
    x, y = root
    return (raw[0], 1, -x) if y else (raw[2], 0, 1)


def is_reducible(f: Quadratic) -> LinePair | None:
    """The factorization of f into two lines over the ground field, if any.

    det3(f) != 0 rules reducibility out.  With det3(f) = 0 the roots of the
    homogeneous part decide the shape: two give crossing lines through the
    center; a double root gives parallel or double lines exactly when the
    shifted 1-variable quadratic has a root (so X^2 - 2 stays irreducible
    over Q); none gives a point-like conic with no rational components.
    """
    spec, raw = f.spec, f.raw
    if not raw_is_zero(spec, _det3_times_4(raw)):
        return None
    directions = _form_roots(spec, *raw[:3])
    if len(directions) == 2:
        return _crossing_pair(spec, raw, directions, raw_inverse(spec, _disc(raw)))
    if not directions:
        return None
    scale, u, v = _square_axis(raw, directions[0])
    # With det3 = 0 the linear part is a multiple m of uX + vY, where u = 1
    # or (u, v) = (0, 1).
    _, _, _, d, e, g = raw
    m = d if u else e
    if not raw_is_zero(spec, e - m * v if u else d):
        raise AssertionError("det3 = 0 but the linear part is not aligned")
    # The components are uX + vY = t for the roots t of scale t^2 + m t + g.
    lines = [_line(spec, u, v, -t) for t, _ in _form_roots(spec, scale, m, g)]
    if not lines:
        return None
    pair = LinePair(lines[0], lines[-1])
    if not _same_up_to_scalar(spec, raw, _line_product(pair.first.raw, pair.second.raw)):
        raise AssertionError("parallel factorization failed to reproduce input")
    return pair


def _crossing_pair(spec: FieldSpec, raw, directions, k) -> LinePair:
    """The two lines of the quadratic of raw tuple ``raw`` (a, b, c reduced), given det3 = 0.

    ``directions`` are the two raw roots [x : y] of the homogeneous part, as
    ``_form_roots`` gives them, and k = 1 / disc its raw discriminant's
    inverse; the center is the zero of the gradient.
    """
    ctr = _center(spec, raw, k)
    cx, cy, _ = ctr.raw
    (x1, y1), (x2, _) = directions
    # [x : 1] gives X - xY = cx - x cy; [1 : 0], always first, gives Y = cy.
    l1 = _line(spec, 1, -x1, x1 * cy - cx) if y1 else _line(spec, 0, 1, -cy)
    l2 = _line(spec, 1, -x2, x2 * cy - cx)
    if not _same_up_to_scalar(spec, raw, _line_product(l1.raw, l2.raw)):
        raise AssertionError("crossing factorization failed to reproduce input")
    return LinePair._crossing(l1, l2, ctr)


# --- degenerations -----------------------------------------------------------

DEGEN_UNIQUE = "unique"
DEGEN_FAMILY = "family"
DEGEN_NONE = "none"


class ParallelFamily(FieldTuple):
    """All parallel/double pairs with a fixed direction and fixed midline.

    The members are the pairs {uX+vY = r, uX+vY = s} with r + s constant;
    each is the zero set of a degeneration of the owning quadratic.  ``raw``
    is (scale, u, v, linear, constant), reduced: the owner is
    scale (uX + vY)^2 + linear (uX + vY) + constant.
    """

    __slots__ = ()

    _fill = fill_reduced
    scale, axis = coordinate(0), coordinates(1, 3)
    linear, constant = coordinate(3), coordinate(4)

    @property
    def midline(self) -> Line:
        scale, u, v, linear, _ = self.raw
        return _line(self.spec, u, v, linear * raw_inverse(self.spec, scale + scale))

    @property
    def direction(self) -> ProjectivePoint:
        _, u, v, _, _ = self.raw
        return _point(self.spec, -v, u, 0)

    def pair_at(self, r: Scalar) -> LinePair:
        spec = self.spec
        scale, u, v, linear, _ = self.raw_in(r.spec)
        s = -linear * raw_inverse(spec, scale) - r.value
        return LinePair(_line(spec, u, v, -r.value), _line(spec, u, v, -s))

    def quadratic_at(self, r: Scalar) -> Quadratic:
        """The exact degeneration with component uX + vY = r."""
        return self.pair_at(r).product().scale(self.scale)


class Degenerations(Frozen):
    """Outcome of listing the reducible constant shifts of a quadratic."""

    __slots__ = ("kind", "pair", "shift", "family")

    def __repr__(self) -> str:
        return f"Degenerations({self.kind})"


NO_DEGENERATIONS = Degenerations(DEGEN_NONE, None, None, None)


def degenerations(f: Quadratic) -> Degenerations:
    """The reducible quadratics differing from f by a constant.

    A hyperbola has exactly one (its asymptote pair, at the shift that kills
    det3, which is linear in the shift with nonzero slope).  A quadratic
    whose homogeneous part is a perfect square and whose det3 vanishes has a
    one-parameter family, all sharing one midline.  Ellipses and parabolas
    with det3 != 0 have none.
    """
    spec, raw = f.spec, f.raw
    directions = _form_roots(spec, *raw[:3])
    if len(directions) == 2:
        # det3(f + t) = det3(f) - t disc / 4, so this shift makes det3 zero.
        k = raw_inverse(spec, _disc(raw))
        shift = _det3_times_4(raw) * k
        pair = _crossing_pair(spec, (*raw[:5], raw[5] + shift), directions, k)
        out, at = _new(Degenerations), wrap(spec, shift)  # filled as Scalar is
        put_kind, put_pair, put_shift, put_family = Degenerations._setters
        put_kind(out, DEGEN_UNIQUE), put_pair(out, pair), put_shift(out, at), put_family(out, None)
        return out
    if directions and raw_is_zero(spec, _det3_times_4(raw)):
        scale, u, v = _square_axis(raw, directions[0])
        m = raw[3] if u else raw[4]
        family = fill_reduced(_new(ParallelFamily), spec, scale, u, v, m, raw[5])
        return Degenerations(DEGEN_FAMILY, None, None, family)
    return NO_DEGENERATIONS


# --- line/conic midpoint calculus --------------------------------------------

MR_CROSSES = "crosses"
MR_MEETS_NO_CROSS = "meets-no-cross"
MR_NO_MEET = "no-meet"


class MidResult(Frozen):
    """How a line intersects a conic, with the crossing midpoint if any."""

    __slots__ = ("kind", "midpoint")

    def __init__(self, kind: str, midpoint: Midpoint | None = None):
        if (kind == MR_CROSSES) != (midpoint is not None):
            raise ConicError("crossing results carry a midpoint; others do not")
        if midpoint is not None and midpoint.is_undetermined:
            raise ConicError("a crossing midpoint is finite or infinite")
        super().__init__(kind, midpoint)

    @property
    def crosses(self) -> bool:
        return self.kind == MR_CROSSES

    def __eq__(self, other) -> bool:
        if not isinstance(other, MidResult):
            return NotImplemented
        return self.kind == other.kind and self.midpoint == other.midpoint

    def __hash__(self) -> int:
        return hash((self.kind, self.midpoint))

    def __repr__(self) -> str:
        if self.crosses:
            return f"MidResult(crosses, {self.midpoint})"
        return f"MidResult({self.kind})"


MEETS_NO_CROSS = MidResult(MR_MEETS_NO_CROSS)
NO_MEET = MidResult(MR_NO_MEET)
CROSSES_AT_INFINITY = MidResult(MR_CROSSES, MID_INFINITE)


def restrict_to_line(f: Quadratic, line: Line) -> tuple[Scalar, Scalar, Scalar]:
    """Coefficients (A, B, C) of f along the line's parameterization.

    A is the homogeneous part at the direction, so A = 0 exactly when the
    line's point at infinity lies on the conic's closure.
    """
    spec = f.spec
    A, B, C = _restrict(f, line)
    return wrap(spec, A), wrap(spec, B), wrap(spec, C)


def _restrict(f: Quadratic, line: Line) -> tuple:
    """The raw, possibly unreduced, (A, B, C) of ``restrict_to_line``."""
    spec = f.spec
    if line.spec is not spec:
        same_field(spec, line.spec)
    a, b, c, d, e, g = f.raw
    u, v, w = line.raw
    if v == 0:
        # Canonical vertical line X = -w: base (-w, 0), direction (0, 1).
        x = -w
        return c, b * x + e, (a * x + d) * x + g
    # Base (0, y), direction (-v, u).
    y = -w if v == 1 else -w * raw_inverse(spec, v)
    cy = c * y
    return ((a * v - b * u) * v + c * u * u,
            (cy + cy + e) * u - (b * y + d) * v,
            (cy + e) * y + g)


def meets(f: Quadratic, line: Line) -> bool:
    """Whether the projective closures of line and conic intersect."""
    return _has_root(f.spec, *_restrict(f, line))


def _mid_param(f: Quadratic, line: Line):
    """The reduced line parameter -B / 2A of the finite crossing midpoint (a
    residue over GF(p), a Fraction over Q; equal parameters, equal midpoints),
    else the shared NO_MEET, MEETS_NO_CROSS or CROSSES_AT_INFINITY."""
    A, B, C = _restrict(f, line)
    spec = f.spec
    if not raw_is_zero(spec, A):
        if raw_sqrt(spec, B * B - 4 * A * C) is None:
            return NO_MEET
        t = -B * raw_inverse(spec, A + A)
        return t % spec.p if spec.p else t
    return MEETS_NO_CROSS if raw_is_zero(spec, B) else CROSSES_AT_INFINITY


def mid(f: Quadratic, line: Line) -> MidResult:
    """Crossing classification and midpoint of a line against a conic.

    Tangential crossings (double roots along the line) count as crossings
    with the tangency point as midpoint, the sum-of-roots convention.
    """
    t = _mid_param(f, line)
    if t.__class__ is MidResult:
        return t
    return MidResult(MR_CROSSES, Midpoint.finite(_point_at(line, t)))
