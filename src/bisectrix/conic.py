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
    Scalar,
    halve,
    raw_inverse,
    raw_is_zero,
    same_field,
    square_root,
    wrap,
)
from .geometry import (
    AffineMap,
    Line,
    MID_INFINITE,
    Midpoint,
    ProjectivePoint,
    intersect,
    midline,
)


class ConicError(ValueError):
    """A conic-level precondition was violated."""


class Quadratic:
    """A degree-2 polynomial aX^2 + bXY + cY^2 + dX + eY + g."""

    __slots__ = ("a", "b", "c", "d", "e", "g")

    def __init__(self, a, b, c, d, e, g):
        if a.is_zero and b.is_zero and c.is_zero:
            raise ConicError("quadratic must have degree exactly 2")
        # The coefficients share one field, so kernels check only across objects.
        spec = a.spec
        if not (spec is b.spec is c.spec is d.spec is e.spec is g.spec):
            for x in (b, c, d, e, g):
                same_field(spec, x.spec)
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_d(self, d)
        _set_e(self, e)
        _set_g(self, g)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Quadratic is immutable")

    @classmethod
    def from_ints(cls, spec: FieldSpec, coeffs) -> "Quadratic":
        # Times the value of one, an int becomes a Fraction over Q.
        one = spec.one.value
        return cls(*(wrap(spec, one * v) for v in coeffs))

    @property
    def spec(self) -> FieldSpec:
        return self.a.spec

    def coefficients(self) -> tuple[Scalar, ...]:
        return (self.a, self.b, self.c, self.d, self.e, self.g)

    def homogeneous_part(self) -> tuple[Scalar, Scalar, Scalar]:
        return (self.a, self.b, self.c)

    def evaluate(self, x: Scalar, y: Scalar) -> Scalar:
        return (self.a * x * x + self.b * x * y + self.c * y * y
                + self.d * x + self.e * y + self.g)

    def homogeneous_at(self, dx: Scalar, dy: Scalar) -> Scalar:
        return self.a * dx * dx + self.b * dx * dy + self.c * dy * dy

    def disc(self) -> Scalar:
        """b^2 - 4ac, the discriminant of the homogeneous part."""
        b = self.b.value
        return wrap(self.a.spec, b * b - 4 * self.a.value * self.c.value)

    def det3(self) -> Scalar:
        """Determinant of [[a, b/2, d/2], [b/2, c, e/2], [d/2, e/2, g]].

        That is N/4 with N = 4acg + bde - ae^2 - cd^2 - gb^2.
        """
        spec = self.a.spec
        a, b, c = self.a.value, self.b.value, self.c.value
        d, e, g = self.d.value, self.e.value, self.g.value
        n = (4 * a * c - b * b) * g + (b * e - c * d) * d - a * e * e
        return wrap(spec, n * raw_inverse(spec, 4))

    def __add__(self, other):
        if isinstance(other, Quadratic):
            return Quadratic(*(x + y for x, y in zip(self.coefficients(),
                                                     other.coefficients())))
        return self.add_constant(self.spec.scalar(other))

    def __sub__(self, other):
        if isinstance(other, Quadratic):
            return Quadratic(*(x - y for x, y in zip(self.coefficients(),
                                                     other.coefficients())))
        return self.add_constant(-self.spec.scalar(other))

    def add_constant(self, t: Scalar) -> "Quadratic":
        a, b, c, d, e, g = self.coefficients()
        return Quadratic(a, b, c, d, e, g + t)

    def scale(self, t: Scalar) -> "Quadratic":
        return Quadratic(*(t * x for x in self.coefficients()))

    def canonical(self) -> "Quadratic":
        """Scale so the first nonzero coefficient equals 1."""
        for x in self.coefficients():
            if not x.is_zero:
                return self.scale(self.spec.one / x)
        raise AssertionError("unreachable: quadratic has a nonzero coefficient")

    def same_up_to_scalar(self, other: "Quadratic") -> bool:
        """Whether other is a nonzero multiple of self, by cross-multiplication.

        With f[i] the first nonzero coefficient of self and g of other, that
        is g[j] f[i] == f[j] g[i] for every j (g[i] = 0 would force g = 0):
        exactly when the canonical forms are equal, without building either.
        """
        spec = self.a.spec
        if other.a.spec is not spec:
            same_field(spec, other.a.spec)
        fs = [x.value for x in self.coefficients()]
        gs = [x.value for x in other.coefficients()]
        i = 0
        while fs[i] == 0:
            i += 1
        fi, gi = fs[i], gs[i]
        return all(raw_is_zero(spec, gj * fi - fj * gi) for fj, gj in zip(fs, gs))

    def key(self):
        """Hashable value tuple, mainly for canonical table lookups."""
        return tuple(x.value for x in self.coefficients())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quadratic):
            return NotImplemented
        return all(x == y for x, y in zip(self.coefficients(), other.coefficients()))

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        a, b, c, d, e, g = self.coefficients()
        return f"Quadratic({a},{b},{c},{d},{e},{g})"


_set_a = Quadratic.__dict__["a"].__set__
_set_b = Quadratic.__dict__["b"].__set__
_set_c = Quadratic.__dict__["c"].__set__
_set_d = Quadratic.__dict__["d"].__set__
_set_e = Quadratic.__dict__["e"].__set__
_set_g = Quadratic.__dict__["g"].__set__


def _quadratic(spec: FieldSpec, a, b, c, d, e, g) -> Quadratic:
    """The quadratic with the given raw coefficient values."""
    return Quadratic(wrap(spec, a), wrap(spec, b), wrap(spec, c),
                     wrap(spec, d), wrap(spec, e), wrap(spec, g))


def linear_combination(terms) -> Quadratic:
    """Sum of (scalar, Quadratic) pairs, which must stay degree 2."""
    spec = coeffs = None
    for weight, q in terms:
        if spec is None:
            spec = weight.spec
        if not (weight.spec is spec is q.a.spec):
            same_field(spec, weight.spec)
            same_field(spec, q.a.spec)
        w = weight.value
        contrib = [w * x.value for x in q.coefficients()]
        coeffs = contrib if coeffs is None else [x + y for x, y in zip(coeffs, contrib)]
    return _quadratic(spec, *coeffs)


def pullback(mapping: AffineMap, f: Quadratic) -> Quadratic:
    """The composite f(mapping(x, y)), expanded exactly.

    Satisfies pullback(m1.compose(m2), f) == pullback(m2, pullback(m1, f)).
    """
    spec = f.a.spec
    if mapping.m11.spec is not spec:
        same_field(spec, mapping.m11.spec)
    a, b, c, d, e = f.a.value, f.b.value, f.c.value, f.d.value, f.e.value
    m11, m12 = mapping.m11.value, mapping.m12.value
    m21, m22 = mapping.m21.value, mapping.m22.value
    t1, t2 = mapping.t1.value, mapping.t2.value
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
        ((hx + d) * t1 + (hy + e) * t2) * half + f.g.value,
    )


# --- classification ---------------------------------------------------------

HYPERBOLA = "hyperbola"
PARABOLA = "parabola"
ELLIPSE = "ellipse"


class ConicClass:
    __slots__ = ("kind", "degenerate")

    def __init__(self, kind: str, degenerate: bool):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "degenerate", degenerate)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ConicClass is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConicClass):
            return NotImplemented
        return self.kind == other.kind and self.degenerate == other.degenerate

    def __hash__(self) -> int:
        return hash((self.kind, self.degenerate))

    def __repr__(self) -> str:
        flag = "degenerate" if self.degenerate else "nondegenerate"
        return f"ConicClass({self.kind}, {flag})"


def points_at_infinity(f: Quadratic) -> list[ProjectivePoint]:
    """The rational roots of the homogeneous part on the line of directions."""
    spec = f.a.spec
    one, zero = spec.one, spec.zero
    a, b = f.a.value, f.b.value
    if a == 0:
        pts = [ProjectivePoint.at_infinity(one, zero)]
        if b != 0:
            x = -f.c.value * raw_inverse(spec, b)
            pts.append(ProjectivePoint.at_infinity(wrap(spec, x), one))
        return sorted(pts, key=ProjectivePoint.sort_key)
    root = square_root(f.disc())
    if root is None:
        return []
    h = raw_inverse(spec, a + a)
    r = root.value
    if r == 0:
        return [ProjectivePoint.at_infinity(wrap(spec, -b * h), one)]
    pts = [
        ProjectivePoint.at_infinity(wrap(spec, (r - b) * h), one),
        ProjectivePoint.at_infinity(wrap(spec, -(b + r) * h), one),
    ]
    return sorted(pts, key=ProjectivePoint.sort_key)


def classify(f: Quadratic) -> ConicClass:
    """Hyperbola / parabola / ellipse by the count of points at infinity."""
    n = len(points_at_infinity(f))
    kind = (ELLIPSE, PARABOLA, HYPERBOLA)[n]
    if kind == ELLIPSE:
        degenerate = f.det3().is_zero
    else:
        degenerate = is_reducible(f) is not None
    return ConicClass(kind, degenerate)


def center(f: Quadratic) -> ProjectivePoint:
    """The center of a hyperbola: the unique zero of the gradient."""
    disc = f.disc()
    if disc.value == 0 or square_root(disc) is None:
        raise ConicError("center is defined for hyperbolas only")
    return _center(f, disc)


def _center(f: Quadratic, disc: Scalar) -> ProjectivePoint:
    """The zero of the gradient, given disc = disc(f) != 0."""
    spec = disc.spec
    a, b, c, d, e = f.a.value, f.b.value, f.c.value, f.d.value, f.e.value
    k = raw_inverse(spec, disc.value)
    return ProjectivePoint.affine(wrap(spec, (c * d + c * d - b * e) * k),
                                  wrap(spec, (a * e + a * e - b * d) * k))


# --- reducibility and line pairs --------------------------------------------

CROSSING = "crossing"
PARALLEL = "parallel"
DOUBLE = "double"


class LinePair:
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
        self._fill(l1, l2, kind, ctr, mid)

    @classmethod
    def _crossing(cls, l1: Line, l2: Line, center: ProjectivePoint) -> "LinePair":
        """The crossing pair of two lines whose intersection is already known."""
        pair = object.__new__(cls)
        if l1.sort_key() > l2.sort_key():
            l1, l2 = l2, l1
        pair._fill(l1, l2, CROSSING, center, None)
        return pair

    def _fill(self, first, second, kind, center, mid) -> None:
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "midline", mid)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("LinePair is immutable")

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
        l1, l2 = self.first, self.second
        u1, v1, w1 = l1.u.value, l1.v.value, l1.w.value
        u2, v2, w2 = l2.u.value, l2.v.value, l2.w.value
        return _quadratic(l1.u.spec, u1 * u2, u1 * v2 + u2 * v1, v1 * v2,
                          u1 * w2 + u2 * w1, v1 * w2 + v2 * w1, w1 * w2)

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


def distinct_lines(pairs: Iterable[LinePair]) -> list[Line]:
    """The lines of the pairs, each once, in order of first appearance."""
    lines: list[Line] = []
    for pair in pairs:
        for line in pair.lines():
            if line not in lines:
                lines.append(line)
    return lines


def pairs_are_translates(p1: LinePair, p2: LinePair) -> bool:
    """Whether some translation of the plane maps one unordered pair onto the other.

    Directions must match as multisets.  Two crossing pairs with the same
    directions are always translates (the two direction equations pin the
    shift); pairs of parallel lines additionally need the constant offsets
    to match under one of the two pairings.
    """
    d1 = sorted((l.u.sort_key(), l.v.sort_key()) for l in p1.lines())
    d2 = sorted((l.u.sort_key(), l.v.sort_key()) for l in p2.lines())
    if d1 != d2:
        return False
    if p1.kind == CROSSING:
        return True
    a, b = p1.lines()
    c, d = p2.lines()
    return (a.w - c.w == b.w - d.w) or (a.w - d.w == b.w - c.w)


def _split_homogeneous_square(f: Quadratic):
    """Write the homogeneous part as scale * (uX + vY)^2, for disc = 0."""
    if not f.a.is_zero:
        return f.a, (f.spec.one, halve(f.b) / f.a)
    # disc = 0 with a = 0 forces b = 0, so the part is c Y^2.
    return f.c, (f.spec.zero, f.spec.one)


def is_reducible(f: Quadratic) -> LinePair | None:
    """The factorization of f into two lines over the ground field, if any.

    det3(f) != 0 rules reducibility out.  With det3(f) = 0 the discriminant
    of the homogeneous part decides the shape: a nonzero square gives two
    crossing lines through the center; zero gives parallel or double lines
    exactly when the shifted 1-variable discriminant is a square (so X^2 - 2
    stays irreducible over Q); a non-square gives a point-like conic with no
    rational components.
    """
    if not f.det3().is_zero:
        return None
    disc = f.disc()
    root = square_root(disc)
    if root is None:
        return None
    if not root.is_zero:
        return _crossing_pair(f, disc, root)
    scale, (u, v) = _split_homogeneous_square(f)
    # With det3 = 0 the linear part is a multiple of uX + vY.
    m = f.d / u if not u.is_zero else f.e / v
    if not (f.d == m * u and f.e == m * v):
        raise AssertionError("det3 = 0 but the linear part is not aligned")
    mv = m.value
    shifted_disc = square_root(wrap(f.a.spec, mv * mv - 4 * scale.value * f.g.value))
    if shifted_disc is None:
        return None
    # The components are uX + vY = t for t = (-m +- shifted_disc) / 2 scale.
    k = (scale + scale).inverse()
    pair = LinePair(Line(u, v, (m - shifted_disc) * k), Line(u, v, (m + shifted_disc) * k))
    if not pair.product().same_up_to_scalar(f):
        raise AssertionError("parallel factorization failed to reproduce input")
    return pair


def _crossing_pair(f: Quadratic, disc: Scalar, root: Scalar) -> LinePair:
    """The two lines of f, given det3(f) = 0 and disc = root^2 != 0.

    Both lines pass through the center, the zero of the gradient, and their
    directions are the roots of the homogeneous part: [1 : 0] and
    [-c/b : 1] when a = 0, else [(-b +- root)/2a : 1].
    """
    spec = disc.spec
    ctr = _center(f, disc)
    cx, cy = ctr.x.value, ctr.y.value
    a, b = f.a.value, f.b.value
    one = spec.one

    def through_center(x) -> Line:  # direction [x : 1], x a raw value
        return Line(one, wrap(spec, -x), wrap(spec, x * cy - cx))

    if a == 0:
        # b != 0 as disc = b^2; the horizontal line has direction [1 : 0].
        horizontal = Line(spec.zero, one, wrap(spec, -cy))
        pair = LinePair._crossing(
            horizontal, through_center(-f.c.value * raw_inverse(spec, b)), ctr)
    else:
        h = raw_inverse(spec, a + a)
        r = root.value
        pair = LinePair._crossing(
            through_center((r - b) * h), through_center(-(b + r) * h), ctr)
    if not pair.product().same_up_to_scalar(f):
        raise AssertionError("crossing factorization failed to reproduce input")
    return pair


# --- degenerations -----------------------------------------------------------

DEGEN_UNIQUE = "unique"
DEGEN_FAMILY = "family"
DEGEN_NONE = "none"


class ParallelFamily:
    """All parallel/double pairs with a fixed direction and fixed midline.

    The members are the pairs {uX+vY = r, uX+vY = s} with r + s constant;
    each is the zero set of a degeneration of the owning quadratic.
    """

    __slots__ = ("scale", "axis", "linear", "constant")

    def __init__(self, scale: Scalar, axis: tuple[Scalar, Scalar],
                 linear: Scalar, constant: Scalar):
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "constant", constant)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ParallelFamily is immutable")

    @property
    def midline(self) -> Line:
        u, v = self.axis
        return Line(u, v, halve(self.linear / self.scale))

    @property
    def direction(self) -> ProjectivePoint:
        u, v = self.axis
        return ProjectivePoint.at_infinity(-v, u)

    def pair_at(self, r: Scalar) -> LinePair:
        u, v = self.axis
        s = -self.linear / self.scale - r
        return LinePair(Line(u, v, -r), Line(u, v, -s))

    def quadratic_at(self, r: Scalar) -> Quadratic:
        """The exact degeneration with component uX + vY = r."""
        return self.pair_at(r).product().scale(self.scale)


class Degenerations:
    """Outcome of listing the reducible constant shifts of a quadratic."""

    __slots__ = ("kind", "pair", "shift", "family")

    def __init__(self, kind, pair=None, shift=None, family=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "family", family)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Degenerations is immutable")

    def __repr__(self) -> str:
        return f"Degenerations({self.kind})"


def degenerations(f: Quadratic) -> Degenerations:
    """The reducible quadratics differing from f by a constant.

    A hyperbola has exactly one (its asymptote pair, at the shift that kills
    det3, which is linear in the shift with nonzero slope).  A quadratic
    whose homogeneous part is a perfect square and whose det3 vanishes has a
    one-parameter family, all sharing one midline.  Ellipses and parabolas
    with det3 != 0 have none.
    """
    disc = f.disc()
    root = square_root(disc)
    if root is not None and not root.is_zero:
        # det3(f + t) = det3(f) - t disc / 4, so this shift makes det3 zero.
        spec = disc.spec
        shift = wrap(spec, 4 * f.det3().value * raw_inverse(spec, disc.value))
        pair = _crossing_pair(f.add_constant(shift), disc, root)
        return Degenerations(DEGEN_UNIQUE, pair=pair, shift=shift)
    if disc.is_zero and f.det3().is_zero:
        scale, (u, v) = _split_homogeneous_square(f)
        m = f.d / u if not u.is_zero else f.e / v
        return Degenerations(
            DEGEN_FAMILY,
            family=ParallelFamily(scale, (u, v), m, f.g),
        )
    return Degenerations(DEGEN_NONE)


# --- line/conic midpoint calculus --------------------------------------------

MR_CROSSES = "crosses"
MR_MEETS_NO_CROSS = "meets-no-cross"
MR_NO_MEET = "no-meet"


class MidResult:
    """How a line intersects a conic, with the crossing midpoint if any."""

    __slots__ = ("kind", "midpoint")

    def __init__(self, kind: str, midpoint: Midpoint | None = None):
        if (kind == MR_CROSSES) != (midpoint is not None):
            raise ConicError("crossing results carry a midpoint; others do not")
        if midpoint is not None and midpoint.is_undetermined:
            raise ConicError("a crossing midpoint is finite or infinite")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "midpoint", midpoint)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("MidResult is immutable")

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


def restrict_to_line(f: Quadratic, line: Line) -> tuple[Scalar, Scalar, Scalar]:
    """Coefficients (A, B, C) of f along the line's parameterization.

    A is the homogeneous part at the direction, so A = 0 exactly when the
    line's point at infinity lies on the conic's closure.
    """
    spec = f.a.spec
    if line.u.spec is not spec:
        same_field(spec, line.u.spec)
    a, b, c = f.a.value, f.b.value, f.c.value
    d, e, g = f.d.value, f.e.value, f.g.value
    u, v, w = line.u.value, line.v.value, line.w.value
    if v == 0:
        # Canonical vertical line X = -w: base (-w, 0), direction (0, 1).
        x = -w
        return f.c, wrap(spec, b * x + e), wrap(spec, (a * x + d) * x + g)
    # Base (0, y), direction (-v, u).
    y = -w if v == 1 else -w * raw_inverse(spec, v)
    cy = c * y
    return (wrap(spec, (a * v - b * u) * v + c * u * u),
            wrap(spec, (cy + cy + e) * u - (b * y + d) * v),
            wrap(spec, (cy + e) * y + g))


def meets(f: Quadratic, line: Line) -> bool:
    """Whether the projective closures of line and conic intersect."""
    A, B, C = restrict_to_line(f, line)
    a, b = A.value, B.value
    if a == 0:
        return True
    return square_root(wrap(A.spec, b * b - 4 * a * C.value)) is not None


def mid(f: Quadratic, line: Line) -> MidResult:
    """Crossing classification and midpoint of a line against a conic.

    Tangential crossings (double roots along the line) count as crossings
    with the tangency point as midpoint, the sum-of-roots convention.
    """
    A, B, C = restrict_to_line(f, line)
    a, b = A.value, B.value
    if a != 0:
        spec = A.spec
        if square_root(wrap(spec, b * b - 4 * a * C.value)) is None:
            return NO_MEET
        t_mid = wrap(spec, -b * raw_inverse(spec, a + a))
        return MidResult(MR_CROSSES, Midpoint.finite(line.point_at(t_mid)))
    if b != 0:
        return MidResult(MR_CROSSES, MID_INFINITE)
    return MEETS_NO_CROSS
