"""Points, lines, midpoints with points at infinity, and affine maps.

Projective points are kept in a canonical form (last nonzero coordinate
scaled to 1) so equality and hashing are componentwise.  Lines are affine
lines uX + vY + w = 0 with (u, v) != (0, 0), scaled so the first nonzero of
(u, v) is 1; the line at infinity is not representable.
"""

from __future__ import annotations

from .field import (
    FieldSpec,
    FieldTuple,
    Frozen,
    Scalar,
    coordinate,
    as_fractions,
    fill_reduced,
    raw_inverse,
    raw_is_zero,
    same_field,
    set_raw,
    set_spec,
    wrap,
)

_new = object.__new__


class GeometryError(ValueError):
    """A geometric precondition was violated."""


def _normalize_point(point, spec: FieldSpec, x, y, z):
    """Fill ``point`` with the canonical (x, y, z): last nonzero coordinate 1.

    The one normalizer of points; affine points with z = 1 and directions
    [x : 1 : 0] are already canonical and are not scaled.
    """
    p = spec.p
    if p:
        x, y, z = x % p, y % p, z % p
    if z:
        if z != 1:
            k = raw_inverse(spec, z)
            x, y, z = x * k, y * k, 1
    elif y:
        if y != 1:
            x, y = x * raw_inverse(spec, y), 1
    elif x:
        x = 1
    else:
        raise GeometryError("projective point needs a nonzero coordinate")
    raw = (x % p, y % p, z) if p else as_fractions(x, y, z)
    set_spec(point, spec)
    set_raw(point, raw)
    return point


class ProjectivePoint(FieldTuple):
    """A point [x : y : z] of the projective plane, z = 0 meaning infinity.

    ``raw`` is (x, y, z) with the last nonzero coordinate scaled to 1.
    """

    __slots__ = ()

    _fill = _normalize_point
    x, y, z = coordinate(0), coordinate(1), coordinate(2)

    @classmethod
    def affine(cls, x: Scalar, y: Scalar) -> "ProjectivePoint":
        return cls(x, y, x.spec.one)

    @classmethod
    def at_infinity(cls, dx: Scalar, dy: Scalar) -> "ProjectivePoint":
        return cls(dx, dy, dx.spec.zero)

    @property
    def is_infinite(self) -> bool:
        return self.raw[2] == 0

    def affine_xy(self) -> tuple[Scalar, Scalar]:
        if self.raw[2] == 0:
            raise GeometryError("point at infinity has no affine coordinates")
        return self.x, self.y

    def __repr__(self) -> str:
        x, y, z = self.raw
        return f"[{x}:{y}:{z}]"

    def sort_key(self):
        x, y, z = self.raw
        return (z, x, y)


def _point(spec: FieldSpec, x, y, z) -> ProjectivePoint:
    """The point [x : y : z] of raw, possibly unreduced, values."""
    return _normalize_point(_new(ProjectivePoint), spec, x, y, z)


class _Coincident:
    """Marker for the intersection of two identical lines."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "COINCIDENT"


COINCIDENT = _Coincident()


def _normalize_line(line, spec: FieldSpec, u, v, w):
    """Fill ``line`` with the canonical (u, v, w): first nonzero of (u, v) 1.

    The one normalizer of lines; lines with a unit leading coefficient, such
    as those built from a direction [x : 1], are not scaled.
    """
    p = spec.p
    if p:
        u, v = u % p, v % p
    if u:
        if u != 1:
            k = raw_inverse(spec, u)
            u, v, w = 1, v * k, w * k
    elif v:
        if v != 1:
            v, w = 1, w * raw_inverse(spec, v)
    else:
        raise GeometryError("line coefficients need (u, v) != (0, 0)")
    raw = (u, v % p, w % p) if p else as_fractions(u, v, w)
    set_spec(line, spec)
    set_raw(line, raw)
    return line


class Line(FieldTuple):
    """The affine line uX + vY + w = 0, canonically scaled.

    ``raw`` is (u, v, w) with the first nonzero of (u, v) scaled to 1.
    """

    __slots__ = ()

    _fill = _normalize_line
    u, v, w = coordinate(0), coordinate(1), coordinate(2)

    @classmethod
    def through(cls, p: ProjectivePoint, q: ProjectivePoint) -> "Line":
        """The line joining two distinct points, not both at infinity."""
        if p == q:
            raise GeometryError("two distinct points are needed to span a line")
        px, py, pz = p.raw
        qx, qy, qz = q.raw
        u, v = py * qz - qy * pz, pz * qx - qz * px
        spec = p.spec
        if raw_is_zero(spec, u) and raw_is_zero(spec, v):
            raise GeometryError("the line at infinity is not representable")
        return _line(spec, u, v, px * qy - qx * py)

    def contains(self, p: ProjectivePoint) -> bool:
        """Membership in the projective closure of the line."""
        spec = self.spec
        if p.spec is not spec:
            same_field(spec, p.spec)
        u, v, w = self.raw
        x, y, z = p.raw
        return raw_is_zero(spec, u * x + v * y + w * z)

    def is_parallel_to(self, other: "Line") -> bool:
        if other.spec is not self.spec:
            same_field(self.spec, other.spec)
        return self.raw[:2] == other.raw[:2]

    def point_at(self, t: Scalar) -> ProjectivePoint:
        """base + t (-v, u), so the point at infinity is [-v : u : 0]; the base is
        (0, -w/v), or (-w, 0) on a vertical line, whose canonical u is 1."""
        if t.spec is not self.spec:
            same_field(self.spec, t.spec)
        return _point_at(self, t.value)

    def param_of(self, p: ProjectivePoint) -> Scalar:
        """The parameter of an affine point of the line."""
        if not self.contains(p):
            raise GeometryError("point is not on the line")
        x, y, z = p.raw
        if z == 0:
            raise GeometryError("point at infinity has no affine coordinates")
        spec = self.spec
        v = self.raw[1]
        return wrap(spec, y if v == 0 else -x * raw_inverse(spec, v))

    def __repr__(self) -> str:
        u, v, w = self.raw
        return f"Line({u},{v},{w})"

    def sort_key(self):
        return self.raw


def _line(spec: FieldSpec, u, v, w) -> Line:
    """The line uX + vY + w = 0 of raw, possibly unreduced, values."""
    return _normalize_line(_new(Line), spec, u, v, w)


def _point_at(line: Line, t) -> ProjectivePoint:
    """The point of the line's parameterization at the raw parameter t."""
    spec = line.spec
    u, v, w = line.raw
    if v == 0:
        return _point(spec, -w, t, 1)
    return _point(spec, -v * t, u * t - w * raw_inverse(spec, v), 1)


def intersect(l1: Line, l2: Line) -> ProjectivePoint | _Coincident:
    """Projective intersection of two lines; COINCIDENT for equal lines."""
    spec = l1.spec
    if l2.spec is not spec:
        same_field(spec, l2.spec)
    u1, v1, w1 = l1.raw
    u2, v2, w2 = l2.raw
    x = v1 * w2 - v2 * w1
    y = w1 * u2 - w2 * u1
    z = u1 * v2 - u2 * v1
    if raw_is_zero(spec, z) and raw_is_zero(spec, x) and raw_is_zero(spec, y):
        return COINCIDENT
    return _point(spec, x, y, z)


def midline(l1: Line, l2: Line) -> Line:
    """The parallel line midway between two parallel lines."""
    if not l1.is_parallel_to(l2):
        raise GeometryError("midline needs parallel lines")
    spec = l1.spec
    u, v, w1 = l1.raw
    return _line(spec, u, v, (w1 + l2.raw[2]) * raw_inverse(spec, 2))


class Midpoint(Frozen):
    """Finite (carrying an affine point), infinite, or undetermined."""

    __slots__ = ("kind", "point")

    FINITE = "finite"
    INFINITE = "infinite"
    UNDETERMINED = "undetermined"

    def __init__(self, kind: str, point: ProjectivePoint | None = None):
        if kind == Midpoint.FINITE:
            if point is None or point.is_infinite:
                raise GeometryError("finite midpoint needs an affine point")
        elif point is not None:
            raise GeometryError(f"{kind} midpoint carries no point")
        super().__init__(kind, point)

    @classmethod
    def finite(cls, point: ProjectivePoint) -> "Midpoint":
        return cls(cls.FINITE, point)

    @property
    def is_finite(self) -> bool:
        return self.kind == Midpoint.FINITE

    @property
    def is_infinite(self) -> bool:
        return self.kind == Midpoint.INFINITE

    @property
    def is_undetermined(self) -> bool:
        return self.kind == Midpoint.UNDETERMINED

    def __eq__(self, other) -> bool:
        if not isinstance(other, Midpoint):
            return NotImplemented
        return self.kind == other.kind and self.point == other.point

    def __hash__(self) -> int:
        return hash((self.kind, self.point))

    def __repr__(self) -> str:
        if self.is_finite:
            return f"Midpoint({self.point})"
        return f"Midpoint({self.kind})"


MID_INFINITE = Midpoint(Midpoint.INFINITE)
MID_UNDETERMINED = Midpoint(Midpoint.UNDETERMINED)


def midpoint_of_points(p: ProjectivePoint, q: ProjectivePoint) -> Midpoint:
    """Midpoint of two points of a projective line.

    Both affine: the componentwise average.  Exactly one at infinity: the
    infinite midpoint.  Both at infinity: undetermined.
    """
    px, py, pz = p.raw
    qx, qy, qz = q.raw
    if pz == 0 and qz == 0:
        return MID_UNDETERMINED
    if pz == 0 or qz == 0:
        return MID_INFINITE
    spec = p.spec
    if q.spec is not spec:
        same_field(spec, q.spec)
    half = raw_inverse(spec, 2)
    return Midpoint.finite(_point(spec, (px + qx) * half, (py + qy) * half, 1))


def midpoint_on_line(p: ProjectivePoint, q: ProjectivePoint, line: Line) -> Midpoint:
    """Midpoint of two points on the projective closure of a line."""
    if not line.contains(p) or not line.contains(q):
        raise GeometryError("both points must lie on the closure of the line")
    return midpoint_of_points(p, q)


def _normalize_map(mapping, spec: FieldSpec, m11, m12, m21, m22, t1, t2):
    """Fill ``mapping`` with the reduced entries; the one normalizer of maps."""
    raw = fill_reduced(mapping, spec, m11, m12, m21, m22, t1, t2).raw
    if raw_is_zero(spec, raw[0] * raw[3] - raw[1] * raw[2]):
        raise GeometryError("affine map must be invertible")
    return mapping


class AffineMap(FieldTuple):
    """An invertible affine map (x, y) -> M (x, y) + t with exact entries.

    ``raw`` is (m11, m12, m21, m22, t1, t2), reduced.
    """

    __slots__ = ()

    _fill = _normalize_map
    m11, m12, m21, m22 = coordinate(0), coordinate(1), coordinate(2), coordinate(3)
    t1, t2 = coordinate(4), coordinate(5)

    @classmethod
    def identity(cls, spec: FieldSpec) -> "AffineMap":
        return _affine_map(spec, 1, 0, 0, 1, 0, 0)

    @classmethod
    def translation(cls, t1: Scalar, t2: Scalar) -> "AffineMap":
        one, zero = t1.spec.one, t1.spec.zero
        return cls(one, zero, zero, one, t1, t2)

    @classmethod
    def linear(cls, m11, m12, m21, m22) -> "AffineMap":
        zero = m11.spec.zero
        return cls(m11, m12, m21, m22, zero, zero)

    def determinant(self) -> Scalar:
        m11, m12, m21, m22, _, _ = self.raw
        return wrap(self.spec, m11 * m22 - m12 * m21)

    def apply(self, p: ProjectivePoint) -> ProjectivePoint:
        m11, m12, m21, m22, t1, t2 = self.raw_in(p.spec)
        x, y, z = p.raw
        return _point(p.spec, m11 * x + m12 * y + t1 * z, m21 * x + m22 * y + t2 * z, z)

    def pull_line(self, line: Line) -> Line:
        """The preimage of a line: the line with equation line(self(x, y)) = 0."""
        m11, m12, m21, m22, t1, t2 = self.raw_in(line.spec)
        u, v, w = line.raw
        return _line(line.spec, u * m11 + v * m21, u * m12 + v * m22, u * t1 + v * t2 + w)

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: (self.compose(other))(p) = self(other(p))."""
        m11, m12, m21, m22, t1, t2 = self.raw
        n11, n12, n21, n22, s1, s2 = other.raw_in(self.spec)
        return _affine_map(self.spec, m11 * n11 + m12 * n21, m11 * n12 + m12 * n22,
                           m21 * n11 + m22 * n21, m21 * n12 + m22 * n22,
                           m11 * s1 + m12 * s2 + t1, m21 * s1 + m22 * s2 + t2)

    def inverse(self) -> "AffineMap":
        spec = self.spec
        m11, m12, m21, m22, t1, t2 = self.raw
        k = raw_inverse(spec, m11 * m22 - m12 * m21)
        n11, n12, n21, n22 = m22 * k, -m12 * k, -m21 * k, m11 * k
        return _affine_map(spec, n11, n12, n21, n22,
                           -(n11 * t1 + n12 * t2), -(n21 * t1 + n22 * t2))

    def __repr__(self) -> str:
        m11, m12, m21, m22, t1, t2 = self.raw
        return f"AffineMap([[{m11},{m12}],[{m21},{m22}]] + ({t1},{t2}))"


def _affine_map(spec: FieldSpec, m11, m12, m21, m22, t1, t2) -> AffineMap:
    """The map with the given raw, possibly unreduced, entries."""
    return _normalize_map(_new(AffineMap), spec, m11, m12, m21, m22, t1, t2)


def map_line_to_y0(line: Line) -> AffineMap:
    """A deterministic invertible affine map carrying the line onto Y = 0.

    Built shear-first from the canonical coefficients: for a non-vertical
    line the map is (x, y) -> (x, ux + vy + w); for a vertical line the
    coordinates are swapped first, (x, y) -> (y, ux + w).
    """
    u, v, w = line.raw
    if v != 0:
        return _affine_map(line.spec, 1, 0, u, v, 0, w)
    return _affine_map(line.spec, 0, 1, u, 0, 0, w)
