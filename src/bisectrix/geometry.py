"""Points, lines, midpoints with points at infinity, and affine maps.

Projective points are kept in a canonical form (last nonzero coordinate
scaled to 1) so equality and hashing are componentwise.  Lines are affine
lines uX + vY + w = 0 with (u, v) != (0, 0), scaled so the first nonzero of
(u, v) is 1; the line at infinity is not representable.
"""

from __future__ import annotations

from .field import FieldSpec, Scalar, halve, raw_inverse, raw_is_zero, same_field, wrap


class GeometryError(ValueError):
    """A geometric precondition was violated."""


class ProjectivePoint:
    """A point [x : y : z] of the projective plane, z = 0 meaning infinity."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: Scalar, y: Scalar, z: Scalar):
        # Canonical representative: last nonzero coordinate equals 1.  Affine
        # points with z = 1 and directions [x : 1 : 0] are already canonical.
        # The coordinates share one field, so kernels check only across objects.
        spec = z.spec
        if not (x.spec is spec is y.spec):
            same_field(spec, x.spec)
            same_field(spec, y.spec)
        if z.value != 0:
            if z.value != 1:
                k = raw_inverse(spec, z.value)
                x, y, z = wrap(spec, x.value * k), wrap(spec, y.value * k), spec.one
        elif y.value != 0:
            if y.value != 1:
                x, y = wrap(spec, x.value * raw_inverse(spec, y.value)), spec.one
        elif x.value != 0:
            x = spec.one
        else:
            raise GeometryError("projective point needs a nonzero coordinate")
        _set_x(self, x)
        _set_y(self, y)
        _set_z(self, z)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ProjectivePoint is immutable")

    @classmethod
    def affine(cls, x: Scalar, y: Scalar) -> "ProjectivePoint":
        return cls(x, y, x.spec.one)

    @classmethod
    def at_infinity(cls, dx: Scalar, dy: Scalar) -> "ProjectivePoint":
        return cls(dx, dy, dx.spec.zero)

    @property
    def spec(self) -> FieldSpec:
        return self.x.spec

    @property
    def is_infinite(self) -> bool:
        return self.z.is_zero

    def affine_xy(self) -> tuple[Scalar, Scalar]:
        if self.is_infinite:
            raise GeometryError("point at infinity has no affine coordinates")
        return self.x, self.y

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        if other.x.spec is not self.x.spec:
            same_field(self.x.spec, other.x.spec)
        return (self.x.value == other.x.value and self.y.value == other.y.value
                and self.z.value == other.z.value)

    def __hash__(self) -> int:
        # A scalar hashes as its value, so this is hash((x, y, z)).
        return hash((self.x.value, self.y.value, self.z.value))

    def __repr__(self) -> str:
        return f"[{self.x}:{self.y}:{self.z}]"

    def sort_key(self):
        return (self.z.value, self.x.value, self.y.value)


_set_x = ProjectivePoint.__dict__["x"].__set__
_set_y = ProjectivePoint.__dict__["y"].__set__
_set_z = ProjectivePoint.__dict__["z"].__set__


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


class Line:
    """The affine line uX + vY + w = 0, canonically scaled."""

    __slots__ = ("u", "v", "w")

    def __init__(self, u: Scalar, v: Scalar, w: Scalar):
        # Canonical scaling: the first nonzero of (u, v) equals 1.  Lines
        # built from a direction [x : 1] or a unit coefficient already are.
        # The coefficients share one field, so kernels check only across objects.
        spec = u.spec
        if not (v.spec is spec is w.spec):
            same_field(spec, v.spec)
            same_field(spec, w.spec)
        if u.value != 0:
            if u.value != 1:
                k = raw_inverse(spec, u.value)
                u, v, w = spec.one, wrap(spec, v.value * k), wrap(spec, w.value * k)
        elif v.value != 0:
            if v.value != 1:
                v, w = spec.one, wrap(spec, w.value * raw_inverse(spec, v.value))
        else:
            raise GeometryError("line coefficients need (u, v) != (0, 0)")
        _set_u(self, u)
        _set_v(self, v)
        _set_w(self, w)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Line is immutable")

    @classmethod
    def through(cls, p: ProjectivePoint, q: ProjectivePoint) -> "Line":
        """The line joining two distinct points, not both at infinity."""
        if p == q:
            raise GeometryError("two distinct points are needed to span a line")
        u = p.y * q.z - q.y * p.z
        v = p.z * q.x - q.z * p.x
        w = p.x * q.y - q.x * p.y
        if u.is_zero and v.is_zero:
            raise GeometryError("the line at infinity is not representable")
        return cls(u, v, w)

    @property
    def spec(self) -> FieldSpec:
        return self.u.spec

    def evaluate(self, x: Scalar, y: Scalar) -> Scalar:
        return self.u * x + self.v * y + self.w

    def contains(self, p: ProjectivePoint) -> bool:
        """Membership in the projective closure of the line."""
        spec = self.u.spec
        if p.x.spec is not spec:
            same_field(spec, p.x.spec)
        return raw_is_zero(spec, self.u.value * p.x.value + self.v.value * p.y.value
                           + self.w.value * p.z.value)

    def infinity_point(self) -> ProjectivePoint:
        """The point at infinity of the line: [-v : u : 0]."""
        return ProjectivePoint.at_infinity(-self.v, self.u)

    def is_parallel_to(self, other: "Line") -> bool:
        if other.u.spec is not self.u.spec:
            same_field(self.u.spec, other.u.spec)
        return self.u.value == other.u.value and self.v.value == other.v.value

    # A fixed parameterization of the line, t -> base + t * direction, with
    # direction (-v, u) so the parameter point at infinity is [-v : u : 0].
    # The base is (0, -w/v), or (-w, 0) on a vertical line, whose canonical
    # u is 1.
    def parameterization(self) -> tuple[tuple[Scalar, Scalar], tuple[Scalar, Scalar]]:
        spec = self.u.spec
        v, w = self.v.value, self.w.value
        if v != 0:
            base = (spec.zero, wrap(spec, -w * raw_inverse(spec, v)))
        else:
            base = (wrap(spec, -w), spec.zero)
        return base, (wrap(spec, -v), self.u)

    def point_at(self, t: Scalar) -> ProjectivePoint:
        spec = self.u.spec
        if t.spec is not spec:
            same_field(spec, t.spec)
        v, w = self.v.value, self.w.value
        if v == 0:
            return ProjectivePoint.affine(wrap(spec, -w), t)
        tv = t.value
        return ProjectivePoint.affine(
            wrap(spec, -v * tv), wrap(spec, self.u.value * tv - w * raw_inverse(spec, v))
        )

    def param_of(self, p: ProjectivePoint) -> Scalar:
        """The parameter of an affine point of the line."""
        if not self.contains(p):
            raise GeometryError("point is not on the line")
        x, y = p.affine_xy()
        v = self.v.value
        if v == 0:
            return y
        return wrap(x.spec, -x.value * raw_inverse(x.spec, v))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Line):
            return NotImplemented
        if other.u.spec is not self.u.spec:
            same_field(self.u.spec, other.u.spec)
        return (self.u.value == other.u.value and self.v.value == other.v.value
                and self.w.value == other.w.value)

    def __hash__(self) -> int:
        # A scalar hashes as its value, so this is hash((u, v, w)).
        return hash((self.u.value, self.v.value, self.w.value))

    def __repr__(self) -> str:
        return f"Line({self.u},{self.v},{self.w})"

    def sort_key(self):
        return (self.u.value, self.v.value, self.w.value)


_set_u = Line.__dict__["u"].__set__
_set_v = Line.__dict__["v"].__set__
_set_w = Line.__dict__["w"].__set__


def intersect(l1: Line, l2: Line) -> ProjectivePoint | _Coincident:
    """Projective intersection of two lines; COINCIDENT for equal lines."""
    spec = l1.u.spec
    if l2.u.spec is not spec:
        same_field(spec, l2.u.spec)
    u1, v1, w1 = l1.u.value, l1.v.value, l1.w.value
    u2, v2, w2 = l2.u.value, l2.v.value, l2.w.value
    x = v1 * w2 - v2 * w1
    y = w1 * u2 - w2 * u1
    z = u1 * v2 - u2 * v1
    if not raw_is_zero(spec, z):
        k = raw_inverse(spec, z)
        return ProjectivePoint.affine(wrap(spec, x * k), wrap(spec, y * k))
    if raw_is_zero(spec, x) and raw_is_zero(spec, y):
        return COINCIDENT
    return ProjectivePoint(wrap(spec, x), wrap(spec, y), spec.zero)


def midline(l1: Line, l2: Line) -> Line:
    """The parallel line midway between two parallel lines."""
    if not l1.is_parallel_to(l2):
        raise GeometryError("midline needs parallel lines")
    return Line(l1.u, l1.v, halve(l1.w + l2.w))


class Midpoint:
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
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "point", point)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Midpoint is immutable")

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
    if p.is_infinite and q.is_infinite:
        return MID_UNDETERMINED
    if p.is_infinite or q.is_infinite:
        return MID_INFINITE
    px, py = p.affine_xy()
    qx, qy = q.affine_xy()
    return Midpoint.finite(ProjectivePoint.affine(halve(px + qx), halve(py + qy)))


def midpoint_on_line(p: ProjectivePoint, q: ProjectivePoint, line: Line) -> Midpoint:
    """Midpoint of two points on the projective closure of a line."""
    if not line.contains(p) or not line.contains(q):
        raise GeometryError("both points must lie on the closure of the line")
    return midpoint_of_points(p, q)


def reflect_through(m: ProjectivePoint, p: ProjectivePoint) -> ProjectivePoint:
    """Point reflection: p maps to 2m - p (affine points only)."""
    mx, my = m.affine_xy()
    px, py = p.affine_xy()
    return ProjectivePoint.affine(mx + mx - px, my + my - py)


class AffineMap:
    """An invertible affine map (x, y) -> M (x, y) + t with exact entries."""

    __slots__ = ("m11", "m12", "m21", "m22", "t1", "t2")

    def __init__(self, m11, m12, m21, m22, t1, t2):
        det = m11 * m22 - m12 * m21
        if det.is_zero:
            raise GeometryError("affine map must be invertible")
        for name, val in (("m11", m11), ("m12", m12), ("m21", m21),
                          ("m22", m22), ("t1", t1), ("t2", t2)):
            object.__setattr__(self, name, val)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("AffineMap is immutable")

    @classmethod
    def identity(cls, spec: FieldSpec) -> "AffineMap":
        one, zero = spec.one, spec.zero
        return cls(one, zero, zero, one, zero, zero)

    @classmethod
    def translation(cls, t1: Scalar, t2: Scalar) -> "AffineMap":
        one, zero = t1.spec.one, t1.spec.zero
        return cls(one, zero, zero, one, t1, t2)

    @classmethod
    def linear(cls, m11, m12, m21, m22) -> "AffineMap":
        zero = m11.spec.zero
        return cls(m11, m12, m21, m22, zero, zero)

    @property
    def spec(self) -> FieldSpec:
        return self.m11.spec

    def determinant(self) -> Scalar:
        return self.m11 * self.m22 - self.m12 * self.m21

    def apply_xy(self, x: Scalar, y: Scalar) -> tuple[Scalar, Scalar]:
        return (self.m11 * x + self.m12 * y + self.t1,
                self.m21 * x + self.m22 * y + self.t2)

    def apply(self, p: ProjectivePoint) -> ProjectivePoint:
        return ProjectivePoint(
            self.m11 * p.x + self.m12 * p.y + self.t1 * p.z,
            self.m21 * p.x + self.m22 * p.y + self.t2 * p.z,
            p.z,
        )

    def apply_line(self, line: Line) -> Line:
        """The image of a line under the map."""
        return self.inverse().pull_line(line)

    def pull_line(self, line: Line) -> Line:
        """The preimage of a line: the line with equation line(self(x, y)) = 0."""
        u = line.u * self.m11 + line.v * self.m21
        v = line.u * self.m12 + line.v * self.m22
        w = line.u * self.t1 + line.v * self.t2 + line.w
        return Line(u, v, w)

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: (self.compose(other))(p) = self(other(p))."""
        return AffineMap(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
            self.m11 * other.t1 + self.m12 * other.t2 + self.t1,
            self.m21 * other.t1 + self.m22 * other.t2 + self.t2,
        )

    def inverse(self) -> "AffineMap":
        det = self.determinant()
        n11, n12 = self.m22 / det, -self.m12 / det
        n21, n22 = -self.m21 / det, self.m11 / det
        return AffineMap(
            n11, n12, n21, n22,
            -(n11 * self.t1 + n12 * self.t2),
            -(n21 * self.t1 + n22 * self.t2),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineMap):
            return NotImplemented
        return all(
            getattr(self, f) == getattr(other, f)
            for f in ("m11", "m12", "m21", "m22", "t1", "t2")
        )

    def __repr__(self) -> str:
        return (f"AffineMap([[{self.m11},{self.m12}],[{self.m21},{self.m22}]] "
                f"+ ({self.t1},{self.t2}))")


def map_line_to_y0(line: Line) -> AffineMap:
    """A deterministic invertible affine map carrying the line onto Y = 0.

    Built shear-first from the canonical coefficients: for a non-vertical
    line the map is (x, y) -> (x, ux + vy + w); for a vertical line the
    coordinates are swapped first, (x, y) -> (y, ux + w).
    """
    spec = line.spec
    one, zero = spec.one, spec.zero
    if not line.v.is_zero:
        return AffineMap(one, zero, line.u, line.v, zero, line.w)
    return AffineMap(zero, one, line.u, zero, zero, line.w)
