"""The raw representation of every field-valued record.

Each quadratic, line, point, affine map, net coordinate triple, degeneracy
cubic, parallel family and involution holds its field ``spec`` and one tuple
``raw`` of canonical values: residues in [0, p) over GF(p), Fractions over
Q, lines scaled so the first nonzero of (u, v) is 1, points so the last
nonzero coordinate is 1, net coordinates so the first nonzero of (alpha,
beta) is 1 and involutions so the first nonzero coefficient is 1.  Every
construction path must reach the same tuple, and each object hashes as the
tuple of its Scalars.
"""

import random
from fractions import Fraction

import pytest

from bisectrix.conic import (
    LinePair,
    Quadratic,
    _crossing_pair,
    _disc,
    _form_roots,
    center,
    degenerations,
    pullback,
)
from bisectrix.field import (
    GF,
    FieldMismatchError,
    FieldSpec,
    rationals,
    raw_inverse,
    raw_sqrt,
    square_root,
)
from bisectrix.bisector import BisectorError, Involution, desargues_involution, pair_through_line
from bisectrix.conic import ParallelFamily
from bisectrix.geometry import AffineMap, Line, ProjectivePoint, intersect
from bisectrix.pencil import (
    AsymptoticPencil,
    DegeneracyCubic,
    NetCoords,
    Pencil,
    PencilError,
    degeneracy_cubic,
    find_hyperbolas,
    net_contains,
    net_member,
)

Q = rationals()
FIELDS = [GF(3), GF(5), GF(7), GF(10**9 + 7), Q]
IDS = ["F3", "F5", "F7", "Fbig", "Q"]


def _value(rng, spec):
    if spec.p is None:
        return spec.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    return spec.scalar(rng.randrange(spec.p))


def _quadratic(rng, spec):
    while True:
        coeffs = [_value(rng, spec) for _ in range(6)]
        if any(coeffs[:3]):
            return Quadratic(*coeffs)


def _line(rng, spec):
    while True:
        u, v, w = (_value(rng, spec) for _ in range(3))
        if u or v:
            return Line(u, v, w)


def _unit(rng, spec):
    while True:
        k = _value(rng, spec)
        if k:
            return k


def _scalars(obj):
    if isinstance(obj, Quadratic):
        return obj.coefficients()
    if isinstance(obj, Line):
        return (obj.u, obj.v, obj.w)
    if isinstance(obj, NetCoords):
        return (obj.alpha, obj.beta, obj.shift)
    if isinstance(obj, DegeneracyCubic):
        return (*obj.shift_coeff, *obj.base)
    if isinstance(obj, ParallelFamily):
        return (obj.scale, *obj.axis, obj.linear, obj.constant)
    if isinstance(obj, Involution):
        return (obj.p, obj.q, obj.r)
    return (obj.x, obj.y, obj.z)


def _assert_canonical(obj, spec):
    """Reduced, canonically scaled, Fractions over Q, and equal to its Scalars."""
    raw = obj.raw
    assert obj.spec is spec and type(raw) is tuple
    if spec.p is None:
        assert all(type(x) is Fraction for x in raw), raw
    else:
        assert all(type(x) is int and 0 <= x < spec.p for x in raw), raw
    scalars = _scalars(obj)
    assert all(s.spec is spec for s in scalars)
    assert raw == tuple(s.value for s in scalars)
    assert obj.key() == raw
    if isinstance(obj, Line):
        assert next(x for x in raw[:2] if x != 0) == 1
    if isinstance(obj, ProjectivePoint):
        assert next(x for x in reversed(raw) if x != 0) == 1
    if isinstance(obj, NetCoords):
        assert next(x for x in raw[:2] if x != 0) == 1
    if isinstance(obj, Involution):
        assert next(x for x in raw if x != 0) == 1
    # A Scalar hashes as its value, so the object hashes as its Scalars do.
    assert hash(obj) == hash(tuple(scalars))
    # The public constructor of the object's own Scalars is the identity.
    again = type(obj)(*scalars)
    assert again.raw == raw and again == obj and hash(again) == hash(obj)


def _pencil(rng, spec):
    while True:
        try:
            return Pencil(_quadratic(rng, spec), _quadratic(rng, spec))
        except PencilError:
            continue


class TestConstructionPaths:
    @pytest.mark.parametrize("spec", FIELDS, ids=IDS)
    def test_quadratics(self, spec):
        rng = random.Random(7)
        for _ in range(40):
            ints = [rng.randint(-10**12, 10**12) for _ in range(6)]
            if not any(spec.scalar(v) for v in ints[:3]):
                continue
            f = Quadratic.from_ints(spec, ints)
            _assert_canonical(f, spec)
            assert f == Quadratic(*(spec.scalar(v) for v in ints))
            f, g = _quadratic(rng, spec), _quadratic(rng, spec)
            s, t = _value(rng, spec), _unit(rng, spec)
            expected = [s * x + t * y for x, y in zip(f.coefficients(), g.coefficients())]
            if any(expected[:3]):
                combo = Quadratic.from_ints(
                    spec, [s.value * x + t.value * y for x, y in zip(f.raw, g.raw)])
                _assert_canonical(combo, spec)
                assert combo == Quadratic(*expected)
            if any(x + y for x, y in zip(f.homogeneous_part(), g.homogeneous_part())):
                _assert_canonical(f + g, spec)
            if f.homogeneous_part() != g.homogeneous_part():
                _assert_canonical(f - g, spec)
            for h in (f.add_constant(s), f.scale(t), f.canonical()):
                _assert_canonical(h, spec)
            m = AffineMap(_unit(rng, spec), spec.zero, _value(rng, spec), _unit(rng, spec),
                          _value(rng, spec), _value(rng, spec))
            _assert_canonical(pullback(m, f), spec)

    @pytest.mark.parametrize("spec", FIELDS, ids=IDS)
    def test_lines_and_products(self, spec):
        rng = random.Random(8)
        for _ in range(40):
            l1, l2 = _line(rng, spec), _line(rng, spec)
            _assert_canonical(l1, spec)
            k = _unit(rng, spec)
            assert Line(k * l1.u, k * l1.v, k * l1.w).raw == l1.raw
            _assert_canonical(LinePair(l1, l2).product(), spec)
            p, q = l1.point_at(_value(rng, spec)), l1.point_at(_value(rng, spec))
            if p != q:
                through = Line.through(p, q)
                _assert_canonical(through, spec)
                assert through == l1
            _assert_canonical(ProjectivePoint.at_infinity(-l1.v, l1.u), spec)

    @pytest.mark.parametrize("spec", FIELDS, ids=IDS)
    def test_points(self, spec):
        rng = random.Random(9)
        for _ in range(40):
            x, y, z = (_value(rng, spec) for _ in range(3))
            if not (x or y or z):
                continue
            pt = ProjectivePoint(x, y, z)
            _assert_canonical(pt, spec)
            k = _unit(rng, spec)
            assert ProjectivePoint(k * x, k * y, k * z).raw == pt.raw
            l1, l2 = _line(rng, spec), _line(rng, spec)
            crossing = intersect(l1, l2)
            if l1 != l2:
                _assert_canonical(crossing, spec)
            on_line = l1.point_at(_value(rng, spec))
            _assert_canonical(on_line, spec)
            assert l1.contains(on_line)

    @pytest.mark.parametrize("spec", FIELDS, ids=IDS)
    def test_centers(self, spec):
        rng = random.Random(10)
        seen = 0
        for _ in range(200):
            f = _quadratic(rng, spec)
            root = raw_sqrt(spec, _disc(f.raw))
            if root is None or root == 0:
                continue
            seen += 1
            ctr = center(f)
            _assert_canonical(ctr, spec)
            pair = degenerations(f).pair
            assert pair.center == ctr
            for obj in (pair.center, pair.first, pair.second):
                _assert_canonical(obj, spec)
            shifted = f.add_constant(degenerations(f).shift)
            k = raw_inverse(spec, _disc(f.raw))
            assert _crossing_pair(spec, shifted.raw, _form_roots(spec, *f.raw[:3]), k) == pair
        assert seen >= 10


    @pytest.mark.parametrize("spec", FIELDS, ids=IDS)
    def test_parallel_families(self, spec):
        # (X + Y)^2 + 3(X + Y) + 1 and 2Y^2 + 4Y + 1: the two shapes of split.
        for coeffs in ((1, 2, 1, 3, 3, 1), (0, 0, 2, 0, 4, 1)):
            family = degenerations(Quadratic.from_ints(spec, coeffs)).family
            _assert_canonical(family, spec)
            values = [family.scale, *family.axis, family.linear, family.constant]
            for s in values:
                assert s.spec is spec
                if spec.p is None:
                    assert type(s.value) is Fraction
                else:
                    assert type(s.value) is int and 0 <= s.value < spec.p
            pair = family.pair_at(spec.one)
            for obj in (family.midline, family.direction, pair.first, pair.second):
                _assert_canonical(obj, spec)


    @pytest.mark.parametrize("spec", FIELDS, ids=IDS)
    def test_pencil_records(self, spec):
        rng = random.Random(12)
        involutions = 0
        for _ in range(30):
            pencil = _pencil(rng, spec)
            _assert_canonical(degeneracy_cubic(pencil), spec)
            for coords, member in find_hyperbolas(pencil):
                _assert_canonical(coords, spec)
                assert net_member(pencil, coords) == member
                assert net_contains(pencil, member) == coords
            k = _unit(rng, spec)
            coords = NetCoords(k * _unit(rng, spec), _value(rng, spec), _value(rng, spec))
            _assert_canonical(coords, spec)
            assert net_contains(pencil, net_member(pencil, coords)) == coords
            line = _line(rng, spec)
            hit = pair_through_line(line, pencil)
            if hit is not None:
                _assert_canonical(hit.coords, spec)
            try:
                inv = desargues_involution(pencil, line)
            except BisectorError:
                continue
            involutions += 1
            _assert_canonical(inv, spec)
            assert Involution(k * inv.p, k * inv.q, k * inv.r) == inv
        assert involutions >= 5
        if spec.p is not None and spec.p < 100:
            for coords, _ in AsymptoticPencil(pencil).members():
                _assert_canonical(coords, spec)


def _xy_pencil(spec):
    return Pencil(Quadratic.from_ints(spec, (0, 1, 0, 0, 0, 0)),
                  Quadratic.from_ints(spec, (1, 0, -1, 0, 0, 0)))


class TestFields:
    def test_equality_across_fields_raises(self):
        F5, F7 = GF(5), GF(7)
        for spec_a, spec_b in ((F5, F7), (F7, F5), (Q, F7)):
            objs = [
                (Quadratic.from_ints(spec_a, (1, 0, 1, 0, 0, 1)),
                 Quadratic.from_ints(spec_b, (1, 0, 1, 0, 0, 1))),
                (Line(spec_a.one, spec_a.zero, spec_a.one),
                 Line(spec_b.one, spec_b.zero, spec_b.one)),
                (ProjectivePoint.affine(spec_a.one, spec_a.zero),
                 ProjectivePoint.affine(spec_b.one, spec_b.zero)),
                (NetCoords(spec_a.one, spec_a.zero, spec_a.one),
                 NetCoords(spec_b.one, spec_b.zero, spec_b.one)),
                (degeneracy_cubic(_xy_pencil(spec_a)), degeneracy_cubic(_xy_pencil(spec_b))),
                (degenerations(Quadratic.from_ints(spec_a, (1, 0, 0, 0, 0, -1))).family,
                 degenerations(Quadratic.from_ints(spec_b, (1, 0, 0, 0, 0, -1))).family),
                (Involution(spec_a.one, spec_a.zero, spec_a.one),
                 Involution(spec_b.one, spec_b.zero, spec_b.one)),
            ]
            for a, b in objs:
                with pytest.raises(FieldMismatchError):
                    a == b  # noqa: B015

    def test_an_equal_spec_object_is_accepted(self):
        other = FieldSpec(7)
        assert other is not GF(7)
        f = Quadratic.from_ints(GF(7), (1, 2, 3, 4, 5, 6))
        g = Quadratic.from_ints(other, (8, 9, 10, 11, 12, 13))
        assert f == g and hash(f) == hash(g)
        l1 = Line(GF(7).one, GF(7).scalar(3), GF(7).zero)
        l2 = Line(other.scalar(2), other.scalar(6), other.zero)
        assert l1 == l2 and hash(l1) == hash(l2)
        assert intersect(l1, Line(other.zero, other.one, other.one)).raw == (3, 6, 1)
        assert ProjectivePoint.affine(GF(7).one, GF(7).one) == ProjectivePoint(
            other.scalar(3), other.scalar(3), other.scalar(3))

    def test_mixed_scalars_are_refused_at_construction(self):
        F5, F7 = GF(5), GF(7)
        with pytest.raises(FieldMismatchError):
            Line(F5.one, F7.one, F5.zero)
        with pytest.raises(FieldMismatchError):
            ProjectivePoint(F5.one, F5.one, F7.one)
        with pytest.raises(FieldMismatchError):
            Quadratic(F5.one, F5.zero, F5.one, F5.zero, F5.zero, Q.one)


class TestRawSqrt:
    PRIMES = [p for p in range(3, 102) if all(p % d for d in range(2, p))]

    @pytest.mark.parametrize("p", PRIMES)
    def test_table_agrees_with_euler_and_the_smallest_root(self, p):
        spec = GF(p)
        for v in range(p):
            root = raw_sqrt(spec, v)
            roots = [r for r in range(p) if r * r % p == v]
            if v == 0:
                assert root == 0
            elif pow(v, (p - 1) // 2, p) == 1:
                assert root == min(roots)
            else:
                assert root is None and not roots
            # Unreduced inputs give the same answer.
            assert raw_sqrt(spec, v + 3 * p) == root == raw_sqrt(spec, v - 5 * p)
            scalar = square_root(spec.scalar(v))
            assert (scalar is None) == (root is None)
            if scalar is not None:
                assert scalar.value == root

    def test_tonelli_shanks_above_the_table(self):
        for p in (103, 10**9 + 7):
            spec = GF(p)
            for v in (2, 3, 5, 16, p - 1, 10**6 + 3):
                root = raw_sqrt(spec, v)
                if pow(v % p, (p - 1) // 2, p) == 1:
                    assert root * root % p == v % p and root <= p // 2
                else:
                    assert root is None

    def test_rationals(self):
        assert raw_sqrt(Q, Fraction(9, 4)) == Fraction(3, 2)
        assert type(raw_sqrt(Q, Fraction(9, 4))) is Fraction
        assert type(raw_sqrt(Q, 4)) is Fraction
        assert raw_sqrt(Q, Fraction(2)) is None
        assert raw_sqrt(Q, Fraction(-1)) is None
        assert raw_sqrt(Q, Fraction(0)) == 0
