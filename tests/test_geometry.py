import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bisectrix.field import GF, FieldMismatchError, FieldSpec, rationals
from bisectrix.geometry import (
    AffineMap,
    COINCIDENT,
    GeometryError,
    Line,
    MID_INFINITE,
    Midpoint,
    ProjectivePoint,
    intersect,
    map_line_to_y0,
    midline,
    midpoint_on_line,
)

Q = rationals()
F5 = GF(5)
F7 = GF(7)


def qline(u, v, w, spec=Q):
    return Line(spec.scalar(u), spec.scalar(v), spec.scalar(w))


def qpt(x, y, spec=Q):
    return ProjectivePoint.affine(spec.scalar(x), spec.scalar(y))


X0 = qline(1, 0, 0)
Y0 = qline(0, 1, 0)

small = st.integers(min_value=-6, max_value=6)


class TestProjectivePoint:
    def test_canonical_form(self):
        p = ProjectivePoint(Q.scalar(2), Q.scalar(4), Q.scalar(2))
        assert p == qpt(1, 2)
        inf = ProjectivePoint(Q.scalar(3), Q.scalar(6), Q.scalar(0))
        assert inf.is_infinite
        assert inf == ProjectivePoint.at_infinity(Q.scalar(1), Q.scalar(2))

    def test_affine_xy_of_infinite_point_fails(self):
        with pytest.raises(GeometryError):
            ProjectivePoint.at_infinity(Q.scalar(1), Q.scalar(0)).affine_xy()


class TestUnitNormalizer:
    """Already-canonical inputs skip the scaling and give the same objects."""

    @pytest.mark.parametrize("spec", [F7, Q], ids=["F7", "Q"])
    def test_line_from_scaled_copy(self, spec):
        for u, v, w in ((1, 0, 2), (1, 3, -1), (0, 1, 4), (1, 0, 0)):
            unit = qline(u, v, w, spec)
            assert (unit.u, unit.v, unit.w) == tuple(spec.scalar(c) for c in (u, v, w))
            for k in (2, -3, 5):
                scaled = qline(k * u, k * v, k * w, spec)
                assert scaled == unit and hash(scaled) == hash(unit)

    @pytest.mark.parametrize("spec", [F7, Q], ids=["F7", "Q"])
    def test_point_from_scaled_copy(self, spec):
        for x, y, z in ((2, -1, 1), (0, 0, 1), (3, 1, 0), (1, 0, 0)):
            unit = ProjectivePoint(*(spec.scalar(c) for c in (x, y, z)))
            assert (unit.x, unit.y, unit.z) == tuple(spec.scalar(c) for c in (x, y, z))
            for k in (2, -3, 5):
                scaled = ProjectivePoint(*(spec.scalar(k * c) for c in (x, y, z)))
                assert scaled == unit and hash(scaled) == hash(unit)

    def test_rational_scaling_keeps_fractions(self):
        half = Q.scalar(Fraction(1, 2))
        p = ProjectivePoint(half, Q.scalar(3), Q.scalar(Fraction(3, 2)))
        assert p == qpt(Fraction(1, 3), 2)
        assert qline(Fraction(2, 3), 1, Fraction(-4, 3)) == qline(1, Fraction(3, 2), -2)


class TestIntersect:
    def test_affine_crossing(self):
        assert intersect(X0, Y0) == qpt(0, 0)

    def test_parallel_lines_meet_at_infinity(self):
        p = intersect(X0, qline(1, 0, -1))
        assert p == ProjectivePoint.at_infinity(Q.scalar(0), Q.scalar(1))

    def test_identical_lines_are_coincident(self):
        assert intersect(X0, qline(2, 0, 0)) is COINCIDENT


class TestMidpoints:
    def test_two_affine_points(self):
        m = midpoint_on_line(qpt(1, 0), qpt(3, 0), Y0)
        assert m == Midpoint.finite(qpt(2, 0))

    def test_one_point_at_infinity(self):
        inf = ProjectivePoint.at_infinity(Q.scalar(0), Q.scalar(1))
        m = midpoint_on_line(qpt(0, 1), inf, X0)
        assert m == MID_INFINITE

    def test_gf5_halving(self):
        # halve(3) = 4 over GF(5), because 2 * 4 = 8 = 3.
        assert (F5.scalar(4) + F5.scalar(4)).value == 3
        diag = qline(1, -1, 0, F5)
        m = midpoint_on_line(qpt(1, 1, F5), qpt(2, 2, F5), diag)
        assert m == Midpoint.finite(qpt(4, 4, F5))

    def test_point_off_the_line_is_rejected(self):
        with pytest.raises(GeometryError):
            midpoint_on_line(qpt(1, 1), qpt(3, 0), Y0)

    def test_symmetry(self):
        a, b = qpt(1, 2), qpt(5, -4)
        line = Line.through(a, b)
        assert midpoint_on_line(a, b, line) == midpoint_on_line(b, a, line)


class TestAffineMap:
    def test_compose_and_inverse(self):
        shear = AffineMap(Q.scalar(1), Q.scalar(2), Q.scalar(0), Q.scalar(1),
                          Q.scalar(3), Q.scalar(-1))
        other = AffineMap(Q.scalar(0), Q.scalar(1), Q.scalar(1), Q.scalar(0),
                          Q.scalar(5), Q.scalar(7))
        composed = shear.compose(other)
        p = qpt(2, -3)
        assert composed.apply(p) == shear.apply(other.apply(p))
        assert shear.compose(shear.inverse()) == AffineMap.identity(Q)

    def test_singular_rejected(self):
        with pytest.raises(GeometryError):
            AffineMap.linear(Q.scalar(1), Q.scalar(2), Q.scalar(2), Q.scalar(4))

    def test_pull_line(self):
        shift = AffineMap.translation(Q.scalar(0), Q.scalar(1))
        # Preimage of Y=0 under (x, y) -> (x, y+1) is Y = -1.
        assert shift.pull_line(Y0) == qline(0, 1, 1)
        # The image of a line is its preimage under the inverse.
        assert shift.inverse().pull_line(qline(0, 1, 1)) == Y0


class TestMapLineToY0:
    @pytest.mark.parametrize("coeffs", [(0, 1, 0), (1, 0, 0), (1, 1, -1),
                                        (2, -3, 5), (1, 0, -4)])
    def test_image_is_y0(self, coeffs):
        line = qline(*coeffs)
        mapping = map_line_to_y0(line)
        # Two sample points of the line land on Y = 0.
        for t in (Q.scalar(0), Q.scalar(1)):
            image = mapping.apply(line.point_at(t))
            assert image.y.is_zero and not image.is_infinite
        assert mapping.pull_line(Y0) == line

    def test_gf5_line(self):
        line = qline(1, 2, 3, F5)
        mapping = map_line_to_y0(line)
        assert mapping.pull_line(Line(F5.scalar(0), F5.scalar(1), F5.scalar(0))) == line


class TestMidline:
    def test_examples(self):
        assert midline(qline(1, 0, -1), qline(1, 0, -3)) == qline(1, 0, -2)
        same = qline(2, 3, 4)
        assert midline(same, same) == same

    def test_gf5_example(self):
        # Midpoint of offsets 0 and 1 is halve(1) = 3, the line X - 3 = 0.
        m = midline(qline(1, 0, 0, F5), qline(1, 0, -1, F5))
        assert m == qline(1, 0, -3, F5)
        assert m == qline(1, 0, 2, F5)

    def test_requires_parallel(self):
        with pytest.raises(GeometryError):
            midline(X0, Y0)

    @given(w1=small, w2=small, t=small)
    @settings(deadline=None)
    def test_reflection_swaps_the_lines(self, w1, w2, t):
        l1, l2 = qline(1, 2, w1), qline(1, 2, w2)
        m = midline(l1, l2)
        assert m == midline(l2, l1)
        px, py, _ = l1.point_at(Q.scalar(t)).raw
        for s in (Q.scalar(0), Q.scalar(1), Q.scalar(-3)):
            # The point reflection of p through m is 2m - p.
            mx, my, _ = m.point_at(s).raw
            assert l2.contains(qpt(2 * mx - px, 2 * my - py))


def test_line_through_points():
    assert Line.through(qpt(0, 1), qpt(3, 0)) == qline(1, 3, -3)
    with pytest.raises(GeometryError):
        Line.through(qpt(1, 1), qpt(1, 1))
    inf1 = ProjectivePoint.at_infinity(Q.scalar(1), Q.scalar(0))
    inf2 = ProjectivePoint.at_infinity(Q.scalar(0), Q.scalar(1))
    with pytest.raises(GeometryError):
        Line.through(inf1, inf2)


def test_line_parameterization_round_trip():
    for coeffs in ((1, 2, 3), (0, 1, -2), (1, 0, 5)):
        line = qline(*coeffs)
        for t in (0, 1, -2):
            p = line.point_at(Q.scalar(t))
            assert line.contains(p)
            assert line.param_of(p).value == t
    assert X0.contains(ProjectivePoint.at_infinity(Q.scalar(0), Q.scalar(1)))


# --- value-level kernels against Scalar-expression forms ---------------------

KERNEL_FIELDS = [GF(3), F5, F7, GF(10**9 + 7), Q]
KERNEL_IDS = ["F3", "F5", "F7", "Fbig", "Q"]


def _value(rng, spec):
    if spec.p is None:
        return spec.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    return spec.scalar(rng.randrange(spec.p))


def _canonical_triple(x, y, z):
    """Scale so the last nonzero coordinate is 1, by Scalar division."""
    for k in (z, y, x):
        if not k.is_zero:
            return (x / k, y / k, z / k)
    raise AssertionError("zero triple")


def _assert_canonical_values(spec, *scalars):
    for s in scalars:
        assert s.spec == spec
        if spec.p is None:
            assert isinstance(s.value, Fraction), s
        else:
            assert isinstance(s.value, int) and 0 <= s.value < spec.p, s


class TestValueKernels:
    """Each kernel computed on values agrees with its Scalar-expression form."""

    @pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=KERNEL_IDS)
    def test_constructors_normalize(self, spec):
        rng = random.Random(51)
        for _ in range(80):
            u, v, w = (_value(rng, spec) for _ in range(3))
            if u or v:
                l = Line(u, v, w)
                k = u if u else v
                assert (l.u, l.v, l.w) == (u / k, v / k, w / k)
                _assert_canonical_values(spec, l.u, l.v, l.w)
            if u or v or w:
                p = ProjectivePoint(u, v, w)
                assert (p.x, p.y, p.z) == _canonical_triple(u, v, w)
                _assert_canonical_values(spec, p.x, p.y, p.z)

    @pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=KERNEL_IDS)
    def test_intersect(self, spec):
        rng = random.Random(52)
        seen = set()
        for i in range(80):
            l1 = Line(_value(rng, spec) or spec.one, _value(rng, spec), _value(rng, spec))
            # Every fourth pair is parallel, every eighth coincident.
            if i % 4 == 0:
                w = l1.w if i % 8 == 0 else _value(rng, spec)
                l2 = Line(l1.u, l1.v, w)
            else:
                l2 = Line(_value(rng, spec), spec.one, _value(rng, spec))
            x = l1.v * l2.w - l2.v * l1.w
            y = l1.w * l2.u - l2.w * l1.u
            z = l1.u * l2.v - l2.u * l1.v
            got = intersect(l1, l2)
            if x.is_zero and y.is_zero and z.is_zero:
                assert got is COINCIDENT
                seen.add("coincident")
                continue
            assert (got.x, got.y, got.z) == _canonical_triple(x, y, z)
            assert l1.contains(got) and l2.contains(got)
            _assert_canonical_values(spec, got.x, got.y, got.z)
            seen.add("infinite" if got.is_infinite else "affine")
        assert seen == {"coincident", "infinite", "affine"}

    @pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=KERNEL_IDS)
    def test_parameterization_point_at_contains(self, spec):
        rng = random.Random(53)
        for i in range(80):
            u = spec.one if i % 3 == 0 else _value(rng, spec)
            v = spec.zero if i % 3 == 0 else _value(rng, spec) or spec.one
            l = Line(u, v, _value(rng, spec))
            zero = spec.zero
            base = (zero, -l.w / l.v) if l.v else (-l.w / l.u, zero)
            direction = (-l.v, l.u)
            t = _value(rng, spec)
            p = l.point_at(t)
            assert (p.x, p.y, p.z) == (base[0] + t * direction[0],
                                       base[1] + t * direction[1], spec.one)
            assert l.contains(p) and l.param_of(p) == t
            q = ProjectivePoint(_value(rng, spec), _value(rng, spec), spec.one)
            assert l.contains(q) == (l.u * q.x + l.v * q.y + l.w * q.z).is_zero
            assert l.contains(ProjectivePoint.at_infinity(*direction))
            _assert_canonical_values(spec, *base, *direction, p.x, p.y, l.param_of(p))


class TestMixedFields:
    @pytest.mark.parametrize("spec_a,spec_b", [(F5, F7), (F7, F5), (Q, F7), (F7, Q)],
                             ids=["F5-F7", "F7-F5", "Q-F7", "F7-Q"])
    def test_intersect_refuses_mixed_fields(self, spec_a, spec_b):
        with pytest.raises(FieldMismatchError):
            intersect(qline(1, 2, 3, spec_a), qline(2, 1, 3, spec_b))

    def test_equal_spec_that_is_another_object(self):
        other = FieldSpec(7)
        assert other is not F7 and other == F7
        got = intersect(qline(1, 2, 3, other), qline(2, 1, 3, F7))
        assert got == intersect(qline(1, 2, 3, F7), qline(2, 1, 3, F7))
        assert qline(1, 2, 3, other).contains(got)


def _random_map(rng, spec):
    """Six random entries with an invertible matrix, as Scalars."""
    while True:
        m = [_value(rng, spec) for _ in range(6)]
        if not (m[0] * m[3] - m[1] * m[2]).is_zero:
            return m


def _scalar_compose(m, n):
    """The entries of m after n, by Scalar arithmetic."""
    m11, m12, m21, m22, t1, t2 = m
    n11, n12, n21, n22, s1, s2 = n
    return [m11 * n11 + m12 * n21, m11 * n12 + m12 * n22,
            m21 * n11 + m22 * n21, m21 * n12 + m22 * n22,
            m11 * s1 + m12 * s2 + t1, m21 * s1 + m22 * s2 + t2]


def _scalar_inverse(m):
    m11, m12, m21, m22, t1, t2 = m
    det = m11 * m22 - m12 * m21
    n11, n12, n21, n22 = m22 / det, -m12 / det, -m21 / det, m11 / det
    return [n11, n12, n21, n22, -(n11 * t1 + n12 * t2), -(n21 * t1 + n22 * t2)]


def _scalar_pullback(m, f):
    """The coefficients of f(m(x, y)), expanded by Scalar arithmetic."""
    m11, m12, m21, m22, t1, t2 = m
    a, b, c, d, e, g = f.coefficients()
    return [a * m11 * m11 + b * m11 * m21 + c * m21 * m21,
            2 * a * m11 * m12 + b * (m11 * m22 + m12 * m21) + 2 * c * m21 * m22,
            a * m12 * m12 + b * m12 * m22 + c * m22 * m22,
            2 * a * m11 * t1 + b * (m11 * t2 + m21 * t1) + 2 * c * m21 * t2
            + d * m11 + e * m21,
            2 * a * m12 * t1 + b * (m12 * t2 + m22 * t1) + 2 * c * m22 * t2
            + d * m12 + e * m22,
            a * t1 * t1 + b * t1 * t2 + c * t2 * t2 + d * t1 + e * t2 + g]


def _entries(m):
    return [m.m11, m.m12, m.m21, m.m22, m.t1, m.t2]


AFFINE_FIELDS = [GF(3), F7, GF(10**9 + 7), Q]
AFFINE_IDS = ["F3", "F7", "Fbig", "Q"]


class TestAffineMapValues:
    """AffineMap on raw values agrees with its Scalar-expression form."""

    @pytest.mark.parametrize("spec", AFFINE_FIELDS, ids=AFFINE_IDS)
    def test_compose_inverse_apply_pull_line(self, spec):
        rng = random.Random(61)
        for _ in range(60):
            m, n = _random_map(rng, spec), _random_map(rng, spec)
            g, h = AffineMap(*m), AffineMap(*n)
            assert _entries(g) == m
            assert _entries(g.compose(h)) == _scalar_compose(m, n)
            assert _entries(g.inverse()) == _scalar_inverse(m)
            assert g.determinant() == m[0] * m[3] - m[1] * m[2]
            x, y, z = (_value(rng, spec) for _ in range(3))
            if x or y or z:
                got = g.apply(ProjectivePoint(x, y, z))
                want = ProjectivePoint(m[0] * x + m[1] * y + m[4] * z,
                                       m[2] * x + m[3] * y + m[5] * z, z)
                assert got == want
            u, v, w = (_value(rng, spec) for _ in range(3))
            if u or v:
                want = Line(u * m[0] + v * m[2], u * m[1] + v * m[3],
                            u * m[4] + v * m[5] + w)
                assert g.pull_line(Line(u, v, w)) == want
            for result in (g, g.compose(h), g.inverse(), AffineMap.identity(spec),
                           map_line_to_y0(Line(u or spec.one, v, w))):
                _assert_canonical_values(spec, *_entries(result))

    @pytest.mark.parametrize("spec", AFFINE_FIELDS, ids=AFFINE_IDS)
    def test_pullback(self, spec):
        from bisectrix.conic import ConicError, Quadratic, pullback

        rng = random.Random(62)
        checked = 0
        while checked < 40:
            m = _random_map(rng, spec)
            try:
                f = Quadratic(*(_value(rng, spec) for _ in range(6)))
            except ConicError:
                continue
            assert list(pullback(AffineMap(*m), f).coefficients()) == _scalar_pullback(m, f)
            checked += 1

    def test_rational_raw_values_are_fractions(self):
        rng = random.Random(63)
        m = _random_map(rng, Q)
        g = AffineMap(*m)
        for result in (g, g.inverse(), g.compose(g), AffineMap.identity(Q),
                       AffineMap.translation(Q.scalar(2), Q.scalar(-1)),
                       map_line_to_y0(qline(2, 3, 5)), map_line_to_y0(qline(1, 0, 4))):
            assert all(isinstance(x, Fraction) for x in result.raw), result

    @pytest.mark.parametrize("spec", AFFINE_FIELDS, ids=AFFINE_IDS)
    def test_equal_maps_hash_equal(self, spec):
        rng = random.Random(64)
        g = AffineMap(*_random_map(rng, spec))
        identity = g.compose(g.inverse())
        assert identity == AffineMap.identity(spec) == g.inverse().compose(g)
        assert hash(identity) == hash(AffineMap.identity(spec))
        twice = g.inverse().inverse()
        assert twice == g and hash(twice) == hash(g) and twice is not g
        assert len({g, twice, identity, AffineMap.identity(spec)}) == 2

    def test_mixed_fields_raise(self):
        from bisectrix.conic import Quadratic, pullback

        g5 = AffineMap.translation(F5.one, F5.zero)
        g7 = AffineMap.translation(F7.one, F7.zero)
        f7 = Quadratic(F7.one, F7.zero, F7.one, F7.zero, F7.zero, F7.zero)
        for call in (lambda: g5 == g7, lambda: g5.compose(g7), lambda: g7.compose(g5),
                     lambda: g5.apply(qpt(1, 2, F7)), lambda: g5.pull_line(qline(1, 2, 3, F7)),
                     lambda: pullback(g5, f7),
                     lambda: AffineMap(F5.one, F5.zero, F5.zero, F5.one, F7.one, F5.zero)):
            with pytest.raises(FieldMismatchError):
                call()
        other = FieldSpec(7)
        assert AffineMap.translation(other.one, other.zero) == g7

    def test_singular_matrix_refused_on_raw_values(self):
        from bisectrix.geometry import _affine_map

        with pytest.raises(GeometryError):
            _affine_map(Q, 1, 2, 2, 4, 0, 0)
        with pytest.raises(GeometryError):
            _affine_map(F5, 1, 2, 3, 1, 0, 0)  # det = -5, unreduced
        with pytest.raises(GeometryError):
            _affine_map(F7, 0, 0, 0, 0, 1, 1)
        assert _affine_map(F5, 6, 0, 0, -4, 5, 11).raw == (1, 0, 0, 1, 0, 1)
