from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bisectrix.field import GF, rationals
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
    reflect_through,
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


class TestReflect:
    def test_examples(self):
        assert reflect_through(qpt(0, 0), qpt(1, 2)) == qpt(-1, -2)
        assert reflect_through(qpt(1, 1), qpt(1, 1)) == qpt(1, 1)
        assert reflect_through(qpt(1, 0), qpt(3, 4)) == qpt(-1, -4)

    @given(mx=small, my=small, px=small, py=small)
    @settings(deadline=None)
    def test_involution(self, mx, my, px, py):
        m, p = qpt(mx, my), qpt(px, py)
        assert reflect_through(m, reflect_through(m, p)) == p


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
        assert shift.apply_line(qline(0, 1, 1)) == Y0


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
        p = l1.point_at(Q.scalar(t))
        for s in (Q.scalar(0), Q.scalar(1), Q.scalar(-3)):
            reflected = reflect_through(m.point_at(s), p)
            assert l2.contains(reflected)


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
    assert X0.infinity_point() == ProjectivePoint.at_infinity(Q.scalar(0), Q.scalar(1))
