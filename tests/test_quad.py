import random

import pytest

from bisectrix.conic import LinePair
from bisectrix.field import GF, rationals
from bisectrix.geometry import Line, Midpoint, ProjectivePoint
from bisectrix.pencil import (
    AsymptoticPencil,
    Pencil,
    TrivialPencilError,
    are_independent,
    nets_equal,
)
from bisectrix.quad import (
    ALL_CONCURRENT,
    ALL_PARALLEL,
    SHARED_LINE,
    TRANSLATION_PAIR,
    QuadrilateralError,
    bisects_quadrilateral,
    pencil_of,
    quadrilateral_of,
    validate,
    vertices,
)
from bisectrix.textforms import parse_quadratic

Q = rationals()
F5 = GF(5)
F7 = GF(7)


def line(u, v, w, spec=Q):
    return Line(spec.scalar(u), spec.scalar(v), spec.scalar(w))


def pair(l1, l2):
    return LinePair(l1, l2)


def quad_text(text, spec=Q):
    return parse_quadratic(spec, text)


AXES = pair(line(1, 0, 0), line(0, 1, 0))
SIDES_PAIR = pair(line(1, 1, -1), line(1, -1, -3))
STANDARD = validate(AXES, SIDES_PAIR)


class TestValidate:
    def test_valid_example(self):
        q = STANDARD
        assert not q.degenerate

    def test_translation_rejected(self):
        with pytest.raises(QuadrilateralError) as err:
            validate(AXES, pair(line(1, 0, -1), line(0, 1, -1)))
        assert err.value.reason == TRANSLATION_PAIR

    def test_concurrent_rejected(self):
        with pytest.raises(QuadrilateralError) as err:
            validate(AXES, pair(line(1, 1, 0), line(1, -1, 0)))
        assert err.value.reason == ALL_CONCURRENT

    def test_shared_line_rejected(self):
        with pytest.raises(QuadrilateralError) as err:
            validate(AXES, pair(line(1, 0, 0), line(1, 1, -1)))
        assert err.value.reason == SHARED_LINE
        # All four sides are parallel too; the shared line is reported.
        with pytest.raises(QuadrilateralError) as err:
            validate(pair(line(1, 0, 0), line(1, 0, -1)), pair(line(1, 0, 0), line(1, 0, -2)))
        assert err.value.reason == SHARED_LINE

    def test_all_parallel_rejected(self):
        with pytest.raises(QuadrilateralError) as err:
            validate(pair(line(1, 0, 0), line(1, 0, -1)),
                     pair(line(1, 0, -2), line(1, 0, -4)))
        assert err.value.reason == ALL_PARALLEL

    def test_degenerate_flag(self):
        q = validate(pair(line(1, 0, 0), line(1, 0, 0)),
                     pair(line(0, 1, 0), line(1, 1, -1)))
        assert q.degenerate

    def test_swapped_pairs_are_equal_and_hash_equal(self):
        swapped = validate(SIDES_PAIR, AXES)
        assert swapped == STANDARD
        assert hash(swapped) == hash(STANDARD)
        assert len({STANDARD, swapped}) == 1


class TestVerticesAndDiagonals:
    def test_vertices(self):
        got = set(vertices(STANDARD))
        want = {
            ProjectivePoint.affine(Q.scalar(0), Q.scalar(1)),
            ProjectivePoint.affine(Q.scalar(0), Q.scalar(-3)),
            ProjectivePoint.affine(Q.scalar(1), Q.scalar(0)),
            ProjectivePoint.affine(Q.scalar(3), Q.scalar(0)),
        }
        assert got == want

    @staticmethod
    def _diagonals(q):
        # The lines joining the opposite vertices 0, 3 and 1, 2.
        v = vertices(q)
        return Line.through(v[0], v[3]), Line.through(v[1], v[2])

    def test_diagonals(self):
        d1, d2 = self._diagonals(STANDARD)
        joins = {
            Line.through(ProjectivePoint.affine(Q.scalar(0), Q.scalar(1)),
                         ProjectivePoint.affine(Q.scalar(3), Q.scalar(0))),
            Line.through(ProjectivePoint.affine(Q.scalar(0), Q.scalar(-3)),
                         ProjectivePoint.affine(Q.scalar(1), Q.scalar(0))),
        }
        assert {d1, d2} == joins

    def test_parallel_sides_give_infinite_vertex(self):
        q = validate(pair(line(1, 0, 0), line(0, 1, 0)),
                     pair(line(1, 0, -1), line(1, 1, -3)))
        assert any(v.is_infinite for v in vertices(q))

    def test_degenerate_quadrilateral_diagonals_are_the_double_side(self):
        # For a valid degenerate quadrilateral the repeated side joins the
        # repeated opposite vertices, so both diagonals coincide with it.
        q = validate(pair(line(1, 0, 0), line(1, 0, 0)),
                     pair(line(0, 1, 0), line(0, 1, -1)))
        d1, d2 = self._diagonals(q)
        assert d1 == line(1, 0, 0) and d2 == line(1, 0, 0)


class TestPencilOf:
    def test_products(self):
        p = pencil_of(STANDARD)
        assert p.f1 == quad_text("x*y")
        assert p.f2 == quad_text("x^2-y^2-4*x-2*y+3")

    def test_basepoints_are_vertices(self):
        p = pencil_of(STANDARD)
        for v in vertices(STANDARD):
            x, y = v.affine_xy()
            for f in (p.f1, p.f2):
                a, b, c, d, e, g = f.coefficients()
                assert (a * x * x + b * x * y + c * y * y + d * x + e * y + g).is_zero

    def test_independence_on_random_quadrilaterals(self):
        from bisectrix.oracle import _rand_quadrilateral

        rng = random.Random(0)
        for _ in range(1000):
            q = _rand_quadrilateral(rng, F7)
            p = pencil_of(q)
            assert are_independent(p.f1, p.f2)


class TestQuadrilateralOf:
    def test_rational_round_trip(self):
        ap = AsymptoticPencil(pencil_of(STANDARD))
        q = quadrilateral_of(ap)
        assert nets_equal(pencil_of(q), ap.pencil)

    def test_trivial_is_rejected(self):
        ap = AsymptoticPencil(Pencil(quad_text("x*y"), quad_text("x^2-y^2")))
        with pytest.raises(TrivialPencilError):
            quadrilateral_of(ap)

    def test_rational_parallel_branch(self):
        # A pencil with a parallel family: generators x(x-4) and xy.
        ap = AsymptoticPencil(Pencil(quad_text("x^2-4*x"), quad_text("x*y")))
        q = quadrilateral_of(ap)
        assert not q.degenerate
        assert nets_equal(pencil_of(q), ap.pencil)

    def test_rational_shared_line_pencil(self):
        # Every hyperbola member of (xy, x(x+y-1)) passes through X = 0, so
        # the crossing pairs alone cannot form a quadrilateral; the parallel
        # family forced by the shared line must be used instead.
        ap = AsymptoticPencil(Pencil(quad_text("x*y"), quad_text("x^2+x*y-x")))
        assert ap.shared_line() is not None
        q = quadrilateral_of(ap)
        assert not q.degenerate
        assert nets_equal(pencil_of(q), ap.pencil)

    def test_finite_random(self):
        from bisectrix.oracle import _rand_nontrivial_ap

        rng = random.Random(1)
        for _ in range(60):
            ap = _rand_nontrivial_ap(rng, F5)
            q = quadrilateral_of(ap)
            assert not q.degenerate
            regenerated = AsymptoticPencil(pencil_of(q))
            assert {p for _, p in regenerated.members()} == \
                   {p for _, p in ap.members()}

    def test_gf3_allows_degenerate(self):
        from bisectrix.oracle import _rand_nontrivial_ap

        F3 = GF(3)
        rng = random.Random(2)
        for _ in range(40):
            ap = _rand_nontrivial_ap(rng, F3)
            q = quadrilateral_of(ap)
            regenerated = AsymptoticPencil(pencil_of(q))
            assert {p for _, p in regenerated.members()} == \
                   {p for _, p in ap.members()}


class TestBisectsQuadrilateral:
    def test_x_axis_member_line(self):
        m = bisects_quadrilateral(line(1, 0, 0), STANDARD)
        assert m == Midpoint.finite(ProjectivePoint.affine(Q.scalar(0), Q.scalar(-1)))

    def test_disagreement(self):
        assert bisects_quadrilateral(line(0, 1, -1), STANDARD) is None

    def test_y0(self):
        m = bisects_quadrilateral(line(0, 1, 0), STANDARD)
        assert m == Midpoint.finite(ProjectivePoint.affine(Q.scalar(2), Q.scalar(0)))

    def test_vacuous(self):
        q = validate(pair(line(1, 0, 0), line(0, 1, 0)),
                     pair(line(0, 1, -1), line(0, 1, -3)))
        m = bisects_quadrilateral(line(0, 1, 0), q)
        assert m is not None and m.is_undetermined
