import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bisectrix.conic import (
    CROSSES_AT_INFINITY,
    CROSSING,
    DEGEN_FAMILY,
    DEGEN_NONE,
    DEGEN_UNIQUE,
    DOUBLE,
    ELLIPSE,
    HYPERBOLA,
    PARABOLA,
    ConicError,
    LinePair,
    MidResult,
    Quadratic,
    _form_roots,
    _has_root,
    center,
    classify,
    degenerations,
    is_reducible,
    meets,
    mid,
    pairs_are_translates,
    points_at_infinity,
    pullback,
    restrict_to_line,
)
from bisectrix.field import GF, rationals, raw_is_zero, raw_sqrt, square_root
from bisectrix.geometry import AffineMap, Line, Midpoint, ProjectivePoint
from bisectrix.textforms import parse_quadratic

Q = rationals()
F3 = GF(3)
F5 = GF(5)
F7 = GF(7)


def quad(text, spec=Q):
    return parse_quadratic(spec, text)


def line(u, v, w, spec=Q):
    return Line(spec.scalar(u), spec.scalar(v), spec.scalar(w))


def pt_inf(x, y, spec=Q):
    return ProjectivePoint.at_infinity(spec.scalar(x), spec.scalar(y))


XY = quad("x*y")
XY1 = quad("x*y-1")
CROSS = quad("x^2-y^2")
SIDES = quad("x^2-y^2-4*x-2*y+3")  # (x+y-1)(x-y-3) expanded


def test_quadratic_requires_degree_two():
    with pytest.raises(ConicError):
        Quadratic(*(Q.scalar(v) for v in (0, 0, 0, 1, 1, 1)))


class TestPointsAtInfinity:
    def test_two_points(self):
        assert points_at_infinity(XY1) == sorted(
            [pt_inf(1, 0), pt_inf(0, 1)], key=ProjectivePoint.sort_key
        )

    def test_double_direction(self):
        assert points_at_infinity(quad("x^2-y")) == [pt_inf(0, 1)]

    def test_circle_splits_mod_5(self):
        # Oracle: (x+2y)(x-2y) = x^2 - 4y^2 = x^2 + y^2 mod 5, so the circle
        # has the two directions [2:1] and [-2:1] = [3:1].
        pts = points_at_infinity(quad("x^2+y^2-1", F5))
        assert set(pts) == {pt_inf(2, 1, F5), pt_inf(3, 1, F5)}


class TestFormRoots:
    """The one solver of binary quadratic forms against a scan of the p + 1 points."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_every_form_against_the_projective_line(self, p):
        spec = GF(p)
        line_points = [(1, 0)] + [(x, 1) for x in range(p)]
        for A in range(p):
            for B in range(p):
                for C in range(p):
                    if not (A or B or C):
                        continue
                    scan = [(x, y) for x, y in line_points
                            if (A * x * x + B * x * y + C * y * y) % p == 0]
                    roots = [(x % p, y % p) for x, y in _form_roots(spec, A, B, C)]
                    assert sorted(roots) == sorted(scan), (A, B, C)
                    assert len(set(roots)) == len(roots), (A, B, C)
                    assert _has_root(spec, A, B, C) == bool(scan), (A, B, C)
                    # [1 : 0] first, then (r - B)/2A before -(B + r)/2A.
                    if A == 0:
                        assert roots[0] == (1, 0), (A, B, C)
                    elif roots:
                        r = raw_sqrt(spec, B * B - 4 * A * C)
                        assert (2 * A * roots[0][0] + B) % p == r, (A, B, C)

    def test_rationals(self):
        one = Fraction(1)
        assert _form_roots(Q, one, Fraction(0), Fraction(-2)) == []
        assert not _has_root(Q, one, Fraction(0), Fraction(-2))
        assert _form_roots(Q, one, Fraction(0), -one) == [(1, 1), (-1, 1)]
        assert _form_roots(Q, Fraction(0), Fraction(0), Fraction(3)) == [(1, 0)]
        assert _has_root(Q, Fraction(0), Fraction(0), Fraction(3))


class TestClassify:
    def test_examples(self):
        assert classify(XY1).kind == HYPERBOLA and not classify(XY1).degenerate
        circle = quad("x^2+y^2-1")
        assert classify(circle).kind == ELLIPSE and not circle.det3().is_zero
        assert classify(quad("x^2+y^2-1", F5)).kind == HYPERBOLA

    def test_degenerate_flags(self):
        assert classify(CROSS) == classify(XY).__class__(HYPERBOLA, True)
        assert classify(quad("x^2+y^2")).kind == ELLIPSE
        assert classify(quad("x^2+y^2")).degenerate  # point ellipse, det3 = 0
        assert classify(quad("x^2-2")).kind == PARABOLA
        assert not classify(quad("x^2-2")).degenerate  # irreducible over Q

    def test_partition_exhaustive_gf3(self):
        # Every coefficient tuple classifies into exactly one of the three
        # kinds, decided by its direction count.
        values = [F3.scalar(v) for v in range(3)]
        n = 0
        for a in values:
            for b in values:
                for c in values:
                    if a.is_zero and b.is_zero and c.is_zero:
                        continue
                    for d in values:
                        f = Quadratic(a, b, c, d, values[1], values[0])
                        kinds = {0: ELLIPSE, 1: PARABOLA, 2: HYPERBOLA}
                        npts = len(points_at_infinity(f))
                        assert classify(f).kind == kinds[npts]
                        n += 1
        assert n == 26 * 3


class TestAffineInvariance:
    MAPS = [
        lambda spec: AffineMap.identity(spec),
        lambda spec: AffineMap.translation(spec.scalar(1), spec.scalar(2)),
        lambda spec: AffineMap.linear(spec.scalar(0), spec.scalar(1),
                                      spec.scalar(1), spec.scalar(0)),
        lambda spec: AffineMap(spec.scalar(1), spec.scalar(1), spec.scalar(0),
                               spec.scalar(1), spec.scalar(2), spec.scalar(0)),
    ]

    def test_exhaustive_gf3(self):
        from bisectrix.oracle import enumerate_quadratics

        maps = [build(F3) for build in self.MAPS]
        for f in enumerate_quadratics(F3):
            expect = classify(f)
            for m in maps:
                assert classify(pullback(m, f)) == expect

    @given(coeffs=st.lists(st.integers(-5, 5), min_size=6, max_size=6))
    @settings(deadline=None, max_examples=60)
    def test_randomized_rationals(self, coeffs):
        if coeffs[0] == 0 and coeffs[1] == 0 and coeffs[2] == 0:
            coeffs[0] = 1
        f = Quadratic.from_ints(Q, coeffs)
        for build in self.MAPS:
            assert classify(pullback(build(Q), f)) == classify(f)


class TestPullback:
    def test_shift_example(self):
        shift = AffineMap.translation(Q.scalar(0), Q.scalar(1))
        assert pullback(shift, XY) == quad("x*y+x")

    def test_identity(self):
        assert pullback(AffineMap.identity(Q), SIDES) == SIDES

    def test_swap(self):
        swap = AffineMap.linear(Q.scalar(0), Q.scalar(1), Q.scalar(1), Q.scalar(0))
        assert pullback(swap, quad("x^2+y")) == quad("y^2+x")

    @given(coeffs=st.lists(st.integers(-4, 4), min_size=6, max_size=6))
    @settings(deadline=None, max_examples=40)
    def test_composition_law(self, coeffs):
        if coeffs[0] == 0 and coeffs[1] == 0 and coeffs[2] == 0:
            coeffs[2] = 2
        f = Quadratic.from_ints(Q, coeffs)
        m1 = AffineMap(Q.scalar(1), Q.scalar(2), Q.scalar(1), Q.scalar(3),
                       Q.scalar(-1), Q.scalar(4))
        m2 = AffineMap(Q.scalar(0), Q.scalar(1), Q.scalar(-1), Q.scalar(1),
                       Q.scalar(2), Q.scalar(0))
        assert pullback(m1.compose(m2), f) == pullback(m2, pullback(m1, f))


class TestReducibility:
    def test_xy_plus_constant_is_irreducible(self):
        assert is_reducible(XY1) is None
        assert is_reducible(XY) is not None

    def test_crossing_pair(self):
        pair = is_reducible(CROSS)
        assert pair.kind == CROSSING
        assert pair.line_set() == {line(1, -1, 0), line(1, 1, 0)}
        assert pair.center == ProjectivePoint.affine(Q.scalar(0), Q.scalar(0))

    def test_double_line_mod_5(self):
        # Oracle: 4*(x^2+xy-y^2) = 4x^2+4xy+y^2 = (2x+y)^2 mod 5.
        f = quad("x^2+x*y-y^2", F5)
        lhs = f.scale(F5.scalar(4))
        sq = quad("4*x^2+4*x*y+y^2", F5)
        assert lhs == sq
        pair = is_reducible(f)
        assert pair.kind == DOUBLE and pair.first == line(1, 3, 0, F5)

    def test_x_squared_minus_two_is_irreducible_over_q(self):
        assert is_reducible(quad("x^2-2")) is None
        assert quad("x^2-2").det3().is_zero

    def test_round_trip_exhaustive_gf5(self):
        # For every line pair over GF(5), factoring the product recovers it.
        from bisectrix.oracle import enumerate_line_pairs

        for pair in enumerate_line_pairs(F5):
            again = is_reducible(pair.product())
            assert again == pair

    def test_negative_side_against_table_gf5(self):
        # Any quadratic not among the canonical pair products is irreducible.
        from bisectrix.oracle import enumerate_quadratics, reducible_table

        table = reducible_table(F5)
        rng = random.Random(1)
        pool = enumerate_quadratics(F5)
        for f in rng.sample(pool, 400):
            got = is_reducible(f)
            expect = table.get(f.canonical().key())
            assert got == expect


class TestCenter:
    def test_examples(self):
        origin = ProjectivePoint.affine(Q.scalar(0), Q.scalar(0))
        assert center(XY1) == origin
        assert center(quad("x*y-2*x-y+2")) == ProjectivePoint.affine(
            Q.scalar(1), Q.scalar(2)
        )  # (x-1)(y-2)
        assert center(SIDES) == ProjectivePoint.affine(Q.scalar(2), Q.scalar(-1))

    def test_rejects_non_hyperbola(self):
        with pytest.raises(ConicError):
            center(quad("x^2-y"))


def _has_center(f):
    try:
        center(f)
    except ConicError:
        return False
    return True


class TestDiscriminantRule:
    """The kind, the points at infinity and the center agree on every form.

    ``classify`` and ``center`` read the count of points at infinity off
    b^2 - 4ac; ``points_at_infinity`` solves for the points themselves.
    """

    @staticmethod
    def _assert_agree(f):
        kind = classify(f).kind
        assert kind == (ELLIPSE, PARABOLA, HYPERBOLA)[len(points_at_infinity(f))], f
        assert _has_center(f) == (kind == HYPERBOLA), f

    @pytest.mark.parametrize("spec", [F3, F5], ids=["F3", "F5"])
    def test_every_class(self, spec):
        from bisectrix.oracle import quadratic_keys

        for key in quadratic_keys(spec):
            self._assert_agree(Quadratic.from_ints(spec, key))

    @pytest.mark.parametrize("text, kind", [
        ("x*y+1", HYPERBOLA),    # a = 0
        ("y^2+x", PARABOLA),     # a = b = 0
        ("x^2-2*y^2", ELLIPSE),  # b^2 - 4ac = 8 is not a square over Q
    ])
    def test_rationals(self, text, kind):
        f = quad(text)
        self._assert_agree(f)
        assert classify(f).kind == kind


class TestDegenerations:
    def test_hyperbola_unique(self):
        d = degenerations(XY1)
        assert d.kind == DEGEN_UNIQUE
        assert d.shift.value == 1
        assert d.pair.line_set() == {line(1, 0, 0), line(0, 1, 0)}
        # The degeneration differs from the input by exactly a constant and
        # shares its center.
        g = XY1.add_constant(d.shift)
        assert d.pair.product().same_up_to_scalar(g)
        assert d.pair.center == center(XY1)

    def test_parallel_family(self):
        d = degenerations(quad("x^2-4*x"))  # x(x-4)
        assert d.kind == DEGEN_FAMILY
        assert d.family.midline == line(1, 0, -2)
        sample = d.family.pair_at(Q.scalar(1))
        assert sample.line_set() == {line(1, 0, -1), line(1, 0, -3)}
        # Exact degeneration: f - quadratic_at(r) is a constant.
        g = d.family.quadratic_at(Q.scalar(1))
        diff = [x - y for x, y in
                zip(quad("x^2-4*x").coefficients(), g.coefficients())]
        assert all(v.is_zero for v in diff[:5])

    def test_nondegenerate_parabola_has_none(self):
        assert degenerations(quad("x^2-y")).kind == DEGEN_NONE

    def test_ellipse_has_none(self):
        assert degenerations(quad("x^2+y^2-1")).kind == DEGEN_NONE
        assert degenerations(quad("x^2+y^2+1")).kind == DEGEN_NONE

    def test_rank_two_irreducible_parabola_gets_a_family(self):
        # x^2 - 2 is irreducible over GF(5) (2 is a non-residue) but its
        # constant shifts include (x-1)(x+1); all of them share midline x=0.
        f = quad("x^2-2", F5)
        assert is_reducible(f) is None
        d = degenerations(f)
        assert d.kind == DEGEN_FAMILY
        assert d.family.midline == line(1, 0, 0, F5)
        shifted = is_reducible(f.add_constant(F5.scalar(1)))
        assert shifted is not None and shifted.midline == line(1, 0, 0, F5)


def _mid_by_zero_scan(f, l, spec):
    """Independent midpoint oracle over GF(p): scan the line's points.

    Classifies by the affine zero count on the line, the at-infinity
    incidence of the direction, and the component test, sharing only field
    arithmetic with the production path.
    """
    zeros = []
    values = []
    for t in spec.elements():
        p = l.point_at(t)
        x, y = p.affine_xy()
        v = _value_at(f, x, y)
        values.append(v)
        if v.is_zero:
            zeros.append(p)
    lu, lv, _ = l.raw  # the line's direction is [-v : u]
    direction_on_conic = raw_is_zero(spec, _form_at(f, -lv, lu))
    if all(v.is_zero for v in values):
        return "meets-no-cross", None
    if len(zeros) == 2:
        from bisectrix.geometry import midpoint_of_points
        return "crosses", midpoint_of_points(zeros[0], zeros[1])
    if len(zeros) == 1:
        if direction_on_conic:
            from bisectrix.geometry import MID_INFINITE
            return "crosses", MID_INFINITE
        return "crosses", Midpoint.finite(zeros[0])  # tangency
    return ("meets-no-cross" if direction_on_conic else "no-meet"), None


def _value_at(f, x, y):
    """f(x, y) on the raw coefficients of f and the values of x and y."""
    a, b, c, d, e, g = f.raw
    x, y = x.value, y.value
    return f.spec.scalar(a * x * x + b * x * y + c * y * y + d * x + e * y + g)


def _apply_xy(m, x, y):
    """m(x, y) on the raw entries of the affine map and the values of x and y."""
    m11, m12, m21, m22, t1, t2 = m.raw
    x, y = x.value, y.value
    return m.spec.scalar(m11 * x + m12 * y + t1), m.spec.scalar(m21 * x + m22 * y + t2)


def _form_at(f, x, y):
    """a x^2 + b xy + c y^2 on the raw coefficients of f at raw x and y, unreduced."""
    a, b, c = f.raw[:3]
    return a * x * x + b * x * y + c * y * y


class TestMid:
    def test_two_affine_crossings(self):
        r = mid(SIDES, line(1, 0, 0))
        assert r.crosses
        assert r.midpoint == Midpoint.finite(
            ProjectivePoint.affine(Q.scalar(0), Q.scalar(-1))
        )

    def test_one_affine_one_infinite(self):
        r = mid(XY, line(0, 1, -1))
        assert r.crosses and r.midpoint.is_infinite

    def test_infinite_crossings_share_one_record(self):
        from bisectrix.oracle import enumerate_lines, enumerate_quadratics

        lines = enumerate_lines(F5)
        found = [r for f in enumerate_quadratics(F5)[:200] for l in lines
                 if (r := mid(f, l)).crosses and r.midpoint.is_infinite]
        assert found and all(r is CROSSES_AT_INFINITY for r in found)
        assert CROSSES_AT_INFINITY == MidResult("crosses", Midpoint(Midpoint.INFINITE))

    def test_component(self):
        assert not mid(XY, line(1, 0, 0)).crosses
        assert mid(XY, line(1, 0, 0)).kind == "meets-no-cross"

    def test_no_meet(self):
        assert mid(quad("x^2+y^2+1"), line(0, 1, 0)).kind == "no-meet"

    def test_tangency_uses_the_double_root(self):
        # The sum-of-roots convention: a tangent line crosses with the
        # tangency point as midpoint (two coincident crossing points).
        r = mid(quad("x^2+y^2-1"), line(0, 1, -1))
        assert r.crosses
        assert r.midpoint == Midpoint.finite(
            ProjectivePoint.affine(Q.scalar(0), Q.scalar(1))
        )

    def test_against_zero_scan_oracle_gf5(self):
        from bisectrix.oracle import enumerate_lines, enumerate_quadratics

        rng = random.Random(3)
        lines = enumerate_lines(F5)
        for f in rng.sample(enumerate_quadratics(F5), 60):
            for l in lines:
                kind, midpoint = _mid_by_zero_scan(f, l, F5)
                got = mid(f, l)
                assert got.kind == kind
                if midpoint is not None:
                    assert got.midpoint == midpoint

    def test_crossing_points_reflect_through_midpoint(self):
        from bisectrix.oracle import enumerate_lines, enumerate_quadratics

        rng = random.Random(4)
        lines = enumerate_lines(F5)
        for f in rng.sample(enumerate_quadratics(F5), 30):
            for l in lines:
                r = mid(f, l)
                if not r.crosses or not r.midpoint.is_finite:
                    continue
                zeros = [l.point_at(t) for t in F5.elements()
                         if _value_at(f, *l.point_at(t).affine_xy()).is_zero]
                if len(zeros) == 2:
                    # The point reflection of the first zero through m is 2m - p.
                    mx, my, _ = r.midpoint.point.raw
                    (px, py, _), (qx, qy, _) = zeros[0].raw, zeros[1].raw
                    assert ((2 * mx - px) % 5, (2 * my - py) % 5) == (qx, qy)


class TestProduct:
    def test_examples(self):
        assert LinePair(line(1, 0, 0), line(0, 1, 0)).product() == XY
        assert LinePair(line(1, 0, -1), line(1, 0, -3)).product() == quad("x^2-4*x+3")
        dbl = LinePair(line(1, 0, -2), line(1, 0, -2))
        assert dbl.product() == quad("x^2-4*x+4")


class TestTranslates:
    def test_examples(self):
        p1 = LinePair(line(1, 0, 0), line(0, 1, 0))
        p2 = LinePair(line(1, 0, -1), line(0, 1, -1))
        assert pairs_are_translates(p1, p2)
        p3 = LinePair(line(1, 1, -1), line(1, -1, -3))
        assert not pairs_are_translates(p1, p3)

    def test_parallel_pairs_need_matching_offsets(self):
        a = LinePair(line(1, 0, 0), line(1, 0, -1))
        b = LinePair(line(1, 0, -2), line(1, 0, -3))
        c = LinePair(line(1, 0, -2), line(1, 0, -5))
        assert pairs_are_translates(a, b)
        assert not pairs_are_translates(a, c)
        dbl = LinePair(line(1, 0, 0), line(1, 0, 0))
        assert not pairs_are_translates(dbl, a)
        assert pairs_are_translates(dbl, LinePair(line(1, 0, 2), line(1, 0, 2)))


def _random_quadratic(rng, spec, lo=-4, hi=4):
    while True:
        coeffs = [spec.scalar(rng.randint(lo, hi)) for _ in range(6)]
        if any(coeffs[:3]):
            return Quadratic(*coeffs)


def _random_map(rng, spec):
    while True:
        m = [spec.scalar(rng.randint(-4, 4)) for _ in range(6)]
        if not (m[0] * m[3] - m[1] * m[2]).is_zero:
            return AffineMap(*m)


class TestKernelEquivalence:
    """The closed-form kernels against the definitions they expand."""

    def test_pullback_at_every_point_of_gf5(self):
        # Degree < p in each variable, so the 25 values fix the polynomial.
        rng = random.Random(31)
        points = [(x, y) for x in F5.elements() for y in F5.elements()]
        for _ in range(40):
            f, m = _random_quadratic(rng, F5), _random_map(rng, F5)
            g = pullback(m, f)
            for x, y in points:
                assert _value_at(g, x, y) == _value_at(f, *_apply_xy(m, x, y))

    def test_pullback_at_seeded_rational_points(self):
        rng = random.Random(32)
        for _ in range(30):
            f, m = _random_quadratic(rng, Q), _random_map(rng, Q)
            g = pullback(m, f)
            for _ in range(8):
                x = Q.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                y = Q.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                assert _value_at(g, x, y) == _value_at(f, *_apply_xy(m, x, y))

    @pytest.mark.parametrize("spec", [F7, Q], ids=["F7", "Q"])
    def test_restrict_to_line_along_the_parameterization(self, spec):
        # Three values of t fix A t^2 + B t + C; vertical, horizontal and
        # slanted lines all occur.
        rng = random.Random(33)
        lines = [line(1, 0, -2, spec), line(0, 1, 3, spec), line(1, 0, 0, spec)]
        lines += [line(rng.randint(-3, 3), rng.randint(1, 3), rng.randint(-3, 3), spec)
                  for _ in range(12)]
        assert any(l.v.is_zero for l in lines) and any(not l.v.is_zero for l in lines)
        for l in lines:
            for _ in range(6):
                f = _random_quadratic(rng, spec)
                A, B, C = restrict_to_line(f, l)
                for t in (spec.scalar(0), spec.scalar(1), spec.scalar(-2)):
                    x, y = l.point_at(t).affine_xy()
                    assert _value_at(f, x, y) == A * t * t + B * t + C

    @pytest.mark.parametrize("spec", [F3, F5], ids=["F3", "F5"])
    def test_same_up_to_scalar_agrees_with_canonical_forms(self, spec):
        # Pairs with zero leading coefficients, exact multiples, and
        # multiples with one coefficient changed.
        rng = random.Random(34)
        seen = set()
        for _ in range(600):
            f = _random_quadratic(rng, spec, 0, 2)
            kind = rng.randrange(3)
            if kind == 0:
                g = _random_quadratic(rng, spec, 0, 2)
            else:
                g = f.scale(spec.scalar(rng.randint(1, spec.p - 1)))
                if kind == 2:
                    coeffs = list(g.coefficients())
                    i = rng.randrange(6)
                    coeffs[i] = coeffs[i] + spec.scalar(rng.randint(1, spec.p - 1))
                    if not any(coeffs[:3]):
                        continue
                    g = Quadratic(*coeffs)
            expect = f.canonical() == g.canonical()
            assert f.same_up_to_scalar(g) == expect
            seen.add((expect, f.a.is_zero, g.a.is_zero))
        assert {(True, True, True), (True, False, False), (False, True, False),
                (False, False, True), (False, True, True)} <= seen


# --- value-level kernels against Scalar-expression forms ---------------------

# GF(10^9 + 7) leaves intermediate products far above p before the one
# reduction per result.
KERNEL_FIELDS = [F3, F5, F7, GF(10**9 + 7), Q]
KERNEL_IDS = ["F3", "F5", "F7", "Fbig", "Q"]


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


def _scalars(obj):
    """Every Scalar reachable from a result of a kernel."""
    if isinstance(obj, (tuple, list)):
        return [s for x in obj for s in _scalars(x)]
    if isinstance(obj, Quadratic):
        return list(obj.coefficients())
    if isinstance(obj, ProjectivePoint):
        return [obj.x, obj.y, obj.z]
    if isinstance(obj, Line):
        return [obj.u, obj.v, obj.w]
    if isinstance(obj, LinePair):
        return _scalars([obj.first, obj.second, obj.center])
    if obj is None or isinstance(obj, (bool, str)):
        return []
    if hasattr(obj, "midpoint"):  # MidResult
        return _scalars(obj.midpoint)
    if hasattr(obj, "point"):  # Midpoint
        return _scalars(obj.point)
    return [obj]


def _assert_canonical_values(spec, *results):
    for s in _scalars(list(results)):
        assert s.spec == spec
        if spec.p is None:
            assert isinstance(s.value, Fraction), s
        else:
            assert isinstance(s.value, int) and 0 <= s.value < spec.p, s


def _ref_parameterization(l):
    zero = l.spec.zero
    base = (zero, -l.w / l.v) if l.v else (-l.w / l.u, zero)
    return base, (-l.v, l.u)


def _ref_restriction(f, l):
    (bx, by), (dx, dy) = _ref_parameterization(l)
    a, b, c, d, e, g = f.coefficients()
    A = a * dx * dx + b * dx * dy + c * dy * dy
    B = (2 * a * bx * dx + b * (bx * dy + by * dx) + 2 * c * by * dy
         + d * dx + e * dy)
    C = a * bx * bx + b * bx * by + c * by * by + d * bx + e * by + g
    return A, B, C


class TestValueKernels:
    """Each kernel computed on values agrees with its Scalar-expression form."""

    @pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=KERNEL_IDS)
    def test_disc_det3_and_from_ints(self, spec):
        rng = random.Random(41)
        for _ in range(60):
            f = _quadratic(rng, spec)
            a, b, c, d, e, g = f.coefficients()
            assert f.disc() == b * b - 4 * a * c
            assert f.det3() == (4 * a * c * g + b * d * e - a * e * e
                                - c * d * d - g * b * b) / 4
            ints = [rng.randint(-10**12, 10**12) for _ in range(6)]
            if any(spec.scalar(v) for v in ints[:3]):
                h = Quadratic.from_ints(spec, ints)
                assert h.coefficients() == tuple(spec.scalar(v) for v in ints)
                _assert_canonical_values(spec, h)
            _assert_canonical_values(spec, f.disc(), f.det3())

    @pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=KERNEL_IDS)
    def test_same_up_to_scalar_and_linear_combination(self, spec):
        rng = random.Random(42)
        for _ in range(60):
            f, g = _quadratic(rng, spec), _quadratic(rng, spec)
            k = _value(rng, spec) or spec.one
            assert f.same_up_to_scalar(f.scale(k))
            assert f.same_up_to_scalar(g) == (f.canonical() == g.canonical())
            w1, w2 = _value(rng, spec), _value(rng, spec)
            expect = [w1 * x + w2 * y for x, y in zip(f.coefficients(), g.coefficients())]
            raw = [w1.value * x + w2.value * y for x, y in zip(f.raw, g.raw)]
            if any(expect[:3]):
                h = Quadratic.from_ints(spec, raw)
                assert h.coefficients() == tuple(expect)
                _assert_canonical_values(spec, h)
            else:
                with pytest.raises(ConicError):
                    Quadratic.from_ints(spec, raw)

    @pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=KERNEL_IDS)
    def test_product_and_pullback(self, spec):
        rng = random.Random(43)
        for _ in range(40):
            l1, l2 = _line(rng, spec), _line(rng, spec)
            u1, v1, w1 = l1.u, l1.v, l1.w
            u2, v2, w2 = l2.u, l2.v, l2.w
            prod = LinePair(l1, l2).product()
            assert prod.coefficients() == (
                u1 * u2, u1 * v2 + u2 * v1, v1 * v2,
                u1 * w2 + u2 * w1, v1 * w2 + v2 * w1, w1 * w2)
            f = _quadratic(rng, spec)
            m = [_value(rng, spec) for _ in range(6)]
            if (m[0] * m[3] - m[1] * m[2]).is_zero:
                continue
            m11, m12, m21, m22, t1, t2 = m
            a, b, c, d, e, g = f.coefficients()
            got = pullback(AffineMap(*m), f)
            assert got.coefficients() == (
                a * m11 * m11 + b * m11 * m21 + c * m21 * m21,
                2 * a * m11 * m12 + b * (m11 * m22 + m12 * m21) + 2 * c * m21 * m22,
                a * m12 * m12 + b * m12 * m22 + c * m22 * m22,
                (2 * a * m11 * t1 + b * (m11 * t2 + m21 * t1) + 2 * c * m21 * t2
                 + d * m11 + e * m21),
                (2 * a * m12 * t1 + b * (m12 * t2 + m22 * t1) + 2 * c * m22 * t2
                 + d * m12 + e * m22),
                a * t1 * t1 + b * t1 * t2 + c * t2 * t2 + d * t1 + e * t2 + g,
            )
            _assert_canonical_values(spec, prod, got)

    @pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=KERNEL_IDS)
    def test_restriction_mid_and_meets(self, spec):
        rng = random.Random(44)
        vertical = Line(spec.one, spec.zero, _value(rng, spec))
        for i in range(80):
            f = _quadratic(rng, spec)
            l = vertical if i % 4 == 0 else _line(rng, spec)
            A, B, C = _ref_restriction(f, l)
            assert restrict_to_line(f, l) == (A, B, C)
            disc = B * B - 4 * A * C
            assert meets(f, l) == (A.is_zero or square_root(disc) is not None)
            got = mid(f, l)
            if not A.is_zero:
                if square_root(disc) is None:
                    assert not got.crosses
                else:
                    t = -B / (2 * A)
                    (bx, by), (dx, dy) = _ref_parameterization(l)
                    assert got.midpoint.point == ProjectivePoint.affine(bx + t * dx,
                                                                        by + t * dy)
            else:
                assert got.crosses == (not B.is_zero)
                if got.crosses:
                    assert got.midpoint.is_infinite
            _assert_canonical_values(spec, restrict_to_line(f, l), got)

    @pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=KERNEL_IDS)
    def test_center_points_at_infinity_and_factorizations(self, spec):
        rng = random.Random(45)
        hyperbolas = 0
        for i in range(120):
            f = _quadratic(rng, spec)
            if i % 2:
                # A product of two lines plus a constant: mostly hyperbolas.
                f = LinePair(_line(rng, spec), _line(rng, spec)).product()
                f = f.add_constant(_value(rng, spec))
            a, b, c, d, e, g = f.coefficients()
            disc = b * b - 4 * a * c
            root = square_root(disc)
            for p in points_at_infinity(f):
                assert p.is_infinite and raw_is_zero(spec, _form_at(f, *p.raw[:2]))
            if root is None or root.is_zero:
                continue
            hyperbolas += 1
            det = 4 * a * c - b * b
            ctr = center(f)
            assert ctr == ProjectivePoint.affine((b * e - 2 * c * d) / det,
                                                 (b * d - 2 * a * e) / det)
            deg = degenerations(f)
            assert deg.shift == 4 * f.det3() / disc
            pair = deg.pair
            # The reused center is the intersection of the two lines, the
            # lines are in canonical order, and the pair is the shifted f.
            assert pair.kind == CROSSING and pair.center == ctr
            assert pair.first.sort_key() < pair.second.sort_key()
            rebuilt = LinePair(pair.second, pair.first)
            assert (rebuilt.first, rebuilt.second, rebuilt.center) == (
                pair.first, pair.second, pair.center)
            assert pair.product().canonical() == f.add_constant(deg.shift).canonical()
            assert is_reducible(f.add_constant(deg.shift)) == pair
            _assert_canonical_values(spec, ctr, pair, deg.shift, points_at_infinity(f))
        assert hyperbolas >= 30


def _mixed(spec_a, spec_b):
    """A quadratic over spec_a and a line and a scalar over spec_b."""
    f = Quadratic(*(spec_a.scalar(v) for v in (1, 2, 3, 1, 1, 2)))
    l = Line(spec_b.one, spec_b.scalar(2), spec_b.scalar(1))
    return f, l, spec_b.scalar(3)


class TestMixedFields:
    MISMATCHED = [(F5, F7), (F7, F5), (Q, F7), (F7, Q)]

    @pytest.mark.parametrize("spec_a,spec_b", MISMATCHED,
                             ids=["F5-F7", "F7-F5", "Q-F7", "F7-Q"])
    def test_kernels_refuse_mixed_fields(self, spec_a, spec_b):
        from bisectrix.field import FieldMismatchError

        f, l, k = _mixed(spec_a, spec_b)
        g = Quadratic(*(spec_b.scalar(v) for v in (1, 2, 3, 1, 1, 2)))
        one, zero = spec_b.one, spec_b.zero
        calls = [
            lambda: restrict_to_line(f, l),
            lambda: mid(f, l),
            lambda: meets(f, l),
            lambda: pullback(AffineMap(one, zero, zero, one, k, k), f),
            lambda: f.same_up_to_scalar(g),
        ]
        for call in calls:
            with pytest.raises(FieldMismatchError):
                call()

    def test_equal_spec_that_is_another_object(self):
        from bisectrix.field import FieldSpec

        other = FieldSpec(7)
        assert other is not F7 and other == F7
        f, l, k = _mixed(F7, F7)
        f2, l2, k2 = _mixed(F7, other)
        g2 = Quadratic(*(other.scalar(v) for v in (2, 4, 6, 2, 2, 4)))
        m2 = AffineMap(other.one, other.zero, other.zero, other.one, k2, k2)
        m = AffineMap(F7.one, F7.zero, F7.zero, F7.one, k, k)
        assert restrict_to_line(f2, l2) == restrict_to_line(f, l)
        assert mid(f2, l2) == mid(f, l)
        assert meets(f2, l2) == meets(f, l)
        assert pullback(m2, f2) == pullback(m, f)
        assert f2.same_up_to_scalar(g2)

    def test_objects_refuse_mixed_scalars(self):
        # Kernels check fields only across objects, so each object checks its own.
        from bisectrix.field import FieldMismatchError

        for spec_a, spec_b in self.MISMATCHED:
            a, b = spec_a.one, spec_b.one
            with pytest.raises(FieldMismatchError):
                Quadratic(a, a, a, a, b, a)
            with pytest.raises(FieldMismatchError):
                Line(a, b, a)
            with pytest.raises(FieldMismatchError):
                ProjectivePoint(a, a, b)
