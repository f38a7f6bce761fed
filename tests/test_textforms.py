from fractions import Fraction

import pytest

from bisectrix.conic import LinePair
from bisectrix.field import GF, rationals
from bisectrix.geometry import Line, ProjectivePoint
from bisectrix.textforms import (
    ParseError,
    format_line_equation,
    format_line_triple,
    format_point,
    format_quadratic,
    parse_line,
    parse_pairs,
    parse_quadratic,
)

Q = rationals()
F5 = GF(5)


class TestQuadraticParsing:
    def test_polynomial_forms(self):
        f = parse_quadratic(Q, "x*y - 1")
        assert [x.value for x in f.coefficients()] == [0, 1, 0, 0, 0, -1]
        g = parse_quadratic(Q, "x^2 - y^2")
        assert [x.value for x in g.coefficients()] == [1, 0, -1, 0, 0, 0]
        h = parse_quadratic(Q, "3/2*x^2 + 2*x*y - x + 7")
        assert h.a.value == Fraction(3, 2) and h.b.value == 2
        assert h.d.value == -1 and h.g.value == 7

    def test_tuple_form(self):
        f = parse_quadratic(Q, "1,2,3,4,5,6")
        assert [x.value for x in f.coefficients()] == [1, 2, 3, 4, 5, 6]
        g = parse_quadratic(F5, "1,0,0,0,0,-2")
        assert g.g.value == 3

    def test_repeated_monomials_accumulate(self):
        f = parse_quadratic(Q, "x + x + y^2")
        assert f.d.value == 2 and f.c.value == 1

    def test_rejections(self):
        for bad in ("x^3", "x*y*x", "", "x +", "2x", "x^y", "(x+1)*y", "z^2"):
            with pytest.raises(ParseError):
                parse_quadratic(Q, bad)
        with pytest.raises(ParseError):
            parse_quadratic(Q, "x - x + y")  # degree collapses below 2

    def test_round_trip(self):
        for text in ("x*y-1", "x^2-y^2-4*x-2*y+3", "3/2*x^2+y"):
            f = parse_quadratic(Q, text)
            assert parse_quadratic(Q, format_quadratic(f)) == f


class TestLineAndPointForms:
    def test_line(self):
        l = parse_line(Q, "2,0,-6")
        assert l == Line(Q.scalar(1), Q.scalar(0), Q.scalar(-3))
        assert format_line_triple(l) == "1,0,-3"
        assert format_line_equation(l) == "x-3=0"
        assert format_line_equation(parse_line(Q, "0,1,0")) == "y=0"
        with pytest.raises(ParseError):
            parse_line(Q, "0,0,1")
        with pytest.raises(ParseError):
            parse_line(Q, "1,2")

    def test_point(self):
        p = ProjectivePoint.affine(Q.scalar(Fraction(1, 2)), Q.scalar(-3))
        assert format_point(p) == "(1/2,-3)"
        inf = ProjectivePoint(Q.scalar(1), Q.scalar(2), Q.scalar(0))
        assert inf.is_infinite and format_point(inf) == "[1/2:1:0]"

    def test_pairs(self):
        pairs = parse_pairs(Q, "1,0,0;0,1,0|1,1,-1;1,-1,-3")
        assert len(pairs) == 2
        assert pairs[0] == LinePair(parse_line(Q, "1,0,0"), parse_line(Q, "0,1,0"))
        with pytest.raises(ParseError):
            parse_pairs(Q, "1,0,0")
