from fractions import Fraction

import operator
import time

import pytest
from hypothesis import given, settings, strategies as st

from bisectrix.field import (
    FieldError,
    FieldMismatchError,
    FieldSpec,
    GF,
    InfiniteFieldError,
    enumerate_field,
    halve,
    is_square,
    parse_fieldspec,
    rationals,
    square_root,
)

Q = rationals()
F5 = GF(5)
F7 = GF(7)

rational_values = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def q(v):
    return Q.scalar(Fraction(v))


class TestFieldSpec:
    def test_odd_prime_validation(self):
        for bad in (1, 2, 4, 9, 15):
            with pytest.raises(FieldError):
                GF(bad)
        assert GF(3).p == 3 and GF(101).is_finite

    def test_parse(self):
        assert parse_fieldspec("Q") == Q
        assert parse_fieldspec("F7") == F7
        with pytest.raises(FieldError):
            parse_fieldspec("F4")
        with pytest.raises(FieldError):
            parse_fieldspec("GF(5)")

    def test_scalar_text_forms(self):
        assert Q.parse("3/2").value == Fraction(3, 2)
        assert Q.parse("-3").value == -3
        assert F5.parse("7").value == 2
        assert F5.parse("-1").value == 4
        with pytest.raises(FieldError):
            F5.parse("1/2")


class TestArithmetic:
    @given(a=rational_values, b=rational_values)
    @settings(deadline=None)
    def test_rational_ring_ops(self, a, b):
        x, y = q(a), q(b)
        assert (x + y).value == a + b
        assert (x * y).value == a * b
        assert (x - y) + y == x

    @given(a=st.integers(0, 6), b=st.integers(0, 6))
    @settings(deadline=None)
    def test_prime_field_ops(self, a, b):
        x, y = F7.scalar(a), F7.scalar(b)
        assert (x + y).value == (a + b) % 7
        assert (x * y).value == (a * b) % 7
        assert (x + (-x)).is_zero

    def test_inverses(self):
        for spec in (F5, F7, GF(11)):
            for x in spec.elements():
                if not x.is_zero:
                    assert (x * x.inverse()).value == 1
        assert (q(Fraction(3, 7)) * q(Fraction(3, 7)).inverse()).value == 1

    @given(a=rational_values)
    @settings(deadline=None)
    def test_halve_doubles_back_rational(self, a):
        x = q(a)
        assert halve(x) + halve(x) == x

    def test_halve_doubles_back_finite(self):
        for spec in (GF(3), F5, F7, GF(11)):
            for x in spec.elements():
                assert halve(x) + halve(x) == x

    def test_halve_examples(self):
        assert halve(F5.scalar(1)).value == 3
        assert halve(F5.scalar(0)).value == 0
        assert halve(q(Fraction(3, 2))).value == Fraction(3, 4)

    def test_int_operands(self):
        assert (F5.scalar(3) + 4).value == 2
        assert (2 * q(Fraction(1, 2))).value == 1

    def test_mixing_fields_is_an_error(self):
        with pytest.raises(FieldMismatchError):
            F5.scalar(1) + F7.scalar(1)
        with pytest.raises(FieldMismatchError):
            q(1) * F5.scalar(1)
        with pytest.raises(FieldMismatchError):
            F5.scalar(1) == F7.scalar(1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            F5.scalar(1) / F5.scalar(0)
        with pytest.raises(ZeroDivisionError):
            q(1) / q(0)


class TestSquareRoots:
    def test_gf7_examples(self):
        # 3*3 = 9 = 2 mod 7, so 2 is a square with roots {3, 4}.
        root = square_root(F7.scalar(2))
        assert root is not None and (root * root).value == 2
        # Oracle: the squares mod 7 by enumeration.
        squares = {(x * x).value for x in F7.elements()}
        assert squares == {0, 1, 2, 4}
        assert square_root(F7.scalar(6)) is None

    def test_rational_examples(self):
        assert square_root(q(Fraction(4, 9))).value == Fraction(2, 3)
        assert square_root(q(2)) is None
        assert square_root(q(-4)) is None
        assert square_root(q(0)).value == 0

    def test_exhaustive_square_of_square(self):
        for p in (3, 5, 7, 11):
            spec = GF(p)
            for x in spec.elements():
                r = square_root(x * x)
                assert r is not None and r * r == x * x

    def test_square_counts(self):
        for p in (3, 5, 7, 11):
            spec = GF(p)
            n = sum(1 for x in spec.elements() if is_square(x))
            assert n == (p + 1) // 2

    def test_tonelli_shanks_branch(self):
        # Above the scan bound both p = 3 (mod 4) and p = 1 (mod 4) paths run.
        for p in (103, 109, 149):
            spec = GF(p)
            for v in range(1, 30):
                x = spec.scalar(v)
                r = square_root(x * x)
                assert r is not None and r * r == x * x
                assert r.value <= p - r.value  # deterministic smaller root

    @given(a=rational_values)
    @settings(deadline=None)
    def test_rational_square_of_square(self, a):
        x = q(a)
        r = square_root(x * x)
        assert r is not None and r * r == x * x


class TestPrimality:
    def test_large_prime_is_fast(self):
        start = time.perf_counter()
        spec = GF(10**14 + 31)
        assert time.perf_counter() - start < 0.1
        assert (spec.scalar(2) * spec.scalar(3)).value == 6

    @pytest.mark.parametrize("n", [561, 41041, 2047])
    def test_pseudoprimes_rejected(self, n):
        # Carmichael numbers 561 and 41041; 2047 is a strong pseudoprime to base 2.
        with pytest.raises(FieldError):
            FieldSpec(n)

    @pytest.mark.parametrize("n,factor", [
        (3825123056546413051, 149491),
        (318665857834031151167461, 399165290221),
    ])
    def test_strong_pseudoprimes_below_the_bound_rejected(self, n, factor):
        # Strong pseudoprimes to every prime base up to 31 and up to 37 (OEIS
        # A014233): only the last bases of the set unmask them.
        assert n % factor == 0
        with pytest.raises(FieldError, match="odd prime"):
            FieldSpec(n)

    def test_above_the_proof_bound_is_refused(self):
        # 2^89 - 1 is prime but above 3.3e24, where the fixed bases stop being exact.
        with pytest.raises(FieldError, match="below"):
            FieldSpec(2**89 - 1)
        assert GF(2**61 - 1).p == 2**61 - 1


BINARY_OPS = [operator.add, operator.sub, operator.mul, operator.truediv, operator.eq]


class TestSameSpecFastPath:
    @pytest.mark.parametrize("op", BINARY_OPS, ids=lambda op: op.__name__)
    @pytest.mark.parametrize("left,right", [
        (F5.scalar(2), F7.scalar(3)),
        (F7.scalar(3), F5.scalar(2)),
        (Q.scalar(2), F5.scalar(3)),
        (F5.scalar(3), Q.scalar(2)),
    ], ids=["F5-F7", "F7-F5", "Q-F5", "F5-Q"])
    def test_mismatch_raises_for_every_operator(self, op, left, right):
        with pytest.raises(FieldMismatchError):
            op(left, right)

    @pytest.mark.parametrize("name", ["__radd__", "__rsub__", "__rmul__", "__rtruediv__"])
    def test_reflected_forms_raise_on_mismatch(self, name):
        for left, right in ((F5.scalar(2), F7.scalar(3)), (Q.scalar(2), F5.scalar(3))):
            with pytest.raises(FieldMismatchError):
                getattr(left, name)(right)

    @pytest.mark.parametrize("op", BINARY_OPS, ids=lambda op: op.__name__)
    def test_equal_spec_that_is_another_object(self, op):
        other = FieldSpec(7)
        assert other is not F7 and other == F7
        for a in range(7):
            for b in range(1, 7):
                expected = op(F7.scalar(a), F7.scalar(b))
                assert op(other.scalar(a), F7.scalar(b)) == expected
                assert op(F7.scalar(a), other.scalar(b)) == expected

    def test_scalars_are_immutable(self):
        x = F7.scalar(3)
        for attr in ("value", "spec", "other"):
            with pytest.raises(AttributeError):
                setattr(x, attr, 1)
        assert x.value == 3 and x.spec is F7

    def test_foreign_operands_are_not_implemented(self):
        x = F7.scalar(3)
        assert x.__add__("1") is NotImplemented
        assert x.__eq__(None) is NotImplemented
        assert x != "3"
        with pytest.raises(TypeError):
            x * 1.5

    @given(p=st.sampled_from([3, 5, 7, 11, 101]), a=st.integers(-300, 300),
           b=st.integers(-300, 300))
    @settings(deadline=None)
    def test_prime_field_against_int_mod_p(self, p, a, b):
        spec = GF(p)
        x, y = spec.scalar(a), spec.scalar(b)
        assert (x + y).value == (a + b) % p
        assert (x - y).value == (a - b) % p
        assert (x * y).value == (a * b) % p
        assert (x == y) == ((a - b) % p == 0)
        assert (x == b) == ((a - b) % p == 0)
        if b % p:
            assert (x / y).value * b % p == a % p

    @given(a=rational_values, b=rational_values)
    @settings(deadline=None)
    def test_rationals_against_fraction(self, a, b):
        x, y = q(a), q(b)
        assert (x + y).value == a + b
        assert (x - y).value == a - b
        assert (x * y).value == a * b
        assert (x == y) == (a == b)
        if b:
            assert (x / y).value == a / b


def test_enumerate_field():
    assert [x.value for x in enumerate_field(GF(3))] == [0, 1, 2]
    assert len(enumerate_field(F5)) == 5
    with pytest.raises(InfiniteFieldError):
        enumerate_field(Q)
