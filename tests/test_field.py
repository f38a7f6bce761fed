from fractions import Fraction

import copy
import operator
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from bisectrix.field import (
    FieldError,
    FieldMismatchError,
    FieldSpec,
    FieldTuple,
    Frozen,
    GF,
    InfiniteFieldError,
    Scalar,
    fill_reduced,
    halve,
    is_square,
    parse_fieldspec,
    rationals,
    raw_inverse,
    raw_is_zero,
    same_field,
    square_root,
    wrap,
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


class TestCachedConstants:
    def test_zero_and_one_are_built_once(self):
        for spec in (GF(3), F7, GF(101), Q):
            assert spec.one is spec.one and spec.zero is spec.zero
            assert spec.zero == 0 and spec.one == 1
            assert spec.zero.spec is spec and spec.one.spec is spec
        assert GF(7).one is F7.one
        assert type(Q.one.value) is Fraction and Q.zero.value == Fraction(0)

    def test_fieldspec_is_immutable(self):
        for attr in ("p", "zero", "one", "other"):
            with pytest.raises(AttributeError):
                setattr(F7, attr, F5.one)
        assert F7.p == 7 and F7.one.value == 1 and F7.zero.value == 0


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
        for spec in (F5, Q):
            zero = spec.scalar(0)
            with pytest.raises(ZeroDivisionError, match="division by zero scalar"):
                spec.scalar(1) / zero
            with pytest.raises(ZeroDivisionError, match="division by zero scalar"):
                1 / zero


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
        assert (-x).value == -a % p
        assert (b - x).value == (b - a) % p
        results = [x + y, x - y, x * y, -x, b - x]
        for k in range(-2, 4):
            if k >= 0 or a % p:
                results.append(x ** k)
                assert results[-1].value == pow(a, k, p)
        if b % p:
            assert (x / y).value * b % p == a % p
            results.append(x / y)
        if a % p:
            assert (b / x).value * a % p == b % p
            results.append(b / x)
        for r in results:
            assert type(r.value) is int and 0 <= r.value < p

    @given(a=rational_values, b=rational_values)
    @settings(deadline=None)
    def test_rationals_against_fraction(self, a, b):
        x, y = q(a), q(b)
        assert (x + y).value == a + b
        assert (x - y).value == a - b
        assert (x * y).value == a * b
        assert (x == y) == (a == b)
        n = b.numerator
        assert (-x).value == -a
        assert (n - x).value == n - a
        results = [x + y, x - y, x * y, -x, n - x]
        for k in range(-2, 4):
            if k >= 0 or a:
                results.append(x ** k)
                assert results[-1].value == a ** k
        if b:
            assert (x / y).value == a / b
            results.append(x / y)
        if a:
            assert (n / x).value == n / a
            results.append(n / x)
        for r in results:
            assert type(r.value) is Fraction


KERNEL_FIELDS = [GF(3), F5, F7, GF(10**9 + 7), Q]
KERNEL_IDS = ["F3", "F5", "F7", "Fbig", "Q"]


class TestValueHelpers:
    """wrap, raw_inverse and raw_is_zero against Scalar arithmetic."""

    @pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=KERNEL_IDS)
    def test_against_scalar_expressions(self, spec):
        rng = random.Random(71)
        for _ in range(200):
            if spec.p is None:
                x, y = (Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(2))
            else:
                x, y = rng.randrange(spec.p), rng.randrange(spec.p)
            sx, sy = spec.scalar(x), spec.scalar(y)
            # An unreduced product and difference, wrapped once.
            raw = x * y * y - 3 * x
            assert wrap(spec, raw) == sx * sy * sy - 3 * sx
            assert raw_is_zero(spec, raw) == (sx * sy * sy - 3 * sx).is_zero
            if y:
                inv = raw_inverse(spec, y)
                assert wrap(spec, x * inv) == sx / sy
                assert wrap(spec, inv) == sy.inverse()
            for s in (wrap(spec, raw), wrap(spec, x * raw_inverse(spec, y or 1))):
                if spec.p is None:
                    assert isinstance(s.value, Fraction)
                else:
                    assert 0 <= s.value < spec.p

    def test_rational_inverse_of_an_int_stays_exact(self):
        inv = raw_inverse(Q, 4)
        assert isinstance(inv, Fraction) and inv == Fraction(1, 4)
        assert isinstance(raw_inverse(Q, Fraction(-2, 3)), Fraction)

    @pytest.mark.parametrize("spec", [F7, GF(10**9 + 7)], ids=["F7", "Fbig"])
    def test_unreduced_values(self, spec):
        p = spec.p
        assert raw_is_zero(spec, 5 * p) and raw_is_zero(spec, -p * p)
        assert not raw_is_zero(spec, 5 * p + 1)
        assert wrap(spec, -1).value == p - 1
        assert wrap(spec, p * p + 3).value == 3
        assert raw_inverse(spec, -1) == p - 1
        assert raw_inverse(spec, p + 2) * 2 % p == 1
        for zero in (0, p, -3 * p):
            with pytest.raises(ZeroDivisionError):
                raw_inverse(spec, zero)
        with pytest.raises(ZeroDivisionError):
            raw_inverse(Q, Fraction(0))

    def test_same_field(self):
        same_field(F7, FieldSpec(7))
        same_field(Q, rationals())
        for a, b in ((F5, F7), (Q, F7), (F7, Q)):
            with pytest.raises(FieldMismatchError):
                same_field(a, b)


def test_enumerate_field():
    assert [x.value for x in GF(3).elements()] == [0, 1, 2]
    assert len(list(F5.elements())) == 5
    # elements() is a generator: the refusal comes when it is consumed.
    with pytest.raises(InfiniteFieldError):
        list(Q.elements())


# --- the Frozen base ------------------------------------------------------------


class RawPair(FieldTuple):
    """The smallest FieldTuple kind: two reduced values, no scaling or check."""

    __slots__ = ()

    _fill = fill_reduced


def _frozen_builders():
    """One fresh instance of every class deriving from Frozen, by class."""
    from bisectrix.bisector import (
        ArrangementReport, BisectorField, Involution, PairThroughLine,
        is_bisector_arrangement,
    )
    from bisectrix.conic import (
        ConicClass, Degenerations, LinePair, MidResult, ParallelFamily, Quadratic,
        classify, degenerations, mid,
    )
    from bisectrix.geometry import AffineMap, Line, Midpoint, ProjectivePoint
    from bisectrix.oracle import Policy, Report
    from bisectrix.pencil import (
        AsymptoticPencil, DegeneracyCubic, NetCoords, Pencil, degeneracy_cubic,
    )
    from bisectrix.quad import Quadrilateral

    spec = FieldSpec(5)  # not the cached GF(5): a failed guard harms no other test

    def quad(*coeffs):
        return Quadratic.from_ints(spec, coeffs)

    def line(u, v, w):
        return Line(spec.scalar(u), spec.scalar(v), spec.scalar(w))

    def pencil():
        return Pencil(quad(0, 1, 0, 0, 0, 0), quad(1, 0, -1, 0, 0, 0))

    def pair():
        return LinePair(line(1, 0, 0), line(0, 1, 0))

    return {
        Scalar: lambda: spec.scalar(2),
        FieldSpec: lambda: FieldSpec(7),
        RawPair: lambda: RawPair(spec.one, spec.scalar(7)),
        Quadratic: lambda: quad(1, 0, 1, 0, 0, 1),
        Line: lambda: line(1, 2, 3),
        ProjectivePoint: lambda: ProjectivePoint.affine(spec.scalar(1), spec.scalar(2)),
        AffineMap: lambda: AffineMap.translation(spec.one, spec.zero),
        Midpoint: lambda: Midpoint.finite(ProjectivePoint.affine(spec.one, spec.one)),
        NetCoords: lambda: NetCoords(spec.one, spec.zero, spec.one),
        Pencil: pencil,
        DegeneracyCubic: lambda: degeneracy_cubic(pencil()),
        AsymptoticPencil: lambda: AsymptoticPencil(pencil()),
        ConicClass: lambda: classify(quad(0, 1, 0, 0, 0, 1)),
        LinePair: pair,
        ParallelFamily: lambda: degenerations(quad(1, 0, 0, 0, 0, -1)).family,
        Degenerations: lambda: degenerations(quad(0, 1, 0, 0, 0, 1)),
        MidResult: lambda: mid(quad(1, 0, 1, 0, 0, -1), line(0, 1, 0)),
        PairThroughLine: lambda: PairThroughLine(
            NetCoords(spec.one, spec.zero, spec.zero), pair(), False),
        ArrangementReport: lambda: is_bisector_arrangement([pair()]),
        BisectorField: lambda: BisectorField(AsymptoticPencil(pencil())),
        Involution: lambda: Involution(spec.one, spec.zero, spec.one),
        Quadrilateral: lambda: Quadrilateral(pair(), LinePair(line(1, 1, 1), line(1, 4, 2)),
                                             False),
        Policy: lambda: Policy.randomized(10, seed=3),
        Report: lambda: Report("prop-2.2", "F5", Policy.exhaustive(), "pass", [], 0.5),
    }


FROZEN_BUILDERS = _frozen_builders()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_frozen_class_is_covered():
    # FieldTuple itself has no normalizer, so RawPair stands in for it.
    assert set(_subclasses(Frozen)) == set(FROZEN_BUILDERS) | {FieldTuple}
    # 15 direct bases besides FieldTuple, its eight library kinds, and RawPair.
    assert len(FROZEN_BUILDERS) == 24


@pytest.mark.parametrize("cls", FROZEN_BUILDERS, ids=lambda cls: cls.__name__)
def test_assignment_and_del_are_refused(cls):
    obj = FROZEN_BUILDERS[cls]()
    assert type(obj) is cls
    slots = [name for k in cls.__mro__ for name in k.__dict__.get("__slots__", ())]
    assert slots
    message = f"^{cls.__name__} is immutable$"
    for name in slots:
        before = getattr(obj, name)
        with pytest.raises(AttributeError, match=message):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match=message):
            delattr(obj, name)
        assert getattr(obj, name) is before
    with pytest.raises(AttributeError, match=message):
        obj.extra = 1
    with pytest.raises(AttributeError, match=message):
        del obj.extra
    if cls.__hash__ is not None:
        hash(obj)


def test_frozen_init_needs_one_value_per_slot():
    from bisectrix.conic import ConicClass
    from bisectrix.quad import Quadrilateral

    assert ConicClass("ellipse", False) == ConicClass("ellipse", False)
    for call in (lambda: ConicClass("ellipse"), lambda: ConicClass("ellipse", False, 1),
                 lambda: Quadrilateral()):
        with pytest.raises(ValueError, match="zip"):
            call()


def test_field_tuples_are_built_through_their_normalizer():
    from bisectrix.geometry import Line

    pair = RawPair(F5.scalar(3), F5.scalar(4))
    assert pair.spec is F5 and pair.raw == (3, 4)
    assert RawPair(Q.scalar(Fraction(1, 2)), Q.one).raw == (Fraction(1, 2), 1)
    with pytest.raises(TypeError, match="^FieldTuple has no normalizer$"):
        FieldTuple(F5.one, F5.one)
    with pytest.raises(FieldMismatchError):
        RawPair(F5.one, F7.one)
    with pytest.raises(TypeError):
        Line(F5.one, F5.one)


@pytest.mark.parametrize("cls", FROZEN_BUILDERS, ids=lambda cls: cls.__name__)
def test_copy_returns_the_object(cls):
    obj = FROZEN_BUILDERS[cls]()
    assert copy.copy(obj) is obj
    assert copy.deepcopy(obj) is obj
    assert copy.deepcopy([obj, obj])[1] is obj
