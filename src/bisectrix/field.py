"""Exact scalar arithmetic over the rationals and over prime fields GF(p).

Every value the library hands out is a :class:`Scalar` tagged with a
:class:`FieldSpec`.  Rationals are arbitrary-precision ``Fraction``s (always
in lowest terms with a positive denominator); GF(p) elements are canonical
residues in ``0..p-1``.  Every field-valued record (quadratics, lines,
points, affine maps, net coordinates, the degeneracy cubic, parallel
families and involutions) stores those values raw, in a :class:`FieldTuple`,
and builds Scalars only when a coordinate is read.  Scalars from different
field specs never mix:
arithmetic between them raises :class:`FieldMismatchError` instead of
coercing.  Plain Python ints are accepted as operands and mapped through the
canonical ring map from the integers.

Only characteristic != 2 is supported (p must be an odd prime), so halving
is total.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Iterator, Union


class FieldError(ValueError):
    """Base class for scalar arithmetic errors."""


class FieldMismatchError(FieldError):
    """Two scalars from different field specs were combined."""


class InfiniteFieldError(FieldError):
    """An enumeration was requested over the rationals."""


# GF(p) square roots switch from a lookup table to Tonelli-Shanks here.
_SQRT_TABLE_BOUND = 101


# Miller-Rabin with the first thirteen prime bases (2 to 41) is exact below
# this bound (Sorenson & Webster 2015, OEIS A014233); larger p are refused
# rather than guessed.  Twelve bases would not do: 318665857834031151167461
# is composite and a strong pseudoprime to every base from 2 to 37.
_PRIME_BOUND = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic primality for n < _PRIME_BOUND."""
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Frozen:
    """The base of every immutable object: slots filled once, at construction.

    Assignment and ``del`` raise ``AttributeError``.  ``__init__`` fills
    ``__slots__`` in order; constructors that validate or normalize do so
    first.  Copying returns the object itself, as for tuples.
    """

    __slots__ = ()
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # The slot descriptors' setters in order: ``__init__`` looks up no names.
        cls._setters = tuple([getattr(cls, name).__set__ for name in cls.__slots__])

    def __init__(self, *values):
        for put, value in zip(self._setters, values, strict=True):
            put(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


class FieldSpec(Frozen):
    """Either the rationals (``p is None``) or GF(p) for an odd prime p."""

    __slots__ = ("p", "zero", "one")

    def __init__(self, p: int | None):
        if p is not None:
            if p >= _PRIME_BOUND:
                raise FieldError(
                    f"GF({p}) is not supported: p must be below {_PRIME_BOUND}"
                )
            if p < 3 or not _is_prime(p):
                raise FieldError(f"GF({p}) is not supported: p must be an odd prime >= 3")
        zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
        # Built once: every read of spec.zero / spec.one shares these scalars.
        super().__init__(p, Scalar(self, zero), Scalar(self, one))

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    @property
    def name(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpec) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("FieldSpec", self.p))

    def __repr__(self) -> str:
        return self.name

    def scalar(self, value: Union[int, Fraction, str, "Scalar"]) -> "Scalar":
        """Coerce an int, Fraction, text form, or same-field Scalar."""
        if isinstance(value, Scalar):
            if value.spec != self:
                raise FieldMismatchError(f"cannot reinterpret {value.spec} scalar as {self}")
            return value
        if isinstance(value, str):
            return self.parse(value)
        if self.p is None:
            if isinstance(value, (int, Fraction)):
                return Scalar(self, Fraction(value))
            raise FieldError(f"cannot build a rational scalar from {value!r}")
        if isinstance(value, int):
            return Scalar(self, value % self.p)
        raise FieldError(f"cannot build a GF({self.p}) scalar from {value!r}")

    def parse(self, text: str) -> "Scalar":
        """Parse the scalar text form: "7", "-3", or "3/2" (rationals only)."""
        text = text.strip()
        try:
            if self.p is None:
                return Scalar(self, Fraction(text))
            return Scalar(self, int(text) % self.p)
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"invalid {self.name} scalar text {text!r}") from exc

    def elements(self) -> Iterator["Scalar"]:
        """Yield every field element exactly once (finite fields only)."""
        if self.p is None:
            raise InfiniteFieldError("cannot enumerate the rationals: infinite field")
        for v in range(self.p):
            yield Scalar(self, v)


def rationals() -> FieldSpec:
    """The field of rational numbers."""
    return _RATIONALS


@lru_cache(maxsize=None)
def GF(p: int) -> FieldSpec:
    """The prime field with p elements, p an odd prime."""
    return FieldSpec(p)


def parse_fieldspec(text: str) -> FieldSpec:
    """Parse "Q" or "F<p>" (e.g. "F5")."""
    text = text.strip()
    if text in ("Q", "q"):
        return _RATIONALS
    if text and text[0] in ("F", "f") and text[1:].isdigit():
        return GF(int(text[1:]))
    raise FieldError(f"invalid field spec {text!r}: expected 'Q' or 'F<p>'")


class Scalar(Frozen):
    """An exact element of Q or GF(p), tagged with its field spec.

    The operators are clients of the value helpers below: each reads the
    operands' values, computes on them raw and builds its result through
    ``wrap`` (and divides through ``raw_inverse``).  ``_operand`` checks a
    Scalar operand's field only when its ``FieldSpec`` object differs
    (``GF`` is cached and ``rationals`` is a singleton).
    """

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value):
        # Callers go through FieldSpec.scalar; value is assumed canonical.
        _set_spec(self, spec)
        _set_value(self, value)

    def _operand(self, other):
        """The value of ``other`` in this field, or None for a foreign type."""
        if isinstance(other, Scalar):
            if other.spec is not self.spec:
                same_field(self.spec, other.spec)
            return other.value
        if isinstance(other, int):
            return other % self.spec.p if self.spec.p is not None else Fraction(other)
        return None

    def __add__(self, other):
        v = self._operand(other)
        return NotImplemented if v is None else wrap(self.spec, self.value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._operand(other)
        return NotImplemented if v is None else wrap(self.spec, self.value - v)

    def __rsub__(self, other):
        v = self._operand(other)
        return NotImplemented if v is None else wrap(self.spec, v - self.value)

    def __mul__(self, other):
        v = self._operand(other)
        return NotImplemented if v is None else wrap(self.spec, self.value * v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._operand(other)
        if v is None:
            return NotImplemented
        return wrap(self.spec, self.value * raw_inverse(self.spec, v))

    def __rtruediv__(self, other):
        v = self._operand(other)
        if v is None:
            return NotImplemented
        return wrap(self.spec, v * raw_inverse(self.spec, self.value))

    def __neg__(self):
        return wrap(self.spec, -self.value)

    def __pow__(self, exponent: int):
        p = self.spec.p
        if p is None:
            return wrap(self.spec, self.value ** exponent)
        if exponent < 0:
            return (self.spec.one / self) ** -exponent
        return wrap(self.spec, pow(self.value, exponent, p))

    def inverse(self) -> "Scalar":
        return self.spec.one / self

    def __eq__(self, other) -> bool:
        v = self._operand(other)
        if v is None:
            return NotImplemented
        return self.value == v

    def __hash__(self) -> int:
        return hash(self.value)

    def __bool__(self) -> bool:
        return self.value != 0

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def sort_key(self):
        """A total order on same-field scalars, for canonical orderings."""
        return self.value

    def __repr__(self) -> str:
        return f"{self.spec.name}({self.value})"

    def __str__(self) -> str:
        return str(self.value)


_new = object.__new__
_set_spec = Scalar.__dict__["spec"].__set__
_set_value = Scalar.__dict__["value"].__set__

# Created after Scalar, since a FieldSpec builds its zero and one.
_RATIONALS = FieldSpec(None)


# --- value-level kernels -------------------------------------------------------
# A kernel reads the ``.value``s of its scalars, computes on them with plain
# ints (GF(p)) or Fractions (Q), and wraps each result once.  Raw GF(p)
# values may be unreduced.  ``wrap``, ``raw_inverse`` and ``raw_is_zero`` are
# the only code that knows which field a raw value lives in, so Q and GF(p)
# run the same kernel bodies; Scalar's own operators and ``halve`` are
# kernels too, and ``wrap`` is the one place a result Scalar is built.

_FRACTION_ONE = Fraction(1)


def wrap(spec: FieldSpec, raw) -> Scalar:
    """The scalar of a raw value computed from values of ``spec``."""
    p = spec.p
    r = _new(Scalar)
    _set_spec(r, spec)
    _set_value(r, raw % p if p else raw)
    return r


def raw_inverse(spec: FieldSpec, raw):
    """1 / raw as a raw value: a Fraction over Q, a residue over GF(p)."""
    p = spec.p
    if p is None:
        if raw == 0:
            raise ZeroDivisionError("division by zero scalar")
        return _FRACTION_ONE / raw  # a Fraction even for an int raw
    raw %= p
    if raw == 0:
        raise ZeroDivisionError("division by zero scalar")
    return pow(raw, p - 2, p)


def raw_is_zero(spec: FieldSpec, raw) -> bool:
    """Whether a raw, possibly unreduced, value is zero in the field."""
    p = spec.p
    return raw % p == 0 if p else raw == 0


def same_field(spec: FieldSpec, other: FieldSpec) -> None:
    """Raise FieldMismatchError unless ``other`` equals ``spec``.

    Kernels call it only after an identity test fails, so the same
    ``FieldSpec`` object costs one ``is``.
    """
    if other != spec:
        raise FieldMismatchError(f"cannot combine {spec} scalar with {other} scalar")


class FieldTuple(Frozen):
    """An immutable tuple ``raw`` of canonical values of the field ``spec``.

    The base of every field-valued record.  Each subclass names one
    normalizer, ``_fill(obj, spec, *values)``, that reduces and scales the
    raw values, checks them and fills both slots.  ``__init__`` is the one
    constructor from Scalars: it checks their fields and hands their values
    to ``_fill``; the modules' private raw builders call the normalizers
    directly.  Kernels read ``raw``, and the named coordinates are
    properties (see ``coordinate``) that build a ``Scalar`` on each read.
    Equality and hashing work on the tuple: objects of two different fields
    raise ``FieldMismatchError`` on ``==``, and an object hashes as its
    tuple, as the tuple of its Scalars would.
    """

    __slots__ = ("spec", "raw")

    def __init__(self, *fields: Scalar):
        spec = fields[0].spec
        for x in fields:
            if x.spec is not spec:
                same_field(spec, x.spec)
        self._fill(spec, *[x.value for x in fields])

    def _fill(self, spec: FieldSpec, *raw):
        raise TypeError(f"{type(self).__name__} has no normalizer")

    def key(self) -> tuple:
        """The canonical value tuple."""
        return self.raw

    def raw_in(self, spec: FieldSpec) -> tuple:
        """``raw``, once ``spec``, the field of an operand, is checked to match."""
        if spec is not self.spec:
            same_field(spec, self.spec)
        return self.raw

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if other.spec is not self.spec:
            same_field(self.spec, other.spec)
        return self.raw == other.raw

    def __hash__(self) -> int:
        return hash(self.raw)


set_spec = FieldTuple.__dict__["spec"].__set__
set_raw = FieldTuple.__dict__["raw"].__set__


def fill_reduced(obj: FieldTuple, spec: FieldSpec, *raw) -> FieldTuple:
    """The normalizer of a tuple with no scaling or check: reduce each value."""
    p = spec.p
    set_spec(obj, spec)
    set_raw(obj, tuple([x % p for x in raw]) if p else as_fractions(*raw))
    return obj


def coordinate(i: int) -> property:
    """The read-only property reading ``raw[i]`` as a Scalar."""
    return property(lambda self: wrap(self.spec, self.raw[i]))


def coordinates(start: int, stop: int) -> property:
    """The read-only property reading ``raw[start:stop]`` as a tuple of Scalars."""
    return property(lambda self: tuple([wrap(self.spec, x) for x in self.raw[start:stop]]))


def as_fractions(*raw) -> tuple:
    """The raw rational values as Fractions (ints are converted)."""
    return tuple([x if x.__class__ is Fraction else Fraction(x) for x in raw])


def halve(x: Scalar) -> Scalar:
    """The unique y with 2y = x (total because char != 2)."""
    return wrap(x.spec, x.value * raw_inverse(x.spec, 2))


def _tonelli_shanks(n: int, p: int) -> int:
    """Square root of a known quadratic residue n mod p (p odd prime, n != 0)."""
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    r = pow(n, (q + 1) // 2, p)
    t = pow(n, q, p)
    m = s
    while t != 1:
        i, power = 0, t
        while power != 1:
            power = power * power % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        t = t * b % p * b % p
        c = b * b % p
        m = i
    return r


@lru_cache(maxsize=None)
def _sqrt_table(p: int) -> list:
    """Smallest square roots mod p, built once per p: entry v is the root
    r <= p/2 of v, or None for a non-square."""
    table: list = [None] * p
    for r in range(p // 2, -1, -1):
        table[r * r % p] = r
    return table


def raw_sqrt(spec: FieldSpec, raw):
    """A raw root r with r*r == raw, or None when raw is not a square.

    ``raw`` may be unreduced.  GF(p) returns the smaller of the two roots: a
    table lookup for p <= 101, else the Euler criterion and Tonelli-Shanks.
    Over Q the numerator and denominator must both be perfect integer squares,
    and the root is a Fraction.
    """
    p = spec.p
    if p is None:
        if raw < 0:
            return None
        n, d = raw.numerator, raw.denominator
        rn, rd = isqrt(n), isqrt(d)
        if rn * rn == n and rd * rd == d:
            return Fraction(rn, rd)
        return None
    if p <= _SQRT_TABLE_BOUND:
        return _sqrt_table(p)[raw % p]
    v = raw % p
    if v == 0:
        return 0
    if pow(v, (p - 1) // 2, p) != 1:
        return None
    r = _tonelli_shanks(v, p)
    return min(r, p - r)


def square_root(x: Scalar) -> Scalar | None:
    """A root r with r*r == x, or None when x is not a square in the field.

    The scalar of ``raw_sqrt``: the smaller root over GF(p), from a per-p
    table for p <= 101, a Fraction root over Q.
    """
    r = raw_sqrt(x.spec, x.value)
    return None if r is None else wrap(x.spec, r)


def is_square(x: Scalar) -> bool:
    return square_root(x) is not None
