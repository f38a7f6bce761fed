"""Exact scalar arithmetic over the rationals and over prime fields GF(p).

Every value in the library is a :class:`Scalar` tagged with a
:class:`FieldSpec`.  Rationals are arbitrary-precision ``Fraction``s (always
in lowest terms with a positive denominator); GF(p) elements are canonical
residues in ``0..p-1``.  Scalars from different field specs never mix:
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


# GF(p) square roots switch from exhaustive search to Tonelli-Shanks here.
_SQRT_SCAN_BOUND = 101


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


class FieldSpec:
    """Either the rationals (``p is None``) or GF(p) for an odd prime p."""

    __slots__ = ("p",)

    def __init__(self, p: int | None):
        if p is not None:
            if p >= _PRIME_BOUND:
                raise FieldError(
                    f"GF({p}) is not supported: p must be below {_PRIME_BOUND}"
                )
            if p < 3 or not _is_prime(p):
                raise FieldError(f"GF({p}) is not supported: p must be an odd prime >= 3")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("FieldSpec is immutable")

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

    @property
    def zero(self) -> "Scalar":
        return self.scalar(0)

    @property
    def one(self) -> "Scalar":
        return self.scalar(1)

    def elements(self) -> Iterator["Scalar"]:
        """Yield every field element exactly once (finite fields only)."""
        if self.p is None:
            raise InfiniteFieldError("cannot enumerate the rationals: infinite field")
        for v in range(self.p):
            yield Scalar(self, v)


_RATIONALS = FieldSpec(None)


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


class Scalar:
    """An exact element of Q or GF(p), tagged with its field spec.

    Results are built directly through the slot descriptors rather than
    through ``__init__``; ``_operand`` takes scalars of the very same
    ``FieldSpec`` object (``GF`` is cached and ``rationals`` is a singleton)
    on an identity test before any other check.
    """

    __slots__ = ("spec", "value")

    def __init__(self, spec: FieldSpec, value):
        # Callers go through FieldSpec.scalar; value is assumed canonical.
        _set_spec(self, spec)
        _set_value(self, value)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def _operand(self, other):
        """The value of ``other`` in this field, or None for a foreign type."""
        if other.__class__ is Scalar and other.spec is self.spec:
            return other.value
        if isinstance(other, Scalar):
            if other.spec != self.spec:
                raise FieldMismatchError(
                    f"cannot combine {self.spec} scalar with {other.spec} scalar"
                )
            return other.value
        if isinstance(other, int):
            return other % self.spec.p if self.spec.p is not None else Fraction(other)
        return None

    def __add__(self, other):
        v = self._operand(other)
        if v is None:
            return NotImplemented
        p = self.spec.p
        r = _new(Scalar)
        _set_spec(r, self.spec)
        _set_value(r, (self.value + v) % p if p else self.value + v)
        return r

    __radd__ = __add__

    def __sub__(self, other):
        v = self._operand(other)
        if v is None:
            return NotImplemented
        p = self.spec.p
        r = _new(Scalar)
        _set_spec(r, self.spec)
        _set_value(r, (self.value - v) % p if p else self.value - v)
        return r

    def __rsub__(self, other):
        v = self._operand(other)
        if v is None:
            return NotImplemented
        p = self.spec.p
        return Scalar(self.spec, (v - self.value) % p if p else v - self.value)

    def __mul__(self, other):
        v = self._operand(other)
        if v is None:
            return NotImplemented
        p = self.spec.p
        r = _new(Scalar)
        _set_spec(r, self.spec)
        _set_value(r, (self.value * v) % p if p else self.value * v)
        return r

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._operand(other)
        if v is None:
            return NotImplemented
        p = self.spec.p
        if p is None:
            if v == 0:
                raise ZeroDivisionError("division by zero scalar")
            value = self.value / v
        else:
            if v % p == 0:
                raise ZeroDivisionError("division by zero scalar")
            value = (self.value * pow(v, p - 2, p)) % p
        r = _new(Scalar)
        _set_spec(r, self.spec)
        _set_value(r, value)
        return r

    def __rtruediv__(self, other):
        v = self._operand(other)
        if v is None:
            return NotImplemented
        return Scalar(self.spec, v) / self

    def __neg__(self):
        p = self.spec.p
        r = _new(Scalar)
        _set_spec(r, self.spec)
        _set_value(r, (-self.value) % p if p else -self.value)
        return r

    def __pow__(self, exponent: int):
        p = self.spec.p
        if p is not None:
            if exponent < 0:
                return (self.spec.one / self) ** (-exponent)
            return Scalar(self.spec, pow(self.value, exponent, p))
        return Scalar(self.spec, self.value ** exponent)

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


def halve(x: Scalar) -> Scalar:
    """The unique y with 2y = x (total because char != 2)."""
    p = x.spec.p
    r = _new(Scalar)
    _set_spec(r, x.spec)
    _set_value(r, x.value / 2 if p is None else (x.value * ((p + 1) // 2)) % p)
    return r


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


def square_root(x: Scalar) -> Scalar | None:
    """A root r with r*r == x, or None when x is not a square in the field.

    GF(p) uses the Euler criterion, then exhaustive search for p <= 101 and
    Tonelli-Shanks above; the smaller of the two roots is returned.  Over Q
    the numerator and denominator must both be perfect integer squares.
    """
    spec = x.spec
    if spec.p is None:
        f: Fraction = x.value
        if f < 0:
            return None
        rn, rd = isqrt(f.numerator), isqrt(f.denominator)
        if rn * rn == f.numerator and rd * rd == f.denominator:
            return Scalar(spec, Fraction(rn, rd))
        return None
    p = spec.p
    v = x.value
    if v == 0:
        return spec.zero
    if pow(v, (p - 1) // 2, p) != 1:
        return None
    if p <= _SQRT_SCAN_BOUND:
        for r in range(1, p // 2 + 1):
            if r * r % p == v:
                return Scalar(spec, r)
        raise AssertionError("unreachable: Euler criterion said square")
    r = _tonelli_shanks(v, p)
    return Scalar(spec, min(r, p - r))


def is_square(x: Scalar) -> bool:
    return square_root(x) is not None


def enumerate_field(spec: FieldSpec) -> list[Scalar]:
    """All elements of a finite field, as a list in residue order."""
    return list(spec.elements())
