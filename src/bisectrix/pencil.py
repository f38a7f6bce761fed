"""Pencils of affine conics and their degenerate members.

A pencil is spanned by two independent quadratics f1, f2 (independent:
every nonzero combination keeps degree 2).  The affine net adds constant
shifts.  The reducible members of the net form the asymptotic pencil: the
asymptote pairs of the hyperbolas in the pencil together with the parallel
pairs sharing a midline with a parallel pair in the pencil.

Which net member [alpha : beta : shift] is reducible over the algebraic
closure is governed by a cubic form: the determinant of the symmetric
matrix of the member is linear in the shift, with a quadratic form in
(alpha, beta) as its slope.  Rationality over the ground field is then a
square test on top.
"""

from __future__ import annotations

from itertools import count

from .conic import (
    CROSSING,
    DEGEN_FAMILY,
    DEGEN_UNIQUE,
    HYPERBOLA,
    Degenerations,
    LinePair,
    ParallelFamily,
    Quadratic,
    _det3_times_4,
    _form_roots,
    _quadratic,
    classify,
    degenerations,
    is_reducible,
    points_at_infinity,
    pullback,
)
from .field import (
    FieldSpec,
    FieldTuple,
    Frozen,
    InfiniteFieldError,
    Scalar,
    coordinate,
    coordinates,
    fill_reduced,
    raw_inverse,
    raw_is_zero,
    raw_sqrt,
    same_field,
    wrap,
)
from .geometry import Line, _affine_map

_new = object.__new__


class PencilError(ValueError):
    """A pencil-level precondition was violated."""


class TrivialPencilError(PencilError):
    """The asymptotic pencil consists of same-center degenerate hyperbolas only."""


def are_independent(f1: Quadratic, f2: Quadratic) -> bool:
    """True when no nonzero combination of f1, f2 drops below degree 2."""
    spec = f1.spec
    if f2.spec is not spec:
        same_field(spec, f2.spec)
    a1, b1, c1 = f1.raw[:3]
    a2, b2, c2 = f2.raw[:3]
    return not (
        raw_is_zero(spec, a1 * b2 - a2 * b1)
        and raw_is_zero(spec, a1 * c2 - a2 * c1)
        and raw_is_zero(spec, b1 * c2 - b2 * c1)
    )


def _normalize_coords(coords, spec: FieldSpec, alpha, beta, shift):
    """Fill ``coords`` with [alpha : beta : shift], the first nonzero of
    (alpha, beta) scaled to 1; the one normalizer of net coordinates."""
    p = spec.p
    if p:
        alpha, beta = alpha % p, beta % p
    s = alpha or beta
    if not s:
        raise PencilError("net coordinates need (alpha, beta) != (0, 0)")
    if s != 1:
        k = raw_inverse(spec, s)
        alpha, beta, shift = alpha * k, beta * k, shift * k
    return fill_reduced(coords, spec, alpha, beta, shift)


class NetCoords(FieldTuple):
    """Projective coordinates [alpha : beta : shift] of a net member.

    ``raw`` is (alpha, beta, shift) with the first nonzero of (alpha, beta) 1.
    """

    __slots__ = ()

    _fill = _normalize_coords
    alpha, beta, shift = coordinate(0), coordinate(1), coordinate(2)

    def __repr__(self) -> str:
        return "[{}:{}:{}]".format(*self.raw)


def _coords(spec: FieldSpec, alpha, beta, shift) -> NetCoords:
    """The net coordinates of raw, possibly unreduced, values."""
    return _normalize_coords(_new(NetCoords), spec, alpha, beta, shift)


class Pencil(Frozen):
    """The span of two independent quadratics over one field."""

    __slots__ = ("f1", "f2")

    def __init__(self, f1: Quadratic, f2: Quadratic):
        if not are_independent(f1, f2):
            raise PencilError("pencil generators must be independent")
        super().__init__(f1, f2)

    @property
    def spec(self) -> FieldSpec:
        return self.f1.spec

    def __repr__(self) -> str:
        return f"Pencil({self.f1}, {self.f2})"


def net_member(pencil: Pencil, coords: NetCoords) -> Quadratic:
    """The quadratic alpha*f1 + beta*f2 + shift (degree 2 by independence)."""
    return _net_member(pencil, *coords.raw_in(pencil.spec))


def _net_member(pencil: Pencil, alpha, beta, shift) -> Quadratic:
    """``net_member`` at raw coordinates, built once."""
    raw = [alpha * x + beta * y for x, y in zip(pencil.f1.raw, pencil.f2.raw)]
    raw[5] += shift
    return _quadratic(pencil.spec, *raw)


def net_contains(pencil: Pencil, g: Quadratic) -> NetCoords | None:
    """Coordinates of g in the affine net of the pencil, if g lies in it.

    The five non-constant coefficients give an exact linear system in
    (alpha, beta); the homogeneous parts have rank 2, so the solution is
    unique when it exists, and the shift is read off the constant term.
    """
    spec = pencil.f1.spec
    if g.spec is not spec:
        same_field(spec, g.spec)
    rows1, rows2, target = pencil.f1.raw, pencil.f2.raw, g.raw
    alpha = beta = None
    for i in range(3):
        for j in range(i + 1, 3):
            det = rows1[i] * rows2[j] - rows1[j] * rows2[i]
            if not raw_is_zero(spec, det):
                k = raw_inverse(spec, det)
                alpha = (target[i] * rows2[j] - target[j] * rows2[i]) * k
                beta = (rows1[i] * target[j] - rows1[j] * target[i]) * k
                break
        if alpha is not None:
            break
    if alpha is None:
        raise AssertionError("independent generators must have rank-2 parts")
    for i in range(5):
        if not raw_is_zero(spec, target[i] - alpha * rows1[i] - beta * rows2[i]):
            return None
    shift = target[5] - alpha * rows1[5] - beta * rows2[5]
    return _coords(spec, alpha, beta, shift)


# --- the degeneracy cubic -----------------------------------------------------


def _forms(raw, a, b) -> tuple:
    """(phi, psi), the cubic's shift slope and base, of its ``raw`` at the
    direction (a, b), unreduced: the one evaluator of the two forms."""
    q0, q1, q2, c0, c1, c2, c3 = raw
    bb = b * b
    return (q0 * a + q1 * b) * a + q2 * bb, ((c0 * a + c1 * b) * a + c2 * bb) * a + c3 * bb * b


class DegeneracyCubic(FieldTuple):
    """det of the symmetric member matrix, as a polynomial in the shift.

    For the member with direction (alpha, beta) and constant shift t, the
    determinant equals shift_coeff(alpha, beta) * t + base(alpha, beta);
    shift_coeff is a (never identically zero) quadratic form and base a
    cubic form.  Zeros are exactly the members reducible over the closure.
    ``raw`` is the 3 coefficients of shift_coeff and then the 4 of base,
    reduced, in descending powers of alpha.
    """

    __slots__ = ()

    _fill = fill_reduced
    shift_coeff, base = coordinates(0, 3), coordinates(3, 7)

    def value(self, shift: Scalar, alpha: Scalar, beta: Scalar) -> Scalar:
        if beta.spec is not self.spec:
            same_field(self.spec, beta.spec)
        phi, psi = _forms(self.raw_in(alpha.spec), alpha.value, beta.value)
        if shift.spec is not self.spec:
            same_field(self.spec, shift.spec)
        return wrap(self.spec, phi * shift.value + psi)

    @property
    def shift_coeff_is_zero(self) -> bool:
        return not any(self.raw[:3])


def degeneracy_cubic(pencil: Pencil) -> DegeneracyCubic:
    # 4 det = (4ac - b^2) shift + 4acg + bde - ae^2 - cd^2 - gb^2 at the
    # member alpha f1 + beta f2 + shift, whose coefficients are linear in
    # (alpha, beta): expanded in closed form, then scaled by 1/4 once.  The
    # alpha^3 and beta^3 coefficients are 4 det3 of f1 and of f2.
    spec = pencil.spec
    r1, r2 = pencil.f1.raw, pencil.f2.raw
    a1, b1, c1, d1, e1, g1 = r1
    a2, b2, c2, d2, e2, g2 = r2
    ac, bd = a1 * c2 + a2 * c1, b1 * d2 + b2 * d1
    bb, dd, ee = b1 * b2, d1 * d2, e1 * e2
    quarter = raw_inverse(spec, 4)
    coeffs = (
        4 * a1 * c1 - b1 * b1,
        4 * ac - 2 * bb,
        4 * a2 * c2 - b2 * b2,
        _det3_times_4(r1),
        4 * (a1 * c1 * g2 + ac * g1) + b1 * d1 * e2 + bd * e1
        - a2 * e1 * e1 - c2 * d1 * d1 - g2 * b1 * b1 - 2 * (a1 * ee + c1 * dd + g1 * bb),
        4 * (a2 * c2 * g1 + ac * g2) + b2 * d2 * e1 + bd * e2
        - a1 * e2 * e2 - c1 * d2 * d2 - g1 * b2 * b2 - 2 * (a2 * ee + c2 * dd + g2 * bb),
        _det3_times_4(r2),
    )
    return fill_reduced(_new(DegeneracyCubic), spec, *(x * quarter for x in coeffs))


# --- hyperbola members --------------------------------------------------------


def _rref_rows(spec: FieldSpec, rows: list[list]):
    """Row-reduce a 2x3 matrix of raw values, tracking the combos.

    Returns (pivots, rows, transform) of raw, possibly unreduced, values,
    where transform is the 2x2 matrix R with row i of the reduced matrix
    equal to R[i][0] times the first row given plus R[i][1] times the second.
    """
    R = [[1, 0], [0, 1]]

    def pivot(i: int, j: int) -> None:
        """Scale row i to 1 at column j, then clear column j of the other row."""
        k = raw_inverse(spec, rows[i][j])
        rows[i] = [x * k for x in rows[i]]
        R[i] = [x * k for x in R[i]]
        factor = rows[1 - i][j]
        rows[1 - i] = [x - factor * y for x, y in zip(rows[1 - i], rows[i])]
        R[1 - i] = [x - factor * y for x, y in zip(R[1 - i], R[i])]

    j0 = next(j for j in range(3) if rows[0][j] or rows[1][j])
    if not rows[0][j0]:
        rows.reverse()
        R.reverse()
    pivot(0, j0)
    j1 = next(j for j in range(j0 + 1, 3) if not raw_is_zero(spec, rows[1][j]))
    pivot(1, j1)
    return (j0, j1), rows, R


def find_hyperbolas(pencil: Pencil) -> list[tuple[NetCoords, Quadratic]]:
    """One or two independent hyperbola members of the pencil.

    Constructive: reduce the homogeneous parts to echelon form (swapping the
    variables X and Y when needed, which is an affine change preserving
    classification) and build explicit combinations whose homogeneous parts
    split into two distinct rational directions.  Two members are returned
    whenever the field has more than 3 elements; over GF(3) at least one.
    """
    spec = pencil.spec
    pivots, rows, R = _rref_rows(spec, [list(pencil.f1.raw[:3]), list(pencil.f2.raw[:3])])
    if pivots != (0, 1) and not (pivots == (0, 2) and raw_is_zero(spec, rows[0][1])):
        # Pivots (1, 2), or (0, 2) with an XY term: with X and Y swapped they are
        # (0, 1), and the combos' members keep their classification.
        pivots, rows, R = _rref_rows(spec, [list(pencil.f1.raw[2::-1]),
                                            list(pencil.f2.raw[2::-1])])
    scan = range(1, spec.p) if spec.is_finite else count(1)

    def member(alpha, beta) -> tuple[NetCoords, Quadratic]:
        coords = _coords(spec, alpha, beta, 0)
        return (coords, _net_member(pencil, *coords.raw))

    found: list[tuple[NetCoords, Quadratic]] = []
    if pivots == (0, 1):
        c, cp = rows[0][2], rows[1][2]
        found.append(member(*R[1]))
        for r in scan:
            if raw_is_zero(spec, cp + r) or raw_is_zero(spec, r * r + 2 * cp * r - c):
                continue
            beta = -(r * r + c) * raw_inverse(spec, cp + r)
            found.append(member(*[x + beta * y for x, y in zip(R[0], R[1])]))
            break
    else:
        found.append(member(*[x - y for x, y in zip(R[0], R[1])]))
        for t in scan:
            t2 = t * t
            if raw_is_zero(spec, t2 - 1):
                continue
            found.append(member(*[x - t2 * y for x, y in zip(R[0], R[1])]))
            break

    if len(found) < 2 and spec.is_finite:
        for coords in _directions(spec):
            cand = net_member(pencil, coords)
            if classify(cand).kind != HYPERBOLA:
                continue
            if any(not are_independent(cand, h) for _, h in found):
                continue
            found.append((coords, cand))
            if len(found) == 2:
                break

    for _, h in found:
        if classify(h).kind != HYPERBOLA:
            raise AssertionError("constructed member failed to be a hyperbola")
    if len(found) == 2 and not are_independent(found[0][1], found[1][1]):
        raise AssertionError("constructed hyperbolas are dependent")
    return found


def _constructed_hyperbolas(pencil: Pencil) -> tuple:
    """The ``find_hyperbolas`` members, each with its unique degeneration."""
    out = []
    for coords, h in find_hyperbolas(pencil):
        d = degenerations(h)
        if d.kind != DEGEN_UNIQUE:
            raise AssertionError("hyperbola member must have a unique degeneration")
        out.append((coords, h, d))
    return tuple(out)


def _net_pairs(pencil: Pencil, cubic: DegeneracyCubic) -> tuple:
    """The reducible net members over GF(p), as (coords, pair), each pair once.

    Per direction: a nonzero shift-slope pins the unique shift zeroing the
    determinant; a vanishing slope with vanishing base means every shift
    does (the parallel families); otherwise no member.  Candidates are then
    filtered for rationality over the ground field, on raw values.  The
    slope is -1/4 of the members' b^2 - 4ac: when -4 phi is a non-square
    their homogeneous part has no root, and no shift factors.
    """
    spec, p, raw = pencil.spec, pencil.spec.p, cubic.raw
    out: list[tuple[NetCoords, LinePair]] = []
    seen: set[LinePair] = set()
    for a, b in [(1, t) for t in range(p)] + [(0, 1)]:  # as _directions
        phi, psi = _forms(raw, a, b)
        phi %= p
        if phi:
            if raw_sqrt(spec, -4 * phi) is None:
                continue
            shifts = [-psi * raw_inverse(spec, phi)]
        else:
            shifts = range(p) if psi % p == 0 else ()
        for shift in shifts:
            pair = is_reducible(_net_member(pencil, a, b, shift))
            if pair is not None and pair not in seen:
                seen.add(pair)
                out.append((_coords(spec, a, b, shift), pair))
    return tuple(out)


def _directions(spec: FieldSpec):
    """Pencil directions [1 : t] for t in residue order, then [0 : 1]."""
    for t in range(spec.p):
        yield _coords(spec, 1, t, 0)
    yield _coords(spec, 0, 1, 0)


# --- asymptotic pencils -------------------------------------------------------


class AsymptoticPencil(Frozen):
    """The reducible members of the affine net of a pencil.

    Over a finite field the members are materialized at construction; over
    the rationals the set can be infinite and is represented intensionally
    through membership predicates and the constructed hyperbolas, which are
    built with the pencil and decide triviality, the shared line and the
    quadrilateral.
    """

    __slots__ = ("pencil", "cubic", "_members", "_hyperbolas")

    def __init__(self, pencil: Pencil):
        cubic = degeneracy_cubic(pencil)
        if pencil.spec.is_finite:
            super().__init__(pencil, cubic, _net_pairs(pencil, cubic), None)
        else:
            super().__init__(pencil, cubic, None, _constructed_hyperbolas(pencil))

    @property
    def spec(self) -> FieldSpec:
        return self.pencil.spec

    def members(self) -> tuple[tuple[NetCoords, LinePair], ...]:
        """All reducible net members over a finite field, each pair once."""
        if self._members is None:
            raise InfiniteFieldError(
                "asymptotic pencils over Q are not materialized; "
                "use the contains_pair membership predicate"
            )
        return self._members

    def hyperbolas(self) -> tuple[tuple[NetCoords, Quadratic, Degenerations], ...]:
        """(coords, hyperbola, degeneration) per ``find_hyperbolas`` member.

        Stored over the rationals; over a finite field, where no decision
        reads them, built on each call.
        """
        if self._hyperbolas is None:
            return _constructed_hyperbolas(self.pencil)
        return self._hyperbolas

    def parallel_family(self) -> ParallelFamily | None:
        """The parallel family of a degenerate parabola in the net, if one exists.

        Parabola directions are the zeros of the cubic's shift coefficient;
        such a direction contributes members exactly when the cubic's base
        also vanishes there, and then the member's constant shifts sweep a
        parallel family containing a double line.
        """
        spec, raw = self.spec, self.cubic.raw
        q0, q1, q2 = raw[:3]
        # Zeros [a : b] of the slope q0 a^2 + q1 ab + q2 b^2, solved as roots [b : a].
        for b, a in _form_roots(spec, q2, q1, q0):
            if not raw_is_zero(spec, _forms(raw, a, b)[1]):
                continue
            d = degenerations(_net_member(self.pencil, a, b, 0))
            if d.kind != DEGEN_FAMILY:
                raise AssertionError("zero slope and zero base must give a family")
            return d.family
        return None

    def contains_pair(self, pair: LinePair) -> bool:
        return net_contains(self.pencil, pair.product()) is not None

    def degenerate_hyperbola_pairs(self) -> list[LinePair]:
        """Distinguished crossing members: asymptote pairs of found hyperbolas."""
        return [d.pair for _, _, d in self.hyperbolas()]

    def is_trivial(self) -> bool:
        """Whether every member is a degenerate hyperbola with one shared center.

        Finite fields decide by enumeration; infinite fields by the
        normal-form construction (both paths are cross-checked against each
        other over GF(p) in the test suite).
        """
        if self.spec.is_finite:
            members = self.members()
            centers = {pair.center for _, pair in members if pair.kind == CROSSING}
            if len(centers) != 1:
                return False
            return all(pair.kind == CROSSING for _, pair in members)
        return self.is_trivial_by_construction()

    def is_trivial_by_construction(self) -> bool:
        """Enumeration-free triviality decision, valid when |k| > 3.

        Two distinct asymptote-pair centers settle it.  With a shared
        center, normalize the first pair to the coordinate axes and test
        whether the pencil contains a double line (aX + bY)(cX + dY) vs XY:
        it does exactly when b = 0, d = 0, or ac/bd is a square, and a
        double line or parallel pair is precisely what a trivial pencil
        must not have.
        """
        hyps = self.hyperbolas()
        if len(hyps) < 2:
            raise PencilError("the construction needs two hyperbolas (|k| > 3)")
        pairs = [d.pair for _, _, d in hyps]
        if pairs[0].center != pairs[1].center:
            return False
        if pairs[0].line_set() & pairs[1].line_set():
            return False  # shared component forces a parallel pair in the net
        (x1, y1, _), (x2, y2, _) = [d.raw for d in points_at_infinity(hyps[0][1])]
        cx, cy, _ = pairs[0].center.raw
        # (x, y) -> center + x d1 + y d2 sends the axes onto the first pair.
        axes = _affine_map(self.spec, x1, x2, y1, y2, cx, cy)
        factored = is_reducible(pullback(axes, pairs[1].product()))
        if factored is None:
            raise AssertionError("a transformed line pair must stay reducible")
        (a, b, w1), (c, d, w2) = [line.raw for line in factored.lines()]
        if w1 or w2:
            raise AssertionError("normalized pair must pass through the origin")
        if b == 0 or d == 0:
            return False
        return raw_sqrt(self.spec, a * c * raw_inverse(self.spec, b * d)) is None

    def shared_line(self) -> Line | None:
        """The line shared by all hyperbola members, when two members share one."""
        if self.spec.is_finite:
            counts: dict[Line, int] = {}
            for _, pair in self.members():
                for line in pair.line_set():
                    counts[line] = counts.get(line, 0) + 1
            shared = [line for line, n in counts.items() if n >= 2]
            if not shared:
                return None
            return min(shared, key=Line.sort_key)
        return self.shared_line_by_construction()

    def shared_line_by_construction(self) -> Line | None:
        """Enumeration-free shared-line decision, valid when |k| > 3.

        Two members sharing a line forces every hyperbola member through
        it, so checking the two constructed asymptote pairs suffices.
        """
        hyps = self.hyperbolas()
        if len(hyps) < 2:
            return None
        (_, h1, d1), (_, h2, d2) = hyps
        common = d1.pair.line_set() & d2.pair.line_set()
        if not common:
            return None
        (line,) = common
        # Verify against a third member: the sum of the two exact
        # degenerations is again a net member divisible by the line.
        check = is_reducible(h1.add_constant(d1.shift) + h2.add_constant(d2.shift))
        if check is None or not check.contains_line(line):
            raise AssertionError("shared line failed third-member verification")
        return line


def nets_equal(p1: Pencil, p2: Pencil) -> bool:
    """Whether two pencils span the same affine net (mutual membership)."""
    return (
        net_contains(p1, p2.f1) is not None
        and net_contains(p1, p2.f2) is not None
        and net_contains(p2, p1.f1) is not None
        and net_contains(p2, p1.f2) is not None
    )
