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

from .conic import (
    CROSSING,
    DEGEN_UNIQUE,
    HYPERBOLA,
    LinePair,
    Quadratic,
    _quadratic,
    classify,
    degenerations,
    is_reducible,
    linear_combination,
    points_at_infinity,
    pullback,
)
from .field import (
    FieldSpec,
    Frozen,
    InfiniteFieldError,
    Scalar,
    is_square,
    raw_inverse,
    raw_is_zero,
    same_field,
    wrap,
)
from .geometry import AffineMap, Line, _affine_map


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


class NetCoords(Frozen):
    """Projective coordinates [alpha : beta : shift] of a net member."""

    __slots__ = ("alpha", "beta", "shift")

    def __init__(self, alpha: Scalar, beta: Scalar, shift: Scalar):
        spec = alpha.spec
        if not (beta.spec is spec is shift.spec):
            same_field(spec, beta.spec)
            same_field(spec, shift.spec)
        s = alpha.value if alpha.value != 0 else beta.value
        if s == 0:
            raise PencilError("net coordinates need (alpha, beta) != (0, 0)")
        if s != 1:
            k = raw_inverse(spec, s)
            alpha = wrap(spec, alpha.value * k)
            beta = wrap(spec, beta.value * k)
            shift = wrap(spec, shift.value * k)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "shift", shift)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NetCoords):
            return NotImplemented
        return (self.alpha == other.alpha and self.beta == other.beta
                and self.shift == other.shift)

    def __hash__(self) -> int:
        return hash((self.alpha, self.beta, self.shift))

    def __repr__(self) -> str:
        return f"[{self.alpha}:{self.beta}:{self.shift}]"


class Pencil(Frozen):
    """The span of two independent quadratics over one field."""

    __slots__ = ("f1", "f2")

    def __init__(self, f1: Quadratic, f2: Quadratic):
        if f1.spec != f2.spec:
            raise PencilError("pencil generators must share a field")
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
    spec = pencil.spec
    if coords.alpha.spec is not spec:
        same_field(coords.alpha.spec, spec)
    return _net_member(pencil, coords.alpha.value, coords.beta.value, coords.shift.value)


def _net_member(pencil: Pencil, alpha, beta, shift) -> Quadratic:
    """``net_member`` at raw coordinates, built once."""
    raw = [alpha * x + beta * y for x, y in zip(pencil.f1.raw, pencil.f2.raw)]
    raw[5] += shift
    return _quadratic(pencil.spec, *raw)


def combination(pencil: Pencil, alpha: Scalar, beta: Scalar) -> Quadratic:
    return linear_combination([(alpha, pencil.f1), (beta, pencil.f2)])


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
    return NetCoords(wrap(spec, alpha), wrap(spec, beta), wrap(spec, shift))


# --- the degeneracy cubic -----------------------------------------------------


def _lin_mul(l1, l2):
    """(p0 U + p1 V)(q0 U + q1 V) as quadratic coefficients."""
    return (l1[0] * l2[0], l1[0] * l2[1] + l1[1] * l2[0], l1[1] * l2[1])


def _quad_lin_mul(q, l):
    """Quadratic times linear, as cubic coefficients."""
    return (
        q[0] * l[0],
        q[0] * l[1] + q[1] * l[0],
        q[1] * l[1] + q[2] * l[0],
        q[2] * l[1],
    )


class DegeneracyCubic(Frozen):
    """det of the symmetric member matrix, as a polynomial in the shift.

    For the member with direction (alpha, beta) and constant shift t, the
    determinant equals shift_coeff(alpha, beta) * t + base(alpha, beta);
    shift_coeff is a (never identically zero) quadratic form and base a
    cubic form.  Zeros are exactly the members reducible over the closure.
    """

    __slots__ = ("spec", "shift_coeff", "base")

    def shift_coeff_at(self, alpha: Scalar, beta: Scalar) -> Scalar:
        a, b = _direction_values(self.spec, alpha, beta)
        q0, q1, q2 = [x.value for x in self.shift_coeff]
        return wrap(self.spec, (q0 * a + q1 * b) * a + q2 * b * b)

    def base_at(self, alpha: Scalar, beta: Scalar) -> Scalar:
        a, b = _direction_values(self.spec, alpha, beta)
        c0, c1, c2, c3 = [x.value for x in self.base]
        return wrap(self.spec, ((c0 * a + c1 * b) * a + c2 * b * b) * a + c3 * b * b * b)

    def value(self, shift: Scalar, alpha: Scalar, beta: Scalar) -> Scalar:
        spec = self.spec
        if shift.spec is not spec:
            same_field(spec, shift.spec)
        phi, psi = self.shift_coeff_at(alpha, beta), self.base_at(alpha, beta)
        return wrap(spec, phi.value * shift.value + psi.value)

    @property
    def shift_coeff_is_zero(self) -> bool:
        return all(x.is_zero for x in self.shift_coeff)


def _direction_values(spec: FieldSpec, alpha: Scalar, beta: Scalar):
    if not (alpha.spec is spec is beta.spec):
        same_field(spec, alpha.spec)
        same_field(spec, beta.spec)
    return alpha.value, beta.value


def degeneracy_cubic(pencil: Pencil) -> DegeneracyCubic:
    # The entries of the symmetric member matrix, linear in (alpha, beta), as
    # pairs of raw values; the forms below are expanded on those values.
    spec = pencil.spec
    f1, f2 = pencil.f1, pencil.f2
    half = raw_inverse(spec, 2)
    a1, b1, c1, d1, e1, g1 = f1.raw
    a2, b2, c2, d2, e2, g2 = f2.raw
    e00 = (a1, a2)
    e01 = (b1 * half, b2 * half)
    e02 = (d1 * half, d2 * half)
    e11 = (c1, c2)
    e12 = (e1 * half, e2 * half)
    e22 = (g1, g2)

    shift_coeff = _lin_mul(e00, e11)
    minus = _lin_mul(e01, e01)
    shift_coeff = [x - y for x, y in zip(shift_coeff, minus)]

    base = [0] * 4

    def add(sign: int, l1, l2, l3):
        cubic = _quad_lin_mul(_lin_mul(l1, l2), l3)
        for i in range(4):
            base[i] = base[i] + cubic[i] if sign > 0 else base[i] - cubic[i]

    add(+1, e00, e11, e22)
    add(-1, e00, e12, e12)
    add(-1, e01, e01, e22)
    add(+1, e01, e02, e12)
    add(+1, e01, e02, e12)
    add(-1, e02, e02, e11)
    return DegeneracyCubic(spec, tuple(wrap(spec, x) for x in shift_coeff),
                           tuple(wrap(spec, x) for x in base))


# --- hyperbola members --------------------------------------------------------


def _swap_pullback(f: Quadratic) -> Quadratic:
    return pullback(_affine_map(f.spec, 0, 1, 1, 0, 0, 0), f)


def _scan_values(spec: FieldSpec):
    if spec.is_finite:
        for v in range(1, spec.p):
            yield spec.scalar(v)
    else:
        v = 1
        while True:
            yield spec.scalar(v)
            v += 1


def _rref_rows(pencil: Pencil):
    """Row-reduce the homogeneous 2x3 coefficient matrix, tracking the combos.

    Returns (pivots, rows, transform) where transform is the 2x2 matrix R
    with row i of the reduced matrix equal to R[i][0]*f1 + R[i][1]*f2.
    """
    spec = pencil.spec
    rows = [list(pencil.f1.homogeneous_part()), list(pencil.f2.homogeneous_part())]
    R = [[spec.one, spec.zero], [spec.zero, spec.one]]

    j0 = next(j for j in range(3) if not (rows[0][j].is_zero and rows[1][j].is_zero))
    if rows[0][j0].is_zero:
        rows.reverse()
        R.reverse()
    inv = spec.one / rows[0][j0]
    rows[0] = [x * inv for x in rows[0]]
    R[0] = [x * inv for x in R[0]]
    factor = rows[1][j0]
    rows[1] = [x - factor * y for x, y in zip(rows[1], rows[0])]
    R[1] = [x - factor * y for x, y in zip(R[1], R[0])]

    j1 = next(j for j in range(j0 + 1, 3) if not rows[1][j].is_zero)
    inv = spec.one / rows[1][j1]
    rows[1] = [x * inv for x in rows[1]]
    R[1] = [x * inv for x in R[1]]
    factor = rows[0][j1]
    rows[0] = [x - factor * y for x, y in zip(rows[0], rows[1])]
    R[0] = [x - factor * y for x, y in zip(R[0], R[1])]
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
    pivots, rows, R = _rref_rows(pencil)

    def member(coeffs) -> tuple[NetCoords, Quadratic]:
        coords = NetCoords(coeffs[0], coeffs[1], spec.zero)
        return (coords, combination(pencil, coords.alpha, coords.beta))

    found: list[tuple[NetCoords, Quadratic]] = []
    if pivots == (0, 1):
        c, cp = rows[0][2], rows[1][2]
        found.append(member(R[1]))
        for r in _scan_values(spec):
            if (cp + r).is_zero or (r * r + 2 * cp * r - c).is_zero:
                continue
            beta = -(r * r + c) / (cp + r)
            found.append(member([x + beta * y for x, y in zip(R[0], R[1])]))
            break
    elif pivots == (0, 2) and rows[0][1].is_zero:
        found.append(member([x - y for x, y in zip(R[0], R[1])]))
        for t in _scan_values(spec):
            t2 = t * t
            if t2 == spec.one:
                continue
            found.append(member([x - t2 * y for x, y in zip(R[0], R[1])]))
            break
    else:
        swapped = Pencil(_swap_pullback(pencil.f1), _swap_pullback(pencil.f2))
        return [
            (coords, net_member(pencil, coords))
            for coords, _ in find_hyperbolas(swapped)
        ]

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


def _directions(spec: FieldSpec):
    """Pencil directions [1 : t] for t in residue order, then [0 : 1]."""
    one, zero = spec.one, spec.zero
    for t in spec.elements():
        yield NetCoords(one, t, zero)
    yield NetCoords(zero, one, zero)


# --- asymptotic pencils -------------------------------------------------------


class AsymptoticPencil(Frozen):
    """The reducible members of the affine net of a pencil.

    Over a finite field the members are materialized; over the rationals the
    set can be infinite and is represented intensionally through membership
    predicates and finitely many distinguished members.
    """

    __slots__ = ("pencil", "_cubic", "_members")

    def __init__(self, pencil: Pencil):
        super().__init__(pencil, None, None)

    @property
    def spec(self) -> FieldSpec:
        return self.pencil.spec

    @property
    def cubic(self) -> DegeneracyCubic:
        if self._cubic is None:
            object.__setattr__(self, "_cubic", degeneracy_cubic(self.pencil))
        return self._cubic

    def members(self) -> tuple[tuple[NetCoords, LinePair], ...]:
        """All reducible net members over a finite field, each pair once.

        Per direction: a nonzero shift-slope pins the unique shift zeroing
        the determinant; a vanishing slope with vanishing base means every
        shift does (the parallel families); otherwise no member.  Candidates
        are then filtered for rationality over the ground field.  The
        members are computed once, on raw values, and shared as a tuple.
        """
        if not self.spec.is_finite:
            raise InfiniteFieldError(
                "asymptotic pencils over Q are not materialized; "
                "use contains_quadratic/contains_pair membership predicates"
            )
        if self._members is not None:
            return self._members
        spec, p = self.spec, self.spec.p
        q0, q1, q2 = [x.value for x in self.cubic.shift_coeff]
        c0, c1, c2, c3 = [x.value for x in self.cubic.base]
        out: list[tuple[NetCoords, LinePair]] = []
        seen: set[LinePair] = set()
        for a, b in [(1, t) for t in range(p)] + [(0, 1)]:  # as _directions
            phi = ((q0 * a + q1 * b) * a + q2 * b * b) % p
            psi = ((c0 * a + c1 * b) * a + c2 * b * b) * a + c3 * b * b * b
            if phi:
                shifts = [-psi * raw_inverse(spec, phi)]
            else:
                shifts = range(p) if psi % p == 0 else ()
            for shift in shifts:
                pair = is_reducible(_net_member(self.pencil, a, b, shift))
                if pair is not None and pair not in seen:
                    seen.add(pair)
                    coords = NetCoords(wrap(spec, a), wrap(spec, b), wrap(spec, shift))
                    out.append((coords, pair))
        object.__setattr__(self, "_members", tuple(out))
        return self._members

    def contains_quadratic(self, g: Quadratic) -> NetCoords | None:
        coords = net_contains(self.pencil, g)
        if coords is None:
            return None
        return coords if is_reducible(g) is not None else None

    def contains_pair(self, pair: LinePair) -> bool:
        return net_contains(self.pencil, pair.product()) is not None

    def degenerate_hyperbola_pairs(self) -> list[LinePair]:
        """Distinguished crossing members: asymptote pairs of found hyperbolas."""
        out = []
        for _, h in find_hyperbolas(self.pencil):
            d = degenerations(h)
            if d.kind != DEGEN_UNIQUE:
                raise AssertionError("hyperbola member must have a unique degeneration")
            if d.pair not in out:
                out.append(d.pair)
        return out

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
        hyps = find_hyperbolas(self.pencil)
        if len(hyps) < 2:
            raise PencilError("the construction needs two hyperbolas (|k| > 3)")
        pairs = [degenerations(h).pair for _, h in hyps]
        if pairs[0].center != pairs[1].center:
            return False
        if pairs[0].line_set() & pairs[1].line_set():
            return False  # shared component forces a parallel pair in the net
        ctr = pairs[0].center
        d1, d2 = points_at_infinity(hyps[0][1])
        det = d1.x * d2.y - d2.x * d1.y
        mapping = AffineMap.linear(d2.y / det, -d2.x / det, -d1.y / det, d1.x / det)
        cx, cy = ctr.affine_xy()
        mapping = mapping.compose(AffineMap.translation(-cx, -cy))
        moved = pullback(mapping.inverse(), pairs[1].product())
        factored = is_reducible(moved)
        if factored is None:
            raise AssertionError("a transformed line pair must stay reducible")
        l1, l2 = factored.lines()
        if not (l1.w.is_zero and l2.w.is_zero):
            raise AssertionError("normalized pair must pass through the origin")
        a, b = l1.u, l1.v
        c, d = l2.u, l2.v
        if b.is_zero or d.is_zero:
            return False
        return not is_square((a * c) / (b * d))

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
        pairs = self.degenerate_hyperbola_pairs()
        if len(pairs) < 2:
            return None
        common = pairs[0].line_set() & pairs[1].line_set()
        if not common:
            return None
        (line,) = common
        # Verify against a third member: the sum of the two exact
        # degenerations is again a net member divisible by the line.
        hyps = find_hyperbolas(self.pencil)
        degs = [h.add_constant(degenerations(h).shift) for _, h in hyps]
        third = degs[0] + degs[1]
        check = is_reducible(third)
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
