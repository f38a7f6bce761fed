"""Brute-force verification of every constructive claim over small prime fields.

Each check id names one claim; its checker re-derives the claim's content by
enumeration or randomized sampling with a fixed seed and compares against
the library's computed answers through an independent route wherever one
exists (e.g. reducibility is certified against a precomputed table of all
line-pair products, and bisection is recomputed from raw line-line
intersections).  Reports carry replayable witnesses; a failed report always
carries at least one counterexample.
"""

from __future__ import annotations

import json
import random
import time
from functools import cache
from itertools import combinations, product
from math import isqrt

from .bisector import (
    BisectorError,
    Involution,
    bisects_set,
    classify_trivial_arrangement,
    desargues_involution,
    is_bisector_arrangement,
    pair_through_line,
    NONTRIVIAL,
)
from .conic import (
    CROSSING,
    DEGEN_FAMILY,
    DEGEN_NONE,
    DEGEN_UNIQUE,
    DOUBLE,
    HYPERBOLA,
    PARALLEL,
    LinePair,
    Quadratic,
    classify,
    degenerations,
    is_reducible,
    pullback,
    restrict_to_line,
)
from .field import FieldSpec, Frozen, InfiniteFieldError, square_root
from .geometry import AffineMap, Line, Midpoint, ProjectivePoint, _line
from .pencil import (
    AsymptoticPencil,
    NetCoords,
    Pencil,
    are_independent,
    degeneracy_cubic,
    find_hyperbolas,
    net_contains,
    net_member,
    _directions,
)
from .quad import (
    Quadrilateral,
    QuadrilateralError,
    bisects_quadrilateral,
    pencil_of,
    quadrilateral_of,
    validate,
    vertices,
)
from .textforms import (
    format_line_triple,
    format_pair,
    format_quadratic_triple,
)


class OracleError(ValueError):
    """A check was requested outside its supported domain."""


class BudgetError(OracleError):
    """A check refused because one of its tables would pass the size bound."""


# check id -> (checker, description, default count or None for exhaustive),
# filled by ``_check`` in the order of the checkers below.
_CHECKS: dict[str, tuple] = {}


def _check(check_id: str, description: str, count: int | None = None):
    """Register the decorated checker; ``count=None`` makes it exhaustive."""
    def register(checker):
        _CHECKS[check_id] = (checker, description, count)
        return checker
    return register


class Policy(Frozen):
    """Sampling policy: exhaustive, or randomized with a seed and count."""

    __slots__ = ("kind", "seed", "count")

    def __init__(self, kind: str, seed: int = 0, count: int = 0):
        super().__init__(kind, seed, count)

    @classmethod
    def exhaustive(cls) -> "Policy":
        return cls("exhaustive")

    @classmethod
    def randomized(cls, count: int, seed: int = 0) -> "Policy":
        return cls("randomized", seed=seed, count=count)

    def to_json(self):
        if self.kind == "exhaustive":
            return {"kind": "exhaustive"}
        return {"kind": "randomized", "seed": self.seed, "count": self.count}


class Report(Frozen):
    """Outcome of one check run.

    The witnesses are kept as JSON text, so no caller can change a report
    through them: ``witnesses`` and ``to_json`` each decode a fresh copy.
    """

    __slots__ = ("check", "field", "policy", "verdict", "witness_json", "wall_time")

    def __init__(self, check, field, policy, verdict, witnesses, wall_time):
        if verdict == "fail" and not witnesses:
            raise AssertionError("a failed report needs a counterexample witness")
        super().__init__(check, field, policy, verdict, json.dumps(witnesses), wall_time)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def witnesses(self) -> tuple:
        return tuple(json.loads(self.witness_json))

    def to_json(self, include_wall_time: bool = False):
        out = {
            "check": self.check,
            "description": CHECK_DESCRIPTIONS[self.check],
            "field": self.field,
            "policy": self.policy.to_json(),
            "verdict": self.verdict,
            "witnesses": json.loads(self.witness_json),
        }
        if include_wall_time:
            out["wall_time_seconds"] = self.wall_time
        return out


def default_policy(check_id: str) -> Policy:
    count = _CHECKS[check_id][2]
    return Policy.exhaustive() if count is None else Policy.randomized(count)


# --- enumeration and tables ---------------------------------------------------

# One size bound for every exhaustive structure: past p = 19 one would take
# minutes and gigabytes (at GF(101) a 10,302 x 10,302 line table, about 10^10
# quadratics), so its builder refuses with BudgetError, exit 3 in the CLI.
FIELD_BOUND = 19
EXPANDED_SET_LIMIT = 200_000  # maximal sets expanded, p^6 of them: GF(7) has 155,036


def _within_bound(spec: FieldSpec, size: int, what: str) -> None:
    if spec.p > FIELD_BOUND:
        raise BudgetError(f"{size:,} {what} over {spec.name}: past the bound p <= {FIELD_BOUND}")


@cache
def enumerate_lines(spec: FieldSpec) -> list[Line]:
    """All p^2 + p affine lines over GF(p), canonically scaled, each once."""
    if not spec.is_finite:
        raise InfiniteFieldError("cannot enumerate lines over an infinite field")
    one, zero = spec.one, spec.zero
    lines = [Line(one, v, w) for v in spec.elements() for w in spec.elements()]
    return lines + [Line(zero, one, w) for w in spec.elements()]


@cache
def enumerate_line_pairs(spec: FieldSpec) -> list[LinePair]:
    """All unordered pairs of lines, doubles included."""
    lines = enumerate_lines(spec)
    n = len(lines)
    _within_bound(spec, n * (n + 1) // 2, "line pairs")
    pairs = [LinePair(l, l) for l in lines]
    return pairs + [LinePair(a, b) for a, b in combinations(lines, 2)]


@cache
def reducible_table(spec: FieldSpec) -> dict:
    """Canonical coefficient tuple of every line-pair product -> its pair.

    This is the independent reducibility oracle: membership in the table is
    reducibility over GF(p), with the factorization attached.  Keys are int
    tuples, the form of ``Quadratic.key`` and ``quadratic_keys``.
    """
    return {pair.product().canonical().key(): pair for pair in enumerate_line_pairs(spec)}


def _heads(spec: FieldSpec, length: int):
    """The first ``length`` int coefficients (a, b, c, d, e, g) of every quadratic over
    GF(p) up to scalar, each once, in order; the first nonzero is 1, in a, b or c.  The
    oracle's one quadratic enumeration: only those handed to the library become objects."""
    if not spec.is_finite:
        raise InfiniteFieldError("cannot enumerate quadratics over an infinite field")
    p = spec.p
    _within_bound(spec, p**5 + p**4 + p**3, "quadratic classes")
    return ((0,) * lead + (1,) + tail
            for lead in range(3) for tail in product(range(p), repeat=length - 1 - lead))


@cache
def quadratic_keys(spec: FieldSpec) -> list[tuple[int, ...]]:
    """Every quadratic over GF(p) up to scalar, as int tuples (a, b, c, d, e, g)."""
    return list(_heads(spec, 6))


def enumerate_quadratics(spec: FieldSpec) -> list[Quadratic]:
    """All quadratics over GF(p) up to scalar, in ``quadratic_keys`` order."""
    return [Quadratic.from_ints(spec, key) for key in quadratic_keys(spec)]


# --- integer kernels ----------------------------------------------------------
#
# The brute-force scans below work on int coefficient tuples mod p, not on
# Scalar objects.  They are the oracle's own route: conic.mid, the
# zero-at-infinity count and the vertex test are re-derived here in ints,
# and the library is called only on the instances under test.

# Per-line demands besides a finite midpoint, which is an int >= 0.  The
# arrangement engine and the midpoint kernel share them.
_FREE, _INF, _CONFLICT = -1, -2, -3


def _infinity_directions(key: tuple[int, ...], p: int) -> int:
    """How many of the p + 1 directions [1:0], [t:1] the quadratic vanishes at."""
    a, b, c = key[0], key[1], key[2]
    return (a == 0) + sum((a * t * t + b * t + c) % p == 0 for t in range(p))


def _int_center(key: tuple[int, ...], p: int) -> tuple[int, int, int]:
    """A hyperbola's center, the zero of its gradient, as a raw affine point (x, y, 1)."""
    a, b, c, d, e = key[:5]
    k = pow(b * b - 4 * a * c, -1, p)
    return ((2 * c * d - b * e) * k % p, (2 * a * e - b * d) * k % p, 1)


def _through_points(keys: list[tuple[int, ...]], points, p: int) -> list[tuple[int, ...]]:
    """The keys of the quadratics that vanish at every affine int point (x, y)."""
    for x, y in points:
        xx, xy, yy = x * x % p, x * y % p, y * y % p
        keys = [k for k in keys
                if (k[0] * xx + k[1] * xy + k[2] * yy + k[3] * x + k[4] * y + k[5]) % p == 0]
    return keys


def _through_vertices(spec: FieldSpec, points) -> list[tuple[int, ...]]:
    """``_through_points`` of four affine points, no three collinear.  Two of them
    differ in y, and with (a, b, c, d) fixed, passing through both pins e, then g:
    one candidate per head (a, b, c, d)."""
    two = [(s, t) for s, t in combinations(points, 2) if s[1] != t[1]]
    assert two, "four points, no three collinear, do not all share one y"
    (x1, y1), (x2, y2) = two[0]
    p = spec.p
    k = pow(y1 - y2, -1, p)
    found = []
    for a, b, c, d in _heads(spec, 4):
        q1 = a * x1 * x1 + b * x1 * y1 + c * y1 * y1 + d * x1
        e = (a * x2 * x2 + b * x2 * y2 + c * y2 * y2 + d * x2 - q1) * k % p
        found.append((a, b, c, d, e, -(q1 + e * y1) % p))
    return _through_points(found, [v for v in points if v not in two[0]], p)


def _net_keys(pencil: Pencil) -> list[tuple[int, ...]]:
    """The (p + 1) * p net members alpha f1 + beta f2 + shift as int tuples.

    Directions [1:t] for t in residue order, then [0:1]; shifts in residue
    order within each direction, the order of ``_directions`` and
    ``spec.elements()``.
    """
    p = pencil.spec.p
    f1, f2 = pencil.f1.key(), pencil.f2.key()
    out = []
    for alpha, beta in [(1, t) for t in range(p)] + [(0, 1)]:
        a, b, c, d, e, g = ((alpha * x + beta * y) % p for x, y in zip(f1, f2))
        out += [(a, b, c, d, e, (g + lam) % p) for lam in range(p)]
    return out


class _Crossings:
    """``conic.mid`` in ints on every line of GF(p).

    ``frames[i]`` is line i's parameterization t -> (bx + t dx, by + t dy)
    in ints, in ``enumerate_lines`` order, by the library's convention: base
    (0, -w/v), or (-w, 0) on a vertical line, and direction (-v, u).
    A midpoint is the crossing midpoint's parameter t >= 0, _INF for an
    infinite one, or _FREE when the line does not cross (it misses the
    conic, or meets it without crossing): a member that is not crossed
    imposes nothing, as in the arrangement engine's demands.
    """

    def __init__(self, spec: FieldSpec):
        p = self.p = spec.p
        self.lines = enumerate_lines(spec)
        _within_bound(spec, len(self.lines), "kernel lines")
        self.frames = [(0, -w * pow(v, -1, p) % p, -v % p, u) if v else (-w % p, 0, 0, u)
                       for u, v, w in (line.raw for line in self.lines)]
        squares = {x * x % p for x in range(p)}
        self.is_square = [x in squares for x in range(p)]
        self.half_inverse = [0] + [pow(2 * x, -1, p) for x in range(1, p)]

    def crossings(self, keys: list[tuple[int, ...]], i: int) -> set[int]:
        """The distinct midpoints -B/2A of the quadratics that line i crosses,
        restricted as A t^2 + B t + C.  Consecutive keys with one head (a, ..., e)
        share A, B and C - g: a run computes them once and stops at its first
        crossed key, or at once when its midpoint is already in the set."""
        bx, by, dx, dy = self.frames[i]
        p, is_square, out, head, done = self.p, self.is_square, set(), None, True
        for key in keys:
            if key[:5] != head:
                head = key[:5]
                a, b, c, d, e = head
                A = (a * dx * dx + b * dx * dy + c * dy * dy) % p
                B = ((2 * a * bx + b * by + d) * dx + (b * bx + 2 * c * by + e) * dy) % p
                if not A:
                    if B:
                        out.add(_INF)
                    done = True
                    continue
                mid = -B * self.half_inverse[A] % p
                done = mid in out
                # B^2 - 4AC with C = C0 + g.
                disc = B * B - 4 * A * (a * bx * bx + b * bx * by + c * by * by + d * bx + e * by)
            if not done and is_square[(disc - 4 * A * key[5]) % p]:
                out.add(mid)
                done = True
        return out

    def meets(self, key: tuple[int, ...], i: int) -> bool:
        """Whether line i meets the closure of the conic: A = 0, or B^2 - 4AC
        is a square (with A = 0 it is B^2)."""
        bx, by, dx, dy = self.frames[i]
        a, b, c, d, e, g = key
        A = a * dx * dx + b * dx * dy + c * dy * dy
        B = (2 * a * bx + b * by + d) * dx + (b * bx + 2 * c * by + e) * dy
        C = a * bx * bx + b * bx * by + c * by * by + d * bx + e * by + g
        return self.is_square[(B * B - 4 * A * C) % self.p]

    def midpoint(self, m: Midpoint, i: int) -> int:
        """A library midpoint on line i in the same words; undetermined is _FREE."""
        if m.is_finite:
            return self.lines[i].param_of(m.point).value
        return _INF if m.is_infinite else _FREE


_crossings = cache(_Crossings)


# --- randomized generators ----------------------------------------------------


def _rand_quadratic(rng: random.Random, spec: FieldSpec) -> Quadratic:
    while True:
        coeffs = [rng.randrange(spec.p) for _ in range(6)]
        if coeffs[0] or coeffs[1] or coeffs[2]:
            return Quadratic.from_ints(spec, coeffs)


def _rand_pencil(rng: random.Random, spec: FieldSpec) -> Pencil:
    while True:
        f1, f2 = _rand_quadratic(rng, spec), _rand_quadratic(rng, spec)
        if are_independent(f1, f2):
            return Pencil(f1, f2)


def _nth_line(spec: FieldSpec, r: int) -> Line:
    """``enumerate_lines(spec)[r]``, built without the list."""
    p = spec.p
    return _line(spec, 1, r // p, r % p) if r < p * p else _line(spec, 0, 1, r - p * p)


def _rand_line(rng: random.Random, spec: FieldSpec) -> Line:
    """A uniform line, drawn as ``enumerate_lines(spec)[r]``."""
    p = spec.p
    return _nth_line(spec, rng.randrange(p * p + p))


def _rand_pair(rng: random.Random, spec: FieldSpec) -> LinePair:
    """A uniform line pair, drawn as ``enumerate_line_pairs(spec)[r]`` without
    the list: the n doubles, then ``combinations`` order, whose row i (the
    pairs (i, j) with j > i) starts at i (2n - i - 1) / 2."""
    p = spec.p
    n = p * p + p
    r = rng.randrange(n * (n + 1) // 2)
    if r < n:
        i = j = r
    else:
        r -= n
        # The root bound can overshoot the row by one.
        i = (2 * n - 1 - isqrt((2 * n - 1) ** 2 - 8 * r)) // 2
        if i * (2 * n - i - 1) // 2 > r:
            i -= 1
        j = r - i * (2 * n - i - 1) // 2 + i + 1
    return LinePair(_nth_line(spec, i), _nth_line(spec, j))


def _rand_reducible_pencil(rng: random.Random, spec: FieldSpec) -> Pencil:
    while True:
        f1 = _rand_pair(rng, spec).product()
        f2 = _rand_pair(rng, spec).product()
        if are_independent(f1, f2):
            return Pencil(f1, f2)


def _rand_nontrivial_ap(rng: random.Random, spec: FieldSpec) -> AsymptoticPencil:
    while True:
        ap = AsymptoticPencil(_rand_pencil(rng, spec))
        if not ap.is_trivial():
            return ap


def _rand_quadrilateral(rng: random.Random, spec: FieldSpec) -> Quadrilateral:
    while True:
        try:
            return validate(_rand_pair(rng, spec), _rand_pair(rng, spec))
        except QuadrilateralError:
            continue


# --- the integer arrangement engine -------------------------------------------


class _Plane:
    """The oracle's one arrangement test, on line and pair ids over GF(p).

    Line ids index ``enumerate_lines`` and pair ids ``enumerate_line_pairs``.
    ``param[i][j]`` is the parameter on line i (``_Crossings.frames``) of
    its crossing with line j, or None when the lines are parallel or equal.
    The demand of pair k on line i is the midpoint of i's two crossings with
    it: _FREE when i misses both or is a line of pair k, _INF when i misses
    one, else the residue t1 + t2 (twice the midpoint parameter; halving is
    one to one, so equal residues mean equal midpoints).

    A state holds one merged demand per line for a set of pairs: _FREE,
    _INF, a finite residue, or _CONFLICT once two pairs disagree.  The set
    is an arrangement when none of its own lines is in conflict.
    """

    def __init__(self, spec: FieldSpec):
        self.spec, self.p = spec, spec.p
        self.lines = enumerate_lines(spec)
        _within_bound(spec, len(self.lines), "engine lines")
        self.pairs = enumerate_line_pairs(spec)
        # Line j = (u, v, w) meets line i at t = -(u bx + v by + w) / (u dx + v dy).
        p, raws = self.p, [line.raw for line in self.lines]
        inverse = self.inverse = [None] + [pow(x, -1, p) for x in range(1, p)]
        self.param = []
        for bx, by, dx, dy in _crossings(spec).frames:
            row = []
            for u, v, w in raws:
                den = (u * dx + v * dy) % p
                row.append(-(u * bx + v * by + w) * inverse[den] % p if den else None)
            self.param.append(row)
        ids = {raw: i for i, raw in enumerate(raws)}
        self.pair_lines = [(ids[pr.first.raw], ids[pr.second.raw]) for pr in self.pairs]
        n = len(self.lines)
        self.pair_id = [[0] * n for _ in range(n)]
        for k, (i, j) in enumerate(self.pair_lines):
            self.pair_id[i][j] = self.pair_id[j][i] = k

    def line_id(self, u: int, v: int, w: int) -> int:
        """The id of uX + vY + w = 0 (ints): v'p + w' as (1, v', w'), else p^2 + w'."""
        p, inverse, u = self.p, self.inverse, u % self.p
        return v * inverse[u] % p * p + w * inverse[u] % p if u else p * p + w * inverse[v % p] % p

    def pair_of(self, pair: LinePair) -> int:
        return self.pair_id[self.line_id(*pair.first.raw)][self.line_id(*pair.second.raw)]

    def state(self, pair_ids) -> tuple[list[int], list[int]]:
        """The merged state of the pairs and their line ids, each once."""
        state, lines = [_FREE] * len(self.lines), []
        for k in pair_ids:
            state, lines = self.grow(state, lines, k)
        return state, lines

    def grow(self, state: list[int], lines: list[int], k: int) -> tuple[list[int], list[int]]:
        """The state and line ids with pair k merged in."""
        return self.add(state, k), lines + [i for i in dict.fromkeys(self.pair_lines[k])
                                            if i not in lines]

    def demand(self, i: int, k: int) -> int:
        j1, j2 = self.pair_lines[k]
        if i == j1 or i == j2:
            return _FREE
        row = self.param[i]
        t1, t2 = row[j1], row[j2]
        if t1 is None:
            return _FREE if t2 is None else _INF
        if t2 is None:
            return _INF
        return (t1 + t2) % self.p

    def add(self, state: list[int], k: int) -> list[int]:
        """The state with pair k merged into every line's demand."""
        out = list(state)
        for i, s in enumerate(out):
            d = self.demand(i, k)
            if d != _FREE and s != d:
                out[i] = d if s == _FREE else _CONFLICT
        return out

    def open_pairs(self, state: list[int]) -> list[int]:
        """The pair ids, ascending, with neither line in conflict: ``extends``
        rejects every other pair at its first test.  Doubles come first, then
        pairs i < j in lexicographic order, as ``enumerate_line_pairs``."""
        open_lines, pair_id = [i for i, s in enumerate(state) if s != _CONFLICT], self.pair_id
        return [pair_id[i][i] for i in open_lines] + [
            pair_id[i][j] for i, j in combinations(open_lines, 2)]

    def extends(self, state: list[int], lines: list[int], k: int) -> bool:
        """Whether adding pair k to the arrangement (state, lines) keeps it one.

        ``lines`` are the line ids of the arrangement; pair k constrains
        those, and its own two lines must not already be in conflict.
        """
        j1, j2 = self.pair_lines[k]
        if state[j1] == _CONFLICT or state[j2] == _CONFLICT:
            return False
        for i in lines:
            s = state[i]
            if s == _FREE:
                continue
            d = self.demand(i, k)
            if s == _CONFLICT or (d != _FREE and d != s):
                return False
        return True

    def permutations(self, *maps) -> list[list[int]]:
        """Line-id permutations, by pulling lines back, of affine maps given as int
        entries (m11, m12, m21, m22, t1, t2): (m11 x + m12 y + t1, m21 x + ...)."""
        return [[self.line_id(u * m11 + v * m21, u * m12 + v * m22, u * t1 + v * t2 + w)
                 for u, v, w in (line.raw for line in self.lines)]
                for m11, m12, m21, m22, t1, t2 in maps]

    @cache
    def affine_generators(self) -> list[list[int]]:
        """Permutations of maps generating AGL(2,p): (x+1, y), (x+y, y),
        (y, x) and (a x, y) for a = 2 .. p-1; built once per plane."""
        return self.permutations((1, 0, 0, 1, 1, 0), (1, 1, 0, 1, 0, 0), (0, 1, 1, 0, 0, 0),
                                 *[(a, 0, 0, 1, 0, 0) for a in range(2, self.p)])

    @cache
    def stabilizer_generators(self) -> list[list[list[int]]]:
        """Per normal form, in ``normal_forms`` order, maps generating its stabilizer
        in AGL(2,p), a = 2 .. p-1: {X=0, Y=0}: (y, x), (a x, y), (x, a y); {Y=0, Y=1}:
        (x+1, y), (x+y, y), (a x, y), (x, 1-y); Y=0 doubled: the same but (x, a y)."""
        xs = [(a, 0, 0, 1, 0, 0) for a in range(2, self.p)]
        ys = [(1, 0, 0, a, 0, 0) for a in range(2, self.p)]
        moves = [(1, 0, 0, 1, 1, 0), (1, 1, 0, 1, 0, 0), *xs]
        return [self.permutations((0, 1, 1, 0, 0, 0), *xs, *ys),
                self.permutations(*moves, (1, 0, 0, -1, 0, 1)),
                self.permutations(*moves, *ys)]

    def normal_forms(self) -> list[int]:
        """The pair ids of {X=0, Y=0}, {Y=0, Y=1} and Y=0 doubled: an affine map
        sends one line of any pair to Y=0, and the other to X=0, Y=1 or Y=0."""
        x0, y0, y1 = self.line_id(1, 0, 0), self.line_id(0, 1, 0), self.line_id(0, 1, -1)
        return [self.pair_id[a][b] for a, b in ((x0, y0), (y0, y1), (y0, y0))]

    def pair_permutation(self, perm: list[int]) -> list[int]:
        """The permutation of pair ids that a line-id permutation induces."""
        return [self.pair_id[perm[i]][perm[j]] for i, j in self.pair_lines]


_plane = cache(_Plane)


# --- checkers -----------------------------------------------------------------
#
# Every checker is a generator: it yields one witness dict per counterexample
# and returns its list of pass witnesses.  ``run_check`` alone decides the
# verdict and how many counterexamples a report keeps.


def _pencil_witness(pencil: Pencil) -> dict:
    return {"f1": format_quadratic_triple(pencil.f1),
            "f2": format_quadratic_triple(pencil.f2)}


@_check("prop-2.2",
        "degeneration taxonomy: hyperbolas one, parallel families share a midline, else none")
def _check_prop_2_2(spec, policy, rng):
    table = reducible_table(spec)
    p = spec.p
    elems = list(spec.elements())
    counts = {"unique": 0, "family": 0, "none": 0}
    # The p classes of one head (a, ..., e) are its shifts g, and f + lam stays
    # canonical, as the leading 1 is in a, b or c: one head's shifts are looked
    # up, and its directions at infinity, center and pairs read, once.
    for head in _heads(spec, 5):
        shifts = {g: pair for g in range(p) if (pair := table.get(head + (g,))) is not None}
        pairs, n_inf = set(shifts.values()), _infinity_directions(head, p)
        if n_inf == 2:
            kind, ctr = "unique", _int_center(head, p)
            g0, pair0 = next(iter(shifts.items())) if len(shifts) == 1 else (None, None)
        elif n_inf == 1 and shifts:
            kind, midlines = "family", {pair.midline for pair in pairs}
            parallel = len(midlines) == 1 and all(q.kind in (PARALLEL, DOUBLE) for q in pairs)
        else:
            kind = "none"
        counts[kind] += p
        for g in range(p):
            f = Quadratic.from_ints(spec, head + (g,))
            d = degenerations(f)
            if kind == "unique":  # the one shift lam = g0 - g
                ok = (
                    pair0 is not None and d.kind == DEGEN_UNIQUE and pair0 == d.pair
                    and d.pair.kind == CROSSING and d.pair.center.raw == ctr
                    and (g0 - g) % p == d.shift.value
                )
            elif kind == "family":
                ok = (
                    parallel and d.kind == DEGEN_FAMILY and d.family.midline in midlines
                    and {d.family.pair_at(r) for r in elems} == pairs
                )
            else:
                ok = (n_inf == 1 or not shifts) and d.kind == DEGEN_NONE
            if not ok:
                yield {"quadratic": format_quadratic_triple(f)}
    return [{"classes_checked": sum(counts.values()), **counts}]


@_check("prop-3.4",
        "every pencil contains a hyperbola; two independent ones when |k| > 3", count=500)
def _check_prop_3_4(spec, policy, rng):
    need = 2 if spec.p > 3 else 1
    for _ in range(policy.count):
        pencil = _rand_pencil(rng, spec)
        hyps = find_hyperbolas(pencil)
        ok = len(hyps) >= need
        for _, h in hyps:
            ok = ok and _infinity_directions(h.key(), spec.p) == 2
        if len(hyps) == 2:
            ok = ok and are_independent(hyps[0][1], hyps[1][1])
        if not ok:
            yield _pencil_witness(pencil)
    witnesses = [{"pencils_checked": policy.count, "minimum_required": need}]
    if spec.p == 3:
        tight = _example_3_6_pencil(spec)
        n_hyp = sum(
            1 for c in _directions(spec)
            if classify(net_member(tight, c)).kind == HYPERBOLA
        )
        if n_hyp != 1:
            yield {"tight-witness": _pencil_witness(tight)}
        else:
            witnesses.append({"bound_attained_by": _pencil_witness(tight)})
    return witnesses


def _example_3_6_pencil(spec) -> Pencil:
    return Pencil(
        Quadratic.from_ints(spec, (1, 0, 0, 0, 1, 0)),   # x^2 + y
        Quadratic.from_ints(spec, (0, 1, 1, 0, 0, 0)),   # x*y + y^2
    )


@_check("cor-3.5",
        "every asymptotic pencil contains a degenerate hyperbola; two when |k| > 3", count=500)
def _check_cor_3_5(spec, policy, rng):
    need = 2 if spec.p > 3 else 1
    for _ in range(policy.count):
        ap = AsymptoticPencil(_rand_pencil(rng, spec))
        crossing = [p for _, p in ap.members() if p.kind == CROSSING]
        if len(crossing) < need:
            yield _pencil_witness(ap.pencil)
    witnesses = [{"pencils_checked": policy.count, "minimum_required": need}]
    if spec.p == 3:
        ap = AsymptoticPencil(_example_3_6_pencil(spec))
        if len(ap.members()) != 1:
            yield {"tight-witness": _pencil_witness(ap.pencil)}
        else:
            witnesses.append({"bound_attained_by": _pencil_witness(ap.pencil)})
    return witnesses


@_check("example-3.6", "the tight GF(3) pencil with a single-member asymptotic pencil")
def _check_example_3_6(spec, policy, rng):
    if spec.p != 3:
        raise OracleError("example-3.6 is specific to GF(3)")
    pencil = _example_3_6_pencil(spec)
    table = reducible_table(spec)
    members = {(c.alpha.value, c.beta.value): net_member(pencil, c) for c in _directions(spec)}
    if len(members) != 4:
        yield {"member_classes": len(members)}
    want = {
        (1, 0): ("parabola", False),
        (0, 1): ("hyperbola", True),
        (1, 1): ("parabola", False),
        (1, 2): ("ellipse", False),
    }
    for key, (kind, degenerate) in want.items():
        cls = classify(members[key])
        if (cls.kind, cls.degenerate) != (kind, degenerate):
            yield {"direction": list(key), "got": repr(cls)}
    # The mixed member is (y + 2x)^2 + y, expanded mod 3.
    if members[(1, 1)] != Quadratic.from_ints(spec, (4, 4, 1, 0, 1, 0)):
        yield {"mixed_member": format_quadratic_triple(members[(1, 1)])}
    a, b, c, d, e, g = members[(1, 2)].raw
    zeros = [(x, y) for x in range(3) for y in range(3)  # sorted, as GF(3) pairs
             if (a * x * x + b * x * y + c * y * y + d * x + e * y + g) % 3 == 0]
    if zeros != [(0, 0), (0, 1), (1, 1), (1, 2)]:
        yield {"ellipse_zero_set": zeros}
    ap = AsymptoticPencil(pencil)
    pairs = [pair for _, pair in ap.members()]
    brute_pairs = set()
    for coords in _directions(spec):
        for lam in spec.elements():
            g = net_member(pencil, NetCoords(coords.alpha, coords.beta, lam))
            hit = table.get(g.canonical().key())
            if hit is not None:
                brute_pairs.add(hit)
    own = is_reducible(members[(0, 1)])
    if not (len(pairs) == 1 and brute_pairs == {pairs[0]} and pairs[0] == own):
        yield {
            "asymptotic_members": [format_pair(p) for p in pairs],
            "brute_members": [format_pair(p) for p in sorted(brute_pairs, key=LinePair.sort_key)],
        }
    return [{
        "member_classes": 4,
        "asymptotic_member": format_pair(pairs[0]),
        "ellipse_zero_set": [list(z) for z in zeros],
    }]


@_check("prop-3.7-delta",
        "closure-reducibility of net members matches the degeneracy cubic", count=200)
def _check_prop_3_7(spec, policy, rng):
    # Every pencil is checked on all its (p+1)·p net members, one per line,
    # on ints: det3 by 4·det3 over 4, the cubic by its raw coefficients.
    p = spec.p
    _within_bound(spec, (p + 1) * p, "net members per pencil")
    quarter = pow(4, -1, p)
    directions = [(1, t) for t in range(p)] + [(0, 1)]  # as _net_keys
    for _ in range(policy.count):
        pencil = _rand_pencil(rng, spec)
        cubic = degeneracy_cubic(pencil)
        q0, q1, q2, c0, c1, c2, c3 = cubic.raw
        ok = not cubic.shift_coeff_is_zero
        for n, key in enumerate(_net_keys(pencil)):
            (x, y), lam = directions[n // p], n % p
            slope = q0 * x * x + q1 * x * y + q2 * y * y
            base = c0 * x * x * x + c1 * x * x * y + c2 * x * y * y + c3 * y * y * y
            via_cubic = (slope * lam + base) % p
            a, b, c, d, e, g = key
            direct = (4 * a * c * g + b * d * e - a * e * e - c * d * d - g * b * b) * quarter % p
            # A member off the cubic's zeros must not factor.
            if direct != via_cubic or (
                via_cubic and is_reducible(Quadratic.from_ints(spec, key)) is not None
            ):
                ok = False
                break
        if not ok:
            yield _pencil_witness(pencil)
    return [{"pencils_checked": policy.count}]


@_check("prop-4.3-construction",
        "same-center pairs admit a double line iff the square condition holds", count=200)
def _check_prop_4_3(spec, policy, rng):
    solvable = unsolvable = 0
    one, zero = spec.one, spec.zero

    def rand_direction():
        t = rng.randrange(spec.p + 1)
        if t == spec.p:
            return ProjectivePoint.at_infinity(zero, one)
        return ProjectivePoint.at_infinity(one, spec.scalar(t))

    for _ in range(policy.count):
        cx, cy = (spec.scalar(rng.randrange(spec.p)) for _ in range(2))
        d1 = rand_direction()
        d2 = rand_direction()
        while d2 == d1:
            d2 = rand_direction()
        # Redraw the second pair until it differs from the first, so every
        # requested instance is checked.
        while True:
            d3 = rand_direction()
            d4 = rand_direction()
            while d4 == d3:
                d4 = rand_direction()
            if {d1, d2} != {d3, d4}:
                break

        def line_through_center(d):
            return Line(d.y, -d.x, d.x * cy - d.y * cx)

        pair2 = LinePair(line_through_center(d3), line_through_center(d4))
        det = d1.x * d2.y - d2.x * d1.y
        lin = AffineMap.linear(d2.y / det, -d2.x / det, -d1.y / det, d1.x / det)
        # The translation sends the center to the origin: t = -lin (cx, cy).
        tx, ty = -(lin.m11 * cx + lin.m12 * cy), -(lin.m21 * cx + lin.m22 * cy)
        mapping = AffineMap(lin.m11, lin.m12, lin.m21, lin.m22, tx, ty)
        factor = is_reducible(pullback(mapping.inverse(), pair2.product()))
        l1, l2 = factor.lines()
        a, b, c, d = l1.u, l1.v, l2.u, l2.v
        xy = Quadratic(zero, one, zero, zero, zero, zero)
        prod = factor.product()
        if (b * d).is_zero:
            alpha = -(a * d + b * c) / (a * c)
            beta = one / (a * c)
            e, f = one, zero
        else:
            theta = square_root((a * c) / (b * d))
            if theta is None:
                # No double line may exist anywhere in the pencil then.
                norm = Pencil(xy, prod)
                for coords in _directions(spec):
                    red = is_reducible(net_member(norm, coords))
                    if red is not None and red.kind == DOUBLE:
                        yield {"pair": format_pair(pair2), "issue": "unexpected double line"}
                        break
                unsolvable += 1
                continue
            alpha = (2 * b * d * theta - a * d - b * c) / (b * d)
            beta = one / (b * d)
            e, f = theta, one
        member = xy.scale(alpha) + prod.scale(beta)
        square = Quadratic(e * e, 2 * e * f, f * f, zero, zero, zero)
        red = is_reducible(member)
        if not (member == square and red is not None and red.kind == DOUBLE):
            yield {"pair": format_pair(pair2), "member": format_quadratic_triple(member)}
        solvable += 1
    return [{"solvable": solvable, "unsolvable": unsolvable}]


@_check("lemma-3.2",
        "any two independent net members regenerate the same asymptotic pencil", count=100)
def _check_lemma_3_2(spec, policy, rng):
    for _ in range(policy.count):
        pencil = _rand_pencil(rng, spec)
        base = {pair for _, pair in AsymptoticPencil(pencil).members()}
        picked = []
        while len(picked) < 2:
            alpha = spec.scalar(rng.randrange(spec.p))
            beta = spec.scalar(rng.randrange(spec.p))
            if alpha.is_zero and beta.is_zero:
                continue
            lam = spec.scalar(rng.randrange(spec.p))
            g = net_member(pencil, NetCoords(alpha, beta, lam))
            if not picked:
                picked.append(g)
            elif are_independent(picked[0], g):
                picked.append(g)
        other = {pair for _, pair in AsymptoticPencil(Pencil(*picked)).members()}
        if base != other:
            yield _pencil_witness(pencil)
    return [{"pencils_checked": policy.count}]


@_check("lemma-3.3",
        "dependent reducible members are parallel pairs sharing a midline", count=100)
def _check_lemma_3_3(spec, policy, rng):
    for _ in range(policy.count):
        ap = AsymptoticPencil(_rand_pencil(rng, spec))
        entries = ap.members()
        ok = True
        for (_, p1), (_, p2) in combinations(entries, 2):
            h1 = p1.product().homogeneous_part()
            h2 = p2.product().homogeneous_part()
            dependent = (
                (h1[0] * h2[1] - h2[0] * h1[1]).is_zero
                and (h1[0] * h2[2] - h2[0] * h1[2]).is_zero
                and (h1[1] * h2[2] - h2[1] * h1[2]).is_zero
            )
            parallel_shared = (
                p1.kind in (PARALLEL, DOUBLE)
                and p2.kind in (PARALLEL, DOUBLE)
                and p1.midline == p2.midline
            )
            if dependent != parallel_shared:
                ok = False
                break
        if not ok:
            yield _pencil_witness(ap.pencil)
    return [{"pencils_checked": policy.count}]


@_check("lemma-4.5",
        "two members sharing a line forces all crossing members through it", count=100)
def _check_lemma_4_5(spec, policy, rng):
    shared_seen = 0
    for k in range(policy.count):
        if k % 2 == 0:
            shared = _rand_line(rng, spec)
            while True:
                m1, m2 = _rand_line(rng, spec), _rand_line(rng, spec)
                if (not m1.is_parallel_to(shared) and not m2.is_parallel_to(shared)
                        and not m1.is_parallel_to(m2)):
                    break
            pencil = Pencil(LinePair(shared, m1).product(),
                            LinePair(shared, m2).product())
        else:
            pencil = _rand_pencil(rng, spec)
        ap = AsymptoticPencil(pencil)
        members = [pair for _, pair in ap.members()]
        counts: dict[Line, int] = {}
        for pair in members:
            for line in pair.line_set():
                counts[line] = counts.get(line, 0) + 1
        common = [l for l, n in counts.items() if n >= 2]
        found = ap.shared_line()
        ok = True
        if common:
            shared_seen += 1
            ok = found is not None and counts.get(found, 0) >= 2
            for pair in members:
                if pair.kind == CROSSING and not pair.contains_line(found):
                    ok = False
            if ok and any(p.kind != CROSSING for p in members):
                ok = any(
                    p.kind in (PARALLEL, DOUBLE) and p.contains_line(found)
                    for p in members
                )
        else:
            ok = found is None
        if not ok:
            yield _pencil_witness(pencil)
    return [{"pencils_checked": policy.count, "with_shared_line": shared_seen}]


@_check("prop-4.6",
        "nontrivial asymptotic pencils come from quadrilaterals (round trip)", count=200)
def _check_prop_4_6(spec, policy, rng):
    for _ in range(policy.count):
        ap = _rand_nontrivial_ap(rng, spec)
        try:
            q = quadrilateral_of(ap)
        except (AssertionError, QuadrilateralError) as exc:
            yield {**_pencil_witness(ap.pencil), "error": str(exc)}
            continue
        regenerated = AsymptoticPencil(pencil_of(q))
        ok = {p for _, p in regenerated.members()} == {p for _, p in ap.members()}
        if spec.p > 3:
            ok = ok and not q.degenerate
        if not ok:
            yield _pencil_witness(ap.pencil)
    return [{"pencils_checked": policy.count}]


@_check("lemma-5.2",
        "bisecting the generators equals being a component of a reducible member", count=100)
def _check_lemma_5_2(spec, policy, rng):
    kernel = _crossings(spec)
    checked = 0
    for _ in range(policy.count):
        pencil = _rand_reducible_pencil(rng, spec)
        checked += 1
        generators = [pencil.f1.key(), pencil.f2.key()]
        for i, line in enumerate(kernel.lines):
            bisects = len(kernel.crossings(generators, i)) <= 1
            by_algebra = pair_through_line(line, pencil)
            ok = bisects == (by_algebra is not None)
            if ok and by_algebra is not None:
                ok = (
                    by_algebra.pair.contains_line(line)
                    and net_contains(pencil, by_algebra.pair.product()) is not None
                )
            if not ok:
                yield {**_pencil_witness(pencil), "line": format_line_triple(line)}
                break
    return [{"pencils_checked": checked, "lines_each": len(kernel.lines)}]


@_check("thm-5.4", "a bisector of the generators bisects every net member it crosses", count=100)
def _check_thm_5_4(spec, policy, rng):
    kernel = _crossings(spec)
    bisector_cases = 0
    checked = 0
    for _ in range(policy.count):
        pencil = _rand_pencil(rng, spec)
        checked += 1
        members = _net_keys(pencil)
        k1, k2 = pencil.f1.key(), pencil.f2.key()
        for i, line in enumerate(kernel.lines):
            if not (kernel.meets(k1, i) and kernel.meets(k2, i)):
                continue
            m = bisects_set(line, [pencil.f1, pencil.f2])
            if m is None:
                continue
            bisector_cases += 1
            # Every crossed member must have m's midpoint; none may be
            # crossed when m is undetermined.
            if not kernel.crossings(members, i) <= {kernel.midpoint(m, i)}:
                yield {**_pencil_witness(pencil), "line": format_line_triple(line)}
                break
    return [{"pencils_checked": checked, "bisector_cases": bisector_cases}]


@_check("cor-5.5", "bisecting a quadrilateral equals bisecting its whole net", count=30)
def _check_cor_5_5(spec, policy, rng):
    kernel = _crossings(spec)
    checked = 0
    for _ in range(policy.count):
        q = _rand_quadrilateral(rng, spec)
        checked += 1
        members = _net_keys(pencil_of(q))
        for i, line in enumerate(kernel.lines):
            lhs = bisects_quadrilateral(line, q)
            crossings = kernel.crossings(members, i)
            if lhs is None:
                ok = len(crossings) > 1
            else:
                ok = crossings == {kernel.midpoint(lhs, i)} - {_FREE}
            if not ok:
                yield {"pairs": format_pair(q.first) + "|" + format_pair(q.second),
                       "line": format_line_triple(line)}
                break
    return [{"quadrilaterals_checked": checked, "lines_each": len(kernel.lines)}]


@_check("cor-5.6",
        "a bisector of a quadrilateral bisects every conic through its vertices", count=20)
def _check_cor_5_6(spec, policy, rng):
    kernel = _crossings(spec)
    checked = attempts = 0
    while checked < policy.count and attempts < 100 * policy.count:
        attempts += 1
        q = _rand_quadrilateral(rng, spec)
        vs = vertices(q)
        if any(v.is_infinite for v in vs) or len(set(vs)) != 4:
            continue
        checked += 1
        points = [(v.x.value, v.y.value) for v in vs]
        through = _through_vertices(spec, points)
        for i, line in enumerate(kernel.lines):
            m = bisects_quadrilateral(line, q)
            if m is None:
                continue
            # The crossed conics agree, on m's midpoint when m has one.
            crossings = kernel.crossings(through, i)
            if len(crossings) > 1 or (
                not m.is_undetermined and crossings != {kernel.midpoint(m, i)}
            ):
                yield {"pairs": format_pair(q.first) + "|" + format_pair(q.second),
                       "line": format_line_triple(line)}
                break
    return [{"quadrilaterals_checked": checked}]


@_check("cor-5.7", "the crossing involution is order 2 and member-independent", count=50)
def _check_cor_5_7(spec, policy, rng):
    done = attempts = 0
    while done < policy.count and attempts < 200 * policy.count:
        attempts += 1
        pencil = _rand_pencil(rng, spec)
        line = _rand_line(rng, spec)
        try:
            inv = desargues_involution(pencil, line)
        except BisectorError:
            continue
        done += 1
        ok = True
        for t in [None] + list(spec.elements()):
            twice = inv.apply(inv.apply(t))
            if (twice is None) != (t is None) or (t is not None and twice != t):
                ok = False
        conditions = []
        for coords in _directions(spec):
            g = net_member(pencil, coords)
            A, B, C = restrict_to_line(g, line)
            if A.is_zero and B.is_zero and C.is_zero:
                continue
            conditions.append((B, -A, C))
            if not inv.conjugates_restriction(A, B, C):
                ok = False
            if not A.is_zero:
                root = square_root(B * B - 4 * A * C)
                if root is not None:
                    t1 = (-B + root) / (2 * A)
                    t2 = (-B - root) / (2 * A)
                    if inv.apply(t1) != t2:
                        ok = False
            elif not B.is_zero:
                if inv.apply(-C / B) is not None:
                    ok = False
        refits = 0
        for (_, v1), (_, v2) in combinations(enumerate(conditions), 2):
            p = v1[1] * v2[2] - v1[2] * v2[1]
            q = v1[2] * v2[0] - v1[0] * v2[2]
            r = v1[0] * v2[1] - v1[1] * v2[0]
            if p.is_zero and q.is_zero and r.is_zero:
                continue
            if Involution(p, q, r) != inv:
                ok = False
            refits += 1
            if refits >= 3:
                break
        if not ok:
            yield {**_pencil_witness(pencil), "line": format_line_triple(line)}
    return [{"instances": done}]


@_check("lemma-6.2",
        "extensions of a two-pair arrangement are pinned by one of their lines", count=200)
def _check_lemma_6_2(spec, policy, rng):
    plane = _plane(spec)
    pairs = plane.pairs
    nlines = len(plane.lines)
    found = instances = 0
    attempts = 0
    while instances < policy.count and attempts < 500 * policy.count:
        attempts += 1
        k1 = rng.randrange(len(pairs))
        k2 = rng.randrange(len(pairs))
        base = [pairs[k1], pairs[k2]]
        if k1 == k2 or classify_trivial_arrangement(base) != NONTRIVIAL:
            continue
        # Any two pairs form an arrangement: each line sees only the other pair.
        state, lines = plane.state((k1, k2))
        extenders = [k for k in plane.open_pairs(state)
                     if k != k1 and k != k2 and plane.extends(state, lines, k)]
        for k in extenders:
            pinned = False
            partner_lists = {}
            for i in plane.pair_lines[k]:
                row = plane.pair_id[i]
                partners = [j for j in range(nlines) if state[j] != _CONFLICT
                            and plane.extends(state, lines, row[j])]
                partner_lists[i] = partners
                if len(partners) == 1:
                    if row[partners[0]] != k:
                        raise AssertionError("unique partner must recover the pair")
                    pinned = True
                    break
            if not pinned:
                # Confirm through the honest midpoint path before reporting:
                # the base, the extension, and each listed partner pair must
                # truly be bisector arrangements.
                honest = is_bisector_arrangement(base + [pairs[k]]).ok and all(
                    is_bisector_arrangement(base + [pairs[plane.pair_id[i][j]]]).ok
                    for i, js in partner_lists.items() for j in js
                )
                yield {
                    "arrangement": format_pair(base[0]) + "|" + format_pair(base[1]),
                    "extension": format_pair(pairs[k]),
                    "partner_counts": {
                        format_line_triple(plane.lines[i]): len(js)
                        for i, js in partner_lists.items()
                    },
                    "confirmed_by_midpoint_path": honest,
                }
                found += 1
            instances += 1
            if instances >= policy.count or found >= 5:
                break
        if found >= 5:
            break
    return [{"extension_instances": instances}]


def _orbit(perms: list[list[int]], members: frozenset[int]) -> set[frozenset[int]]:
    """The images of a set of pair ids under the group the permutations generate."""
    orbit, todo = {members}, [members]
    while todo:
        s = todo.pop()
        for perm in perms:
            image = frozenset([perm[k] for k in s])
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


def _seeds(plane: _Plane) -> list[tuple[int, int]]:
    """The nontrivial {A, R}, A a normal form and R one pair id per orbit of its stabilizer."""
    pairs, seeds = plane.pairs, []
    for a, gens in zip(plane.normal_forms(), plane.stabilizer_generators()):
        perms, covered = [plane.pair_permutation(g) for g in gens], {a}
        for r in range(len(pairs)):
            if r not in covered:
                covered |= {k for (k,) in _orbit(perms, frozenset([r]))}
                if classify_trivial_arrangement([pairs[a], pairs[r]]) == NONTRIVIAL:
                    seeds.append((a, r))
    return seeds


def _maximal_orbits(spec: FieldSpec) -> list[tuple[tuple[int, ...], int]]:
    """The AGL(2,p) orbits of maximal nontrivial bisector arrangements, as sorted
    (canonical pair-id tuple, orbit size), none expanded.

    A maximal M holds a nontrivial {P, Q}; an affine g maps P to a normal form A,
    some h fixing A maps gQ to its orbit's representative R, and hgM (maximal, as
    affine maps keep midpoints and triviality) holds the seed {A, R}.  Below each
    ``_seeds`` entry, branch-and-exclude (the excluded set of Bron and Kerbosch,
    Comm. ACM 16, 1973) finds every maximal set holding it: a node S with candidates
    C (the pairs extending S, ascending) and excluded pairs X branches on the first
    k in C into S + k, C and X filtered by ``extends``, and S with k moved to X.
    Arrangements are hereditary, so S is maximal when C and X are empty, and an S ∪ C
    that is an arrangement is the one maximal set below S unless an x in X extends it.
    The s u, s in Stab(A0) = {(ax, by), (by, ax)}, u sending a crossing member of M
    to A0 = {X=0, Y=0}, are the maps sending a pair of M to A0; |Stab(M)| of them
    reach the least image, M's canonical form: its orbit has |AGL(2,p)| / |Stab(M)|."""
    plane = _plane(spec)
    extends, grow, pair_lines = plane.extends, plane.grow, plane.pair_lines
    results = set()  # sorted pair-id tuples
    for seed in _seeds(plane):
        state, lines = plane.state(seed)
        cands = [k for k in plane.open_pairs(state) if k not in seed and extends(state, lines, k)]
        stack = [(seed, state, lines, cands, [])]
        while stack:
            members, state, lines, cands, excluded = stack.pop()
            whole = state, lines
            for k in cands:  # is S ∪ C an arrangement?
                if not extends(*whole, k):
                    break
                whole = grow(*whole, k)
            else:
                if not any(extends(*whole, x) for x in excluded):
                    results.add(tuple(sorted(members + tuple(cands))))
                continue
            stack.append((members, state, lines, cands[1:], excluded + cands[:1]))
            state, lines = grow(state, lines, cands[0])
            stack.append((members + (cands[0],), state, lines,
                          [c for c in cands[1:] if extends(state, lines, c)],
                          [x for x in excluded if extends(state, lines, x)]))
    p, pair_id = spec.p, plane.pair_id
    stab = plane.permutations(*[m for a in range(1, p) for b in range(1, p)  # S0: (ax, by)
                                for m in ((a, 0, 0, b, 0, 0), (0, b, a, 0, 0, 0))])  # (by, ax)
    orbits = {}
    for members in results:
        lines = [pair_lines[k] for k in members]
        to_a0 = []  # pulling back by (L1, L2) takes X=0, Y=0 to L1, L2; inverted, to A0
        for i, j in lines:
            (u1, v1, w1), (u2, v2, w2) = plane.lines[i].raw, plane.lines[j].raw
            if (u1 * v2 - u2 * v1) % p:
                pulled = plane.permutations((u1, v1, u2, v2, w1, w2))[0]
                to_a0.append(sorted(range(len(pulled)), key=pulled.__getitem__))
        assert to_a0, "every maximal set holds a crossing pair"
        images = [tuple(sorted(pair_id[s[u[i]]][s[u[j]]] for i, j in lines))
                  for u in to_a0 for s in stab]
        best = min(images)
        orbits[best] = p * p * (p * p - 1) * (p * p - p) // images.count(best)
    return sorted(orbits.items())


def _expanded_sets(spec: FieldSpec, reps) -> list[list[LinePair]]:
    """The sets in the orbits of pair-id sets, each as pairs by ``LinePair.sort_key``, sorted."""
    plane = _plane(spec)
    perms = [plane.pair_permutation(g) for g in plane.affine_generators()]
    by_key = sorted(range(len(plane.pairs)), key=lambda k: plane.pairs[k].sort_key())
    rank = {k: r for r, k in enumerate(by_key)}
    ranked = sorted(tuple(sorted(rank[k] for k in s))
                    for rep in reps for s in _orbit(perms, frozenset(rep)))
    return [[plane.pairs[by_key[r]] for r in s] for s in ranked]


def exhaustive_maximal_arrangements(spec: FieldSpec) -> list[frozenset[LinePair]]:
    """Every maximal nontrivial bisector arrangement over GF(p), sorted: the expanded
    ``_maximal_orbits``, refused past EXPANDED_SET_LIMIT sets before any is built."""
    orbits = _maximal_orbits(spec)
    if (total := sum(size for _, size in orbits)) > EXPANDED_SET_LIMIT:
        raise BudgetError(f"{total:,} maximal arrangements over {spec.name} exceed "
                          f"the expansion limit of {EXPANDED_SET_LIMIT:,}")
    return [frozenset(s) for s in _expanded_sets(spec, [rep for rep, _ in orbits])]


def _is_asymptotic_pencil(pairs: list[LinePair]) -> bool:
    """Whether the pairs are all members of the nontrivial asymptotic pencil
    that their first two independent products span."""
    for pa, pb in combinations(pairs, 2):
        if are_independent(pa.product(), pb.product()):
            ap = AsymptoticPencil(Pencil(pa.product(), pb.product()))
            return {p for _, p in ap.members()} == set(pairs) and not ap.is_trivial()
    return False


@_check("thm-6.3",
        "asymptotic pencils are exactly the maximal nontrivial arrangements", count=100)
def _check_thm_6_3(spec, policy, rng):
    if spec.p == 3:
        return (yield from _check_thm_6_3_gf3(spec))
    plane = _plane(spec)
    for _ in range(policy.count):
        ap = _rand_nontrivial_ap(rng, spec)
        member_pairs = [pair for _, pair in ap.members()]
        if not is_bisector_arrangement(member_pairs).ok:
            yield {**_pencil_witness(ap.pencil), "issue": "not an arrangement"}
            continue
        members = [plane.pair_of(pair) for pair in member_pairs]
        state, lines = plane.state(members)
        if any(state[i] == _CONFLICT for i in lines):
            yield {**_pencil_witness(ap.pencil),
                   "issue": "fast path disagrees with arrangement check"}
            continue
        if not all(plane.extends(state, lines, k) for k in members):
            yield {**_pencil_witness(ap.pencil),
                   "issue": "a member failed its own extension test"}
            continue
        member_set = set(members)
        survivors = [k for k in plane.open_pairs(state)
                     if k not in member_set and plane.extends(state, lines, k)]
        for k in survivors:
            pair = plane.pairs[k]
            verdict = is_bisector_arrangement(member_pairs + [pair]).ok
            yield {
                **_pencil_witness(ap.pencil),
                "extension": format_pair(pair),
                "issue": "proper extension" if verdict else "fast-path inconsistency",
            }
    return [{"pencils_checked": policy.count, "pairs_scanned": len(plane.pairs)}]


def _extension_candidates(spec: FieldSpec, pairs: list[LinePair]) -> list[LinePair]:
    """The pairs outside ``pairs`` whose lines both bisect their products, as every
    extending pair's lines do: dropping a member cannot make crossed ones disagree."""
    products = [pair.product() for pair in pairs]
    lines = {line for line in enumerate_lines(spec) if bisects_set(line, products) is not None}
    return [q for q in enumerate_line_pairs(spec) if q.line_set() <= lines and q not in pairs]


def _check_thm_6_3_gf3(spec):
    # Affine maps keep asymptotic pencils, so one verdict holds for an orbit.
    orbits = [(rep, size, _is_asymptotic_pencil([_plane(spec).pairs[k] for k in rep]))
              for rep, size in _maximal_orbits(spec)]
    counts = {"maximal_nontrivial_arrangements": sum(size for _, size, _ in orbits),
              "asymptotic_pencils_among_them": sum(size for _, size, ok in orbits if ok)}
    escaping = _expanded_sets(spec, [rep for rep, _, ok in orbits if not ok])
    for witness in escaping[:5]:
        yield {
            "arrangement": "|".join(format_pair(p) for p in witness),
            "confirmed_by_midpoint_path": bool(
                is_bisector_arrangement(witness).ok
                and not any(is_bisector_arrangement(witness + [q]).ok
                            for q in _extension_candidates(spec, witness))
            ),
        }
    if escaping:
        yield counts
    return [counts]


CHECK_IDS = tuple(_CHECKS)
CHECK_DESCRIPTIONS = {check_id: entry[1] for check_id, entry in _CHECKS.items()}


def run_check(check_id: str, spec: FieldSpec, policy: Policy | None = None) -> Report:
    """Run one checker and wrap the outcome in a report.

    The check fails exactly when its checker yields a counterexample; the
    report keeps the first 10 and stops the checker there.  A passing
    report holds the pass witnesses the checker returns.
    """
    if check_id not in _CHECKS:
        raise OracleError(f"unknown check id {check_id!r}")
    if not spec.is_finite:
        raise OracleError("oracle checks enumerate small Galois fields; use F3/F5/F7")
    if policy is None:
        policy = default_policy(check_id)
    rng = random.Random(policy.seed)
    started = time.perf_counter()
    checker = _CHECKS[check_id][0](spec, policy, rng)
    fails, passes = [], None
    try:
        while len(fails) < 10:
            fails.append(next(checker))
    except StopIteration as done:
        passes = done.value
    elapsed = time.perf_counter() - started
    return Report(
        check=check_id,
        field=spec.name,
        policy=policy,
        verdict="fail" if fails else "pass",
        witnesses=fails or passes,
        wall_time=elapsed,
    )
