"""Reference computations for the benchmark's output checks.

Everything here is written with plain ``int`` residues mod p and
``fractions.Fraction`` and imports nothing from ``bisectrix``, so a check
made with it does not share code with the program it checks.

Conventions:

* A field is a :class:`K`: ``K(p)`` for GF(p), ``K(None)`` for Q.
* A quadratic is a 6-tuple ``(a, b, c, d, e, g)`` for
  a x^2 + b xy + c y^2 + d x + e y + g.
* A line is a canonical triple ``(u, v, w)`` for uX + vY + w = 0, scaled so
  that the first nonzero of (u, v) is 1.  A line pair is a sorted 2-tuple of
  lines.
* A point is ``(x, y)``; the midpoint of a line against a conic is an affine
  point, ``INF`` (one crossing at infinity), or ``None`` (no constraint).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import isqrt

INF = "infinite"


@lru_cache(maxsize=None)
def _square_roots(p: int) -> dict[int, int]:
    roots: dict[int, int] = {}
    for r in range(p - 1, -1, -1):
        roots[r * r % p] = r  # the smaller root wins
    return roots


class K:
    """GF(p) for an odd prime p, or Q for p = None."""

    def __init__(self, p: int | None):
        self.p = p

    def __call__(self, x):
        return x % self.p if self.p else Fraction(x)

    def div(self, a, b):
        if self.p:
            if b % self.p == 0:
                raise ZeroDivisionError("division by zero")
            return a * pow(b, self.p - 2, self.p) % self.p
        return Fraction(a) / Fraction(b)

    def sqrt(self, x):
        """A square root of x in the field, or None."""
        if self.p:
            return _square_roots(self.p).get(x % self.p)
        x = Fraction(x)
        if x < 0:
            return None
        rn, rd = isqrt(x.numerator), isqrt(x.denominator)
        if rn * rn == x.numerator and rd * rd == x.denominator:
            return Fraction(rn, rd)
        return None

    def parse(self, text: str):
        return self(int(text)) if self.p else Fraction(text)


# --- lines, points, products ---------------------------------------------------


def line(k: K, u, v, w):
    u, v, w = k(u), k(v), k(w)
    s = u if u != 0 else v
    if s == 0:
        raise ValueError("not a line")
    return (k.div(u, s), k.div(v, s), k.div(w, s))


def pair(l1, l2):
    return (l1, l2) if l1 <= l2 else (l2, l1)


def all_lines(k: K) -> list:
    p = k.p
    return [(1, v, w) for v in range(p) for w in range(p)] + [(0, 1, w) for w in range(p)]


def all_pairs(k: K) -> list:
    lines = all_lines(k)
    return [(l, l) for l in lines] + [pair(a, b) for a, b in combinations(lines, 2)]


def parallel(l1, l2) -> bool:
    return l1[0] == l2[0] and l1[1] == l2[1]


def midline(k: K, l1, l2):
    """The line midway between two parallel lines."""
    return line(k, l1[0], l1[1], (l1[2] + l2[2]) * k.div(1, 2))


def intersect(k: K, l1, l2):
    """The affine intersection point, INF for distinct parallels, None if equal."""
    u1, v1, w1 = l1
    u2, v2, w2 = l2
    z = k(u1 * v2 - u2 * v1)
    if z == 0:
        return None if l1 == l2 else INF
    return (k.div(v1 * w2 - v2 * w1, z), k.div(w1 * u2 - w2 * u1, z))


def on_line(k: K, l, pt) -> bool:
    return k(l[0] * pt[0] + l[1] * pt[1] + l[2]) == 0


def product(k: K, pr):
    (u1, v1, w1), (u2, v2, w2) = pr
    return tuple(k(x) for x in (u1 * u2, u1 * v2 + u2 * v1, v1 * v2,
                                u1 * w2 + u2 * w1, v1 * w2 + v2 * w1, w1 * w2))


def canonical(k: K, f):
    """f scaled so that its first nonzero coefficient is 1."""
    s = next(x for x in f if x != 0)
    return tuple(k.div(x, s) for x in f)


def proportional(k: K, f, g) -> bool:
    return any(x != 0 for x in f) and canonical(k, f) == canonical(k, g)


def add(k: K, *terms):
    """Sum of scaled quadratics: add(k, (s1, f1), (s2, f2), ...)."""
    return tuple(k(sum(s * f[i] for s, f in terms)) for i in range(6))


def shift(k: K, f, lam):
    return f[:5] + (k(f[5] + lam),)


# --- restriction and midpoints ---------------------------------------------------


def parameterization(k: K, l):
    """Base point and direction of the line's parameter t.

    This is the parameterization the CLI reports involutions in: base
    (0, -w/v), or (-w/u, 0) when v = 0, and direction (-v, u).
    """
    u, v, w = l
    base = (k(0), k.div(-w, v)) if v != 0 else (k.div(-w, u), k(0))
    return base, (k(-v), k(u))


def restrict(k: K, f, l):
    """(A, B, C) with f(base + t*dir) = A t^2 + B t + C."""
    a, b, c, d, e, g = f
    (x0, y0), (dx, dy) = parameterization(k, l)
    A = a * dx * dx + b * dx * dy + c * dy * dy
    B = 2 * a * x0 * dx + b * (x0 * dy + y0 * dx) + 2 * c * y0 * dy + d * dx + e * dy
    C = a * x0 * x0 + b * x0 * y0 + c * y0 * y0 + d * x0 + e * y0 + g
    return k(A), k(B), k(C)


def mid(k: K, f, l):
    """("crosses", midpoint), ("meets-no-cross", None) or ("no-meet", None)."""
    A, B, C = restrict(k, f, l)
    if A != 0:
        if k.sqrt(B * B - 4 * A * C) is None:
            return "no-meet", None
        t = k.div(-B, 2 * A)
        (x0, y0), (dx, dy) = parameterization(k, l)
        return "crosses", (k(x0 + t * dx), k(y0 + t * dy))
    if B != 0:
        return "crosses", INF
    return "meets-no-cross", None


UNDETERMINED = "undetermined"


def involution_coefficients(k: K, f1, f2, l):
    """(p, q, r) of the map t -> (p t + q) / (r t - p) on the line's parameter
    that pairs the crossings of every member of the pencil, or None when the
    line meets a basepoint or is a component (no such involution).

    The root pair of A t^2 + B t + C is swapped exactly when
    p B - q A + r C = 0, so (p, q, r) spans the kernel of two restrictions.
    """
    r1, r2 = restrict(k, f1, l), restrict(k, f2, l)
    if not any(r1) or not any(r2):
        return None
    (A1, B1, C1), (A2, B2, C2) = r1, r2
    p, q, r = k(A2 * C1 - A1 * C2), k(C1 * B2 - B1 * C2), k(A1 * B2 - A2 * B1)
    if k(p * p + q * r) == 0:
        return None
    return p, q, r


def common_midpoint(k: K, l, quadratics):
    """The common crossing midpoint, UNDETERMINED if none crossed, None on conflict."""
    common = None
    for f in quadratics:
        kind, m = mid(k, f, l)
        if kind != "crosses":
            continue
        if common is None:
            common = m
        elif m != common:
            return None
    return UNDETERMINED if common is None else common


def pair_lines(pairs) -> list:
    out = []
    for pr in pairs:
        for l in pr:
            if l not in out:
                out.append(l)
    return out


def arrangement_midpoints(k: K, pairs) -> dict:
    products = [product(k, pr) for pr in pairs]
    return {l: common_midpoint(k, l, products) for l in pair_lines(pairs)}


def is_arrangement(k: K, pairs) -> bool:
    return all(m is not None for m in arrangement_midpoints(k, pairs).values())


def translates(k: K, pr1, pr2) -> bool:
    """Whether a translation maps one pair of lines onto the other."""
    if sorted(l[:2] for l in pr1) != sorted(l[:2] for l in pr2):
        return False
    (a, b), (c, d) = pr1, pr2
    if not parallel(a, b):
        return True
    return k(a[2] - c[2] - b[2] + d[2]) == 0 or k(a[2] - d[2] - b[2] + c[2]) == 0


def triviality(k: K, pairs) -> str:
    if all(translates(k, p, q) for p, q in combinations(pairs, 2)):
        return "all-translates"
    lines = pair_lines(pairs)
    if all(parallel(l, lines[0]) for l in lines):
        return "all-parallel"
    crossing = next(l for l in lines if not parallel(l, lines[0]))
    pt = intersect(k, lines[0], crossing)
    if all(on_line(k, l, pt) for l in lines):
        return "all-concurrent"
    return "nontrivial"


# --- classification and factoring ------------------------------------------------


def directions(k: K, f) -> list:
    """Points at infinity [dx : dy] of f: rational roots of its homogeneous part.

    Over GF(p) every one of the p + 1 directions is tried; over Q the roots
    come from the discriminant.
    """
    a, b, c = f[:3]
    if k.p:
        out = [(1, 0)] if a == 0 else []
        out += [(t, 1) for t in range(k.p) if k(a * t * t + b * t + c) == 0]
        return out
    if a == 0:
        return [(1, 0)] + ([(k.div(-c, b), 1)] if b != 0 else [])
    root = k.sqrt(b * b - 4 * a * c)
    if root is None:
        return []
    return sorted({(k.div(-b + root, 2 * a), 1), (k.div(-b - root, 2 * a), 1)})


def det3(k: K, f):
    """4 * det [[a, b/2, d/2], [b/2, c, e/2], [d/2, e/2, g]] (zero-ness is what counts)."""
    a, b, c, d, e, g = f
    return k(4 * a * c * g - a * e * e - b * b * g + b * d * e - c * d * d)


def factor(k: K, f):
    """The line pair whose product is proportional to f, or None.

    Split the homogeneous part into its rational directions, then solve for
    the constants of the two lines from the linear terms.
    """
    a, b, c, d, e, g = f
    dirs = directions(k, f)
    if len(dirs) == 2:
        # Linear forms through the two directions: L = dy*X - dx*Y.
        (p1, q1), (p2, q2) = dirs
        L1, L2 = (q1, -p1), (q2, -p2)
        s = k.div(a, L1[0] * L2[0]) if a != 0 else k.div(b, L1[0] * L2[1] + L1[1] * L2[0])
        # f = s (L1 + w1)(L2 + w2): d = s (w2 L1x + w1 L2x), e = s (w2 L1y + w1 L2y).
        det = k(L1[0] * L2[1] - L1[1] * L2[0])
        w2 = k.div(k.div(d, s) * L2[1] - k.div(e, s) * L2[0], det)
        w1 = k.div(L1[0] * k.div(e, s) - L1[1] * k.div(d, s), det)
        if k(s * w1 * w2) != g:
            return None
        return pair(line(k, L1[0], L1[1], w1), line(k, L2[0], L2[1], w2))
    if len(dirs) == 1:
        (px, qx), = dirs
        L = (qx, -px)
        s = k.div(a, L[0] * L[0]) if L[0] != 0 else k.div(c, L[1] * L[1])
        m = k.div(d, L[0]) if L[0] != 0 else k.div(e, L[1])
        if k(m * L[0]) != d or k(m * L[1]) != e:
            return None
        root = k.sqrt(m * m - 4 * s * g)
        if root is None:
            return None
        z1, z2 = k.div(-m + root, 2 * s), k.div(-m - root, 2 * s)
        return pair(line(k, L[0], L[1], -z1), line(k, L[0], L[1], -z2))
    return None


@lru_cache(maxsize=None)
def reducible_table(p: int) -> dict:
    """Canonical product of every line pair over GF(p) -> the pair."""
    k = K(p)
    return {canonical(k, product(k, pr)): pr for pr in all_pairs(k)}


def classify(k: K, f):
    """(kind, degenerate), kind by the count of points at infinity."""
    n = len(directions(k, f))
    kind = ("ellipse", "parabola", "hyperbola")[n]
    if kind == "ellipse":
        return kind, det3(k, f) == 0
    return kind, factor(k, f) is not None


def shift_degeneration(k: K, f) -> str:
    """Which shifts f + lambda factor: "unique", "family" or "none"."""
    dirs = directions(k, f)
    if len(dirs) == 2:
        return "unique"
    if len(dirs) == 1:
        (px, qx), = dirs
        L = (qx, -px)
        # Aligned linear part: (d, e) proportional to L.
        return "family" if k(f[3] * L[1] - f[4] * L[0]) == 0 else "none"
    return "none"


def prop_2_2_closed_forms(p: int) -> dict:
    """classes_checked, unique, family and none for quadratics up to scalar."""
    classes = (p ** 6 - p ** 3) // (p - 1)
    unique = p ** 4 * (p + 1) // 2
    family = p ** 2 * (p + 1)
    return {"classes_checked": classes, "unique": unique, "family": family,
            "none": classes - unique - family}


def prop_2_2_counts(p: int) -> dict:
    """The prop-2.2 counts by enumeration, reducibility from the product table."""
    k = K(p)
    table = reducible_table(p)
    counts = {"classes_checked": 0, "unique": 0, "family": 0, "none": 0}
    for lead in range(3):
        for tail in _tuples(p, 5 - lead):
            f = (0,) * lead + (1,) + tail
            counts["classes_checked"] += 1
            n = len(directions(k, f))
            if n == 2:
                counts["unique"] += 1
            elif n == 1 and any(canonical(k, shift(k, f, lam)) in table for lam in range(p)):
                counts["family"] += 1
            else:
                counts["none"] += 1
    return counts


def _tuples(p: int, n: int):
    if n == 0:
        yield ()
        return
    for head in range(p):
        for rest in _tuples(p, n - 1):
            yield (head,) + rest


# --- nets ----------------------------------------------------------------------------


def echelon(k: K, rows) -> list:
    """Reduced row-echelon basis of the span of rows, as (pivot, row) pairs."""
    basis = []
    for row in rows:
        row = reduce(k, basis, row)
        col = next((i for i, x in enumerate(row) if x != 0), None)
        if col is None:
            continue
        inv = k.div(1, row[col])
        row = [k(x * inv) for x in row]
        basis = [(c, [k(x - r[col] * y) for x, y in zip(r, row)]) for c, r in basis]
        basis.append((col, row))
    return basis


def reduce(k: K, basis, row) -> list:
    row = list(row)
    for col, b in basis:
        if row[col] != 0:
            s = row[col]
            row = [k(x - s * y) for x, y in zip(row, b)]
    return row


def rank(k: K, rows) -> int:
    return len(echelon(k, rows))


def in_span(k: K, basis, row) -> bool:
    return not any(reduce(k, basis, row))


CONSTANT = (0, 0, 0, 0, 0, 1)


def independent(k: K, f1, f2) -> bool:
    return rank(k, [f1[:3], f2[:3]]) == 2


def in_net(k: K, f1, f2, g) -> bool:
    """Whether g is a multiple of alpha f1 + beta f2 + lambda (rank test)."""
    return rank(k, [f1, f2, CONSTANT, g]) == rank(k, [f1, f2, CONSTANT])


def net_coordinates_ok(k: K, f1, f2, g, alpha, beta, lam) -> bool:
    """Whether [alpha : beta : lam], scaled so that the first nonzero of
    (alpha, beta) is 1, gives a nonzero multiple of g."""
    if not (alpha == 1 or (alpha == 0 and beta == 1)):
        return False
    member = shift(k, add(k, (alpha, f1), (beta, f2)), lam)
    return proportional(k, member, g)


def is_asymptotic_pencil(k: K, pairs, universe) -> bool:
    """Whether the pairs are exactly the reducible members of one affine net.

    ``universe`` is every line pair of the field; the set must contain each
    one whose product lies in the net spanned by its own products, and the
    net must not be trivial (all members crossing with one shared center).
    """
    products = [product(k, pr) for pr in pairs]
    if rank(k, [f[:3] for f in products]) != 2:
        return False
    basis = echelon(k, products + [CONSTANT])
    if len(basis) != 3:
        return False
    have = set(pairs)
    for pr in universe:
        if pr not in have and in_span(k, basis, product(k, pr)):
            return False
    centers = {intersect(k, *pr) for pr in pairs}
    trivial = len(centers) == 1 and all(not parallel(*pr) for pr in pairs)
    return not trivial


# --- the GF(3) maximal-arrangement search over integer tables -------------------


class ArrangementTables:
    """Per-line midpoint records of every pair, as ints, with bitmask classes.

    Record of line l against pair P: -1 for no constraint (l is a component,
    or both lines of P are parallel to l), p for an infinite midpoint, or the
    finite midpoint's parameter 0..p-1 on l.
    """

    def __init__(self, p: int):
        k = self.k = K(p)
        self.lines = all_lines(k)
        self.pairs = all_pairs(k)
        index = {l: i for i, l in enumerate(self.lines)}
        self.line_masks = [(1 << index[a]) | (1 << index[b]) for a, b in self.pairs]
        self.records = []      # records[l][j]
        self.constrained = []  # constrained[l]: pairs with a record on l
        self.value = []        # value[l][r]: pairs with record r on l
        half = k.div(1, 2)
        for l in self.lines:
            (x0, y0), (dx, dy) = parameterization(k, l)
            params = {}
            for m in self.lines:
                slope = k(m[0] * dx + m[1] * dy)
                params[m] = None if slope == 0 else k.div(-(m[0] * x0 + m[1] * y0 + m[2]), slope)
            records = [-1] * len(self.pairs)
            value = [0] * (p + 1)
            for j, (a, b) in enumerate(self.pairs):
                if l in (a, b) or (params[a] is None and params[b] is None):
                    continue
                if params[a] is None or params[b] is None:
                    r = p
                else:
                    r = k((params[a] + params[b]) * half)
                records[j] = r
                value[r] |= 1 << j
            self.records.append(records)
            self.constrained.append(sum(value))
            self.value.append(value)

    def consistent(self, state: int, line_mask: int) -> bool:
        """Whether every line in line_mask sees one record across the state."""
        i = 0
        while line_mask:
            if line_mask & 1:
                c = state & self.constrained[i]
                if c:
                    r = self.records[i][(c & -c).bit_length() - 1]
                    if c & ~self.value[i][r]:
                        return False
            line_mask >>= 1
            i += 1
        return True

    def maximal_arrangements(self) -> set[int]:
        """Every maximal arrangement grown from a nontrivial two-pair one.

        A subset of an arrangement is one, so a state's extensions are
        sought only among the pairs that extended its parent.
        """
        k, pairs, masks = self.k, self.pairs, self.line_masks
        n = len(pairs)
        results: set[int] = set()
        visited: set[int] = set()
        everything = tuple(range(n))
        for i, j in combinations(range(n), 2):
            seed = (1 << i) | (1 << j)
            if triviality(k, [pairs[i], pairs[j]]) != "nontrivial":
                continue
            if not self.consistent(seed, masks[i] | masks[j]):
                continue
            stack = [(seed, masks[i] | masks[j], everything)]
            while stack:
                state, lines, candidates = stack.pop()
                if state in visited:
                    continue
                visited.add(state)
                ext = tuple(x for x in candidates if not state >> x & 1
                            and self.consistent(state | 1 << x, lines | masks[x]))
                if not ext:
                    results.add(state)
                for x in ext:
                    if state | 1 << x not in visited:
                        stack.append((state | 1 << x, lines | masks[x], ext))
        return results

    def pairs_of(self, state: int) -> list:
        return [pr for j, pr in enumerate(self.pairs) if state >> j & 1]


def search_counts(p: int = 3) -> tuple[int, int, set]:
    """(maximal nontrivial arrangements, asymptotic pencils among them, the sets)."""
    tables = ArrangementTables(p)
    found = tables.maximal_arrangements()
    sets = {frozenset(tables.pairs_of(s)) for s in found}
    ap = sum(1 for s in sets if is_asymptotic_pencil(tables.k, sorted(s), tables.pairs))
    return len(sets), ap, sets


# --- text forms ----------------------------------------------------------------------

_MONOMIALS = {"x^2": 0, "x*y": 1, "y^2": 2, "x": 3, "y": 4, "": 5}
_TERM = re.compile(r"([+-]?)([^+-]+)")


def parse_poly(k: K, text: str):
    """Parse the polynomial form, e.g. "x^2-3/2*x*y+y-1" (a bare "0" too)."""
    coeffs = [k(0)] * 6
    text = text.replace(" ", "")
    if not text or _TERM.sub("", text):
        raise ValueError(f"bad polynomial {text!r}")
    for sign, body in _TERM.findall(text):
        cut = next((i for i, ch in enumerate(body) if ch in "xy"), len(body))
        number, mono = body[:cut].rstrip("*"), body[cut:]
        value = k.parse(number) if number else k(1)
        coeffs[_MONOMIALS[mono]] = k(coeffs[_MONOMIALS[mono]] + (-value if sign == "-" else value))
    return tuple(coeffs)


def parse_line_equation(k: K, text: str):
    """Parse "x+2*y-3=0" into a canonical line."""
    if not text.endswith("=0"):
        raise ValueError(f"bad line equation {text!r}")
    _, _, _, u, v, w = parse_poly(k, text[:-2])
    return line(k, u, v, w)


def parse_triple(k: K, text: str):
    u, v, w = (k.parse(s) for s in text.split(","))
    return line(k, u, v, w)


def parse_pair_text(k: K, text: str):
    a, b = text.split(";")
    return pair(parse_triple(k, a), parse_triple(k, b))


def parse_pairs_text(k: K, text: str) -> list:
    return [parse_pair_text(k, chunk) for chunk in text.split("|") if chunk]


def parse_point_text(k: K, text: str):
    """"(x,y)" -> (x, y); "[x:y:0]" -> ("dir", x, y)."""
    if text.startswith("("):
        x, y = text[1:-1].split(",")
        return (k.parse(x), k.parse(y))
    x, y, z = text[1:-1].split(":")
    return ("dir", k.parse(x), k.parse(y))


def poly_text(k: K, f) -> str:
    """The polynomial form of a quadratic, for generated inputs."""
    out = []
    for coeff, mono in zip(f, ("x^2", "x*y", "y^2", "x", "y", "")):
        if coeff == 0:
            continue
        text = str(coeff)
        neg = text.startswith("-")
        text = text.lstrip("-")
        body = mono if mono and text == "1" else (f"{text}*{mono}" if mono else text)
        out.append(("-" if neg else ("+" if out else "")) + body)
    return "".join(out) or "0"


def triple_text(l) -> str:
    return ",".join(str(x) for x in l)


def pair_text(pr) -> str:
    return ";".join(triple_text(l) for l in pr)
