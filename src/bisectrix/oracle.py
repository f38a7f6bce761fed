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

import random
import time
from itertools import combinations

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
    center,
    classify,
    degenerations,
    is_reducible,
    meets,
    mid,
    restrict_to_line,
)
from .field import FieldSpec, InfiniteFieldError, halve, square_root
from .geometry import Line, intersect
from .pencil import (
    AsymptoticPencil,
    NetCoords,
    Pencil,
    are_independent,
    combination,
    degeneracy_cubic,
    find_hyperbolas,
    net_contains,
    net_member,
    _directions,
)
from .quad import (
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


CHECK_IDS = (
    "prop-2.2", "prop-3.4", "cor-3.5", "example-3.6", "prop-3.7-delta",
    "prop-4.3-construction", "lemma-3.2", "lemma-3.3", "lemma-4.5",
    "prop-4.6", "lemma-5.2", "thm-5.4", "cor-5.5", "cor-5.6", "cor-5.7",
    "lemma-6.2", "thm-6.3",
)

CHECK_DESCRIPTIONS = {
    "prop-2.2": "degeneration taxonomy: hyperbolas one, parallel families share a midline, else none",
    "prop-3.4": "every pencil contains a hyperbola; two independent ones when |k| > 3",
    "cor-3.5": "every asymptotic pencil contains a degenerate hyperbola; two when |k| > 3",
    "example-3.6": "the tight GF(3) pencil with a single-member asymptotic pencil",
    "prop-3.7-delta": "closure-reducibility of net members matches the degeneracy cubic",
    "prop-4.3-construction": "same-center pairs admit a double line iff the square condition holds",
    "lemma-3.2": "any two independent net members regenerate the same asymptotic pencil",
    "lemma-3.3": "dependent reducible members are parallel pairs sharing a midline",
    "lemma-4.5": "two members sharing a line forces all crossing members through it",
    "prop-4.6": "nontrivial asymptotic pencils come from quadrilaterals (round trip)",
    "lemma-5.2": "bisecting the generators equals being a component of a reducible member",
    "thm-5.4": "a bisector of the generators bisects every net member it crosses",
    "cor-5.5": "bisecting a quadrilateral equals bisecting its whole net",
    "cor-5.6": "a bisector of a quadrilateral bisects every conic through its vertices",
    "cor-5.7": "the crossing involution is order 2 and member-independent",
    "lemma-6.2": "extensions of a two-pair arrangement are pinned by one of their lines",
    "thm-6.3": "asymptotic pencils are exactly the maximal nontrivial arrangements",
}


class Policy:
    """Sampling policy: exhaustive, or randomized with a seed and count."""

    __slots__ = ("kind", "seed", "count")

    def __init__(self, kind: str, seed: int = 0, count: int = 0):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "count", count)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Policy is immutable")

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


class Report:
    """Outcome of one check run."""

    __slots__ = ("check", "field", "policy", "verdict", "witnesses", "wall_time")

    def __init__(self, check, field, policy, verdict, witnesses, wall_time):
        if verdict == "fail" and not witnesses:
            raise AssertionError("a failed report needs a counterexample witness")
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "policy", policy)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "wall_time", wall_time)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Report is immutable")

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self, include_wall_time: bool = False):
        out = {
            "check": self.check,
            "description": CHECK_DESCRIPTIONS[self.check],
            "field": self.field,
            "policy": self.policy.to_json(),
            "verdict": self.verdict,
            "witnesses": self.witnesses,
        }
        if include_wall_time:
            out["wall_time_seconds"] = self.wall_time
        return out


_DEFAULT_COUNTS = {
    "prop-3.4": 500, "cor-3.5": 500, "prop-3.7-delta": 200,
    "prop-4.3-construction": 200, "lemma-3.2": 100, "lemma-3.3": 100,
    "lemma-4.5": 100, "prop-4.6": 200, "lemma-5.2": 100, "thm-5.4": 100,
    "cor-5.5": 30, "cor-5.6": 20, "cor-5.7": 50, "lemma-6.2": 200,
    "thm-6.3": 100,
}


def default_policy(check_id: str) -> Policy:
    if check_id in ("prop-2.2", "example-3.6"):
        return Policy.exhaustive()
    return Policy.randomized(_DEFAULT_COUNTS[check_id])


# --- enumeration and tables ---------------------------------------------------

_LINE_CACHE: dict[int, list[Line]] = {}
_PAIR_CACHE: dict[int, list[LinePair]] = {}
_TABLE_CACHE: dict[int, dict] = {}
_QUAD_CACHE: dict[int, list[Quadratic]] = {}


def enumerate_lines(spec: FieldSpec) -> list[Line]:
    """All p^2 + p affine lines over GF(p), canonically scaled, each once."""
    if not spec.is_finite:
        raise InfiniteFieldError("cannot enumerate lines over an infinite field")
    if spec.p not in _LINE_CACHE:
        one, zero = spec.one, spec.zero
        lines = [Line(one, v, w) for v in spec.elements() for w in spec.elements()]
        lines += [Line(zero, one, w) for w in spec.elements()]
        _LINE_CACHE[spec.p] = lines
    return _LINE_CACHE[spec.p]


def enumerate_line_pairs(spec: FieldSpec) -> list[LinePair]:
    """All unordered pairs of lines, doubles included."""
    if spec.p not in _PAIR_CACHE:
        lines = enumerate_lines(spec)
        pairs = [LinePair(l, l) for l in lines]
        pairs += [LinePair(a, b) for a, b in combinations(lines, 2)]
        _PAIR_CACHE[spec.p] = pairs
    return _PAIR_CACHE[spec.p]


def reducible_table(spec: FieldSpec) -> dict:
    """Canonical coefficient tuple of every line-pair product -> its pair.

    This is the independent reducibility oracle: membership in the table is
    reducibility over GF(p), with the factorization attached.
    """
    if spec.p not in _TABLE_CACHE:
        table = {}
        for pair in enumerate_line_pairs(spec):
            table[pair.product().canonical().key()] = pair
        _TABLE_CACHE[spec.p] = table
    return _TABLE_CACHE[spec.p]


def enumerate_quadratics(spec: FieldSpec) -> list[Quadratic]:
    """All quadratics over GF(p) up to scalar (first nonzero coefficient 1)."""
    if not spec.is_finite:
        raise InfiniteFieldError("cannot enumerate quadratics over an infinite field")
    if spec.p not in _QUAD_CACHE:
        one, zero = spec.one, spec.zero
        elems = list(spec.elements())
        out = []
        for lead in range(3):
            head = [zero] * lead + [one]
            free = 5 - lead
            stack = [[]]
            for _ in range(free):
                stack = [s + [v] for s in stack for v in elems]
            for tail in stack:
                out.append(Quadratic(*(head + tail)))
        _QUAD_CACHE[spec.p] = out
    return _QUAD_CACHE[spec.p]


def _count_infinity_directions(f: Quadratic) -> int:
    """Points at infinity counted by scanning all p + 1 directions."""
    spec = f.spec
    one, zero = spec.one, spec.zero
    n = 1 if f.homogeneous_at(one, zero).is_zero else 0
    for t in spec.elements():
        if f.homogeneous_at(t, one).is_zero:
            n += 1
    return n


# --- randomized generators ----------------------------------------------------


def _rand_quadratic(rng: random.Random, spec: FieldSpec) -> Quadratic:
    while True:
        coeffs = [spec.scalar(rng.randrange(spec.p)) for _ in range(6)]
        if not (coeffs[0].is_zero and coeffs[1].is_zero and coeffs[2].is_zero):
            return Quadratic(*coeffs)


def _rand_pencil(rng: random.Random, spec: FieldSpec) -> Pencil:
    while True:
        f1, f2 = _rand_quadratic(rng, spec), _rand_quadratic(rng, spec)
        if are_independent(f1, f2):
            return Pencil(f1, f2)


def _rand_line(rng: random.Random, spec: FieldSpec) -> Line:
    lines = enumerate_lines(spec)
    return lines[rng.randrange(len(lines))]


def _rand_pair(rng: random.Random, spec: FieldSpec) -> LinePair:
    pairs = enumerate_line_pairs(spec)
    return pairs[rng.randrange(len(pairs))]


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


# --- fast same-line midpoint records ------------------------------------------


class _FastPlane:
    """Cached line-line intersection parameters for pair-midpoint records.

    The midpoint of a line against a line-pair product only needs the two
    intersection parameters, so arrangement scans reduce to table lookups.
    Records: None = imposes no constraint; ("inf",) = infinite midpoint;
    ("fin", v) = finite midpoint at parameter value v.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.lines = enumerate_lines(spec)
        self.pairs = enumerate_line_pairs(spec)
        self.index = {line: i for i, line in enumerate(self.lines)}
        self._param: dict[tuple[int, int], object] = {}

    def param(self, i: int, j: int):
        key = (i, j)
        if key not in self._param:
            li, lj = self.lines[i], self.lines[j]
            if li.is_parallel_to(lj):
                self._param[key] = None
            else:
                self._param[key] = li.param_of(intersect(li, lj))
        return self._param[key]

    def pair_mid(self, i: int, pair: LinePair):
        j1 = self.index[pair.first]
        j2 = self.index[pair.second]
        if i == j1 or i == j2:
            return None
        t1, t2 = self.param(i, j1), self.param(i, j2)
        if t1 is None and t2 is None:
            return None
        if t1 is None or t2 is None:
            return ("inf",)
        return ("fin", halve(t1 + t2).value)

    def arrangement_ok(self, pairs) -> bool:
        seen = []
        for pair in pairs:
            for line in pair.lines():
                i = self.index[line]
                if i not in seen:
                    seen.append(i)
        for i in seen:
            common = None
            for pair in pairs:
                m = self.pair_mid(i, pair)
                if m is None:
                    continue
                if common is None:
                    common = m
                elif m != common:
                    return False
        return True


_PLANE_CACHE: dict[int, _FastPlane] = {}


def _plane(spec: FieldSpec) -> _FastPlane:
    if spec.p not in _PLANE_CACHE:
        _PLANE_CACHE[spec.p] = _FastPlane(spec)
    return _PLANE_CACHE[spec.p]


# --- checkers -----------------------------------------------------------------


def _pencil_witness(pencil: Pencil) -> dict:
    return {"f1": format_quadratic_triple(pencil.f1),
            "f2": format_quadratic_triple(pencil.f2)}


def _check_prop_2_2(spec, policy, rng):
    table = reducible_table(spec)
    elems = list(spec.elements())
    fails = []
    counts = {"unique": 0, "family": 0, "none": 0}
    for f in enumerate_quadratics(spec):
        brute = {}
        for lam in elems:
            pair = table.get(f.add_constant(lam).canonical().key())
            if pair is not None:
                brute[lam.value] = pair
        n_inf = _count_infinity_directions(f)
        d = degenerations(f)
        ok = True
        if n_inf == 2:
            ok = (
                len(brute) == 1 and d.kind == DEGEN_UNIQUE
                and next(iter(brute.values())) == d.pair
                and d.pair.kind == CROSSING
                and d.pair.center == center(f)
                and next(iter(brute)) == d.shift.value
            )
            counts["unique"] += 1
        elif n_inf == 1:
            if brute:
                midlines = {pair.midline for pair in brute.values()}
                ok = (
                    all(p.kind in (PARALLEL, DOUBLE) for p in brute.values())
                    and len(midlines) == 1
                    and d.kind == DEGEN_FAMILY
                    and d.family.midline in midlines
                    and {d.family.pair_at(r) for r in elems} == set(brute.values())
                )
                own = table.get(f.canonical().key())
                if ok and own is not None:
                    ok = own.midline in midlines
                counts["family"] += 1
            else:
                ok = d.kind == DEGEN_NONE
                counts["none"] += 1
        else:
            ok = not brute and d.kind == DEGEN_NONE
            counts["none"] += 1
        if not ok:
            fails.append({"quadratic": format_quadratic_triple(f)})
            if len(fails) >= 10:
                break
    if fails:
        return False, fails
    return True, [{"classes_checked": len(enumerate_quadratics(spec)), **counts}]


def _check_prop_3_4(spec, policy, rng):
    fails = []
    need = 2 if spec.p > 3 else 1
    for _ in range(policy.count):
        pencil = _rand_pencil(rng, spec)
        hyps = find_hyperbolas(pencil)
        ok = len(hyps) >= need
        for _, h in hyps:
            ok = ok and _count_infinity_directions(h) == 2
        if len(hyps) == 2:
            ok = ok and are_independent(hyps[0][1], hyps[1][1])
        if not ok:
            fails.append(_pencil_witness(pencil))
            if len(fails) >= 10:
                break
    witnesses = [{"pencils_checked": policy.count, "minimum_required": need}]
    if spec.p == 3:
        tight = _example_3_6_pencil(spec)
        n_hyp = sum(
            1 for c in _directions(spec)
            if classify(combination(tight, c.alpha, c.beta)).kind == HYPERBOLA
        )
        if n_hyp != 1:
            fails.append({"tight-witness": _pencil_witness(tight)})
        else:
            witnesses.append({"bound_attained_by": _pencil_witness(tight)})
    return (not fails), fails or witnesses


def _example_3_6_pencil(spec) -> Pencil:
    return Pencil(
        Quadratic.from_ints(spec, (1, 0, 0, 0, 1, 0)),   # x^2 + y
        Quadratic.from_ints(spec, (0, 1, 1, 0, 0, 0)),   # x*y + y^2
    )


def _check_cor_3_5(spec, policy, rng):
    fails = []
    need = 2 if spec.p > 3 else 1
    for _ in range(policy.count):
        ap = AsymptoticPencil(_rand_pencil(rng, spec))
        crossing = [p for _, p in ap.members() if p.kind == CROSSING]
        if len(crossing) < need:
            fails.append(_pencil_witness(ap.pencil))
            if len(fails) >= 10:
                break
    witnesses = [{"pencils_checked": policy.count, "minimum_required": need}]
    if spec.p == 3:
        ap = AsymptoticPencil(_example_3_6_pencil(spec))
        if len(ap.members()) != 1:
            fails.append({"tight-witness": _pencil_witness(ap.pencil)})
        else:
            witnesses.append({"bound_attained_by": _pencil_witness(ap.pencil)})
    return (not fails), fails or witnesses


def _check_example_3_6(spec, policy, rng):
    if spec.p != 3:
        raise OracleError("example-3.6 is specific to GF(3)")
    pencil = _example_3_6_pencil(spec)
    table = reducible_table(spec)
    issues = []
    members = {}
    for coords in _directions(spec):
        members[(coords.alpha.value, coords.beta.value)] = combination(
            pencil, coords.alpha, coords.beta
        )
    if len(members) != 4:
        issues.append({"member_classes": len(members)})
    want = {
        (1, 0): ("parabola", False),
        (0, 1): ("hyperbola", True),
        (1, 1): ("parabola", False),
        (1, 2): ("ellipse", False),
    }
    for key, (kind, degenerate) in want.items():
        cls = classify(members[key])
        if (cls.kind, cls.degenerate) != (kind, degenerate):
            issues.append({"direction": list(key), "got": repr(cls)})
    # The mixed member is (y + 2x)^2 + y, expanded mod 3.
    if members[(1, 1)] != Quadratic.from_ints(spec, (4, 4, 1, 0, 1, 0)):
        issues.append({"mixed_member": format_quadratic_triple(members[(1, 1)])})
    ellipse = members[(1, 2)]
    zeros = sorted(
        (x.value, y.value)
        for x in spec.elements() for y in spec.elements()
        if ellipse.evaluate(x, y).is_zero
    )
    if zeros != [(0, 0), (0, 1), (1, 1), (1, 2)]:
        issues.append({"ellipse_zero_set": zeros})
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
        issues.append({
            "asymptotic_members": [format_pair(p) for p in pairs],
            "brute_members": [format_pair(p) for p in sorted(brute_pairs, key=LinePair.sort_key)],
        })
    if issues:
        return False, issues
    return True, [{
        "member_classes": 4,
        "asymptotic_member": format_pair(pairs[0]),
        "ellipse_zero_set": [list(z) for z in zeros],
    }]


def _check_prop_3_7(spec, policy, rng):
    fails = []
    for _ in range(policy.count):
        pencil = _rand_pencil(rng, spec)
        cubic = degeneracy_cubic(pencil)
        ok = not cubic.shift_coeff_is_zero
        for coords in _directions(spec):
            for lam in spec.elements():
                member = net_member(
                    pencil, NetCoords(coords.alpha, coords.beta, lam)
                )
                direct = member.det3()
                via_cubic = cubic.value(lam, coords.alpha, coords.beta)
                if direct != via_cubic:
                    ok = False
                if is_reducible(member) is not None and not via_cubic.is_zero:
                    ok = False
            if not ok:
                break
        if not ok:
            fails.append(_pencil_witness(pencil))
            if len(fails) >= 10:
                break
    return (not fails), fails or [{"pencils_checked": policy.count}]


def _check_prop_4_3(spec, policy, rng):
    from .conic import pullback
    from .geometry import AffineMap, ProjectivePoint

    fails = []
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
        tx, ty = lin.apply_xy(-cx, -cy)
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
                    red = is_reducible(combination(norm, coords.alpha, coords.beta))
                    if red is not None and red.kind == DOUBLE:
                        fails.append({"pair": format_pair(pair2),
                                      "issue": "unexpected double line"})
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
            fails.append({"pair": format_pair(pair2),
                          "member": format_quadratic_triple(member)})
        solvable += 1
        if len(fails) >= 10:
            break
    return (not fails), fails or [{"solvable": solvable, "unsolvable": unsolvable}]


def _check_lemma_3_2(spec, policy, rng):
    fails = []
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
            fails.append(_pencil_witness(pencil))
            if len(fails) >= 10:
                break
    return (not fails), fails or [{"pencils_checked": policy.count}]


def _check_lemma_3_3(spec, policy, rng):
    fails = []
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
            fails.append(_pencil_witness(ap.pencil))
            if len(fails) >= 10:
                break
    return (not fails), fails or [{"pencils_checked": policy.count}]


def _check_lemma_4_5(spec, policy, rng):
    fails = []
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
            fails.append(_pencil_witness(pencil))
            if len(fails) >= 10:
                break
    return (not fails), fails or [{"pencils_checked": policy.count,
                                   "with_shared_line": shared_seen}]


def _check_prop_4_6(spec, policy, rng):
    fails = []
    for _ in range(policy.count):
        ap = _rand_nontrivial_ap(rng, spec)
        try:
            q = quadrilateral_of(ap)
        except (AssertionError, QuadrilateralError) as exc:
            fails.append({**_pencil_witness(ap.pencil), "error": str(exc)})
            if len(fails) >= 10:
                break
            continue
        regenerated = AsymptoticPencil(pencil_of(q))
        ok = {p for _, p in regenerated.members()} == {p for _, p in ap.members()}
        if spec.p > 3:
            ok = ok and not q.degenerate
        if not ok:
            fails.append(_pencil_witness(ap.pencil))
            if len(fails) >= 10:
                break
    return (not fails), fails or [{"pencils_checked": policy.count}]


def _check_lemma_5_2(spec, policy, rng):
    fails = []
    lines = enumerate_lines(spec)
    for _ in range(policy.count):
        pencil = _rand_reducible_pencil(rng, spec)
        for line in lines:
            by_roots = bisects_set(line, [pencil.f1, pencil.f2])
            by_algebra = pair_through_line(line, pencil)
            ok = (by_roots is not None) == (by_algebra is not None)
            if ok and by_algebra is not None:
                ok = (
                    by_algebra.pair.contains_line(line)
                    and net_contains(pencil, by_algebra.pair.product()) is not None
                )
            if not ok:
                fails.append({**_pencil_witness(pencil),
                              "line": format_line_triple(line)})
                break
        if len(fails) >= 10:
            break
    return (not fails), fails or [{"pencils_checked": policy.count,
                                   "lines_each": len(lines)}]


def _check_thm_5_4(spec, policy, rng):
    fails = []
    lines = enumerate_lines(spec)
    bisector_cases = 0
    for _ in range(policy.count):
        pencil = _rand_pencil(rng, spec)
        for line in lines:
            if not (meets(pencil.f1, line) and meets(pencil.f2, line)):
                continue
            m = bisects_set(line, [pencil.f1, pencil.f2])
            if m is None:
                continue
            bisector_cases += 1
            ok = True
            for coords in _directions(spec):
                for lam in spec.elements():
                    g = net_member(pencil, NetCoords(coords.alpha, coords.beta, lam))
                    r = mid(g, line)
                    if not r.crosses:
                        continue
                    if m.is_undetermined or r.midpoint != m:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                fails.append({**_pencil_witness(pencil),
                              "line": format_line_triple(line)})
                break
        if len(fails) >= 10:
            break
    return (not fails), fails or [{"pencils_checked": policy.count,
                                   "bisector_cases": bisector_cases}]


def _check_cor_5_5(spec, policy, rng):
    fails = []
    lines = enumerate_lines(spec)
    for _ in range(policy.count):
        q = _rand_quadrilateral(rng, spec)
        pencil = pencil_of(q)
        for line in lines:
            lhs = bisects_quadrilateral(line, q)
            common = None
            agree = True
            crossed = False
            for coords in _directions(spec):
                for lam in spec.elements():
                    g = net_member(pencil, NetCoords(coords.alpha, coords.beta, lam))
                    r = mid(g, line)
                    if not r.crosses:
                        continue
                    crossed = True
                    if common is None:
                        common = r.midpoint
                    elif r.midpoint != common:
                        agree = False
                        break
                if not agree:
                    break
            ok = (lhs is not None) == agree
            if ok and lhs is not None:
                if lhs.is_undetermined:
                    ok = not crossed
                else:
                    ok = crossed and common == lhs
            if not ok:
                fails.append({"pairs": format_pair(q.first) + "|" + format_pair(q.second),
                              "line": format_line_triple(line)})
                break
        if len(fails) >= 10:
            break
    return (not fails), fails or [{"quadrilaterals_checked": policy.count,
                                   "lines_each": len(lines)}]


def _check_cor_5_6(spec, policy, rng):
    fails = []
    lines = enumerate_lines(spec)
    checked = 0
    attempts = 0
    while checked < policy.count and attempts < 100 * policy.count:
        attempts += 1
        q = _rand_quadrilateral(rng, spec)
        vs = vertices(q)
        if any(v.is_infinite for v in vs) or len(set(vs)) != 4:
            continue
        checked += 1
        through = [
            f for f in enumerate_quadratics(spec)
            if all(f.evaluate(*v.affine_xy()).is_zero for v in vs)
        ]
        for line in lines:
            m = bisects_quadrilateral(line, q)
            if m is None:
                continue
            got = bisects_set(line, through)
            ok = got is not None and (m.is_undetermined or got == m)
            if not ok:
                fails.append({"pairs": format_pair(q.first) + "|" + format_pair(q.second),
                              "line": format_line_triple(line)})
                break
        if len(fails) >= 10:
            break
    return (not fails), fails or [{"quadrilaterals_checked": checked}]


def _check_cor_5_7(spec, policy, rng):
    fails = []
    done = 0
    attempts = 0
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
            g = combination(pencil, coords.alpha, coords.beta)
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
            fails.append({**_pencil_witness(pencil), "line": format_line_triple(line)})
            if len(fails) >= 10:
                break
    return (not fails), fails or [{"instances": done}]


def _check_lemma_6_2(spec, policy, rng):
    plane = _plane(spec)
    pairs = plane.pairs
    lines = plane.lines
    fails = []
    instances = 0
    attempts = 0
    while instances < policy.count and attempts < 500 * policy.count:
        attempts += 1
        p1 = pairs[rng.randrange(len(pairs))]
        p2 = pairs[rng.randrange(len(pairs))]
        if p1 == p2:
            continue
        base = [p1, p2]
        if classify_trivial_arrangement(base) != NONTRIVIAL:
            continue
        if not plane.arrangement_ok(base):
            continue
        extenders = [
            p for p in pairs
            if p != p1 and p != p2 and plane.arrangement_ok(base + [p])
        ]
        for p in extenders:
            pinned = False
            partner_lists = {}
            for line in p.lines():
                partners = [
                    l2 for l2 in lines
                    if plane.arrangement_ok(base + [LinePair(line, l2)])
                ]
                partner_lists[line] = partners
                if len(partners) == 1:
                    if LinePair(line, partners[0]) != p:
                        raise AssertionError("unique partner must recover the pair")
                    pinned = True
                    break
            if not pinned:
                # Confirm through the honest midpoint path before reporting:
                # the base, the extension, and each listed partner pair must
                # truly be bisector arrangements.
                honest = is_bisector_arrangement(base + [p]).ok and all(
                    is_bisector_arrangement(base + [LinePair(line, l2)]).ok
                    for line, ls in partner_lists.items() for l2 in ls
                )
                fails.append({
                    "arrangement": format_pair(p1) + "|" + format_pair(p2),
                    "extension": format_pair(p),
                    "partner_counts": {
                        format_line_triple(line): len(ls)
                        for line, ls in partner_lists.items()
                    },
                    "confirmed_by_midpoint_path": honest,
                })
            instances += 1
            if instances >= policy.count or len(fails) >= 5:
                break
        if len(fails) >= 5:
            break
    return (not fails), fails or [{"extension_instances": instances}]


def exhaustive_maximal_arrangements(spec: FieldSpec) -> list[frozenset[LinePair]]:
    """Every maximal nontrivial bisector arrangement over GF(3).

    Seeds are all nontrivial two-pair arrangements; each is grown by adding
    any pair that keeps the arrangement property, branching over all
    choices, until no pair extends.  Larger fields are refused: the search
    is only feasible over the 78 line pairs of GF(3).
    """
    if not spec.is_finite or spec.p != 3:
        raise OracleError(
            "exhaustive maximal-arrangement search is limited to GF(3) "
            "(78 line pairs); larger fields are refused"
        )
    plane = _plane(spec)
    pairs = plane.pairs
    npairs = len(pairs)

    def is_arr(idx_set) -> bool:
        return plane.arrangement_ok([pairs[k] for k in idx_set])

    results: set[frozenset[int]] = set()
    visited: set[frozenset[int]] = set()
    all_idx = tuple(range(npairs))
    for i, j in combinations(range(npairs), 2):
        seed = frozenset((i, j))
        if classify_trivial_arrangement([pairs[i], pairs[j]]) != NONTRIVIAL:
            continue
        if not is_arr(seed):
            continue
        stack = [(seed, all_idx)]
        while stack:
            state, cands = stack.pop()
            if state in visited:
                continue
            visited.add(state)
            ext = tuple(
                k for k in cands if k not in state and is_arr(state | {k})
            )
            if not ext:
                results.add(state)
            else:
                for k in ext:
                    nxt = state | {k}
                    if nxt not in visited:
                        stack.append((nxt, ext))
    out = [frozenset(pairs[k] for k in state) for state in results]
    out.sort(key=lambda s: sorted(p.sort_key() for p in s))
    return out


def _check_thm_6_3(spec, policy, rng):
    if spec.p == 3:
        return _check_thm_6_3_gf3(spec)
    plane = _plane(spec)
    fails = []
    for _ in range(policy.count):
        ap = _rand_nontrivial_ap(rng, spec)
        member_pairs = [pair for _, pair in ap.members()]
        if not is_bisector_arrangement(member_pairs).ok:
            fails.append({**_pencil_witness(ap.pencil), "issue": "not an arrangement"})
            if len(fails) >= 10:
                break
            continue
        member_set = set(member_pairs)
        nlines = len(plane.lines)
        coherent = []
        for i in range(nlines):
            common = None
            ok = True
            for pair in member_pairs:
                m = plane.pair_mid(i, pair)
                if m is None:
                    continue
                if common is None:
                    common = m
                elif m != common:
                    ok = False
                    break
            coherent.append((ok, common))
        lines_a = []
        for pair in member_pairs:
            for line in pair.lines():
                i = plane.index[line]
                if i not in lines_a:
                    lines_a.append(i)
        if not all(coherent[i][0] for i in lines_a):
            fails.append({**_pencil_witness(ap.pencil),
                          "issue": "fast path disagrees with arrangement check"})
            if len(fails) >= 10:
                break
            continue

        def extends(pair: LinePair) -> bool:
            i1, i2 = plane.index[pair.first], plane.index[pair.second]
            if not (coherent[i1][0] and coherent[i2][0]):
                return False
            for il in lines_a:
                m = plane.pair_mid(il, pair)
                if m is None:
                    continue
                cm = coherent[il][1]
                if cm is not None and m != cm:
                    return False
            return True

        if not all(extends(pair) for pair in member_pairs):
            fails.append({**_pencil_witness(ap.pencil),
                          "issue": "a member failed its own extension test"})
            if len(fails) >= 10:
                break
            continue
        survivors = [
            pair for pair in plane.pairs
            if pair not in member_set and extends(pair)
        ]
        for pair in survivors:
            verdict = is_bisector_arrangement(member_pairs + [pair]).ok
            fails.append({
                **_pencil_witness(ap.pencil),
                "extension": format_pair(pair),
                "issue": "proper extension" if verdict else "fast-path inconsistency",
            })
        if len(fails) >= 10:
            break
    return (not fails), fails or [
        {"pencils_checked": policy.count, "pairs_scanned": len(plane.pairs)}
    ]


def _check_thm_6_3_gf3(spec):
    fails = []
    found = exhaustive_maximal_arrangements(spec)
    matched = 0
    for arrangement in found:
        pairs = sorted(arrangement, key=LinePair.sort_key)
        generators = None
        for pa, pb in combinations(pairs, 2):
            if are_independent(pa.product(), pb.product()):
                generators = (pa, pb)
                break
        ok = generators is not None
        if ok:
            ap = AsymptoticPencil(Pencil(generators[0].product(),
                                         generators[1].product()))
            ok = {p for _, p in ap.members()} == set(pairs) and not ap.is_trivial()
        if ok:
            matched += 1
        elif len(fails) < 5:
            fails.append({
                "arrangement": "|".join(format_pair(p) for p in pairs),
                "confirmed_by_midpoint_path": bool(
                    is_bisector_arrangement(pairs).ok
                    and not any(
                        is_bisector_arrangement(pairs + [q]).ok
                        for q in enumerate_line_pairs(spec) if q not in pairs
                    )
                ),
            })
    if fails:
        fails.append({"maximal_nontrivial_arrangements": len(found),
                      "asymptotic_pencils_among_them": matched})
    return (not fails), fails or [{"maximal_nontrivial_arrangements": len(found),
                                   "asymptotic_pencils_among_them": matched}]


_CHECKERS = {
    "prop-2.2": _check_prop_2_2,
    "prop-3.4": _check_prop_3_4,
    "cor-3.5": _check_cor_3_5,
    "example-3.6": _check_example_3_6,
    "prop-3.7-delta": _check_prop_3_7,
    "prop-4.3-construction": _check_prop_4_3,
    "lemma-3.2": _check_lemma_3_2,
    "lemma-3.3": _check_lemma_3_3,
    "lemma-4.5": _check_lemma_4_5,
    "prop-4.6": _check_prop_4_6,
    "lemma-5.2": _check_lemma_5_2,
    "thm-5.4": _check_thm_5_4,
    "cor-5.5": _check_cor_5_5,
    "cor-5.6": _check_cor_5_6,
    "cor-5.7": _check_cor_5_7,
    "lemma-6.2": _check_lemma_6_2,
    "thm-6.3": _check_thm_6_3,
}


def run_check(check_id: str, spec: FieldSpec, policy: Policy | None = None) -> Report:
    """Run one checker and wrap the outcome in a report."""
    if check_id not in _CHECKERS:
        raise OracleError(f"unknown check id {check_id!r}")
    if not spec.is_finite:
        raise OracleError("oracle checks enumerate small Galois fields; use F3/F5/F7")
    if policy is None:
        policy = default_policy(check_id)
    rng = random.Random(policy.seed)
    started = time.perf_counter()
    passed, witnesses = _CHECKERS[check_id](spec, policy, rng)
    elapsed = time.perf_counter() - started
    return Report(
        check=check_id,
        field=spec.name,
        policy=policy,
        verdict="pass" if passed else "fail",
        witnesses=witnesses,
        wall_time=elapsed,
    )
