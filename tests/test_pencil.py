import random
from fractions import Fraction

import pytest

from bisectrix import pencil as pencil_module
from bisectrix.conic import (
    CROSSING,
    DEGEN_UNIQUE,
    DOUBLE,
    HYPERBOLA,
    LinePair,
    Quadratic,
    classify,
    degenerations,
    pullback,
)
from bisectrix.field import GF, InfiniteFieldError, rationals
from bisectrix.geometry import Line, _affine_map
from bisectrix.pencil import (
    AsymptoticPencil,
    NetCoords,
    Pencil,
    PencilError,
    are_independent,
    degeneracy_cubic,
    find_hyperbolas,
    net_contains,
    net_member,
    nets_equal,
)
from bisectrix.textforms import parse_quadratic

Q = rationals()
F3 = GF(3)
F5 = GF(5)
F7 = GF(7)


def quad(text, spec=Q):
    return parse_quadratic(spec, text)


def line(u, v, w, spec=Q):
    return Line(spec.scalar(u), spec.scalar(v), spec.scalar(w))


XY = quad("x*y")
CROSS = quad("x^2-y^2")
SIDES = quad("x^2-y^2-4*x-2*y+3")


class TestIndependence:
    def test_examples(self):
        assert are_independent(XY, CROSS)
        assert not are_independent(XY, quad("x*y+3"))
        assert not are_independent(XY, quad("2*x*y+x+1"))

    def test_pencil_rejects_dependent_generators(self):
        with pytest.raises(PencilError):
            Pencil(XY, quad("x*y+3"))


class TestNet:
    def test_member_examples(self):
        p = Pencil(quad("x^2+y"), quad("y^2+x"))
        one, zero = Q.one, Q.zero
        assert net_member(p, NetCoords(one, zero, zero)) == p.f1
        assert net_member(p, NetCoords(one, one, zero)) == quad("x^2+y^2+x+y")
        anti = net_member(p, NetCoords(one, -one, zero))
        assert anti == quad("x^2-y^2-x+y")
        assert classify(anti).kind == HYPERBOLA

    def test_contains_examples(self):
        p = Pencil(XY, SIDES)
        assert net_contains(p, p.f2) == NetCoords(Q.zero, Q.one, Q.zero)
        assert net_contains(p, quad("x*y-x")) is None
        g = quad("x^2+x*y-y^2-4*x-2*y+8")  # f1 + f2 + 5
        assert net_contains(p, g) == NetCoords(Q.one, Q.one, Q.scalar(5))

    def test_nets_equal(self):
        p = Pencil(XY, SIDES)
        other = Pencil(SIDES, quad("2*x*y+x^2-y^2-4*x-2*y+10"))
        assert nets_equal(p, other)
        assert not nets_equal(p, Pencil(XY, CROSS))


class TestDegeneracyCubic:
    def test_shift_coefficient_example(self):
        # Direct expansion with the halved mixed coefficient 1/2 gives
        # -1/4 U^2 - V^2 for the pencil (xy, x^2 - y^2).
        cubic = degeneracy_cubic(Pencil(XY, CROSS))
        assert [x.value for x in cubic.shift_coeff] == [Fraction(-1, 4), 0, -1]

    def test_matches_direct_determinant(self):
        rng = random.Random(7)
        for spec in (F5, F7):
            for _ in range(20):
                f1, f2 = _random_pencil(rng, spec)
                pencil = Pencil(f1, f2)
                cubic = degeneracy_cubic(pencil)
                assert not cubic.shift_coeff_is_zero
                for alpha in spec.elements():
                    for lam in spec.elements():
                        coords = NetCoords(spec.one, alpha, lam)
                        member = net_member(pencil, coords)
                        assert cubic.value(lam, spec.one, alpha) == member.det3()

    def test_reducible_members_are_roots(self):
        rng = random.Random(8)
        from bisectrix.oracle import reducible_table

        table = reducible_table(F5)
        for _ in range(30):
            f1, f2 = _random_pencil(rng, F5)
            pencil = Pencil(f1, f2)
            cubic = degeneracy_cubic(pencil)
            for _, pair in AsymptoticPencil(pencil).members():
                coords = net_contains(pencil, pair.product())
                assert coords is not None
                assert cubic.value(coords.shift, coords.alpha, coords.beta).is_zero
                assert pair.product().canonical().key() in table


def _random_pencil(rng, spec):
    while True:
        f1 = _random_quadratic(rng, spec)
        f2 = _random_quadratic(rng, spec)
        if are_independent(f1, f2):
            return f1, f2


def _all_directions(spec):
    for t in spec.elements():
        yield (spec.one, t)
    yield (spec.zero, spec.one)


def _random_quadratic(rng, spec):
    from bisectrix.conic import Quadratic

    while True:
        coeffs = [spec.scalar(rng.randrange(spec.p)) for _ in range(6)]
        if not (coeffs[0].is_zero and coeffs[1].is_zero and coeffs[2].is_zero):
            return Quadratic(*coeffs)


def _through_swapped_pencil(pencil):
    """The members found on the pencil with X and Y swapped, taken back to the
    pencil: the construction's route for pivots other than (0, 1) and (0, 2)."""
    swap = _affine_map(pencil.spec, 0, 1, 1, 0, 0, 0)
    swapped = Pencil(pullback(swap, pencil.f1), pullback(swap, pencil.f2))
    return [(coords, net_member(pencil, coords)) for coords, _ in find_hyperbolas(swapped)]


def _swap_needing_pencil(rng, spec):
    """A pencil whose homogeneous parts have echelon pivots (1, 2), or (0, 2)
    with rows X^2 + b XY and Y^2, b != 0: X and Y must be swapped."""
    def draw(nonzero=False):
        while True:
            x = spec.scalar(rng.randrange(spec.p) if spec.is_finite else rng.randint(-4, 4))
            if not (nonzero and x.is_zero):
                return x
    zero = spec.zero
    while True:
        if rng.random() < 0.5:
            b1, c1, b2, c2 = (draw() for _ in range(4))
            if (b1 * c2 - b2 * c1).is_zero:
                continue
            heads = [(zero, b1, c1), (zero, b2, c2)]
        else:
            s, b, u = draw(True), draw(True), draw(True)
            heads = [(s, s * b, draw()), (zero, zero, u)]
        return Pencil(*(Quadratic(*head, draw(), draw(), draw()) for head in heads))


class TestFindHyperbolas:
    @pytest.mark.parametrize("spec", [F5, F7, Q], ids=["F5", "F7", "Q"])
    def test_swapped_pivots_in_one_call(self, monkeypatch, spec):
        real, calls = find_hyperbolas, []
        monkeypatch.setattr(pencil_module, "find_hyperbolas",
                            lambda p: calls.append(p) or real(p))
        rng = random.Random(12)
        for _ in range(30):
            pencil = _swap_needing_pencil(rng, spec)
            calls.clear()
            found = pencil_module.find_hyperbolas(pencil)
            assert len(calls) == 1
            assert found == _through_swapped_pencil(pencil)

    def test_rational_example(self):
        # The echelon form with parts X^2, Y^2 gives f1 - f2 and f1 - 4 f2.
        p = Pencil(quad("x^2+y"), quad("y^2+x"))
        found = find_hyperbolas(p)
        assert len(found) == 2
        members = {h for _, h in found}
        assert quad("x^2-y^2-x+y") in members
        assert quad("x^2-4*y^2-4*x+y") in members

    def test_gf3_tight_example(self):
        p = Pencil(quad("x^2+y", F3), quad("x*y+y^2", F3))
        found = find_hyperbolas(p)
        assert len(found) == 1
        assert found[0][1].same_up_to_scalar(quad("x*y+y^2", F3))

    def test_outputs_are_hyperbolas(self):
        rng = random.Random(9)
        for spec in (F3, F5, F7):
            for _ in range(40):
                p = Pencil(*_random_pencil(rng, spec))
                found = find_hyperbolas(p)
                assert len(found) >= (2 if spec.p > 3 else 1)
                for coords, h in found:
                    assert net_member(p, coords) == h
                    assert classify(h).kind == HYPERBOLA

    def test_rational_random(self):
        rng = random.Random(10)
        for _ in range(40):
            coeffs1 = [Q.scalar(rng.randint(-5, 5)) for _ in range(6)]
            coeffs2 = [Q.scalar(rng.randint(-5, 5)) for _ in range(6)]
            from bisectrix.conic import Quadratic

            try:
                f1, f2 = Quadratic(*coeffs1), Quadratic(*coeffs2)
            except ValueError:
                continue
            if not are_independent(f1, f2):
                continue
            found = find_hyperbolas(Pencil(f1, f2))
            assert len(found) == 2
            for _, h in found:
                assert classify(h).kind == HYPERBOLA
            assert are_independent(found[0][1], found[1][1])


class TestAsymptoticMembers:
    def test_gf3_single_member(self):
        ap = AsymptoticPencil(Pencil(quad("x^2+y", F3), quad("x*y+y^2", F3)))
        members = ap.members()
        assert len(members) == 1
        pair = members[0][1]
        assert pair.line_set() == {line(0, 1, 0, F3), line(1, 1, 0, F3)}

    def test_gf5_includes_double(self):
        ap = AsymptoticPencil(Pencil(quad("x*y", F5), quad("x^2-y^2", F5)))
        kinds = {(p.kind, p.first) for _, p in ap.members()}
        assert (DOUBLE, line(1, 3, 0, F5)) in kinds  # (2x+y)^2 scaled

    def test_products_lie_in_the_net(self):
        rng = random.Random(11)
        for _ in range(25):
            pencil = Pencil(*_random_pencil(rng, F5))
            ap = AsymptoticPencil(pencil)
            for coords, pair in ap.members():
                assert net_contains(pencil, pair.product()) is not None
                assert net_member(pencil, coords).same_up_to_scalar(pair.product())

    def test_members_cannot_be_mutated_by_a_caller(self):
        ap = AsymptoticPencil(Pencil(quad("x*y", F5), quad("x^2-y^2", F5)))
        members = ap.members()
        assert isinstance(members, tuple) and len(members) == 8
        trivial = ap.is_trivial()
        with pytest.raises(AttributeError):
            members.clear()
        as_list = list(members)
        as_list.clear()
        assert ap.members() is members and len(ap.members()) == 8
        assert ap.is_trivial() == trivial

    def test_racing_threads_read_equal_members(self):
        # The members are a fill-once cache: threads that race to fill it
        # compute equal tuples, and every later read returns one of them.
        import sys
        import threading

        rng = random.Random(22)
        aps = [AsymptoticPencil(Pencil(*_random_pencil(rng, GF(11)))) for _ in range(20)]
        want = [pencil_module._net_pairs(ap.pencil, ap.cubic) for ap in aps]
        seen = []

        def read():
            seen.append([ap.members() for ap in aps])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 8 and all(got == want for got in seen)
        assert [ap.members() for ap in aps] == want

    @pytest.mark.parametrize("spec", [F3, F5, F7, GF(11)], ids=["F3", "F5", "F7", "F11"])
    def test_members_match_the_scalar_route(self, spec):
        # Per direction [1 : t], then [0 : 1]: the shift -psi/phi by Scalar
        # arithmetic, or every shift when phi = psi = 0; each new pair once.
        from bisectrix.conic import is_reducible
        from bisectrix.pencil import _directions

        rng = random.Random(21)
        for _ in range(15):
            pencil = Pencil(*_random_pencil(rng, spec))
            cubic = degeneracy_cubic(pencil)
            want, seen = [], set()
            for d in _directions(spec):
                psi = cubic.value(spec.zero, d.alpha, d.beta)
                phi = cubic.value(spec.one, d.alpha, d.beta) - psi
                if phi:
                    shifts = [-psi / phi]
                else:
                    shifts = [] if psi else list(spec.elements())
                for shift in shifts:
                    coords = NetCoords(d.alpha, d.beta, shift)
                    member = Quadratic.from_ints(spec, [
                        coords.alpha.value * x + coords.beta.value * y
                        for x, y in zip(pencil.f1.raw, pencil.f2.raw)])
                    pair = is_reducible(member.add_constant(coords.shift))
                    if pair is not None and pair not in seen:
                        seen.add(pair)
                        want.append((coords, pair))
            assert list(AsymptoticPencil(pencil).members()) == want

    def test_rationals_refuse_materialization(self):
        ap = AsymptoticPencil(Pencil(XY, CROSS))
        with pytest.raises(InfiniteFieldError):
            ap.members()

    def test_materialization_is_complete(self):
        # Brute force: scan every net member class [alpha:beta:lambda] over
        # GF(5) against the table of all line-pair products; the pair sets
        # must match the materialized asymptotic pencil exactly.
        from bisectrix.oracle import reducible_table

        table = reducible_table(F5)
        rng = random.Random(14)
        for _ in range(20):
            pencil = Pencil(*_random_pencil(rng, F5))
            brute = set()
            for coords in _all_directions(F5):
                for lam in F5.elements():
                    g = net_member(pencil, NetCoords(coords[0], coords[1], lam))
                    hit = table.get(g.canonical().key())
                    if hit is not None:
                        brute.add(hit)
            assert brute == {p for _, p in AsymptoticPencil(pencil).members()}

    def test_generator_invariance(self):
        # Any two independent net members regenerate the same member set.
        rng = random.Random(12)
        for spec in (F3, F5):
            for _ in range(15):
                pencil = Pencil(*_random_pencil(rng, spec))
                base = {p for _, p in AsymptoticPencil(pencil).members()}
                g1 = net_member(pencil, NetCoords(spec.one, spec.scalar(2), spec.one))
                g2 = net_member(pencil, NetCoords(spec.scalar(1), spec.zero, spec.scalar(2)))
                if not are_independent(g1, g2):
                    continue
                other = {p for _, p in AsymptoticPencil(Pencil(g1, g2)).members()}
                assert base == other


class TestTriviality:
    def test_rational_trivial_example(self):
        assert AsymptoticPencil(Pencil(XY, CROSS)).is_trivial()

    def test_gf5_not_trivial(self):
        ap = AsymptoticPencil(Pencil(quad("x*y", F5), quad("x^2-y^2", F5)))
        assert not ap.is_trivial()

    def test_different_centers_not_trivial(self):
        assert not AsymptoticPencil(Pencil(XY, SIDES)).is_trivial()

    def test_rational_procedure_matches_enumeration_on_lifts(self):
        # Same-center integer pencils decided over Q, then re-decided over
        # GF(p) by enumeration; triviality over Q must imply the GF(p)
        # verdicts for all small p only when the square condition stays
        # unsolvable, so compare the Q procedure against enumeration for
        # pencils reduced mod 11.
        rng = random.Random(13)
        F11 = GF(11)
        for _ in range(20):
            f1, f2 = _random_pencil(rng, F11)
            ap = AsymptoticPencil(Pencil(f1, f2))
            by_enum = ap.is_trivial()
            members = ap.members()
            centers = {p.center for _, p in members if p.kind == CROSSING}
            only_crossing = all(p.kind == CROSSING for _, p in members)
            assert by_enum == (only_crossing and len(centers) == 1)


def _trivial_by_enumeration(ap):
    """Triviality read off the materialized members: one center, all crossing."""
    members = ap.members()
    centers = {pair.center for _, pair in members if pair.kind == CROSSING}
    return len(centers) == 1 and all(pair.kind == CROSSING for _, pair in members)


def _shared_line_by_enumeration(ap):
    """The least line lying in two materialized members, if any."""
    counts = {}
    for _, pair in ap.members():
        for ln in pair.line_set():
            counts[ln] = counts.get(ln, 0) + 1
    shared = [ln for ln, n in counts.items() if n >= 2]
    return min(shared, key=Line.sort_key) if shared else None


def _trivial_by_normal_form(ap):
    """The former rational triviality route, valid when |k| > 3.

    Two distinct asymptote-pair centers settle it.  With a shared center,
    normalize the first pair to the coordinate axes: the pencil contains a
    double line (aX + bY)(cX + dY) vs XY exactly when b = 0, d = 0 or ac/bd
    is a square, and a trivial pencil has no double line or parallel pair.
    """
    from bisectrix.conic import is_reducible, points_at_infinity
    from bisectrix.field import raw_inverse, raw_sqrt

    hyps = ap.hyperbolas()
    pairs = [d.pair for _, _, d in hyps]
    if pairs[0].center != pairs[1].center:
        return False
    if pairs[0].line_set() & pairs[1].line_set():
        return False
    (x1, y1, _), (x2, y2, _) = [d.raw for d in points_at_infinity(hyps[0][1])]
    cx, cy, _ = pairs[0].center.raw
    axes = _affine_map(ap.spec, x1, x2, y1, y2, cx, cy)
    factored = is_reducible(pullback(axes, pairs[1].product()))
    (a, b, w1), (c, d, w2) = [ln.raw for ln in factored.lines()]
    assert not (w1 or w2)
    if b == 0 or d == 0:
        return False
    return raw_sqrt(ap.spec, a * c * raw_inverse(ap.spec, b * d)) is None


def _shared_line_by_normal_form(ap):
    """The former rational shared-line route: the line common to the two
    constructed asymptote pairs, if they share one."""
    (_, _, d1), (_, _, d2) = ap.hyperbolas()
    common = d1.pair.line_set() & d2.pair.line_set()
    return next(iter(common)) if common else None


def _centered_quadratic(rng, spec, px, py):
    """A random quadratic h(X - px, Y - py) + g, its gradient zero at (px, py)."""
    while True:
        a, b, c, g = (_value(rng, spec) for _ in range(4))
        if a or b or c:
            break
    return Quadratic(a, b, c, -2 * a * px - b * py, -b * px - 2 * c * py,
                     a * px * px + b * px * py + c * py * py + g)


def _linear(rng, spec):
    while True:
        u, v, w = (_value(rng, spec) for _ in range(3))
        if u or v:
            return u, v, w


def _line_times(ln, rng, spec):
    """A random quadratic ln * m + c, constant along the line ln."""
    (u, v, w), (s, t, r) = ln, _linear(rng, spec)
    return Quadratic(u * s, u * t + v * s, v * t, u * r + w * s, v * r + w * t,
                     w * r + _value(rng, spec))


def _mixed_pencil(rng, spec, k):
    """A random pencil, one whose gradients share a zero, or one whose
    generators are constant along a shared line, as k runs mod 3."""
    while True:
        if k % 3 == 0:
            f1, f2 = _any_quadratic(rng, spec), _any_quadratic(rng, spec)
        elif k % 3 == 1:
            px, py = _value(rng, spec), _value(rng, spec)
            f1, f2 = (_centered_quadratic(rng, spec, px, py) for _ in range(2))
        else:
            ln = _linear(rng, spec)
            f1, f2 = (_line_times(ln, rng, spec) for _ in range(2))
        if are_independent(f1, f2):
            return Pencil(f1, f2)


class TestConstructionPathsAgainstEnumeration:
    """The closed forms for triviality and the shared line, against
    enumeration over GF(p) and against the normal-form construction over Q.

    A third of the pencils are random, a third share a gradient zero (the
    trivial candidates) and a third share a line; each field must show at
    least 20 trivial and 20 shared instances.
    """

    def test_triviality_construction_matches_enumeration(self):
        rng = random.Random(15)
        for spec in (F3, F5, F7, GF(11)):
            trivial = 0
            for k in range(210):
                ap = AsymptoticPencil(_mixed_pencil(rng, spec, k))
                assert ap.is_trivial() == _trivial_by_enumeration(ap), ap.pencil
                trivial += ap.is_trivial()
            assert trivial >= 20, spec

    def test_shared_line_construction_matches_enumeration(self):
        rng = random.Random(16)
        for spec in (F3, F5, F7, GF(11)):
            shared = 0
            for k in range(210):
                ap = AsymptoticPencil(_mixed_pencil(rng, spec, k))
                assert ap.shared_line() == _shared_line_by_enumeration(ap), ap.pencil
                shared += ap.shared_line() is not None
            assert shared >= 20, spec

    def test_rational_closed_forms_match_the_normal_form_construction(self):
        rng = random.Random(17)
        trivial = shared = 0
        for k in range(150):
            ap = AsymptoticPencil(_mixed_pencil(rng, Q, k))
            assert ap.is_trivial() == _trivial_by_normal_form(ap), ap.pencil
            assert ap.shared_line() == _shared_line_by_normal_form(ap), ap.pencil
            trivial += ap.is_trivial()
            shared += ap.shared_line() is not None
        assert trivial >= 20 and shared >= 20


class TestStoredConstruction:
    """The constructed hyperbolas with their degenerations, built once."""

    @pytest.mark.parametrize("spec", [Q, F5, F7], ids=["Q", "F5", "F7"])
    def test_records_match_find_hyperbolas(self, spec):
        rng = random.Random(20)
        for _ in range(30):
            f1, f2 = _any_quadratic(rng, spec), _any_quadratic(rng, spec)
            if not are_independent(f1, f2):
                continue
            pencil = Pencil(f1, f2)
            records = AsymptoticPencil(pencil).hyperbolas()
            assert [(c, h) for c, h, _ in records] == find_hyperbolas(pencil)
            for coords, h, d in records:
                again = degenerations(h)
                assert (d.kind, d.pair, d.shift) == (DEGEN_UNIQUE, again.pair, again.shift)
                shifted = net_contains(pencil, h.add_constant(d.shift))
                assert NetCoords(coords.alpha, coords.beta, d.shift) == shifted

    def test_gf_construction_skips_find_hyperbolas(self, monkeypatch):
        calls = []
        real = pencil_module.find_hyperbolas
        monkeypatch.setattr(pencil_module, "find_hyperbolas",
                            lambda p: calls.append(p) or real(p))
        rng = random.Random(21)
        for _ in range(10):
            AsymptoticPencil(Pencil(*_random_pencil(rng, F7)))
        assert calls == []
        # Over Q it runs once, on first use: the closed forms read none of it.
        ap = AsymptoticPencil(Pencil(quad("x*y-1"), quad("x^2-y")))
        ap.is_trivial()
        ap.shared_line()
        assert calls == []
        ap.degenerate_hyperbola_pairs()
        ap.hyperbolas()
        assert len(calls) == 1


def _three_lines(rng, spec):
    from bisectrix.oracle import enumerate_lines

    pool = enumerate_lines(spec)
    while True:
        shared, m1, m2 = (pool[rng.randrange(len(pool))] for _ in range(3))
        if (not m1.is_parallel_to(shared) and not m2.is_parallel_to(shared)
                and not m1.is_parallel_to(m2)):
            return shared, m1, m2


class TestSharedLine:
    def test_rational_shared(self):
        shared = AsymptoticPencil(Pencil(XY, quad("x^2+x*y-x"))).shared_line()
        assert shared == line(1, 0, 0)  # x(x+y-1) shares X = 0 with xy

    def test_gf5_none(self):
        ap = AsymptoticPencil(Pencil(quad("x*y", F5), quad("x^2-y^2", F5)))
        assert ap.shared_line() is None

    def test_gf3_single_member_none(self):
        ap = AsymptoticPencil(Pencil(quad("x^2+y", F3), quad("x*y+y^2", F3)))
        assert ap.shared_line() is None

    def test_finite_shared(self):
        f1 = LinePair(line(1, 0, 0, F5), line(0, 1, 0, F5)).product()
        f2 = LinePair(line(1, 0, 0, F5), line(1, 1, -1, F5)).product()
        ap = AsymptoticPencil(Pencil(f1, f2))
        assert ap.shared_line() == line(1, 0, 0, F5)
        for _, pair in ap.members():
            if pair.kind == CROSSING:
                assert pair.contains_line(line(1, 0, 0, F5))


# --- value-level kernels against Scalar-expression forms ---------------------

KERNEL_FIELDS = [F3, F5, F7, GF(10**9 + 7), Q]
KERNEL_IDS = ["F3", "F5", "F7", "Fbig", "Q"]


def _value(rng, spec):
    if spec.p is None:
        return spec.scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    return spec.scalar(rng.randrange(spec.p))


def _any_quadratic(rng, spec):
    from bisectrix.conic import Quadratic

    while True:
        coeffs = [_value(rng, spec) for _ in range(6)]
        if any(coeffs[:3]):
            return Quadratic(*coeffs)


def _det3x3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _in_net(pencil, g):
    """Rank 2 of the 3x5 matrix of the non-constant coefficients."""
    rows = [q.coefficients()[:5] for q in (pencil.f1, pencil.f2, g)]
    cols = [(i, j, k) for i in range(5) for j in range(i + 1, 5) for k in range(j + 1, 5)]
    return all(_det3x3([[r[i], r[j], r[k]] for r in rows]).is_zero for i, j, k in cols)


def _ref_det3(f):
    a, b, c, d, e, g = f.coefficients()
    return (4 * a * c * g + b * d * e - a * e * e - c * d * d - g * b * b) / 4


def _assert_canonical_values(spec, *scalars):
    for s in scalars:
        assert s.spec == spec
        if spec.p is None:
            assert isinstance(s.value, Fraction), s
        else:
            assert isinstance(s.value, int) and 0 <= s.value < spec.p, s


class TestValueKernels:
    """Each kernel computed on values agrees with its Scalar-expression form."""

    @pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=KERNEL_IDS)
    def test_independence_and_net_coords(self, spec):
        rng = random.Random(61)
        for _ in range(60):
            f1, f2 = _any_quadratic(rng, spec), _any_quadratic(rng, spec)
            a1, b1, c1 = f1.homogeneous_part()
            a2, b2, c2 = f2.homogeneous_part()
            assert are_independent(f1, f2) == any(
                [a1 * b2 - a2 * b1, a1 * c2 - a2 * c1, b1 * c2 - b2 * c1])
            alpha, beta, shift = (_value(rng, spec) for _ in range(3))
            if not (alpha or beta):
                continue
            coords = NetCoords(alpha, beta, shift)
            s = alpha if alpha else beta
            assert (coords.alpha, coords.beta, coords.shift) == (
                alpha / s, beta / s, shift / s)
            _assert_canonical_values(spec, coords.alpha, coords.beta, coords.shift)

    @pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=KERNEL_IDS)
    def test_net_member(self, spec):
        rng = random.Random(65)
        checked = 0
        while checked < 40:
            f1, f2 = _any_quadratic(rng, spec), _any_quadratic(rng, spec)
            alpha, beta, shift = (_value(rng, spec) for _ in range(3))
            if not are_independent(f1, f2) or not (alpha or beta):
                continue
            coords = NetCoords(alpha, beta, shift)
            got = net_member(Pencil(f1, f2), coords)
            want = [coords.alpha * x + coords.beta * y
                    for x, y in zip(f1.coefficients(), f2.coefficients())]
            want[5] += coords.shift
            assert list(got.coefficients()) == want
            _assert_canonical_values(spec, *got.coefficients())
            checked += 1

    @pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=KERNEL_IDS)
    def test_net_contains(self, spec):
        rng = random.Random(62)
        found = missed = 0
        for i in range(60):
            f1, f2 = _any_quadratic(rng, spec), _any_quadratic(rng, spec)
            if not are_independent(f1, f2):
                continue
            pencil = Pencil(f1, f2)
            alpha, beta, shift = (_value(rng, spec) for _ in range(3))
            coeffs = [alpha * x + beta * y for x, y in zip(f1.coefficients(),
                                                         f2.coefficients())]
            coeffs[5] = coeffs[5] + shift
            if i % 2:
                coeffs[rng.randrange(5)] += spec.one
            if not any(coeffs[:3]):
                continue
            from bisectrix.conic import Quadratic

            g = Quadratic(*coeffs)
            got = net_contains(pencil, g)
            assert (got is not None) == _in_net(pencil, g)
            if got is None:
                missed += 1
                continue
            found += 1
            member = [got.alpha * x + got.beta * y
                      for x, y in zip(f1.coefficients(), f2.coefficients())]
            member[5] = member[5] + got.shift
            assert g.same_up_to_scalar(Quadratic(*member))
            _assert_canonical_values(spec, got.alpha, got.beta, got.shift)
        assert found >= 10 and missed >= 10

    @pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=KERNEL_IDS)
    def test_degeneracy_cubic(self, spec):
        rng = random.Random(63)
        for _ in range(30):
            f1, f2 = _any_quadratic(rng, spec), _any_quadratic(rng, spec)
            if not are_independent(f1, f2):
                continue
            pencil = Pencil(f1, f2)
            cubic = degeneracy_cubic(pencil)
            _assert_canonical_values(spec, *cubic.shift_coeff, *cubic.base)
            for _ in range(4):
                alpha, beta, shift = (_value(rng, spec) for _ in range(3))
                if not (alpha or beta):
                    continue
                member = net_member(pencil, NetCoords(alpha, beta, spec.zero))
                # NetCoords scales by the first nonzero weight: undo it.
                s = alpha if alpha else beta
                a, b, c = (x * s for x in member.homogeneous_part())
                # value is phi shift + psi: read phi and psi off shifts 0 and 1.
                psi = cubic.value(spec.zero, alpha, beta)
                phi = cubic.value(spec.one, alpha, beta) - psi
                assert phi == (4 * a * c - b * b) / 4
                assert psi == _ref_det3(member) * s * s * s
                assert cubic.value(shift, alpha, beta) == phi * shift + psi
                _assert_canonical_values(spec, phi, psi, cubic.value(shift, alpha, beta))


class TestMixedFields:
    def test_net_contains_refuses_a_foreign_field(self):
        # The field test comes before any arithmetic, as in every other kernel.
        from bisectrix.field import FieldMismatchError

        for spec_a, spec_b in ((F5, F7), (Q, F7), (F7, Q)):
            pencil = Pencil(quad("x*y", spec_a), quad("x^2-y^2", spec_a))
            with pytest.raises(FieldMismatchError):
                net_contains(pencil, quad("x*y+1", spec_b))

    def test_kernels_refuse_mixed_scalars(self):
        from bisectrix.field import FieldMismatchError

        pencil = Pencil(quad("x*y", F5), quad("x^2-y^2", F5))
        cubic = degeneracy_cubic(pencil)
        for bad in (F7.one, Q.one):
            for call in (lambda: NetCoords(F5.one, bad, F5.zero),
                         lambda: net_member(pencil, NetCoords(bad, bad, bad)),
                         lambda: cubic.value(F5.one, F5.one, bad),
                         lambda: cubic.value(F5.one, bad, F5.one),
                         lambda: cubic.value(bad, F5.one, F5.one),
                         lambda: are_independent(quad("x*y", F5), quad("x^2", bad.spec)),
                         lambda: Pencil(quad("x*y", F5), quad("x^2", bad.spec))):
                with pytest.raises(FieldMismatchError):
                    call()

    def test_equal_spec_that_is_another_object(self):
        from bisectrix.field import FieldSpec

        other = FieldSpec(7)
        assert other is not F7 and other == F7
        pencil = Pencil(quad("x*y", F7), quad("x^2-y^2", F7))
        g = quad("x*y+2*x^2-2*y^2+3", other)
        assert net_contains(pencil, g) == NetCoords(F7.one, F7.scalar(2), F7.scalar(3))
        assert are_independent(pencil.f1, quad("x^2", other))
        cubic = degeneracy_cubic(pencil)
        assert cubic.value(other.one, other.one, other.one) == cubic.value(
            F7.one, F7.one, F7.one)
