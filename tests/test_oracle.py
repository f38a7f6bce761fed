import inspect
import itertools
import json
import random
import sys
import typing

import pytest

from bisectrix import oracle
from bisectrix.bisector import (
    NONTRIVIAL,
    classify_trivial_arrangement,
    is_bisector_arrangement,
)
from bisectrix import conic
from bisectrix.conic import (
    CROSSING,
    DOUBLE,
    PARALLEL,
    Degenerations,
    LinePair,
    Quadratic,
    center,
    mid,
)
from bisectrix.field import GF, rationals
from bisectrix.geometry import AffineMap, Midpoint, ProjectivePoint, _affine_map, intersect
from bisectrix.oracle import (
    _FREE,
    _CONFLICT,
    _INF,
    OracleError,
    Policy,
    _crossings,
    _expanded_sets,
    _extension_candidates,
    _infinity_directions,
    _int_center,
    _is_asymptotic_pencil,
    _maximal_orbits,
    _net_keys,
    _orbit,
    _plane,
    _rand_pencil,
    _rand_quadrilateral,
    _rand_reducible_pencil,
    _seeds,
    _through_points,
    _through_vertices,
    enumerate_line_pairs,
    enumerate_lines,
    enumerate_quadratics,
    exhaustive_maximal_arrangements,
    quadratic_keys,
    reducible_table,
    run_check,
)
from bisectrix.pencil import (
    AsymptoticPencil,
    DegeneracyCubic,
    NetCoords,
    _directions,
    net_member,
)
from bisectrix.quad import vertices
from bisectrix.textforms import parse_quadratic

F3 = GF(3)
F5 = GF(5)
F7 = GF(7)


class TestEnumeration:
    def test_line_counts(self):
        assert len(enumerate_lines(F3)) == 12
        assert len(enumerate_lines(F5)) == 30
        assert len(enumerate_lines(F7)) == 56
        assert len(set(enumerate_lines(F5))) == 30

    def test_pair_counts(self):
        # Unordered pairs including doubles: C(n, 2) + n.
        assert len(enumerate_line_pairs(F3)) == 78
        assert len(enumerate_line_pairs(F5)) == 465
        assert len(enumerate_line_pairs(F7)) == 1596

    def test_quadratic_class_counts(self):
        # Canonical classes: p^5 + p^4 + p^3.
        assert len(enumerate_quadratics(F3)) == 351
        assert len(enumerate_quadratics(F5)) == 3875

    def test_rationals_refused(self):
        with pytest.raises(Exception):
            enumerate_lines(rationals())
        with pytest.raises(Exception):
            quadratic_keys(rationals())

    @pytest.mark.parametrize("spec", [F3, F5], ids=["F3", "F5"])
    def test_int_keys_follow_quadratic_enumeration(self, spec):
        keys = quadratic_keys(spec)
        assert keys == [f.key() for f in enumerate_quadratics(spec)]
        # One key per class up to scalar, by leading position, then in order.
        classes = {
            Quadratic.from_ints(spec, c).canonical().key()
            for c in itertools.product(range(spec.p), repeat=6) if any(c[:3])
        }
        assert keys == sorted(classes, key=lambda k: (k.index(1), k))

    def test_reducible_table(self):
        table = reducible_table(F5)
        assert parse_quadratic(F5, "x^2-y^2").canonical().key() in table
        assert parse_quadratic(F5, "x*y-1").canonical().key() not in table


class TestRandomLine:
    @pytest.mark.parametrize("spec", [F3, F5, F7], ids=["F3", "F5", "F7"])
    def test_draw_r_is_the_r_th_enumerated_line(self, spec):
        lines = enumerate_lines(spec)

        class Draw:
            def randrange(self, n):
                assert n == len(lines)
                return r

        for r in range(len(lines)):
            assert oracle._rand_line(Draw(), spec) == lines[r]

    @pytest.mark.parametrize("check_id", ["lemma-4.5", "cor-5.7"])
    def test_large_field_draws_without_the_line_list(self, check_id, monkeypatch):
        def refuse(spec):
            raise AssertionError("enumerate_lines was called")

        monkeypatch.setattr(oracle, "enumerate_lines", refuse)
        assert run_check(check_id, GF(10007), Policy.randomized(2)).passed

    @pytest.mark.parametrize("spec", [F3, F5], ids=["F3", "F5"])
    def test_draw_r_is_the_r_th_enumerated_pair(self, spec):
        pairs = enumerate_line_pairs(spec)

        class Draw:
            def randrange(self, n):
                assert n == len(pairs)
                return r

        for r in range(len(pairs)):
            drawn = oracle._rand_pair(Draw(), spec)
            assert drawn == pairs[r] and drawn.lines() == pairs[r].lines()

    @pytest.mark.parametrize("check_id", ["lemma-5.2", "cor-5.5", "cor-5.6"])
    def test_pair_draws_without_the_pair_list(self, check_id, monkeypatch):
        def refuse(spec):
            raise AssertionError("enumerate_line_pairs was called")

        monkeypatch.setattr(oracle, "enumerate_line_pairs", refuse)
        assert run_check(check_id, GF(19), Policy.randomized(2)).passed


class TestReports:
    def test_json_shape_and_determinism(self):
        a = run_check("example-3.6", F3)
        b = run_check("example-3.6", F3)
        assert a.passed
        assert json.dumps(a.to_json(), sort_keys=True) == \
               json.dumps(b.to_json(), sort_keys=True)
        payload = a.to_json()
        assert payload["policy"] == {"kind": "exhaustive"}
        assert "wall_time_seconds" not in payload
        assert "wall_time_seconds" in a.to_json(include_wall_time=True)

    def test_unknown_id(self):
        with pytest.raises(OracleError):
            run_check("thm-9.9", F5)

    def test_rationals_refused(self):
        with pytest.raises(OracleError):
            run_check("prop-3.4", rationals())

    def test_example_check_requires_gf3(self):
        with pytest.raises(OracleError):
            run_check("example-3.6", F5)


PASSING_SMALL = [
    ("prop-2.2", F3, None),
    ("prop-3.4", F3, Policy.randomized(30)),
    ("prop-3.4", F5, Policy.randomized(30)),
    ("cor-3.5", F5, Policy.randomized(30)),
    ("example-3.6", F3, None),
    ("prop-3.7-delta", F5, Policy.randomized(15)),
    ("prop-4.3-construction", F5, Policy.randomized(40)),
    ("prop-4.3-construction", F7, Policy.randomized(40)),
    ("lemma-3.2", F5, Policy.randomized(15)),
    ("lemma-3.3", F5, Policy.randomized(15)),
    ("lemma-4.5", F5, Policy.randomized(20)),
    ("prop-4.6", F5, Policy.randomized(25)),
    ("lemma-5.2", F5, Policy.randomized(15)),
    ("thm-5.4", F5, Policy.randomized(15)),
    ("cor-5.5", F5, Policy.randomized(6)),
    ("cor-5.6", F5, Policy.randomized(4)),
    ("cor-5.7", F7, Policy.randomized(15)),
    ("thm-6.3", F5, Policy.randomized(15)),
    ("thm-6.3", F7, Policy.randomized(8)),
]


@pytest.mark.parametrize("check_id,spec,policy",
                         PASSING_SMALL,
                         ids=[f"{c}-{s.name}" for c, s, _ in PASSING_SMALL])
def test_passing_checks(check_id, spec, policy):
    report = run_check(check_id, spec, policy)
    assert report.passed, report.witnesses


GF11_SOAK = [
    ("prop-3.4", Policy.randomized(15)),
    ("cor-3.5", Policy.randomized(15)),
    ("prop-3.7-delta", Policy.randomized(6)),
    ("prop-4.3-construction", Policy.randomized(20)),
    ("lemma-3.2", Policy.randomized(6)),
    ("lemma-4.5", Policy.randomized(10)),
    ("prop-4.6", Policy.randomized(10)),
    ("lemma-5.2", Policy.randomized(4)),
    ("cor-5.7", Policy.randomized(10)),
    ("thm-6.3", Policy.randomized(3)),
]


@pytest.mark.parametrize("check_id,policy", GF11_SOAK,
                         ids=[c for c, _ in GF11_SOAK])
def test_gf11_soak(check_id, policy):
    report = run_check(check_id, GF(11), policy)
    assert report.passed, report.witnesses


class TestCounterexampleCap:
    """run_check alone decides the verdict and keeps at most 10 counterexamples."""

    def test_a_failed_report_keeps_the_first_ten(self, monkeypatch):
        advanced = []

        def many(spec, policy, rng):
            for i in range(25):
                advanced.append(i)
                yield {"counterexample": i}
            return [{"unreachable": True}]

        monkeypatch.setitem(oracle._CHECKS, "prop-3.4", (many, "stub", 1))
        report = run_check("prop-3.4", F5, Policy.randomized(1))
        assert report.verdict == "fail"
        assert report.witnesses == tuple({"counterexample": i} for i in range(10))
        assert advanced == list(range(10))

    def test_a_checker_without_counterexamples_passes_with_its_summary(self, monkeypatch):
        def clean(spec, policy, rng):
            return [{"instances": policy.count}]
            yield

        monkeypatch.setitem(oracle._CHECKS, "prop-3.4", (clean, "stub", 7))
        report = run_check("prop-3.4", F5, Policy.randomized(7))
        assert report.verdict == "pass"
        assert report.witnesses == ({"instances": 7},)

    def test_witnesses_cannot_be_changed(self):
        report = run_check("example-3.6", F3)
        with pytest.raises(AttributeError):
            report.witnesses.append({"forged": True})
        assert report.to_json()["witnesses"] == list(report.witnesses)
        # Neither a witness read through the report nor one read from its
        # JSON form reaches the report itself.
        before = list(report.witnesses)
        assert before and all(before)
        report.witnesses[0].clear()
        report.to_json()["witnesses"][0]["forged"] = True
        report.to_json()["witnesses"].clear()
        assert list(report.witnesses) == before
        assert report.to_json()["witnesses"] == before


class TestChecksCatchAWrongLibrary:
    """Checks on the oracle's int route fail when the library answer is wrong."""

    @pytest.mark.parametrize("index", [0, 6], ids=["shift-coefficient", "base"])
    def test_prop_3_7_catches_a_wrong_cubic(self, monkeypatch, index):
        real = oracle.degeneracy_cubic

        def off_by_one(pencil):
            raw = list(real(pencil).raw)
            raw[index] += 1
            return DegeneracyCubic(*[pencil.spec.scalar(x) for x in raw])

        monkeypatch.setattr(oracle, "degeneracy_cubic", off_by_one)
        assert run_check("prop-3.7-delta", F5, Policy.randomized(5)).verdict == "fail"

    def test_cor_5_6_catches_a_wrong_midpoint(self, monkeypatch):
        real = oracle.bisects_quadrilateral

        def at_infinity(line, q):
            m = real(line, q)
            return Midpoint(Midpoint.INFINITE) if m is not None and m.is_finite else m

        monkeypatch.setattr(oracle, "bisects_quadrilateral", at_infinity)
        assert run_check("cor-5.6", F5, Policy.randomized(3)).verdict == "fail"

    def test_prop_2_2_catches_a_wrong_center(self, monkeypatch):
        # The center of the unique degeneration is compared with the oracle's own.
        real = oracle.degenerations

        def moved_center(f):
            d = real(f)
            if d.kind != "unique":
                return d
            x, y, _ = d.pair.center.raw
            moved = ProjectivePoint(F5.scalar(x + 1), F5.scalar(y), F5.one)
            wrong = LinePair._crossing(d.pair.first, d.pair.second, moved)
            return Degenerations(d.kind, wrong, d.shift, d.family)

        monkeypatch.setattr(oracle, "degenerations", moved_center)
        report = run_check("prop-2.2", F5)
        assert report.verdict == "fail" and len(report.witnesses) == 10

    def test_lemma_5_2_catches_a_missing_pair(self, monkeypatch):
        # The bisecting side is the oracle's kernel, so one line whose pair the
        # library drops is a counterexample.
        real, dropped = oracle.pair_through_line, []

        def drops_one(line, pencil):
            found = real(line, pencil)
            if found is not None and not dropped:
                dropped.append(line)
                return None
            return found

        monkeypatch.setattr(oracle, "pair_through_line", drops_one)
        report = run_check("lemma-5.2", F5, Policy.randomized(5))
        assert len(dropped) == 1 and report.verdict == "fail"
        assert len(report.witnesses) == 1


def test_prop_4_3_checks_every_requested_instance():
    # Draws whose two direction pairs coincide are redrawn, not skipped.
    policy = Policy.randomized(200, seed=0)
    report = run_check("prop-4.3-construction", F7, policy)
    assert report.passed
    summary = report.witnesses[-1]
    assert summary["solvable"] + summary["unsolvable"] == policy.count


class TestKnownCounterexamples:
    """Two source claims fail as literally stated; the oracle documents them.

    The failures are legitimate findings, re-verified through the honest
    midpoint path before being reported (see the witness flags).
    """

    def test_lemma_6_2_uniqueness_fails(self):
        report = run_check("lemma-6.2", F5, Policy.randomized(40))
        assert report.verdict == "fail"
        for witness in report.witnesses:
            if "extension" in witness:
                assert witness["confirmed_by_midpoint_path"]

    def test_thm_6_3_backward_fails_on_gf3(self):
        report = run_check("thm-6.3", F3)
        assert report.verdict == "fail"
        confirmed = [w for w in report.witnesses if "arrangement" in w]
        assert confirmed and all(w["confirmed_by_midpoint_path"] for w in confirmed)
        summary = report.witnesses[-1]
        assert summary["maximal_nontrivial_arrangements"] == 990
        assert summary["asymptotic_pencils_among_them"] == 810


class TestMaximalSearch:
    def test_expansion_refused_beyond_gf7(self, monkeypatch, gf11_orbits):
        # GF(7)'s 155,036 sets are under the limit and GF(11)'s 2,222,770 are
        # over it, read off the orbit sizes before any set is built.
        assert sum(size for _, size in gf11_orbits) > oracle.EXPANDED_SET_LIMIT > 155_036
        monkeypatch.setattr(oracle, "_maximal_orbits", lambda spec: gf11_orbits)
        monkeypatch.setattr(oracle, "_expanded_sets", None)
        with pytest.raises(oracle.BudgetError, match="2,222,770 maximal arrangements over F11"):
            exhaustive_maximal_arrangements(GF(11))

    def test_the_bound_refuses_every_table_past_gf19(self):
        # One bound, p <= 19, for every exhaustive structure.
        F23 = GF(23)
        for build in (oracle._Plane, oracle._Crossings, enumerate_line_pairs,
                      reducible_table, quadratic_keys, oracle._maximal_orbits,
                      lambda spec: oracle._heads(spec, 4)):
            with pytest.raises(oracle.BudgetError, match="over F23: past the bound p <= 19"):
                build(F23)
        with pytest.raises(oracle.BudgetError, match="552 net members per pencil"):
            run_check("prop-3.7-delta", F23, Policy.randomized(1))

    def test_shortcut_needs_the_excluded_check(self):
        # A copy of the search that reports S ∪ C even when an excluded pair
        # extends it reports sets that are not maximal.
        source = inspect.getsource(oracle._maximal_orbits)
        guard = "if not any(extends(*whole, x) for x in excluded):"
        assert source.count(guard) == 1
        namespace = dict(vars(oracle))
        exec(source.replace(guard, "if True:"), namespace)
        mutant = namespace["_maximal_orbits"]
        assert any(mutant(spec) != oracle._maximal_orbits(spec) for spec in (F3, F5))

    def test_found_sets_are_honest_arrangements(self):
        found = exhaustive_maximal_arrangements(F3)
        assert len(found) == 990
        for arrangement in found[:5]:
            pairs = list(arrangement)
            assert is_bisector_arrangement(pairs).ok
            others = [p for p in enumerate_line_pairs(F3) if p not in pairs]
            assert not any(is_bisector_arrangement(pairs + [p]).ok for p in others)


@pytest.mark.parametrize("spec,bases", [(F3, 8), (F5, 3)], ids=["F3", "F5"])
def test_engine_agrees_with_midpoint_path(spec, bases):
    # For seeded random nontrivial two-pair bases, the integer engine says a
    # pair extends the base exactly when the plain midpoint path agrees.
    plane = _plane(spec)
    pairs = plane.pairs
    rng = random.Random(2)
    verdicts = {True: 0, False: 0}
    done = 0
    while done < bases:
        k1, k2 = rng.randrange(len(pairs)), rng.randrange(len(pairs))
        base = [pairs[k1], pairs[k2]]
        if k1 == k2 or classify_trivial_arrangement(base) != NONTRIVIAL:
            continue
        done += 1
        state, lines = plane.state((k1, k2))
        for k, pair in enumerate(pairs):
            if k in (k1, k2):
                continue
            fast = plane.extends(state, lines, k)
            assert fast == is_bisector_arrangement(base + [pair]).ok, (base, pair)
            verdicts[fast] += 1
    assert verdicts[True] and verdicts[False]


def test_oracle_annotations_resolve():
    for _, func in inspect.getmembers(oracle, inspect.isfunction):
        if func.__module__ == oracle.__name__:
            typing.get_type_hints(func)


def _scalar_value(f, x, y):
    """f(x, y) as a Scalar expression in the coefficients of f."""
    a, b, c, d, e, g = f.coefficients()
    return a * x * x + b * x * y + c * y * y + d * x + e * y + g


class TestIntKernels:
    """The oracle's int kernels against the same quantities in Scalar."""

    @pytest.mark.parametrize("spec", [F3, F5], ids=["F3", "F5"])
    def test_infinity_directions(self, spec):
        p = spec.p
        for f in enumerate_quadratics(spec):
            a, b, c = f.raw[:3]
            # a x^2 + b xy + c y^2 at [1 : 0] and at each [t : 1].
            want = (a % p == 0) + sum((a * t * t + b * t + c) % p == 0 for t in range(p))
            assert _infinity_directions(f.key(), p) == want, f

    @pytest.mark.parametrize("spec", [F3, F5], ids=["F3", "F5"])
    def test_midpoint_agrees_with_conic_mid(self, spec):
        kernel = _crossings(spec)
        quads = enumerate_quadratics(spec)
        sample = random.Random(5).sample(quads, min(len(quads), 300))
        seen = set()
        for i, line in enumerate(enumerate_lines(spec)):
            for f in sample:
                r = mid(f, line)
                if not r.crosses:
                    want = _FREE
                elif r.midpoint.is_infinite:
                    want = _INF
                else:
                    want = line.param_of(r.midpoint.point).value
                assert kernel.crossings([f.key()], i) == {want} - {_FREE}, (f, line)
                assert _per_key_mid(kernel, f.key(), i) == want, (f, line)
                if r.crosses:
                    assert kernel.midpoint(r.midpoint, i) == want
                seen.add(min(want, 0))
        assert seen == {_FREE, _INF, 0}

    @pytest.mark.parametrize("spec", [F3, F5], ids=["F3", "F5"])
    def test_crossing_params_agree_with_intersect(self, spec):
        # The engine's int crossing parameters against the library's
        # intersection point, read back as a parameter of line i.
        lines = enumerate_lines(spec)
        param = _plane(spec).param
        for i, li in enumerate(lines):
            for j, lj in enumerate(lines):
                if li.is_parallel_to(lj):
                    assert param[i][j] is None, (li, lj)
                else:
                    assert param[i][j] == li.param_of(intersect(li, lj)).value, (li, lj)

    @pytest.mark.parametrize("spec", [F3, F5], ids=["F3", "F5"])
    def test_vertex_filter_agrees_with_evaluate(self, spec):
        rng = random.Random(3)
        quads = enumerate_quadratics(spec)
        for npoints in (1, 2, 3, 4, 4, 4, 5):
            cells = rng.sample([(x, y) for x in range(spec.p) for y in range(spec.p)],
                               npoints)
            points = [(spec.scalar(x), spec.scalar(y)) for x, y in cells]
            want = [f.key() for f in quads
                    if all(_scalar_value(f, x, y).is_zero for x, y in points)]
            assert _through_points(quadratic_keys(spec), cells, spec.p) == want

    @pytest.mark.parametrize("spec", [F3, F5], ids=["F3", "F5"])
    def test_net_keys_agree_with_net_member(self, spec):
        rng = random.Random(4)
        for _ in range(5):
            pencil = _rand_pencil(rng, spec)
            want = [net_member(pencil, NetCoords(c.alpha, c.beta, lam)).key()
                    for c in _directions(spec) for lam in spec.elements()]
            assert _net_keys(pencil) == want


def _per_key_mid(kernel, key, i):
    """One quadratic's midpoint on line i, per key: the restriction A t^2 + B t + C,
    then -B/2A, _INF (A = 0 != B) or _FREE (no crossing)."""
    a, b, c, d, e, g = key
    bx, by, dx, dy = kernel.frames[i]
    p = kernel.p
    A = (a * dx * dx + b * dx * dy + c * dy * dy) % p
    B = ((2 * a * bx + b * by + d) * dx + (b * bx + 2 * c * by + e) * dy) % p
    if not A:
        return _INF if B else _FREE
    C = (a * bx * bx + b * bx * by + c * by * by + d * bx + e * by + g) % p
    if not kernel.is_square[(B * B - 4 * A * C) % p]:
        return _FREE
    return -B * kernel.half_inverse[A] % p


def _canonical(spec, key):
    return Quadratic.from_ints(spec, key).canonical().key()


class TestScanKernels:
    """The oracle's shared-work scans against their per-key definitions."""

    @pytest.mark.parametrize("spec", [F3, F5, F7], ids=["F3", "F5", "F7"])
    def test_crossings_are_the_per_key_midpoints(self, spec):
        kernel, keys, p = _crossings(spec), quadratic_keys(spec), spec.p
        rng = random.Random(11)
        heads = [key[:5] for key in rng.sample(keys, 12)]  # a small pool, so heads recur
        for trial in range(60):
            if trial % 3 == 0:  # no runs: scattered keys
                chosen = rng.sample(keys, rng.randrange(1, 12))
            elif trial % 3 == 1:  # runs of shifts, a head recurring after others
                chosen = []
                for _ in range(rng.randrange(1, 6)):
                    head = rng.choice(heads)
                    chosen += [head + (g,) for g in rng.sample(range(p), rng.randrange(1, p + 1))]
            else:  # the net of a pencil, in the checkers' order
                chosen = _net_keys(_rand_pencil(rng, spec))
            for i in range(len(kernel.lines)):
                want = {_per_key_mid(kernel, key, i) for key in chosen} - {_FREE}
                assert kernel.crossings(chosen, i) == want, (chosen, i)

    @pytest.mark.parametrize("spec", [F3, F5, F7], ids=["F3", "F5", "F7"])
    def test_meets_is_the_library_meets(self, spec):
        kernel, keys = _crossings(spec), quadratic_keys(spec)
        verdicts = set()
        for key in random.Random(13).sample(keys, min(len(keys), 150)):
            f = Quadratic.from_ints(spec, key)
            for i, line in enumerate(kernel.lines):
                verdict = kernel.meets(key, i)
                assert verdict == conic.meets(f, line), (key, i)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("spec", [F3, F5, F7], ids=["F3", "F5", "F7"])
    def test_open_pairs_and_extends_are_the_full_scan(self, spec):
        plane, rng = _plane(spec), random.Random(12)
        for _ in range(40):
            state, lines = plane.state(rng.sample(range(len(plane.pairs)), rng.randrange(1, 5)))
            open_pairs = plane.open_pairs(state)
            assert open_pairs == [k for k, (i, j) in enumerate(plane.pair_lines)
                                  if state[i] != _CONFLICT and state[j] != _CONFLICT]
            assert ([k for k in open_pairs if plane.extends(state, lines, k)]
                    == [k for k in range(len(plane.pairs)) if plane.extends(state, lines, k)])

    @pytest.mark.parametrize("spec,seeds", [(F5, range(10)), (F7, [0, 7])], ids=["F5", "F7"])
    def test_two_vertex_index_is_the_vertex_filter(self, spec, seeds):
        # Every quadrilateral cor-5.6 checks at these seeds, drawn as it draws them:
        # the first 20 with four finite distinct vertices.
        keys = quadratic_keys(spec)
        for seed in seeds:
            rng, kept = random.Random(seed), 0
            while kept < 20:
                vs = vertices(_rand_quadrilateral(rng, spec))
                if any(v.is_infinite for v in vs) or len(set(vs)) != 4:
                    continue
                kept += 1
                points = [(v.x.value, v.y.value) for v in vs]
                assert _through_vertices(spec, points) == _through_points(keys, points, spec.p), points

    @pytest.mark.parametrize("spec", [F5, F7, GF(11)], ids=["F5", "F7", "F11"])
    def test_net_pairs_are_the_brute_reducible_members(self, spec):
        table, p, rng = reducible_table(spec), spec.p, random.Random(13)
        directions = [(1, t) for t in range(p)] + [(0, 1)]  # as _net_keys
        for n in range(30):
            pencil = (_rand_pencil if n % 2 else _rand_reducible_pencil)(rng, spec)
            brute = {}
            for m, key in enumerate(_net_keys(pencil)):
                pair = table.get(_canonical(spec, key))
                if pair is not None and pair not in brute:
                    brute[pair] = (*directions[m // p], m % p)
            got = [(c.raw, pair) for c, pair in AsymptoticPencil(pencil).members()]
            assert got == [(coords, pair) for pair, coords in brute.items()], pencil

    def test_int_center_is_the_library_center(self):
        seen = 0
        for key in quadratic_keys(F7):
            if _infinity_directions(key, 7) == 2:
                seen += 1
                assert _int_center(key, 7) == center(Quadratic.from_ints(F7, key)).raw, key
        assert seen == 9604

    def test_library_work_is_not_skipped(self, monkeypatch):
        # prop-2.2 asks degenerations once per class and never center;
        # lemma-5.2 asks pair_through_line once per line and pencil.
        degens = _count_calls(monkeypatch, conic.degenerations)
        centers = _count_calls(monkeypatch, conic.center)
        through = _count_calls(monkeypatch, oracle.pair_through_line)
        assert run_check("prop-2.2", F5).passed
        assert (len(degens), len(centers)) == (3875, 0)
        assert run_check("lemma-5.2", F5).passed
        assert len(through) == 100 * 30


def _expanded(spec):
    """``_maximal_orbits`` expanded, orbit by orbit: the pairs by sort key, and
    the sorted orbits of sorted index tuples into them."""
    pairs = sorted(_plane(spec).pairs, key=LinePair.sort_key)
    rank = {pair: r for r, pair in enumerate(pairs)}
    return pairs, sorted([tuple(rank[p] for p in s) for s in _expanded_sets(spec, [rep])]
                         for rep, _ in _maximal_orbits(spec))


@pytest.fixture(scope="module")
def gf5_orbits():
    return _expanded(F5)


@pytest.fixture(scope="module")
def gf11_orbits():
    return _maximal_orbits(GF(11))


def _plain_maximal_search(spec):
    """Every maximal set grown from every nontrivial two-pair seed, unreduced."""
    plane = _plane(spec)
    found, visited = set(), set()
    for i, j in itertools.combinations(range(len(plane.pairs)), 2):
        if classify_trivial_arrangement([plane.pairs[i], plane.pairs[j]]) != NONTRIVIAL:
            continue
        stack = [frozenset((i, j))]
        while stack:
            members = stack.pop()
            if members in visited:
                continue
            visited.add(members)
            state, lines = plane.state(members)
            ext = [k for k in range(len(plane.pairs))
                   if k not in members and plane.extends(state, lines, k)]
            if not ext:
                found.add(frozenset(plane.pairs[k] for k in members))
            stack += [members | {k} for k in ext]
    return found


def _closure(gens):
    """The group of line permutations that the permutations generate."""
    identity = tuple(range(len(gens[0])))
    group, todo = {identity}, [identity]
    while todo:
        perm = todo.pop()
        for g in gens:
            composed = tuple(g[i] for i in perm)
            if composed not in group:
                group.add(composed)
                todo.append(composed)
    return group


def _image(g, pair):
    inverse = g.inverse()  # the image of a line is its preimage under the inverse
    return LinePair(inverse.pull_line(pair.first), inverse.pull_line(pair.second))


class TestAffineReduction:
    """The AGL(2,p) action and the orbit-reduced maximal-arrangement search."""

    @pytest.mark.parametrize("spec,order", [(F3, 432), (F5, 12_000)], ids=["F3", "F5"])
    def test_generators_close_to_the_affine_group(self, spec, order):
        # |AGL(2,p)| = p^2 (p^2 - 1)(p^2 - p), and it acts faithfully on lines.
        assert len(_closure(_plane(spec).affine_generators())) == order

    @pytest.mark.parametrize("spec", [F3, F5, F7], ids=["F3", "F5", "F7"])
    def test_stabilizer_generators_fix_their_normal_form(self, spec):
        plane = _plane(spec)
        stabilizers = plane.stabilizer_generators()
        assert len(stabilizers) == len(plane.normal_forms()) == 3
        for a, gens in zip(plane.normal_forms(), stabilizers):
            assert gens and all(plane.pair_permutation(g)[a] == a for g in gens)

    @pytest.mark.parametrize("spec,sizes", [
        (F3, [(8, 54), (36, 12), (36, 12)]),
        (F5, [(32, 375), (200, 60), (400, 30)]),
    ], ids=["F3", "F5"])
    def test_stabilizer_order_times_orbit_is_the_group(self, spec, sizes):
        # Orbit-stabilizer: each generated group is the whole stabilizer of A.
        p, plane = spec.p, _plane(spec)
        perms = [plane.pair_permutation(g) for g in plane.affine_generators()]
        found = [(len(_closure(gens)), len(_orbit(perms, frozenset([a]))))
                 for a, gens in zip(plane.normal_forms(), plane.stabilizer_generators())]
        assert found == sizes
        assert {order * size for order, size in found} == {p * p * (p * p - 1) * (p * p - p)}

    @pytest.mark.parametrize("spec,count", [(F3, 21), (F5, 31)], ids=["F3", "F5"])
    def test_seeds_are_one_per_stabilizer_orbit(self, spec, count):
        plane = _plane(spec)
        pairs, seeds = plane.pairs, _seeds(plane)
        assert len(seeds) == len(set(seeds)) == count
        for a, gens in zip(plane.normal_forms(), plane.stabilizer_generators()):
            perms = [plane.pair_permutation(g) for g in gens]
            reps = [r for b, r in seeds if b == a]
            for q in range(len(pairs)):
                orbit = {k for (k,) in _orbit(perms, frozenset([q]))}
                nontrivial = q != a and classify_trivial_arrangement(
                    [pairs[a], pairs[q]]) == NONTRIVIAL
                assert len(orbit.intersection(reps)) == nontrivial, (a, q)

    @pytest.mark.parametrize("spec", [F3, F5, F7], ids=["F3", "F5", "F7"])
    def test_normal_forms_reach_every_pair(self, spec):
        # The search seeds rest on this: the orbits of the three normal
        # forms partition the pairs into doubles, parallels and crossings.
        p, plane = spec.p, _plane(spec)
        perms = [plane.pair_permutation(g) for g in plane.affine_generators()]
        orbits = [{k for (k,) in _orbit(perms, frozenset([a]))}
                  for a in plane.normal_forms()]
        n = p * p + p
        crossing, parallel, double = orbits
        assert len(double) == n
        assert len(parallel) == (p + 1) * p * (p - 1) // 2
        assert len(crossing) == n * (n - 1) // 2 - len(parallel)
        assert crossing | parallel | double == set(range(len(plane.pairs)))
        assert {plane.pairs[k].kind for k in double} == {DOUBLE}
        assert {plane.pairs[k].kind for k in parallel} == {PARALLEL}
        assert {plane.pairs[k].kind for k in crossing} == {CROSSING}

    def test_orbits_flatten_to_the_plain_search(self):
        found = exhaustive_maximal_arrangements(F3)
        assert len(found) == len(set(found)) == 990
        assert set(found) == _plain_maximal_search(F3)
        keys = [sorted(p.sort_key() for p in s) for s in found]
        assert keys == sorted(keys)

    def test_orbit_verdict_is_the_per_set_verdict(self):
        pairs, orbits = _expanded(F3)
        assert len(orbits) == 9
        verdicts = {True: 0, False: 0}
        for orbit in orbits:
            want = _is_asymptotic_pencil([pairs[r] for r in orbit[0]])
            for s in orbit:
                assert _is_asymptotic_pencil([pairs[r] for r in s]) == want
                verdicts[want] += 1
        assert verdicts == {True: 810, False: 180}

    def test_gf5_orbits(self, gf5_orbits):
        pairs, orbits = gf5_orbits
        sizes = sorted((len(orbit) for orbit in orbits), reverse=True)
        assert sizes == [6000, 4000, 3000, 3000, 2000, 2000, 750, 600, 375, 150]
        assert sum(sizes) == 21_875
        pencils, escaping = 0, []
        for orbit in orbits:
            rep = [pairs[r] for r in orbit[0]]
            assert is_bisector_arrangement(rep).ok
            if _is_asymptotic_pencil(rep):
                pencils += len(orbit)
                continue
            escaping.append((len(rep), len(orbit)))
            assert not any(is_bisector_arrangement(rep + [q]).ok
                           for q in pairs if q not in rep)
        assert pencils == 19_125
        assert sorted(escaping) == [(3, 2000), (8, 750)]

    @pytest.mark.parametrize("spec", [F3, F5], ids=["F3", "F5"])
    def test_arrangement_verdict_is_affine_invariant(self, spec, gf5_orbits):
        # The reduction rests on this: g.S is an arrangement exactly when S is.
        pairs, orbits = _expanded(spec) if spec is F3 else gf5_orbits
        rng = random.Random(6)
        verdicts = {True: 0, False: 0}
        for _ in range(12):
            while True:
                try:
                    g = AffineMap(*(spec.scalar(rng.randrange(spec.p)) for _ in range(6)))
                    break
                except ValueError:
                    continue
            orbit = orbits[rng.randrange(len(orbits))]
            found = [pairs[r] for r in orbit[rng.randrange(len(orbit))]]
            for s in (found, found + [rng.choice([q for q in pairs if q not in found])]):
                ok = is_bisector_arrangement(s).ok
                assert ok == is_bisector_arrangement([_image(g, p) for p in s]).ok
                verdicts[ok] += 1
        assert verdicts[True] and verdicts[False]


def _closure_orbits(spec):
    """The orbits as the search grouped them before orbit-stabilizer sizes:
    every maximal set grown from the seeds, each new one closed under the
    generators, in the shape of ``_expanded``."""
    plane = _plane(spec)
    pairs = plane.pairs
    results, visited = set(), set()
    all_idx = tuple(range(len(pairs)))
    for seed in _seeds(plane):
        stack = [(frozenset(seed), *plane.state(seed), all_idx)]
        while stack:
            members, state, lines, cands = stack.pop()
            if members in visited:
                continue
            visited.add(members)
            ext = tuple(k for k in cands if k not in members and plane.extends(state, lines, k))
            if not ext:
                results.add(members)
                continue
            for k in ext:
                nxt = members | {k}
                if nxt not in visited:
                    grown = lines + [i for i in set(plane.pair_lines[k]) if i not in lines]
                    stack.append((nxt, plane.add(state, k), grown, ext))
    perms = [plane.pair_permutation(g) for g in plane.affine_generators()]
    orbits = []
    for members in results:
        if not any(members in orbit for orbit in orbits):
            orbits.append(_orbit(perms, members))
    by_key = sorted(all_idx, key=lambda k: pairs[k].sort_key())
    rank = {k: r for r, k in enumerate(by_key)}
    ranked = [sorted(tuple(sorted(rank[k] for k in s)) for s in orbit) for orbit in orbits]
    return [pairs[k] for k in by_key], sorted(ranked)


def _pulled_permutations(plane, *maps):
    """Line-id permutations through the library's ``AffineMap.pull_line``."""
    index = {line: i for i, line in enumerate(plane.lines)}
    return [[index[_affine_map(plane.spec, *m).pull_line(line)] for line in plane.lines]
            for m in maps]


def _count_calls(monkeypatch, real):
    """Count the calls of ``real`` through every binding of it in a bisectrix module."""
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bisectrix":
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestOrbitStabilizer:
    """Orbits sized by orbit-stabilizer and told apart by canonical forms."""

    @pytest.mark.parametrize("spec,sizes", [
        (F3, [216, 216, 144, 108, 72, 72, 72, 54, 36]),
        (F5, [6000, 4000, 3000, 3000, 2000, 2000, 750, 600, 375, 150]),
    ], ids=["F3", "F5"])
    def test_sizes_are_the_expanded_orbits(self, spec, sizes):
        plane = _plane(spec)
        perms = [plane.pair_permutation(g) for g in plane.affine_generators()]
        found = _maximal_orbits(spec)
        assert sorted((size for _, size in found), reverse=True) == sizes
        for rep, size in found:
            # The representative is a set of its orbit, holding {X=0, Y=0}.
            assert list(rep) == sorted(set(rep)) and plane.normal_forms()[0] in rep
            assert len(_orbit(perms, frozenset(rep))) == size

    @pytest.mark.parametrize("spec", [F3, F5], ids=["F3", "F5"])
    def test_same_partition_as_the_closure(self, spec):
        assert _expanded(spec) == _closure_orbits(spec)

    def test_gf7_orbits(self):
        # The 10 known orbits, 155,036 sets, without expanding one.
        sizes = sorted(size for _, size in _maximal_orbits(F7))
        assert sizes == [392, 1372, 2352, 2744, 16464, 16464, 16464, 16464, 32928, 49392]
        assert sum(sizes) == 155_036

    def test_gf11_orbits(self, gf11_orbits):
        sizes = sorted(size for _, size in gf11_orbits)
        assert sizes == [1452, 7986, 14520, 15972, 159720, 159720,
                         266200, 266200, 532400, 798600]
        assert sum(sizes) == 2_222_770


class TestWitnessConfirmation:
    """``thm-6.3`` confirms a witness against the pairs whose lines both bisect it."""

    def test_members_pass_the_filter_over_f3(self):
        # Each of the 990 sets, less any one member, is extended by it.
        for found in exhaustive_maximal_arrangements(F3):
            for member in found:
                assert member in _extension_candidates(F3, [p for p in found if p != member])

    def test_every_extension_passes_the_filter_over_f3(self):
        pairs, orbits = _expanded(F3)
        for orbit in orbits:
            found = [pairs[r] for r in orbit[0]]
            for member in found:
                rest = [p for p in found if p != member]
                candidates = _extension_candidates(F3, rest)
                for q in pairs:
                    if q not in rest and is_bisector_arrangement(rest + [q]).ok:
                        assert q in candidates

    def test_every_extension_passes_the_filter_over_f5(self):
        # 600 random arrangements that still have extensions: each pair that
        # extends one on the midpoint path is a candidate, and a sample of the
        # pairs that are not candidates do not extend it.
        plane, rng = _plane(F5), random.Random(23)
        pairs, checked, extensions = plane.pairs, 0, 0
        while checked < 600:
            members, ext = [rng.randrange(len(pairs))], range(len(pairs))
            for _ in range(rng.randint(1, 4)):
                members.append(rng.choice([k for k in ext if k not in members]))
                state, lines = plane.state(members)
                ext = [k for k in ext if k not in members and plane.extends(state, lines, k)]
                if not ext:
                    break
            if not ext:
                continue
            checked += 1
            found = [pairs[k] for k in members]
            candidates = set(_extension_candidates(F5, found))
            for k in ext:
                assert is_bisector_arrangement(found + [pairs[k]]).ok
                assert pairs[k] in candidates
                extensions += 1
            others = [q for q in pairs if q not in candidates and q not in found]
            for q in rng.sample(others, min(3, len(others))):
                assert not is_bisector_arrangement(found + [q]).ok
        assert extensions > checked

    def test_confirmation_counts(self, monkeypatch):
        from bisectrix import bisector, conic

        arrangements = _count_calls(monkeypatch, bisector.is_bisector_arrangement)
        mids = _count_calls(monkeypatch, conic._mid_param)
        report = run_check("thm-6.3", F3)
        assert report.verdict == "fail"
        assert (len(arrangements), len(mids)) == (30, 900)


class TestIntPermutations:
    """``_Plane.permutations`` in ints equals the library's ``pull_line``."""

    @pytest.mark.parametrize("spec", [F3, F5, F7], ids=["F3", "F5", "F7"])
    def test_permutations_match_pull_line(self, spec):
        p, plane, rng = spec.p, _plane(spec), random.Random(9)
        maps = []
        while len(maps) < 20:
            m = tuple(rng.randrange(-p, 2 * p) for _ in range(6))
            if (m[0] * m[3] - m[1] * m[2]) % p:
                maps.append(m)
        assert plane.permutations(*maps) == _pulled_permutations(plane, *maps)
        assert plane.affine_generators() == _pulled_permutations(
            plane, (1, 0, 0, 1, 1, 0), (1, 1, 0, 1, 0, 0), (0, 1, 1, 0, 0, 0),
            *[(a, 0, 0, 1, 0, 0) for a in range(2, p)])

    @pytest.mark.parametrize("spec", [F3, F5, F7], ids=["F3", "F5", "F7"])
    def test_line_ids(self, spec):
        plane = _plane(spec)
        for i, line in enumerate(plane.lines):
            u, v, w = line.raw
            assert plane.line_id(u, v, w) == plane.line_id(2 * u, 2 * v, 2 * w - spec.p) == i

    def test_generators_are_built_on_first_use_once(self, monkeypatch):
        calls = []
        real = oracle._Plane.permutations
        monkeypatch.setattr(oracle._Plane, "permutations",
                            lambda self, *maps: calls.append(maps) or real(self, *maps))
        plane = oracle._Plane(F7)
        assert calls == []
        first = (plane.affine_generators(), plane.stabilizer_generators())
        assert len(calls) == 4
        assert (plane.affine_generators(), plane.stabilizer_generators()) == first
        assert len(calls) == 4
