"""Tests of the benchmark's reference code and output checks.

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

Nothing here imports ``bisectrix``: the reference is tested against closed
forms, hand-worked cases, symmetry, and its own two routes to the same
answer (factoring against the table of all line-pair products).
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import queries  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402


def test_prop_2_2_closed_forms():
    want = {3: (351, 162, 36), 5: (3875, 1875, 150), 7: (19551, 9604, 392)}
    for p, (classes, unique, family) in want.items():
        forms = ref.prop_2_2_closed_forms(p)
        assert (forms["classes_checked"], forms["unique"], forms["family"]) == (classes, unique, family)
        assert ref.prop_2_2_counts(p) == forms


def test_factor_agrees_with_the_product_table():
    for p in (3, 5):
        k, table = ref.K(p), ref.reducible_table(p)
        for lead in range(3):
            for tail in ref._tuples(p, 5 - lead):
                f = (0,) * lead + (1,) + tail
                assert ref.factor(k, f) == table.get(f), f


def test_classification_by_hand():
    q, f5, f7 = ref.K(None), ref.K(5), ref.K(7)
    assert ref.classify(q, (0, 1, 0, 0, 0, -1)) == ("hyperbola", False)     # xy - 1
    assert ref.classify(q, (1, 0, 1, 0, 0, -1)) == ("ellipse", False)       # x^2 + y^2 - 1
    assert ref.classify(f5, (1, 0, 1, 0, 0, -1)) == ("hyperbola", False)    # -1 is a square mod 5
    assert ref.classify(q, (1, 0, 0, 0, 0, -2)) == ("parabola", False)      # x^2 - 2 over Q
    assert ref.classify(f7, (1, 0, 0, 0, 0, -2)) == ("parabola", True)      # 3^2 = 2 mod 7
    assert ref.classify(q, (1, 0, -1, 0, 0, 0)) == ("hyperbola", True)      # (x - y)(x + y)
    assert ref.shift_degeneration(q, (1, 0, 0, 3, 0, 5)) == "family"        # x^2 + 3x + 5
    assert ref.shift_degeneration(q, (1, 0, 0, 0, 1, 0)) == "none"          # x^2 + y


def test_midpoints_by_hand():
    q = ref.K(None)
    x_axis_normal = ref.line(q, 1, 0, 0)                                    # x = 0
    xy = (0, 1, 0, 0, 0, 0)
    g = (1, 0, -1, -4, -2, 3)                                               # x^2-y^2-4x-2y+3
    assert ref.mid(q, xy, x_axis_normal) == ("meets-no-cross", None)
    # On x = 0: -y^2 - 2y + 3 = 0 at y = 1 and y = -3, midpoint (0, -1).
    assert ref.mid(q, g, x_axis_normal) == ("crosses", (0, -1))
    assert ref.common_midpoint(q, x_axis_normal, [xy, g]) == (0, -1)
    # A line parallel to one component of a pair: infinite midpoint.
    assert ref.mid(q, ref.product(q, ((0, 1, 0), (1, 0, 0))), ref.line(q, 0, 1, 5))[1] == ref.INF


def test_text_forms_round_trip():
    rng = random.Random(5)
    for p in (None, 7, 101):
        k = ref.K(p)
        gen = queries._Gen(rng, k)
        for _ in range(200):
            f = gen.quadratic()
            assert ref.parse_poly(k, ref.poly_text(k, f)) == f
            l = gen.line()
            assert ref.parse_triple(k, ref.triple_text(l)) == l
    assert ref.parse_line_equation(ref.K(None), "x-3/2*y+1=0") == (1, Fraction(-3, 2), 1)
    assert ref.parse_line_equation(ref.K(None), "y=0") == (0, 1, 0)


def test_involution_swaps_crossings():
    rng = random.Random(3)
    k = ref.K(11)
    gen = queries._Gen(rng, k)
    swapped = 0
    while swapped < 20:
        f1, f2 = gen.pencil()
        l = gen.line()
        coeffs = ref.involution_coefficients(k, f1, f2, l)
        if coeffs is None:
            continue
        p, q, r = coeffs
        for al, be in [(1, t) for t in range(11)] + [(0, 1)]:
            A, B, C = ref.restrict(k, ref.add(k, (al, f1), (be, f2)), l)
            root = k.sqrt(B * B - 4 * A * C) if A else None
            if root is None:
                continue
            t1, t2 = k.div(-B + root, 2 * A), k.div(-B - root, 2 * A)
            den = k(r * t1 - p)
            assert den != 0 and k.div(p * t1 + q, den) == t2
            swapped += 1


def _affine_line_map(k, m, t):
    """Image of a line under the point map P -> M P + t (M invertible)."""
    (a, b), (c, d) = m
    det_inv = k.div(1, a * d - b * c)
    inv = ((k(d * det_inv), k(-b * det_inv)), (k(-c * det_inv), k(a * det_inv)))

    def image(l):
        u, v, w = l
        u2 = k(u * inv[0][0] + v * inv[1][0])
        v2 = k(u * inv[0][1] + v * inv[1][1])
        return ref.line(k, u2, v2, w - u2 * t[0] - v2 * t[1])

    return image


def test_gf3_search_counts_and_symmetry():
    n, ap, sets = ref.search_counts(3)
    assert (n, ap) == (990, 810)
    k = ref.K(3)
    maps = [(((1, 0), (0, 1)), (1, 0)), (((1, 0), (0, 1)), (0, 2)),
            (((0, 1), (1, 0)), (0, 0)), (((1, 1), (0, 1)), (0, 0)), (((2, 0), (0, 1)), (1, 1))]
    for m, t in maps:
        image = _affine_line_map(k, m, t)
        moved = {frozenset(ref.pair(image(a), image(b)) for a, b in s) for s in sets}
        assert moved == sets, (m, t)


def test_gf3_search_sets_are_maximal_arrangements():
    _, _, sets = ref.search_counts(3)
    k = ref.K(3)
    universe = ref.all_pairs(k)
    for s in sorted(sets, key=sorted)[::45]:
        pairs = sorted(s)
        assert ref.is_arrangement(k, pairs)
        assert ref.triviality(k, pairs) == "nontrivial"
        assert not any(ref.is_arrangement(k, pairs + [q]) for q in universe if q not in s)


def _oracle_records(reports):
    return [{"rc": 0 if r["verdict"] == "pass" else 1, "out": json.dumps(r)} for r in reports]


def test_oracle_check_counts_short_runs_as_failed():
    seed = 4
    reports = []
    for cid in workloads.ORACLE_F7_IDS:
        policy = checks._policy(cid, seed)
        if cid == "prop-2.2":
            witness = ref.prop_2_2_closed_forms(7)
        elif cid == "prop-4.3-construction":
            witness = {"solvable": 120, "unsolvable": 73}   # 193 of 200
        else:
            witness = {checks.INSTANCE_KEYS[cid]: workloads.REQUESTED[cid],
                       "lines_each": 56, "pairs_scanned": 1596}
        reports.append({"check": cid, "field": "F7", "policy": policy,
                        "verdict": "pass", "witnesses": [witness]})
    assert checks.check_oracle_f7(_oracle_records(reports), seed) == (1, [])
    reports[0]["witnesses"][0]["unique"] += 1
    assert checks.check_oracle_f7(_oracle_records(reports), seed)[1]


def test_lemma_6_2_witness_is_rederived():
    k = ref.K(7)
    # A counterexample found over GF(7); each line of the extension has two partners.
    good = {"arrangement": "1,0,6;1,3,2|1,0,6;1,2,4", "extension": "1,2,4;1,3,2",
            "partner_counts": {"1,2,4": 2, "1,3,2": 2}, "confirmed_by_midpoint_path": True}
    assert checks.rederive_lemma_6_2(k, good) == []
    bad = dict(good, partner_counts={"1,2,4": 1, "1,3,2": 2})
    assert checks.rederive_lemma_6_2(k, bad)


def test_query_checks_reject_wrong_answers():
    k = ref.K(None)
    q = queries.Query("classify", k, [], {"f": (0, 1, 0, 0, 0, -1)})
    assert checks._check_classify(k, q, {"class": "hyperbola", "degenerate": False}) == []
    assert checks._check_classify(k, q, {"class": "ellipse", "degenerate": False})
    q = queries.Query("asymptotes", k, [], {"f": (0, 1, 0, 0, 0, -1)})
    assert checks._check_asymptotes(k, q, {"lambda": "1", "lines": ["y=0", "x=0"]}) == []
    assert checks._check_asymptotes(k, q, {"lambda": "2", "lines": ["y=0", "x=0"]})


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
