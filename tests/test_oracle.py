import json

import pytest

from bisectrix.bisector import is_bisector_arrangement
from bisectrix.field import GF, rationals
from bisectrix.oracle import (
    OracleError,
    Policy,
    enumerate_line_pairs,
    enumerate_lines,
    enumerate_quadratics,
    exhaustive_maximal_arrangements,
    reducible_table,
    run_check,
)
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

    def test_reducible_table(self):
        table = reducible_table(F5)
        assert parse_quadratic(F5, "x^2-y^2").canonical().key() in table
        assert parse_quadratic(F5, "x*y-1").canonical().key() not in table


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
    def test_refusal_beyond_gf3(self):
        with pytest.raises(OracleError):
            exhaustive_maximal_arrangements(F5)

    def test_found_sets_are_honest_arrangements(self):
        found = exhaustive_maximal_arrangements(F3)
        assert len(found) == 990
        for arrangement in found[:5]:
            pairs = list(arrangement)
            assert is_bisector_arrangement(pairs).ok
            others = [p for p in enumerate_line_pairs(F3) if p not in pairs]
            assert not any(is_bisector_arrangement(pairs + [p]).ok for p in others)
