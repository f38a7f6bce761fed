"""The summary arithmetic of ``tools/bench_record.py`` on fixed numbers."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import bench_record  # noqa: E402

PARENT = [16.3, 15.9, 17.2, 14.8, 16.0, 18.4, 15.5, 16.1, 17.0, 16.6]
CHANGE = [10.7, 11.2, 10.1, 15.0, 10.9, 11.8, 10.4, 10.8, 16.0, 11.1]


def test_medians_and_inclusive_quartiles():
    s = bench_record.summarize(PARENT, CHANGE, "lower")
    # Sorted parent: 14.8 15.5 15.9 16.0 16.1 16.3 16.6 17.0 17.2 18.4, and
    # change: 10.1 10.4 10.7 10.8 10.9 11.1 11.2 11.8 15.0 16.0; the inclusive
    # quartiles sit at positions 2.25 and 6.75 of 0..9.
    assert s["parent"] == {"median": 16.2, "q1": 15.925, "q3": 16.9}
    assert s["change"] == {"median": 11.0, "q1": 10.725, "q3": 11.65}


@pytest.mark.parametrize("better,wins", [("lower", "9/10"), ("higher", "1/10")])
def test_wins_count_pairs_the_change_reads_better(better, wins):
    # Pair 3 (14.8 against 15.0) is the one the parent wins when lower is better.
    assert bench_record.summarize(PARENT, CHANGE, better)["change_wins"] == wins


def test_ties_are_no_win():
    assert bench_record.summarize([1.0, 2.0], [1.0, 3.0], "lower")["change_wins"] == "0/2"


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        bench_record.summarize([1.0, 2.0], [1.0], "lower")


def test_verdict_and_claim_lines():
    s = bench_record.summarize(PARENT, CHANGE, "lower")
    assert bench_record.verdict("op_p99_ms", s) == "op_p99_ms 16.2 -> 11.0 (-32.1 %, 9/10)"
    assert bench_record.claim_line("op_p99_ms", s).endswith(
        "; median gain 5.2000 against a parent IQR of 0.9750")
