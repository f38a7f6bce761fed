"""Byte identity of CLI output against the newest committed benchmark record.

Each check id runs over GF(3), GF(5) and GF(7) in process through ``cli.dispatch``;
its exit code and the sha256 of its stdout must equal the ``"F<p> <id>"``
entry of the ``check_digests`` of the highest-numbered ``BENCH_*.json`` at
the repository root, the record ``tools/check_digests.py`` writes and
compares.  The seed-0
query rounds of ``bench/workloads.py`` must reproduce its ``queries_digest``:
they reach the output over Q (cubics, involutions, family samples, net
coordinates) that no GF(3) check prints.
"""

import hashlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from bisectrix.cli import dispatch
from bisectrix.oracle import CHECK_IDS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import check_digests  # noqa: E402


def _newest_bench() -> Path:
    found = [(int(m.group(1)), path) for path in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))]
    return max(found)[1]


NEWEST = _newest_bench()
RECORD = json.loads(NEWEST.read_text())
DIGESTS = RECORD["check_digests"]["digests"]


def _check_digest(field: str, check_id: str) -> dict:
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = dispatch(["check", "--field", field, check_id])
    finally:
        sys.stdout = old
    return {"exit": code, "stdout_sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_f3_output_matches_the_record(check_id):
    assert _check_digest("F3", check_id) == DIGESTS[f"F3 {check_id}"], f"differs from {NEWEST.name}"


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_f5_output_matches_the_record(check_id):
    assert _check_digest("F5", check_id) == DIGESTS[f"F5 {check_id}"], f"differs from {NEWEST.name}"


@pytest.mark.parametrize("check_id", [c for c in CHECK_IDS if c != "example-3.6"])
def test_f7_output_matches_the_record(check_id):
    assert _check_digest("F7", check_id) == DIGESTS[f"F7 {check_id}"], f"differs from {NEWEST.name}"


def test_queries_output_matches_the_record():
    expected = RECORD["queries_digest"]["change"]
    assert check_digests.queries_digest() == expected, f"differs from {NEWEST.name}"
