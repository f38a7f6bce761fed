r"""Output digests of every oracle check at p = 3, 5 and 7.

For each check id and field it runs

    python3 -m bisectrix check --field F<p> <id>

from this checkout's ``src/`` and records the exit code and the sha256 of
stdout, then prints them as JSON keyed "F<p> <id>", the layout of the
``check_digests.digests`` entry of a ``BENCH_*.json``.  It also runs the
1104 commands of query rounds 0 to 2 at seed 0 (``bench/workloads.py``)
in one process through ``bisectrix.cli.dispatch``, with stdout and stderr
captured as ``bench/worker.py`` does, and prints on stderr the sha256 over
``f"{rc}\n{stdout}\n"`` of each command in order: the ``queries_digest``
of a ``BENCH_*.json``.  Given such a file it also compares against it
(the queries digest against ``queries_digest.change``, where the file has
one), lists every key whose exit code or digest differs (or is missing) on
stderr, and exits 1 on any mismatch:

    python3 tools/check_digests.py                 # print the 51 digests
    python3 tools/check_digests.py BENCH_7.json    # print, then compare
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIELDS = (3, 5, 7)
QUERY_ROUNDS = 3
sys.path.insert(0, str(ROOT / "src"))


def check_ids() -> tuple[str, ...]:
    from bisectrix.oracle import CHECK_IDS

    return CHECK_IDS


def digest(p: int, check_id: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "bisectrix", "check", "--field", f"F{p}", check_id],
        cwd=ROOT, env=env, capture_output=True,
    )
    return {"exit": done.returncode, "stdout_sha256": hashlib.sha256(done.stdout).hexdigest()}


def queries_digest() -> str:
    """sha256 over exit code and stdout of the seed-0 query rounds, in order."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    from bisectrix.cli import dispatch

    h = hashlib.sha256()
    for r in range(QUERY_ROUNDS):
        for argv in workloads.round_argvs("queries", 0, r):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    rc = dispatch(argv)
                except Exception:  # as bench/worker.py records a crash
                    rc = "exception"
            h.update(f"{rc}\n{out.getvalue()}\n".encode())
    return h.hexdigest()


def mismatches(found: dict, expected: dict) -> list[str]:
    keys = sorted(set(found) | set(expected))
    return [
        f"{key}: expected {expected.get(key)}, got {found.get(key)}"
        for key in keys if found.get(key) != expected.get(key)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench", nargs="?", type=Path,
                        help="a BENCH_*.json whose check_digests to compare against")
    args = parser.parse_args(argv)
    found = {f"F{p} {cid}": digest(p, cid) for p in FIELDS for cid in check_ids()}
    print(json.dumps(found, indent=2))
    found["queries"] = queries_digest()
    print(f"queries digest {found['queries']}", file=sys.stderr)
    if args.bench is None:
        return 0
    bench = json.loads(args.bench.read_text())
    expected = dict(bench["check_digests"]["digests"])
    if "queries_digest" in bench:
        expected["queries"] = bench["queries_digest"]["change"]
    else:  # BENCH_6 and BENCH_7 predate the queries workload's digest
        del found["queries"]
    diff = mismatches(found, expected)
    for line in diff:
        print(line, file=sys.stderr)
    if diff:
        print(f"{len(diff)} digests differ from {args.bench}", file=sys.stderr)
        return 1
    print(f"all {len(found)} digests and exit codes match {args.bench}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
