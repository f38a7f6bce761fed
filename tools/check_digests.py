"""Output digests of every oracle check at p = 3, 5 and 7.

For each check id and field it runs

    python3 -m bisectrix check --field F<p> <id>

from this checkout's ``src/`` and records the exit code and the sha256 of
stdout, then prints them as JSON keyed "F<p> <id>", the layout of the
``check_digests.digests`` entry of a ``BENCH_*.json``.  Given such a file it
also compares against it, lists every key whose exit code or digest differs
(or is missing) on stderr, and exits 1 on any mismatch:

    python3 tools/check_digests.py                 # print the 51 digests
    python3 tools/check_digests.py BENCH_7.json    # print, then compare
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIELDS = (3, 5, 7)


def check_ids() -> tuple[str, ...]:
    sys.path.insert(0, str(ROOT / "src"))
    from bisectrix.oracle import CHECK_IDS

    return CHECK_IDS


def digest(p: int, check_id: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "bisectrix", "check", "--field", f"F{p}", check_id],
        cwd=ROOT, env=env, capture_output=True,
    )
    return {"exit": done.returncode, "stdout_sha256": hashlib.sha256(done.stdout).hexdigest()}


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
    expected = None
    if args.bench is not None:
        expected = json.loads(args.bench.read_text())["check_digests"]["digests"]
    found = {f"F{p} {cid}": digest(p, cid) for p in FIELDS for cid in check_ids()}
    print(json.dumps(found, indent=2))
    if expected is None:
        return 0
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
