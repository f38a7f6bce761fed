r"""Record alternating parent/change runs of the benchmark as a BENCH_<n>.json.

    python3 tools/bench_record.py PARENT CHANGE --out BENCH_25.json \
        --title "..." --claim queries:op_p99_ms

PARENT and CHANGE are two checkouts, such as ``git archive`` trees of a
parent commit and of its change.  For each workload and seed it runs

    python3 bench/run.py --workload <w> --seed <s> --seconds <run_seconds> --trace 0

for 10 pairs at seeds 0 and 7, once in each checkout per pair, the parent
first in even pairs, under PYTHONDONTWRITEBYTECODE=1, and reads the JSON
line each run prints.  Workloads, run length and metrics are those of
CHANGE's ``BENCHMARK.json``.  For every end-to-end metric it writes the
parent's and the change's median and quartiles (inclusive) over the pairs,
in how many pairs the change reads better, and the runs.  It also records
the Python version and, from ``tools/check_digests.py`` run in both
checkouts first, the check digests and the ``queries`` digest.  The file is
rewritten after every workload, so an interrupted recording keeps what it
has measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
SEEDS = (0, 7)
BENCH_COMMAND = "python3 bench/run.py --workload <w> --seed <s> --seconds {seconds} --trace 0"
DIGEST_COMMAND = ("python3 tools/check_digests.py (PYTHONPATH=src python3 -m bisectrix "
                  "check --field F<p> <id>)")
QUERIES_COMMAND = ("tools/check_digests.py: seed-0 query rounds 0 to 2 of "
                   "bench/workloads.round_argvs through bisectrix.cli.dispatch in one process")
METHOD = ("parent and change in separate checkouts, one run each per pair, order "
          "alternating (parent first in even pairs), PYTHONDONTWRITEBYTECODE=1; "
          f"{PAIRS} pairs per workload at seeds {SEEDS[0]} and {SEEDS[1]}; medians and quartiles "
          "(inclusive) over the pairs; change_wins counts pairs where the change "
          "reads better")


def _stats(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, quartiles and pairwise wins of one metric over paired runs."""
    if len(parent) != len(change):
        raise ValueError("parent and change need one run each per pair")
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    return {"parent": _stats(parent), "change": _stats(change),
            "change_wins": f"{wins}/{len(parent)}"}


def verdict(name: str, summary: dict) -> str:
    """One metric as 'name parent -> change (+x.x %, wins)'."""
    p, c = summary["parent"]["median"], summary["change"]["median"]
    change = f"{(c - p) / p * 100:+.1f} %" if p else "n/a"
    return f"{name} {p} -> {c} ({change}, {summary['change_wins']})"


def claim_line(name: str, summary: dict) -> str:
    """A claimed metric with its median gain against the parent's IQR."""
    parent = summary["parent"]
    gain = abs(parent["median"] - summary["change"]["median"])
    iqr = parent["q3"] - parent["q1"]
    return (f"{verdict(name, summary)}; median gain {gain:.4f} against a parent IQR "
            f"of {iqr:.4f}")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def digests(checkout: Path) -> tuple[dict, str]:
    """The check digests and the queries digest of tools/check_digests.py."""
    done = subprocess.run([sys.executable, "tools/check_digests.py"], cwd=checkout,
                          capture_output=True, text=True, check=True)
    queries = re.search(r"^queries digest (\w+)$", done.stderr, re.M)
    return json.loads(done.stdout), queries.group(1)


def record_workload(parent: Path, change: Path, workload: str, seed: int,
                    seconds: float, metrics: list[dict]) -> dict:
    runs = {"parent": [], "change": []}
    for k in range(PAIRS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            out = run_bench(parent if side == "parent" else change, workload, seed, seconds)
            runs[side].append(out)
            print(f"{workload}/seed{seed} pair {k} {side}: "
                  f"{json.dumps({m: v['value'] for m, v in out['metrics'].items()})}",
                  file=sys.stderr)
    result = {
        "pairs": PAIRS,
        "failed": {side: [r["failed"] for r in runs[side]] for side in runs},
        "correct": {side: all(r["correct"] for r in runs[side]) for side in runs},
        "metrics": {},
    }
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        result["metrics"][name] = {
            "unit": metric["unit"],
            **summarize(values["parent"], values["change"], metric["better"]),
            "runs": {side: [round(v, 4) for v in values[side]] for side in runs},
        }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--title", required=True)
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                        help="a metric the change claims; the others are listed as not claimed")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    parent_digests, parent_queries = digests(args.parent)
    change_digests, change_queries = digests(args.change)
    record = {
        "title": args.title,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cores",
        "command": BENCH_COMMAND.format(seconds=seconds),
        "method": METHOD,
        "claim": "",
        "not_claimed": "",
        "workloads": {},
        "check_digests": {
            "command": DIGEST_COMMAND,
            "identical_at_parent_and_change": parent_digests == change_digests,
            "digests": change_digests,
        },
        "queries_digest": {"command": QUERIES_COMMAND, "parent": parent_queries,
                           "change": change_queries},
    }
    claims, others = [], []
    for seed in SEEDS:
        for workload in (w["name"] for w in spec["workloads"]):
            key = f"{workload}/seed{seed}"
            result = record_workload(args.parent, args.change, workload, seed, seconds,
                                     spec["end_to_end"])
            record["workloads"][key] = result
            lines = []
            for name, summary in result["metrics"].items():
                if f"{workload}:{name}" in args.claim:
                    claims.append(f"{key} {claim_line(name, summary)}")
                else:
                    lines.append(verdict(name, summary))
            failed = {side: sum(n) for side, n in result["failed"].items()}
            others.append(f"{key} ({PAIRS} pairs, failed operations parent "
                          f"{failed['parent']} change {failed['change']}): " + "; ".join(lines))
            record["claim"] = " | ".join(claims)
            record["not_claimed"] = " | ".join(others)
            args.out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
