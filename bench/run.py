"""The bisectrix benchmark: one command for the three workloads.

    python3 bench/run.py --workload oracle-f7 --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload is a closed loop with one
caller: the next CLI operation starts when the previous one has ended.  The
operations run in worker processes (``worker.py``) that import the library
from ``src/``; this process only times them, checks every answer with the
reference code, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the workload runs three times, untraced, with spans around the library's
public functions, and with ``Scalar`` calls counted; the metrics are the
per-layer ones, plus the tracing overhead against the untraced pass.
Results and per-layer trace data are also written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import queries  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Fresh interpreters timed for setup_s; the median is reported.
IMPORT_PROBES = 11
# Rounds per pass of a traced run: oracle-f7 and search-f3 run one round
# (one fresh process each); queries runs this many rounds of its mix.
TRACE_QUERY_ROUNDS = 3
WORKER_TIMEOUT_S = 170
# Fewer operations than this leave no tail to take percentiles of
# (oracle-f7 runs 16 per run, search-f3 about 4).  Every workload prints
# every end-to-end metric, so op_p50_ms and op_p99_ms then repeat wall_s.
MIN_PERCENTILE_OPS = 40


def _python(*args: str, timeout: float = WORKER_TIMEOUT_S) -> str:
    done = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"{args[0]} exited with {done.returncode}: {done.stderr[-2000:]}")
    return done.stdout


def setup_seconds() -> float:
    """Median cold import of bisectrix and its CLI over fresh interpreters."""
    probe = os.path.join(BENCH, "import_probe.py")
    return statistics.median(float(_python(probe, timeout=60)) for _ in range(IMPORT_PROBES))


def run_worker(workload: str, seed: int, trace: str, rounds=None, seconds=None):
    """Run one worker process; return (per-operation records, summary)."""
    job = {"workload": workload, "seed": seed, "trace": trace,
           "rounds": rounds, "seconds": seconds}
    lines = _python(os.path.join(BENCH, "worker.py"), json.dumps(job)).splitlines()
    summary = json.loads(lines[-1])
    if not summary.get("done"):
        raise RuntimeError("worker ended without a summary")
    return [json.loads(line) for line in lines[:-1]], summary


class Pass:
    """The operations of one or more workers, grouped by round."""

    def __init__(self):
        self.rounds: list[list[dict]] = []  # records of each round, in order
        self.round_index: list[int] = []  # each round's index within its worker
        self.summaries: list[dict] = []

    def add(self, records: list, summary: dict) -> None:
        self.summaries.append(summary)
        for r in range(summary["rounds"]):
            self.rounds.append([rec for rec in records if rec["round"] == r])
            self.round_index.append(r)

    @property
    def ops(self) -> list[dict]:
        return [rec for rnd in self.rounds for rec in rnd]

    @property
    def busy_s(self) -> float:
        return sum(rec["s"] for rec in self.ops)


def run_pass(workload: str, seed: int, trace: str, seconds: float | None) -> Pass:
    """Run rounds for ``seconds``, or, when it is None, a fixed number of rounds."""
    result = Pass()
    if workload == "queries":
        rounds = TRACE_QUERY_ROUNDS if seconds is None else None
        result.add(*run_worker(workload, seed, trace, rounds=rounds, seconds=seconds))
        return result
    # oracle-f7 and search-f3: every round starts in a fresh interpreter.
    started = time.perf_counter()
    while True:
        result.add(*run_worker(workload, seed, trace, rounds=1))
        if seconds is None or time.perf_counter() - started >= seconds:
            return result


def verify(workload: str, seed: int, run: Pass, search) -> tuple[int, list]:
    failed, errors = 0, []
    for r, records in zip(run.round_index, run.rounds):
        if workload == "oracle-f7":
            f, e = checks.check_oracle_f7(records, seed)
        elif workload == "search-f3":
            f, e = checks.check_search_f3(records, seed, search)
        else:
            f, e = checks.check_queries(records, queries.generate(seed, r))
        failed += f
        errors += e
    return failed, errors


def end_to_end(run: Pass, setup_s: float) -> dict:
    wall_s = statistics.fmean(sum(rec["s"] for rec in rnd) for rnd in run.rounds)
    latencies = [rec["s"] for rec in run.ops]
    if len(latencies) >= MIN_PERCENTILE_OPS:
        p50 = statistics.median(latencies)
        # Interpolated between order statistics.
        p99 = statistics.quantiles(latencies, n=100, method="inclusive")[98]
    else:
        p50 = p99 = wall_s
    return {
        "wall_s": (wall_s, "s"),
        "ops_per_s": (len(latencies) / run.busy_s, "1/s"),
        "op_p50_ms": (p50 * 1000, "ms"),
        "op_p99_ms": (p99 * 1000, "ms"),
        "peak_rss_mb": (statistics.median(s["maxrss_mb"] for s in run.summaries), "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(untraced: Pass, spanned: Pass, counted: Pass) -> tuple[dict, dict]:
    spans = {"calls": {}, "self_ns": {}, "total_ns": {}, "raised": {}}
    for summary in spanned.summaries:
        for key in spans:
            for name, value in summary["spans"][key].items():
                spans[key][name] = spans[key].get(name, 0) + value
    field = {group: sum(s["field"][group] for s in counted.summaries)
             for group in tracer.FIELD_GROUPS}
    metrics = {}
    for name in tracer.SPAN_NAMES:
        metrics[f"{name}.calls"] = (spans["calls"].get(name, 0), "count")
        metrics[f"{name}.self_ms"] = (spans["self_ns"].get(name, 0) / 1e6, "ms")
    for check_id in workloads.ORACLE_F7_IDS:
        name = tracer.CHECK_PREFIX + check_id
        metrics[f"{name}.ms"] = (spans["total_ns"].get(name, 0) / 1e6, "ms")
    for group, count in field.items():
        metrics[f"field.{group}"] = (count, "count")
    draws = spans["calls"].get("quad.validate", 0)
    accepted = draws - spans["raised"].get("quad.validate", 0)
    metrics["quad.validate.accepted_share"] = (accepted / draws if draws else 0.0, "ratio")
    overhead = spanned.busy_s - untraced.busy_s
    metrics["trace.untraced_s"] = (untraced.busy_s, "s")
    metrics["trace.spanned_s"] = (spanned.busy_s, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / untraced.busy_s, "ratio")
    metrics["trace.field_counted_s"] = (counted.busy_s, "s")
    recorded = sum(s["spans"]["spans"] for s in spanned.summaries)
    metrics["trace.spans"] = (recorded, "count")
    detail = {"spans": spans, "field": field}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bisectrix", "cli.py")):
        sys.stderr.write(f"no bisectrix sources under {ROOT}/src: run from a checkout\n")
        return 2

    wl, seed = args.workload, args.seed
    # The search-f3 counts are re-derived in every run, outside the timed region.
    search = reference.search_counts(3) if wl == "search-f3" else None
    if args.trace:
        passes = [run_pass(wl, seed, mode, None) for mode in ("none", "spans", "field")]
        metrics, detail = per_layer(*passes)
    else:
        setup_s = setup_seconds()
        passes = [run_pass(wl, seed, "none", args.seconds)]
        metrics, detail = end_to_end(passes[0], setup_s), None
    failed, errors = 0, []
    for run in passes:
        f, e = verify(wl, seed, run, search)
        failed += f
        errors += e
    for line in errors[:20]:
        sys.stderr.write(f"incorrect: {line}\n")
    result = {
        "correct": not errors,
        "attempted": sum(len(run.ops) for run in passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    out_dir = os.path.join(BENCH, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{wl}.seed{seed}.trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({**result, "errors": errors}, handle, indent=1)
    if detail is not None:
        with open(stem + ".layers.json", "w", encoding="utf-8") as handle:
            json.dump(detail, handle, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
