"""One benchmark process: import the library, run operations, stream results.

Started by ``run.py`` as ``python3 worker.py '<job json>'``.  The job names
the workload, seed, run length and trace mode.  Each operation is one call
of ``bisectrix.cli.dispatch`` with its stdout and stderr captured; the
worker writes one JSON line per operation to its own stdout as it goes (so
answers are not held in this process's memory) and a last line with the
number of rounds, the peak resident set size and, when traced, the trace data.
"""

import io
import json
import os
import resource
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def _run_op(dispatch, argv):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    started = time.perf_counter()
    try:
        rc = dispatch(argv)
    except Exception:  # a crash is an operation that failed; keep going
        rc = "exception"
        err.write(traceback.format_exc())
    finally:
        elapsed = time.perf_counter() - started
        sys.stdout, sys.stderr = saved
    return rc, elapsed, out.getvalue(), err.getvalue()


def main(job: dict) -> None:
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    import workloads

    import bisectrix
    import bisectrix.cli

    trace = job["trace"]
    recorder = counter = None
    if trace != "none":
        import tracer

        # cli imports svgfig lazily; load every module so all bindings are seen.
        for name in ("bisector", "conic", "field", "geometry", "oracle", "pencil",
                     "quad", "svgfig", "textforms"):
            __import__(f"bisectrix.{name}")
        if trace == "spans":
            recorder = tracer.SpanRecorder()
            recorder.install(bisectrix)
        else:
            counter = tracer.FieldCounter()
            counter.install(bisectrix)

    emit = sys.stdout.write
    dispatch = bisectrix.cli.dispatch  # the spanned wrapper when traced
    rounds, seconds = job.get("rounds"), job.get("seconds")
    loop_started = time.perf_counter()
    r = 0
    while True:
        for i, argv in enumerate(workloads.round_argvs(job["workload"], job["seed"], r)):
            rc, elapsed, out, err = _run_op(dispatch, argv)
            if recorder is not None:
                recorder.fold()
            emit(json.dumps({"round": r, "op": i, "rc": rc, "s": elapsed,
                             "out": out, "err": err[-2000:]}) + "\n")
        r += 1
        if rounds is not None and r >= rounds:
            break
        if rounds is None and time.perf_counter() - loop_started >= seconds:
            break
    done = {
        "done": True,
        "rounds": r,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        done["spans"] = recorder.report()
    if counter is not None:
        done["field"] = counter.report()
    emit(json.dumps(done) + "\n")


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
