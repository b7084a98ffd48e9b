"""One fresh interpreter of the benchmark: set up, run operations, report.

Reads a job as JSON on standard input:
``{"workload", "ops", "trace", "run_id", "out_dir"}``, where ``ops`` is a
list of operations from ``workloads.plan``; with ``"setup_only": true`` the
operations are set up but not run.  Prints one JSON line: the set-up time (from the first line of this file,
so it includes importing the package), each operation's result, the peak
resident memory, and with tracing on the per-layer summary.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    job = json.load(sys.stdin)
    if job["trace"]:
        tracer = spans.Tracer(job["run_id"])
        layers.install(tracer)
    else:
        tracer = spans.NullTracer()
    golden = workloads.load_golden()
    result = {"ops": []}
    try:
        with tracer.span("setup"):
            ctxs = workloads.setup(job["ops"])
    except Exception as exc:  # the program failed to set up: every operation fails
        result["setup_error"] = repr(exc)
        result["ops"] = [{"name": op["name"], "ok": False, "error": f"setup: {exc!r}",
                          "seconds": None, "items": 0, "lat": None} for op in job["ops"]]
    else:
        result["setup_s"] = time.perf_counter() - T0
        for op in [] if job.get("setup_only") else job["ops"]:
            result["ops"].append(workloads.run_op(op, ctxs, golden, tracer))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer.enabled:
        result["trace"] = tracer.summary()
        tracer.dump(os.path.join(job["out_dir"], f"spans-{job['run_id']}.npz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
