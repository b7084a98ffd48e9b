"""The addcyc benchmark.

    python3 bench/run.py --workload classify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  One client runs the workload's
operations one after another (a closed loop), each pass in a fresh
interpreter (``bench/worker.py``); on ``atlas`` every operation gets its own.
Passes repeat until ``--seconds`` are about used up.  Every operation's
output is checked; a wrong output or an exception is a failed operation.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` its per-layer metrics, taken
from traced passes that alternate with untraced ones (the difference is the
tracing overhead).  The lines before it repeat the metrics with sample
counts and the machine they were measured on, and the whole result is kept
in ``bench/.out/``.

Exit status: 0 with a result, 2 when the package or the benchmark's files
are missing or the arguments are wrong, 3 when a worker crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, ".out")
WORKER = os.path.join(HERE, "worker.py")
WORKER_TIMEOUT_S = 170
#: set-up-only interpreters started before the timed passes, for setup_s
SETUP_PROBES = 2
MIN_PASSES = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# machine and processes
# ---------------------------------------------------------------------------

def worker_env(nproc: int) -> dict:
    """The environment of every worker: BLAS/OpenMP threads capped at nproc."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        try:
            cap = min(int(env.get(var, nproc)), nproc)
        except ValueError:
            cap = nproc
        env[var] = str(max(cap, 1))
    env["PYTHONHASHSEED"] = "0"
    return env


def machine_info(env: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"  # a source checkout without .git has no SHA to report
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha,
            "threads": {var: env[var] for var in THREAD_VARS}}


def spawn(job: dict, env: dict) -> dict:
    """Run one worker to completion and return its report."""
    try:
        proc = subprocess.run([sys.executable, WORKER], input=json.dumps(job), env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten samples beyond it.

    With twenty samples or fewer no percentile above the median has ten
    beyond it, and the median is returned.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 20:
        return 50.0, statistics.median(xs)
    return 100.0 * (n - 10) / n, xs[n - 11]


def layer_value(name: str, spans: dict, counters: dict) -> float:
    """One per-layer metric from a pass's merged span totals and counters."""
    def calls(span):
        return spans.get(span, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    derived = {
        "gf.vadd.elems": lambda: counters.get("gf.vadd.elems", 0),
        "linalg.rref.rows": lambda: counters.get("linalg.rref.rows", 0),
        "classify.component_rows.per_code": lambda: ratio(
            calls("classify.component_rows"), counters.get("classify.codes_emitted", 0)),
        "classify.component_rows.redundancy": lambda: ratio(
            calls("classify.component_rows"),
            counters.get("classify.component_rows.distinct", 0)),
        "classify.brute_force_oracle.accept_ratio": lambda: ratio(
            counters.get("classify.brute_force_oracle.accepted", 0),
            counters.get("classify.brute_force_oracle.scanned", 0)),
        "codes.min_distance.exact_ratio": lambda: ratio(
            counters.get("codes.min_distance.exact", 0), calls("codes.min_distance")),
    }
    if name in derived:
        return float(derived[name]())
    for suffix, field in ((".self_s", "self_s"), (".calls", "calls"), (".s", "s")):
        if name.endswith(suffix):
            return float(spans.get(name[: -len(suffix)], {}).get(field, 0))
    raise KeyError(f"no rule for per-layer metric {name!r}")


def merge_traces(reports: list[dict]) -> tuple[dict, dict]:
    """Sum the span totals and counters of the workers of one pass."""
    spans, counters = {}, {}
    for rep in reports:
        for name, rec in rep["trace"]["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += rec[key]
        for name, val in rep["trace"]["counters"].items():
            counters[name] = counters.get(name, 0) + val
    return spans, counters


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def run_pass(workload: str, ops: list[dict], traced: bool, index: int, env: dict,
             fresh_per_op: bool) -> dict:
    base = {"workload": workload, "trace": traced, "out_dir": OUT_DIR}
    groups = [[op] for op in ops] if fresh_per_op else [ops]
    t0 = time.perf_counter()
    reports = [spawn(dict(base, ops=group, run_id=f"{workload}-p{index}-w{k}"), env)
               for k, group in enumerate(groups)]
    return {"traced": traced, "elapsed_s": time.perf_counter() - t0, "reports": reports}


def measure(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    import workloads

    ops = workloads.plan(workload, seed)
    fresh = workload in workloads.FRESH_PER_OP
    probes = [] if fresh else [
        spawn({"workload": workload, "trace": False, "out_dir": OUT_DIR,
               "run_id": f"{workload}-probe{k}", "ops": ops, "setup_only": True}, env)
        for k in range(SETUP_PROBES)]
    passes = []
    t0 = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, ops, traced, len(passes), env, fresh))
        est = statistics.median(p["elapsed_s"] for p in passes)
        # at least two passes (one of each kind when traced); then stop when
        # another pass would end further past the budget than short of it
        if len(passes) >= MIN_PASSES and time.perf_counter() - t0 + est / 2 > seconds:
            return {"ops": ops, "probes": probes, "passes": passes}


def summarise(run: dict, trace: bool, metric_names: list[str]) -> dict:
    untraced = [p for p in run["passes"] if not p["traced"]]
    plain_reports = run["probes"] + [r for p in untraced for r in p["reports"]]
    all_reports = run["probes"] + [r for p in run["passes"] for r in p["reports"]]
    pass_wall = [sum(o["seconds"] or 0.0 for r in p["reports"] for o in r["ops"])
                 for p in untraced]
    op_seconds = [o["seconds"] for p in untraced for r in p["reports"] for o in r["ops"]
                  if o["seconds"] is not None]
    items = sum(o["items"] for p in untraced for r in p["reports"] for o in r["ops"])
    latencies = [1000.0 * x for p in untraced for r in p["reports"] for o in r["ops"]
                 for x in (o["lat"] if o["lat"] is not None
                           else [o["seconds"]] if o["seconds"] is not None else [])]
    setups = [r["setup_s"] for r in plain_reports if "setup_s" in r]
    ops_done = [o for p in run["passes"] for r in p["reports"] for o in r["ops"]]
    pct, tail_ms = tail(latencies) if latencies else (50.0, 0.0)
    detail = {
        "passes": len(run["passes"]), "traced_passes": len(run["passes"]) - len(untraced),
        "setup_samples": len(setups), "pass_wall_s": pass_wall,
        "op_seconds": [{o["name"]: o["seconds"] for r in p["reports"] for o in r["ops"]}
                       for p in untraced],
        "op_ms": {"samples": len(latencies), "p50": statistics.median(latencies)
                  if latencies else 0.0, "tail_percentile": pct, "tail": tail_ms},
        "errors": [o["error"] for o in ops_done if not o["ok"]],
    }
    if trace:
        traced = [p for p in run["passes"] if p["traced"]]
        per_pass = []
        for p in traced:
            spans, counters = merge_traces(p["reports"])
            per_pass.append({name: layer_value(name, spans, counters)
                             for name in metric_names if name != "trace.overhead_s"})
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        traced_wall = statistics.fmean(
            sum(o["seconds"] or 0.0 for r in p["reports"] for o in r["ops"]) for p in traced)
        metrics["trace.overhead_s"] = traced_wall - statistics.fmean(pass_wall)
        detail["traced_wall_s"] = traced_wall
    else:
        total_s = sum(op_seconds)
        metrics = {
            "setup_s": statistics.median(setups) if setups else 0.0,
            "wall_s": statistics.fmean(pass_wall),
            "items_per_s": items / total_s if total_s else 0.0,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in all_reports),
        }
    return {"metrics": metrics, "detail": detail, "attempted": len(ops_done),
            "failed": sum(not o["ok"] for o in ops_done)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "addcyc", "__init__.py")):
        print("bench: src/addcyc not found; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    if not os.path.isfile(spec_path):
        print("bench: BENCHMARK.json not found", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    os.makedirs(OUT_DIR, exist_ok=True)
    nproc = os.cpu_count() or 1
    env = worker_env(nproc)
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), env)
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    res = summarise(run, bool(args.trace), list(units))
    missing = set(units) - set(res["metrics"])
    if missing:
        print(f"bench: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 3
    info = machine_info(env)

    d = res["detail"]
    print(f"machine: {json.dumps(info)}")
    print(f"workload {args.workload}, seed {args.seed}: {d['passes']} passes "
          f"({d['traced_passes']} traced), one client, closed loop; "
          f"{res['failed']} of {res['attempted']} operations failed")
    for err in sorted(set(d["errors"])):
        print(f"  FAILED x{d['errors'].count(err)}: {err}")
    if not args.trace:
        lat = d["op_ms"]
        print(f"  wall_s: mean of {len(d['pass_wall_s'])} passes; setup_s: median of "
              f"{d['setup_samples']}; operation latency over {lat['samples']} samples: "
              f"p50 {lat['p50']:.4g} ms, p{lat['tail_percentile']:.1f} {lat['tail']:.4g} ms")
    for name, unit in units.items():
        print(f"  {name} = {res['metrics'][name]:.6g} {unit}")
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"],
              "metrics": {name: {"value": res["metrics"][name], "unit": unit}
                          for name, unit in units.items()}}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=info, detail=d,
                  expected_failures=args.workload == "widep")
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
