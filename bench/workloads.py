"""The benchmark's workloads: inputs made from a seed, timed operations, checks.

A workload is a list of operations.  ``plan`` makes the list from the seed
(the order of the operations, and the random codes of the seeded slices),
``setup`` builds what the operations share, and ``run_op`` times one
operation and checks its output.  An operation that raises, or whose output
disagrees with the reference, is a failed operation.

Workloads:

* ``atlas``: the two cold command-line paths, ``addcyc count`` (all four
  so/sd, published/complete counts) and ``addcyc atlas`` (the atlas as a
  dict), each in a fresh interpreter.  Splitting fields above
  ``gf.TABLE_LIMIT`` at (29, 3), (19, 3); below it at (13, 3).
* ``classify``: ``enumerate_codes(..., complete=True)``, timing every code.
* ``oracle``: ``brute_force_oracle``, which scans every cyclic code.
* ``mindist``: ``cyclic_span`` and ``min_distance`` on the good-code rows the
  package certifies exactly.
* ``widep``: seeded random two-generator codes of length 3 over q in
  {131, 257}, checked against an exhaustive search here.  It is not in
  BENCHMARK.json because ``min_distance`` fails there (wrong exact
  distances at q = 131, ``OverflowError`` at q = 257); run it by name.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time

import numpy as np

from addcyc import classify, codes, refdata, structure
from addcyc.bilinear import DeltaContext

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

ATLAS_INSTANCES = [(29, 3), (19, 3), (13, 3)]
CLASSIFY_INSTANCES = [(7, 3, "so"), (7, 3, "sd"), (7, 4, "so"), (5, 9, "so"),
                      (13, 2, "so"), (7, 5, "so")]
ORACLE_INSTANCES = [(15, 2, "so"), (7, 3, "so"), (7, 3, "sd"), (5, 7, "so")]
MINDIST_ROWS = [(2, 11), (2, 19), (3, 7), (5, 7), (17, 7)]
#: the seeded wide-p slice: random two-generator codes, this many per q
WIDEP_SIZES = (131, 257)
WIDEP_CODES = 10
SLICE_N = 3

WORKLOADS = ("atlas", "classify", "oracle", "mindist", "widep")
#: workloads whose every operation runs in its own fresh interpreter
FRESH_PER_OP = ("atlas",)


def row_tag(q: int, n: int) -> str:
    return f"q{q}n{n}"


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def plan(workload: str, seed: int) -> list[dict]:
    """The workload's operations for ``seed``, in the order they run."""
    rng = np.random.default_rng(seed)
    if workload == "atlas":
        ops = [{"kind": path, "n": n, "q": q, "name": f"{row_tag(q, n)}.{path}"}
               for n, q in ATLAS_INSTANCES for path in ("count", "atlas")]
    elif workload in ("classify", "oracle"):
        kind = "enumerate" if workload == "classify" else "oracle"
        inst = CLASSIFY_INSTANCES if workload == "classify" else ORACLE_INSTANCES
        ops = [{"kind": kind, "n": n, "q": q, "mode": m, "name": f"{row_tag(q, n)}.{m}"}
               for n, q, m in inst]
    elif workload == "mindist":
        ops = [{"kind": "row", "n": n, "q": q, "name": row_tag(q, n)}
               for q, n in MINDIST_ROWS]
    elif workload == "widep":
        ops = [{"kind": "random", "n": SLICE_N, "q": q, "name": f"{row_tag(q, SLICE_N)}.r{i}",
                "gens": rng.integers(0, q * q, size=(2, SLICE_N)).tolist()}
               for q in WIDEP_SIZES for i in range(WIDEP_CODES)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [ops[i] for i in rng.permutation(len(ops))]


def _ctx_key(op: dict):
    """(n, q, paper, needs atlas) of the context an operation uses, or None."""
    kind = op["kind"]
    if kind in ("enumerate", "oracle"):
        return (op["n"], op["q"], False, True)
    if kind == "row":
        return (op["n"], op["q"], True, False)
    if kind == "random":
        return (op["n"], op["q"], False, False)
    return None  # the cold paths build their own context, inside the timing


def setup(ops: list[dict]) -> dict:
    """Every DeltaContext the operations share, with its atlas where used."""
    ctxs = {}
    for op in ops:
        key = _ctx_key(op)
        if key is None or key[:3] in ctxs:
            continue
        n, q, paper, atlas = key
        ctx = DeltaContext(n, q, 2, paper=paper)
        if atlas:
            ctx.atlas
        ctxs[key[:3]] = ctx
    return ctxs


# ---------------------------------------------------------------------------
# reference values
# ---------------------------------------------------------------------------

def key_digest(keys) -> str:
    """Order-independent digest of a set of canonical code keys."""
    h = hashlib.sha256()
    for shape, raw in sorted(keys):
        h.update(repr(shape).encode())
        h.update(raw)
    return h.hexdigest()


def dict_digest(d: dict) -> str:
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def brute_force_distance(code) -> int:
    """Minimum distance by listing every codeword; prime q only.

    Independent of ``codes.min_distance``: the words are all F_q-combinations
    of the canonical basis in the F_q coordinate expansion, and a GF(q^t)
    symbol is nonzero when any of its t coordinates is.
    """
    ctx = code.ctx
    if ctx.e != 1:
        raise ValueError("the brute force handles prime q only")
    q, k, t = ctx.q, code.k, ctx.t
    coeffs = np.indices((q,) * k).reshape(k, -1).T[1:]
    words = (coeffs @ code.basis_exp) % q
    weights = words.reshape(len(words), ctx.n, t).any(axis=2).sum(axis=1)
    return int(weights.min())


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def observe(op: dict, ctxs: dict, tracer) -> dict:
    """Run one operation; returns seconds, items, latencies and its output."""
    kind, n, q = op["kind"], op["n"], op["q"]
    clock = time.perf_counter
    out = {"lat": None}
    if kind == "count":
        t0 = clock()
        with tracer.span("atlas.count_path"):
            ctx = DeltaContext(n, q, 2)
            counts = [classify.count_codes(n, q, m, ctx, complete=c)
                      for m in ("so", "sd") for c in (False, True)]
        out.update(seconds=clock() - t0, items=1, golden={"counts": counts})
    elif kind == "atlas":
        t0 = clock()
        with tracer.span("atlas.atlas_path"):
            d = structure.build_atlas(n, q, 2).to_dict()
        out.update(seconds=clock() - t0, items=1, golden={"digest": dict_digest(d)})
    elif kind == "enumerate":
        ctx = ctxs[(n, q, False)]
        it = classify.enumerate_codes(n, q, op["mode"], ctx, complete=True)
        lat, keys = [], []
        t0 = clock()
        while True:
            t1 = clock()
            with tracer.span("classify.enumerate_codes.next"):
                code = next(it, None)
            if code is None:
                break
            lat.append(clock() - t1)
            keys.append(code.key())
        out.update(seconds=clock() - t0, items=len(keys), lat=lat,
                   count=len(keys), golden={"digest": key_digest(keys)})
        tracer.count("classify.codes_emitted", len(keys))
    elif kind == "oracle":
        ctx = ctxs[(n, q, False)]
        t0 = clock()
        count, keys = classify.brute_force_oracle(n, q, op["mode"], ctx)
        seconds = clock() - t0
        scanned = math.prod(q ** d + 3 for d in ctx.atlas.table.d)
        tracer.count("classify.brute_force_oracle.scanned", scanned)
        tracer.count("classify.brute_force_oracle.accepted", count)
        out.update(seconds=seconds, items=scanned, count=count,
                   golden={"digest": key_digest(keys)})
    elif kind in ("row", "random"):
        ctx = ctxs[(n, q, kind == "row")]
        t0 = clock()
        if kind == "row":
            code = codes.cyclic_span(refdata.row_for(q, n).generator, ctx)
            with tracer.span(f"codes.min_distance.{row_tag(q, n)}"):
                d, exact = codes.min_distance(code)
        else:
            code = codes.code_from_vectors(op["gens"], ctx)
            d, exact = codes.min_distance(code)
        out.update(seconds=clock() - t0, items=1, d=d, exact=exact, k=code.k)
        if kind == "random":
            out["brute_d"] = brute_force_distance(code)
    else:
        raise ValueError(f"unknown operation kind {kind!r}")
    return out


def check(op: dict, out: dict, ctxs: dict, golden: dict) -> str | None:
    """None when the output is right, else what is wrong."""
    kind, n, q = op["kind"], op["n"], op["q"]
    name = op["name"]
    if kind in ("count", "atlas"):
        want = golden["atlas"][row_tag(q, n)][kind]
        if out["golden"] != want:
            return f"{name}: got {out['golden']}, reference {want}"
        return None
    if kind in ("enumerate", "oracle"):
        ctx = ctxs[(n, q, False)]
        want = classify.count_codes(n, q, op["mode"], ctx, complete=True)
        if (n, q) == (refdata.WORKED_N, refdata.WORKED_Q):
            worked = (refdata.WORKED_VERIFIED_SO if op["mode"] == "so"
                      else refdata.WORKED_VERIFIED_SD)
            if want != worked:
                return f"{name}: count_codes gives {want}, verified {worked}"
        if out["count"] != want:
            return f"{name}: {out['count']} codes, count_codes gives {want}"
        ref = golden["classify" if kind == "enumerate" else "oracle"][name]
        if out["golden"]["digest"] != ref:
            return f"{name}: code set digest differs from the reference"
        return None
    if kind == "row":
        row = refdata.row_for(q, n)
        if out["k"] != 2 * row.k:
            return f"{name}: F_q-dimension {out['k']}, the row claims {2 * row.k}"
        want = row.d
    else:
        want = out["brute_d"]
    if not out["exact"] or out["d"] != want:
        return f"{name}: min_distance gave ({out['d']}, exact={out['exact']}), expected d = {want}"
    return None


def run_op(op: dict, ctxs: dict, golden: dict, tracer) -> dict:
    """Time and check one operation; an exception is a failed operation."""
    tracer.scope = op["name"]
    try:
        with tracer.span("op"):
            out = observe(op, ctxs, tracer)
        error = check(op, out, ctxs, golden)
    except Exception as exc:  # any failure of the program is a failed operation
        return {"name": op["name"], "ok": False, "error": f"{op['name']}: {exc!r}",
                "seconds": None, "items": 0, "lat": None}
    return {"name": op["name"], "ok": error is None, "error": error,
            "seconds": out["seconds"], "items": out["items"], "lat": out["lat"]}
