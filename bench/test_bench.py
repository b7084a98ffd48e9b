"""Tests of the benchmark's own code: tracing arithmetic, metric names, checks."""

import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from addcyc import codes  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def test_self_times_subtract_merged_clipped_children():
    # root [0, 10] has children a [1, 4], b [3, 6] (overlapping a) and
    # c [8, 12] (running past the root); a has a child g [2, 3]
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    got = spans.self_times(start, end, parent)
    # root: 10 - |[1, 6] u [8, 10]| = 3; a: 3 - 1; b, c, g have no children
    assert got.tolist() == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_self_times_of_two_trees():
    start = [0.0, 1.0, 20.0, 21.0, 22.0]
    end = [5.0, 2.0, 30.0, 25.0, 29.0]
    parent = [-1, 0, -1, 2, 2]
    assert spans.self_times(start, end, parent).tolist() == pytest.approx(
        [4.0, 1.0, 2.0, 4.0, 7.0])


def test_tracer_counts_nested_calls_once_in_inclusive_time():
    tracer = spans.Tracer("t")

    def fact(k):
        return 1 if k <= 1 else k * traced(k - 1)

    traced = tracer.wrap(fact, "fact")
    assert traced(5) == 120
    summary = tracer.summary()
    rec = summary["spans"]["fact"]
    a = tracer.arrays()
    outer = a["end"][0] - a["start"][0]
    assert rec["calls"] == 5
    assert rec["s"] == pytest.approx(outer)
    assert rec["self_s"] == pytest.approx(outer, rel=1e-6)
    assert a["parent"].tolist() == [-1, 0, 1, 2, 3]


def test_metric_names_and_units():
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert name_re.fullmatch(name), name
    for kind in ("end_to_end", "per_layer"):
        for m in SPEC[kind]:
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


def test_every_per_layer_metric_has_a_rule():
    for m in SPEC["per_layer"]:
        if m["name"] != "trace.overhead_s":
            assert run.layer_value(m["name"], {}, {}) == 0.0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(100))) == (90.0, 89)
    assert run.tail(list(range(1000)))[0] == 99.0
    assert run.tail([3.0, 1.0, 2.0]) == (50.0, 2.0)


def _slice_ops(q, count, seed=3):
    rng = np.random.default_rng(seed)
    return [{"kind": "random", "n": workloads.SLICE_N, "q": q, "name": f"r{i}",
             "gens": rng.integers(0, q * q, size=(2, workloads.SLICE_N)).tolist()}
            for i in range(count)]


def test_checker_counts_a_wrong_distance_and_an_exception(monkeypatch):
    ops = _slice_ops(5, 1)
    ctxs = workloads.setup(ops)
    tracer = spans.NullTracer()
    assert workloads.run_op(ops[0], ctxs, {}, tracer)["ok"]

    real = codes.min_distance
    monkeypatch.setattr(codes, "min_distance", lambda code: (real(code)[0] + 1, True))
    bad = workloads.run_op(ops[0], ctxs, {}, tracer)
    assert not bad["ok"] and "expected d" in bad["error"]

    def boom(code):
        raise OverflowError("injected")

    monkeypatch.setattr(codes, "min_distance", boom)
    bad = workloads.run_op(ops[0], ctxs, {}, tracer)
    assert not bad["ok"] and "OverflowError" in bad["error"]


@pytest.mark.parametrize("q", [2, 5, 7])
def test_brute_force_agrees_with_min_distance_where_the_kernel_is_sound(q):
    ops = _slice_ops(q, 6)
    ctxs = workloads.setup(ops)
    for op in ops:
        code = codes.code_from_vectors(op["gens"], ctxs[(op["n"], q, False)])
        assert codes.min_distance(code) == (workloads.brute_force_distance(code), True)


def test_plan_depends_only_on_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.plan(w, 7) == workloads.plan(w, 7)
    assert workloads.plan("mindist", 1) != workloads.plan("mindist", 2)
    listed = [w["name"] for w in SPEC["workloads"]]
    assert set(listed) <= set(workloads.WORKLOADS) and "widep" not in listed
