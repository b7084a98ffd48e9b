"""The benchmark's recorded outputs, recomputed in-process.

``bench/golden.json`` holds the digest of the sorted canonical keys of the
codes that ``enumerate_codes(..., complete=True)`` and ``brute_force_oracle``
give on each classify and oracle instance, and, per atlas instance, the four
counts and the digest of ``IdealAtlas.to_dict()``.  A change that alters a
code set, a count or the atlas fails here, not only in a benchmark run.  The
file is only read.
"""

import hashlib
import json
import pathlib
import re

import pytest

from addcyc import classify, structure
from addcyc.bilinear import DeltaContext

GOLDEN = json.loads((pathlib.Path(__file__).resolve().parents[1]
                     / "bench" / "golden.json").read_text())


def instance(tag):
    """(n, q, mode) of a tag such as "q3n7.so"; mode is None for "q3n7"."""
    m = re.fullmatch(r"q(\d+)n(\d+)(?:\.(so|sd))?", tag)
    return int(m[2]), int(m[1]), m[3]


def key_digest(keys):
    """sha256 over the sorted (shape, bytes) keys, in the benchmark's way."""
    h = hashlib.sha256()
    for shape, raw in sorted(keys):
        h.update(repr(shape).encode())
        h.update(raw)
    return h.hexdigest()


@pytest.mark.parametrize("workload, tag", [(w, tag) for w in ("classify", "oracle")
                                           for tag in sorted(GOLDEN[w])])
def test_code_set_digest(workload, tag):
    n, q, mode = instance(tag)
    ctx = DeltaContext(n, q, 2)
    if workload == "classify":
        keys = [c.key() for c in classify.enumerate_codes(n, q, mode, ctx, complete=True)]
        assert len(keys) == classify.count_codes(n, q, mode, ctx, complete=True)
    else:
        keys = classify.brute_force_oracle(n, q, mode, ctx)[1]
    assert key_digest(keys) == GOLDEN[workload][tag]


@pytest.mark.parametrize("tag", sorted(GOLDEN["atlas"]))
def test_atlas_counts_and_digest(tag):
    n, q, _ = instance(tag)
    want = GOLDEN["atlas"][tag]
    ctx = DeltaContext(n, q, 2)
    counts = [classify.count_codes(n, q, mode, ctx, complete=complete)
              for mode in ("so", "sd") for complete in (False, True)]
    assert counts == want["count"]["counts"]
    d = structure.build_atlas(n, q, 2).to_dict()
    digest = hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()
    assert digest == want["atlas"]["digest"]
