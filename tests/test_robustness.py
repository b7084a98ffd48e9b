"""Hostile parameters through the command line: a right answer or a typed error.

Each case runs ``python -m addcyc`` in its own interpreter under a 2 GiB
address-space cap (RLIMIT_AS) and a 30 s wall limit.  It either exits 0 with
an answer that is checked exactly or by an independent route, or exits 2 with
the ``error:`` line the command line prints for an ``addcyc.errors``
exception.  A traceback, a memory error or a timeout fails the case.
"""

import json
import os
import pathlib
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

import addcyc
from addcyc import classify, codes, gf
from addcyc.bilinear import DeltaContext, delta_inner

MEMORY_CAP = 2 << 30
WALL_S = 30


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_cli(*args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = str(pathlib.Path(addcyc.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "addcyc", *args], env=env,
                          capture_output=True, text=True, timeout=WALL_S,
                          preexec_fn=_cap_memory)


@pytest.mark.parametrize("gen, d", [("1,1,1", 3), ("1,2,3", 1)])
def test_wide_q_distance_is_exact(gen, d):
    """The span of 1 + X + X^2 is the repetition code; 1 + 2X + 3X^2 has an
    invertible circulant mod 65537, so its span is all of F_q^3."""
    proc = run_cli("mindist", "-n", "3", "-q", "65537", "--gen", gen)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith(f"d = {d} (exact,"), proc.stdout


def test_wide_q_dual_pairs_to_zero_with_the_code():
    proc = run_cli("dual", "-n", "3", "-q", "65537", "--gen", "1,1,1", "--json")
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads(proc.stdout)
    ctx = DeltaContext(3, 65537)
    C = codes.cyclic_span("1,1,1", ctx)
    rows = [[gf.parse_element(ctx.field_qt, tok) for tok in row]
            for row in record["dual"]["basis"]]
    D = ctx.expand(np.array(rows, dtype=np.int64))
    assert record["code"]["k_fq"] == C.k == 1
    assert record["dual"]["k_fq"] == len(rows) == ctx.t * ctx.n - C.k
    assert not ctx.pair_matrix(C.basis_exp, D).any()
    assert not ctx.pair_matrix(D, C.basis_exp).any()


def test_mid_size_field_prints_generator_powers():
    """GF(1021^2) lies between EAGER_TABLE_LIMIT and TABLE_LIMIT: the basis
    rows print as w^k tokens through dlog's own log table, and parse back to
    the code's and the dual's basis symbols."""
    proc = run_cli("dual", "-n", "3", "-q", "1021", "--gen", "w,1,0", "--json")
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads(proc.stdout)
    ctx = DeltaContext(3, 1021)
    assert gf.EAGER_TABLE_LIMIT < ctx.field_qt.order <= gf.TABLE_LIMIT
    C = codes.cyclic_span("w,1,0", ctx)
    for code, rec in [(C, record["code"]), (codes.dual_delta(C), record["dual"])]:
        rows = [gf.parse_elements(ctx.field_qt, ",".join(row)) for row in rec["basis"]]
        assert rows == code.basis_symbols().tolist()
    assert any(tok.startswith("w^") for row in record["dual"]["basis"] for tok in row)


@pytest.mark.parametrize("mode", ["so", "sd"])
def test_wide_q_enumeration_lists_isotropic_cyclic_codes(mode):
    """Each listed code, rebuilt from its printed basis, is cyclic and pairs
    to zero with itself under the defining trace sum; a self-dual code of
    length 3 over GF(q^2) has k = 3."""
    proc = run_cli("enumerate", "-n", "3", "-q", "65537", "--mode", mode,
                   "--limit", "4", "--json")
    assert proc.returncode == 0, proc.stderr[-2000:]
    records = json.loads(proc.stdout)
    assert 1 <= len(records) <= 4
    ctx = DeltaContext(3, 65537)
    for record in records:
        rows = [[gf.parse_element(ctx.field_qt, tok) for tok in row] for row in record["basis"]]
        assert record["k_fq"] == len(rows)
        assert all(delta_inner(u, v, ctx) == 0 for u in rows for v in rows)
        if rows:
            code = codes.code_from_vectors(rows, ctx)
            assert code.k == len(rows) and codes.is_cyclic(code)
        if mode == "sd":
            assert record["k_fq"] == 3


def test_wide_q_form_agrees_with_the_gram_block():
    """(a, b) from the trace sum equals the pair matrix of the expansions
    and the X^0 coefficient of [a, b]."""
    a, b = "w,1,w^7", "w^5,2,[3,4]"
    proc = run_cli("form", "-n", "3", "-q", "65537", "--a", a, "--b", b, "--json")
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads(proc.stdout)
    ctx = DeltaContext(3, 65537)
    A, B = ctx.expand(np.array([gf.parse_elements(ctx.field_qt, v) for v in (a, b)]))
    assert int(record["inner"]) == ctx.pair_matrix(A[None], B[None])[0, 0]
    assert record["form"].split(",")[0] == record["inner"] == "45367"


def test_wide_q_atlas_idempotents_split_the_ring():
    """The printed idempotents over GF(65537^2) are orthogonal idempotents
    that sum to 1, one per printed factor of X^3 - 1."""
    proc = run_cli("atlas", "-n", "3", "-q", "65537", "--json")
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads(proc.stdout)
    ring = DeltaContext(3, 65537).ring
    es = [ring.from_tokens(text) for _, text in sorted(record["idempotents"].items())]
    assert len(es) == len(record["factors_qt"]) == 3
    for x in es:
        for y in es:
            assert x * y == (x if x is y else ring.zero())
    assert es[0] + es[1] + es[2] == ring.one()


def test_form_over_gf_2_21():
    """GF(2^21) embeds in GF(2^42) at the 204,717th power of the subfield's
    generator image, found inside the wall limit.  Every symbol of a and b
    lies in F_2, gamma = 1 for even q, and Tr(1) = 1 + 1 = 0 from GF(q^2)
    to GF(q), so (a, b) and every coefficient of [a, b] are 0."""
    proc = run_cli("form", "-n", "3", "-q", "2097152", "--a", "1,1,1", "--b", "1,0,0", "--json")
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads(proc.stdout)
    assert record == {"form": "0,0,0", "inner": "0"}


def test_out_of_range_work_is_refused_with_a_typed_error():
    proc = run_cli("mindist", "-n", "3", "-q", "2147483647", "--gen", "1,1,1")
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("args", [
    ("dual", "-n", "3", "-q", "65537", "-t", "4", "--gen", "1,1,1"),
    ("mindist", "-n", "3", "-q", "65537", "-t", "4", "--gen", "[0,0,0,40000],1,1"),
    ("atlas", "-n", "3", "-q", "65537", "-t", "4"),
], ids=["dual", "mindist", "atlas"])
def test_a_field_past_int64_is_refused_with_a_typed_error(args):
    """GF(65537^4) has more than 2^63 elements, so its encodings do not fit
    in int64; the context and the atlas refuse it before building it."""
    proc = run_cli(*args)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("n, q, mode", [(47, 3, "so"), (83, 2, "sd"), (101, 2, "so"),
                                        (31, 16, "so")])
def test_an_option_list_past_the_limit_is_refused_before_it_is_built(n, q, mode):
    """Each of these has a class whose option list, read off the coset
    table, is past classify.CHOICE_LIMIT: 3^23 + 3 subspaces on each side of
    a pair at (47, 3), 2^41 + 1 self-dual options at (83, 2), 2^50 + 2 at
    (101, 2) and 16^5 + 3 at (31, 16).  enumerate refuses before it builds a
    row, and count still answers."""
    args = ("-n", str(n), "-q", str(q), "--mode", mode)
    start = time.monotonic()
    proc = run_cli("enumerate", *args, "--limit", "3")
    assert time.monotonic() - start < 5
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("error: class ") and "choice limit" in proc.stderr, proc.stderr
    proc = run_cli("count", *args)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert int(proc.stdout) == classify.count_codes(n, q, mode)
