"""Reference verification: one registry of checks that re-derive the bundled data.

``reference_checks`` covers the worked q=3, n=7 classification (factors,
idempotents, the published and complete counts, the showcase code), every
good-code row and a cross-check at (3, 2).  verify-paper runs and renders
every entry; the acceptance suite runs each entry as one test case.  A row
passes only with an exact certificate (lb = ub = d, a witness of weight d in
the code), or, for ``refdata.UNPROVED_ROWS`` alone, lb <= d = ub with that
witness, which proves d <= the claimed d.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import classify, codes, gf, polyring, refdata
from .bilinear import DeltaContext, delta_inner


@dataclass
class CheckResult:
    name: str
    status: str       # "PASS" or "FAIL"
    detail: str
    seconds: float

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


@dataclass(frozen=True)
class Check:
    """One registry entry; ``run`` returns (ok, detail)."""

    key: str
    name: str
    run: Callable[[], tuple[bool, str]]

    def __call__(self) -> CheckResult:
        t0 = time.perf_counter()
        try:
            ok, detail = self.run()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        return CheckResult(self.name, "PASS" if ok else "FAIL", detail, seconds)


def _verdict(conditions: dict[str, bool], detail: str) -> tuple[bool, str]:
    """All conditions hold; the detail names any that do not."""
    failed = [name for name, good in conditions.items() if not good]
    return not failed, detail + (f"; failed: {failed}" if failed else "")


def _worked_context() -> DeltaContext:
    return DeltaContext(refdata.WORKED_N, refdata.WORKED_Q, 2, paper=True)


def _factorisation() -> tuple[bool, str]:
    got = [[str(f) for f, _ in polyring.factor_xn_minus_1(7, gf.field(3, m, paper=True),
                                                         paper=True)] for m in (1, 2)]
    want = [refdata.WORKED_FACTORS_Q,
            [refdata.WORKED_FACTORS_QT[k] for k in ("0,0", "1,0", "1,1")]]
    return got == want, f"F_3: {got[0]}; F_9: {got[1]}"


def _idempotents() -> tuple[bool, str]:
    atlas = _worked_context().atlas
    got = {k: str(atlas.idempotents[tuple(map(int, k.split(',')))])
           for k in refdata.WORKED_IDEMPOTENTS}
    ok = got == refdata.WORKED_IDEMPOTENTS
    return ok, "; ".join(f"e_{k} = {v}" for k, v in sorted(got.items()))


def _counts() -> tuple[bool, str]:
    ctx = _worked_context()
    conditions, parts = {}, []
    for mode, want, direct in (("so", refdata.WORKED_COUNT_SO, codes.is_self_orthogonal),
                               ("sd", refdata.WORKED_COUNT_SD, codes.is_self_dual)):
        count = classify.count_codes(7, 3, mode)
        listed = list(classify.enumerate_codes(7, 3, mode, ctx))
        distinct = len({c.key() for c in listed})
        conditions[f"{mode}: count = enumerated = distinct = {want}"] = (
            count == len(listed) == distinct == want)
        conditions[f"{mode}: every code passes {direct.__name__}"] = all(
            direct(c) for c in listed)
        parts.append(f"{mode} {count}/{len(listed)} ({distinct} distinct)")
    return _verdict(conditions, "count/enumerate: " + ", ".join(parts)
                    + "; each checked directly")


def _oracle() -> tuple[bool, str]:
    """The oracle's codes are the complete classification; the extras are isotropic.

    The published case list omits the prime-subfield option K_0 * e_{0,0}
    of the identity class for odd q, so every extra code contains e_{0,0}.
    Their isotropy is checked through the defining trace sum
    (``delta_inner``), not the Gram matrix the oracle uses.
    """
    ctx = _worked_context()
    e00 = ctx.atlas.idempotent(0, 0)
    conditions, parts, extras = {}, [], {}
    for mode, verified in (("so", refdata.WORKED_VERIFIED_SO),
                           ("sd", refdata.WORKED_VERIFIED_SD)):
        count, keys = classify.brute_force_oracle(7, 3, mode, ctx)
        complete = {c.key(): c for c in classify.enumerate_codes(7, 3, mode, ctx,
                                                                 complete=True)}
        published = list(classify.enumerate_codes(7, 3, mode, ctx))
        pub_keys = {c.key() for c in published}
        extras[mode] = [c for key, c in complete.items() if key not in pub_keys]
        conditions.update({
            f"{mode}: oracle key set equals the complete enumeration": keys == set(complete),
            f"{mode}: oracle count equals the complete count and refdata":
                count == classify.count_codes(7, 3, mode, complete=True)
                == verified,
            f"{mode}: published codes are a strict subset": pub_keys < keys,
            f"{mode}: every extra code contains e_(0,0)":
                all(c.contains(e00) for c in extras[mode]),
            f"{mode}: no published code contains e_(0,0)":
                not any(c.contains(e00) for c in published),
            f"{mode}: every extra code is isotropic under delta_inner": all(
                delta_inner(a, b, ctx) == 0
                for c in extras[mode]
                for a in c.basis_elements() for b in c.basis_elements()),
        })
        parts.append(f"{mode} {count} (complete enumeration {len(complete)}, "
                     f"published {len(published)} a strict subset)")
    n_extra = (len(extras["so"]), len(extras["sd"]))
    conditions["29 / 28 extra codes"] = n_extra == (29, 28)
    conditions["F_3^7 is an extra self-dual code"] = (
        codes.code_from_vectors(np.eye(7, dtype=np.int64), ctx) in extras["sd"])
    return _verdict(conditions, (
        f"brute force over {refdata.WORKED_TOTAL_CYCLIC} cyclic codes: "
        + "; ".join(parts) + f"; {n_extra[0]}/{n_extra[1]} extra codes, each "
        "containing e_(0,0) and isotropic under the trace sum, F_3^7 among "
        "the self-dual ones"))


def _showcase() -> tuple[bool, str]:
    ctx = _worked_context()
    C = codes.cyclic_span(ctx.atlas.idempotent(1, 0), ctx)
    ref = codes.code_from_vectors(refdata.WORKED_GOOD_MATRIX, ctx)
    d, exact = codes.min_distance(C)
    ok = (C.k == 6 and C == ref and exact and d == refdata.WORKED_GOOD_DISTANCE
          and codes.is_self_orthogonal(C))
    return ok, f"k_fq = {C.k}, |C| = 9^3, d = {d} (exact={exact}), matches printed matrix: {C == ref}"


def _table_row(row: refdata.GoodCodeRow) -> tuple[bool, str]:
    ctx = DeltaContext(row.n, row.q, 2, paper=True)
    C = codes.cyclic_span(row.generator, ctx)
    cert = codes.distance_certificate(C)
    proved = (row.q, row.n) not in refdata.UNPROVED_ROWS
    d_ok = ((cert.lb == row.d if proved else cert.lb <= row.d) and cert.ub == row.d
            and C.contains(list(cert.witness))
            and sum(1 for s in cert.witness if s) == row.d)
    got, kind = (f"{cert.ub}", "exact") if cert.exact else (
        f"{cert.lb} <= d <= {cert.ub}", "bound")
    conditions = {"cardinality": C.k == 2 * row.k, "cyclic": codes.is_cyclic(C),
                  "self-orthogonal": codes.is_self_orthogonal(C), "d": d_ok}
    return _verdict(conditions, (
        f"(q={row.q}, n={row.n}): cardinality ({row.q}^2)^{row.k}, cyclic, "
        f"self-orthogonal, d {'=' if proved else '<='} {row.d}: got {got} [{kind}, "
        f"{cert.words_examined} words, witness of weight {row.d} in C: {d_ok}]"))


def _cross_check() -> tuple[bool, str]:
    ctx = DeltaContext(3, 2, 2, paper=True)
    got = []
    for mode in ("so", "sd"):
        count, keys = classify.brute_force_oracle(3, 2, mode, ctx)
        listed = {c.key() for c in classify.enumerate_codes(3, 2, mode, ctx)}
        got.append((classify.count_codes(3, 2, mode), count, listed == keys))
    return got == [(8, 8, True), (3, 3, True)], (
        f"(3, 2): formula {got[0][0]}/{got[1][0]}, oracle {got[0][1]}/{got[1][1]} over "
        f"35 cyclic codes, enumeration equals the oracle: {got[0][2] and got[1][2]}")


def reference_checks() -> list[Check]:
    """The registry of reference checks, in print order."""
    rows = [Check(f"row-q{row.q}-n{row.n}", f"good-code row q={row.q}, n={row.n}",
                  functools.partial(_table_row, row))
            for row in refdata.GOOD_CODE_TABLE]
    return [Check("factorisation", "factorisation of X^7 - 1", _factorisation),
            Check("idempotents", "primitive idempotents", _idempotents),
            Check("counts", "published counts (58 / 28)", _counts),
            Check("oracle", "oracle agreement with the complete classification "
                  "(87 / 56)", _oracle),
            Check("showcase", "showcase (7, 9^3, 5) code", _showcase),
            *rows,
            Check("cross-check", "derived cross-check at (3, 2)", _cross_check)]


def run_reference_checks() -> list[CheckResult]:
    """Run every reference check; returns the result list in print order."""
    return [check() for check in reference_checks()]


def render(results: list[CheckResult]) -> str:
    lines = [f"[{r.status:4s}] {r.name}  ({r.seconds:.2f}s)\n       {r.detail}"
             for r in results]
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results)} checks: {len(results) - n_fail} passed, {n_fail} failed")
    return "\n".join(lines)
