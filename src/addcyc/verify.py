"""Reference verification harness: re-derives the bundled reference data.

Runs the worked q=3, n=7 classification end to end (factors, idempotents,
counts, the showcase code) plus the good-code table, and reports one result
per item.  The CLI's verify-paper command renders these results; the
acceptance test suite asserts them.

Budgets: "small" skips the table rows whose codeword count exceeds the
exact budget, "default" bounds them with seeded random sampling, and
"extended" additionally certifies the 3^18-word row exactly.  Exact rows are
certified by information-set enumeration (``codes.distance_certificate``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import classify, codes, gf, polyring, refdata
from .bilinear import DeltaContext
from .codes import EXHAUSTIVE_BUDGET, SAMPLE_COUNT, SAMPLE_SEED


@dataclass
class CheckResult:
    name: str
    status: str       # "PASS", "FAIL" or "SKIP"
    detail: str
    seconds: float

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


def _timed(name, func) -> CheckResult:
    t0 = time.perf_counter()
    try:
        ok, detail = func()
    except Exception as exc:  # a crashed check is a failed check
        return CheckResult(name, "FAIL", f"raised {type(exc).__name__}: {exc}",
                           time.perf_counter() - t0)
    status = "PASS" if ok else ("SKIP" if ok is None else "FAIL")
    return CheckResult(name, status, detail, time.perf_counter() - t0)


def _worked_context() -> DeltaContext:
    return DeltaContext(refdata.WORKED_N, refdata.WORKED_Q, 2, paper=True,
                        rho_exponents=refdata.WORKED_RHO_EXPONENTS)


def check_factorisation() -> CheckResult:
    def run():
        fq = gf.field(3, 1, paper=True)
        got_q = [str(p) for p, _ in polyring.factor_xn_minus_1(7, fq, paper=True)]
        fqt = gf.field(3, 2, paper=True)
        got_qt = [str(p) for p, _ in polyring.factor_xn_minus_1(7, fqt, paper=True)]
        want_qt = [refdata.WORKED_FACTORS_QT[k] for k in ("0,0", "1,0", "1,1")]
        ok = got_q == refdata.WORKED_FACTORS_Q and got_qt == want_qt
        return ok, f"F_3: {got_q}; F_9: {got_qt}"
    return _timed("factorisation of X^7 - 1", run)


def check_idempotents() -> CheckResult:
    def run():
        atlas = _worked_context().atlas
        got = {k: str(atlas.idempotents[tuple(map(int, k.split(',')))])
               for k in refdata.WORKED_IDEMPOTENTS}
        ok = got == refdata.WORKED_IDEMPOTENTS
        return ok, "; ".join(f"e_{k} = {v}" for k, v in sorted(got.items()))
    return _timed("primitive idempotents", run)


def check_counts() -> CheckResult:
    def run():
        ctx = _worked_context()
        c_so = classify.count_codes(7, 3, "so", ctx)
        c_sd = classify.count_codes(7, 3, "sd", ctx)
        n_so = sum(1 for _ in classify.enumerate_codes(7, 3, "so", ctx))
        n_sd = sum(1 for _ in classify.enumerate_codes(7, 3, "sd", ctx))
        ok = (c_so, c_sd, n_so, n_sd) == (refdata.WORKED_COUNT_SO, refdata.WORKED_COUNT_SD,
                                          refdata.WORKED_COUNT_SO, refdata.WORKED_COUNT_SD)
        return ok, f"count/enumerate: so {c_so}/{n_so}, sd {c_sd}/{n_sd}"
    return _timed("published counts (58 / 28)", run)


def check_oracle() -> CheckResult:
    def run():
        ctx = _worked_context()
        parts = []
        ok = True
        for mode, verified in (("so", refdata.WORKED_VERIFIED_SO),
                               ("sd", refdata.WORKED_VERIFIED_SD)):
            count, keys = classify.brute_force_oracle(7, 3, mode, ctx)
            complete = {c.key() for c in classify.enumerate_codes(7, 3, mode, ctx,
                                                                  complete=True)}
            published = {c.key() for c in classify.enumerate_codes(7, 3, mode, ctx)}
            ok = (ok and keys == complete and published < keys
                  and count == classify.count_codes(7, 3, mode, ctx, complete=True)
                  == verified)
            parts.append(f"{mode} {count} (complete enumeration {len(complete)}, "
                         f"published {len(published)} a strict subset)")
        return ok, (f"brute force over {refdata.WORKED_TOTAL_CYCLIC} cyclic codes: "
                    + "; ".join(parts))
    return _timed("oracle agreement with the complete classification (87 / 56)", run)


def check_good_code() -> CheckResult:
    def run():
        ctx = _worked_context()
        C = codes.cyclic_span(ctx.atlas.idempotent(1, 0), ctx)
        ref = codes.code_from_vectors(refdata.WORKED_GOOD_MATRIX, ctx)
        d, exact = codes.min_distance(C)
        ok = (C.k == 6 and C == ref and exact
              and d == refdata.WORKED_GOOD_DISTANCE
              and codes.is_self_orthogonal(C, ctx))
        return ok, f"k_fq = {C.k}, |C| = 9^3, d = {d} (exact={exact}), matches printed matrix: {C == ref}"
    return _timed("showcase (7, 9^3, 5) code", run)


def check_table_row(row: refdata.GoodCodeRow, *, budget: int, samples: int,
                    seed: int) -> CheckResult:
    def run():
        ctx = DeltaContext(row.n, row.q, 2, paper=True)
        C = codes.cyclic_span(row.generator, ctx)
        k_ok = C.k == 2 * row.k
        cyc = codes.is_cyclic(C)
        so = codes.is_self_orthogonal(C, ctx)
        d, exact = codes.min_distance(C, budget=budget, samples=samples, seed=seed)
        d_ok = (d == row.d) if exact else (d >= row.d)
        ok = k_ok and cyc and so and d_ok
        kind = "exact" if exact else f"sampled bound ({samples} draws)"
        return ok, (f"(q={row.q}, n={row.n}): cardinality ({row.q}^2)^{row.k}: {k_ok}, "
                    f"cyclic: {cyc}, self-orthogonal: {so}, d {'=' if exact else '>='} "
                    f"{row.d}: got {d} [{kind}]")
    return _timed(f"good-code row q={row.q}, n={row.n}", run)


def check_small_cross() -> CheckResult:
    def run():
        ctx = DeltaContext(3, 2, 2, paper=True)
        c_so = classify.count_codes(3, 2, "so", ctx)
        c_sd = classify.count_codes(3, 2, "sd", ctx)
        o_so, k_so = classify.brute_force_oracle(3, 2, "so", ctx)
        o_sd, k_sd = classify.brute_force_oracle(3, 2, "sd", ctx)
        e_so = set(c.key() for c in classify.enumerate_codes(3, 2, "so", ctx))
        e_sd = set(c.key() for c in classify.enumerate_codes(3, 2, "sd", ctx))
        ok = (c_so, c_sd, o_so, o_sd) == (8, 3, 8, 3) and e_so == k_so and e_sd == k_sd
        return ok, f"(3, 2): formula {c_so}/{c_sd}, oracle {o_so}/{o_sd} over 35 cyclic codes"
    return _timed("derived cross-check at (3, 2)", run)


def run_reference_checks(*, budget: str = "default",
                         samples: int = SAMPLE_COUNT,
                         seed: int = SAMPLE_SEED,
                         exhaustive_budget: int = EXHAUSTIVE_BUDGET) -> list[CheckResult]:
    """Run every reference check; returns the result list in print order."""
    results = [
        check_factorisation(),
        check_idempotents(),
        check_counts(),
        check_oracle(),
        check_good_code(),
    ]
    for row in refdata.GOOD_CODE_TABLE:
        words = row.q ** (2 * row.k)
        extended = (row.q, row.n) in refdata.EXTENDED_ROWS
        if extended and budget != "extended":
            results.append(CheckResult(
                f"good-code row q={row.q}, n={row.n}", "SKIP",
                f"needs the extended budget ({words} codewords)", 0.0))
            continue
        if words > exhaustive_budget and budget == "small":
            results.append(CheckResult(
                f"good-code row q={row.q}, n={row.n}", "SKIP",
                "bound-only row skipped under the small budget", 0.0))
            continue
        row_budget = max(exhaustive_budget, words) if extended else exhaustive_budget
        results.append(check_table_row(row, budget=row_budget,
                                       samples=samples, seed=seed))
    results.append(check_small_cross())
    return results


def render(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        lines.append(f"[{r.status:4s}] {r.name}  ({r.seconds:.2f}s)")
        lines.append(f"       {r.detail}")
    n_fail = sum(1 for r in results if r.status == "FAIL")
    n_skip = sum(1 for r in results if r.status == "SKIP")
    lines.append(f"{len(results)} checks: {len(results) - n_fail - n_skip} passed, "
                 f"{n_fail} failed, {n_skip} skipped")
    return "\n".join(lines)
