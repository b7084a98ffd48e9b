"""Command-line front end.

Subcommands: factor, cosets, atlas, form, dual, mindist, enumerate, count,
goodcodes, verify-paper.  Vectors and polynomials are given as
comma-separated coefficient tokens, low-to-high ("0", prime-subfield
integers, or generator powers "w^k"); --paper-fields selects the bundled
reference moduli so output matches the reference data token for token.
Precondition violations exit with status 2 and a message naming the violated
hypothesis.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import classify, codes, gf, polyring, structure, verify
from .bilinear import DeltaContext
from .codes import EXHAUSTIVE_BUDGET
from .errors import InvalidParameterError


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _context(args) -> DeltaContext:
    return DeltaContext(args.n, args.q, getattr(args, "t", 2),
                        paper=args.paper_fields)


def _emit(args, payload, text: str):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def cmd_factor(args):
    f = gf.field_of_order(args.q, paper=args.paper_fields)
    factors = polyring.factor_xn_minus_1(args.n, f, paper=args.paper_fields)
    payload = [{"factor": str(p), "coset": list(c)} for p, c in factors]
    text = "\n".join(f"m[{i}] = {p}   <-> coset {list(c)}"
                     for i, (p, c) in enumerate(factors))
    _emit(args, payload, text)


def cmd_cosets(args):
    cosets = structure.cyclotomic_cosets(args.n, args.q)
    _emit(args, [list(c) for c in cosets],
          "\n".join(f"C[{c[0]}] = {list(c)}" for c in cosets))


def cmd_atlas(args):
    atlas = structure.build_atlas(args.n, args.q, args.t, paper=args.paper_fields)
    payload = atlas.to_dict()
    lines = [f"n={args.n} q={args.q} t={args.t}",
             f"cosets: {payload['cosets']}",
             f"mu: {payload['mu']}  i#: {payload['i_sharp']}  "
             f"fixed: {payload['fixed_classes']}  paired: {payload['paired_classes']}",
             f"orientation: {payload['tau_orientation']}"]
    lines += [f"m[{i}] = {s}" for i, s in enumerate(payload["factors_q"])]
    lines += [f"M[{k}] = {v}" for k, v in sorted(payload["factors_qt"].items())]
    lines += [f"e[{k}] = {v}" for k, v in sorted(payload["idempotents"].items())]
    _emit(args, payload, "\n".join(lines))


def cmd_form(args):
    ctx = _context(args)
    a = ctx.ring.from_tokens(args.a)
    b = ctx.ring.from_tokens(args.b)
    from .bilinear import delta_form, delta_inner
    inner = delta_inner(a, b, ctx)
    form = delta_form(a, b, ctx)
    payload = {"inner": gf.format_element(ctx.field_q, inner), "form": str(form)}
    _emit(args, payload, f"(a,b)   = {payload['inner']}\n[a,b](X) = {payload['form']}")


def _code_from_args(args, ctx) -> codes.AdditiveCode:
    if args.gen:
        return codes.cyclic_span(args.gen, ctx)
    if args.row:
        return codes.code_from_vectors(args.row, ctx)
    raise InvalidParameterError("provide --gen or at least one --row")


def cmd_dual(args):
    ctx = _context(args)
    C = _code_from_args(args, ctx)
    D = codes.dual_delta(C)
    payload = {"code": codes.code_record(C), "dual": codes.code_record(D)}
    text = (f"code: k_fq = {C.k}\n{codes.generator_matrix_text(C)}\n"
            f"dual: k_fq = {D.k}\n{codes.generator_matrix_text(D)}")
    _emit(args, payload, text)


def cmd_mindist(args):
    ctx = _context(args)
    C = _code_from_args(args, ctx)
    cert = codes.distance_certificate(C, budget=args.mindist_budget)
    payload = codes.code_record(C, d=cert.ub, d_exact=cert.exact, d_lb=cert.lb)
    witness = [gf.format_element(ctx.field_qt, c) for c in cert.witness]
    payload.update(lb=cert.lb, ub=cert.ub, method=cert.method,
                   words_examined=cert.words_examined, witness=witness)
    bounds, kind = (f"d = {cert.ub}", "exact") if cert.exact else (
        f"{cert.lb} <= d <= {cert.ub}", "bound")
    _emit(args, payload, f"{bounds} ({kind}, {cert.method}, {cert.words_examined} words)")


def cmd_enumerate(args):
    ctx = _context(args)
    records = []
    for idx, C in enumerate(classify.enumerate_codes(args.n, args.q, args.mode,
                                                     ctx, complete=args.complete)):
        if args.limit is not None and idx >= args.limit:
            break
        records.append(codes.code_record(C))
    if args.json:
        print(json.dumps(records, indent=2, sort_keys=True))
    else:
        for r in records:
            basis = " | ".join(",".join(row) for row in r["basis"])
            print(f"k_fq={r['k_fq']:3d} sd={str(r['self_dual']):5s} basis: {basis or '(zero)'}")
        print(f"{len(records)} codes")


def cmd_count(args):
    value = classify.count_codes(args.n, args.q, args.mode, complete=args.complete)
    _emit(args, {"count": value}, str(value))


def cmd_goodcodes(args):
    ctx = _context(args)
    records = classify.good_code_report(args.n, args.q, ctx,
                                        budget=args.mindist_budget,
                                        mode=args.mode, limit=args.limit)
    if args.json:
        print(json.dumps(records, indent=2, sort_keys=True))
    else:
        for r in records:
            flag = ("exact" if r["d_exact"] else
                    f"bound, lb {r['d_lb']}" if r["d"] is not None else "-")
            print(f"k_fq={r['k_fq']:3d} d={r['d']!s:4s} [{flag}] "
                  f"sd={str(r['self_dual']):5s}")
        print(f"{len(records)} codes")


def cmd_verify_paper(args):
    results = verify.run_reference_checks()
    if args.json:
        payload = [{"name": r.name, "status": r.status, "detail": r.detail,
                    "seconds": round(r.seconds, 3)} for r in results]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(verify.render(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="addcyc",
        description="cyclic additive codes over GF(q^t) under a twisted trace duality")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, *, needs_n=True, needs_t=False):
        if needs_n:
            p.add_argument("-n", type=int, required=True, help="code length")
        p.add_argument("-q", type=int, required=True, help="base field cardinality")
        if needs_t:
            p.add_argument("-t", type=int, default=2, help="extension degree (even)")
        p.add_argument("--paper-fields", action="store_true",
                       help="use the bundled reference moduli")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    def mindist_opts(p):
        p.add_argument("--mindist-budget", type=int, default=EXHAUSTIVE_BUDGET,
                       help="words the information-set enumeration may form; a "
                            "code that needs more is bounded by the levels it completes")

    def code_input(p):
        p.add_argument("--gen", help="generator coefficients; the code is its cyclic span")
        p.add_argument("--row", action="append",
                       help="explicit basis row (repeatable)")

    p = sub.add_parser("factor", help="factor X^n - 1 over GF(q)")
    common(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("cosets", help="q-cyclotomic cosets mod n")
    common(p)
    p.set_defaults(func=cmd_cosets)

    p = sub.add_parser("atlas", help="minimal-ideal atlas of R_n")
    common(p, needs_t=True)
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("form", help="evaluate the trace form on two vectors")
    common(p, needs_t=True)
    p.add_argument("--a", required=True, help="first vector, coefficient tokens")
    p.add_argument("--b", required=True, help="second vector")
    p.set_defaults(func=cmd_form)

    p = sub.add_parser("dual", help="dual code under the trace form")
    common(p, needs_t=True)
    code_input(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("mindist", help="minimum Hamming distance")
    common(p, needs_t=True)
    code_input(p)
    mindist_opts(p)
    p.set_defaults(func=cmd_mindist)

    p = sub.add_parser("enumerate", help="enumerate classified codes (t = 2)")
    common(p)
    p.add_argument("--mode", choices=["so", "sd"], default="so")
    p.add_argument("--limit", type=_nonnegative)
    p.add_argument("--complete", action="store_true",
                   help="include the verified options missing from the published lists")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("count", help="closed-form code count (t = 2)",
                       description="Closed-form code count (t = 2).  By default the "
                                   "published figure, which is short where a transposed "
                                   "pair has even d_j: -n 8 -q 3 --mode so prints 580, "
                                   "against a complete count of 1485.")
    common(p)
    p.add_argument("--mode", choices=["so", "sd"], default="so")
    p.add_argument("--complete", action="store_true",
                   help="the complete count, which the brute-force oracle confirms")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("goodcodes", help="classified codes with min distances")
    common(p)
    p.add_argument("--mode", choices=["so", "sd"], default="so")
    p.add_argument("--limit", type=_nonnegative)
    mindist_opts(p)
    p.set_defaults(func=cmd_goodcodes)

    p = sub.add_parser("verify-paper", help="re-derive the bundled reference data")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_paper)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ret = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return int(ret or 0)


if __name__ == "__main__":
    sys.exit(main())
