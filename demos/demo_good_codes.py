"""Good codes: the showcase (7, 9^3, 5) code and the bundled table.

Run:  python demos/demo_good_codes.py
"""

from addcyc import codes, refdata
from addcyc.bilinear import context

# The showcase code: the cyclic span of one primitive idempotent.
ctx = context(7, 3, 2, paper=True)
C = codes.cyclic_span(ctx.atlas.idempotent(1, 0), ctx)
d, exact = codes.min_distance(C)
print(f"showcase code: length 7, |C| = 3^{C.k} = 9^3, d = {d} (exact={exact})")
print("self-orthogonal:", codes.is_self_orthogonal(C))
print("generator matrix:")
print(codes.generator_matrix_text(C))

dual = codes.dual_delta(C)
print(f"\ndual code dimension: {dual.k} (= 14 - {C.k}); contains C:",
      C.is_subspace_of(dual))

# The bundled table of good codes, each given by one cyclic generator.
print("\nbundled good-code table:")
for row in refdata.GOOD_CODE_TABLE:
    rctx = context(row.n, row.q, 2, paper=True)
    code = codes.cyclic_span(row.generator, rctx)
    cert = codes.distance_certificate(code)
    computed = (f"d = {cert.ub} [exact]" if cert.exact else
                f"{cert.lb} <= d <= {cert.ub} [bound]")
    print(f"   q={row.q:>2} n={row.n:>2}: (n, ({row.q}^2)^{row.k}, {row.d})   computed {computed}")
