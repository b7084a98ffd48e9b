"""Classifying the cyclic self-orthogonal and self-dual codes at q=3, n=7.

Run:  python demos/demo_classification.py
"""

from addcyc import classify
from addcyc.bilinear import context

ctx = context(7, 3, 2, paper=True)

# Closed-form counts: the published formulas...
print("published closed-form counts:",
      classify.count_codes(7, 3, "so", ctx), "self-orthogonal /",
      classify.count_codes(7, 3, "sd", ctx), "self-dual")

# ...and the corrected ones (the identity class also admits its isotropic
# prime-subfield line when q is odd).
print("corrected counts:          ",
      classify.count_codes(7, 3, "so", ctx, complete=True), "/",
      classify.count_codes(7, 3, "sd", ctx, complete=True))

# The component menu behind the counts:
for i in (0, 1):
    opts = classify.subcode_options(i, "so", ctx)
    print(f"\nclass {i}: {len(opts)} published options:",
          ", ".join(o.label for o in opts[:6]) + (" ..." if len(opts) > 6 else ""))

# Enumerate, then cross-check against an oracle that covers ALL 4392 cyclic
# codes through its block tests and tests orthogonality directly (no
# classification theory).
published = {c.key() for c in classify.enumerate_codes(7, 3, "so", ctx)}
complete = {c.key() for c in classify.enumerate_codes(7, 3, "so", ctx, complete=True)}
oracle_count, oracle_keys = classify.brute_force_oracle(7, 3, "so", ctx)
print("\nenumerated (published options):", len(published))
print("enumerated (complete):         ", len(complete))
print("brute-force scan finds:        ", oracle_count)
print("complete enumeration == oracle:", complete == oracle_keys)
print("published codes are a subset:  ", published < oracle_keys)

# Self-dual codes sit inside the self-orthogonal family.
sd = {c.key() for c in classify.enumerate_codes(7, 3, "sd", ctx)}
print("\nself-dual (published):", len(sd), "- subset of self-orthogonal:", sd < published)
