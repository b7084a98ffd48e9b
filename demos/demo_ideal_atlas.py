"""The minimal-ideal atlas of F_q[X]/(X^n - 1): idempotents and generators.

Run:  python demos/demo_ideal_atlas.py
"""

from addcyc import structure

atlas = structure.build_atlas(7, 3, 2, paper=True)
tab = atlas.table

print("classes:", [list(c) for c in tab.cosets])
print("d_i =", list(tab.d), " s_i =", list(tab.s), " D_i =", list(tab.D))
print("mu =", list(tab.mu), " (negation acts trivially on both classes)")
print("orientation of negation on the split class:", atlas.tau_orientation[1])

print("\nprimitive idempotents (coefficients low to high):")
for (i, j), e in sorted(atlas.idempotents.items()):
    print(f"   e[{i},{j}] = {e}")

one = atlas.ring.one()
total = atlas.ring.zero()
for e in atlas.idempotents.values():
    total = total + e
print("sum of idempotents == 1:", total == one)

# Each minimal ideal is a finite field; rho generates its unit group.  It is
# the first h(X) * e_{i,0}, deg h < D_i, of order q^(t D_i) - 1 in the ideal.
for i in range(tab.num_classes):
    print(f"\nI_{i},0 is a field of {atlas.q}^{atlas.t * tab.D[i]} elements;"
          " its designated primitive element:")
    print("   rho =", atlas.rho(i, 0))

# The sibling primitive elements are tau-conjugates: applying the
# coefficient Frobenius carries rho_{1,0} to rho_{1,1}.
print("\ntau_(q,1)(rho_{1,0}) == rho_{1,1}:",
      atlas.rho(1, 0).tau(3, 1) == atlas.rho(1, 1))

# K_1, the small-algebra part of J_1, is fixed by the coefficient Frobenius.
f1 = atlas.idempotent(1, 0) + atlas.idempotent(1, 1)
print("e_{1,0} + e_{1,1} lies in K_1:", atlas.fixed_subfield_check(1, f1))
print("rho_{1,0} does not:        ", not atlas.fixed_subfield_check(1, atlas.rho(1, 0)))
