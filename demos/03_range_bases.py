"""
Range bases with prescribed zero structure
==========================================

A range basis of a p x m rational matrix G of normal rank r is a
p x r matrix R of full column rank with the same column span over the
rational functions, so G = R X for a full row rank cofactor X. The
bad region of the splitting form chooses how much of the zero
structure of G the basis keeps:

  region_none()        no zeros at all and minimal McMillan degree
  stability_region(ts) only the unstable zeros stay (default)
  all_finite_region()  every zero of G stays with the basis

Independently, gains shapes the basis poles: "none" leaves them,
"stable" moves them into the stability region, and "inner" also makes
the basis inner (R~ R = I).
"""

import numpy as np

import rmfact as rm

g = rm.stable_rank2_continuous()
print("G: 3x3 continuous, normal rank 2, zeros {1, 2, inf}")

# minimal basis: one state, no zeros; the cofactor inherits the full
# McMillan degree of G plus a copy of the basis pole
rr = rm.range_basis(g, rm.region_none())
X = rm.cofactor(g, rr)
mu = rm.poles(rr.R).finite[0]
print()
print("zeros none: R degree", rm.mcmillan_degree(rr.R),
      "zeros", rm.zeros(rr.R).total, "| pole mu =", round(mu.real, 6))
zx = sorted(round(z.real, 4) for z in rm.zeros(X).finite)
print("cofactor X degree", rm.mcmillan_degree(X), "finite zeros", zx,
      "infinite zeros", rm.zeros(X).infinite_count)
print("X picks up mu as a zero:", any(abs(z - mu) < 1e-6 for z in rm.zeros(X).finite))

# unstable-zero basis: R keeps exactly the zeros in the open right
# half-plane
rr_b = rm.range_basis(g)
print()
print("zeros bad: R degree", rm.mcmillan_degree(rr_b.R),
      "zeros", sorted(round(z.real, 4) for z in rm.zeros(rr_b.R).finite))

# inner basis: same zeros, poles mirrored so that R~ R = I
rr_i = rm.range_basis(g, gains="inner")
print()
print("inner: R poles", sorted(round(z.real, 4) for z in rm.poles(rr_i.R).finite),
      "zeros", sorted(round(z.real, 4) for z in rm.zeros(rr_i.R).finite))
print("max |R~R - I| over the frequency grid:", f"{rm.gram_residual([rr_i.R]):.2e}")

# all variants factor G exactly
rng = np.random.default_rng(0)
for name, rrx in (("none", rr), ("bad", rr_b), ("inner", rr_i)):
    resid = max(rm.product_residuals(g, rrx.R, rm.cofactor(g, rrx), 8, rng))
    print(f"residual G - R X ({name}): {resid:.2e}")
