"""
Pseudo-inverse and inner - quasi-outer factorization
====================================================

Two more applications of range bases.

The Moore-Penrose pseudo-inverse of a rational matrix comes from two
nested inner compressions: G = U G1 with U a minimal inner range
basis, G1' = V' G2' with V' another one, then G# = V~ G2^{-1} U~.
The product identities G G# G = G and G# G G# = G# hold at every
point; the Hermitian symmetry of G G# and G# G is a property of the
frequency axis (imaginary axis or unit circle), which is where it is
checked.

The inner - quasi-outer factorization G = Gi Go makes the left factor
stable and inner and leaves all bad-region zeros reflected into Gi,
while Go keeps full row rank with zeros only in the good region.
"""

import numpy as np

import rmfact as rm

g = rm.polynomial_rank2_discrete()
print("G: discrete 3x3 polynomial matrix, normal rank 2, zero at 1")

gp = rm.pseudo_inverse(g)
print()
print("pseudo-inverse order:", gp.n)

# product identities at 12 random points, Hermitian ones on the unit circle
rng = np.random.default_rng(1)
res = rm.penrose_residuals(g, gp, 12, rng)
print("product identities (any point):  ", f"{res['G_Gp_G']:.2e}", f"{res['Gp_G_Gp']:.2e}")
print("Hermitian identities (unit circle):",
      f"{res['hermitian_G_Gp']:.2e}", f"{res['hermitian_Gp_G']:.2e}")

Gi, Go = rm.inner_outer(g)
print()
print("inner factor degree:", rm.mcmillan_degree(Gi),
      "poles:", [round(z.real, 6) for z in rm.poles(Gi).finite])
print("quasi-outer degree:", rm.mcmillan_degree(Go),
      # + 0.0 prints a zero that rounds to -0.0 as 0.0
      "zeros:", sorted(round(z.real, 6) + 0.0 for z in rm.zeros(Go).finite))
print("max |Gi~Gi - I| on the unit circle:", f"{rm.gram_residual([Gi]):.2e}")
print("product residual G - Gi Go:", f"{max(rm.product_residuals(g, Gi, Go, 8, rng)):.2e}")

# the continuous example rounds the picture out: its unstable zeros
# {1, 2} turn into the zeros of the inner factor, with poles at the
# mirrored positions
gc = rm.stable_rank2_continuous()
Gi_c, Go_c = rm.inner_outer(gc)
print()
print("continuous inner factor poles:",
      sorted(round(z.real, 4) for z in rm.poles(Gi_c).finite))
print("continuous inner factor zeros:",
      sorted(round(z.real, 4) for z in rm.zeros(Gi_c).finite))
