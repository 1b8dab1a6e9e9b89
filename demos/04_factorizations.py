"""
Full-rank, dual, and coprime factorizations
===========================================

The range basis machinery turns directly into matrix factorizations:

  full_rank_factorize       G = R X, R full column rank, X full row rank
  dual_full_rank_factorize  G = X R, transposed construction
  nrcf                      G = N M^{-1} with [N; M] inner

Each returns the pair (left, right), which unpacks like a tuple.
rmfact.product_residuals checks any G = L R on random points, and
rmfact.structure gives the poles and zeros of either factor.
"""

import numpy as np

import rmfact as rm

g = rm.stable_rank2_continuous()

fr = rm.full_rank_factorize(g)
print("full-rank factorization")
print("left factor :", f"{fr.left.p}x{fr.left.m}", "degree", rm.mcmillan_degree(fr.left))
print("right factor:", f"{fr.right.p}x{fr.right.m}", "degree", rm.mcmillan_degree(fr.right))
print("max relative residual:", f"{max(rm.product_residuals(g, fr.left, fr.right)):.2e}")

du = rm.dual_full_rank_factorize(g)
print()
print("dual factorization G = X R")
print("left factor :", f"{du.left.p}x{du.left.m}")
print("right factor:", f"{du.right.p}x{du.right.m}")
print("max relative residual:", f"{max(rm.product_residuals(g, du.left, du.right)):.2e}")

# a scalar normalized right coprime factorization, worked out for
# G(s) = 1/(s-1): both factors are stable, M carries the unstable
# pole of G as a zero, and on the imaginary axis N~N + M~M = 1
g_scalar = rm.make_dss(np.array([[1.0]]), None, np.array([[1.0]]),
                       np.array([[1.0]]), np.array([[0.0]]), "continuous")
N, M = rm.nrcf(g_scalar)
print()
print("nrcf of 1/(s-1)")
print("N poles:", [round(z.real, 4) for z in rm.poles(N).finite])
print("M poles:", [round(z.real, 4) for z in rm.poles(M).finite])
print("M zeros:", [round(z.real, 4) for z in rm.zeros(M).finite])
print("max |N~N + M~M - 1| on the axis:", f"{rm.gram_residual([N, M]):.2e}")
z0 = 2.0 + 0.0j
lhs = rm.evaluate(N, z0) / rm.evaluate(M, z0)
print("N/M at s=2:", complex(lhs[0, 0]), "vs G(2) =", complex(rm.evaluate(g_scalar, z0)[0, 0]))

# the same machinery handles the matrix case
print()
print("matrix nrcf normalization residual:", f"{rm.gram_residual(rm.nrcf(g)):.2e}")
