"""Full-rank and structured factorizations built on range bases.

Every p x m rational matrix G of normal rank r factors as G = R X
with R a p x r range basis and X an r x m full-row-rank cofactor.
Specializing the basis yields dual factorizations, normalized right
coprime factorizations, inner-quasi-outer factorizations, and the
Moore-Penrose pseudo-inverse.

A factorization is certified on demand: certify checks G = L R on
random points and reports the structure of both factors, and
FactorizationResult.certificates calls it the first time it is read.

Every residual of a factorization identity is computed here and
nowhere else in the package: product_residuals for G = L R,
gram_residual for the inner and normalization identities (R~R = I,
N~N + M~M = I) and penrose_residuals for the four Moore-Penrose
conditions. The command-line reports and the demos call them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dss import (
    DescriptorSystem,
    _system,
    conjugate,
    evaluate,
    frequency_grid,
    identity_system,
    irreducible_realization,
    nonpole_evaluations,
    normal_rank,
    poles,
    series,
    stack_vertical,
    structure,
    system_pencil,
    transpose,
)
from .exceptions import EvaluationError, FactorizationError, InputError
from .klf import RegionPartition, on_stability_boundary, region_none
from .numkernel import DEFAULT_TOL, ToleranceConfig
from .rangebasis import cofactor, range_basis

# random points of a product identity, which holds everywhere, and
# frequency-axis points of the inner and Hermitian identities
RESIDUAL_GRID = 16
FREQ_GRID = 32


def product_residuals(sys, left, right, count=RESIDUAL_GRID, rng=None) -> list:
    """||G(z) - L(z) R(z)||_F / (1 + ||G(z)||_F) at the count random
    points of nonpole_evaluations."""
    return [
        np.linalg.norm(Gz - Lz @ Rz, "fro") / (1.0 + np.linalg.norm(Gz, "fro"))
        for Gz, Lz, Rz in nonpole_evaluations([sys, left, right], count, rng)
    ]


def gram_residual(factors, count=FREQ_GRID) -> float:
    """max over frequency_grid(count) of ||sum F~F - I||_F for the
    factors of one stacked column: ||R~R - I|| for an inner R,
    ||N~N + M~M - I|| for a normalized coprime pair. A grid point at
    which a factor does not evaluate raises EvaluationError."""
    worst = 0.0
    for z in frequency_grid(factors[0].ts, count):
        gram = sum(F.conj().T @ F for F in (evaluate(f, z) for f in factors))
        worst = max(worst, np.linalg.norm(gram - np.eye(factors[0].m), "fro"))
    return float(worst)


def penrose_residuals(sys, gp, count=RESIDUAL_GRID, rng=None, grid=FREQ_GRID) -> dict:
    """The Moore-Penrose defects of gp as the pseudo-inverse of G,
    each divided by 1 + ||G(z)||_F and maximized: G G# G - G and
    G# G G# - G# at the count random points of nonpole_evaluations,
    and the Hermitian defects of G G# and G# G on frequency_grid(grid),
    the axis where those identities hold. A grid point at which G or
    G# does not evaluate is skipped."""
    w1 = w2 = 0.0
    for Gz, Pz in nonpole_evaluations([sys, gp], count, rng):
        scale = 1.0 + np.linalg.norm(Gz, "fro")
        w1 = max(w1, np.linalg.norm(Gz @ Pz @ Gz - Gz, "fro") / scale)
        w2 = max(w2, np.linalg.norm(Pz @ Gz @ Pz - Pz, "fro") / scale)
    w3 = w4 = 0.0
    for z in frequency_grid(sys.ts, grid):
        try:
            Gz, Pz = evaluate(sys, z), evaluate(gp, z)
        except EvaluationError:
            continue
        GP, PG = Gz @ Pz, Pz @ Gz
        scale = 1.0 + np.linalg.norm(Gz, "fro")
        w3 = max(w3, np.linalg.norm(GP.conj().T - GP, "fro") / scale)
        w4 = max(w4, np.linalg.norm(PG.conj().T - PG, "fro") / scale)
    return {"G_Gp_G": w1, "Gp_G_Gp": w2, "hermitian_G_Gp": w3, "hermitian_Gp_G": w4}


def certify(sys, left, right, tol=DEFAULT_TOL, rng=None, count=RESIDUAL_GRID) -> dict:
    """Certificates of G = left @ right: the factored rank, residual
    statistics over count random points (product_residuals), and the
    Structure records of both factors under left_structure and
    right_structure. Each fact appears once: the factor poles and
    zeros are in the records, the orders are left.n and right.n."""
    residuals = product_residuals(sys, left, right, count, rng)
    return {
        "rank": left.m,
        "grid_points": count,
        "max_relative_residual": float(max(residuals)) if residuals else 0.0,
        "mean_relative_residual": float(np.mean(residuals)) if residuals else 0.0,
        "left_structure": structure(left, tol),
        "right_structure": structure(right, tol),
    }


@dataclass(frozen=True)
class FactorizationResult:
    """A two-factor decomposition left @ right of the rational matrix
    system. Its certificates (see certify: the factored rank, residual
    statistics over a random evaluation grid, and the Structure records
    of both factors) are computed the first time they are read."""

    left: DescriptorSystem
    right: DescriptorSystem
    kind: str
    system: DescriptorSystem = field(repr=False)
    tol: ToleranceConfig = field(default=DEFAULT_TOL, repr=False)

    @cached_property
    def certificates(self) -> dict:
        return certify(self.system, self.left, self.right, self.tol)


def full_rank_factorize(
    sys: DescriptorSystem,
    region: RegionPartition | None = None,
    gains: str = "none",
    tol: ToleranceConfig = DEFAULT_TOL,
) -> FactorizationResult:
    """G = R X with R a column basis of the range of G and X its
    cofactor sharing the dynamics of G."""
    rr = range_basis(sys, region, gains, tol)
    X = cofactor(sys, rr)
    return FactorizationResult(left=rr.R, right=X, kind="full-rank", system=sys, tol=tol)


def dual_full_rank_factorize(
    sys: DescriptorSystem,
    region: RegionPartition | None = None,
    gains: str = "none",
    tol: ToleranceConfig = DEFAULT_TOL,
) -> FactorizationResult:
    """G = X~ R~ with R~ a row basis of the left range space, obtained
    by factoring the transposed matrix."""
    primal = full_rank_factorize(transpose(sys), region, gains, tol)
    return FactorizationResult(
        left=transpose(primal.right), right=transpose(primal.left), kind="dual", system=sys, tol=tol
    )


def nrcf(sys: DescriptorSystem, tol: ToleranceConfig = DEFAULT_TOL):
    """Normalized right coprime factorization G = N M^{-1}: [N; M] is
    the inner range basis of [G; I] on the minimal realization sys keeps
    at DEFAULT_TOL, stable in the canonical region of the system type.
    In exact arithmetic that basis is minimal as it comes:
    - controllable: [G; I] has no finite zero for its leading block to hide;
    - observable: an unobservable mode would be a bad eigenvalue of [G; I];
    - no non-dynamic mode: special_klf makes E_bl invertible.
    Poles of G on the region boundary are rejected: the factors would
    have to absorb a marginal mode and the normalization degrades."""
    red = irreducible_realization(sys, DEFAULT_TOL)
    for lam in poles(red).finite:
        if on_stability_boundary(lam, sys.ts):
            raise FactorizationError(
                f"coprime factorization rejected: pole on the stability boundary (at {lam:.6g})"
            )
    R = range_basis(stack_vertical(red, identity_system(sys.m, sys.ts)), None, "inner", tol).R
    p = sys.p
    N = _system(R.A, R.E, R.B, R.C[:p, :], R.D[:p, :], sys.ts)
    M = _system(R.A, R.E, R.B, R.C[p:, :], R.D[p:, :], sys.ts)
    return N, M


def _inverse_realization(sys: DescriptorSystem) -> DescriptorSystem:
    """Descriptor realization of G^{-1} for square invertible G; the
    inverse may be improper even when G is proper."""
    if sys.p != sys.m:
        raise InputError("inversion requires a square rational matrix")
    n, m = sys.n, sys.m
    A_i, E_i = system_pencil(sys)
    B_i = np.vstack([np.zeros((n, m)), -np.eye(m)])
    C_i = np.hstack([np.zeros((m, n)), np.eye(m)])
    return _system(A_i, E_i, B_i, C_i, np.zeros((m, m)), sys.ts)


def pseudo_inverse(sys: DescriptorSystem, tol: ToleranceConfig = DEFAULT_TOL) -> DescriptorSystem:
    """Moore-Penrose pseudo-inverse of a rational matrix.

    Built from zero-free inner range compressions G = U G1 and
    G1' = V' G2', giving G# = V~ G2^{-1} U~, returned as an irreducible
    realization. A square zero-free inner factor has no poles, so it is
    a constant orthogonal matrix: the first compression runs only when
    r < p (else U = I, G1 = G), the second only when r < m (else V = I,
    G2 = G1). The realizations composed here are reduced at the noise
    floor (see ToleranceConfig), so a coarse tol may leave G#
    non-minimal, never wrong.
    """
    r = normal_rank(sys, tol)
    m, p, ts = sys.m, sys.p, sys.ts
    if r == 0:
        return _system(np.zeros((0, 0)), None, np.zeros((0, p)), np.zeros((m, 0)), np.zeros((m, p)), ts)
    G2 = G1 = sys
    if r < p:
        rr1 = range_basis(sys, region_none(), "inner", tol)
        G2 = G1 = cofactor(sys, rr1)
    if r < m:
        # the cofactor realization inherits the input's order and can be
        # reducible in ways that block the second compression (for example
        # rank [E B] < n); a minimal realization never is
        G1t = irreducible_realization(transpose(G1), DEFAULT_TOL)
        rr2 = range_basis(G1t, region_none(), "inner", tol)
        G2 = transpose(cofactor(G1t, rr2))
    composed = _inverse_realization(G2)
    if r < m:
        composed = series(conjugate(transpose(rr2.R)), composed)
    if r < p:
        composed = series(composed, conjugate(rr1.R))
    return irreducible_realization(composed, DEFAULT_TOL)


def inner_outer(sys: DescriptorSystem, tol: ToleranceConfig = DEFAULT_TOL):
    """Factorization G = Gi Go with Gi inner (Gi~ Gi = I, stable) and
    Go a quasi-outer cofactor of full row rank whose zeros avoid the
    open instability region. Zeros of G on the region boundary make
    the inner basis unattainable.
    """
    rr = range_basis(sys, None, "inner", tol)
    return rr.R, cofactor(sys, rr)
