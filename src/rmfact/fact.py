"""Full-rank and structured factorizations built on range bases.

Every p x m rational matrix G of normal rank r factors as G = R X
with R a p x r range basis and X an r x m full-row-rank cofactor.
Specializing the basis yields dual factorizations, normalized right
coprime factorizations, inner-quasi-outer factorizations, and the
Moore-Penrose pseudo-inverse. All start from the controllable and
observable part of G that dss keeps at DEFAULT_TOL, so a factor depends
on G, not on how G is realized: frf and iofac factor the part by
range_basis and cofactor, dual-frf its transpose, pinv composes two
compressions by that core, and nrcf takes [G; I] on the part's minimal
realization. frf, dual-frf, nrcf and iofac return one
FactorizationResult, the pair (left, right).

Every residual of a factorization identity is computed here and
nowhere else in the package: product_residuals for G = L R,
gram_residual for the inner and normalization identities (R~R = I,
N~N + M~M = I) and penrose_residuals for the four Moore-Penrose
conditions. The command-line reports and the demos call them.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .dss import (
    DescriptorSystem,
    _controllable_observable_part,
    _irreducible_poles,
    _remove_nondynamic,
    _system,
    conjugate,
    evaluate,
    frequency_grid,
    identity_system,
    irreducible_realization,
    nonpole_evaluations,
    normal_rank,
    series,
    stack_vertical,
    system_pencil,
    transpose,
)
from .exceptions import EvaluationError, FactorizationError, InputError, StructureError
from .klf import (
    RegionPartition,
    _check_bad_stabilizable,
    _pencil_threshold,
    on_stability_boundary,
    region_none,
    special_klf,
    stability_region,
)
from .numkernel import DEFAULT_TOL, ToleranceConfig, svd_rank_abs
from .rangebasis import _trailing_basis, cofactor, range_basis

# random points of a product identity, which holds everywhere, and
# frequency-axis points of the inner and Hermitian identities
RESIDUAL_GRID = 16
FREQ_GRID = 32


def product_residuals(sys, left, right, count=RESIDUAL_GRID, rng=None) -> list:
    """||G(z) - L(z) R(z)||_F / (1 + ||G(z)||_F) at count random points
    on G's pencil scale at which G, L and R evaluate (nonpole_evaluations;
    no eigenvalue is computed), drawn by rng: a random.Random or a numpy
    Generator, random.Random(0) when None."""
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
    G# G G# - G# at count random points on G's pencil scale at which G
    and G# evaluate (nonpole_evaluations; no eigenvalue is computed),
    drawn by rng (a random.Random or a numpy Generator, random.Random(0)
    when None), and the Hermitian defects of G G# and G# G on
    frequency_grid(grid), the axis where those identities hold. A grid
    point at which G or G# does not evaluate is skipped."""
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


class FactorizationResult(NamedTuple):
    """The two factors of G = left @ right."""

    left: DescriptorSystem
    right: DescriptorSystem


def full_rank_factorize(
    sys: DescriptorSystem,
    region: RegionPartition | None = None,
    gains: str = "none",
    tol: ToleranceConfig = DEFAULT_TOL,
) -> FactorizationResult:
    """G = R X with R a column basis of the range of G and X its
    cofactor sharing the dynamics of the part of G that sys keeps."""
    return _factorize(_controllable_observable_part(sys, DEFAULT_TOL), region, gains, tol)


def _factorize(part: DescriptorSystem, region, gains, tol) -> FactorizationResult:
    """range_basis and cofactor of a realization that is its own part."""
    rr = range_basis(part, region, gains, tol)
    return FactorizationResult(rr.R, cofactor(part, rr))


def dual_full_rank_factorize(
    sys: DescriptorSystem,
    region: RegionPartition | None = None,
    gains: str = "none",
    tol: ToleranceConfig = DEFAULT_TOL,
) -> FactorizationResult:
    """G = X~ R~ with R~ a row basis of the left range space, obtained
    by factoring the transpose of the part of G that sys keeps."""
    R, X = _factorize(transpose(_controllable_observable_part(sys, DEFAULT_TOL)), region, gains, tol)
    return FactorizationResult(transpose(X), transpose(R))


def nrcf(sys: DescriptorSystem, tol: ToleranceConfig = DEFAULT_TOL) -> FactorizationResult:
    """Normalized right coprime factorization G = N M^{-1}: [N; M] is
    the inner range basis of [G; I] on the minimal realization sys keeps
    at DEFAULT_TOL, stable in the canonical region of the system type.
    In exact arithmetic that basis is minimal as it comes:
    - controllable: [G; I] has no finite zero for its leading block to hide;
    - observable: an unobservable mode would be a bad eigenvalue of [G; I];
    - no non-dynamic mode: the splitting form makes E_bl invertible.

    When the minimal realization has E None or of full rank (G proper),
    the system pencil M - lambda*N of [G; I] already is its splitting
    form and no reduction runs: nrcf reads the trailing blocks straight
    off it, A_bl = A, E_bl = E, B_bl = B, C_bl = [C; 0] and D_bl = [D; I],
    the blocks M[:n, :n], N[:n, :n] (None for E None), M[:n, n:],
    M[n:, :n] and M[n:, n:], with no bad eigenvalue. In exact arithmetic:
    - the leading block is empty: [G; I] has no finite zero, which would
      need an unobservable mode, and the [0 I] rows give its pencil full
      column rank, so no right singular part;
    - the trailing block is valid: E is invertible, the input columns
      carry no lambda part, and with no infinite constant block none
      needs isolating;
    - special_klf's form differs from these blocks only by an orthogonal
      state change, under which the inner gains are covariant.
    E's rank and the stabilizability check are decided at tol, by the
    threshold special_klf would use, that of the graph's pencil; E of
    full rank there makes [E B] so too. The poles of G are poles(red),
    whatever E is; an E of full rank there is not ranked again, since
    the graph's threshold at tol is never below that of (A, E) at
    DEFAULT_TOL, and its poles are the one QZ of (A, E). The check runs
    on the minimal realization, which shares (A, E, B) with [G; I], and
    reads their finite part. A singular E (G improper) keeps
    special_klf, at tol: only it isolates the infinite and constant
    blocks.

    Either way the basis is range_basis's: rangebasis._trailing_basis
    with the gains of inner_enforcing_gains, solved on the explicit pair
    of the whole trailing block. The block is controllable: an
    uncontrollable mode of it would be one of [G; I], which shares
    (A, E, B) with the minimal realization.

    Poles of G on the region boundary are rejected: the factors would
    have to absorb a marginal mode and the normalization degrades."""
    red = irreducible_realization(sys, DEFAULT_TOL)
    graph = stack_vertical(red, identity_system(sys.m, sys.ts))
    M, N = system_pencil(graph)
    thresh = _pencil_threshold(M, N, tol)
    n = red.n
    proper = red.E is None or svd_rank_abs(red.E, thresh) == n
    finite_poles = _irreducible_poles(red, DEFAULT_TOL, proper).finite
    for lam in finite_poles:
        if on_stability_boundary(lam, sys.ts):
            raise FactorizationError(
                f"coprime factorization rejected: pole on the stability boundary (at {lam:.6g})"
            )
    if proper:
        _check_bad_stabilizable(red, stability_region(sys.ts), thresh, finite_poles)
        blocks = SimpleNamespace(
            A_bl=M[:n, :n], E_bl=None if red.E is None else N[:n, :n], B_bl=M[:n, n:],
            C_bl=M[n:, :n], D_bl=M[n:, n:], bad_eigenvalues=(), ts=sys.ts,
        )
    else:
        blocks = special_klf(graph, stability_region(sys.ts), tol)
    # [N; M] is formed whole and split by rows: a one-row product rounds
    # differently from the same row of a taller one
    R, _, _ = _trailing_basis(blocks, "inner")
    p = sys.p
    return FactorizationResult(
        _system(R.A, R.E, R.B, R.C[:p, :], R.D[:p, :], sys.ts),
        _system(R.A, R.E, R.B, R.C[p:, :], R.D[p:, :], sys.ts),
    )


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
    G2 = G1).

    G# is composed from the part of G that sys keeps, so only
    non-dynamic modes remain in the composition, and their elimination
    alone returns it irreducible. The argument, in exact arithmetic:
    - the inverse system pencil of a realization controllable and
      observable at every finite lambda is again so: the -I blocks of
      its B and C add m to the ranks of [A - lambda E, B] and
      [A - lambda E; C], which are n;
    - G1 shares (A, E, B) with that part and G2 shares (A, E, C) with
      G1, so each compression keeps one of the two properties as it
      comes; that it keeps the other is observed on every tested
      input, not derived;
    - U~ and V~, adjoints of zero-free bases, have no finite zero, so
      U~ blocks no mode of G2^{-1} at its input and V~ hides none at
      its output. A mode could cancel across a connection only where a
      pole of G2 is the mirror image of a pole of U or V.
    """
    r = normal_rank(sys, tol)
    m, p, ts = sys.m, sys.p, sys.ts
    if r == 0:
        return _system(np.zeros((0, 0)), None, np.zeros((0, p)), np.zeros((m, 0)), np.zeros((m, p)), ts)
    G1 = _controllable_observable_part(sys, DEFAULT_TOL)
    if r < p:
        U, G1 = _factorize(G1, region_none(), "inner", tol)
    G2 = G1
    if r < m:
        V, G2t = _factorize(transpose(G1), region_none(), "inner", tol)
        G2 = transpose(G2t)
    if (G2.p, G2.m) != (r, r):
        raise StructureError(
            f"rank decisions disagree: normal_rank counts {r}, the range compressions keep a "
            f"{G2.p} x {G2.m} core; adjust the tolerance"
        )
    composed = _inverse_realization(G2)
    if r < m:
        composed = series(conjugate(transpose(V)), composed)
    if r < p:
        composed = series(composed, conjugate(U))
    return _remove_nondynamic(composed, DEFAULT_TOL)


def inner_outer(sys: DescriptorSystem, tol: ToleranceConfig = DEFAULT_TOL) -> FactorizationResult:
    """Factorization G = Gi Go with Gi inner (Gi~ Gi = I, stable) and
    Go a quasi-outer cofactor of full row rank whose zeros avoid the
    open instability region. Zeros of G on the region boundary make
    the inner basis unattainable.
    """
    return full_rank_factorize(sys, None, "inner", tol)
