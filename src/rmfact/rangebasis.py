"""Rational bases of the range space of a rational matrix.

A range basis of a p x m rational matrix G of normal rank r is a
p x r rational matrix R of full column rank whose columns span the
same rational column space. R is read off the trailing diagonal
blocks of the splitting form of the system matrix pencil. Two
independent choices shape it: the bad region of the splitting form
decides which zeros of G the basis keeps (region_none: none, the
minimum-degree basis; stability_region: the unstable ones;
all_finite_region: every one), and the gains choice decides what a
state feedback F and an invertible output weighting W, solved on the
whole trailing block, do to its poles without changing the span
("none", "stable", or "inner"). Every basis built on trailing blocks,
range_basis's and fact.nrcf's, comes out of one assembly,
_trailing_basis, and every gain solve out of one Riccati feedback,
_riccati_feedback, checked by one guard, _check_feedback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dss import DescriptorSystem, _system
from .exceptions import FactorizationError, InputError
from .klf import (
    RegionPartition,
    SpecialKlf,
    classify_eigenvalue,
    on_stability_boundary,
    region_selector,
    special_klf,
    stability_gap,
    stability_region,
)
from .numkernel import (
    DEFAULT_TOL,
    ToleranceConfig,
    _ordered_schur,
    eigenvalues,
    frobenius_norm,
    noise_floor,
    solve,
    stabilizing_riccati,
    svd,
    symmetric_eigen,
)

@dataclass(frozen=True)
class RangeResult:
    """Range basis R with the gains that produced it and the splitting
    form it came from. The realization of R is exactly the block
    (A_bl + B_bl F - lambda E_bl, B_bl W, C_bl + D_bl F, D_bl W); it
    need not be minimal."""

    R: DescriptorSystem
    F: np.ndarray
    W: np.ndarray
    sklf: SpecialKlf


def range_basis(
    sys: DescriptorSystem,
    region: RegionPartition | None = None,
    gains: str = "none",
    tol: ToleranceConfig = DEFAULT_TOL,
) -> RangeResult:
    """Compute a full-column-rank basis R of the range space of sys.

    The basis keeps the zeros of sys in the bad set of region, which
    defaults to stability_region(sys.ts). gains shapes its poles:
    "none" leaves F = 0 and W = I, "stable" moves every unstable
    controllable pole into the stability region, and "inner" also
    makes R~ R = I. A realization that is not stabilizable for the bad
    region is refused (StructureError), even when the modes that break
    stabilizability cancel in G; the factorizations of fact start from
    G's controllable and observable part, which drops them. Gains
    "stable" and "inner" also need the trailing blocks stabilizable for
    region_none, which special_klf does not check (FactorizationError);
    they are controllable when sys is: y^T [A_bl - lambda E_bl, B_bl] = 0
    extends through the invertible B_n. The splitting form is
    special_klf's, kept on sys per region and tol, so every basis of sys
    for one region and tol shares one reduction; _trailing_basis builds
    the basis on its trailing blocks.
    """
    if gains not in ("none", "stable", "inner"):
        raise InputError(f"gains must be one of 'none', 'stable', 'inner', got {gains!r}")
    sk = special_klf(sys, region or stability_region(sys.ts), tol)
    R, F, W = _trailing_basis(sk, gains)
    return RangeResult(R=R, F=F, W=W, sklf=sk)


def _trailing_basis(blocks, gains: str):
    """The basis (A_bl + B_bl F - lambda E_bl, B_bl W, C_bl + D_bl F,
    D_bl W) on the trailing blocks of a splitting form, or of a value
    with its block names, and the F and W of gains: F = 0 and W = I for
    "none", inner_enforcing_gains for "inner", _stabilizing_gains for
    "stable". E_bl None, or no state, stores E as None."""
    A_bl, E_bl, B_bl, C_bl, D_bl = (
        None if M is None else np.array(M) for M in (blocks.A_bl, blocks.E_bl, blocks.B_bl, blocks.C_bl, blocks.D_bl)
    )
    n_bl, r = B_bl.shape
    if gains == "inner":
        F, W = inner_enforcing_gains(blocks)
    else:
        F = _stabilizing_gains(blocks) if gains == "stable" else np.zeros((r, n_bl))
        W = np.eye(r)
    R = _system(A_bl + B_bl @ F, E_bl if n_bl else None, B_bl @ W, C_bl + D_bl @ F, D_bl @ W, blocks.ts)
    return R, F, W


def cofactor(sys: DescriptorSystem, rr: RangeResult) -> DescriptorSystem:
    """The r x m cofactor X with G = R X. X shares the state dynamics
    of sys; only its output rows are recombined from the splitting
    form transformation."""
    sk = rr.sklf
    if (sys.n, sys.m, sys.p, sys.ts) != (sk.n, sk.m, sk.p, sk.ts):
        raise InputError("range result does not belong to this system")
    r, c1, n_bl, m_n = sk.r, sk.c1, sk.n_bl, sk.m_n
    if r == 0:
        CD = np.zeros((0, sys.n + sys.m))
    else:
        block = np.concatenate([np.zeros((r, c1)), -rr.F, np.eye(r), np.zeros((r, m_n))], axis=1)
        CD = solve(rr.W, block) @ sk.Z.T
    Ct = CD[:, : sys.n]
    Dt = CD[:, sys.n:]
    return _system(sys.A, sys.E, sys.B, Ct, Dt, sys.ts)


# -- gain computations --------------------------------------------------------

# a gain solve on the whole trailing block fails on a mode B_bl misses
STABILIZABLE = " (the trailing blocks must be stabilizable)"


def _inv_sqrt_sym(H):
    """H^-1/2 of the Gramian H from the eigenpairs (w, V) of its
    symmetric part (symmetric_eigen): V with its columns scaled by
    w^-1/2, times V^T."""
    # a division guard (ToleranceConfig): w holds squared singular values
    w, V = symmetric_eigen(0.5 * (H + H.T))
    if H.shape[0] and w[0] <= noise_floor(max(w[-1], 1.0), H.shape[0]):
        raise FactorizationError(
            "inner normalization failed: the weighting Gramian is numerically singular"
        )
    return (V * (1.0 / np.sqrt(w))) @ V.T


def _finite_pair(blocks):
    """The explicit pair (A, B) of the trailing blocks (A_bl - lambda
    E_bl, B_bl) with E_bl invertible: E_bl^-1 [A_bl B_bl], or [A_bl B_bl]
    for E_bl None. A non-finite entry means a reduction broke down."""
    n_bl = blocks.A_bl.shape[0]
    AB = np.concatenate([blocks.A_bl, blocks.B_bl], axis=1)
    if blocks.E_bl is not None:
        AB = solve(blocks.E_bl, AB)
    if not np.isfinite(AB).all():
        raise FactorizationError("the explicit pair of the trailing blocks has non-finite entries")
    return AB[:, :n_bl], AB[:, n_bl:]


def inner_enforcing_gains(blocks: SpecialKlf):
    """Feedback F and weighting W making the basis on the trailing
    blocks of blocks inner (R~ R = I and all poles stable); blocks is a
    splitting form or a value with its block names (A_bl to D_bl,
    bad_eigenvalues, ts). The zeros of the basis are the splitting form's
    record blocks.bad_eigenvalues; one on the stability boundary
    rejects the basis. The Riccati feedback (_riccati_feedback) with the
    output weights C_bl^T C_bl, D_bl^T D_bl and C_bl^T D_bl is solved on
    the explicit pair E_bl^-1 [A_bl B_bl] of the whole trailing block
    (_finite_pair), so the block must be stabilizable (range_basis).
    With no state F is empty and W normalizes D_bl."""
    ts = blocks.ts
    n_bl, r = blocks.B_bl.shape
    D = np.array(blocks.D_bl)
    if r == 0:
        return np.zeros((0, n_bl)), np.eye(0)
    if ts == "continuous":
        # a continuous inner basis needs full column rank at infinity;
        # in discrete time a singular feedthrough is fine as long as
        # the Riccati feedthrough term stays invertible (a division guard)
        sD = svd(D, compute_uv=False) if D.size else np.zeros(1)
        if D.shape[0] < r or sD[-1] <= noise_floor(max(sD[0], 1.0), max(D.shape)):
            raise FactorizationError(
                "inner basis does not exist: the candidate feedthrough is column rank deficient"
            )
    # an inner basis exists only if the zeros carried by the trailing
    # blocks, the bad eigenvalues of the splitting form, stay off the
    # stability boundary: feedback cannot move zeros, and R~ R = I
    # fails at a boundary zero
    for a, b in blocks.bad_eigenvalues:
        lam = a / b
        if on_stability_boundary(lam, ts):
            raise FactorizationError(
                "inner basis does not exist: a zero of the basis lies on the "
                f"stability boundary (at {lam:.6g})"
            )
    A, B = _finite_pair(blocks)
    if n_bl == 0:
        return np.zeros((r, 0)), _inv_sqrt_sym(D.T @ D)
    C = blocks.C_bl
    F, H = _riccati_feedback(A, B, C.T @ C, D.T @ D, C.T @ D, ts)
    W = _inv_sqrt_sym(H)
    _check_feedback(A, B, F, ts)
    return F, W


def _riccati_feedback(A, B, Q, R, S, ts):
    """Feedback F of the stabilizing solution X of the Riccati equation
    of the explicit pair (A, B) with weights [Q S; S^T R], S None for
    zero, and the term H it inverts: F = -R^-1 (B^T X + S^T) with H = R
    in continuous time, F = -H^-1 (B^T X A + S^T) with H = B^T X B + R
    in discrete time. A solver failure, as at a mode B does not reach,
    is a FactorizationError."""
    cross = 0.0 if S is None else S.T
    try:
        X = stabilizing_riccati(A, B, Q, R, S, ts)
        if ts == "continuous":
            return -solve(R, B.T @ X + cross), R
        H = B.T @ X @ B + R
        return -solve(H, B.T @ X @ A + cross), H
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise FactorizationError(f"Riccati gain computation failed: {exc}{STABILIZABLE}") from None


def _check_feedback(A, B, F, ts):
    """Refuse a feedback F on the explicit pair (A, B) that leaves a
    pole of the closed loop A + B F in the instability region of ts (a
    Riccati solution computed from ill-conditioned data can miss its
    target), or that is so large, ||F||_F noise_floor(s, n) > s with
    s = max(||A||_F, ||B||_F, sqrt(n)), that it moves a mode B reaches
    only at roundoff level (a division guard)."""
    closed = eigenvalues(A + B @ F)
    # only a pole with a positive stability gap can classify bad
    for z in closed[stability_gap(closed, ts) > 0]:
        if classify_eigenvalue(z, 1.0, stability_region(ts)) == "bad":
            raise FactorizationError(f"feedback left the closed-loop pole {z} in the instability region{STABILIZABLE}")
    n, size = A.shape[0], frobenius_norm(F)
    scale = max(frobenius_norm(A), frobenius_norm(B), np.sqrt(n))
    if size * noise_floor(scale, n) > scale:
        raise FactorizationError(f"feedback of norm {size:.3g} acts through roundoff in B{STABILIZABLE}")


def _stabilizing_gains(blocks):
    """Feedback moving every unstable eigenvalue of the explicit pair
    (_finite_pair) of the whole trailing block to its reflection,
    leaving the stable ones untouched: the zero-weight Riccati feedback
    (_riccati_feedback) of the anti-stable block A22 of an ordered real
    Schur form of A (_ordered_schur) mirrors its poles. With zero Q the
    Riccati equation is homogeneous in X and R, so the weight R = c^2 I,
    c the power of 2 nearest ||B2||_F, leaves the feedback unchanged
    and keeps X of the size of a well-scaled B2's: a B2 of norm 1e-8
    and R = I would ask for an X of 1e16."""
    n_bl, r = blocks.B_bl.shape
    if n_bl == 0 or r == 0:
        return np.zeros((r, n_bl))
    A, B = _finite_pair(blocks)
    S, Q, kg = _ordered_schur(A, region_selector(stability_region(blocks.ts)))
    kb = n_bl - kg
    if kb == 0:
        return np.zeros((r, n_bl))
    B2 = (Q.T @ B)[kg:, :]
    size = frobenius_norm(B2)
    c = 2.0 ** round(math.log2(size)) if size else 1.0
    F2, _ = _riccati_feedback(S[kg:, kg:], B2, np.zeros((kb, kb)), (c * c) * np.eye(r), None, blocks.ts)
    F = np.hstack([np.zeros((r, kg)), F2]) @ Q.T
    _check_feedback(A, B, F, blocks.ts)
    return F
