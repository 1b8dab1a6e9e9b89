"""Rational bases of the range space of a rational matrix.

A range basis of a p x m rational matrix G of normal rank r is a
p x r rational matrix R of full column rank whose columns span the
same rational column space. R is read off the trailing diagonal
blocks of the splitting form of the system matrix pencil. Two
independent choices shape it: the bad region of the splitting form
decides which zeros of G the basis keeps (region_none: none, the
minimum-degree basis; stability_region: the unstable ones;
all_finite_region: every one), and the gains choice decides what a
state feedback F and an invertible output weighting W do to its poles
without changing the span ("none", "stable", or "inner").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dss import DescriptorSystem, _system, controllable_bases
from .exceptions import FactorizationError, InputError
from .klf import (
    RegionPartition,
    SpecialKlf,
    classify_eigenvalue,
    on_stability_boundary,
    region_selector,
    special_klf,
    stability_region,
)
from .numkernel import (
    DEFAULT_TOL,
    ToleranceConfig,
    _ordered_qz,
    noise_floor,
    stabilizing_riccati,
    svd,
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
    stabilizability cancel in G; its dss.irreducible_realization drops
    them and is accepted. The splitting form is special_klf's, kept on
    sys per region and tol, so every basis of sys for one region and
    tol shares one reduction.
    """
    if gains not in ("none", "stable", "inner"):
        raise InputError(f"gains must be one of 'none', 'stable', 'inner', got {gains!r}")
    sk = special_klf(sys, region or stability_region(sys.ts), tol)
    A_bl, E_bl, B_bl, C_bl, D_bl = (np.array(M) for M in (sk.A_bl, sk.E_bl, sk.B_bl, sk.C_bl, sk.D_bl))
    r, n_bl = sk.r, sk.n_bl
    if gains == "inner":
        F, W = inner_enforcing_gains(sk, tol)
    elif gains == "stable":
        F = _stabilizing_gains(A_bl, E_bl, B_bl, sys.ts, tol)
        W = np.eye(r)
    else:
        F = np.zeros((r, n_bl))
        W = np.eye(r)
    R = _system(A_bl + B_bl @ F, E_bl if n_bl else None, B_bl @ W, C_bl + D_bl @ F, D_bl @ W, sys.ts)
    return RangeResult(R=R, F=F, W=W, sklf=sk)


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
        block = np.hstack([np.zeros((r, c1)), -rr.F, np.eye(r), np.zeros((r, m_n))])
        CD = np.linalg.solve(rr.W, block) @ sk.Z.T
    Ct = CD[:, : sys.n]
    Dt = CD[:, sys.n:]
    return _system(sys.A, sys.E, sys.B, Ct, Dt, sys.ts)


# -- gain computations --------------------------------------------------------


def _inv_sqrt_sym(H):
    # a division guard (ToleranceConfig): w holds squared singular values
    w, V = np.linalg.eigh(0.5 * (H + H.T))
    if H.shape[0] and w[0] <= noise_floor(max(w[-1], 1.0), H.shape[0]):
        raise FactorizationError(
            "inner normalization failed: the weighting Gramian is numerically singular"
        )
    return V @ np.diag(1.0 / np.sqrt(w)) @ V.T if H.shape[0] else np.eye(0)


def _explicit_pair(A_bl, E_bl, B_bl, tol):
    """Explicit pair (E_c^-1 A_c, E_c^-1 B_c) of the controllable part
    (A_c - lambda E_c, B_c) of the trailing blocks and the orthonormal
    Z_c with x = Z_c x_c for its state."""
    L, Z = controllable_bases(A_bl, E_bl, B_bl, tol)
    k = Z.shape[1]
    AB = np.linalg.solve(L.T @ E_bl @ Z, L.T @ np.hstack([A_bl @ Z, B_bl]))
    if not np.isfinite(AB).all():
        raise FactorizationError("the explicit pair of the trailing blocks has non-finite entries")
    return AB[:, :k], AB[:, k:], Z


def inner_enforcing_gains(blocks: SpecialKlf, tol: ToleranceConfig = DEFAULT_TOL):
    """Feedback F and weighting W making the basis inner (R~ R = I and
    all poles stable). The zeros of the basis are the splitting form's
    record blocks.bad_eigenvalues; one on the stability boundary
    rejects the basis. Solves the Riccati equation of the explicit
    pair obtained with the invertible E_bl, on the controllable part
    only, and pads the feedback with zeros on uncontrollable states."""
    ts = blocks.ts
    r, n_bl = blocks.r, blocks.n_bl
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
    if n_bl == 0:
        return np.zeros((r, 0)), _inv_sqrt_sym(D.T @ D)
    A_bl, E_bl, B_bl, C_bl = (np.array(M) for M in (blocks.A_bl, blocks.E_bl, blocks.B_bl, blocks.C_bl))
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
    A_c, B_c, Z_c = _explicit_pair(A_bl, E_bl, B_bl, tol)
    if Z_c.shape[1] == 0:
        return np.zeros((r, n_bl)), _inv_sqrt_sym(D.T @ D)
    C1 = C_bl @ Z_c
    Qc = C1.T @ C1
    Rc = D.T @ D
    Sc = C1.T @ D
    try:
        X = stabilizing_riccati(A_c, B_c, Qc, Rc, Sc, ts)
        if ts == "continuous":
            F_c = -np.linalg.solve(Rc, B_c.T @ X + Sc.T)
            W = _inv_sqrt_sym(Rc)
        else:
            H = B_c.T @ X @ B_c + Rc
            F_c = -np.linalg.solve(H, B_c.T @ X @ A_c + Sc.T)
            W = _inv_sqrt_sym(H)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise FactorizationError(f"inner gain computation failed: {exc}") from None
    return F_c @ Z_c.T, W


def _stabilizing_gains(A_bl, E_bl, B_bl, ts, tol):
    """Feedback moving every unstable controllable eigenvalue of
    (A_bl - lambda E_bl) to its reflection, leaving stable and
    uncontrollable (hence cancelling) modes untouched. The zero-weight
    Riccati solution of the anti-stable block mirrors its poles; a
    solver failure there is a FactorizationError."""
    r = B_bl.shape[1]
    n_bl = A_bl.shape[0]
    if n_bl == 0 or r == 0:
        return np.zeros((r, n_bl))
    A_c, B_c, Z_c = _explicit_pair(A_bl, E_bl, B_bl, tol)
    k = Z_c.shape[1]
    if k == 0:
        return np.zeros((r, n_bl))
    stab = stability_region(ts)
    sel = region_selector(stab)
    S, T, alpha, beta, Q, _ = _ordered_qz(A_c, np.eye(k), sel)
    kg = int(sel(alpha, beta).sum())
    kb = k - kg
    if kb == 0:
        return np.zeros((r, n_bl))
    A22 = S[kg:, kg:] @ np.linalg.inv(T[kg:, kg:])
    B2 = (Q.T @ B_c)[kg:, :]
    try:
        X22 = stabilizing_riccati(A22, B2, np.zeros((kb, kb)), np.eye(r), None, ts)
        if ts == "continuous":
            F2 = -B2.T @ X22
        else:
            F2 = -np.linalg.solve(B2.T @ X22 @ B2 + np.eye(r), B2.T @ X22 @ A22)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise FactorizationError(f"pole relocation failed: {exc}") from None
    F_c = np.hstack([np.zeros((r, kg)), F2]) @ Q.T
    closed = np.linalg.eigvals(A_c + B_c @ F_c)
    for z in closed:
        if classify_eigenvalue(z, 1.0, stab) == "bad":
            raise FactorizationError(
                f"stabilizing feedback left the pole {z} outside the target region"
            )
    return F_c @ Z_c.T
