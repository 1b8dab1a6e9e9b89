"""Rational bases of the range space of a rational matrix.

A range basis of a p x m rational matrix G of normal rank r is a
p x r rational matrix R of full column rank whose columns span the
same rational column space. R is read off the trailing diagonal
blocks of the splitting form of the system matrix pencil; a state
feedback F and an invertible output weighting W refine the basis
(pole relocation, inner normalization) without changing the span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dss import DescriptorSystem, make_dss, zeros
from .exceptions import FactorizationError, InputError
from .klf import (
    RegionPartition,
    SpecialKlf,
    all_finite_region,
    classify_eigenvalue,
    on_stability_boundary,
    region_none,
    special_klf,
    stability_region,
)
from .numkernel import (
    DEFAULT_TOL,
    ToleranceConfig,
    krylov_basis,
    lu_factor,
    lu_solve,
    noise_floor,
    ordered_generalized_schur,
    svd,
)

ZEROS_NONE = "none"
ZEROS_BAD = "bad"
ZEROS_ALL = "all"


@dataclass(frozen=True)
class RangeOptions:
    """Choices shaping the basis: which zeros of G the basis retains
    (none, only bad-region zeros, or all), whether its poles are moved
    into the stability region, and whether F and W enforce R~ R = I
    (inner implies stabilization)."""

    zeros_policy: str = ZEROS_BAD
    stabilize: bool = False
    inner: bool = False

    def __post_init__(self):
        if self.zeros_policy not in (ZEROS_NONE, ZEROS_BAD, ZEROS_ALL):
            raise InputError(
                f"zeros_policy must be one of 'none', 'bad', 'all', got {self.zeros_policy!r}"
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


def region_for_policy(policy: str, ts: str) -> RegionPartition:
    """Region whose bad set holds the zeros the basis must retain."""
    if policy == ZEROS_NONE:
        return region_none(infinite_is_bad=False)
    if policy == ZEROS_BAD:
        return stability_region(ts)
    if policy == ZEROS_ALL:
        return all_finite_region()
    raise InputError(f"unknown zeros policy {policy!r}")


def range_basis(
    sys: DescriptorSystem,
    region: RegionPartition | None = None,
    opts: RangeOptions | None = None,
    tol: ToleranceConfig | None = None,
) -> RangeResult:
    """Compute a full-column-rank basis R of the range space of sys.

    region defaults to the one implied by opts.zeros_policy. A
    realization with non-stabilizable but cancelling modes is accepted
    once made irreducible (dss.irreducible_realization).
    """
    tol = tol or DEFAULT_TOL
    opts = opts or RangeOptions()
    if region is None:
        region = region_for_policy(opts.zeros_policy, sys.ts)
    sk = special_klf(sys, region, tol)
    A_bl = np.array(sk.A_bl)
    E_bl = np.array(sk.E_bl)
    B_bl = np.array(sk.B_bl)
    C_bl = np.array(sk.C_bl)
    D_bl = np.array(sk.D_bl)
    r, n_bl = sk.r, sk.n_bl
    if opts.inner:
        F, W = inner_enforcing_gains(sk, tol)
    elif opts.stabilize:
        F = _stabilizing_gains(A_bl, E_bl, B_bl, sys.ts, tol)
        W = np.eye(r)
    else:
        F = np.zeros((r, n_bl))
        W = np.eye(r)
    R = make_dss(
        A_bl + B_bl @ F,
        E_bl if n_bl else None,
        B_bl @ W,
        C_bl + D_bl @ F,
        D_bl @ W,
        sys.ts,
    )
    return RangeResult(R=R, F=F, W=W, sklf=sk)


def cofactor(sys: DescriptorSystem, rr: RangeResult, tol: ToleranceConfig | None = None) -> DescriptorSystem:
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
        CD = scipy.linalg.solve(rr.W, block) @ sk.Z.T
    Ct = CD[:, : sys.n]
    Dt = CD[:, sys.n:]
    return make_dss(sys.A, sys.E, sys.B, Ct, Dt, sys.ts)


# -- gain computations --------------------------------------------------------


def _inv_sqrt_sym(H):
    w, V = np.linalg.eigh(0.5 * (H + H.T))
    if H.shape[0] and w[0] <= noise_floor(max(w[-1], 1.0), H.shape[0]):
        raise FactorizationError(
            "inner normalization failed: the weighting Gramian is numerically singular"
        )
    return V @ np.diag(1.0 / np.sqrt(w)) @ V.T if H.shape[0] else np.eye(0)


def _explicit_pair(A_bl, E_bl, B_bl, tol):
    lu = lu_factor(E_bl)
    Abar = lu_solve(lu, A_bl)
    Bbar = lu_solve(lu, B_bl)
    scale = max(np.linalg.norm(Abar, "fro"), np.linalg.norm(Bbar, "fro"), 1.0)
    return Abar, Bbar, krylov_basis(Abar, Bbar, tol.resolve(scale, Abar.shape))


def inner_enforcing_gains(blocks: SpecialKlf, tol: ToleranceConfig | None = None):
    """Feedback F and weighting W making the basis inner (R~ R = I and
    all poles stable). Solves the Riccati equation of the explicit
    pair obtained with the invertible E_bl, on the controllable part
    only, and pads the feedback with zeros on uncontrollable states."""
    tol = tol or DEFAULT_TOL
    ts = blocks.ts
    r, n_bl = blocks.r, blocks.n_bl
    D = np.array(blocks.D_bl)
    if r == 0:
        return np.zeros((0, n_bl)), np.eye(0)
    if ts == "continuous":
        # a continuous inner basis needs full column rank at infinity;
        # in discrete time a singular feedthrough is fine as long as
        # the Riccati feedthrough term stays invertible
        sD = svd(D, compute_uv=False) if D.size else np.zeros(1)
        if D.shape[0] < r or sD[-1] <= noise_floor(max(sD[0], 1.0), max(D.shape)):
            raise FactorizationError(
                "inner basis does not exist: the candidate feedthrough is column rank deficient"
            )
    if n_bl == 0:
        return np.zeros((r, 0)), _inv_sqrt_sym(D.T @ D)
    A_bl = np.array(blocks.A_bl)
    E_bl = np.array(blocks.E_bl)
    B_bl = np.array(blocks.B_bl)
    C_bl = np.array(blocks.C_bl)
    # an inner basis exists only if the zeros carried by the trailing
    # blocks stay off the stability boundary: feedback cannot move
    # zeros, and R~ R = I fails at a boundary zero
    for lam in zeros(make_dss(A_bl, E_bl, B_bl, C_bl, D, ts), tol).finite:
        if on_stability_boundary(lam, ts, tol):
            raise FactorizationError(
                "inner basis does not exist: a zero of the basis lies on the "
                f"stability boundary (at {lam:.6g})"
            )
    Abar, Bbar, Q1 = _explicit_pair(A_bl, E_bl, B_bl, tol)
    k = Q1.shape[1]
    if k == 0:
        return np.zeros((r, n_bl)), _inv_sqrt_sym(D.T @ D)
    A_c = Q1.T @ Abar @ Q1
    B_c = Q1.T @ Bbar
    C1 = C_bl @ Q1
    Qc = C1.T @ C1
    Rc = D.T @ D
    Sc = C1.T @ D
    try:
        if ts == "continuous":
            X = scipy.linalg.solve_continuous_are(A_c, B_c, Qc, Rc, s=Sc)
            F_c = -np.linalg.solve(Rc, B_c.T @ X + Sc.T)
            W = _inv_sqrt_sym(Rc)
        else:
            X = scipy.linalg.solve_discrete_are(A_c, B_c, Qc, Rc, s=Sc)
            H = B_c.T @ X @ B_c + Rc
            F_c = -np.linalg.solve(H, B_c.T @ X @ A_c + Sc.T)
            W = _inv_sqrt_sym(H)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError) as exc:
        raise FactorizationError(f"inner gain computation failed: {exc}") from None
    F = F_c @ Q1.T
    return F, W


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
    Abar, Bbar, Q1 = _explicit_pair(A_bl, E_bl, B_bl, tol)
    k = Q1.shape[1]
    if k == 0:
        return np.zeros((r, n_bl))
    A_c = Q1.T @ Abar @ Q1
    B_c = Q1.T @ Bbar
    stab = stability_region(ts)
    sel = lambda a, b: classify_eigenvalue(a, b, stab, tol) != "bad"
    sch = ordered_generalized_schur(A_c, np.eye(k), sel)
    kg = sum(1 for a, b in sch.eigenvalues if classify_eigenvalue(a, b, stab, tol) != "bad")
    kb = k - kg
    if kb == 0:
        return np.zeros((r, n_bl))
    S22 = sch.S[kg:, kg:]
    T22 = sch.T[kg:, kg:]
    A22 = S22 @ np.linalg.inv(T22)
    B2 = (sch.Q.T @ B_c)[kg:, :]
    try:
        if ts == "continuous":
            X22 = scipy.linalg.solve_continuous_are(A22, B2, np.zeros((kb, kb)), np.eye(r))
            F2 = -B2.T @ X22
        else:
            X22 = scipy.linalg.solve_discrete_are(A22, B2, np.zeros((kb, kb)), np.eye(r))
            F2 = -np.linalg.solve(B2.T @ X22 @ B2 + np.eye(r), B2.T @ X22 @ A22)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError) as exc:
        raise FactorizationError(f"pole relocation failed: {exc}") from None
    F_c = np.hstack([np.zeros((r, kg)), F2]) @ sch.Q.T
    closed = np.linalg.eigvals(A_c + B_c @ F_c)
    for z in closed:
        if classify_eigenvalue(z, 1.0, stab, tol) == "bad":
            raise FactorizationError(
                f"stabilizing feedback left the pole {z} outside the target region"
            )
    return F_c @ Q1.T
