"""Orthogonal reduction of matrix pencils to Kronecker-like forms.

Two reductions are provided. kronecker_like_form brings a general
pencil M - lambda*N to a block upper triangular form exposing its
right singular part, finite and infinite regular parts, and left
singular part. special_klf brings the system matrix pencil of a
descriptor realization to a form that isolates a basis of the range
space with eigenvalues confined to a chosen region.

All rank decisions inside one call share a single absolute threshold
derived from the norm of the input data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dss import system_pencil
from .exceptions import InputError, StructureError
from .numkernel import (
    DEFAULT_TOL,
    EIG_ATOL,
    ToleranceConfig,
    _matrix,
    _ordered_qz,
    col_compress,
    generalized_eigenvalues,
    is_infinite,
    null_basis,
    row_compress,
    svd,
    svd_rank_abs,
)

# -- eigenvalue regions ------------------------------------------------------

REGION_NONE = "none"
REGION_INSTABILITY = "finite-instability"
REGION_ALL_FINITE = "all-finite"


@dataclass(frozen=True)
class RegionPartition:
    """Disjoint partition of the closed complex plane into a good and a
    bad region, both symmetric about the real axis. kind selects the
    bad set: 'none' (empty), 'finite-instability' (the open instability
    region of the time domain ts, which only this kind reads) or
    'all-finite' (every finite point). The kind and ts also place the
    point at infinity (infinite_is_bad), so each partition has one
    spelling. A partition is frozen and hashable: special_klf keys the
    forms it keeps by it."""

    kind: str
    ts: str | None = None

    def __post_init__(self):
        if self.kind not in (REGION_NONE, REGION_INSTABILITY, REGION_ALL_FINITE):
            raise InputError(f"unknown region kind {self.kind!r}")
        if self.kind == REGION_INSTABILITY:
            if self.ts not in ("continuous", "discrete"):
                raise InputError("finite-instability region needs ts 'continuous' or 'discrete'")
        elif self.ts is not None:
            raise InputError(f"region kind {self.kind!r} takes no ts")

    @property
    def infinite_is_bad(self) -> bool:
        """Infinity is good for 'none', bad for 'all-finite', and for
        'finite-instability' bad in discrete time (the closed unit disc
        is good) and good in continuous time."""
        if self.kind == REGION_INSTABILITY:
            return self.ts == "discrete"
        return self.kind == REGION_ALL_FINITE


def region_none() -> RegionPartition:
    return RegionPartition(REGION_NONE)


def stability_region(ts: str) -> RegionPartition:
    """Bad set = open instability region of the time domain ts."""
    return RegionPartition(REGION_INSTABILITY, ts)


def all_finite_region() -> RegionPartition:
    return RegionPartition(REGION_ALL_FINITE)


def stability_gap(lam, ts: str) -> float:
    """Signed distance of lam from the stability boundary of the time
    domain ts, positive on the instability side: Re(lam) in continuous
    time, |lam| - 1 in discrete time."""
    return lam.real if ts == "continuous" else abs(lam) - 1.0


def on_stability_boundary(lam, ts: str) -> bool:
    """True when lam lies on the stability boundary of ts to within the
    fixed EIG_ATOL: |stability_gap(lam, ts)| <= EIG_ATOL * max(1, |lam|)."""
    return abs(stability_gap(lam, ts)) <= EIG_ATOL * max(1.0, abs(lam))


def classify_eigenvalue(alpha, beta, region: RegionPartition) -> str:
    """Classify a generalized eigenvalue given as an (alpha, beta) pair
    as 'good' or 'bad'. Points on the stability boundary
    (on_stability_boundary) classify as good: the good region is
    closed."""
    alpha = complex(np.asarray(alpha).item())
    beta = float(np.asarray(beta).item())
    if is_infinite(alpha, beta):
        return "bad" if region.infinite_is_bad else "good"
    if region.kind != REGION_INSTABILITY:
        return "bad" if region.kind == REGION_ALL_FINITE else "good"
    lam = alpha / beta
    if stability_gap(lam, region.ts) <= 0 or on_stability_boundary(lam, region.ts):
        return "good"
    return "bad"


def region_selector(region: RegionPartition):
    """select(alpha, beta) of numkernel._ordered_qz for region: the boolean
    array of the eigenvalues (alpha[i], beta[i]) classified 'good'."""
    return lambda alpha, beta: np.array(
        [classify_eigenvalue(a, b, region) == "good" for a, b in zip(alpha, beta)], dtype=bool
    )


# -- general Kronecker-like form ---------------------------------------------


def _stage_peel(M, N, thresh):
    """In-place staircase peeling. Repeatedly compresses the columns of
    the active window of N to push its kernel to the leading columns,
    then row-compresses the corresponding columns of M. Peeled strips
    carry the right singular and infinite structure; the residual
    window has a lambda part of full column rank. Returns orthogonal
    (Q, Z), the stair sizes [(s_k, tau_k)], and the residual origin."""
    m, n = M.shape
    Q = np.eye(m)
    Z = np.eye(n)
    stairs = []
    i0 = j0 = 0
    while n - j0 > 0:
        if m - i0 == 0:
            stairs.append((0, n - j0))
            j0 = n
            break
        Zk, keep = col_compress(N[i0:, j0:], thresh)
        tau = (n - j0) - keep
        if tau == 0:
            break
        M[:, j0:] = M[:, j0:] @ Zk
        N[:, j0:] = N[:, j0:] @ Zk
        Z[:, j0:] = Z[:, j0:] @ Zk
        Qk, s = row_compress(M[i0:, j0:j0 + tau], thresh)
        M[i0:, :] = Qk.T @ M[i0:, :]
        N[i0:, :] = Qk.T @ N[i0:, :]
        Q[:, i0:] = Q[:, i0:] @ Qk
        M[i0 + s:, j0:j0 + tau] = 0.0
        N[i0:, j0:j0 + tau] = 0.0
        stairs.append((s, tau))
        i0 += s
        j0 += tau
    return Q, Z, stairs, i0, j0


def _rot(M):
    return M[::-1, ::-1]


def _stage_split_trailing(M, N, thresh):
    """Peel the infinite and left singular structure to the trailing
    block by running the staircase peel on the rotated transpose.
    Returns (Q, Z, Mt, Nt, r1, c1) with Q.T (M - lambda N) Z block
    upper triangular and the leading r1 x c1 block holding the right
    singular and finite structure."""
    m, n = M.shape
    M2 = _rot(M.T).copy()
    N2 = _rot(N.T).copy()
    Q2, Z2, _, i2, j2 = _stage_peel(M2, N2, thresh)
    Qb = _rot(Z2).copy()
    Zb = _rot(Q2).copy()
    Mt = _rot(M2.T).copy()
    Nt = _rot(N2.T).copy()
    return Qb, Zb, Mt, Nt, m - j2, n - i2


def _indices_from_stairs(stairs):
    out = []
    for k, (s, tau) in enumerate(stairs):
        if tau < s:
            raise StructureError("inconsistent staircase ranks; adjust the tolerance")
        out.extend([k] * (tau - s))
    return tuple(sorted(out))


def _degrees_from_stairs(stairs):
    s_seq = [s for s, _ in stairs] + [0]
    out = []
    for k in range(len(stairs)):
        count = s_seq[k] - s_seq[k + 1]
        if count < 0:
            raise StructureError("inconsistent staircase ranks; adjust the tolerance")
        out.extend([k + 1] * count)
    return tuple(sorted(out))


@dataclass(frozen=True)
class KlfResult:
    """Block upper triangular pencil Q.T (A - lambda E) Z with diagonal
    blocks ordered [right singular | finite | infinite | left singular]
    and the structural invariants read off the staircase sizes.

    _klf_core computes every field except left_minimal_indices, which
    it leaves None: only kronecker_like_form reads the left structure,
    and it peels the trailing left singular block for it."""

    M: np.ndarray
    N: np.ndarray
    Q: np.ndarray
    Z: np.ndarray
    right_minimal_indices: tuple
    finite_eigenvalues: tuple
    infinite_divisor_degrees: tuple
    left_minimal_indices: tuple | None
    right_shape: tuple
    finite_size: int
    infinite_shape: tuple
    left_shape: tuple


def _klf_core(M0, N0, thresh) -> KlfResult:
    """Kronecker-like form of M0 - lambda*N0 with every rank decision
    against the absolute threshold thresh, in three staircase peels:
    the split of the infinite and left singular structure to the
    trailing block, the right singular peel of the leading block and
    the infinite peel of the trailing one, then the QZ eigenvalues of
    the finite block. The left minimal indices are not computed
    (None); kronecker_like_form adds them."""
    m, n = M0.shape
    Mw = M0.copy()
    Nw = N0.copy()
    Q1, Z1, Mw, Nw, r1, c1 = _stage_split_trailing(Mw, Nw, thresh)
    Q = Q1
    Z = Z1

    subM = Mw[:r1, :c1].copy()
    subN = Nw[:r1, :c1].copy()
    Q2, Z2, stairs_r, iR, jR = _stage_peel(subM, subN, thresh)
    Mw[:r1, :c1] = subM
    Nw[:r1, :c1] = subN
    Mw[:r1, c1:] = Q2.T @ Mw[:r1, c1:]
    Nw[:r1, c1:] = Q2.T @ Nw[:r1, c1:]
    Q[:, :r1] = Q[:, :r1] @ Q2
    Z[:, :c1] = Z[:, :c1] @ Z2

    subM = Mw[r1:, c1:].copy()
    subN = Nw[r1:, c1:].copy()
    Q3, Z3, stairs_i, iI, jI = _stage_peel(subM, subN, thresh)
    Mw[r1:, c1:] = subM
    Nw[r1:, c1:] = subN
    Mw[:r1, c1:] = Mw[:r1, c1:] @ Z3
    Nw[:r1, c1:] = Nw[:r1, c1:] @ Z3
    Q[:, r1:] = Q[:, r1:] @ Q3
    Z[:, c1:] = Z[:, c1:] @ Z3

    nF_r = r1 - iR
    nF_c = c1 - jR
    if nF_r != nF_c:
        raise StructureError(
            "rank decisions produced a non-square regular block; adjust the tolerance"
        )
    nF = nF_r
    finite = _finite_eigenvalues(Mw[iR:r1, jR:c1], Nw[iR:r1, jR:c1])

    return KlfResult(
        M=Mw,
        N=Nw,
        Q=Q,
        Z=Z,
        right_minimal_indices=_indices_from_stairs(stairs_r),
        finite_eigenvalues=tuple(finite),
        infinite_divisor_degrees=_degrees_from_stairs(stairs_i),
        left_minimal_indices=None,
        right_shape=(iR, jR),
        finite_size=nF,
        infinite_shape=(iI, jI),
        left_shape=(m - r1 - iI, n - c1 - jI),
    )


def _finite_eigenvalues(M, N):
    """QZ (alpha, beta) pairs of the regular block M - lambda*N that a
    rank decision split off as finite; an infinite one (is_infinite)
    means the decision leaked it: StructureError."""
    finite = generalized_eigenvalues(M, N)
    if any(is_infinite(a, b) for a, b in finite):
        raise StructureError(
            "regular split leaked an infinite eigenvalue into the finite block; "
            "adjust the tolerance"
        )
    return finite


def _left_minimal_indices(res: KlfResult, thresh) -> tuple:
    """Left minimal indices of the pencil reduced by res: the staircase
    peel of Van Dooren (1979) on the rotated transpose of its trailing
    left singular block."""
    m, n = res.M.shape
    mL, nL = res.left_shape
    ML = _rot(res.M[m - mL:, n - nL:].T).copy()
    NL = _rot(res.N[m - mL:, n - nL:].T).copy()
    return _indices_from_stairs(_stage_peel(ML, NL, thresh)[2])


def _pencil_threshold(M, N, tol: ToleranceConfig):
    """The one rank threshold of a reduction of M - lambda*N."""
    scale = svd(np.hstack([M, N]), compute_uv=False)[0] if M.size else 0.0
    return tol.rank_threshold(scale, max(M.shape))


def kronecker_like_form(A, E, tol: ToleranceConfig = DEFAULT_TOL) -> KlfResult:
    """Orthogonal reduction of the pencil A - lambda*E (any shape) to
    block upper triangular Kronecker-like form, returning the
    transformed pencil, the transformations, and the right minimal
    indices, finite eigenvalues, infinite elementary divisor degrees,
    and left minimal indices. _klf_core computes all but the left
    minimal indices, which this function peels from the trailing block.
    A and E are checked by _matrix: of one shape, with finite entries."""
    A = _matrix(A, "A")
    E = _matrix(E, "E", *A.shape)
    thresh = _pencil_threshold(A, E, tol)
    res = _klf_core(A, E, thresh)
    return replace(res, left_minimal_indices=_left_minimal_indices(res, thresh))


# -- range/coimage splitting form --------------------------------------------


@dataclass(frozen=True)
class SpecialKlf:
    """System matrix pencil of (A - lambda E, B, C, D) reduced by
    diag(U, I_p) S(lambda) Z to the block form

        [ M_11 - lambda N_11      *                *         *  ]
        [        0           A_bl - lambda E_bl   B_bl       *  ]
        [        0                0                0        B_n ]
        [        0               C_bl             D_bl       *  ]

    with row blocks of sizes [n_rg, n_bl, m_n, p] and column blocks of
    sizes [c1, n_bl, r, m_n], c1 = n_rg + m - r. N_11 has full row
    rank, E_bl and B_n are invertible, and the eigenvalues of the
    trailing system pencil built on the bl blocks lie in the bad
    region (plus any singular or infinite structure not movable into
    the leading block).

    bad_eigenvalues records the (alpha, beta) pairs of the finite
    eigenvalues that special_klf classified as bad, as it classified
    them. They are the finite zeros of the trailing system pencil, so
    of every range basis built on the bl blocks: feedback does not move
    them."""

    M: np.ndarray
    N: np.ndarray
    U: np.ndarray
    Z: np.ndarray
    n: int
    m: int
    p: int
    n_rg: int
    n_bl: int
    r: int
    m_n: int
    ts: str
    bad_eigenvalues: tuple

    @property
    def c1(self) -> int:
        return self.n_rg + self.m - self.r

    @property
    def A_bl(self):
        return self.M[self.n_rg: self.n_rg + self.n_bl, self.c1: self.c1 + self.n_bl]

    @property
    def E_bl(self):
        return self.N[self.n_rg: self.n_rg + self.n_bl, self.c1: self.c1 + self.n_bl]

    @property
    def B_bl(self):
        return self.M[self.n_rg: self.n_rg + self.n_bl, self.c1 + self.n_bl: self.c1 + self.n_bl + self.r]

    @property
    def C_bl(self):
        return self.M[self.n_rg + self.n_bl + self.m_n:, self.c1: self.c1 + self.n_bl]

    @property
    def D_bl(self):
        return self.M[self.n_rg + self.n_bl + self.m_n:, self.c1 + self.n_bl: self.c1 + self.n_bl + self.r]

    @property
    def B_n(self):
        rows = slice(self.n_rg + self.n_bl, self.n_rg + self.n_bl + self.m_n)
        return self.M[rows, self.c1 + self.n_bl + self.r:]


def _finite_eigen_points(sys):
    """The finite eigenvalues of A - lambda*E, from one QZ."""
    pairs = generalized_eigenvalues(sys.A, sys.e_matrix)
    return [a / b for a, b in pairs if not is_infinite(a, b)]


def _check_bad_stabilizable(sys, region, thresh, eigenvalues):
    """Refuse a realization that is not stabilizable at a bad finite
    eigenvalue of A - lambda*E: one at which [A - lambda*E, B] loses
    rank (the PBH test). eigenvalues are the finite eigenvalues of
    (A, E), as the caller has them from a QZ of that pencil.

    [A - conj(lambda) E, B] is the conjugate of [A - lambda E, B] and
    has the same rank, so a conjugate pair (or a repeated value) is
    tested once, at the first of its values the QZ lists, the one with
    positive imaginary part; at a real lambda the matrix is real."""
    Emat = sys.e_matrix
    tested = set()
    for lam in eigenvalues:
        if classify_eigenvalue(lam, 1.0, region) == "good":
            continue
        pair = complex(lam.real, abs(lam.imag))
        if pair in tested:
            continue
        tested.add(pair)
        shifted = sys.A - (lam if lam.imag else lam.real) * Emat
        if svd_rank_abs(np.hstack([shifted, sys.B]), thresh) < sys.n:
            raise StructureError(
                f"realization is not stabilizable: [A - lambda E, B] loses rank at "
                f"the bad eigenvalue {lam}"
            )


def _set_block(X, index, value=0.0) -> float:
    """Set X[index] to value and return the Frobenius norm of the change."""
    change = np.linalg.norm(X[index] - value)
    X[index] = value
    return change


def special_klf(sys, region: RegionPartition, tol: ToleranceConfig = DEFAULT_TOL) -> SpecialKlf:
    """Reduce the system matrix pencil of sys to the range/coimage
    splitting form for the given region. Requires the realization to
    be stabilizable with respect to the bad region (including at
    infinity). Every block the reduction sets goes through _set_block:
    up to roundoff the form is orthogonally equivalent to a pencil
    within the sum of the changes (Van Dooren 1979), and a sum above
    the bound ToleranceConfig names is refused.

    The form depends only on the read-only realization, the region and
    tol, so it is kept on sys under ("splitting", region, tol), with M,
    N, U and Z made read-only: a later call returns the same object. A
    refusal is not kept (the next call raises it again)."""
    key = ("splitting", region, tol)
    if key in sys._kept:
        return sys._kept[key]
    n, m, p = sys.n, sys.m, sys.p
    Ms, Ns = system_pencil(sys)
    thresh = _pencil_threshold(Ms, Ns, tol)
    bound = max(1e4 * thresh, 1e-10 * max(np.linalg.norm(Ms), np.linalg.norm(Ns), 1.0))
    # stabilizable at infinity; the identity E (E None) is never rank-decided
    if sys.E is not None and svd_rank_abs(np.hstack([sys.E, sys.B]), thresh) < n:
        raise StructureError("realization is not stabilizable at infinity: [E B] is row rank deficient")
    # no finite eigenvalue classifies as bad for REGION_NONE: no QZ
    if region.kind != REGION_NONE:
        _check_bad_stabilizable(sys, region, thresh, _finite_eigen_points(sys))

    discarded = {}
    Q_tot = np.eye(n)
    Z_tot = np.eye(n + m)

    # isolate an invertible constant block in the trailing columns:
    # rows in the left kernel of E carry no lambda part anywhere, and
    # stabilizability at infinity makes their constant part full rank;
    # the identity E has none
    U_E, r_e = (None, n) if sys.E is None else row_compress(sys.E, thresh)
    m_n = n - r_e
    c_dyn = n + m - m_n
    if m_n:
        Ms[:n, :] = U_E.T @ Ms[:n, :]
        Ns[:n, :] = U_E.T @ Ns[:n, :]
        Q_tot = Q_tot @ U_E
        discarded["E's left-kernel rows, N"] = _set_block(Ns, np.s_[r_e:n, :])
        Zk, rk = col_compress(Ms[r_e:n, :], thresh)
        if rk < m_n:
            raise StructureError(
                "realization is not stabilizable at infinity: [E B] is row rank deficient"
            )
        Ms[:, :] = Ms @ Zk
        Ns[:, :] = Ns @ Zk
        Z_tot = Z_tot @ Zk
        discarded["E's left-kernel rows, M"] = _set_block(Ms, np.s_[r_e:n, :c_dyn])

    # split the kernel of the output rows and reduce the restricted
    # dynamic pencil, whose right singular and good finite structure
    # spans the leading columns
    K = null_basis(Ms[n:, :c_dyn], thresh)
    M_P = Ms[:r_e, :c_dyn] @ K
    N_P = Ns[:r_e, :c_dyn] @ K
    res = _klf_core(M_P, N_P, thresh)
    # fresh arrays of _klf_core's own, reordered in place below
    M_Pt, N_Pt, Q_P, Z_P = res.M, res.N, res.Q, res.Z
    iR, jR = res.right_shape
    nF = res.finite_size
    iI, jI = res.infinite_shape
    if iI != jI:
        raise StructureError(
            "rank decisions produced a non-square infinite block; adjust the tolerance"
        )
    nreg = nF + iI

    classes = [classify_eigenvalue(a, b, region) for a, b in res.finite_eigenvalues]
    bad = tuple(ab for ab, cls in zip(res.finite_eigenvalues, classes) if cls == "bad")
    n_fg = classes.count("good")
    n_good = n_fg + (0 if region.infinite_is_bad else iI)
    if 0 < n_good < nreg:
        # move the good part of the whole regular block (finite and
        # infinite together) into the leading positions
        win_r = slice(iR, iR + nreg)
        win_c = slice(jR, jR + nreg)
        Q, Z = _ordered_qz(M_Pt[win_r, win_c], N_Pt[win_r, win_c], region_selector(region))[4:]
        M_Pt[win_r, jR:] = Q.T @ M_Pt[win_r, jR:]
        N_Pt[win_r, jR:] = Q.T @ N_Pt[win_r, jR:]
        M_Pt[:, win_c] = M_Pt[:, win_c] @ Z
        N_Pt[:, win_c] = N_Pt[:, win_c] @ Z
        Q_P[:, win_r] = Q_P[:, win_r] @ Q
        Z_P[:, win_c] = Z_P[:, win_c] @ Z

    n_rg = iR + n_good
    c1 = jR + n_good
    r = n_rg + m - c1
    if r < 0 or r > min(p, m):
        raise StructureError(
            "rank decisions produced an inconsistent range dimension; adjust the tolerance"
        )
    n_bl = r_e - n_rg

    # the leading columns carry the right singular and good regular
    # structure; the input columns must annihilate the lambda part of
    # the trailing rows so the block input matrix stays constant
    V1 = K @ Z_P[:, :c1]
    Erows = Q_P[:, n_rg:].T @ Ns[:r_e, :c_dyn]
    Z3 = null_basis(np.vstack([Erows, V1.T]), thresh)
    if Z3.shape[1] != r:
        raise StructureError(
            "trailing block lambda part is not of full row rank; adjust the tolerance"
        )
    Z2 = null_basis(np.vstack([V1.T, Z3.T]), thresh)
    if Z2.shape[1] != n_bl:
        raise StructureError(
            "kernel completion lost dimensions; adjust the tolerance"
        )
    if r_e:
        Ms[:r_e, :] = Q_P.T @ Ms[:r_e, :]
        Ns[:r_e, :] = Q_P.T @ Ns[:r_e, :]
        Q_tot[:, :r_e] = Q_tot[:, :r_e] @ Q_P
    Z_dyn = np.hstack([V1, Z2, Z3])
    Ms[:, :c_dyn] = Ms[:, :c_dyn] @ Z_dyn
    Ns[:, :c_dyn] = Ns[:, :c_dyn] @ Z_dyn
    Z_tot[:, :c_dyn] = Z_tot[:, :c_dyn] @ Z_dyn
    # the leading columns take _klf_core's form; the blocks below it and
    # the lambda part of the trailing rows on the input columns vanish
    discarded["leading columns, M"] = _set_block(Ms, np.s_[:n_rg, :c1], M_Pt[:n_rg, :c1])
    discarded["leading columns, N"] = _set_block(Ns, np.s_[:n_rg, :c1], N_Pt[:n_rg, :c1])
    discarded["trailing rows on the leading columns, M"] = _set_block(Ms, np.s_[n_rg:r_e, :c1])
    discarded["trailing rows on the leading columns, N"] = _set_block(Ns, np.s_[n_rg:r_e, :c1])
    discarded["output rows on the leading columns, M"] = _set_block(Ms, np.s_[n:, :c1])
    discarded["trailing rows on the input columns, N"] = _set_block(Ns, np.s_[n_rg:r_e, c1 + n_bl:c_dyn])
    if n_bl and svd_rank_abs(Ns[n_rg:r_e, c1:c1 + n_bl], thresh) < n_bl:
        raise StructureError(
            "trailing block lambda part is not of full row rank; adjust the tolerance"
        )
    total = sum(discarded.values())
    if total > bound:
        worst = max(discarded, key=discarded.get)
        raise StructureError(
            f"splitting form discards {total:.3g}, above its bound {bound:.3g}; largest block: {worst}, "
            f"norm {discarded[worst]:.3g} against the rank threshold {thresh:.3g}; adjust the tolerance"
        )

    for X in (Ms, Ns, Q_tot, Z_tot):
        X.setflags(write=False)
    sys._kept[key] = SpecialKlf(
        M=Ms,
        N=Ns,
        U=Q_tot.T,
        Z=Z_tot,
        n=n,
        m=m,
        p=p,
        n_rg=n_rg,
        n_bl=n_bl,
        r=r,
        m_n=m_n,
        ts=sys.ts,
        bad_eigenvalues=bad,
    )
    return sys._kept[key]

