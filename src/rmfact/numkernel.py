"""Dense numerical kernels: the LAPACK SVD and LU bindings,
rank-revealing decompositions and the ordered generalized Schur (QZ)
decomposition.

Every reduction in this package funnels its rank decisions through the
helpers here so that a single tolerance policy governs the whole
computation. `svd`, `lu_factor` and `lu_solve` are the package's only
bindings of those LAPACK routines: every call site goes through them.
They call the compiled routines directly, with the arguments and
results of their scipy.linalg counterparts, which spend more time
wrapping the call than LAPACK spends on the small matrices here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import get_lapack_funcs

from .exceptions import InputError, StructureError

EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ToleranceConfig:
    """Tolerance policy shared by all reductions.

    rank_rtol: relative tolerance of every rank decision; 0 means
        automatic, which resolves to max(rows, cols) * machine_epsilon
        * sigma_max of the matrix being ranked.
    eig_atol: width of the stability boundary relative to max(1, |lam|)
        (klf.on_stability_boundary): eigenvalues on it classify as good,
        and nrcf and inner bases reject them as poles or zeros.
    boundary_offset: half-width of the exclusion strip around the
        good/bad region boundary; eigenvalues inside it are 'boundary'.

    Fixed rules: is_infinite decides infinite eigenvalues, noise_floor
    the roundoff level of data from a chain of orthogonal updates.
    """

    rank_rtol: float = 0.0
    eig_atol: float = 1e-9
    boundary_offset: float = 0.0

    def __post_init__(self):
        if self.rank_rtol < 0 or self.eig_atol < 0 or self.boundary_offset < 0:
            raise InputError("tolerance fields must be nonnegative")

    def resolve(self, sigma_max: float, shape) -> float:
        """Absolute rank threshold for a matrix of the given shape whose
        largest singular value is sigma_max."""
        if self.rank_rtol > 0:
            return self.rank_rtol * sigma_max
        return max(shape) * EPS * sigma_max


DEFAULT_TOL = ToleranceConfig()


def noise_floor(scale: float, k: int) -> float:
    """Roundoff level 100 * k * eps * scale of dimension-k data of norm
    scale that ends a chain of orthogonal products."""
    return 100 * k * EPS * scale


def staircase_threshold(tol: ToleranceConfig, scale: float, shape) -> float:
    """Absolute threshold of every rank decision in one staircase
    reduction: the resolved rank tolerance, floored at the noise floor."""
    return max(tol.resolve(scale, shape), noise_floor(scale, max(shape)))


def is_infinite(alpha, beta) -> bool:
    """True when the generalized eigenvalue (alpha, beta), beta of either
    sign, is infinite: |beta| <= 1e4 * eps * (|alpha| + |beta|)."""
    return abs(beta) <= 1e4 * EPS * (abs(alpha) + abs(beta))


def _as_matrix(M, name="matrix"):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.ndim != 2:
        raise InputError(f"{name} must be two-dimensional")
    if M.size and not np.isfinite(M).all():
        raise InputError(f"{name} contains non-finite entries")
    return M


def _require_finite(M):
    if not np.isfinite(M).all():
        raise ValueError("array must not contain infs or NaNs")


def svd(M, compute_uv: bool = True):
    """Full SVD of a float64 or complex128 matrix by LAPACK gesdd:
    (U, s, Vh) with M = U @ diag(s) @ Vh, or s alone.

    Bit-identical to scipy.linalg.svd(M, compute_uv=compute_uv): the
    same routine, arguments and workspace size, and identity U, Vh for
    an empty M. Non-finite entries raise ValueError, and a failure to
    converge LinAlgError.
    """
    _require_finite(M)
    if M.size == 0:
        s = np.zeros(0)
        if not compute_uv:
            return s
        return np.eye(M.shape[0], dtype=M.dtype), s, np.eye(M.shape[1], dtype=M.dtype)
    gesdd, gesdd_lwork = get_lapack_funcs(("gesdd", "gesdd_lwork"), (M,), ilp64="preferred")
    work, info = gesdd_lwork(M.shape[0], M.shape[1], compute_uv=compute_uv, full_matrices=True)
    if info != 0:
        raise ValueError(f"gesdd workspace query failed: {info}")
    U, s, Vh, info = gesdd(
        M, compute_uv=compute_uv, lwork=int(work.real), full_matrices=True, overwrite_a=False
    )
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gesdd")
    return (U, s, Vh) if compute_uv else s


def lu_factor(M):
    """Pivoted LU factorization (lu, piv) of a nonempty square matrix by
    LAPACK getrf, bit-identical to scipy.linalg.lu_factor(M). Non-finite
    entries raise ValueError; an exactly zero pivot warns LinAlgWarning."""
    _require_finite(M)
    getrf, = get_lapack_funcs(("getrf",), (M,))
    lu, piv, info = getrf(M, overwrite_a=False)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    if info > 0:
        warnings.warn(
            f"Diagonal number {info} is exactly zero. Singular matrix.",
            scipy.linalg.LinAlgWarning,
            stacklevel=2,
        )
    return lu, piv


def lu_solve(lu_and_piv, b):
    """Solution x of M x = b from lu_factor(M) by LAPACK getrs,
    bit-identical to scipy.linalg.lu_solve(lu_and_piv, b)."""
    lu, piv = lu_and_piv
    _require_finite(b)
    if lu.shape[0] != b.shape[0]:
        raise ValueError(f"Shapes of lu {lu.shape} and b {b.shape} are incompatible")
    getrs, = get_lapack_funcs(("getrs",), (lu, b))
    x, info = getrs(lu, piv, b, trans=0, overwrite_b=False)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    return x


def rank_revealing_svd(M, tol: ToleranceConfig | None = None):
    """Full SVD with a numerical rank decision.

    Returns (U, sigma, V, rank) with M = U @ diag(sigma) @ V.T padded
    to full orthogonal U, V. sigma is descending; rank counts the
    singular values above the resolved tolerance.
    """
    tol = tol or DEFAULT_TOL
    M = _as_matrix(M)
    if min(M.shape) == 0:
        return np.eye(M.shape[0]), np.zeros(0), np.eye(M.shape[1]), 0
    U, s, Vt = svd(M)
    thresh = tol.resolve(s[0] if s.size else 0.0, M.shape)
    rank = int(np.count_nonzero(s > thresh))
    return U, s, Vt.T, rank


def pivoted_qr(M, tol: ToleranceConfig | None = None):
    """QR factorization with column pivoting and a rank decision.

    Returns (Q, R, perm, rank) with Q @ R = M[:, perm]; the diagonal
    of R is nonincreasing in magnitude.
    """
    tol = tol or DEFAULT_TOL
    M = _as_matrix(M)
    if min(M.shape) == 0:
        return np.eye(M.shape[0]), np.zeros(M.shape), np.arange(M.shape[1]), 0
    Q, R, perm = scipy.linalg.qr(M, pivoting=True)
    diag = np.abs(np.diag(R))
    scale = diag[0] if diag.size else 0.0
    thresh = tol.resolve(scale, M.shape)
    rank = int(np.count_nonzero(diag > thresh))
    return Q, R, perm, rank


@dataclass(frozen=True)
class OrderedSchurResult:
    """Result of the ordered generalized Schur decomposition.

    S is quasi-upper-triangular, T upper-triangular, and the orthogonal
    Q, Z satisfy Q.T @ A @ Z = S, Q.T @ E @ Z = T. eigenvalues holds
    (alpha, beta) pairs with beta >= 0; is_infinite picks out the
    infinite eigenvalues.
    """

    S: np.ndarray
    T: np.ndarray
    Q: np.ndarray
    Z: np.ndarray
    eigenvalues: tuple


def probe_pencil_regular(A, E):
    """Return True when A - lambda*E is numerically regular.

    The pencil is probed at eight pseudo-random shifts; it is declared
    singular only when every probe is rank-deficient.
    """
    A = _as_matrix(A, "A")
    E = _as_matrix(E, "E")
    n = A.shape[0]
    if n == 0:
        return True
    scale = max(np.linalg.norm(A, "fro"), np.linalg.norm(E, "fro"), 1.0)
    rng = np.random.default_rng(12345)
    for _ in range(8):
        lam = rng.standard_normal() + 1j * rng.standard_normal()
        lam *= 1.0 + rng.random()
        smin = svd(A - lam * E, compute_uv=False)[-1]
        if smin > noise_floor(scale, n):
            return True
    return False


def ordered_generalized_schur(A, E, select) -> OrderedSchurResult:
    """Ordered real generalized Schur decomposition of a regular pencil.

    select(alpha, beta) marks the eigenvalues that must occupy the
    leading diagonal block; it is called once per eigenvalue with a
    complex alpha and a real beta and returns a truth value.
    """
    A = _as_matrix(A, "A")
    E = _as_matrix(E, "E")
    if A.shape != E.shape or A.shape[0] != A.shape[1]:
        raise InputError("A and E must be square with equal shape")
    n = A.shape[0]
    if n == 0:
        I = np.eye(0)
        return OrderedSchurResult(I, I, I, I, ())
    if not probe_pencil_regular(A, E):
        raise StructureError(
            "pencil A - lambda*E is numerically singular at every probe shift; "
            "use the Kronecker-like form to separate its singular structure"
        )

    def sort_fn(alpha, beta):
        return np.array([bool(select(a, b)) for a, b in zip(alpha, beta)], dtype=bool)

    S, T, alpha, beta, Q, Z = scipy.linalg.ordqz(A, E, sort=sort_fn, output="real")
    return OrderedSchurResult(S, T, Q, Z, tuple(_eigenvalue_pairs(alpha, beta)))


def generalized_eigenvalues(A, E):
    """(alpha, beta) pairs of a square pencil via the QZ algorithm,
    with beta normalized nonnegative."""
    A = _as_matrix(A, "A")
    E = _as_matrix(E, "E")
    n = A.shape[0]
    if n == 0:
        return []
    _, _, alpha, beta, _, _ = scipy.linalg.ordqz(A, E, sort=lambda a, b: np.zeros_like(np.asarray(a), dtype=bool), output="real")
    return _eigenvalue_pairs(alpha, beta)


def _eigenvalue_pairs(alpha, beta):
    """(alpha, beta) pairs from QZ output with beta made nonnegative."""
    return [
        (complex(-a), float(-b)) if b < 0 else (complex(a), float(b))
        for a, b in zip(alpha, beta)
    ]


# -- internal compression helpers -------------------------------------------
#
# These are the workhorses of the staircase reductions. They operate with an
# absolute threshold (already resolved against the relevant global scale) so
# that one tolerance governs a whole pencil reduction.


def svd_rank_abs(M, thresh: float) -> int:
    if min(M.shape) == 0:
        return 0
    s = svd(M, compute_uv=False)
    return int(np.count_nonzero(s > thresh))


def row_compress(M, thresh: float):
    """Orthogonal U with U.T @ M = [M1; 0], M1 full row rank on top.

    Returns (U, rank).
    """
    m = M.shape[0]
    if min(M.shape) == 0 or not M.any():
        return np.eye(m), 0
    U, s, _ = svd(M)
    rank = int(np.count_nonzero(s > thresh))
    return U, rank


def col_compress(M, thresh: float, zeros_leading: bool = False):
    """Orthogonal Z compressing the columns of M.

    With zeros_leading=False, M @ Z = [M1, 0] with M1 full column rank;
    otherwise M @ Z = [0, M1]. Returns (Z, rank).
    """
    n = M.shape[1]
    if min(M.shape) == 0 or not M.any():
        return np.eye(n), 0
    _, s, Vt = svd(M)
    rank = int(np.count_nonzero(s > thresh))
    V = Vt.T
    if zeros_leading:
        Z = np.hstack([V[:, rank:], V[:, :rank]])
    else:
        Z = V
    return Z, rank


def null_basis(M, thresh: float):
    """Orthonormal basis of the right null space of M (columns)."""
    M = np.atleast_2d(M)
    n = M.shape[1]
    if min(M.shape) == 0 or not M.any():
        return np.eye(n)
    _, s, Vt = svd(M)
    rank = int(np.count_nonzero(s > thresh))
    return Vt[rank:].T.copy()


def orth_basis(M, thresh: float):
    """Orthonormal basis of the column space of M."""
    M = np.atleast_2d(M)
    if min(M.shape) == 0 or not M.any():
        return np.zeros((M.shape[0], 0))
    U, s, _ = svd(M)
    rank = int(np.count_nonzero(s > thresh))
    return U[:, :rank].copy()


def krylov_basis(M, B, thresh: float):
    """Orthonormal basis of the smallest M-invariant subspace containing
    range(B), grown by Krylov steps until its dimension stops growing."""
    n = M.shape[0]
    Q = orth_basis(B, thresh)
    while Q.shape[1] < n:
        grown = orth_basis(np.hstack([Q, M @ Q]), thresh)
        if grown.shape[1] == Q.shape[1]:
            break
        Q = grown
    return Q
