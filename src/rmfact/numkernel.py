"""Dense numerical kernels: the LAPACK SVD, RQ and QZ bindings,
rank-revealing decompositions, an exact power-of-2 row scaling, the
controllability staircase and the ordered generalized Schur (QZ)
decomposition.

Every reduction in this package funnels its rank decisions through the
helpers here so that a single tolerance policy governs the whole
computation. `svd` (gesdd), `rq` (gerqf, orgrq) and
`generalized_eigenvalues` (gges) call LAPACK directly, and no other
module calls an SVD, RQ or QZ routine; `svd` and `rq` pass the arguments
and return the results of their scipy.linalg counterparts, which spend
more time wrapping the call than LAPACK spends on the small matrices.
"""

from __future__ import annotations

import functools
import math
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
        if not all(math.isfinite(v) and v >= 0 for v in (self.rank_rtol, self.eig_atol, self.boundary_offset)):
            raise InputError("tolerance fields must be finite and nonnegative")

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


def rq(M):
    """Full RQ factorization (R, Q) of a float64 or complex128 matrix
    by LAPACK gerqf and orgrq/ungrq: M = R @ Q with Q square orthogonal
    and R upper trapezoidal. Bit-identical to scipy.linalg.rq(M): the
    same routines, workspace queries and empty-input result."""
    _require_finite(M)
    m, n = M.shape
    if M.size == 0:
        return np.empty_like(M), np.eye(n, dtype=M.dtype)
    gerqf, orgrq = get_lapack_funcs(("gerqf", "orgrq"), (M,))
    rqf, tau = _lapack_call(gerqf, "gerqf", M, overwrite_a=False)
    R = np.where(_upper_trapezoid(m, n), rqf, 0)
    if n < m:
        head = rqf[-n:]
    else:
        head = np.empty((n, n), dtype=rqf.dtype)
        head[-m:] = rqf
    Q, = _lapack_call(orgrq, "orgrq", head, tau, overwrite_a=1)
    return R, Q


@functools.lru_cache(maxsize=None)
def _upper_trapezoid(m: int, n: int):
    """Read-only mask of np.triu(M, n - m) for an m x n M: np.where with
    the shared mask is several times faster on small matrices."""
    return np.broadcast_to(np.arange(n) >= np.arange(m)[:, None] + (n - m), (m, n))


def _lapack_call(f, name, *args, **kwargs):
    """f(*args, **kwargs) at the optimal workspace from a workspace query,
    without the trailing (work, info) results; info < 0 raises."""
    work = f(*args, lwork=-1, **kwargs)[-2]
    out = f(*args, lwork=work[0].real.astype(np.int_), **kwargs)
    if out[-1] < 0:
        raise ValueError(f"illegal value in argument {-out[-1]} of {name}")
    return out[:-2]


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
    """(alpha, beta) pairs of a square pencil by LAPACK gges without
    Schur vectors, with beta normalized nonnegative. A failure of the QZ
    iteration raises LinAlgError."""
    A = _as_matrix(A, "A")
    E = _as_matrix(E, "E")
    if A.shape[0] == 0:
        return []
    gges, = get_lapack_funcs(("gges",), (A, E))
    _, _, _, alphar, alphai, beta, _, _, _, info = gges(
        lambda *_: 0, A, E, jobvsl=0, jobvsr=0, sort_t=0, overwrite_a=False, overwrite_b=False
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"QZ iteration failed: gges info {info}")
    return _eigenvalue_pairs(alphar + 1j * alphai, beta)


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


def thresholded_svd(M, thresh: float):
    """(U, sigma, V, rank) with M = U @ diag(sigma) @ V.T, rank the
    count of singular values above the absolute threshold thresh."""
    U, s, Vt = svd(M)
    return U, s, Vt.T, int(np.count_nonzero(s > thresh))


def svd_rank_abs(M, thresh: float) -> int:
    return int(np.count_nonzero(svd(M, compute_uv=False) > thresh))


def row_compress(M, thresh: float):
    """Orthogonal U with U.T @ M = [M1; 0], M1 full row rank on top.

    Returns (U, rank).
    """
    m = M.shape[0]
    if min(M.shape) == 0 or not M.any():
        return np.eye(m), 0
    U, _, _, rank = thresholded_svd(M, thresh)
    return U, rank


def col_compress(M, thresh: float, zeros_leading: bool = False):
    """Orthogonal Z compressing the columns of M.

    With zeros_leading=False, M @ Z = [M1, 0] with M1 full column rank;
    otherwise M @ Z = [0, M1]. Returns (Z, rank).
    """
    n = M.shape[1]
    if min(M.shape) == 0 or not M.any():
        return np.eye(n), 0
    _, _, V, rank = thresholded_svd(M, thresh)
    if zeros_leading:
        return np.hstack([V[:, rank:], V[:, :rank]]), rank
    return V, rank


def null_basis(M, thresh: float):
    """Orthonormal basis of the right null space of M (columns)."""
    M = np.atleast_2d(M)
    n = M.shape[1]
    if min(M.shape) == 0 or not M.any():
        return np.eye(n)
    _, _, V, rank = thresholded_svd(M, thresh)
    return V[:, rank:].copy()


def row_scaling(M):
    """Powers of 2 d bringing each nonzero row norm of M to within a
    factor 2 of the median one (the upper middle value), exponents
    rounded toward zero: a row already within a factor 2 keeps d = 1,
    and d[:, None] * M is exact."""
    r = np.linalg.norm(M, axis=1)
    nonzero = np.sort(r[r > 0])
    ratio = r / nonzero[nonzero.size // 2] if nonzero.size else r
    return 2.0 ** -np.trunc(np.log2(np.where(r > 0, ratio, 1.0)))


def controllability_staircase(A, E, B, thresh: float):
    """Orthogonal Q, Z and order k of the controllable part of
    (A - lambda*E, B), E None for the identity (then Z is Q): Q.T @ B
    and the leading k columns of Q.T @ (A - lambda*E) @ Z vanish below
    row k. The trailing block holds exactly the eigenvalues at which
    [A - lambda*E, B] loses rank: the uncontrollable finite ones, and for
    the swapped pair (E, A, B) the uncontrollable infinite ones. Each
    stage row-compresses its input block (B, then the block of A below
    the last stage) and restores the upper triangular trailing E by one
    RQ; the identity E takes the rotation on the columns instead."""
    n = A.shape[0]
    A = A.copy()
    E = None if E is None else E.copy()
    Q = np.eye(n)
    Z = Q if E is None else np.eye(n)
    block, k = B, 0
    while k < n:
        U, rho = row_compress(block, thresh)
        if rho == 0:
            break
        A[k:] = U.T @ A[k:]
        Q[:, k:] = Q[:, k:] @ U
        if E is None:
            A[:, k:] = A[:, k:] @ U
        else:
            E[k:, k:], W = rq(U.T @ E[k:, k:])
            E[:k, k:] = E[:k, k:] @ W.T
            A[:, k:] = A[:, k:] @ W.T
            Z[:, k:] = Z[:, k:] @ W.T
        block = A[k + rho:, k:k + rho]
        k += rho
    return Q, Z, k
