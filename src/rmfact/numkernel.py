"""Dense numerical kernels: the LAPACK SVD, RQ and QZ bindings, the
thresholded rank decisions, an exact power-of-2 row scaling, the
controllability staircase, the ordered generalized Schur (QZ)
decomposition and the stabilizing Riccati solver.

Every reduction in this package funnels its rank decisions through the
helpers here so that a single tolerance policy governs the whole
computation. `svd` (gesdd), `rq` (gerqf, orgrq),
`generalized_eigenvalues` (gges), `_ordered_qz` (gges, tgsen) and
`stabilizing_riccati` (gebal, geqrf, orgqr, gges, tgsen, getrf, trtrs)
call LAPACK directly, and no other module calls an SVD, RQ, QZ or
Riccati routine; `dss` and `rangebasis` solve their small linear
systems with numpy.linalg.solve. One bind-once cache, _BOUND, keeps
each routine binding and each optimal workspace per argument shapes.

The kernels take checked, finite float64 (complex128 also for svd)
data and do not check it again. Outside data is checked where it
enters: by `_matrix`, the one cast-and-check helper, in make_dss and
kronecker_like_form, the only raw-array entry points; by io and the
CLI as they parse. dss._system scans each computed realization once,
and dss.evaluate refuses a point at which the pencil overflows. A
failed SVD or QZ iteration, or a failed QZ reordering, raises
KernelError, both a StructureError and a LinAlgError; the Riccati
solver raises LinAlgError when no stabilizing solution is found and
ValueError for a singular continuous-time R. Apart from
`generalized_eigenvalues`, each kernel makes the LAPACK calls of its
scipy.linalg counterpart (`stabilizing_riccati` leaves out the left
Schur vectors it does not read) and so, on valid data, returns its
results bit for bit; the tests use scipy as that oracle, not as the
contract for argument checks, warnings or messages.

The routines are the function objects of scipy's compiled wrapper
module `scipy.linalg._flapack` (and `_flapack_64` in an ILP64 build),
the ones scipy.linalg.lapack.get_lapack_funcs hands out. The module is
loaded from its file, found through the install path that
importlib.util.find_spec("scipy") reports: importing the scipy.linalg
package that holds it would load all of scipy.linalg and take about
half of a cold `rmfact` command's time, and even the scipy package's
own __init__ runs nothing the bindings need. `_flapack_64` is bound
where its extension file exists, which only an ILP64 build ships, and
is None elsewhere. Where `_flapack` cannot be found or loaded, both
come from scipy.linalg.lapack instead. Only this module imports scipy.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import InputError, StructureError

EPS = float(np.finfo(float).eps)


class KernelError(StructureError, np.linalg.LinAlgError):
    """A failed SVD or QZ iteration or QZ reordering; a LinAlgError too,
    for callers that catch numpy's."""


def _compiled(name: str):
    """scipy's compiled module scipy.linalg.<name>, loaded from its file
    under scipy's install path without running the scipy or scipy.linalg
    package's __init__, and registered under its full name so that a
    later import of scipy.linalg shares it; None where scipy ships no
    such file."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    scipy_spec = importlib.util.find_spec("scipy")
    paths = [os.path.join(p, "linalg") for p in scipy_spec.submodule_search_locations] if scipy_spec else []
    spec = importlib.machinery.PathFinder.find_spec(full, paths)
    if spec is None:
        return None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sys.modules.setdefault(full, module)


# the wrapper modules behind scipy.linalg.lapack, _flapack_64 only in an
# ILP64 build, which alone ships its file; a scipy whose _flapack file
# cannot be found or loaded serves both from scipy.linalg.lapack itself
try:
    _flapack, _flapack_64 = _compiled("_flapack"), _compiled("_flapack_64")
except ImportError:
    _flapack = None
if _flapack is None:
    from scipy.linalg.lapack import _flapack, _flapack_64


# the bind-once cache: routine tuples of _lapack and optimal workspaces of
# _kept_lwork, each kept on its first use
_BOUND = {}

# gesdd as scipy.linalg.svd binds it (ilp64="preferred")
_SVD_MODULE = _flapack_64 or _flapack


def _lapack(names, dtype, module=_flapack):
    """The compiled LAPACK routines `names` of module for a float64 or
    complex128 dtype: the objects get_lapack_funcs(names, dtype=dtype)
    returns, bound once (_BOUND). Only svd binds complex ones."""
    key = (names, dtype, module)
    routines = _BOUND.get(key)
    if routines is None:
        prefix = "z" if np.dtype(dtype).kind == "c" else "d"
        routines = _BOUND[key] = tuple(getattr(module, prefix + name) for name in names)
    return routines


def _kept_lwork(key, results):
    """Keep under key (the routine and the argument shapes and options
    LAPACK's answer depends on) the lwork that a workspace query's
    results, ending (work, info), give; kernels read it as
    _BOUND.get(key) or _kept_lwork(key, query), as lwork >= 1."""
    *_, work, info = results
    if info != 0:
        raise ValueError(f"workspace query failed: {info}")
    lwork = _BOUND[key] = int(np.ravel(work)[0].real)
    return lwork


@dataclass(frozen=True)
class ToleranceConfig:
    """The tolerance policy: one rule for what counts as zero.

    rank_rtol: relative tolerance of every rank decision, floored at the
        noise floor (0 = the floor).

    Rank decisions use rank_threshold(scale, k): klf._pencil_threshold,
    for every decision of a Kronecker-like or splitting form reduction
    (sigma_max([M N]), k = max(M.shape)); dss.controllable_bases (the
    largest Frobenius norm of the row-scaled A, E, B, k = n); the rank
    of E in dss._remove_nondynamic (max(||A||_F, ||E||_F), k = n); and
    dss.normal_rank (sigma_max(S(z)), k = max(S.shape)).

    Division guards use noise_floor(scale, k) and ignore rank_rtol: the
    A22 pivot block of dss._remove_nondynamic, the Gramian of
    rangebasis._inv_sqrt_sym, the feedthrough D whose D^T D
    rangebasis.inner_enforcing_gains inverts, and the feedback size that
    rangebasis._check_feedback bounds after every Riccati solve.
    A block above roundoff inverts safely whatever rank a caller counts,
    and a Gramian's eigenvalues are squared singular values, which a
    tolerance meant for singular values would refuse far too early.

    Every factorization starts from G's controllable and observable
    part at DEFAULT_TOL, whatever rank_rtol is, and pinv ends with the
    non-dynamic elimination of G# at DEFAULT_TOL, whose cancellations
    are exact: a coarse threshold would only cut states G needs. The
    part keeps its non-dynamic modes, whose elimination can inflate the
    pencil that scales the later thresholds. tol decides the splitting
    forms built on the part (the fact.nrcf docstring says what it
    decides there), not the gain solves on their trailing blocks.

    Fixed rules: is_infinite decides infinite eigenvalues, EIG_ATOL the
    width of the stability boundary (klf.on_stability_boundary),
    is_pole_to_working_precision the points dss.evaluate refuses, and
    max(1e4 * threshold, 1e-10 * max(||M||_F, ||N||_F, 1)) the sum of
    the blocks klf.special_klf may discard from its system pencil
    M - lambda*N.
    """

    rank_rtol: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.rank_rtol) and self.rank_rtol >= 0):
            raise InputError(f"rank_rtol must be finite and nonnegative, got {self.rank_rtol}")

    def rank_threshold(self, scale: float, k: int) -> float:
        """Absolute threshold of a rank decision on dimension-k data of
        norm scale: rank_rtol * scale, floored at the noise floor."""
        return max(self.rank_rtol * scale, noise_floor(scale, k))


DEFAULT_TOL = ToleranceConfig()


def noise_floor(scale: float, k: int) -> float:
    """Roundoff level 100 * k * eps * scale of dimension-k data of norm
    scale that ends a chain of orthogonal products."""
    return 100 * k * EPS * scale


# width of the stability boundary relative to max(1, |lam|): eigenvalues on
# it classify as good, and nrcf and inner bases reject them as poles or zeros
EIG_ATOL = 1e-9


def is_infinite(alpha, beta) -> bool:
    """True when the generalized eigenvalue (alpha, beta), beta of either
    sign, is infinite: |beta| <= 1e4 * eps * (|alpha| + |beta|)."""
    return abs(beta) <= 1e4 * EPS * (abs(alpha) + abs(beta))


def is_pole_to_working_precision(s) -> bool:
    """True when lambda0*E - A of order n, singular values s descending,
    is singular to working precision: s[-1] <= 10 n eps max(s[0], 1)."""
    return s[-1] <= 10 * s.size * EPS * max(s[0], 1.0)


def _matrix(value, name, rows=None, cols=None, square=False):
    """A new float64 copy of value in its memory order, a scalar read
    as 1 x 1, with rows rows and cols columns where given (None: any)
    and square if asked, every entry finite; InputError names the
    matrix and the shape it must have. The one check of outside data."""
    M = np.array(value, dtype=float)
    if M.ndim == 0:
        M = M.reshape(1, 1)
    if M.ndim != 2:
        raise InputError(f"{name} must be two-dimensional, got shape {M.shape}")
    if square and M.shape[0] != M.shape[1]:
        raise InputError(f"{name} must be square, got shape {M.shape}")
    if (rows is not None and M.shape[0] != rows) or (cols is not None and M.shape[1] != cols):
        want = ", ".join("any" if k is None else str(k) for k in (rows, cols))
        raise InputError(f"{name} must have shape ({want}), got {M.shape}")
    if M.size and not np.isfinite(M).all():
        raise InputError(f"{name} contains non-finite entries")
    return M


def svd(M, compute_uv: bool = True):
    """Full SVD of a finite float64 or complex128 matrix by LAPACK
    gesdd: (U, s, Vh) with M = U @ diag(s) @ Vh, or s alone; identity
    U, Vh for an empty M. A failure to converge raises KernelError."""
    if M.size == 0:
        s = np.zeros(0)
        if not compute_uv:
            return s
        return np.eye(M.shape[0], dtype=M.dtype), s, np.eye(M.shape[1], dtype=M.dtype)
    gesdd, gesdd_lwork = _lapack(("gesdd", "gesdd_lwork"), M.dtype, _SVD_MODULE)
    key = (gesdd, M.shape, compute_uv)
    lwork = _BOUND.get(key) or _kept_lwork(key, gesdd_lwork(*M.shape, compute_uv, 1))
    # (a, compute_uv, full_matrices, lwork): f2py parses keywords slowly
    U, s, Vh, info = gesdd(M, compute_uv, 1, lwork)
    if info > 0:
        raise KernelError("SVD did not converge")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gesdd")
    return (U, s, Vh) if compute_uv else s


def rq(M):
    """Full RQ factorization (R, Q) of a finite float64 matrix by LAPACK
    gerqf and orgrq: M = R @ Q with Q square orthogonal and R upper
    trapezoidal."""
    m, n = M.shape
    if M.size == 0:
        return np.empty_like(M), np.eye(n, dtype=M.dtype)
    gerqf, orgrq = _lapack(("gerqf", "orgrq"), M.dtype)
    rqf, tau = _lapack_call(gerqf, "gerqf", (m, n), M)
    R = np.where(_upper_trapezoid(m, n), rqf, 0)
    if n < m:
        head = rqf[-n:]
    else:
        head = np.empty((n, n), dtype=rqf.dtype)
        head[-m:] = rqf
    Q, = _lapack_call(orgrq, "orgrq", (m, n), head, tau, overwrite=1)
    return R, Q


@functools.lru_cache(maxsize=None)
def _upper_trapezoid(m: int, n: int):
    """Read-only mask of np.triu(M, n - m) for an m x n M: np.where with
    the shared mask is several times faster on small matrices."""
    return np.broadcast_to(np.arange(n) >= np.arange(m)[:, None] + (n - m), (m, n))


def _lapack_call(f, name, shapes, *args, overwrite=0):
    """f(*args, lwork, overwrite) of a routine whose last two options
    are lwork and overwrite_a (geqrf, orgqr, gerqf, orgrq), at the
    optimal workspace kept under (f, shapes), shapes those of args,
    without the trailing (work, info) results. info < 0 raises."""
    key = (f, shapes)
    lwork = _BOUND.get(key) or _kept_lwork(key, f(*args, -1))
    out = f(*args, lwork, overwrite)
    if out[-1] < 0:
        raise ValueError(f"illegal value in argument {-out[-1]} of {name}")
    return out[:-2]


def _ordered_qz(A, B, select, left=True):
    """Real generalized Schur form (S, T, alpha, beta, Q, Z) of the square
    pencil A - lambda*B by gges, Q.T A Z = S and Q.T B Z = T, reordered by
    tgsen so that the eigenvalues for which the boolean array
    select(alpha, beta) is true lead: the calls of scipy's ordered QZ with
    sort=select. With left False, Q is neither accumulated nor returned
    (None): gges and tgsen update S, T and Z as they would with it, so
    those stay bit for bit the same. A failed QZ iteration or reordering
    raises KernelError.

    Regularity is not checked. special_klf passes the regular window of
    _klf_core: its finite block is square (_klf_core refuses one that is
    not) and nonsingular (a singular one shows a (0, 0) pair, which
    is_infinite counts as infinite and _klf_core refuses), and its
    infinite block is square (checked) with every peel stage square, so
    its lambda-free part is nonsingular. rangebasis._stabilizing_gains
    passes (A, I). stabilizing_riccati, which only
    rangebasis._riccati_feedback calls, checks the solution instead, as
    scipy's solvers do, and reads only Z."""
    gges, tgsen = _lapack(("gges", "tgsen"), A.dtype)
    n = A.shape[0]
    key = (gges, n, left)
    # sort_t=0: gges never calls the selector
    lwork = _BOUND.get(key) or _kept_lwork(key, gges(lambda *_: None, A, B, jobvsl=int(left), lwork=-1))
    S, T, _, alphar, alphai, beta, Q, Z, _, info = gges(
        lambda *_: None, A, B, jobvsl=int(left), lwork=lwork, sort_t=0
    )
    if info != 0:
        raise KernelError(f"QZ iteration failed: gges info {info}")
    keep = select(alphar + alphai * 1j, beta)
    # tgsen wants an n x n q even when it leaves it unread (wantq=0)
    S, T, alphar, alphai, beta, Q, Z, _, _, _, _, info = tgsen(
        keep, S, T, Q if left else Z, Z, ijob=0, wantq=int(left), lwork=4 * n + 16, liwork=1
    )
    if info != 0:
        raise KernelError(
            "Reordering of (A, B) failed because the transformed matrix pair (A, B) would be too "
            "far from generalized Schur form; the problem is very ill-conditioned."
        )
    return S, T, alphar + alphai * 1j, beta, Q if left else None, Z


def _left_half_plane(alpha, beta):
    """Finite eigenvalues alpha/beta with negative real part."""
    finite = beta != 0
    return finite & ((alpha / np.where(finite, beta, 1.0)).real < 0.0)


def _inside_unit_circle(alpha, beta):
    """Finite eigenvalues alpha/beta of modulus below 1."""
    finite = beta != 0
    return finite & (abs(alpha / np.where(finite, beta, 1.0)) < 1.0)


def _norm1(M):
    """np.linalg.norm(M, 1) of a finite float matrix, the largest
    absolute column sum, from the same column sums without the dispatch."""
    return max(np.add.reduce(abs(M), 0).tolist())



def stabilizing_riccati(A, B, Q, R, S, ts: str):
    """Stabilizing solution X of the algebraic Riccati equation of the
    real pair (A, B) with symmetric weights [Q S; S.T R], S None for
    zero: A.T X + X A - (X B + S) R^-1 (B.T X + S.T) + Q = 0 for
    ts "continuous", A.T X A - X - (A.T X B + S) (R + B.T X B)^-1
    (B.T X A + S.T) + Q = 0 for ts "discrete".

    The LAPACK calls of scipy's continuous and discrete ARE solvers (e
    None, s=S, balanced) on the extended pencil H - lambda J: gebal on
    |H| + |J| for the symplectic balancing, geqrf and orgqr to deflate
    the columns of R, gges and tgsen to lead with the stable
    eigenvalues (without the left Schur vectors scipy also forms: X
    reads only Z, and S, T and Z come out the same), and getrf and
    trtrs to solve for X from the stable deflating subspace. In
    continuous time a numerically singular R raises ValueError. A pencil
    whose stable subspace cannot be isolated, such as one with an
    eigenvalue on the stability boundary, raises LinAlgError.

    The calls come in scipy's order with scipy's arguments, so X is
    scipy's bit for bit; the Python around them (bindings from _BOUND,
    pivots as ints, one-norms by _norm1) moves no bit.
    """
    continuous = ts == "continuous"
    m, n = B.shape
    if continuous:
        min_sv = svd(R, compute_uv=False)[-1]
        if min_sv == 0.0 or min_sv < EPS * _norm1(R):
            raise ValueError("Matrix r is numerically singular.")

    # H - lambda J, rows and columns in the blocks (m, m, n); zero S
    # leaves +0 blocks
    N = 2 * m + n
    H = np.zeros((N, N))
    J = np.zeros((N, N))
    H[:m, :m] = A
    H[:m, 2 * m:] = B
    H[m:2 * m, :m] = -Q
    if S is not None:
        H[m:2 * m, 2 * m:] = -S
        H[2 * m:, :m] = S.T
    H[2 * m:, 2 * m:] = R
    if continuous:
        H[m:2 * m, m:2 * m] = -A.T
        H[2 * m:, m:2 * m] = B.T
        J[:2 * m, :2 * m] = np.eye(2 * m)
    else:
        H[m:2 * m, m:2 * m] = np.eye(m)
        J[:m, :m] = np.eye(m)
        J[m:2 * m, m:2 * m] = A.T
        J[2 * m:, m:2 * m] = -B.T

    # balance |H| + |J| off its diagonal, then impose diag(D, D^-1, .)
    # with D the power-of-2 geometric mean of the two halves (Benner)
    W = np.abs(H) + np.abs(J)
    np.fill_diagonal(W, 0.0)
    gebal, geqrf, orgqr, getrf, trtrs = _lapack(("gebal", "geqrf", "orgqr", "getrf", "trtrs"), H.dtype)
    # without permuting, gebal balances rows and columns lo = 0 to
    # hi = N - 1: every entry of sca is a scale
    sca = gebal(W, scale=1, permute=0)[3]
    # gebal scales by powers of 2, so close to 1 is equal to 1
    if (sca != 1.0).any():
        sca = np.log2(sca)
        half = ((sca[m:2 * m] - sca[:m]) / 2).round()
        sca = 2 ** np.concatenate([half, -half, sca[2 * m:]])
        scale = sca[:, None] * np.reciprocal(sca)
        H *= scale
        J *= scale

    # deflate the n columns of R: the trailing N - n columns of the full
    # orthogonal factor of H[:, -n:] span their left null space
    qr, tau = _lapack_call(geqrf, "geqrf", (N, n), H[:, -n:])
    full = np.empty((N, N))
    full[:, :n] = qr
    U, = _lapack_call(orgqr, "orgqr", (N, n), full, tau, overwrite=1)
    H = U[:, n:].T.dot(H[:, :2 * m])
    if continuous:
        J = U[:2 * m, n:].T.dot(J[:2 * m, :2 * m])
    else:
        J = U[:, n:].T.dot(J[:, :2 * m])

    stable = _left_half_plane if continuous else _inside_unit_circle
    u = _ordered_qz(H, J, stable, left=False)[5]
    u00 = u[:m, :m]
    u10 = u[m:, :m]
    lu, piv, _ = getrf(u00)
    sv = svd(np.where(_upper_trapezoid(m, m), lu, 0.0), compute_uv=False)
    if sv[-1] == 0 or 1 / (sv[0] / sv[-1]) < EPS:
        raise np.linalg.LinAlgError("Failed to find a finite solution.")
    # X = u10 u00^-1 from u00 = P L U: trtrs reads only the triangle of
    # lu.T it is told to, U.T below and L.T above the diagonal
    y, _ = trtrs(lu.T, u10.T, lower=1)
    x, _ = trtrs(lu.T, y, lower=0, unitdiag=1)
    # P of u00 = P L U from the row interchanges of piv, in order; x
    # takes the product with P, as scipy's does: an index would move the
    # same values but could leave a zero with the other sign
    perm = list(range(m))
    for i, p in enumerate(piv.tolist()):
        perm[i], perm[p] = perm[p], perm[i]
    P = np.zeros((m, m))
    for i, p in enumerate(perm):
        P[p, i] = 1.0
    x = x.T.dot(P.T)
    x *= sca[:m, None] * sca[:m]

    # the stable subspace of a solvable equation makes u00.T u10 symmetric
    u_sym = u00.T.dot(u10)
    n_u_sym = _norm1(u_sym)
    if _norm1(u_sym - u_sym.T) > max(np.spacing(1000.0), 0.1 * n_u_sym):
        raise np.linalg.LinAlgError(
            "The associated Hamiltonian pencil has eigenvalues too close to the imaginary axis"
            if continuous
            else "The associated symplectic pencil has eigenvalues too close to the unit circle"
        )
    return (x + x.T) / 2


def generalized_eigenvalues(A, E):
    """(alpha, beta) pairs of a square pencil by LAPACK gges without
    Schur vectors, with beta normalized nonnegative. A failure of the QZ
    iteration raises KernelError."""
    if A.shape[0] == 0:
        return []
    gges, = _lapack(("gges",), A.dtype)
    _, _, _, alphar, alphai, beta, _, _, _, info = gges(
        lambda *_: 0, A, E, jobvsl=0, jobvsr=0, sort_t=0, overwrite_a=False, overwrite_b=False
    )
    if info != 0:
        raise KernelError(f"QZ iteration failed: gges info {info}")
    pairs = zip((alphar + 1j * alphai).tolist(), beta.tolist())
    return [(-a, -b) if b < 0 else (a, b) for a, b in pairs]


# -- internal compression helpers -------------------------------------------
#
# These are the workhorses of the staircase reductions. They operate with an
# absolute threshold (ToleranceConfig.rank_threshold at the relevant global
# scale) so that one tolerance governs a whole pencil reduction.


def thresholded_svd(M, thresh: float):
    """(U, sigma, V, rank) with M = U @ diag(sigma) @ V.T, rank the
    count of singular values above the absolute threshold thresh."""
    U, s, Vt = svd(M)
    return U, s, Vt.T, int(np.count_nonzero(s > thresh))


def svd_rank_abs(M, thresh: float) -> int:
    """Count of the singular values of M above the absolute threshold
    thresh, without singular vectors."""
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


def col_compress(M, thresh: float):
    """Orthogonal Z compressing the columns of M to the trailing ones:
    M @ Z = [0, M1] with M1 full column rank. Returns (Z, rank)."""
    n = M.shape[1]
    if min(M.shape) == 0 or not M.any():
        return np.eye(n), 0
    _, _, V, rank = thresholded_svd(M, thresh)
    return np.hstack([V[:, rank:], V[:, :rank]]), rank


def null_basis(M, thresh: float):
    """Orthonormal basis of the right null space of M (columns)."""
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
