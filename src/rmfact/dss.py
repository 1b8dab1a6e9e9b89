"""Descriptor state-space representations of rational matrices.

A rational p x m matrix G(lambda) is represented by the quintuple
(A - lambda*E, B, C, D) with G(lambda) = C (lambda*E - A)^{-1} B + D.
E may be singular, which lets the same data structure carry improper
(polynomial) matrices. The frequency variable is the Laplace variable
for continuous-time systems and the Z-transform variable for
discrete-time systems.

Realizations are immutable (read-only arrays; changing them in place is
unsupported), so each keeps what is computed from it alone, per
tolerance: its controllable and observable part under ("part", tol),
the one decoupling reduction; its irreducible realization under
("irreducible", tol), the non-dynamic elimination of that part; and its
splitting form (klf.special_klf) per bad region under ("splitting",
region, tol), its arrays read-only too. A refusal is not kept.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .exceptions import EvaluationError, InputError, StructureError
from .numkernel import (
    DEFAULT_TOL,
    ToleranceConfig,
    _matrix,
    controllability_staircase,
    frobenius_norm,
    generalized_eigenvalues,
    is_pole_to_working_precision,
    noise_floor,
    row_scaling,
    solve,
    svd,
    svd_rank_abs,
    thresholded_svd,
)

CONTINUOUS = "continuous"
DISCRETE = "discrete"


@dataclass(frozen=True)
class DescriptorSystem:
    """Immutable descriptor realization (A - lambda*E, B, C, D) with a
    time-domain tag. E stored as None denotes the identity; the arrays
    are read-only. _kept, outside __init__, repr and ==, holds what is
    computed from the realization alone, under the keys the module
    docstring lists."""

    A: np.ndarray
    E: np.ndarray | None
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    ts: str
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def e_matrix(self) -> np.ndarray:
        return np.eye(self.n) if self.E is None else self.E


def make_dss(A, E, B, C, D, ts: str) -> DescriptorSystem:
    """Validate and build a DescriptorSystem. E may be None (identity).
    ts, the shapes and the finiteness of all entries are checked, or
    InputError names what failed; the realization keeps float64 copies
    of the matrices (numkernel._matrix), not the caller's arrays."""
    if ts not in (CONTINUOUS, DISCRETE):
        raise InputError(f"ts must be '{CONTINUOUS}' or '{DISCRETE}', got {ts!r}")
    A = _matrix(A, "A", square=True)
    n = A.shape[0]
    B = _matrix(B, "B", rows=n)
    C = _matrix(C, "C", cols=n)
    D = _matrix(D, "D", C.shape[0], B.shape[1])
    E = None if E is None else _matrix(E, "E", n, n)
    return _system(A, E, B, C, D, ts)


def _system(A, E, B, C, D, ts: str) -> DescriptorSystem:
    """Constructor of every computed realization: float64 matrices of
    matching shapes, not shape-checked or copied. E equal to the
    identity is stored as None and the matrices are made read-only. A
    non-finite entry means a reduction broke down: StructureError."""
    n = A.shape[0]
    # an E whose leading entry is not 1 is no identity, which spares
    # most computed E the full comparison
    if E is not None and (n == 0 or E[0, 0] == 1.0) and np.array_equal(E, np.eye(n)):
        E = None
    mats = (A, B, C, D) if E is None else (A, E, B, C, D)
    # a finite sum proves every entry finite; only a sum that is not,
    # which finite entries near the overflow threshold also give
    # (silently), is followed by the test of each entry that names the
    # matrix
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(np.add.reduce(M, None) for M in mats)
    if not math.isfinite(total):
        for name, M in zip("AEBCD", (A, E, B, C, D)):
            if M is not None and not np.isfinite(M).all():
                raise StructureError(f"computed realization has non-finite entries in {name}")
    for M in mats:
        M.setflags(write=False)
    return DescriptorSystem(A, E, B, C, D, ts)


@dataclass(frozen=True)
class EigenvalueList:
    """Finite eigenvalues with multiplicity (listed individually) and
    one entry per infinite block, already decremented by one per the
    pole/zero counting convention."""

    finite: tuple
    infinite_multiplicities: tuple

    @property
    def total(self) -> int:
        return len(self.finite) + sum(self.infinite_multiplicities)

    @property
    def infinite_count(self) -> int:
        return sum(self.infinite_multiplicities)


def evaluate(sys: DescriptorSystem, lambda0: complex) -> np.ndarray:
    """G(lambda0) = C (lambda0*E - A)^{-1} B + D at a finite point.
    A point that is not finite, or at which lambda0*E - A overflows,
    raises InputError; a pole to working precision EvaluationError."""
    lam = complex(lambda0)
    if not cmath.isfinite(lam):
        raise InputError(f"evaluation point {lam} is not finite")
    if sys.n == 0:
        return sys.D.astype(complex)
    with np.errstate(over="ignore"):
        P = lam * sys.e_matrix - sys.A
    if not np.isfinite(P).all():
        raise InputError(f"evaluation point {lam} overflows the pencil lambda*E - A")
    s = svd(P, compute_uv=False)
    if is_pole_to_working_precision(s):
        raise EvaluationError(f"evaluation point {lam} is a pole to working precision")
    X = np.linalg.solve(P, sys.B.astype(complex))
    return sys.C @ X + sys.D


def transpose(sys: DescriptorSystem) -> DescriptorSystem:
    """Realization of G(lambda).T."""
    E = None if sys.E is None else sys.E.T
    return _system(sys.A.T, E, sys.C.T, sys.B.T, sys.D.T, sys.ts)


def conjugate(sys: DescriptorSystem) -> DescriptorSystem:
    """Realization of the adjoint G~: G.T(-s) in continuous time,
    G.T(1/z) in discrete time.

    The discrete construction swaps the roles of A and E so that no
    invertibility of A is required; the doubled state dimension is
    reduced again by a non-dynamic-mode cleanup.
    """
    if sys.ts == CONTINUOUS:
        E = None if sys.E is None else sys.E.T
        return _system(-sys.A.T, E, sys.C.T, -sys.B.T, sys.D.T, sys.ts)
    n, m, p = sys.n, sys.m, sys.p
    Emat = sys.e_matrix
    At = _diag_blocks(Emat.T, np.eye(n))
    Et = _block([[sys.A.T, np.zeros((n, n))], [np.eye(n), np.zeros((n, n))]])
    Bt = np.vstack([-sys.C.T, np.zeros((n, p))])
    Ct = np.hstack([np.zeros((m, n)), sys.B.T])
    out = _system(At, Et, Bt, Ct, sys.D.T, sys.ts)
    return _remove_nondynamic(out, DEFAULT_TOL)


def _block(rows):
    """The block matrix of a list of block rows, built by the
    concatenations numpy's block function makes for small arrays: each
    row, then the rows. np.concatenate keeps the memory order of its
    inputs, and later BLAS products round by that order."""
    return np.concatenate([np.concatenate(row, axis=1) for row in rows], axis=0)


def _diag_blocks(X, Y):
    """[X 0; 0 Y] as a new C-order array, as scipy's block-diagonal
    builder makes it."""
    out = np.zeros((X.shape[0] + Y.shape[0], X.shape[1] + Y.shape[1]))
    out[: X.shape[0], : X.shape[1]] = X
    out[X.shape[0]:, X.shape[1]:] = Y
    return out


def _check_ts(sys1, sys2):
    if sys1.ts != sys2.ts:
        raise InputError("time-domain tags do not match")


def stack_vertical(sys1: DescriptorSystem, sys2: DescriptorSystem) -> DescriptorSystem:
    """Realization of [G1; G2] (shared input)."""
    _check_ts(sys1, sys2)
    if sys1.m != sys2.m:
        raise InputError("vertical stacking requires equal input counts")
    A = _diag_blocks(sys1.A, sys2.A)
    E = None
    if sys1.E is not None or sys2.E is not None:
        E = _diag_blocks(sys1.e_matrix, sys2.e_matrix)
    B = np.vstack([sys1.B, sys2.B])
    C = _diag_blocks(sys1.C, sys2.C)
    D = np.vstack([sys1.D, sys2.D])
    return _system(A, E, B, C, D, sys1.ts)


def stack_horizontal(sys1: DescriptorSystem, sys2: DescriptorSystem) -> DescriptorSystem:
    """Realization of [G1, G2] (shared output)."""
    _check_ts(sys1, sys2)
    if sys1.p != sys2.p:
        raise InputError("horizontal stacking requires equal output counts")
    A = _diag_blocks(sys1.A, sys2.A)
    E = None
    if sys1.E is not None or sys2.E is not None:
        E = _diag_blocks(sys1.e_matrix, sys2.e_matrix)
    B = _diag_blocks(sys1.B, sys2.B)
    C = np.hstack([sys1.C, sys2.C])
    D = np.hstack([sys1.D, sys2.D])
    return _system(A, E, B, C, D, sys1.ts)


def series(sys1: DescriptorSystem, sys2: DescriptorSystem) -> DescriptorSystem:
    """Realization of the product G1(lambda) @ G2(lambda)."""
    _check_ts(sys1, sys2)
    if sys1.m != sys2.p:
        raise InputError("series connection requires inner dimensions to match")
    n1, n2 = sys1.n, sys2.n
    A = _block([[sys1.A, sys1.B @ sys2.C], [np.zeros((n2, n1)), sys2.A]])
    E = None
    if sys1.E is not None or sys2.E is not None:
        E = _diag_blocks(sys1.e_matrix, sys2.e_matrix)
    B = np.vstack([sys1.B @ sys2.D, sys2.B])
    C = np.hstack([sys1.C, sys1.D @ sys2.C])
    D = sys1.D @ sys2.D
    return _system(A, E, B, C, D, sys1.ts)


def identity_system(m: int, ts: str) -> DescriptorSystem:
    return _system(np.zeros((0, 0)), None, np.zeros((0, m)), np.zeros((m, 0)), np.eye(m), ts)


# -- evaluation grids --------------------------------------------------------


def frequency_grid(ts: str, count: int = 32):
    """Reproducible frequency grid: points i*w with w log-spaced in
    [1e-3, 1e3] for continuous time, points on the unit circle (offset
    half a step to avoid the real axis) for discrete time."""
    if ts == CONTINUOUS:
        return [1j * w for w in np.logspace(-3.0, 3.0, count)]
    theta = 2.0 * np.pi * (np.arange(count) + 0.5) / count
    return [complex(np.cos(t), np.sin(t)) for t in theta]


def _pencil_points(sys: DescriptorSystem, rng):
    """Endless random complex points on the pencil scale of sys,
    ||A||_F/||E||_F (at least 1), the package's one random-point rule.
    No eigenvalue sets the scale: the QZ of an improper realization
    lists spurious finite eigenvalues of modulus about 1e8.

    rng draws the real and then the imaginary part of each point:
    gauss(0, 1) of a random.Random, the package's own generator (a cold
    process has loaded it already, unlike numpy.random), or
    standard_normal() of a numpy Generator."""
    norm_e = frobenius_norm(sys.e_matrix)
    radius = max(1.0, frobenius_norm(sys.A) / norm_e) if norm_e else 1.0
    draw = (lambda: rng.gauss(0.0, 1.0)) if isinstance(rng, random.Random) else rng.standard_normal
    while True:
        yield complex(draw(), draw()) * radius


def _nonpole_samples(systems, count: int, rng) -> list:
    """count pairs (z, (G1(z), G2(z), ...)) at points on the pencil scale
    of the first system, G. A point at which one of the systems does not
    evaluate to working precision is replaced by a fresh draw; only an
    exhausted budget of 100*count + 100 draws raises EvaluationError.
    rng is any generator _pencil_points takes; None is random.Random(0)."""
    points = _pencil_points(systems[0], random.Random(0) if rng is None else rng)
    draws, samples = itertools.islice(points, 100 * count + 100), []
    while len(samples) < count:
        z = next(draws, None)
        if z is None:
            raise EvaluationError(f"sampling exhausted its attempt budget: only {len(samples)} of {count} points evaluate")
        try:
            samples.append((z, tuple(evaluate(sys, z) for sys in systems)))
        except EvaluationError:
            continue
    return samples


def random_nonpole_points(systems, count: int, rng=None):
    """count random complex points, drawn on the pencil scale of the
    first system, G, at which every given system evaluates to working
    precision (_nonpole_samples). The other systems do not move the
    points: a factor of G on its own larger scale would be evaluated
    where only its D term is seen. rng is a random.Random or a numpy
    Generator (_pencil_points), random.Random(0) when None."""
    return [z for z, _ in _nonpole_samples(systems, count, rng)]


def nonpole_evaluations(systems, count: int, rng=None) -> list:
    """Values (G1(z), G2(z), ...) of the given systems at the count
    points random_nonpole_points draws for the same rng (a random.Random
    or a numpy Generator; random.Random(0) when None), from the same
    evaluations."""
    return [values for _, values in _nonpole_samples(systems, count, rng)]


# -- structural queries ------------------------------------------------------


def system_pencil(sys: DescriptorSystem):
    """The system matrix pencil [A B; C D] - lambda*[E 0; 0 0] as the
    pair (M, N)."""
    n, m, p = sys.n, sys.m, sys.p
    M = _block([[sys.A, sys.B], [sys.C, sys.D]])
    N = np.zeros((n + p, n + m))
    N[:n, :n] = sys.e_matrix
    return M, N


def normal_rank(sys: DescriptorSystem, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Rank of G(lambda) over the rational functions, computed as
    rank S(lambda0) - n at a random point, cross-checked at a second
    point, ranked like every reduction by rank_threshold of
    sigma_max(S(lambda0)).

    S(lambda) = [A - lambda E, B; C, D] is polynomial, so a pole of G
    cannot move its rank: rank S(lambda0) falls below n + r only at a
    finite zero of S, an invariant zero or a decoupling mode of the
    realization, and no point steers around the eigenvalues of
    A - lambda*E. A point drawn close enough to such a zero to rank low
    disagrees with the other point of its pair, and the pair is drawn
    again. Only two points of one pair that both fall that close, and
    rank low by the same count, pass the cross-check.

    The points come from random.Random(0) under the package's one
    random-point rule (_pencil_points), on the pencil's scale
    ||A||/||E|| (at least 1): drawn on that of a spurious huge
    eigenvalue, an infinite Jordan block's 1/|lambda0| falls under the
    threshold."""
    points = _pencil_points(sys, random.Random(0))
    M, N = system_pencil(sys)
    for _ in range(5):
        ranks = []
        for z in itertools.islice(points, 2):
            S = M - z * N
            s = svd(S, compute_uv=False)
            thresh = tol.rank_threshold(s[0] if s.size else 0.0, max(S.shape))
            ranks.append(int(np.count_nonzero(s > thresh)) - sys.n)
        if ranks[0] == ranks[1]:
            return max(ranks[0], 0)
    raise StructureError("normal rank probe points kept disagreeing after 5 attempts")


# -- irreducible (minimal) realizations --------------------------------------


def controllable_bases(A, E, B, tol: ToleranceConfig):
    """Bases L, Z (Z orthonormal) of the k-state completely controllable
    part (L.T A Z, L.T E Z, L.T B) of (A - lambda*E, B), E None for the
    identity, with C Z. The staircase on (A, E, B) removes the
    uncontrollable finite eigenvalues and, when [E_c B_c] loses row
    rank, the one on the swapped pair (E_c, A_c, B_c) the infinite ones.
    An explicit E has the rows of [A E B] scaled by row_scaling first,
    so one badly scaled row does not set the rank threshold of all; L
    carries the scaling."""
    n = A.shape[0]
    if E is not None:
        d = row_scaling(np.hstack([A, E, B]))[:, None]
        A, B, E = d * A, d * B, d * E
    scale = max(frobenius_norm(A), np.sqrt(n) if E is None else frobenius_norm(E), frobenius_norm(B))
    thresh = tol.rank_threshold(scale, n)
    Q, Z, k = controllability_staircase(A, E, B, thresh)
    Q, Z = Q[:, :k], Z[:, :k]
    if E is not None and k:
        E_c, B_c = Q.T @ E @ Z, Q.T @ B
        if svd_rank_abs(np.hstack([E_c, B_c]), thresh) < k:
            Q2, Z2, k = controllability_staircase(E_c, Q.T @ A @ Z, B_c, thresh)
            Q, Z = Q @ Q2[:, :k], Z @ Z2[:, :k]
    return (Q if E is None else d * Q), Z


def _controllable_part(sys: DescriptorSystem, tol: ToleranceConfig) -> DescriptorSystem:
    L, Z = controllable_bases(sys.A, sys.E, sys.B, tol)
    if Z.shape[1] == sys.n:
        return sys
    E_c = None if sys.E is None else L.T @ sys.E @ Z
    return _system(L.T @ sys.A @ Z, E_c, L.T @ sys.B, sys.C @ Z, sys.D, sys.ts)


def _observable_part(sys: DescriptorSystem, tol: ToleranceConfig) -> DescriptorSystem:
    dual = transpose(sys)
    part = _controllable_part(dual, tol)
    return sys if part is dual else transpose(part)


def _controllable_observable_part(sys: DescriptorSystem, tol: ToleranceConfig) -> DescriptorSystem:
    """The observable part of the controllable part of sys, sys itself
    when neither cuts a state; its non-dynamic modes are left in. Kept
    on sys and on itself under ("part", tol)."""
    key = ("part", tol)
    if key not in sys._kept:
        part = _observable_part(_controllable_part(sys, tol), tol)
        part._kept.setdefault(key, part)
        sys._kept[key] = part
    return sys._kept[key]


def _remove_nondynamic(sys: DescriptorSystem, tol: ToleranceConfig) -> DescriptorSystem:
    """Eliminate states violating A N(E) in R(E); the transfer function
    is preserved exactly by Gaussian elimination of algebraic states.
    The system comes back as given when it has no such states: no
    state, E None (the identity, never rank-decided), E of full rank on
    the pencil scale, or A22 at the noise floor."""
    A, Emat, n = sys.A, sys.E, sys.n
    if n == 0 or Emat is None:
        return sys
    # ranked on the pencil's scale, an E of roundoff has rank 0
    scale = max(frobenius_norm(A), frobenius_norm(Emat))
    U, _, V, q = thresholded_svd(Emat, tol.rank_threshold(scale, n))
    if q == n:
        return sys
    U2, V2 = U[:, q:], V[:, q:]
    A22 = U2.T @ A @ V2
    # the eliminable part of A22 must be solidly nonzero on the
    # scale of A itself; entries at roundoff level are kept as
    # dynamic structure rather than divided by (a division guard)
    U3, _, V3, q2 = thresholded_svd(A22, noise_floor(max(frobenius_norm(A), 1.0), n))
    if q2 == 0:
        return sys
    # the k kept states first, the q2 eliminated ones last
    L = np.hstack([U[:, :q], U2 @ U3[:, q2:], U2 @ U3[:, :q2]])
    R = np.hstack([V[:, :q], V2 @ V3[:, q2:], V2 @ V3[:, :q2]])
    k = n - q2
    T, Bt, Ct = L.T @ A @ R, L.T @ sys.B, sys.C @ R
    X = solve(T[k:, k:], np.hstack([T[k:, :k], Bt[k:]]))
    return _system(
        T[:k, :k] - T[:k, k:] @ X[:, :k],
        L[:, :k].T @ Emat @ R[:, :k] if k else None,
        Bt[:k] - T[:k, k:] @ X[:, k:],
        Ct[:, :k] - Ct[:, k:] @ X[:, :k],
        sys.D - Ct[:, k:] @ X[:, k:],
        sys.ts,
    )


def irreducible_realization(sys: DescriptorSystem, tol: ToleranceConfig = DEFAULT_TOL) -> DescriptorSystem:
    """Controllable, observable realization of the same transfer
    function, with non-dynamic modes removed: the elimination of the
    non-dynamic states of the kept controllable and observable part.
    One pass reaches the fixed point in exact arithmetic: the
    observable part of a controllable realization stays controllable,
    and eliminating non-dynamic states through an invertible constant
    block keeps both properties. A second pass would only rank the
    roundoff the first one left.

    Kept on sys under ("irreducible", tol), as it depends only on the
    read-only arrays, ts and tol: a later call returns the same object,
    and so does a call on that object, which keeps itself."""
    key = ("irreducible", tol)
    if key not in sys._kept:
        red = _remove_nondynamic(_controllable_observable_part(sys, tol), tol)
        red._kept.setdefault(key, red)
        sys._kept[key] = red
    return sys._kept[key]


# -- poles, zeros, McMillan degree -------------------------------------------


def _eigen_list_from_pencil(M, N, thresh) -> EigenvalueList:
    """Finite eigenvalues and decremented infinite multiplicities of
    M - lambda*N, ranked against the absolute threshold thresh, from the
    eigenvalue-only route of the Kronecker-like form: _klf_core
    accumulates no transformation the list would throw away."""
    from .klf import _klf_core

    if M.size == 0:
        return EigenvalueList((), ())
    res = _klf_core(M, N, thresh, False)
    infinite = tuple(d - 1 for d in res.infinite_divisor_degrees if d > 1)
    return EigenvalueList(tuple(a / b for a, b in res.finite_eigenvalues), infinite)


def _irreducible_poles(red: DescriptorSystem, tol: ToleranceConfig, full_rank_e: bool = False) -> EigenvalueList:
    """Poles of the irreducible realization red. With E None they are
    the QZ eigenvalues of (A, I), all finite. With E of full rank at the
    pencil threshold of (A, E) they are the one QZ of (A, E), checked by
    klf._finite_eigenvalues, which refuses a pair that reads infinite.
    Either way the Kronecker-like form of A - lambda*E would rank E as
    nonsingular at the first decision of each peel (its SVDs of E and
    svd_rank_abs's differ only by roundoff, so only a singular value
    within roundoff of the threshold could tell them apart), transform
    nothing and hand the same pair to the same gges call, so both
    routes give the same bits. Otherwise the eigenvalue-only route of
    that form, at the same threshold, decides the finite and infinite
    part. full_rank_e says a caller has proven E of full rank at a
    threshold no lower (fact.nrcf, at its graph's threshold), so neither
    the threshold SVD nor E's SVD runs again."""
    if red.E is None:
        return EigenvalueList(tuple(a / b for a, b in generalized_eigenvalues(red.A, np.eye(red.n))), ())
    from .klf import _finite_eigenvalues, _pencil_threshold

    if not full_rank_e:
        thresh = _pencil_threshold(red.A, red.E, tol)
        if svd_rank_abs(red.E, thresh) < red.n:
            return _eigen_list_from_pencil(red.A, red.E, thresh)
    return EigenvalueList(tuple(a / b for a, b in _finite_eigenvalues(red.A, red.E)), ())


def _irreducible_zeros(red: DescriptorSystem, tol: ToleranceConfig) -> EigenvalueList:
    """Zeros of the irreducible realization red: the eigenvalue-only
    Kronecker-like form of its system matrix pencil."""
    from .klf import _pencil_threshold

    M, N = system_pencil(red)
    return _eigen_list_from_pencil(M, N, _pencil_threshold(M, N, tol))


def poles(sys: DescriptorSystem, tol: ToleranceConfig = DEFAULT_TOL) -> EigenvalueList:
    """Pole structure of G: finite eigenvalues of A - lambda*E of an
    irreducible realization, plus infinite eigenvalue multiplicities
    decremented by one (_irreducible_poles: one QZ when E is None or of
    full rank, else the eigenvalue-only Kronecker-like form)."""
    return _irreducible_poles(irreducible_realization(sys, tol), tol)


def zeros(sys: DescriptorSystem, tol: ToleranceConfig = DEFAULT_TOL) -> EigenvalueList:
    """Zero structure of G from the regular part of the Kronecker-like
    form of the system matrix pencil of an irreducible realization,
    computed without its transformations (_irreducible_zeros)."""
    return _irreducible_zeros(irreducible_realization(sys, tol), tol)


def mcmillan_degree(sys: DescriptorSystem, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Total pole count, finite plus infinite: the order of an
    irreducible realization with E None, whose poles are all finite,
    else the count of _irreducible_poles (one QZ for E of full rank,
    which still refuses a pole pair that reads infinite)."""
    red = irreducible_realization(sys, tol)
    return red.n if red.E is None else _irreducible_poles(red, tol).total


@dataclass(frozen=True)
class Structure:
    """Normal rank, pole and zero structure, and McMillan degree of a
    rational matrix."""

    normal_rank: int
    poles: EigenvalueList
    zeros: EigenvalueList
    mcmillan_degree: int


def structure(sys: DescriptorSystem, tol: ToleranceConfig = DEFAULT_TOL) -> Structure:
    """normal_rank, poles, zeros and mcmillan_degree of G in one pass,
    all from a single irreducible realization, which carries no
    uncontrollable or unobservable eigenvalue to disturb the rank probe.
    The poles and zeros take the routes of poles and zeros: neither
    computes a transformation of a Kronecker-like form."""
    red = irreducible_realization(sys, tol)
    pol = _irreducible_poles(red, tol)
    return Structure(normal_rank(red, tol), pol, _irreducible_zeros(red, tol), pol.total)
