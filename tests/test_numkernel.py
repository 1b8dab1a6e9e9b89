import ast
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import rmfact
from rmfact import FactorizationError, RmfactError, inner_enforcing_gains, numkernel, range_basis, stable_rank2_continuous
from rmfact.exceptions import InputError, StructureError
from rmfact.numkernel import (
    ToleranceConfig,
    _ordered_qz,
    generalized_eigenvalues,
    controllability_staircase,
    is_infinite,
    thresholded_svd,
)

from support import failing_gges

def kernel_matrix(shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal(shape)
    if dtype == complex:
        M = M + 1j * rng.standard_normal(shape)
    return M


def assert_arrays_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


# the kernels call LAPACK directly; on valid data these pin them bit for
# bit to the scipy wrappers they replace, as oracles, so a change in
# scipy's calls that moves a bit fails here rather than drifting into
# the reductions
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape", [(6, 3), (3, 6), (5, 5), (1, 1), (0, 3), (2, 0)])
def test_svd_kernel_matches_scipy(shape, dtype):
    M = kernel_matrix(shape, dtype)
    assert_arrays_equal(numkernel.svd(M), scipy.linalg.svd(M))
    assert_arrays_equal([numkernel.svd(M, compute_uv=False)], [scipy.linalg.svd(M, compute_uv=False)])


# rq takes float64 only: its one caller is the controllability staircase
@pytest.mark.parametrize("dtype", [float])
@pytest.mark.parametrize("shape", [(6, 3), (3, 6), (5, 5), (1, 1), (0, 3), (2, 0)])
def test_rq_kernel_matches_scipy(shape, dtype):
    M = kernel_matrix(shape, dtype)
    assert_arrays_equal(numkernel.rq(M), scipy.linalg.rq(M))


# the kernels query a workspace size once per routine and argument
# shapes; one call per shape would miss a size kept for the wrong shape
# or routine, so these interleave them from an empty cache
def test_workspace_is_kept_per_routine_and_shape(monkeypatch):
    monkeypatch.setattr(numkernel, "_BOUND", {})
    gerqf, geqrf = numkernel._lapack(("gerqf", "geqrf"), float)
    zgerqf, = numkernel._lapack(("gerqf",), complex)
    M = kernel_matrix((6, 2), float)
    # dgerqf asks 3 times dgeqrf's workspace on a 6 x 2 matrix
    for f, a in [(gerqf, M), (geqrf, M), (gerqf, M.T), (zgerqf, M + 0j), (geqrf, M.T), (gerqf, M)]:
        numkernel._lapack_call(f, "f", a.shape, a)
        assert numkernel._BOUND[f, a.shape] == f(a, lwork=-1)[-2][0].real


def test_rq_kernel_matches_scipy_across_interleaved_shapes(monkeypatch):
    monkeypatch.setattr(numkernel, "_BOUND", {})
    # a size kept for 1 x 2 (32) is below the 40 gerqf needs at 40 x 3
    shapes = [(1, 2), (3, 5), (5, 3), (40, 3), (3, 5), (4, 4), (5, 3)]
    for shape in shapes:
        M = kernel_matrix(shape, float)
        assert_arrays_equal(numkernel.rq(M), scipy.linalg.rq(M))


def riccati_data(ts, k, with_s, spread, seed=3, inputs=2):
    """(A, B, Q, R, S) of a random output weighting [C D].T [C D] with
    as many outputs as inputs; with spread, a diagonal state similarity
    puts A's entries 1e-6..1e6 apart, which makes the balancing scale
    the pencil."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((k, k))
    B = rng.standard_normal((k, inputs))
    C = rng.standard_normal((inputs, k))
    D = rng.standard_normal((inputs, inputs))
    if spread:
        d = 10.0 ** np.linspace(-3.0, 3.0, k) if k > 1 else np.array([1e6])
        A, B, C = d[:, None] * A / d, d[:, None] * B, C / d
    R = D.T @ D + (np.eye(inputs) if ts == "continuous" else 0.0)
    return A, B, C.T @ C, R, C.T @ D if with_s else None


def riccati_reference(ts):
    return scipy.linalg.solve_continuous_are if ts == "continuous" else scipy.linalg.solve_discrete_are


def assert_riccati_like_scipy(A, B, Q, R, S, ts):
    """The kernel returns scipy's X bit for bit, or raises its error."""
    try:
        want = riccati_reference(ts)(A, B, Q, R, s=S)
    except (np.linalg.LinAlgError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            numkernel.stabilizing_riccati(A, B, Q, R, S, ts)
        assert str(got.value) == str(exc)
        return exc
    got = numkernel.stabilizing_riccati(A, B, Q, R, S, ts)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()
    return None


@pytest.mark.parametrize("spread", [False, True], ids=["unit", "spread"])
@pytest.mark.parametrize("with_s", [False, True], ids=["no-s", "s"])
@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("ts", ["continuous", "discrete"])
def test_riccati_kernel_matches_scipy(ts, k, with_s, spread):
    assert assert_riccati_like_scipy(*riccati_data(ts, k, with_s, spread), ts) is None


# the orders (to 8) and input counts (to 4) of suite-small's gain
# solves; the test above draws 2 inputs
@pytest.mark.parametrize("with_s", [False, True], ids=["no-s", "s"])
@pytest.mark.parametrize("inputs", [1, 3, 4])
@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("ts", ["continuous", "discrete"])
def test_riccati_kernel_matches_scipy_for_each_input_count(ts, k, inputs, with_s):
    assert assert_riccati_like_scipy(*riccati_data(ts, k, with_s, False, inputs=inputs), ts) is None


def recording_getrf(get, pivots):
    """numkernel's LAPACK binder get, with each getrf it hands out
    appending its pivot indices to pivots."""

    def record(getrf):
        def call(*args, **kwargs):
            out = getrf(*args, **kwargs)
            pivots.append(out[1].copy())
            return out

        return call

    def patched(names, *args):
        return [record(f) if name == "getrf" else f for name, f in zip(names, get(names, *args))]

    return patched


# X = u10 u00^-1 applies the row interchanges of getrf in order; a pivot
# sequence that is not the identity checks that order bit for bit
@pytest.mark.parametrize("ts", ["continuous", "discrete"])
def test_riccati_kernel_matches_scipy_where_getrf_pivots(ts, monkeypatch):
    pivots = []
    monkeypatch.setattr(numkernel, "_lapack", recording_getrf(numkernel._lapack, pivots))
    assert assert_riccati_like_scipy(*riccati_data(ts, 6, True, False, inputs=3), ts) is None
    assert len(pivots) == 1
    assert not np.array_equal(pivots[0], np.arange(6))


# one bind-once cache holds each routine tuple and each optimal lwork:
# a repeated call adds no entry, a new shape or option exactly one, and
# the kept lwork is LAPACK's own answer
def test_bind_once_cache_adds_one_entry_per_new_shape_or_option(monkeypatch):
    monkeypatch.setattr(numkernel, "_BOUND", {})
    M = kernel_matrix((5, 3), float)
    numkernel.svd(M)
    size = len(numkernel._BOUND)
    for _ in range(3):
        numkernel.svd(M.copy())
    assert len(numkernel._BOUND) == size
    numkernel.svd(M, compute_uv=False)
    assert len(numkernel._BOUND) == size + 1
    numkernel.svd(M.T.copy())
    assert len(numkernel._BOUND) == size + 2
    gesdd, gesdd_lwork = numkernel._lapack(("gesdd", "gesdd_lwork"), M.dtype, numkernel._SVD_MODULE)
    for shape, compute_uv in [((5, 3), True), ((5, 3), False), ((3, 5), True)]:
        work, info = gesdd_lwork(*shape, compute_uv=compute_uv, full_matrices=True)
        assert info == 0 and numkernel._BOUND[gesdd, shape, compute_uv] == int(work)

    A, B = kernel_matrix((4, 4), float, 1), kernel_matrix((4, 4), float, 2)
    _ordered_qz(A, B, numkernel._left_half_plane)
    size = len(numkernel._BOUND)
    _ordered_qz(B, A, numkernel._left_half_plane)
    assert len(numkernel._BOUND) == size
    _ordered_qz(A, B, numkernel._left_half_plane, left=False)
    assert len(numkernel._BOUND) == size + 1
    gges, = numkernel._lapack(("gges",), A.dtype)
    for left in (True, False):
        want = gges(lambda *_: None, A, B, jobvsl=int(left), lwork=-1)[-2][0].real
        assert numkernel._BOUND[gges, 4, left] == want

    data = riccati_data("discrete", 5, True, False)
    numkernel.stabilizing_riccati(*data, "discrete")
    size = len(numkernel._BOUND)
    numkernel.stabilizing_riccati(*data, "discrete")
    assert len(numkernel._BOUND) == size


def test_riccati_kernel_matches_scipy_across_interleaved_shapes(monkeypatch):
    monkeypatch.setattr(numkernel, "_BOUND", {})
    # a gges size kept for order 1 is below the minimum at order 8
    for ts, k in [("continuous", 1), ("discrete", 8), ("continuous", 8), ("discrete", 1), ("continuous", 1)]:
        assert assert_riccati_like_scipy(*riccati_data(ts, k, True, False), ts) is None


def riccati_failure_data(ts, case):
    if case == "boundary-mode":
        # an eigenvalue on the stability boundary that B does not reach
        on_boundary, stable = (0.0, -0.5) if ts == "continuous" else (1.0, 0.5)
        return np.diag([on_boundary, stable]), np.array([[0.0], [1.0]]), np.eye(2), np.eye(1), None
    A, B, Q, _, S = riccati_data(ts, 3, True, False)
    return A, B, Q, np.zeros((2, 2)), S


@pytest.mark.parametrize(
    "ts, case, error",
    [
        ("continuous", "boundary-mode", np.linalg.LinAlgError),
        ("discrete", "boundary-mode", np.linalg.LinAlgError),
        ("continuous", "singular-r", ValueError),
    ],
)
def test_riccati_kernel_fails_like_scipy(ts, case, error):
    assert isinstance(assert_riccati_like_scipy(*riccati_failure_data(ts, case), ts), error)


def solve_matrix(kind, r, rng):
    """A random r x r matrix of one of the structures scipy's solve tells
    apart; the symmetric ones exactly symmetric."""
    M = rng.standard_normal((r, r))
    if kind == "identity":
        return np.eye(r)
    if kind == "diagonal":
        return np.diag(M[0] * 10.0 ** np.linspace(-3.0, 3.0, r))
    if kind == "spd":
        S = M @ M.T + r * np.eye(r)
        return (S + S.T) / 2
    if kind == "sym-indefinite":
        S = M + M.T
        S[0, 0], S[-1, -1] = -abs(S[0, 0]) - 1.0, abs(S[-1, -1]) + 1.0
        return S
    if kind == "upper":
        return np.triu(M) + 3.0 * np.eye(r)
    if kind == "lower":
        return np.tril(M) + 3.0 * np.eye(r)
    if kind == "tridiagonal":
        return np.triu(np.tril(M, 1), -1) + 3.0 * np.eye(r)
    return M


SOLVE_KINDS = ["identity", "diagonal", "spd", "sym-indefinite", "upper", "lower", "tridiagonal", "general"]


# the cofactor's solve, numpy.linalg.solve like every small solve in dss
# and rangebasis, against scipy's structure-dispatching solve: the same x
# to within the roundoff the condition number allows, in C order, since
# the product that follows rounds differently on a Fortran-order operand;
# an identity weighting hands the block back unchanged
@pytest.mark.parametrize("kind", SOLVE_KINDS)
@pytest.mark.parametrize("r", range(1, 7))
def test_solve_kernel_matches_scipy(kind, r):
    rng = np.random.default_rng([r, SOLVE_KINDS.index(kind)])
    a = solve_matrix(kind, r, rng)
    cond = np.linalg.cond(a)
    for k in (1, 2, 7, 45):
        b = rng.standard_normal((r, k)) * 10.0 ** rng.integers(-3, 4, (r, 1))
        b[rng.random((r, k)) < 0.2] = -0.0
        want = scipy.linalg.solve(a, b)
        got = np.linalg.solve(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.flags.c_contiguous
        bound = 4 * r * numkernel.EPS * cond * np.linalg.norm(want, axis=0)
        assert (np.linalg.norm(got - want, axis=0) <= bound).all()
        if kind == "identity":
            assert np.array_equal(got, b)


@pytest.mark.parametrize(
    "a",
    [
        np.zeros((1, 1)),
        np.zeros((3, 3)),
        np.diag([1.0, 0.0, 2.0]),
        np.array([[1.0, 2.0], [2.0, 4.0]]),
        np.array([[1.0, 2.0], [3.0, 6.0]]),
        np.triu(np.ones((4, 4))) - np.diag([0.0, 0.0, 1.0, 0.0]),
        np.diag([1.0, 1.0, 0.0, 0.0]) + np.diag([1.0, 1.0, 1.0], 1) + np.diag([1.0, 0.0, 0.0], -1),
    ],
    ids=["1x1", "zero", "diagonal", "symmetric", "general", "triangular", "tridiagonal"],
)
def test_solve_kernel_raises_scipys_error_on_a_singular_matrix(a):
    b = np.ones((a.shape[0], 3))
    with pytest.raises(np.linalg.LinAlgError):
        scipy.linalg.solve(a, b)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a, b)


def lapack_names():
    """Every routine name numkernel binds through _lapack, read from its
    source."""
    names = set()
    for node in ast.walk(ast.parse(pathlib.Path(numkernel.__file__).read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_lapack":
            names.update(ast.literal_eval(node.args[0]))
    return sorted(names)


# each bound routine is the very object scipy.linalg.lapack hands out,
# whichever of scipy.linalg and rmfact is imported first, and also when
# the compiled module cannot be loaded from its file
BINDING_PROBE = """
import importlib.util, json, sys
names, order = json.loads(sys.argv[1]), sys.argv[2]
if order == "no-file":
    load = importlib.util.module_from_spec
    def refuse(spec):
        if spec.name.startswith("scipy.linalg._flapack"):
            raise ImportError("refused")
        return load(spec)
    importlib.util.module_from_spec = refuse
if order == "scipy-first":
    import scipy.linalg.lapack
import numpy as np
from rmfact import numkernel
linalg_loaded = "scipy.linalg" in sys.modules
from scipy.linalg.lapack import get_lapack_funcs
# only svd binds complex routines
differ = [
    (name, np.dtype(dtype).name)
    for name in names
    for dtype in ((np.float64, np.complex128) if name.startswith("gesdd") else (np.float64,))
    if numkernel._lapack((name,), dtype)[0] is not get_lapack_funcs((name,), dtype=dtype)[0]
]
differ += [
    ("gesdd ilp64=preferred", np.dtype(dtype).name)
    for dtype in (np.float64, np.complex128)
    if numkernel._lapack(("gesdd",), dtype, numkernel._flapack_64 or numkernel._flapack)[0]
    is not get_lapack_funcs(("gesdd",), dtype=dtype, ilp64="preferred")[0]
]
print(json.dumps({"linalg_loaded": linalg_loaded, "differ": differ}))
"""


@pytest.mark.parametrize("order", ["rmfact-first", "scipy-first", "no-file"])
def test_bindings_are_scipys_function_objects(order):
    names = lapack_names()
    assert {"gesdd", "gerqf", "orgrq", "gges", "tgsen", "getrf"} <= set(names)
    src = str(pathlib.Path(numkernel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", BINDING_PROBE, json.dumps(names), order],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    report = json.loads(done.stdout)
    assert report["differ"] == []
    # the file load leaves the scipy.linalg package unimported; its
    # failure falls back to scipy.linalg.lapack
    assert report["linalg_loaded"] == (order != "rmfact-first")


# numkernel finds the wrapper modules without running the scipy package
# and binds _flapack_64 where its file exists; a later import of
# scipy.linalg.lapack, which reads the ILP64 flag of scipy's build
# record, shares both module objects
MODULE_PROBE = """
import json, sys
from rmfact import numkernel
scipy_loaded = "scipy" in sys.modules
from scipy.linalg import lapack
print(json.dumps({
    "scipy_loaded": scipy_loaded,
    "flapack": numkernel._flapack is lapack._flapack,
    "flapack_64": numkernel._flapack_64 is lapack._flapack_64,
    "ilp64": lapack.HAS_ILP64,
    "none_64": numkernel._flapack_64 is None,
}))
"""


def test_wrapper_modules_are_scipys_without_its_build_record():
    src = str(pathlib.Path(numkernel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", MODULE_PROBE], env=env, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(done.stdout)
    assert report["scipy_loaded"] is False
    assert report["flapack"] is True and report["flapack_64"] is True
    assert report["none_64"] is not report["ilp64"]


# a pair whose QZ iteration failed is not in Schur form: reordering it
# would go on from garbage, so the ordered QZ raises as the unordered does
def test_failed_qz_iteration_is_an_error(monkeypatch):
    A, B = kernel_matrix((4, 4), float, 1), kernel_matrix((4, 4), float, 2)
    monkeypatch.setattr(numkernel, "_lapack", failing_gges(numkernel._lapack))
    for qz in (lambda: numkernel._ordered_qz(A, B, numkernel._left_half_plane), lambda: generalized_eigenvalues(A, B)):
        with pytest.raises(np.linalg.LinAlgError, match="QZ iteration failed: gges info 1"):
            qz()


# every entry point whose work reaches a QZ iteration
QZ_ENTRY_POINTS = {
    "range_basis-none": lambda g: range_basis(g),
    "range_basis-stable": lambda g: range_basis(g, gains="stable"),
    "poles": rmfact.poles,
    "zeros": rmfact.zeros,
    "structure": rmfact.structure,
    "kronecker_like_form": lambda g: rmfact.kronecker_like_form(g.A, g.e_matrix),
    "frf": rmfact.full_rank_factorize,
    "nrcf": rmfact.nrcf,
    "pinv": rmfact.pseudo_inverse,
    "iofac": rmfact.inner_outer,
}


# a failed LAPACK iteration reaches the caller as a package error (a
# StructureError), not as numpy's bare LinAlgError
@pytest.mark.parametrize("entry", list(QZ_ENTRY_POINTS))
def test_failed_qz_iteration_is_a_package_error(entry, monkeypatch):
    g = stable_rank2_continuous()
    monkeypatch.setattr(numkernel, "_lapack", failing_gges(numkernel._lapack))
    with pytest.raises(RmfactError, match="QZ iteration failed") as caught:
        QZ_ENTRY_POINTS[entry](g)
    assert isinstance(caught.value, StructureError)


def test_failed_qz_iteration_fails_the_inner_gains(monkeypatch):
    blocks = range_basis(stable_rank2_continuous(), gains="inner").sklf
    monkeypatch.setattr(numkernel, "_lapack", failing_gges(numkernel._lapack))
    with pytest.raises(FactorizationError, match="Riccati gain computation failed: QZ iteration failed: gges info 1"):
        inner_enforcing_gains(blocks)


def default_threshold(M):
    """The absolute rank threshold of the default tolerance for M."""
    return numkernel.DEFAULT_TOL.rank_threshold(np.linalg.norm(M, 2), max(M.shape))


def test_svd_identity():
    U, s, V, rank = thresholded_svd(np.eye(2), default_threshold(np.eye(2)))
    assert rank == 2
    assert np.allclose(s, [1.0, 1.0])


def test_svd_rank_one_gram():
    # sigma_1^2 = trace(M.T M) = 25 for the rank-1 matrix below
    M = np.array([[1.0, 2.0], [2.0, 4.0]])
    U, s, V, rank = thresholded_svd(M, default_threshold(M))
    assert rank == 1
    assert abs(s[0] - 5.0) < 1e-12
    assert s[1] < 1e-12
    assert np.linalg.norm(U @ np.diag(s) @ V.T - M) < 1e-12


def test_svd_zero_matrix():
    _, _, _, rank = thresholded_svd(np.zeros((3, 4)), 0.0)
    assert rank == 0


@pytest.mark.parametrize(
    "kwargs",
    [{"rank_rtol": -1.0}, {"rank_rtol": np.inf}, {"rank_rtol": np.nan}],
)
def test_tolerance_fields_must_be_finite_and_nonnegative(kwargs):
    with pytest.raises(InputError, match="finite and nonnegative"):
        ToleranceConfig(**kwargs)


def test_ordered_qz_select_leading():
    A = np.diag([1.0, 2.0])
    E = np.eye(2)
    S, T, alpha, beta, Q, Z = _ordered_qz(A, E, lambda a, b: np.abs(a / b) < 1.5)
    assert abs(alpha[0] / beta[0] - 1.0) < 1e-12
    assert np.linalg.norm(Q.T @ A @ Z - S) < 1e-12
    assert np.linalg.norm(Q.T @ E @ Z - T) < 1e-12


def test_ordered_qz_infinite_eigenvalue():
    A = np.eye(2)
    E = np.diag([1.0, 0.0])
    _, _, alpha, beta, _, _ = _ordered_qz(A, E, lambda a, b: b > 0.5)
    finite = [a / b for a, b in zip(alpha, beta) if b > 1e-12]
    infinite = [1 for b in beta if b <= 1e-12]
    assert len(finite) == 1 and abs(finite[0] - 1.0) < 1e-12
    assert len(infinite) == 1
    # the infinity rule agrees, whatever the scale of the pencil
    for scale in (1e-8, 1.0, 1e8):
        pairs = generalized_eigenvalues(scale * A, scale * E)
        assert sorted(is_infinite(a, b) for a, b in pairs) == [False, True]


def test_is_infinite_is_relative_and_sign_blind():
    for scale in (1e-12, 1.0, 1e12):
        for alpha in (scale, -scale, 0.6j * scale + 0.8 * scale):
            assert is_infinite(alpha, 0.0)
            assert is_infinite(alpha, 1e-13 * scale) and is_infinite(-alpha, -1e-13 * scale)
            assert not is_infinite(alpha, 1e-10 * scale)
            assert not is_infinite(-alpha, -1e-10 * scale)
    assert not is_infinite(0.0, 1e-300)


def assert_staircase_form(A, E, B, Q, Z, k):
    """Q, Z orthogonal, Q.T B zero below row k, and Q.T (A - lambda E) Z
    zero below row k in its leading k columns, to the default rank
    threshold, the noise floor."""
    n = A.shape[0]
    floor = numkernel.DEFAULT_TOL.rank_threshold(max(np.linalg.norm(A), np.linalg.norm(E), np.linalg.norm(B)), n)
    for M in (Q, Z):
        assert np.linalg.norm(M.T @ M - np.eye(n)) < 1e-13 * n
    assert np.linalg.norm((Q.T @ B)[k:]) <= floor
    assert np.linalg.norm((Q.T @ A @ Z)[k:, :k]) <= floor
    assert np.linalg.norm((Q.T @ E @ Z)[k:, :k]) <= floor


def test_staircase_isolates_uncontrollable_finite_eigenvalues():
    # Q0 [[A11, A12], [0, A22]] Z0 - lambda Q0 [[E11, E12], [0, I]] Z0
    # with input Q0 [B1; 0]: the eigenvalues of A22 are uncontrollable
    rng = np.random.default_rng(3)
    planted = np.array([-0.5, 2.0, 3.0])
    A22 = np.triu(rng.standard_normal((3, 3)), 1) + np.diag(planted)
    A = np.block([[rng.standard_normal((4, 4)), rng.standard_normal((4, 3))], [np.zeros((3, 4)), A22]])
    E = np.block([[rng.standard_normal((4, 4)), rng.standard_normal((4, 3))], [np.zeros((3, 4)), np.eye(3)]])
    B = np.vstack([rng.standard_normal((4, 2)), np.zeros((3, 2))])
    Q0 = np.linalg.qr(rng.standard_normal((7, 7)))[0]
    Z0 = np.linalg.qr(rng.standard_normal((7, 7)))[0]
    A, E, B = Q0 @ A @ Z0, Q0 @ E @ Z0, Q0 @ B
    Q, Z, k = controllability_staircase(A, E, B, 1e-12)
    assert k == 4
    assert_staircase_form(A, E, B, Q, Z, k)
    trailing = generalized_eigenvalues((Q.T @ A @ Z)[k:, k:], (Q.T @ E @ Z)[k:, k:])
    assert np.allclose(sorted((a / b).real for a, b in trailing), planted)


def test_staircase_with_identity_e_is_a_similarity():
    # a single input and an uncontrollable block planted by a similarity
    rng = np.random.default_rng(4)
    n1 = 5
    Q0 = np.linalg.qr(rng.standard_normal((7, 7)))[0]
    A = Q0 @ scipy.linalg.block_diag(rng.standard_normal((n1, n1)), np.diag([1.5, -2.0])) @ Q0.T
    B = Q0 @ np.vstack([rng.standard_normal((n1, 1)), np.zeros((2, 1))])
    Q, Z, k = controllability_staircase(A, None, B, 1e-12)
    assert k == n1 and Z is Q
    assert_staircase_form(A, np.eye(7), B, Q, Z, k)


def test_swapped_staircase_isolates_uncontrollable_infinite_eigenvalues():
    # a non-dynamic state driven by the others: the staircase on (A, E, B)
    # reaches every state, the one on the swapped pair (E, A, B) isolates
    # the infinite eigenvalue that [E B] does not reach
    rng = np.random.default_rng(5)
    n = 5
    A = rng.standard_normal((n, n))
    E = scipy.linalg.block_diag(rng.standard_normal((n - 1, n - 1)), np.zeros((1, 1)))
    B = np.vstack([rng.standard_normal((n - 1, 2)), np.zeros((1, 2))])
    Q0 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    Z0 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A, E, B = Q0 @ A @ Z0, Q0 @ E @ Z0, Q0 @ B
    assert controllability_staircase(A, E, B, 1e-12)[2] == n
    Q, Z, k = controllability_staircase(E, A, B, 1e-12)
    assert k == n - 1
    assert_staircase_form(E, A, B, Q, Z, k)
    (a, b), = generalized_eigenvalues((Q.T @ A @ Z)[k:, k:], (Q.T @ E @ Z)[k:, k:])
    assert is_infinite(a, b)


def test_staircase_empty_and_zero_input():
    A = np.random.default_rng(6).standard_normal((4, 4))
    for B in (np.zeros((4, 0)), np.zeros((4, 2))):
        for E in (None, np.eye(4)):
            Q, Z, k = controllability_staircase(A, E, B, 1e-12)
            assert k == 0 and np.array_equal(Q, np.eye(4)) and np.array_equal(Z, np.eye(4))
    Q, Z, k = controllability_staircase(np.zeros((0, 0)), None, np.zeros((0, 3)), 1e-12)
    assert k == 0 and Q.shape == Z.shape == (0, 0)


def test_row_scaling_moves_only_outlying_rows_by_powers_of_two():
    rng = np.random.default_rng(7)
    M = rng.uniform(0.6, 1.0, (6, 4))
    assert np.array_equal(numkernel.row_scaling(M), np.ones(6))
    M[1] *= 3e7
    M[4] *= 1e-5
    M[5] = 0.0
    d = numkernel.row_scaling(M)
    assert np.array_equal(d, 2.0 ** np.round(np.log2(d)))
    assert d[[0, 2, 3, 5]].tolist() == [1.0] * 4
    ratio = np.linalg.norm(d[:5, None] * M[:5], axis=1) / np.median(np.linalg.norm(M[:5], axis=1))
    assert np.all((ratio > 0.5) & (ratio < 2.0))


def test_ordered_qz_hand_eigenvalues():
    # companion matrix of lambda^2 + 3 lambda + 2 = (lambda+1)(lambda+2)
    A = np.array([[0.0, 1.0], [-2.0, -3.0]])
    _, _, alpha, beta, _, _ = _ordered_qz(A, np.eye(2), lambda a, b: np.zeros_like(np.asarray(a), dtype=bool))
    eigs = sorted((a / b).real for a, b in zip(alpha, beta))
    assert np.allclose(eigs, [-2.0, -1.0], atol=1e-12)


def test_decomposition_invariants_random():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        m = rng.integers(1, 21)
        n = rng.integers(1, 21)
        M = rng.standard_normal((m, n))
        U, s, V, rank = thresholded_svd(M, default_threshold(M))
        assert np.linalg.norm(U.T @ U - np.eye(m)) < 1e-13 * max(1, m)
        assert np.linalg.norm(V.T @ V - np.eye(n)) < 1e-13 * max(1, n)
        S = np.zeros((m, n))
        S[: len(s), : len(s)] = np.diag(s)
        assert np.linalg.norm(U @ S @ V.T - M) < 1e-11 * max(1.0, np.linalg.norm(M))
        # a random Gaussian matrix has full rank
        assert rank == min(m, n)


def test_reordering_preserves_eigenvalue_multiset():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = rng.integers(2, 9)
        A = rng.standard_normal((n, n))
        E = rng.standard_normal((n, n))
        base = generalized_eigenvalues(A, E)
        _, _, alpha, beta, _, _ = _ordered_qz(A, E, lambda a, b: np.abs(a) < np.abs(b))
        reordered = list(zip(alpha, beta))
        for pairs in (base, reordered):
            assert all(b >= 0 for _, b in pairs)

        def key(pairs):
            fin = sorted(
                (complex(a / b) for a, b in pairs if b > 1e-9 * abs(a) + 1e-300),
                key=lambda z: (round(z.real, 6), round(z.imag, 6)),
            )
            ninf = sum(1 for a, b in pairs if not b > 1e-9 * abs(a) + 1e-300)
            return fin, ninf

        fin0, inf0 = key(base)
        fin1, inf1 = key(reordered)
        assert inf0 == inf1
        assert len(fin0) == len(fin1)
        for z0, z1 in zip(fin0, fin1):
            assert abs(z0 - z1) <= 1e-9 * max(1.0, abs(z0))
