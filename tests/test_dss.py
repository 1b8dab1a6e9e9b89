import dataclasses
import random
import warnings

import numpy as np
import pytest
import scipy.linalg

import rmfact.dss
import rmfact.klf
from rmfact import (
    EvaluationError,
    InputError,
    Structure,
    StructureError,
    ToleranceConfig,
    conjugate,
    evaluate,
    frequency_grid,
    full_rank_factorize,
    irreducible_realization,
    make_dss,
    mcmillan_degree,
    normal_rank,
    poles,
    polynomial_rank2_discrete,
    product_residuals,
    random_nonpole_points,
    series,
    stable_rank2_continuous,
    stack_horizontal,
    stack_vertical,
    structure,
    transpose,
    write_system_file,
    zeros,
)
from rmfact.dss import (
    EigenvalueList,
    _remove_nondynamic,
    _system,
    identity_system,
    nonpole_evaluations,
    system_pencil,
)
from rmfact.klf import kronecker_like_form
from rmfact.numkernel import DEFAULT_TOL

from support import (
    RELAXED,
    assert_multiset_close,
    improper_system,
    overflowing_pencil_system,
    random_system,
    rank_deficient_system,
    run_cli_json,
)


def test_example_one_structure():
    g = stable_rank2_continuous()
    assert normal_rank(g) == 2
    assert mcmillan_degree(g) == 4
    pl = poles(g)
    assert_multiset_close(pl.finite, [-1, -1, -2, -2])
    assert pl.infinite_multiplicities == ()
    zl = zeros(g)
    assert_multiset_close(zl.finite, [1, 2])
    assert sum(zl.infinite_multiplicities) == 1


def test_example_one_value_at_origin():
    g = stable_rank2_continuous()
    want = np.array([[-0.5, 0.0, 0.5], [0.0, -2.0, -2.0], [-0.5, -1.0, -0.5]])
    assert np.allclose(evaluate(g, 0.0), want, atol=1e-13)
    # constant rational column dependency: g1 - g2 + g3 = 0
    v = np.array([1.0, -1.0, 1.0])
    for s in (0.3, 1j, 2.5 - 0.4j):
        assert np.linalg.norm(evaluate(g, s) @ v) < 1e-12


def test_example_two_structure():
    g = polynomial_rank2_discrete()
    assert normal_rank(g) == 2
    pl = poles(g)
    assert pl.finite == ()
    assert sum(pl.infinite_multiplicities) == 2
    assert mcmillan_degree(g) == 2
    zl = zeros(g)
    assert_multiset_close(zl.finite, [1])
    assert sum(zl.infinite_multiplicities) == 0


def test_example_two_value():
    g = polynomial_rank2_discrete()
    want = np.array([[7.0, 24.0, 6.0], [2.0, 7.0, 2.0], [4.0, 14.0, 4.0]])
    assert np.allclose(evaluate(g, 2.0), want, atol=1e-12)


def test_evaluate_at_pole_raises():
    g = stable_rank2_continuous()
    with pytest.raises(EvaluationError):
        evaluate(g, -1.0)


@pytest.mark.parametrize("point", [np.inf, np.nan, complex(1.0, np.inf)])
def test_evaluate_at_nonfinite_point_is_input_error(point):
    static = make_dss(np.zeros((0, 0)), None, np.zeros((0, 2)), np.zeros((1, 0)), np.ones((1, 2)), "continuous")
    for g in (stable_rank2_continuous(), static):
        with pytest.raises(InputError, match="not finite"):
            evaluate(g, point)


def test_evaluate_where_the_pencil_overflows_is_input_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=r"evaluation point \(1e\+308\+0j\) overflows"):
            evaluate(overflowing_pencil_system(), 1e308)


def test_conjugate_continuous():
    # G~(s) = G(-s)^T for real realizations
    rng = np.random.default_rng(3)
    g = random_system(rng, ts="continuous")
    gc = conjugate(g)
    for s in random_nonpole_points([g, gc], 8, np.random.default_rng(4)):
        assert np.allclose(evaluate(gc, s), evaluate(g, -s).T, atol=1e-9)


def test_conjugate_discrete():
    # G~(z) = G(1/z)^T
    rng = np.random.default_rng(5)
    g = random_system(rng, ts="discrete", improper_prob=0.0)
    gc = conjugate(g)
    for z in random_nonpole_points([g, gc], 8, np.random.default_rng(6)):
        if abs(z) < 1e-3:
            continue
        assert np.allclose(evaluate(gc, z), evaluate(g, 1.0 / z).T, atol=1e-8)


def test_structural_operations_match_evaluation():
    rng = np.random.default_rng(7)
    for _ in range(5):
        ts = "continuous" if rng.random() < 0.5 else "discrete"
        g1 = random_system(rng, ts=ts, p_max=3, m_max=3)
        g2 = make_dss(
            rng.standard_normal((2, 2)),
            None,
            rng.standard_normal((2, g1.m)),
            rng.standard_normal((g1.p, 2)),
            rng.standard_normal((g1.p, g1.m)),
            ts,
        )
        g3 = make_dss(
            rng.standard_normal((2, 2)),
            None,
            rng.standard_normal((2, g1.p)),
            rng.standard_normal((2, 2)),
            rng.standard_normal((2, g1.p)),
            ts,
        )
        pts = random_nonpole_points([g1, g2, g3], 10, rng)
        for s in pts:
            v1, v2 = evaluate(g1, s), evaluate(g2, s)
            assert np.allclose(evaluate(transpose(g1), s), v1.T, atol=1e-8)
            assert np.allclose(evaluate(stack_vertical(g1, g2), s), np.vstack([v1, v2]), atol=1e-8)
            assert np.allclose(evaluate(stack_horizontal(g1, g2), s), np.hstack([v1, v2]), atol=1e-8)
            assert np.allclose(evaluate(series(g3, g1), s), evaluate(g3, s) @ v1, atol=1e-8)


def test_structure_matches_separate_queries():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        g = random_system(rng, n_max=8)
        want = Structure(normal_rank(g), poles(g), zeros(g), mcmillan_degree(g))
        assert structure(g) == want


def test_identity_system_constant():
    g = identity_system(3, "continuous")
    assert g.n == 0
    assert mcmillan_degree(g) == 0
    assert np.allclose(evaluate(g, 1.7j), np.eye(3))


def test_orthogonal_state_similarity_invariance():
    # x -> Q x leaves the transfer function untouched
    rng = np.random.default_rng(11)
    for _ in range(6):
        g = random_system(rng)
        Q = np.linalg.qr(rng.standard_normal((g.n, g.n)))[0]
        h = make_dss(
            Q @ g.A @ Q.T,
            Q @ g.e_matrix @ Q.T,
            Q @ g.B,
            g.C @ Q.T,
            g.D,
            g.ts,
        )
        p0, p1 = poles(g), poles(h)
        assert_multiset_close(p1.finite, p0.finite, tol=1e-6)
        assert sum(p1.infinite_multiplicities) == sum(p0.infinite_multiplicities)
        z0, z1 = zeros(g), zeros(h)
        assert_multiset_close(z1.finite, z0.finite, tol=1e-6)
        assert sum(z1.infinite_multiplicities) == sum(z0.infinite_multiplicities)


def test_irreducible_strips_padding():
    g = stable_rank2_continuous()
    n = g.n
    # append one uncontrollable and one unobservable stable state
    A = np.zeros((n + 2, n + 2))
    A[:n, :n] = g.A
    A[n, n] = -3.0
    A[n + 1, n + 1] = -4.0
    B = np.vstack([g.B, np.zeros((1, 3)), np.ones((1, 3))])
    C = np.hstack([g.C, np.ones((3, 1)), np.zeros((3, 1))])
    padded = make_dss(A, None, B, C, g.D, "continuous")
    red = irreducible_realization(padded)
    assert red.n == n
    for s in (0.5, 1j, -0.3 + 2j):
        assert np.allclose(evaluate(red, s), evaluate(g, s), atol=1e-10)
    assert mcmillan_degree(padded) == n


# (A, E) of a padding block, and whether the input reaches it and the
# output sees it
PADDINGS = {
    "uncontrollable infinite Jordan block": (np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), False, True),
    "unobservable infinite Jordan block": (np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), True, False),
    "uncontrollable non-dynamic state": (np.eye(1), np.zeros((1, 1)), False, True),
    "uncontrollable finite mode": (0.7 * np.eye(1), np.eye(1), False, True),
    "unobservable finite mode": (0.7 * np.eye(1), np.eye(1), True, False),
}


def padded(g, block, rng):
    """g with the padding block appended, under a random orthogonal
    state similarity."""
    A_p, E_p, reached, seen = block
    k = A_p.shape[0]
    A = scipy.linalg.block_diag(g.A, A_p)
    E = scipy.linalg.block_diag(g.e_matrix, E_p)
    B = np.vstack([g.B, rng.standard_normal((k, g.m)) if reached else np.zeros((k, g.m))])
    C = np.hstack([g.C, rng.standard_normal((g.p, k)) if seen else np.zeros((g.p, k))])
    Q = np.linalg.qr(rng.standard_normal((g.n + k, g.n + k)))[0]
    return make_dss(Q @ A @ Q.T, Q @ E @ Q.T, Q @ B, C @ Q.T, g.D, g.ts)


@pytest.mark.parametrize("padding", list(PADDINGS))
def test_padding_leaves_realization_order_and_structure(padding):
    rng = np.random.default_rng(2024)
    systems = [stable_rank2_continuous(), polynomial_rank2_discrete()]
    systems += [random_system(rng, n_max=8) for _ in range(20)]
    for g in systems:
        h = padded(g, PADDINGS[padding], rng)
        red_g, red_h = irreducible_realization(g), irreducible_realization(h)
        assert red_h.n == red_g.n
        # one pass reaches the fixed point
        assert irreducible_realization(red_g).n == red_g.n
        assert irreducible_realization(red_h).n == red_h.n
        want, got = structure(g), structure(h)
        assert (got.normal_rank, got.mcmillan_degree) == (want.normal_rank, want.mcmillan_degree)
        assert normal_rank(h) == want.normal_rank
        for w, x in ((want.poles, got.poles), (want.zeros, got.zeros)):
            assert x.infinite_multiplicities == w.infinite_multiplicities
            assert_multiset_close(x.finite, w.finite, tol=1e-6)


def test_normal_rank_computes_no_eigenvalues(monkeypatch):
    # S(lambda) is polynomial, so the poles of G cannot move its rank:
    # the probe points need not avoid the eigenvalues of A - lambda*E
    rng = np.random.default_rng(2024)
    systems = [stable_rank2_continuous(), polynomial_rank2_discrete()]
    systems += [random_system(rng, n_max=8) for _ in range(20)]
    calls = []
    qz = rmfact.dss.generalized_eigenvalues

    def counting(*args):
        calls.append(args)
        return qz(*args)

    monkeypatch.setattr(rmfact.dss, "generalized_eigenvalues", counting)
    ranks = [normal_rank(g) for g in systems]
    assert calls == []
    assert ranks == [2, 2] + [min(g.p, g.m) for g in systems[2:]]


def test_normal_rank_of_fast_pole():
    # s/(s+1e8): at unit scale det S(z) = -z is buried under the
    # threshold set by the 1e8 entries
    g = make_dss(np.array([[-1e8]]), None, np.array([[1.0]]), np.array([[-1e8]]), np.array([[1.0]]), "continuous")
    assert normal_rank(g) == 1


def test_irreducible_removes_nondynamic_modes():
    # E = 0, A invertible: the state contributes a constant -C A^{-1} B
    g = make_dss(
        np.array([[2.0]]),
        np.array([[0.0]]),
        np.array([[1.0]]),
        np.array([[4.0]]),
        np.array([[1.0]]),
        "continuous",
    )
    red = irreducible_realization(g)
    assert red.n == 0
    assert np.allclose(red.D, [[-1.0]])
    assert np.allclose(evaluate(g, 0.7), [[-1.0]])


def test_normal_rank_of_series_product():
    rng = np.random.default_rng(13)
    for _ in range(4):
        g = rank_deficient_system(rng, inner_dim=1, p=3, m=3)
        assert normal_rank(g, RELAXED) == 1
    g = rank_deficient_system(rng, inner_dim=2, p=4, m=3)
    assert normal_rank(g, RELAXED) == 2


def test_random_nonpole_points_deterministic_and_clear_of_poles():
    g = stable_rank2_continuous()
    pts1 = random_nonpole_points([g], 12, np.random.default_rng(0))
    pts2 = random_nonpole_points([g], 12, np.random.default_rng(0))
    assert pts1 == pts2
    for s in pts1:
        assert min(abs(s - p) for p in (-1.0, -2.0)) > 1e-6
        evaluate(g, s)


def test_nonpole_evaluations_raise_only_on_an_exhausted_budget():
    # a singular pencil: every sampled point is a pole to working precision
    g = make_dss(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)), "continuous")
    with pytest.raises(EvaluationError, match="attempt budget"):
        nonpole_evaluations([g], 4, np.random.default_rng(0))
    with pytest.raises(EvaluationError, match="attempt budget"):
        random_nonpole_points([g], 4, np.random.default_rng(0))


def test_random_points_redraw_where_a_listed_system_does_not_evaluate(monkeypatch):
    # the points are G's draws in order, less those at which another
    # listed system does not evaluate
    g = stable_rank2_continuous()
    h = transpose(g)
    draws = random_nonpole_points([g], 40, np.random.default_rng(1))
    evaluate = rmfact.dss.evaluate

    def refusing(sys, z):
        if sys is h and z.real < 0:
            raise EvaluationError(f"evaluation point {z} is a pole to working precision")
        return evaluate(sys, z)

    monkeypatch.setattr(rmfact.dss, "evaluate", refusing)
    kept = [z for z in draws if z.real >= 0][:8]
    assert len(kept) == 8 and kept != draws[:8]
    assert random_nonpole_points([g, h], 8, np.random.default_rng(1)) == kept


def test_random_points_follow_the_first_system_alone():
    # h realizes G under the state scaling diag(1e-3, ..., 1e3): its
    # ||A||/||E|| is far from G's, yet it evaluates at every point drawn
    # on G's scale, so listing it moves no point
    g = random_system(np.random.default_rng(3), ts="continuous", n_max=6, improper_prob=0.0)
    assert g.n > 2
    d = np.logspace(-3.0, 3.0, g.n)
    h = make_dss(g.A * d[None, :] / d[:, None], None, g.B / d[:, None], g.C * d[None, :], g.D, g.ts)
    assert np.linalg.norm(h.A, "fro") > 1e3 * np.linalg.norm(g.A, "fro")
    listed = random_nonpole_points([g, h], 12, np.random.default_rng(2))
    assert listed == random_nonpole_points([g], 12, np.random.default_rng(2))
    assert listed != random_nonpole_points([h], 12, np.random.default_rng(2))


# the one random-point rule draws each point's real and then imaginary
# part from the caller's generator: standard_normal() of a numpy
# Generator, the draws of perfbench's checks and of the tests, or
# gauss(0, 1) of a random.Random, the package's own default
POINT_SYSTEMS = {"standard": stable_rank2_continuous, "improper": polynomial_rank2_discrete}
GENERATORS = {
    "numpy": (np.random.default_rng, lambda rng: rng.standard_normal()),
    "stdlib": (random.Random, lambda rng: rng.gauss(0.0, 1.0)),
}


def hand_drawn_points(g, draw, count):
    norm_e = np.linalg.norm(g.e_matrix, "fro")
    radius = max(1.0, np.linalg.norm(g.A, "fro") / norm_e)
    return [complex(draw(), draw()) * radius for _ in range(count)]


@pytest.mark.parametrize("generator", list(GENERATORS))
@pytest.mark.parametrize("name", list(POINT_SYSTEMS))
def test_random_points_are_the_generators_draws(name, generator):
    g = POINT_SYSTEMS[name]()
    make, draw = GENERATORS[generator]
    rng = make(11)
    want = hand_drawn_points(g, lambda: draw(rng), 8)
    assert random_nonpole_points([g], 8, make(11)) == want
    values = nonpole_evaluations([g], 8, make(11))
    assert all(np.array_equal(v, evaluate(g, z)) for (v,), z in zip(values, want))
    L, R = full_rank_factorize(g)
    by_hand = []
    for z in want:
        Gz = evaluate(g, z)
        by_hand.append(np.linalg.norm(Gz - evaluate(L, z) @ evaluate(R, z), "fro") / (1.0 + np.linalg.norm(Gz, "fro")))
    assert product_residuals(g, L, R, 8, make(11)) == by_hand


def test_stdlib_points_repeat_for_a_seed_and_default_to_seed_0():
    g = stable_rank2_continuous()
    pts = random_nonpole_points([g], 12, random.Random(5))
    assert pts == random_nonpole_points([g], 12, random.Random(5))
    assert pts != random_nonpole_points([g], 12, random.Random(6))
    assert random_nonpole_points([g], 12) == random_nonpole_points([g], 12, random.Random(0))


def test_frequency_grid_layout():
    cont = frequency_grid("continuous", 16)
    assert len(cont) == 16
    assert all(abs(s.real) == 0.0 for s in cont)
    disc = frequency_grid("discrete", 16)
    assert all(abs(abs(z) - 1.0) < 1e-14 for z in disc)
    assert all(z.imag != 0.0 for z in disc)


def test_make_dss_validation():
    A = np.eye(2)
    with pytest.raises(InputError):
        make_dss(A, None, np.ones((3, 1)), np.ones((1, 2)), np.ones((1, 1)), "continuous")
    with pytest.raises(InputError):
        make_dss(A, np.eye(3), np.ones((2, 1)), np.ones((1, 2)), np.ones((1, 1)), "continuous")
    with pytest.raises(InputError):
        make_dss(A, None, np.ones((2, 1)), np.ones((1, 2)), np.ones((1, 1)), "sampled")
    with pytest.raises(InputError):
        make_dss(np.array([[np.inf, 0], [0, 1]]), None, np.ones((2, 1)), np.ones((1, 2)), np.ones((1, 1)), "continuous")


@pytest.mark.parametrize(
    "matrices, message",
    [
        ((np.ones((2, 3)), None, np.ones((2, 1)), np.ones((1, 2)), 0.0), r"A must be square, got shape \(2, 3\)"),
        ((np.ones(2), None, np.ones((2, 1)), np.ones((1, 2)), 0.0), r"A must be two-dimensional, got shape \(2,\)"),
        ((np.eye(2), None, np.ones((3, 1)), np.ones((1, 2)), 0.0), r"B must have shape \(2, any\), got \(3, 1\)"),
        ((np.eye(2), None, np.ones(2), np.ones((1, 2)), 0.0), r"B must be two-dimensional, got shape \(2,\)"),
        ((np.eye(2), None, np.ones((2, 1)), np.ones((1, 3)), 0.0), r"C must have shape \(any, 2\), got \(1, 3\)"),
        ((np.eye(2), None, np.ones((2, 1)), np.ones((1, 2)), np.ones((2, 1))), r"D must have shape \(1, 1\), got \(2, 1\)"),
        ((np.eye(2), np.eye(3), np.ones((2, 1)), np.ones((1, 2)), 0.0), r"E must have shape \(2, 2\), got \(3, 3\)"),
        ((np.eye(2), None, np.ones((2, 1)), np.ones((1, 2)), np.nan), "D contains non-finite entries"),
    ],
)
def test_make_dss_names_the_matrix_and_its_shape(matrices, message):
    with pytest.raises(InputError, match=message):
        make_dss(*matrices, "continuous")


def test_make_dss_reads_scalars_as_1x1_and_identity_e_as_none():
    g = make_dss(-1.0, np.eye(1), 2.0, 3, 0, "discrete")
    assert g.E is None and (g.n, g.m, g.p) == (1, 1, 1)
    assert [M.tolist() for M in (g.A, g.B, g.C, g.D)] == [[[-1.0]], [[2.0]], [[3.0]], [[0.0]]]
    assert all(M.dtype == float and not M.flags.writeable for M in (g.A, g.B, g.C, g.D))
    h = make_dss(np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((1, 0)), np.ones((1, 2)), "continuous")
    assert h.E is None and (h.n, h.m, h.p) == (0, 2, 1)
    e = make_dss(np.eye(2), np.diag([1.0, 0.0]), np.ones((2, 1)), np.ones((1, 2)), 0.0, "continuous").E
    assert e is not None and not e.flags.writeable


def test_make_dss_copies_the_callers_arrays():
    A, E, B, C, D = np.diag([-1.0, -2.0]), np.diag([1.0, 0.0]), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1))
    g = make_dss(A, E, B, C, D, "continuous")
    for M in (A, E, B, C, D):
        assert M.flags.writeable
        M[0, 0] = 7.0
    assert [M.tolist() for M in (g.A, g.E, g.B, g.C, g.D)] == [
        [[-1.0, 0.0], [0.0, -2.0]], [[1.0, 0.0], [0.0, 0.0]], [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]]
    ]
    # the copy keeps the memory order, so later products round alike
    assert make_dss(A.T, None, C.T, B.T, D.T, "continuous").A.flags.f_contiguous


@pytest.mark.parametrize("name", "AEBCD")
def test_computed_realization_with_nonfinite_entries_is_a_structure_error(name):
    mats = dict(A=np.eye(2), E=np.diag([1.0, 0.0]), B=np.ones((2, 1)), C=np.ones((1, 2)), D=np.zeros((1, 1)))
    mats[name] = mats[name].copy()
    mats[name][-1, -1] = np.nan
    with pytest.raises(StructureError, match=f"computed realization has non-finite entries in {name}"):
        _system(*mats.values(), "continuous")


def huge_realization():
    """A, E, B, C, D of finite entries +-1e308: the sums of A, E and D
    overflow to inf and that of B to -inf, so their total is NaN; C's
    cancels to 0."""
    big = 1e308
    return dict(
        A=np.full((2, 2), big),
        E=np.array([[big, big], [-big, -big]]),
        B=np.full((2, 2), -big),
        C=np.array([[big, -big], [big, -big]]),
        D=np.full((2, 2), big),
    )


# _system tests finiteness by one sum per matrix; a sum that is not
# finite sends it, without a warning, to the entry test, which accepts
# finite entries and names the matrix that holds a non-finite one
def test_computed_realization_accepts_finite_entries_whose_sums_overflow():
    mats = huge_realization()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = _system(*(M.copy() for M in mats.values()), "discrete")
    for got, want in zip((g.A, g.E, g.B, g.C, g.D), mats.values()):
        assert np.array_equal(got, want) and not got.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", "AEBCD")
def test_computed_realization_names_the_matrix_with_a_non_finite_entry(name, bad):
    small = dict(A=np.eye(2), E=np.diag([1.0, 0.0]), B=np.ones((2, 2)), C=np.ones((2, 2)), D=np.zeros((2, 2)))
    for mats in (small, huge_realization()):
        mats[name] = mats[name].copy()
        mats[name][0, -1] = bad
        with pytest.raises(StructureError, match=f"computed realization has non-finite entries in {name}$"):
            _system(*mats.values(), "continuous")


def test_stacks_require_matching_ts():
    g1 = identity_system(2, "continuous")
    g2 = identity_system(2, "discrete")
    with pytest.raises(InputError):
        stack_vertical(g1, g2)


@pytest.mark.parametrize(
    "connect, message",
    [
        (stack_vertical, "vertical stacking requires equal input counts"),
        (stack_horizontal, "horizontal stacking requires equal output counts"),
        (series, "series connection requires inner dimensions to match"),
    ],
    ids=["stack_vertical", "stack_horizontal", "series"],
)
def test_connections_require_matching_dimensions(connect, message):
    g1 = identity_system(2, "continuous")
    g2 = identity_system(3, "continuous")
    with pytest.raises(InputError, match=message):
        connect(g1, g2)


# the parent constructions of the realization assembly, kept as the
# reference: later BLAS products round by the memory order of these
# arrays, so the assembly must keep both their values and their layout
def reference_series(g, h):
    A = np.block([[g.A, g.B @ h.C], [np.zeros((h.n, g.n)), h.A]])
    E = None if g.E is None and h.E is None else scipy.linalg.block_diag(g.e_matrix, h.e_matrix)
    return make_dss(A, E, np.vstack([g.B @ h.D, h.B]), np.hstack([g.C, g.D @ h.C]), g.D @ h.D, g.ts)


def reference_stack_vertical(g, h):
    E = None if g.E is None and h.E is None else scipy.linalg.block_diag(g.e_matrix, h.e_matrix)
    return make_dss(
        scipy.linalg.block_diag(g.A, h.A), E, np.vstack([g.B, h.B]),
        scipy.linalg.block_diag(g.C, h.C), np.vstack([g.D, h.D]), g.ts,
    )


def reference_stack_horizontal(g, h):
    E = None if g.E is None and h.E is None else scipy.linalg.block_diag(g.e_matrix, h.e_matrix)
    return make_dss(
        scipy.linalg.block_diag(g.A, h.A), E, scipy.linalg.block_diag(g.B, h.B),
        np.hstack([g.C, h.C]), np.hstack([g.D, h.D]), g.ts,
    )


def reference_conjugate(g):
    if g.ts == "continuous" or g.n == 0:
        return conjugate(g)
    n = g.n
    At = scipy.linalg.block_diag(g.e_matrix.T, np.eye(n))
    Et = np.block([[g.A.T, np.zeros((n, n))], [np.eye(n), np.zeros((n, n))]])
    Bt = np.vstack([-g.C.T, np.zeros((n, g.p))])
    Ct = np.hstack([np.zeros((g.m, n)), g.B.T])
    return _remove_nondynamic(make_dss(At, Et, Bt, Ct, g.D.T, g.ts), DEFAULT_TOL)


def assert_same_layout(got, want):
    """Equal bit for bit, zero signs included, in the same memory order."""
    if want is None:
        assert got is None
        return
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert (got.flags.c_contiguous, got.flags.f_contiguous) == (want.flags.c_contiguous, want.flags.f_contiguous)


def assert_same_realization(got, want):
    for name in ("A", "E", "B", "C", "D"):
        assert_same_layout(getattr(got, name), getattr(want, name))


def layout_variants(ts):
    """Two-input, two-output realizations whose matrices are F-ordered
    (built by transpose), strided views, or empty (no states). make_dss
    copies a strided view to a contiguous array, so the strided one is
    built as the reductions build theirs, by the private constructor."""
    rng = np.random.default_rng(5)
    A, E, B, C, D = (rng.standard_normal(shape) for shape in ((4, 4), (4, 4), (4, 2), (2, 4), (2, 2)))
    big = rng.standard_normal((12, 12))
    strided = big[:8:2, :8:2], big[1:8:2, 1:8:2], big[:8:2, -2:], big[-2:, :8:2], big[-2:, -2:]
    return [
        transpose(make_dss(A, None, B, C, D, ts)),
        transpose(make_dss(A, E, B, C, D, ts)),
        _system(*strided, ts),
        make_dss(np.zeros((0, 0)), None, np.zeros((0, 2)), np.zeros((2, 0)), D, ts),
    ]


@pytest.mark.parametrize("ts", ["continuous", "discrete"])
def test_assembly_keeps_the_block_constructions_layout(ts):
    systems = layout_variants(ts)
    assert systems[0].A.flags.f_contiguous and not systems[0].A.flags.c_contiguous
    assert not (systems[2].A.flags.c_contiguous or systems[2].A.flags.f_contiguous)
    for g in systems:
        M, _ = system_pencil(g)
        assert_same_layout(M, np.block([[g.A, g.B], [g.C, g.D]]))
        assert_same_realization(conjugate(g), reference_conjugate(g))
        for h in systems:
            assert_same_realization(series(g, h), reference_series(g, h))
            assert_same_realization(stack_vertical(g, h), reference_stack_vertical(g, h))
            assert_same_realization(stack_horizontal(g, h), reference_stack_horizontal(g, h))


# -- poles of a standard realization -------------------------------------------


def with_full_rank_e(g, rng):
    """g with E replaced by a random one whose singular values lie in
    [0.5, 2]: a realization every pole query reads by one QZ."""
    n = g.n
    q1, q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    return make_dss(g.A, q1 @ np.diag(rng.uniform(0.5, 2.0, n)) @ q2.T, g.B, g.C, g.D, g.ts)


def with_dependent_input(g, rng):
    """The square part of g (its first min(p, m) outputs and inputs)
    with one more input, a random combination of the others: a system
    pencil with right singular structure beside the finite zeros of the
    square part."""
    k = min(g.p, g.m)
    v = rng.standard_normal((k, 1))
    B, D = g.B[:, :k], g.D[:k, :k]
    return make_dss(g.A, g.E, np.hstack([B, B @ v]), g.C[:k], np.hstack([D, D @ v]), g.ts)


def klf_eigen_list(M, N) -> EigenvalueList:
    """The eigenvalue list of M - lambda*N read off the full
    kronecker_like_form, transformations and all."""
    res = kronecker_like_form(M, N)
    infinite = tuple(d - 1 for d in res.infinite_divisor_degrees if d > 1)
    return EigenvalueList(tuple(a / b for a, b in res.finite_eigenvalues), infinite)


@pytest.mark.parametrize("improper_prob", [0.0, 1.0])
def test_poles_equal_the_klf_route_bit_for_bit(improper_prob):
    # E None or of full rank takes one QZ without a Kronecker-like form;
    # the form it skips would hand the same pair to the same QZ call. A
    # singular E (an improper G) and every system pencil take the form's
    # eigenvalue-only route, whose rank decisions and regular block are
    # the full form's, with right singular structure beside finite zeros
    # too
    rng = np.random.default_rng(404)
    erng = np.random.default_rng(406)
    irng = np.random.default_rng(407)
    for _ in range(40):
        g = random_system(rng, n_max=8, improper_prob=improper_prob)
        for h in (g, with_full_rank_e(g, erng), with_dependent_input(g, erng), improper_system(irng)):
            red = irreducible_realization(h)
            pl = poles(h)
            assert pl == klf_eigen_list(red.A, red.e_matrix)
            assert zeros(h) == klf_eigen_list(*system_pencil(red))
            assert mcmillan_degree(h) == pl.total


def test_standard_realization_poles_skip_the_klf(monkeypatch):
    calls = []
    klf_core = rmfact.klf._klf_core

    def counting(*args):
        calls.append(args)
        return klf_core(*args)

    monkeypatch.setattr(rmfact.klf, "_klf_core", counting)
    rng = np.random.default_rng(405)
    erng = np.random.default_rng(406)
    for _ in range(20):
        g = random_system(rng, n_max=8, improper_prob=0.0)
        assert len(poles(g).finite) == mcmillan_degree(g) == irreducible_realization(g).n
        # E of full rank: one QZ of (A, E)
        h = with_full_rank_e(g, erng)
        assert irreducible_realization(h).E is not None
        assert len(poles(h).finite) == mcmillan_degree(h) == irreducible_realization(h).n
    assert calls == []
    # the zeros still come from the form of the system matrix pencil
    zeros(g)
    assert len(calls) == 1
    zeros(h)
    assert len(calls) == 2


def coarse_tolerance_system():
    # ||A||_F is about 12, so 0.1 ||A||_F ranks an identity E as zero
    rng = np.random.default_rng(1)
    A = 5 * rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 2))
    C = rng.standard_normal((2, 4))
    D = rng.standard_normal((2, 2))
    return make_dss(A, None, B, C, D, "continuous")


def test_coarse_tolerance_keeps_a_standard_realization():
    g = coarse_tolerance_system()
    tol = ToleranceConfig(rank_rtol=0.1)
    assert np.linalg.norm(g.A) > 10
    assert irreducible_realization(g, tol).n == 4
    assert mcmillan_degree(g, tol) == 4
    pl = poles(g, tol)
    assert len(pl.finite) == 4 and pl.infinite_multiplicities == ()
    assert pl == poles(g)


def test_cli_info_at_a_coarse_tolerance_keeps_the_poles(tmp_path):
    path = tmp_path / "coarse.json"
    write_system_file(coarse_tolerance_system(), str(path))
    res = run_cli_json(["info", path, "--tol", "0.1"])["results"]
    assert res["mcmillan_degree"] == 4
    assert len(res["poles"]["finite"]) == 4 and res["poles"]["infinite"] == []


# -- one irreducible realization per realization and tolerance -----------------


def weakly_controllable_system():
    # the mode at -3 is reached through 1e-5 of B: rank_rtol=1e-3 cuts it
    B = np.array([[1.0], [1.0], [1e-5]])
    return make_dss(np.diag([-1.0, -2.0, -3.0]), None, B, np.ones((1, 3)), np.zeros((1, 1)), "continuous")


def assert_same_realization(got, want):
    assert got.ts == want.ts and (got.E is None) == (want.E is None)
    for name in "AEBCD":
        a, b = getattr(got, name), getattr(want, name)
        assert a is None or (a.shape == b.shape and a.tobytes() == b.tobytes())


def test_irreducible_realization_is_kept_per_tolerance():
    g = weakly_controllable_system()
    coarse = ToleranceConfig(rank_rtol=1e-3)
    red = irreducible_realization(g)
    assert irreducible_realization(g) is red
    assert irreducible_realization(g, ToleranceConfig()) is red
    cut = irreducible_realization(g, coarse)
    assert (red.n, cut.n) == (3, 2)
    assert irreducible_realization(g, coarse) is cut
    assert irreducible_realization(g) is red
    # a result is its own irreducible realization at its tolerance
    assert irreducible_realization(red) is red
    assert irreducible_realization(cut, coarse) is cut
    # each kept result is the one a fresh realization computes at its tolerance
    for tol, kept in ((DEFAULT_TOL, red), (coarse, cut)):
        fresh = make_dss(g.A, g.E, g.B, g.C, g.D, g.ts)
        assert_same_realization(kept, irreducible_realization(fresh, tol))


def test_a_copy_starts_without_the_kept_realization():
    g = weakly_controllable_system()
    irreducible_realization(g, ToleranceConfig(rank_rtol=1e-3))
    sk = rmfact.klf.special_klf(g, rmfact.klf.stability_region(g.ts))
    # the controllable and observable part, the irreducible realization
    # reduced from it, and the splitting form
    assert sorted(key[0] for key in g._kept) == ["irreducible", "part", "splitting"]
    copy = make_dss(g.A, g.E, g.B, g.C, g.D, g.ts)
    assert copy._kept == {}
    assert irreducible_realization(copy).n == 3
    assert rmfact.klf.special_klf(copy, rmfact.klf.stability_region(g.ts)) is not sk


def test_the_kept_realization_is_not_part_of_repr_or_equality():
    g = weakly_controllable_system()
    before = repr(g)
    irreducible_realization(g)
    rmfact.klf.special_klf(g, rmfact.klf.region_none())
    assert repr(g) == before and "_kept" not in before
    compared = [f.name for f in dataclasses.fields(g) if f.compare]
    assert compared == ["A", "E", "B", "C", "D", "ts"]


@pytest.mark.parametrize("standard", [True, False], ids=["E-none", "E-singular"])
def test_structure_queries_share_one_reduction(monkeypatch, standard):
    # a realization of the seeded suite (rng 2024, n_max 8) of each kind
    rng = np.random.default_rng(2024)
    g = next(s for s in (random_system(rng, n_max=8) for _ in range(20)) if (s.E is None) == standard)
    calls = []
    staircase = rmfact.dss.controllability_staircase

    def counting(*args):
        calls.append(args)
        return staircase(*args)

    monkeypatch.setattr(rmfact.dss, "controllability_staircase", counting)
    irreducible_realization(make_dss(g.A, g.E, g.B, g.C, g.D, g.ts))
    once = len(calls)
    assert once >= 2
    del calls[:]
    normal_rank(g), mcmillan_degree(g), poles(g), zeros(g)
    assert len(calls) == once
