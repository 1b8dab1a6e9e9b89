import numpy as np
import pytest

from rmfact import (
    FactorizationError,
    InputError,
    StructureError,
    all_finite_region,
    cofactor,
    evaluate,
    frequency_grid,
    inner_outer,
    irreducible_realization,
    make_dss,
    mcmillan_degree,
    normal_rank,
    poles,
    polynomial_rank2_discrete,
    random_nonpole_points,
    range_basis,
    region_none,
    stable_rank2_continuous,
    stability_region,
    stack_horizontal,
    zeros,
)
from rmfact.dss import identity_system
from rmfact.fact import gram_residual, product_residuals

from support import RELAXED, assert_multiset_close, pad_state, product_residual, random_system


def inner_defect(R, ts, count=32):
    worst = 0.0
    for s in frequency_grid(ts, count):
        v = evaluate(R, s)
        worst = max(worst, np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])))
    return worst


def test_example_one_minimal_basis():
    g = stable_rank2_continuous()
    rr = range_basis(g, region_none())
    assert normal_rank(rr.R) == 2
    assert mcmillan_degree(rr.R) == 1
    zl = zeros(rr.R)
    assert zl.finite == () and zl.infinite_multiplicities == ()


def test_example_one_bad_zeros_basis():
    g = stable_rank2_continuous()
    rr = range_basis(g)
    assert mcmillan_degree(rr.R) == 3
    assert_multiset_close(zeros(rr.R).finite, [1, 2])
    # proper basis: no infinite poles
    assert poles(rr.R).infinite_multiplicities == ()


def test_example_one_inner_basis():
    g = stable_rank2_continuous()
    rr = range_basis(g, gains="inner")
    assert_multiset_close(poles(rr.R).finite, [-1.0, -np.sqrt(3.0), -2.0], tol=1e-6)
    # an inner factor keeps the original unstable zeros; their mirror
    # images show up among the poles instead
    assert_multiset_close(zeros(rr.R).finite, [1.0, 2.0], tol=1e-6)
    assert inner_defect(rr.R, "continuous") <= 1e-8
    assert np.allclose(rr.W @ rr.W.T, rr.W.T @ rr.W)


def test_example_one_cofactor_matching():
    g = stable_rank2_continuous()
    rr = range_basis(g, region_none())
    X = cofactor(g, rr)
    assert mcmillan_degree(X) == 4
    mu = poles(rr.R).finite
    assert len(mu) == 1
    zl = zeros(X)
    assert sum(zl.infinite_multiplicities) == 1
    assert_multiset_close(zl.finite, [1.0, 2.0, mu[0]], tol=1e-6)
    pts = random_nonpole_points([g, rr.R, X], 16, np.random.default_rng(1))
    assert product_residual(g, rr.R, X, pts) <= 1e-8


def test_example_two_minimal_cofactor():
    g = polynomial_rank2_discrete()
    rr = range_basis(g, region_none())
    X = cofactor(g, rr)
    assert mcmillan_degree(X) == 2
    mu = poles(rr.R).finite
    assert len(mu) == 1
    assert_multiset_close(zeros(X).finite, [mu[0], 1.0], tol=1e-6)


def test_identity_input():
    g = identity_system(3, "continuous")
    rr = range_basis(g)
    assert np.allclose(rr.R.D, np.eye(3))
    assert np.allclose(rr.W, np.eye(3))
    assert rr.F.shape == (3, 0)
    X = cofactor(g, rr)
    assert np.allclose(evaluate(X, 0.7j), np.eye(3), atol=1e-12)


def test_constant_input():
    D = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    g = make_dss(np.zeros((0, 0)), None, np.zeros((0, 2)), np.zeros((3, 0)), D, "continuous")
    rr = range_basis(g)
    assert rr.R.n == 0
    X = cofactor(g, rr)
    assert np.linalg.norm(evaluate(g, 2.0) - rr.R.D @ evaluate(X, 2.0)) < 1e-12


def test_residual_over_option_combinations():
    rng = np.random.default_rng(42)
    inner_successes = 0
    for k in range(6):
        g = random_system(rng)
        pts = random_nonpole_points([g], 16, np.random.default_rng(100 + k))
        regions = (("none", region_none()), ("bad", stability_region(g.ts)), ("all", all_finite_region()))
        for policy, region in regions:
            for gains in ("none", "stable", "inner"):
                try:
                    rr = range_basis(g, region, gains)
                except (FactorizationError, StructureError):
                    assert gains == "inner" or policy != "bad"
                    continue
                X = cofactor(g, rr)
                assert product_residual(g, rr.R, X, pts) <= 1e-8
                if gains == "inner":
                    inner_successes += 1
                    assert inner_defect(rr.R, g.ts) <= 1e-8
    assert inner_successes >= 6


def test_rank_compatibility_random():
    # the basis spans the range: appending G adds no rank
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = random_system(rng)
        try:
            rr = range_basis(g)
        except StructureError:
            continue
        r = normal_rank(g)
        assert rr.sklf.r == r
        assert normal_rank(stack_horizontal(rr.R, g), RELAXED) == r


def test_stabilize_moves_poles():
    rng = np.random.default_rng(17)
    done = 0
    while done < 8:
        g = random_system(rng)
        try:
            rr = range_basis(g, gains="stable")
        except (StructureError, FactorizationError):
            continue
        done += 1
        assert np.allclose(rr.W, np.eye(rr.W.shape[0]))
        for lam in poles(rr.R).finite:
            if g.ts == "continuous":
                assert lam.real < 1e-8
            else:
                assert abs(lam) < 1.0 + 1e-8
        assert poles(rr.R).infinite_multiplicities == ()


def assert_riccati_failure_is_a_factorization_error(monkeypatch, gains, message):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr("rmfact.rangebasis.stabilizing_riccati", fail)
    rng = np.random.default_rng(17)
    for _ in range(50):
        try:
            range_basis(random_system(rng), gains=gains)
        except FactorizationError as exc:
            assert str(exc) == message
            return
        except StructureError:
            continue
    pytest.fail(f"no system needed a Riccati solve for gains={gains!r}")


RICCATI_FAILURE = "Riccati gain computation failed: forced (the trailing blocks must be stabilizable)"


def test_stabilizing_riccati_failure_is_a_factorization_error(monkeypatch):
    assert_riccati_failure_is_a_factorization_error(monkeypatch, "stable", RICCATI_FAILURE)


def test_inner_riccati_failure_is_a_factorization_error(monkeypatch):
    assert_riccati_failure_is_a_factorization_error(monkeypatch, "inner", RICCATI_FAILURE)


@pytest.mark.parametrize("ts", ["continuous", "discrete"])
def test_inner_basis_of_a_zero_matrix_is_empty(ts):
    # normal rank 0: the inner gains return before any solve
    g = make_dss([[0.5]], None, [[1.0, 0.0]], np.zeros((3, 1)), np.zeros((3, 2)), ts)
    rr = range_basis(g, gains="inner")
    assert (rr.R.p, rr.R.m) == (3, 0)
    assert rr.F.size == 0 and rr.W.size == 0
    Gi, Go = inner_outer(g)
    assert (Gi.p, Gi.m, Go.p, Go.m) == (3, 0, 0, 2)
    assert max(product_residuals(g, Gi, Go)) == 0.0


def test_inner_boundary_zero_rejected():
    # transfer function s/(s+1) with every zero kept in the basis: the
    # zero at the origin sits on the boundary, so no inner basis exists
    g = make_dss(
        np.array([[-1.0]]), None, np.array([[1.0]]),
        np.array([[-1.0]]), np.array([[1.0]]), "continuous",
    )
    with pytest.raises(FactorizationError):
        range_basis(g, all_finite_region(), "inner")


def _disabled(*args, **kwargs):
    raise AssertionError("the inner gains recomputed the zeros of the basis")


def test_inner_gains_read_zeros_from_splitting_form(monkeypatch):
    # the inner gains test the bad eigenvalues the splitting form
    # recorded: with no irreducible realization and no general KLF,
    # range_basis still returns the same gains
    rng = np.random.default_rng(2024)
    suite = [random_system(rng, n_max=8) for _ in range(3)]
    for g in (stable_rank2_continuous(), suite[2]):
        want = range_basis(g, gains="inner")
        assert want.sklf.bad_eigenvalues
        with monkeypatch.context() as mp:
            mp.setattr("rmfact.dss.irreducible_realization", _disabled)
            mp.setattr("rmfact.klf.kronecker_like_form", _disabled)
            got = range_basis(g, gains="inner")
        assert np.array_equal(got.F, want.F)
        assert np.array_equal(got.W, want.W)
    assert g.ts == "discrete"


def test_inner_pinned_infinite_zero_rejected():
    # keeping the infinite zero of 1/(s+1) in the basis pins a zero
    # feedthrough, so a continuous inner basis cannot exist
    g = make_dss(
        np.array([[-1.0]]), None, np.array([[1.0]]),
        np.array([[1.0]]), np.array([[0.0]]), "continuous",
    )
    with pytest.raises(FactorizationError):
        range_basis(g, all_finite_region(), "inner")
    # once the infinite zero may be absorbed, the inner basis exists
    rr = range_basis(g, gains="inner")
    assert inner_defect(rr.R, "continuous") <= 1e-8


def test_stability_region_splits_zeros():
    # (s - 2)(s + 1) / ((s + 3)(s + 4)): the basis keeps the unstable zero
    # and leaves the stable one out, a split of the regular block
    g = make_dss([[0.0, 1.0], [-12.0, -7.0]], None, [[0.0], [1.0]], [[-14.0, -8.0]], [[1.0]], "continuous")
    rr = range_basis(g, region=stability_region(g.ts))
    assert_multiset_close(zeros(rr.R).finite, [2.0], tol=1e-6)
    assert mcmillan_degree(rr.R) == 1
    assert rr.sklf.n_rg == rr.sklf.n_bl == 1


def test_options_validation():
    g = stable_rank2_continuous()
    with pytest.raises(InputError, match="'none', 'stable', 'inner'"):
        range_basis(g, gains="everything")


@pytest.mark.parametrize("gains", ["none", "stable"])
def test_cofactor_with_identity_weighting_is_the_block_itself(gains):
    # W = I: the solve of W X = [0, -F, I, 0] returns the block's values,
    # so the cofactor's output rows are the block times Z.T exactly
    rng = np.random.default_rng(2024)
    systems = [stable_rank2_continuous(), polynomial_rank2_discrete()]
    systems += [random_system(rng, n_max=8) for _ in range(20)]
    checked = 0
    for g in systems:
        try:
            rr = range_basis(g, gains=gains)
        except (StructureError, FactorizationError):
            continue
        sk = rr.sklf
        assert np.array_equal(rr.W, np.eye(sk.r))
        block = np.hstack([np.zeros((sk.r, sk.c1)), -rr.F, np.eye(sk.r), np.zeros((sk.r, sk.m_n))])
        CD = block @ sk.Z.T
        X = cofactor(g, rr)
        assert np.array_equal(X.C, CD[:, :g.n]) and np.array_equal(X.D, CD[:, g.n:])
        checked += 1
    assert checked >= 20


def test_cofactor_provenance_mismatch():
    g = stable_rank2_continuous()
    rr = range_basis(g)
    other = polynomial_rank2_discrete()
    with pytest.raises(InputError):
        cofactor(other, rr)


def test_prereduce_repairs_cancelling_mode():
    # unstable state that is neither controllable nor observable: the
    # raw realization fails the stabilizability test, the reduced one
    # passes
    g = make_dss(
        np.diag([-1.0, 3.0]), None,
        np.array([[1.0], [0.0]]),
        np.array([[1.0, 0.0]]),
        np.array([[1.0]]),
        "continuous",
    )
    with pytest.raises(StructureError):
        range_basis(g)
    red = irreducible_realization(g)
    rr = range_basis(red)
    assert normal_rank(rr.R) == 1
    assert normal_rank(stack_horizontal(rr.R, g), RELAXED) == 1
    # the cofactor pairs with the reduced realization the result came from
    X = cofactor(red, rr)
    s = 1.3j
    assert np.linalg.norm(evaluate(g, s) - evaluate(rr.R, s) @ evaluate(X, s)) < 1e-10


def tall_with_uncontrollable_mode(rng, unstable):
    """A tall G (p > m) and its realization with one uncontrollable
    padded state (support.pad_state), unstable or stable. For tall G
    the splitting form for region_none keeps that state in its trailing
    blocks."""
    while True:
        g = random_system(rng)
        if g.p > g.m:
            break
    a = {("continuous", True): 0.7, ("discrete", True): 1.6, ("continuous", False): -0.7, ("discrete", False): 0.4}
    return g, pad_state(g, a[g.ts, unstable], 1.0, "uncontrollable", rng)


def test_gains_on_region_none_need_stabilizable_trailing_blocks():
    # the stabilizing and inner gains are solved on the whole trailing
    # block, so region_none is under the stabilizability assumption of
    # every other region: an unstable mode the input does not reach is
    # refused by name, the minimal realization of the same G is accepted,
    # and at the stability region special_klf's PBH check refuses first
    rng = np.random.default_rng(33)
    for _ in range(8):
        g, h = tall_with_uncontrollable_mode(rng, unstable=True)
        for gains in ("inner", "stable"):
            with pytest.raises(FactorizationError, match=r"\(the trailing blocks must be stabilizable\)"):
                range_basis(h, region_none(), gains)
        rr = range_basis(irreducible_realization(g), region_none(), "inner")
        assert gram_residual([rr.R]) <= 1e-7
        with pytest.raises(StructureError, match="not stabilizable"):
            range_basis(h, stability_region(h.ts), "inner")
    # a stable mode the input does not reach needs no feedback
    for _ in range(8):
        g, h = tall_with_uncontrollable_mode(rng, unstable=False)
        for gains in ("inner", "stable"):
            rr = range_basis(h, region_none(), gains)
            assert max(product_residuals(h, rr.R, cofactor(h, rr))) <= 1e-7
        assert gram_residual([range_basis(h, region_none(), "inner").R]) <= 1e-7
