import dataclasses
import random

import numpy as np
import pytest

import rmfact.dss
import rmfact.fact
import rmfact.klf
import rmfact.numkernel
import rmfact.rangebasis
from rmfact import (
    FactorizationError,
    FactorizationResult,
    InputError,
    RmfactError,
    Structure,
    StructureError,
    ToleranceConfig,
    classify_eigenvalue,
    conjugate,
    dual_full_rank_factorize,
    evaluate,
    frequency_grid,
    full_rank_factorize,
    gram_residual,
    inner_outer,
    irreducible_realization,
    make_dss,
    mcmillan_degree,
    normal_rank,
    nrcf,
    penrose_residuals,
    poles,
    polynomial_rank2_discrete,
    product_residuals,
    pseudo_inverse,
    random_nonpole_points,
    range_basis,
    region_none,
    stability_region,
    stable_rank2_continuous,
    structure,
    transpose,
    write_system_file,
    zeros,
)
from rmfact.dss import _controllable_observable_part, identity_system
from rmfact.fact import RESIDUAL_GRID
from rmfact.io import eigenvalues_to_json
from rmfact.numkernel import DEFAULT_TOL

from support import (
    assert_multiset_close,
    decoupling_reductions,
    improper_system,
    irreducible_reductions,
    moore_penrose_defects,
    pad_state,
    product_residual,
    random_system,
    rank_deficient_system,
    run_cli,
    run_cli_json,
    splitting_reductions,
    write_examples,
    zero_pole_balance,
)


def const_sys(D, ts="continuous"):
    D = np.asarray(D, dtype=float)
    p, m = D.shape
    return make_dss(np.zeros((0, 0)), None, np.zeros((0, m)), np.zeros((p, 0)), D, ts)


def scalar_sys(a, b, c, d, ts="continuous"):
    return make_dss(
        np.array([[float(a)]]), None, np.array([[float(b)]]),
        np.array([[float(c)]]), np.array([[float(d)]]), ts,
    )


def inner_defect(R, ts, count=32):
    worst = 0.0
    for s in frequency_grid(ts, count):
        v = evaluate(R, s)
        worst = max(worst, np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])))
    return worst


def test_gram_residual_matches_the_inner_defect_oracle():
    R = range_basis(stable_rank2_continuous(), gains="inner").R
    assert gram_residual([R]) == inner_defect(R, "continuous")


# -- full-rank factorization ----------------------------------------------------


def test_frf_constant_rank_one():
    G = np.array([[3.0, 4.0], [6.0, 8.0]])
    fr = full_rank_factorize(const_sys(G))
    assert structure(fr.left).normal_rank == 1
    assert fr.left.m == 1 and fr.right.p == 1
    assert np.linalg.norm(evaluate(fr.left, 0.3) @ evaluate(fr.right, 0.3) - G) < 1e-12
    # the factored column space agrees with the dominant singular vector
    u = np.linalg.svd(G)[0][:, :1]
    lv = evaluate(fr.left, 0.3).real
    lv = lv / np.linalg.norm(lv)
    assert min(np.linalg.norm(lv - u), np.linalg.norm(lv + u)) < 1e-12


def test_frf_zero_matrix():
    fr = full_rank_factorize(const_sys(np.zeros((2, 3))))
    assert structure(fr.left).normal_rank == 0
    assert fr.left.m == 0 and fr.right.p == 0
    assert np.allclose(evaluate(fr.left, 1.0) @ evaluate(fr.right, 1.0), np.zeros((2, 3)))


def test_frf_example_one():
    g = stable_rank2_continuous()
    fr = full_rank_factorize(g)
    assert structure(fr.left).normal_rank == 2
    assert mcmillan_degree(fr.left) == 3
    assert_multiset_close(zeros(fr.left).finite, [1, 2])
    assert max(product_residuals(g, fr.left, fr.right)) <= 1e-8
    pts = random_nonpole_points([g, fr.left, fr.right], 12, np.random.default_rng(5))
    assert product_residual(g, fr.left, fr.right, pts) <= 1e-9


def test_dual_factorization():
    g = stable_rank2_continuous()
    fr = dual_full_rank_factorize(g)
    # the right factor is a two-row basis of the row space
    assert fr.right.p == 2
    assert normal_rank(fr.right) == 2
    assert max(product_residuals(g, fr.left, fr.right)) <= 1e-8
    # dual of the transpose matches the primal of the original
    ft = full_rank_factorize(g)
    assert_multiset_close(
        zeros(fr.right).finite, zeros(ft.left).finite, tol=1e-8
    )


# -- normalized right coprime factorization --------------------------------------


def test_nrcf_scalar_unstable():
    # G = 1/(s-1); the normalized factors share the pole pair at -sqrt(2)
    g = scalar_sys(1.0, 1.0, 1.0, 0.0)
    N, M = nrcf(g)
    assert_multiset_close(poles(N).finite, [-np.sqrt(2.0)], tol=1e-8)
    assert_multiset_close(poles(M).finite, [-np.sqrt(2.0)], tol=1e-8)
    assert_multiset_close(zeros(M).finite, [1.0], tol=1e-8)
    worst = 0.0
    for s in frequency_grid("continuous", 32):
        nv, mv = evaluate(N, s), evaluate(M, s)
        worst = max(worst, abs(nv.conj().T @ nv + mv.conj().T @ mv - 1.0).max())
    assert worst <= 1e-8
    v = evaluate(N, 2.0) / evaluate(M, 2.0)
    assert abs(v - 1.0) < 1e-8


def test_nrcf_example_one():
    g = stable_rank2_continuous()
    N, M = nrcf(g)
    worst_id = 0.0
    for s in frequency_grid("continuous", 32):
        nv, mv = evaluate(N, s), evaluate(M, s)
        worst_id = max(
            worst_id,
            np.linalg.norm(nv.conj().T @ nv + mv.conj().T @ mv - np.eye(3)),
        )
    assert worst_id <= 1e-8
    for lam in list(poles(N).finite) + list(poles(M).finite):
        assert lam.real < 0
    # reconstruction away from the axis
    for s in (1.0 + 1j, 3.0, 0.5 - 2j):
        assert np.linalg.norm(
            evaluate(g, s) - evaluate(N, s) @ np.linalg.inv(evaluate(M, s))
        ) < 1e-9
    # coprimeness: the stacked factor keeps full column rank at bad points
    rng = np.random.default_rng(9)
    for _ in range(10):
        s = complex(abs(rng.standard_normal()) + 0.1, rng.standard_normal())
        st = np.vstack([evaluate(N, s), evaluate(M, s)])
        assert np.linalg.matrix_rank(st, tol=1e-8) == 3


def test_nrcf_zero_scalar():
    N, M = nrcf(const_sys([[0.0]]))
    assert abs(evaluate(N, 1.7j)) < 1e-12
    assert abs(abs(evaluate(M, 1.7j)) - 1.0) < 1e-12


def test_nrcf_boundary_pole_rejected():
    with pytest.raises(FactorizationError):
        nrcf(scalar_sys(0.0, 1.0, 1.0, 0.0))
    with pytest.raises(FactorizationError):
        nrcf(scalar_sys(1.0, 1.0, 1.0, 0.0, ts="discrete"))


# (A entry, E entry) of one padded state by system type, and the side
# on which it decouples; the finite ones are unstable or stable
PADDINGS = {
    "unstable unobservable": ({"continuous": 0.7, "discrete": 1.6}, 1.0, "unobservable"),
    "unstable uncontrollable": ({"continuous": 0.7, "discrete": 1.6}, 1.0, "uncontrollable"),
    "stable uncontrollable": ({"continuous": -0.7, "discrete": 0.4}, 1.0, "uncontrollable"),
    "stable unobservable": ({"continuous": -0.7, "discrete": 0.4}, 1.0, "unobservable"),
    "non-dynamic uncontrollable": ({"continuous": 1.0, "discrete": 1.0}, 0.0, "uncontrollable"),
    "non-dynamic unobservable": ({"continuous": 1.0, "discrete": 1.0}, 0.0, "unobservable"),
}


@pytest.mark.parametrize("padding", list(PADDINGS))
def test_nrcf_ignores_decoupling_padding(padding):
    # a padded decoupling mode is no pole or zero of G, so it must
    # neither refuse the factorization nor reach N and M
    a, e, side = PADDINGS[padding]
    rng, pad_rng = np.random.default_rng(2024), np.random.default_rng(23)
    for _ in range(20):
        g = random_system(rng, n_max=8)
        N, M = nrcf(pad_state(g, a[g.ts], e, side, pad_rng))
        assert N.n == M.n == nrcf(g)[0].n
        assert gram_residual([N, M], 16) <= 1e-7


FACTORIZATIONS = {"frf": full_rank_factorize, "dual-frf": dual_full_rank_factorize, "iofac": inner_outer}
# suite-small system 38 keeps an unobservable padded state on about half
# of the draws, by a roundoff decision of its observability staircase
# (ROADMAP item 25). On this draw dual-frf refuses the unstable one, and
# frf and iofac return factors one state larger
SYSTEM_38_ROUNDOFF = pytest.mark.xfail(
    strict=True, reason="system 38's observability staircase keeps a padded state by roundoff (ROADMAP item 25)"
)


def factor_padding_cases():
    for padding in PADDINGS:
        for op in FACTORIZATIONS:
            yield pytest.param(padding, op, range(20), id=f"{padding}-{op}-systems 0-19")
            marks = SYSTEM_38_ROUNDOFF if padding == "unstable unobservable" else ()
            yield pytest.param(padding, op, [38], marks=marks, id=f"{padding}-{op}-system 38")


@pytest.mark.parametrize("padding, op, systems", list(factor_padding_cases()))
def test_factorizations_ignore_decoupling_padding(padding, op, systems):
    # frf, dual-frf and iofac factor G's controllable and observable
    # part: a padded decoupling mode neither refuses them nor reaches
    # the factors
    a, e, side = PADDINGS[padding]
    factorize = FACTORIZATIONS[op]
    rng = np.random.default_rng(2024)
    suite = [random_system(rng, n_max=8) for _ in range(max(systems) + 1)]
    for i in systems:
        g = suite[i]
        h = pad_state(g, a[g.ts], e, side, np.random.default_rng(i))
        left, right = factorize(h)
        unpadded = factorize(g)
        assert [mcmillan_degree(f) for f in (left, right)] == [mcmillan_degree(f) for f in unpadded]
        assert max(product_residuals(h, left, right)) <= 1e-7
        if op == "iofac":
            assert gram_residual([left]) <= 1e-7


@pytest.mark.parametrize("rank_rtol", [0.0, 1e-8])
def test_one_decoupling_reduction_per_tolerance(monkeypatch, rank_rtol):
    # the six operations on a fresh realization share the controllable
    # and observable part it keeps per tolerance: structure at tol, and
    # the factorizations at DEFAULT_TOL
    rng = np.random.default_rng(2024)
    suite = [random_system(rng, n_max=8) for _ in range(5)]
    tol = ToleranceConfig(rank_rtol=rank_rtol)
    reduced = decoupling_reductions(monkeypatch)
    for g in suite + [stable_rank2_continuous(), polynomial_rank2_discrete()]:
        g = make_dss(g.A, g.E, g.B, g.C, g.D, g.ts)
        before = len(reduced)
        structure(g, tol)
        for op in (full_rank_factorize, dual_full_rank_factorize, nrcf, pseudo_inverse, inner_outer):
            op(g, tol=tol)
        assert len(reduced) - before == 2 * len({tol, DEFAULT_TOL})
        assert reduced[before] is g


@pytest.mark.parametrize("rank_rtol", [0.0, 1e-3])
def test_nrcf_reduces_only_g_once(monkeypatch, rank_rtol):
    # nrcf factors the minimal realization g keeps at the default
    # tolerance, and a later structure query reads it
    g = random_system(np.random.default_rng(2024), n_max=8)
    reduced = irreducible_reductions(monkeypatch)
    nrcf(g, ToleranceConfig(rank_rtol=rank_rtol))
    assert len(reduced) == 1 and reduced[0] is g
    structure(g)
    assert len(reduced) == 1


def test_nrcf_reduces_only_an_improper_graph(monkeypatch):
    # the graph [G; I] on a minimal realization of G whose E is None or
    # of full rank is its own splitting form; only a singular E (ex2, an
    # improper G) is reduced
    rng = np.random.default_rng(2024)
    suite = [random_system(rng, n_max=8) for _ in range(3)]
    assert irreducible_realization(suite[2]).E is None
    assert irreducible_realization(suite[1]).E is not None
    reduced = splitting_reductions(monkeypatch)
    for g, reductions in [
        (stable_rank2_continuous(), 0),
        (suite[2], 0),
        (suite[1], 0),
        (polynomial_rank2_discrete(), 1),
    ]:
        before = len(reduced)
        N, M = nrcf(g)
        assert len(reduced) - before == reductions
        assert gram_residual([N, M], 16) <= 1e-8


# nrcf reads the poles of a minimal realization whose E has full rank
# from one QZ of (A, E), in place of the pole Kronecker-like form, which
# peels nothing there and hands that pair to the same QZ
def test_full_rank_e_poles_are_the_one_qz_of_the_pencil():
    rng = np.random.default_rng(2024)
    seen = 0
    for _ in range(100):
        red = irreducible_realization(random_system(rng, n_max=8))
        pol = poles(red)
        if red.E is None or len(pol.finite) < red.n:
            continue
        pairs = rmfact.numkernel.generalized_eigenvalues(red.A, red.E)
        assert tuple(a / b for a, b in pairs) == pol.finite
        seen += 1
    assert seen == 28


# a pole pair that is_infinite counts as infinite, of an E ranked full
# at the graph's threshold, is refused as the pole Kronecker-like form
# refuses it, before any reduction of the graph
def test_nrcf_refuses_a_full_rank_e_pole_that_reads_infinite(monkeypatch):
    g = make_dss(np.diag([-1.0, -1e3]), np.diag([1.0, 1e-9]), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)), "continuous")
    red = irreducible_realization(g)
    assert red.n == 2 and np.linalg.matrix_rank(red.E) == 2
    reduced = splitting_reductions(monkeypatch)
    for refuse in (lambda: poles(red), lambda: nrcf(g)):
        with pytest.raises(StructureError, match="^regular split leaked an infinite eigenvalue into the finite block"):
            refuse()
    assert reduced == []


def counted_staircases_and_qz(monkeypatch):
    """Call counts of the controllability staircase and the eigenvalue QZ,
    through every binding the package calls them by."""
    calls = {"controllable_bases": 0, "generalized_eigenvalues": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    staircase, qz = rmfact.dss.controllable_bases, rmfact.numkernel.generalized_eigenvalues
    for module in (rmfact.dss, rmfact.klf, rmfact.rangebasis, rmfact.fact):
        if hasattr(module, "controllable_bases"):
            monkeypatch.setattr(module, "controllable_bases", counting("controllable_bases", staircase))
    for module in (rmfact.dss, rmfact.klf):
        monkeypatch.setattr(module, "generalized_eigenvalues", counting("generalized_eigenvalues", qz))
    return calls


def test_nrcf_does_no_repeated_work(monkeypatch):
    # on a realization whose minimal realization red is kept, nrcf runs
    # no controllability staircase: red is controllable, and so is the
    # graph [red; I], which shares its (A, E, B). For a proper G the PBH
    # check of the graph reads the one QZ of red's pencil that poles ran
    rng = np.random.default_rng(2024)
    suite = [random_system(rng, n_max=8) for _ in range(3)]
    calls = counted_staircases_and_qz(monkeypatch)
    for g, proper in [
        (stable_rank2_continuous(), True),
        (suite[1], True),
        (suite[2], True),
        (polynomial_rank2_discrete(), False),
    ]:
        g = make_dss(g.A, g.E, g.B, g.C, g.D, g.ts)
        irreducible_realization(g)
        calls.update(controllable_bases=0, generalized_eigenvalues=0)
        nrcf(g)
        assert calls["controllable_bases"] == 0
        if proper:
            assert calls["generalized_eigenvalues"] == 1


def test_gain_solvers_run_no_staircase(monkeypatch):
    # the stabilizing and inner gains are solved on the whole trailing
    # block of a splitting form of G's kept part, which is controllable
    # (so are its trailing blocks): once the part is kept, frf with
    # stable gains, pinv and iofac run no controllability staircase
    rng = np.random.default_rng(2024)
    suite = [random_system(rng, n_max=8) for _ in range(6)]
    calls = counted_staircases_and_qz(monkeypatch)
    pairs = []
    pair = rmfact.rangebasis._finite_pair
    monkeypatch.setattr(rmfact.rangebasis, "_finite_pair", lambda *blocks: pairs.append(1) or pair(*blocks))
    ops = {"frf_stable": lambda h: full_rank_factorize(h, gains="stable"), "pinv": pseudo_inverse, "iofac": inner_outer}
    solved = dict.fromkeys(ops, 0)
    for g in [stable_rank2_continuous(), polynomial_rank2_discrete(), *suite]:
        for name, op in ops.items():
            h = make_dss(g.A, g.E, g.B, g.C, g.D, g.ts)
            _controllable_observable_part(h, DEFAULT_TOL)
            calls.update(controllable_bases=0)
            pairs.clear()
            op(h)
            assert calls["controllable_bases"] == 0, name
            solved[name] += len(pairs)
    # every operation reached a gain solve
    assert min(solved.values()) > 0, solved


def test_nrcf_keeps_the_stabilizability_check_of_a_proper_graph():
    # at this tolerance the PBH check ranks [A - lambda E, B] deficient at
    # an unstable eigenvalue of G's minimal realization; without the
    # check nrcf would return an unstable N
    g = dict(coarse_suites()[1])["large 6"]
    with pytest.raises(StructureError, match="not stabilizable"):
        nrcf(g, ToleranceConfig(rank_rtol=1e-2))


def test_nrcf_ranks_no_e_b_of_a_proper_graph(monkeypatch):
    # E ranked full at the pencil threshold makes [E B] so too
    # (sigma_i([E B]) >= sigma_i(E)): only special_klf, which must
    # isolate a singular E, tests stabilizability at infinity
    rng = np.random.default_rng(2024)
    g = [random_system(rng, n_max=8) for _ in range(2)][1]
    red = irreducible_realization(g)
    assert red.E is not None
    ranked = []
    rank = rmfact.numkernel.svd_rank_abs

    def recording(M, thresh):
        ranked.append(np.array(M))
        return rank(M, thresh)

    # nrcf ranks E, and klf's PBH check ranks [A - lambda E, B]
    monkeypatch.setattr(rmfact.fact, "svd_rank_abs", recording)
    monkeypatch.setattr(rmfact.klf, "svd_rank_abs", recording)
    nrcf(g)
    EB = np.hstack([red.E, red.B])
    assert any(M.shape == red.E.shape and np.array_equal(M, red.E) for M in ranked)
    assert not any(M.shape == EB.shape and np.array_equal(M, EB) for M in ranked)


def test_nrcf_never_returns_an_unstable_n():
    # with B and D scaled by 1e-8 the Riccati solve of the inner gains
    # is ill-conditioned and can miss its target; the closed-loop check
    # refuses a feedback that leaves N a pole in the instability region
    rng = np.random.default_rng(2024)
    accepted = 0
    for g in [random_system(rng, n_max=8) for _ in range(100)]:
        h = make_dss(g.A, g.E, 1e-8 * g.B, g.C, 1e-8 * g.D, g.ts)
        try:
            N, _ = nrcf(h)
        except RmfactError:
            continue
        accepted += 1
        bad = stability_region(h.ts)
        assert [lam for lam in poles(N).finite if classify_eigenvalue(lam, 1.0, bad) == "bad"] == []
    assert accepted


# -- Moore-Penrose pseudo-inverse -------------------------------------------------


def test_pinv_constant_matches_svd():
    G = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 1.0]])
    gp = pseudo_inverse(const_sys(G))
    want = np.linalg.pinv(G)
    assert np.linalg.norm(evaluate(gp, 0.9j) - want) < 1e-10


def test_pinv_zero_matrix():
    gp = pseudo_inverse(const_sys(np.zeros((2, 3))))
    assert gp.p == 3 and gp.m == 2
    assert np.allclose(evaluate(gp, 1.0), np.zeros((3, 2)))


def test_pinv_square_invertible_is_inverse():
    rng = np.random.default_rng(23)
    g = make_dss(
        np.diag([-1.0, -3.0]), None,
        rng.standard_normal((2, 2)),
        rng.standard_normal((2, 2)),
        np.eye(2) * 2.0 + 0.1 * rng.standard_normal((2, 2)),
        "continuous",
    )
    gp = pseudo_inverse(g)
    for s in random_nonpole_points([g, gp], 6, np.random.default_rng(3)):
        assert np.linalg.norm(evaluate(g, s) @ evaluate(gp, s) - np.eye(2)) < 1e-8


def test_pinv_full_column_rank_left_inverse():
    g = make_dss(
        np.array([[-2.0]]), None, np.array([[1.0, 0.5]]),
        np.array([[1.0], [0.0]]), np.array([[0.0, 1.0], [1.0, 0.3]]), "continuous",
    )
    assert normal_rank(g) == 2
    gp = pseudo_inverse(g)
    for s in random_nonpole_points([g, gp], 6, np.random.default_rng(8)):
        assert np.linalg.norm(evaluate(gp, s) @ evaluate(g, s) - np.eye(2)) < 1e-8



def test_pinv_identities_example_one():
    g = stable_rank2_continuous()
    gp = pseudo_inverse(g)
    prod, herm = moore_penrose_defects(g, gp, np.random.default_rng(31))
    assert prod <= 1e-7
    assert herm <= 1e-6


def test_pinv_identities_example_two():
    g = polynomial_rank2_discrete()
    gp = pseudo_inverse(g)
    prod, herm = moore_penrose_defects(g, gp, np.random.default_rng(32))
    assert prod <= 1e-7
    assert herm <= 1e-6


# at rank_rtol 0.1 normal_rank counts 2 for transposed suite-small system
# 34, but the first compression's splitting form keeps 3 columns: the core
# to invert comes out 3 x 2, and pinv names the two counts
RANK_DISAGREEMENT = "normal_rank counts 2, the range compressions keep a 3 x 2 core; adjust the tolerance"


def test_pinv_names_a_rank_disagreement(tmp_path):
    rng = np.random.default_rng(2024)
    g = transpose([random_system(rng, n_max=8) for _ in range(35)][34])
    with pytest.raises(StructureError, match=RANK_DISAGREEMENT):
        pseudo_inverse(g, ToleranceConfig(0.1))
    path = tmp_path / "g.json"
    write_system_file(g, str(path))
    code, out, err = run_cli(["pinv", path, "--tol", "0.1"])
    assert code == 3 and out == ""
    assert RANK_DISAGREEMENT in err


def test_pinv_identities_badly_scaled_composition():
    # draw 38 of the rng-7 suite: the pseudo-inverse composes a 13-state
    # realization with one row of A and B near 3e7 against O(1) rows;
    # ranked on the scale of that row, the controllable part loses two
    # states the result needs
    rng = np.random.default_rng(7)
    for _ in range(38):
        random_system(rng, n_max=8)
    g = random_system(rng, n_max=8)
    gp = pseudo_inverse(g)
    prod, herm = moore_penrose_defects(g, gp, np.random.default_rng(33))
    assert prod <= 1e-6
    assert herm <= 1e-6


@pytest.mark.parametrize("ts", ["continuous", "discrete"])
@pytest.mark.parametrize(
    "r, p, m, reductions",
    [(2, 2, 3, 1), (2, 3, 2, 1), (2, 2, 2, 0), (1, 3, 3, 2)],
    ids=["r=p<m", "r=m<p", "r=p=m", "r<min(p,m)"],
)
def test_pinv_compresses_only_a_rank_deficient_side(monkeypatch, ts, r, p, m, reductions):
    # a square zero-free inner factor is constant, so pinv runs the
    # first compression only when r < p and the second only when r < m
    g = rank_deficient_system(np.random.default_rng(41), ts, inner_dim=r, p=p, m=m)
    assert normal_rank(g) == r
    reduced = splitting_reductions(monkeypatch)
    gp = pseudo_inverse(g)
    assert len(reduced) == reductions
    prod, herm = moore_penrose_defects(g, gp, np.random.default_rng(34))
    assert prod <= 1e-6
    assert herm <= 1e-6


def test_pinv_of_padded_and_rank_deficient_input_is_irreducible():
    # pinv composes from the controllable and observable part of G and
    # ends with the non-dynamic elimination only: a decoupling mode of
    # the input reaches neither the order of G# nor its reducibility
    rng = np.random.default_rng(2024)
    suite = [random_system(rng, n_max=8) for _ in range(20)]
    cases = []
    for a, e, side in PADDINGS.values():
        pad_rng = np.random.default_rng(23)
        cases += [(pad_state(g, a[g.ts], e, side, pad_rng), pseudo_inverse(g).n) for g in suite]
    rng = np.random.default_rng(5)
    cases += [(rank_deficient_system(rng), None) for _ in range(20)]
    for g, order in cases:
        gp = pseudo_inverse(g)
        assert order is None or gp.n == order
        assert irreducible_realization(gp).n == gp.n
        assert max(penrose_residuals(g, gp, 8, np.random.default_rng(0), 16).values()) <= 1e-6


# -- inner-quasi-outer factorization ----------------------------------------------


def test_inner_outer_example_one():
    g = stable_rank2_continuous()
    Gi, Go = inner_outer(g)
    assert_multiset_close(poles(Gi).finite, [-1.0, -np.sqrt(3.0), -2.0], tol=1e-6)
    assert_multiset_close(zeros(Gi).finite, [1.0, 2.0], tol=1e-6)
    assert inner_defect(Gi, "continuous") <= 1e-8
    # quasi-outer: every finite zero of Go lies in the closed left half-plane
    for lam in zeros(Go).finite:
        assert lam.real <= 1e-8
    pts = random_nonpole_points([g, Gi, Go], 12, np.random.default_rng(12))
    assert product_residual(g, Gi, Go, pts) <= 1e-8


def test_inner_outer_example_two():
    g = polynomial_rank2_discrete()
    Gi, Go = inner_outer(g)
    assert mcmillan_degree(Gi) == 1
    assert_multiset_close(poles(Gi).finite, [0.0], tol=1e-6)
    assert inner_defect(Gi, "discrete") <= 1e-8
    assert_multiset_close(zeros(Go).finite, [0.0, 1.0], tol=1e-6)
    pts = random_nonpole_points([g, Gi, Go], 12, np.random.default_rng(13))
    assert product_residual(g, Gi, Go, pts) <= 1e-8


def test_inner_outer_already_inner():
    g = polynomial_rank2_discrete()
    Gi, _ = inner_outer(g)
    Gi2, Go2 = inner_outer(Gi)
    # an inner input reproduces itself up to a constant orthogonal factor
    assert mcmillan_degree(Go2) == 0
    q = evaluate(Go2, 0.5).real
    assert np.linalg.norm(q.T @ q - np.eye(q.shape[1])) < 1e-10
    pts = random_nonpole_points([Gi, Gi2, Go2], 8, np.random.default_rng(14))
    assert product_residual(Gi, Gi2, Go2, pts) <= 1e-8



def test_inner_outer_zero_pole_balance():
    g1 = stable_rank2_continuous()
    zero_pole_balance(g1, *inner_outer(g1))
    g2 = polynomial_rank2_discrete()
    zero_pole_balance(g2, *inner_outer(g2))


def test_two_factor_operations_return_one_pair_type():
    g = stable_rank2_continuous()
    for result in (full_rank_factorize(g), dual_full_rank_factorize(g), nrcf(g), inner_outer(g)):
        assert type(result) is FactorizationResult
        assert result._fields == ("left", "right")
        left, right = result
        assert left is result.left and right is result.right


def test_frf_report_reads_the_residual_routine_and_the_structure_query(tmp_path):
    # the CLI report of G = L R, computed independently: the worst
    # product residual over the default grid drawn with --seed, and the
    # structure of each factor
    ex1, _ = write_examples(tmp_path)
    report = run_cli_json(["frf", ex1, "--seed", "0"])["results"]
    g = stable_rank2_continuous()
    L, R = full_rank_factorize(g)
    residuals = product_residuals(g, L, R, RESIDUAL_GRID, random.Random(0))
    assert report["max_relative_residual"] == max(residuals)
    assert report["grid_points"] == RESIDUAL_GRID
    for key, sys in (("R", L), ("X", R)):
        st = structure(sys)
        block = report[key]
        assert (block["rows"], block["cols"], block["order"]) == (sys.p, sys.m, sys.n)
        assert (block["normal_rank"], block["mcmillan_degree"]) == (st.normal_rank, st.mcmillan_degree)
        assert block["poles"] == eigenvalues_to_json(st.poles)
        assert block["zeros"] == eigenvalues_to_json(st.zeros)


def test_product_residuals_redraw_points_that_do_not_evaluate():
    # a badly scaled state similarity of a discrete improper system
    # certifies at points on its own pencil scale (the redraw itself:
    # test_dss::test_random_points_redraw_where_a_listed_system_does_not_evaluate)
    rng = np.random.default_rng(7)
    g = [random_system(rng, n_max=8) for _ in range(39)][38]
    assert (g.n, g.ts, g.E is not None) == (7, "discrete", True)
    d = np.logspace(-3.0, 3.0, g.n)
    T, Ti = np.diag(d), np.diag(1.0 / d)
    h = make_dss(Ti @ g.A @ T, Ti @ g.e_matrix @ T, Ti @ g.B, g.C @ T, g.D, g.ts)
    fr = full_rank_factorize(h)
    assert max(product_residuals(h, fr.left, fr.right)) <= 1e-7


def padded_example(g):
    """g with one uncontrollable and one unobservable stable state
    appended, so that irreducible_realization must reduce it."""
    n = g.n
    A = np.zeros((n + 2, n + 2))
    A[:n, :n] = g.A
    A[n, n], A[n + 1, n + 1] = -0.5, 0.25
    E = None
    if g.E is not None:
        E = np.eye(n + 2)
        E[:n, :n] = g.E
    B = np.vstack([g.B, np.zeros((1, g.m)), np.ones((1, g.m))])
    C = np.hstack([g.C, np.ones((g.p, 1)), np.zeros((g.p, 1))])
    return make_dss(A, E, B, C, g.D, g.ts)


def nan_in_l(controllable_bases):
    """controllable_bases with a NaN made in the first entry of L, as an
    overflow in a reduction would make it."""

    def patched(A, E, B, tol):
        L, Z = controllable_bases(A, E, B, tol)
        L = L.copy()
        L[0, 0] = np.nan
        return L, Z

    return patched


def realizations(result):
    if isinstance(result, tuple):
        return list(result)
    if isinstance(result, Structure):
        return []
    return [result]


OPERATIONS = {
    "structure": structure,
    "irreducible_realization": irreducible_realization,
    "frf": full_rank_factorize,
    "frf_stable": lambda g: full_rank_factorize(g, gains="stable"),
    "dual_frf": dual_full_rank_factorize,
    "nrcf": nrcf,
    "pinv": pseudo_inverse,
    "iofac": inner_outer,
}


def nan_in_a_bl(form):
    """A splitting form builder whose form has a NaN in the first entry
    of its trailing block A_bl."""

    def patched(*args):
        sk = form(*args)
        M = np.array(sk.M)
        M[sk.n_rg, sk.c1] = np.nan
        return dataclasses.replace(sk, M=M)

    return patched


# where each row makes its NaN: the decoupling staircase of dss, or the
# trailing block A_bl of the splitting forms range_basis reads; the gain
# solvers refuse the latter when they form its explicit pair
NAN_SOURCES = {
    "rmfact.dss": ("controllable_bases", nan_in_l(rmfact.dss.controllable_bases), ""),
    "rmfact.rangebasis": ("special_klf", nan_in_a_bl(rmfact.klf.special_klf), "explicit pair of the trailing blocks"),
}


@pytest.mark.parametrize(
    "module, refused",
    [
        # the irreducible realization, which structure, nrcf and pinv build
        ("rmfact.dss", {"structure", "irreducible_realization", "nrcf", "pinv"}),
        # the explicit pair behind the stabilizing and inner gains of a
        # splitting form; nrcf builds its graph block without range_basis
        ("rmfact.rangebasis", {"frf_stable", "pinv", "iofac"}),
    ],
)
def test_nan_made_inside_a_reduction_is_never_returned(monkeypatch, module, refused):
    target, patched, refusal = NAN_SOURCES[module]
    monkeypatch.setattr(f"{module}.{target}", patched)
    for g in (padded_example(stable_rank2_continuous()), padded_example(polynomial_rank2_discrete())):
        for name, op in OPERATIONS.items():
            try:
                result = op(g)
            except RmfactError as exc:
                # the computation broke down, not the caller's data
                assert not isinstance(exc, InputError), (name, exc)
                assert name not in refused or isinstance(exc, (StructureError, FactorizationError)), (name, exc)
                assert name not in refused or refusal in str(exc), (name, exc)
                continue
            assert name not in refused, name
            for sys in realizations(result):
                assert all(np.isfinite(M).all() for M in (sys.A, sys.e_matrix, sys.B, sys.C, sys.D)), name


def nan_in_the_pencil(threshold):
    """A pencil threshold that puts a NaN in the first entry of the
    pencil M after ranking it: a NaN before the threshold SVD would stop
    that SVD instead."""

    def patched(M, N, tol):
        thresh = threshold(M, N, tol)
        M[0, 0] = np.nan
        return thresh

    return patched


def test_nan_in_the_explicit_pair_of_nrcf_is_refused(monkeypatch):
    # nrcf solves its inner gains on the explicit pair of the whole
    # trailing block, read off the graph's system pencil (ex1) or its
    # splitting form (ex2, through E_bl^-1); a NaN there is refused
    # before the Riccati solve reads it
    monkeypatch.setattr("rmfact.fact._pencil_threshold", nan_in_the_pencil(rmfact.klf._pencil_threshold))
    monkeypatch.setattr("rmfact.fact.special_klf", nan_in_a_bl(rmfact.klf.special_klf))
    for g in (padded_example(stable_rank2_continuous()), padded_example(polynomial_rank2_discrete())):
        with pytest.raises((StructureError, FactorizationError), match="explicit pair of the trailing blocks"):
            nrcf(g)


def test_cli_reports_a_nan_made_inside_a_reduction_as_exit_3(monkeypatch, tmp_path):
    path = tmp_path / "padded.json"
    write_system_file(padded_example(stable_rank2_continuous()), str(path))
    monkeypatch.setattr("rmfact.dss.controllable_bases", nan_in_l(rmfact.dss.controllable_bases))
    code, _, err = run_cli(["info", path, "--json"])
    assert code == 3, err
    assert "computed realization has non-finite entries in A" in err


@pytest.mark.parametrize("d", [1e-13, 1e-14, 1e-15])
def test_rank_decisions_agree(d):
    # diag(1, d) as a constant, and with its first entry behind a state:
    # the rank probe and every reduction rank d against one threshold
    G = const_sys(np.diag([1.0, d]))
    H = make_dss([[-1.0]], None, [[1.0, 0.0]], [[1.0], [0.0]], np.diag([0.0, d]), "continuous")
    for g in (G, H):
        ranks = {
            normal_rank(g),
            structure(g).normal_rank,
            range_basis(g, region_none()).sklf.r,
            full_rank_factorize(g, region_none()).left.m,
        }
        assert len(ranks) == 1, (d, ranks)


def test_coarse_tolerance_never_rank_decides_an_identity_e():
    # ||A||_F ~ 19.5 puts the pencil threshold at 1.5, above sigma = 1 of
    # the identity E, yet a standard realization is stabilizable at
    # infinity; the refusal names the lambda part of the trailing block
    rng = np.random.default_rng(1)
    A = 8 * rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 2))
    C = rng.standard_normal((2, 4))
    D = rng.standard_normal((2, 2))
    g = make_dss(A, None, B, C, D, "continuous")
    with pytest.raises(StructureError) as exc:
        full_rank_factorize(g, region_none(), tol=ToleranceConfig(rank_rtol=0.1))
    assert "at infinity" not in str(exc.value)


def test_rank_tolerance_leaves_the_gramian_guard_alone():
    # an inner-basis Gramian of each has an eigenvalue (a squared
    # singular value) under 1e-3 of max(largest, 1); only the noise
    # floor may refuse to invert it, whatever rank_rtol says
    rng = np.random.default_rng(2024)
    suite = [random_system(rng, n_max=8) for _ in range(49)]
    tol = ToleranceConfig(rank_rtol=1e-3)
    # accepted; test_coarse_tolerance_refuses_or_meets_its_bound bounds
    # its Penrose defects
    pseudo_inverse(suite[15], tol)
    g = suite[48]
    Gi, Go = inner_outer(g, tol)
    pts = random_nonpole_points([g, Gi, Go], 16, np.random.default_rng(0))
    assert product_residual(g, Gi, Go, pts) <= 1e-8
    assert inner_defect(Gi, g.ts) <= 1e-8


# suite-small (acceptance 7's systems) and suite-large (perfbench's, A
# scaled by 1/sqrt(n)) systems whose pinv or nrcf came back wrong, and
# unrefused, at a coarse tolerance while the minimal realizations of the
# realizations fact composes ranked at rank_rtol
COARSE_SMALL = [3, 7, 8, 15, 18, 26, 37, 53, 63, 66, 69, 72, 77, 84, 92]
COARSE_LARGE = [4, 5, 6, 10, 11, 14]
# the tier-1 bound of each operation's check at the default tolerance
TIER1_BOUND = {"structure": 1e-7, "frf": 1e-7, "dual": 1e-7, "iofac": 1e-7, "nrcf": 1e-7, "pinv": 1e-6}


def coarse_suites():
    rng = np.random.default_rng(2024)
    small = [random_system(rng, n_max=8) for _ in range(100)]
    rng = np.random.default_rng(2024)
    large = []
    for _ in range(max(COARSE_LARGE) + 1):
        g = random_system(rng, n_max=40, p_max=6, m_max=6)
        large.append(make_dss(g.A / np.sqrt(g.n), g.E, g.B, g.C, g.D, g.ts))
    return [(f"small {i}", small[i]) for i in COARSE_SMALL], [(f"large {i}", large[i]) for i in COARSE_LARGE]


def operation_defect(op, g, tol):
    """The check of one operation on g, by fact's residual routines: the
    product residual of G = L R (structure: of G against the irreducible
    realization it reads, whose McMillan degree must count its poles),
    and the Gram residual of an inner or normalized factor."""
    rng = np.random.default_rng(0)
    if op == "structure":
        s, red = structure(g, tol), irreducible_realization(g, tol)
        assert s.mcmillan_degree == s.poles.total <= g.n
        return max(product_residuals(g, red, identity_system(g.m, g.ts), 8, rng))
    if op in ("frf", "dual"):
        fr = (full_rank_factorize if op == "frf" else dual_full_rank_factorize)(g, tol=tol)
        return max(product_residuals(g, fr.left, fr.right, 8, rng))
    if op == "iofac":
        Gi, Go = inner_outer(g, tol)
        return max(max(product_residuals(g, Gi, Go, 8, rng)), gram_residual([Gi], 16))
    if op == "nrcf":
        return gram_residual(list(nrcf(g, tol)), 16)
    return max(penrose_residuals(g, pseudo_inverse(g, tol), 8, rng, 16).values())


def wrong_results(cases, tol):
    """The cases (name, g, op) whose operation neither refuses nor meets
    max(tier-1 bound, 1e3 * rank_rtol)."""
    wrong = []
    for name, g, op in cases:
        try:
            d = operation_defect(op, g, tol)
        except RmfactError:
            continue
        if d > max(TIER1_BOUND[op], 1e3 * tol.rank_rtol):
            wrong.append(f"{op} of {name}: {d:.2e}")
    return wrong


COARSE_RTOLS = [0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3]
# suite-large system 10's iofac has a product residual of 1.5e-4 at
# the finest tolerances; its nrcf, pinv and iofac fail perfbench's check
LARGE_10_IOFAC = ("large 10", "iofac")


@pytest.mark.parametrize("rank_rtol", COARSE_RTOLS)
def test_coarse_tolerance_refuses_or_meets_its_bound(rank_rtol):
    """Each operation either refuses with a named RmfactError or meets
    max(tier-1 bound, 1e3 * rank_rtol). A reduction that discards
    singular values up to rank_rtol times its data's scale moves G by
    about that much; the factor 1e3 leaves room for the chain of
    reductions and for data whose scale exceeds ||G||. The reductions
    fact takes of G and G# rank at the noise floor instead: the
    controllable and observable part of G that every factorization
    starts from, and in pinv the non-dynamic elimination of G#, since
    cutting one of their states at rank_rtol drops part of G or G#."""
    tol = ToleranceConfig(rank_rtol=rank_rtol)
    small, large = coarse_suites()
    cases = [(name, g, op) for name, g in small for op in TIER1_BOUND]
    cases += [(name, g, op) for name, g in large for op in ("frf", "dual", "iofac") if (name, op) != LARGE_10_IOFAC]
    if rank_rtol >= 1e-4:
        cases += [(name, g, op) for name, g in large for op in ("pinv", "nrcf")]
    assert wrong_results(cases, tol) == []


@pytest.mark.parametrize(
    "rank_rtol",
    [
        pytest.param(r, marks=pytest.mark.xfail(strict=True, reason="large 10's iofac misses its bound (ROADMAP item 5)"))
        if r <= 1e-8
        else r
        for r in COARSE_RTOLS
    ],
)
def test_coarse_tolerance_iofac_of_large_10(rank_rtol):
    name, op = LARGE_10_IOFAC
    g = dict(coarse_suites()[1])[name]
    assert wrong_results([(name, g, op)], ToleranceConfig(rank_rtol=rank_rtol)) == []


def test_residual_checks_compute_no_eigenvalues(monkeypatch):
    # the residual points come from G's pencil scale, not from a QZ
    g = polynomial_rank2_discrete()
    fr, gp = full_rank_factorize(g), pseudo_inverse(g)
    calls = []
    qz = rmfact.numkernel.generalized_eigenvalues

    def counting(*args):
        calls.append(args)
        return qz(*args)

    for module in (rmfact.numkernel, rmfact.dss, rmfact.klf):
        monkeypatch.setattr(module, "generalized_eigenvalues", counting)
    product_residuals(g, fr.left, fr.right)
    penrose_residuals(g, gp)
    random_nonpole_points([g, fr.left, fr.right], 8)
    assert calls == []


def test_improper_suite_is_accepted_and_meets_its_bounds():
    # 60 improper G (support.improper_system, rng 77): every operation is
    # accepted and meets its tier-1 bound through fact's residual routines,
    # whose points stay on G's pencil scale, clear of the spurious QZ
    # eigenvalues (modulus about 1e8) of its infinite poles
    rng = np.random.default_rng(77)
    wrong = []
    for i in range(60):
        g = improper_system(rng)
        assert structure(g).poles.infinite_count > 0
        for op in ("frf", "dual", "nrcf", "pinv", "iofac"):
            try:
                d = operation_defect(op, g, DEFAULT_TOL)
            except RmfactError as exc:
                wrong.append(f"{op} of {i}: {type(exc).__name__}: {exc}")
                continue
            if d > TIER1_BOUND[op]:
                wrong.append(f"{op} of {i}: {d:.2e}")
    assert wrong == []
