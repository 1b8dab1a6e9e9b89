import re
import time

import numpy as np
import pytest
import scipy.linalg

import rmfact.klf
from rmfact import (
    FactorizationError,
    InputError,
    RegionPartition,
    RmfactError,
    StructureError,
    ToleranceConfig,
    all_finite_region,
    classify_eigenvalue,
    full_rank_factorize,
    inner_outer,
    irreducible_realization,
    kronecker_like_form,
    make_dss,
    normal_rank,
    nrcf,
    polynomial_rank2_discrete,
    pseudo_inverse,
    region_none,
    special_klf,
    stability_region,
    stable_rank2_continuous,
    transpose,
    zeros,
)
from rmfact.klf import _klf_core, _pencil_threshold, on_stability_boundary
from rmfact.numkernel import DEFAULT_TOL, EIG_ATOL, is_infinite
from rmfact.rangebasis import inner_enforcing_gains, range_basis

from support import assert_multiset_close, random_system, rank_deficient_system, splitting_reductions


def system_pencil(g):
    n, m, p = g.n, g.m, g.p
    M = np.block([[g.A, g.B], [g.C, g.D]])
    N = np.zeros((n + p, n + m))
    N[:n, :n] = g.e_matrix
    return M, N


# -- eigenvalue classification ------------------------------------------------


def test_classify_continuous_halfplane():
    reg = stability_region("continuous")
    assert classify_eigenvalue(-1.0, 1.0, reg) == "good"
    assert classify_eigenvalue(1.0, 1.0, reg) == "bad"
    assert classify_eigenvalue(3.0 + 2.0j, 1.0, reg) == "bad"
    # a negative beta flips neither the eigenvalue nor its class
    assert classify_eigenvalue(-1.0, -1.0, reg) == "bad"
    assert classify_eigenvalue(1.0, -1.0, reg) == "good"


def test_classify_infinite_eigenvalue():
    # the kind and ts of a region alone place the point at infinity
    for region, bad in (
        (region_none(), False),
        (stability_region("continuous"), False),
        (stability_region("discrete"), True),
        (all_finite_region(), True),
    ):
        assert region.infinite_is_bad is bad
        assert classify_eigenvalue(1.0, 0.0, region) == ("bad" if bad else "good")


def test_a_partition_has_one_spelling():
    # a kind that does not read ts refuses one, so one partition is one
    # key of the kept splitting forms
    for kind, region in (("none", region_none()), ("all-finite", all_finite_region())):
        assert RegionPartition(kind) == region
        for ts in ("continuous", "discrete"):
            with pytest.raises(InputError, match=re.escape(f"region kind {kind!r} takes no ts")):
                RegionPartition(kind, ts)
    for ts in ("continuous", "discrete"):
        assert RegionPartition("finite-instability", ts) == stability_region(ts)


def test_classify_discrete_circle():
    reg = stability_region("discrete")
    assert classify_eigenvalue(0.5, 1.0, reg) == "good"
    assert classify_eigenvalue(1.5, 1.0, reg) == "bad"
    # the good region is the closed unit disc: points on the circle
    # itself count as good at zero boundary offset
    assert classify_eigenvalue(1.0, 1.0, reg) == "good"
    assert classify_eigenvalue(1.0 + 1e-6, 1.0, reg) == "bad"


@pytest.mark.parametrize("kind", ["custom", "stable", "instability"])
def test_unknown_region_kind_is_refused(kind):
    with pytest.raises(InputError, match=re.escape(f"unknown region kind {kind!r}")):
        RegionPartition(kind)


@pytest.mark.parametrize("ts", ["continuous", "discrete"])
def test_stability_boundary_decisions_agree(ts):
    # one boundary decision serves classification, the nrcf pole check
    # and the inner-basis zero check: within EIG_ATOL of the boundary an
    # eigenvalue classifies as good while nrcf and the inner gains
    # reject it; farther out, on the unstable side, all three accept it
    tol = ToleranceConfig()
    edge = 0.0 if ts == "continuous" else 1.0
    stable = -0.5 if ts == "continuous" else 0.5
    for gap in (-0.5, 0.5, 2.0):
        lam = edge + gap * EIG_ATOL
        on_edge = abs(gap) < 1.0
        assert on_stability_boundary(lam, ts) == on_edge
        assert classify_eigenvalue(lam, 1.0, stability_region(ts)) == ("good" if on_edge else "bad")
        pole_at_lam = make_dss([[lam]], None, [[1.0]], [[1.0]], [[0.0]], ts)
        # (lambda - lam) / (lambda - stable), every zero kept in the basis
        zero_at_lam = make_dss([[stable]], None, [[1.0]], [[stable - lam]], [[1.0]], ts)
        sk = special_klf(zero_at_lam, all_finite_region(), tol)
        if on_edge:
            with pytest.raises(FactorizationError, match="stability boundary"):
                nrcf(pole_at_lam, tol)
            with pytest.raises(FactorizationError, match="stability boundary"):
                inner_enforcing_gains(sk, tol)
        else:
            nrcf(pole_at_lam, tol)
            inner_enforcing_gains(sk, tol)


# -- general staircase reduction ----------------------------------------------


def test_klf_regular_diagonal():
    res = kronecker_like_form(np.diag([1.0, 2.0]), np.eye(2))
    assert res.right_minimal_indices == ()
    assert res.left_minimal_indices == ()
    assert res.infinite_divisor_degrees == ()
    assert res.finite_size == 2
    eigs = sorted((a / b).real for a, b in res.finite_eigenvalues)
    assert np.allclose(eigs, [1.0, 2.0], atol=1e-12)


# the raw-array entry point checks its matrices as make_dss does
RAW_ENTRY_POINTS = {"kronecker_like_form": kronecker_like_form}


@pytest.mark.parametrize("entry", list(RAW_ENTRY_POINTS))
@pytest.mark.parametrize(
    "A, E, message",
    [
        (np.array([[1.0, np.nan], [0.0, 1.0]]), np.eye(2), "A contains non-finite entries"),
        (np.eye(2), np.array([[1.0, 0.0], [np.inf, 1.0]]), "E contains non-finite entries"),
        (np.ones(2), np.ones(2), r"A must be two-dimensional, got shape \(2,\)"),
        (np.eye(2), np.ones((2, 2, 1)), r"E must be two-dimensional, got shape \(2, 2, 1\)"),
        (np.eye(2), np.eye(3), r"E must have shape \(2, 2\), got \(3, 3\)"),
    ],
)
def test_raw_array_entry_points_name_the_matrix(entry, A, E, message):
    with pytest.raises(InputError, match=message):
        RAW_ENTRY_POINTS[entry](A, E)


def test_klf_rank_one_rectangular():
    # [1 - lambda, 0]: one right singular block of index zero plus a
    # finite regular part of order one
    res = kronecker_like_form(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
    assert res.right_minimal_indices == (0,)
    assert res.left_minimal_indices == ()
    assert res.finite_size == 1
    a, b = res.finite_eigenvalues[0]
    assert abs(a / b - 1.0) < 1e-12


def test_klf_example_one_system_pencil():
    g = stable_rank2_continuous()
    M, N = system_pencil(g)
    res = kronecker_like_form(M, N)
    assert res.right_minimal_indices == (0,)
    assert res.left_minimal_indices == (1,)
    assert res.infinite_divisor_degrees == (1, 2)
    assert_multiset_close([a / b for a, b in res.finite_eigenvalues], [1, 2])


def test_klf_planted_structure():
    # block diagonal plant: right L_1, finite eigenvalue 0.5, infinite
    # divisor of degree 2, left L_1^T; then rotate orthogonally
    def left_pad(mat, shape, r0, c0):
        out = np.zeros(shape)
        out[r0: r0 + mat.shape[0], c0: c0 + mat.shape[1]] = mat
        return out

    blocks_M = [
        (np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])),
        (np.array([[0.5]]), np.array([[1.0]])),
        (np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])),
        (np.array([[0.0], [1.0]]), np.array([[1.0], [0.0]])),
    ]
    rows = sum(b[0].shape[0] for b in blocks_M)
    cols = sum(b[0].shape[1] for b in blocks_M)
    M = np.zeros((rows, cols))
    N = np.zeros((rows, cols))
    r0 = c0 = 0
    for bm, bn in blocks_M:
        M += left_pad(bm, (rows, cols), r0, c0)
        N += left_pad(bn, (rows, cols), r0, c0)
        r0 += bm.shape[0]
        c0 += bm.shape[1]
    rng = np.random.default_rng(21)
    Q0 = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
    Z0 = np.linalg.qr(rng.standard_normal((cols, cols)))[0]
    res = kronecker_like_form(Q0 @ M @ Z0, Q0 @ N @ Z0)
    assert res.right_minimal_indices == (1,)
    assert res.left_minimal_indices == (1,)
    assert res.infinite_divisor_degrees == (2,)
    assert res.finite_size == 1
    a, b = res.finite_eigenvalues[0]
    assert abs(a / b - 0.5) < 1e-10


def test_klf_random_invariants():
    # orthogonality and reconstruction on 200 random pencils
    rng = np.random.default_rng(77)
    start = time.time()
    for _ in range(200):
        m = int(rng.integers(1, 11))
        n = int(rng.integers(1, 11))
        A = rng.standard_normal((m, n))
        E = rng.standard_normal((m, n))
        if rng.random() < 0.3:
            E[rng.integers(0, m), :] = 0.0
        res = kronecker_like_form(A, E)
        assert np.linalg.norm(res.Q.T @ res.Q - np.eye(m)) < 1e-13 * max(1, m)
        assert np.linalg.norm(res.Z.T @ res.Z - np.eye(n)) < 1e-13 * max(1, n)
        scale = max(1.0, np.linalg.norm(A), np.linalg.norm(E))
        assert np.linalg.norm(res.Q.T @ A @ res.Z - res.M) < 1e-11 * scale
        assert np.linalg.norm(res.Q.T @ E @ res.Z - res.N) < 1e-11 * scale
        if m == n:
            # square random pencils are regular almost surely
            assert res.right_minimal_indices == ()
            assert res.left_minimal_indices == ()
            assert res.finite_size + sum(res.infinite_divisor_degrees) == n
    assert time.time() - start < 30.0


def test_left_structure_peel_runs_only_for_kronecker_like_form(monkeypatch):
    peels = []
    peel = rmfact.klf._stage_peel

    def counting(*args):
        peels.append(args)
        return peel(*args)

    monkeypatch.setattr(rmfact.klf, "_stage_peel", counting)
    M, N = system_pencil(stable_rank2_continuous())
    core = _klf_core(M, N, _pencil_threshold(M, N, DEFAULT_TOL))
    assert len(peels) == 3
    assert core.left_minimal_indices is None
    del peels[:]
    res = kronecker_like_form(M, N)
    assert len(peels) == 4
    assert res.left_minimal_indices == (1,)
    assert np.array_equal(res.M, core.M) and np.array_equal(res.Z, core.Z)


# -- range/coimage splitting form ---------------------------------------------


def sklf_blocks_and_errors(g, sk):
    M, N = system_pencil(g)
    U_full = scipy.linalg.block_diag(sk.U, np.eye(g.p))
    errM = np.linalg.norm(U_full @ M @ sk.Z - sk.M)
    errN = np.linalg.norm(U_full @ N @ sk.Z - sk.N)
    return errM, errN


def zero_block_norms(sk):
    r1 = sk.n_rg
    r2 = r1 + sk.n_bl
    r3 = r2 + sk.m_n
    c1 = sk.c1
    c2 = c1 + sk.n_bl
    c3 = c2 + sk.r
    out = []
    for mat in (sk.M, sk.N):
        out.append(np.linalg.norm(mat[r1:r2, :c1]))
        out.append(np.linalg.norm(mat[r2:r3, :c3]))
        out.append(np.linalg.norm(mat[r3:, :c1]))
    return out


def test_sklf_random_invariants():
    rng = np.random.default_rng(123)
    start = time.time()
    count = 0
    while count < 100:
        g = random_system(rng, n_max=8)
        reg = stability_region(g.ts)
        try:
            sk = special_klf(g, reg)
        except StructureError:
            continue
        count += 1
        scale = max(1.0, np.linalg.norm(np.block([[g.A, g.B], [g.C, g.D]])))
        errM, errN = sklf_blocks_and_errors(g, sk)
        assert errM < 1e-10 * scale and errN < 1e-10 * scale
        assert np.linalg.norm(sk.U.T @ sk.U - np.eye(g.n)) < 1e-13 * max(1, g.n)
        assert np.linalg.norm(sk.Z.T @ sk.Z - np.eye(g.n + g.m)) < 1e-13 * max(1, g.n + g.m)
        for nb in zero_block_norms(sk):
            assert nb < 1e-10 * scale
        assert sk.r == normal_rank(g)
        assert sk.n_rg + sk.n_bl + sk.m_n == g.n
        if sk.n_bl:
            assert np.linalg.matrix_rank(sk.E_bl) == sk.n_bl
        if sk.m_n:
            assert np.linalg.matrix_rank(sk.B_n) == sk.m_n
        # full column rank of the trailing system pencil at good points
        T_M = np.block([[sk.A_bl, sk.B_bl], [sk.C_bl, sk.D_bl]])
        T_N = np.zeros_like(T_M)
        T_N[: sk.n_bl, : sk.n_bl] = sk.E_bl
        for _ in range(5):
            if g.ts == "continuous":
                lam = complex(-abs(rng.standard_normal()) - 0.05, rng.standard_normal())
            else:
                lam = 0.9 * rng.random() * np.exp(2j * np.pi * rng.random())
            Tv = T_M - lam * T_N
            sv = np.linalg.svd(Tv, compute_uv=False)
            assert np.linalg.matrix_rank(Tv, tol=1e-8 * max(1.0, sv[0] if sv.size else 1.0)) == sk.n_bl + sk.r
    assert time.time() - start < 60.0


def test_sklf_constant_full_rank():
    D = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    g = make_dss(np.zeros((0, 0)), None, np.zeros((0, 2)), np.zeros((3, 0)), D, "continuous")
    sk = special_klf(g, stability_region("continuous"))
    assert (sk.n_rg, sk.n_bl, sk.m_n, sk.r) == (0, 0, 0, 2)
    assert sk.c1 == 0


def test_sklf_example_one_dimensions():
    g = stable_rank2_continuous()
    sk_bad = special_klf(g, stability_region("continuous"))
    assert (sk_bad.n_rg, sk_bad.n_bl, sk_bad.m_n, sk_bad.r) == (1, 3, 0, 2)
    sk_min = special_klf(g, region_none())
    assert (sk_min.n_rg, sk_min.n_bl, sk_min.m_n, sk_min.r) == (3, 1, 0, 2)


def test_sklf_example_two_dimensions():
    g = polynomial_rank2_discrete()
    sk = special_klf(g, stability_region("discrete"))
    assert (sk.n_rg, sk.n_bl, sk.m_n, sk.r) == (1, 1, 2, 2)
    assert sk.c1 == 2


def test_sklf_idempotent_on_minimal_basis():
    g = stable_rank2_continuous()
    rr = range_basis(g, region_none())
    sk2 = special_klf(rr.R, region_none())
    assert sk2.n_rg == 0
    assert sk2.n_bl == rr.R.n
    assert sk2.r == 2


def test_sklf_records_bad_eigenvalues_as_trailing_zeros():
    # the finite eigenvalues special_klf classifies as bad are the
    # finite zeros of the trailing system pencil, so the inner gains
    # can test the record instead of computing zeros() of the blocks
    rng = np.random.default_rng(2024)
    systems = [stable_rank2_continuous(), polynomial_rank2_discrete()]
    systems += [random_system(rng, n_max=8) for _ in range(20)]
    recorded = 0
    for g in systems:
        for region in (region_none(), stability_region(g.ts), all_finite_region()):
            try:
                sk = special_klf(g, region)
            except StructureError:
                continue  # a refused realization has no splitting form
            blocks = make_dss(
                sk.A_bl, sk.E_bl if sk.n_bl else None, sk.B_bl, sk.C_bl, sk.D_bl, g.ts
            )
            bad = [a / b for a, b in sk.bad_eigenvalues]
            assert_multiset_close(bad, zeros(blocks).finite, tol=1e-8)
            if region.kind == "none":
                assert bad == []
            recorded += len(bad)
    assert recorded > 0


def test_sklf_rejects_nonstabilizable_at_infinity():
    g = make_dss(
        np.eye(2),
        np.diag([1.0, 0.0]),
        np.array([[1.0], [0.0]]),
        np.array([[1.0, 1.0]]),
        np.array([[0.0]]),
        "continuous",
    )
    with pytest.raises(StructureError, match="stabilizable"):
        special_klf(g, stability_region("continuous"))


def test_sklf_rejects_uncontrollable_bad_eigenvalue():
    # state 2 carries an unstable eigenvalue that B cannot reach
    A = np.diag([-1.0, 3.0])
    B = np.array([[1.0], [0.0]])
    C = np.array([[1.0, 1.0]])
    D = np.array([[0.5]])
    g = make_dss(A, None, B, C, D, "continuous")
    with pytest.raises(StructureError, match="stabilizable"):
        special_klf(g, stability_region("continuous"))
    # the same realization is fine when every finite point is good
    sk = special_klf(g, region_none())
    assert sk.r == 1


def uncontrollable_unstable_pair(b3=1.0):
    # the unstable pair 1 +- 2j is unreachable from B = e3 when b3 is
    # its only entry
    A = np.array([[1.0, 2.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
    B = np.array([[0.0], [1.0 - b3], [b3]])
    return make_dss(A, None, B, np.ones((1, 3)), np.zeros((1, 1)), "continuous")


def test_sklf_rejects_uncontrollable_complex_bad_pair():
    g = uncontrollable_unstable_pair()
    with pytest.raises(StructureError, match=r"loses rank at the bad eigenvalue \(1\+2j\)"):
        special_klf(g, stability_region("continuous"))
    with pytest.raises(StructureError, match=r"loses rank at the bad eigenvalue \(1\+2j\)"):
        range_basis(g)
    # its irreducible realization drops the pair and is accepted
    red = irreducible_realization(g)
    assert (range_basis(red).sklf.r, red.n) == (1, 1)


def test_pbh_check_tests_each_conjugate_pair_once(monkeypatch):
    # one rank test per conjugate pair or repeated value, on a real
    # matrix at a real value
    tested = []
    rank = rmfact.klf.svd_rank_abs

    def recording(M, thresh):
        tested.append(M)
        return rank(M, thresh)

    monkeypatch.setattr(rmfact.klf, "svd_rank_abs", recording)
    rmfact.klf._check_bad_stabilizable(
        uncontrollable_unstable_pair(0.5), stability_region("continuous"), 1e-12
    )
    assert [M.dtype for M in tested] == [np.complex128]
    del tested[:]
    unstable_real = make_dss(np.diag([2.0, 2.0, 3.0]), None, np.eye(3), np.eye(3), np.zeros((3, 3)), "continuous")
    rmfact.klf._check_bad_stabilizable(unstable_real, stability_region("continuous"), 1e-12)
    assert [M.dtype for M in tested] == [np.float64, np.float64]


def assert_same_form(got, want):
    for name in ("n", "m", "p", "n_rg", "n_bl", "r", "m_n", "ts", "bad_eigenvalues"):
        assert getattr(got, name) == getattr(want, name)
    for name in "MNUZ":
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_the_splitting_form_is_kept_per_region_and_tolerance():
    g = stable_rank2_continuous()
    coarse = ToleranceConfig(rank_rtol=1e-3)
    cases = [(lambda: stability_region(g.ts), DEFAULT_TOL), (region_none, DEFAULT_TOL), (lambda: stability_region(g.ts), coarse)]
    forms = [special_klf(g, region(), tol) for region, tol in cases]
    assert len({id(sk) for sk in forms}) == 3
    for (region, tol), sk in zip(cases, forms):
        # a new but equal region finds the kept form
        assert special_klf(g, region(), tol) is sk
        assert_same_form(sk, special_klf(make_dss(g.A, g.E, g.B, g.C, g.D, g.ts), region(), tol))
        for X in (sk.M, sk.N, sk.U, sk.Z, sk.A_bl, sk.B_n):
            assert not X.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sk.M[0, 0] = 1.0


def test_a_refused_splitting_form_is_not_kept():
    g = uncontrollable_unstable_pair()
    for _ in range(2):
        with pytest.raises(StructureError, match="loses rank"):
            special_klf(g, stability_region("continuous"))
    assert g._kept == {}


def test_frf_and_iofac_share_one_splitting_reduction(monkeypatch):
    # a realization of the seeded suite (rng 2024, n_max 8)
    g = random_system(np.random.default_rng(2024), n_max=8)
    reduced = splitting_reductions(monkeypatch)
    full_rank_factorize(g)
    inner_outer(g)
    assert len(reduced) == 1 and reduced[0] is g
    # pinv compresses g itself only when r < p, and the transposed
    # cofactor, built anew on each call, only when r < m: on a system
    # of rank below min(p, m) the second call reuses g's form
    g = rank_deficient_system(np.random.default_rng(2024))
    assert normal_rank(g) < min(g.p, g.m)
    del reduced[:]
    pseudo_inverse(g)
    first = len(reduced)
    assert sum(s is g for s in reduced) == 1
    del reduced[:]
    pseudo_inverse(g)
    assert len(reduced) == first - 1 and all(s is not g for s in reduced)


def test_region_none_splitting_skips_the_eigenvalue_checks(monkeypatch):
    # no finite eigenvalue is bad for region_none, so the QZ of (A, E)
    # is left out; the KLF of the restricted pencil keeps its own QZ call
    outside = []
    depth = [0]
    qz, core = rmfact.klf.generalized_eigenvalues, rmfact.klf._klf_core

    def counting_qz(*args):
        if not depth[0]:
            outside.append(args)
        return qz(*args)

    def nested_core(*args):
        depth[0] += 1
        try:
            return core(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(rmfact.klf, "generalized_eigenvalues", counting_qz)
    monkeypatch.setattr(rmfact.klf, "_klf_core", nested_core)
    rng = np.random.default_rng(406)
    systems = [stable_rank2_continuous(), polynomial_rank2_discrete()] + [random_system(rng) for _ in range(10)]
    for g in systems:
        special_klf(g, region_none())
    assert outside == []
    special_klf(stable_rank2_continuous(), stability_region("continuous"))
    assert len(outside) == 1


def test_sklf_reorders_only_regular_windows(monkeypatch):
    # _ordered_qz does not check that a pencil is regular: the window of
    # _klf_core that special_klf reorders is regular by construction
    windows = []
    ordered_qz = rmfact.klf._ordered_qz

    def recording(A, B, select):
        window = (A.copy(), B.copy())
        out = ordered_qz(A, B, select)
        good = select(out[2], out[3])
        infinite = np.array([is_infinite(a, b) for a, b in zip(out[2], out[3])], dtype=bool)
        windows.append(window + (bool((good & ~infinite).any() and (~good & infinite).any()),))
        return out

    monkeypatch.setattr(rmfact.klf, "_ordered_qz", recording)
    rng = np.random.default_rng(2024)
    # example one read as a discrete system with A scaled by 1/4: its
    # window holds the good zero 0.5, the bad zero 2.5 and a bad
    # infinite zero, a mix the seeded suite does not reach
    g1 = stable_rank2_continuous()
    mixed = make_dss(g1.A / 4, g1.E, g1.B, g1.C, g1.D, "discrete")
    for g in [random_system(rng, n_max=8) for _ in range(100)] + [mixed]:
        for h in (g, transpose(g)):
            for region in (stability_region(h.ts), all_finite_region()):
                for rank_rtol in (0.0, 1e-3):
                    try:
                        special_klf(h, region, ToleranceConfig(rank_rtol=rank_rtol))
                    except RmfactError:
                        pass
    assert any(is_mixed for _, _, is_mixed in windows)
    for A, B, _ in windows:
        res = kronecker_like_form(A, B)
        assert res.right_minimal_indices == () and res.left_minimal_indices == ()


# -- the discards special_klf accounts for ------------------------------------


def near_deficient(g, rng, eps=1e-6):
    """g with the zero singular values of E raised to eps times its
    largest and, for p >= 2, the last row of [C D] within eps of the
    first: data whose rank a coarse tolerance cuts."""
    E = g.E
    if E is not None:
        U, s, Vt = np.linalg.svd(E)
        E = U @ np.diag(np.where(s < 1e-12 * s[0], eps * s[0], s)) @ Vt
    CD = np.hstack([g.C, g.D])
    if g.p >= 2:
        CD[-1] = CD[0] + eps * rng.standard_normal(CD.shape[1])
    return make_dss(g.A, E, g.B, CD[:, : g.n], CD[:, g.n:], g.ts)


def test_sklf_discards_bound_the_reconstruction_error(monkeypatch):
    # every block special_klf sets is counted: at the two points an
    # earlier after-the-fact check probed (|lambda| < 1), the
    # reconstruction error of the form stays within the sum of the
    # changes plus roundoff. The near-deficient copies make a coarse
    # tolerance discard well above roundoff in E's left-kernel rows, the
    # leading columns and the output rows, so an uncounted block shows
    changes = []
    set_block = rmfact.klf._set_block

    def recording(X, index, value=0.0):
        changes.append(set_block(X, index, value))
        return changes[-1]

    monkeypatch.setattr(rmfact.klf, "_set_block", recording)
    points = np.random.default_rng(99).standard_normal(2) * 2.0
    assert np.all(np.abs(points) < 1.0)
    rng = np.random.default_rng(2024)
    systems = [random_system(rng, n_max=8) for _ in range(100)]
    rng = np.random.default_rng(5)
    systems += [near_deficient(g, rng) for g in systems]
    checked = 0
    for g in systems:
        for h in (g, transpose(g)):
            M, N = system_pencil(h)
            scale = max(np.linalg.norm(M), np.linalg.norm(N), 1.0)
            for region in (stability_region(h.ts), all_finite_region()):
                for rank_rtol in (0.0, 1e-3):
                    del changes[:]
                    try:
                        sk = special_klf(h, region, ToleranceConfig(rank_rtol=rank_rtol))
                    except StructureError:
                        continue
                    T = scipy.linalg.block_diag(sk.U, np.eye(h.p))
                    for lam in points:
                        err = np.linalg.norm(T @ (M - lam * N) @ sk.Z - (sk.M - lam * sk.N))
                        assert err <= sum(changes) + 1e-14 * scale
                    checked += 1
    assert checked > 1500


def test_sklf_refuses_an_off_by_one_rank(monkeypatch):
    # a column compression that reports one rank too few zeroes a
    # direction that carries data; the form special_klf then builds is
    # either refused, naming the block where the lost direction shows,
    # or still orthogonally equivalent to the system pencil
    compress = rmfact.klf.col_compress

    def off_by_one(M, thresh):
        Z, rank = compress(M, thresh)
        # the weakest kept direction joins the kernel columns
        return (np.roll(Z, 1, axis=1), rank - 1) if rank else (Z, 0)

    monkeypatch.setattr(rmfact.klf, "col_compress", off_by_one)
    rng = np.random.default_rng(2024)
    named = 0
    for g in [random_system(rng, n_max=8) for _ in range(100)]:
        try:
            sk = special_klf(g, stability_region(g.ts))
        except StructureError as exc:
            named += "leading columns" in str(exc)
            continue
        scale = max(1.0, np.linalg.norm(np.block([[g.A, g.B], [g.C, g.D]])))
        errM, errN = sklf_blocks_and_errors(g, sk)
        assert errM < 1e-10 * scale and errN < 1e-10 * scale
    assert named > 0
