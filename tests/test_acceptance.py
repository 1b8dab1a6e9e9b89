"""End-to-end gate over the shipped behavior.

Each test covers one numbered target and prints a single verdict line.
Two targets state zero locations that the implementation demonstrably
does not produce; those tests print FAIL and are marked xfail, and a
companion test pins the behavior that holds instead, so the gate stays
honest in both directions.
"""

import time

import numpy as np
import pytest

from rmfact import (
    FactorizationError,
    evaluate,
    frequency_grid,
    full_rank_factorize,
    inner_outer,
    kronecker_like_form,
    make_dss,
    normal_rank,
    nrcf,
    poles,
    pseudo_inverse,
    random_nonpole_points,
    range_basis,
    stack_horizontal,
    zeros,
)
from rmfact.numkernel import DEFAULT_TOL, thresholded_svd

from support import (
    assert_multiset_close,
    moore_penrose_defects,
    product_residual,
    random_system,
    remove_matched,
    run_cli_json,
    write_examples,
    zero_pole_balance,
)

SQRT3 = np.sqrt(3.0)


@pytest.fixture()
def examples(tmp_path):
    return write_examples(tmp_path)


def _finite(block_ev):
    return [a + 1j * b for a, b in block_ev["finite"]]


def _inf_count(block_ev):
    return sum(e["multiplicity"] for e in block_ev["infinite"])


def test_acceptance_1_example_one_structure(examples):
    ex1, _ = examples
    start = time.monotonic()
    rep = run_cli_json(["info", ex1])
    elapsed = time.monotonic() - start
    res = rep["results"]
    assert res["normal_rank"] == 2
    assert_multiset_close(_finite(res["poles"]), [-1, -1, -2, -2], tol=1e-6)
    assert_multiset_close(_finite(res["zeros"]), [1, 2], tol=1e-6)
    assert _inf_count(res["zeros"]) == 1
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1: PASS - rank 2, poles [-1,-1,-2,-2], zeros [1,2,inf] in {elapsed:.2f}s")


def test_acceptance_2_example_one_minimal_basis(examples):
    ex1, _ = examples
    rep = run_cli_json(["frf", ex1, "--zeros", "none"])
    res = rep["results"]
    r_block, x_block = res["R"], res["X"]
    assert r_block["mcmillan_degree"] == 1
    assert r_block["zeros"]["total"] == 0
    r_poles = _finite(r_block["poles"])
    assert len(r_poles) == 1
    mu = r_poles[0]
    assert x_block["mcmillan_degree"] == 4
    assert_multiset_close(_finite(x_block["zeros"]), [1, 2, mu], tol=1e-6)
    assert _inf_count(x_block["zeros"]) == 1
    assert res["max_relative_residual"] <= 1e-8
    print(
        f"ACCEPTANCE 2: PASS - R degree 1 zero-free, X degree 4 with zeros "
        f"[1, 2, inf, {mu.real:.4g}], residual {res['max_relative_residual']:.2e}"
    )


def test_acceptance_3_example_one_unstable_zero_basis(examples):
    ex1, _ = examples
    rep = run_cli_json(["range", ex1, "--zeros", "bad"])
    block = rep["results"]["R"]
    assert block["mcmillan_degree"] == 3
    assert_multiset_close(_finite(block["zeros"]), [1, 2], tol=1e-6)
    print("ACCEPTANCE 3: PASS - R degree 3 with zeros [1, 2]")


def test_acceptance_4_example_one_inner_basis_as_stated(examples):
    ex1, _ = examples
    rep = run_cli_json(["range", ex1, "--zeros", "bad", "--inner"])
    res = rep["results"]
    block = res["R"]
    assert_multiset_close(_finite(block["poles"]), [-1, -SQRT3, -2], tol=1e-4)
    assert res["inner_residual"] <= 1e-8
    got = _finite(block["zeros"])
    _, unmatched = remove_matched(got, [-1, -2], tol=1e-4)
    if unmatched:
        print(
            f"ACCEPTANCE 4: FAIL - stated zeros [-1, -2] not observed; "
            f"computed zeros {sorted(z.real for z in got)} (poles and unitarity check out)"
        )
        pytest.xfail(
            "an inner basis keeps the original right-half-plane zeros; "
            "their mirror images appear among its poles, not its zeros"
        )
    print("ACCEPTANCE 4: PASS - inner basis with stated poles and zeros")


def test_acceptance_4_companion_inner_zero_locations(examples):
    ex1, _ = examples
    rep = run_cli_json(["range", ex1, "--zeros", "bad", "--inner"])
    block = rep["results"]["R"]
    assert_multiset_close(_finite(block["zeros"]), [1, 2], tol=1e-4)
    pole_pool = _finite(block["poles"])
    _, unmatched = remove_matched(pole_pool, [-1, -2], tol=1e-4)
    assert not unmatched, "mirror images of the kept zeros must appear among the poles"
    assert rep["results"]["inner_residual"] <= 1e-8


def test_acceptance_5_example_two_structure(examples):
    _, ex2 = examples
    rep = run_cli_json(["info", ex2])
    res = rep["results"]
    assert res["normal_rank"] == 2
    assert res["mcmillan_degree"] == 2
    assert _finite(res["poles"]) == []
    assert _inf_count(res["poles"]) == 2
    assert_multiset_close(_finite(res["zeros"]), [1], tol=1e-6)
    assert _inf_count(res["zeros"]) == 0
    print("ACCEPTANCE 5: PASS - rank 2, two infinite poles, single zero at 1")


def test_acceptance_6_example_two_minimal_and_inner_outer(examples):
    _, ex2 = examples
    rep = run_cli_json(["frf", ex2, "--zeros", "none"])
    res = rep["results"]
    r_poles = _finite(res["R"]["poles"])
    assert len(r_poles) == 1
    mu = r_poles[0]
    assert res["X"]["mcmillan_degree"] == 2
    assert_multiset_close(_finite(res["X"]["zeros"]), [mu, 1], tol=1e-6)

    io_rep = run_cli_json(["iofac", ex2])
    io_res = io_rep["results"]
    assert_multiset_close(_finite(io_res["outer"]["zeros"]), [0, 1], tol=1e-6)
    assert io_res["inner"]["mcmillan_degree"] == 1
    assert io_res["inner_residual"] <= 1e-8
    print(
        f"ACCEPTANCE 6: PASS - minimal X degree 2 zeros [{mu.real:.4g}, 1]; "
        f"quasi-outer zeros [0, 1], inner factor degree 1"
    )


def _property_suite():
    rng = np.random.default_rng(2024)
    return [random_system(rng, n_max=8) for _ in range(100)], rng


def test_acceptance_7_property_suite():
    start = time.monotonic()
    systems, rng = _property_suite()
    worst_frf = worst_nrcf = worst_prod = worst_herm = 0.0
    nrcf_runs = pinv_runs = pinv_order = 0
    for g in systems:
        fr = full_rank_factorize(g)
        pts = random_nonpole_points([g, fr.left, fr.right], 16, rng)
        worst_frf = max(worst_frf, product_residual(g, fr.left, fr.right, pts))
        assert normal_rank(stack_horizontal(fr.left, g)) == normal_rank(g)
        try:
            N, M = nrcf(g)
        except FactorizationError:
            N = None
        if N is not None:
            nrcf_runs += 1
            defect = 0.0
            for z in frequency_grid(g.ts, 16):
                nv, mv = evaluate(N, z), evaluate(M, z)
                defect = max(
                    defect,
                    np.linalg.norm(nv.conj().T @ nv + mv.conj().T @ mv - np.eye(g.m)),
                )
            worst_nrcf = max(worst_nrcf, defect)
        try:
            gp = pseudo_inverse(g)
        except FactorizationError:
            gp = None
        if gp is not None:
            pinv_runs += 1
            pinv_order += gp.n
            prod, herm = moore_penrose_defects(g, gp, rng)
            worst_prod = max(worst_prod, prod)
            worst_herm = max(worst_herm, herm)
    elapsed = time.monotonic() - start
    assert worst_frf <= 1e-7
    assert worst_nrcf <= 1e-7
    assert worst_prod <= 1e-6 and worst_herm <= 1e-6
    assert nrcf_runs >= 80 and pinv_runs >= 80
    # the summed order of the minimal G# realizations: a larger sum is a
    # non-minimal pseudo-inverse
    assert pinv_order == 748
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 7: PASS - 100 systems: frf {worst_frf:.1e}, rank compat 100/100, "
        f"nrcf {worst_nrcf:.1e} ({nrcf_runs} runs), pinv {worst_prod:.1e}/{worst_herm:.1e} "
        f"({pinv_runs} runs) in {elapsed:.1f}s"
    )


def test_acceptance_7e_inner_outer_zero_partition_as_stated():
    systems, _ = _property_suite()
    holds = fails = 0
    for g in systems:
        try:
            Gi, Go = inner_outer(g)
        except FactorizationError:
            continue
        union = list(zeros(Gi).finite) + list(zeros(Go).finite)
        leftover, unmatched = remove_matched(union, zeros(g).finite, tol=1e-6)
        same_inf = sum(zeros(Gi).infinite_multiplicities) + sum(
            zeros(Go).infinite_multiplicities
        ) == sum(zeros(g).infinite_multiplicities)
        if not leftover and not unmatched and same_inf:
            holds += 1
        else:
            fails += 1
    assert holds + fails >= 80
    if fails:
        print(
            f"ACCEPTANCE 7e: FAIL - factor zero multisets equal the product's on "
            f"{holds}/{holds + fails} systems; the rest carry matched cancellation pairs"
        )
        pytest.xfail(
            "the inner and quasi-outer factors share cancelling pole/zero pairs, "
            "so their zero multisets exceed the product's; the balanced identity "
            "is pinned by the companion test"
        )
    print("ACCEPTANCE 7e: PASS - factor zeros partition the product zeros")


def test_acceptance_7e_companion_zero_pole_balance():
    systems, _ = _property_suite()
    runs = 0
    for g in systems:
        try:
            Gi, Go = inner_outer(g)
        except FactorizationError:
            continue
        runs += 1
        zero_pole_balance(g, Gi, Go)
        # every finite zero of an inner factor forces the mirrored point
        # to be one of its poles, otherwise Gi~Gi = I breaks there
        zf = zeros(Gi).finite
        if zf:
            mirrors = [
                -np.conj(z) if g.ts == "continuous" else 1.0 / np.conj(z) for z in zf
            ]
            _, unmatched = remove_matched(poles(Gi).finite, mirrors, tol=1e-5)
            assert not unmatched, f"zero mirrors missing from the inner factor poles: {unmatched}"
    assert runs >= 80


def test_acceptance_8_kernel_suite():
    start = time.monotonic()
    rng = np.random.default_rng(4096)
    for k in range(200):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        M = rng.standard_normal((rows, cols))
        U, s, V, rank = thresholded_svd(M, DEFAULT_TOL.rank_threshold(np.linalg.norm(M, 2), max(M.shape)))
        assert np.linalg.norm(U.T @ U - np.eye(rows)) < 1e-13
        assert np.linalg.norm(V.T @ V - np.eye(cols)) < 1e-13
        S = np.zeros((rows, cols))
        S[: len(s), : len(s)] = np.diag(s)
        assert np.linalg.norm(U @ S @ V.T - M) < 1e-12 * max(1.0, s[0] if len(s) else 0.0)
        assert rank == min(rows, cols)

        A = rng.standard_normal((rows, cols))
        E = rng.standard_normal((rows, cols))
        if rng.random() < 0.5 and min(rows, cols) > 1:
            E[:, : min(rows, cols) // 2] = 0.0
        res = kronecker_like_form(A, E)
        scale = max(np.linalg.norm(A), np.linalg.norm(E), 1.0)
        assert np.linalg.norm(res.Q.T @ res.Q - np.eye(rows)) < 1e-13
        assert np.linalg.norm(res.Z.T @ res.Z - np.eye(cols)) < 1e-13
        assert np.linalg.norm(res.Q.T @ A @ res.Z - res.M) < 1e-11 * scale
        assert np.linalg.norm(res.Q.T @ E @ res.Z - res.N) < 1e-11 * scale
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 8: PASS - 200 kernel reductions, invariants hold in {elapsed:.1f}s")
