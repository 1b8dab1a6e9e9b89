"""In-process workloads: the seeded system suites, the six library
operations applied to each system, and the checks of their results.

The suites are frozen here rather than imported from the test helpers,
so that a later change to the tests cannot change the benchmark inputs.
`random_system` draws exactly what tests/support.random_system draws.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import qr as _cal_qr, svd as _cal_svd

import rmfact

SUITE_RNG = 2024
RESIDUAL_BOUND = 1e-7
PINV_BOUND = 1e-6
CHECK_POINTS = 16

# Host speed on a shared machine drifts by up to 2x within a minute, and
# CPU time drifts with it. A fixed mix of the work the suites do (small
# and medium dense factorizations, interpreter-bound list work), timed
# between systems, moves with the host; the suites report times scaled
# by CALIBRATION_NOMINAL_MS over its median in the same pass, that is,
# in milliseconds of a host on which the mix takes CALIBRATION_NOMINAL_MS.
# The mix binds the kernels at import, so the traced run's wrappers never see it.
CALIBRATION_NOMINAL_MS = 3.0
_CAL_MATS = [np.random.default_rng(7).standard_normal((k, k + 2)) for k in (3, 4, 5, 6, 7, 8, 10, 12, 16, 24, 32, 40)]


def random_system(rng, n_max=6, p_max=4, m_max=4, improper_prob=0.35):
    """Random descriptor system: order, sizes and time domain drawn from
    rng; with probability improper_prob, E is singular with a rank
    defect of at most m."""
    ts = "continuous" if rng.random() < 0.5 else "discrete"
    n = int(rng.integers(1, n_max + 1))
    p = int(rng.integers(1, p_max + 1))
    m = int(rng.integers(1, m_max + 1))
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    D = rng.standard_normal((p, m))
    E = None
    if rng.random() < improper_prob:
        drop = int(rng.integers(1, min(n, m) + 1))
        q1 = np.linalg.qr(rng.standard_normal((n, n)))[0]
        q2 = np.linalg.qr(rng.standard_normal((n, n)))[0]
        sv = np.concatenate([rng.uniform(0.5, 2.0, n - drop), np.zeros(drop)])
        E = q1 @ np.diag(sv) @ q2.T
    return rmfact.make_dss(A, E, B, C, D, ts)


def build(workload: str, limit: int | None = None) -> list:
    """The systems of a suite workload, the first `limit` of them when given."""
    rng = np.random.default_rng(SUITE_RNG)
    if workload == "suite-small":
        systems = [random_system(rng, n_max=8) for _ in range(100)]
    elif workload == "suite-large":
        systems = []
        for _ in range(16):
            g = random_system(rng, n_max=40, p_max=6, m_max=6)
            # keeps the spectrum of A O(1) at every order
            systems.append(rmfact.make_dss(g.A / np.sqrt(g.n), g.E, g.B, g.C, g.D, g.ts))
    else:
        raise ValueError(f"not a suite workload: {workload}")
    return systems[:limit]


def calibrate() -> float:
    """Milliseconds taken by the fixed calibration mix."""
    t0 = time.perf_counter()
    for M in _CAL_MATS:
        _cal_svd(M)
        _cal_qr(M, pivoting=True)
        np.linalg.solve(M[:, :-2] + 5.0 * np.eye(M.shape[0]), M[:, -2:])
        rows = [[float(x) for x in r] for r in M]
        sorted(rows, key=lambda r: (r[0], len(r)))
    return (time.perf_counter() - t0) * 1e3


def _info(g):
    return (rmfact.normal_rank(g), rmfact.mcmillan_degree(g), rmfact.poles(g), rmfact.zeros(g))


# looked up on the package at call time, so the traced run's wrappers apply
OPS = {
    "info": _info,
    "frf": lambda g: rmfact.full_rank_factorize(g),
    "dual_frf": lambda g: rmfact.dual_full_rank_factorize(g),
    "nrcf": lambda g: rmfact.nrcf(g),
    "pinv": lambda g: rmfact.pseudo_inverse(g),
    "iofac": lambda g: rmfact.inner_outer(g),
}


def _product_residual(g, left, right, rng):
    worst = 0.0
    for z in rmfact.random_nonpole_points([g, left, right], CHECK_POINTS, rng):
        gz = rmfact.evaluate(g, z)
        lr = rmfact.evaluate(left, z) @ rmfact.evaluate(right, z)
        worst = max(worst, np.linalg.norm(gz - lr) / (1.0 + np.linalg.norm(gz)))
    return worst


def _inner_residual(gi, ts):
    worst = 0.0
    for z in rmfact.frequency_grid(ts, CHECK_POINTS):
        v = rmfact.evaluate(gi, z)
        worst = max(worst, np.linalg.norm(v.conj().T @ v - np.eye(gi.m)))
    return worst


def _penrose_defects(g, gp, rng):
    prod = 0.0
    for z in rmfact.random_nonpole_points([g, gp], 8, rng):
        gv, pv = rmfact.evaluate(g, z), rmfact.evaluate(gp, z)
        scale = 1.0 + np.linalg.norm(gv) + np.linalg.norm(pv)
        prod = max(prod, np.linalg.norm(gv @ pv @ gv - gv) / scale, np.linalg.norm(pv @ gv @ pv - pv) / scale)
    herm = 0.0
    for z in rmfact.frequency_grid(g.ts, CHECK_POINTS):
        try:
            gv, pv = rmfact.evaluate(g, z), rmfact.evaluate(gp, z)
        except rmfact.EvaluationError:
            continue
        scale = 1.0 + np.linalg.norm(gv) + np.linalg.norm(pv)
        for a in (gv @ pv, pv @ gv):
            herm = max(herm, np.linalg.norm(a - a.conj().T) / scale)
    return prod, herm


def _check_info(g, res, rng):
    rank, degree, pol, _ = res
    # the normal rank is the rank of G at generic points
    pts = rmfact.random_nonpole_points([g], 2, rng)
    seen = 0
    for z in pts:
        s = np.linalg.svd(rmfact.evaluate(g, z), compute_uv=False)
        seen = max(seen, int(np.count_nonzero(s > 1e-8 * max(1.0, s[0] if s.size else 0.0))))
    if rank != seen:
        return f"normal rank {rank}, rank at generic points {seen}"
    if not 0 <= degree <= g.n or degree != pol.total:
        return f"McMillan degree {degree} for order {g.n} and {pol.total} poles"
    return ""


def _check_factors(g, res, rng):
    r = _product_residual(g, res.left, res.right, rng)
    return "" if r <= RESIDUAL_BOUND else f"product residual {r:.2e}"


def _check_nrcf(g, res, rng):
    N, M = res
    worst = 0.0
    for z in rmfact.frequency_grid(g.ts, CHECK_POINTS):
        nv, mv = rmfact.evaluate(N, z), rmfact.evaluate(M, z)
        worst = max(worst, np.linalg.norm(nv.conj().T @ nv + mv.conj().T @ mv - np.eye(g.m)))
    return "" if worst <= RESIDUAL_BOUND else f"normalization residual {worst:.2e}"


def _check_pinv(g, res, rng):
    prod, herm = _penrose_defects(g, res, rng)
    return "" if max(prod, herm) <= PINV_BOUND else f"Penrose defects {prod:.2e} / {herm:.2e}"


def _check_iofac(g, res, rng):
    gi, go = res
    prod = _product_residual(g, gi, go, rng)
    inner = _inner_residual(gi, g.ts)
    return "" if max(prod, inner) <= RESIDUAL_BOUND else f"product {prod:.2e}, inner {inner:.2e}"


CHECKS = {
    "info": _check_info,
    "frf": _check_factors,
    "dual_frf": _check_factors,
    "nrcf": _check_nrcf,
    "pinv": _check_pinv,
    "iofac": _check_iofac,
}


def check(op: str, index: int, g, res) -> str:
    """Empty when the result of `op` on system `index` passes its
    check; otherwise why it failed. The evaluation points depend only
    on the system and the operation, so verdicts repeat across runs."""
    rng = np.random.default_rng([index, list(OPS).index(op)])
    try:
        return CHECKS[op](g, res, rng)
    except rmfact.RmfactError as exc:
        return f"check raised {type(exc).__name__}: {exc}"
