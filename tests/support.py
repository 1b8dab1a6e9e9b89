"""Shared test helpers: seeded system generators, one-state padding,
counters of the decoupling, splitting-form and irreducible reductions,
eigenvalue multiset assertions, and a capture wrapper around the
command line entry point."""

import contextlib
import inspect
import io
import json

import numpy as np
import scipy.linalg

import rmfact.dss
import rmfact.klf
from rmfact import (
    EvaluationError,
    ToleranceConfig,
    evaluate,
    frequency_grid,
    make_dss,
    poles,
    random_nonpole_points,
    series,
    zeros,
)

# series products of minimal factors can carry staircase roundoff just
# above the tight default rank threshold; deliberately rank-deficient
# constructions use this mildly relaxed relative gap
RELAXED = ToleranceConfig(rank_rtol=1e-12)


def random_system(rng, ts=None, n_max=6, p_max=4, m_max=4, improper_prob=0.35):
    """Random descriptor system with a C_b-stabilizable realization.

    With probability improper_prob the E matrix is singular with rank
    defect at most m, which keeps rank [E B] = n generically while
    producing infinite poles.
    """
    if ts is None:
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
    return make_dss(A, E, B, C, D, ts)


def improper_system(rng):
    """G = G_p + P: G_p from random_system(rng, n_max=6) and the
    polynomial part P = -lambda * sum_j c_j b_j.T of one or two random
    rank-one terms, each realized by the 2-state nilpotent block
    A = I, E = [[0, 1], [0, 0]], B = [0; b_j.T], C = [c_j, 0]. G has
    infinite poles however G_p is realized."""
    g = random_system(rng, n_max=6)
    p, m = g.p, g.m
    A, E, B, C = [g.A], [g.e_matrix], [g.B], [g.C]
    for _ in range(int(rng.integers(1, 3))):
        b, c = rng.standard_normal((1, m)), rng.standard_normal((p, 1))
        A.append(np.eye(2))
        E.append(np.array([[0.0, 1.0], [0.0, 0.0]]))
        B.append(np.vstack([np.zeros((1, m)), b]))
        C.append(np.hstack([c, np.zeros((p, 1))]))
    return make_dss(scipy.linalg.block_diag(*A), scipy.linalg.block_diag(*E), np.vstack(B), np.hstack(C), g.D, g.ts)


def overflowing_pencil_system():
    """A 2-state system with E = diag(4, 1): at lambda = 1e308,
    lambda*E - A overflows (1e308 * 4), though lambda is finite."""
    A, E = np.diag([-1.0, -2.0]), np.diag([4.0, 1.0])
    return make_dss(A, E, np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)), "continuous")


def rank_deficient_system(rng, ts=None, inner_dim=1, p=3, m=3, n_each=2):
    """Series product of a p x k and a k x m factor, so the normal rank
    is k < min(p, m) while the cascade realization stays minimal."""
    if ts is None:
        ts = "continuous" if rng.random() < 0.5 else "discrete"
    k = inner_dim

    def factor(rows, cols):
        return make_dss(
            rng.standard_normal((n_each, n_each)),
            None,
            rng.standard_normal((n_each, cols)),
            rng.standard_normal((rows, n_each)),
            rng.standard_normal((rows, cols)),
            ts,
        )

    return series(factor(p, k), factor(k, m))


def pad_state(g, a, e, side, rng):
    """g with one extra state, with A entry a and E entry e, that the
    input does not reach (side "uncontrollable") or the output does not
    see ("unobservable"), coupled randomly to the other states on the
    side that keeps it a decoupling mode, under a random orthogonal
    state similarity. G is unchanged."""
    n = g.n
    A = np.zeros((n + 1, n + 1))
    A[:n, :n], A[n, n] = g.A, a
    E = np.zeros((n + 1, n + 1))
    E[:n, :n], E[n, n] = g.e_matrix, e
    B = np.vstack([g.B, rng.standard_normal((1, g.m))])
    C = np.hstack([g.C, rng.standard_normal((g.p, 1))])
    if side == "uncontrollable":
        B[n] = 0.0
        A[:n, n] = rng.standard_normal(n)
    else:
        C[:, n] = 0.0
        A[n, :n] = rng.standard_normal(n)
    Q = np.linalg.qr(rng.standard_normal((n + 1, n + 1)))[0]
    E = None if g.E is None and e == 1.0 else Q @ E @ Q.T
    return make_dss(Q @ A @ Q.T, E, Q @ B, C @ Q.T, g.D, g.ts)


def irreducible_reductions(monkeypatch):
    """The realizations irreducible_realization reduces, one entry per
    reduction it computes; a kept result adds none."""
    reduced = []
    remove = rmfact.dss._remove_nondynamic

    def counting(*args):
        caller = inspect.currentframe().f_back
        if caller.f_code.co_name == "irreducible_realization":
            reduced.append(caller.f_locals["sys"])
        return remove(*args)

    monkeypatch.setattr(rmfact.dss, "_remove_nondynamic", counting)
    return reduced


def decoupling_reductions(monkeypatch):
    """The realizations _controllable_part reduces, one entry per call:
    a controllable and observable part computes two, one on the
    realization and one on the transpose of its controllable part."""
    reduced = []
    part = rmfact.dss._controllable_part

    def counting(sys, tol):
        reduced.append(sys)
        return part(sys, tol)

    monkeypatch.setattr(rmfact.dss, "_controllable_part", counting)
    return reduced


def splitting_reductions(monkeypatch):
    """The realizations special_klf reduces, one entry per _klf_core call it makes."""
    reduced = []
    core = rmfact.klf._klf_core

    def counting(*args):
        caller = inspect.currentframe().f_back
        if caller.f_code.co_name == "special_klf":
            reduced.append(caller.f_locals["sys"])
        return core(*args)

    monkeypatch.setattr(rmfact.klf, "_klf_core", counting)
    return reduced


def assert_multiset_close(actual, expected, tol=1e-6):
    """Match two complex multisets pairwise within tol (relative for
    large values); order free, multiplicity aware."""
    pool = [complex(z) for z in actual]
    missing = []
    for e in expected:
        e = complex(e)
        if not pool:
            missing.append(e)
            continue
        j = min(range(len(pool)), key=lambda i: abs(pool[i] - e))
        if abs(pool[j] - e) <= tol * max(1.0, abs(e)):
            pool.pop(j)
        else:
            missing.append(e)
    assert not missing and not pool, (
        f"multisets differ: unmatched expected {missing}, unmatched actual {pool}"
    )


def remove_matched(pool, values, tol=1e-6):
    """Remove each entry of values from pool (nearest match within tol).
    Returns (remainder, unmatched_values)."""
    pool = [complex(z) for z in pool]
    unmatched = []
    for v in values:
        v = complex(v)
        if pool:
            j = min(range(len(pool)), key=lambda i: abs(pool[i] - v))
            if abs(pool[j] - v) <= tol * max(1.0, abs(v)):
                pool.pop(j)
                continue
        unmatched.append(v)
    return pool, unmatched


def product_residual(sys, left, right, points):
    """max over points of ||G - L R||_F / (1 + ||G||_F)."""
    worst = 0.0
    for s in points:
        gv = evaluate(sys, s)
        lr = evaluate(left, s) @ evaluate(right, s)
        worst = max(worst, np.linalg.norm(gv - lr) / (1.0 + np.linalg.norm(gv)))
    return worst


def moore_penrose_defects(g, gp, rng):
    """(product defect at arbitrary points, Hermitian defect on the
    frequency boundary). The Hermitian identities hold only on the
    boundary of the stability region."""
    prod = 0.0
    for s in random_nonpole_points([g, gp], 8, rng):
        gv, pv = evaluate(g, s), evaluate(gp, s)
        scale = 1.0 + np.linalg.norm(gv) + np.linalg.norm(pv)
        prod = max(prod, np.linalg.norm(gv @ pv @ gv - gv) / scale)
        prod = max(prod, np.linalg.norm(pv @ gv @ pv - pv) / scale)
    herm = 0.0
    for s in frequency_grid(g.ts, 16):
        try:
            gv, pv = evaluate(g, s), evaluate(gp, s)
        except EvaluationError:
            continue
        a = gv @ pv
        b = pv @ gv
        scale = 1.0 + np.linalg.norm(gv) + np.linalg.norm(pv)
        herm = max(herm, np.linalg.norm(a - a.conj().T) / scale)
        herm = max(herm, np.linalg.norm(b - b.conj().T) / scale)
    return prod, herm


def zero_pole_balance(g, Gi, Go, tol=1e-5):
    """Factor zeros exceed the product zeros exactly by the factor
    pole-zero cancellations, and the same multiset balances the poles."""
    zu = list(zeros(Gi).finite) + list(zeros(Go).finite)
    pu = list(poles(Gi).finite) + list(poles(Go).finite)
    z_rem, z_unmatched = remove_matched(zu, zeros(g).finite, tol)
    p_rem, p_unmatched = remove_matched(pu, poles(g).finite, tol)
    assert not z_unmatched, f"product zeros missing from factors: {z_unmatched}"
    assert not p_unmatched, f"product poles missing from factors: {p_unmatched}"
    assert_multiset_close(z_rem, p_rem, tol=1e-4)
    zi = sum(zeros(Gi).infinite_multiplicities) + sum(zeros(Go).infinite_multiplicities)
    pi = sum(poles(Gi).infinite_multiplicities) + sum(poles(Go).infinite_multiplicities)
    assert zi - sum(zeros(g).infinite_multiplicities) == pi - sum(poles(g).infinite_multiplicities)


def run_cli(args):
    """Run the command line entry point capturing stdout and stderr."""
    from rmfact.cli import run_command

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


def run_cli_json(args):
    code, out, err = run_cli(list(args) + ["--json"])
    assert code == 0, f"command failed ({code}): {err}"
    return json.loads(out)


def write_examples(dirpath):
    """Write the two example systems as system files; returns paths."""
    from rmfact import polynomial_rank2_discrete, stable_rank2_continuous, write_system_file

    p1 = dirpath / "ex1.json"
    p2 = dirpath / "ex2.json"
    write_system_file(stable_rank2_continuous(), str(p1))
    write_system_file(polynomial_rank2_discrete(), str(p2))
    return p1, p2


def _failing(routine):
    """A patch of numkernel's LAPACK binder get whose routine (gges or
    gees) reports a failed iteration (info 1) after a real run."""

    def patch(get):
        def fail(f):
            def call(*args, **kwargs):
                out = f(*args, **kwargs)
                return out if kwargs.get("lwork") == -1 else (*out[:-1], 1)

            return call

        def patched(names, *args):
            return [fail(f) if name == routine else f for name, f in zip(names, get(names, *args))]

        return patched

    return patch


# numkernel's LAPACK binder get, with each gges (QZ) or gees (real Schur
# form) it hands out reporting a failed iteration
failing_gges = _failing("gges")
failing_gees = _failing("gees")


def leaking_gges(get):
    """numkernel's LAPACK binder get, with each gges it hands out
    reporting every beta as 0, an infinite eigenvalue, after a real
    run."""

    def leak(gges):
        def call(*args, **kwargs):
            out = gges(*args, **kwargs)
            return out if kwargs.get("lwork") == -1 else (*out[:5], 0.0 * out[5], *out[6:])

        return call

    def patched(names, *args):
        return [leak(f) if name == "gges" else f for name, f in zip(names, get(names, *args))]

    return patched
