"""Command-line front-end.

Subcommands map one-to-one onto library operations: info, klf, sklf,
range, frf, dual-frf, nrcf, pinv, iofac, eval, verify. Reports go to
standard output, human-readable by default or as a single JSON
document with --json. Factor realizations are written as system files
when --out names a directory.

The residuals the reports print (G = L R, R~R = I, N~N + M~M = I and
the Moore-Penrose conditions) come from rmfact.fact, which owns every
identity check; this module only formats them. One report builder,
_factor_report, writes the factor blocks, results, --out files and
human-readable lines of range, frf, dual-frf, nrcf, pinv and iofac.

Each subcommand takes only the flags its handler reads.

Exit codes: 0 success, 2 input or parse error, 3 structural or
factorization error (non-stabilizable realizations, poles of G on the
stability boundary in nrcf, zeros on it in the inner basis, evaluation
at a pole, a failed LAPACK iteration), 4 verification failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .dss import DescriptorSystem, Structure, evaluate, structure, system_pencil
from .exceptions import InputError, RmfactError, VerificationError
from .fact import (
    FREQ_GRID,
    RESIDUAL_GRID,
    certify,
    dual_full_rank_factorize,
    full_rank_factorize,
    gram_residual,
    inner_outer,
    nrcf,
    penrose_residuals,
    product_residuals,
    pseudo_inverse,
)
from .io import (
    SCHEMA_VERSION,
    eigenvalues_to_json,
    parse_system_file,
    report_to_json,
    write_system_file,
)
from .klf import all_finite_region, kronecker_like_form, region_none, special_klf, stability_region
from .numkernel import ToleranceConfig
from .rangebasis import range_basis

VERIFY_THRESHOLD = 1e-7


def _int_at_least(low: int):
    """argparse type accepting only integers >= low."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text}")
        return int(text)
    return integer


def _finite_nonnegative(text: str) -> float:
    """argparse type accepting only finite numbers >= 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rmfact",
        description="Range bases and full-rank factorizations of rational matrices",
    )
    sub = top.add_subparsers(dest="command", required=True)

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("system", help="system file (JSON)")
    source.add_argument("--json", action="store_true", help="emit the report as JSON on stdout")

    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=0.0, help="relative rank tolerance, floored at 100*k*eps (0 = the floor)")

    zeros = argparse.ArgumentParser(add_help=False)
    zeros.add_argument("--zeros", choices=["none", "bad", "all"], default="bad", help="which zeros of G the range basis keeps")

    gains = argparse.ArgumentParser(add_help=False)
    gains.add_argument("--stabilize", action="store_true", help="move the basis poles into the good region")
    gains.add_argument("--inner", action="store_true", help="make the basis inner (implies --stabilize)")

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid", type=_int_at_least(1), default=None, help="number of grid points for residual and inner checks")

    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_int_at_least(0), default=0, help="seed for the random evaluation points")

    outdir = argparse.ArgumentParser(add_help=False)
    outdir.add_argument("--out", default=None, help="directory for factor realization files")

    sub.add_parser("info", parents=[source, tol], help="poles, zeros, normal rank, McMillan degree")
    sub.add_parser("klf", parents=[source, tol], help="Kronecker structure of the system matrix pencil")
    sub.add_parser("sklf", parents=[source, tol, zeros], help="block splitting form of the system matrix pencil")
    sub.add_parser("range", parents=[source, tol, zeros, gains, grid, outdir], help="range basis R")
    sub.add_parser("frf", parents=[source, tol, zeros, gains, grid, seed, outdir], help="full-rank factorization G = R X")
    sub.add_parser("dual-frf", parents=[source, tol, zeros, gains, grid, seed, outdir], help="dual full-rank factorization G = X R")
    sub.add_parser("nrcf", parents=[source, tol, grid, outdir], help="normalized right coprime factorization G = N M^{-1}")
    sub.add_parser("pinv", parents=[source, tol, grid, seed, outdir], help="Moore-Penrose pseudo-inverse")
    sub.add_parser("iofac", parents=[source, tol, grid, seed, outdir], help="inner - quasi-outer factorization")

    ev = sub.add_parser("eval", parents=[source], help="evaluate G at a point")
    ev.add_argument("--point", required=True, help="evaluation point, e.g. 0, 2.5, 1+2j")

    ver = sub.add_parser("verify", parents=[source, grid, seed], help="grid check of a factorization G = L R")
    ver.add_argument("left", help="system file of the left factor")
    ver.add_argument("right", help="system file of the right factor")
    ver.add_argument("--inner", action="store_true", help="also require the left factor to be inner")
    ver.add_argument("--threshold", type=_finite_nonnegative, default=VERIFY_THRESHOLD, help="acceptance threshold for all residuals")
    return top


def _tolerance(args) -> ToleranceConfig:
    return ToleranceConfig(rank_rtol=getattr(args, "tol", 0.0))


# the bad region of the splitting form for each --zeros value: the zeros
# of G in its bad set stay with the basis
_BAD_REGION = {
    "none": lambda ts: region_none(),
    "bad": stability_region,
    "all": lambda ts: all_finite_region(),
}


def _gains(args) -> str:
    return "inner" if args.inner else "stable" if args.stabilize else "none"


def _input_block(path: str, sys_: DescriptorSystem) -> dict:
    return {
        "path": path,
        "ts": sys_.ts,
        "order": sys_.n,
        "rows": sys_.p,
        "cols": sys_.m,
        "descriptor_E": sys_.E is not None,
    }


def _factor_block(sys_: DescriptorSystem, st: Structure) -> dict:
    return {
        "rows": sys_.p,
        "cols": sys_.m,
        "order": sys_.n,
        "normal_rank": int(st.normal_rank),
        "mcmillan_degree": int(st.mcmillan_degree),
        "poles": eigenvalues_to_json(st.poles),
        "zeros": eigenvalues_to_json(st.zeros),
    }


def _emit(args, report, human_lines):
    if args.json:
        print(report_to_json(report))
    else:
        for line in human_lines:
            print(line)
        for name, path in report.get("outputs", {}).items():
            print(f"wrote {name}: {path}")


def _factor_lines(label, block):
    return [
        f"{label}: {block['rows']}x{block['cols']}, order {block['order']}, "
        f"normal rank {block['normal_rank']}, McMillan degree {block['mcmillan_degree']}",
        f"  poles {_fmt_ev(block['poles'])}",
        f"  zeros {_fmt_ev(block['zeros'])}",
    ]


def _fmt_ev(js: dict) -> str:
    parts = []
    for re_, im_ in js["finite"]:
        parts.append(f"{re_:.6g}" if abs(im_) < 1e-12 else f"{re_:.6g}{im_:+.6g}j")
    for entry in js["infinite"]:
        k = entry["multiplicity"]
        parts.append("inf" if k == 1 else f"inf(x{k})")
    return "[" + ", ".join(parts) + "]"


def _start(args):
    """The system named by args, its tolerance, and the report with
    its header and input block."""
    sys_ = parse_system_file(args.system)
    report = {"schema_version": SCHEMA_VERSION, "command": args.command}
    report["input"] = _input_block(args.system, sys_)
    return sys_, _tolerance(args), report


def _factor_report(args, report, factors, results, lines) -> int:
    """Finish the report of a factorization command: one block per
    factor (key, label, realization, Structure) in order, then the
    extra results, the --out files and the human-readable lines, the
    given lines after the factor lines."""
    blocks = {key: _factor_block(f, st) for key, _, f, st in factors}
    report["results"] = {**blocks, **results}
    if args.out is not None:
        try:
            os.makedirs(args.out, exist_ok=True)
            report["outputs"] = {
                key: write_system_file(f, os.path.join(args.out, f"{key}.json")) for key, _, f, _ in factors
            }
        except OSError as exc:
            raise InputError(f"cannot write factors to the --out directory {args.out}: {exc.strerror}") from None
    human = [line for key, label, _, _ in factors for line in _factor_lines(label, blocks[key])]
    _emit(args, report, human + lines)
    return 0


def _cmd_info(args) -> int:
    sys_, tol, report = _start(args)
    block = _factor_block(sys_, structure(sys_, tol))
    report["results"] = block
    lines = [
        f"system: {sys_.p}x{sys_.m} {sys_.ts}, order {sys_.n}",
        f"normal rank: {block['normal_rank']}",
        f"McMillan degree: {block['mcmillan_degree']}",
        f"poles: {_fmt_ev(block['poles'])}",
        f"zeros: {_fmt_ev(block['zeros'])}",
    ]
    _emit(args, report, lines)
    return 0


def _cmd_klf(args) -> int:
    sys_, tol, report = _start(args)
    M, N = system_pencil(sys_)
    res = kronecker_like_form(M, N, tol)
    results = {
        "pencil_rows": M.shape[0],
        "pencil_cols": M.shape[1],
        "right_minimal_indices": [int(k) for k in res.right_minimal_indices],
        "finite_eigenvalues": [
            [float(np.real(a / b)), float(np.imag(a / b))] for a, b in res.finite_eigenvalues
        ],
        "infinite_divisor_degrees": [int(k) for k in res.infinite_divisor_degrees],
        "left_minimal_indices": [int(k) for k in res.left_minimal_indices],
    }
    report["results"] = results
    fev = _fmt_ev({"finite": results["finite_eigenvalues"], "infinite": []})
    lines = [
        f"system matrix pencil: {M.shape[0]}x{M.shape[1]}",
        f"right minimal indices: {results['right_minimal_indices']}",
        f"finite eigenvalues: {fev}",
        f"infinite elementary divisor degrees: {results['infinite_divisor_degrees']}",
        f"left minimal indices: {results['left_minimal_indices']}",
    ]
    _emit(args, report, lines)
    return 0


def _cmd_sklf(args) -> int:
    sys_, tol, report = _start(args)
    region = _BAD_REGION[args.zeros](sys_.ts)
    sk = special_klf(sys_, region, tol)
    results = {
        "n_rg": sk.n_rg,
        "n_bl": sk.n_bl,
        "m_n": sk.m_n,
        "r": sk.r,
        "c1": sk.c1,
        "leading_block_rows": sk.n_rg,
        "trailing_block_order": sk.n_bl,
    }
    report["results"] = results
    lines = [
        f"splitting form row blocks [n_rg, n_bl, m_n, p] = [{sk.n_rg}, {sk.n_bl}, {sk.m_n}, {sk.p}]",
        f"column blocks [c1, n_bl, r, m_n] = [{sk.c1}, {sk.n_bl}, {sk.r}, {sk.m_n}]",
        f"normal rank r = {sk.r}",
    ]
    _emit(args, report, lines)
    return 0


def _run_range_like(args):
    sys_, tol, report = _start(args)
    region = _BAD_REGION[args.zeros](sys_.ts)
    return sys_, tol, region, _gains(args), report


def _cmd_range(args) -> int:
    sys_, tol, region, gains, report = _run_range_like(args)
    rr = range_basis(sys_, region, gains, tol)
    st = structure(rr.R, tol)
    results, lines = {"inner": gains == "inner"}, []
    if gains == "inner":
        results["inner_residual"] = worst = gram_residual([rr.R], args.grid or FREQ_GRID)
        lines.append(f"max |R~R - I| on grid: {worst:.3e}")
    return _factor_report(args, report, [("R", "R", rr.R, st)], results, lines)


def _fact_command(args, runner, names) -> int:
    sys_, tol, region, gains, report = _run_range_like(args)
    grid = args.grid or RESIDUAL_GRID
    fr = runner(sys_, region, gains, tol)
    cert = certify(sys_, fr.left, fr.right, tol, np.random.default_rng(args.seed), grid)
    residual = cert["max_relative_residual"]
    factors = [
        (names[0], names[0], fr.left, cert["left_structure"]),
        (names[1], names[1], fr.right, cert["right_structure"]),
    ]
    results = {"max_relative_residual": residual, "grid_points": grid}
    lines = [f"max relative residual on {grid} points: {residual:.3e}"]
    return _factor_report(args, report, factors, results, lines)


def _cmd_frf(args) -> int:
    return _fact_command(args, full_rank_factorize, ("R", "X"))


def _cmd_dual_frf(args) -> int:
    return _fact_command(args, dual_full_rank_factorize, ("X", "R"))


def _cmd_nrcf(args) -> int:
    sys_, tol, report = _start(args)
    grid = args.grid or FREQ_GRID
    N, M = nrcf(sys_, tol)
    worst = gram_residual([N, M], grid)
    factors = [("N", "N", N, structure(N, tol)), ("M", "M", M, structure(M, tol))]
    results = {"normalization_residual": worst, "grid_points": grid}
    lines = [f"max |N~N + M~M - I| on grid: {worst:.3e}"]
    return _factor_report(args, report, factors, results, lines)


def _cmd_pinv(args) -> int:
    sys_, tol, report = _start(args)
    grid = args.grid or RESIDUAL_GRID
    gp = pseudo_inverse(sys_, tol)
    res = penrose_residuals(sys_, gp, grid, np.random.default_rng(args.seed), args.grid or FREQ_GRID)
    factors = [("pinv", "pseudo-inverse", gp, structure(gp, tol))]
    results = {"identity_residuals": res, "grid_points": grid}
    lines = [
        f"residuals: G G# G {res['G_Gp_G']:.3e}, G# G G# {res['Gp_G_Gp']:.3e}, "
        f"hermitian {res['hermitian_G_Gp']:.3e} / {res['hermitian_Gp_G']:.3e}"
    ]
    return _factor_report(args, report, factors, results, lines)


def _cmd_iofac(args) -> int:
    sys_, tol, report = _start(args)
    grid = args.grid or FREQ_GRID
    Gi, Go = inner_outer(sys_, tol)
    inner_res = gram_residual([Gi], grid)
    cert = certify(sys_, Gi, Go, tol, np.random.default_rng(args.seed), args.grid or RESIDUAL_GRID)
    prod_res = cert["max_relative_residual"]
    factors = [
        ("inner", "inner factor", Gi, cert["left_structure"]),
        ("outer", "quasi-outer factor", Go, cert["right_structure"]),
    ]
    results = {"inner_residual": inner_res, "max_relative_residual": prod_res, "grid_points": grid}
    lines = [
        f"max |Gi~Gi - I| on grid: {inner_res:.3e}",
        f"max relative product residual: {prod_res:.3e}",
    ]
    return _factor_report(args, report, factors, results, lines)


def _parse_point(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise InputError(f"cannot parse evaluation point {text!r}") from None


def _cmd_eval(args) -> int:
    sys_, _, report = _start(args)
    z = _parse_point(args.point)
    val = evaluate(sys_, z)
    report["results"] = {
        "point": [z.real, z.imag],
        "value_real": [[float(x.real) for x in row] for row in val],
        "value_imag": [[float(x.imag) for x in row] for row in val],
    }
    lines = [f"G({args.point}) ="]
    for row in val:
        cells = []
        for x in row:
            cells.append(f"{x.real:.6g}" if abs(x.imag) < 1e-10 else f"{x.real:.6g}{x.imag:+.6g}j")
        lines.append("  [" + ", ".join(cells) + "]")
    _emit(args, report, lines)
    return 0


def _cmd_verify(args) -> int:
    sys_, _, report = _start(args)
    left = parse_system_file(args.left)
    right = parse_system_file(args.right)
    if left.ts != sys_.ts or right.ts != sys_.ts:
        raise InputError("time domains of the factors do not match the system")
    if left.p != sys_.p or right.m != sys_.m or left.m != right.p:
        raise InputError(
            f"factor dimensions {left.p}x{left.m} * {right.p}x{right.m} "
            f"do not compose to {sys_.p}x{sys_.m}"
        )
    grid = args.grid or RESIDUAL_GRID
    residuals = product_residuals(sys_, left, right, grid, np.random.default_rng(args.seed))
    residual = float(max(residuals, default=0.0))
    checks = {"max_relative_residual": residual, "grid_points": grid, "threshold": args.threshold}
    ok = residual <= args.threshold
    if args.inner:
        inner_res = gram_residual([left], args.grid or FREQ_GRID)
        checks["inner_residual"] = inner_res
        ok = ok and inner_res <= args.threshold
    report["results"] = checks
    report["results"]["passed"] = bool(ok)
    lines = [f"max relative residual on {grid} points: {residual:.3e} (threshold {args.threshold:g})"]
    if args.inner:
        lines.append(f"max |L~L - I| on grid: {checks['inner_residual']:.3e}")
    lines.append("verification PASSED" if ok else "verification FAILED")
    _emit(args, report, lines)
    if not ok:
        raise VerificationError(f"residual {residual:.3e} above threshold {args.threshold:g}")
    return 0


_DISPATCH = {
    "info": _cmd_info,
    "klf": _cmd_klf,
    "sklf": _cmd_sklf,
    "range": _cmd_range,
    "frf": _cmd_frf,
    "dual-frf": _cmd_dual_frf,
    "nrcf": _cmd_nrcf,
    "pinv": _cmd_pinv,
    "iofac": _cmd_iofac,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
}


def run_command(argv) -> int:
    """Parse argv, dispatch, and map library errors to exit codes by the
    roots of the taxonomy: VerificationError 4, InputError 2, any other
    RmfactError 3."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RmfactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    raise SystemExit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
