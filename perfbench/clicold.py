"""The cli-cold workload: a fixed list of `rmfact <cmd> <file> --json`
processes on the two shipped example systems, and the checks of their
reports.

Ranks and McMillan degrees are pinned only where the acceptance tests
pin them (ex1: info, frf --zeros none, range --zeros bad; ex2: info,
frf --zeros none, iofac). Elsewhere a report must give the normal rank
of the examples (2) for every rank-2 factor and keep the residual
bounds of the tier-1 tests. This module imports rmfact only inside
write_factor_files, so the parent process never loads numpy.
"""

from __future__ import annotations

import json
import os

EX1 = "demos/data/ex1.json"
EX2 = "demos/data/ex2.json"
TMP_DIR = ".perfbench_tmp"
FACTOR_DIR = os.path.join(TMP_DIR, "factors")
RESIDUAL_BOUND = 1e-7
PINV_BOUND = 1e-6


def _factor_path(root, name, side):
    return os.path.join(root, FACTOR_DIR, f"{name}_{side}.json")


def write_factor_files(root):
    """Set-up for `verify`: full-rank factors of ex1 as system files."""
    import rmfact

    os.makedirs(os.path.join(root, FACTOR_DIR), exist_ok=True)
    fr = rmfact.full_rank_factorize(rmfact.parse_system_file(os.path.join(root, EX1)))
    rmfact.write_system_file(fr.left, _factor_path(root, "ex1", "left"))
    rmfact.write_system_file(fr.right, _factor_path(root, "ex1", "right"))


def _expect(blocks=None, ranks=None, residuals=(), pinv=False):
    """Check of a report's results: `blocks` maps a block to its
    (normal rank, McMillan degree), `ranks` a block to its normal rank;
    every key in `residuals` must be within the residual bound."""

    def check(res):
        for key, want in (blocks or {}).items():
            got = (res[key]["normal_rank"], res[key]["mcmillan_degree"])
            if got != want:
                return f"{key}: rank and degree {got}, expected {want}"
        for key, want in (ranks or {}).items():
            if res[key]["normal_rank"] != want:
                return f"{key}: normal rank {res[key]['normal_rank']}, expected {want}"
        for key in residuals:
            if not res[key] <= RESIDUAL_BOUND:
                return f"{key} {res[key]:.2e} above {RESIDUAL_BOUND:g}"
        if pinv and not max(res["identity_residuals"].values()) <= PINV_BOUND:
            return f"Penrose residuals {res['identity_residuals']} above {PINV_BOUND:g}"
        return ""

    return check


def _check_info(rank, degree):
    def check(res):
        got = (res["normal_rank"], res["mcmillan_degree"])
        return "" if got == (rank, degree) else f"rank and degree {got}, expected {(rank, degree)}"

    return check


def _check_klf(res):
    zeros = sorted(round(re_, 6) for re_, im_ in res["finite_eigenvalues"] if abs(im_) < 1e-9)
    return "" if zeros == [1.0, 2.0] else f"finite eigenvalues {res['finite_eigenvalues']}, expected [1, 2]"


def _check_sklf(res):
    return "" if res["r"] == 2 else f"normal rank {res['r']}, expected 2"


def _check_eval(res):
    rows = res["value_real"]
    return "" if len(rows) == 3 and all(len(r) == 3 for r in rows) else "value is not 3x3"


def _check_verify(res):
    return "" if res["passed"] and res["max_relative_residual"] <= RESIDUAL_BOUND else "verification failed"


FACTOR_RESIDUALS = ("max_relative_residual",)
IOFAC_RESIDUALS = ("max_relative_residual", "inner_residual")

# (op name, argv after the program, check of the report's results);
# the op name of a command is the subcommand with - replaced by _. The
# first six cover the six operations, so a slice of six (the
# self-check's) still yields every metric.
COMMANDS = (
    ("info", ["info", EX1], _check_info(2, 4)),
    ("frf", ["frf", EX1, "--zeros", "none"], _expect({"R": (2, 1), "X": (2, 4)}, residuals=FACTOR_RESIDUALS)),
    ("dual_frf", ["dual-frf", EX1], _expect(ranks={"X": 2, "R": 2}, residuals=FACTOR_RESIDUALS)),
    ("nrcf", ["nrcf", EX1], _expect(ranks={"N": 2, "M": 3}, residuals=("normalization_residual",))),
    ("pinv", ["pinv", EX1], _expect(ranks={"pinv": 2}, pinv=True)),
    ("iofac", ["iofac", EX1], _expect(ranks={"inner": 2, "outer": 2}, residuals=IOFAC_RESIDUALS)),
    ("info", ["info", EX2], _check_info(2, 2)),
    ("frf", ["frf", EX2, "--zeros", "none"], _expect({"R": (2, 1), "X": (2, 2)}, residuals=FACTOR_RESIDUALS)),
    ("dual_frf", ["dual-frf", EX2], _expect(ranks={"X": 2, "R": 2}, residuals=FACTOR_RESIDUALS)),
    ("nrcf", ["nrcf", EX2], _expect(ranks={"N": 2, "M": 3}, residuals=("normalization_residual",))),
    ("pinv", ["pinv", EX2], _expect(ranks={"pinv": 2}, pinv=True)),
    ("iofac", ["iofac", EX2], _expect({"inner": (2, 1)}, ranks={"outer": 2}, residuals=IOFAC_RESIDUALS)),
    ("klf", ["klf", EX1], _check_klf),
    ("sklf", ["sklf", EX2], _check_sklf),
    ("range", ["range", EX1, "--zeros", "bad"], _expect({"R": (2, 3)})),
    ("eval", ["eval", EX2, "--point", "0.5+0.5j"], _check_eval),
    ("verify", ["verify", EX1, _factor_path("", "ex1", "left"), _factor_path("", "ex1", "right")], _check_verify),
)


def check(index, returncode, stdout):
    """Empty when process `index` of COMMANDS succeeded with a report
    that passes its check; otherwise why it failed."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    argv = COMMANDS[index][1]
    if report.get("command") != argv[0]:
        return f"report of command {report.get('command')!r}, expected {argv[0]!r}"
    try:
        return COMMANDS[index][2](report["results"])
    except (KeyError, TypeError) as exc:
        return f"report lacks {exc}"
