"""Child process of the benchmark: set-up probes and the in-process
suite loop. run.py starts it with BLAS pinned to one thread and the
checkout's src/ as the only PYTHONPATH entry.

    worker.py setup WORKLOAD ROOT
    worker.py run WORKLOAD ROOT SEED SECONDS TRACE LIMIT

Both print one JSON document on standard output.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time

# calibrations, one after each system, whose median scales an operation's time
CALIBRATION_WINDOW = 9


def _environment():
    import numpy
    import scipy

    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "nproc": len(os.sched_getaffinity(0)),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def setup(workload, root):
    """Import rmfact in this fresh interpreter and build the workload's inputs."""
    t0 = time.perf_counter()
    import rmfact

    t1 = time.perf_counter()
    import rmfact.cli  # noqa: F401  (the CLI's own import cost, for cli.import_ms)

    t2 = time.perf_counter()
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(rmfact.__file__).startswith(src + os.sep):
        raise SystemExit(f"rmfact imported from {rmfact.__file__}, not from {src}")
    if workload == "cli-cold":
        import clicold

        clicold.write_factor_files(root)
    else:
        import suites

        suites.build(workload)
    t3 = time.perf_counter()
    env = _environment()
    print(json.dumps({
        "import_s": t1 - t0,
        "build_s": t3 - t2,
        "cli_import_ms": (t2 - t0) * 1e3,
        "env": env,
    }))


def run(workload, seed, seconds, trace, limit):
    """Warm pass, then whole timed passes until `seconds` have elapsed.

    Each pass visits the systems in a seeded order, applies the six
    operations to each in turn and then times the calibration mix. With
    trace, passes alternate untraced and traced, starting untraced.
    Operation times are scaled to the calibration's nominal speed by the
    median of the CALIBRATION_WINDOW calibrations around them, span
    totals by the median of their pass. Results are checked after the
    loop.
    """
    import numpy as np

    import rmfact
    import suites
    from spans import Tracer, merge

    systems = suites.build(workload, limit)
    ops = list(suites.OPS)

    def outcome(op, i, res, err):
        if err is not None:
            return "refused", f"{type(err).__name__}: {err}"
        why = suites.check(op, i, systems[i], res)
        return ("check", why) if why else ("ok", "")

    warm = {}
    for i, g in enumerate(systems):
        for op in ops:
            res, err = None, None
            try:
                res = suites.OPS[op](g)
            except rmfact.RmfactError as exc:
                err = exc
            warm[op, i] = outcome(op, i, res, err)

    rng = np.random.default_rng(seed)
    tracer = Tracer()
    sums = {}
    timed, passes, cal = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (trace and not any(p["traced"] for p in passes)):
        traced = trace and len(passes) % 2 == 1
        first = len(tracer.names)
        if traced:
            tracer.install()
        first_cal = len(cal)
        for i in rng.permutation(len(systems)):
            g = systems[i]
            for op in ops:
                fn = suites.OPS[op]
                res, err = None, None
                t0 = time.perf_counter()
                try:
                    if traced:
                        with tracer.span(f"op.{op}"):
                            res = fn(g)
                    else:
                        res = fn(g)
                except rmfact.RmfactError as exc:
                    err = exc
                dt = time.perf_counter() - t0
                timed.append((op, int(i), dt * 1e3, traced, res, err, len(cal)))
            cal.append(suites.calibrate())
        pass_cal = cal[first_cal:]
        if traced:
            tracer.uninstall()
        scale = suites.CALIBRATION_NOMINAL_MS / statistics.median(pass_cal)
        if traced:
            merge(sums, tracer.sums(first), scale)
        passes.append({"traced": traced, "calibration_ms": statistics.median(pass_cal), "scale": scale})

    half = CALIBRATION_WINDOW // 2
    local = [
        suites.CALIBRATION_NOMINAL_MS / statistics.median(cal[max(0, j - half): j + half + 1])
        for j in range(len(cal))
    ]
    samples = []
    consistent = True
    for op, i, ms, traced, res, err, j in timed:
        kind, _ = outcome(op, i, res, err)
        consistent = consistent and kind == warm[op, i][0]
        samples.append({"op": op, "input": i, "ms": ms * local[j], "raw_ms": ms, "traced": traced, "ok": kind == "ok"})
    failures = [
        {"op": op, "system": i, "order": systems[i].n, "kind": kind, "why": why}
        for (op, i), (kind, why) in warm.items()
        if kind != "ok"
    ]
    print(json.dumps({
        "samples": samples,
        "passes": passes,
        "consistent": consistent,
        "failures": failures,
        "sums": sums if trace else None,
    }))


def main(argv):
    mode, workload, root = argv[0], argv[1], argv[2]
    if mode == "setup":
        setup(workload, root)
    else:
        seed, seconds, trace, limit = int(argv[3]), float(argv[4]), argv[5] == "1", int(argv[6])
        run(workload, seed, seconds, trace, limit or None)


if __name__ == "__main__":
    main(sys.argv[1:])
