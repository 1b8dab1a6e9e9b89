"""rmfact benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads:

  suite-small  100 seeded systems (n <= 8, p, m <= 4), six library
               operations per system: info, frf, dual_frf, nrcf, pinv,
               iofac. Python overhead and repeated structure work dominate.
  suite-large  16 seeded systems (n <= 40, p, m <= 6, A scaled by
               1/sqrt(n)), same six operations. Dense kernels dominate.
  cli-cold     17 cold `rmfact <cmd> <file> --json` processes on the
               shipped examples ex1 and ex2. Interpreter start and import
               dominate.

Load is one closed-loop client: the next operation starts when the
previous one returns. Every child runs with BLAS pinned to one thread.
A suite run warms with one untimed pass, then runs whole passes, each
in an order drawn from --seed, until --seconds have elapsed; a
cli-cold run does the same without the warm pass. The suites
themselves are fixed, so refusals and check failures repeat exactly
from seed to seed. Every result is checked after the timed loop.

Times are scaled to a nominal host speed by calibration work run next
to them (see README.md). With --trace 0 the last line of standard output
holds the end-to-end metrics; with --trace 1, passes alternate untraced
and traced and the line holds the per-layer metrics, per pass of the
workload. `failed`
counts operations that raised an RmfactError or failed their check;
`correct` is true when every operation on every input gave the same
verdict each time it ran. A record with the environment goes to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import clicold  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("suite-small", "suite-large", "cli-cold")
OPS = ("info", "frf", "dual_frf", "nrcf", "pinv", "iofac")
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0
OUT_DIR = ".perfbench_out"

# Host speed on a shared machine drifts by up to 2x within a minute.
# Cold processes are scaled by the time of a reference process that does
# the same kind of work (interpreter start, imports of compiled
# extensions) but runs no rmfact code: reported times are milliseconds
# on a host where REF_PROCESS takes REF_NOMINAL_MS. The suites scale by
# an in-process calibration mix in the same way (suites.calibrate).
REF_PROCESS = ["-c", "import numpy"]
REF_NOMINAL_MS = 150.0


def child_env(root):
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.path.join(root, "src"))
    return env


def run_child(cmd, root, env, deadline):
    """Run one child to completion within the run's deadline."""
    return subprocess.run(
        cmd, cwd=root, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
    )


def check_exit(proc, what):
    if proc.returncode != 0:
        raise SystemExit(f"{what} failed with exit code {proc.returncode}:\n{proc.stderr[-2000:]}")


def checked_json(proc, what):
    check_exit(proc, what)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scipy_signal_import_ms(importtime_log):
    """Cumulative import time of scipy.signal from `-X importtime`, 0 when not imported."""
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.signal":
            return int(parts[1].split()[-1]) / 1e3
    return 0.0


def time_child(cmd, root, env, deadline):
    t0 = time.perf_counter()
    proc = run_child(cmd, root, env, deadline)
    return proc, (time.perf_counter() - t0) * 1e3


def between_references(items, run_one, root, env, deadline):
    """Run each item with a reference process before and after it.

    Returns (result, scale) per item, where scale is REF_NOMINAL_MS over
    the mean time of the two reference processes around the item; a
    reference process is shared by the items on both sides of it.
    """

    def ref_ms():
        proc, ms = time_child([sys.executable] + REF_PROCESS, root, env, deadline)
        check_exit(proc, "reference process")
        return ms

    out = []
    before = ref_ms()
    for item in items:
        result = run_one(item)
        after = ref_ms()
        out.append((result, REF_NOMINAL_MS / ((before + after) / 2)))
        before = after
    return out


def set_up(workload, root, env, trace, deadline):
    """Fresh-interpreter import of rmfact plus building the inputs,
    repeated between reference processes; with trace, one more probe
    logs import times."""
    cmd = [os.path.join(HERE, "worker.py"), "setup", workload, root]

    def probe(_):
        return checked_json(run_child([sys.executable] + cmd, root, env, deadline), "set-up")

    probes = [dict(p, scale=scale) for p, scale in between_references(range(SETUP_REPEATS), probe, root, env, deadline)]
    if trace:
        # a separate probe, because -X importtime slows every import it logs
        proc = run_child([sys.executable, "-X", "importtime"] + cmd, root, env, deadline)
        checked_json(proc, "set-up")
        scale = statistics.median(p["scale"] for p in probes)
        probes[0]["scipy_signal_ms"] = scipy_signal_import_ms(proc.stderr) * scale
    return probes


def run_suite(workload, root, env, args, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "run", workload, root,
           str(args.seed), str(args.seconds), str(args.trace), str(args.limit)]
    return checked_json(run_child(cmd, root, env, deadline), "suite worker")


def run_cli(root, env, args, deadline):
    """Closed loop of cold CLI processes, whole passes over the command
    list, each process between reference processes and scaled by them;
    a traced pass's span totals are scaled by the pass's median scale."""
    indices = list(range(len(clicold.COMMANDS)))[: args.limit or None]
    rng = random.Random(args.seed)
    tmp = os.path.join(root, clicold.TMP_DIR)
    os.makedirs(tmp, exist_ok=True)
    spans_file = os.path.join(tmp, f"spans-{os.getpid()}.json")
    samples, passes, verdicts, failures, sums = [], [], {}, {}, {}
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or (args.trace and not any(p["traced"] for p in passes)):
        traced = bool(args.trace) and len(passes) % 2 == 1
        order = indices[:]
        rng.shuffle(order)
        pass_sums = {}

        def one(idx):
            op, argv, _ = clicold.COMMANDS[idx]
            if traced:
                if os.path.exists(spans_file):
                    os.remove(spans_file)
                cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), spans_file, op]
            else:
                cmd = [sys.executable, "-m", "rmfact.cli"]
            proc, ms = time_child(cmd + argv + ["--json"], root, env, deadline)
            why = clicold.check(idx, proc.returncode, proc.stdout)
            verdicts.setdefault(idx, set()).add(why == "")
            if why:
                failures[idx] = {"op": op, "command": " ".join(argv), "why": why}
            if traced and os.path.exists(spans_file):
                with open(spans_file, encoding="utf-8") as fh:
                    spans.merge(pass_sums, json.load(fh))
            return {"op": op, "input": idx, "raw_ms": ms, "traced": traced, "ok": not why}

        measured = between_references(order, one, root, env, deadline)
        samples += [dict(s, ms=s["raw_ms"] * scale) for s, scale in measured]
        scale = statistics.median(scale for _, scale in measured)
        spans.merge(sums, pass_sums, scale)
        passes.append({"traced": traced, "scale": scale})
    if os.path.exists(spans_file):
        os.remove(spans_file)
    return {
        "samples": samples,
        "passes": passes,
        "consistent": all(len(v) == 1 for v in verdicts.values()),
        "failures": list(failures.values()),
        "sums": sums if args.trace else None,
    }


def typical_ms(samples, traced=False):
    """Per (operation, input): the median of its scaled times in the run.

    The inputs of a suite differ in cost by orders of magnitude, so a
    median over raw samples falls between the clusters of two inputs and
    jumps with the noise of single samples; the medians per input do not.
    """
    runs = {}
    for s in samples:
        if s["traced"] == traced:
            runs.setdefault((s["op"], s["input"]), []).append(s["ms"])
    return {key: statistics.median(ms) for key, ms in runs.items()}


def end_to_end(data, probes):
    samples = data["samples"]
    typical = typical_ms(samples)
    times = list(typical.values())
    passed = sum(1 for s in samples if s["ok"])
    m = {
        "setup_s": (statistics.median((p["import_s"] + p["build_s"]) * p["scale"] for p in probes), "s"),
        "op_ms_p50": (statistics.median(times), "ms"),
        "op_ms_p90": (statistics.quantiles(times, n=10, method="inclusive")[-1], "ms"),
        "ops_per_s": (passed / (sum(s["ms"] for s in samples) / 1e3), "1/s"),
        "ok_frac": (passed / len(samples), "fraction"),
    }
    for op in OPS:
        m[f"{op}_ms"] = (statistics.median(ms for (o, _), ms in typical.items() if o == op), "ms")
    return m


def per_layer(data, probes):
    untraced = typical_ms(data["samples"]).values()
    traced = typical_ms(data["samples"], traced=True).values()
    imports = {
        "import_ms": statistics.median(p["cli_import_ms"] * p["scale"] for p in probes),
        "import_scipy_signal_ms": probes[0]["scipy_signal_ms"],
    }
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    n_traced = sum(1 for p in data["passes"] if p["traced"])
    return spans.layer_metrics(data["sums"], n_traced, imports, overhead)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=0, help="only the first N systems or commands (self-check)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    needed = [os.path.join("src", "rmfact", "__init__.py"), clicold.EX1, clicold.EX2]
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"error: run from the root of an rmfact checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env(root)
    probes = set_up(args.workload, root, env, args.trace, deadline)
    if args.workload == "cli-cold":
        data = run_cli(root, env, args, deadline)
    else:
        data = run_suite(args.workload, root, env, args, deadline)
    metrics = per_layer(data, probes) if args.trace else end_to_end(data, probes)

    samples = data["samples"]
    failed = sum(1 for s in samples if not s["ok"])
    width = max(len(k) for k in metrics)
    scales = [p["scale"] for p in data["passes"]]
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  passes {len(scales)}  ops {len(samples)}  "
          f"host scale {min(scales):.3f}..{max(scales):.3f}  raw op p50 {statistics.median(s['raw_ms'] for s in samples):.4g} ms")
    if not args.trace:
        print(f"  fail_frac {failed / len(samples):.6f} ({failed} of {len(samples)}); percentiles over "
              f"{len(typical_ms(samples))} (operation, input) medians")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    for f in data["failures"]:
        print(f"  failure: {json.dumps(f)}")
    env_info = probes[0]["env"]
    print(f"  env: {json.dumps(env_info)}")

    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    record = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                   "env": env_info, "passes": data["passes"], "metrics": metrics, "failures": data["failures"],
                   "probes": probes, "span_sums": data["sums"]}, fh, indent=1)

    print(json.dumps({
        "correct": data["consistent"],
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
