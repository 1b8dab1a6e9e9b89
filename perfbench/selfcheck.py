"""Quick self-check of the benchmark on a small slice of each workload.

    python3 perfbench/selfcheck.py

Run from the root of a checkout. For each workload it runs run.py twice
untraced and twice traced on the first few systems or commands, and
asserts that every metric named in BENCHMARK.json appears with its
unit, that `correct` holds, and that the counts (ok_frac and every *.calls metric)
repeat exactly across the two runs. Takes about three minutes.
"""

import json
import os
import subprocess
import sys

SLICES = {"suite-small": 8, "suite-large": 2, "cli-cold": 6}


def run(workload, trace, seed, limit):
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--limit", str(limit)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for workload, limit in SLICES.items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            found = []
            results = [run(workload, trace, seed, limit) for seed in (1, 2)]
            for res in results:
                if not res["correct"]:
                    found.append("a verdict changed within the run")
                for metric in bench[key]:
                    got = res["metrics"].get(metric["name"])
                    if got is None or got["unit"] != metric["unit"]:
                        found.append(f"{metric['name']} missing or unit differs: {got}")
                extra = set(res["metrics"]) - {m["name"] for m in bench[key]}
                if extra:
                    found.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
            counts = [name for name in results[0]["metrics"] if name.endswith(".calls") or name == "ok_frac"]
            for name in counts:
                a, b = (r["metrics"].get(name, {}).get("value") for r in results)
                if a != b:
                    found.append(f"{name} differs across runs: {a} vs {b}")
            print(f"{workload} trace {trace}: {'FAIL' if found else 'ok'} ({len(counts)} counts compared)")
            problems += [f"{workload} trace {trace}: {f}" for f in found]
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
