"""Steadiness report: repeated runs of one commit, against BENCHMARK.json.

    python3 perfbench/steadiness.py

Run from the root of a checkout.  Each of two sets runs the benchmark ten
times on every workload of BENCHMARK.json, each run with its own seed,
workloads interleaved so that drift on a shared machine touches all of
them alike.  For every end-to-end metric and workload it reports each
set's median and quartiles (``statistics.quantiles(values, n=4)``), the
spread (q3 - q1) / median, and how far the second set's median moved
from the first's in the metric's worse direction, both as shares of the
median, next to the metric's bound.  A metric is steady when each set's
spread is below a third of its bound and the drift is within the bound.
Then it runs the traced run twice with one seed per workload and checks
that every count repeats exactly.  The report goes to
perfbench/steadiness.json; the exit status is 0 only when all is steady.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join("perfbench", "steadiness.json")
RUNS = 10
SETS = 2
TRACED_SEED = 1


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    values: dict = {w: {m: [[] for _ in range(SETS)] for m in metrics} for w in workloads}
    for s in range(SETS):
        for k in range(RUNS):
            seed = 1000 * (s + 1) + k
            for w in workloads:
                result = run(w, seed, seconds, 0)
                for m in metrics:
                    values[w][m][s].append(result[m])
                print(f"set {s + 1} run {k + 1} {w} seed {seed}: " + ", ".join(f"{m}={result[m]:.4g}" for m in metrics), flush=True)

    host = {"nproc": os.cpu_count(), "python": platform.python_version(), "system": f"{platform.system()} {platform.release()} {platform.machine()}"}
    report: dict = {"host": host, "run_seconds": seconds, "runs_per_set": RUNS, "sets": SETS, "workloads": {}}
    ok = True
    print(f"\n{'workload':<14} {'metric':<14} {'bound':>6} " + " ".join(f"{'median' + str(s + 1):>10} {'spread' + str(s + 1):>8}" for s in range(SETS)) + f" {'drift':>8}")
    for w in workloads:
        report["workloads"][w] = {}
        for m, spec in metrics.items():
            sets = [summary(v) for v in values[w][m]]
            first, last = sets[0]["median"], sets[-1]["median"]
            sign = 1 if spec["better"] == "lower" else -1
            drift = sign * (last - first) / first
            steady = all(st["spread"] < spec["bound"] / 3 for st in sets) and drift <= spec["bound"]
            ok &= steady
            report["workloads"][w][m] = {"unit": spec["unit"], "bound": spec["bound"], "sets": sets, "drift": drift, "steady": steady}
            print(f"{w:<14} {m:<14} {spec['bound']:>6} " + " ".join(f"{st['median']:>10.4g} {st['spread']:>8.3f}" for st in sets) + f" {drift:>8.3f}" + ("" if steady else "  UNSTEADY"))

    report["traced"] = {}
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] not in ("s", "ms") and m["name"] != "trace.overhead"]
    for w in workloads:
        a, b = run(w, TRACED_SEED, seconds, 1), run(w, TRACED_SEED, seconds, 1)
        differ = [m for m in counts if a[m] != b[m]]
        ok &= not differ
        report["traced"][w] = {"first": a, "second": b, "counts": counts, "differ": differ}
        print(f"traced {w}: {len(counts)} counts, {len(differ)} differ {differ}; overhead {a['trace.overhead']:.3f}, {b['trace.overhead']:.3f}")

    with open(os.path.join(ROOT, OUT), "w") as f:
        json.dump(report, f, indent=1)
    print(f"{'steady' if ok else 'NOT steady'}; report in {OUT}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
