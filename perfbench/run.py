"""cupkl benchmark: every job is a fresh process, as a user runs it.

    python3 perfbench/run.py --workload tables|tangles|point_queries|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  CLI jobs run as ``python -m cupkl.cli
ARGS`` with ``PYTHONPATH=src`` (no console script is needed), library jobs
as ``python perfbench/worker.py lib ARGS``, one at a time.  The seed picks
the point_queries elements and shuffles the job order of every pass.

``--trace 0`` repeats whole passes over the job list for about S seconds
and reports the end-to-end metrics.  ``--trace 1`` runs every job once
untraced and once traced, one right after the other, and reports the
per-layer metrics from the traced runs' spans.  Every output is checked
exactly, between jobs and outside the timed region.  Each workload's
report ends in one JSON line, so the last line of stdout is one JSON
object.  The exit status is 0 when every job exited 0 with the right
output, 1 when some did not, and 2 outside a cupkl checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

from spans import PER_LAYER, Totals

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_DIR = os.path.join("perfbench", "out", "trace")
CHILD_ENV = {**os.environ, "PYTHONPATH": "src"}
CLI = (sys.executable, "-m", "cupkl.cli")
WORKER = (sys.executable, os.path.join("perfbench", "worker.py"))
BARE = (sys.executable, "-c", "pass")
IMPORT_CLI = (sys.executable, "-c", "import cupkl.cli")
STARTUP_SAMPLES = 11
JOB_TIMEOUT_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclasses.dataclass(frozen=True)
class Outcome:
    """One finished process: wall seconds, max RSS, exit code, output."""

    seconds: float
    rss_mb: float
    code: int
    out: str
    err: str


class Launcher:
    """Client of perfbench/launcher.py, which starts every job from a
    lean process so that each job's max RSS is its own."""

    def __enter__(self) -> "Launcher":
        self.proc = subprocess.Popen(
            (sys.executable, os.path.join("perfbench", "launcher.py")),
            cwd=ROOT,
            env=CHILD_ENV,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def run(self, argv: tuple[str, ...], timeout: float = JOB_TIMEOUT_S) -> Outcome:
        self.proc.stdin.write(json.dumps({"argv": argv, "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the job launcher exited")
        return Outcome(**json.loads(reply))


def job_argv(job, dump: str | None = None) -> tuple[str, ...]:
    if dump is not None:
        return (*WORKER, "trace", dump, job.kind, *job.args)
    return (*CLI, *job.args) if job.kind == "cli" else (*WORKER, "lib", *job.args)


def failure(job, outcome: Outcome) -> str | None:
    """Why a finished job counts as failed, or None.  Every job here is
    expected to exit 0."""
    if outcome.code != 0:
        return f"exit {outcome.code}: {outcome.err.strip()[-200:]}"
    return job.check(outcome.out)


class Ledger:
    """Jobs attempted and failed in one run."""

    def __init__(self, launcher: Launcher) -> None:
        self.launcher = launcher
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, job, dump: str | None = None) -> Outcome:
        outcome = self.launcher.run(job_argv(job, dump))
        self.attempted += 1
        why = failure(job, outcome)
        if why is not None:
            self.failures.append(f"{job.name}: {why}")
        return outcome


#: Percentile of the per-command latencies reported as query_tail_ms.
#: A command's latency is its mean over the passes of a run, so there is
#: one sample per command of the job list (5 on tables and tangles, 36 on
#: point_queries) whatever the number of passes.  No percentile of 5
#: samples has ten beyond it, so the tail is a fixed p90: the slowest
#: command on tables and tangles, the fourth slowest on point_queries.
TAIL = 90

#: Between jobs, a set-up sample is taken whenever this many seconds have
#: passed since the last one, so the samples spread over the whole window
#: as the job samples do, rather than catching one moment of a shared
#: machine's changing speed.
SETUP_EVERY_S = 1.0

#: Every timing is scaled to a host on which a bare interpreter
#: (``python -c pass``, no cupkl) starts in this many seconds.  A shared
#: host's speed moves between levels for minutes at a time, longer than a
#: run, and cupkl's jobs slow down with the bare start (see README.md).
REFERENCE_S = 0.060


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def started(launcher: Launcher, argv: tuple[str, ...]) -> float:
    """Wall seconds of a fresh interpreter running argv, which must exit 0."""
    outcome = launcher.run(argv)
    if outcome.code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {outcome.code}: {outcome.err.strip()[-300:]}")
    return outcome.seconds


def startup_ms(launcher: Launcher, *argvs: tuple[str, ...]) -> list[float]:
    """Median wall time of a fresh interpreter running each argv, samples
    interleaved, after one warm-up round that leaves bytecode behind."""
    samples: list[list[float]] = [[] for _ in argvs]
    for k in range(STARTUP_SAMPLES + 1):
        for argv, kept in zip(argvs, samples):
            seconds = started(launcher, argv)
            if k:
                kept.append(seconds * 1000)
    return [statistics.median(kept) for kept in samples]


def local_gauge(gauge: list[float], i: int) -> float:
    """Median of the four gauge samples nearest to sample i: two taken
    before the timed sample that follows gauge[i], two after it."""
    return statistics.median(gauge[max(0, i - 1) : i + 3])


def measure(jobs: list, rng: random.Random, seconds: float, ledger: Ledger) -> tuple[dict[str, float], str]:
    """Whole passes until the next one would end past the window, with
    set-up samples spread between the jobs.  A bare interpreter runs
    right before every job and set-up sample to gauge the host's speed,
    and each sample is scaled to REFERENCE_S by the gauge around it."""
    started(ledger.launcher, IMPORT_CLI)  # warm-up: leaves bytecode behind
    gauge: list[float] = []
    setup: list[tuple[int, float]] = []  # (gauge index, seconds)
    times: list[list[tuple[int, float]]] = [[] for _ in jobs]
    rss = 0.0
    passes = 0
    t0 = last_setup = time.perf_counter()
    while True:
        order = list(range(len(jobs)))
        rng.shuffle(order)
        for k in order:
            if not setup or time.perf_counter() - last_setup >= SETUP_EVERY_S:
                gauge.append(started(ledger.launcher, BARE))
                setup.append((len(gauge) - 1, started(ledger.launcher, IMPORT_CLI)))
                last_setup = time.perf_counter()
            gauge.append(started(ledger.launcher, BARE))
            outcome = ledger.run(jobs[k])
            times[k].append((len(gauge) - 1, outcome.seconds))
            rss = max(rss, outcome.rss_mb)
        passes += 1
        elapsed = time.perf_counter() - t0
        if elapsed * (passes + 1) / passes > seconds:
            break

    def scaled(samples: list[tuple[int, float]]) -> list[float]:
        return [t * REFERENCE_S / local_gauge(gauge, i) for i, t in samples]

    latencies = [statistics.fmean(scaled(t)) * 1000 for t in times]
    metrics = {
        "setup_s": statistics.median(scaled(setup)),
        "wall_s": sum(map(sum, map(scaled, times))) / passes,
        "query_p50_ms": percentile(latencies, 50),
        "query_tail_ms": percentile(latencies, TAIL),
        "peak_rss_mb": rss,
    }
    raw_wall = sum(t for samples in times for _, t in samples) / passes
    note = (
        f"{passes} passes; setup_s is the median of {len(setup)} samples; query_tail_ms is p{TAIL} "
        f"of {len(latencies)} per-command latencies, each the mean of its {passes} samples; "
        f"timings scaled to a {REFERENCE_S * 1000:.0f} ms bare start from {len(gauge)} gauge samples "
        f"(median {statistics.median(gauge) * 1000:.2f} ms; unscaled wall_s {raw_wall:.4f} s)"
    )
    return metrics, note


def trace(jobs: list, rng: random.Random, ledger: Ledger) -> tuple[dict[str, float], str]:
    order = jobs[:]
    rng.shuffle(order)
    shutil.rmtree(os.path.join(ROOT, TRACE_DIR), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, TRACE_DIR))
    dumps = [os.path.join(TRACE_DIR, f"job{k:03d}.spans") for k in range(len(order))]
    plain = traced = 0.0
    for job, dump in zip(order, dumps):  # adjacent in time, so both see the same machine speed
        plain += ledger.run(job).seconds
        traced += ledger.run(job, dump).seconds
    totals = Totals()
    for path in dumps:
        if os.path.exists(os.path.join(ROOT, path)):
            totals.add(os.path.join(ROOT, path))
    metrics = totals.metrics()
    metrics["trace.overhead"] = traced / plain
    note = f"untraced pass {plain:.3f} s, traced pass {traced:.3f} s, spans in {TRACE_DIR}"
    return metrics, note


def run_workload(name: str, jobs: list, rng: random.Random, seconds: float, traced: bool) -> bool:
    """Measure one workload and print its report, ending in the JSON line.
    True when every job exited 0 with the right output."""
    with Launcher() as launcher:
        ledger = Ledger(launcher)
        if traced:
            python_ms, import_ms = startup_ms(launcher, BARE, IMPORT_CLI)
            metrics = {"python.startup_ms": python_ms, "cli.import_ms": import_ms - python_ms}
            layer_metrics, note = trace(jobs, rng, ledger)
            metrics.update(layer_metrics)
            units = PER_LAYER
        else:
            metrics, note = measure(jobs, rng, seconds, ledger)
            units = END_TO_END
    for why in ledger.failures:
        print(f"FAILED {why}")
    print(f"{name}: {len(jobs)} jobs, {note}")
    print(f"  failed_frac = {len(ledger.failures) / ledger.attempted:.4f} ({len(ledger.failures)} of {ledger.attempted})")
    for metric, unit in units.items():
        print(f"  {metric} = {metrics[metric]:.6g} {unit}")
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {metric: {"value": metrics[metric], "unit": unit} for metric, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return result["correct"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cupkl", "cli.py")):
        print(f"perfbench: no src/cupkl under {ROOT}; run from the root of a cupkl checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        parser.error(f"--workload must be all or one of {', '.join(WORKLOADS)}")
    print(f"child invocation: cd {ROOT} && PYTHONPATH=src {' '.join(CLI)} ARGS")
    correct = True
    for name in names:
        rng = random.Random(args.seed)
        correct &= run_workload(name, WORKLOADS[name](rng), rng, args.seconds, bool(args.trace))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
