"""Tests of the benchmark's own machinery (not of cupkl).

    python -m pytest perfbench

Run from the root of a checkout; tier-1 (``tests/``) does not collect them.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from cupkl.weyl import PMSequence  # noqa: E402
from spans import Totals  # noqa: E402
from worker import read_dump  # noqa: E402
from workloads import Job, exact  # noqa: E402


@pytest.fixture
def ledger():
    with run.Launcher() as launcher:
        yield run.Ledger(launcher)


def test_right_output_passes(ledger):
    outcome = ledger.run(Job("cli", ("wp", "-n", "3"), exact("+++\n+--\n-+-\n--+\n")))
    assert outcome.code == 0
    assert outcome.rss_mb > 0
    assert (ledger.attempted, ledger.failures) == (1, [])


def test_wrong_output_is_counted(ledger):
    ledger.run(Job("cli", ("wp", "-n", "3"), exact("+++\n")))
    assert ledger.attempted == 1
    assert len(ledger.failures) == 1 and "expected" in ledger.failures[0]


def test_wrong_output_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "wrong", lambda rng: [Job("cli", ("wp", "-n", "3"), exact("+++\n"))])
    code = run.main(["--workload", "wrong", "--seed", "1", "--seconds", "0.1"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)


def test_nonzero_exit_is_counted(ledger):
    ledger.run(Job("cli", ("wp", "-n", "0"), exact("")))
    ledger.run(Job("lib", ("no_such_job",), exact("")))
    assert ledger.attempted == 2
    assert [why.split(": ")[1] for why in ledger.failures] == ["exit 2", "exit 1"]


def test_checks_reject_wrong_answers():
    w = PMSequence("-++-")
    replay = workloads.replays_to(w)
    assert replay("0,2,3\n") is None
    assert "not longer" in replay("0,0\n")
    assert "replays to" in replay("0,2\n")
    assert "unreadable" in replay("x\n")
    listing = workloads.tl_basis_listing(6)
    assert listing("361\n") is not None
    assert workloads.matrix_total(5)("++  1 2\n--  1 0\n") == "matrix sums to 4, pinned 5"


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 50) == 50
    assert run.percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.0


def test_gauge_is_the_median_of_the_samples_around_one():
    gauge = [1.0, 2.0, 10.0, 3.0, 4.0]
    assert run.local_gauge(gauge, 2) == 3.5
    assert run.local_gauge(gauge, 0) == 2.0
    assert run.local_gauge(gauge, 4) == 3.5


def test_trace_rebinds_imported_names_and_reduces(tmp_path):
    dump = str(tmp_path / "job.spans")
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "worker.py"), "trace", dump, "cli", "homdim", "-n", "3", "-w", "+--", "-x", "+--"],
        cwd=ROOT,
        env=run.CHILD_ENV,
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (0, "2\n")
    header, spans = read_dump(dump)
    names = [header["names"][k] for k in spans["name"]]
    parents = list(spans["parent"])
    assert names[0] == "cli.main" and parents[0] == -1
    cups_calls = [i for i, name in enumerate(names) if name == "cups.cup_diagram"]
    # circles calls cup_diagram through its own binding
    assert len(cups_calls) == 2
    assert all(names[parents[i]] == "circles.circle_diagram" for i in cups_calls)
    totals = Totals()
    totals.add(dump)
    root = spans["end"][0] - spans["start"][0]
    assert sum(totals.self_s.values()) == pytest.approx(root)
    assert totals.metrics()["cups.cup_diagram.calls"] == 2


def test_trace_keeps_the_exit_code(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "worker.py"), "trace", str(tmp_path / "x.spans"), "cli", "wp", "-n", "0"],
        cwd=ROOT,
        env=run.CHILD_ENV,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2 and "n must be at least 1" in proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
