import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cupkl import circles, cups, hecke, tangles, weyl
from cupkl.circles import hom_dim
from cupkl.cli import COMMANDS, main
from cupkl.cups import orientations_of
from cupkl.hecke import ModuleElement, kl_basis
from cupkl.laurent import LOOP, ZERO
from cupkl.tangles import cell_datum, generator
from cupkl.weyl import PMSequence, enumerate_wp, reduced_word

ROOT = Path(__file__).resolve().parents[1]


def run_ok(runner, args, **kw):
    res = runner.invoke(main, args, **kw)
    assert res.exit_code == 0, res.output
    return res.output


def test_wp_listing(runner):
    out = run_ok(runner, ["wp", "-n", "3"])
    assert out.split() == ["+++", "+--", "-+-", "--+"]
    data = json.loads(run_ok(runner, ["wp", "-n", "3", "--format", "json"]))
    assert data["n"] == 3
    assert data["elements"][0] == {"w": "+++", "length": 0, "word": []}


class _CountingStream(io.StringIO):
    def __init__(self) -> None:
        super().__init__()
        self.writes = 0

    def write(self, s: str) -> int:
        self.writes += 1
        return super().write(s)


@pytest.mark.parametrize(
    "args",
    [
        ["wp", "-n", "3"],
        ["wp", "-n", "3", "--format", "json"],
        ["tl", "--help"],
        ["verify", "-n", "3", "kl"],
        ["verify", "-n", "3", "all"],
    ],
)
def test_an_answer_is_one_write(args):
    # an unbuffered stdout passes each write to the pipe at once; with two,
    # `cupkl wp -n 6 | head -1` could lose the reader before the newline
    out = _CountingStream()
    with contextlib.redirect_stdout(out):
        main(args, standalone_mode=False)
    assert out.writes == 1 and out.getvalue().endswith("\n")


def test_a_failing_verify_report_is_one_write(monkeypatch):
    # the FAIL line lands between the lines of the suites that pass
    module, name, fake, counterexample = PLANTED["commute"]
    monkeypatch.setattr(module, name, fake)
    out = _CountingStream()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main(["verify", "-n", "4", "all"], standalone_mode=False)
    assert (exc.value.code, out.writes) == (1, 1)
    assert f"\ncommute: FAIL ({counterexample})\ncellular: " in out.getvalue()
    assert out.getvalue().endswith("faithful: pass\n")


@pytest.mark.parametrize("args", [["wp", "-n", "0"], ["tl"]], ids=["wp-n-0", "tl"])
def test_a_usage_error_is_one_write(args):
    # `cupkl wp -n 0 2>&1 >/dev/null | head -1` has it all before head goes
    err = _CountingStream()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(args, standalone_mode=False)
    assert (exc.value.code, err.writes) == (2, 1)
    assert err.getvalue().startswith("Usage: ") and err.getvalue().endswith("\n")


def test_word_both_directions(runner):
    assert run_ok(runner, ["word", "-n", "4", "-w", "-++-"]).strip() == "0,2,3"
    out = run_ok(runner, ["word", "-n", "4", "-r", "0,2,3", "--format", "json"])
    assert json.loads(out)["w"] == "-++-"
    # a blank word is the identity
    assert run_ok(runner, ["word", "-n", "4", "-r", ""]) == "\n"


def test_klpoly_example(runner):
    out = run_ok(runner, ["klpoly", "-n", "4", "-v", "--++", "-w", "-+-+"])
    assert out.strip() == "q"
    oracle = run_ok(
        runner, ["klpoly", "-n", "4", "-v", "--++", "-w", "-+-+", "--oracle"]
    )
    assert oracle == out
    zero = run_ok(runner, ["klpoly", "-n", "4", "-v", "-+-+", "-w", "--++"])
    assert zero.strip() == "0"


def test_klbasis_output(runner):
    out = run_ok(runner, ["klbasis", "-n", "4", "-w", "--++"])
    assert out.splitlines() == ["++++: q", "--++: 1"]


def test_klbasis_equals_the_recursion(runner):
    for n in range(1, 7):
        for w in enumerate_wp(n):
            coeffs = kl_basis(w).coeffs
            out = run_ok(runner, ["klbasis", "-n", str(n), "-w", w.signs])
            assert out.splitlines() == [f"{v}: {p}" for v, p in coeffs]
            data = json.loads(run_ok(runner, ["klbasis", "-n", str(n), "-w", w.signs, "--format", "json"]))
            assert data == {
                "w": w.signs,
                "terms": [{"wprime": v.signs, "poly": p.to_json()} for v, p in coeffs],
            }


def test_cup_ascii_and_json(runner):
    out = run_ok(runner, ["cup", "-n", "4", "-w", "--++"])
    assert out == "1 2 3 4\n(*) | |\n"
    data = json.loads(run_ok(runner, ["cup", "-n", "4", "-w", "--++", "--format", "json"]))
    assert data["cups"] == [{"from": 1, "to": 2, "dotted": True}]


def test_homdim_single_and_matrix(runner):
    assert run_ok(runner, ["homdim", "-n", "4", "-w", "----", "-x", "----"]).strip() == "4"
    data = json.loads(run_ok(runner, ["homdim", "-n", "4", "--format", "json"]))
    assert sum(sum(row) for row in data["dims"]) == 67
    assert data["order"][0] == "++++"
    oracle = run_ok(runner, ["homdim", "-n", "4", "--oracle", "-w", "----", "-x", "----"])
    assert oracle.strip() == "4"


def test_homdim_matrix_n8(runner):
    rows = [[int(d) for d in line.split()[1:]] for line in run_ok(runner, ["homdim", "-n", "8"]).splitlines()]
    els = enumerate_wp(8)
    assert rows == [[hom_dim(w, x) for x in els] for w in els]
    assert sum(map(sum, rows)) == 14949


def test_homdim_oracle_equals_diagrams(runner):
    for n in (*range(1, 9), 10):
        for fmt in ("text", "json"):
            args = ["homdim", "-n", str(n), "--format", fmt]
            assert run_ok(runner, [*args, "--oracle"]) == run_ok(runner, args)


def test_poincare_table(runner):
    out = run_ok(runner, ["poincare", "-n", "4"])
    lines = dict(line.split(": ") for line in out.strip().splitlines())
    assert lines["++++"] == "1 + q + q^2"
    assert lines["-+-+"] == "1 + 4q + 3q^2 + q^3"
    assert lines["total"] == "67"
    assert run_ok(runner, ["poincare", "-n", "4", "--oracle"]) == out


def test_poincare_oracle_equals_diagrams(runner):
    for n in range(1, 7):
        for fmt in ("text", "json"):
            args = ["poincare", "-n", str(n), "--format", fmt]
            assert run_ok(runner, [*args, "--oracle"]) == run_ok(runner, args)


def test_single_pair_homdim_is_uncapped(runner):
    assert run_ok(runner, ["homdim", "-n", "13", "-w", "+" * 13, "-x", "+" * 13]).strip() == "1"


# C(2n - 1, n) - [n even] (C(n, n/2)/2)^2 at every size tl dim takes
TL_DIMS = [10, 26, 126, 362, 1716, 5210, 24310, 76502, 352716, 1138634, 5200300, 17113644]


def test_tl_commands(runner):
    for n, dim in enumerate(TL_DIMS, 3):
        assert run_ok(runner, ["tl", "dim", "-n", str(n)]) == f"{dim}\n"
    out = run_ok(runner, ["tl", "basis", "-n", "3"])
    assert out.splitlines()[0] == "10"
    act = run_ok(runner, ["tl", "act", "-n", "4", "-i", "0", "-w", "++++"])
    assert "coeff: 1" in act
    assert run_ok(runner, ["tl", "act", "-n", "4", "-i", "1", "-w", "++++"]).strip() == "0"
    cell = run_ok(runner, ["tl", "cell", "-n", "3"])
    assert cell.splitlines() == ["lambda=3: 1", "lambda=1: 3", "total: 10"]


def test_render_tangle_generator_and_stdin(runner):
    out = run_ok(runner, ["render", "tangle", "-n", "4", "-g", "1"])
    assert "(" in out and ")" in out
    t = generator(4, 2)
    piped = run_ok(
        runner, ["render", "tangle", "-n", "4"], input=json.dumps(t.to_json())
    )
    assert piped == run_ok(runner, ["render", "tangle", "-n", "4", "-g", "2"])


def test_render_circle(runner):
    out = run_ok(runner, ["render", "circle", "-n", "4", "-w", "----", "-x", "----"])
    assert out.count("black") == 4
    data = json.loads(
        run_ok(
            runner,
            ["render", "circle", "-n", "4", "-w", "----", "-x", "----", "--format", "json"],
        )
    )
    assert len(data["circles"]) == 8


def test_verify_reports(runner):
    out = run_ok(runner, ["verify", "-n", "3", "cellular"])
    assert "dims 1,3" in out and "total 10" in out
    assert "cellular: pass" in out
    out = run_ok(runner, ["verify", "-n", "6", "cellular"])
    assert "cellular: cell dims 1,6,15,10 and total 362" in out
    assert "cellular: pass" in out
    out = run_ok(runner, ["verify", "-n", "6", "faithful"])
    assert "faithful: action on cup diagrams is faithful: rank 362 of 362" in out
    out = run_ok(runner, ["verify", "-n", "3", "all"])
    for suite in ("kl", "homdim", "commute", "cellular", "faithful"):
        assert f"{suite}: pass" in out


def test_cellular_catches_a_wrong_action(runner, monkeypatch):
    # planted fault: images with a cup come out q + q^-1 times too large
    real = tangles.act

    def act(x, d):
        coeff, image = real(x, d)
        return (coeff * LOOP if image is not None and image.cups else coeff), image

    monkeypatch.setattr(tangles, "act", act)
    res = runner.invoke(main, ["verify", "-n", "4", "cellular"])
    assert res.exit_code == 1, res.output
    assert "cellular: FAIL (cell action depends on the auxiliary half at lam=" in res.output
    assert "x=" in res.output and "a=" in res.output and "b=" in res.output


def test_cellular_checks_the_production_basis(runner, monkeypatch):
    # planted fault: the basis lists one tangle twice
    real = tangles.tlhat_basis
    monkeypatch.setattr(tangles, "tlhat_basis", lambda n: real(n) + real(n)[:1])
    res = runner.invoke(main, ["verify", "-n", "4", "cellular"])
    assert res.exit_code == 1, res.output
    assert "cellular: FAIL (cell map is not a bijection onto the basis)" in res.output


def test_cellular_checks_the_brute_force_basis(runner, monkeypatch):
    # planted fault: the oracle misses one dotted tangle
    real = tangles.enumerate_basis_tangles

    def fake(n):
        basis = real(n)
        missed = next(t for t in basis if t.dot_count())
        return [t for t in basis if t != missed]

    monkeypatch.setattr(tangles, "enumerate_basis_tangles", fake)
    res = runner.invoke(main, ["verify", "-n", "4", "cellular"])
    assert res.exit_code == 1, res.output
    assert res.output == "cellular: FAIL (cell map is not a bijection onto the basis)\n"


def test_cellular_checks_that_the_generators_generate(runner, monkeypatch):
    # planted fault: generator 0 comes out as generator 1, so no dotted
    # tangle is reached and the layer identity on generators proves nothing
    real = tangles.generator
    monkeypatch.setattr(tangles, "generator", lambda n, i: real(n, i or 1))
    res = runner.invoke(main, ["verify", "-n", "4", "cellular"])
    assert res.exit_code == 1, res.output
    assert res.output == "cellular: FAIL (generators reach 14 tangles, not the 26 of the basis)\n"


# one planted fault per check: the layer module and the function patched in
# it, its stand-in, and the line verify -n 4 prints for the suite
PLANTED = {
    "kl": (cups, "orientations_of", lambda w: [], "polynomial mismatch at v=++++ w=++++: 0 vs 1"),
    "homdim": (circles, "circle_orientation_counts", lambda walk: [3] * len(walk[0]), "per-circle count off at (++++, ++++)"),
    "commute": (hecke, "kl_basis", lambda w: ModuleElement(w.n, ()), "action mismatch at w=++++, generator 0"),
    "faithful": (tangles, "faithfulness_rank", lambda n, q: (25, 26), "representation drops rank: 25 < 26"),
}


@pytest.mark.parametrize("suite", PLANTED)
def test_verify_names_a_planted_fault(runner, monkeypatch, suite):
    module, name, fake, counterexample = PLANTED[suite]
    monkeypatch.setattr(module, name, fake)
    res = runner.invoke(main, ["verify", "-n", "4", suite])
    assert res.exit_code == 1, res.output
    assert res.output == f"{suite}: FAIL ({counterexample})\n"


@pytest.mark.parametrize(
    "fake, counterexample",
    [
        (lambda w: orientations_of(w) + ([(PMSequence("--++"), 0)] if w == PMSequence("++++") else []), "v=--++ w=++++: 1 vs 0"),
        (lambda w: [(v, r + 2) for v, r in orientations_of(w)], "v=++++ w=++++: q vs 1"),
        (lambda w: orientations_of(w)[:-1] or orientations_of(w), "v=--++ w=++--: 0 vs q^2"),
    ],
    ids=["extra-orientation", "shifted-degrees", "dropped-orientation"],
)
def test_kl_names_the_first_wrong_pair_of_a_row(runner, monkeypatch, fake, counterexample):
    # the row check compares whole rows, zeros included, and names the pair
    # a loop over every (w, v) in enumeration order would meet first
    monkeypatch.setattr(cups, "orientations_of", fake)
    res = runner.invoke(main, ["verify", "-n", "4", "kl"])
    assert res.exit_code == 1, res.output
    assert res.output == f"kl: FAIL (polynomial mismatch at {counterexample})\n"


def test_homdim_fails_on_an_odd_black_count(runner, monkeypatch):
    # planted fault: the first circle of every walk comes out black, so
    # the identity pair's eight green circles carry one black
    real = circles.walk_circles

    def fake(wp, w):
        (first, *rest), up, owner = real(wp, w)
        return [("black", *first[1:]), *rest], up, owner

    monkeypatch.setattr(circles, "walk_circles", fake)
    res = runner.invoke(main, ["verify", "-n", "4", "homdim"])
    assert res.exit_code == 1, res.output
    assert res.output == "homdim: FAIL (odd number of black circles at (++++, ++++))\n"


@pytest.mark.parametrize(
    "module, name, fake, counterexample",
    [
        (hecke, "cs_action", lambda x, i: x.scaled(ZERO), "generator product misses the canonical element at ++--"),
        (weyl, "reduced_word", lambda w: reduced_word(w)[::-1], "reduced word of -+-+ extends no shorter element's"),
    ],
    ids=["zero-action", "reversed-words"],
)
def test_kl_checks_the_products_over_reduced_words(runner, monkeypatch, module, name, fake, counterexample):
    # the polynomials still match, so the second line names the fault; the
    # recursion calls cs_action too, so its table is built before the fault goes in
    hecke.kl_table(4)
    monkeypatch.setattr(module, name, fake)
    res = runner.invoke(main, ["verify", "-n", "4", "kl"])
    assert res.exit_code == 1, res.output
    assert res.output == f"kl: FAIL ({counterexample})\n"


def test_verify_all_runs_on_past_a_failing_suite(runner, monkeypatch):
    # the other four suites print the lines and the pass of a clean run
    clean = run_ok(runner, ["verify", "-n", "4", "all"]).splitlines()
    module, name, fake, counterexample = PLANTED["commute"]
    monkeypatch.setattr(module, name, fake)
    res = runner.invoke(main, ["verify", "-n", "4", "all"])
    assert res.exit_code == 1, res.output
    at = [line.startswith("commute: ") for line in clean].index(True)
    want = [line for line in clean if not line.startswith("commute: ")]
    want.insert(at, f"commute: FAIL ({counterexample})")
    assert res.output.splitlines() == want


def test_usage_errors_exit_2(runner):
    cases = [
        ["word", "-n", "4"],
        ["word", "-n", "4", "-w", "-+-+", "-r", "0"],
        ["word", "-n", "4", "-w", "+-+"],
        ["word", "-n", "4", "-w", "++-x"],
        ["word", "-n", "4", "-r", "1"],
        ["word", "-n", "4", "-r", "0,0"],
        ["word", "-n", "4", "-r", "0,2,3,2"],
        ["word", "-n", "4", "-r", "9"],
        ["word", "-n", "4", "-r", "0,,2"],
        ["word", "-n", "4", "-r", "0,2,"],
        ["word", "-n", "1", "-r", "0"],
        ["word", "-n", "1001", "-w", "+" * 1001],
        ["klbasis", "-n", "4", "-r", "0,0"],
        ["klpoly", "-n", "3", "-v", "+-+", "-w", "+--"],
        ["tl", "basis", "-n", "2"],
        ["tl", "basis", "-n", "9"],
        ["tl", "dim", "-n", "15"],
        ["tl", "cell", "-n", "15"],
        ["tl", "act", "-n", "4", "-i", "7", "-w", "++++"],
        ["verify", "-n", "13", "kl"],
        ["verify", "-n", "10", "homdim"],
        ["verify", "-n", "12", "commute"],
        ["verify", "-n", "8", "cellular"],
        ["verify", "-n", "8", "all"],
        ["verify", "-n", "11", "faithful"],
        ["homdim", "-n", "4", "-w", "-+-+"],
        ["render", "tangle", "-n", "4", "-g", "9"],
        ["cup", "-n", "100001", "-r", ""],
        ["tl", "act", "-n", "100001", "-i", "1", "-r", ""],
        ["render", "tangle", "-n", "100001", "-g", "1"],
        ["wp", "-n", "19"],
        ["wp", "-n", "15", "--format", "json"],
        ["wp", "-n", "3", "--format", "ascii"],
        ["klbasis", "-n", "17", "-w", "+" * 17],
        ["poincare", "-n", "13"],
        ["poincare", "-n", "13", "--oracle"],
        ["homdim", "-n", "11"],
        ["homdim", "-n", "11", "--oracle"],
        ["klpoly", "-n", "13", "--oracle", "-v", "+" * 13, "-w", "+" * 13],
        ["homdim", "-n", "13", "--oracle", "-w", "+" * 13, "-x", "+" * 13],
    ]
    for args in cases:
        res = runner.invoke(main, args)
        assert res.exit_code == 2, (args, res.output)
    # each rule's message comes from the layer that owns it
    messages = {
        ("tl", "act", "-n", "4", "-i", "7", "-w", "++++"): "generator index 7 out of range for n=4",
        ("render", "tangle", "-n", "4", "-g", "9"): "generator index 9 out of range for n=4",
        ("word", "-n", "4", "-r", "1"): "word leaves the quotient at generator 1",
        ("word", "-n", "4", "-r", "0,0"): "word is not reduced: generator 0 shortens --++",
        ("word", "-n", "4", "-r", "9"): "generator index 9 out of range for n=4",
        ("word", "-n", "4", "-w", "++-x"): "signs must be '+' or '-'",
        ("word", "-n", "4", "-w", "+-+"): "odd number of minuses in '+-+'",
        ("word", "-n", "4", "-w", "+--"): "sign string has length 3, expected 4",
        ("word", "-n", "1", "-r", "0"): "generator index 0 out of range for n=1",
        ("tl", "basis", "-n", "9"): "n=9 is out of range here (limit 8)",
        ("tl", "dim", "-n", "15"): "n=15 is out of range here (limit 14)",
        ("tl", "cell", "-n", "15"): "n=15 is out of range here (limit 14)",
    }
    for args, message in messages.items():
        res = runner.invoke(main, args)
        assert res.exit_code == 2, (args, res.output)
        assert f"Error: {message}" in res.stderr, (args, res.stderr)
    # an empty token is an error, not skipped
    for word in ("0,,2", "0,2,"):
        assert "bad generator index ''" in runner.invoke(main, ["word", "-n", "4", "-r", word]).output


# the parser's own usage errors: arguments and a piece of the message
PARSE_ERRORS = {
    "missing-n": (["wp"], "Missing option '-n'"),
    "extra-argument": (["wp", "-n", "3", "extra"], "unexpected extra argument (extra)"),
    "non-integer-n": (["wp", "-n", "x"], "'x' is not a valid integer"),
    "bad-format": (["wp", "-n", "3", "--format", "xml"], "'xml' is not one of 'text', 'json'"),
    "unknown-option": (["wp", "-n", "3", "-q"], "-q"),
    "unknown-long-option": (["klpoly", "-n", "4", "--fast"], "--fast"),
    "unknown-command": (["foo"], "No such command 'foo'"),
    "unknown-subcommand": (["tl", "foo"], "No such command 'foo'"),
    "empty-command": ([""], "No such command ''"),
    "bad-suite": (
        ["verify", "-n", "4", "bogus"],
        "'bogus' is not one of 'kl', 'homdim', 'commute', 'cellular', 'faithful', 'all'",
    ),
    "missing-suite": (["verify", "-n", "4"], "Missing argument"),
    "negative-generator": (["tl", "act", "-n", "4", "-i", "-1", "-w", "++++"], "generator index -1 out of range"),
    "small-n": (["wp", "-n", "0"], "n must be at least 1"),
}


@pytest.mark.parametrize("args, message", PARSE_ERRORS.values(), ids=PARSE_ERRORS)
def test_parse_errors_exit_2(runner, args, message):
    res = runner.invoke(main, args)
    assert (res.exit_code, res.stdout) == (2, ""), res.output
    assert res.stderr.startswith("Usage: ") and "\nError: " in res.stderr, res.stderr
    assert message in res.stderr.split("\nError: ", 1)[1], res.stderr


@pytest.mark.parametrize("args", [[], ["tl"], ["render"]], ids=["cupkl", "tl", "render"])
def test_group_without_a_command_lists_its_commands(runner, args):
    res = runner.invoke(main, args)
    assert (res.exit_code, res.stdout) == (2, ""), res.output
    assert res.stderr.startswith("Usage: ")
    for name in {(): ["wp", "verify", "tl", "render"], ("tl",): ["act", "cell"], ("render",): ["tangle"]}[tuple(args)]:
        assert f"\n  {name} " in res.stderr, (name, res.stderr)


def test_options_the_benchmark_passes(runner):
    # a sign string that starts with '-' is the option's value, not an option
    assert run_ok(runner, ["klpoly", "-n", "4", "-v", "--++", "-w", "-+-+"]) == "q\n"
    pair = hom_dim(PMSequence("----"), PMSequence("-+-+"))
    assert run_ok(runner, ["homdim", "-n", "4", "-w", "----", "-x", "-+-+"]) == f"{pair}\n"
    # glued short values, --opt=value, and options on either side of an argument
    assert json.loads(run_ok(runner, ["wp", "-n3", "--format=json"]))["n"] == 3
    assert run_ok(runner, ["verify", "all", "-n", "4"]) == run_ok(runner, ["verify", "-n", "4", "all"])
    # an option given twice takes its last value
    assert run_ok(runner, ["wp", "-n", "9", "-n", "2"]) == "++\n--\n"


def test_in_process_entry(capsys, monkeypatch):
    # the benchmark's tracer runs a job as main(args, standalone_mode=False)
    assert main(["klpoly", "-n", "4", "-v", "--++", "-w", "-+-+"], standalone_mode=False) is None
    assert capsys.readouterr() == ("q\n", "")
    # a passing verify returns like any other answer; a failing one exits 1 below
    assert main(["verify", "-n", "4", "all"], standalone_mode=False) is None
    out, err = capsys.readouterr()
    assert (out.count(": pass\n"), out.endswith("faithful: pass\n"), err) == (5, True, "")
    with pytest.raises(SystemExit) as exc:
        main(["wp", "-n", "0"], standalone_mode=False)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("\nError: n must be at least 1\n")
    module, name, fake, counterexample = PLANTED["kl"]
    monkeypatch.setattr(module, name, fake)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-n", "4", "kl"], standalone_mode=False)
    assert exc.value.code == 1
    assert capsys.readouterr() == (f"kl: FAIL ({counterexample})\n", "")


def _cupkl(*args: str, **env: str) -> subprocess.Popen:
    """`cupkl args` in a child process with stdout and stderr piped, and env
    set over this process's environment."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **env)
    argv = [sys.executable, "-m", "cupkl.cli", *args]
    return subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)


def test_closed_stdout_exits_1_without_a_traceback():
    # as in `cupkl tl basis -n 8 | head -1`: the reader is gone before the answer is written
    proc = _cupkl("wp", "-n", "3")
    proc.stdout.close()
    assert (proc.wait(timeout=60), proc.stderr.read()) == (1, b"")


def test_a_verify_report_is_in_the_pipe_before_its_reader_goes():
    # as in `cupkl verify -n 5 all | head -1`: one line read, then the reader
    # closes; unbuffered, each write reaches the pipe as it is made
    proc = _cupkl("verify", "-n", "5", "all", PYTHONUNBUFFERED="1")
    assert proc.stdout.readline() == b"kl: orientation polynomials match the recursion on all 16^2 pairs\n"
    proc.stdout.close()
    assert (proc.wait(timeout=60), proc.stderr.read()) == (0, b"")


def test_closed_stderr_keeps_a_usage_error_at_2():
    # as in `cupkl wp -n 0 2>&1 >/dev/null | true`: the reader of the usage
    # error is gone before it is written; an escaping traceback would exit 1
    proc = _cupkl("wp", "-n", "0")
    proc.stderr.close()
    assert (proc.wait(timeout=60), proc.stdout.read()) == (2, b"")


def test_bad_stdin_tangle_exits_2(runner):
    wrong_size = json.dumps(generator(2, 1).to_json())
    for data in ["not json", "[]", "1", '{"m": "x"}', wrong_size, "[" * 100000 + "]" * 100000]:
        res = runner.invoke(main, ["render", "tangle", "-n", "4"], input=data)
        assert res.exit_code == 2, (data, res.output)
    e1 = generator(2, 1).to_json()
    string_dot = {**e1, "strands": [{**s, "dotted": "false"} for s in e1["strands"]]}
    unpairable = [{"m": m, "n": 2, "strands": []} for m in (30000000, 10**12, -2)]
    strand_extra = {**e1, "strands": [{**s, "extra": 1} for s in e1["strands"]]}
    unknown = [{**e1, "dotted_loop": True}, {**e1, "extra": 1}, strand_extra]
    for data in [string_dot, {**e1, "m": 2.7}, *unpairable, *unknown]:
        res = runner.invoke(main, ["render", "tangle", "-n", "2"], input=json.dumps(data))
        assert res.exit_code == 2, (data, res.output)


@pytest.mark.parametrize(
    "data, message",
    [
        ("abc", "expected object, got str"),
        ([1, 2], "expected object, got list"),
        ({"m": 0, "n": 2, "strands": "ab"}, "expected list, got str"),
        ({"m": 0, "n": 2, "strands": [{"ends": {"a": 1}, "dotted": False}]}, "expected list, got dict"),
        ({"m": "x" * 200_000, "n": 2, "strands": []}, "expected int, got str"),
        ({"m": 0, "n": 2, "strands": "x" * 100_000}, "expected list, got str"),
    ],
)
def test_stdin_tangle_of_the_wrong_json_type_exits_2(runner, data, message):
    # a string or array where an object or array belongs is named as such,
    # not read as the keys or elements it iterates to; the type is named,
    # not the value, so the message stays short however large the value
    res = runner.invoke(main, ["render", "tangle", "-n", "2"], input=json.dumps(data))
    assert res.exit_code == 2, res.output
    assert f"Error: bad tangle JSON on stdin: {message}\n" in res.stderr
    assert len(res.stderr.encode()) < 1024


def _poly(*coeffs):
    """Polynomial JSON from the coefficients of q^0, q^1, ..., zeros left out."""
    return [{"exp": k, "coeff": c} for k, c in enumerate(coeffs) if c]


def _tangle(n, line):
    """Tangle JSON from a `tl basis` line such as "(1,2)* (3,6) (4,5)*"."""
    ends = re.findall(r"\((\d+),(\d+)\)(\*?)", line)
    return {"m": n, "n": n, "strands": [{"ends": [int(a), int(b)], "dotted": d == "*"} for a, b, d in ends]}


def _cups(n, cups=(), edges=()):
    """Cup diagram JSON from (from, to, dotted) cups and (at, dotted) edges."""
    return {
        "n": n,
        "cups": [{"from": a, "to": b, "dotted": d} for a, b, d in cups],
        "edges": [{"at": p, "dotted": d} for p, d in edges],
    }


TL_BASIS_3 = [
    "(1,2) (3,4) (5,6)",
    "(1,2) (3,6) (4,5)",
    "(1,2) (3,6)* (4,5)*",
    "(1,2)* (3,4)* (5,6)",
    "(1,2)* (3,6) (4,5)*",
    "(1,2)* (3,6)* (4,5)",
    "(1,4) (2,3) (5,6)",
    "(1,4) (2,5) (3,6)",
    "(1,6) (2,3) (4,5)",
    "(1,6)* (2,3) (4,5)*",
]
E0_3 = "(1,2)* (3,6) (4,5)*"  # generator 0 at n = 3, in `tl basis` form
CIRCLES = [("green", 1, 1, 2), ("green", 1, 1, 2), ("red", 1, 1, 1), ("red", 0, 0, 1)]

CELLS_7 = [(7, 1), (5, 7), (3, 21), (1, 35)]  # (lambda, C(7, k)) for k = 0..3

# one case per command, and the tl size commands past the basis sizes:
# arguments, stdin, exact text stdout and the object its JSON stdout prints
EXACT = [
    pytest.param(
        ["wp", "-n", "3"], None, "+++\n+--\n-+-\n--+\n",
        {
            "n": 3,
            "elements": [
                {"w": "+++", "length": 0, "word": []},
                {"w": "+--", "length": 3, "word": [0, 2, 1]},
                {"w": "-+-", "length": 2, "word": [0, 2]},
                {"w": "--+", "length": 1, "word": [0]},
            ],
        },
        id="wp",
    ),
    pytest.param(
        ["word", "-n", "4", "-w", "-++-"], None, "0,2,3\n", {"w": "-++-", "length": 3, "word": [0, 2, 3]}, id="word-w"
    ),
    pytest.param(
        ["word", "-n", "4", "-r", "0,2,3"], None, "0,2,3\n", {"w": "-++-", "length": 3, "word": [0, 2, 3]}, id="word-r"
    ),
    pytest.param(
        ["klpoly", "-n", "4", "-v", "--++", "-w", "-+-+"], None, "q\n",
        {"v": "--++", "w": "-+-+", "poly": _poly(0, 1)},
        id="klpoly",
    ),
    pytest.param(
        ["klbasis", "-n", "4", "-w", "--++"], None, "++++: q\n--++: 1\n",
        {"w": "--++", "terms": [{"wprime": "++++", "poly": _poly(0, 1)}, {"wprime": "--++", "poly": _poly(1)}]},
        id="klbasis",
    ),
    pytest.param(
        ["cup", "-n", "4", "-w", "-+-+"], None, "1 2 3 4\n|*( ) |\n",
        _cups(4, [(2, 3, False)], [(1, True), (4, False)]),
        id="cup",
    ),
    pytest.param(
        ["homdim", "-n", "3"], None, "+++  1 0 0 1\n+--  0 2 1 0\n-+-  0 1 2 1\n--+  1 0 1 2\n",
        {
            "n": 3,
            "order": ["+++", "+--", "-+-", "--+"],
            "dims": [[1, 0, 0, 1], [0, 2, 1, 0], [0, 1, 2, 1], [1, 0, 1, 2]],
        },
        id="homdim-matrix",
    ),
    pytest.param(
        ["homdim", "-n", "4", "-w", "----", "-x", "----"], None, "4\n", {"w": "----", "wprime": "----", "dim": 4},
        id="homdim-pair",
    ),
    pytest.param(
        ["poincare", "-n", "3"], None,
        "+++: 1 + q\n+--: 1 + q + q^2\n-+-: 1 + 2q + q^2\n--+: 1 + 2q + q^2\ntotal: 13\n",
        {
            "n": 3,
            "table": {"+++": _poly(1, 1), "+--": _poly(1, 1, 1), "-+-": _poly(1, 2, 1), "--+": _poly(1, 2, 1)},
            "total": 13,
        },
        id="poincare",
    ),
    pytest.param(
        ["tl", "basis", "-n", "3"], None, "\n".join(["10", *TL_BASIS_3]) + "\n",
        {"n": 3, "count": 10, "basis": [_tangle(3, line) for line in TL_BASIS_3]},
        id="tl-basis",
    ),
    pytest.param(["tl", "dim", "-n", "3"], None, "10\n", {"n": 3, "dim": 10}, id="tl-dim"),
    pytest.param(
        ["tl", "cell", "-n", "3"], None, "lambda=3: 1\nlambda=1: 3\ntotal: 10\n",
        {
            "n": 3,
            "cells": [
                {"lam": 3, "size": 1, "members": [_cups(3, [], [(1, False), (2, False), (3, False)])]},
                {
                    "lam": 1,
                    "size": 3,
                    "members": [
                        _cups(3, [(1, 2, False)], [(3, True)]),
                        _cups(3, [(2, 3, False)], [(1, True)]),
                        _cups(3, [(1, 2, True)], [(3, False)]),
                    ],
                },
            ],
            "total": 10,
        },
        id="tl-cell",
    ),
    pytest.param(["tl", "dim", "-n", "14"], None, "17113644\n", {"n": 14, "dim": 17113644}, id="tl-dim-14"),
    pytest.param(
        ["tl", "cell", "-n", "7"], None, "".join(f"lambda={lam}: {size}\n" for lam, size in CELLS_7) + "total: 1716\n",
        {
            "n": 7,
            "cells": [
                {"lam": lam, "size": size, "members": [d.to_json() for d in cell_datum(7)[lam]]} for lam, size in CELLS_7
            ],
            "total": 1716,
        },
        id="tl-cell-7",
    ),
    pytest.param(
        ["tl", "act", "-n", "4", "-i", "0", "-w", "++++"], None, "coeff: 1\n1 2 3 4\n(*) | |\n",
        {"coeff": _poly(1), "diagram": _cups(4, [(1, 2, True)], [(3, False), (4, False)])},
        id="tl-act",
    ),
    pytest.param(
        ["tl", "act", "-n", "4", "-i", "1", "-w", "++++"], None, "0\n", {"coeff": [], "diagram": None},
        id="tl-act-zero",
    ),
    pytest.param(
        ["render", "tangle", "-n", "3", "-g", "0"], None, "1 2 3\n(*) |\n(*) |\n1 2 3\n", _tangle(3, E0_3),
        id="render-tangle-g",
    ),
    pytest.param(
        ["render", "tangle", "-n", "3"], json.dumps(_tangle(3, E0_3)), "1 2 3\n(*) |\n(*) |\n1 2 3\n",
        _tangle(3, E0_3),
        id="render-tangle-stdin",
    ),
    pytest.param(
        ["render", "circle", "-n", "3", "-w", "--+", "-x", "+--"], None,
        "".join(f"circle {k}: {c} (upper={u}, lower={d}, linked={t})\n" for k, (c, u, d, t) in enumerate(CIRCLES, 1)),
        {
            "n": 3,
            "cap": "+--",
            "cup": "--+",
            "circles": [
                {"color": c, "upper_outer": u, "lower_outer": d, "linked_pairs": t} for c, u, d, t in CIRCLES
            ],
        },
        id="render-circle",
    ),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("args, stdin, text, data", EXACT)
def test_exact_output(runner, args, stdin, text, data, fmt):
    res = runner.invoke(main, [*args, "--format", fmt], input=stdin)
    assert (res.exit_code, res.stderr) == (0, ""), res.output
    assert res.stdout == (text if fmt == "text" else json.dumps(data, indent=2) + "\n")


def test_help_for_every_command(runner):
    assert len(COMMANDS) == 18
    for path, (fn, _) in COMMANDS.items():
        res = runner.invoke(main, [*path, "--help"])
        assert res.exit_code == 0, (path, res.output)
        first = fn.__doc__.splitlines()[0]
        assert " ".join(first.split()) in " ".join(res.stdout.split()), path


def _readme_examples():
    """(command, printed output) for each `$ cupkl` line in README's
    "Command line" section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```\n(.*?)```", section, re.S):
        for chunk in re.split(r"^\$ cupkl ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            examples.append((command, output.strip("\n") + "\n"))
    return examples


def test_readme_examples(runner):
    examples = _readme_examples()
    assert [c.split()[0] for c, _ in examples] == ["wp", "klpoly", "cup", "render", "poincare"]
    for command, output in examples:
        assert run_ok(runner, shlex.split(command)) == output, command
