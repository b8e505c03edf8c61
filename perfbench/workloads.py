"""The benchmark's workloads: seeded job lists and exact output checks.

A job is one fresh process: ``python -m cupkl.cli ARGS`` for a CLI job, or
``python perfbench/worker.py lib ARGS`` for a library job that the CLI
cannot reach (it caps ``tl`` at n <= 6 and ``faithful`` at n <= 5).

Every job carries a check that compares its stdout exactly with an
independent route or a pinned value.  Expected outputs are built when the
job list is built, before any timing, and checks run between jobs, outside
the timed region.  The independent routes are

* the Hecke recursion (``kl_table``) for everything the CLI answers with
  oriented cup diagrams: ``klpoly``, ``homdim``, ``poincare``;
* oriented cup diagrams for ``klbasis``, which the CLI answers with the
  recursion;
* ``cut(cup_diagram(w))`` for ``cup``, which the CLI builds from the signs;
* a replay of the printed word with every step ``LONGER`` for ``word``;
* the Hecke action transported to cup diagrams for ``tl act``;
* the coloring theorem (hom dimension from circle colors equals the
  recursion's count) for ``render circle``, whose text is compared with
  the circle tracer in-process.

Pinned values: ``dim_End(7) = 2837``, ``dim_End(8) = 14949``, 362 and 1716
basis tangles at n = 6, 7, faithful rank equal to basis size, and the
``verify`` reports.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import random
import re
from typing import Callable, Optional

from cupkl.circles import circle_diagram
from cupkl.cups import cup_diagram, cut, orientations_of
from cupkl.hecke import cs_action, kl_basis, kl_table
from cupkl.laurent import LaurentPoly
from cupkl.tangles import DecoratedTangle, phi
from cupkl.weyl import Move, PMSequence, apply_generator, enumerate_wp, identity

#: A check takes a job's stdout and returns None when it is right, else why not.
Check = Callable[[str], Optional[str]]

DIM_END = {7: 2837, 8: 14949}
TL_DIM = {5: 126, 6: 362, 7: 1716}
FAITHFUL_Q = "97/89"
KLBASIS_W = "--+-+-+-+-+"
QUERY_SIZES = (10, 11, 12)
QUERIES_PER_SIZE = 2


@dataclasses.dataclass(frozen=True)
class Job:
    """One process to run: ``kind`` is "cli" or "lib"."""

    kind: str
    args: tuple[str, ...]
    check: Check = dataclasses.field(compare=False, repr=False)

    @property
    def name(self) -> str:
        return " ".join(self.args)


def exact(expected: str) -> Check:
    def check(out: str) -> Optional[str]:
        if out == expected:
            return None
        return f"expected {_clip(expected)}, got {_clip(out)}"

    return check


def both(first: Check, second: Check) -> Check:
    return lambda out: first(out) or second(out)


def _clip(text: str) -> str:
    return repr(text if len(text) <= 80 else text[:77] + "...")


def _text(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


# -- the Hecke recursion as oracle ---------------------------------------


@functools.cache
def supports(n: int) -> dict[PMSequence, dict[PMSequence, LaurentPoly]]:
    """Canonical basis element at each w, as {v: polynomial}."""
    return {w: el.as_dict() for w, el in kl_table(n).rows}


def hom_dim_oracle(w: PMSequence, x: PMSequence) -> int:
    s = supports(w.n)
    return len(s[w].keys() & s[x].keys())


def poincare_lines(n: int) -> list[str]:
    s = supports(n)
    lines = []
    for w in enumerate_wp(n):
        degrees: collections.Counter[int] = collections.Counter()
        for x in enumerate_wp(n):
            for v in s[w].keys() & s[x].keys():
                degrees[s[w][v].min_exp() + s[x][v].min_exp()] += 1
        lines.append(f"{w}: {LaurentPoly.from_dict(degrees)}")
    return lines


def homdim_matrix_lines(n: int) -> list[str]:
    els = enumerate_wp(n)
    return [f"{w}  " + " ".join(str(hom_dim_oracle(w, x)) for x in els) for w in els]


def matrix_total(expected: int) -> Check:
    def check(out: str) -> Optional[str]:
        total = sum(int(d) for line in out.splitlines() for d in line.split()[1:])
        return None if total == expected else f"matrix sums to {total}, pinned {expected}"

    return check


# -- other independent routes ----------------------------------------------


def klbasis_lines(w: PMSequence) -> list[str]:
    return [f"{v}: {LaurentPoly.q_power(r // 2)}" for v, r in orientations_of(w)]


def replays_to(w: PMSequence) -> Check:
    def check(out: str) -> Optional[str]:
        if not out.endswith("\n") or out.count("\n") != 1:
            return f"expected one line, got {_clip(out)}"
        x = identity(w.n)
        try:
            word = [int(tok) for tok in out.strip().split(",")] if out.strip() else []
            for i in word:
                step = apply_generator(x, i)
                if step.move is not Move.LONGER:
                    return f"generator {i} at {x} is {step.move.value}, not longer"
                x = step.result
        except ValueError as exc:
            return f"unreadable word {_clip(out)}: {exc}"
        return None if x == w else f"word replays to {x}, not {w}"

    return check


def tl_act_check(w: PMSequence, i: int) -> Check:
    image = phi(cs_action(kl_basis(w), i))
    if len(image) > 1:
        return lambda out: f"the Hecke route gives {len(image)} diagrams"
    if not image:
        return exact("0\n")
    ((diagram, coeff),) = image.items()
    return exact(f"coeff: {coeff}\n{diagram.to_ascii()}\n")


def circle_check(w: PMSequence, x: PMSequence) -> Check:
    diag = circle_diagram(x, w)
    text = _text(
        [
            f"circle {k}: {c.color} (upper={c.upper_outer}, lower={c.lower_outer}, linked={c.linked_pairs})"
            for k, c in enumerate(diag.circles, 1)
        ]
    )
    dim = 0 if diag.count("red") else 2 ** (diag.count("black") // 2)
    want = hom_dim_oracle(w, x)
    if dim != want:
        return lambda out: f"colors give dimension {dim}, the recursion {want}"
    return exact(text)


_STRAND = re.compile(r"\((\d+),(\d+)\)(\*?)$")


def tl_basis_listing(n: int) -> Check:
    """The listing has the pinned count and that many distinct valid
    even tangles."""
    count = TL_DIM[n]

    def check(out: str) -> Optional[str]:
        lines = out.splitlines()
        if lines[:1] != [str(count)] or len(lines) != count + 1 or len(set(lines[1:])) != count:
            return f"expected {count} distinct basis lines after the count, got {len(lines)} lines"
        for line in lines[1:]:
            parts = [_STRAND.match(tok) for tok in line.split()]
            if not all(parts):
                return f"unreadable strand in {line!r}"
            strands = tuple((int(p[1]), int(p[2]), bool(p[3])) for p in parts)
            try:
                t = DecoratedTangle(n, n, strands)
            except ValueError as exc:
                return f"invalid tangle {line!r}: {exc}"
            if t.dot_count() % 2:
                return f"odd tangle {line!r}"
        return None

    return check


#: Pinned ``verify`` reports by (n, suite).  The cell sizes 1, 5, 10 and
#: the algebra dimension 126 at n = 5 are the cellular bookkeeping: the sizes
#: sum to 2^(n-1) and their squares to the basis size.
VERIFY = {
    (6, "kl"): [
        "kl: orientation polynomials match the recursion on all 32^2 pairs",
        "kl: products over reduced words land on canonical basis elements",
        "kl: pass",
    ],
    (6, "homdim"): [
        "homdim: coloring formula equals brute-force counts on all 32^2 pairs",
        "homdim: per-circle orientation counts are red 0, green 1, black 2",
        "homdim: pass",
    ],
    (6, "commute"): [
        "commute: tangle action matches the Hecke action for all elements and generators",
        "commute: pass",
    ],
    (5, "all"): [
        "kl: orientation polynomials match the recursion on all 16^2 pairs",
        "kl: products over reduced words land on canonical basis elements",
        "kl: pass",
        "homdim: coloring formula equals brute-force counts on all 16^2 pairs",
        "homdim: per-circle orientation counts are red 0, green 1, black 2",
        "homdim: pass",
        "commute: tangle action matches the Hecke action for all elements and generators",
        "commute: pass",
        f"cellular: cell dims 1,5,10 and total {TL_DIM[5]}",
        "cellular: cell action independent of the auxiliary half",
        "cellular: pass",
        f"faithful: action on cup diagrams is faithful: rank {TL_DIM[5]} of {TL_DIM[5]}",
        "faithful: pass",
    ],
}


def verify_job(n: int, suite: str) -> Job:
    return Job("cli", ("verify", "-n", str(n), suite), exact(_text(VERIFY[n, suite])))


# -- workloads -------------------------------------------------------------


def tables(rng: random.Random) -> list[Job]:
    """Whole-table commands at the largest sizes the diagram routes
    answer in seconds."""
    w = PMSequence(KLBASIS_W)
    return [
        Job("cli", ("poincare", "-n", "7"), exact(_text([*poincare_lines(7), f"total: {DIM_END[7]}"]))),
        Job("cli", ("homdim", "-n", "8"), both(exact(_text(homdim_matrix_lines(8))), matrix_total(DIM_END[8]))),
        verify_job(6, "homdim"),
        verify_job(6, "kl"),
        Job("cli", ("klbasis", "-n", str(w.n), "-w", w.signs), exact(_text(klbasis_lines(w)))),
    ]


def tangles(rng: random.Random) -> list[Job]:
    """The tangle algebra at the top of its range: two library jobs past
    the CLI caps, and the capped CLI commands."""
    return [
        Job("lib", ("tlhat_basis", "7"), exact(f"{TL_DIM[7]}\n")),
        Job("lib", ("faithfulness_rank", "6", FAITHFUL_Q), exact(f"{TL_DIM[6]} {TL_DIM[6]}\n")),
        verify_job(5, "all"),
        verify_job(6, "commute"),
        Job("cli", ("tl", "basis", "-n", "6"), tl_basis_listing(6)),
    ]


def point_queries(rng: random.Random) -> list[Job]:
    """Single-answer commands on seeded elements at n = 10..12."""
    jobs = []
    for n in QUERY_SIZES:
        els = enumerate_wp(n)
        for _ in range(QUERIES_PER_SIZE):
            w, x = rng.choice(els), rng.choice(els)
            v = rng.choice(list(supports(n)[w]))
            i = rng.randrange(n)
            size = ("-n", str(n))
            jobs += [
                Job("cli", ("klpoly", *size, "-v", v.signs, "-w", w.signs), exact(f"{supports(n)[w][v]}\n")),
                Job("cli", ("homdim", *size, "-w", w.signs, "-x", x.signs), exact(f"{hom_dim_oracle(w, x)}\n")),
                Job("cli", ("cup", *size, "-w", w.signs), exact(cut(cup_diagram(w)).to_ascii() + "\n")),
                Job("cli", ("word", *size, "-w", w.signs), replays_to(w)),
                Job("cli", ("tl", "act", *size, "-i", str(i), "-w", w.signs), tl_act_check(w, i)),
                Job("cli", ("render", "circle", *size, "-w", w.signs, "-x", x.signs), circle_check(w, x)),
            ]
    return jobs


WORKLOADS: dict[str, Callable[[random.Random], list[Job]]] = {
    "tables": tables,
    "tangles": tangles,
    "point_queries": point_queries,
}
