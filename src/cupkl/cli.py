"""Command line front end.

Exit codes: 0 on success, 1 when a verify suite finds a broken
invariant, 2 on usage errors (including out-of-range sizes).
"""

from __future__ import annotations

import sys
from typing import Callable, Optional, TypeVar

import click

from . import checks
from .laurent import LaurentPoly
from .weyl import Move, PMSequence, apply_generator, enumerate_wp, identity, length, reduced_word
from .hecke import kl_basis, kl_poly, kl_table
from .cups import decorated_cup, kl_poly_diagrammatic, orientations_of
from .circles import circle_diagram, graded_dims, hom_dim, hom_dims, hom_matrix, poincare_table
from .tangles import DecoratedTangle, act, cell_datum, generator, tlhat_basis

FORMATS = click.Choice(["text", "json"])
T = TypeVar("T")


def _usage(fn: Callable[..., T], *args) -> T:
    """fn(*args), with the ValueError it raises on bad input as a usage error."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _element(n: int, signs: Optional[str], word: Optional[str] = None) -> PMSequence:
    if (signs is None) == (word is None):
        raise click.UsageError("give exactly one of a sign string or a reduced word")
    if signs is not None:
        w = _usage(PMSequence, signs)
        if w.n != n:
            raise click.UsageError(f"sign string has length {w.n}, expected {n}")
        return w
    w = identity(n)
    for tok in word.split(",") if word.strip() else ():
        tok = tok.strip()
        try:
            i = int(tok)
        except ValueError:
            raise click.UsageError(f"bad generator index {tok!r}")
        step = _usage(apply_generator, w, i)
        if step.move is Move.NOT_IN_QUOTIENT:
            raise click.UsageError(f"word leaves the quotient at generator {i}")
        if step.move is not Move.LONGER:
            raise click.UsageError(f"word is not reduced: generator {i} shortens {w}")
        w = step.result
    return w


def _emit(fmt: str, data: Callable[[], object], text: Callable[[], str]) -> None:
    """Print the answer as JSON or as text, building only the one asked for."""
    if fmt != "json":
        return click.echo(text())
    import json
    click.echo(json.dumps(data(), indent=2))


def _word_json(w: PMSequence) -> dict:
    return {"w": str(w), "length": length(w), "word": list(reduced_word(w))}


n_option = click.option("-n", "size", type=int, required=True, help="sequence length")
format_option = click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
oracle_option = click.option(
    "--oracle", is_flag=True, help="recompute through the Hecke recursion instead of diagrams"
)
signs_option = click.option("-w", "signs", help="element as a sign string")
word_option = click.option("-r", "word", help="element as a comma separated reduced word")


def _check_n(size: int, low: int = 1, high: Optional[int] = None) -> None:
    if size < low:
        raise click.UsageError(f"n must be at least {low}")
    if high is not None and size > high:
        raise click.UsageError(
            f"n={size} is out of range here (limit {high}); larger sizes get slow without telling you anything new"
        )


@click.group()
def main() -> None:
    """Diagram calculus for a parabolic Hecke module: sign sequences, cup
    diagrams, circle diagrams, and the decorated tangle algebra."""


@main.command()
@n_option
@format_option
def wp(size: int, fmt: str) -> None:
    """List the 2^(n-1) sign sequences, identity first."""
    _check_n(size, high=14 if fmt == "json" else 18)
    els = enumerate_wp(size)
    _emit(fmt, lambda: {"n": size, "elements": list(map(_word_json, els))}, lambda: "\n".join(map(str, els)))


@main.command()
@n_option
@format_option
@signs_option
@word_option
def word(size: int, fmt: str, signs: Optional[str], word: Optional[str]) -> None:
    """Canonical reduced word of an element."""
    _check_n(size, high=1000)
    w = _element(size, signs, word)
    _emit(fmt, lambda: _word_json(w), lambda: ",".join(map(str, reduced_word(w))))


@main.command()
@n_option
@format_option
@oracle_option
@click.option("-v", "v_signs", required=True, help="row element as a sign string")
@click.option("-w", "w_signs", required=True, help="column element as a sign string")
def klpoly(size: int, fmt: str, oracle: bool, v_signs: str, w_signs: str) -> None:
    """One Kazhdan-Lusztig polynomial, by orientation count (or the
    recursion with --oracle)."""
    _check_n(size, high=12 if oracle else None)
    v, w = _element(size, v_signs), _element(size, w_signs)
    p = kl_poly(v, w) if oracle else kl_poly_diagrammatic(v, w)
    _emit(fmt, lambda: {"v": str(v), "w": str(w), "poly": p.to_json()}, lambda: str(p))


@main.command()
@n_option
@format_option
@signs_option
@word_option
def klbasis(size: int, fmt: str, signs: Optional[str], word: Optional[str]) -> None:
    """Canonical basis element expanded over the standard basis, read
    from oriented cup diagrams like klpoly (--oracle there checks it)."""
    _check_n(size, high=16)
    w = _element(size, signs, word)
    terms = [(v, LaurentPoly.q_power(r // 2)) for v, r in orientations_of(w)]
    _emit(
        fmt,
        lambda: {"w": str(w), "terms": [{"wprime": str(v), "poly": p.to_json()} for v, p in terms]},
        lambda: "\n".join(f"{v}: {p}" for v, p in terms),
    )


@main.command()
@n_option
@format_option
@signs_option
@word_option
def cup(size: int, fmt: str, signs: Optional[str], word: Optional[str]) -> None:
    """Decorated cup diagram of an element."""
    _check_n(size, high=100_000)
    d = decorated_cup(_element(size, signs, word))
    _emit(fmt, d.to_json, d.to_ascii)


@main.command()
@n_option
@format_option
@oracle_option
@click.option("-w", "w_signs", help="first element (omit both for the full matrix)")
@click.option("-x", "x_signs", help="second element")
def homdim(size: int, fmt: str, oracle: bool, w_signs: Optional[str], x_signs: Optional[str]) -> None:
    """Dimension of one hom space, or the full matrix."""
    if (w_signs is None) != (x_signs is None):
        raise click.UsageError("give both -w and -x, or neither")
    _check_n(size, high=10 if w_signs is None else 12 if oracle else None)
    if w_signs is not None:
        w, x = _element(size, w_signs), _element(size, x_signs)
        d = len(set(kl_basis(w).support()) & set(kl_basis(x).support())) if oracle else hom_dim(w, x)
        _emit(fmt, lambda: {"w": str(w), "wprime": str(x), "dim": d}, lambda: str(d))
        return
    data = hom_dims({w: el.support() for w, el in kl_table(size).rows}) if oracle else hom_matrix(size)
    rows = zip(data["order"], data["dims"])
    _emit(fmt, lambda: data, lambda: "\n".join(f"{w}  " + " ".join(map(str, row)) for w, row in rows))


@main.command()
@n_option
@format_option
@oracle_option
def poincare(size: int, fmt: str, oracle: bool) -> None:
    """Graded endomorphism-algebra dimensions, one polynomial per element."""
    _check_n(size, high=12)
    if oracle:
        rows = kl_table(size).rows
        table = graded_dims({w: {v: p.min_exp() for v, p in el.coeffs} for w, el in rows})
    else:
        table = poincare_table(size)
    total_dim = sum(p.eval_at_one() for p in table.values())
    _emit(
        fmt,
        lambda: {"n": size, "table": {str(w): p.to_json() for w, p in table.items()}, "total": total_dim},
        lambda: "\n".join([*(f"{w}: {p}" for w, p in table.items()), f"total: {total_dim}"]),
    )


@main.group()
def tl() -> None:
    """The decorated tangle algebra."""


@tl.command("basis")
@n_option
@format_option
def tl_basis(size: int, fmt: str) -> None:
    """List the algebra basis."""
    _check_n(size, low=3, high=8)
    basis = tlhat_basis(size)
    _emit(
        fmt,
        lambda: {"n": size, "count": len(basis), "basis": [t.to_json() for t in basis]},
        lambda: "\n".join(
            [str(len(basis)), *(" ".join(f"({a},{b})" + ("*" if d else "") for a, b, d in t.strands) for t in basis)]
        ),
    )


@tl.command("dim")
@n_option
@format_option
def tl_dim(size: int, fmt: str) -> None:
    """Dimension of the algebra."""
    _check_n(size, low=3, high=14)
    d = sum(len(ms) ** 2 for ms in cell_datum(size).values())
    _emit(fmt, lambda: {"n": size, "dim": d}, lambda: str(d))


@tl.command("act")
@n_option
@format_option
@click.option("-i", "gen", type=int, required=True, help="generator index")
@signs_option
@word_option
def tl_act(size: int, fmt: str, gen: int, signs: Optional[str], word: Optional[str]) -> None:
    """Act by a generator on the cup diagram of an element."""
    _check_n(size, low=2, high=100_000)
    coeff, image = act(_usage(generator, size, gen), decorated_cup(_element(size, signs, word)))
    _emit(
        fmt,
        lambda: {"coeff": coeff.to_json(), "diagram": None if image is None else image.to_json()},
        lambda: "0" if image is None else f"coeff: {coeff}\n{image.to_ascii()}",
    )


@tl.command("cell")
@n_option
@format_option
def tl_cell(size: int, fmt: str) -> None:
    """Cell structure: through-strand counts and cell sizes."""
    _check_n(size, low=3, high=14)
    cells = cell_datum(size)
    total = sum(len(ms) ** 2 for ms in cells.values())
    _emit(
        fmt,
        lambda: {
            "n": size,
            "cells": [{"lam": lam, "size": len(ms), "members": [d.to_json() for d in ms]} for lam, ms in cells.items()],
            "total": total,
        },
        lambda: "\n".join([*(f"lambda={lam}: {len(ms)}" for lam, ms in cells.items()), f"total: {total}"]),
    )


@main.group()
def render() -> None:
    """ASCII or JSON pictures of diagrams."""


render.add_command(cup)


@render.command("tangle")
@n_option
@format_option
@click.option("-g", "gen", type=int, help="render this generator")
def render_tangle(size: int, fmt: str, gen: Optional[int]) -> None:
    """Picture of a tangle: a generator via -g, or JSON on stdin."""
    _check_n(size, low=2, high=100_000)
    if gen is not None:
        t = _usage(generator, size, gen)
    else:
        import json
        try:
            t = DecoratedTangle.from_json(json.load(sys.stdin))
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise click.UsageError(f"bad tangle JSON on stdin: {exc}")
        if t.n != size:
            raise click.UsageError(f"tangle on stdin has {t.n} top points, expected {size}")
    _emit(fmt, t.to_json, t.to_ascii)


@render.command("circle")
@n_option
@format_option
@click.option("-w", "w_signs", required=True, help="cup-side element")
@click.option("-x", "x_signs", required=True, help="cap-side element")
def render_circle(size: int, fmt: str, w_signs: str, x_signs: str) -> None:
    """Colored circle report for a pair of elements."""
    _check_n(size)
    w, x = _element(size, w_signs), _element(size, x_signs)
    diag = circle_diagram(x, w)
    _emit(
        fmt,
        diag.to_json,
        lambda: "\n".join(
            f"circle {k}: {c.color} (upper={c.upper_outer}, lower={c.lower_outer}, linked={c.linked_pairs})"
            for k, c in enumerate(diag.circles, 1)
        ),
    )


@main.command()
@n_option
@click.argument("suite", type=click.Choice([*checks.SUITES, "all"]))
def verify(size: int, suite: str) -> None:
    """Re-check the structural theorems at a given size.

    Exits 0 when every invariant holds, 1 otherwise."""
    names = list(checks.SUITES) if suite == "all" else [suite]
    for name in names:
        _, low, high = checks.SUITES[name]
        _check_n(size, low=low, high=high)
    failed = False
    for name in names:
        fn, *_ = checks.SUITES[name]
        try:
            for line in fn(size):
                click.echo(f"{name}: {line}")
            click.echo(f"{name}: pass")
        except AssertionError as exc:
            click.echo(f"{name}: FAIL ({exc})")
            failed = True
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
