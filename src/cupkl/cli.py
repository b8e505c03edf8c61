"""Command line front end.

Exit codes: 0 on success, 1 when a verify suite finds a broken
invariant, 2 on usage errors (including out-of-range sizes).
"""

from __future__ import annotations

import json
import sys
from typing import Optional

import click

from . import checks
from .laurent import LaurentPoly
from .weyl import Move, PMSequence, apply_generator, enumerate_wp, identity, length, reduced_word
from .hecke import kl_basis, kl_poly, kl_table
from .cups import decorated_cup, kl_poly_diagrammatic, orientations_of
from .circles import circle_diagram, graded_dims, hom_dim, hom_dims, hom_matrix, poincare_table
from .tangles import DecoratedTangle, act, cell_datum, generator, tlhat_basis

FORMATS = click.Choice(["text", "json"])


def _element(n: int, signs: Optional[str], word: Optional[str]) -> PMSequence:
    if (signs is None) == (word is None):
        raise click.UsageError("give exactly one of a sign string or a reduced word")
    if signs is not None:
        try:
            w = PMSequence(signs)
        except ValueError as exc:
            raise click.UsageError(str(exc))
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
        try:
            step = apply_generator(w, i)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        if step.move is Move.NOT_IN_QUOTIENT:
            raise click.UsageError(f"word leaves the quotient at generator {i}")
        if step.move is not Move.LONGER:
            raise click.UsageError(f"word is not reduced: generator {i} shortens {w}")
        w = step.result
    return w


def _emit_json(data) -> None:
    click.echo(json.dumps(data, indent=2))


n_option = click.option("-n", "size", type=int, required=True, help="sequence length")
format_option = click.option("--format", "fmt", type=FORMATS, default="text", show_default=True)
oracle_option = click.option(
    "--oracle", is_flag=True, help="recompute through the Hecke recursion instead of diagrams"
)


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
    if fmt == "json":
        _emit_json(
            {
                "n": size,
                "elements": [
                    {"w": str(w), "length": length(w), "word": list(reduced_word(w))}
                    for w in els
                ],
            }
        )
    else:
        for w in els:
            click.echo(str(w))


@main.command()
@n_option
@format_option
@click.option("-w", "signs", help="element as a sign string")
@click.option("-r", "word", help="element as a comma separated reduced word")
def word(size: int, fmt: str, signs: Optional[str], word: Optional[str]) -> None:
    """Canonical reduced word of an element."""
    _check_n(size, high=1000)
    w = _element(size, signs, word)
    rw = reduced_word(w)
    if fmt == "json":
        _emit_json({"w": str(w), "length": length(w), "word": list(rw)})
    else:
        click.echo(",".join(str(i) for i in rw))


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
    v = _element(size, v_signs, None)
    w = _element(size, w_signs, None)
    p = kl_poly(v, w) if oracle else kl_poly_diagrammatic(v, w)
    if fmt == "json":
        _emit_json({"v": str(v), "w": str(w), "poly": p.to_json()})
    else:
        click.echo(str(p))


@main.command()
@n_option
@format_option
@click.option("-w", "signs", help="element as a sign string")
@click.option("-r", "word", help="element as a comma separated reduced word")
def klbasis(size: int, fmt: str, signs: Optional[str], word: Optional[str]) -> None:
    """Canonical basis element expanded over the standard basis, read
    from oriented cup diagrams like klpoly (--oracle there checks it)."""
    _check_n(size, high=16)
    w = _element(size, signs, word)
    terms = [(v, LaurentPoly.q_power(r // 2)) for v, r in orientations_of(w)]
    if fmt == "json":
        _emit_json({"w": str(w), "terms": [{"wprime": str(v), "poly": p.to_json()} for v, p in terms]})
    else:
        for v, p in terms:
            click.echo(f"{v}: {p}")


@main.command()
@n_option
@format_option
@click.option("-w", "signs", help="element as a sign string")
@click.option("-r", "word", help="element as a comma separated reduced word")
def cup(size: int, fmt: str, signs: Optional[str], word: Optional[str]) -> None:
    """Decorated cup diagram of an element."""
    _check_n(size, high=100_000)
    w = _element(size, signs, word)
    d = decorated_cup(w)
    if fmt == "json":
        _emit_json(d.to_json())
    else:
        click.echo(d.to_ascii())


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
        w = _element(size, w_signs, None)
        x = _element(size, x_signs, None)
        d = len(set(kl_basis(w).support()) & set(kl_basis(x).support())) if oracle else hom_dim(w, x)
        if fmt == "json":
            _emit_json({"w": str(w), "wprime": str(x), "dim": d})
        else:
            click.echo(str(d))
        return
    data = hom_dims({w: el.support() for w, el in kl_table(size).rows}) if oracle else hom_matrix(size)
    if fmt == "json":
        _emit_json(data)
    else:
        for w, row in zip(data["order"], data["dims"]):
            click.echo(f"{w}  " + " ".join(str(d) for d in row))


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
    if fmt == "json":
        _emit_json(
            {
                "n": size,
                "table": {str(w): p.to_json() for w, p in table.items()},
                "total": total_dim,
            }
        )
    else:
        for w, p in table.items():
            click.echo(f"{w}: {p}")
        click.echo(f"total: {total_dim}")


@main.group()
def tl() -> None:
    """The decorated tangle algebra."""


@tl.command("basis")
@n_option
@format_option
def tl_basis(size: int, fmt: str) -> None:
    """List the algebra basis."""
    _check_n(size, low=3, high=6)
    basis = tlhat_basis(size)
    if fmt == "json":
        _emit_json({"n": size, "count": len(basis), "basis": [t.to_json() for t in basis]})
    else:
        click.echo(str(len(basis)))
        for t in basis:
            click.echo(
                " ".join(f"({a},{b})" + ("*" if d else "") for a, b, d in t.strands)
            )


@tl.command("dim")
@n_option
@format_option
def tl_dim(size: int, fmt: str) -> None:
    """Dimension of the algebra."""
    _check_n(size, low=3, high=6)
    d = len(tlhat_basis(size))
    if fmt == "json":
        _emit_json({"n": size, "dim": d})
    else:
        click.echo(str(d))


@tl.command("act")
@n_option
@format_option
@click.option("-i", "gen", type=int, required=True, help="generator index")
@click.option("-w", "signs", help="element as a sign string")
@click.option("-r", "word", help="element as a comma separated reduced word")
def tl_act(size: int, fmt: str, gen: int, signs: Optional[str], word: Optional[str]) -> None:
    """Act by a generator on the cup diagram of an element."""
    _check_n(size, low=2, high=100_000)
    if not 0 <= gen < size:
        raise click.UsageError(f"generator index {gen} out of range for n={size}")
    w = _element(size, signs, word)
    coeff, image = act(generator(size, gen), decorated_cup(w))
    if fmt == "json":
        _emit_json(
            {
                "coeff": coeff.to_json(),
                "diagram": None if image is None else image.to_json(),
            }
        )
    elif image is None:
        click.echo("0")
    else:
        click.echo(f"coeff: {coeff}")
        click.echo(image.to_ascii())


@tl.command("cell")
@n_option
@format_option
def tl_cell(size: int, fmt: str) -> None:
    """Cell structure: through-strand counts and cell sizes."""
    _check_n(size, low=3, high=6)
    cells = cell_datum(size)
    sizes = [len(ms) for ms in cells.values()]
    if fmt == "json":
        _emit_json(
            {
                "n": size,
                "cells": [
                    {"lam": lam, "size": len(ms), "members": [d.to_json() for d in ms]}
                    for lam, ms in cells.items()
                ],
                "total": sum(s * s for s in sizes),
            }
        )
    else:
        for lam, s in zip(cells, sizes):
            click.echo(f"lambda={lam}: {s}")
        click.echo(f"total: {sum(s * s for s in sizes)}")


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
        if not 0 <= gen < size:
            raise click.UsageError(f"generator index {gen} out of range for n={size}")
        t = generator(size, gen)
    else:
        try:
            t = DecoratedTangle.from_json(json.load(sys.stdin))
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise click.UsageError(f"bad tangle JSON on stdin: {exc}")
        if t.n != size:
            raise click.UsageError(f"tangle on stdin has {t.n} top points, expected {size}")
    click.echo(json.dumps(t.to_json(), indent=2) if fmt == "json" else t.to_ascii())


@render.command("circle")
@n_option
@format_option
@click.option("-w", "w_signs", required=True, help="cup-side element")
@click.option("-x", "x_signs", required=True, help="cap-side element")
def render_circle(size: int, fmt: str, w_signs: str, x_signs: str) -> None:
    """Colored circle report for a pair of elements."""
    _check_n(size)
    w = _element(size, w_signs, None)
    x = _element(size, x_signs, None)
    diag = circle_diagram(x, w)
    if fmt == "json":
        _emit_json(diag.to_json())
    else:
        for k, c in enumerate(diag.circles, 1):
            click.echo(
                f"circle {k}: {c.color} (upper={c.upper_outer}, lower={c.lower_outer}, linked={c.linked_pairs})"
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
