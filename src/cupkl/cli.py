"""Command line front end.

Exit codes: 0 on success, 1 when a verify suite finds a broken
invariant, 2 on usage errors (including out-of-range sizes).  An answer
whose reader is gone before it is written exits 1 without a traceback;
a usage error whose reader is gone still exits 2.

Each layer runs on its first use, so a command runs only the layers it calls,
and verify only checks and the layers its suites read.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from getopt import GetoptError, gnu_getopt
from typing import Callable, Optional, TextIO, TypeVar


def _layer(name: str):
    """cupkl.<name>, in sys.modules and on the package as an import leaves it, but run on its first attribute read."""
    if (module := sys.modules.get(f"{__package__}.{name}")) is None:
        spec = importlib.util.find_spec(f"{__package__}.{name}")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        importlib.util.LazyLoader(spec.loader).exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


weyl, laurent, hecke, cups, circles, tangles, checks = map(_layer, "weyl laurent hecke cups circles tangles checks".split())

T = TypeVar("T")


class UsageError(Exception):
    """Bad input on the command line: printed with the usage, exit code 2."""


def _usage(fn: Callable[..., T], *args) -> T:
    """fn(*args), with the ValueError it raises on bad input as a usage error."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise UsageError(str(exc))


def _element(n: int, signs: Optional[str], word: Optional[str] = None) -> weyl.PMSequence:
    if (signs is None) == (word is None):
        raise UsageError("give exactly one of a sign string or a reduced word")
    if signs is not None:
        w = _usage(weyl.PMSequence, signs)
        if w.n != n:
            raise UsageError(f"sign string has length {w.n}, expected {n}")
        return w
    w = weyl.identity(n)
    for tok in word.split(",") if word.strip() else ():
        tok = tok.strip()
        try:
            i = int(tok)
        except ValueError:
            raise UsageError(f"bad generator index {tok!r}")
        step = _usage(weyl.apply_generator, w, i)
        if step.move is weyl.Move.NOT_IN_QUOTIENT:
            raise UsageError(f"word leaves the quotient at generator {i}")
        if step.move is not weyl.Move.LONGER:
            raise UsageError(f"word is not reduced: generator {i} shortens {w}")
        w = step.result
    return w


def _write(message: str, stream: Optional[TextIO] = None) -> None:
    """Write message and newline to stdout (or stream) in one write, as every
    answer, verify report, help and usage error goes out: an unbuffered
    stream then has it all in the pipe before a reader such as `head -1` goes."""
    (stream or sys.stdout).write(message + "\n")


def _emit(fmt: str, data: Callable[[], object], text: Callable[[], str]) -> None:
    """Print the answer as JSON or as text, building only the one asked for."""
    if fmt == "json":
        import json
        return _write(json.dumps(data(), indent=2))
    _write(text())


def _word_json(w: weyl.PMSequence) -> dict:
    return {"w": str(w), "length": weyl.length(w), "word": list(weyl.reduced_word(w))}


def _check_n(size: int, low: int = 1, high: Optional[int] = None) -> None:
    if size < low:
        raise UsageError(f"n must be at least {low}")
    if high is not None and size > high:
        raise UsageError(
            f"n={size} is out of range here (limit {high}); larger sizes get slow without telling you anything new"
        )


def wp(size: int, fmt: str) -> None:
    """List the 2^(n-1) sign sequences, identity first."""
    _check_n(size, high=14 if fmt == "json" else 18)
    els = weyl.enumerate_wp(size)
    _emit(fmt, lambda: {"n": size, "elements": list(map(_word_json, els))}, lambda: "\n".join(map(str, els)))


def word(size: int, fmt: str, w_signs: Optional[str], word: Optional[str]) -> None:
    """Canonical reduced word of an element."""
    _check_n(size, high=1000)
    w = _element(size, w_signs, word)
    _emit(fmt, lambda: _word_json(w), lambda: ",".join(map(str, weyl.reduced_word(w))))


def klpoly(size: int, fmt: str, oracle: bool, v_signs: str, w_signs: str) -> None:
    """One Kazhdan-Lusztig polynomial, row -v and column -w, by orientation
    count (or the recursion with --oracle)."""
    _check_n(size, high=12 if oracle else None)
    v, w = _element(size, v_signs), _element(size, w_signs)
    p = hecke.kl_poly(v, w) if oracle else cups.kl_poly_diagrammatic(v, w)
    _emit(fmt, lambda: {"v": str(v), "w": str(w), "poly": p.to_json()}, lambda: str(p))


def klbasis(size: int, fmt: str, w_signs: Optional[str], word: Optional[str]) -> None:
    """Canonical basis element expanded over the standard basis, read
    from oriented cup diagrams like klpoly (--oracle there checks it)."""
    _check_n(size, high=16)
    w = _element(size, w_signs, word)
    terms = [(v, laurent.LaurentPoly.q_power(r // 2)) for v, r in cups.orientations_of(w)]
    _emit(
        fmt,
        lambda: {"w": str(w), "terms": [{"wprime": str(v), "poly": p.to_json()} for v, p in terms]},
        lambda: "\n".join(f"{v}: {p}" for v, p in terms),
    )


def cup(size: int, fmt: str, w_signs: Optional[str], word: Optional[str]) -> None:
    """Decorated cup diagram of an element."""
    _check_n(size, high=100_000)
    d = cups.decorated_cup(_element(size, w_signs, word))
    _emit(fmt, d.to_json, d.to_ascii)


def homdim(size: int, fmt: str, oracle: bool, w_signs: Optional[str], x_signs: Optional[str]) -> None:
    """Dimension of one hom space (-w and -x), or the full matrix."""
    if (w_signs is None) != (x_signs is None):
        raise UsageError("give both -w and -x, or neither")
    _check_n(size, high=10 if w_signs is None else 12 if oracle else None)
    if w_signs is not None:
        w, x = _element(size, w_signs), _element(size, x_signs)
        d = len(set(hecke.kl_basis(w).support()) & set(hecke.kl_basis(x).support())) if oracle else circles.hom_dim(w, x)
        _emit(fmt, lambda: {"w": str(w), "wprime": str(x), "dim": d}, lambda: str(d))
        return
    data = circles.hom_dims({w: el.support() for w, el in hecke.kl_table(size).rows}) if oracle else circles.hom_matrix(size)
    rows = zip(data["order"], data["dims"])
    _emit(fmt, lambda: data, lambda: "\n".join(f"{w}  " + " ".join(map(str, row)) for w, row in rows))


def poincare(size: int, fmt: str, oracle: bool) -> None:
    """Graded endomorphism-algebra dimensions, one polynomial per element."""
    _check_n(size, high=12)
    if oracle:
        rows = hecke.kl_table(size).rows
        table = circles.graded_dims({w: {v: p.min_exp() for v, p in el.coeffs} for w, el in rows})
    else:
        table = circles.poincare_table(size)
    total_dim = sum(p.eval_at_one() for p in table.values())
    _emit(
        fmt,
        lambda: {"n": size, "table": {str(w): p.to_json() for w, p in table.items()}, "total": total_dim},
        lambda: "\n".join([*(f"{w}: {p}" for w, p in table.items()), f"total: {total_dim}"]),
    )


def tl() -> None:
    """The decorated tangle algebra."""


def tl_basis(size: int, fmt: str) -> None:
    """List the algebra basis."""
    _check_n(size, low=3, high=8)
    basis = tangles.tlhat_basis(size)
    _emit(
        fmt,
        lambda: {"n": size, "count": len(basis), "basis": [t.to_json() for t in basis]},
        lambda: "\n".join(
            [str(len(basis)), *(" ".join(f"({a},{b})" + ("*" if d else "") for a, b, d in t.strands) for t in basis)]
        ),
    )


def tl_dim(size: int, fmt: str) -> None:
    """Dimension of the algebra."""
    _check_n(size, low=3, high=14)
    d = sum(len(ms) ** 2 for ms in tangles.cell_datum(size).values())
    _emit(fmt, lambda: {"n": size, "dim": d}, lambda: str(d))


def tl_act(size: int, fmt: str, gen: int, w_signs: Optional[str], word: Optional[str]) -> None:
    """Act by a generator on the cup diagram of an element."""
    _check_n(size, low=2, high=100_000)
    coeff, image = tangles.act(_usage(tangles.generator, size, gen), cups.decorated_cup(_element(size, w_signs, word)))
    _emit(
        fmt,
        lambda: {"coeff": coeff.to_json(), "diagram": None if image is None else image.to_json()},
        lambda: "0" if image is None else f"coeff: {coeff}\n{image.to_ascii()}",
    )


def tl_cell(size: int, fmt: str) -> None:
    """Cell structure: through-strand counts and cell sizes."""
    _check_n(size, low=3, high=14)
    cells = tangles.cell_datum(size)
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


def render() -> None:
    """ASCII or JSON pictures of diagrams."""


def render_tangle(size: int, fmt: str, gen: Optional[int]) -> None:
    """Picture of a tangle: a generator via -g, or JSON on stdin."""
    _check_n(size, low=2, high=100_000)
    if gen is not None:
        t = _usage(tangles.generator, size, gen)
    else:
        import json
        try:
            t = tangles.DecoratedTangle.from_json(json.load(sys.stdin))
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise UsageError(f"bad tangle JSON on stdin: {exc}")
        if t.n != size:
            raise UsageError(f"tangle on stdin has {t.n} top points, expected {size}")
    _emit(fmt, t.to_json, t.to_ascii)


def render_circle(size: int, fmt: str, w_signs: str, x_signs: str) -> None:
    """Colored circle report for a cup-side element -w and a cap-side one -x."""
    _check_n(size)
    w, x = _element(size, w_signs), _element(size, x_signs)
    diag = circles.circle_diagram(x, w)
    _emit(
        fmt,
        diag.to_json,
        lambda: "\n".join(
            f"circle {k}: {c.color} (upper={c.upper_outer}, lower={c.lower_outer}, linked={c.linked_pairs})"
            for k, c in enumerate(diag.circles, 1)
        ),
    )


def verify(size: int, suite: str) -> int:
    """Re-check the structural theorems at a given size.

    Exits 0 when every invariant holds, 1 otherwise."""
    suites = checks.SUITES if suite == "all" else {suite: checks.SUITES[suite]}
    for _, low, high in suites.values():
        _check_n(size, low=low, high=high)
    report, failed = [], 0
    for name, (fn, *_) in suites.items():
        try:
            report += [*(f"{name}: {line}" for line in fn(size)), f"{name}: pass"]
        except AssertionError as exc:
            report.append(f"{name}: FAIL ({exc})")
            failed = 1
    _write("\n".join(report))
    return failed


class _Options(dict):
    def __missing__(self, token: str) -> tuple:
        """SUITE, built from checks.SUITES on its first read: only verify loads checks."""
        if token != "SUITE":
            raise KeyError(token)
        return self.setdefault(token, ("suite", (*checks.SUITES, "all"), None, f"one of {', '.join(checks.SUITES)} or all"))


#: option or argument -> (keyword, type, default, help); a type is int, str, bool (a flag) or a tuple of choices
OPTIONS = _Options({
    "-n": ("size", int, None, "sequence length"),
    "--format": ("fmt", ("text", "json"), "text", "output format, text (the default) or json"),
    "--oracle": ("oracle", bool, False, "recompute through the Hecke recursion instead of diagrams"),
    "-w": ("w_signs", str, None, "element as a sign string"),
    "-r": ("word", str, None, "element as a comma separated reduced word"),
    "-v": ("v_signs", str, None, "row element as a sign string"),
    "-x": ("x_signs", str, None, "second element as a sign string"),
    "-i": ("gen", int, None, "generator index"),
    "-g": ("gen", int, None, "generator to render"),
})


def _help(path: tuple[str, ...]) -> str:
    """The help of a command path; its first line is the usage line."""
    fn, spec = COMMANDS[path]
    subs, names = [p[-1] for p in COMMANDS if p and p[:-1] == path], [t[:-1] for t in spec.split() if t[0] != "-"]
    rows = [(name, " ".join(COMMANDS[(*path, name)][0].__doc__.split("\n\n")[0].split())) for name in subs]
    rows += [(t.rstrip("!"), OPTIONS[t.rstrip("!")][3] + " (required)" * t.endswith("!")) for t in spec.split()]
    usage = " ".join(["Usage: cupkl", *path, *(["COMMAND [ARGS]..."] if subs else ["[OPTIONS]", *names])])
    doc = ["  " + line.strip() for line in fn.__doc__.splitlines()]
    listing = [f"  {name:10}{text}" for name, text in [*rows, ("--help", "show this message and exit")]]
    return "\n".join([usage, "", *doc, "", *listing])


def _parse(path: tuple[str, ...], args: list[str]) -> dict[str, object]:
    """A command's keyword arguments from its option spec and its command line."""
    spec = COMMANDS[path][1]
    tokens = [t.rstrip("!") for t in spec.split()]
    flags, names = [t for t in tokens if t[0] == "-"], [t for t in tokens if t[0] != "-"]
    short = "".join(f[1] + ":" * (OPTIONS[f][1] is not bool) for f in flags if f[1] != "-")
    try:
        opts, rest = gnu_getopt(args, short, [f[2:] + "=" * (OPTIONS[f][1] is not bool) for f in flags if f[1] == "-"])
    except GetoptError as exc:
        raise UsageError(exc.msg)
    if len(rest) > len(names):
        raise UsageError(f"Got unexpected extra argument ({' '.join(rest[len(names) :])})")
    kwargs = {OPTIONS[t][0]: OPTIONS[t][2] for t in tokens}
    for token, value in [*opts, *zip(names, rest)]:
        kw, typ, _, _ = OPTIONS[token]
        if typ is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"Invalid value for '{token}': '{value}' is not a valid integer.")
        elif isinstance(typ, tuple) and value not in typ:
            raise UsageError(f"Invalid value for '{token}': '{value}' is not one of {', '.join(map(repr, typ))}.")
        kwargs[kw] = True if typ is bool else value
    for t in spec.split():
        if t.endswith("!") and kwargs[OPTIONS[t[:-1]][0]] is None:
            raise UsageError(f"Missing {'option' if t[0] == '-' else 'argument'} '{t[:-1]}'.")
    return kwargs


def main(args: Optional[list[str]] = None, standalone_mode: bool = True) -> None:
    """Diagram calculus for a parabolic Hecke module: sign sequences, cup
    diagrams, circle diagrams, and the decorated tangle algebra."""
    args = sys.argv[1:] if args is None else list(args)
    path: tuple[str, ...] = ()
    while args and (*path, args[0]) in COMMANDS:
        path += (args.pop(0),)
    group, code = any(p[:-1] == path for p in COMMANDS if p), 0
    try:
        try:
            if "--help" in (args[:1] if group else args):
                _write(_help(path))
            elif group:
                what = "option" if args and args[0].startswith("-") else "command"
                raise UsageError(f"No such {what} '{args[0]}'." if args else "Missing command.")
            else:
                code = COMMANDS[path][0](**_parse(path, args)) or 0
            sys.stdout.flush()
        except UsageError as exc:
            hint = f"Try '{' '.join(['cupkl', *path, '--help'])}' for help."
            usage = _help(path) if group else f"{_help(path).splitlines()[0]}\n{hint}"
            code = 2
            _write(f"{usage}\n\nError: {exc}", sys.stderr)
    except BrokenPipeError:  # stdout's reader, or stderr's at code 2, went away; devnull lets the exit flush pass
        os.dup2(os.open(os.devnull, os.O_WRONLY), (sys.stderr if code == 2 else sys.stdout).fileno())
        code = code or 1
    if code or standalone_mode:  # called in-process with standalone_mode=False, success returns
        sys.exit(code)


#: command path -> (function, its options and arguments, "!" after a required one); a path with subcommands is a group
COMMANDS: dict[tuple[str, ...], tuple[Callable[..., Optional[int]], str]] = {
    (): (main, ""),
    ("wp",): (wp, "-n! --format"),
    ("word",): (word, "-n! --format -w -r"),
    ("klpoly",): (klpoly, "-n! --format --oracle -v! -w!"),
    ("klbasis",): (klbasis, "-n! --format -w -r"),
    ("cup",): (cup, "-n! --format -w -r"),
    ("homdim",): (homdim, "-n! --format --oracle -w -x"),
    ("poincare",): (poincare, "-n! --format --oracle"),
    ("tl",): (tl, ""),
    ("tl", "basis"): (tl_basis, "-n! --format"),
    ("tl", "dim"): (tl_dim, "-n! --format"),
    ("tl", "act"): (tl_act, "-n! --format -i! -w -r"),
    ("tl", "cell"): (tl_cell, "-n! --format"),
    ("render",): (render, ""),
    ("render", "cup"): (cup, "-n! --format -w -r"),
    ("render", "tangle"): (render_tangle, "-n! --format -g"),
    ("render", "circle"): (render_circle, "-n! --format -w! -x!"),
    ("verify",): (verify, "-n! SUITE!"),
}


if __name__ == "__main__":
    main()
