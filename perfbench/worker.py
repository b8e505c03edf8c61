"""Fresh-process job runner owned by the benchmark.

    python perfbench/worker.py lib NAME ARGS...
    python perfbench/worker.py trace DUMP cli ARGS...
    python perfbench/worker.py trace DUMP lib NAME ARGS...

Run from the root of a checkout with ``PYTHONPATH=src``.  ``lib`` runs a
library job and prints its answer.  ``trace`` runs a CLI job (through
``cupkl.cli.main(args, standalone_mode=False)``) or a library job with
every layer function wrapped, prints the job's stdout, exits with the
job's exit code, and writes the spans it recorded to DUMP.

Tracing is outside-in: before the job runs, every callable in each
layer's ``__all__`` and the class methods in ``METHODS`` are replaced by
a wrapper that records a span.  A function is rebound in every cupkl
module that imported it, since modules call each other through their own
bindings (``circles`` calls ``cup_diagram`` that way).
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import io
import json
import sys
import time
from array import array
from fractions import Fraction
from typing import Callable

LAYERS = ("weyl", "laurent", "hecke", "cups", "circles", "tangles")

#: Class methods traced besides the layer functions, by (layer, class).
METHODS = {
    ("laurent", "LaurentPoly"): ("__add__", "__neg__", "__sub__", "__mul__", "__rmul__", "from_dict", "const", "q_power", "q"),
    ("hecke", "KLTable"): ("element", "poly"),
    ("hecke", "ModuleElement"): ("coeff",),
    ("tangles", "DecoratedTangle"): ("__post_init__",),
}

#: Private functions traced by name: the tangle algebra's exact elimination.
PRIVATE = {"tangles": ("_rational_rank",)}

#: lru_cache'd layer functions whose cache_info() goes into the dump.
CACHES = ("hecke.kl_table",)

#: Functions whose result length is recorded on their span.
SIZED = ("tangles.tlhat_basis",)

#: Span fields as they are laid out in a dump, with their array typecodes.
FIELDS = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"))


def lib_job(name: str, args: list[str]) -> list[str]:
    tangles = importlib.import_module("cupkl.tangles")
    if name == "tlhat_basis":
        return [str(len(tangles.tlhat_basis(int(args[0]))))]
    if name == "faithfulness_rank":
        rank, size = tangles.faithfulness_rank(int(args[0]), Fraction(args[1]))
        return [f"{rank} {size}"]
    raise SystemExit(f"unknown library job {name!r}")


class Tracer:
    """Spans kept in memory, one array per field, in order of entry, so
    a parent always precedes its children."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = {field: array(code) for field, code in FIELDS}
        self.raised: collections.Counter[str] = collections.Counter()
        self.sizes: dict[int, int] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn: Callable) -> Callable:
        idx = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = (self.spans[f] for f, _ in FIELDS)
        stack, raised, sizes, clock = self._stack, self.raised, self.sizes, time.perf_counter
        sized = name in SIZED

        def traced(*args, **kwargs):
            i = len(names)
            names.append(idx)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                raised[name] += 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if sized:
                sizes[i] = len(result)
            return result

        return traced

    def install(self) -> dict[str, Callable]:
        """Wrap every layer function and traced method; return the
        original functions by span name."""
        modules = [m for name, m in sys.modules.items() if name == "cupkl" or name.startswith("cupkl.")]
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"cupkl.{layer}")
            attrs = [a for a in mod.__all__ if callable(getattr(mod, a)) and not isinstance(getattr(mod, a), type)]
            for attr in [*attrs, *PRIVATE.get(layer, ())]:
                fn = getattr(mod, attr)
                originals[f"{layer}.{attr}"] = fn
                traced = self.wrap(f"{layer}.{attr}", fn)
                for m in modules:
                    for binding in [k for k, v in vars(m).items() if v is fn]:
                        setattr(m, binding, traced)
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(importlib.import_module(f"cupkl.{layer}"), cls_name)
            for meth in methods:
                raw = vars(cls)[meth]
                name = f"{layer}.{cls_name}.{meth}"
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, self.wrap(name, raw))
        return originals

    def dump(self, path: str, caches: dict[str, list[int]]) -> None:
        header = {
            "names": self.names,
            "count": len(self.spans["name"]),
            "fields": [f for f, _ in FIELDS],
            "raised": dict(self.raised),
            "sizes": self.sizes,
            "caches": caches,
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for field, _ in FIELDS:
                self.spans[field].tofile(f)


def read_dump(path: str) -> tuple[dict, dict[str, array]]:
    """Header and span arrays of a dump written by Tracer.dump."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        spans = {}
        for field, code in FIELDS:
            spans[field] = array(code)
            spans[field].fromfile(f, header["count"])
    header["sizes"] = {int(k): v for k, v in header["sizes"].items()}
    return header, spans


def run_traced(dump_path: str, kind: str, args: list[str]) -> int:
    import click

    cli = importlib.import_module("cupkl.cli")
    tracer = Tracer()
    originals = tracer.install()
    if kind == "cli":
        root = tracer.wrap("cli.main", cli.main)
        call = lambda: root(args, standalone_mode=False)
    else:
        root = tracer.wrap(f"lib.{args[0]}", lib_job)
        call = lambda: print("\n".join(root(args[0], args[1:])))
    out = io.StringIO()
    code = 0
    try:
        with contextlib.redirect_stdout(out):
            call()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except click.ClickException as exc:
        exc.show()
        code = exc.exit_code
    sys.stdout.write(out.getvalue())
    caches = {name: list(originals[name].cache_info()[:2]) for name in CACHES}
    tracer.dump(dump_path, caches)
    return code


def main(argv: list[str]) -> int:
    if argv[:1] == ["lib"] and len(argv) >= 2:
        print("\n".join(lib_job(argv[1], argv[2:])))
        return 0
    if argv[:1] == ["trace"] and len(argv) >= 4 and argv[2] in ("cli", "lib"):
        return run_traced(argv[1], argv[2], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
