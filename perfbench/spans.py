"""Self-time reduction of span dumps into the per-layer metrics.

A span's self time is its duration minus the time its child spans cover.
A layer's self time is the sum over the spans named after it: the
``cli.main`` root of a CLI job is the ``cli`` layer (parsing and printing
outside any layer call), ``cups.cut_degree`` is ``cups``, and
``laurent.LaurentPoly.__add__`` is ``laurent``.
"""

from __future__ import annotations

import collections

from worker import LAYERS, read_dump

POST_INIT = "tangles.DecoratedTangle.__post_init__"
BASIS = "tangles.tlhat_basis"

#: Per-layer metrics in report order, with units.
PER_LAYER = {
    "python.startup_ms": "ms",
    "cli.import_ms": "ms",
    "cli.self_s": "s",
    "weyl.self_s": "s",
    "weyl.enumerate_wp.calls": "count",
    "cups.self_s": "s",
    "cups.cup_diagram.calls": "count",
    "cups.matching.calls": "count",
    "cups.orient.calls": "count",
    "cups.cut_degree.calls": "count",
    "cups.decorated_cup.calls": "count",
    "circles.self_s": "s",
    "circles.circle_diagram.calls": "count",
    "circles.oriented_basis.calls": "count",
    "laurent.self_s": "s",
    "laurent.ops": "count",
    "hecke.self_s": "s",
    "hecke.kl_table_s": "s",
    "hecke.lookups": "count",
    "hecke.kl_table.hits": "count",
    "hecke.kl_table.misses": "count",
    "tangles.self_s": "s",
    "tangles.tlhat_basis_s": "s",
    "tangles.construct.attempts": "count",
    "tangles.construct.rejected": "count",
    "tangles.basis_yield": "ratio",
    "tangles.act.calls": "count",
    "tangles.mul.calls": "count",
    "tangles.rank_s": "s",
    "trace.overhead": "ratio",
}


class Totals:
    """Sums over the spans of every dump read into it."""

    def __init__(self) -> None:
        self.calls: collections.Counter[str] = collections.Counter()
        self.self_s: collections.Counter[str] = collections.Counter()
        self.inclusive_s: collections.Counter[str] = collections.Counter()
        self.raised: collections.Counter[str] = collections.Counter()
        self.cache: collections.Counter[str] = collections.Counter()
        self.basis_built = 0
        self.basis_candidates = 0

    def add(self, path: str) -> None:
        header, spans = read_dump(path)
        names = header["names"]
        name, parent = spans["name"], spans["parent"]
        duration = [e - s for s, e in zip(spans["start"], spans["end"])]
        covered = [0.0] * len(name)
        for i, p in enumerate(parent):
            if p >= 0:
                covered[p] += duration[i]
        basis = names.index(BASIS) if BASIS in names else -2
        post_init = names.index(POST_INIT) if POST_INIT in names else -2
        # nearest enclosing tlhat_basis span; parents precede children
        in_basis = [-1] * len(name)
        building = set()
        for i, k in enumerate(name):
            p = parent[i]
            key = names[k]
            self.calls[key] += 1
            self.self_s[key] += duration[i] - covered[i]
            self.inclusive_s[key] += duration[i]
            in_basis[i] = i if k == basis else (in_basis[p] if p >= 0 else -1)
            if k == post_init and in_basis[i] >= 0:
                self.basis_candidates += 1
                building.add(in_basis[i])
        self.basis_built += sum(header["sizes"].get(i, 0) for i in building)
        self.raised.update(header["raised"])
        for cache, (hits, misses) in header["caches"].items():
            self.cache[f"{cache}.hits"] += hits
            self.cache[f"{cache}.misses"] += misses

    def layer_self_s(self, layer: str) -> float:
        return sum(t for key, t in self.self_s.items() if key.split(".", 1)[0] == layer)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric the spans give (not the startup split
        or the overhead, which run.py measures)."""
        calls = self.calls
        out: dict[str, float] = {f"{layer}.self_s": self.layer_self_s(layer) for layer in ("cli", *LAYERS)}
        for key in (
            "weyl.enumerate_wp",
            "cups.cup_diagram",
            "cups.matching",
            "cups.orient",
            "cups.cut_degree",
            "cups.decorated_cup",
            "circles.circle_diagram",
            "circles.oriented_basis",
            "tangles.act",
            "tangles.mul",
        ):
            out[f"{key}.calls"] = calls[key]
        out["laurent.ops"] = sum(c for key, c in calls.items() if key.startswith("laurent.LaurentPoly."))
        out["hecke.kl_table_s"] = self.inclusive_s["hecke.kl_table"]
        out["hecke.lookups"] = calls["hecke.KLTable.poly"] + calls["hecke.KLTable.element"] + calls["hecke.ModuleElement.coeff"]
        out["hecke.kl_table.hits"] = self.cache["hecke.kl_table.hits"]
        out["hecke.kl_table.misses"] = self.cache["hecke.kl_table.misses"]
        out["tangles.tlhat_basis_s"] = self.inclusive_s[BASIS]
        out["tangles.construct.attempts"] = calls[POST_INIT]
        out["tangles.construct.rejected"] = self.raised[POST_INIT]
        out["tangles.basis_yield"] = self.basis_built / self.basis_candidates if self.basis_candidates else 0.0
        out["tangles.rank_s"] = self.self_s["tangles._rational_rank"]
        return out
