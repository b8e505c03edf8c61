import ast
import collections
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

from cupkl.cli import main

# the layer modules; tracing tools wrap every callable in their __all__
LAYERS = ("weyl", "laurent", "hecke", "cups", "circles", "tangles")
ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("module", ["cupkl", *(f"cupkl.{layer}" for layer in LAYERS), "cupkl.checks"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def load_worker():
    path = ROOT / "perfbench" / "worker.py"
    spec = importlib.util.spec_from_file_location("perfbench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def test_traced_names_resolve():
    # the benchmark's tracer wraps these by name and fails on a missing one
    worker = load_worker()
    for (layer, cls_name), methods in worker.METHODS.items():
        cls = getattr(importlib.import_module(f"cupkl.{layer}"), cls_name)
        assert [m for m in methods if m not in vars(cls)] == [], (layer, cls_name)
    for layer, names in worker.PRIVATE.items():
        mod = importlib.import_module(f"cupkl.{layer}")
        assert [name for name in names if not callable(getattr(mod, name, None))] == [], layer


def test_benchmark_faithful_job():
    # the benchmark checks this job's output exactly; a rank change fails here first
    assert load_worker().lib_job("faithfulness_rank", ["6", "97/89"]) == ["362 362"]


@pytest.mark.parametrize("module", ["cupkl", "cupkl.cli"])
def test_import_loads_no_unneeded_stdlib(module):
    # every command pays its import; these modules serve only some commands,
    # and the command line is parsed with getopt
    unneeded = {"dataclasses", "fractions", "decimal", "json", "click", "argparse"}
    code = f"import sys, {module}; print(sorted({unneeded!r} & sys.modules.keys()))"
    res = subprocess.run([sys.executable, "-c", code], env=SRC_ENV, capture_output=True, text=True, timeout=60)
    assert (res.returncode, res.stdout, res.stderr) == (0, "[]\n", "")


def test_tracer_counts_the_traced_methods(tmp_path):
    # the benchmark's per-layer counts read these spans; a method the tracer
    # no longer reaches would read 0 without failing
    dump = tmp_path / "spans.bin"
    argv = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "trace", str(dump), "cli", "verify", "-n", "4", "all"]
    res = subprocess.run(argv, cwd=ROOT, env=SRC_ENV, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.count(": pass\n") == 5
    header, spans = load_worker().read_dump(str(dump))
    calls = collections.Counter(header["names"][k] for k in spans["name"])
    traced = (
        "tangles.DecoratedTangle.__post_init__",
        "laurent.LaurentPoly.from_dict",
        "hecke.KLTable.element",
        "hecke.ModuleElement.coeff",
    )
    assert {name: calls[name] > 0 for name in traced} == dict.fromkeys(traced, True)


def load_workloads(monkeypatch):
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are built
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_imports_resolve(monkeypatch):
    # the benchmark's job checks import these by name and fail every run on a missing one
    load_workloads(monkeypatch)


def test_benchmark_accepts_the_basis_listing(monkeypatch, runner):
    # the benchmark's check rebuilds every listed tangle with the constructor,
    # so a constructor change that breaks the listing fails here first
    check = load_workloads(monkeypatch).tl_basis_listing(6)
    res = runner.invoke(main, ["tl", "basis", "-n", "6"])
    assert res.exit_code == 0, res.output
    assert check(res.output) is None


def _unused_imports(path: pathlib.Path) -> list[str]:
    """Names bound by a module-level import and never read; names in
    ``__all__`` count as read."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_every_import_is_used():
    root = pathlib.Path(__file__).resolve().parents[1]
    files = sorted([*(root / "src" / "cupkl").glob("*.py"), *(root / "tests").glob("*.py")])
    unused = {str(f.relative_to(root)): names for f in files if (names := _unused_imports(f))}
    assert unused == {}


def test_no_assert_statements_in_src():
    # result guards raise explicitly, so python -O keeps them
    root = pathlib.Path(__file__).resolve().parents[1] / "src" / "cupkl"
    asserts = [
        f"{f.name}:{node.lineno}"
        for f in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(f.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
