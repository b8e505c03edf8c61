import ast
import collections
import importlib
import importlib.util
import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

from cupkl._frozen import Frozen
from cupkl.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
# every module of the package, read from its files, so a new one is covered
MODULES = {"cupkl" if f.stem == "__init__" else f"cupkl.{f.stem}": f for f in sorted((ROOT / "src" / "cupkl").glob("*.py"))}


def _declared_all(path: pathlib.Path):
    """The literal ``__all__`` a module assigns at top level, or None."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


@pytest.mark.parametrize("module", [m for m, f in MODULES.items() if _declared_all(f) is not None])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_every_exported_name_is_read_in_the_package():
    # a name only the tests call is a test oracle, and lives in tests/oracles.py;
    # perfbench/workloads.py imports cut and phi until the benchmark changes (ROADMAP item 3)
    exempt = {"cupkl.__version__", "cupkl.cups.cut", "cupkl.tangles.phi"}
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for f in MODULES.values()
        for node in ast.walk(ast.parse(f.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{module}.{name}"
        for module, f in MODULES.items()
        for name in _declared_all(f) or ()
        if name not in read and f"{module}.{name}" not in exempt
    ]
    assert unread == []


def run_fresh(code: str, *args: str) -> str:
    """The last line code prints in a fresh interpreter, run with args."""
    res = subprocess.run([sys.executable, "-c", code, *args], env=SRC_ENV, capture_output=True, text=True, timeout=60)
    assert (res.returncode, res.stderr) == (0, ""), (code, args)
    return res.stdout.splitlines()[-1]


# the package's modules in sys.modules, and those of them that have run: the
# command line registers its layers lazily, and a layer's type changes when it runs
HELD = "sorted(m for m in sys.modules if m.split('.')[0] == 'cupkl')"
RAN = "sorted(m for m in sys.modules if m.split('.')[0] == 'cupkl' and type(sys.modules[m]) is types.ModuleType)"


def loaded_by(module: str) -> list[str]:
    """The package's modules a fresh interpreter holds after importing module."""
    return run_fresh(f"import sys, {module}; print(' '.join({HELD}))").split()


@pytest.mark.parametrize("module", MODULES)
def test_every_module_imports_alone(module):
    # a circular import between layers fails here whatever the import order
    assert module in loaded_by(module)


def test_a_layer_loads_only_its_dependencies():
    assert loaded_by("cupkl.weyl") == ["cupkl", "cupkl._frozen", "cupkl.weyl"]
    assert {"cupkl.circles", "cupkl.hecke", "cupkl.checks", "cupkl.cli"}.isdisjoint(loaded_by("cupkl.tangles"))


def test_the_command_line_registers_every_layer_and_runs_none():
    code = f"import sys, types, cupkl.cli; print({HELD}, {RAN})"
    held_layers = sorted(m for m in MODULES if m != "cupkl._frozen")
    assert run_fresh(code) == f"{held_layers} {['cupkl', 'cupkl.cli']}"


#: command line -> the layers it runs besides cupkl and cupkl.cli (_frozen comes with weyl)
COMMAND_LAYERS = {
    "wp -n 0": "",
    "wp -n 3": "weyl",
    "word -n 5 -r 0,2": "weyl",
    "cup -n 4 -w +-+-": "weyl cups",
    "klpoly -n 4 -v --++ -w -+-+": "weyl laurent cups",
    "klbasis -n 4 -w -+-+": "weyl laurent cups",
    "homdim -n 4 -w +-+- -x ++--": "weyl cups circles",
    "homdim -n 3": "weyl cups circles",
    "render circle -n 4 -w +-+- -x ++--": "weyl cups circles",
    "poincare -n 3": "weyl laurent cups circles",
    "tl act -n 5 -i 1 -w +-+-+": "weyl laurent cups tangles",
    "tl dim -n 4": "weyl laurent cups tangles",
    "render tangle -n 3 -g 1": "weyl laurent cups tangles",
    "klpoly -n 4 --oracle -v --++ -w -+-+": "weyl laurent hecke",
    # a suite runs only the layers it reads; the help lists the suites and runs none
    "verify -n 3 kl": "weyl laurent hecke cups checks",
    "verify -n 3 homdim": "weyl cups circles checks",
    "verify -n 3 commute": "weyl laurent hecke cups tangles checks",
    "verify -n 3 cellular": "weyl laurent cups tangles checks",
    "verify -n 3 faithful": "weyl laurent cups tangles checks",
    "verify -n 3 all": "weyl laurent hecke cups circles tangles checks",
    "verify --help": "checks",
}


RUN_COMMAND = f"""
import sys, types, cupkl.cli
sys.stderr = sys.stdout  # a usage error's text goes to stdout, so stderr stays empty
try:
    cupkl.cli.main(sys.argv[1:])
except SystemExit:
    print({RAN})
"""


@pytest.mark.parametrize("command", COMMAND_LAYERS)
def test_a_command_runs_only_the_layers_it_uses(command):
    layers = COMMAND_LAYERS[command].split()
    expected = sorted(["cupkl", "cupkl.cli", *(f"cupkl.{m}" for m in layers), *(["cupkl._frozen"] if "weyl" in layers else [])])
    assert run_fresh(RUN_COMMAND, *command.split()) == str(expected)


def test_a_lazy_layer_imports_as_usual():
    # the package holds each layer, so attribute access after a plain import works
    assert run_fresh("import cupkl.cli; import cupkl.checks; print('kl' in cupkl.checks.SUITES)") == "True"
    # a layer that ran before the command line is the one the command line uses
    code = "import sys, cupkl, cupkl.weyl as w; import cupkl.cli as c; print(c.weyl is w is cupkl.weyl is sys.modules['cupkl.weyl'])"
    assert run_fresh(code) == "True"


def test_version_matches_pyproject():
    version = re.search(r'^version = "([^"]+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert importlib.import_module("cupkl").__version__ == version.group(1)


def record_classes(cls=Frozen):
    for sub in cls.__subclasses__():
        yield sub
        yield from record_classes(sub)


def test_every_record_constructor_takes_exactly_its_fields():
    # _fields is a record's one field list: constructor, equality, hash, repr and pickling
    for module in MODULES:
        importlib.import_module(module)
    records = list(record_classes())
    assert records
    for cls in records:
        assert tuple(inspect.signature(cls.__init__).parameters) == ("self", *cls._fields), cls


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


def traced_calls(tmp_path, command: str) -> tuple[str, collections.Counter]:
    """stdout of a command run under the benchmark's tracer, and its span count by name."""
    dump = tmp_path / "spans.bin"
    argv = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "trace", str(dump), "cli", *command.split()]
    res = subprocess.run(argv, cwd=ROOT, env=SRC_ENV, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    header, spans = load_worker().read_dump(str(dump))
    return res.stdout, collections.Counter(header["names"][k] for k in spans["name"])


def test_tracer_counts_the_traced_methods(tmp_path):
    # the benchmark's per-layer counts read these spans; a method the tracer
    # no longer reaches would read 0 without failing
    out, calls = traced_calls(tmp_path, "verify -n 4 all")
    assert out.count(": pass\n") == 5
    traced = (
        "tangles.DecoratedTangle.__post_init__",
        "laurent.LaurentPoly.from_dict",
        "hecke.KLTable.element",
        "hecke.ModuleElement.coeff",
    )
    assert {name: calls[name] > 0 for name in traced} == dict.fromkeys(traced, True)


@pytest.mark.parametrize(
    "command, traced",
    [
        ("tl act -n 5 -i 1 -w +-+-+", ("tangles.act", "cups.decorated_cup")),
        ("word -n 5 -r 0,2", ("weyl.apply_generator",)),
        ("verify -n 4 commute", ("tangles.act", "hecke.cs_action")),
    ],
)
def test_tracer_sees_the_layers_the_command_line_runs_late(tmp_path, command, traced):
    # the command line registers its layers unrun and calls them through the
    # module; the tracer must still rebind them, or these counts read 0
    _, calls = traced_calls(tmp_path, command)
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
    return sorted(imported - used - set(_declared_all(path) or ()))


def test_every_import_is_used():
    files = [*MODULES.values(), *sorted((ROOT / "tests").glob("*.py"))]
    unused = {str(f.relative_to(ROOT)): names for f in files if (names := _unused_imports(f))}
    assert unused == {}


def test_no_assert_statements_in_src():
    # result guards raise explicitly, so python -O keeps them
    asserts = [
        f"{f.name}:{node.lineno}"
        for f in MODULES.values()
        for node in ast.walk(ast.parse(f.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
