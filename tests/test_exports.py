"""The package's export lists name only things that exist, no helper is
defined twice or left unread, numpy stays behind module boundaries, and a
CLI run loads only the layers its subcommand uses."""

import ast
import collections
import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import primediff

MODULES = ["primediff"] + [
    f"primediff.{info.name}" for info in pkgutil.iter_modules(primediff.__path__)
]

# the package's exports; a change to this list is a change to the public API
EXPORTS = """
    ArithTables Budget CertificationError DensityIncrement DensitySet
    DirichletCharacter DomainError EnergyStats EnergyTable
    ExceptionalDatum ForbiddenSet IncrementOutcome
    IterationConfig LargeDOrSmallAlpha MangoldtWeight Prediction
    PreconditionError Progression ResourceError SearchResult SmallAlpha SmallN
    SpectrumReport StructureFound TorusPoint Trace TraceStep
    averaging_projection build_tables certify characters_mod
    energy_table euler_phi extract_progression find_forbidden_pair
    greedy_avoiding is_avoiding is_prime
    iterate_once lambda_hat_rational major_prediction major_sup_ratio
    max_avoiding_exact psi psi_chi ramanujan rescale run
    spectrum_report tau tau_closed_form trace_to_jsonl transform_at
    verify_inversion vinogradov_bound
""".split()

# the layers that only some subcommands run
LAZY_LAYERS = {
    "primediff.driver", "primediff.energy", "primediff.increment", "primediff.mangoldt",
    "primediff.spectral",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_package_exports_are_pinned():
    assert sorted(primediff.__all__) == sorted(EXPORTS)


def test_exports_are_their_home_objects():
    """Each exported name is the object its home module defines, and dir()
    lists it."""
    assert set(primediff.__all__) <= set(dir(primediff))
    for name in primediff.__all__:
        value = getattr(primediff, name)
        home = importlib.import_module(value.__module__)
        assert getattr(home, name) is value, name


def test_a_bare_import_serves_each_layer(monkeypatch):
    """After a bare `import primediff`, a layer's name is that layer's
    module and an unknown name raises AttributeError: in a fresh
    interpreter, and here with the attribute a submodule import binds on
    the package taken off again."""
    child = (
        "import sys, primediff\n"
        "assert primediff.driver is sys.modules['primediff.driver']\n"
        "try:\n"
        "    primediff.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    src = str(pathlib.Path(primediff.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "module 'primediff' has no attribute 'no_such_name'\n"
    importlib.import_module("primediff.driver")
    monkeypatch.delattr(primediff, "driver")
    assert primediff.driver is sys.modules["primediff.driver"]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        primediff.no_such_name


def test_no_top_level_name_is_defined_twice():
    """Each top-level function or class has one home module: a second
    definition of the same name is a copy to fold into the first.  PEP 562
    module hooks (__getattr__, __dir__) are one per module by design."""
    homes = collections.defaultdict(list)
    for path in sorted(pathlib.Path(primediff.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                homes[node.name].append(path.name)
    hooks = ("__getattr__", "__dir__")
    assert {name: mods for name, mods in homes.items() if len(mods) > 1 and name not in hooks} == {}


def _unread(kept) -> list[str]:
    """The top-level functions and classes whose name passes `kept` and
    that the package names nowhere outside their own definition."""
    defined, named = set(), collections.Counter()
    for path in sorted(pathlib.Path(primediff.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if kept(top.name):
                    own = top.name
                    defined.add(own)
            for node in ast.walk(top):
                # a Name's id, an Attribute's attr, an import alias's name
                for key in ("id", "attr", "name"):
                    name = getattr(node, key, None)
                    if isinstance(name, str) and name != own:
                        named[name] += 1
    return sorted(name for name in defined if not named[name])


def test_no_private_helper_is_dead():
    """Each private top-level function or class is named somewhere in the
    package outside its own definition: a helper nothing reads is deleted,
    not kept for its tests."""
    assert _unread(lambda name: name.startswith("_") and not name.endswith("__")) == []


def test_no_public_helper_is_dead():
    """Each public top-level function or class is a package export or is
    named somewhere else in the package: a public helper that only tests
    call is deleted too."""
    unread = _unread(lambda name: not name.startswith("_"))
    assert [name for name in unread if name not in primediff.__all__] == []


def _run_at_import(body):
    """The nodes of a module body that run when it is imported: each
    statement, but of a function only its decorators and defaults, and of a
    class its decorators, bases and the same of its own body."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from stmt.decorator_list
            yield from stmt.args.defaults
            yield from filter(None, stmt.args.kw_defaults)
        elif isinstance(stmt, ast.ClassDef):
            yield from stmt.decorator_list + stmt.bases + stmt.keywords
            yield from _run_at_import(stmt.body)
        else:
            yield stmt


def test_no_size_cap_is_bound_at_import():
    """Only arith reads TABLE_CAP at import: elsewhere a cap derived from it
    at module level would miss a change to arith.TABLE_CAP, so every size
    refusal reads it at call time."""
    reads = []
    for path in sorted(pathlib.Path(primediff.__file__).parent.glob("*.py")):
        if path.name == "arith.py":
            continue
        for top in _run_at_import(ast.parse(path.read_text()).body):
            for node in ast.walk(top):
                # a Name's id, an Attribute's attr, an import alias's name
                if "TABLE_CAP" in {getattr(node, key, None) for key in ("id", "attr", "name")}:
                    reads.append(f"{path.name}:{node.lineno}")
    assert reads == []


def test_only_arith_and_avoider_name_the_table_cap():
    """TABLE_CAP is named by arith, whose check_budget every size refusal
    goes through, and by avoider, which picks the sieve or the
    Miller-Rabin route by it.  Any other module would hold a second copy
    of the table-size policy."""
    naming = set()
    for path in sorted(pathlib.Path(primediff.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            # a Name's id, an Attribute's attr, an import alias's name
            if "TABLE_CAP" in {getattr(node, key, None) for key in ("id", "attr", "name")}:
                naming.add(path.name)
    assert naming <= {"arith.py", "avoider.py"}


def test_no_module_imports_dataclasses_or_typing():
    """Records are collections.namedtuple subclasses: importing dataclasses
    loads inspect, which cost a driver process more time than its run."""
    imports = []
    for path in sorted(pathlib.Path(primediff.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if {name.split(".")[0] for name in names} & {"dataclasses", "typing"}:
                imports.append(f"{path.name}:{node.lineno}")
    assert imports == []


# the modules that import no numpy, and those that import it at their top
NUMPY_FREE = {"__init__", "arith", "avoider", "cli", "driver", "errors", "increment"}
NUMPY_LAYERS = {"csvtext", "energy", "mangoldt", "spectral", "tables"}

# each import of a numpy layer from a numpy-free module: (module, the
# function it sits in, the layer).  Everything else a numpy-free module
# imports is numpy-free, so a process that takes none of these routes
# loads no numpy code.
HOPS = {
    ("arith", "__getattr__", "tables"),  # arith.build_tables and the other moved names
    ("avoider", "ForbiddenSet.build", "tables"),  # _shifted_primes, past the bitmap
    ("increment", "DensitySet.array", "energy"),
    ("increment", "DensitySet.balanced", "energy"),
    ("increment", "__getattr__", "energy"),  # increment.energy_table and the rest
    ("driver", "IterationConfig.grid_size", "spectral"),
    ("driver", "iterate_once", "energy"),  # the energy step, past the d ceiling
    ("driver", "certify", "energy"),  # an increment's recount
    ("cli", "_parse_at", "spectral"),
    ("cli", "_cmd_sieve", "csvtext"),
    ("cli", "_cmd_sieve", "tables"),
    ("cli", "_cmd_lambda", "mangoldt"),
    ("cli", "_cmd_spectrum", "csvtext"),
    ("cli", "_cmd_spectrum", "mangoldt"),
    ("cli", "_cmd_spectrum", "tables"),
}


def _imports(node, scope=None):
    """(qualified name of the enclosing function or class, or None at the
    top, imported module name) for each import under node; `from . import
    x` imports x."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _imports(child, f"{scope}.{child.name}" if scope else child.name)
        elif isinstance(child, ast.Import):
            yield from ((scope, alias.name) for alias in child.names)
        elif isinstance(child, ast.ImportFrom):
            names = [alias.name for alias in child.names] if child.module is None else [child.module]
            yield from ((scope, name) for name in names)
        else:
            yield from _imports(child, scope)


def test_numpy_stays_behind_module_boundaries():
    """The import graph, read from the source: numpy is imported at the top
    of each numpy layer and nowhere else, and a numpy-free module imports a
    numpy layer only inside a function, at one of the hops HOPS names."""
    paths = sorted(pathlib.Path(primediff.__file__).parent.glob("*.py"))
    assert {path.stem for path in paths} == NUMPY_FREE | NUMPY_LAYERS
    numpy_imports, hops = set(), set()
    for path in paths:
        for scope, target in _imports(ast.parse(path.read_text())):
            root = target.split(".")[0]
            if root == "numpy":
                numpy_imports.add((path.stem, scope))
            elif path.stem in NUMPY_FREE and root in NUMPY_LAYERS:
                hops.add((path.stem, scope, root))
    assert numpy_imports == {(layer, None) for layer in NUMPY_LAYERS}
    assert hops == HOPS


def loaded_after(code):
    """Sorted primediff.* modules in a fresh interpreter after it runs
    `code`."""
    child = (
        "import contextlib, io, json, sys\n"
        f"{code}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'primediff')))\n"
    )
    src = str(pathlib.Path(primediff.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_loads_no_subcommand_layer():
    """Nor numpy: each subcommand imports it and its layers itself."""
    loaded = loaded_after("import primediff.cli\nassert 'numpy' not in sys.modules")
    expected = ["primediff", "primediff.cli", "primediff.errors"]
    assert loaded == expected, f"import primediff.cli loaded {loaded}"


def test_layers_resolve_as_package_attributes():
    loaded = loaded_after("import primediff\nassert primediff.increment.rescale is primediff.rescale")
    assert "primediff.increment" in loaded and "primediff.driver" not in loaded, loaded


def test_search_and_table_commands_skip_analytic_layers():
    runs = [
        ["extremal", "--n", "30", "--d", "1", "--mode", "exact"],
        ["extremal", "--n", "30", "--d", "1", "--mode", "random-local"],
        ["psi", "--x", "100", "--q", "4", "--a", "1"],
        ["sieve", "--n-max", "100"],
    ]
    code = (
        "from primediff import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {runs!r}]\n"
        "assert codes == [0] * len(codes), codes\n"
    )
    loaded = loaded_after(code)
    assert not LAZY_LAYERS & set(loaded), f"extremal, psi and sieve loaded {loaded}"


def test_psi_runs_import_no_numpy():
    """psi sums over the prime bitmap: its runs, and its refusal of x past
    TABLE_CAP, leave numpy unloaded and load arith alone, not tables."""
    runs = [
        ["psi", "--x", "1000000", "--q", "4", "--a", "1"],
        ["psi", "--x", "10", "--q", "1", "--a", "0"],
        ["psi", "--x", "1e300", "--q", "4", "--a", "1"],
    ]
    code = (
        "from primediff import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {runs!r}]\n"
        "assert codes == [0, 0, 3], codes\n"
        "assert 'numpy' not in sys.modules\n"
    )
    loaded = loaded_after(code)
    assert loaded == ["primediff", "primediff.arith", "primediff.cli", "primediff.errors"], loaded


def test_exact_and_bitmap_greedy_runs_import_no_numpy(tmp_path):
    """The witness of test_numpy_stays_behind_module_boundaries, in a fresh
    interpreter.  Exact search, its branch-and-bound fallback, first fit and
    random-local while d (n - 1) + 1 <= TABLE_CAP, and iterate runs whose
    steps end before the energy step (at small_alpha, and at
    structure_found from a set file) run on bytes, ints and tuples: they
    load neither tables, energy nor numpy, and, as every record is a
    namedtuple, neither dataclasses nor inspect."""
    path = tmp_path / "set.txt"
    path.write_text("1\n4\n10\n60\n")  # 4 - 1 = 3 and 2 * 3 + 1 = 7: structure_found
    runs = [
        ["extremal", "--n", "88", "--d", "1", "--mode", "exact", "--budget", "3000000"],
        ["extremal", "--n", "40", "--d", "1", "--mode", "exact", "--budget", "3"],
        ["extremal", "--n", "65535", "--d", "1", "--mode", "greedy"],
        ["extremal", "--n", "100000", "--d", "1", "--mode", "greedy"],
        ["extremal", "--n", "3000", "--d", "1", "--mode", "random-local", "--seed", "1"],
    ]
    iterate_runs = [
        ["iterate", "--greedy", "--n", "100000"],
        ["iterate", "--input", str(path), "--n", "100", "--d", "2"],
    ]
    code = (
        "from primediff import cli\n"
        "unloaded = ('numpy', 'dataclasses', 'inspect', 'primediff.tables', 'primediff.energy')\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "    import primediff.avoider\n"
        "    avoider = [m for m in unloaded if m in sys.modules]\n"
        f"    codes = [cli.main(argv) for argv in {runs!r}]\n"
        "    early = [m for m in unloaded if m in sys.modules]\n"
        f"    codes += [cli.main(argv) for argv in {iterate_runs!r}]\n"
        "late = [m for m in unloaded if m in sys.modules]\n"
        "assert codes == [0] * len(codes), codes\n"
        "assert (avoider, early, late) == ([], [], []), (avoider, early, late)\n"
        "ends = [line for line in err.getvalue().splitlines() if line.startswith('terminal')]\n"
        "assert ends == ['terminal: small_alpha ok', 'terminal: structure_found ok'], ends\n"
    )
    loaded = loaded_after(code)
    assert loaded == ["primediff", "primediff.arith", "primediff.avoider", "primediff.cli",
                      "primediff.driver", "primediff.errors", "primediff.increment"], loaded
