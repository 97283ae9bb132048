"""The package's export lists name only things that exist, no helper is
defined twice or left unread, and a CLI run loads only the layers its
subcommand uses."""

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
LAZY_LAYERS = {"primediff.driver", "primediff.increment", "primediff.mangoldt", "primediff.spectral"}


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
    definition of the same name is a copy to fold into the first."""
    homes = collections.defaultdict(list)
    for path in sorted(pathlib.Path(primediff.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                homes[node.name].append(path.name)
    assert {name: mods for name, mods in homes.items() if len(mods) > 1} == {}


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


def test_exact_and_bitmap_greedy_runs_import_no_numpy(tmp_path):
    """Exact search, its branch-and-bound fallback, first fit and
    random-local while d (n - 1) + 1 <= TABLE_CAP, psi, and iterate runs
    whose steps end before the energy step (at small_alpha, and at
    structure_found from a set file) run on bytes, ints and tuples:
    importing avoider and running them leaves numpy unloaded, and as every
    record is a namedtuple, the runs, iterate's too, load neither
    dataclasses nor inspect."""
    path = tmp_path / "set.txt"
    path.write_text("1\n4\n10\n60\n")  # 4 - 1 = 3 and 2 * 3 + 1 = 7: structure_found
    runs = [
        ["extremal", "--n", "88", "--d", "1", "--mode", "exact", "--budget", "3000000"],
        ["extremal", "--n", "40", "--d", "1", "--mode", "exact", "--budget", "3"],
        ["extremal", "--n", "65535", "--d", "1", "--mode", "greedy"],
        ["extremal", "--n", "100000", "--d", "1", "--mode", "greedy"],
        ["extremal", "--n", "3000", "--d", "1", "--mode", "random-local", "--seed", "1"],
        ["psi", "--x", "1000000", "--q", "4", "--a", "1"],
    ]
    iterate_runs = [
        ["iterate", "--greedy", "--n", "100000"],
        ["iterate", "--input", str(path), "--n", "100", "--d", "2"],
    ]
    code = (
        "import primediff.avoider\n"
        "assert 'numpy' not in sys.modules\n"
        "from primediff import cli\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        f"    codes = [cli.main(argv) for argv in {runs!r}]\n"
        "    early = [m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules]\n"
        f"    codes += [cli.main(argv) for argv in {iterate_runs!r}]\n"
        "late = [m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules]\n"
        "assert codes == [0] * len(codes), codes\n"
        "assert (early, late) == ([], []), (early, late)\n"
        "ends = [line for line in err.getvalue().splitlines() if line.startswith('terminal')]\n"
        "assert ends == ['terminal: small_alpha ok', 'terminal: structure_found ok'], ends\n"
    )
    loaded = loaded_after(code)
    assert loaded == ["primediff", "primediff.arith", "primediff.avoider", "primediff.cli",
                      "primediff.driver", "primediff.errors", "primediff.increment"], loaded


def test_psi_runs_import_no_numpy():
    """psi sums over the prime bitmap: its runs, and its refusal of x past
    TABLE_CAP, leave numpy unloaded and load arith alone."""
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
