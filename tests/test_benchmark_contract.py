"""The benchmark's span recorder (perfbench/spans.py) wraps program
functions by name and its counters read attributes of their results.  It
lists a target it cannot find as missing and goes on, so a renamed
function or attribute would only thin out its numbers; these tests hold
the program to what the recorder reads, and to the calls the benchmark's
driver section makes (perfbench/library.py), without importing or editing
either."""

import ast
import importlib
import inspect
import pathlib

import numpy as np

from primediff import driver
from primediff.arith import build_tables
from primediff.avoider import ForbiddenSet, max_avoiding_exact
from primediff.driver import IterationConfig, iterate_once, run
from primediff.increment import DensitySet, energy_table
from primediff.mangoldt import spectrum_report

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
LIBRARY = SPANS.parent / "library.py"

# targets no run path has any more; the recorder reports them as missing
MISSING = {
    "spectral.dirichlet_approx",
    "spectral.ArcFamily.classify",
    "spectral.FareyArc.grid_indices",
    "spectral.grid_spectrum",
    "mangoldt.render_csv_rows",
}


def span_targets() -> list[str]:
    """The first field of each TARGETS entry, read from the source."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [ast.literal_eval(entry.elts[0]) for entry in node.value.elts]
    raise AssertionError("spans.py defines no TARGETS list")


def resolves(target: str) -> bool:
    module_name, _, attr = target.partition(".")
    obj = importlib.import_module(f"primediff.{module_name}")
    for name in attr.split("."):
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return callable(obj)


def test_every_span_target_resolves():
    targets = span_targets()
    assert MISSING <= set(targets)
    assert {t for t in targets if not resolves(t)} == MISSING


def test_counter_attributes_exist():
    """What the counters read: the ndarray attributes of build_tables'
    result (their bytes), the length of spectrum_report's (one row per grid
    point), energy_table's rows (one per level), exact search's nodes and
    seconds, a run's terminal and a step's tag."""
    tables = build_tables(201)
    arrays = [v for v in vars(tables).values() if isinstance(v, np.ndarray)]
    assert sum(v.nbytes for v in arrays) == tables.mangoldt.nbytes == 202 * 8

    assert len(spectrum_report(200, 1, 5, 30, 1600)) == 1600

    A = DensitySet.from_iterable(300, range(1, 301, 7))
    table = energy_table(A, 12, 40)
    assert len(table.rows) == 12

    result = max_avoiding_exact(ForbiddenSet.build(40, 1), node_budget=10_000)
    assert isinstance(result.nodes, int) and isinstance(result.seconds, float)

    trace = run(A, 1, IterationConfig())
    assert isinstance(trace.terminal, str)
    outcome, _ = iterate_once(A, 1, IterationConfig())
    assert isinstance(outcome.tag, str)


def test_benchmark_calls_bind_to_the_driver():
    """The benchmark's driver section calls driver.run and driver.certify
    (it still passes sieve tables to both); each call in library.py, read
    as source, binds to today's signature, so a dropped or renamed
    parameter fails here, not as a TypeError in every driver operation."""
    calls = [
        node
        for node in ast.walk(ast.parse(LIBRARY.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "driver"
        and node.func.attr in ("run", "certify")
    ]
    assert sorted(call.func.attr for call in calls) == ["certify", "run"]
    for call in calls:
        signature = inspect.signature(getattr(driver, call.func.attr))
        signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
