"""One-fault mutation probe for a function of the package.

Each site in the named function yields one mutant: a comparison flipped
(< and <=, > and >=, == and !=) or a `raise` replaced by `pass`.  Every
mutant runs the given pytest arguments in a scratch copy of src/, tests/,
tools/, perfbench/ and pyproject.toml, and is killed only when pytest
reports a failing test (exit code 1) or runs past the timeout.  A
collection error, a usage error or an empty selection (exit codes 2 to 5)
kills nothing: it is reported as an error.  No mutant is judged unless the unmutated copy
passes first.

    python tools/mutate.py src/primediff/driver.py certify -- \\
        tests/test_driver.py tests/test_acceptance.py::TestAcceptance::test_12_driver_soundness

Prints one line per site and a summary; exits 0 only when every mutant is
killed.  Stdlib only; it is too slow for the test suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "tools", "pyproject.toml")  # what tier-1 reads
FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!="}


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name:
            return node
    raise SystemExit(f"no function {name!r}")


def _sites(func: ast.FunctionDef) -> list[tuple]:
    """(line, column, kind, node, op index) of each site, in source order;
    kind is "compare" or "raise"."""
    found = []
    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in FLIPS:
                    found.append((node.lineno, node.col_offset, "compare", node, i))
        elif isinstance(node, ast.Raise):
            found.append((node.lineno, node.col_offset, "raise", node, None))
    return sorted(found, key=lambda s: (s[0], s[1], s[4] or 0))


class _RaiseToPass(ast.NodeTransformer):
    def __init__(self, target: ast.Raise):
        self.target = target

    def visit_Raise(self, node: ast.Raise):
        return ast.copy_location(ast.Pass(), node) if node is self.target else node


def _mutants(source: str, function: str):
    """(description, mutated module source) per site; the source of the
    unmutated module first, unparsed the same way, as the baseline."""
    yield "baseline", ast.unparse(ast.parse(source))
    count = len(_sites(_function(ast.parse(source), function)))
    for k in range(count):
        tree = ast.parse(source)  # a fresh tree per mutant: one fault each
        line, _, kind, node, i = _sites(_function(tree, function))[k]
        if kind == "compare":
            op = type(node.ops[i])
            node.ops[i] = FLIPS[op]()
            what = f"line {line}: {SYMBOL[op]} -> {SYMBOL[FLIPS[op]]}"
        else:
            text = ast.get_source_segment(source, node) or "raise"
            tree = _RaiseToPass(node).visit(tree)
            what = f"line {line}: {text.splitlines()[0][:60]} -> pass"
        yield what, ast.unparse(ast.fix_missing_locations(tree))


def _run(copy: Path, pytest_args: list[str], timeout: float) -> str:
    """killed, survived, timeout, or error (exit N)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # the copy's own pyproject puts its src/ first
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "-o", "addopts=", *pytest_args]
    try:
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return {0: "survived", 1: "killed"}.get(done.returncode, f"error (exit {done.returncode})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("path", help="module file, relative to the repository root")
    parser.add_argument("function", help="name of the function to mutate")
    parser.add_argument("pytest_args", nargs="+", help="test files or ids, after --")
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per mutant")
    args = parser.parse_args()

    source = (ROOT / args.path).read_text()
    tally: dict[str, int] = {}
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, copy / name)
        target = copy / args.path
        for what, mutated in _mutants(source, args.function):
            target.write_text(mutated)
            start = time.perf_counter()
            result = _run(copy, args.pytest_args, args.timeout)
            if what == "baseline":
                result = "passes" if result == "survived" else f"fails: {result}"
            print(f"{result:>16}  {time.perf_counter() - start:5.1f} s  {what}", flush=True)
            if what == "baseline":
                if result != "passes":
                    print("the unmutated copy does not pass: no mutant is judged", file=sys.stderr)
                    return 2
                continue
            tally[result] = tally.get(result, 0) + 1
    sites = sum(tally.values())
    parts = ", ".join(f"{n} {k}" for k, n in sorted(tally.items()))
    print(f"{args.function}: {sites} sites: {parts}")
    return 0 if tally.get("killed", 0) + tally.get("timeout", 0) == sites else 1


if __name__ == "__main__":
    sys.exit(main())
