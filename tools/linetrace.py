"""Line trace of the package: which lines the tests and the benchmark run.

Two child interpreters each run one side under `sys.settrace`, recording
every line executed in src/primediff (other frames are not traced):

- tests: `pytest.main` on the given pytest arguments (default: tests/);
- bench: every CLI operation of perfbench/workloads.py's workloads through
  `cli.main`, in process, then every library section of perfbench/library.py,
  at --seed and --scale.  Both files are imported, never changed.

The report lists, per function, the executable lines (from each code
object's `co_lines`) that neither side reached, and those that only the
tests reached, then a count of each, and the SHA-256 of the sources
traced.  The hash is taken before the children start; if the sources
differ from it when the report is due, the line numbers the children
recorded no longer match the files, and the run exits 2 with no report.
A test that starts a fresh interpreter (the peak-memory and console-entry
tests) runs its command in that child, which is not traced, so lines only
such a test runs show as unreached.  A test with a time bound may fail
under the tracer's cost; a failing run is reported on stderr and its
lines still count.

    python tools/linetrace.py --seed 7 -- tests/

Stdlib only (the children import the package and, for the tests, pytest);
tier-1 takes several times longer under the tracer, so it stays out of the
suite.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "primediff"


def _code_key(code) -> tuple[str, str, int]:
    return code.co_filename, code.co_qualname, code.co_firstlineno


def _trace(side: str, seed: int, scale: str, pytest_args: list[str]) -> tuple[set, int]:
    """Run one side under the tracer: the (file, qualname, first line, line)
    it reached in the package, and the side's exit status."""
    prefix = str(PACKAGE) + os.sep
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((*_code_key(frame.f_code), frame.f_lineno))
        return local

    def call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        hits.add((*_code_key(frame.f_code), frame.f_lineno))
        return local

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.settrace(call)
    try:
        status = _run_tests(pytest_args) if side == "tests" else _run_bench(seed, scale)
    finally:
        sys.settrace(None)
    return hits, status


def _run_tests(pytest_args: list[str]) -> int:
    import pytest

    os.chdir(ROOT)
    return int(pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args]))


def _run_bench(seed: int, scale: str) -> int:
    from workloads import CLI_PINS, WORKLOADS, cli_ops, library_part

    from primediff import cli

    status = 0
    for workload in WORKLOADS:
        for op in cli_ops(workload, seed, scale):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(op["argv"] + CLI_PINS)
            if code != 0:
                print(f"{op['name']}: exit {code}", file=sys.stderr)
                status = 1
    from library import SECTIONS

    for part in sorted({library_part(w) for w in WORKLOADS} - {None}):
        section = SECTIONS[part](seed, scale)
        _, results = section.run()
        errors = section.check(results)
        if errors:
            print(f"{part}: {len(errors)} failed, first: {errors[0]}", file=sys.stderr)
            status = 1
    return status


def _executable() -> dict:
    """{(file, qualname, first line): sorted executable lines} for every
    code object compiled from the package's sources."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            lines = {line for _, _, line in code.co_lines() if line is not None}
            found[_code_key(code)] = sorted(lines)
            stack += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return found


def _sources_digest() -> str:
    """SHA-256 over the package's sources: each file's name and bytes, in
    name order."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _spans(lines: list[int]) -> str:
    """"3, 7-9, 12" from ascending line numbers."""
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def _report(tests: set, bench: set, digest: str) -> None:
    reached = {"tests": tests, "bench": bench}
    counts = {"executable": 0, "unreached": 0, "tests only": 0}
    for key, lines in sorted(_executable().items(), key=lambda kv: (kv[0][0], kv[0][2])):
        side = {name: {line for line in lines if (*key, line) in hits}
                for name, hits in reached.items()}
        unreached = [x for x in lines if x not in side["tests"] | side["bench"]]
        tests_only = [x for x in lines if x in side["tests"] and x not in side["bench"]]
        counts["executable"] += len(lines)
        counts["unreached"] += len(unreached)
        counts["tests only"] += len(tests_only)
        if unreached or tests_only:
            print(f"{Path(key[0]).name}:{key[2]} {key[1]}")
            if unreached:
                print(f"    unreached: {_spans(unreached)}")
            if tests_only:
                print(f"    tests only: {_spans(tests_only)}")
    print(", ".join(f"{k} {v}" for k, v in counts.items()))
    print(f"sources sha256 {digest}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--side", choices=("tests", "bench"), help=argparse.SUPPRESS)
    parser.add_argument("--hits", help=argparse.SUPPRESS)
    parser.add_argument("pytest_args", nargs="*", default=["tests/"])
    args = parser.parse_args(argv)

    if args.side:  # a child: trace one side, write its hits
        hits, status = _trace(args.side, args.seed, args.scale, args.pytest_args)
        Path(args.hits).write_text(json.dumps(sorted(hits)))
        return status

    digest = _sources_digest()
    sides = {}
    with tempfile.TemporaryDirectory() as scratch:
        for side in ("tests", "bench"):
            out = Path(scratch) / f"{side}.json"
            cmd = [sys.executable, __file__, "--side", side, "--hits", str(out),
                   "--seed", str(args.seed), "--scale", args.scale, "--", *args.pytest_args]
            status = subprocess.run(cmd, stdout=sys.stderr).returncode
            if status != 0:
                print(f"{side} run exited {status}; its lines still count", file=sys.stderr)
            if not out.exists():
                print(f"{side} run wrote no trace", file=sys.stderr)
                return 2
            sides[side] = {tuple(hit) for hit in json.loads(out.read_text())}
    if _sources_digest() != digest:
        print("src/primediff changed during the run; its line numbers are stale", file=sys.stderr)
        return 2
    _report(sides["tests"], sides["bench"], digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
