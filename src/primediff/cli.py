"""Command-line surface tying the modules into reproducible experiments.

Every command stamps its output with a run manifest (command, parameters,
seed, tool version, timestamp).  Identical manifests produce byte-identical
output: anything that cannot change the bytes, like the inert worker count
or the output path, stays out of the manifest, and the timestamp can be pinned
with --timestamp.  Manifest placement by format: CSV and plain-value
outputs get a trailing `# manifest: {...}` comment line, JSON objects carry
a "manifest" key, JSON-lines traces carry it in the header record.
Sieve tables are built only by sieve; psi, lambda and spectrum read
Lambda from the prime bitmap, and extremal and iterate build their
forbidden sets from it or from a sieve of their own.  This module
imports no numpy (see arith), and each command imports the layers it runs
itself: psi, extremal and iterate import numpy-free layers alone.
datetime is imported only when no --timestamp is given.  A console
process runs its command with the cyclic collector paused (see main).

Exit codes: 0 success, 2 usage, 3 domain/precondition/resource,
4 certification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import re
import sys
from collections.abc import Iterable

from . import __version__
from .errors import (
    CertificationError,
    DomainError,
    PreconditionError,
    ResourceError,
)


def _manifest(command: str, parameters: dict, seed: int, timestamp: str | None) -> dict:
    if timestamp is None:
        import datetime

        timestamp = datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        )
    return {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "versions": f"primediff/{__version__}",
        "timestamp": timestamp,
    }


def _manifest_comment(manifest: dict) -> str:
    return "# manifest: " + json.dumps(manifest, sort_keys=True)


def _write_text(out_path: str | None, blocks: Iterable[str]) -> None:
    """Write each block, newline-terminated, to out_path or stdout.  A block
    is one line, or a chunk of CSV rows from csvtext.csv_blocks."""
    with open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout) as fh:
        for block in blocks:
            fh.write(block + "\n")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _parse_at(text: str) -> TorusPoint:
    """Torus point from "0", "0.31", or "1/3"; TorusPoint refuses a
    denominator below 1."""
    from .spectral import TorusPoint

    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return TorusPoint.rational(int(num), int(den))
    return TorusPoint.from_float(_finite_float(s))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sieve(args) -> None:
    from .csvtext import column_range, csv_blocks
    from .tables import build_tables

    tables = build_tables(args.n_max)

    def columns(rows: slice):
        n = slice(rows.start + 1, rows.stop + 1)
        return [column_range(n), tables.mangoldt[n], tables.mobius[n], tables.phi[n]]

    manifest = _manifest("sieve", {"n_max": args.n_max}, args.seed, args.timestamp)
    fields = ("%d", "%.12g", "%d", "%d")
    _write_text(
        args.out,
        csv_blocks("n,mangoldt,mobius,phi", fields, args.n_max, columns, _manifest_comment(manifest)),
    )


def _cmd_psi(args) -> None:
    from .arith import psi

    value = psi(args.x, args.q, args.a)
    manifest = _manifest(
        "psi", {"x": args.x, "q": args.q, "a": args.a}, args.seed, args.timestamp
    )
    _write_text(args.out, [f"{value:.12g}", _manifest_comment(manifest)])


def _cmd_lambda(args) -> None:
    from .mangoldt import MangoldtWeight

    weight = MangoldtWeight.build(args.n, args.d)
    z = weight.hat(args.at)
    manifest = _manifest(
        "lambda",
        {"n": args.n, "d": args.d, "at": f"{args.at.a}/{args.at.q}+{args.at.kappa:.12g}"},
        args.seed,
        args.timestamp,
    )
    _write_text(
        args.out,
        [f"{z.real + 0.0:.12g} {z.imag + 0.0:.12g}", _manifest_comment(manifest)],
    )


def _cmd_spectrum(args) -> None:
    from .csvtext import column_range, csv_blocks
    from .mangoldt import spectrum_report
    from .tables import ExceptionalDatum

    if args.grid_factor < 1:
        raise DomainError(f"grid factor must be >= 1, got {args.grid_factor}")
    if (args.exc_modulus is None) != (args.exc_beta is None):
        raise DomainError("--exc-modulus and --exc-beta must be given together")
    exceptional = None
    if args.exc_modulus is not None:
        exceptional = ExceptionalDatum(args.exc_modulus, args.exc_beta)

    m = args.grid_factor * args.n
    report = spectrum_report(args.n, args.d, args.q_prime, args.big_q, m, exceptional)

    params = {
        "n": args.n,
        "d": args.d,
        "q_prime": args.q_prime,
        "big_q": args.big_q,
        "grid_factor": args.grid_factor,
    }
    if exceptional is not None:
        params["exc_modulus"] = exceptional.modulus
        params["exc_beta"] = exceptional.beta
    manifest = _manifest("spectrum", params, args.seed, args.timestamp)

    bounds = report.bounds.ravel()

    def columns(rows: slice):
        actual, index = report.actual[rows], report.bound_index(rows)
        theta = column_range(rows) / m
        ratio = actual / bounds[index]
        return theta, report.a[rows], report.q[rows], report.major[rows], actual, index, ratio

    header = "theta,a,q,class,actual,bound,ratio"
    # class and bound index tables: each word and each bound is rendered once
    fields = ("%.12g", "%d", "%d", ("%s", ("minor", "major")), "%.12g", ("%.12g", bounds), "%.12g")
    _write_text(args.out, csv_blocks(header, fields, m, columns, _manifest_comment(manifest)))


def _cmd_extremal(args) -> None:
    from .avoider import ForbiddenSet, greedy_avoiding, max_avoiding_exact

    if args.budget is not None and args.mode != "exact":
        raise DomainError(f"--budget applies to --mode exact only, got --mode {args.mode}")
    fs = ForbiddenSet.build(args.n, args.d)
    if args.mode == "exact":
        result = max_avoiding_exact(fs, node_budget=args.budget)
    elif args.mode == "greedy":
        result = greedy_avoiding(fs, strategy="first_fit")
    else:
        result = greedy_avoiding(fs, strategy="random_local", seed=args.seed)

    params = {"n": args.n, "d": args.d, "mode": args.mode}
    if args.budget is not None:
        params["budget"] = args.budget
    manifest = _manifest("extremal", params, args.seed, args.timestamp)
    payload = {
        "n": args.n,
        "d": args.d,
        "mode": args.mode,
        "strategy": result.strategy,
        "elements": list(result.elements),
        "size": result.size,
        "optimal": result.optimal,
        "nodes": result.nodes,
        "forbidden_count": fs.count(),
        "manifest": manifest,
    }
    _write_text(args.out, [json.dumps(payload, sort_keys=True, indent=2)])


def _lines(path: str):
    """(raw line, its text before any '#', stripped) for each line of the
    file that holds text outside a comment."""
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                yield raw, line


def _read_set_file(path: str) -> list[int]:
    elements = []
    for raw, line in _lines(path):
        try:
            elements.append(int(line))
        except ValueError:
            raise PreconditionError(f"set file line {raw.strip()!r} is not an integer") from None
    if not elements:
        raise PreconditionError(f"no elements found in {path}")
    return elements


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _read_config(path: str | None) -> IterationConfig:
    """Flat key=value file over IterationConfig fields, each read as the
    type of its default (int or float).

    Missing keys keep their defaults; unknown and repeated keys are
    rejected.
    """
    from .driver import IterationConfig

    values: dict = {}
    if path is not None:
        field_types = {k: type(v) for k, v in IterationConfig._field_defaults.items()}
        for raw, line in _lines(path):
            if "=" not in line:
                raise PreconditionError(f"config line {raw.strip()!r} is not key=value")
            key, _, val = (part.strip() for part in line.partition("="))
            if key not in field_types:
                raise PreconditionError(f"unknown config key {key!r}")
            if key in values:
                raise PreconditionError(f"duplicate config key {key!r}")
            try:
                values[key] = field_types[key](val)
            except ValueError:
                # an int field refuses numbers such as 2.5 or 1e3 too
                fault = "an integer" if _is_float(val) else "numeric"
                raise PreconditionError(
                    f"config value for {key!r} is not {fault}: {val!r}"
                ) from None
    return IterationConfig(**values)


def _cmd_iterate(args) -> None:
    from .avoider import ForbiddenSet, greedy_avoiding
    from .driver import certify, run, trace_to_jsonl
    from .increment import DensitySet

    config = _read_config(args.config)
    if args.greedy:
        source = "greedy"
        fs = ForbiddenSet.build(args.n, args.d)
        elements = greedy_avoiding(fs, strategy="first_fit").elements
    else:
        source = args.input
        elements = _read_set_file(args.input)
    A = DensitySet.from_iterable(args.n, elements)

    params = {"n": args.n, "d": args.d, "source": source}
    manifest = _manifest("iterate", params, args.seed, args.timestamp)

    trace = run(A, args.d, config)
    for line in certify(trace):
        print(line, file=sys.stderr)
    _write_text(args.out, trace_to_jsonl(trace, manifest))


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Reads a negative number in exponent form ("-1e-05") as a value, as
    it does "-0.5", not as an unknown option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=0, help="seed for all randomness (default 0)"
    )
    common.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility; has no effect",
    )
    common.add_argument(
        "--timestamp",
        default=None,
        help="pin the manifest timestamp (default: current UTC time)",
    )
    common.add_argument("--out", default=None, help="output file (default: stdout)")

    parser = _Parser(
        prog="primediff",
        description="experiments on difference sets avoiding shifted primes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", parents=[common], help="table of Lambda, mu, phi")
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=_cmd_sieve)

    p = sub.add_parser("psi", parents=[common], help="Chebyshev psi(x; q, a)")
    p.add_argument("--x", type=_finite_float, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser(
        "lambda", parents=[common], help="transform of Lambda(d x + 1) at a torus point"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument(
        "--at",
        type=_parse_at,
        required=True,
        help='torus point: "0", "0.31", or "1/3"',
    )
    p.set_defaults(func=_cmd_lambda)

    p = sub.add_parser(
        "spectrum", parents=[common], help="measured transform vs class bounds, CSV"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q-prime", type=int, required=True, help="major/minor cutoff")
    p.add_argument("--big-q", type=int, required=True, help="dissection parameter")
    p.add_argument("--grid-factor", type=int, default=8)
    p.add_argument("--exc-modulus", type=int, default=None)
    p.add_argument("--exc-beta", type=_finite_float, default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser(
        "extremal", parents=[common], help="extremal avoiding set, exact or heuristic"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "greedy", "random-local"], required=True)
    p.add_argument("--budget", type=int, default=None, help="node budget for exact mode")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser(
        "iterate", parents=[common], help="density-increment iteration, JSON-lines trace"
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", default=None, help="set file: one integer per line")
    src.add_argument(
        "--greedy", action="store_true", help="start from the first-fit avoiding set"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--config", default=None, help="key=value overrides")
    p.set_defaults(func=_cmd_iterate)

    return parser


def main(argv=None) -> int:
    """Run one command; argv None reads sys.argv, as the console script does.

    Such a process pauses the cyclic collector before it parses, so numpy
    and the layers import without its passes over them, and freezes the
    heap once the command returns or raises, so the full collections at
    shut-down skip it.  The commands make few reference cycles: what the
    pause leaves uncollected raised peaks by 1.2 MB at most.  A call
    with argv, as from a test, leaves the collector alone."""
    if argv is not None:
        return _run(argv)
    gc.disable()
    try:
        return _run(argv)
    finally:
        gc.freeze()


def _run(argv) -> int:
    """Parse argv (None: sys.argv) and run its command; the exit code."""
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 4
    except (DomainError, PreconditionError, ResourceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
