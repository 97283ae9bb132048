"""Command-line surface tying the modules into reproducible experiments.

Every command stamps its output with a run manifest (command, parameters,
seed, tool version, timestamp).  Identical manifests produce byte-identical
output: anything that cannot change the bytes, like the inert worker count
or the output path, stays out of the manifest, and the timestamp can be pinned
with --timestamp.  Manifest placement by format: CSV and plain-value
outputs get a trailing `# manifest: {...}` comment line, JSON objects carry
a "manifest" key, JSON-lines traces carry it in the header record.

Exit codes: 0 success, 2 usage, 3 domain/precondition/resource,
4 certification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import sys
import typing

from . import __version__
from .arith import TABLE_CAP, ExceptionalDatum, build_tables, psi
from .avoider import ForbiddenSet, greedy_avoiding, max_avoiding_exact
from .driver import IterationConfig, certify, run, trace_to_jsonl
from .errors import (
    CertificationError,
    DomainError,
    EnergyShortfall,
    PreconditionError,
    ResourceError,
)
from .increment import DensitySet
from .mangoldt import MangoldtWeight, render_csv_rows, spectrum_report
from .spectral import TorusPoint


def _manifest(command: str, parameters: dict, seed: int, timestamp: str | None) -> dict:
    if timestamp is None:
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


def _write_text(out_path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _parse_at(text: str) -> TorusPoint:
    """Torus point from "0", "0.31", or "1/3"."""
    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        a, q = int(num), int(den)
        if q < 1:
            raise DomainError(f"denominator must be positive in {text!r}")
        return TorusPoint.rational(a, q)
    return TorusPoint.from_float(_finite_float(s))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_sieve(args) -> None:
    tables = build_tables(args.n_max)
    cols = (t[1:].tolist() for t in (tables.mangoldt, tables.mobius, tables.phi))
    rows = zip(range(1, args.n_max + 1), *cols)
    lines = ["n,mangoldt,mobius,phi"]
    lines.extend(f"{n},{lam:.12g},{mu},{ph}" for n, lam, mu, ph in rows)
    manifest = _manifest("sieve", {"n_max": args.n_max}, args.seed, args.timestamp)
    lines.append(_manifest_comment(manifest))
    _write_text(args.out, lines)


def _cmd_psi(args) -> None:
    top = int(math.floor(args.x)) if args.x >= 0 else 0
    tables = build_tables(max(2, top))
    value = psi(args.x, args.q, args.a, tables)
    manifest = _manifest(
        "psi", {"x": args.x, "q": args.q, "a": args.a}, args.seed, args.timestamp
    )
    _write_text(args.out, [f"{value:.12g}", _manifest_comment(manifest)])


def _cmd_lambda(args) -> None:
    tables = build_tables(args.d * args.n + 2)
    weight = MangoldtWeight.from_tables(args.n, args.d, tables)
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
    if args.grid_factor < 1:
        raise DomainError(f"grid factor must be >= 1, got {args.grid_factor}")
    if (args.exc_modulus is None) != (args.exc_beta is None):
        raise DomainError("--exc-modulus and --exc-beta must be given together")
    exceptional = None
    if args.exc_modulus is not None:
        exceptional = ExceptionalDatum(args.exc_modulus, args.exc_beta)

    tables = build_tables(args.d * args.n + 2)
    m = args.grid_factor * args.n
    rows = spectrum_report(args.n, args.d, args.q_prime, args.big_q, m, tables, exceptional)

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
    _write_text(args.out, render_csv_rows(rows) + [_manifest_comment(manifest)])


def _cmd_extremal(args) -> None:
    # past TABLE_CAP, ForbiddenSet.build falls back to Miller-Rabin
    need = args.d * (args.n - 1) + 2
    tables = build_tables(need) if need <= TABLE_CAP else None
    fs = ForbiddenSet.build(args.n, args.d, tables)
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


def _read_set_file(path: str) -> list[int]:
    elements = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                elements.append(int(line))
            except ValueError:
                raise PreconditionError(
                    f"set file line {raw.strip()!r} is not an integer"
                ) from None
    if not elements:
        raise PreconditionError(f"no elements found in {path}")
    return elements


def _read_config(path: str | None) -> IterationConfig:
    """Flat key=value file over IterationConfig fields.

    Missing keys keep their defaults; unknown keys are rejected.
    """
    values: dict = {}
    if path is not None:
        hints = typing.get_type_hints(IterationConfig)
        field_types = {f.name: hints[f.name] for f in dataclasses.fields(IterationConfig)}
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise PreconditionError(f"config line {raw.strip()!r} is not key=value")
                key, _, val = (part.strip() for part in line.partition("="))
                if key not in field_types:
                    raise PreconditionError(f"unknown config key {key!r}")
                try:
                    values[key] = field_types[key](val)  # int or float
                except ValueError:
                    raise PreconditionError(
                        f"config value for {key!r} is not numeric: {val!r}"
                    ) from None
    return IterationConfig(**values)


def _cmd_iterate(args) -> None:
    config = _read_config(args.config)
    # one table serves the forbidden set and the driver; ForbiddenSet.build
    # falls back to Miller-Rabin past TABLE_CAP
    need = args.d * (args.n - 1) + 2
    tables = build_tables(min(need, TABLE_CAP))
    if args.greedy:
        source = "greedy"
        fs = ForbiddenSet.build(args.n, args.d, tables)
        elements = greedy_avoiding(fs, strategy="first_fit").elements
    else:
        source = args.input
        elements = _read_set_file(args.input)
    A = DensitySet.from_iterable(args.n, elements)

    params = {"n": args.n, "d": args.d, "source": source}
    manifest = _manifest("iterate", params, args.seed, args.timestamp)

    trace = run(A, args.d, config, tables)
    for line in certify(trace, tables):
        print(line, file=sys.stderr)
    _write_text(args.out, trace_to_jsonl(trace, manifest))


# ---------------------------------------------------------------------------
# parser


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

    parser = argparse.ArgumentParser(
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
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 4
    except (DomainError, PreconditionError, ResourceError, EnergyShortfall) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
