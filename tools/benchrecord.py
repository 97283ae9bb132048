"""Record the benchmark's end-to-end results in BENCH_<pr>.json.

For each workload that BENCHMARK.json lists and each seed, this runs

    perfbench/run.py --workload W --seed S --seconds T --trace 0

in the checkout this file sits in, and writes each run's result line (the
last line of its stdout), its `env` line and the checkout's
`git rev-parse HEAD` to BENCH_<pr>.json at the checkout's root.  With
--baseline DIR, a second checkout (the parent commit, say) runs each
(workload, seed) too, next to this one, which one goes first alternating
from seed to seed: the file then holds pairs measured with the same seeds
and duration, and the median of each end-to-end metric per workload and
checkout.

    python tools/benchrecord.py --pr 31 --seeds 41 42 43 44 45 --seconds 6
    python tools/benchrecord.py --pr 31 --seeds 41 42 43 44 45 --seconds 6 \\
        --baseline ../primediff-parent

Stdlib only.  perfbench/ is run as a program, never imported or changed;
each run also appends its record to .bench_out/ in the checkout that ran it.
The `env` line's src_sha256 identifies the sources measured, also when the
checkout has uncommitted changes (recorded as "dirty"); diff_sha256, the
SHA-256 of `git diff HEAD`'s output, says which changes to the tracked
files were measured on top of the commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _git(checkout: Path, *args: str) -> bytes | None:
    """The stdout of git run in checkout, or None when it fails."""
    try:
        done = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def _describe(checkout: Path) -> dict:
    """The checkout's commit, whether its tracked files differ from it, and
    the SHA-256 of that difference as `git diff HEAD` prints it."""
    commit = _git(checkout, "rev-parse", "HEAD")
    diff = _git(checkout, "diff", "HEAD")
    return {"commit": None if commit is None else commit.decode().strip(),
            "dirty": None if diff is None else bool(diff),
            "diff_sha256": None if diff is None else hashlib.sha256(diff).hexdigest()}


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout: its exit code, result line and env line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    record = {"returncode": done.returncode, "result": None, "env": None}
    if done.returncode == 0 and lines:
        record["result"] = json.loads(lines[-1])
        env = [line for line in lines if line.startswith("env ")]
        record["env"] = json.loads(env[-1][4:]) if env else None
    else:
        record["stderr"] = done.stderr[-2000:]
    return record


def _medians(runs: list[dict]) -> dict:
    """{workload: {checkout: {metric: median value}}} over the runs that
    produced a result."""
    values: dict = {}
    for run in runs:
        if run["result"] is None:
            continue
        per = values.setdefault(run["workload"], {}).setdefault(run["checkout"], {})
        for name, metric in run["result"]["metrics"].items():
            per.setdefault(name, []).append(metric["value"])
    return {
        workload: {
            checkout: {name: statistics.median(v) for name, v in metrics.items()}
            for checkout, metrics in by_checkout.items()
        }
        for workload, by_checkout in values.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="the file is named BENCH_<pr>.json")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--baseline", type=Path, help="a second checkout to pair runs with")
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    checkouts = {"change": ROOT}
    if args.baseline is not None:
        if not (args.baseline / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {args.baseline}")
        checkouts = {"baseline": args.baseline.resolve(), "change": ROOT}

    # described before the runs, so an edit made while they run is not recorded as measured
    described = {label: _describe(path) for label, path in checkouts.items()}
    runs = []
    for workload in workloads:
        for i, seed in enumerate(args.seeds):
            order = list(checkouts) if i % 2 == 0 else list(reversed(checkouts))
            for label in order:
                run = {"workload": workload, "seed": seed, "checkout": label,
                       **_run(checkouts[label], workload, seed, args.seconds)}
                runs.append(run)
                wall = (run["result"] or {}).get("metrics", {}).get("wall_s", {}).get("value")
                print(f"{workload} seed {seed} {label}: exit {run['returncode']}, wall_s {wall}",
                      file=sys.stderr)

    record = {
        "command": "perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "seconds": args.seconds,
        "seeds": args.seeds,
        "checkouts": described,
        "runs": runs,
        "medians": _medians(runs),
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out.name)
    return 0 if all(run["returncode"] == 0 for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
