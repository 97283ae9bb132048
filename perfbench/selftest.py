"""Self-test of the benchmark.  From the repository root:

    python3 perfbench/selftest.py

1. BENCHMARK.json lists exactly the workloads and metrics run.py reports.
2. Every workload runs at smoke size untraced, and the traced run (which
   covers every workload) runs too, with no failed operation and exactly
   the metric names of BENCHMARK.json.
3. Each validator accepts a real output and rejects a corrupted one: a
   flipped digit in a spectrum row, a non-avoiding extremal set, a wrong psi
   value, a wrong sieve row, and a driver trace with one tampered count.
4. Without the program's sources, run.py fails without printing a result.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import validate  # noqa: E402
from run import CLI_STUB, END_TO_END, PER_LAYER, child_env  # noqa: E402
from workloads import CLI_PINS, WORKLOADS, cli_ops, driver_inputs  # noqa: E402


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def cli_output(op: dict, tmp: Path) -> tuple[str, str]:
    out = tmp / f"{op['name']}.out"
    done = subprocess.run([sys.executable, "-c", CLI_STUB, *op["argv"], *CLI_PINS, "--out", str(out)],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120)
    expect(done.returncode == 0, f"{op['name']} runs at smoke size")
    return out.read_text(), done.stderr


def check_config() -> None:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in config["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads")
    expect([(m["name"], m["unit"]) for m in config["end_to_end"]] == END_TO_END, "end-to-end metrics")
    expect([(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] == PER_LAYER, "per-layer metrics")


def check_smoke() -> None:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = [(w, 0, "end_to_end") for w in WORKLOADS] + [(WORKLOADS[0], 1, "per_layer")]
    for workload, trace, key in runs:
        done = bench(workload, trace)
        try:
            result = json.loads(done.stdout.strip().split("\n")[-1])
        except (ValueError, IndexError):
            result = {}
        expect(done.returncode == 0 and result.get("correct") is True and result.get("failed") == 0,
               f"{workload} --trace {trace}: ran, {result.get('attempted')} operations, none failed")
        names = [m["name"] for m in config[key]]
        expect(list(result["metrics"]) == names, f"{workload} --trace {trace}: metric names")


def flip_digit(text: str, row: int, column: int) -> str:
    lines = text.split("\n")
    fields = lines[row].split(",")
    digit = next(i for i, ch in enumerate(fields[column]) if ch.isdigit())
    old = fields[column][digit]
    fields[column] = fields[column][:digit] + str((int(old) + 1) % 10) + fields[column][digit + 1:]
    lines[row] = ",".join(fields)
    return "\n".join(lines)


def check_validators(tmp: Path) -> None:
    ops = {op["name"]: op for w in WORKLOADS for op in cli_ops(w, 3, "tiny")}

    op = ops["spectrum_n5000"]
    p = op["params"]
    text, _ = cli_output(op, tmp)
    spectrum = lambda t: validate.check_spectrum(t, p["n"], p["d"], p["q_prime"], p["big_q"], 3)  # noqa: E731
    expect(spectrum(text) == [], "spectrum validator accepts the real output")
    row = 1 + 8 * p["n"] // 3  # a row well inside (0, 1), where q > 1
    for column, name in enumerate(("theta", "a", "q", "class", "actual", "bound", "ratio")):
        if name != "class":
            expect(spectrum(flip_digit(text, row, column)) != [], f"spectrum validator rejects a flipped {name} digit")

    op = ops["psi_x1e6"]
    text, _ = cli_output(op, tmp)
    expect(validate.check_cli(op, text, "", 3) == [], "psi validator accepts the real output")
    value, rest = text.split("\n", 1)
    wrong = f"{float(value) * (1 + 1e-7):.12g}\n{rest}"
    expect(validate.check_cli(op, wrong, "", 3) != [], "psi validator rejects a value off by 1e-7")

    op = ops["sieve_n100000"]
    text, _ = cli_output(op, tmp)
    expect(validate.check_cli(op, text, "", 3) == [], "sieve validator accepts the real output")
    lines = text.split("\n")
    lines[1:-2] = [line.replace(",-1,", ",1,") for line in lines[1:-2]]  # mu(n) = -1 rows
    expect(validate.check_cli(op, "\n".join(lines), "", 3) != [], "sieve validator rejects wrong mobius values")

    op = ops["local_n3000"]
    text, _ = cli_output(op, tmp)
    expect(validate.check_cli(op, text, "", 3) == [], "extremal validator accepts the real output")
    out = json.loads(text)
    x = out["elements"][0]
    out["elements"] = sorted(out["elements"] + [x + 1])  # difference 1: 1 * 1 + 1 = 2 is prime
    out["size"] += 1
    expect(validate.check_cli(op, json.dumps(out), "", 3) != [], "extremal validator rejects a non-avoiding set")

    op = ops["iterate_n100000"]
    text, err = cli_output(op, tmp)
    expect(validate.check_cli(op, text, err, 3) == [], "iterate validator accepts the real trace")

    from primediff import DensitySet, IterationConfig, build_tables, certify, run, trace_to_jsonl

    tables = build_tables(4004)
    for n, d, elements in driver_inputs(3, "full"):
        trace = run(DensitySet.from_iterable(n, elements), d, IterationConfig(), tables)
        if any(s.outcome.tag == "density_increment" for s in trace.steps):
            break
    else:
        expect(False, "a driver input reaches a density increment")
    lines, report = trace_to_jsonl(trace), certify(trace, tables)
    snapshots = [s.set_snapshot for s in trace.steps]
    expect(validate.check_trace(lines, report, n, d, snapshots) == [], "trace validator accepts a real trace")
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if rec.get("outcome") == "density_increment":
            rec["witness"]["count"] += 1
            lines[i] = json.dumps(rec, sort_keys=True)
            break
    expect(validate.check_trace(lines, report, n, d, snapshots) != [], "trace validator rejects a tampered count")


def check_no_program(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = bench("spectrum", 0, cwd=bare)
    expect(done.returncode != 0 and not done.stdout.strip(), "without src/, run.py fails and prints no result")


def main() -> None:
    tmp = ROOT / ".bench_out" / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        check_config()
        check_validators(tmp)
        check_no_program(tmp)
        check_smoke()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
