"""primediff benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 15 --trace 0

--trace 0 repeats the workload's timed section until --seconds of it have
run and prints the end-to-end metrics.  --trace 1 covers every workload,
whichever --workload names, so that every layer is measured: one untraced
pass, then in-process passes without and with timing wrappers around the
public functions of every layer; it prints the per-layer metrics.  Every CLI operation runs as
its own process (`primediff.cli:main`, the console script's entry point);
library-only operations run in one fresh worker process per run.  Outputs
are validated; the last line of stdout is the JSON result.  Results, with the
environment, are appended to .bench_out/results.jsonl, and the traced run's
spans go to .bench_out/spans-<seed>.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import ALL_CLI_OPS, CLI_PINS, SCALES, WORKLOADS, cli_ops, library_part  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".bench_out"
CLI_STUB = "import sys; from primediff.cli import main; sys.exit(main())"
SETUP_PROBES = 5  # at least this many fresh interpreters per run; setup_s is their median
MIN_PASSES = 3
OP_TIMEOUT_S = 120.0

# The host's speed drifts by up to 1.6x, in phases of seconds to minutes,
# from other tenants of the machine; no statistic of one run's own timings
# removes that.  So a fixed calibration job runs before the first process
# and after each timed process (CLI operation or set-up probe), and each
# such time is scaled to a host on which the job takes CAL_REF_S:
# time * CAL_REF_S / (mean of the two calibrations around it).  The job is
# a fresh interpreter that imports numpy and does pure-Python and numpy
# work, like the operations measured; it runs no program code.  The
# library sections scale their latencies the same way, in-process
# (library.py).
CAL_CODE = """
from fractions import Fraction
import numpy
rows = [(Fraction(k / 97.0) % 1, k, str(k)) for k in range(5000)]
for k in range(1, 20000):
    a, b = k, 400003
    while b:
        a, b = b, a % b
numpy.fft.rfft(numpy.arange(1 << 16) % 7.0)
"""
CAL_REF_S = 0.25

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("run_p50_ms", "ms"),
    ("run_p99_ms", "ms"),
]

_LAYER_FUNCTIONS = [
    # (metric name, unit, better)
    ("arith.build_tables.s", "s", "lower"),
    ("arith.build_tables.bytes", "B", "lower"),
    ("arith.characters_mod.s", "s", "lower"),
    ("arith.characters_mod.calls", "count", "lower"),
    ("arith.characters_mod.chars", "count", "lower"),
    ("arith.psi_chi.s", "s", "lower"),
    ("arith.psi_chi.calls", "count", "lower"),
    ("arith.psi.s", "s", "lower"),
    ("spectral.dirichlet_approx.s", "s", "lower"),
    ("spectral.dirichlet_approx.calls", "count", "lower"),
    ("spectral.ArcFamily.classify.calls", "count", "lower"),
    ("spectral.FareyArc.grid_indices.s", "s", "lower"),
    ("spectral.FareyArc.grid_indices.calls", "count", "lower"),
    ("spectral.grid_spectrum.s", "s", "lower"),
    ("spectral.grid_spectrum.calls", "count", "lower"),
    ("spectral.grid_spectrum.points", "count", "lower"),
    ("mangoldt.spectrum_report.s", "s", "lower"),
    ("mangoldt.spectrum_report.rows", "count", "lower"),
    ("mangoldt.render_csv_rows.s", "s", "lower"),
    ("mangoldt.render_csv_rows.bytes", "B", "lower"),
    ("mangoldt.label_mismatch_rows", "count", "lower"),
    ("mangoldt.q_mismatch_rows", "count", "lower"),
    ("increment.energy_table.s", "s", "lower"),
    ("increment.energy_table.calls", "count", "lower"),
    ("increment.energy_table.levels", "count", "lower"),
    ("increment.extract_progression.s", "s", "lower"),
    ("increment.extract_progression.calls", "count", "lower"),
    ("increment.extract_progression.shortfalls", "count", "lower"),
    ("increment.rescale.s", "s", "lower"),
    ("avoider.max_avoiding_exact.s", "s", "lower"),
    ("avoider.max_avoiding_exact.nodes", "count", "lower"),
    ("avoider.max_avoiding_exact.nodes_per_s", "1/s", "higher"),
    ("avoider.max_avoiding_exact.setup_s", "s", "lower"),
    ("avoider.greedy_avoiding.first_fit.s", "s", "lower"),
    ("avoider.greedy_avoiding.random_local.s", "s", "lower"),
    ("avoider.ForbiddenSet.build.s", "s", "lower"),
    ("avoider.ForbiddenSet.build.calls", "count", "lower"),
    ("avoider.find_forbidden_pair.s", "s", "lower"),
    ("avoider.find_forbidden_pair.calls", "count", "lower"),
    ("driver.run.s", "s", "lower"),
    ("driver.iterate_once.s", "s", "lower"),
    ("driver.iterate_once.calls", "count", "lower"),
    ("driver.certify.s", "s", "lower"),
    ("driver.trace_to_jsonl.s", "s", "lower"),
    *[(f"driver.outcome.{tag}", "count", "higher") for tag in (
        "structure_found", "small_n", "small_alpha",
        "large_d_or_small_alpha", "density_increment", "budget",
    )],
    ("driver.extract_yield", "ratio", "higher"),
]

PER_LAYER = _LAYER_FUNCTIONS + [
    metric
    for op in ALL_CLI_OPS
    for metric in (
        (f"cli.{op}.wall_s", "s", "lower"),
        (f"cli.{op}.rss_mb", "MB", "lower"),
        (f"cli.{op}.out_bytes", "B", "lower"),
        (f"cli.{op}.s", "s", "lower"),
    )
] + [
    ("cli.import_s", "s", "lower"),
    ("cli.spectrum_n5000.workers2_ratio", "ratio", "lower"),
    *[(f"bench.{w}.trace_overhead_frac", "ratio", "lower") for w in WORKLOADS],
    ("bench.failed_frac", "ratio", "lower"),
    ("bench.missing_spans", "count", "lower"),
]


class RunError(Exception):
    """The program or the checkout cannot be run at all."""


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one core for BLAS; the box has two
    return env


def _reap(proc: subprocess.Popen, timeout: float):
    """Wait for proc, killing it after timeout; returns (status, rusage)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_cli(op: dict, tmp: Path, extra: list[str] = ()) -> dict:
    """One CLI operation as its own process: wall time from spawn to exit,
    peak RSS, exit code and stderr; the output stays at res["path"]."""
    out_path, err_path = tmp / f"{op['name']}.out", tmp / f"{op['name']}.err"
    argv = [sys.executable, "-c", CLI_STUB, *op["argv"], *CLI_PINS, *extra, "--out", str(out_path)]
    with open(err_path, "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        code, usage = _reap(proc, OP_TIMEOUT_S)
        wall = time.perf_counter() - t0
        err.seek(0)
        err_text = err.read()
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024, "code": code, "err": err_text, "path": out_path,
            "err_path": err_path}


def validate_cli(op: dict, res: dict, seed: int, defects: bool = False,
                 passed: dict | None = None) -> tuple[list[str], dict]:
    """Errors of one CLI run, checked by validate.py in a separate process,
    and, on request, the spectrum defect counters.  `passed` maps an
    operation to the digest of an output that validate.py accepted; the
    operations are deterministic, so an output with that digest is correct
    and is not checked again."""
    if res["code"] != 0:
        return [f"{op['name']}: exit {res['code']}: {res['err'][-200:]}"], {}
    res["out_bytes"] = res["path"].stat().st_size
    digest = hashlib.sha256(res["path"].read_bytes()).hexdigest()
    if passed is not None and passed.get(op["name"]) == digest and not defects:
        res["path"].unlink()
        return [], {}
    argv = [sys.executable, str(HERE / "validate.py"), json.dumps(op), str(res["path"]), str(res["err_path"]), str(seed)]
    done = subprocess.run(argv + ["--defects"] * defects, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=OP_TIMEOUT_S)
    res["path"].unlink()
    if done.returncode != 0:
        return [f"{op['name']}: validator failed: {done.stderr[-300:]}"], {}
    checked = json.loads(done.stdout)
    errs = checked["errors"]
    if passed is not None and not errs:
        passed[op["name"]] = digest
    return ([f"{op['name']}: {errs[0]}"] if errs else []), checked.get("defects", {})


class Worker:
    """A worker.py process; `ready_s` is its set-up time from spawn."""

    def __init__(self, tmp: Path, mode: str, workload: str, seed: int, scale: str, *extra: str):
        self.err = open(tmp / f"worker-{mode}.err", "w+")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), scale, *extra],
            env=child_env(), cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.err, text=True,
        )
        self.reply()
        self.ready_s = time.perf_counter() - t0

    def reply(self) -> dict:
        timer = threading.Timer(OP_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        if not line:
            self.err.seek(0)
            tail = self.err.read()[-500:]
            self.close()
            raise RunError(f"worker ended early: {tail}")
        return json.loads(line)

    def request(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.reply()

    def close(self) -> float:
        """End the process; returns its peak RSS in MB."""
        if self.proc.returncode is not None:
            return 0.0
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        _, usage = _reap(self.proc, OP_TIMEOUT_S)
        self.proc.stdout.close()
        self.err.close()
        return usage.ru_maxrss / 1024


# ---------------------------------------------------------------------------
# measurement


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def setup_probe(workload: str, seed: int, scale: str, tmp: Path) -> float:
    """Spawn-to-ready time of a fresh interpreter doing the workload's set-up."""
    probe = Worker(tmp, "probe", workload, seed, scale)
    probe.close()
    return probe.ready_s


def calibrate() -> float:
    """Seconds the calibration job takes now."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", CAL_CODE], env=child_env(), cwd=ROOT,
                            stdout=subprocess.DEVNULL)
    code, _ = _reap(proc, OP_TIMEOUT_S)  # os.wait4: Popen.wait with a timeout polls in 50 ms steps
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RunError(f"calibration job exited {code}")
    return elapsed


def timed_run(workload: str, seed: int, seconds: float, scale: str, tmp: Path) -> dict:
    ops = cli_ops(workload, seed, scale)
    # an untimed import fills the bytecode cache first
    subprocess.run([sys.executable, "-c", "import primediff.cli"], env=child_env(), cwd=ROOT, check=True,
                   timeout=OP_TIMEOUT_S, capture_output=True)
    setup, walls, rss, errors = [], [], [], []
    per_op = {}  # operation -> its scaled latency in each pass, seconds
    passed = {}  # operation -> digest of its validated output
    attempted = failed = 0
    defects = {}
    worker = Worker(tmp, "serve", workload, seed, scale) if library_part(workload) else None
    cal, lib_cal = [calibrate()], []

    def scaled(t: float) -> float:
        """A time taken since the last calibration, scaled."""
        cal.append(calibrate())
        return t * CAL_REF_S / ((cal[-2] + cal[-1]) / 2)

    start, last = time.perf_counter(), 0.0
    try:
        # passes until the next would end after --seconds
        while len(walls) < MIN_PASSES or time.perf_counter() - start + last <= seconds:
            pass_start = time.perf_counter()
            setup.append(scaled(setup_probe(workload, seed, scale, tmp)))  # spread over the run
            wall = 0.0
            for op in ops:
                res = run_cli(op, tmp)
                per_op.setdefault(op["name"], []).append(scaled(res["wall_s"]))
                errs, counted = validate_cli(op, res, seed, defects=op["check"] == "spectrum" and not defects,
                                             passed=passed)
                defects.update(counted)
                wall += res["wall_s"]
                rss.append(res["rss_mb"])
                errors += errs
                failed += len(errs)
                attempted += 1
            if worker is not None:
                reply = worker.request("run")
                # scaled by the worker's own calibration
                for i, ms in enumerate(reply["lat_ms"]):
                    per_op.setdefault(i, []).append(ms / 1e3)
                wall += reply["wall_s"]
                attempted += reply["attempted"]
                failed += reply["failed"]
                errors += reply["errors"]
                lib_cal += reply["calibration_s"]
            walls.append(wall)
            last = time.perf_counter() - pass_start
    finally:
        if worker is not None:
            rss.append(worker.close())
    while len(setup) < SETUP_PROBES:
        setup.append(scaled(setup_probe(workload, seed, scale, tmp)))
    op_ms = [1e3 * statistics.median(v) for v in per_op.values()]
    metrics = {
        "wall_s": sum(op_ms) / 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(rss),
        "run_p50_ms": percentile(op_ms, 50),
        "run_p99_ms": percentile(op_ms, 99),
    }
    extra = {
        "passes": len(walls),
        "pass_walls_s": walls,  # as measured, not scaled
        "calibration_s": cal,
        "library_calibration_median_s": statistics.median(lib_cal) if lib_cal else None,
        "setup_samples_s": setup,
        "operations_per_pass": len(op_ms),
    }
    extra.update(defects)
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "errors": errors, "extra": extra}


def traced_run(seed: int, scale: str, tmp: Path) -> dict:
    """Every workload, so that every layer is measured: one untraced pass of
    the CLI operations as processes (wall, RSS, output size per operation;
    spectrum also at --workers 2), then worker.py's in-process plain and
    traced passes."""
    metrics, errors = {}, []
    attempted = 1  # the --workers 2 spectrum run
    for workload in WORKLOADS:
        for op in cli_ops(workload, seed, scale):
            res = run_cli(op, tmp)
            errs, _ = validate_cli(op, res, seed)
            errors += errs
            attempted += 1
            metrics[f"cli.{op['name']}.wall_s"] = res["wall_s"]
            metrics[f"cli.{op['name']}.rss_mb"] = res["rss_mb"]
            metrics[f"cli.{op['name']}.out_bytes"] = res.get("out_bytes", 0)
            if op["check"] == "spectrum":
                two = run_cli(op, tmp, ["--workers", "2"])  # argparse keeps the last --workers
                errs, _ = validate_cli(op, two, seed)
                errors += errs
                metrics["cli.spectrum_n5000.workers2_ratio"] = two["wall_s"] / res["wall_s"]
    spans_path = OUT / f"spans-{seed}.json"
    tracer = Worker(tmp, "trace", "all", seed, scale, str(tmp), str(spans_path))
    try:
        reply = tracer.reply()
    finally:
        tracer.close()
    metrics.update(reply["metrics"])
    extra = {
        "missing_spans": reply["missing"],
        "plain_inprocess_s": reply["plain_s"],
        "traced_inprocess_s": reply["traced_s"],
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return {
        "metrics": metrics,
        "attempted": attempted + reply["attempted"],
        "failed": len(errors) + reply["failed"],
        "errors": errors + reply["errors"],
        "extra": extra,
    }


# ---------------------------------------------------------------------------
# environment and output


def environment() -> dict:
    def read(path: str) -> str | None:
        try:
            return Path(path).read_text()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3_cache": (read("/sys/devices/system/cpu/cpu0/cache/index3/size") or "").strip() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full", help="tiny: smoke-test sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "primediff" / "cli.py").is_file():
        print(f"error: no primediff sources under {ROOT / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = traced_run(args.seed, args.scale, tmp)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, args.scale, tmp)
    except (RunError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    metrics = result["metrics"]
    if args.trace:
        metrics["bench.failed_frac"] = failed / attempted
        table = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        table = END_TO_END
    out = {name: {"value": float(metrics.get(name, 0)), "unit": unit} for name, unit in table}
    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "env": env, "metrics": out, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "errors": result["errors"][:20],
        "extra": result["extra"],
    }
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    for name, m in out.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':45s} {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for err in record["errors"][:5]:
        print(f"FAILED {err}")
    print("extra " + json.dumps(result["extra"]))
    print("env " + json.dumps(env))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
