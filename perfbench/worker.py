"""Child process of the benchmark; run.py starts it with src/ on PYTHONPATH.

    worker.py probe W SEED SCALE          set up workload W, print the ready
                                          line, exit
    worker.py serve W SEED SCALE          set up W, then one timed library
                                          pass per "run" line on stdin
    worker.py trace all SEED SCALE OUTDIR SPANS
                                          every workload in-process, once
                                          plain and once traced; spans are
                                          written to SPANS

Set-up is `import primediff` and `primediff.cli`, plus, for the library
workloads, the table build and input generation.  The ready line goes out
once set-up is done, so run.py times set-up from process start.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def _import_program() -> float:
    t0 = time.perf_counter()
    import primediff.cli  # noqa: F401  (imports primediff too)

    return time.perf_counter() - t0


def _section(workload: str, seed: int, scale: str):
    """The workload's library section, set up; None for CLI-only workloads."""
    from workloads import library_part

    part = library_part(workload)
    if part is None:
        return None
    from library import SECTIONS

    return SECTIONS[part](seed, scale)


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def serve(section) -> None:
    """One pass per "run" line.  Latencies are scaled to a reference host
    speed like run.py's times (see CAL_REF_S there), by an in-process job
    before, between and after chunks of the section: a latency becomes
    t * LIB_CAL_REF_S / (mean of the two jobs around its chunk)."""
    from library import CHUNK, LIB_CAL_REF_S, calibration_job

    for line in sys.stdin:
        if line.strip() != "run":
            break
        cal = [calibration_job()]
        t0 = time.perf_counter()
        latencies, results = section.run(lambda: cal.append(calibration_job()))
        wall = time.perf_counter() - t0
        cal.append(calibration_job())
        scaled = [
            t * LIB_CAL_REF_S / ((cal[i // CHUNK] + cal[i // CHUNK + 1]) / 2)
            for i, t in enumerate(latencies)
        ]
        if section.one_latency:
            scaled = [sum(scaled)]
        errors = section.check(results)
        _emit({
            "wall_s": wall,
            "lat_ms": [1e3 * t for t in scaled],
            "calibration_s": cal,
            "attempted": len(results),
            "failed": len(errors),
            "errors": errors[:5],
        })


def _workload_pass(ops, section, call, seed: int, outdir: str):
    """Each CLI op through primediff.cli.main, then the library section.
    Returns (seconds, attempted, errors, (op, text) of a valid spectrum output
    or None)."""
    from validate import check_cli
    from workloads import CLI_PINS

    wall, errors, spectrum = 0.0, [], None
    for op in ops:
        path = f"{outdir}/{op['name']}.out"
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = call(op["name"], op["argv"] + CLI_PINS + ["--out", path])
        except (Exception, SystemExit) as exc:  # counted as a failed operation
            rc = repr(exc)
        wall += time.perf_counter() - t0
        if rc != 0:
            errors.append(f"{op['name']}: exit {rc}: {err.getvalue()[-200:]}")
            continue
        with open(path) as fh:
            text = fh.read()
        errs = check_cli(op, text, err.getvalue(), seed)
        if errs:
            errors.append(f"{op['name']}: {errs[0]}")
        elif op["check"] == "spectrum":
            spectrum = (op, text)
    attempted = len(ops)
    if section is not None:
        t0 = time.perf_counter()
        _, results = section.run()
        wall += time.perf_counter() - t0
        attempted += len(results)
        errors += section.check(results)
    return wall, attempted, errors, spectrum


def trace(seed: int, scale: str, outdir: str, spans_path: str, import_s: float, sections: dict) -> None:
    """Every workload once plain, then once with the wrappers installed."""
    import primediff.cli
    import spans as tracing
    from validate import spectrum_defects
    from workloads import WORKLOADS, cli_ops

    rec = tracing.Recorder()
    ops = {w: cli_ops(w, seed, scale) for w in WORKLOADS}
    plain_call = lambda name, argv: primediff.cli.main(argv)  # noqa: E731
    plain = {w: _workload_pass(ops[w], sections[w], plain_call, seed, outdir) for w in WORKLOADS}

    tracing.install(rec)
    traced_call = lambda name, argv: rec.wrap(f"cli.{name}", primediff.cli.main)(argv)  # noqa: E731
    traced = {
        w: rec.wrap(f"workload.{w}", _workload_pass)(ops[w], sections[w], traced_call, seed, outdir)
        for w in WORKLOADS
    }

    metrics = tracing.layer_metrics(rec)
    metrics["cli.import_s"] = import_s
    metrics["bench.missing_spans"] = len(rec.missing)
    for w in WORKLOADS:
        metrics[f"bench.{w}.trace_overhead_frac"] = traced[w][0] / plain[w][0] - 1.0
        if traced[w][3] is not None:
            op, text = traced[w][3]
            defects = spectrum_defects(text, op["params"]["q_prime"], op["params"]["big_q"])
            metrics.update({f"mangoldt.{k}": v for k, v in defects.items()})
    with open(spans_path, "w") as fh:
        json.dump(rec.dump(), fh)
    errors = [e for w in WORKLOADS for e in plain[w][2] + traced[w][2]]
    _emit({
        "metrics": metrics,
        "missing": rec.missing,
        "attempted": sum(plain[w][1] + traced[w][1] for w in WORKLOADS),
        "failed": len(errors),
        "errors": errors[:5],
        "plain_s": {w: plain[w][0] for w in WORKLOADS},
        "traced_s": {w: traced[w][0] for w in WORKLOADS},
    })


def main() -> None:
    mode, workload, seed, scale = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
    import_s = _import_program()
    if mode == "trace":
        from workloads import WORKLOADS

        sections = {w: _section(w, seed, scale) for w in WORKLOADS}
        _emit({"ready": True})
        trace(seed, scale, sys.argv[5], sys.argv[6], import_s, sections)
        return
    section = _section(workload, seed, scale)
    _emit({"ready": True})
    if mode == "serve":
        serve(section)


if __name__ == "__main__":
    main()
