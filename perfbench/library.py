"""Library-only workload sections, run inside worker.py.

Functions are looked up through their module at call time
(`driver.run`, `arith.verify_inversion`), so the traced run's wrappers,
installed on those module attributes, see every call.
"""

from __future__ import annotations

import time

import numpy as np

from primediff import arith, driver, increment

import validate
from workloads import character_calls, driver_inputs, library_table_size


CHUNK = 25  # inputs or calls between two calibrations
LIB_CAL_REF_S = 0.008  # about what calibration_job takes on the machine in README.md


def calibration_job() -> float:
    """Seconds of a fixed in-process job like a small driver input (tiny
    FFTs and an integer loop, no program code), to scale library latencies
    to a reference host speed as run.py does for processes."""
    t0 = time.perf_counter()
    x = np.arange(1.0, 257.0)
    for k in range(1, 400):
        np.abs(np.fft.rfft(x * k)).sum()
    for k in range(1, 10000):
        a, b = k, 400003
        while b:
            a, b = b, a % b
    return time.perf_counter() - t0


def timed_calls(items, call, between) -> tuple[list[float], list]:
    """Latency and result of call(item) for each item; between() runs after
    every CHUNK items, outside the timing."""
    latencies, results = [], []
    for i, item in enumerate(items):
        if i and i % CHUNK == 0:
            between()
        t0 = time.perf_counter()
        results.append(call(item))
        latencies.append(time.perf_counter() - t0)
    return latencies, results


class DriverSection:
    """run + certify + trace_to_jsonl on each of the seeded inputs."""

    one_latency = False

    def __init__(self, seed: int, scale: str):
        self.tables = arith.build_tables(library_table_size("driver", scale))
        self.config = driver.IterationConfig()
        self.inputs = [
            (increment.DensitySet.from_iterable(n, elements), d)
            for n, d, elements in driver_inputs(seed, scale)
        ]

    def run(self, between=lambda: None) -> tuple[list[float], list]:
        return timed_calls(self.inputs, self._one, between)

    def _one(self, item):
        A, d = item
        try:
            trace = driver.run(A, d, self.config, self.tables)
            return trace, driver.certify(trace, self.tables), driver.trace_to_jsonl(trace)
        except Exception as exc:  # a failing input is counted, the pass goes on
            return exc

    def check(self, results: list) -> list[str]:
        """One error string per failed input."""
        errors = []
        for (A, d), res in zip(self.inputs, results):
            if isinstance(res, Exception):
                errors.append(f"driver: n={A.n} d={d} raised {res!r}")
                continue
            trace, report, lines = res
            snapshots = [s.set_snapshot for s in trace.steps]
            errs = validate.check_trace(lines, report, A.n, d, snapshots)
            if errs:
                errors.append(f"driver: n={A.n} d={d}: {errs[0]}")
        return errors


class CharactersSection:
    """verify_inversion(x, q, a) over every unit class for q in 2..30.
    The section's total is one latency: a call takes about a millisecond,
    too little to time one by one on a shared host."""

    one_latency = True

    def __init__(self, seed: int, scale: str):
        self.tables = arith.build_tables(library_table_size("tables", scale))
        self.calls = character_calls(seed, scale)

    def run(self, between=lambda: None) -> tuple[list[float], list]:
        return timed_calls(self.calls, self._one, between)

    def _one(self, call):
        x, q, a = call
        try:
            return arith.verify_inversion(float(x), q, a, self.tables)
        except Exception:  # counted as failed by check()
            return None

    def check(self, results: list) -> list[str]:
        return validate.check_inversion(self.calls, results)


SECTIONS = {"driver": DriverSection, "characters": CharactersSection}
