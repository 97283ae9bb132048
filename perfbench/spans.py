"""Span recorder for the traced run, installed from the benchmark's side.

Each target is a public function of a primediff layer.  `install` replaces
it on every primediff module (and class) attribute that holds it, so calls
through `from .x import f` copies are seen too.  A target a later change
removed is listed as missing instead of failing the run.

Spans (name, start, end, parent) stay in memory.  After DETAIL_LIMIT calls of
one name only its count and times are kept, which bounds memory for the
functions called hundreds of thousands of times (dirichlet_approx,
FareyArc.grid_indices).  Self time is a span's duration minus the
durations of its wrapped children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

DETAIL_LIMIT = 10_000

class Recorder:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.spans = []  # [name, start, end, parent span index or -1]
        self.missing = []
        self._stack = []  # per open span: [child seconds, nearest recorded span index]

    def wrap(self, name, fn, count=None):
        """fn timed under `name`, a string or a function of (args, kwargs).
        `count(rec, args, kwargs, result, error, seconds)` adds counters."""
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            key = name if isinstance(name, str) else name(args, kwargs)
            parent = stack[-1][1] if stack else -1
            self.calls[key] += 1
            sid = parent
            t0 = time.perf_counter()
            if self.calls[key] <= DETAIL_LIMIT:
                sid = len(spans)
                spans.append([key, t0, t0, parent])
            frame = [0.0, sid]
            stack.append(frame)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                if sid != parent:
                    spans[sid][2] = t1
                self.total[key] += dur
                self.self_time[key] += dur - frame[0]
                if count is not None:
                    count(self, args, kwargs, result, error, dur)

        return timed

    def dump(self) -> dict:
        return {
            "detail_limit": DETAIL_LIMIT,
            "functions": {
                k: {"calls": self.calls[k], "total_s": self.total[k], "self_s": self.self_time[k]}
                for k in sorted(self.calls)
            },
            "counts": dict(sorted(self.counts.items())),
            "missing": self.missing,
            "spans": self.spans,
        }


# ---------------------------------------------------------------------------
# counters taken at the wrapped boundaries


def _table_bytes(rec, args, kwargs, result, error, dur):
    if result is not None:
        rec.counts["arith.build_tables.bytes"] += sum(
            v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray)
        )


def _characters(rec, args, kwargs, result, error, dur):
    if result is not None:
        rec.counts["arith.characters_mod.chars"] += len(result)


def _grid_points(rec, args, kwargs, result, error, dur):
    if result is not None:
        rec.counts["spectral.grid_spectrum.points"] += result.m


def _report_rows(rec, args, kwargs, result, error, dur):
    if result is not None:
        rec.counts["mangoldt.spectrum_report.rows"] += len(result)


def _csv_bytes(rec, args, kwargs, result, error, dur):
    if result is not None:
        rec.counts["mangoldt.render_csv_rows.bytes"] += sum(len(line) + 1 for line in result)


def _levels(rec, args, kwargs, result, error, dur):
    if result is not None:
        rec.counts["increment.energy_table.levels"] += len(result.rows)


def _shortfalls(rec, args, kwargs, result, error, dur):
    if type(error).__name__ == "EnergyShortfall":
        rec.counts["increment.extract_progression.shortfalls"] += 1


def _search(rec, args, kwargs, result, error, dur):
    if result is not None:
        rec.counts["avoider.max_avoiding_exact.nodes"] += result.nodes
        rec.counts["avoider.max_avoiding_exact.search_s"] += result.seconds
        rec.counts["avoider.max_avoiding_exact.setup_s"] += dur - result.seconds


def _greedy_name(args, kwargs):
    strategy = kwargs.get("strategy", args[1] if len(args) > 1 else "first_fit")
    return f"avoider.greedy_avoiding.{strategy}"


def _step_outcome(rec, args, kwargs, result, error, dur):
    if result is not None:
        rec.counts[f"driver.outcome.{result[0].tag}"] += 1


def _run_terminal(rec, args, kwargs, result, error, dur):
    if result is not None and result.terminal == "budget":
        rec.counts["driver.outcome.budget"] += 1


# (target under primediff, span name or None for the target itself, counter)
TARGETS = [
    ("arith.build_tables", None, _table_bytes),
    ("arith.characters_mod", None, _characters),
    ("arith.psi_chi", None, None),
    ("arith.psi", None, None),
    ("spectral.dirichlet_approx", None, None),
    ("spectral.ArcFamily.classify", None, None),
    ("spectral.FareyArc.grid_indices", None, None),
    ("spectral.grid_spectrum", None, _grid_points),
    ("mangoldt.spectrum_report", None, _report_rows),
    ("mangoldt.render_csv_rows", None, _csv_bytes),
    ("increment.energy_table", None, _levels),
    ("increment.extract_progression", None, _shortfalls),
    ("increment.rescale", None, None),
    ("avoider.max_avoiding_exact", None, _search),
    ("avoider.greedy_avoiding", _greedy_name, None),
    ("avoider.ForbiddenSet.build", None, None),
    ("avoider.find_forbidden_pair", None, None),
    ("driver.run", None, _run_terminal),
    ("driver.iterate_once", None, _step_outcome),
    ("driver.certify", None, None),
    ("driver.trace_to_jsonl", None, None),
]


def install(rec: Recorder) -> None:
    """Wrap every target on each attribute through which callers reach it."""
    for target, name, count in TARGETS:
        module_name, _, attr = target.partition(".")
        try:
            module = importlib.import_module(f"primediff.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
            else:
                original = getattr(module, attr)
        except (ImportError, AttributeError, KeyError):
            rec.missing.append(target)
            continue
        if "." in attr:
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(rec.wrap(name or target, raw.__func__, count)))
            else:
                setattr(cls, meth, rec.wrap(name or target, raw, count))
            continue
        wrapped = rec.wrap(name or target, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is not None and (mod_name == "primediff" or mod_name.startswith("primediff.")):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer metric values by name (see run.PER_LAYER); absent means 0."""
    out = dict(rec.counts)
    for key in rec.calls:
        out[f"{key}.s"] = rec.self_time[key]
        out[f"{key}.calls"] = rec.calls[key]
    searched = out.pop("avoider.max_avoiding_exact.search_s", 0.0)
    if searched > 0:
        out["avoider.max_avoiding_exact.nodes_per_s"] = out["avoider.max_avoiding_exact.nodes"] / searched
    attempts = rec.calls.get("increment.extract_progression", 0)
    if attempts:
        out["driver.extract_yield"] = out.get("driver.outcome.density_increment", 0) / attempts
    return out
