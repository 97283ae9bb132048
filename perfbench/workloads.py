"""The four workloads: CLI operations with their checks, and seeded inputs
for the library-only parts.  Nothing here imports primediff.

Why each workload exists (see README.md for the metric predictions):

- spectrum: the analytic sweep; arc classification and CSV rendering do the
  work, the sieve and the increment layer almost none.
- driver: the density-increment driver on many small inputs; energy_table
  and many tiny FFT grids do the work.
- tables: the arith layer (a sieve to 1e6, a 100k-row sieve CSV, character
  inversion).
- search: the avoider layer (node-bound and setup-bound exact search, local
  search, first-fit ending at small_alpha).

Every operation is kept under about a second, so that a run of the
benchmark repeats each one many times and its median is steady on a shared
host.  The workload seed picks validation samples and library inputs; the CLI
arguments are fixed.
"""

from __future__ import annotations

import math

import numpy as np

from validate import first_fit

WORKLOADS = ("spectrum", "driver", "tables", "search")
SCALES = ("full", "tiny")  # tiny: the self-test's smoke size

# every CLI operation pins these, see README.md for the --workers 1 choice
CLI_PINS = ["--workers", "1", "--timestamp", "T"]


def _op(name: str, argv: list[str], check: str, **params) -> dict:
    return {"name": name, "argv": argv, "check": check, "params": params}


def cli_ops(workload: str, seed: int, scale: str) -> list[dict]:
    """CLI operations of a workload, in the order they run in one pass."""
    tiny = scale == "tiny"
    if workload == "spectrum":
        n, qp, bq = (2000, 20, 200) if tiny else (5000, 20, 2500)
        argv = ["spectrum", "--n", str(n), "--d", "1", "--q-prime", str(qp), "--big-q", str(bq)]
        return [_op("spectrum_n5000", argv, "spectrum", n=n, d=1, q_prime=qp, big_q=bq)]
    if workload == "tables":
        x, n_max = (20000, 5000) if tiny else (1_000_000, 100_000)
        return [
            _op("psi_x1e6", ["psi", "--x", str(x), "--q", "4", "--a", "1"], "psi", x=x, q=4, a=1),
            _op("sieve_n100000", ["sieve", "--n-max", str(n_max)], "sieve", n_max=n_max),
        ]
    if workload == "search":
        n_exact, budget, optimum = (40, 100_000, None) if tiny else (88, 3_000_000, 10)
        n_wide, n_local, n_iter = (300, 2000, 5000) if tiny else (600, 3000, 100_000)

        def extremal(n, mode, *extra):
            return ["extremal", "--n", str(n), "--d", "1", "--mode", mode, *extra]

        return [
            _op("exact_n88", extremal(n_exact, "exact", "--budget", str(budget)),
                "extremal", n=n_exact, d=1, optimum=optimum),
            _op("exact_n600", extremal(n_wide, "exact", "--budget", "1000"),
                "extremal", n=n_wide, d=1, at_least_first_fit=True),
            # a fixed search seed: its running time varies 1.8x with the seed
            _op("local_n3000", extremal(n_local, "random-local", "--seed", "1"),
                "extremal", n=n_local, d=1, at_least_first_fit=True),
            _op("iterate_n100000", ["iterate", "--greedy", "--n", str(n_iter)],
                "iterate", n=n_iter, d=1),
        ]
    return []


# every operation name that can appear, for the per-layer metric list
ALL_CLI_OPS = (
    "spectrum_n5000", "psi_x1e6", "sieve_n100000",
    "exact_n88", "exact_n600", "local_n3000", "iterate_n100000",
)


def library_part(workload: str) -> str | None:
    """The in-process library section a workload runs after its CLI ops."""
    return {"driver": "driver", "tables": "characters"}.get(workload)


def library_table_size(workload: str, scale: str) -> int:
    if workload == "driver":
        return 4004 if scale == "full" else 804
    return 10_000  # characters: x <= 1e4


def _stratified(rng, count: int, lo: int, hi: int) -> np.ndarray:
    """One uniform draw in each of `count` equal slices of [lo, hi], shuffled:
    the seed moves the inputs, not the mix of sizes."""
    u = (np.arange(count) + rng.random(count)) / count
    return rng.permutation(lo + np.floor(u * (hi - lo + 1)).astype(np.int64))


def driver_inputs(seed: int, scale: str) -> list[tuple[int, int, list[int]]]:
    """(n, d, elements) in the mix of acceptance criterion 12: random subsets,
    unions of residue classes and first-fit avoiding sets, n in [32, 1000],
    d in [1, 4].  Sizes are stratified per kind so the cost of a pass does
    not depend on the seed."""
    count, n_hi = (500, 1000) if scale == "full" else (30, 200)
    rng = np.random.default_rng(seed)
    inputs = []
    for kind in range(3):
        k = len(range(kind, count, 3))
        ns = _stratified(rng, k, 32, n_hi)
        ds = 1 + rng.permutation(np.arange(k) % 4)
        fill = (np.arange(k) + rng.random(k)) / k  # random-subset density, stratified
        rng.shuffle(fill)
        for n, d, f in zip(ns.tolist(), ds.tolist(), fill.tolist()):
            if kind == 0:
                size = max(1, math.ceil(f * n))
                elements = (rng.choice(n, size=size, replace=False) + 1).tolist()
            elif kind == 1:
                m = int(rng.integers(3, 13))
                residues = rng.choice(m, size=int(rng.integers(1, 4)), replace=False)
                elements = [x for x in range(1, n + 1) if x % m in residues] or [1]
            else:
                elements = first_fit(n, d)
            inputs.append((n, d, sorted(elements)))
    order = rng.permutation(len(inputs))
    return [inputs[i] for i in order]


def character_calls(seed: int, scale: str) -> list[tuple[int, int, int]]:
    """(x, q, a) for q in 2..30, every unit a mod q, and two seeded x: one
    in [1000, 1500), one in [9000, 9500), so the seed moves x but not the
    cost of a pass."""
    q_top = 30 if scale == "full" else 12
    xs = (np.random.default_rng(seed).integers(0, 500, size=2) + [1000, 9000]).tolist()
    return [
        (x, q, a)
        for q in range(2, q_top + 1)
        for x in xs
        for a in range(1, q)
        if math.gcd(a, q) == 1
    ]
