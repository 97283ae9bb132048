"""One digest of the driver's traces and certification on the benchmark inputs.

For each seed in order, and each of perfbench/workloads.py's driver inputs
in order, the input (n, d, elements) is run with the default
IterationConfig, and `"\\n".join(trace_to_jsonl(trace) + certify(trace))`
is fed to one SHA-256 as UTF-8, with no separator between inputs.  The
hex digest is printed on one line.  A change to the driver, the energy
table or the recount that keeps this digest keeps every trace and
certification byte of those inputs.

    python tools/tracedigest.py                 # seeds 1 2 3 7 11
    python tools/tracedigest.py --seeds 61 62

perfbench/workloads.py is imported, never changed.  Stdlib and numpy only.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def digest(seeds: list[int], scale: str) -> str:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from primediff.driver import IterationConfig, certify, run, trace_to_jsonl
    from primediff.increment import DensitySet
    from workloads import driver_inputs

    config = IterationConfig()
    h = hashlib.sha256()
    for seed in seeds:
        for n, d, elements in driver_inputs(seed, scale):
            trace = run(DensitySet.from_iterable(n, elements), d, config)
            h.update("\n".join(trace_to_jsonl(trace) + certify(trace)).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 7, 11])
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    print(digest(args.seeds, args.scale))
    return 0


if __name__ == "__main__":
    sys.exit(main())
