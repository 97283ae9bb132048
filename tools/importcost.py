"""The primediff source each benchmark CLI operation compiles, by module.

For each CLI operation of perfbench/workloads.py (full scale), one fresh
interpreter runs it through primediff.cli.main with PYTHONDONTWRITEBYTECODE=1,
as the benchmark does, so it compiles every module it imports.  Then it
lists the primediff modules it loaded, with each one's source lines and the
warm compile() time of its source (the least of 5 calls, in ms), their
total, and whether numpy was loaded.

    python tools/importcost.py

The child processes use the stdlib alone; perfbench/workloads.py, which
lists the operations, is imported here, never changed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import contextlib, io, json, sys, time
from primediff.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
rows = []
for name in sorted(m for m in sys.modules if m.split(".")[0] == "primediff"):
    path = sys.modules[name].__file__
    with open(path) as fh:
        source = fh.read()
    times = []
    for _ in range(5):
        start = time.perf_counter()
        compile(source, path, "exec")
        times.append(time.perf_counter() - start)
    rows.append((name, source.count("\\n"), 1e3 * min(times)))
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules, "rows": rows}))
"""


def main() -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import CLI_PINS, WORKLOADS, cli_ops

    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    for workload in WORKLOADS:
        for op in cli_ops(workload, 7, "full"):
            argv = [sys.executable, "-c", CHILD, *op["argv"], *CLI_PINS]
            out = json.loads(subprocess.run(argv, env=env, capture_output=True, text=True,
                                            check=True).stdout)
            print(f"{op['name']} (exit {out['code']}, numpy {'loaded' if out['numpy'] else 'not loaded'})")
            for name, lines, ms in out["rows"]:
                print(f"  {name:<22}{lines:>6}{ms:>8.2f} ms")
            print(f"  {'total':<22}{sum(r[1] for r in out['rows']):>6}"
                  f"{sum(r[2] for r in out['rows']):>8.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
