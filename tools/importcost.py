"""The primediff source each benchmark CLI operation compiles, by module,
and the operation's own peak resident memory.

For each CLI operation of perfbench/workloads.py (full scale), one fresh
interpreter runs it as the benchmark does: through primediff.cli.main()
without argv, so the cyclic collector is paused, with
PYTHONDONTWRITEBYTECODE=1, so it compiles every module it imports, and with
--out to a temporary file, so no captured output adds to its memory.  As
soon as the command returns, the child reads its own peak resident set
(VmHWM in /proc/self/status; "n/a" where there is none).  Then it lists
the primediff modules it loaded, with each one's source lines and the warm
compile() time of its source (the least of 5 calls, in ms), their total,
and whether numpy was loaded.

    python tools/importcost.py

The benchmark's peak_rss_mb is one figure per workload, which may be set by
the runner rather than by any one operation; the peaks here are per
operation.  The child processes use the stdlib alone;
perfbench/workloads.py, which lists the operations, is imported here, never
changed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, re, sys, time
from primediff.cli import main
code = main()
try:
    with open("/proc/self/status") as fh:
        peak_kb = int(re.search(r"VmHWM:\\s+(\\d+) kB", fh.read()).group(1))
except OSError:
    peak_kb = None
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
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules, "peak_kb": peak_kb,
                  "rows": rows}))
"""


def main() -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import CLI_PINS, WORKLOADS, cli_ops

    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        out_path = str(Path(tmp) / "out")
        for workload in WORKLOADS:
            for op in cli_ops(workload, 7, "full"):
                argv = [sys.executable, "-c", CHILD, *op["argv"], *CLI_PINS, "--out", out_path]
                out = json.loads(subprocess.run(argv, env=env, capture_output=True, text=True,
                                                check=True).stdout)
                peak = "n/a" if out["peak_kb"] is None else f"{out['peak_kb'] / 1024:.1f} MB"
                print(f"{op['name']} (exit {out['code']}, numpy "
                      f"{'loaded' if out['numpy'] else 'not loaded'}, peak {peak})")
                for name, lines, ms in out["rows"]:
                    print(f"  {name:<22}{lines:>6}{ms:>8.2f} ms")
                print(f"  {'total':<22}{sum(r[1] for r in out['rows']):>6}"
                      f"{sum(r[2] for r in out['rows']):>8.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
