"""End-to-end tests for the command-line surface: values, schemas,
manifests, determinism, and exit codes."""

import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from primediff import arith, cli, csvtext, driver, mangoldt, tables
from primediff.arith import TABLE_CAP
from primediff.errors import CertificationError
from primediff.increment import DensitySet

from oracles import (
    avoiding_prefix_optima,
    dft_naive,
    first_fit_naive,
    forbidden_diffs_naive,
    mangoldt_naive,
    mobius_naive,
    phi_naive,
    psi_naive,
)

TAGS = {
    "structure_found",
    "small_n",
    "small_alpha",
    "large_d_or_small_alpha",
    "density_increment",
    "budget",
}


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPsiCommand:
    def test_value_matches_oracle(self, capsys):
        code, out, _ = run_cli(["psi", "--x", "10", "--q", "1", "--a", "0"], capsys)
        assert code == 0
        value = float(out.splitlines()[0])
        assert abs(value - psi_naive(10, 1, 0)) < 1e-9
        assert abs(value - 7.832014) < 5e-7

    def test_empty_sum(self, capsys):
        code, out, _ = run_cli(["psi", "--x", "0", "--q", "3", "--a", "1"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "0"

    def test_manifest_line(self, capsys):
        code, out, _ = run_cli(
            ["psi", "--x", "10", "--q", "1", "--a", "0", "--timestamp", "T"], capsys
        )
        line = out.splitlines()[-1]
        assert line.startswith("# manifest: ")
        manifest = json.loads(line[len("# manifest: ") :])
        assert manifest["command"] == "psi"
        assert manifest["parameters"] == {"x": 10.0, "q": 1, "a": 0}
        assert manifest["timestamp"] == "T"

    def test_benchmark_value_is_pinned(self, capsys):
        """The text of psi --x 1000000 --q 4 --a 1, byte for byte."""
        code, out, err = run_cli(
            ["psi", "--x", "1000000", "--q", "4", "--a", "1", "--timestamp", "T"], capsys
        )
        assert (code, err) == (0, "")
        assert out == (
            "499368.802694\n"
            '# manifest: {"command": "psi", "parameters": {"a": 1, "q": 4, "x": 1000000.0}, '
            '"seed": 0, "timestamp": "T", "versions": "primediff/0.1.0"}\n'
        )

    def test_domain_error_exit(self, capsys):
        code, _, err = run_cli(["psi", "--x", "-3", "--q", "1", "--a", "0"], capsys)
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("x", ["-0.5", "-1e-05", "-1E+2", "-.5e1"])
    def test_negative_x_reaches_domain_check(self, x, capsys):
        """A negative --x, in exponent form too, is read as the option's
        value and refused by the domain check, not taken for an option."""
        code, out, err = run_cli(["psi", "--x", x, "--q", "1", "--a", "0"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error: need x >= 0")


class TestLambdaCommand:
    def test_at_zero_is_total_mass(self, capsys):
        code, out, _ = run_cli(["lambda", "--n", "5", "--d", "2", "--at", "0"], capsys)
        assert code == 0
        re, im = map(float, out.splitlines()[0].split())
        want = sum(mangoldt_naive(2 * x + 1) for x in range(1, 6))
        assert abs(re - want) < 1e-9
        assert im == 0.0
        assert abs(re - 8.1504679) < 1e-6

    def test_rational_point(self, capsys):
        code, out, _ = run_cli(["lambda", "--n", "5", "--d", "2", "--at", "1/3"], capsys)
        re, im = map(float, out.splitlines()[0].split())
        vals = [mangoldt_naive(2 * x + 1) for x in range(1, 6)]
        want = dft_naive(vals, 1, 1 / 3)
        assert abs(complex(re, im) - want) < 1e-9

    def test_float_point(self, capsys):
        code, out, _ = run_cli(["lambda", "--n", "5", "--d", "2", "--at", "0.31"], capsys)
        re, im = map(float, out.splitlines()[0].split())
        vals = [mangoldt_naive(2 * x + 1) for x in range(1, 6)]
        want = dft_naive(vals, 1, 0.31)
        assert abs(complex(re, im) - want) < 1e-9

    def test_unparseable_point_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["lambda", "--n", "5", "--d", "2", "--at", "zebra"])
        assert exc.value.code == 2

    def test_denominator_past_int64_is_usage_error(self, capsys):
        """A reduced denominator that does not fit int64 is a malformed
        --at, not an OverflowError inside the transform."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["lambda", "--n", "10", "--d", "1", "--at", "1/100000000000000000000000"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --at" in err and "Traceback" not in err

    @pytest.mark.parametrize("at", ["1/0", "1/-3", "0/0"])
    def test_denominator_below_one_is_usage_error(self, at, capsys):
        """TorusPoint refuses a denominator below 1, and argparse reports
        the refusal as a malformed --at."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["lambda", "--n", "10", "--d", "1", "--at", at])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(f"error: argument --at: invalid _parse_at value: '{at}'")


def test_weight_commands_build_no_tables(capsys, monkeypatch):
    """lambda and spectrum read Lambda(d x + 1) from the prime bitmap: both
    run with a build_tables that raises."""

    def boom(n_max):
        raise AssertionError("build_tables ran")

    monkeypatch.setattr(tables, "build_tables", boom)
    for argv in (["lambda", "--n", "500", "--d", "3", "--at", "1/3"],
                 ["spectrum", "--n", "500", "--d", "3", "--q-prime", "4", "--big-q", "40"]):
        code, out, err = run_cli(argv + ["--timestamp", "T"], capsys)
        assert code == 0 and err == "" and out.splitlines()[-1].startswith("# manifest: ")


@pytest.mark.parametrize(
    "command, tail",
    [("lambda", ["--at", "1/3"]), ("spectrum", ["--q-prime", "1", "--big-q", "3"])],
)
def test_weight_refusals_at_the_edges(command, tail, capsys):
    """lambda and spectrum at every n, d in {-1, 0, 1, 2, TABLE_CAP,
    2^63 - 1}: each run succeeds in silence or exits 3 with one error
    line.  n or d below 1 is refused as such, whatever d n + 1 is, and
    d n + 1 past TABLE_CAP as the weight's budget."""
    edges = (-1, 0, 1, 2, TABLE_CAP, 2**63 - 1)
    for n, d in itertools.product(edges, repeat=2):
        argv = [command, "--n", str(n), "--d", str(d), *tail, "--timestamp", "T"]
        code, out, err = run_cli(argv, capsys)
        if n < 1 or d < 1:
            assert err == f"error: need n, d >= 1, got n={n}, d={d}\n", argv
        elif d * n + 1 > TABLE_CAP:
            assert err == f"error: tables limited to n_max <= {TABLE_CAP}, got {d * n + 1}\n", argv
        if code == 0:
            assert err == "", argv
        else:
            assert code == 3 and out == "", argv
            assert len(err.splitlines()) == 1 and err.startswith("error: "), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["psi", "--x", "nan", "--q", "1", "--a", "0"],
        ["psi", "--x", "inf", "--q", "1", "--a", "0"],
        ["lambda", "--n", "5", "--d", "2", "--at", "nan"],
        ["lambda", "--n", "5", "--d", "2", "--at", "inf"],
    ],
)
def test_non_finite_float_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sieve", "--n-max", str(TABLE_CAP + 1)],
        ["psi", "--x", str(TABLE_CAP + 1), "--q", "1", "--a", "1"],
        ["lambda", "--n", str(TABLE_CAP // 2), "--d", "2", "--at", "0"],
        ["spectrum", "--n", str(TABLE_CAP), "--d", "1", "--q-prime", "2", "--big-q", "10"],
    ],
)
def test_table_cap_is_resource_error(argv, capsys):
    """Each of these needs tables to TABLE_CAP + 1."""
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "tables limited" in err


def test_psi_refuses_huge_x_in_one_short_line(capsys):
    """x past TABLE_CAP is refused as x, not as a 301-digit n_max."""
    code, out, err = run_cli(["psi", "--x", "1e300", "--q", "4", "--a", "1"], capsys)
    assert code == 3 and out == ""
    assert err == f"error: tables limited to n_max <= {TABLE_CAP}, got x = 1e+300\n"
    assert len(err) < 120


@pytest.mark.parametrize(
    "argv",
    [
        ["lambda", "--d", "1", "--at", "1/3"],
        ["spectrum", "--d", "1", "--q-prime", "2", "--big-q", "10", "--grid-factor", "1"],
    ],
)
def test_tables_end_at_d_n_plus_1(argv, capsys, monkeypatch):
    """lambda and spectrum read Lambda(d x + 1) for x <= n, so n =
    TABLE_CAP - 1 at d = 1 fits under the cap and n = TABLE_CAP does not
    (spectrum's grid, n points at grid factor 1, stays under the cap)."""
    monkeypatch.setattr(arith, "TABLE_CAP", 1000)
    code, _, err = run_cli(argv + ["--n", "999"], capsys)
    assert code == 0 and err == ""
    code, out, err = run_cli(argv + ["--n", "1000"], capsys)
    assert code == 3 and out == ""
    assert err == "error: tables limited to n_max <= 1000, got 1001\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        # exact search's only size refusal is the forbidden set's
        (["extremal", "--n", "4000001", "--d", "1", "--mode", "exact", "--budget", "10"],
         "forbidden set limited to n <= 4000000"),
        # a 10^12-point FFT grid
        (["spectrum", "--n", "1000", "--d", "1", "--q-prime", "2", "--big-q", "10",
          "--grid-factor", "1000000000"], "spectrum grid limited"),
        # 5 10^23 Farey arcs, refused before the levels are read
        (["spectrum", "--n", "100", "--d", "1", "--q-prime", "1000000000000",
          "--big-q", "2000000000001"], "Farey arcs limited to a sum of levels q <= 4000000"),
        # 2 10^8 Farey arcs on a 100-point weight
        (["spectrum", "--n", "100", "--d", "1", "--q-prime", "20000", "--big-q", "40001"],
         "got 200010000"),
    ],
)
def test_memory_budget_is_resource_error(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # a 10^11-entry forbidden-difference array
        (["extremal", "--n", "100000000000", "--d", "1", "--mode", "greedy"],
         "forbidden set limited to n <= 4000000"),
        (["iterate", "--greedy", "--n", "100000000000"], "forbidden set limited"),
        # d s + 1 = psi_12, past where Miller-Rabin on bases 2..37 decides
        (["extremal", "--n", "2", "--d", "318665857834031151167460", "--mode", "greedy"],
         "exact below 318665857834031151167461"),
        # a node budget means nothing to the heuristics
        (["extremal", "--n", "50", "--d", "1", "--mode", "greedy", "--budget", "-5"],
         "--budget applies to --mode exact only"),
        (["extremal", "--n", "50", "--d", "1", "--mode", "random-local", "--budget", "100"],
         "--budget applies to --mode exact only"),
    ],
    ids=["extremal_n1e11", "iterate_n1e11", "extremal_psi12", "budget_greedy",
         "budget_random_local"],
)
def test_refused_arguments_exit_3(argv, message, capsys, monkeypatch):
    """Each refusal comes before any table is built: it exits 3 with no
    build_tables to call."""
    monkeypatch.setattr(tables, "build_tables", None)
    code, out, err = run_cli(argv + ["--timestamp", "T"], capsys)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and message in err


def test_random_local_refuses_a_negative_seed(capsys):
    """A negative seed exits 3 with one line before any draw, where numpy's
    generator once ended the run in a ValueError traceback; a seed of
    2^64 runs."""
    base = ["extremal", "--n", "50", "--d", "1", "--mode", "random-local", "--timestamp", "T"]
    assert run_cli(base + ["--seed", "-1"], capsys) == (3, "", "error: seed must be >= 0, got -1\n")
    code, out, _ = run_cli(base + ["--seed", str(2**64)], capsys)
    assert code == 0 and json.loads(out)["manifest"]["seed"] == 2**64


def test_spectrum_refuses_nq_past_the_float_range(capsys):
    """The minor-arc bound reads (N Q)^(1/2) as a float: Q = 10^30 runs,
    and Q = 10^400 exits 3 with one line instead of an OverflowError."""
    argv = ["spectrum", "--n", "100", "--d", "1", "--q-prime", "2", "--timestamp", "T"]
    code, out, _ = run_cli(argv + ["--big-q", str(10**30)], capsys)
    assert code == 0 and out
    code, out, err = run_cli(argv + ["--big-q", str(10**400)], capsys)
    assert code == 3
    assert out == ""
    assert err == "error: N Q past the float range at N=100\n"


def test_spectrum_refuses_nq_before_the_grid(capsys, monkeypatch):
    """A minor-arc bound that cannot be computed refuses the input before
    any grid is built: with grid_power made to raise, M = 4e6 at
    Q = 10^400 exits 3 with the float-range line, and N = 1 with its own.
    A grid whose points are all major (M = 2, Q' = 2) reads no minor bound
    and still exits 0."""
    huge = str(10**400)

    def argv(n, q_prime, factor):
        return ["spectrum", "--n", n, "--d", "1", "--q-prime", q_prime, "--big-q", huge,
                "--grid-factor", factor, "--timestamp", "T"]

    code, out, _ = run_cli(argv("2", "2", "1"), capsys)
    assert code == 0 and set(line.split(",")[3] for line in out.splitlines()[1:-1]) == {"major"}

    def boom(*args):
        raise AssertionError("grid_power ran")

    monkeypatch.setattr(mangoldt, "grid_power", boom)
    for args, message in [
        (("1000", "2", "4000"), "N Q past the float range at N=1000"),
        (("1", "2", "8"), "need n >= 2 and positive d, q, Q"),
    ]:
        assert run_cli(argv(*args), capsys) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "line, code",
    [
        ("c = 1e308", 3),  # c alpha N is inf: no window to floor
        ("c_len = 1e308", 0),  # the mass cap is inf: the span caps the length
        ("c_prime = 1e-300", 0),  # c'^2 alpha^2 underflows: Q' clamps to q_cap
        ("c_double_prime = 1e-300", 0),  # likewise Q''
        ("c_prime = 1e200", 0),  # c'^2 overflows: Q' clamps to 1
        ("c_double_prime = 1e200", 0),  # likewise Q''
    ],
)
def test_extreme_finite_config_exits_cleanly(line, code, capsys, tmp_path):
    """Finite config values whose derived quantities leave the float range
    exit 0 with a certified trace, or 3 with one line."""
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(line + "\n")
    got, out, err = run_cli(
        ["iterate", "--greedy", "--n", "1000", "--config", str(cfg), "--timestamp", "T"], capsys
    )
    assert got == code
    if code == 3:
        assert out == ""
        assert len(err.splitlines()) == 1 and "past the float range" in err
    else:
        assert err.splitlines()[-1].startswith("terminal: ")


def test_driver_grid_budget(tmp_path, capsys):
    """The driver's FFT grid, the least 5-smooth size >= grid_factor times
    n points, is held to the spectrum's TABLE_CAP budget: 10^12 points are
    refused, not allocated, and 10^303 before any size is searched."""
    code, out, _ = run_cli(["extremal", "--n", "1000", "--d", "1", "--mode", "greedy"], capsys)
    assert code == 0
    elements = json.loads(out)["elements"]
    set_file, config = tmp_path / "ff1000.txt", tmp_path / "gf.cfg"
    set_file.write_text("".join(f"{x}\n" for x in elements))
    argv = ["iterate", "--input", str(set_file), "--n", "1000", "--config", str(config)]
    for grid_factor in (10**9, 10**300):
        config.write_text(f"grid_factor = {grid_factor}\n")
        code, out, err = run_cli(argv + ["--timestamp", "T"], capsys)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and "spectrum grid limited" in err


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["spectrum", "--n", "2000", "--d", "1", "--q-prime", "20", "--big-q", "200"],
         "c3f07f117f43b01e2f9a7c6d34ecbe38fec18ae9f37494adc2d7bdd3fda2f1b4"),
        (["spectrum", "--n", "150", "--d", "2", "--q-prime", "3", "--big-q", "30",
          "--exc-modulus", "2", "--exc-beta", "0.8"],
         "60894384648ff8e30a1fb009fab247c3214de80db6101a634ff707160f21a801"),
        # 65,537 rows: sixteen 2^12-row chunks, then a chunk of one row
        (["sieve", "--n-max", "65537"],
         "13af67027ce88a26fbc1c947bd4b779244cd02e0fa7b58031f110b7764f62189"),
        # M = 32,000 rows: seven 2^12-row chunks, then one of 3,328 rows;
        # theta's rows 1 and 2, 3.125e-05 and 6.25e-05, are in exponent
        # notation
        (["spectrum", "--n", "4000", "--d", "1", "--q-prime", "20", "--big-q", "400"],
         "e01ee6ef0ac85bfaf1daf3758003cb0a9c1bae97f52d2b6f91546ed5a3d68d43"),
    ],
    ids=["spectrum", "spectrum_exceptional", "sieve_65537", "spectrum_32000"],
)
def test_pinned_output_bytes(argv, digest, capsys):
    """SHA-256 of stdout with the timestamp pinned: the chunked CSV
    renderer must reproduce these bytes exactly."""
    code, out, err = run_cli(argv + ["--timestamp", "T"], capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def fresh_python(child, argv):
    """stdout of the code `child`, run with argv in a fresh interpreter that
    imports this checkout's package."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", child, *argv], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout


def cli_peak_kb(argv):
    """(exit code, VmHWM in kB) of the CLI run in a fresh interpreter.  The
    child reads the peak of its own address space (VmHWM); its ru_maxrss
    would also count the address space that exec replaced, which under vfork
    is this test process's."""
    child = (
        "import re, sys\n"
        "from primediff import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "status = open('/proc/self/status').read()\n"
        "print(code, re.search(r'VmHWM:\\s+(\\d+) kB', status).group(1))\n"
    )
    code, peak_kb = map(int, fresh_python(child, argv).split())
    return code, peak_kb


FREEZE_ARGV = ["spectrum", "--n", "300", "--d", "1", "--q-prime", "3", "--big-q", "20",
               "--timestamp", "T"]


def test_console_entry_freezes_the_import_heap(tmp_path):
    """main() without argv, as the console script calls it, runs with the
    collector paused and freezes the heap after the command, and writes
    the bytes an in-process main(argv) writes."""
    child = (
        "import gc, sys\n"
        "from primediff import cli\n"
        "sys.argv = ['primediff', *sys.argv[1:]]\n"
        "code = cli.main()\n"
        "print(code, int(gc.isenabled()), gc.get_freeze_count())\n"
    )
    console, direct = tmp_path / "console.csv", tmp_path / "direct.csv"
    out = fresh_python(child, FREEZE_ARGV + ["--out", str(console)])
    code, enabled, frozen = map(int, out.split())
    assert code == 0 and not enabled and frozen > 0
    assert cli.main(FREEZE_ARGV + ["--out", str(direct)]) == 0
    assert console.read_bytes() == direct.read_bytes()


def test_in_process_main_leaves_the_collector_alone(tmp_path):
    before = gc.isenabled(), gc.get_freeze_count()
    assert cli.main(FREEZE_ARGV + ["--out", str(tmp_path / "out.csv")]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
def test_sieve_streams_its_rows(tmp_path):
    """A million-row sieve CSV is rendered and written a chunk at a time: a
    fresh interpreter running it peaks below 64 MB resident (53.5 MB
    measured; 55.8 MB with 2^14-row chunks; 72 MB when Python formatted
    each row, 2^16 rows at a time; 266 MB when every line was built before
    the first write)."""
    out = tmp_path / "sieve.csv"
    code, peak_kb = cli_peak_kb(
        ["sieve", "--n-max", "1000000", "--out", str(out), "--timestamp", "T"]
    )
    assert code == 0
    with open(out) as fh:
        assert sum(1 for _ in fh) == 1 + 1_000_000 + 1  # header, rows, manifest
    assert peak_kb < 64 * 1024, f"peak {peak_kb // 1024} MB"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
def test_psi_builds_only_what_it_reads(tmp_path):
    """psi at the table cap reads the prime bitmap only, and imports no
    numpy: a fresh interpreter running it peaks below 32 MB resident
    (26 MB measured; 63 MB when it built the Lambda table, 79 MB when it
    built spf too, 117 MB when every table, mobius and phi too, was
    built)."""
    out = tmp_path / "psi.txt"
    code, peak_kb = cli_peak_kb(
        ["psi", "--x", "4000000", "--q", "4", "--a", "1", "--out", str(out), "--timestamp", "T"]
    )
    assert code == 0
    assert abs(float(out.read_text().split()[0]) - 1999847.16839) < 1e-5
    assert peak_kb < 32 * 1024, f"peak {peak_kb // 1024} MB"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
def test_random_local_samples_on_its_bitsets(tmp_path):
    """random-local draws each point of a fill from its free-point bitset
    and holds no random order: a fresh interpreter running it at
    n = 10^6 peaks below 24 MB resident (20 MB measured; 48 MB when it
    held one int64 order and read it 2^16 entries at a time, 123 MB when
    each order became one list of 10^6 ints), and writes the bytes it
    wrote then."""
    out = tmp_path / "local.json"
    code, peak_kb = cli_peak_kb(
        ["extremal", "--n", "1000000", "--d", "1", "--mode", "random-local", "--seed", "1",
         "--out", str(out), "--timestamp", "T"]
    )
    assert code == 0
    digest = "627745ac0643b23b7327245406c3fda648d31a7c9e8fa04858cfd4b46fca67a2"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert peak_kb < 24 * 1024, f"peak {peak_kb // 1024} MB"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
def test_spectrum_streams_its_columns(tmp_path):
    """An 800,000-point spectrum CSV builds its theta, class and ratio
    columns, and renders its text, a chunk at a time: a fresh interpreter
    running it peaks below 76 MB resident (56.9 MB measured; 59.8 MB with
    2^14-row chunks; 99 MB when Python formatted each row, 2^16 rows at a
    time; 132 MB when the three columns were built full-length first, the
    class column at 20 bytes a row)."""
    out = tmp_path / "spectrum.csv"
    code, peak_kb = cli_peak_kb(
        ["spectrum", "--n", "1000", "--d", "1", "--q-prime", "2", "--big-q", "10",
         "--grid-factor", "800", "--out", str(out), "--timestamp", "T"]
    )
    assert code == 0
    with open(out) as fh:
        assert sum(1 for _ in fh) == 1 + 800_000 + 1  # header, rows, manifest
    assert peak_kb < 76 * 1024, f"peak {peak_kb // 1024} MB"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
def test_spectrum_chunks_stay_small(tmp_path):
    """The benchmark's spectrum operation (40,000 rows) renders its CSV in
    2^12-row chunks: a fresh interpreter running it peaks below 38 MB
    resident (34.5 MB measured; 41.5 MB with 2^14-row chunks, whose frames
    and text set the peak)."""
    out = tmp_path / "spectrum.csv"
    code, peak_kb = cli_peak_kb(
        ["spectrum", "--n", "5000", "--d", "1", "--q-prime", "20", "--big-q", "2500",
         "--out", str(out), "--timestamp", "T"]
    )
    assert code == 0
    with open(out) as fh:
        assert sum(1 for _ in fh) == 1 + 40_000 + 1  # header, rows, manifest
    assert peak_kb < 38 * 1024, f"peak {peak_kb / 1024:.1f} MB"


@pytest.mark.parametrize(
    "argv",
    [
        ["sieve", "--n-max", "65537"],
        ["spectrum", "--n", "5000", "--d", "1", "--q-prime", "20", "--big-q", "2500"],
    ],
    ids=["sieve_65537", "spectrum_n5000"],
)
def test_every_csv_row_is_rendered_in_chunks(argv, capsys, monkeypatch):
    """Every data row of a CSV command passes through csvtext's chunk
    renderer, in ceil(rows / CHUNK_ROWS) calls: a writer that formats rows
    one at a time in Python fails here, not only in the benchmark."""
    chunks = []
    render = csvtext._render

    def counted(formatters, columns):
        chunks.append(len(columns[0]))
        return render(formatters, columns)

    monkeypatch.setattr(csvtext, "_render", counted)
    code, out, _ = run_cli(argv + ["--timestamp", "T"], capsys)
    rows = len(out.splitlines()) - 2  # header and manifest
    assert code == 0 and rows > csvtext.CHUNK_ROWS
    assert sum(chunks) == rows
    assert len(chunks) == -(-rows // csvtext.CHUNK_ROWS)


def test_refused_spectrum_leaves_out_file_alone(tmp_path, capsys):
    """Rendering starts only after the computation: a spectrum run refused
    with exit 3 neither creates nor truncates its --out file."""
    argv = ["spectrum", "--n", "1000", "--d", "1", "--q-prime", "2", "--big-q", "10",
            "--grid-factor", "4001"]  # M = 4,001,000 > TABLE_CAP
    fresh = tmp_path / "fresh.csv"
    code, _, err = run_cli(argv + ["--out", str(fresh)], capsys)
    assert code == 3 and "spectrum grid limited" in err
    assert not fresh.exists()
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier run\n")
    code, _, _ = run_cli(argv + ["--out", str(kept)], capsys)
    assert code == 3
    assert kept.read_text() == "earlier run\n"


def test_spectrum_refuses_an_exceptional_modulus_not_dividing_d(tmp_path, capsys):
    """An exceptional datum applies only to a modulus dividing d: one that
    does not exits 3 with one line and writes no --out file."""
    out_file = tmp_path / "spectrum.csv"
    argv = ["spectrum", "--n", "300", "--d", "1", "--q-prime", "5", "--big-q", "20",
            "--exc-modulus", "3", "--exc-beta", "0.9", "--timestamp", "T",
            "--out", str(out_file)]
    assert run_cli(argv, capsys) == (3, "", "error: exceptional modulus 3 must divide d=1\n")
    assert not out_file.exists()


def _flag(name, values):
    # "--at=-5/3", not "--at -5/3", which argparse reads as an option
    return values.map(lambda v: [f"{name}={v}"])


_SMALL = st.integers(-2, 150)
_ARGV = st.one_of(
    st.tuples(st.just(["sieve"]), _flag("--n-max", _SMALL)),
    st.tuples(
        st.just(["psi"]),
        _flag("--x", st.floats(-10, 3000, allow_nan=False)),
        _flag("--q", st.integers(-1, 12)),
        _flag("--a", st.integers(-3, 20)),
    ),
    st.tuples(
        st.just(["lambda"]),
        _flag("--n", _SMALL),
        _flag("--d", st.integers(-1, 5)),
        _flag("--at", st.one_of(
            st.floats(-2, 2, allow_nan=False),
            st.tuples(st.integers(-5, 5), st.integers(-2, 12)).map(lambda t: f"{t[0]}/{t[1]}"),
            st.sampled_from(["0", "nan", "inf", "x"]),
        )),
    ),
    st.tuples(
        st.just(["spectrum"]),
        _flag("--n", _SMALL),
        _flag("--d", st.integers(0, 4)),
        _flag("--q-prime", st.integers(0, 6)),
        _flag("--big-q", st.integers(0, 60)),
        _flag("--grid-factor", st.integers(0, 10)),
        st.one_of(
            st.just([]),
            st.tuples(st.integers(0, 5), st.floats(0.4, 1)).map(
                lambda t: [f"--exc-modulus={t[0]}", f"--exc-beta={t[1]}"]
            ),
        ),
    ),
    st.tuples(
        st.just(["extremal"]),
        _flag("--n", _SMALL),
        _flag("--d", st.integers(-1, 4)),
        _flag("--mode", st.sampled_from(["exact", "greedy", "random-local"])),
        st.one_of(st.just([]), _flag("--budget", st.integers(-1, 2000))),
        _flag("--seed", st.one_of(st.integers(-1, 5), st.just(2**64))),
    ),
    st.tuples(
        st.just(["iterate", "--greedy"]),
        _flag("--n", st.integers(-2, 400)),
        _flag("--d", st.integers(-1, 3)),
    ),
).map(lambda parts: [token for part in parts for token in part] + ["--timestamp", "T"])


@settings(max_examples=120, database=None, deadline=None, derandomize=True)
@given(_ARGV)
def test_fuzzed_arguments_exit_cleanly(argv):
    """Small arguments to every subcommand: success or a clean exit 2, 3
    or 4, never a traceback and never a nan result."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert not re.search(r"\bnan\b", out.getvalue(), re.IGNORECASE), argv



@pytest.mark.parametrize(
    "argv",
    [
        ["extremal", "--n", "1", "--d", "99999999999999999999999", "--mode", "greedy"],
        ["extremal", "--n", "1", "--d", "99999999999999999999999", "--mode", "exact"],
        ["iterate", "--greedy", "--n", "1", "--d", "99999999999999999999999"],
    ],
    ids=["extremal-greedy", "extremal-exact", "iterate-greedy"],
)
def test_n_1_with_d_past_int64_exits_cleanly(argv, capsys):
    """At n = 1 there is no difference s to sieve, so a d past int64 never
    meets an int64 array: the run exits cleanly, not with an OverflowError."""
    try:
        code = cli.main(argv + ["--timestamp", "T"])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


class TestSieveCommand:
    def test_rows_match_oracles(self, capsys):
        code, out, _ = run_cli(["sieve", "--n-max", "40"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,mangoldt,mobius,phi"
        assert len(lines) == 42  # header + 40 rows + manifest
        for line in lines[1:-1]:
            n_s, mang, mob, phi = line.split(",")
            n = int(n_s)
            assert abs(float(mang) - mangoldt_naive(n)) < 1e-9
            assert int(mob) == mobius_naive(n)
            assert int(phi) == phi_naive(n)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "sieve.csv"
        code, out, _ = run_cli(["sieve", "--n-max", "5", "--out", str(path)], capsys)
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("n,mangoldt,mobius,phi\n")


class TestSpectrumCommand:
    def test_schema(self, capsys):
        code, out, _ = run_cli(
            ["spectrum", "--n", "60", "--d", "1", "--q-prime", "3", "--big-q", "8"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "theta,a,q,class,actual,bound,ratio"
        assert len(lines) == 1 + 8 * 60 + 1  # header + grid rows + manifest
        kinds = {line.split(",")[3] for line in lines[1:-1]}
        assert kinds == {"major", "minor"}

    def test_worker_count_is_invisible(self, capsys, tmp_path):
        f1, f4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
        base = [
            "spectrum", "--n", "80", "--d", "2", "--q-prime", "3", "--big-q", "10",
            "--timestamp", "T",
        ]
        assert cli.main(base + ["--workers", "1", "--out", str(f1)]) == 0
        assert cli.main(base + ["--workers", "4", "--out", str(f4)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f4.read_bytes()

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = [
            "spectrum", "--n", "50", "--d", "1", "--q-prime", "2", "--big-q", "6",
            "--timestamp", "T",
        ]
        assert cli.main(base + ["--out", str(f1)]) == 0
        assert cli.main(base + ["--out", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()

    def test_exceptional_flags_must_pair(self, capsys):
        code, _, err = run_cli(
            ["spectrum", "--n", "50", "--d", "2", "--q-prime", "2", "--big-q", "6",
             "--exc-modulus", "2"],
            capsys,
        )
        assert code == 3

    def test_vanished_weight_mass(self, capsys):
        """At n = 1, d = 13 the weight is Lambda(14) = 0: no mass to bound by."""
        argv = ["spectrum", "--n", "1", "--d", "13", "--q-prime", "1", "--big-q", "3"]
        assert run_cli(argv, capsys) == (3, "", "error: weight mass vanished at n=1, d=13\n")


class TestExtremalCommand:
    def test_exact_matches_enumeration(self, capsys):
        code, out, _ = run_cli(["extremal", "--n", "10", "--d", "1", "--mode", "exact"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["optimal"] is True
        assert payload["size"] == avoiding_prefix_optima(10, 1)[10]
        bad = forbidden_diffs_naive(10, 1)
        elems = payload["elements"]
        assert all(
            b - a not in bad for i, a in enumerate(elems) for b in elems[i + 1 :]
        )

    def test_builds_no_tables(self, capsys, monkeypatch):
        """extremal sieves the values d s + 1 itself: it runs with no
        build_tables to call and counts the same forbidden differences."""
        monkeypatch.setattr(tables, "build_tables", None)
        code, out, _ = run_cli(["extremal", "--n", "88", "--d", "2", "--mode", "greedy"], capsys)
        assert code == 0
        assert json.loads(out)["forbidden_count"] == len(forbidden_diffs_naive(88, 2))

    def test_greedy_seed_determinism(self, capsys, tmp_path):
        f1, f2 = tmp_path / "g1.json", tmp_path / "g2.json"
        base = ["extremal", "--n", "200", "--d", "1", "--mode", "random-local",
                "--seed", "7", "--timestamp", "T"]
        assert cli.main(base + ["--out", str(f1)]) == 0
        assert cli.main(base + ["--out", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()

    def test_invalid_mode_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["extremal", "--n", "10", "--d", "1", "--mode", "annealing"])
        assert exc.value.code == 2

    def test_budget_reported_not_optimal(self, capsys):
        code, out, _ = run_cli(
            ["extremal", "--n", "80", "--d", "1", "--mode", "exact", "--budget", "5"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["optimal"] is False
        assert payload["manifest"]["parameters"]["budget"] == 5

    def test_budgeted_exact_runs_past_32000(self, capsys):
        """Past n = 32,000, where exact search used to be refused, a budgeted
        run falls back to branch-and-bound and returns an avoiding set at
        least as large as the first-fit scan's."""
        code, out, err = run_cli(
            ["extremal", "--n", "32001", "--d", "1", "--mode", "exact", "--budget", "10"],
            capsys,
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["optimal"] is False
        elems = payload["elements"]
        assert len(elems) == payload["size"] >= len(first_fit_naive(32001, 1))
        bad = forbidden_diffs_naive(32001, 1)
        assert all(b - a not in bad for i, a in enumerate(elems) for b in elems[i + 1 :])

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
    def test_budgeted_exact_at_a_million_stays_small(self, tmp_path):
        """Exact search at n = 10^6 with budget 10 keeps no n^2 state: a
        fresh interpreter running it peaks below 100 MB resident (about
        57 MB measured; at the table cap, n = 4 10^6, about 145 MB)."""
        out = tmp_path / "exact.json"
        code, peak_kb = cli_peak_kb(
            ["extremal", "--n", "1000000", "--d", "1", "--mode", "exact", "--budget", "10",
             "--out", str(out), "--timestamp", "T"]
        )
        assert code == 0
        assert json.loads(out.read_text())["size"] >= 1
        assert peak_kb < 100 * 1024, f"peak {peak_kb // 1024} MB"

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
    def test_greedy_at_the_table_cap_reads_the_bitmap(self, tmp_path):
        """First fit at n = TABLE_CAP reads its forbidden set from the prime
        bitmap, grown to TABLE_CAP, with no numpy loaded: a fresh
        interpreter running it peaks below 40 MB resident (36 MB measured;
        44 MB when the values s + 1 were sieved with numpy), and writes the
        bytes it wrote then."""
        out = tmp_path / "greedy.json"
        code, peak_kb = cli_peak_kb(
            ["extremal", "--n", str(TABLE_CAP), "--d", "1", "--mode", "greedy",
             "--out", str(out), "--timestamp", "T"]
        )
        assert code == 0
        digest = "2ddc1851de3ee39970c893529949e70abce3989d3628c29bd0a44a111e5e9c1d"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert json.loads(out.read_text())["forbidden_count"] == 283_146  # the primes <= 4 10^6
        assert peak_kb < 40 * 1024, f"peak {peak_kb // 1024} MB"

    def test_budget_of_one_runs(self, capsys):
        """A budget of 1 is the least accepted: the search stops at once and
        reports its set as not optimal."""
        code, out, err = run_cli(
            ["extremal", "--n", "88", "--d", "1", "--mode", "exact", "--budget", "1"], capsys
        )
        assert code == 0 and err == ""
        assert json.loads(out)["optimal"] is False

    @pytest.mark.parametrize("budget", ["-5", "0"])
    def test_budget_below_one_is_domain_error(self, budget, capsys):
        code, out, err = run_cli(
            ["extremal", "--n", "88", "--d", "1", "--mode", "exact", "--budget", budget],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and "node budget must be >= 1" in err


class TestIterateCommand:
    def test_full_interval_single_step(self, capsys, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("# the whole interval\n" + "\n".join(map(str, range(1, 101))) + "\n")
        code, out, err = run_cli(
            ["iterate", "--input", str(path), "--n", "100", "--timestamp", "T"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[1])
        assert rec["outcome"] == "structure_found"
        assert rec["witness"] == {"x": 1, "p": 2, "lower": 1, "upper": 2}
        assert "terminal: structure_found ok" in err

    def test_greedy_trace_certifies(self, capsys):
        code, out, err = run_cli(
            ["iterate", "--greedy", "--n", "400", "--d", "1", "--timestamp", "T"], capsys
        )
        assert code == 0
        lines = [json.loads(s) for s in out.splitlines()]
        assert lines[0]["record"] == "header"
        assert lines[0]["terminal"] in TAGS
        assert lines[0]["manifest"]["parameters"]["source"] == "greedy"
        for rec in lines[1:]:
            assert rec["outcome"] in TAGS
        assert "terminal:" in err

    def test_config_defaults_and_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("gain_threshold = 0.01\nmax_steps = 5  # few\n")
        code, out, _ = run_cli(
            ["iterate", "--greedy", "--n", "200", "--config", str(cfg), "--timestamp", "T"],
            capsys,
        )
        assert code == 0
        header = json.loads(out.splitlines()[0])
        effective = header["config"]
        assert effective["gain_threshold"] == 0.01
        assert effective["max_steps"] == 5
        assert effective["c"] == 0.25  # untouched default
        assert "config" not in header["manifest"]["parameters"]

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        for key in ("warp_speed", "c_1", "seed"):  # the last two were removed knobs
            cfg.write_text(f"{key} = 9\n")
            code, _, err = run_cli(
                ["iterate", "--greedy", "--n", "100", "--config", str(cfg)], capsys
            )
            assert code == 3
            assert "unknown config key" in err

    @pytest.mark.parametrize(
        "line", ["c = nan", "c = inf", "c_prime = -inf", "alpha_floor = nan",
                 "d_ceiling_exponent = nan"]
    )
    def test_non_finite_config_value(self, line, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(
            ["iterate", "--greedy", "--n", "100", "--config", str(cfg)], capsys
        )
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and "must be finite" in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("max_steps = 2.5", "error: config value for 'max_steps' is not an integer: '2.5'\n"),
            ("grid_factor = 1e3", "error: config value for 'grid_factor' is not an integer: '1e3'\n"),
            ("max_steps = many", "error: config value for 'max_steps' is not numeric: 'many'\n"),
            ("c = quarter", "error: config value for 'c' is not numeric: 'quarter'\n"),
        ],
        ids=["int_given_2.5", "int_given_1e3", "int_given_text", "float_given_text"],
    )
    def test_config_value_of_the_wrong_kind(self, line, message, capsys, tmp_path):
        """A number where an integer is due is refused as not an integer,
        not as not numeric; text that is no number at all is not numeric."""
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(
            ["iterate", "--greedy", "--n", "100", "--config", str(cfg)], capsys
        )
        assert (code, out, err) == (3, "", message)

    def test_config_line_without_equals(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("max_steps 5\n")
        code, out, err = run_cli(
            ["iterate", "--greedy", "--n", "100", "--config", str(cfg)], capsys
        )
        assert (code, out, err) == (3, "", "error: config line 'max_steps 5' is not key=value\n")

    def test_duplicate_config_key(self, capsys, tmp_path):
        """A repeated key is refused, not read as its last value."""
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("max_steps = 32\nmax_steps=0  # again\n")
        code, out, err = run_cli(
            ["iterate", "--greedy", "--n", "100", "--config", str(cfg)], capsys
        )
        assert (code, out, err) == (3, "", "error: duplicate config key 'max_steps'\n")

    @pytest.mark.parametrize(
        "line",
        [f"{key} = {value}"
         for key in ("c", "c_len", "gain_threshold", "d_ceiling_exponent",
                     "max_steps", "grid_factor", "n_floor", "q_cap")
         for value in ("nan", "inf", "1e309", "2.5", str(10**23))]
        + ["warp_speed = 1", "max_steps 5", "= 5", "max_steps ="],
    )
    def test_config_sweep_exits_cleanly(self, line, capsys, tmp_path):
        """Each value, in a float and an int field: exit 0 with a certified
        trace, or 3 with one error line; never a traceback."""
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(
            ["iterate", "--greedy", "--n", "1000", "--config", str(cfg), "--timestamp", "T"],
            capsys,
        )
        assert code in (0, 3) and "Traceback" not in err
        if code == 3:
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
        else:
            assert err.splitlines()[-1].startswith("terminal: ")

    def test_set_file_of_comments_only(self, capsys, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("# nothing here\n")
        code, out, err = run_cli(["iterate", "--input", str(path), "--n", "10"], capsys)
        assert (code, out, err) == (3, "", f"error: no elements found in {path}\n")

    def test_malformed_set_file(self, capsys, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("1\ntwo\n")
        code, _, err = run_cli(["iterate", "--input", str(path), "--n", "10"], capsys)
        assert code == 3

    def test_element_past_int64(self, capsys, tmp_path):
        """Elements are Python ints: one past int64 is refused as outside
        [1, n], on one line, not as an overflow."""
        path = tmp_path / "set.txt"
        path.write_text("100000000000000000000000000000\n")
        code, out, err = run_cli(["iterate", "--input", str(path), "--n", "10"], capsys)
        assert code == 3 and out == ""
        assert err == "error: elements must lie in [1, 10]\n"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["iterate", "--input", "/no/such/file", "--n", "10"], capsys)
        assert code == 3

    def test_builds_no_tables(self, capsys, monkeypatch, tmp_path):
        """iterate passes no tables to the driver: it runs with no
        build_tables to call and writes the trace of a library run whose
        tables cover every step's d (n - 1) + 1.  The greedy run takes an
        increment; the set file's run stops at the pair search."""
        path = tmp_path / "set.txt"
        path.write_text("1\n4\n10\n60\n")  # 4 - 1 = 3 and 2 * 3 + 1 = 7
        runs = [(["--greedy"], 400, 1, first_fit_naive(400, 1)),
                (["--input", str(path)], 100, 2, [1, 4, 10, 60])]
        build_tables = tables.build_tables
        monkeypatch.setattr(tables, "build_tables", None)
        for source, n, d, elements in runs:
            argv = ["iterate", *source, "--n", str(n), "--d", str(d), "--timestamp", "T"]
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            A = DensitySet.from_iterable(n, elements)
            sieved = build_tables(d * (n - 1) + 1)
            trace = driver.run(A, d, driver.IterationConfig(), sieved)
            manifest = json.loads(out.splitlines()[0])["manifest"]
            assert out == "".join(line + "\n" for line in driver.trace_to_jsonl(trace, manifest))

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
    def test_greedy_at_the_table_cap_stays_small(self, tmp_path):
        """iterate --greedy at n = TABLE_CAP builds no sieve tables: a fresh
        interpreter running it peaks below 60 MB resident (about 37 MB
        measured, with no numpy loaded; 45 MB when it sieved its forbidden
        set with numpy, 86 MB when it built tables to d (n - 1) + 2 that its
        small_alpha run never read)."""
        out = tmp_path / "trace.jsonl"
        code, peak_kb = cli_peak_kb(
            ["iterate", "--greedy", "--n", str(TABLE_CAP), "--out", str(out), "--timestamp", "T"]
        )
        assert code == 0
        assert json.loads(out.read_text().splitlines()[0])["terminal"] == "small_alpha"
        assert peak_kb < 60 * 1024, f"peak {peak_kb // 1024} MB"

    def test_negative_d_is_refused_as_d(self, capsys, tmp_path):
        """A set file run with d < 1 is refused by the driver's own d check,
        not by a table size derived from d."""
        path = tmp_path / "set.txt"
        path.write_text("1\n4\n10\n60\n")
        argv = ["iterate", "--input", str(path), "--n", "100", "--d", "-5"]
        code, out, err = run_cli(argv, capsys)
        assert code == 3 and out == ""
        assert err == "error: need d >= 1, got -5\n"

    def test_energy_shortfall_ends_the_run(self, capsys, tmp_path):
        """A gain threshold that no level's energy reaches ends the run at
        the chosen level's extraction, with exit 0: the step is tagged
        large_d_or_small_alpha, and its reason gives the measured energy,
        the required 4 * gain_threshold and the level."""
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("gain_threshold = 10\n")
        code, out, _ = run_cli(
            ["iterate", "--greedy", "--n", "400", "--config", str(cfg), "--timestamp", "T"], capsys
        )
        assert code == 0
        header, step = map(json.loads, out.splitlines())
        assert header["terminal"] == step["outcome"] == "large_d_or_small_alpha"
        assert step["witness"] == {"reason": "energy 1.251 below 40 at level q=1"}

    def test_certification_failure_exit(self, capsys, monkeypatch):
        def boom(trace):
            raise CertificationError("forced")

        monkeypatch.setattr(driver, "certify", boom)
        code, _, err = run_cli(["iterate", "--greedy", "--n", "100"], capsys)
        assert code == 4
        assert "certification failed" in err

    def test_bad_snapshot_fails_certification(self, capsys, monkeypatch):
        """A trace whose snapshot is out of order exits 4, not 3 or 0."""
        real_run = driver.run

        def unsorted(*args):
            trace = real_run(*args)
            step = trace.steps[0]._replace(set_snapshot=trace.steps[0].set_snapshot[::-1])
            return trace._replace(steps=[step, *trace.steps[1:]])

        monkeypatch.setattr(driver, "run", unsorted)
        code, _, err = run_cli(["iterate", "--greedy", "--n", "100"], capsys)
        assert code == 4
        assert err.startswith("certification failed: step 1: bad snapshot")

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        f1, f2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
        base = ["iterate", "--greedy", "--n", "300", "--timestamp", "T", "--seed", "3"]
        assert cli.main(base + ["--out", str(f1)]) == 0
        assert cli.main(base + ["--out", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()
