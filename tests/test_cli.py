"""End-to-end checks of the command line driver.

Most tests run cli.main in process, through the runner of
tests/cli_bytes.py; those that test the process itself (the entry point
and its exit status, the environment, a closed stdout, which modules get
loaded) start a fresh interpreter.
"""

import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap

import pytest

from cli_bytes import run_main


def run_cli(*argv):
    """cli.main(argv) run in process, as (returncode, stdout, stderr)."""
    from sgqi import cli

    return subprocess.CompletedProcess(argv, *run_main(cli.main, list(argv)))


def run_process(*argv, env=None):
    """python -m sgqi.cli argv run in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "sgqi.cli", *argv],
                          capture_output=True, text=True, env=env)


MIXED_INI = """\
[problem]
family = mixed
d = 2
r = 2
p = 2
theta = 1
q = 2
a = 1,2

[sweep]
budgets = 4,10,26,53
"""


@pytest.fixture
def mixed_cfg(tmp_path):
    path = tmp_path / "mixed.ini"
    path.write_text(MIXED_INI)
    return str(path)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_gridinfo_table(mixed_cfg):
    res = run_cli("gridinfo", "-c", mixed_cfg)
    assert res.returncode == 0, res.stderr
    header, rows = parse_csv(res.stdout)
    assert header == ["family", "d", "r", "n_target", "xi", "n_levels",
                      "n_declared", "n_distinct", "ratio_declared",
                      "ratio_distinct", "config_hash"]
    assert len(rows) == 4
    for row in rows:
        rec = dict(zip(header, row))
        assert rec["family"] == "mixed-A"
        assert int(rec["n_declared"]) <= int(rec["n_target"])
        assert 0 < int(rec["n_distinct"]) <= int(rec["n_declared"])
        assert int(rec["n_levels"]) > 0
        assert re.fullmatch(r"[0-9a-f]{12}", rec["config_hash"])
    # larger budgets never shrink the grid
    declared = [int(r[6]) for r in rows]
    assert declared == sorted(declared)


def test_reruns_are_byte_identical(mixed_cfg):
    a = run_cli("gridinfo", "-c", mixed_cfg)
    b = run_cli("gridinfo", "-c", mixed_cfg)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_config_file_matches_set_overrides(mixed_cfg):
    from_file = run_cli("gridinfo", "-c", mixed_cfg)
    from_flags = run_cli(
        "gridinfo",
        "--set", "problem.family=mixed",
        "--set", "problem.d=2",
        "--set", "problem.r=2",
        "--set", "problem.p=2",
        "--set", "problem.theta=1",
        "--set", "problem.q=2",
        "--set", "problem.a=1,2",
        "--set", "sweep.budgets=4,10,26,53",
    )
    assert from_flags.returncode == 0, from_flags.stderr
    assert from_flags.stdout == from_file.stdout


def test_flag_overrides_config_format(mixed_cfg, tmp_path):
    # config asks for csv by default; the command line flag must win
    res = run_cli("gridinfo", "-c", mixed_cfg, "--format", "jsonl")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert len(lines) == 4
    for line in lines:
        obj = json.loads(line)
        assert obj["family"] == "mixed-A"
        assert isinstance(obj["n_declared"], int)
        assert isinstance(obj["ratio_declared"], float)


def test_output_file_flag(mixed_cfg, tmp_path):
    out = tmp_path / "grid.csv"
    res = run_cli("gridinfo", "-c", mixed_cfg, "-o", str(out))
    assert res.returncode == 0
    assert res.stdout == ""
    header, rows = parse_csv(out.read_text())
    assert header[0] == "family" and len(rows) == 4


def test_recover_sweep(mixed_cfg, tmp_path):
    dat_dir = tmp_path / "dats"
    res = run_cli("recover", "-c", mixed_cfg,
                  "--set", "sweep.corpus=sinprod",
                  "--set", "sweep.resolution=17",
                  "--set", f"output.dat_dir={dat_dir}")
    assert res.returncode == 0, res.stderr
    header, rows = parse_csv(res.stdout)
    assert header == ["family", "label", "n_target", "xi", "n_declared",
                      "n_distinct", "error", "slope_so_far",
                      "predicted_slope", "config_hash"]
    assert len(rows) == 4
    errs = [float(r[6]) for r in rows]
    assert all(math.isfinite(e) and e > 0 for e in errs)
    # four points is enough for the running fit to kick in on the last row
    assert rows[-1][7] != ""
    assert float(rows[-1][7]) < 0
    assert float(rows[0][8]) < 0
    # per-function scatter files for plotting
    dat = (dat_dir / "sinprod.dat").read_text().strip().split("\n")
    assert len(dat) == 4
    for line in dat:
        n, e = line.split()
        assert int(n) > 0 and float(e) > 0


def test_recover_order_one_default_corpus():
    # the kink exponent is clipped below r - 1, which is 0 for the box:
    # the floor keeps it positive, so the kink is finite at the node 1/2
    res = run_cli("recover", "--set", "problem.family=mixed",
                  "--set", "problem.d=2", "--set", "problem.r=1",
                  "--set", "problem.p=2", "--set", "problem.theta=0.25",
                  "--set", "problem.q=2", "--set", "problem.a=0.5,0.75",
                  "--set", "sweep.budgets=100,500,2000")
    assert res.returncode == 0, res.stderr
    header, rows = parse_csv(res.stdout)
    assert [r[1] for r in rows] == ["poly"] * 3 + ["sinprod"] * 3 + \
        ["kink"] * 3
    assert all(math.isfinite(float(r[header.index("error")])) for r in rows)


def test_integrate_sweep(mixed_cfg):
    res = run_cli("integrate", "-c", mixed_cfg,
                  "--set", "sweep.corpus=sinprod")
    assert res.returncode == 0, res.stderr
    header, rows = parse_csv(res.stdout)
    assert header[6] == "error"
    assert len(rows) == 4
    errs = [float(r[6]) for r in rows]
    assert all(math.isfinite(e) and e > 0 for e in errs)
    # cubature errors should shrink as the budget grows
    assert errs[-1] < errs[0]


def test_compare_ratios(tmp_path):
    res = run_cli("compare",
                  "--set", "problem.family=hybrid",
                  "--set", "problem.d=2",
                  "--set", "problem.r=2",
                  "--set", "problem.p=2",
                  "--set", "problem.theta=1",
                  "--set", "problem.q=2",
                  "--set", "problem.alpha=1.5",
                  "--set", "problem.beta=-0.5",
                  "--set", "sweep.xi=2,4,6")
    assert res.returncode == 0, res.stderr
    header, rows = parse_csv(res.stdout)
    assert header[7] == "ratio_smolyak" and header[8] == "ratio_fullgrid"
    assert len(rows) == 3
    for row in rows:
        na, ns, nf = int(row[4]), int(row[5]), int(row[6])
        assert na <= ns <= nf
        assert float(row[7]) >= 1.0 and float(row[8]) >= 1.0
    # the full-grid premium grows with resolution
    fg = [float(r[8]) for r in rows]
    assert fg == sorted(fg) and fg[-1] > fg[0]


def test_export_rule(mixed_cfg):
    res = run_cli("export-rule", "-c", mixed_cfg, "--set", "sweep.xi=2")
    assert res.returncode == 0, res.stderr
    header, rows = parse_csv(res.stdout)
    assert header == ["x_1", "x_2", "weight"]
    total = math.fsum(float(r[2]) for r in rows)
    assert abs(total - 1.0) < 1e-12
    for row in rows:
        assert 0.0 <= float(row[0]) <= 1.0
        assert 0.0 <= float(row[1]) <= 1.0


@pytest.mark.parametrize("command, settings, code", [
    ("gridinfo", [], 0),
    ("recover", ["--set=sweep.budgets=4,10"], 0),
    ("integrate", ["--set=sweep.budgets=4,10"], 0),
    ("compare", ["--set=problem.family=hybrid", "--set=problem.alpha=1.5",
                 "--set=problem.beta=-0.5", "--set=sweep.xi=2,4"], 0),
    ("export-rule", ["--set=sweep.xi=2"], 0),
    ("dump-grid", ["--set=sweep.xi=3"], 0),
    ("gridinfo", ["--set=bogus.key=1"], 2),
], ids=["gridinfo", "recover", "integrate", "compare", "export-rule",
        "dump-grid", "config-error"])
def test_entry_point_matches_in_process_run(mixed_cfg, command, settings,
                                            code):
    # python -m sgqi.cli in a fresh interpreter exits with main's status
    # and writes the bytes that main writes in process
    argv = [command, "-c", mixed_cfg, *settings]
    res, want = run_process(*argv), run_cli(*argv)
    assert (res.returncode, res.stdout, res.stderr) == \
        (code, want.stdout, want.stderr)
    assert want.returncode == code


# sha256 of export-rule output: any table entry that moves by one ulp
# changes a weight and so these bytes
GOLDEN_RULES = [
    (["--set=problem.family=hybrid", "--set=problem.d=2",
      "--set=problem.r=4", "--set=problem.p=2", "--set=problem.theta=1",
      "--set=problem.q=2", "--set=problem.alpha=1", "--set=problem.beta=0.5",
      "--set=sweep.budgets=1000"],
     "a4f8b97ef7f8d5dc57f145fd724d2b78a4036226a4eca00d0e5ddc0de6b925fc"),
    (["--set=problem.family=mixed", "--set=problem.d=3",
      "--set=problem.r=3", "--set=problem.p=2", "--set=problem.theta=1",
      "--set=problem.q=2", "--set=problem.a=1,1.5,2",
      "--set=sweep.budgets=1000"],
     "5880c9f7a2eebc2747bed0c1d286c00822d3d8c3aaad0cccaf6c12ecfc5317ad"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_RULES,
                         ids=["hybrid-d2-r4", "mixed-d3-r3"])
def test_export_rule_golden_bytes(argv, digest):
    res = run_cli("export-rule", *argv)
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


README_INI = MIXED_INI.replace("r = 2", "r = 4").replace(
    "budgets = 4,10,26,53", "budgets = 100,300,1000,3000")

# sha256 of the stdout of the README config: any value that moves by one
# ulp changes these bytes
GOLDEN_README = [
    ("recover",
     "9b4c5d481a4e5ae3e2754c7e6ee07052c3a150d54e299ad461eca5c4c9570e30"),
    ("integrate",
     "6a203fbcb084715474a2d9e8e9051393da6666567cd8b0ef5aa04d46466be79a"),
    ("gridinfo",
     "936b2d05fd358cb699f9f2617b741fe4c1ce20d33d3365bd81019f67f4f5f0a9"),
]


@pytest.mark.parametrize("command,digest", GOLDEN_README,
                         ids=[c for c, _ in GOLDEN_README])
def test_readme_config_golden_bytes(tmp_path, command, digest):
    path = tmp_path / "config.ini"
    path.write_text(README_INI)
    res = run_cli(command, "-c", str(path))
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


# the integrate-cli-d2 benchmark workload's sweep: its top rungs sum more
# than 10,000 weights
INTEGRATE_CLI_D2 = [
    "integrate", "--set=problem.family=hybrid", "--set=problem.d=2",
    "--set=problem.r=4", "--set=problem.p=2", "--set=problem.theta=1",
    "--set=problem.q=2", "--set=problem.alpha=1", "--set=problem.beta=0.5",
    "--set=sweep.budgets=100,187,351,658,1233,2310,4329,8111,15199,28480,"
    "53367,100000", "--set=sweep.corpus=poly,sinprod,kink"]


@pytest.mark.parametrize("argv", [["recover", "-c", "README"],
                                  ["integrate", "-c", "README"],
                                  INTEGRATE_CLI_D2],
                         ids=["readme-recover", "readme-integrate",
                              "integrate-cli-d2"])
def test_output_does_not_depend_on_blas_threads(tmp_path, argv):
    # OpenBLAS splits a dot product of more than 10,000 entries across its
    # threads, which moves the last bits of the sum; the error and
    # cubature sums must not go through it
    path = tmp_path / "config.ini"
    path.write_text(README_INI)
    argv = [str(path) if a == "README" else a for a in argv]
    outs = []
    for threads in ("1", "2"):
        res = run_process(*argv, env={**os.environ,
                                      "OPENBLAS_NUM_THREADS": threads})
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", ["recover", "integrate"])
def test_poly_rows_fit_no_slope(tmp_path, capsys, command):
    # recover reproduces poly exactly once the set holds every level with
    # all entries <= k0 (k0 = 0 for r <= 2, 1 for r = 3, 2 for r = 4), here
    # from budget 1000 on: the sets for 100 and 300 lack levels of
    # {0,1,2}^2 and read 0.0161 and 0.00119.  Neither those errors nor the
    # rounding-level ones follow a rate, so a slope fitted to them (0.347 on
    # the integrate row at budget 3000) means nothing
    from sgqi import cli

    path = tmp_path / "config.ini"
    path.write_text(README_INI)
    assert cli.main([command, "-c", str(path)]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    slope = header.index("slope_so_far")
    assert [r[slope] for r in rows if r[1] == "poly"] == [""] * 4
    assert all(r[slope] != "" for r in rows if r[1] != "poly"
               and r[2] == "3000")


def test_slope_fits_each_level_set_once(tmp_path, capsys):
    # budgets 100 and 110 give one level set (21 points) and so one error;
    # a repeated n, or budgets out of order, blanked every later slope
    from sgqi import cli

    path = tmp_path / "config.ini"
    path.write_text(README_INI)
    slopes = []
    for budgets in ("100,300,1000,3000,10000", "100,110,300,1000,3000,10000",
                    "300,100,1000,3000,10000"):
        assert cli.main(["recover", "-c", str(path), "--set=sweep.corpus=kink",
                         f"--set=sweep.budgets={budgets}"]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        slopes.append([r[header.index("slope_so_far")] for r in rows[-2:]])
    assert "" not in slopes[0]
    assert slopes[1] == slopes[2] == slopes[0]


@pytest.mark.parametrize("xi", ["nan", "inf", "-1"])
@pytest.mark.parametrize("argv", [
    ["export-rule", "--set=sweep.xi={}"],
    ["dump-grid", "--set=sweep.xi={}"],
    ["dump-grid", "--set=problem.family=fullgrid", "--set=sweep.xi={}"],
    ["compare", "--set=problem.family=hybrid", "--set=problem.alpha=1.5",
     "--set=problem.beta=-0.5", "--set=sweep.xi=2,{}"],
], ids=["export-rule", "dump-grid", "dump-grid-fullgrid", "compare"])
def test_exit_2_non_finite_xi(mixed_cfg, capsys, argv, xi):
    # an infinite xi used to hang dump-grid, a NaN one gave empty output,
    # a negative one an empty level set: a header-only rule, a blank grid
    from sgqi import cli

    code = cli.main([argv[0], "-c", mixed_cfg,
                     *(a.format(xi) for a in argv[1:])])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "config error" in out.err and "sweep.xi" in out.err


@pytest.mark.parametrize("override, code", [("sweep.xi=nan", 2),
                                             ("sweep.budgets=1", 3)])
@pytest.mark.parametrize("command", ["export-rule", "dump-grid"])
def test_failing_run_keeps_output_file(mixed_cfg, tmp_path, capsys, command,
                                       override, code):
    # the path used to be opened, and so truncated, before validation
    from sgqi import cli

    out = tmp_path / "out.csv"
    out.write_bytes(b"earlier output\n")
    assert cli.main([command, "-c", mixed_cfg, "--set", override,
                     "-o", str(out)]) == code
    assert out.read_bytes() == b"earlier output\n"
    capsys.readouterr()


@pytest.mark.parametrize("where", ["dat_dir", "output"])
def test_unwritable_output_is_a_config_error(mixed_cfg, tmp_path, capsys,
                                             where):
    # a dat_dir that is a regular file used to fail after the table was
    # written, with an exit-1 traceback
    from sgqi import cli

    out = tmp_path / "out.csv"
    out.write_bytes(b"earlier output\n")
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["recover", "-c", mixed_cfg, "--set", "sweep.budgets=4,10"]
    if where == "dat_dir":
        argv += ["--set", f"output.dat_dir={blocker}", "-o", str(out)]
    else:
        argv += ["-o", str(blocker / "out.csv")]
    assert cli.main(argv) == 2
    assert out.read_bytes() == b"earlier output\n"
    assert blocker.read_text() == ""
    err = capsys.readouterr().err
    assert err.startswith("config error") and str(blocker) in err


def test_unwritable_dat_target_writes_nothing(mixed_cfg, tmp_path, capsys):
    # the .dat files used to be written after the table, so a directory in
    # the way of sinprod.dat failed with the table and poly.dat written
    from sgqi import cli

    out = tmp_path / "out.csv"
    out.write_bytes(b"earlier output\n")
    dat_dir = tmp_path / "dats"
    (dat_dir / "sinprod.dat").mkdir(parents=True)
    assert cli.main(["recover", "-c", mixed_cfg,
                     "--set", "sweep.budgets=4,10",
                     "--set", "sweep.corpus=poly,sinprod",
                     "--set", f"output.dat_dir={dat_dir}",
                     "-o", str(out)]) == 2
    assert out.read_bytes() == b"earlier output\n"
    assert [p.name for p in dat_dir.iterdir()] == ["sinprod.dat"]
    err = capsys.readouterr().err
    assert err.startswith("config error") and "sinprod.dat" in err


@pytest.mark.parametrize("command", ["gridinfo", "compare"])
def test_commands_without_dat_files_make_no_dat_dir(mixed_cfg, tmp_path,
                                                    command):
    # gridinfo and compare used to make output.dat_dir, and a regular file
    # at that path made them exit 2
    made = tmp_path / "made"
    res = run_cli(command, "-c", mixed_cfg, "--set", "sweep.xi=2",
                  "--set", f"output.dat_dir={made}")
    assert res.returncode == 0, res.stderr
    assert not made.exists()


@pytest.mark.parametrize("command", ["export-rule", "dump-grid"])
def test_jsonl_flag_is_a_config_error_without_jsonl_output(
        mixed_cfg, tmp_path, command):
    # export-rule and dump-grid used to write csv or text and exit 0
    out = tmp_path / "out"
    res = run_cli(command, "-c", mixed_cfg, "--set", "sweep.xi=2",
                  "--format", "jsonl", "-o", str(out))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == f"config error: {command} has no jsonl output\n"
    assert not out.exists()


def test_closed_stdout_exits_1_without_traceback(mixed_cfg):
    # `sgqi export-rule ... | head -2` used to print a BrokenPipeError
    # traceback; the rule is larger than a pipe's buffer, so the write
    # fails once the reader has gone
    proc = subprocess.Popen([sys.executable, "-m", "sgqi.cli", "export-rule",
                             "-c", mixed_cfg, "--set", "sweep.xi=12"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"x_1,x_2,weight\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(), err) == (1, b"")
    proc.stderr.close()


def test_dump_grid_golden():
    res = run_cli("dump-grid",
                  "--set", "problem.family=fullgrid",
                  "--set", "problem.d=2",
                  "--set", "problem.lam=1",
                  "--set", "sweep.xi=2")
    assert res.returncode == 0, res.stderr
    assert res.stdout == ("0 0\n0 1\n0 2\n"
                          "1 0\n1 1\n1 2\n"
                          "2 0\n2 1\n2 2\n")


def test_dump_grid_anisotropic(mixed_cfg):
    res = run_cli("dump-grid", "-c", mixed_cfg, "--set", "sweep.xi=3")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().split("\n")
    levels = [tuple(int(tok) for tok in ln.split()) for ln in lines]
    assert (0, 0) in levels
    assert all(len(lv) == 2 for lv in levels)
    # a = (1, 2) weights the second coordinate twice as heavily
    assert (3, 0) in levels and (3, 1) not in levels


def test_exit_2_unknown_section(mixed_cfg):
    res = run_cli("gridinfo", "-c", mixed_cfg, "--set", "bogus.key=1")
    assert res.returncode == 2
    assert "config error" in res.stderr
    assert "bogus" in res.stderr


def test_exit_2_malformed_override(mixed_cfg):
    res = run_cli("gridinfo", "-c", mixed_cfg, "--set", "problem.family")
    assert res.returncode == 2
    assert "section.key=value" in res.stderr


def test_exit_2_unknown_family():
    res = run_cli("gridinfo", "--set", "problem.family=sobolev",
                  "--set", "sweep.budgets=4")
    assert res.returncode == 2
    assert "sobolev" in res.stderr


def test_exit_2_missing_key():
    res = run_cli("gridinfo", "--set", "problem.family=mixed",
                  "--set", "sweep.budgets=4")
    assert res.returncode == 2
    assert "problem.d" in res.stderr


def test_exit_2_bad_epsilon(mixed_cfg):
    res = run_cli("gridinfo", "-c", mixed_cfg,
                  "--set", "problem.theta=2",
                  "--set", "problem.epsilon=50")
    assert res.returncode == 2
    assert "legal interval" in res.stderr


def test_exit_2_unknown_corpus(mixed_cfg):
    res = run_cli("recover", "-c", mixed_cfg,
                  "--set", "sweep.corpus=nosuch")
    assert res.returncode == 2
    assert "nosuch" in res.stderr


def test_exit_2_points_below_one(mixed_cfg):
    # zero Halton points used to print nan error rows and exit 0
    res = run_cli("recover", "-c", mixed_cfg, "--set", "sweep.method=halton",
                  "--set", "sweep.points=0")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "sweep.points" in res.stderr


@pytest.mark.parametrize("method", ["halton", "mc"])
def test_exit_2_negative_seed(mixed_cfg, method):
    # numpy rejects the seed only once the first reconstruction is built,
    # which exited 3 as a numerical failure
    res = run_cli("recover", "-c", mixed_cfg, "--set", f"sweep.method={method}",
                  "--set", "sweep.seed=-1")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "sweep.seed" in res.stderr


@pytest.mark.parametrize("setting", [
    "sweep.lq=0", "sweep.lq=nan", "sweep.method=bogus", "sweep.resolution=1",
    "sweep.resolution=0,5", "sweep.resolution=3,3,3", "sweep.offset=maybe"])
@pytest.mark.parametrize("command", ["recover", "integrate"])
def test_exit_2_bad_error_settings(mixed_cfg, capsys, monkeypatch, command,
                                   setting):
    # these exited 3 after the first build, and offset=maybe read as false
    from sgqi import cli, cubature, recovery

    def unexpected(*args):
        raise AssertionError("built before the settings were checked")

    monkeypatch.setattr(recovery, "build", unexpected)
    monkeypatch.setattr(cubature, "assemble_weights", unexpected)
    assert cli.main([command, "-c", mixed_cfg, "--set", setting]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "config error" in out.err and setting.split("=")[0] in out.err


@pytest.mark.parametrize("raw, want", [
    ("true", True), ("Yes", True), ("1", True), (" false", False),
    ("NO", False), ("0", False)])
def test_offset_flags(raw, want):
    from sgqi import cli, grids

    spec = grids.SmoothnessSpec(d=2, r=2, p=2.0, theta=1.0, q=2.0,
                                kind="mixed", a=(1.0, 2.0))
    cfg = {"sweep": dict(cli._DEFAULTS["sweep"], offset=raw)}
    assert cli._error_kwargs(cfg, spec)["offset"] is want


@pytest.mark.parametrize("setting", ["problem.d=0", "problem.d=-2",
                                     "problem.lam=0", "problem.lam=nan"])
@pytest.mark.parametrize("family", ["fullgrid", "smolyak"])
def test_exit_2_bad_comparison_set(capsys, family, setting):
    # d = 0 printed a blank line, d < 0 raised IndexError, lam = 0 exited 3
    from sgqi import cli

    assert cli.main(["dump-grid", f"--set=problem.family={family}",
                     "--set=problem.d=2", "--set=sweep.xi=2",
                     f"--set={setting}"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "config error" in out.err and setting.split("=")[0] in out.err


def test_exit_2_degenerate_level_set(capsys):
    # alpha + beta - gamma = 1e-12: every budget used to read as below the
    # minimal grid (exit 3), as the set at xi = 0 held 10^3 levels per axis
    from sgqi import cli

    assert cli.main(["gridinfo", "--set=problem.family=energy",
                     "--set=problem.d=2", "--set=problem.r=2",
                     "--set=problem.p=2", "--set=problem.theta=2",
                     "--set=problem.q=2", "--set=problem.alpha=0.6",
                     "--set=problem.beta=1e-12", "--set=problem.gamma=0.6",
                     "--set=sweep.budgets=100"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "degenerate" in out.err


ENERGY = ["problem.family=energy", "problem.alpha=2", "problem.beta=0.5",
          "problem.gamma=1", "problem.theta=1", "problem.r=4"]


@pytest.mark.parametrize("tau", ["-1", "nan", "0"])
def test_exit_2_tau_not_positive(mixed_cfg, capsys, monkeypatch, tau):
    # gridinfo printed an energy-eps row and exited 0
    from sgqi import cli, grids

    def unexpected(*args, **kwargs):
        raise AssertionError("level set made before tau was checked")

    monkeypatch.setattr(grids, "delta_for_family", unexpected)
    argv = ["gridinfo", "-c", mixed_cfg]
    for item in ENERGY + [f"problem.tau={tau}"]:
        argv += ["--set", item]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == (
        "", f"config error: problem.tau must be positive: {float(tau)!r}\n")
    monkeypatch.undo()
    # tau = inf is valid, and theta <= tau* = 1 makes the sharp set
    argv[-1] = "problem.tau=inf"
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.split("\n")[1].startswith("energy,")


@pytest.mark.parametrize("budgets", ["0", "-5", "100,-1", "abc", " , "])
@pytest.mark.parametrize("command", ["export-rule", "dump-grid"])
def test_exit_2_bad_single_budget(mixed_cfg, capsys, command, budgets):
    # these parsed only the first budget: 0 and -5 exited 3 as below the
    # minimal grid, 100,-1 ran on 100
    from sgqi import cli

    assert cli.main([command, "-c", mixed_cfg,
                     f"--set=sweep.budgets={budgets}"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "config error" in out.err and "sweep.budgets" in out.err


@pytest.mark.parametrize("command", ["export-rule", "dump-grid"])
def test_single_budget_skips_blanks_like_sweeps(mixed_cfg, capsys, command):
    # ",100" was "not an integer: ''" here while integrate accepted it
    from sgqi import cli

    assert cli.main([command, "-c", mixed_cfg, "--set=sweep.budgets=100"]) == 0
    want = capsys.readouterr().out
    assert cli.main([command, "-c", mixed_cfg,
                     "--set=sweep.budgets=,100, 26"]) == 0
    assert capsys.readouterr().out == want != ""


@pytest.mark.parametrize("argv", [
    ["recover", "--set=sweep.corpus="],
    ["recover", "--set=sweep.corpus= , "],
    ["integrate", "--set=sweep.corpus="],
    ["integrate", "--set=sweep.corpus= , "],
    ["compare", "--set=problem.family=hybrid", "--set=problem.alpha=1.5",
     "--set=problem.beta=-0.5", "--set=sweep.xi="],
    ["compare", "--set=problem.family=hybrid", "--set=problem.alpha=1.5",
     "--set=problem.beta=-0.5", "--set=sweep.xi= , "],
], ids=["recover", "recover-commas", "integrate", "integrate-commas",
        "compare", "compare-commas"])
def test_exit_2_empty_list(mixed_cfg, capsys, monkeypatch, argv):
    # an empty corpus or xi list printed the header alone and exited 0
    from sgqi import cli, grids

    def unexpected(*args, **kwargs):
        raise AssertionError("level sets enumerated before the list check")

    monkeypatch.setattr(grids, "xi_for_budget", unexpected)
    monkeypatch.setattr(grids, "comparison_sets", unexpected)
    assert cli.main([argv[0], "-c", mixed_cfg, *argv[1:]]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    key = argv[-1].split("=")[1]
    assert "config error" in out.err and key in out.err


HYBRID = ["problem.family=hybrid", "problem.alpha=1.5", "problem.beta=-0.5"]

CONFIG_ERRORS = [
    ("missing-key", "compare", [], "missing required config key sweep.xi"),
    ("not-a-number", "gridinfo", ["problem.p=abc"],
     "problem.p: not a number: 'abc'"),
    ("not-an-integer", "gridinfo", ["problem.d=2.5"],
     "problem.d: not an integer: '2.5'"),
    ("list-token", "gridinfo", ["problem.a=1, x"],
     "problem.a: not a number: ' x'"),
    ("epsilon", "gridinfo", ["problem.epsilon=x"],
     "problem.epsilon: not a number: 'x'"),
    ("gamma", "gridinfo", HYBRID + ["problem.gamma=x"],
     "problem.gamma: not a number: 'x'"),
    ("lq", "recover", ["sweep.lq=0"], "sweep.lq must be positive: 0.0"),
    ("points", "recover", ["sweep.method=halton", "sweep.points=0"],
     "sweep.points must be at least 1"),
    ("seed", "recover", ["sweep.method=mc", "sweep.seed=-1"],
     "sweep.seed must be non-negative: -1"),
    ("xi", "compare", HYBRID + ["sweep.xi=2, nan"],
     "sweep.xi must be finite and nonnegative: ' nan'"),
    ("budgets", "integrate", ["sweep.budgets=100,-1"],
     "sweep.budgets must be positive integers"),
    ("resolution", "recover", ["sweep.resolution=3,3,3"],
     "sweep.resolution: '3,3,3' is not 1 or 2 integers of at least 2"),
    ("offset", "integrate", ["sweep.offset=maybe"],
     "sweep.offset is not true or false: 'maybe'"),
    ("family", "gridinfo", ["problem.family=sobolev"],
     "unknown family 'sobolev'"),
    ("method", "recover", ["sweep.method=bogus"],
     "unknown sweep.method 'bogus'"),
    ("corpus", "integrate", ["sweep.corpus=poly,nosuch"],
     "unknown corpus function 'nosuch'"),
    ("empty-corpus", "recover", ["sweep.corpus= , "],
     "sweep.corpus names no function"),
    ("empty-xi", "compare", HYBRID + ["sweep.xi= , "],
     "sweep.xi names no value"),
] + [(f"format-{command}", command, ["output.format=xml", "sweep.xi=2"],
      "unknown output format 'xml'")
     for command in ("gridinfo", "recover", "integrate", "compare",
                     "export-rule", "dump-grid")] + [
    (f"jsonl-{command}", command, ["output.format=jsonl", "sweep.xi=2"],
     f"{command} has no jsonl output") for command in ("export-rule",
                                                       "dump-grid")]


@pytest.mark.parametrize("command, settings, message",
                         [case[1:] for case in CONFIG_ERRORS],
                         ids=[case[0] for case in CONFIG_ERRORS])
def test_config_error_lines(mixed_cfg, capsys, monkeypatch, command,
                            settings, message):
    # every check of a key runs before anything is built, assembled or
    # searched; output.format was read only once a table had been computed,
    # and export-rule and dump-grid ignored it
    from sgqi import cli, cubature, grids, recovery

    def unexpected(*args, **kwargs):
        raise AssertionError("work started before the config was checked")

    for module, name in [(recovery, "build"), (cubature, "assemble_weights"),
                         (grids, "xi_for_budget"),
                         (grids, "comparison_sets")]:
        monkeypatch.setattr(module, name, unexpected)
    argv = [command, "-c", mixed_cfg]
    for item in settings:
        argv += ["--set", item]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")


@pytest.mark.parametrize("content", [
    b"family = mixed\n", b"[problem]\nfamily = \xe9nergie\n"],
    ids=["no-section-header", "not-utf-8"])
def test_exit_2_unparsable_config_file(tmp_path, capsys, content):
    # these raised out of main: a traceback, exit 1
    from sgqi import cli

    path = tmp_path / "config.ini"
    path.write_bytes(content)
    assert cli.main(["gridinfo", "-c", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"config error: config file {str(path)!r}: ")


def test_exit_3_budget_below_minimal(mixed_cfg):
    res = run_cli("gridinfo", "-c", mixed_cfg, "--set", "sweep.budgets=1")
    assert res.returncode == 3
    assert "numerical failure" in res.stderr


def test_jsonl_round_trip(mixed_cfg, tmp_path):
    out = tmp_path / "rows.jsonl"
    res = run_cli("gridinfo", "-c", mixed_cfg, "--format", "jsonl",
                  "-o", str(out))
    assert res.returncode == 0
    lines = out.read_text().strip().split("\n")
    objs = [json.loads(ln) for ln in lines]
    hashes = {o["config_hash"] for o in objs}
    assert len(hashes) == 1


def test_hash_tracks_experiment_not_output(mixed_cfg, tmp_path):
    base = run_cli("gridinfo", "-c", mixed_cfg)
    other_out = run_cli("gridinfo", "-c", mixed_cfg,
                        "--set", f"output.dat_dir={tmp_path / 'x'}")
    changed = run_cli("gridinfo", "-c", mixed_cfg,
                      "--set", "sweep.budgets=4,10,26,60")
    h = lambda r: parse_csv(r.stdout)[1][0][-1]
    assert h(base) == h(other_out)
    assert h(base) != h(changed)


@pytest.mark.parametrize("cfg", [
    {"problem": {}, "sweep": {}},
    {"problem": {"family": "mixed", "d": "2", "a": "1,2"},
     "sweep": {"budgets": "100,300", "corpus": "poly"},
     "output": {"path": "-"}},
    {"problem": {"family": "énergie", "gamma": "½"},
     "sweep": {"xi": "2", "note": "Ωmega – 試験 🙂"}},
], ids=["empty", "readme-like", "non-ascii"])
def test_config_hash_is_sha256_of_experiment(cfg):
    from sgqi import cli

    experiment = {sec: cfg[sec] for sec in ("problem", "sweep")}
    canon = json.dumps(experiment, sort_keys=True).encode()
    assert cli._config_hash(cfg) == hashlib.sha256(canon).hexdigest()[:12]


def test_config_hash_falls_back_to_hashlib():
    # an interpreter built without the builtin SHA-256 module, as some FIPS
    # distributions are, hashes through hashlib to the same digest
    code = textwrap.dedent("""\
        import hashlib, sys
        sys.modules["_sha2"] = sys.modules["_sha256"] = None
        from sgqi import cli
        assert cli.sha256 is hashlib.sha256
        cfg = {"problem": {"family": "énergie"}, "sweep": {"xi": "2"}}
        print(cli._config_hash(cfg))
        """)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    canon = json.dumps({"problem": {"family": "énergie"},
                        "sweep": {"xi": "2"}}, sort_keys=True).encode()
    assert res.stdout == hashlib.sha256(canon).hexdigest()[:12] + "\n"


def test_import_leaves_scipy_stats_unloaded(mixed_cfg, tmp_path):
    # scipy is slow to import: no command loads any scipy module.  Table
    # products load scipy's compiled CSR kernel from its extension file
    # alone.  The row hash comes from CPython's builtin SHA-256, and Halton
    # designs for integer seeds shuffle through Python's random.Random, so
    # no command maps OpenSSL's libcrypto (_hashlib) or loads numpy.random,
    # halton recover included; mc recover still may, because it draws
    # through numpy.random, which imports hashlib.  Exact
    # integrals are integer numerators, so no command loads fractions or
    # decimal
    commands = [
        ["integrate", "-c", mixed_cfg],
        ["export-rule", "-c", mixed_cfg, "--set", "sweep.xi=2"],
        ["gridinfo", "-c", mixed_cfg],
        ["compare", "-c", mixed_cfg, "--set", "problem.family=hybrid",
         "--set", "problem.alpha=1.5", "--set", "problem.beta=-0.5",
         "--set", "sweep.xi=2,4"],
        ["dump-grid", "-c", mixed_cfg, "--set", "sweep.xi=3"],
        ["recover", "-c", mixed_cfg, "--set", "sweep.method=lattice"],
        ["recover", "-c", mixed_cfg, "--set", "sweep.method=halton",
         "--set", "sweep.points=4096"],
    ]
    mc = ["recover", "-c", mixed_cfg, "--set", "sweep.method=mc",
          "--set", "sweep.points=4096"]
    out = str(tmp_path / "out")
    code = textwrap.dedent(f"""\
        import sys, sgqi.cli
        loaded = lambda *names: [m for m in sys.modules
                                 if m in ("fractions", "decimal")
                                 or any(m == n or m.startswith(n + ".")
                                        for n in names)]
        print(loaded("scipy", "_hashlib", "numpy.random"))
        for argv in {commands!r}:
            assert sgqi.cli.main(argv + ["-o", {out!r}]) == 0, argv
            print(loaded("scipy", "_hashlib", "numpy.random"))
        assert sgqi.cli.main({mc!r} + ["-o", {out!r}]) == 0
        print(loaded("scipy"))
        """)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n") == ["[]"] * (len(commands) + 2) + [""]


def test_library_products_leave_scipy_unloaded():
    # build, evaluate_lattice, q_level and apply_Q apply tables through
    # scipy's compiled kernel, loaded without importing any scipy module
    code = textwrap.dedent("""\
        import sys
        import numpy as np
        from sgqi import grids, quasi_interp, recovery
        f = lambda X: np.sin(X[:, 0]) * np.cos(X[:, 1])
        levels = tuple(sorted(np.ndindex(4, 3)))
        delta = grids.LevelSet(d=2, levels=levels, xi=3.0, family="box")
        rec = recovery.build(f, delta, 4)
        recovery.evaluate_lattice(rec, [np.linspace(0, 1, 9)] * 2)
        quasi_interp.q_level(f, 3, (2, 1))
        quasi_interp.apply_Q(f, 4, (2, 2), [0.3, 0.7])
        print([m for m in sys.modules
               if m.split(".")[0] in ("scipy", "_hashlib")])
        """)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert (res.returncode, res.stdout) == (0, "[]\n"), res.stderr
