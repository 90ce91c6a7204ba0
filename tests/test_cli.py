"""Command line behavior: exit codes, config precedence, report output."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import so4atom
from so4atom import catalog, report, spectrum
from so4atom.cli import MAX_POINTS, RunConfig, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- verify -----------------------------------------------------------------


def test_verify_single_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "so3")
    assert code == 0
    assert "verify so3: 22 pass, 0 fail" in out
    assert err == ""


def test_verify_all_suites(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    for line in (
        "verify so3: 22 pass, 0 fail",
        "verify so4: 14 pass, 0 fail",
        "verify inverse: 10 pass, 0 fail",
        "verify theorem: 97 pass, 0 fail",
        "verify spectrum_algebra: 21 pass, 0 fail",
    ):
        assert line in out


def test_verify_mu_lens_reports_skips(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "theorem", "--mu", "1")
    assert code == 0
    assert "94 pass, 0 fail, 3 skipped" in out


def test_verify_spin_half(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "so4", "--spin", "half")
    assert code == 0
    assert "14 pass" in out


# -- usage errors exit 2 ----------------------------------------------------


def test_unknown_suite_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--suite", "bogus")
    assert code == 2
    assert "unknown suite" in err


def test_missing_suite_file_exit_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SO4ATOM_DATA_DIR", str(tmp_path))
    code, out, err = run(capsys, "verify", "--suite", "so3")
    assert code == 2
    assert "so3.ident" in err
    assert "pass" not in out


@pytest.mark.parametrize(
    "name,old,new,bad,command",
    [
        ("so3", "check l_cross_l", "stray\ncheck l_cross_l", "stray", "so3"),
        ("so3", "let H = dot(p,p)/(2*M) - kappa*r^-1", "let H = dot(p,q)", "let H = dot(p,q)",
         "so3"),
        # so4 borrows so3's H: the error names the line in so3.ident
        ("so3", "let H = dot(p,p)/(2*M) - kappa*r^-1", "let H = dot(p,q)", "let H = dot(p,q)",
         "so4"),
        ("so4", "use so3", "use so3\nuse nope", "use nope", "so4"),
        # '²' is a digit to str.isdigit, but not one int() reads
        ("so3", "check l_cross_l", "check sq : r^² == r^2\ncheck l_cross_l",
         "check sq : r^² == r^2", "so3"),
    ],
)
def test_malformed_suite_file_exit_2(capsys, tmp_path, monkeypatch, name, old, new, bad, command):
    # a suite file that does not parse, a bad use line and a let that does
    # not elaborate are usage errors naming the file and the line; the
    # oracle, which walks a let's body without elaborating it, names them too
    data = tmp_path / "data"
    shutil.copytree(catalog.data_dir(), data)
    path = data / (name + ".ident")
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    line = path.read_text().splitlines().index(bad) + 1
    monkeypatch.setenv("SO4ATOM_DATA_DIR", str(data))
    for argv in (("verify", "--suite", command), ("all",),
                 ("oracle", "--suite", command, "--points", "2")):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "error: %s line %d: " % (path, line) in err


def test_bad_j_exit_2(capsys):
    code, _, err = run(capsys, "spectrum", "--j", "x/y")
    assert code == 2
    assert "--j" in err


def test_j_with_zero_denominator_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "spectrum", "--j", "1/0")
    assert code == 2
    assert "cannot parse --j" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("j = 1/0\n")
    code, _, err = run(capsys, "spectrum", "--config", str(cfg))
    assert code == 2
    assert "cannot parse --j" in err


@pytest.mark.parametrize("j, message", [("1/0", "cannot parse --j"),
                                         ("2", "positive half-odd integer")])
def test_all_rejects_bad_j_before_any_work(capsys, tmp_path, j, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("j = %s\n" % j)
    code, out, err = run(capsys, "all", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("points", ["0", "-3"])
def test_empty_oracle_sample_exit_2(capsys, points):
    # an empty sample would report a vacuous pass
    code, out, err = run(capsys, "oracle", "--suite", "so3", "--points", points)
    assert code == 2
    assert "points must be at least 1" in err
    assert "pass" not in out


@pytest.mark.parametrize("argv", [
    ["oracle", "--points", "100000000"],
    ["oracle", "--suite", "so3", "--points", str(MAX_POINTS + 1)],
    ["all", "--points", "100000000"],
])
def test_oracle_sample_above_the_maximum_exit_2_before_any_work(capsys, monkeypatch, argv):
    # the count is refused while the config is built, so nothing is sampled
    from so4atom import oracle

    def no_work(*args, **kwargs):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(oracle, "run_battery", no_work)
    monkeypatch.setattr(catalog, "run_suite", no_work)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "at most %d" % MAX_POINTS in err


@pytest.mark.parametrize("argv", [
    ["--levels", "0"],
    ["--levels", "-1"],
    ["--j", "1/2", "--levels", "0"],
])
def test_bad_level_count_exit_2(capsys, argv):
    code, out, err = run(capsys, "spectrum", *argv)
    assert code == 2
    assert "need at least 1" in err
    assert "matched" not in out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("argv", [
    ["spectrum", "--grid-n", "2000", "--rmax", "150"],
    ["oracle", "--suite", "so3"],
])
def test_bad_tol_exit_2(capsys, argv, tol):
    # a nan tolerance would pass every comparison it meets: no FAIL, exit 0
    code, out, err = run(capsys, *argv, "--tol", tol)
    assert code == 2
    assert "tol must be a finite number above 0" in err
    assert out == ""


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_bad_tol_in_config_exit_2(capsys, tmp_path, tol):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = %s\n" % tol)
    code, out, err = run(capsys, "oracle", "--suite", "so3", "--config", str(cfg))
    assert code == 2
    assert "tol must be a finite number above 0" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["--rmax", "nan"],
    ["--rmax=inf"],
    ["--k1", "nan"],
    ["--j", "1/2", "--k2", "inf"],
    ["--j", "1/2", "--k2", "nan"],
])
def test_non_finite_spectrum_input_exit_2(capsys, argv):
    # nan slips past the grid's range checks and fails inside the solver
    code, out, err = run(capsys, "spectrum", *argv)
    assert code == 2
    assert "must be a finite number" in err
    assert out == ""


@pytest.mark.parametrize("line", ["rmax = nan", "k1 = inf"])
def test_non_finite_spectrum_input_in_config_exit_2(capsys, tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run(capsys, "spectrum", "--config", str(cfg))
    assert code == 2
    assert "must be a finite number" in err
    assert out == ""


def test_rmin_is_no_option_exit_2(capsys, tmp_path):
    # the box is [0, rmax]: neither a flag nor a config line moves its wall
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--rmin", "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rmin = 0\n")
    code, out, err = run(capsys, "spectrum", "--config", str(cfg))
    assert code == 2
    assert "unknown config key 'rmin'" in err
    assert out == ""


@pytest.mark.parametrize("command", ["spectrum", "all"])
def test_k2_without_j_exit_2(capsys, command):
    # the default study sweeps its own k2 values, so a given k2 would be ignored
    code, out, err = run(capsys, command, "--k2", "5")
    assert code == 2
    assert "k2 needs j" in err
    assert out == ""


def test_k2_without_j_in_config_exit_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k2 = 0.3\n")
    code, out, err = run(capsys, "spectrum", "--config", str(cfg))
    assert code == 2
    assert "k2 needs j" in err


@pytest.mark.parametrize("argv, flag", [
    (["--out", "r.json"], "--out"),
    (["--format", "json"], "--format"),
    (["--config", "run.cfg"], "--format, --out"),
])
def test_all_rejects_report_flags_exit_2(capsys, tmp_path, monkeypatch, argv, flag):
    # all writes no report, so these flags would otherwise be dropped silently
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("format = json\nout = r.json\n")
    code, out, err = run(capsys, "all", *argv)
    assert code == 2
    assert flag in err
    assert out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("argv, named", [
    (["verify", "--suite", "so3", "--k2", "5", "--grid-n", "7", "--levels", "3"],
     "verify does not read --k2, --grid-n, --levels"),
    (["oracle", "--mu", "0"], "oracle does not read --mu"),
    (["inverse", "--seed", "3"], "inverse does not read --seed"),
    (["spin-potential", "--spin", "half"], "spin-potential does not read --spin"),
    (["spectrum", "--suite", "so3"], "spectrum does not read --suite"),
])
def test_flag_the_command_does_not_read_exit_2(capsys, argv, named):
    # an ignored flag would report a run the user did not ask for
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert named in err
    assert out == ""


@pytest.mark.parametrize("key, value", [
    ("mu", "2"), ("spin", "full"), ("format", "xml"), ("format", "csv"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_bad_choice_exit_2_before_any_work(capsys, tmp_path, key, value, source):
    # a flag and a config value take one path, so both fail before verify runs
    if source == "flag":
        argv = ["--" + key, value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("%s = %s\n" % (key, value))
        argv = ["--config", str(cfg)]
    code, out, err = run(capsys, "verify", "--suite", "so3", *argv)
    assert code == 2
    assert out == ""
    assert repr(value) in err
    assert key in err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "so3"],
    ["spectrum", "--j", "1/2"],
])
def test_unwritable_out_exit_2(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "r.json"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert str(path) in err
    assert "Traceback" not in err


def test_bad_config_key_exit_2(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 3\n")
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "frobnicate" in err


def test_missing_config_file_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--config", str(tmp_path / "nope.cfg"))
    assert code == 2


def test_malformed_config_line_exit_2(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "key=value" in err


# -- config file precedence -------------------------------------------------


def test_config_file_sets_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# pick one suite\nsuite = so4\n")
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == 0
    assert "verify so4" in out
    assert "verify so3" not in out


def test_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite = so4\ngrid-n = 1234\n")
    code, out, _ = run(capsys, "verify", "--config", str(cfg), "--suite", "inverse")
    assert code == 0
    assert "verify inverse" in out
    assert "verify so4" not in out


def test_dashed_keys_normalize():
    from so4atom.cli import _parse_config_file
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".cfg", delete=False) as fh:
        fh.write("grid-n = 999\nrmax = 80.5\n")
        path = fh.name
    try:
        values = _parse_config_file(path)
    finally:
        os.unlink(path)
    assert values == {"grid_n": 999, "rmax": 80.5}


# -- scans ------------------------------------------------------------------


def test_inverse_command(capsys):
    code, out, _ = run(capsys, "inverse")
    assert code == 0
    assert "dim 1 {r^-1}" in out
    assert "[pass]" in out


def test_spin_potential_command(capsys):
    code, out, _ = run(capsys, "spin-potential")
    assert code == 0
    assert "dim 2 {r^-1, (r.S)*r^-2}" in out


# -- oracle -----------------------------------------------------------------


def test_oracle_single_suite(capsys):
    code, out, _ = run(capsys, "oracle", "--suite", "so3", "--points", "4")
    assert code == 0
    assert "oracle so3" in out
    assert "seed 42" in out


def test_oracle_seed_echoed(capsys):
    code, out, _ = run(capsys, "oracle", "--suite", "so3", "--points", "4",
                       "--seed", "7")
    assert code == 0
    assert "seed 7" in out


def test_oracle_reports_a_failure_under_its_own_suite(capsys, tmp_path, monkeypatch):
    # so4 gains a false check whose id so3 also uses
    data = tmp_path / "data"
    shutil.copytree(catalog.data_dir(), data)
    with open(data / "so4.ident", "a", encoding="utf-8") as fh:
        fh.write("check l_cross_l : cross(l,l) == 2*i*hbar*l\n")
    monkeypatch.setenv("SO4ATOM_DATA_DIR", str(data))
    code, out, _ = run(capsys, "oracle", "--points", "2")
    assert code == 1
    lines = {line.split(":")[0]: line for line in out.splitlines()}
    assert "[pass]" in lines["oracle so3"]
    assert "[FAIL]" in lines["oracle so4"]


def test_oracle_theorem_suite_passes(capsys):
    code, out, _ = run(capsys, "oracle", "--suite", "theorem", "--seed", "42")
    assert code == 0
    assert "oracle theorem:" in out
    assert "[pass]" in out


# -- spectrum ---------------------------------------------------------------


def test_spectrum_single_sector(capsys):
    code, out, _ = run(capsys, "spectrum", "--j", "1/2", "--k2", "0")
    assert code == 0
    assert "matched levels" in out
    assert "[pass]" in out


def test_spectrum_csv_to_stdout(capsys):
    code, out, _ = run(capsys, "spectrum", "--j", "1/2", "--k2", "0",
                       "--format", "csv")
    assert code == 0
    assert "sector_j,channel,level_index" in out
    assert "j=1/2" in out


def test_spectrum_labels_a_deep_level_beyond_n_8(capsys):
    # one channel holds all 8 levels, so the 8th is nu = 17/2, n = 9
    code, out, _ = run(capsys, "spectrum", "--j", "1/2", "--k2", "2",
                       "--format", "csv")
    assert code == 0
    eighth = out.splitlines()[-1].split(",")
    assert eighth[:3] == ["j=1/2", "s_r=-0.5", "7"]
    assert eighth[5] == "n=9"


def test_spectrum_with_no_level_below_cutoff_fails(capsys):
    # no charge: nothing is bound, so nothing is matched, and that is no pass
    code, out, _ = run(capsys, "spectrum", "--k1", "0")
    assert code == 1
    assert "spectrum: 0 matched levels" in out
    assert "[FAIL]" in out


def test_spectrum_coarse_grid_fails_tolerance(capsys):
    # the worst level of the pair (250, 500) in this smaller box is 5.11e-5 off
    code, out, _ = run(capsys, "spectrum", "--grid-n", "500", "--rmax", "150",
                       "--tol", "1e-5")
    assert code == 1
    assert "[FAIL]" in out


def test_spectrum_loose_tol_rescues_coarse_grid(capsys):
    code, out, _ = run(capsys, "spectrum", "--grid-n", "500", "--rmax", "150",
                       "--tol", "1e-4")
    assert code == 0
    assert "[pass]" in out


def test_spectrum_json_reports_each_level_margin(capsys, tmp_path):
    out_path = tmp_path / "levels.json"
    code, _, _ = run(capsys, "spectrum", "--format", "json", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    tol = payload["config"]["tol"]
    assert tol == 1e-3
    assert len(payload["checks"]) == 44
    for entry in payload["checks"]:
        assert entry["margin"] == entry["residual"] / tol
        assert entry["margin"] < 0.1
        # the solver's own estimate, made without the closed form, never
        # understates the true error
        assert entry["residual"] <= entry["est_error"] < tol
    assert list(payload["checks"][0]) == ["id", "status", "residual", "margin",
                                          "est_error", "elapsed_ms"]


def spectrum_rows(capsys, *argv):
    """The CSV rows of a spectrum run, keyed by (sector, channel, level)."""
    code, out, _ = run(capsys, "spectrum", *argv, "--format", "csv")
    assert code == 0
    return {tuple(line.split(",")[:3]): line for line in out.splitlines()[2:]}


def test_a_level_prints_the_same_row_whatever_the_count(capsys):
    # stebz's last digits depend on how many levels are bisected; they are
    # not printed, so --levels only adds or drops rows
    full = spectrum_rows(capsys, "--levels", "8")
    for count in range(1, 8):
        rows = spectrum_rows(capsys, "--levels", str(count))
        assert rows and set(rows) <= set(full)
        assert {key: full[key] for key in rows} == rows, count


def test_spectrum_drops_levels_the_coarse_grid_does_not_resolve(capsys):
    # at 250 levels on the pair (250, 500) the top levels are unresolved on
    # the coarse grid; extrapolated, they went as deep as -11524 and matched
    # 614 rows.  Dropped, the rows are those of a count the grid resolves
    def labels(count):
        code, out, _ = run(capsys, "spectrum", "--grid-n", "500", "--levels", count,
                           "--format", "csv")
        rows = [line.split(",") for line in out.splitlines()[2:]]
        return code, [row[:3] + row[5:7] for row in rows]

    code, resolved = labels("200")
    assert code == 0 and len(resolved) == 44
    assert labels("250") == (0, resolved)


@pytest.mark.parametrize("argv, size", [
    (["--grid-n", "500", "--levels", "251"], 250),
    (["--grid-n", "1001", "--levels", "501"], 500),
    (["--j", "1/2", "--grid-n", "501", "--levels", "501"], 500),
])
def test_spectrum_levels_beyond_the_coarse_grid_exit_2(capsys, argv, size):
    # every level is extrapolated from the coarse grid grid_n // 2 too, so
    # that grid's size per channel caps the count, before any work
    code, out, err = run(capsys, "spectrum", *argv)
    assert code == 2
    assert "from a sector of %d on the coarse grid" % size in err
    assert out == ""


# -- report files -----------------------------------------------------------


def test_verify_json_report(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--suite", "so4", "--format", "json",
                     "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["command"] == "verify"
    assert payload["summary"] == {"pass": 14, "fail": 0}
    assert len(payload["checks"]) == 14
    for entry in payload["checks"]:
        assert entry["status"] == "pass"


def test_verify_md_report(capsys, tmp_path):
    out_path = tmp_path / "report.md"
    code, _, _ = run(capsys, "verify", "--suite", "so3", "--format", "md",
                     "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert "| id | status |" in text
    assert "| l_cross_l | pass |" in text


def test_spectrum_csv_report(capsys, tmp_path):
    out_path = tmp_path / "levels.csv"
    code, _, _ = run(capsys, "spectrum", "--j", "3/2", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("sector_j,")
    assert len(lines) > 3


def test_report_bytes_stable_modulo_timing(capsys, tmp_path):
    a_path = tmp_path / "a.json"
    b_path = tmp_path / "b.json"
    run(capsys, "verify", "--suite", "inverse", "--format", "json",
        "--out", str(a_path))
    run(capsys, "verify", "--suite", "inverse", "--format", "json",
        "--out", str(b_path))
    a = report.strip_elapsed(a_path.read_text())
    b = report.strip_elapsed(b_path.read_text())
    assert a == b


# -- the all command --------------------------------------------------------


def test_all_command(capsys):
    code, out, _ = run(capsys, "all", "--points", "2", "--grid-n", "4000")
    assert code == 0
    for fragment in ("verify so3", "oracle theorem", "inverse:",
                     "spin-potential:", "spectrum:"):
        assert fragment in out


@pytest.mark.parametrize("argv, message", [
    (["--grid-n", "100"], "grid_n below 500"),
    (["--levels", "0"], "need at least 1"),
    (["--rmax", "0"], "need 0 < r_max < inf"),
    (["--levels", "501"], "levels from a sector of 500 on the coarse grid"),
    (["--k1=-1e300"], "beyond float range"),
])
def test_all_checks_spectrum_input_before_any_work(capsys, argv, message):
    # a bad spectrum request must fail before verify, oracle and the scans print
    code, out, err = run(capsys, "all", *argv)
    assert code == 2
    assert message in err
    assert out == ""


@pytest.mark.parametrize("argv, code", [
    (["--k1=-1e5"], 1),
    (["--j", "1/2", "--k2", "1e6"], 1),
    (["--j", "1/2", "--k2", "1e150"], 1),
    (["--k1=-1e300"], 2),
    (["--j", "1/2", "--k2", "1e300"], 2),
])
def test_spectrum_large_coupling_ends_without_a_traceback(argv, code):
    # the prediction table is as deep as the levels held, not as the cutoff
    # allows (n up to about 4.5 |g| in the default box), and a coupling
    # whose deepest level overflows a float is refused before any work
    src = os.path.dirname(os.path.dirname(so4atom.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "so4atom", "spectrum", *argv],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 2:
        assert "beyond float range" in proc.stderr
        assert proc.stdout == ""
    else:
        assert "[FAIL]" in proc.stdout


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(so4atom.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "so4atom", "verify", "--suite", "so3"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "verify so3: 22 pass, 0 fail" in proc.stdout


def test_engine_only_command_leaves_numpy_unimported():
    # the oracle and the spectrum are imported by the commands that use them
    src = os.path.dirname(os.path.dirname(so4atom.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "so4atom",
                           "verify", "--suite", "so3"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "so4atom.cli" in imported
    assert "numpy" not in imported


@pytest.mark.parametrize("argv", [["all", "--seed", "1"], ["spectrum", "--j", "1/2"]])
def test_the_spectrum_leaves_scipy_linalg_unimported(argv):
    # it loads scipy's compiled LAPACK module alone; only the tests'
    # coupled_levels imports scipy.linalg
    src = os.path.dirname(os.path.dirname(so4atom.__file__))
    code = ("import sys; from so4atom import cli; code = cli.main(%r); "
            "print(code, 'scipy.linalg' in sys.modules, "
            "'scipy.linalg._flapack' in sys.modules)" % (argv,))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False True"


def test_runconfig_defaults():
    cfg = RunConfig()
    assert cfg.suite == "all"
    assert cfg.seed == 42
    assert cfg.grid_n == spectrum.DEFAULT_GRID_N
    assert cfg.rmax == 200.0
    assert cfg.tol is None  # per-command default fills this in
