"""Experiment-runner behavior: exits, artifacts, precedence, determinism."""

import contextlib
import datetime
import io
import json
import math
import pathlib
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clocklab import (
    build_psi,
    cli,
    energy_of_rho,
    gaussian_profile,
    intensive_su2_clock,
    ladder_match,
    random_profile,
    resonant_ladder,
)


def run(args):
    return cli.main(args)


def only_run_dir(out, sub):
    runs = sorted((pathlib.Path(out) / sub).iterdir())
    assert len(runs) == 1
    return runs[0]


def test_success_writes_three_artifacts(tmp_path):
    rc = run(["symbol", "--algebra", "su2", "--points", "5", "--out", str(tmp_path)])
    assert rc == 0
    run_dir = only_run_dir(tmp_path, "symbol")
    for name in ("data.csv", "summary.json", "config.echo"):
        assert (run_dir / name).is_file()
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["pass"] is True
    assert summary["subcommand"] == "symbol"
    assert len(summary["config_sha256"]) == 64
    assert summary["seed"] == 2026
    assert summary["tolerances"]["tol_symbol_su2"] == 1e-10
    assert all("check_id" in c and "passed" in c for c in summary["checks"])


def test_failed_check_exits_one_with_artifacts(tmp_path):
    rc = run(["symbol", "--algebra", "su2", "--points", "3", "--out", str(tmp_path),
              "--tol-override", "symbol_su2=1e-30"])
    assert rc == 1
    summary = json.loads((only_run_dir(tmp_path, "symbol") / "summary.json").read_text())
    assert summary["pass"] is False


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("definitely_not_a_key=1\n")
    rc = run(["symbol", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert not (tmp_path / "o").exists()
    assert "config error" in capsys.readouterr().err


def test_bad_value_exits_two(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sym_points=eleven\n")
    assert run(["symbol", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_missing_config_file_exits_two(tmp_path):
    assert run(["symbol", "--config", str(tmp_path / "nope.cfg"),
                "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_garbled_line_exits_two(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sym_points\n")
    assert run(["symbol", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_unknown_tolerance_exits_two(tmp_path):
    assert run(["symbol", "--out", str(tmp_path / "o"),
                "--tol-override", "nonsense=1e-3"]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_tolerance_override_exits_two(tmp_path, value):
    """inf would switch the gate off; nan passes a plain "<= 0" test."""
    assert run(["symbol", "--out", str(tmp_path / "o"),
                "--tol-override", f"slope={value}"]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_tolerance_in_config_file_exits_two(tmp_path, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"tol_symbol_su2={value}\n")
    assert run(["symbol", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_run_dir_skips_a_stamp_that_already_exists(tmp_path, monkeypatch):
    """A run landing on a taken stamp takes the next suffix instead of raising.

    exists() is made to answer False, as when another run creates the
    directory between a check and the mkdir.
    """
    frozen = datetime.datetime(2026, 1, 2, 3, 4, 5, 678901, tzinfo=datetime.timezone.utc)

    class FrozenDatetime(datetime.datetime):
        @classmethod
        def now(cls, tz=None):
            return frozen

    monkeypatch.setattr(cli, "datetime", types.SimpleNamespace(
        datetime=FrozenDatetime, timezone=datetime.timezone))
    monkeypatch.setattr(pathlib.Path, "exists", lambda self, **kwargs: False)
    stamp = "20260102T030405678901"
    (tmp_path / "symbol" / stamp).mkdir(parents=True)
    (tmp_path / "symbol" / f"{stamp}-2").mkdir()
    assert cli._run_dir(tmp_path, "symbol") == tmp_path / "symbol" / f"{stamp}-3"
    assert (tmp_path / "symbol" / f"{stamp}-3").is_dir()


def test_config_file_beats_defaults_and_cli_beats_file(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("# comment line\nsym_points=3\nsym_algebra=su2\n")
    run(["symbol", "--config", str(cfg), "--out", str(tmp_path / "file")])
    rows = (only_run_dir(tmp_path / "file", "symbol") / "data.csv").read_text().splitlines()
    assert len(rows) == 1 + 3  # header + file-configured points
    run(["symbol", "--config", str(cfg), "--points", "6", "--out", str(tmp_path / "cli")])
    rows = (only_run_dir(tmp_path / "cli", "symbol") / "data.csv").read_text().splitlines()
    assert len(rows) == 1 + 6


def test_environment_out_override(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUT, str(tmp_path / "envdir"))
    rc = run(["symbol", "--algebra", "h4", "--points", "3"])
    assert rc == 0
    assert (tmp_path / "envdir" / "symbol").is_dir()


def test_cli_out_beats_environment(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUT, str(tmp_path / "envdir"))
    run(["symbol", "--algebra", "h4", "--points", "3", "--out", str(tmp_path / "flag")])
    assert (tmp_path / "flag" / "symbol").is_dir()
    assert not (tmp_path / "envdir").exists()


def test_repeat_runs_are_byte_identical(tmp_path):
    for _ in range(2):
        run(["constraint", "--out", str(tmp_path)])
    runs = sorted((tmp_path / "constraint").iterdir())
    assert len(runs) == 2
    for name in ("data.csv", "summary.json", "config.echo"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


def test_jobs_option_is_retired(tmp_path):
    """--jobs and a jobs= line are refused with exit 2 and write nothing."""
    with pytest.raises(SystemExit) as exc:
        run(["verify-algebra", "--jobs", "2", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text("jobs=2\n")
    assert run(["verify-algebra", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line", ["idr_cap=8", "idr_h4_polar=160"])
def test_quadrature_size_keys_are_retired(tmp_path, line):
    """The quadrature sizes itself: the old cap and node-count keys exit 2, write nothing."""
    cfg = tmp_path / "idr.cfg"
    cfg.write_text(line + "\n")
    assert run(["identity-resolution", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_identity_resolution_is_exact_at_a_large_cutoff(tmp_path):
    """The default h4 rule needs no radial cap: cut 128 resolves the identity to roundoff."""
    assert run(["identity-resolution", "--h4-cut", "128", "--out", str(tmp_path)]) == 0
    summary = json.loads((only_run_dir(tmp_path, "identity-resolution")
                          / "summary.json").read_text())
    (h4,) = [c for c in summary["checks"] if c["check_id"] == "identity-h4-n128"]
    assert h4["deviation"] < 1e-12


def test_library_refusal_exits_two_without_artifacts(tmp_path, capsys):
    """A runner's ValueError is a refused input (exit 2), not a failed check (exit 1)."""
    assert run(["identity-resolution", "--h4-cut", "800", "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == "refused: Gauss-Laguerre weights overflow at n_polar = 200"
    assert "Traceback" not in "\n".join(err)


def test_su11_symbol_at_a_large_radius_prints_only_the_refusal(tmp_path):
    """Past tanh(rho) = 1 the su11 amplitudes take log1p(-1); the command used
    to print numpy's divide-by-zero warning and its source line first."""
    result = subprocess.run(
        [sys.executable, "-m", "clocklab", "symbol", "--algebra", "su11", "--rho", "50",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stderr == ("refused: the truncation loses norm 1.000e+00 above 1e-10 "
                             "at this radius; raise the cutoff or shrink rho\n")
    assert not (tmp_path / "o").exists()


def test_verify_algebra_checks_a_large_spin(tmp_path, capsys):
    """j = 20000 used to end in a traceback (the dense products needed
    11.9 GiB), and h4 cut 30000 was killed for lack of memory; each now
    fails only the absolute 1e-12 bound, as su2 j >= 80, h4 cut >= 418 and
    su11 cut >= 70 do."""
    for flag, size, label in (("--su2-j", "20000", "cartan-su2-j20000.0"),
                              ("--h4-cut", "30000", "cartan-h4-n30001")):
        out = tmp_path / label
        assert run(["verify-algebra", flag, size, "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        summary = json.loads((only_run_dir(out, "verify-algebra") / "summary.json").read_text())
        (check,) = [c for c in summary["checks"] if c["check_id"] == label]
        assert 1e-12 < check["residual"] < 1e-6
        assert [c["check_id"] for c in summary["checks"] if not c["passed"]] == [label]


def test_symbol_at_a_large_spin(tmp_path, capsys):
    """The su2 symbol at j = 20000 used to end in a traceback (the dense h_c
    needed 11.9 GiB); its amplitudes overflowed to NaN past j ~ 1024."""
    cfg = tmp_path / "large.cfg"
    cfg.write_text("sym_su2_j=20000\n")
    assert run(["symbol", "--algebra", "su2", "--config", str(cfg),
                "--out", str(tmp_path / "o")]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
def test_symbol_rho_must_be_finite_and_nonnegative(tmp_path, value):
    """A nan point used to pass: max() dropped the nan error."""
    assert run(["symbol", "--algebra", "su2", f"--rho={value}",
                "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", ["ph_rho_min=nan\nph_rho_max=nan\n", "ph_sizes=10,inf\n"])
def test_non_finite_float_in_config_exits_two(tmp_path, text):
    """A nan grid used to pass the slack gate with worst_slack = inf."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert run(["phase-audit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args", [["symbol", "--points", "0"], ["phase-audit", "--grid", "0"]])
def test_empty_grid_exits_two(tmp_path, args):
    """An empty grid used to pass its gate without evaluating a point."""
    assert run(args + ["--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_one_point_phi_grid_exits_two(tmp_path):
    """One point is phi = 0 alone: propagator deviation and chi2 drift read 0.0 and passed."""
    cfg = tmp_path / "one.cfg"
    cfg.write_text("sch_phi_points=1\n")
    assert run(["schrodinger", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    with pytest.raises(cli.ConfigError, match="sch_phi_points"):
        cli.load_config(None, {"sch_phi_points": 1}, [])


@pytest.mark.parametrize("sub, flag, key", [("bch-check", "--points", "bch_points"),
                                           ("hamilton", "--grid", "ham_grid"),
                                           ("phase-audit", "--grid", "ph_grid_n")])
def test_one_point_grid_exits_two(tmp_path, capsys, sub, flag, key):
    """One point per axis cannot show the phi dependence these checks claim; they exited 0."""
    assert run([sub, flag, "1", "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    assert "config error" in capsys.readouterr().err
    with pytest.raises(cli.ConfigError, match=key):
        cli.load_config(None, {key: 1}, [])


def test_one_size_phase_sweep_exits_two(tmp_path):
    """One size leaves no pair: both expectation-sweep gates, and the
    classical-limit support-mismatch decrease, passed over zero pairs."""
    for sub, key, size in (("phase-audit", "ph_sizes", "10"),
                           ("classical-limit", "cls_sizes", "40")):
        assert run([sub, "--sizes", size, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        with pytest.raises(cli.ConfigError, match=key):
            cli.load_config(None, {key: size}, [])


@pytest.mark.parametrize("sub, key, sizes", [
    ("phase-audit", "ph_sizes", "80,10"),
    ("phase-audit", "ph_sizes", "10,10"),
    ("phase-audit", "ph_sizes", "10.2,10.4"),  # 10,10 once rounded
    ("classical-limit", "cls_sizes", "20,10"),
    ("classical-limit", "cls_sizes", "10,10"),
])
def test_sizes_that_do_not_ascend_exit_two(tmp_path, capsys, sub, key, sizes):
    """The decrease gates compare neighbours: out of order they failed on the
    input (exit 1), not on the physics."""
    assert run([sub, "--sizes", sizes, "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    assert "must strictly ascend" in capsys.readouterr().err
    with pytest.raises(cli.ConfigError, match=key):
        cli.load_config(None, {key: sizes}, [])


def test_one_point_symbol_grid_exits_two(tmp_path, capsys):
    """One point is rho = 0 alone, where both symbols vanish: every family passed with 0.0."""
    assert run(["symbol", "--points", "1", "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    assert "config error" in capsys.readouterr().err
    with pytest.raises(cli.ConfigError, match="sym_points"):
        cli.load_config(None, {"sym_points": 1}, [])
    # the single-point mode takes its radius from sym_rho, not from the grid
    assert cli.load_config(None, {"sym_points": 1, "sym_rho": "0.5", "sym_algebra": "su2"},
                           [])["sym_points"] == 1


@pytest.mark.parametrize("value", ["3", "1,2.5", "0"])
def test_hamilton_system_size_outside_one_and_two_exits_two(tmp_path, capsys, value):
    """--js 3 used to end in a KeyError traceback with exit 1."""
    assert run(["hamilton", f"--js={value}", "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-0.0", "nan", "inf"])
def test_zero_or_non_finite_schrodinger_step_exits_two(tmp_path, capsys, value):
    """--step 0 divided by zero: exit 1 and a NaN residual, not JSON, in summary.json."""
    assert run(["schrodinger", f"--step={value}", "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    assert "config error" in capsys.readouterr().err
    with pytest.raises(cli.ConfigError, match="sch_h"):
        cli.load_config(None, {"sch_h": value}, [])


def test_config_table_groups_are_the_runners():
    """One table of keys: a group per runner plus the common and tolerance groups."""
    groups = [name for name in cli._TABLE if name not in ("common", "tolerance")]
    assert groups == list(cli._RUNNERS)
    assert cli.SUBCOMMANDS == (*cli._RUNNERS, "all")
    # flattening keeps one of two declarations of a key and drops the other
    assert sum(len(group) for group in cli._TABLE.values()) == len(cli._KEYS)
    # write_outputs and the positivity check find the tolerances by their prefix
    assert {key for key in cli._KEYS if key.startswith("tol_")} == set(cli._TABLE["tolerance"])


def _choice_keys():
    return [(sub, key, spec[0]) for sub, group in cli._TABLE.items()
            for key, spec in group.items() if isinstance(spec[0], tuple)]


def test_choice_key_help_names_every_allowed_value():
    """A choice key's allowed values are declared once: its help lists exactly them."""
    assert [key for _, key, _ in _choice_keys()] == ["sym_algebra", "con_profile", "stat_family"]
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    for sub, key, allowed in _choice_keys():
        action = next(a for a in subparsers[sub]._actions if a.dest == key)
        assert action.help.rpartition(": ")[2].split(", ") == list(allowed)


@pytest.mark.parametrize("sub, key", [(sub, key) for sub, key, _ in _choice_keys()])
def test_value_outside_a_choice_exits_two(tmp_path, capsys, sub, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key}=su3\n")
    assert run([sub, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("value", ["2", "0", "-1"])
def test_support_threshold_outside_unit_interval_exits_two(tmp_path, value):
    """--threshold 2 used to end in a traceback; 0 or -1 turned the support cut off."""
    assert run(["classical-limit", f"--threshold={value}", "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_identity_resolution_cap_follows_h4_cutoff(tmp_path):
    """At cut 64 the fixed cap 8 left a gamma tail of 3.6e-6 against 1e-6."""
    assert run(["identity-resolution", "--h4-cut", "64", "--out", str(tmp_path)]) == 0


def test_symbol_worst_error_keeps_nan(monkeypatch):
    """A nan symbol after a finite one; a nan radius is refused before any state is built."""
    clock = intensive_su2_clock(10.0)
    with pytest.raises(ValueError, match="rho must be finite"):
        cli._symbol_rows(clock, "su2", [0.3, math.nan], relative=False)
    numeric = cli.clock_symbol_numeric
    monkeypatch.setattr(cli, "clock_symbol_numeric",
                        lambda clock, rho: numeric(clock, rho) if rho < 0.5 else math.nan)
    rows, worst = cli._symbol_rows(clock, "su2", [0.3, 0.6], relative=False)
    assert len(rows) == 2
    assert math.isnan(worst)


def test_symbol_single_point_h4(tmp_path):
    """The single-point mode prints the closed-form value eps * rho^2."""
    run(["symbol", "--algebra", "h4", "--rho", "1.5", "--out", str(tmp_path)])
    rows = (only_run_dir(tmp_path, "symbol") / "data.csv").read_text().splitlines()
    assert len(rows) == 2
    family, rho, numeric, analytic, error = rows[1].split(",")
    assert family == "h4"
    assert float(analytic) == pytest.approx((1.0 / 24.0) * 2.25, abs=1e-15)
    assert float(error) < 1e-8


def test_symbol_single_point_needs_algebra(tmp_path):
    assert run(["symbol", "--rho", "1.5", "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_random_profile_uses_seed(tmp_path):
    run(["constraint", "--profile", "random", "--seed", "11", "--out", str(tmp_path / "a")])
    run(["constraint", "--profile", "random", "--seed", "11", "--out", str(tmp_path / "b")])
    run(["constraint", "--profile", "random", "--seed", "12", "--out", str(tmp_path / "c")])
    data = {k: (only_run_dir(tmp_path / k, "constraint") / "data.csv").read_bytes()
            for k in "abc"}
    assert data["a"] == data["b"]
    assert data["a"] != data["c"]


def test_progress_on_stderr_path_on_stdout(tmp_path, capsys):
    run(["symbol", "--algebra", "su2", "--points", "3", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert "[symbol]" in captured.err
    assert str(tmp_path) in captured.out
    assert "[symbol]" not in captured.out


def test_hamilton_progress_prints_plain_floats(tmp_path, capsys):
    """The rate line used !r on numpy scalars: np.float64(0.0707...)."""
    run(["hamilton", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert "[hamilton] quantum rate 0.07" in err
    assert "np.float64(" not in err


def test_stationary_sweep_subcommand(tmp_path):
    rc = run(["stationary-sweep", "--sizes", "5,10,20", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads(
        (only_run_dir(tmp_path, "stationary-sweep") / "summary.json").read_text())
    ids = {c["check_id"]: c for c in summary["checks"]}
    assert ids["residual-decreasing"]["passed"]
    assert ids["loglog-slope-negative"]["loglog_slope"] < 0


def test_schrodinger_summary_has_slope(tmp_path):
    rc = run(["schrodinger", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads(
        (only_run_dir(tmp_path, "schrodinger") / "summary.json").read_text())
    slope = next(c for c in summary["checks"] if c["check_id"] == "richardson-slope")
    assert slope["richardson_slope"] == pytest.approx(2.0, abs=0.1)


def test_console_script_entry(tmp_path):
    """The module also runs as python -m clocklab."""
    result = subprocess.run(
        [sys.executable, "-m", "clocklab", "symbol", "--algebra", "h4",
         "--points", "3", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert (tmp_path / "symbol").is_dir()


def test_bch_check_keeps_a_nan_after_the_first_point(tmp_path, monkeypatch):
    """max() over a generator dropped a NaN difference unless it came first."""
    real = cli.displace

    def nan_on_the_second_point(rep, radii, phis):
        grid = real(rep, radii, phis)
        grid[:, 1] = np.nan
        return grid

    monkeypatch.setattr(cli, "displace", nan_on_the_second_point)
    assert run(["bch-check", "--su2-j", "2", "--points", "3", "--out", str(tmp_path)]) == 1
    summary = json.loads((only_run_dir(tmp_path, "bch-check") / "summary.json").read_text())
    first = summary["checks"][0]
    assert not first["passed"] and math.isnan(first["max_difference"])


def test_constraint_at_j40_exits_zero(tmp_path, capsys):
    """--j 40 used to form the dense (dim^2 x dim^2) composite generator,
    about 1 GB, only to take ||H psi||."""
    assert run(["constraint", "--j", "40", "--out", str(tmp_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_constraint_at_j20_stays_small(tmp_path):
    """||H psi|| is formed on the (dim, dim) state: no product-space matrix.
    The composite generator took the peak to 64.8 MB; it is about 1.4 MB
    without it."""
    tracemalloc.start()
    try:
        assert run(["constraint", "--j", "20", "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_schrodinger_at_a_large_spin_stays_small(tmp_path):
    """At j = 20000 psi is its 40001 pairs and the system its energies; the
    dense psi alone would be 25.6 GB.  The peak is about 63 MiB: the flow-rate
    grid's conditional rows and their gathered bras, two 48 x 40001 complex
    arrays (29 MiB each), the bra table released before the rows are formed."""
    tracemalloc.start()
    try:
        assert run(["schrodinger", "--j", "20000", "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2 ** 20


@pytest.mark.parametrize("j", ["0.5", "3", "12.5", "20"])
@pytest.mark.parametrize("profile", ["gaussian", "random"])
def test_constraint_energy_residual_is_the_product_space_norm(tmp_path, j, profile):
    """The energy residual formed on the (dim, dim) state has the bits of
    ||(h_c (x) I - I (x) h_sys) psi|| formed on the product space."""
    assert run(["constraint", "--j", j, "--profile", profile, "--out", str(tmp_path)]) in (0, 1)
    summary = json.loads((only_run_dir(tmp_path, "constraint") / "summary.json").read_text())
    (check,) = [c for c in summary["checks"] if c["check_id"] == "energy-residual"]
    clock = intensive_su2_clock(float(j))
    h_system = resonant_ladder(clock, clock.dim)
    match = ladder_match(clock, h_system)
    coeff = (random_profile(match, summary["seed"]) if profile == "random" else
             gaussian_profile(match, energy_of_rho(clock, 0.55), 0.18))
    psi = build_psi(match, coeff)
    eye = np.eye(clock.dim)
    h_total = np.kron(clock.h_c, eye) - np.kron(eye, np.diag(h_system))
    assert check["residual"] == float(np.linalg.norm(h_total @ psi.matrix.reshape(-1)))


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _edge_values(key):
    default = cli._TABLE["constraint"][key][1]
    return st.sampled_from([0.0, 1.0, 2.0, -1.0, -0.5, default, 40.0])


def _run_edge_config(root, subcommand, text):
    """Run ``subcommand`` on the config ``text`` and return its exit status.

    Every accepted configuration ends in exit 0 or 1 with a strict-JSON
    summary; every other one is refused with exit 2, a one-line reason and
    nothing written.  No input ends in a traceback.
    """
    cfg = root / "edge.cfg"
    cfg.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = run([subcommand, "--config", str(cfg), "--out", str(root / "o")])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert not (root / "o").exists()
        assert err.getvalue().startswith(("refused:", "config error:"))
    else:
        summary = _strict_json((only_run_dir(root / "o", subcommand)
                                / "summary.json").read_text())
        assert summary["pass"] is (rc == 0)
    return rc


@settings(max_examples=40)
@given(j=_edge_values("con_j"), rho=_edge_values("con_rho"),
       width=_edge_values("con_width"), profile=st.sampled_from(["gaussian", "random"]))
def test_constraint_configurations_check_something_or_are_refused(tmp_path_factory, j, rho,
                                                                  width, profile):
    """``_run_edge_config`` holds for every drawn ``constraint`` configuration."""
    _run_edge_config(tmp_path_factory.mktemp("constraint"), "constraint",
                     f"con_j={j}\ncon_rho={rho}\ncon_width={width}\ncon_profile={profile}\n")


@settings(max_examples=25)
@given(points=st.sampled_from([-1, 0, 1, 2, 3, 12]),
       su2_j=st.lists(st.sampled_from([-1.0, 0.0, 0.3, 0.5, 2.0, 10.0]), min_size=1, max_size=2),
       h4_cut=st.sampled_from([-1, 0, 1, 2, 12, 48]),
       rho_max=st.sampled_from([-0.5, 0.0, 0.02, 0.7, 3.0]))
@example(points=12, su2_j=[0.5, 2.0], h4_cut=48, rho_max=0.7)
@example(points=2, su2_j=[0.5], h4_cut=2, rho_max=0.02)
def test_bch_check_configurations_check_something_or_are_refused(tmp_path_factory, points,
                                                                 su2_j, h4_cut, rho_max):
    """``_run_edge_config`` holds for every drawn ``bch-check`` configuration,
    and a check runs only on at least 2 points per axis, spins that are
    positive multiples of 1/2, an oscillator cutoff of at least 2 and
    nonnegative radii."""
    rc = _run_edge_config(tmp_path_factory.mktemp("bch"), "bch-check",
                          f"bch_points={points}\nbch_su2_j={','.join(map(str, su2_j))}\n"
                          f"bch_h4_cut={h4_cut}\nbch_rho_max={rho_max}\n")
    assert rc == 2 or (points >= 2 and h4_cut >= 2 and rho_max >= 0
                       and all(j > 0 and (2 * j).is_integer() for j in su2_j))


@settings(max_examples=15)
@given(j=st.sampled_from([-1.0, 0.0, 0.3, 0.5, 2.5, 10.0]),
       h4_cut=st.sampled_from([-1, 0, 1, 2, 12, 48]))
@example(j=2.5, h4_cut=48)
def test_identity_resolution_configurations_check_something_or_are_refused(tmp_path_factory,
                                                                           j, h4_cut):
    """``_run_edge_config`` holds for every drawn ``identity-resolution``
    configuration, and a check runs only on a spin that is a positive
    multiple of 1/2 and an oscillator cutoff of at least 2."""
    rc = _run_edge_config(tmp_path_factory.mktemp("identity"), "identity-resolution",
                          f"idr_j={j}\nidr_h4_cut={h4_cut}\n")
    assert rc == 2 or (j > 0 and (2 * j).is_integer() and h4_cut >= 2)


def test_identity_resolution_at_j400_stays_small(tmp_path):
    """The quadrature is summed ring by ring: no dim x rings x azimuths coherent
    table, which at j 400 is 3.83 GiB.  The ring sum peaks near 60 MiB."""
    tracemalloc.start()
    try:
        rc = run(["identity-resolution", "--j", "400", "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 128 * 2 ** 20


def _ascends(sizes):
    return len(sizes) >= 2 and all(a < b for a, b in zip(sizes, sizes[1:]))


@settings(max_examples=60)
@given(j=st.sampled_from([0.5, 1.0, 1.5, 2.0, 20.0, 40.0]), grid=st.sampled_from([2, 3, 15]),
       grid_j=st.sampled_from([0.5, 1.0, 1.5, 15.0]),
       sizes=st.lists(st.sampled_from([0, 1, 2, 10, 80]), min_size=2, max_size=4),
       rho_min=st.sampled_from([-0.1, 0.0, cli._TABLE["phase-audit"]["ph_rho_min"][1]]))
@example(j=0.5, grid=15, grid_j=15.0, sizes=[10, 80], rho_min=0.04)
@example(j=1.0, grid=15, grid_j=15.0, sizes=[10, 80], rho_min=0.04)
@example(j=20.0, grid=15, grid_j=0.5, sizes=[10, 80], rho_min=0.04)
@example(j=20.0, grid=15, grid_j=1.0, sizes=[10, 80], rho_min=0.04)
@example(j=20.0, grid=15, grid_j=1.5, sizes=[10, 80], rho_min=0.04)
def test_phase_audit_configurations_check_something_or_are_refused(tmp_path_factory, j, grid,
                                                                   grid_j, sizes, rho_min):
    """``_run_edge_config`` holds for every drawn ``phase-audit`` configuration,
    and a check runs only on commutator and grid clocks with an interior
    (2 j + 1 >= 4), below which the interior-commutator gate would pass on no
    entry and the uncertainty slack goes negative, and only on sizes that
    strictly ascend, since the sweep gates compare neighbours."""
    rc = _run_edge_config(tmp_path_factory.mktemp("phase"), "phase-audit",
                          f"ph_j={j}\nph_grid_n={grid}\nph_grid_j={grid_j}\n"
                          f"ph_rho_min={rho_min}\nph_sizes={','.join(map(str, sizes))}\n")
    assert rc == 2 or (2 * j + 1 >= 4 and 2 * grid_j + 1 >= 4 and _ascends(sizes))


@settings(max_examples=30)
@given(sizes=st.lists(st.sampled_from([-5.0, 0.0, 2.0, 5.0, 5.2, 5.4, 10.0, 20.0]), min_size=1,
                      max_size=4),
       family=st.sampled_from(["su2", "h4"]))
@example(sizes=[5.0, 5.0, 10.0], family="su2")
@example(sizes=[5.2, 5.4, 10.0], family="su2")
@example(sizes=[10.0, 5.0, 20.0], family="h4")
@example(sizes=[5.0, 10.0, 20.0], family="h4")
def test_stationary_sweep_configurations_check_something_or_are_refused(tmp_path_factory, sizes,
                                                                        family):
    """``_run_edge_config`` holds for every drawn ``stationary-sweep``
    configuration, and a check runs only on at least three sizes that
    strictly ascend once rounded to integers, as the sweep uses them: its
    decrease gate compares neighbours."""
    rc = _run_edge_config(tmp_path_factory.mktemp("stationary"), "stationary-sweep",
                          f"stat_family={family}\nstat_sizes={','.join(map(str, sizes))}\n")
    rounded = [int(round(s)) for s in sizes]
    assert rc == 2 or (len(sizes) >= 3 and _ascends(rounded) and rounded[0] > 0)


@settings(max_examples=40)
@given(sizes=st.lists(st.sampled_from([0.0, 0.5, 1.0, 5.0, 10.0, 20.0]), min_size=1,
                      max_size=4),
       threshold=st.sampled_from([0.0, 1e-6, 1.0, 2.0]),
       rho=st.sampled_from([-0.1, 0.0, 0.55]))
@example(sizes=[5.0, 10.0, 20.0], threshold=1e-6, rho=0.55)
@example(sizes=[20.0, 10.0], threshold=1e-6, rho=0.55)
@example(sizes=[10.0, 10.0], threshold=1e-6, rho=0.55)
def test_classical_limit_configurations_check_something_or_are_refused(tmp_path_factory, sizes,
                                                                       threshold, rho):
    """``_run_edge_config`` holds for every drawn ``classical-limit``
    configuration; every size it checks keeps a nonempty support; and a check
    runs only on sizes that strictly ascend, since the support-mismatch
    decrease gate compares neighbours."""
    root = tmp_path_factory.mktemp("classical")
    rc = _run_edge_config(root, "classical-limit",
                          f"cls_sizes={','.join(map(str, sizes))}\n"
                          f"cls_threshold={threshold}\ncls_rho={rho}\n")
    if rc != 2:
        assert _ascends(sizes)
        rows = (only_run_dir(root / "o", "classical-limit") / "data.csv").read_text()
        header, *lines = rows.splitlines()
        column = header.split(",").index("n_support")
        assert len(lines) == len(sizes)
        assert all(int(line.split(",")[column]) > 0 for line in lines)


def _spin(j):
    return j > 0 and (2 * j).is_integer()


@settings(max_examples=25)
@given(su2_j=st.lists(st.sampled_from([-1.0, 0.0, 0.3, 0.5, 2.0, 50.0]), min_size=1, max_size=4),
       h4_cut=st.sampled_from([-1, 0, 1, 2, 12, 256]),
       su11_k=st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.5]),
       su11_cut=st.sampled_from([-1, 0, 1, 2, 16, 64]))
@example(su2_j=[0.5, 2.0, 50.0], h4_cut=256, su11_k=0.5, su11_cut=64)
def test_verify_algebra_configurations_check_something_or_are_refused(tmp_path_factory, su2_j,
                                                                      h4_cut, su11_k, su11_cut):
    """``_run_edge_config`` holds for every drawn ``verify-algebra``
    configuration, and a check runs only on spins that are positive
    multiples of 1/2, cutoffs of at least 2 and a positive Bargmann index."""
    rc = _run_edge_config(tmp_path_factory.mktemp("algebra"), "verify-algebra",
                          f"alg_su2_j={','.join(map(str, su2_j))}\nalg_h4_cut={h4_cut}\n"
                          f"alg_su11_k={su11_k}\nalg_su11_cut={su11_cut}\n")
    assert rc == 2 or (all(_spin(j) for j in su2_j) and h4_cut >= 2
                       and su11_k > 0 and su11_cut >= 2)


@settings(max_examples=30)
@given(algebra=st.sampled_from(["all", "su2", "h4", "su11"]),
       rho=st.sampled_from(["", "-1", "0", "0.3", "50", "nan"]),
       points=st.sampled_from([-1, 0, 1, 2, 15]),
       su2_j=st.sampled_from([-1.0, 0.0, 0.3, 0.5, 10.0]),
       h4_mean=st.sampled_from([-1.0, 0.0, 0.5, 24.0]),
       su11_cut=st.sampled_from([-1, 0, 1, 2, 96]))
@example(algebra="all", rho="", points=15, su2_j=10.0, h4_mean=24.0, su11_cut=96)
@example(algebra="su2", rho="50", points=15, su2_j=10.0, h4_mean=24.0, su11_cut=96)
def test_symbol_configurations_check_something_or_are_refused(tmp_path_factory, algebra, rho,
                                                              points, su2_j, h4_mean, su11_cut):
    """``_run_edge_config`` holds for every drawn ``symbol`` configuration,
    and each family's gate reads one row per point: the one radius given,
    or a grid of at least 2."""
    root = tmp_path_factory.mktemp("symbol")
    rc = _run_edge_config(root, "symbol",
                          f"sym_algebra={algebra}\nsym_rho={rho}\nsym_points={points}\n"
                          f"sym_su2_j={su2_j}\nsym_h4_mean={h4_mean}\nsym_su11_cut={su11_cut}\n")
    if rc != 2:
        _, *lines = (only_run_dir(root / "o", "symbol") / "data.csv").read_text().splitlines()
        families = ["su2", "h4", "su11"] if algebra == "all" else [algebra]
        assert [line.split(",")[0] for line in lines] == [
            f for f in families for _ in range(1 if rho else points)]
        assert rho or points >= 2


@settings(max_examples=30)
@given(j=st.sampled_from([-1.0, 0.0, 0.3, 0.5, 1.0, 40.0]),
       rho=st.sampled_from([-0.1, 0.0, 0.45, 1.5]),
       phi=st.sampled_from([-1.0, 0.0, 0.6]),
       h=st.sampled_from([-1e-4, 0.0, 1e-4]),
       width=st.sampled_from([-0.2, 0.0, 0.2]),
       phi_points=st.sampled_from([0, 1, 2, 25]))
@example(j=10.0, rho=0.45, phi=0.6, h=1e-4, width=0.2, phi_points=25)
def test_schrodinger_configurations_check_something_or_are_refused(tmp_path_factory, j, rho, phi,
                                                                   h, width, phi_points):
    """``_run_edge_config`` holds for every drawn ``schrodinger``
    configuration, and a check runs only on a spin that is a positive
    multiple of 1/2, a nonnegative radius, a nonzero step, a positive width
    and at least 2 propagator angles."""
    rc = _run_edge_config(tmp_path_factory.mktemp("schrodinger"), "schrodinger",
                          f"sch_j={j}\nsch_rho={rho}\nsch_phi={phi}\nsch_h={h}\n"
                          f"sch_width={width}\nsch_phi_points={phi_points}\n")
    assert rc == 2 or (_spin(j) and rho >= 0 and h != 0 and width > 0 and phi_points >= 2)


@settings(max_examples=30)
@given(su2_j=st.sampled_from([-1.0, 0.0, 0.3, 0.5, 10.0]),
       h4_mean=st.sampled_from([-1.0, 0.0, 0.5, 32.0]),
       grid=st.sampled_from([0, 1, 2, 20]),
       rho=st.sampled_from([-0.5, 0.0, 0.5, np.pi / 2]),
       js=st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=1, max_size=4))
@example(su2_j=10.0, h4_mean=32.0, grid=20, rho=0.5, js=[1.0, 2.0])
@example(su2_j=10.0, h4_mean=32.0, grid=20, rho=0.0, js=[1.0, 2.0])
def test_hamilton_configurations_check_something_or_are_refused(tmp_path_factory, su2_j,
                                                                h4_mean, grid, rho, js):
    """``_run_edge_config`` holds for every drawn ``hamilton`` configuration,
    and a check runs only on a spin that is a positive multiple of 1/2, a
    positive oscillator mean, at least 2 grid points, system sizes J of 1 or
    2, and a pullback radius off the chart's singular points (rho = 0, and
    pi/2 on the sphere), where all three routes of the two-form vanish."""
    rc = _run_edge_config(tmp_path_factory.mktemp("hamilton"), "hamilton",
                          f"ham_su2_j={su2_j}\nham_h4_mean={h4_mean}\nham_grid={grid}\n"
                          f"ham_rho={rho}\nham_js={','.join(map(str, js))}\n")
    assert rc == 2 or (_spin(su2_j) and h4_mean > 0 and grid >= 2
                       and all(x in (1.0, 2.0) for x in js) and rho in (-0.5, 0.5))


@pytest.mark.parametrize("where", ["config", "flag"])
def test_a_stationary_radius_for_h4_is_refused(tmp_path, capsys, where):
    """The h4 sweep pins rho to a ladder level, so a radius given for it, in
    the config file or on the command line, would check nothing: exit 2,
    nothing written."""
    args = ["stationary-sweep", "--family", "h4", "--out", str(tmp_path / "o")]
    if where == "config":
        (tmp_path / "c.cfg").write_text("stat_rho=0.6\n")
        args += ["--config", str(tmp_path / "c.cfg")]
    else:
        args += ["--rho", "0.9"]
    assert run(args) == 2
    assert not (tmp_path / "o").exists()
    assert capsys.readouterr().err.startswith("config error: 'stat_rho'")


def test_a_stationary_radius_for_su2_is_read(tmp_path):
    """On su2 the radius is the probe point: two radii give two sweeps."""
    rows = []
    for rho in ("0.6", "0.9"):
        out = tmp_path / rho
        assert run(["stationary-sweep", "--rho", rho, "--sizes", "5,10,20",
                    "--out", str(out)]) == 0
        rows.append((only_run_dir(out, "stationary-sweep") / "data.csv").read_text())
    assert rows[0] != rows[1]


@pytest.mark.parametrize("error", [MemoryError("Unable to allocate 29.9 GiB"), MemoryError()],
                         ids=["message", "bare"])
def test_an_allocation_failure_is_refused(tmp_path, monkeypatch, capsys, error):
    """A runner that cannot allocate exits 2 with ``refused:`` and writes nothing;
    exit 1 would read as a failed check."""
    def runner(cfg):
        raise error
    monkeypatch.setitem(cli._RUNNERS, "constraint", runner)
    assert run(["constraint", "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    assert capsys.readouterr().err == f"refused: {str(error) or 'MemoryError'}\n"
