import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from gumbelkit import cli, regression
from gumbelkit.cli import (
    MAX_CELL_BYTES,
    MAX_DATASET_SIZE,
    MAX_DENSITY_POINTS,
    MAX_GRID_POINTS,
    MAX_V_STEPS,
    _parse_grid,
    build_parser,
    main,
)
from gumbelkit.regression import cell_bytes


def run_cli(args):
    return main([str(a) for a in args])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestLossCurveCommand:
    def test_orders_plus_reference_curve(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert run_cli(["loss-curve", "--orders", "2,4,8", "--beta", "1", "--grid", "-3:3:0.01",
                        "--out", out]) == 0
        rows = read_rows(out)
        curves = {(r["loss_variant"], r["order"]) for r in rows}
        assert curves == {("expanded_gumbel", "2"), ("expanded_gumbel", "4"),
                          ("expanded_gumbel", "8"), ("gumbel", "")}
        assert len(rows) == 4 * 601
        assert (out.parent / (out.name + ".manifest.txt")).exists()

    def test_odd_order_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["loss-curve", "--orders", "3", "--out", tmp_path / "x.csv"])
        assert exc.value.code == 2
        assert "order must be even" in capsys.readouterr().err

    def test_bad_grid_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["loss-curve", "--grid", "2:1:0.5", "--out", tmp_path / "x.csv"])
        assert exc.value.code == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["loss-curve", "--out", a, "--seed", "5"])
        run_cli(["loss-curve", "--out", b, "--seed", "5"])
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command,flag,value", [
    ("loss-curve", "--grid", "-inf:3:1"),
    ("loss-curve", "--grid", "0:1e300:1e-300"),   # a finite grid of infinitely many points
    ("loss-curve", "--grid", "0:3:inf"),
    ("loss-curve", "--grid", "nan:3:1"),
    ("err-dist", "--bounds", "-inf:10"),
])
def test_non_finite_grid_or_bounds_is_a_usage_error(tmp_path, capsys, command, flag, value):
    assert_usage_error([command, flag, value], tmp_path / "x.csv", capsys, flag[2:])


@pytest.mark.parametrize("value", ["-3:1e300:0.5", f"0:{MAX_GRID_POINTS}:1"])
def test_a_grid_over_the_point_cap_is_a_usage_error(tmp_path, capsys, value):
    assert_usage_error(["loss-curve", "--grid", value], tmp_path / "x.csv", capsys,
                       f"at most {MAX_GRID_POINTS} points")


# every list flag refuses an empty or blank piece, whatever its separator
@pytest.mark.parametrize("command,flag,value", [
    ("loss-curve", "--include", "gumbel,,l2"),
    ("loss-curve", "--include", "gumbel, "),
    ("mdp-train", "--include", ",l2"),
    ("loss-curve", "--orders", "2,"),
    ("loss-curve", "--grid", "-1::1"),
    ("err-dist", "--bounds", "-1:"),
])
def test_an_empty_list_piece_is_a_usage_error(tmp_path, capsys, command, flag, value):
    with refuse_runs():
        assert_usage_error([command, flag, value], tmp_path / "x.csv", capsys,
                           f"{flag[2:]} must be a")


def test_a_grid_at_the_point_cap_is_parsed():
    parser = build_parser()
    assert len(_parse_grid(f"0:{MAX_GRID_POINTS - 1}:1", parser)) == MAX_GRID_POINTS


# a count past any cap: 1e19 does not fit a 64-bit integer
OVER_CAP = "10000000000000000000"


@contextlib.contextmanager
def refuse_runs():
    """Fail the test if a regress, err-dist or mdp-train run starts: a size over the
    cap must be refused first."""
    with mock.patch.object(cli, "run_experiment",
                           side_effect=AssertionError("a regress run started")), \
         mock.patch.object(regression, "stream",
                           side_effect=AssertionError("a regress stream was built")), \
         mock.patch.object(cli, "implied_error_density",
                           side_effect=AssertionError("an err-dist run started")), \
         mock.patch.object(cli, "generate_dataset",
                           side_effect=AssertionError("an mdp-train dataset was built")), \
         mock.patch.object(cli, "train_many",
                           side_effect=AssertionError("an mdp-train fit started")):
        yield


class TestRegressByteCap:
    @pytest.mark.parametrize("flags", [
        ["--data-size", OVER_CAP],
        ["--repeats", "100000000", "--data-size", "1"],
        ["--batch-size", OVER_CAP],
        ["--repeats", "1", "--batch-size", "1",
         "--data-size", str((MAX_CELL_BYTES - regression._STREAM_BYTES) // 8 - 99)],
        # 808 bytes of data and batches a repeat fit the cap; its streams do not
        ["--repeats", "1000000", "--batch-size", "1", "--data-size", "1"],
    ], ids=["data-size", "repeats", "batch-size", "one-byte-over", "streams"])
    def test_a_cell_over_the_cap_is_a_usage_error(self, tmp_path, capsys, flags):
        with refuse_runs():
            assert_usage_error(["regress", *flags], tmp_path / "x.csv", capsys,
                               f"over the cap of {MAX_CELL_BYTES}")

    def test_a_config_file_over_the_cap_is_a_usage_error(self, tmp_path, capsys):
        config = tmp_path / "over.cfg"
        config.write_text(f"repeats = {OVER_CAP}\n")
        with refuse_runs():
            assert_usage_error(["regress", "--config", config], tmp_path / "x.csv", capsys,
                               f"over the cap of {MAX_CELL_BYTES}")

    def test_a_cell_at_the_cap_starts(self, tmp_path, monkeypatch):
        started = []
        monkeypatch.setattr(cli, "run_experiment", lambda base, betas: started.append(base) or [])
        # 8 bytes a datum plus 8 a drawn index, of 100 steps a chunk at one repeat of
        # batch 1, and the repeat's stream
        size = (MAX_CELL_BYTES - regression._STREAM_BYTES) // 8 - 100
        assert run_cli(["regress", "--repeats", "1", "--batch-size", "1", "--data-size", size,
                        "--out", tmp_path / "x.csv"]) == 0
        assert cell_bytes(started[0]) == MAX_CELL_BYTES

    @pytest.mark.parametrize("error,line", [
        (MemoryError("Unable to allocate 8.00 EiB for an array"),
         "gumbelkit: Unable to allocate 8.00 EiB for an array"),
        (MemoryError(), "gumbelkit: out of memory"),
    ], ids=["numpy", "bare"])
    def test_a_memory_error_is_one_line(self, tmp_path, capsys, monkeypatch, error, line):
        monkeypatch.setattr(cli, "run_experiment", mock.Mock(side_effect=error))
        with pytest.raises(SystemExit) as exc:
            run_cli(["regress", "--repeats", "2", "--betas", "1", "--out", tmp_path / "x.csv"])
        assert exc.value.code == 1
        assert error_lines(capsys.readouterr().err) == [line]


class TestErrDistPointCap:
    @pytest.mark.parametrize("points", [str(MAX_DENSITY_POINTS + 1), OVER_CAP])
    def test_points_over_the_cap_is_a_usage_error(self, tmp_path, capsys, points):
        with refuse_runs():
            assert_usage_error(["err-dist", "--points", points], tmp_path / "x.csv", capsys,
                               f"--points must be at least 3 and at most {MAX_DENSITY_POINTS}")

    def test_points_at_the_cap_start(self, tmp_path, monkeypatch):
        grids = []
        curve = mock.Mock(normalizer=1.0, **{"trapezoid_integral.return_value": 1.0,
                                             "rows.return_value": []})
        monkeypatch.setattr(cli, "implied_error_density",
                            lambda spec, grid: grids.append(grid.size) or curve)
        assert run_cli(["err-dist", "--points", MAX_DENSITY_POINTS, "--out", tmp_path / "x.csv"]) == 0
        # one density for each of the five default orders
        assert grids == [MAX_DENSITY_POINTS] * 5


@pytest.mark.parametrize("args", [
    ["loss-curve", "--orders", "4,4"],
    ["loss-curve", "--orders", "", "--include", "gumbel,l2,gumbel"],
    ["err-dist", "--orders", "2,4,2"],
    ["err-dist", "--include", "expectile,expectile"],
    ["mdp-train", "--mdp", "bandit1", "--orders", "4,4"],
    ["mdp-train", "--mdp", "bandit1", "--include", "clipped,clipped_gumbel"],
])
def test_a_loss_named_twice_is_a_usage_error(tmp_path, capsys, args):
    with mock.patch.object(cli, "loss_values", side_effect=AssertionError("a loss was evaluated")), \
         mock.patch.object(cli, "implied_error_density",
                           side_effect=AssertionError("a density was built")), \
         mock.patch.object(cli, "train_many", side_effect=AssertionError("a fit started")):
        assert_usage_error(args, tmp_path / "x.csv", capsys, "is named twice")


class TestMdpTrainCaps:
    SIZE = f"--dataset-size must be at most {MAX_DATASET_SIZE}"
    STEPS = f"--v-steps times --outer must be at most {MAX_V_STEPS}"

    @pytest.mark.parametrize("flags,message", [
        (["--dataset-size", str(MAX_DATASET_SIZE + 1)], SIZE),
        (["--dataset-size", OVER_CAP], SIZE),
        (["--dataset", "rollout", "--dataset-size", OVER_CAP], SIZE),
        (["--v-steps", "1", "--outer", str(MAX_V_STEPS + 1)], STEPS),
        (["--v-steps", str(MAX_V_STEPS // 400 + 1)], STEPS),    # at the default --outer 400
        (["--v-steps", OVER_CAP, "--outer", OVER_CAP], STEPS),
    ], ids=["dataset-size", "dataset-size-1e19", "rollout-1e19", "outer", "v-steps", "both-1e19"])
    def test_a_run_over_a_cap_is_a_usage_error(self, tmp_path, capsys, flags, message):
        with refuse_runs():
            assert_usage_error(["mdp-train", "--mdp", "bandit1", *flags], tmp_path / "x.csv",
                               capsys, message)

    def test_a_bad_count_is_named_before_a_cap(self, tmp_path, capsys):
        with refuse_runs():
            assert_usage_error(["mdp-train", "--v-steps", OVER_CAP, "--outer", "-1"],
                               tmp_path / "x.csv", capsys, "must be positive")

    def test_runs_at_the_caps_start(self, tmp_path, monkeypatch):
        class Started(Exception):
            pass

        def generate_dataset(mdp, mode, size, rng):
            started.append(size)
            raise Started

        started = []
        monkeypatch.setattr(cli, "generate_dataset", generate_dataset)
        for flags in (["--dataset-size", str(MAX_DATASET_SIZE)],
                      ["--v-steps", "1", "--outer", str(MAX_V_STEPS)],
                      ["--v-steps", str(MAX_V_STEPS // 400)]):
            with pytest.raises(Started):
                run_cli(["mdp-train", "--mdp", "bandit1", *flags, "--out", tmp_path / "x.csv"])
        # bandit1's default dataset holds 400 rows
        assert started == [MAX_DATASET_SIZE, 400, 400]


class TestErrDistCommand:
    def test_order_two_matches_normal_pdf(self, tmp_path):
        out = tmp_path / "dist.csv"
        assert run_cli(["err-dist", "--orders", "2", "--points", "4001", "--out", out]) == 0
        rows = read_rows(out)
        z = np.array([float(r["z"]) for r in rows])
        density = np.array([float(r["density"]) for r in rows])
        np.testing.assert_allclose(density, sps.norm.pdf(z), atol=1e-8)

    def test_integral_column_close_to_one(self, tmp_path):
        out = tmp_path / "dist.csv"
        run_cli(["err-dist", "--orders", "2,4,8,12,16", "--out", out])
        integrals = {(r["loss_variant"], r["order"]): float(r["curve_integral"]) for r in read_rows(out)}
        assert len(integrals) == 5
        for value in integrals.values():
            assert abs(value - 1.0) < 1e-6

    def test_exponential_curve_matches_closed_form(self, tmp_path):
        out = tmp_path / "dist.csv"
        assert run_cli(["err-dist", "--orders", "", "--include", "gumbel", "--bounds", "-32:10",
                        "--points", "8001", "--out", out]) == 0
        rows = read_rows(out)
        z = np.array([float(r["z"]) for r in rows])
        density = np.array([float(r["density"]) for r in rows])
        np.testing.assert_allclose(density, np.exp(z - np.exp(z)), atol=1e-8)

    def test_narrow_support_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(["err-dist", "--orders", "", "--include", "gumbel", "--out", tmp_path / "x.csv"])

    def test_a_density_that_fails_leaves_no_output(self, tmp_path, capsys):
        # the order-2 density is built first, then the gumbel one fails at the default bounds
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(["err-dist", "--orders", "2", "--include", "gumbel", "--out", out])
        assert exc.value.code == 1
        assert len(error_lines(capsys.readouterr().err)) == 1
        assert list(tmp_path.iterdir()) == []

    def test_rows_are_written_as_they_are_read(self, tmp_path):
        # five densities of 20,001 points: 22.1 MB traced at the peak when every row
        # was held for a sort, 2.6 MB when each density's rows are written in turn
        tracemalloc.start()
        try:
            assert run_cli(["err-dist", "--out", tmp_path / "x.csv"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_manifest_records_normalizers(self, tmp_path):
        out = tmp_path / "dist.csv"
        run_cli(["err-dist", "--orders", "2", "--out", out])
        manifest = (out.parent / (out.name + ".manifest.txt")).read_text()
        assert "config.normalizer.expanded_gumbel_2=" in manifest


class TestRegressCommand:
    def test_grid_shape_and_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["regress", "--betas", "0.5,2", "--repeats", "3", "--data-size", "400",
                "--seed", "9"]
        assert run_cli(args + ["--out", a]) == 0
        assert run_cli(args + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = read_rows(a)
        assert len(rows) == 4 * 5
        cells = {(r["cell_beta_data"], r["cell_beta_reg"]) for r in rows}
        assert len(cells) == 4

    def test_divergence_is_data_not_failure(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli(["regress", "--betas", "0.5,10", "--repeats", "3", "--data-size", "400",
                        "--out", out]) == 0
        rows = read_rows(out)
        collapsed = [r for r in rows if r["cell_beta_data"] == "10.0" and r["cell_beta_reg"] == "0.5"]
        assert all(int(r["diverged_count"]) == 3 for r in collapsed)
        assert all(r["mean_abs_error"] == "" for r in collapsed)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("repeats = 2\ndata_size = 300\nloss = expanded\norder = 4\n"
                       "fixed-dataset = yes\n")
        out = tmp_path / "r.csv"
        assert run_cli(["regress", "--config", cfg, "--betas", "2", "--repeats", "3",
                        "--out", out]) == 0
        rows = read_rows(out)
        assert rows[0]["loss_variant"] == "expanded_gumbel"
        assert rows[0]["order"] == "4"
        assert rows[0]["repeats"] == "3"  # flag wins over file
        manifest = (out.parent / (out.name + ".manifest.txt")).read_text()
        assert "config.resample_data=False" in manifest

    def test_config_file_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("repeats = 2\nbetaz = 3\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["regress", "--config", cfg, "--out", tmp_path / "x.csv"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown config key(s) betaz" in err
        assert not (tmp_path / "x.csv").exists()

    def test_config_file_bad_value_names_key_and_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("loss = expanded\norder = abc\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["regress", "--config", cfg, "--out", tmp_path / "x.csv"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "bad value 'abc' for key order" in err
        assert str(cfg) in err
        assert not (tmp_path / "x.csv").exists()

    def test_bad_escape_factor_flag_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(["regress", "--escape-factor", "abc", "--out", out])
        assert exc.value.code == 2
        (line,) = error_lines(capsys.readouterr().err)
        assert "--escape-factor" in line and "'abc'" in line
        assert not out.exists()

    def test_bad_escape_factor_config_key_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("escape_factor = abc\n")
        assert_usage_error(["regress", "--config", str(cfg)], tmp_path / "x.csv", capsys,
                           "bad value 'abc' for key escape_factor")

    def test_escape_factor_none_flag_overrides_the_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("escape_factor = 5\n")
        out = tmp_path / "r.csv"
        assert run_cli(["regress", "--config", cfg, "--escape-factor", "none", "--betas", "2",
                        "--repeats", "2", "--data-size", "300", "--out", out]) == 0
        manifest = (out.parent / (out.name + ".manifest.txt")).read_text().splitlines()
        assert "config.escape_factor=none" in manifest

    def test_a_config_key_set_twice_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("repeats = 2\nbetas = 2\nrepeats = 3\n")
        with refuse_runs():
            assert_usage_error(["regress", "--config", str(cfg)], tmp_path / "x.csv", capsys,
                               f"config file {str(cfg)!r}: key repeats is set twice")

    @pytest.mark.parametrize("value", ("ture", "2", "on", ""))
    def test_a_fixed_dataset_config_value_not_a_switch_is_a_usage_error(self, tmp_path, capsys,
                                                                          value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"fixed_dataset = {value}\n")
        with refuse_runs():
            assert_usage_error(["regress", "--config", str(cfg)], tmp_path / "x.csv", capsys,
                               f"bad value {value!r} for key fixed_dataset")

    @pytest.mark.parametrize("value,fixed", [("TRUE", True), ("Yes", True), ("1", True),
                                             ("False", False), ("NO", False), ("0", False)])
    def test_a_fixed_dataset_config_value_is_a_switch_in_any_case(self, tmp_path, value, fixed):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"fixed_dataset = {value}\n")
        out = tmp_path / "r.csv"
        assert run_cli(["regress", "--config", cfg, "--betas", "2", "--repeats", "2",
                        "--data-size", "50", "--out", out]) == 0
        manifest = (out.parent / (out.name + ".manifest.txt")).read_text().splitlines()
        assert f"config.resample_data={not fixed}" in manifest

    @pytest.mark.parametrize("content", (None, b"repeats = 2\xff\n"), ids=("missing", "not-utf-8"))
    def test_an_unreadable_config_file_is_a_usage_error(self, tmp_path, capsys, content):
        cfg = tmp_path / "run.cfg"
        if content is not None:
            cfg.write_bytes(content)
        with refuse_runs():
            assert_usage_error(["regress", "--config", str(cfg)], tmp_path / "x.csv", capsys,
                               "cannot read config file")

    def test_expanded_requires_order(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(["regress", "--loss", "expanded", "--out", tmp_path / "x.csv"])

    # compare keys rows by (beta_data, beta_reg, checkpoint), so a repeated beta
    # would overwrite a cell's rows; an empty list ran the default grid or no cell
    @pytest.mark.parametrize("betas", ("", ",", "1,,2", "1,", "2,2", "2,2.0"))
    @pytest.mark.parametrize("source", ("flag", "config"))
    def test_an_empty_or_repeated_beta_list_is_a_usage_error(self, tmp_path, capsys, source,
                                                             betas):
        args = ["regress", "--repeats", "2", "--data-size", "50"]
        if source == "flag":
            args += ["--betas", betas]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"betas = {betas}\n")
            args += ["--config", str(cfg)]
        with refuse_runs():
            assert_usage_error(args, tmp_path / "x.csv", capsys, "betas must be")


class TestMdpTrainCommand:
    def test_squared_loss_gap_to_behavior_value(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli(["mdp-train", "--mdp", "chain3", "--orders", "2", "--mode", "closed",
                        "--outer", "2000", "--tol", "1e-12", "--out", out]) == 0
        rows = read_rows(out)
        assert len(rows) == 3
        assert all(abs(float(r["gap_behavior"])) < 1e-6 for r in rows)

    def test_gap_to_soft_value_shrinks_with_order(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli(["mdp-train", "--mdp", "chain3", "--orders", "4,8,12,20",
                        "--outer", "800", "--v-steps", "50", "--lr-v", "0.01",
                        "--out", out]) == 0
        rows = read_rows(out)
        worst = {}
        for r in rows:
            n = int(r["order"])
            worst[n] = max(worst.get(n, 0.0), abs(float(r["gap_soft"])))
        gaps = [worst[n] for n in (4, 8, 12, 20)]
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))

    # 0.002 * beta^2 underflows to 0.0 at the smallest beta and overflows at the largest
    @pytest.mark.parametrize("beta,lr_v", [("1e-300", "0.0"), ("1e200", "inf")])
    def test_a_default_lr_v_that_is_not_positive_and_finite_is_a_usage_error(self, tmp_path,
                                                                             capsys, beta, lr_v):
        with refuse_runs():
            assert_usage_error(["mdp-train", "--mdp", "bandit1", "--beta", beta], tmp_path / "x.csv",
                               capsys, f"--lr-v defaults to 0.002 * beta^2, here {lr_v},")

    @pytest.mark.parametrize("dataset,loaded", [([], False), (["--dataset", "rollout"], True)],
                             ids=["exhaustive", "rollout"])
    def test_only_a_rollout_dataset_loads_numpy_random(self, tmp_path, dataset, loaded):
        # the default exhaustive dataset draws nothing, so it builds no random stream
        argv = ["mdp-train", "--mdp", "bandit1", "--outer", "20", *dataset,
                "--out", str(tmp_path / "x.csv")]
        script = ("import sys\nfrom gumbelkit.cli import main\n"
                  f"assert main({argv!r}) == 0\nprint('numpy.random' in sys.modules)")
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{loaded}\n"

    def test_unknown_mdp_lists_zoo(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["mdp-train", "--mdp", "cliffwalk", "--out", tmp_path / "x.csv"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        for name in ("bandit1", "chain3", "risky5"):
            assert name in err

    @pytest.mark.parametrize("size", ("0", "-5"))
    def test_nonpositive_dataset_size_rejected(self, tmp_path, capsys, size):
        with pytest.raises(SystemExit) as exc:
            run_cli(["mdp-train", "--mdp", "bandit1", "--dataset-size", size,
                     "--out", tmp_path / "x.csv"])
        assert exc.value.code == 2
        assert "must be positive" in capsys.readouterr().err

    def test_mdp_file_roundtrip(self, tmp_path):
        from gumbelkit.mdp import save_mdp, zoo

        path = tmp_path / "custom.json"
        save_mdp(zoo("bandit1"), path)
        out = tmp_path / "t.csv"
        assert run_cli(["mdp-train", "--mdp", path, "--orders", "2", "--mode", "closed",
                        "--out", out]) == 0
        assert read_rows(out)[0]["mdp"] == "bandit1"

    # json reads NaN, so a file can hold one; null and a top-level array are
    # well-formed JSON that is not an MDP
    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["reward"].__setitem__(0, float("nan")), "reward entries must be finite"),
        (lambda doc: doc["transition"].__setitem__(0, float("nan")), "transition entries must be finite"),
        (lambda doc: doc.__setitem__("gamma", None), "cannot load MDP file"),
        (lambda doc: doc.clear(), "cannot load MDP file"),
        (lambda doc: [doc], "cannot load MDP file"),
        (lambda doc: doc.__setitem__("num_states", 1.9), "must be integers"),
        (lambda doc: doc.__setitem__("num_actions", 2.0), "must be integers"),
        (lambda doc: doc.__setitem__("num_states", True), "must be integers"),
        (lambda doc: doc.__setitem__("name", None), "name must be a string"),
    ], ids=["nan-reward", "nan-transition", "null-gamma", "empty-object", "array",
            "real-states", "integral-real-actions", "bool-states", "null-name"])
    def test_a_malformed_mdp_file_is_a_usage_error(self, tmp_path, capsys, edit, message):
        from gumbelkit.mdp import save_mdp, zoo

        path = tmp_path / "bad.json"
        save_mdp(zoo("bandit1"), path)
        doc = json.loads(path.read_text())
        doc = edit(doc) or doc
        path.write_text(json.dumps(doc))
        with mock.patch.object(cli, "train_many", side_effect=AssertionError("a fit started")):
            assert_usage_error(["mdp-train", "--mdp", path], tmp_path / "x.csv", capsys, message)

    def test_manifest_records_clip(self, tmp_path):
        runs = {}
        for clip in ("0.5", "7"):
            out = tmp_path / f"clip{clip}.csv"
            assert run_cli(["mdp-train", "--mdp", "bandit1", "--orders", "", "--include",
                            "clipped", "--clip", clip, "--outer", "20", "--out", out]) == 0
            manifest = (out.parent / (out.name + ".manifest.txt")).read_text().splitlines()
            runs[clip] = out.read_bytes(), set(manifest)
        (csv_a, lines_a), (csv_b, lines_b) = runs.values()
        assert csv_a != csv_b
        assert {line.split("=")[0] for line in lines_a ^ lines_b} == {"config.clip",
                                                                      "output_files"}
        assert "config.clip=0.5" in lines_a and "config.tau=0.7" in lines_a


class TestClosedMode:
    @pytest.mark.parametrize("losses", (["--orders", "4"], ["--orders", "2", "--include", "gumbel"]))
    def test_a_loss_that_is_not_squared_is_a_usage_error(self, tmp_path, capsys, losses):
        assert_usage_error(["mdp-train", "--mdp", "bandit1", "--mode", "closed", *losses],
                           tmp_path / "x.csv", capsys, "closed_form_n2 requires the squared loss")

    def test_every_squared_loss_is_accepted(self, tmp_path):
        assert run_cli(["mdp-train", "--mdp", "bandit1", "--mode", "closed", "--orders", "2",
                        "--include", "l2", "--outer", "20", "--out", tmp_path / "x.csv"]) == 0


def flag_dests(command):
    """The dests of a subcommand's flags, as build_parser declares them."""
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    return {action.dest for action in subparsers.choices[command]._actions
            if action.option_strings and action.dest != "help"}


class TestManifestContract:
    # each flag but --seed and --out is a config entry; regress records its
    # resolved settings, which name --fixed-dataset by what it turns off
    @pytest.mark.parametrize("argv,dropped,added", [
        (["loss-curve", "--grid", "0:1:0.5"], set(), set()),
        (["err-dist", "--points", "11", "--orders", "2", "--include", "l2"], set(),
         {"normalizer.expanded_gumbel_2", "normalizer.l2"}),
        (["mdp-train", "--mdp", "bandit1", "--orders", "2", "--outer", "20"], set(), set()),
        (["regress", "--repeats", "2", "--data-size", "50", "--betas", "1"],
         {"config", "fixed_dataset"}, {"resample_data", "checkpoints"}),
    ], ids=("loss-curve", "err-dist", "mdp-train", "regress"))
    def test_the_config_entries_are_the_flags_of_the_subcommand(self, tmp_path, argv, dropped,
                                                                added):
        out = tmp_path / "x.csv"
        assert run_cli(argv + ["--out", out]) == 0
        keys = {line.partition("=")[0]
                for line in (tmp_path / "x.csv.manifest.txt").read_text().splitlines()}
        config = {key.removeprefix("config.") for key in keys if key.startswith("config.")}
        assert config == (flag_dests(argv[0]) - {"seed", "out"} - dropped) | added
        assert len(keys) == len(config) + 4


def assert_usage_error(args, out, capsys, message):
    """The run exits 2 with argparse's usage and one error line, no traceback, no CSV."""
    with pytest.raises(SystemExit) as exc:
        run_cli(args + ["--out", out])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    usage = build_parser().format_usage()
    assert err.startswith(usage)
    lines = err[len(usage):].splitlines()
    assert len(lines) == 1 and message in lines[0]
    assert not out.exists()


def error_lines(err):
    """The lines of a run's stderr that the tool itself wrote, after checking
    that no traceback is among them."""
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("gumbelkit")]


class TestBadRates:
    @pytest.mark.parametrize("args", (
        ["regress", "--repeats", "2", "--lr", "nan"],
        ["mdp-train", "--mdp", "bandit1", "--lr-v", "nan"],
    ))
    def test_nan_rate_is_a_usage_error(self, tmp_path, capsys, args):
        assert_usage_error(args, tmp_path / "x.csv", capsys, "must be positive")

    @pytest.mark.parametrize("args", (
        ["mdp-train", "--mdp", "bandit1", "--orders", "4", "--tol", "inf"],
        ["mdp-train", "--mdp", "bandit1", "--lr-v", "inf"],
        ["regress", "--lr", "inf", "--repeats", "2", "--betas", "1"],
    ))
    def test_infinite_rate_or_tolerance_is_a_usage_error(self, tmp_path, capsys, args):
        assert_usage_error(args, tmp_path / "x.csv", capsys, "must be positive and finite")

    @pytest.mark.parametrize("value", ("nan", "inf"))
    def test_non_finite_start_is_a_usage_error(self, tmp_path, capsys, value):
        assert_usage_error(["regress", "--repeats", "2", "--betas", "1", "--init-h", value],
                           tmp_path / "x.csv", capsys, "init_h must be finite")


class TestBadLossParameters:
    @pytest.mark.parametrize("beta", ("-1", "0", "inf", "nan"))
    @pytest.mark.parametrize("command", (
        ["loss-curve", "--beta"],
        ["err-dist", "--beta"],
        ["mdp-train", "--mdp", "bandit1", "--beta"],
        ["mdp-train", "--mdp", "bandit1", "--orders", "", "--include", "expectile", "--beta"],
        ["regress", "--repeats", "2", "--betas"],
    ), ids=("loss-curve", "err-dist", "mdp-train", "mdp-train-expectile", "regress"))
    def test_bad_beta_is_a_usage_error(self, tmp_path, capsys, command, beta):
        assert_usage_error(command + [beta], tmp_path / "x.csv", capsys, "beta")

    # none of these runs selects the clipped or the expectile loss
    @pytest.mark.parametrize("flag,value", [("--clip", v) for v in ("-1", "0", "nan")]
                             + [("--tau", v) for v in ("0", "1", "5", "nan")])
    @pytest.mark.parametrize("command", (
        ["loss-curve", "--include", "gumbel"],
        ["err-dist", "--points", "11"],
        ["mdp-train", "--mdp", "bandit1"],
        ["regress", "--repeats", "2", "--betas", "1"],
    ), ids=lambda command: command[0])
    def test_bad_clip_or_tau_is_a_usage_error_even_when_unread(self, tmp_path, capsys, command,
                                                               flag, value):
        assert_usage_error(command + [flag, value], tmp_path / "x.csv", capsys, flag[2:])

    # only the expanded loss reads an order; any other rejects it instead of dropping it
    @pytest.mark.parametrize("args", (["--loss", "gumbel", "--order", "3"],
                                      ["--loss", "clipped", "--order", "6"]))
    def test_order_without_the_expanded_loss_is_a_usage_error(self, tmp_path, capsys, args):
        assert_usage_error(["regress", "--repeats", "2", "--betas", "1", *args],
                           tmp_path / "x.csv", capsys, "order is only meaningful")

    def test_order_config_key_without_the_expanded_loss_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("loss = clipped\norder = 6\n")
        assert_usage_error(["regress", "--config", str(cfg), "--repeats", "2", "--betas", "1"],
                           tmp_path / "x.csv", capsys, "order is only meaningful")

    @pytest.mark.parametrize("line", ("clip = -1", "tau = 5"))
    def test_bad_clip_or_tau_config_key_is_a_usage_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert_usage_error(["regress", "--config", str(cfg), "--repeats", "2", "--betas", "1"],
                           tmp_path / "x.csv", capsys, line.split()[0])


class TestCompareCommand:
    def test_self_comparison_gives_p_one(self, tmp_path):
        r = tmp_path / "r.csv"
        run_cli(["regress", "--betas", "0.5,2", "--repeats", "3", "--data-size", "400", "--out", r])
        out = tmp_path / "cmp.csv"
        assert run_cli(["compare", r, r, "--out", out]) == 0
        rows = read_rows(out)
        assert len(rows) == 4 * 5
        tested = [row for row in rows if row["flag"] in ("ok", "significant")]
        assert tested
        assert all(float(row["p_value"]) == 1.0 for row in tested)

    def test_all_diverged_cells_flagged_not_tested(self, tmp_path):
        r = tmp_path / "r.csv"
        run_cli(["regress", "--betas", "0.5,10", "--repeats", "3", "--data-size", "400", "--out", r])
        out = tmp_path / "cmp.csv"
        run_cli(["compare", r, r, "--out", out])
        flags = {row["flag"] for row in read_rows(out)}
        assert "all_diverged" in flags

    def test_schema_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("alpha,beta\n1,2\n")
        with pytest.raises(SystemExit):
            run_cli(["compare", bad, bad, "--out", tmp_path / "c.csv"])

    def test_a_cell_with_one_survivor_is_flagged_insufficient(self, tmp_path):
        r = tmp_path / "r.csv"
        run_cli(["regress", "--betas", "2", "--repeats", "1", "--data-size", "300", "--out", r])
        out = tmp_path / "cmp.csv"
        assert run_cli(["compare", r, r, "--out", out]) == 0
        rows = read_rows(out)
        assert len(rows) == 5
        for row in rows:
            assert row["flag"] == "insufficient"
            assert row["n_a"] == row["n_b"] == "1" and row["mean_a"] == row["mean_b"] != ""
            assert row["std_a"] == row["t_stat"] == row["p_value"] == ""

    def test_fixed_header(self, tmp_path):
        r = tmp_path / "r.csv"
        run_cli(["regress", "--betas", "2", "--repeats", "2", "--data-size", "300", "--out", r])
        out = tmp_path / "cmp.csv"
        run_cli(["compare", r, r, "--out", out])
        header = out.read_text().splitlines()[0]
        assert header == ("cell_beta_data,cell_beta_reg,checkpoint,n_a,mean_a,std_a,"
                          "n_b,mean_b,std_b,t_stat,dof,p_value,flag")

    @pytest.mark.parametrize("alpha", ("nan", "-1", "0", "1", "5", "inf"))
    def test_alpha_outside_the_unit_interval_is_a_usage_error(self, tmp_path, capsys, alpha):
        r = tmp_path / "r.csv"
        run_cli(["regress", "--betas", "2", "--repeats", "3", "--data-size", "300", "--out", r])
        assert_usage_error(["compare", str(r), str(r), "--alpha", alpha], tmp_path / "cmp.csv",
                           capsys, "alpha")


class TestSeedHandling:
    @pytest.mark.parametrize("command", (
        ["loss-curve"],
        ["err-dist", "--points", "11"],
        ["regress", "--repeats", "2", "--betas", "1"],
        ["mdp-train", "--mdp", "bandit1"],
        ["compare", "a.csv", "b.csv"],
    ), ids=lambda command: command[0])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(command + ["--seed", "-3", "--out", out])
        assert exc.value.code == 2
        (line,) = error_lines(capsys.readouterr().err)
        assert "--seed" in line and "non-negative" in line
        assert not out.exists()

    def test_default_seed_is_fixed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["regress", "--betas", "2", "--repeats", "2", "--data-size", "300", "--out", a])
        run_cli(["regress", "--betas", "2", "--repeats", "2", "--data-size", "300", "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["regress", "--betas", "2", "--repeats", "2", "--data-size", "300",
                 "--seed", "1", "--out", a])
        run_cli(["regress", "--betas", "2", "--repeats", "2", "--data-size", "300",
                 "--seed", "2", "--out", b])
        assert a.read_bytes() != b.read_bytes()


# For each subcommand: a tiny run, the real-valued flags it reads, its count
# flags, each with a valid value, and its flags that take a list of parts, each
# with its separator and a valid value's parts.  The fuzzer gives every flag
# either that value, a bad one, or leaves it out; a list gets each part valid
# or drawn from SPECIAL_PARTS.  The counts named in CAPPED may also be drawn over
# their caps.
FUZZ_RUNS = {
    "regress": (
        ["regress", "--repeats", "2", "--betas", "1", "--data-size", "50"],
        {"--betas": "1", "--lr": "0.02", "--init-h": "1.0", "--escape-factor": "20"},
        {"--repeats": "2", "--data-size": "50", "--batch-size": "8", "--order": "4"},
        {"--betas": (",", ("0.5", "2"))},
    ),
    "mdp-train": (
        ["mdp-train", "--mdp", "bandit1", "--outer", "20", "--v-steps", "5",
         "--include", "gumbel,clipped,expectile"],
        {"--beta": "1.0", "--lr-v": "0.002", "--tol": "1e-10", "--clip": "7", "--tau": "0.7"},
        {"--outer": "20", "--v-steps": "5", "--dataset-size": "40"},
        {"--orders": (",", ("2", "4"))},
    ),
    "loss-curve": (
        ["loss-curve", "--include", "gumbel,clipped,expectile"],
        {"--beta": "1.0", "--clip": "7", "--tau": "0.7"},
        {},
        {"--grid": (":", ("-3", "3", "0.5")), "--orders": (",", ("2", "4")),
         "--include": (",", ("gumbel", "l2"))},
    ),
    "err-dist": (
        ["err-dist", "--points", "11", "--include", "expectile"],
        {"--beta": "1.0", "--clip": "7", "--tau": "0.7"},
        {"--points": "11"},
        {"--bounds": (":", ("-10", "10")), "--orders": (",", ("2", "4"))},
    ),
}
SPECIAL_PARTS = ("nan", "inf", "-inf", "1e300", "")
# the counts a fuzzed line may set over their caps, and the values it draws there
CAPPED = {
    "regress": {flag: (OVER_CAP,) for flag in ("--repeats", "--data-size", "--batch-size")},
    "err-dist": {"--points": (str(MAX_DENSITY_POINTS + 1), "1000000000", OVER_CAP)},
    "mdp-train": {"--dataset-size": (str(MAX_DATASET_SIZE + 1), OVER_CAP),
                  "--v-steps": (str(MAX_V_STEPS + 1), OVER_CAP),
                  "--outer": (str(MAX_V_STEPS + 1), OVER_CAP)},
}


def fuzzed_flags(reals, counts, lists, capped):
    choices = {flag: st.sampled_from(("0", "-1", "nan", "inf", "1e300", valid))
               for flag, valid in reals.items()}
    choices.update({flag: st.sampled_from(("0", "-1", valid, *capped.get(flag, ())))
                    for flag, valid in {**counts, "--seed": "5"}.items()})
    for flag, (separator, parts) in lists.items():
        joined = st.tuples(*(st.sampled_from((part, *SPECIAL_PARTS)) for part in parts))
        joined = joined.map(separator.join)
        choices[flag] = choices[flag] | joined if flag in choices else joined
    return st.fixed_dictionaries({flag: st.none() | values for flag, values in choices.items()})


def is_bad_part(flag, part):
    """An empty part, or one that is not a finite real, not an integer for --orders
    or not a loss name for --include."""
    return (part in ("", "nan", "inf", "-inf") or (flag == "--orders" and part == "1e300")
            or (flag == "--include" and part in SPECIAL_PARTS))


def is_bad_list(flag, parts):
    """A list with a bad part, or a grid of finite parts with too many points."""
    if any(is_bad_part(flag, part) for part in parts):
        return True
    if flag != "--grid":
        return False
    lo, hi, step = map(float, parts)
    return hi >= lo and step > 0 and (hi - lo) / step >= MAX_GRID_POINTS


def check_fuzzed_run(command, flags):
    """Run one fuzzed command line and check how it ends.

    It exits 0 and writes its CSV, or exits nonzero with exactly one error
    line and no traceback.  A NaN real value, a count or seed of -1, a count
    over its cap or a bad part of a list is a bad setting, so the exit is 2, a
    usage error; a run over the cap must not start.
    """
    base, reals, _, lists = FUZZ_RUNS[command]
    argv = base + [part for flag, value in flags.items() if value is not None
                   for part in (flag, value)]
    over_cap = any(value in CAPPED.get(command, {}).get(flag, ()) for flag, value in flags.items())
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "x.csv")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), refuse_runs() if over_cap else contextlib.nullcontext():
            try:
                code = run_cli(argv + ["--out", out])
            except SystemExit as exc:
                code = exc.code
        lines = error_lines(err.getvalue())
        if over_cap or any(value == ("nan" if flag in reals else "-1")
               or flag in lists and is_bad_list(flag, value.split(lists[flag][0]))
               for flag, value in flags.items() if value is not None):
            assert code == 2, (argv, code, err.getvalue())
        if code == 0:
            assert os.path.exists(out) and not lines, argv
        else:
            assert code in (1, 2) and len(lines) == 1, (argv, code, err.getvalue())


class TestFuzzedFlags:
    @pytest.mark.parametrize("command", sorted(FUZZ_RUNS))
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_writes_a_csv_or_fails_in_one_line(self, command, data):
        _, reals, counts, lists = FUZZ_RUNS[command]
        check_fuzzed_run(command, data.draw(fuzzed_flags(reals, counts, lists,
                                                         CAPPED.get(command, {}))))

    # lines the fuzzer can draw but its derandomized examples miss
    @pytest.mark.parametrize("command,flags", [
        ("loss-curve", {"--grid": "-3:1e300:0.5"}),   # finite parts, 2e300 points
        ("regress", {"--betas": "0.5,"}),
        ("regress", {"--repeats": OVER_CAP, "--data-size": "-1"}),
        ("regress", {"--batch-size": OVER_CAP, "--lr": "nan"}),
        ("err-dist", {"--points": OVER_CAP, "--bounds": "nan:10"}),
    ])
    def test_drawable_lines(self, command, flags):
        check_fuzzed_run(command, flags)
