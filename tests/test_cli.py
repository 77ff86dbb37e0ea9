import csv

import numpy as np
import pytest
from scipy import stats as sps

from gumbelkit.cli import build_parser, main


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

    def test_expanded_requires_order(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(["regress", "--loss", "expanded", "--out", tmp_path / "x.csv"])


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

    def test_fixed_header(self, tmp_path):
        r = tmp_path / "r.csv"
        run_cli(["regress", "--betas", "2", "--repeats", "2", "--data-size", "300", "--out", r])
        out = tmp_path / "cmp.csv"
        run_cli(["compare", r, r, "--out", out])
        header = out.read_text().splitlines()[0]
        assert header == ("cell_beta_data,cell_beta_reg,checkpoint,n_a,mean_a,std_a,"
                          "n_b,mean_b,std_b,t_stat,dof,p_value,flag")


class TestSeedHandling:
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
