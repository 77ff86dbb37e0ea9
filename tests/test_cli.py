import contextlib
import csv
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


# For each subcommand: a tiny run, the real-valued flags it reads and its count
# flags, each with a valid value.  The fuzzer gives every flag either that
# value, a bad one, or leaves it out.
FUZZ_RUNS = {
    "regress": (
        ["regress", "--repeats", "2", "--betas", "1", "--data-size", "50"],
        {"--betas": "1", "--lr": "0.02", "--init-h": "1.0", "--escape-factor": "20"},
        {"--repeats": "2", "--data-size": "50", "--batch-size": "8"},
    ),
    "mdp-train": (
        ["mdp-train", "--mdp", "bandit1", "--outer", "20", "--v-steps", "5",
         "--include", "gumbel,clipped,expectile"],
        {"--beta": "1.0", "--lr-v": "0.002", "--tol": "1e-10", "--clip": "7", "--tau": "0.7"},
        {"--outer": "20", "--v-steps": "5", "--dataset-size": "40"},
    ),
    "loss-curve": (
        ["loss-curve", "--include", "gumbel,clipped,expectile"],
        {"--beta": "1.0", "--clip": "7", "--tau": "0.7"},
        {},
    ),
    "err-dist": (
        ["err-dist", "--points", "11", "--include", "expectile"],
        {"--beta": "1.0", "--clip": "7", "--tau": "0.7"},
        {"--points": "11"},
    ),
}


def fuzzed_flags(reals, counts):
    choices = {flag: st.sampled_from(("0", "-1", "nan", "inf", "1e300", valid))
               for flag, valid in reals.items()}
    choices.update({flag: st.sampled_from(("0", "-1", valid))
                    for flag, valid in {**counts, "--seed": "5"}.items()})
    return st.fixed_dictionaries({flag: st.none() | values for flag, values in choices.items()})


def check_fuzzed_run(command, flags):
    """Run one fuzzed command line and check how it ends.

    It exits 0 and writes its CSV, or exits nonzero with exactly one error
    line and no traceback.  A NaN real value, or a count or seed of -1, is a
    bad setting, so the exit is 2, a usage error.
    """
    base, reals, _ = FUZZ_RUNS[command]
    argv = base + [part for flag, value in flags.items() if value is not None
                   for part in (flag, value)]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "x.csv")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = run_cli(argv + ["--out", out])
            except SystemExit as exc:
                code = exc.code
        lines = error_lines(err.getvalue())
        if any(value == ("nan" if flag in reals else "-1") for flag, value in flags.items()):
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
        base, reals, counts = FUZZ_RUNS[command]
        check_fuzzed_run(command, data.draw(fuzzed_flags(reals, counts)))
