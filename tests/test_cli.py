import json

import numpy as np
import pytest

import claimtails as ct
from claimtails import claim_process, estimation, gof
from claimtails.claim_process import NumericFailureError
from claimtails.cli import main, read_config_file, read_loss_csv
from claimtails.estimation import FitFailedError
from claimtails.tail_model import ProbeTooFarError


@pytest.fixture
def loss_csv(tmp_path):
    path = tmp_path / "losses.csv"
    s = ct.sample(ct.gpd(0.5, 2.0), 600, seed=17)
    path.write_text("loss\n" + "\n".join(f"{v:.17g}" for v in s.values) + "\n")
    return path


class TestCsvIngestion:
    def test_reads_sorted_sample(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("loss\n3.5\n1.25\n2.0\n")
        s = read_loss_csv(str(path))
        np.testing.assert_array_equal(s.values, [1.25, 2.0, 3.5])

    def test_custom_column(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("id,amount\n1,10.0\n2,20.0\n")
        assert read_loss_csv(str(path), column="amount").n == 2

    def test_missing_column(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        path.write_text("value\n1.0\n")
        rc = main(["fit", "--input", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        path.write_text("loss\n")
        rc = main(["fit", "--input", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_non_numeric_row_number_in_error(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        path.write_text("loss\n1.0\noops\n")
        rc = main(["tail-test", "--input", str(path), "--test-k", "3",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "row 3" in capsys.readouterr().err

    def test_negative_loss_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("loss\n1.0\n-2.0\n")
        with pytest.raises(Exception):
            read_loss_csv(str(path))


class TestConfig:
    def test_parse_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nbase-family = gpd\nseed=3  # trailing\n\n")
        out = read_config_file(str(cfg))
        assert out == {"base_family": "gpd", "seed": "3"}

    def test_bad_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        with pytest.raises(Exception):
            read_config_file(str(cfg))

    def test_flag_overrides_config(self, tmp_path, loss_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("test-k=10\ntest-reps=500\n")
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert main(["tail-test", "--input", str(loss_csv), "--config", str(cfg),
                     "--out", str(out1)]) == 0
        assert main(["tail-test", "--input", str(loss_csv), "--config", str(cfg),
                     "--test-k", "25", "--out", str(out2)]) == 0
        r1 = json.loads((out1 / "tail_test.json").read_text())
        r2 = json.loads((out2 / "tail_test.json").read_text())
        assert r1["k"] == 10 and r2["k"] == 25


class TestFitCommand:
    def test_fit_outputs(self, tmp_path, loss_csv):
        out = tmp_path / "fit"
        rc = main(["fit", "--input", str(loss_csv), "--base-family", "gpd",
                   "--out", str(out), "--seed", "1"])
        assert rc == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert report["model"]["base"]["family"] == "gpd"
        assert abs(report["base_fit"]["theta"]["gamma"] - 0.5) < 0.15
        edf_lines = (out / "edf.csv").read_text().strip().splitlines()
        assert edf_lines[0] == "x,prob"
        assert len(edf_lines) == 601
        curve_lines = (out / "model_curve.csv").read_text().strip().splitlines()
        assert curve_lines[0] == "x,cdf,survival"
        model = ct.model_from_json((out / "model.json").read_text())
        assert model.base.family == ct.Family.GPD

    def test_byte_identical_rerun(self, tmp_path, loss_csv):
        out = tmp_path / "fit"
        args = ["fit", "--input", str(loss_csv), "--base-family", "gpd",
                "--out", str(out), "--seed", "1"]
        assert main(args) == 0
        first = (out / "fit_report.json").read_bytes()
        assert main(args) == 0
        assert (out / "fit_report.json").read_bytes() == first


class TestTailTestCommand:
    def test_output_fields(self, tmp_path, loss_csv):
        out = tmp_path / "tt"
        rc = main(["tail-test", "--input", str(loss_csv), "--test-k", "50",
                   "--test-reps", "1000", "--seed", "2", "--out", str(out)])
        assert rc == 0
        r = json.loads((out / "tail_test.json").read_text())
        assert r["k"] == 50 and r["reps"] == 1000
        assert 0.0 <= r["p_value"] <= 1.0

    def test_missing_k_is_error(self, tmp_path, loss_csv, capsys):
        rc = main(["tail-test", "--input", str(loss_csv), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "test-k" in capsys.readouterr().err


class TestSimulateCommand:
    def test_inflation_factor_one_identical(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(["simulate", "--mode", "inflation", "--alpha", "1.5",
                   "--inflation-factor", "1.0", "--years", "3",
                   "--threshold", "1.0", "--base-rate", "50",
                   "--seed", "4", "--out", str(out)])
        assert rc == 0
        for year in (1, 2, 3):
            raw = (out / f"raw_year{year:02d}.csv").read_text()
            infl = (out / f"inflated_year{year:02d}.csv").read_text()
            assert raw == infl

    def test_mechanism_mode(self, tmp_path):
        model = ct.AdjustedModel(
            ct.pareto(1.0, 1.0),
            ct.UpperAdjustment(ct.shifted_weibull(3.0, 25.0, 2.0), 0.5, 3.0),
        )
        mpath = tmp_path / "model.json"
        mpath.write_text(ct.model_to_json(model))
        out = tmp_path / "mech"
        rc = main(["simulate", "--mode", "mechanism", "--model", str(mpath),
                   "-n", "500", "--seed", "5", "--out", str(out)])
        assert rc == 0
        lines = (out / "mechanism_sample.csv").read_text().strip().splitlines()
        assert lines[0] == "loss" and len(lines) == 501

    def test_thinning_mode_matches_closed_form(self, tmp_path):
        out = tmp_path / "thin"
        rc = main(["simulate", "--mode", "thinning", "--sigma", "1.0",
                   "--sigma-t", "1.0", "-n", "2000", "--seed", "6",
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "thinned_sample.csv").read_text().strip().splitlines()[1:]
        vals = np.array([float(v) for v in lines])
        from scipy.stats import kstest

        stat = kstest(
            vals, lambda x: np.vectorize(ct.thinned_cdf_closed)(1.0, 1.0, x)
        ).statistic
        assert stat < 1.63 / np.sqrt(vals.size)


class TestQqCommand:
    def test_qq_normal_margins(self, tmp_path, loss_csv):
        model = ct.AdjustedModel(ct.gpd(0.5, 2.0))
        mpath = tmp_path / "model.json"
        mpath.write_text(ct.model_to_json(model))
        out = tmp_path / "qq"
        rc = main(["qq", "--input", str(loss_csv), "--model", str(mpath),
                   "--margins", "normal", "--out", str(out)])
        assert rc == 0
        lines = (out / "qq_normal.csv").read_text().strip().splitlines()
        assert lines[0] == "theoretical,empirical"
        assert len(lines) == 601


class TestBootstrapCommand:
    def test_small_bootstrap(self, tmp_path, loss_csv):
        out = tmp_path / "boot"
        rc = main(["bootstrap", "--input", str(loss_csv), "--base-family", "gpd",
                   "--boot-reps", "8", "--seed", "3", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "bootstrap.json").read_text())
        assert summary["B"] == 8
        assert "gamma" in summary["standard_errors"]
        reps = (out / "bootstrap_replicates.csv").read_text().strip().splitlines()
        assert len(reps) == 9 - summary["failed"]


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def _fails_to_fit(monkeypatch):
    monkeypatch.setattr(estimation, "fit_pipeline", _raise(FitFailedError("no restart converged")))


def _fails_quadrature(monkeypatch):
    monkeypatch.setattr(claim_process, "sample_thinned",
                        _raise(NumericFailureError("thinning normalization integral failed")))


def _probes_too_far(monkeypatch):
    monkeypatch.setattr(gof, "qq_coordinates", _raise(ProbeTooFarError("base survival underflows")))


class TestTypedFailures:
    """Library failures end as an `error:` line and a non-zero exit."""

    @pytest.mark.parametrize("command,patch,message", [
        pytest.param("fit", _fails_to_fit, "no restart converged", id="FitFailedError"),
        # every replicate's fit fails, so the bootstrap itself fails
        pytest.param("bootstrap", _fails_to_fit, "all bootstrap replicates failed",
                     id="BootstrapFailedError"),
        pytest.param("thinning", _fails_quadrature, "integral failed", id="NumericFailureError"),
        pytest.param("qq", _probes_too_far, "underflows", id="ProbeTooFarError"),
        # no patch: with sigma = 1e6 the draws fall outside the bracket
        pytest.param("thinning-unbracketed", None, "outside [F(lo), F(hi)]", id="BracketError"),
    ])
    def test_error_line_and_nonzero_exit(self, command, patch, message, tmp_path, loss_csv,
                                         monkeypatch, capsys):
        mpath = tmp_path / "model.json"
        mpath.write_text(ct.model_to_json(ct.AdjustedModel(ct.gpd(0.5, 2.0))))
        common = ["--out", str(tmp_path / "o")]
        argv = {
            "fit": ["fit", "--input", str(loss_csv), *common],
            "bootstrap": ["bootstrap", "--input", str(loss_csv), "--boot-reps", "3", *common],
            "thinning": ["simulate", "--mode", "thinning", "-n", "10", *common],
            "qq": ["qq", "--input", str(loss_csv), "--model", str(mpath), *common],
            "thinning-unbracketed": ["simulate", "--mode", "thinning", "--sigma", "1e6",
                                     "-n", "10", *common],
        }[command]
        if patch is not None:
            patch(monkeypatch)
        assert main(argv) != 0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
