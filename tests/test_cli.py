import csv
import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import claimtails as ct
from claimtails import estimation, gof, parallel
from claimtails.cli import (
    InputError,
    _plain_column,
    build_parser,
    main,
    read_config_file,
    read_loss_csv,
    write_csv,
)
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


def reference_read_loss_column(path, column="loss"):
    """Values, or the first error message, as `csv.DictReader` reads them."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or column not in reader.fieldnames:
            return f"column '{column}' not found in {path}"
        values = []
        for row_no, row in enumerate(reader, start=2):
            raw = (row.get(column) or "").strip()
            try:
                value = float(raw)
            except ValueError:
                return f"non-numeric value '{raw}' at row {row_no}"
            if not np.isfinite(value) or value <= 0:
                return f"non-positive loss {value} at row {row_no}"
            values.append(value)
    return sorted(values) if values else f"no loss values found in {path}"


# CSV texts that `csv.DictReader` and a naive `np.loadtxt` may read apart
CSV_QUIRKS = [
        pytest.param("id,loss\n1, 2.5 \n\n2,1e-3\n\n", id="blank-lines-and-spaces"),
        pytest.param("id,loss,note\n1,2.0,a,extra\n2,3.5\n", id="long-and-full-rows"),
        pytest.param("id,loss\n1,2.0\n\n2\n", id="short-row-after-blank"),
        pytest.param("loss,id,loss\n1.0,7,2.0\n3.0,8\n", id="duplicate-column-short"),
        pytest.param("loss\n1.0\n-2.0\noops\n", id="non-positive-first"),
        pytest.param("loss\n1.0\n\noops\n-2.0\n", id="non-numeric-first"),
        pytest.param("loss\n1.0\nnan\n", id="nan"),
        pytest.param("loss\ninf\n", id="inf"),
        pytest.param("loss\n0\n", id="zero"),
        pytest.param("loss\n1_000.5\n", id="underscore"),
        pytest.param("loss\n\n\n", id="only-blank-rows"),
        pytest.param("\nloss\n1.0\n", id="blank-header"),
        pytest.param("", id="empty-file"),
        pytest.param("loss\n1 5\n2.0\n", id="space-inside-a-value"),
        pytest.param("loss\n1.0\n   \n2.0\n", id="whitespace-only-line"),
        pytest.param("id,loss\n1,2.0\n \t\n", id="whitespace-only-line-two-columns"),
        pytest.param("loss\n", id="header-only"),
        pytest.param("loss", id="header-without-line-end"),
        pytest.param('id,loss\n1,"2.5"\n2," 1e-3 "\n', id="quoted-values"),
        pytest.param('"id","loss"\n1,3.5\n', id="quoted-header"),
        pytest.param('loss\n"1,5"\n', id="quoted-comma"),
        pytest.param('loss\n"1.0\n"\n2.0\n', id="quoted-line-end"),
        pytest.param('note,loss\n"a,7,c",2.0\n', id="quoted-comma-in-another-column"),
        pytest.param("id,loss\r\n1,2.5\r\n\r\n2,1e-3\r\n", id="crlf"),
        pytest.param("loss\r1.0\r2.0\r", id="cr-line-ends"),
        pytest.param("loss\n1.0\r2.0\n", id="lone-cr"),
        pytest.param("loss\n#1.0\n2.0\n", id="hash-row"),
        pytest.param("loss\n1.0 # note\n", id="hash-after-value"),
        pytest.param("loss,note\n1.0,#x\n2.0,ok\n", id="hash-in-other-column"),
        pytest.param("loss\n0x1p3\n", id="hex-float"),
        pytest.param("loss\n1e400\n", id="overflow"),
        pytest.param("loss\n1e-320\n4.9e-324\n", id="subnormal"),
        pytest.param("loss\n+1.5\n.5\n5.\n1E+2\n", id="float-forms"),
        pytest.param("loss\n1d5\n", id="fortran-exponent"),
        pytest.param("loss\n-0\n", id="negative-zero"),
        pytest.param("loss\n\u0661\u0662\n\u0663.\u0665\n", id="arabic-indic-digits"),
        pytest.param("loss\n1.5\n\xa02.5\n", id="no-break-space"),
        pytest.param("loss\n\t2.5\x0b\n1e-3\x1c\n", id="ascii-whitespace"),
        pytest.param("loss\n1.0\n,\n", id="empty-cells"),
        pytest.param("loss,id\n1.0,7,extra\n2.0\n", id="long-and-one-cell-rows"),
        pytest.param("loss\n1.0\n2.5", id="no-final-line-end"),
        pytest.param("loss\n1.0\n\n\n", id="trailing-blank-lines"),
]


def assert_reads_as_reference(path):
    """`read_loss_csv` gives the reference's values or error message, and
    the `np.loadtxt` fast path either declines the data rows or reads the
    reference's values (or a value the reference refuses)."""
    expected = reference_read_loss_column(str(path))
    with open(path, newline="") as fh:
        text = fh.read()
    if text.startswith("loss\n"):
        fast = _plain_column(text[len("loss\n"):], 0)
        if fast is not None and isinstance(expected, str):
            assert not np.all(np.isfinite(fast) & (fast > 0)), (text, fast)
        elif fast is not None:
            assert np.sort(fast).tobytes() == np.array(expected).tobytes(), (text, fast)
    if isinstance(expected, str):
        with pytest.raises(InputError) as ei:
            read_loss_csv(str(path))
        assert str(ei.value) == expected
    else:
        assert read_loss_csv(str(path)).values.tobytes() == np.array(expected).tobytes()


class TestCsvAgainstDictReader:
    @pytest.mark.parametrize("text", CSV_QUIRKS)
    def test_same_values_and_errors(self, text, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text(text)
        expected = reference_read_loss_column(str(path))
        if isinstance(expected, str):
            with pytest.raises(InputError) as ei:
                read_loss_csv(str(path))
            assert str(ei.value) == expected
        else:
            np.testing.assert_array_equal(read_loss_csv(str(path)).values, expected)

    @pytest.mark.parametrize("text", CSV_QUIRKS)
    def test_fast_path_reads_as_csv_or_declines(self, text, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text(text)
        assert_reads_as_reference(path)

    def test_random_text_reads_as_csv(self, tmp_path):
        path = tmp_path / "x.csv"

        # cells: numbers as the CLI writes them, or short runs of quirky text
        positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
        cell = st.one_of(positive.map(repr), positive.map("%.17g".__mod__),
                         st.floats(allow_nan=True, allow_infinity=True).map(repr),
                         st.text(alphabet="0123456789.eE+-_ \t\x0b\x1c\"#xinfa\u0661\xa0",
                                 max_size=6))
        end = st.sampled_from(["\n", "\n", "\r\n", "\r", ",", "\n\n", " \n", ""])

        @settings(max_examples=400, deadline=None)
        @given(st.lists(st.tuples(cell, end), max_size=6))
        def check(cells):
            path.write_text("loss\n" + "".join(c + e for c, e in cells))
            assert_reads_as_reference(path)

        check()

    def test_written_values_take_the_fast_path(self, tmp_path):
        # the CLI's own %.17g cells and repr, from 1e-300 to 1e300
        rng = np.random.default_rng(8)
        values = np.sort(10.0 ** rng.uniform(-300, 300, 4000))
        write_csv(tmp_path / "x.csv", ["id", "loss"], [(j, v) for j, v in enumerate(values)])
        body = (tmp_path / "x.csv").read_text().split("\n", 1)[1]
        assert _plain_column(body, 1).tobytes() == values.tobytes()
        assert read_loss_csv(str(tmp_path / "x.csv")).values.tobytes() == values.tobytes()
        (tmp_path / "r.csv").write_text("loss\n" + "\n".join(map(repr, values.tolist())))
        assert _plain_column((tmp_path / "r.csv").read_text()[5:], 0).tobytes() == values.tobytes()


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

    @pytest.mark.parametrize("command,line,allowed", [
        ("fit", "weighting = foo", "normalized, sqrt, unweighted"),
        ("bootstrap", "weighting = foo", "normalized, sqrt, unweighted"),
        ("fit", "base_family = exponential", "gpd, pareto"),
    ])
    def test_value_outside_flag_choices(self, command, line, allowed, tmp_path, loss_csv,
                                        capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        boot_reps = ["--boot-reps", "2"] if command == "bootstrap" else []
        rc = main([command, "--input", str(loss_csv), "--config", str(cfg), *boot_reps,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and allowed in err

    @pytest.mark.parametrize("command,line,message", [
        ("bootstrap", "boot_reps = four", "boot_reps must be an integer, got 'four'"),
        ("fit", "x_upper = high", "x_upper must be a number, got 'high'"),
    ])
    def test_non_numeric_value_is_named(self, command, line, message, tmp_path, loss_csv,
                                        capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        rc = main([command, "--input", str(loss_csv), "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command,key", [
        *(("fit", key) for key in ("threshold", "x_lower", "x_upper")),
        *(("simulate", key) for key in ("alpha", "inflation_factor", "threshold", "base_rate",
                                        "sigma", "sigma_t")),
    ])
    def test_non_finite_number_is_named(self, command, key, value, tmp_path, loss_csv, capsys):
        out = tmp_path / "o"
        mode = {"sigma": "thinning", "sigma_t": "thinning"}.get(key, "inflation")
        given = ["--input", str(loss_csv)] if command == "fit" else ["--mode", mode]
        rc = main([command, *given, f"--{key.replace('_', '-')}={value}", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {key} must be a finite number, got '{value}'\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["5", "a:b"])
    def test_malformed_rank_range(self, value, tmp_path, loss_csv, capsys):
        rc = main(["fit", "--input", str(loss_csv), "--rank-range", value,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: --rank-range must be LO:HI with integer ranks, got '{value}'\n"

    @pytest.mark.parametrize("value", ["0:3", "5:2"])
    def test_rank_range_out_of_order(self, value, tmp_path, loss_csv, capsys):
        rc = main(["fit", "--input", str(loss_csv), "--rank-range", value,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        lo, hi = value.split(":")
        assert capsys.readouterr().err == f"error: rank range ({lo}, {hi}) must have 1 <= LO <= HI\n"
        assert not (tmp_path / "o").exists()

    def test_rank_range_is_clipped_to_the_sample(self, tmp_path, loss_csv):
        out = tmp_path / "o"
        assert main(["fit", "--input", str(loss_csv), "--rank-range", "3:700",
                     "--out", str(out)]) == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert report["base_fit"]["rank_range"] == [3, 600]


# the flags each subcommand reads
SETTINGS = {
    "fit": {"--input", "--column", "--base-family", "--threshold", "--x-lower", "--x-upper",
            "--weighting", "--rank-range", "--seed", "--out"},
    "tail-test": {"--input", "--column", "--test-k", "--test-reps", "--seed", "--out"},
    "bootstrap": {"--input", "--column", "--base-family", "--threshold", "--x-lower",
                  "--x-upper", "--weighting", "--rank-range", "--boot-reps", "--seed", "--out"},
    "simulate": {"--mode", "--alpha", "--inflation-factor", "--years", "--threshold",
                 "--base-rate", "--model", "--sigma", "--sigma-t", "-n", "--seed", "--out"},
    "qq": {"--input", "--column", "--model", "--margins", "--out"},
}


def _dest(flag):
    return flag.lstrip("-").replace("-", "_")


class TestSettings:
    @pytest.mark.parametrize("command", sorted(SETTINGS))
    def test_each_command_accepts_exactly_its_settings(self, command, capsys):
        parser = build_parser()
        dests = {_dest(flag) for flag in SETTINGS[command]}
        assert set(vars(parser.parse_args([command]))) == dests | {"command", "config", "func"}
        for flag in SETTINGS[command]:
            assert getattr(parser.parse_args([command, flag, "v"]), _dest(flag)) == "v"
        for flag in sorted(set().union(*SETTINGS.values()) - SETTINGS[command]):
            with pytest.raises(SystemExit) as ei:
                main([command, flag, "9"])
            assert ei.value.code == 2
            assert f"unrecognized arguments: {flag} 9" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "bootstrap", "tail-test", "qq"])
    def test_missing_input(self, command, tmp_path, capsys):
        assert main([command, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {command} needs --input with a loss CSV\n"
        assert not (tmp_path / "o").exists()

    def test_unknown_config_key(self, tmp_path, loss_csv, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x_upper = 20\nx-uper = 20\n")
        rc = main(["fit", "--input", str(loss_csv), "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: unknown config key 'x_uper' in {cfg}\n"
        assert not (tmp_path / "o").exists()

    def test_other_commands_keys_are_allowed(self, tmp_path, loss_csv):
        # one config file serves every subcommand; each reads only its own keys
        cfg = tmp_path / "run.cfg"
        cfg.write_text("test_k = 10\ntest_reps = 50\nboot_reps = four\nmode = foo\n")
        out = tmp_path / "o"
        assert main(["tail-test", "--input", str(loss_csv), "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert json.loads((out / "tail_test.json").read_text())["reps"] == 50

    @pytest.mark.parametrize("command,key,value,message", [
        ("fit", "seed", "abc", "seed must be an integer, got 'abc'"),
        ("bootstrap", "weighting", "foo",
         "weighting must be one of normalized, sqrt, unweighted, got 'foo'"),
        ("qq", "margins", "foo", "margins must be one of frechet, normal, original, got 'foo'"),
        ("simulate", "mode", "foo", "mode must be one of inflation, mechanism, thinning, got 'foo'"),
        ("simulate", "n", "0", "n must be >= 1, got 0"),
    ])
    def test_flag_and_config_entry_give_one_error(self, command, key, value, message, tmp_path,
                                                   loss_csv, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        flag = "-n" if key == "n" else f"--{key}"
        inputs = [] if command == "simulate" else ["--input", str(loss_csv)]
        errors = []
        for source in ([flag, value], ["--config", str(cfg)]):
            assert main([command, *inputs, *source, "--out", str(tmp_path / "o")]) == 1
            errors.append(capsys.readouterr().err)
        assert errors == [f"error: {message}\n"] * 2
        assert not (tmp_path / "o").exists()


class TestFitCommand:
    def test_fit_outputs(self, tmp_path, loss_csv):
        out = tmp_path / "fit"
        rc = main(["fit", "--input", str(loss_csv), "--base-family", "gpd",
                   "--out", str(out), "--seed", "1"])
        assert rc == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert report["model"]["base"]["family"] == "gpd"
        assert abs(report["base_fit"]["theta"]["gamma"] - 0.5) < 0.15
        assert sorted(p.name for p in out.iterdir()) == [
            "fit_report.json", "model.json", "model_curve.csv"]
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

    def test_swapped_thresholds_are_named(self, tmp_path, loss_csv, capsys):
        rc = main(["fit", "--input", str(loss_csv), "--x-lower", "5", "--x-upper", "2",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == "error: x_lower (5.0) must be below x_upper (2.0)\n"

    def test_outputs_do_not_depend_on_cpu_count(self, tmp_path, loss_csv, monkeypatch):
        pools = _record_pools(monkeypatch)
        outputs = []
        for cpus in ({0}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            out = tmp_path / f"fit{len(cpus)}"
            assert main(["fit", "--input", str(loss_csv), "--x-lower", "0.2", "--x-upper", "20",
                         "--seed", "3", "--out", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outputs[0]) == 3 and outputs[0] == outputs[1]
        report = json.loads(outputs[0]["fit_report.json"])
        assert report["upper_fit"] and report["lower_fit"]
        assert pools == []  # each step's restarts run in this process

    @pytest.mark.parametrize("shift", [0.0, 1e8])
    def test_default_pareto_scale_is_just_below_the_smallest_loss(self, shift, tmp_path,
                                                                   loss_csv):
        values = read_loss_csv(str(loss_csv)).values + shift
        path = tmp_path / "shifted.csv"
        path.write_text("loss\n" + "\n".join(f"{v:.17g}" for v in values) + "\n")
        x1 = float(read_loss_csv(str(path)).values[0])
        out = tmp_path / "fit"
        assert main(["fit", "--input", str(path), "--base-family", "pareto",
                     "--out", str(out)]) == 0
        sigma = json.loads((out / "model.json").read_text())["base"]["params"]["sigma"]
        if shift == 0.0:
            assert sigma == x1 - 1e-9 < x1
        else:
            # x1 - 1e-9 rounds back to x1 here; the next float below it does not
            assert x1 - 1e-9 == x1
            assert sigma == float(np.nextafter(x1, 0.0)) < x1

    @pytest.mark.parametrize("flags,message", [
        pytest.param(["--threshold", "-1"], "GPD location must be >=0, got {start}",
                     id="outside-domain"),
        pytest.param(["--base-family", "pareto", "--threshold", "5"],
                     "pareto left endpoint 5 is not below the smallest fitted observation "
                     "0.000119542 (rank 1)", id="left-endpoint"),
        pytest.param(["--threshold", "0.5", "--x-lower", "0.7"],
                     "the smallest fitted head observation 0.000119542 (rank 1) is not above "
                     "the base's left endpoint 0.5", id="head-below-base"),
    ])
    def test_bad_threshold_is_named(self, flags, message, tmp_path, loss_csv, capsys):
        values = read_loss_csv(str(loss_csv)).values
        # the GPD fit's start point: gamma 0.5, sigma the median excess over loc -1
        start = (0.5, float(np.median(values + 1.0)), -1.0)
        assert main(["fit", "--input", str(loss_csv), *flags, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {message.format(start=start)}\n"
        assert not (tmp_path / "o").exists()


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

    @pytest.mark.parametrize("flag", ["--sigma", "--sigma-t"])
    def test_thinning_scales_must_be_positive(self, flag, tmp_path, capsys):
        out = tmp_path / "thin"
        rc = main(["simulate", "--mode", "thinning", flag, "-2", "-n", "10", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: sigma and sigma_t must be positive\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("flag", ["--sigma", "--sigma-t"])
    def test_thinning_scales_must_be_finite(self, flag, value, tmp_path, capsys):
        # refused as a setting, before the library's own check
        out = tmp_path / "thin"
        rc = main(["simulate", "--mode", "thinning", flag, value, "-n", "10", "--out", str(out)])
        assert rc == 1
        key = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {key} must be a finite number, got '{value}'\n"
        assert not out.exists()


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

    def test_outputs_do_not_depend_on_cpu_count(self, tmp_path, loss_csv, monkeypatch):
        pools = _record_pools(monkeypatch)
        outputs = []
        for cpus in ({0}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            out = tmp_path / f"boot{len(cpus)}"
            assert main(["bootstrap", "--input", str(loss_csv), "--base-family", "gpd",
                         "--boot-reps", "5", "--seed", "3", "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("bootstrap.json", "bootstrap_replicates.csv")])
        assert outputs[0] == outputs[1]
        # one CPU: no pool; three CPUs: this process and two workers, and the
        # replicates fitted here start no pool of their own
        assert pools == [2]


def _record_pools(monkeypatch) -> list:
    """Patch the one pool constructor; returns the worker count of each pool made."""
    pools = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
    return pools


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def _fails_to_fit(monkeypatch):
    monkeypatch.setattr(estimation, "fit_pipeline", _raise(FitFailedError("no restart converged")))


def _probes_too_far(monkeypatch):
    monkeypatch.setattr(gof, "qq_coordinates", _raise(ProbeTooFarError("base survival underflows")))


def _worker_dies(monkeypatch):
    parent = os.getpid()

    def fit_pipeline(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        raise FitFailedError("no restart converged")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(estimation, "fit_pipeline", fit_pipeline)


class TestTypedFailures:
    """Library failures end as an `error:` line and a non-zero exit."""

    @pytest.mark.parametrize("command,patch,message", [
        pytest.param("fit", _fails_to_fit, "no restart converged", id="FitFailedError"),
        # every replicate's fit fails, so the bootstrap itself fails
        pytest.param("bootstrap", _fails_to_fit, "all bootstrap replicates failed",
                     id="BootstrapFailedError"),
        pytest.param("bootstrap", _worker_dies, "terminated abruptly", id="BrokenProcessPool"),
        pytest.param("qq", _probes_too_far, "underflows", id="ProbeTooFarError"),
    ])
    def test_error_line_and_nonzero_exit(self, command, patch, message, tmp_path, loss_csv,
                                         monkeypatch, capsys):
        mpath = tmp_path / "model.json"
        mpath.write_text(ct.model_to_json(ct.AdjustedModel(ct.gpd(0.5, 2.0))))
        common = ["--out", str(tmp_path / "o")]
        argv = {
            "fit": ["fit", "--input", str(loss_csv), *common],
            "bootstrap": ["bootstrap", "--input", str(loss_csv), "--boot-reps", "3", *common],
            "qq": ["qq", "--input", str(loss_csv), "--model", str(mpath), *common],
        }[command]
        patch(monkeypatch)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("command,model,message", [
        pytest.param("qq", {"upper": None}, "missing the key 'base'", id="ModelInvalidError"),
        pytest.param("mechanism", {"base": {"family": "gpd", "params": {"gamma": 0.5, "loc": 0.0}}},
                     "gpd is missing parameters: sigma", id="ParameterError"),
        pytest.param("qq", {"base": None}, "malformed model", id="ModelInvalidError-type"),
    ])
    def test_malformed_model_json(self, command, model, message, tmp_path, loss_csv, capsys):
        mpath = tmp_path / "model.json"
        mpath.write_text(json.dumps(model))
        common = ["--model", str(mpath), "--out", str(tmp_path / "o")]
        argv = {
            "qq": ["qq", "--input", str(loss_csv), *common],
            "mechanism": ["simulate", "--mode", "mechanism", "-n", "10", *common],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestInputNaming:
    """Bad counts and unreadable model files are named in the error line."""

    @pytest.mark.parametrize("argv,message", [
        (["simulate", "--mode", "thinning", "-n", "0"], "n must be >= 1, got 0"),
        (["simulate", "--mode", "thinning", "-n", "-3"], "n must be >= 1, got -3"),
        (["bootstrap", "--input", "LOSSES", "--boot-reps", "0"], "boot_reps must be >= 1, got 0"),
        (["simulate", "--mode", "inflation", "--years", "0"], "years must be >= 1, got 0"),
        (["tail-test", "--input", "LOSSES", "--test-k", "50", "--test-reps", "0"],
         "test_reps must be >= 1, got 0"),
        (["tail-test", "--input", "LOSSES", "--test-k", "2"], "test_k must be >= 3, got 2"),
        (["tail-test", "--input", "LOSSES", "--test-k", "50", "--seed", "-1"],
         "seed must be >= 0, got -1"),
        (["bootstrap", "--input", "LOSSES", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["simulate", "--mode", "thinning", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["simulate", "--mode", "inflation", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["fit", "--input", "LOSSES", "--seed", "-3"], "seed must be >= 0, got -3"),
    ])
    def test_count_below_minimum(self, argv, message, tmp_path, loss_csv, capsys):
        argv = [str(loss_csv) if a == "LOSSES" else a for a in argv]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_inflation_scenario_beyond_the_claim_cap(self, tmp_path, capsys):
        # refused before any draw: the scenario expects ~1e20 claims
        out = tmp_path / "o"
        assert main(["simulate", "--mode", "inflation", "--inflation-factor", "100",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: inflation_factor 100 over years 10 from base_rate 100 expects "
                       "about 10^20.0 claims, more than 10,000,000\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["qq", "mechanism"])
    @pytest.mark.parametrize("text,reason", [
        pytest.param("not json", "Expecting value: line 1 column 1 (char 0)", id="not-json"),
        pytest.param(None, "[Errno 2] No such file or directory: '{path}'", id="missing"),
    ])
    def test_unreadable_model_file(self, command, text, reason, tmp_path, loss_csv, capsys):
        mpath = tmp_path / "model.json"
        if text is not None:
            mpath.write_text(text)
        argv = {
            "qq": ["qq", "--input", str(loss_csv)],
            "mechanism": ["simulate", "--mode", "mechanism"],
        }[command]
        assert main([*argv, "--model", str(mpath), "--out", str(tmp_path / "o")]) == 1
        reason = reason.format(path=mpath)
        assert capsys.readouterr().err == f"error: cannot read model file {mpath}: {reason}\n"


def reference_csv_text(header, rows):
    """`write_csv`'s text as it was formatted value by value."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


class TestWriteCsv:
    @pytest.mark.parametrize("header,rows", [
        pytest.param(["x", "prob"], [(0.1, 1 / 3), (1e-300, 2.5e300), (-0.0, 7.0)], id="float"),
        pytest.param(["a", "b"], [(np.float64(0.1), np.float64(-2.0)), (np.float64(1e22), 0.5)],
                     id="np.float64"),
        pytest.param(["n", "big"], [(3, 10**20), (np.int64(-7), True)], id="int"),
        pytest.param(["name", "pct%"], [("a%s", "100%"), ("", "x,y")], id="str"),
        pytest.param(["v", "w"], [(float("nan"), float("inf")), (-np.inf, np.nan)],
                     id="nan-inf"),
        pytest.param(["mixed", "kinds"], [(1.5, "a"), ("b", 2), (np.float32(0.1), 3.0)],
                     id="mixed-columns"),
        pytest.param(["x"], [], id="no-rows"),
    ])
    def test_matches_per_value_formatting(self, header, rows, tmp_path):
        write_csv(tmp_path / "t.csv", header, iter(rows))
        assert (tmp_path / "t.csv").read_text() == reference_csv_text(header, rows)

    def test_row_wider_than_header(self, tmp_path):
        with pytest.raises(ValueError, match="^every row of t.csv must have 2 cells$"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [(1.0, 2.0), (1.0, 2.0, 3.0)])
        assert not (tmp_path / "t.csv").exists()


def test_import_leaves_scipy_stats_and_integrate_unloaded():
    # scipy.stats loads on first use, by the GPD ML fit; no library code uses
    # scipy.integrate, the Q-Q normal margins need only scipy.special, and the
    # fits' optimizer is claimtails' own, so no scipy module loads at all
    code = ("import sys, claimtails; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    env = {**os.environ, "PYTHONPATH": str(Path(ct.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_cli_import_leaves_the_process_pool_unloaded():
    # `fork_map`, and with it multiprocessing and concurrent.futures, loads
    # when a bootstrap starts; fit, tail-test, qq and simulate never need it
    code = ("import sys, claimtails.cli; "
            "print([m for m in ('concurrent.futures', 'multiprocessing', 'claimtails.parallel') "
            "if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(ct.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
