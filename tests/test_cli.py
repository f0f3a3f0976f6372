import json
import math

import pytest

from fracgrow import cli, growth
from fracgrow.cli import (
    load_observations,
    main,
    write_plot_csv,
)
from fracgrow.errors import ParseError
from fracgrow.fractional import FracOrder

from synthetic import self_consistent_series


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_obs(path, lengths, start=1):
    lines = ["month,length"] + [f"{start + i},{h}" for i, h in enumerate(lengths)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestSpecialCommand:
    def test_ml(self, capsys):
        code, out, _ = run(capsys, "special", "ml", "--alpha", "1", "--z", "1")
        assert code == 0
        assert out.strip() == "2.71828182845905"

    def test_gamma(self, capsys):
        code, out, _ = run(capsys, "special", "gamma", "--x", "0.5")
        assert code == 0
        assert float(out) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_ml2(self, capsys):
        code, out, _ = run(
            capsys, "special", "ml", "--alpha", "1", "--mlbeta", "2", "--z", "1"
        )
        assert code == 0
        assert float(out) == pytest.approx(math.expm1(1.0), rel=1e-13)

    def test_missing_argument_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["special", "gamma"])
        assert exc.value.code == 2

    def test_ml_honours_mlbeta(self, capsys):
        # E_{1,2}(1) = e - 1, not E_1(1) = e
        code, out, _ = run(capsys, "special", "ml", "--alpha", "1", "--mlbeta", "2", "--z", "1")
        assert code == 0
        assert out == "1.71828182845905\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["gamma", "--x", "0.5", "--alpha", "3"],
            ["gamma", "--x", "0.5", "--z", "1"],
            ["ml", "--alpha", "1", "--z", "1", "--x", "2"],
            ["ml", "--alpha", "1"],
            ["ml", "--z", "1"],
            ["ml2", "--alpha", "1", "--z", "1"],
            ["--x", "0.5"],
        ],
    )
    def test_foreign_missing_or_unknown_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["special", *argv])
        assert exc.value.code == 2

    def test_gamma_overflow_near_zero_is_one_line_error(self, capsys):
        code, out, err = run(capsys, "special", "gamma", "--x", "5e-324")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_pole_is_domain_error(self, capsys):
        code, _, err = run(capsys, "special", "gamma", "--x", "-1")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gamma", "--x", "nan"],
            ["gamma", "--x", "inf"],
            ["gamma", "--x", "200"],
            ["gamma", "--x", "-200.5"],
            ["ml", "--alpha", "1", "--z", "nan"],
            ["ml", "--alpha", "2", "--z=-inf"],
            ["ml", "--alpha", "0.5", "--z", "inf"],
            ["ml", "--alpha", "0.5", "--z", "-50"],
            ["ml", "--alpha", "0.5", "--z", "-8"],
            ["ml", "--alpha", "0.9", "--z", "-30"],
            ["ml", "--alpha", "inf", "--z", "1"],
            ["ml", "--alpha", "1", "--mlbeta", "nan", "--z", "1"],
        ],
    )
    def test_non_finite_or_overflow_is_one_line_error(self, capsys, argv):
        code, out, err = run(capsys, "special", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err


class TestCaputoCommand:
    def test_paper_rule(self, capsys):
        code, out, _ = run(
            capsys, "caputo", "--rule", "paper", "--beta", "0.5", "--r", "0.04305", "--s", "0"
        )
        assert code == 0
        assert float(out) == pytest.approx(math.sqrt(0.04305), rel=1e-13)

    def test_compare(self, capsys):
        code, out, _ = run(capsys, "caputo", "--compare", "--beta", "0.5", "--r", "1", "--s", "1")
        assert code == 0
        values = {}
        for line in out.splitlines():
            key, _, val = line.partition(":")
            values[key.strip()] = float(val)
        assert values["paper"] == pytest.approx(math.e, rel=1e-13)
        assert values["exact"] == pytest.approx(2.2907, abs=1e-4)
        assert abs(values["numeric"] - values["exact"]) < 1e-6

    def test_bad_order_is_domain_error(self, capsys):
        code, _, err = run(capsys, "caputo", "--rule", "paper", "--beta", "1.5", "--r", "0.1", "--s", "0")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("rule", [["--rule", "paper"], ["--rule", "exact"], ["--rule", "numeric"],
                                      ["--compare"]])
    @pytest.mark.parametrize("flag", [["--nodes", "1"], ["--grading", "0.5"]])
    def test_bad_quadrature_flag_is_error_under_every_rule(self, capsys, rule, flag):
        code, out, err = run(capsys, "caputo", *rule, *flag, "--beta", "0.5", "--r", "0.1", "--s", "0")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("rule", [["--rule", "paper"], ["--rule", "exact"], ["--rule", "numeric"],
                                      ["--compare"]])
    def test_overflow_is_one_line_error(self, capsys, rule):
        code, out, err = run(capsys, "caputo", *rule, "--beta", "0.5", "--r", "1", "--s", "800", "--nodes", "256")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_rule_and_compare_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["caputo", "--compare", "--rule", "exact", "--beta", "0.5", "--r", "1", "--s", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "beta,s,shown",
        [
            ("0.5", "1", ["paper", "exact", "numeric"]),
            ("1", "1", ["paper", "exact"]),
            ("0.5", "0", ["paper"]),
        ],
    )
    def test_compare_lines(self, capsys, beta, s, shown):
        code, out, _ = run(capsys, "caputo", "--compare", "--beta", beta, "--r", "1", "--s", s, "--nodes", "256")
        assert code == 0
        rules = [line.partition(":")[0] for line in out.splitlines()]
        diffs = ["paper-exact abs diff", "paper-exact rel diff"] if "exact" in shown else []
        diffs += ["numeric-exact abs diff"] if "numeric" in shown else []
        assert rules == shown + diffs

    @pytest.mark.parametrize("rule", ["paper", "exact", "numeric"])
    def test_rule_matches_its_compare_line(self, capsys, rule):
        argv = ["--beta", "0.6", "--r", "0.3", "--s", "2", "--scale", "1.5", "--nodes", "512"]
        _, single, _ = run(capsys, "caputo", "--rule", rule, *argv)
        _, compared, _ = run(capsys, "caputo", "--compare", *argv)
        assert f"{rule}: {single}" in compared


class TestSeriesCommand:
    def test_term_dump(self, capsys):
        code, out, _ = run(
            capsys, "series", "--eta", "0.4936", "--beta", "0.5", "--depth", "3"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n")
        assert len(lines) == 5  # header + w_0..w_3
        first = lines[1].split()
        assert float(first[1]) == pytest.approx(0.5322)

    @pytest.mark.parametrize("eta", ["nan", "inf"])
    def test_nonfinite_eta_is_error(self, capsys, eta):
        code, out, err = run(capsys, "series", "--eta", eta, "--beta", "0.5")
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert "nan" not in out

    def test_depth_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("FRACGROW_SERIES_DEPTH", "2")
        code, out, _ = run(capsys, "series", "--eta", "0.1", "--beta", "1.0")
        assert code == 0
        assert len(out.strip().splitlines()) == 4  # header + w_0..w_2

    def test_depth_env_read_only_by_series(self, capsys, monkeypatch):
        monkeypatch.setenv("FRACGROW_SERIES_DEPTH", "deep")
        code, _, _ = run(capsys, "predict", "--reference")
        assert code == 0
        code, _, err = run(capsys, "series", "--eta", "0.1", "--beta", "1.0")
        assert code == 1
        assert "FRACGROW_SERIES_DEPTH" in err


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["special", "gamma", "--x", "0.5", "--json", "out.json"],
            ["special", "gamma", "--x", "0.5", "--config", "run.cfg"],
            ["caputo", "--beta", "0.5", "--r", "0.1", "--s", "0", "--csv", "out.csv"],
            ["caputo", "--beta", "0.5", "--r", "0.1", "--s", "0", "--correct-month8", "0.38"],
            ["series", "--eta", "0.1", "--beta", "1.0", "--json", "out.json"],
            ["series", "--eta", "0.1", "--beta", "1.0", "--correct-month8", "0.38"],
        ],
    )
    def test_flag_a_subcommand_does_not_use_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_bad_enum_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--reference", "--convention", "sideways"])
        assert exc.value.code == 2

    def test_m0_with_obs_is_usage_error(self, capsys, tmp_path):
        # the grid starts at the first observed length, so --m0 would be ignored
        path = write_obs(tmp_path / "obs.csv", [1.0, 1.2, 1.5])
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--obs", path, "--m0", "7", "--json", str(tmp_path / "o.json")])
        assert exc.value.code == 2
        assert "--m0" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_eta_mode_without_obs_is_usage_error(self, capsys):
        # only observed lengths are turned into rates
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--reference", "--eta-mode", "specific"])
        assert exc.value.code == 2
        assert "--eta-mode" in capsys.readouterr().err


class TestLoadObservations:
    def test_valid_file(self, tmp_path):
        path = write_obs(tmp_path / "obs.csv", [0.5322, 1.0])
        obs = load_observations(path)
        assert obs.points == ((1, 0.5322), (2, 1.0))

    def test_duplicate_month(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("month,length\n1,0.5\n1,0.6\n")
        with pytest.raises(Exception) as exc:
            load_observations(str(path))
        assert "increasing" in str(exc.value)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("month,length\n1,0.5\n2,abc\n")
        with pytest.raises(ParseError) as exc:
            load_observations(str(path))
        assert ":3:" in str(exc.value)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("1,0.5\n")
        with pytest.raises(ParseError):
            load_observations(str(path))


class TestPredictCommand:
    def test_reference_grid(self, capsys):
        code, out, _ = run(capsys, "predict", "--reference")
        assert code == 0
        rows = [l for l in out.splitlines() if l.strip() and l.strip()[0].isdigit()]
        assert len(rows) == 24
        first = rows[0].split()
        assert all(v == "0.5322" for v in first[1:])
        # later rows strictly increase across orders
        for row in rows[1:]:
            vals = [float(v) for v in row.split()[1:]]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_month8_warning_and_override(self, capsys):
        code, out, _ = run(capsys, "predict", "--reference", "--orders", "0.5")
        assert code == 0
        assert "decreases at month(s) [8]" in out
        code, out, _ = run(
            capsys, "predict", "--reference", "--orders", "0.5", "--correct-month8", "0.3800"
        )
        assert code == 0
        assert "all monthly steps increase" in out

    def test_single_order(self, capsys):
        code, out, _ = run(capsys, "predict", "--reference", "--orders", "1.0")
        assert code == 0
        rows = [l for l in out.splitlines() if l.strip() and l.strip()[0].isdigit()]
        assert all(len(r.split()) == 2 for r in rows)

    def test_deviation_report(self, capsys):
        code, out, _ = run(capsys, "predict", "--reference", "--deviation-report")
        assert code == 0
        for conv in ("closed_form_per_row", "cumulative", "cumulative_no_age"):
            assert conv in out

    def test_no_rates_is_domain_error(self, capsys):
        code, _, err = run(capsys, "predict")
        assert code == 1
        assert "error:" in err

    def test_obs_input_scores(self, capsys, tmp_path):
        path = write_obs(tmp_path / "obs.csv", self_consistent_series(0.5322, 0.04305, 0.7, 8))
        code, out, _ = run(capsys, "predict", "--obs", path, "--orders", "0.5,0.7,1.0")
        assert code == 0
        assert "MAE per order:" in out

    def test_config_file_etas(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("etas = 0.2, 0.3\nm0 = 1.0\norders = 0.5, 1.0\n")
        code, out, _ = run(capsys, "predict", "--config", str(cfg))
        assert code == 0
        rows = [l for l in out.splitlines() if l.strip() and l.strip()[0].isdigit()]
        assert len(rows) == 3
        assert rows[0].split()[1] == "1.0000"

    def test_reference_honours_m0(self, capsys):
        code, out, _ = run(capsys, "predict", "--reference", "--m0", "9")
        assert code == 0
        assert "M=9," in out.splitlines()[0]
        rows = [l for l in out.splitlines() if l.strip() and l.strip()[0].isdigit()]
        assert rows[0].split()[1:] == ["9.0000"] * 6

    @pytest.mark.parametrize("m0", ["inf", "nan"])
    def test_nonfinite_m0_is_error(self, capsys, m0):
        code, out, err = run(capsys, "predict", "--reference", "--m0", m0)
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert "inf" not in out and "all monthly steps increase" not in out

    def test_config_and_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("etas = 0.2\nr = 0.05\norders = 0.5\nconvention = cumulative_no_age\n")
        json_path = tmp_path / "out.json"
        code, _, _ = run(
            capsys, "predict", "--config", str(cfg), "--r", "0.03", "--json", str(json_path)
        )
        assert code == 0
        config = json.loads(json_path.read_text())["config"]
        assert config == {
            "r": 0.03,
            "orders": [0.5],
            "convention": "cumulative_no_age",
            "eta_mode": "absolute",
            "series_depth": 25,
            "month8_override": None,
            "m0": 0.5322,
            "etas": [0.2],
        }

    @pytest.mark.parametrize("text", ["etas = 0.2, nan\n", "etas = 0.2, inf\n"])
    def test_nonfinite_config_etas_is_error(self, capsys, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, "predict", "--config", str(cfg))
        assert code == 1
        assert err.startswith("error:")
        assert "nan" not in out

    def test_nonfinite_month8_override_is_error(self, capsys):
        code, _, err = run(capsys, "predict", "--reference", "--correct-month8", "nan")
        assert code == 1
        assert err.startswith("error:")

    def test_infinite_length_is_error(self, capsys, tmp_path):
        path = write_obs(tmp_path / "obs.csv", [0.5, 1.0, "inf"])
        code, out, err = run(capsys, "predict", "--obs", path)
        assert code == 1
        assert err.startswith("error:")
        assert "all monthly steps increase" not in out

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run(capsys, "predict", "--config", str(cfg))
        assert code == 1
        assert "bogus" in err


class TestFileErrors:
    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "predict", "--reference", "--config", str(tmp_path / "none.cfg"))
        assert code == 1
        assert err.startswith("error:") and "none.cfg" in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_observation_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "fit", "--obs", str(tmp_path / "none.csv"))
        assert code == 1
        assert err.startswith("error:") and "none.csv" in err

    @pytest.mark.parametrize("flag", ["--json", "--csv", "--plot"])
    def test_unwritable_output(self, capsys, tmp_path, flag):
        target = str(tmp_path / "missing-dir" / "out")
        code, _, err = run(capsys, "predict", "--reference", flag, target)
        assert code == 1
        assert err.startswith("error:") and "missing-dir" in err
        assert len(err.strip().splitlines()) == 1


class TestOutputsAndRoundTrip:
    def test_json_csv_plot_outputs(self, capsys, tmp_path):
        json_path = tmp_path / "out.json"
        csv_path = tmp_path / "out.csv"
        plot_path = tmp_path / "plot.csv"
        code, _, _ = run(
            capsys,
            "predict", "--reference",
            "--json", str(json_path),
            "--csv", str(csv_path),
            "--plot", str(plot_path),
        )
        assert code == 0
        data = json.loads(json_path.read_text())
        assert list(data) == ["config", "grid", "provenance"]
        assert data["grid"]["months"][0] == 1
        assert data["provenance"]["config"]["r"] == 0.04305
        csv_text = csv_path.read_text()
        assert "# r = 0.04305" in csv_text  # provenance echo
        assert "month,h_0.5" in csv_text
        plot_text = plot_path.read_text()
        assert "month,order,predicted" in plot_text

    def test_plot_regenerates_byte_identical(self, capsys, tmp_path):
        json_path = tmp_path / "out.json"
        plot_path = tmp_path / "plot.csv"
        code, _, _ = run(
            capsys, "predict", "--reference", "--json", str(json_path), "--plot", str(plot_path)
        )
        assert code == 0
        bundle = json.loads(json_path.read_text())
        import io

        regen = io.StringIO()
        write_plot_csv(bundle, regen)
        assert regen.getvalue() == plot_path.read_text()


class TestMonthGaps:
    """Observations must fall on consecutive months: the grid steps one month
    per row, so months 1,3,6,10 would be scored as months 1,2,3,4."""

    @pytest.mark.parametrize("command", [["fit"], ["predict"]])
    def test_gap_is_one_line_error(self, capsys, tmp_path, command):
        path = tmp_path / "obs.csv"
        path.write_text("month,length\n1,1.0\n2,1.2\n3,1.5\n6,2.0\n10,2.6\n")
        code, out, err = run(capsys, *command, "--obs", str(path), "--json", str(tmp_path / "o.json"))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "from month 3 to month 6" in err
        assert not (tmp_path / "o.json").exists()

    def test_outputs_carry_the_observed_months(self, capsys, tmp_path):
        path = write_obs(tmp_path / "obs.csv", [1.0, 1.2, 1.5, 1.7], start=4)
        json_path, grid_path, plot_path = tmp_path / "o.json", tmp_path / "g.csv", tmp_path / "p.csv"
        code, _, _ = run(capsys, "fit", "--obs", path, "--orders", "0.5,1.0",
                         "--json", str(json_path), "--csv", str(grid_path))
        assert code == 0
        assert json.loads(json_path.read_text())["grid"]["months"] == [4, 5, 6, 7]
        rows = [line for line in grid_path.read_text().splitlines() if not line.startswith("#")]
        assert [row.split(",")[0] for row in rows] == ["month", "4", "5", "6", "7"]
        code, out, _ = run(capsys, "predict", "--obs", path, "--orders", "0.5", "--plot", str(plot_path))
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()[2:6]] == ["4", "5", "6", "7"]
        rows = [line for line in plot_path.read_text().splitlines() if not line.startswith("#")]
        assert [row.split(",")[0] for row in rows] == ["month", "4", "5", "6", "7"]
        assert rows[1].split(",")[3] == "1"

    @pytest.mark.parametrize("command", ["predict", "fit"])
    def test_gap_at_month_7_with_override_names_the_gap(self, capsys, tmp_path, command):
        # the gap is reported before the override looks for the step 7 -> 8
        path = tmp_path / "obs.csv"
        path.write_text("month,length\n" + "".join(f"{m},{1 + 0.1 * m}\n" for m in range(1, 13) if m != 7))
        code, out, err = run(capsys, command, "--obs", str(path), "--correct-month8", "0.38")
        assert code == 1
        assert out == ""
        assert err.startswith("error: observations skip from month 6 to month 8;")
        assert len(err.splitlines()) == 1

    def test_consecutive_months_after_month_one_are_accepted(self, capsys, tmp_path):
        lengths = self_consistent_series(0.5322, 0.04305, 0.7, 10)
        path = write_obs(tmp_path / "obs.csv", lengths, start=4)
        code, out, _ = run(capsys, "fit", "--obs", path, "--orders", "0.5,0.7,1.0")
        assert code == 0
        assert "best order: beta=0.7" in out


class TestMonth8Override:
    """``--correct-month8`` replaces the rate of the step from month 7 to
    month 8, whichever month the observations start at."""

    def _grids(self, capsys, tmp_path, command, start):
        lengths = self_consistent_series(0.5322, 0.04305, 0.7, 12)
        path = write_obs(tmp_path / "obs.csv", lengths, start=start)
        grids = []
        for extra in ([], ["--correct-month8", "0.5"]):
            json_path = tmp_path / f"out{len(grids)}.json"
            code, _, _ = run(capsys, command, "--obs", path, "--orders", "0.5,1.0",
                             "--json", str(json_path), *extra)
            assert code == 0
            grids.append(json.loads(json_path.read_text())["grid"])
        return grids

    @pytest.mark.parametrize("command", ["predict", "fit"])
    def test_late_start_changes_month_8(self, capsys, tmp_path, command):
        plain, fixed = self._grids(capsys, tmp_path, command, start=4)
        assert fixed["months"] == plain["months"] == list(range(4, 16))
        assert fixed["values"][:4] == plain["values"][:4]  # months 4-7
        assert all(a != b for a, b in zip(fixed["values"][4], plain["values"][4]))  # month 8

    @pytest.mark.parametrize("command", ["predict", "fit"])
    def test_rates_after_month_8_are_one_line_error(self, capsys, tmp_path, command):
        path = write_obs(tmp_path / "obs.csv", self_consistent_series(0.5322, 0.04305, 0.7, 8), start=9)
        json_path = tmp_path / "out.json"
        code, out, err = run(capsys, command, "--obs", path, "--correct-month8", "0.5",
                             "--json", str(json_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "month 7 to month 8" in err and "months 9 to 16" in err
        assert not json_path.exists()

    def test_config_etas_from_month_1(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("etas = " + ", ".join(["0.2"] * 9) + "\norders = 0.5\n")
        json_path = tmp_path / "out.json"
        code, _, _ = run(capsys, "predict", "--config", str(cfg), "--correct-month8", "-0.5",
                         "--json", str(json_path))
        assert code == 0
        column = [row[0] for row in json.loads(json_path.read_text())["grid"]["values"]]
        assert [b < a for a, b in zip(column, column[1:])] == [False] * 6 + [True] + [False] * 2


class TestFitCommand:
    def test_round_trip(self, capsys, tmp_path):
        path = write_obs(tmp_path / "obs.csv", self_consistent_series(0.5322, 0.04305, 0.7, 10))
        code, out, _ = run(capsys, "fit", "--obs", path, "--orders", "0.5,0.7,1.0")
        assert code == 0
        assert "best order: beta=0.7" in out

    def test_fit_requires_obs(self):
        with pytest.raises(SystemExit) as exc:
            main(["fit"])
        assert exc.value.code == 2

    def test_short_series_is_domain_error(self, capsys, tmp_path):
        path = write_obs(tmp_path / "obs.csv", [1.0, 2.0])
        code, _, err = run(capsys, "fit", "--obs", path)
        assert code == 1
        assert "error:" in err

    def test_json_scores(self, capsys, tmp_path):
        obs_path = write_obs(tmp_path / "obs.csv", self_consistent_series(0.5322, 0.04305, 1.0, 8))
        json_path = tmp_path / "fit.json"
        code, _, _ = run(
            capsys, "fit", "--obs", obs_path, "--orders", "0.5,1.0", "--json", str(json_path)
        )
        assert code == 0
        data = json.loads(json_path.read_text())
        assert data["scores"]["1"] <= 1e-9

    def test_grid_computed_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        real = growth.predict_table
        counted = lambda *a: calls.append(a) or real(*a)  # noqa: E731
        monkeypatch.setattr(growth, "predict_table", counted)
        monkeypatch.setattr(cli, "predict_table", counted)
        path = write_obs(tmp_path / "obs.csv", self_consistent_series(0.5322, 0.04305, 0.7, 10))
        code, out, _ = run(capsys, "fit", "--obs", path, "--orders", "0.5,0.7,1.0")
        assert code == 0
        assert "best order: beta=0.7" in out
        assert len(calls) == 1

    @pytest.mark.parametrize("convention", list(growth.Convention))
    @pytest.mark.parametrize("eta_mode", list(growth.EtaMode))
    def test_matches_fit_order(self, capsys, tmp_path, convention, eta_mode):
        lengths = self_consistent_series(0.5322, 0.04305, 0.7, 12)
        path, json_path = write_obs(tmp_path / "obs.csv", lengths), tmp_path / "out.json"
        betas = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
        code, out, _ = run(capsys, "fit", "--obs", path, "--orders", ",".join(map(str, betas)),
                           "--convention", convention.value, "--eta-mode", eta_mode.value,
                           "--json", str(json_path))
        assert code == 0
        best, scores = growth.fit_order(load_observations(path), [FracOrder(b) for b in betas],
                                        0.04305, convention, eta_mode)
        assert json.loads(json_path.read_text())["scores"] == {f"{o.beta:g}": s for o, s in scores.items()}
        assert out.splitlines()[-1] == f"best order: beta={best.beta:g}"

    def test_correct_month8_applies(self, capsys, tmp_path):
        path = write_obs(tmp_path / "obs.csv", self_consistent_series(0.5322, 0.04305, 0.7, 10))
        plain, fixed = tmp_path / "plain.json", tmp_path / "fixed.json"
        run(capsys, "fit", "--obs", path, "--json", str(plain))
        code, _, _ = run(capsys, "fit", "--obs", path, "--correct-month8", "0.38", "--json", str(fixed))
        assert code == 0
        plain, fixed = json.loads(plain.read_text()), json.loads(fixed.read_text())
        assert fixed["config"]["month8_override"] == 0.38
        assert fixed["grid"]["values"][6] == plain["grid"]["values"][6]
        assert fixed["grid"]["values"][7] != plain["grid"]["values"][7]
        assert fixed["scores"] != plain["scores"]


class TestM0Echo:
    """With ``--obs`` the grid starts at the first observed length, and every
    echo of M says so, also over a config file that sets ``m0``."""

    @pytest.mark.parametrize("command", ["predict", "fit"])
    def test_every_echo_is_the_grid_start(self, capsys, tmp_path, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m0 = 7\n")
        path = write_obs(tmp_path / "obs.csv", [1.0, 1.2, 1.5, 1.7])
        json_path, csv_path = tmp_path / "out.json", tmp_path / "out.csv"
        code, _, _ = run(capsys, command, "--config", str(cfg), "--obs", path, "--orders", "0.5,1.0",
                         "--json", str(json_path), "--csv", str(csv_path))
        assert code == 0
        bundle = json.loads(json_path.read_text())
        start = bundle["grid"]["values"][0][0]
        assert start == 1.0
        assert bundle["config"]["m0"] == bundle["provenance"]["config"]["m0"] == start
        assert f"# m0 = {start}" in csv_path.read_text().splitlines()


class TestInputChecks:
    def _one_line_error(self, code, err):
        assert code == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_config_line_without_equals(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r = 0.05\norders 0.5\n")
        code, out, err = run(capsys, "predict", "--reference", "--config", str(cfg))
        self._one_line_error(code, err)
        assert f"{cfg}:2: expected 'key = value'" in err
        assert out == ""

    def test_blank_and_comment_lines_load(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n# a comment = not a key\n   \nr = 0.05  # trailing comment\n\n")
        json_path = tmp_path / "out.json"
        code, _, err = run(capsys, "predict", "--reference", "--config", str(cfg),
                           "--json", str(json_path))
        assert code == 0, err
        assert json.loads(json_path.read_text())["config"]["r"] == 0.05

    def test_observation_row_with_three_fields(self, capsys, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("month,length\n1,0.5\n2,0.6,0.7\n")
        code, out, err = run(capsys, "fit", "--obs", str(path))
        self._one_line_error(code, err)
        assert f"{path}:3: expected two fields, got 3" in err
        assert out == ""

    def test_observation_file_with_only_a_header(self, capsys, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("month,length\n")
        code, out, err = run(capsys, "predict", "--obs", str(path))
        self._one_line_error(code, err)
        assert "empty" in err
        assert out == ""

    def test_series_depth_zero(self, capsys):
        code, out, err = run(capsys, "series", "--eta", "0.1", "--beta", "1.0", "--depth", "0")
        self._one_line_error(code, err)
        assert "series_depth" in err
        assert out == ""
