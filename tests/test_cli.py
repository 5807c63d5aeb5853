import json
import warnings

import numpy as np
import pytest

from secondwild.cli import main, parse_index_set, read_series_csv
from secondwild.series import autocov_vector


def _run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def series_file(tmp_path):
    path = tmp_path / "series.csv"
    code = _run(["simulate", "--model", "ar1", "--rho", "0.7", "--T", "400",
                 "--seed", "5", "--out", path])
    assert code == 0
    return path


class TestParsing:
    def test_index_sets(self):
        assert parse_index_set("0-3") == (0, 1, 2, 3)
        assert parse_index_set("0,2,5-7") == (0, 2, 5, 6, 7)
        with pytest.raises(ValueError):
            parse_index_set("5-2")
        with pytest.raises(ValueError):
            parse_index_set(",")

    def test_read_series_with_header(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("value\n1.5\n2.5\n")
        assert read_series_csv(str(f)) == pytest.approx([1.5, 2.5])

    def test_read_series_bad_line_numbered(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("1.0\n2.0\nbanana\n")
        with pytest.raises(ValueError, match=":3"):
            read_series_csv(str(f))

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1.5\n-2.5e-3\nnan\n", ":3: not a finite number: 'nan'"),
            ("value\n1.5\n2.5\n", [1.5, 2.5]),
            ("\n1.5\n\n   \n2.5\n\n", [1.5, 2.5]),
            ("  1.5  \n\t2.5\n", [1.5, 2.5]),
            ("1.0,\n2.0\n", [1.0, 2.0]),
            ("1_0\n2\n", [10.0, 2.0]),
            ("#x\n1\n2\n", [1.0, 2.0]),
            ("1\n#x\n2\n", ":2: not a number"),
            ("1.0\n2.0\nbanana\n", ":3: not a number"),
            ("1.0,2.0\n", ":1: expected one value per line, got 2"),
            ("1.0,2.0\n3.0,4.0\n", ":1: expected one value per line, got 2"),
            ("1.0\n", "found 1"),
            ("", "found 0"),
            ("value\n1.5\n\n-2.5e-3\nnan\n0.3\n", ":5: not a finite number: 'nan'"),
            ("1.5\n-2.5e-3\ninf\n0.3\n", ":3: not a finite number: 'inf'"),
        ],
    )
    def test_fast_parse_agrees_with_line_loop(self, tmp_path, monkeypatch, text, expected):
        """The loadtxt path gives the line loop's values or error, warning-free."""
        f = tmp_path / "x.csv"
        f.write_text(text)

        def outcome():
            try:
                return read_series_csv(str(f)).tobytes()
            except ValueError as exc:
                return str(exc)

        def refuse(*args, **kwargs):
            raise ValueError("fast path off")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = outcome()
        with monkeypatch.context() as m:
            m.setattr(np, "loadtxt", refuse)
            loop = outcome()
        assert fast == loop
        if isinstance(expected, str):
            assert expected in loop
        else:
            assert loop == np.asarray(expected, dtype=float).tobytes()

    def test_empty_file_exit_2(self, tmp_path, capsys):
        f = tmp_path / "empty.csv"
        f.write_text("")
        assert _run(["analyze", f]) == 2
        assert "error" in capsys.readouterr().err

    def test_two_values_named_too_short_before_order_selection(self, tmp_path, capsys):
        f = tmp_path / "two.csv"
        f.write_text("1.0\n2.0\n")
        assert _run(["analyze", f, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert "series of length 2 too short for maximum lag 7" in err
        assert "p_max" not in err


class TestSimulate:
    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert _run(["simulate", "--model", "ar1", "--rho", "0.7", "--T", "100",
                         "--seed", "1", "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert manifest["options"]["T"] == 100

    def test_stdout_mode(self, capsys):
        assert _run(["simulate", "--model", "ma3", "--T", "50", "--seed", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 50
        float(lines[0])


class TestAnalyze:
    def test_report_written_and_deterministic(self, series_file, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        base = ["analyze", series_file, "--B", "200", "--seed", "3"]
        assert _run(base + ["--out", out1]) == 0
        assert _run(base + ["--out", out2]) == 0
        r1 = (out1 / "report.json").read_bytes()
        r2 = (out2 / "report.json").read_bytes()
        assert r1 == r2
        payload = json.loads(r1)
        assert payload["report"]["method"] == "wild_bootstrap"
        assert payload["manifest"]["options"]["B"] == 200
        bands = payload["report"]["bands"]
        assert set(bands) == {"autocovariance", "autocorrelation", "ar_coefficients"}

    @pytest.mark.parametrize(
        "args, results",
        [
            (["analyze", "{series}", "--B", "300", "--seed", "4"], ["report.json"]),
            (["test", "{series}", "--null-zero", "--B", "300", "--seed", "4"], ["decisions.json"]),
            (["coverage", "--scenario", "ma3:independent", "--T", "200", "--reps", "100", "--seed", "4"],
             ["coverage.csv", "coverage.json"]),
        ],
        ids=["analyze", "test", "coverage"],
    )
    def test_threads_do_not_change_bytes(self, series_file, tmp_path, args, results):
        # --threads is accepted and ignored; bench/run.py passes it
        base = [series_file if a == "{series}" else a for a in args]
        plain, threaded = tmp_path / "plain", tmp_path / "t3"
        assert _run(base + ["--out", plain]) == 0
        assert _run(base + ["--out", threaded, "--threads", "3"]) == 0
        for name in results:
            assert (plain / name).read_bytes() == (threaded / name).read_bytes()

    def test_config_contradiction_exit_2(self, series_file, tmp_path):
        assert _run(["analyze", series_file, "--p", "9", "--d", "7", "--out", tmp_path]) == 2

    @pytest.mark.parametrize(
        "extra",
        [["--kt", "inf", "--band-method", "plugin"], ["--kt", "inf"], ["--kt", "nan"], ["--kt-c", "nan"]],
        ids=["kt-inf-plugin", "kt-inf", "kt-nan", "kt-c-nan"],
    )
    def test_non_finite_bandwidth_exit_2(self, series_file, tmp_path, capsys, extra):
        assert _run(["analyze", series_file, "--B", "50", "--out", tmp_path] + extra) == 2
        assert "must be positive and finite" in capsys.readouterr().err

    def test_center_subtracts_sample_mean(self, series_file, tmp_path):
        y = read_series_csv(str(series_file)) + 100.0
        shifted = tmp_path / "shifted.csv"
        shifted.write_text("\n".join(repr(v) for v in y.tolist()) + "\n")
        sigma_hat = {}
        for flag in ("--center", "--no-center"):
            out = tmp_path / flag
            assert _run(["analyze", shifted, flag, "--B", "50", "--seed", "1", "--out", out]) == 0
            sigma_hat[flag] = json.loads((out / "report.json").read_text())["report"]["estimates"]["sigma_hat"]
        assert sigma_hat["--center"] == autocov_vector(y - y.mean(), 7).tolist()
        assert sigma_hat["--no-center"] == autocov_vector(y, 7).tolist()

    def test_plugin_band_method(self, series_file, tmp_path):
        out = tmp_path / "plug"
        assert _run(["analyze", series_file, "--band-method", "plugin",
                     "--n-mc", "20000", "--seed", "6", "--out", out]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["report"]["method"] == "gaussian_plugin"

    def test_replay_reproduces_bytes(self, series_file, tmp_path):
        out = tmp_path / "orig"
        assert _run(["analyze", series_file, "--B", "150", "--seed", "8", "--out", out]) == 0
        replay_out = tmp_path / "replayed"
        assert _run(["--replay", out / "manifest.json", "--out", replay_out]) == 0
        assert (out / "report.json").read_bytes() == (replay_out / "report.json").read_bytes()

    def test_replay_of_manifest_with_gaussian_kernel_option(self, series_file, tmp_path):
        # earlier versions recorded a "kernel" option (only ever "gaussian")
        # in the manifest and in the manifest embedded in report.json
        out = tmp_path / "orig"
        assert _run(["analyze", series_file, "--B", "150", "--seed", "8", "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["options"]["kernel"] = "gaussian"
        (out / "manifest.json").write_text(json.dumps(manifest))
        expected = json.loads((out / "report.json").read_text())
        expected["manifest"]["options"]["kernel"] = "gaussian"
        replay_out = tmp_path / "replayed"
        assert _run(["--replay", out / "manifest.json", "--out", replay_out]) == 0
        assert (replay_out / "report.json").read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_replay_of_other_kernel_exit_2(self, series_file, tmp_path, capsys):
        out = tmp_path / "orig"
        assert _run(["analyze", series_file, "--B", "150", "--seed", "8", "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["options"]["kernel"] = "box"
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert _run(["--replay", out / "manifest.json", "--out", tmp_path / "replayed"]) == 2
        assert "box" in capsys.readouterr().err
        assert not (tmp_path / "replayed" / "report.json").exists()


class TestTest:
    def test_null_zero_on_distant_null_rejects(self, tmp_path):
        f = tmp_path / "x.csv"
        assert _run(["simulate", "--model", "ar1", "--rho", "0.9", "--T", "600",
                     "--seed", "9", "--out", f]) == 0
        out = tmp_path / "dec"
        assert _run(["test", f, "--null-zero", "--B", "300", "--seed", "2",
                     "--no-center", "--out", out]) == 0
        payload = json.loads((out / "decisions.json").read_text())
        tests = payload["report"]["tests"]
        assert tests["autocorrelation"]["reject"] is True  # rho_1 ~ 0.9 is far from 0

    def test_null_file_accepts_own_estimates(self, series_file, tmp_path):
        out = tmp_path / "an"
        assert _run(["analyze", series_file, "--B", "200", "--seed", "3", "--p", "1",
                     "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())["report"]
        null_file = tmp_path / "null.json"
        null_file.write_text(json.dumps({
            "sigma": report["estimates"]["sigma_hat"][:4],
            "a": report["estimates"]["a_hat"],
        }))
        out2 = tmp_path / "dec2"
        assert _run(["test", series_file, "--null", null_file, "--B", "200",
                     "--seed", "3", "--p", "1", "--out", out2]) == 0
        payload = json.loads((out2 / "decisions.json").read_text())
        assert payload["report"]["tests"]["autocovariance"]["reject"] is False
        assert payload["report"]["tests"]["ar_coefficients"]["reject"] is False

    def test_requires_null_spec(self, series_file, tmp_path, monkeypatch):
        # a bad null fails before the bootstrap runs
        def _no_bootstrap(*args, **kwargs):
            raise AssertionError("the bootstrap ran before the null was checked")

        monkeypatch.setattr("secondwild.cli.run_bootstrap", _no_bootstrap)
        empty = tmp_path / "empty.json"
        empty.write_text("")
        no_keys = tmp_path / "no_keys.json"
        no_keys.write_text("{}")
        not_object = tmp_path / "list.json"
        not_object.write_text("[0.0]")
        null_file = tmp_path / "null.json"
        null_file.write_text(json.dumps({"rho": [0.0] * 4}))
        base = ["test", series_file, "--B", "100", "--out", tmp_path]
        for extra in ([], ["--null-zero", "--null", null_file], ["--null", tmp_path / "missing.json"],
                      ["--null", empty], ["--null", no_keys], ["--null", not_object]):
            assert _run(base + extra) == 2, extra

    @pytest.mark.parametrize(
        "text", ['{"sigma": [NaN, 0, 0, 0]}', '{"rho": [0, Infinity, 0, 0]}', '{"sigma": {"a": 1}}'],
        ids=["nan", "infinity", "object"],
    )
    def test_bad_null_values_exit_2(self, series_file, tmp_path, capsys, text):
        null_file = tmp_path / "null.json"
        null_file.write_text(text)
        assert _run(["test", series_file, "--null", null_file, "--B", "100",
                     "--out", tmp_path / "dec"]) == 2
        assert "hypothesized" in capsys.readouterr().err
        assert not (tmp_path / "dec" / "decisions.json").exists()

    def test_dimension_mismatch_exit_2(self, series_file, tmp_path):
        null_file = tmp_path / "null.json"
        null_file.write_text(json.dumps({"rho": [0.0, 0.0]}))
        assert _run(["test", series_file, "--null", null_file, "--B", "100",
                     "--out", tmp_path]) == 2


class TestHarnessCommands:
    def test_variance_study_files(self, tmp_path):
        out = tmp_path / "vs"
        assert _run(["variance-study", "--n", "1000", "--reps", "100",
                     "--seed", "1", "--out", out]) == 0
        csv_text = (out / "variance_study.csv").read_text()
        assert csv_text.startswith("# manifest:")
        from secondwild.harness import VarianceStudyReport

        report = VarianceStudyReport.from_csv(csv_text, n=1000, reps=100, rho=0.7, seed=1)
        assert len(report.rows) == 3

    def test_coverage_files_and_replay(self, tmp_path):
        out = tmp_path / "cov"
        args = ["coverage", "--scenario", "ma3:independent", "--T", "250",
                "--reps", "100", "--seed", "3", "--method", "wild", "--out", out]
        assert _run(args) == 0
        data = json.loads((out / "coverage.json").read_text())
        assert len(data["report"]["rows"]) == 3
        replay_out = tmp_path / "cov2"
        assert _run(["--replay", out / "manifest.json", "--out", replay_out]) == 0
        assert (out / "coverage.csv").read_bytes() == (replay_out / "coverage.csv").read_bytes()
        assert (out / "coverage.json").read_bytes() == (replay_out / "coverage.json").read_bytes()

    def test_coverage_bad_scenario_exit_2(self, tmp_path, capsys):
        assert _run(["coverage", "--scenario", "arma:iid", "--T", "200",
                     "--reps", "100", "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert "ar1" in err  # lists valid names

    def test_approx_check_file(self, tmp_path):
        out = tmp_path / "ac"
        assert _run(["approx-check", "--model", "ar1", "--rho", "0.5", "--T", "300",
                     "--reps", "1000", "--n-oracle", "20000",
                     "--truth-length", "100000", "--seed", "2", "--out", out]) == 0
        data = json.loads((out / "approx_check.json").read_text())
        assert len(data["rows"]) == 1
        assert 0.0 <= data["rows"][0]["ks_distance"] <= 1.0


class TestExitCodes:
    def test_no_subcommand_exit_2(self, capsys):
        assert _run([]) == 2

    def test_unknown_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            _run(["analyze", "missing.csv", "--bogus"])
        assert exc.value.code == 2

    def test_missing_input_exit_2(self, tmp_path):
        assert _run(["analyze", tmp_path / "nope.csv", "--out", tmp_path]) == 2
