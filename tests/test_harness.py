import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import secondwild.harness as harness_mod
from conftest import reference_coverage_study
from secondwild._nlar2_truth import NLAR2_TRUTH_AUTOCOV
from secondwild.dgp import DgpSpec, InnovationKind
from secondwild.harness import (
    CoverageReport,
    CoverageRow,
    Scenario,
    VarianceStudyReport,
    all_scenarios,
    coverage_study,
    gaussian_approx_check,
    true_autocovariances,
    variance_study,
)
from secondwild.hac import TARGET_ARCOEF, TARGET_AUTOCORR, TARGET_AUTOCOV
from secondwild.rng import RngStream


class TestScenario:
    def test_parse(self):
        s = Scenario.parse("ar2:product")
        assert s.model == "ar2"
        assert s.innovation.value == "product_of_normals"
        with pytest.raises(ValueError):
            Scenario.parse("ar2")

    def test_grid(self):
        grid = all_scenarios()
        assert len(grid) == 15
        assert len({s.label for s in grid}) == 15

    def test_rho_only_for_ar1(self):
        assert Scenario.parse("ar1:product", rho=0.7).rho == 0.7
        assert Scenario.parse("nlar2:independent", rho=0.7).rho is None
        assert Scenario(model="ma3", innovation="independent").rho is None
        assert {s.model: s.rho for s in all_scenarios(rho=0.7)} == {
            "ar1": 0.7, "ar2": None, "ar4": None, "ma3": None, "nlar2": None,
        }
        assert Scenario.parse("ar2:product", rho=0.7) == Scenario.parse("ar2:product", rho=0.9)


class TestTruth:
    def test_linear_models_kind_independent(self):
        a, approx_a = true_autocovariances("ar2", "independent", 0.9, 5)
        b, approx_b = true_autocovariances("ar2", "non_stationary", 0.9, 5)
        assert np.array_equal(a, b)
        assert not approx_a and not approx_b

    def test_ar1_closed_form(self):
        gamma, _ = true_autocovariances("ar1", "product", 0.7, 3)
        for k in range(4):
            assert gamma[k] == pytest.approx(0.7**k / 0.51, rel=1e-12)


class TestNlar2Truth:
    def test_stored_values_equal_simulation(self):
        # recomputed in a fresh interpreter with BLAS on one thread, as
        # scripts/generate_nlar2_truth.py runs: a threaded dot product over
        # 10^7 terms rounds differently
        code = (
            "from secondwild.dgp import InnovationKind\n"
            "from secondwild.harness import _nlar2_simulated_autocov\n"
            "print(repr(_nlar2_simulated_autocov(InnovationKind.INDEPENDENT, 64)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(harness_mod.__file__).parents[1]))
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300, check=True
        )
        stored = NLAR2_TRUTH_AUTOCOV["independent"]
        assert len(stored) == 65
        assert ast.literal_eval(done.stdout) == stored

    def test_longer_lags_simulate(self, monkeypatch):
        calls = []

        def _fake(kind, max_lag):
            calls.append(max_lag)
            return tuple(float(j) for j in range(max_lag + 1))

        monkeypatch.setattr(harness_mod, "_nlar2_simulated_autocov", _fake)
        plugin = harness_mod._nlar2_plugin_autocov.__wrapped__
        for kind in InnovationKind:
            assert plugin(kind, 7) == NLAR2_TRUTH_AUTOCOV[kind.value][:8]
            assert plugin(kind, 64) == NLAR2_TRUTH_AUTOCOV[kind.value]
        assert calls == []
        assert plugin(InnovationKind.INDEPENDENT, 65) == tuple(float(j) for j in range(66))
        assert calls == [65]


class TestVarianceStudy:
    def test_small_run_matches_iid_theory(self):
        rep = variance_study(2000, 200, RngStream(5))
        row = rep.rows[0]
        assert row.innovation == "independent"
        # asymptotic variance of sqrt(n)(rho_hat - rho) is 1 - rho^2 = 0.51
        assert row.var_root_rho == pytest.approx(0.51, abs=0.15)
        assert row.mean_rho_hat == pytest.approx(0.7, abs=0.02)

    def test_deterministic(self):
        a = variance_study(1000, 100, RngStream(9))
        b = variance_study(1000, 100, RngStream(9))
        assert a == b

    def test_csv_round_trip(self):
        rep = variance_study(1000, 100, RngStream(9))
        text = rep.to_csv()
        back = VarianceStudyReport.from_csv(text, n=rep.n, reps=rep.reps, rho=rep.rho, seed=rep.seed)
        assert back == rep

    def test_validation(self):
        with pytest.raises(ValueError):
            variance_study(100, 200, RngStream(0))
        with pytest.raises(ValueError):
            variance_study(2000, 50, RngStream(0))


class TestCoverageStudy:
    def test_csv_round_trip_and_lookup(self):
        rep = coverage_study(
            [Scenario.parse("ar1:independent")],
            T=300,
            reps=100,
            stream=RngStream(3),
        )
        text = rep.to_csv()
        back = CoverageReport.from_csv(
            text, T=rep.T, reps=rep.reps, alpha=rep.alpha, mode=rep.mode, B=rep.B, seed=rep.seed
        )
        assert back == rep
        row = rep.row("ar1", "independent", TARGET_AUTOCOV, "wild")
        assert 0.0 <= row.coverage <= 1.0
        assert row.se == pytest.approx(np.sqrt(row.coverage * (1 - row.coverage) / 100))

    def test_rho_absent_outside_ar1_round_trips(self):
        rep = coverage_study(
            [Scenario.parse("ma3:independent", rho=0.7)], T=200, reps=100, stream=RngStream(5), methods=("sieve",),
        )
        assert {r.rho for r in rep.rows} == {None}
        text = rep.to_csv()
        assert text.splitlines()[1].startswith("ma3,independent,,")
        back = CoverageReport.from_csv(
            text, T=rep.T, reps=rep.reps, alpha=rep.alpha, mode=rep.mode, B=rep.B, seed=rep.seed
        )
        assert back == rep
        assert {r["rho"] for r in rep.to_json()["rows"]} == {None}
        assert rep.row("ma3", "independent", TARGET_AUTOCOV, "sieve").rho is None

    def test_repeated_scenario_rejected(self):
        scenarios = [
            Scenario.parse("ar2:product", rho=0.9),
            Scenario.parse("ar2:product", rho=0.7),
            Scenario.parse("ar1:product", rho=0.9),
            Scenario.parse("ar1:product", rho=0.7),
        ]
        with pytest.raises(ValueError, match=r"more than once: ar2:product_of_normals \(rho=None\)$"):
            coverage_study(scenarios, T=200, reps=100, stream=RngStream(0))
        with pytest.raises(ValueError, match=r"ar1:independent \(rho=0\.9\)"):
            coverage_study(["ar1:independent", "ar1:independent"], T=200, reps=100, stream=RngStream(0))

    def test_row_lookup_requires_rho_when_ambiguous(self):
        def _row(rho, coverage):
            return CoverageRow(
                model="ar1", innovation="product_of_normals", rho=rho,
                target=TARGET_ARCOEF, method="sieve", coverage=coverage, se=0.01,
                order=1, mean_k_T=0.0, reps=100, T=200, truth_approximate=False,
            )

        rep = CoverageReport(
            rows=(_row(0.9, 0.93), _row(0.7, 0.84)),
            T=200, reps=100, alpha=0.05, mode="warp_speed", B=500, seed=0,
        )
        with pytest.raises(KeyError, match=r"0\.9, 0\.7"):
            rep.row("ar1", "product", TARGET_ARCOEF, "sieve")
        row = rep.row("ar1", "product", TARGET_ARCOEF, "sieve", rho=0.7)
        assert (row.rho, row.coverage) == (0.7, 0.84)
        with pytest.raises(KeyError, match=r"rho=0\.5"):
            rep.row("ar1", "product", TARGET_ARCOEF, "sieve", rho=0.5)

    def test_rerun_deterministic(self):
        kwargs = dict(T=250, reps=100, stream=RngStream(7))
        a = coverage_study([Scenario.parse("ma3:independent")], **kwargs)
        b = coverage_study([Scenario.parse("ma3:independent")], **kwargs)
        assert a == b

    def test_alpha_near_one_collapses_coverage(self):
        rep = coverage_study(
            [Scenario.parse("ar1:independent")],
            T=250,
            reps=100,
            stream=RngStream(11),
            alpha=0.999,
            methods=("wild",),
        )
        for row in rep.rows:
            assert row.coverage <= 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            coverage_study(["ar1:independent"], T=200, reps=50, stream=RngStream(0))
        with pytest.raises(ValueError):
            coverage_study(["ar1:independent"], T=200, reps=100, stream=RngStream(0), mode="weird")
        with pytest.raises(ValueError):
            coverage_study(["ar1:independent"], T=200, reps=100, stream=RngStream(0), methods=("boot",))
        with pytest.raises(ValueError):
            coverage_study(["ar1:independent"], T=200, reps=100, stream=RngStream(0), p_max=9)

    @pytest.mark.parametrize("mode", ["warp_speed", "full"])
    def test_blocked_study_equals_per_repetition_reference(self, mode, monkeypatch):
        scenarios = [
            Scenario.parse(s)
            for s in ("ar1:product", "ar4:non_stationary", "ma3:independent", "nlar2:independent")
        ]
        kwargs = dict(T=200, reps=100, stream=RngStream(29), mode=mode, B=50, methods=("wild", "sieve"))
        expected = reference_coverage_study(scenarios, **kwargs).to_csv()
        assert coverage_study(scenarios, **kwargs).to_csv() == expected
        monkeypatch.setattr(harness_mod, "_BLOCK", 40)  # blocks of 40 (warp) or 1 (full) repetitions
        assert coverage_study(scenarios, **kwargs).to_csv() == expected

    def test_warp_speed_agrees_with_full_mode(self):
        # Both Monte Carlo designs estimate the same coverage: reps=2000
        # warp vs full B=500 at T=500 agree within 3 percentage points for
        # every wild target.  The AR(1) coefficient is 0.5: with stronger
        # persistence the automatic bandwidth grows so large relative to
        # T=500 that the per-series bootstrap law itself degrades, and the
        # two designs genuinely separate (warp masks conditional
        # miscalibration); the agreement claim only holds in the regime
        # where the bootstrap is valid.
        scen = [Scenario(model="ar1", innovation="independent", rho=0.5)]
        warp = coverage_study(
            scen, T=500, reps=2000, stream=RngStream(13), mode="warp_speed", methods=("wild",),
        )
        full = coverage_study(
            scen, T=500, reps=2000, stream=RngStream(13), mode="full", B=500, methods=("wild",),
        )
        for t in (TARGET_AUTOCOV, TARGET_AUTOCORR, TARGET_ARCOEF):
            cw = warp.row("ar1", "independent", t, "wild").coverage
            cf = full.row("ar1", "independent", t, "wild").coverage
            assert abs(cw - cf) <= 0.03, f"{t}: warp {cw:.3f} vs full {cf:.3f}"


class TestGaussianApproxCheck:
    def test_deterministic(self):
        spec = DgpSpec("ar1", "independent", T=300, rho=0.5, seed=0)
        kwargs = dict(T=300, reps=1000, stream=RngStream(17), n_oracle=20_000, truth_length=10**5)
        a = gaussian_approx_check(spec, **kwargs)
        b = gaussian_approx_check(spec, **kwargs)
        assert a == b
        assert 0.0 <= a.ks_distance <= 1.0
        assert a.to_json()["model"] == "ar1"

    def test_validates_reps(self):
        spec = DgpSpec("ar1", "independent", T=300, rho=0.5, seed=0)
        with pytest.raises(ValueError):
            gaussian_approx_check(spec, T=300, reps=10, stream=RngStream(0))
