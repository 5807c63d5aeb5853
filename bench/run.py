"""secondwild benchmark: one workload per run, end to end or traced by layer.

    python3 bench/run.py --workload cli-bootstrap --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/``.  Workloads are listed in ``BENCHMARK.json`` and described in
``bench/README.md``.  A run sets up, then repeats whole rounds of its
operations until ``--seconds`` of timed work are done, checks every output
against ``reference.py`` outside the timed sections, and prints one JSON
line last on stdout: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  Generated inputs, program outputs and spans go to
``.bench_work/``.
"""

import time

_STARTED = time.perf_counter()  # set-up is timed from the first statement

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

D, H, I, P = 7, (0, 1, 2, 3), (1, 2, 3, 4), 1
LEVEL = 0.95
REFERENCE_DRAWS = 400_000
# A radius may differ from the reference quantile by this many standard
# errors of the two Monte Carlo quantiles before the check fails.
RADIUS_TOLERANCE_SE = 5.0


def _load_package():
    sys.path.insert(0, str(ROOT / "src"))
    import secondwild.cli

    origin = Path(secondwild.cli.__file__).resolve().parent
    if origin != ROOT / "src" / "secondwild":
        raise SystemExit(f"secondwild imported from {origin}, not from this checkout's src/")
    return secondwild


def _check_estimates(report: dict, x: np.ndarray) -> list[str]:
    est = report["estimates"]
    sigma = ref.autocovariances(x, D)
    problems = []
    if est["p"] != P:
        problems.append(f"AR order {est['p']}, requested {P}")
    if not np.allclose(est["sigma_hat"], sigma, rtol=0.0, atol=1e-9 * sigma[0]):
        problems.append("sigma_hat differs from the truncated sums")
    if not np.allclose(est["rho_hat"], sigma / sigma[0], rtol=0.0, atol=1e-9):
        problems.append("rho_hat differs from the truncated sums")
    if not np.allclose(est["a_hat"], ref.toeplitz_solve(sigma, P), rtol=0.0, atol=1e-8):
        problems.append("a_hat differs from the Toeplitz solve")
    return problems


def _check_radius(radius: float, cov: np.ndarray, program_draws: int, rng) -> list[str]:
    q, density = ref.max_abs_gaussian_quantile(cov, LEVEL, REFERENCE_DRAWS, rng)
    se = math.hypot(ref.quantile_se(LEVEL, program_draws, density), ref.quantile_se(LEVEL, REFERENCE_DRAWS, density))
    if abs(radius - q) > RADIUS_TOLERANCE_SE * se:
        return [f"autocovariance radius {radius:.5g}, reference {q:.5g} +- {se:.2g}"]
    return []


class CliRequest:
    """One in-process ``secondwild.cli.main`` call on a newly written series."""

    series = 1

    def __init__(self, workload, argv: list[str], values: np.ndarray):
        self.workload = workload
        self.command = argv[0]
        self.csv = workload.dir / "series.csv"
        self.out = workload.dir / "out"
        self.argv = [argv[0], str(self.csv), *argv[1:], "--threads", "1", "--out", str(self.out)]
        self.values = values

    def prepare(self):
        ref.write_csv(self.csv, self.values)

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            exit_code = self.workload.package.cli.main(self.argv)
        if exit_code != 0:
            raise RuntimeError(f"secondwild {self.command} exited with code {exit_code}")

    def check(self, _) -> list[str]:
        result_file = "decisions.json" if self.command == "test" else "report.json"
        report = json.loads((self.out / result_file).read_text())["report"]
        x = self.values - self.values.mean()
        return _check_estimates(report, x) + self.workload.check(self, report, x)


class Workload:
    """Inputs from one seed; rounds of operations; reference draws from the same seed."""

    setup_samples = 5  # fresh interpreters, this one included, whose set-up time is measured

    def __init__(self, package, seed: int, work: Path):
        self.package = package
        self.seed = seed
        self.dir = work
        self.rng = np.random.default_rng([seed, 7])

    def set_up(self):
        """Work a fresh process pays once before its first operation."""


class CliBootstrap(Workload):
    """The paper's table layout through the CLI at T=1000, B=2000, automatic k_T."""

    T = 1000
    B = 2000

    def round(self, r: int):
        for k, command in enumerate(("analyze", "test")):
            index = 2 * r + k
            values = ref.ar1_product_series(self.seed, index, self.T, rho=0.98)
            argv = [command, "--d", str(D), "--H", "0-3", "--I", "1-4", "--p", str(P),
                    "--B", str(self.B), "--seed", str(index)]
            if command == "test":
                argv.append("--null-zero")
            yield CliRequest(self, argv, values)

    def check(self, request, report, x) -> list[str]:
        """Radius against the exact conditional law N(0, R K R^T / T) at the reported k_T."""
        sigma = ref.autocovariances(x, D)
        cov = ref.multiplier_covariance(ref.residual_rows(x, sigma, H), report["k_T"])
        problems = _check_radius(report["radii"]["autocovariance"], cov, self.B, self.rng)
        if request.command == "test" and not report.get("tests", {}).get("autocovariance", {}).get("reject"):
            problems.append("test --null-zero did not reject the zero autocovariance null")
        return problems


class Plugin1e6(Workload):
    """CLI ``analyze --band-method plugin`` on series of 10^6 observations."""

    T = 10**6
    N_MC = 200_000
    MA_ORDER, MA_THETA = 43, 0.05

    def round(self, r: int):
        values = ref.flat_ma_product_series(self.seed, r, self.T, self.MA_ORDER, self.MA_THETA)
        argv = ["analyze", "--band-method", "plugin", "--p", str(P), "--n-mc", str(self.N_MC), "--seed", str(r)]
        yield CliRequest(self, argv, values)

    def check(self, request, report, x) -> list[str]:
        """Radius against an FFT-built long-run covariance and fresh Gaussian-max draws."""
        sigma = ref.autocovariances(x, D)
        cov = ref.long_run_covariance_fft(ref.residual_rows(x, sigma, H), report["k_T"])
        return _check_radius(report["radii"]["autocovariance"], cov, self.N_MC, self.rng)


class CoverageWarp(Workload):
    """``harness.coverage_study`` in warp-speed mode, one scenario per operation."""

    setup_samples = 3
    T = 1000
    REPS = 3000
    RHO = 0.7
    SCENARIOS = ("ar1:product", "nlar2:independent")

    def __init__(self, package, seed: int, work: Path):
        super().__init__(package, seed, work)
        self.scenarios = [package.harness.Scenario.parse(s, rho=self.RHO) for s in self.SCENARIOS]

    def set_up(self):
        """The plug-in truth of every nonlinear scenario, paid once per process."""
        for scen in self.scenarios:
            if scen.model == "nlar2":
                self.package.harness.true_autocovariances(scen.model, scen.innovation, scen.rho, D)

    def round(self, r: int):
        for k, scen in enumerate(self.scenarios):
            yield CoverageStudy(self, scen, stream_index=r * len(self.scenarios) + k)


class CoverageStudy:
    """One warp-speed ``coverage_study`` call over a single scenario."""

    def __init__(self, workload: CoverageWarp, scenario, stream_index: int):
        self.workload = workload
        self.scenario = scenario
        self.stream = workload.package.RngStream(workload.seed, stream_index)
        self.series = workload.REPS

    def prepare(self):
        pass

    def run(self):
        w = self.workload
        return w.package.harness.coverage_study(
            [self.scenario], T=w.T, reps=w.REPS, stream=self.stream, mode="warp_speed",
            d=D, H=H, I=I, methods=("wild", "sieve"), threads=1,
        )

    def check(self, report) -> list[str]:
        """Criterion 2's band for every wild row, criterion 3 at ar1:product, closed-form truths."""
        scen = self.scenario
        problems = []
        for row in report.rows:
            if row.method == "wild" and not 0.90 <= row.coverage <= 0.98:
                problems.append(f"{scen.label} wild {row.target} coverage {row.coverage:.4f} outside [0.90, 0.98]")
            if (row.method, row.target, scen.model, scen.innovation.value) == (
                "sieve", "ar_coefficients", "ar1", "product_of_normals"
            ) and not row.coverage < 0.88:
                problems.append(f"{scen.label} sieve AR coverage {row.coverage:.4f} not below 0.88")
        if scen.model == "ar1":
            truth, _ = self.workload.package.harness.true_autocovariances(scen.model, scen.innovation, scen.rho, D)
            if not np.allclose(truth, ref.ar1_autocovariances(scen.rho, D), rtol=1e-9, atol=1e-12):
                problems.append(f"{scen.label} true autocovariances differ from the closed form")
        return problems


WORKLOADS = {"cli-bootstrap": CliBootstrap, "plugin-1e6": Plugin1e6, "coverage-warp": CoverageWarp}


def _setup_probe(args) -> float:
    """Set-up time of a fresh interpreter, measured by the interpreter itself."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    package = _load_package()
    workload = WORKLOADS[args.workload](package, args.seed, WORK / args.workload)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer.install()
    workload.set_up()
    setup_s = [time.perf_counter() - _STARTED]
    if tracer:
        tracer.active = False
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s[0]}))
        return 0

    workload.dir.mkdir(parents=True, exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    op_s, series, attempted, failed, busy, correct = [], 0, 0, 0, 0.0, True
    r = 0
    while busy < args.seconds:
        for op in workload.round(r):
            op.prepare()
            attempted += 1
            if tracer:
                tracer.active = True
            started = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failed operation is counted, the run goes on
                failed += 1
                print(f"{args.workload} op {attempted}: raised {exc!r}", file=sys.stderr)
                continue
            finally:
                elapsed = time.perf_counter() - started
                busy += elapsed
                if tracer:
                    tracer.active = False
            problems = op.check(result)
            print(f"{args.workload} op {attempted}: {elapsed:.3f}s {'; '.join(problems) or 'ok'}", file=sys.stderr)
            if problems:
                failed += 1
                correct = False
            else:
                op_s.append(elapsed)
                series += op.series
        r += 1
    if not op_s:
        raise SystemExit(f"{args.workload}: no operation succeeded")

    if tracer:
        wanted = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = tracer.layer_metrics(wanted, per=attempted)
        tracer.write(workload.dir / f"spans-seed{args.seed}.json")
    else:
        setup_s += [_setup_probe(args) for _ in range(workload.setup_samples - 1)]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "request_s": statistics.median(op_s),
            "series_per_s": series / sum(op_s),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    (workload.dir / f"run-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"op_s": op_s, "setup_s": setup_s, "values": values}, indent=1)
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
