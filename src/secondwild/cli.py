"""Command-line surface.

Every run resolves its options to a flat dictionary, executes, and writes a
``manifest.json`` describing exactly what ran.  Result files embed the
result-affecting part of that manifest, so a archived run can be verified
and replayed:

    secondwild --replay out/manifest.json --out elsewhere

reproduces the result files byte for byte.  Execution details that cannot
change results (output directory, wall-clock) live only in
``manifest.json``.  ``--threads`` is accepted and ignored: every command
runs on one thread, and BLAS is the only parallelism.

Exit codes: 0 success, 2 usage or input errors, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .bootstrap import (
    BootstrapConfig,
    InferenceReport,
    hypothesis_tests,
    run_bootstrap,
    run_plugin,
)
from .dgp import DgpSpec, MODELS, gen_series, parse_innovation
from .errors import InputDataError, NumericalError
from .harness import (
    Scenario,
    all_scenarios,
    coverage_study,
    gaussian_approx_check,
    variance_study,
)
from .kernels import BandwidthRule
from .rng import RngStream
from .series import _values

TABLE_DEFAULT_D = 7
TABLE_DEFAULT_H = "0-3"
TABLE_DEFAULT_I = "1-4"
_THREADS_HELP = "accepted and ignored; runs are serial and BLAS is the only parallelism"


@dataclass
class RunManifest:
    """Everything needed to audit or reproduce one CLI run."""

    subcommand: str
    options: dict
    execution: dict
    seed: int
    version: str
    created_utc: str
    wall_clock_s: Optional[float] = None

    def reproducible(self) -> dict:
        """The result-affecting portion embedded in result files."""
        return {
            "subcommand": self.subcommand,
            "options": self.options,
            "seed": self.seed,
            "version": self.version,
        }

    def to_dict(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "options": self.options,
            "execution": self.execution,
            "seed": self.seed,
            "version": self.version,
            "created_utc": self.created_utc,
            "wall_clock_s": self.wall_clock_s,
        }


def parse_index_set(text: str) -> tuple[int, ...]:
    """Parse comma-separated lags with ranges, e.g. '0-3' or '0,2,5-7'."""
    out: set[int] = set()
    for piece in str(text).split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "-" in piece[1:]:
            lo, _, hi = piece.partition("-")
            lo_i, hi_i = int(lo), int(hi)
            if hi_i < lo_i:
                raise InputDataError(f"bad lag range {piece!r}")
            out.update(range(lo_i, hi_i + 1))
        else:
            out.add(int(piece))
    if not out:
        raise InputDataError(f"empty index set {text!r}")
    return tuple(sorted(out))


def read_series_csv(path: str) -> np.ndarray:
    """Read one numeric value per line; a single leading header is tolerated.

    A plain column of numbers is parsed by ``np.loadtxt`` in C.  Anything it
    rejects (a header, blank or whitespace-only lines, empty fields, Python
    float spellings such as ``1_0``) or a result that is not one column of
    at least 2 values falls through to the line loop, which alone decides
    what is accepted and words every error.  Where both parse a file they
    give bit-identical values.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*input contained no data")
            fast = np.loadtxt(path, dtype=float, delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError):
        fast = None
    if fast is not None and fast.shape[1] == 1 and fast.shape[0] >= 2:
        return fast[:, 0]
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise InputDataError(f"cannot read {path}: {exc}") from exc
    values = []
    header_allowed = True
    for lineno, line in enumerate(raw.splitlines(), start=1):
        text = line.strip()
        if not text:
            continue
        fields = [f for f in text.split(",") if f.strip()]
        if len(fields) != 1:
            raise InputDataError(f"{path}:{lineno}: expected one value per line, got {len(fields)}")
        try:
            values.append(float(fields[0]))
        except ValueError:
            if header_allowed and not values:
                header_allowed = False
                continue
            raise InputDataError(f"{path}:{lineno}: not a number: {fields[0]!r}") from None
        header_allowed = False
    if len(values) < 2:
        raise InputDataError(f"{path}: needs at least 2 numeric values, found {len(values)}")
    return np.asarray(values)


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _finish(manifest: RunManifest, out_dir: Path, started: float) -> None:
    manifest.wall_clock_s = time.perf_counter() - started
    _write_json(out_dir / "manifest.json", manifest.to_dict())


def _bootstrap_config(opts: dict) -> BootstrapConfig:
    bandwidth = (
        BandwidthRule.fixed(opts["kt"]) if opts["kt"] is not None else BandwidthRule.auto(c=opts["kt_c"])
    )
    return BootstrapConfig(
        d=opts["d"],
        p=opts["p"] if opts["p"] is not None else 1,
        H=parse_index_set(opts["H"]),
        I=parse_index_set(opts["I"]),
        bandwidth=bandwidth,
        B=opts["B"],
        alpha=opts["alpha"],
        seed=opts["seed"],
    )


def _load_series(opts: dict) -> np.ndarray:
    values = _values(read_series_csv(opts["input"]))
    return values - values.mean() if opts["center"] else values


def _analyze_report(opts: dict) -> tuple[InferenceReport, object]:
    from .series import ar_order_select_aic

    series = _load_series(opts)
    if opts["p"] is None:
        p_max = min(opts["d"], max(1, (series.size - 1) // 2))
        opts = dict(opts, p=max(1, ar_order_select_aic(series, p_max)))
    config = _bootstrap_config(opts)
    if series.size <= config.d:
        raise InputDataError(f"series of length {series.size} too short for maximum lag {config.d}")
    if opts["band_method"] == "plugin":
        report = run_plugin(series, config, n_mc=opts["n_mc"])
        draws = None
    else:
        report, draws = run_bootstrap(series, config)
    return report, draws


def _format_report_table(report: InferenceReport) -> str:
    lines = []
    est = report.estimates
    lines.append(f"method: {report.method}   T={est.T}  d={est.d}  p={est.p}  alpha={report.alpha}")
    if report.k_T is not None:
        lines.append(f"bandwidth k_T = {report.k_T:g}")
    for target in sorted(report.bands):
        band = report.bands[target]
        lines.append(f"{target} (simultaneous radius {report.radii[target]:.6g}):")
        lines.append(f"  {'lag':>4} {'estimate':>12} {'lower':>12} {'upper':>12}")
        for idx, estimate, lo, hi in zip(band.indices, band.estimate, band.lower, band.upper):
            lines.append(f"  {idx:>4} {estimate:>12.6f} {lo:>12.6f} {hi:>12.6f}")
    if report.tests:
        lines.append("tests (reject when statistic > radius):")
        for target, result in sorted(report.tests.items()):
            verdict = "REJECT" if result.reject else "accept"
            lines.append(
                f"  {target}: statistic={result.statistic:.6g} radius={result.radius:.6g} "
                f"p={result.p_value:.4g} -> {verdict}"
            )
    return "\n".join(lines) + "\n"


def cmd_analyze(opts: dict, execution: dict) -> None:
    started = time.perf_counter()
    out_dir = Path(execution["out"])
    manifest = _manifest("analyze", opts, execution)
    report, _ = _analyze_report(opts)
    payload = {"manifest": manifest.reproducible(), "report": report.to_dict()}
    _write_json(out_dir / "report.json", payload)
    sys.stdout.write(_format_report_table(report))
    _finish(manifest, out_dir, started)


def _read_null(opts: dict) -> Optional[dict]:
    """Keyword arguments of :func:`hypothesis_tests` read from ``--null``.

    Returns None for ``--null-zero``, whose zero vectors need the report's
    lag sets.  Called before the bootstrap, so bad input fails fast.
    """
    if opts["null_zero"] and opts["null"]:
        raise InputDataError("--null and --null-zero are mutually exclusive")
    if opts["null_zero"]:
        return None
    if opts["null"] is None:
        raise InputDataError("provide --null FILE or --null-zero")
    try:
        null_spec = json.loads(Path(opts["null"]).read_text())
    except OSError as exc:
        raise InputDataError(f"cannot read {opts['null']}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputDataError(f"{opts['null']}: invalid JSON: {exc}") from exc
    if not isinstance(null_spec, dict):
        raise InputDataError(f"{opts['null']}: expected a JSON object with 'sigma', 'rho' or 'a'")
    null = {"sigma_e": null_spec.get("sigma"), "rho_e": null_spec.get("rho"), "a_e": null_spec.get("a")}
    if all(v is None for v in null.values()):
        raise InputDataError(f"{opts['null']}: provide at least one of 'sigma', 'rho', 'a'")
    return null


def cmd_test(opts: dict, execution: dict) -> None:
    started = time.perf_counter()
    out_dir = Path(execution["out"])
    manifest = _manifest("test", opts, execution)
    if opts["band_method"] == "plugin":
        raise InputDataError("hypothesis tests require the bootstrap band method")
    null = _read_null(opts)
    report, draws = _analyze_report(opts)
    if null is None:
        est = report.estimates
        null = {"sigma_e": np.zeros(len(est.H)), "rho_e": np.zeros(len(est.I))}
    hypothesis_tests(report, draws, **null)
    payload = {"manifest": manifest.reproducible(), "report": report.to_dict()}
    _write_json(out_dir / "decisions.json", payload)
    sys.stdout.write(_format_report_table(report))
    _finish(manifest, out_dir, started)


def cmd_simulate(opts: dict, execution: dict) -> None:
    started = time.perf_counter()
    manifest = _manifest("simulate", opts, execution)
    spec = DgpSpec(
        model=opts["model"],
        innovation=parse_innovation(opts["innovation"]),
        T=opts["T"],
        rho=opts["rho"],
        burn_in=opts["burn_in"],
        seed=opts["seed"],
    )
    text = "\n".join(repr(v) for v in gen_series(spec).tolist()) + "\n"
    if execution["out"] is None:
        sys.stdout.write(text)
    else:
        out_file = Path(execution["out"])
        _write_text(out_file, text)
        manifest.wall_clock_s = time.perf_counter() - started
        _write_json(out_file.with_suffix(out_file.suffix + ".manifest.json"), manifest.to_dict())


def cmd_variance_study(opts: dict, execution: dict) -> None:
    started = time.perf_counter()
    out_dir = Path(execution["out"])
    manifest = _manifest("variance-study", opts, execution)
    report = variance_study(opts["n"], opts["reps"], RngStream(opts["seed"]), rho=opts["rho"])
    embed = json.dumps(manifest.reproducible(), sort_keys=True)
    _write_text(out_dir / "variance_study.csv", f"# manifest: {embed}\n" + report.to_csv())
    _write_json(
        out_dir / "variance_study.json",
        {"manifest": manifest.reproducible(), "rows": [dict(_row_items(r)) for r in report.rows]},
    )
    for row in report.rows:
        sys.stdout.write(
            f"{row.innovation:>20}: mean_rho={row.mean_rho_hat:.3f} "
            f"var_root_rho={row.var_root_rho:.3f} var_root_gamma1={row.var_root_gamma1:.3f}\n"
        )
    _finish(manifest, out_dir, started)


def _row_items(row):
    return [(name, getattr(row, name)) for name in row.__dataclass_fields__]


def cmd_coverage(opts: dict, execution: dict) -> None:
    started = time.perf_counter()
    out_dir = Path(execution["out"])
    manifest = _manifest("coverage", opts, execution)
    if opts["scenario"]:
        scenarios = [Scenario.parse(s, rho=opts["rho"]) for s in opts["scenario"]]
    else:
        scenarios = all_scenarios(rho=opts["rho"])
    methods = ("wild", "sieve") if opts["method"] == "both" else (opts["method"],)
    report = coverage_study(
        scenarios,
        T=opts["T"],
        reps=opts["reps"],
        stream=RngStream(opts["seed"]),
        mode=opts["mode"],
        B=opts["B"],
        alpha=opts["alpha"],
        d=opts["d"],
        H=parse_index_set(opts["H"]),
        I=parse_index_set(opts["I"]),
        p_max=opts["p_max"],
        methods=methods,
        burn_in=opts["burn_in"],
    )
    embed = json.dumps(manifest.reproducible(), sort_keys=True)
    _write_text(out_dir / "coverage.csv", f"# manifest: {embed}\n" + report.to_csv())
    _write_json(out_dir / "coverage.json", {"manifest": manifest.reproducible(), "report": report.to_json()})
    for row in report.rows:
        sys.stdout.write(
            f"{row.model}:{row.innovation:<20} {row.method:<6} {row.target:<16} "
            f"coverage={100 * row.coverage:5.1f}%  (order={row.order}, mean_kt={row.mean_k_T:.1f})\n"
        )
    _finish(manifest, out_dir, started)


def cmd_approx_check(opts: dict, execution: dict) -> None:
    started = time.perf_counter()
    out_dir = Path(execution["out"])
    manifest = _manifest("approx-check", opts, execution)
    spec = DgpSpec(
        model=opts["model"],
        innovation=parse_innovation(opts["innovation"]),
        T=max(opts["T"]),
        rho=opts["rho"],
        burn_in=opts["burn_in"],
        seed=opts["seed"],
    )
    rows = []
    for T in opts["T"]:
        result = gaussian_approx_check(
            spec,
            T=T,
            reps=opts["reps"],
            stream=RngStream(opts["seed"]),
            H=parse_index_set(opts["H"]),
            n_oracle=opts["n_oracle"],
            truth_length=opts["truth_length"],
        )
        rows.append(result.to_json())
        sys.stdout.write(f"T={T}: ks_distance={result.ks_distance:.4f} (truth k_T={result.truth_k_T:g})\n")
    _write_json(out_dir / "approx_check.json", {"manifest": manifest.reproducible(), "rows": rows})
    _finish(manifest, out_dir, started)


_HANDLERS = {
    "analyze": cmd_analyze,
    "test": cmd_test,
    "simulate": cmd_simulate,
    "variance-study": cmd_variance_study,
    "coverage": cmd_coverage,
    "approx-check": cmd_approx_check,
}


def _manifest(subcommand: str, opts: dict, execution: dict) -> RunManifest:
    return RunManifest(
        subcommand=subcommand,
        options=dict(sorted(opts.items())),
        execution=execution,
        seed=opts.get("seed", 0),
        version=__version__,
        created_utc=datetime.now(timezone.utc).isoformat(),
    )


def _add_analyze_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="CSV file, one numeric value per line (single header tolerated)")
    p.add_argument("--d", type=int, default=TABLE_DEFAULT_D, help="maximum lag (default 7)")
    p.add_argument("--p", type=int, default=None, help="AR order; omit to select by AIC")
    p.add_argument("--H", default=TABLE_DEFAULT_H, help="autocovariance lags, e.g. 0-3 (default)")
    p.add_argument("--I", default=TABLE_DEFAULT_I, help="autocorrelation lags, e.g. 1-4 (default)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--B", type=int, default=2000, help="bootstrap replicates (default 2000)")
    p.add_argument("--kt", type=float, default=None, help="fixed bandwidth; omit for the automatic rule")
    p.add_argument("--kt-c", dest="kt_c", type=float, default=2.0, help="threshold constant of the automatic rule")
    p.add_argument("--center", action=argparse.BooleanOptionalAction, default=True,
                   help="subtract the sample mean before analysis (default on)")
    p.add_argument("--band-method", dest="band_method", default="bootstrap", choices=["bootstrap", "plugin"])
    p.add_argument("--n-mc", dest="n_mc", type=int, default=200_000, help="oracle draws for --band-method plugin")
    p.add_argument("--seed", type=int, default=0)


_ANALYZE_KEYS = ("input", "d", "p", "H", "I", "alpha", "B", "kt", "kt_c",
                 "center", "band_method", "n_mc", "seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secondwild",
        description="Simultaneous inference for autocovariances, autocorrelations, "
        "and fitted AR coefficients of weakly stationary time series.",
    )
    parser.add_argument("--replay", metavar="MANIFEST", default=None,
                        help="re-run a recorded manifest.json (outputs are byte-identical)")
    parser.add_argument("--out", default=None, help="output directory override when replaying")
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("analyze", help="simultaneous confidence bands for one series")
    _add_analyze_options(p)
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)

    p = sub.add_parser("test", help="threshold hypothesis tests for one series")
    _add_analyze_options(p)
    p.add_argument("--null", default=None, help="JSON file with hypothesized 'sigma'/'rho'/'a' arrays")
    p.add_argument("--null-zero", dest="null_zero", action="store_true",
                   help="test sigma_j = 0 and rho_j = 0 over H and I")
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)

    p = sub.add_parser("simulate", help="emit one simulated series as CSV")
    p.add_argument("--model", required=True, choices=list(MODELS))
    p.add_argument("--innovation", default="independent")
    p.add_argument("--rho", type=float, default=0.9, help="AR(1) coefficient (ar1 only)")
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("variance-study", help="sampling variance of rho_hat and gamma_hat_1 by innovation kind")
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--rho", type=float, default=0.7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")

    p = sub.add_parser("coverage", help="Monte Carlo coverage of the simultaneous bands")
    p.add_argument("--scenario", action="append", default=None,
                   help="model:innovation, repeatable (default: the full grid)")
    p.add_argument("--rho", type=float, default=0.9)
    p.add_argument("--T", type=int, default=1000)
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--mode", default="warp_speed", choices=["warp_speed", "full"])
    p.add_argument("--B", type=int, default=500, help="replicates per repetition in full mode")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--d", type=int, default=TABLE_DEFAULT_D)
    p.add_argument("--H", default=TABLE_DEFAULT_H)
    p.add_argument("--I", default=TABLE_DEFAULT_I)
    p.add_argument("--p-max", dest="p_max", type=int, default=7)
    p.add_argument("--method", default="both", choices=["wild", "sieve", "both"])
    p.add_argument("--burn-in", dest="burn_in", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)

    p = sub.add_parser("approx-check", help="KS distance of max-deviation roots from the Gaussian-max oracle")
    p.add_argument("--model", default="ar1", choices=list(MODELS))
    p.add_argument("--innovation", default="independent")
    p.add_argument("--rho", type=float, default=0.7)
    p.add_argument("--T", type=int, nargs="+", default=[2000])
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--H", default=TABLE_DEFAULT_H)
    p.add_argument("--n-oracle", dest="n_oracle", type=int, default=100_000)
    p.add_argument("--truth-length", dest="truth_length", type=int, default=10**6)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")

    return parser


_OPTION_KEYS = {
    "analyze": _ANALYZE_KEYS,
    "test": _ANALYZE_KEYS + ("null", "null_zero"),
    "simulate": ("model", "innovation", "rho", "T", "burn_in", "seed"),
    "variance-study": ("n", "reps", "rho", "seed"),
    "coverage": ("scenario", "rho", "T", "reps", "mode", "B", "alpha", "d", "H", "I",
                 "p_max", "method", "burn_in", "seed"),
    "approx-check": ("model", "innovation", "rho", "T", "reps", "H", "n_oracle",
                     "truth_length", "burn_in", "seed"),
}


def _dispatch(subcommand: str, options: dict, execution: dict) -> None:
    handler = _HANDLERS.get(subcommand)
    if handler is None:
        raise InputDataError(f"unknown subcommand {subcommand!r}")
    missing = [k for k in _OPTION_KEYS[subcommand] if k not in options]
    if missing:
        raise InputDataError(f"manifest for {subcommand!r} is missing options: {', '.join(missing)}")
    handler(options, execution)


def _run_replay(manifest_path: str, out_override: Optional[str]) -> None:
    try:
        payload = json.loads(Path(manifest_path).read_text())
    except OSError as exc:
        raise InputDataError(f"cannot read {manifest_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputDataError(f"{manifest_path}: invalid JSON: {exc}") from exc
    for key in ("subcommand", "options", "execution"):
        if key not in payload:
            raise InputDataError(f"{manifest_path}: not a manifest (missing {key!r})")
    if payload.get("version") != __version__:
        sys.stderr.write(
            f"warning: manifest was written by version {payload.get('version')}, "
            f"this is {__version__}\n"
        )
    execution = dict(payload["execution"])
    if out_override is not None:
        execution["out"] = out_override
    options = dict(payload["options"])
    # Manifests of earlier versions carry a "kernel" option whose only
    # value was "gaussian"; it stays in the options so replayed result
    # files embed the same manifest bytes.
    kernel = options.get("kernel", "gaussian")
    if kernel != "gaussian":
        raise InputDataError(f"{manifest_path}: kernel {kernel!r} is not supported (only gaussian)")
    if "scenario" in options and options["scenario"] is not None:
        options["scenario"] = list(options["scenario"])
    _dispatch(payload["subcommand"], options, execution)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.replay:
            _run_replay(args.replay, args.out)
            return 0
        if not args.subcommand:
            parser.print_help()
            return 2
        options = {key: getattr(args, key) for key in _OPTION_KEYS[args.subcommand]}
        execution = {"out": getattr(args, "out", ".")}
        _dispatch(args.subcommand, options, execution)
        return 0
    except (InputDataError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
