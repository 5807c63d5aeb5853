"""Monte Carlo experiments: variance study, coverage study, Gaussian-max check.

The coverage study supports two execution modes.  ``full`` runs a complete
bootstrap (B replicates) inside every Monte Carlo repetition.  The much
cheaper ``warp_speed`` mode draws exactly one bootstrap replicate per
repetition, pools those draws into a single quantile per scenario, and
counts how many repetitions' max-deviation statistics fall inside the
pooled band.

Repetitions run serially, in blocks of up to 256 (in full mode, of at
most 256 replicates per method).  Each repetition still draws from its own
``derive_seed`` streams, but the block is simulated in one pass
(``gen_series_block``), each series' correlogram is computed once and
feeds the bandwidth rule, the estimates and the sieve's AIC, and the
replicates come from ``_wild_sigma_star`` and ``_sieve_sigma_star`` (which
``run_bootstrap`` and ``ar_sieve_bootstrap`` also call).  The block ends in
three stacked ``_max_deviations`` calls, the bootstraps' own finish: the
observed estimates against the scenario truth, the wild replicates
against their estimates, and the sieve replicates against their model
truths.  Each of these steps repeats the arithmetic of the
one-repetition-at-a-time path, so reports are the same bytes as running
``gen_series``, ``run_bootstrap`` and ``ar_sieve_bootstrap`` per
repetition (``tests/conftest.py`` keeps that loop as the reference).

The nonlinear model's plug-in truth comes from one path of 10^7 steps.
Its autocovariances at lags 0..64 are stored in ``_nlar2_truth.py``
(regenerate with ``scripts/generate_nlar2_truth.py``); longer lag ranges
still simulate the path.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.stats

from ._nlar2_truth import NLAR2_TRUTH_AUTOCOV
from .bootstrap import BootstrapConfig, _max_deviations, _wild_sigma_star, multiplier_factor
from .dgp import MODELS, DgpSpec, InnovationKind, gen_series, gen_series_block, model_autocovariances, parse_innovation
from .gaussian import max_abs_normal_sample
from .hac import TARGET_ARCOEF, TARGET_AUTOCORR, TARGET_AUTOCOV, hac_autocov_cov
from .kernels import BandwidthRule, _bandwidth_from_correlogram, _correlogram_lags, select_bandwidth
from .quantiles import ecdf_quantile
from .rng import RngStream, derive_seed
from .series import (
    ar_order_select_aic,
    autocov_vector,
    estimate_second_order,
    normalize_lag_set,
    second_order_residual_matrix,
)
from .sieve import SieveConfig, _fit_sieve_autocov, _sieve_sigma_star, _sieve_world

TARGETS = (TARGET_AUTOCOV, TARGET_AUTOCORR, TARGET_ARCOEF)
METHODS = ("wild", "sieve")

# Fixed internals of the plug-in truth for the nonlinear model.
_TRUTH_SEED = 77_003_917
_TRUTH_LENGTH = 10**7
_TRUTH_BURN_IN = 10_000

# Repetitions simulated together and finished by three stacked
# ``_max_deviations`` calls (observed, wild, sieve).  In full mode a block is
# cut so that it holds at most this many replicates per method.
_BLOCK = 256


def _blocks(reps: int, size: int):
    """Consecutive ranges of repetition indices, ``size`` at a time."""
    for start in range(0, reps, size):
        yield range(start, min(start + size, reps))


def _nlar2_simulated_autocov(innovation: InnovationKind, max_lag: int) -> tuple[float, ...]:
    """Autocovariances of one long NLAR2 path with a fixed internal seed."""
    spec = DgpSpec(
        model="nlar2",
        innovation=innovation,
        T=_TRUTH_LENGTH,
        burn_in=_TRUTH_BURN_IN,
        seed=_TRUTH_SEED,
    )
    series = gen_series(spec)
    return tuple(autocov_vector(series, max_lag).tolist())


@lru_cache(maxsize=None)
def _nlar2_plugin_autocov(innovation: InnovationKind, max_lag: int) -> tuple[float, ...]:
    """The simulated truth, read from the stored values up to their last lag.

    ``autocov_vector`` computes each lag on its own, so a stored prefix
    equals a fresh simulation at the same lags bit for bit.
    """
    stored = NLAR2_TRUTH_AUTOCOV[innovation.value]
    if max_lag < len(stored):
        return stored[: max_lag + 1]
    return _nlar2_simulated_autocov(innovation, max_lag)


def true_autocovariances(model: str, innovation, rho: float, max_lag: int) -> tuple[np.ndarray, bool]:
    """True autocovariances of a scenario, and whether they are approximate.

    Linear models have closed forms that do not depend on the innovation
    kind (all kinds share second-order structure).  The nonlinear model is
    handled by a long plug-in simulation with a fixed internal seed and is
    flagged approximate.
    """
    if model == "nlar2":
        values = _nlar2_plugin_autocov(parse_innovation(innovation), max_lag)
        return np.asarray(values), True
    return model_autocovariances(model, rho, max_lag), False


@dataclass(frozen=True)
class Scenario:
    model: str
    innovation: InnovationKind
    rho: float = 0.9

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r} (valid: {', '.join(MODELS)})")
        object.__setattr__(self, "innovation", parse_innovation(self.innovation))

    @classmethod
    def parse(cls, text: str, rho: float = 0.9) -> "Scenario":
        parts = text.split(":")
        if len(parts) != 2:
            raise ValueError(f"scenario must look like 'model:innovation', got {text!r}")
        model = parts[0].strip().lower()
        return cls(model=model, innovation=parse_innovation(parts[1].strip()), rho=rho)

    @property
    def label(self) -> str:
        return f"{self.model}:{self.innovation.value}"


def all_scenarios(rho: float = 0.9) -> list[Scenario]:
    """The full grid: five models crossed with three innovation kinds."""
    return [
        Scenario(model=m, innovation=kind, rho=rho)
        for m in ("ar1", "ar2", "ar4", "ma3", "nlar2")
        for kind in InnovationKind
    ]


@dataclass(frozen=True)
class VarianceStudyRow:
    innovation: str
    n: int
    reps: int
    mean_rho_hat: float
    var_root_rho: float
    mean_gamma1_hat: float
    var_root_gamma1: float


@dataclass(frozen=True)
class VarianceStudyReport:
    """Sampling variance of rho_hat and gamma_hat_1 under each innovation kind."""

    rows: tuple[VarianceStudyRow, ...]
    n: int
    reps: int
    rho: float
    seed: int

    def to_csv(self) -> str:
        return _rows_to_csv(self.rows, VarianceStudyRow)

    @classmethod
    def from_csv(cls, text: str, n: int, reps: int, rho: float, seed: int) -> "VarianceStudyReport":
        rows = _rows_from_csv(text, VarianceStudyRow)
        return cls(rows=tuple(rows), n=n, reps=reps, rho=rho, seed=seed)


def variance_study(n: int, reps: int, stream: RngStream, rho: float = 0.7) -> VarianceStudyReport:
    """Sampling distribution of rho_hat = sigma_hat_1/sigma_hat_0 and gamma_hat_1.

    Simulates an AR(1) with the given coefficient under each innovation
    kind and reports the mean estimate plus the variance of the root
    sqrt(n) * (estimate - truth).  The three kinds share every second-order
    parameter, so any spread across rows is a pure higher-order effect.
    """
    if n < 1000:
        raise ValueError(f"n must be >= 1000, got {n}")
    if reps < 100:
        raise ValueError(f"reps must be >= 100, got {reps}")
    gamma0 = 1.0 / (1.0 - rho * rho)
    gamma1 = rho * gamma0
    rows = []
    for k_idx, kind in enumerate(InnovationKind):
        spec = DgpSpec(model="ar1", innovation=kind, T=n, rho=rho)
        rho_hat = np.empty(reps)
        gamma1_hat = np.empty(reps)
        for block in _blocks(reps, _BLOCK):
            seeds = [derive_seed(stream.seed, (stream.stream_index, k_idx, r)) for r in block]
            for r, series in zip(block, gen_series_block(spec, seeds)):
                sigma = autocov_vector(series, 1)
                rho_hat[r] = sigma[1] / sigma[0]
                gamma1_hat[r] = sigma[1]
        rows.append(
            VarianceStudyRow(
                innovation=kind.value,
                n=n,
                reps=reps,
                mean_rho_hat=float(rho_hat.mean()),
                var_root_rho=float(np.var(np.sqrt(n) * (rho_hat - rho), ddof=1)),
                mean_gamma1_hat=float(gamma1_hat.mean()),
                var_root_gamma1=float(np.var(np.sqrt(n) * (gamma1_hat - gamma1), ddof=1)),
            )
        )
    return VarianceStudyReport(rows=tuple(rows), n=n, reps=reps, rho=rho, seed=stream.seed)


@dataclass(frozen=True)
class CoverageRow:
    model: str
    innovation: str
    rho: float
    target: str
    method: str
    coverage: float
    se: float
    order: int
    mean_k_T: float
    reps: int
    T: int
    truth_approximate: bool


@dataclass(frozen=True)
class CoverageReport:
    """Coverage of the simultaneous bands against the scenario truths."""

    rows: tuple[CoverageRow, ...]
    T: int
    reps: int
    alpha: float
    mode: str
    B: int
    seed: int

    def row(self, model: str, innovation, target: str, method: str, rho=None) -> CoverageRow:
        """The one row for a scenario, target and method.

        ``rho=None`` matches any AR(1) coefficient, but only when a single
        row matches: a report holding the same scenario at several
        coefficients raises ``KeyError`` naming them, so ``rho`` must then
        be given.  A lookup that matches no row also raises ``KeyError``.
        """
        innovation = parse_innovation(innovation).value
        key = (model, innovation, target, method)
        matches = [
            r for r in self.rows
            if (r.model, r.innovation, r.target, r.method) == key and (rho is None or r.rho == rho)
        ]
        label = f"{model}:{innovation} {target} {method}"
        if not matches:
            raise KeyError(f"no row for {label}" + ("" if rho is None else f" at rho={rho}"))
        if len(matches) > 1:
            rhos = ", ".join(str(r.rho) for r in matches)
            raise KeyError(f"{len(matches)} rows for {label} (rho={rhos}); pass rho to choose one")
        return matches[0]

    def to_csv(self) -> str:
        return _rows_to_csv(self.rows, CoverageRow)

    def to_json(self) -> dict:
        return {
            "T": self.T,
            "reps": self.reps,
            "alpha": self.alpha,
            "mode": self.mode,
            "B": self.B,
            "seed": self.seed,
            "rows": [asdict(r) for r in self.rows],
        }

    @classmethod
    def from_csv(cls, text: str, T: int, reps: int, alpha: float, mode: str, B: int, seed: int) -> "CoverageReport":
        rows = _rows_from_csv(text, CoverageRow)
        return cls(rows=tuple(rows), T=T, reps=reps, alpha=alpha, mode=mode, B=B, seed=seed)


def coverage_study(
    scenarios,
    T: int,
    reps: int,
    stream: RngStream,
    mode: str = "warp_speed",
    B: int = 500,
    alpha: float = 0.05,
    d: int = 7,
    H=(0, 1, 2, 3),
    I=(1, 2, 3, 4),
    p_max: int = 7,
    methods=METHODS,
    burn_in: int = 1000,
    threads: int = 1,
) -> CoverageReport:
    """Empirical coverage of the wild-bootstrap and sieve bands.

    The AR order of a scenario is selected once, as the modal AIC choice
    (floored at 1) over eleven dedicated pilot series of the same length,
    and held fixed across repetitions.  Re-selecting the order inside every
    repetition would condition each dataset on its own selection event and
    visibly deflate AR-coefficient coverage, while a single pilot draw
    occasionally lands on an atypically overfit order; the modal pilot
    order is the scenario's typical AIC selection.

    Per repetition: simulate a series, run each requested method, and
    compare the repetition's max-deviation statistics against the bands.
    In ``warp_speed`` mode each repetition contributes a single bootstrap
    draw and the quantile is taken over the pooled draws; in ``full`` mode
    each repetition runs B replicates and uses its own quantile.

    ``threads`` is accepted and ignored: the study runs on one thread, and
    BLAS is its only parallelism.
    """
    if reps < 100:
        raise ValueError(f"reps must be >= 100, got {reps}")
    if mode not in ("warp_speed", "full"):
        raise ValueError(f"mode must be 'warp_speed' or 'full', got {mode!r}")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r} (valid: {', '.join(METHODS)})")
    if p_max > d:
        raise ValueError(f"p_max must be <= d so the fitted order fits the lag range, got {p_max} > {d}")
    scenarios = [s if isinstance(s, Scenario) else Scenario.parse(str(s)) for s in scenarios]
    H = normalize_lag_set(H, d, 0, "H")
    I = normalize_lag_set(I, d, 1, "I")
    level = 1.0 - alpha
    B_rep = 1 if mode == "warp_speed" else B
    if "sieve" in methods:  # validated once; the blocks take the values directly
        SieveConfig(p_max=p_max, B=B_rep, alpha=alpha, burn_in=burn_in)
    bandwidth_c = BandwidthRule.auto().c
    n_lags = max(d, _correlogram_lags(T))
    block_size = max(1, _BLOCK // B_rep)
    rows: list[CoverageRow] = []
    for s_idx, scen in enumerate(scenarios):
        sigma_true, approx = true_autocovariances(scen.model, scen.innovation, scen.rho, d)
        spec = DgpSpec(model=scen.model, innovation=scen.innovation, T=T, rho=scen.rho, burn_in=burn_in)
        pilot_orders = []
        for i in range(11):
            pilot = gen_series(replace(spec, seed=derive_seed(stream.seed, (stream.stream_index, s_idx, i, 3))))
            pilot_orders.append(max(1, ar_order_select_aic(pilot, p_max)))
        p_scen = int(np.bincount(pilot_orders).argmax())
        if "wild" in methods:  # validated once, as the sieve's above
            BootstrapConfig(d=d, p=p_scen, H=H, I=I, B=B_rep, alpha=alpha)
        stats = {t: np.empty(reps) for t in TARGETS}
        draws = {m: {t: np.empty(reps) for t in TARGETS} for m in methods}
        covered = {m: {t: np.empty(reps, dtype=bool) for t in TARGETS} for m in methods}
        kts = np.empty(reps)

        def _record(method: str, block: range, deviations) -> None:
            by_target = deviations.by_target()
            for t in TARGETS:
                per_rep = by_target[t].reshape(len(block), B_rep)
                if mode == "warp_speed":
                    draws[method][t][block.start : block.stop] = per_rep[:, 0]
                else:
                    for r, values in zip(block, per_rep):
                        covered[method][t][r] = stats[t][r] <= ecdf_quantile(values, level)

        for block in _blocks(reps, block_size):
            seeds = [derive_seed(stream.seed, (stream.stream_index, s_idx, r, 0)) for r in block]
            sigma_hat, wild_sigma, model_sigma, sieve_sigma = [], [], [], []
            for r, v in zip(block, gen_series_block(spec, seeds)):
                sigma = autocov_vector(v, n_lags)
                k_T = _bandwidth_from_correlogram(sigma, T, bandwidth_c)
                kts[r] = k_T
                sigma_hat.append(sigma[: d + 1])
                if "wild" in methods:
                    residuals = second_order_residual_matrix(v, sigma_hat[-1], d)
                    seed = derive_seed(stream.seed, (stream.stream_index, s_idx, r, 1))
                    wild_sigma.append(
                        _wild_sigma_star(sigma_hat[-1], residuals, multiplier_factor(T, k_T), seed, B_rep)[0]
                    )
                if "sieve" in methods:
                    world = _sieve_world(_fit_sieve_autocov(v, sigma, p_max), d)
                    model_sigma.append(world.sigma)
                    seed = derive_seed(stream.seed, (stream.stream_index, s_idx, r, 2))
                    sieve_sigma.append(_sieve_sigma_star(world, seed, B_rep, burn_in, T, d))
            observed = _max_deviations(np.array(sigma_hat), sigma_true, H, I, p_scen, T).by_target()
            for t in TARGETS:
                stats[t][block.start : block.stop] = observed[t]
            if wild_sigma:
                _record("wild", block, _max_deviations(
                    np.concatenate(wild_sigma), np.repeat(sigma_hat, B_rep, axis=0), H, I, p_scen, T
                ))
            if sieve_sigma:
                _record("sieve", block, _max_deviations(
                    np.concatenate(sieve_sigma), np.repeat(model_sigma, B_rep, axis=0), H, I, p_scen, T
                ))

        mean_kt = float(kts.mean())
        for method in methods:
            for t in TARGETS:
                if mode == "warp_speed":
                    radius = ecdf_quantile(draws[method][t], level)
                    cov = float(np.mean(stats[t] <= radius))
                else:
                    cov = float(np.mean(covered[method][t]))
                rows.append(
                    CoverageRow(
                        model=scen.model,
                        innovation=scen.innovation.value,
                        rho=scen.rho,
                        target=t,
                        method=method,
                        coverage=cov,
                        se=float(np.sqrt(cov * (1.0 - cov) / reps)),
                        order=p_scen,
                        mean_k_T=mean_kt,
                        reps=reps,
                        T=T,
                        truth_approximate=approx,
                    )
                )
    return CoverageReport(
        rows=tuple(rows),
        T=T,
        reps=reps,
        alpha=alpha,
        mode=mode,
        B=B_rep,
        seed=stream.seed,
    )


@dataclass(frozen=True)
class ApproxCheckReport:
    """Kolmogorov-Smirnov distance between max-deviation roots and the oracle."""

    model: str
    innovation: str
    T: int
    reps: int
    ks_distance: float
    truth_k_T: float
    n_oracle: int
    seed: int

    def to_json(self) -> dict:
        return asdict(self)


def gaussian_approx_check(
    spec: DgpSpec,
    T: int,
    reps: int,
    stream: RngStream,
    H=(0, 1, 2, 3),
    n_oracle: int = 100_000,
    truth_length: int = 10**6,
) -> ApproxCheckReport:
    """Compare max_j sqrt(T)|sigma_hat_j - sigma_j| against its Gaussian limit.

    The oracle distribution is the maximum of centered joint normals whose
    covariance is one kernel quadratic-form evaluation on a single long
    realization of the same process.  Reported is the two-sample KS
    statistic between ``reps`` simulated roots at length ``T`` and
    ``n_oracle`` oracle draws.
    """
    if reps < 1000:
        raise ValueError(f"reps must be >= 1000, got {reps}")
    H_idx = np.asarray(sorted(H))
    d = int(H_idx.max())
    sigma_true, _ = true_autocovariances(spec.model, spec.innovation, spec.rho, d)

    truth_seed = derive_seed(stream.seed, (stream.stream_index, 0))
    long_series = gen_series(replace(spec, T=truth_length, seed=truth_seed, stream_index=0))
    k_T = select_bandwidth(long_series, BandwidthRule.auto())
    d_est = max(d, 1)
    est_long = estimate_second_order(long_series, d_est, 1, H_idx, (1,))
    cov = hac_autocov_cov(long_series, est_long, H_idx, k_T)
    oracle = max_abs_normal_sample(cov, n_oracle, RngStream(derive_seed(stream.seed, (stream.stream_index, 1)), 0))

    rep_spec = replace(spec, T=T, stream_index=0)
    roots = np.empty(reps)
    for block in _blocks(reps, _BLOCK):
        seeds = [derive_seed(stream.seed, (stream.stream_index, 2, r)) for r in block]
        for r, series in zip(block, gen_series_block(rep_spec, seeds)):
            sigma_hat = autocov_vector(series, d)
            roots[r] = np.sqrt(T) * np.abs(sigma_hat[H_idx] - sigma_true[H_idx]).max()

    ks = float(scipy.stats.ks_2samp(roots, oracle).statistic)
    return ApproxCheckReport(
        model=spec.model,
        innovation=spec.innovation.value,
        T=T,
        reps=reps,
        ks_distance=ks,
        truth_k_T=float(k_T),
        n_oracle=n_oracle,
        seed=stream.seed,
    )


def _rows_to_csv(rows, row_type) -> str:
    """Serialize dataclass rows to CSV with round-trippable floats."""
    names = [f.name for f in row_type.__dataclass_fields__.values()]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    for row in rows:
        writer.writerow([repr(getattr(row, n)) if isinstance(getattr(row, n), float) else getattr(row, n) for n in names])
    return buf.getvalue()


def _rows_from_csv(text: str, row_type):
    fields = row_type.__dataclass_fields__
    names = list(fields)
    data = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    reader = csv.reader(io.StringIO(data))
    header = next(reader)
    if header != names:
        raise ValueError(f"unexpected CSV header {header}, expected {names}")
    rows = []
    for record in reader:
        if not record:
            continue
        kwargs = {}
        for name, raw in zip(names, record):
            kind = fields[name].type
            if kind == "float":
                kwargs[name] = float(raw)
            elif kind == "int":
                kwargs[name] = int(raw)
            elif kind == "bool":
                kwargs[name] = raw == "True"
            else:
                kwargs[name] = raw
        rows.append(row_type(**kwargs))
    return rows
