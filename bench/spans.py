"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each function named in ``TRACED`` with a wrapper
in every ``secondwild`` module that has bound the name, so calls are caught
whichever module makes them.  A span is (name, parent, start, end); the
spans stay in memory and are written out when the run ends.  Calls made
while ``active`` is false (the benchmark's own checks) are not recorded.
Counts that need a call's arguments or result (factor builds per
``multiplier_factor`` call, Cholesky attempts per ``factorize_psd`` call)
are taken inside the wrapper, at the same boundary as the span.

The program runs with ``threads=1``, so one stack of open spans suffices.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

TRACED = {
    "cli": ("main", "read_series_csv"),
    "series": (
        "autocov_vector",
        "estimate_second_order",
        "yule_walker_fit",
        "second_order_residual_matrix",
        "ar_order_select_aic",
    ),
    "kernels": ("kernel_gram", "select_bandwidth"),
    "hac": ("hac_autocov_cov", "hac_autocorr_cov", "hac_arcoef_cov"),
    "gaussian": ("factorize_psd", "gaussian_max_quantile"),
    "quantiles": ("ecdf_quantile",),
    "bootstrap": ("run_bootstrap", "run_plugin", "multiplier_factor"),
    "sieve": ("ar_sieve_bootstrap",),
    "dgp": ("gen_series", "nlar2_path"),
    "harness": ("coverage_study", "true_autocovariances"),
    "rng": ("derive_seed",),
}

_FACTOR = "gaussian.factorize_psd"


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.hook_s = 0.0
        self.active = True
        self._stack: list[int] = []

    @classmethod
    def install(cls) -> "Tracer":
        tracer = cls()
        modules = [m for name, m in sys.modules.items() if name == "secondwild" or name.startswith("secondwild.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"secondwild.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                key = f"{layer}.{fname}"
                if key == "bootstrap.multiplier_factor":
                    wrapper = tracer._wrap(key, original, around=tracer._count_builds)
                elif key == _FACTOR:
                    wrapper = tracer._wrap(key, original, after=tracer._count_attempts)
                else:
                    wrapper = tracer._wrap(key, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        rng_stream = sys.modules["secondwild.rng"].RngStream
        rng_stream.generator = tracer._wrap("rng.RngStream.generator", rng_stream.generator)
        return tracer

    def _wrap(self, name, func, after=None, around=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            sid = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(sid)
            try:
                if around is not None:
                    return around(func, args, kwargs)
                result = func(*args, **kwargs)
                if after is not None:
                    started = clock()
                    after(args, result)
                    self.hook_s += clock() - started
                return result
            finally:
                stack.pop()
                spans[sid][3] = clock()

        return wrapper

    def _count_builds(self, func, args, kwargs):
        before = self.counts["factor_builds"]
        result = func(*args, **kwargs)
        if self.counts["factor_builds"] == before:
            self.counts["factor_hits"] += 1
        return result

    def _count_attempts(self, args, factor):
        """Attempts = position of the returned jitter in JITTER_LEVELS + 1."""
        self.counts["factor_builds"] += 1
        M = np.asarray(getattr(args[0], "matrix", args[0]), dtype=float)
        scale = float(np.abs(M).max(initial=0.0))
        if scale == 0.0:
            return
        levels = np.asarray(sys.modules["secondwild.gaussian"].JITTER_LEVELS) * (1.0 + scale)
        self.counts["cholesky_attempts"] += int(np.argmin(np.abs(levels - factor.jitter))) + 1

    def totals(self) -> dict:
        """Per span name: calls, total seconds, and self seconds."""
        child = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, (name, parent, start, end) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[sid]
        return out

    def overhead_s(self) -> float:
        """The tracer's own cost: spans times the measured cost of one, plus hooks."""
        def noop():
            return None

        probe = Tracer()
        wrapped = probe._wrap("probe", noop)
        n = 20_000
        started = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(n):
            wrapped()
        per_span = max(0.0, (time.perf_counter() - started - bare) / n)
        return len(self.spans) * per_span + self.hook_s

    def layer_metrics(self, names, per: int) -> dict[str, float]:
        """Values of the named per-layer metrics, each divided by ``per`` operations."""
        totals = self.totals()
        factor_calls = totals["bootstrap.multiplier_factor"]["calls"]
        psd_calls = totals[_FACTOR]["calls"]
        derived = {
            "bootstrap.multiplier_factor.hit_ratio": self.counts["factor_hits"] / factor_calls if factor_calls else 0.0,
            f"{_FACTOR}.cholesky_attempts": self.counts["cholesky_attempts"] / psd_calls if psd_calls else 0.0,
            "trace.overhead_s": self.overhead_s() / per,
        }
        out = {}
        for metric in names:
            if metric in derived:
                out[metric] = derived[metric]
                continue
            span, _, stat = metric.rpartition(".")
            if span not in _all_span_names() or stat not in ("calls", "s", "self_s"):
                raise KeyError(f"no traced value for per-layer metric {metric!r}")
            out[metric] = totals[span][stat] / per if span in totals else 0.0
        return out

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "names": names,
            "spans": [[index[n], parent, start, end] for n, parent, start, end in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w") as f:
            json.dump(payload, f, separators=(",", ":"))


def _all_span_names() -> set[str]:
    names = {f"{layer}.{fname}" for layer, fnames in TRACED.items() for fname in fnames}
    names.add("rng.RngStream.generator")
    return names
