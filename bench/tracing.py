"""Per-layer counters for a traced run, installed from outside akzkit.

Each layer function is replaced by a wrapper in every akzkit module that
holds it under its own name (so `pbn.compose_one_minus_exp`, imported from
`exact_series`, is wrapped as well).  A wrapper counts calls and adds its
self time: its wall time minus the time spent in nested wrapped calls.
The untraced run installs nothing, so its timings carry no overhead.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, metric name).  Two attributes may share a metric.
LAYERS = (
    ("exact_series", "mpl_coeffs", "exact_series.mpl_coeffs"),
    ("exact_series", "compose_one_minus_exp", "exact_series.compose_one_minus_exp"),
    ("exact_series", "TruncatedSeries.divide", "exact_series.TruncatedSeries.divide"),
    ("exact_series", "TruncatedSeries.__mul__", "exact_series.TruncatedSeries.mul"),
    ("exact_series", "TruncatedSeries.compose", "exact_series.TruncatedSeries.compose"),
    ("exact_series", "negative_mpl", "exact_series.negative_mpl"),
    ("pbn", "multi_poly_bernoulli", "pbn.multi_poly_bernoulli"),
    ("pbn", "multi_poly_bernoulli_brute", "pbn.multi_poly_bernoulli_brute"),
    ("pbn", "poly_bernoulli_B_stirling", "pbn.poly_bernoulli_stirling"),
    ("pbn", "poly_bernoulli_C_stirling", "pbn.poly_bernoulli_stirling"),
    ("pbn", "finite_mzv_mod_p", "pbn.finite_mzv_mod_p"),
    ("mzv_numeric", "mzv", "mzv_numeric.mzv"),
    ("mzv_numeric", "t0_value", "mzv_numeric.t0_value"),
    ("mzv_numeric", "polylog_near_one", "mzv_numeric.polylog_near_one"),
    ("mzv_numeric", "mzv_direct", "mzv_numeric.mzv_direct"),
    ("mzv_numeric", "t0_direct", "mzv_numeric.t0_direct"),
    ("level2", "psi_depth1_integral", "level2.psi_depth1_integral"),
    ("level2", "psi_at_positive", "level2.psi_at_positive"),
    ("level2", "ath_coeffs", "level2.ath_coeffs"),
    ("ak_zeta", "eta_symmetric_oracle", "ak_zeta.eta_symmetric_oracle"),
    ("ak_zeta", "xi_series_oracle", "ak_zeta.xi_series_oracle"),
    ("ak_zeta", "xi_at_positive", "ak_zeta.xi_at_positive"),
    ("ak_zeta", "eta_at_positive", "ak_zeta.eta_at_positive"),
    ("reports", "reports_to_document", "reports.reports_to_document"),
)

# Layers whose call count is reported next to their self time.
COUNTED = (
    "exact_series.mpl_coeffs",
    "exact_series.compose_one_minus_exp",
    "exact_series.TruncatedSeries.divide",
    "pbn.multi_poly_bernoulli",
    "pbn.multi_poly_bernoulli_brute",
    "mzv_numeric.mzv",
    "mzv_numeric.t0_value",
    "mzv_numeric.polylog_near_one",
    "level2.psi_depth1_integral",
)


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.task_s: dict[str, float] = {}
        self._local = threading.local()

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - nested
                if stack:
                    stack[-1] += elapsed

        return traced

    def install(self) -> None:
        """Wrap every layer of LAYERS wherever an akzkit module holds it."""
        modules = [m for key, m in sys.modules.items() if key == "akzkit" or key.startswith("akzkit.")]
        for module_name, attr, metric in LAYERS:
            home = sys.modules[f"akzkit.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, method, self.wrap(metric, getattr(cls, method)))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(metric, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for metric in dict.fromkeys(m for _, _, m in LAYERS):
            if metric in COUNTED:
                out[f"{metric}.calls"] = self.calls[metric]
            out[f"{metric}.self_s"] = self.self_s[metric]
        return out
