"""Span tracing from outside the program.

``Tracer`` replaces public functions in the ``lsgt`` module namespaces the
program calls them through with timing wrappers.  Spans are aggregated per
(name, parent) in memory: call count, total time and self time (total minus
the time covered by child spans).  A name that the program no longer has is
recorded as absent and skipped.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

# the kernels that sampler.sweep calls, in sweep order
SWEEP_KERNELS = (
    "update_omega2",
    "update_chi2",
    "update_nu_grid",
    "update_gamma",
    "update_rho_gamma_grouped",
    "update_lambda_b1",
    "update_smoothing_mh",
    "update_seasonals_mh",
    "update_horseshoe",
    "update_rho_grid",
    "update_tau_grid",
    "update_phi_grid",
    "update_nu_collapsed",
)

# (module, attribute looked up by the caller, layer the function belongs to)
SAMPLER_CALLS = (
    [("lsgt.sampler", "sweep", "sampler")]
    + [("lsgt.sampler", k, "sampler") for k in SWEEP_KERNELS]
    + [("lsgt.sampler", k, "model") for k in (
        "run_recursion", "negative_log_likelihood",
        "recompute_yhat", "recompute_sigma2", "recompute_trend_path")]
    + [("lsgt.sampler", k, "gradients") for k in ("smoothing_gradient", "seasonal_gradient")]
    + [("lsgt.sampler", k, "dists") for k in ("sample_inverse_gamma", "sample_truncated_normal")]
)
HARNESS_CALLS = [
    ("lsgt.forecast", "run_recursion", "model"),
    ("lsgt.harness", "fit", "sampler"),
    ("lsgt.harness", "simulate_paths", "forecast"),
    ("lsgt.harness", "evaluate_forecast", "harness"),
]


class Tracer:
    """Install with ``with Tracer() as tr:``; originals are restored on exit."""

    def __init__(self, calls=SAMPLER_CALLS + HARNESS_CALLS):
        self.calls = calls
        self.stats: dict[tuple[str, str | None], list] = {}   # -> [count, total_s, self_s]
        self.results: dict[str, list] = {}                    # span name -> return values kept
        self.keep_results: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        import importlib

        for module_name, attr, layer in self.calls:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, f"{layer}.{attr}"))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def keep(self, span_name: str) -> None:
        """Keep the return values of every call of ``span_name``."""
        self.keep_results.add(span_name)

    def _wrap(self, fn, name: str):
        stack, stats, results = self._stack, self.stats, self.results
        keep = self.keep_results
        clock = time.perf_counter

        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = stats.get((name, parent))
                if rec is None:
                    rec = stats[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if name in keep:
                results.setdefault(name, []).append(out)
            return out

        span.__wrapped__ = fn
        return span

    # -- aggregate views --------------------------------------------------

    def sums(self, name: str, parent=lambda p: True) -> tuple[int, float]:
        """(calls, total seconds) of the spans ``name`` whose parent passes ``parent``."""
        count, total = 0, 0.0
        for (n, p), (c, t, _) in self.stats.items():
            if n == name and parent(p):
                count, total = count + c, total + t
        return count, total

    def write(self, path: Path) -> None:
        spans = [
            {"name": n, "parent": p, "count": r[0], "total_s": r[1], "self_s": r[2]}
            for (n, p), r in sorted(self.stats.items(), key=lambda kv: -kv[1][1])
        ]
        path.write_text(json.dumps({"spans": spans, "absent": self.absent}, indent=1) + "\n")
