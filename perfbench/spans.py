"""Spans around calls into merostar's layers, kept in memory.

`Tracer.install()` replaces each public function at every name its callers
bind (for example `merostar.classes.eval_g` and `merostar.cli.eval_g`) with a
wrapper that records a span; `uninstall()` puts the originals back. Self time
is a span's duration minus the time its child spans cover. Nothing in
merostar is edited: the wrappers live only in the benchmark process.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

# metric prefix -> (modules that bind the names, function names)
TARGETS = {
    "series.eval": (
        ("series", "classes", "convolution", "tme", "partial_sums", "harness", "cli"),
        ("eval_g", "eval_g_prime"),
    ),
    "series.parse": (("series", "harness"), ("deserialize_coeffs",)),
    "classes.check": (
        ("classes", "convolution", "harness", "cli"),
        ("check_me", "check_mf", "check_starlike", "check_remark2"),
    ),
    "classes.margins": (
        ("classes", "harness", "tme"),
        ("me_margins", "me_functional", "coeff_sufficient_me"),
    ),
    "classes.fold": (("classes", "convolution", "tme"), ("_verdict_from_margins",)),
    "convolution.thm31": (("convolution", "harness"), ("check_thm31", "thm31_margins")),
    "convolution.neighborhood": (
        ("convolution", "harness"),
        ("check_thm32", "stability_premise", "neighborhood_sample"),
    ),
    "convolution.convolve": (("convolution", "harness"), ("convolve_with_kernel", "kernel")),
    "tme.exact": (("tme",), ("check_tme_exact", "decompose", "recompose")),
    "tme.distortion": (("tme",), ("check_distortion", "distortion_bounds")),
    "tme.axis": (("tme",), ("refute_on_axis",)),
    "partial_sums.ratio": (("partial_sums",), ("check_ratio_bounds",)),
    "extremal.build": (
        ("extremal",),
        (
            "theorem21_extremal",
            "theorem23_extremal",
            "remark1_witness",
            "mf_not_me_witness",
            "starlike_not_mf_witness",
        ),
    ),
    "harness.suite": (("harness",), ("run_suite",)),
    "harness.sampler": (
        ("harness",),
        ("sample_certified_member", "sample_hypothesis_member", "sample_tme_member", "sample_wild_function"),
    ),
    "harness.classify": (("harness",), ("classify_me", "classify_tme")),
    "harness.save_report": (("harness",), ("save_report",)),
    "harness.load": (("harness",), ("load_series", "load_tme")),
    "cli.main": (("cli",), ("main",)),
    "cli.csv": (("cli",), ("_dump_margin_csv",)),
    "cli.margins": (("cli",), ("_margins_for",)),
}

STATUSES = ("CertifiedMember", "SampledMember", "NonMember", "Indeterminate")


class Tracer:
    """Records (layer, op, start, duration, self time, parent) per call."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[list] = []  # [span index, child time]
        self._saved: list[tuple] = []
        self._grid_arrays: list = []
        self.counts = defaultdict(float)

    def begin_op(self, op: int) -> None:
        """Start a new op; grid arrays of earlier ops are released."""
        self.op = op
        self._grid_arrays.clear()

    # ------------------------------------------------------------ wrapping
    def _wrap(self, layer: str, fn, probe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append([index, 0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                _, child = self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dt
                self.spans[index] = (layer, self.op, t0, dt, dt - child, parent)
            if probe is not None:
                probe(args, result)
            return result

        return wrapper

    def _probe_eval(self, coeffs_attr, args, result):
        f, z = args[0], args[1]
        points = int(np.size(z))
        self.counts["series.eval_points"] += points
        # Horner's method does one multiply-add per point and coefficient
        self.counts["series.eval_coeff_points"] += points * (len(getattr(f, coeffs_attr)) - 1)
        if coeffs_attr == "g_coeffs" and any(z is a for a in self._grid_arrays):
            self.counts["grid_evals"] += 1

    def _probe_fold(self, args, verdict):
        self.counts[f"classes.verdicts.{verdict.status.value}"] += 1
        self.counts["classes.samples_checked"] += verdict.samples_checked
        if not np.isfinite(verdict.min_margin):
            self.counts["classes.nonfinite_verdicts"] += 1
        if any(args[1] is a for a in self._grid_arrays):
            self.counts["grid_folds"] += 1

    def install(self):
        from merostar import series

        probes = {
            "eval_g": functools.partial(self._probe_eval, "g_coeffs"),
            "eval_g_prime": functools.partial(self._probe_eval, "g_prime_coeffs"),
            "_verdict_from_margins": self._probe_fold,
        }
        wrapped = {}
        for layer, (modules, names) in TARGETS.items():
            for mod_name in modules:
                mod = importlib.import_module(f"merostar.{mod_name}")
                for name in names:
                    fn = getattr(mod, name, None)
                    if fn is None:
                        continue
                    if fn not in wrapped:
                        wrapped[fn] = self._wrap(layer, fn, probes.get(name))
                    self._saved.append((mod, name, fn))
                    setattr(mod, name, wrapped[fn])

        grid_prop = series.DiscGrid.__dict__["points"]
        tracer = self

        def points(grid):
            arr = grid_prop.func(grid)
            tracer._grid_arrays.append(arr)
            return arr

        prop = functools.cached_property(self._wrap("series.grid", points))
        prop.__set_name__(series.DiscGrid, "points")
        self._saved.append((series.DiscGrid, "points", grid_prop))
        setattr(series.DiscGrid, "points", prop)

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        self._grid_arrays.clear()

    # ------------------------------------------------------------- results
    def layer_metrics(self, op_seconds: float, n_ops: int) -> dict:
        """Per-op self times (ms/op), per-op counts and shares of op time."""
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for layer, _, _, _, self_time, _ in self.spans:
            self_s[layer] += self_time
            calls[layer] += 1
        per_op = 1.0 / max(n_ops, 1)
        base = max(op_seconds, 1e-12)

        def ms(layer):
            return self_s[layer] * 1000.0 * per_op

        def share(*layers):
            return sum(self_s[x] for x in layers) / base

        out = {
            "series.eval_calls": calls["series.eval"] * per_op,
            "series.eval_points": self.counts["series.eval_points"] * per_op,
            "series.eval_coeff_points": self.counts["series.eval_coeff_points"] * per_op,
            "series.eval_ms": ms("series.eval"),
            "series.eval_share": share("series.eval"),
            "series.grid_ms": ms("series.grid"),
            "series.parse_ms": ms("series.parse"),
            "classes.check_calls": calls["classes.check"] * per_op,
            "classes.check_ms": ms("classes.check") + ms("classes.margins"),
            "classes.fold_calls": calls["classes.fold"] * per_op,
            "classes.fold_ms": ms("classes.fold"),
            "classes.samples_checked": self.counts["classes.samples_checked"] * per_op,
        }
        verdicts = {s: self.counts[f"classes.verdicts.{s}"] for s in STATUSES}
        total = sum(verdicts.values())
        for s in STATUSES:
            out[f"classes.verdicts.{s}"] = verdicts[s] * per_op
        decided = total - verdicts["Indeterminate"]
        out["classes.decided_share"] = decided / total if total else 0.0
        out["classes.nonfinite_verdicts"] = self.counts["classes.nonfinite_verdicts"] * per_op
        for layer in (
            "convolution.thm31",
            "convolution.neighborhood",
            "convolution.convolve",
            "tme.exact",
            "tme.distortion",
            "tme.axis",
            "partial_sums.ratio",
            "extremal.build",
            "harness.classify",
            "harness.save_report",
            "harness.load",
            "harness.sampler",
            "cli.main",
            "cli.csv",
            "cli.margins",
        ):
            out[f"{layer}_ms"] = ms(layer)
        out["harness.suite_self_ms"] = ms("harness.suite")
        for module in ("convolution", "tme", "partial_sums", "extremal"):
            out[f"{module}.share"] = share(*(x for x in TARGETS if x.startswith(module + ".")))
        out["harness.io_share"] = share("harness.save_report", "harness.load", "series.parse")
        out["cli.csv_share"] = share("cli.csv")
        folds = self.counts["grid_folds"]
        out["cli.evals_per_verdict"] = self.counts["grid_evals"] / folds if folds else 0.0
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        keys = ("layer", "op", "start", "dur", "self", "parent")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
