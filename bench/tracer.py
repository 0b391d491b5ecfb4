"""Spans around the package's layer boundaries, recorded from outside the package.

:class:`Tracer` replaces public functions at every module attribute that
binds them (``invariants.eta``, ``catalog.eta``, ``cli.eta`` ...), so calls
through any import path are seen.  A function that no longer exists is
reported as absent instead of failing the run.  Spans are kept in memory as
``[name, parent index, start, end, extra]`` and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

PACKAGE = "flateta"
MIB = float(1 << 20)


def _patterns(args, kwargs, result):
    """Sign patterns the 2^k scan covers for one table: 2^(k-1), from k."""
    k = getattr(args[0], "k", None) if args else None
    return 1 << (k - 1) if isinstance(k, int) and k >= 1 else 0


def _nbytes(value) -> int:
    if hasattr(value, "nbytes"):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    return 0


def _rep_bytes(args, kwargs, result):
    fields = getattr(result, "__dict__", {})
    return sum(_nbytes(v) for v in fields.values())


# (module, function, extra recorder) for every wrapped boundary.
TARGETS = (
    ("cli", "main", None),
    ("catalog", "sweep_entries", None),
    ("catalog", "build_catalog_entry", None),
    ("catalog", "entries_to_json", None),
    ("catalog", "entries_to_csv", None),
    ("catalog", "entries_to_text", None),
    ("verification", "run_verification", None),
    ("verification", "oracle_agreement_verdict", None),
    ("invariants", "eta", None),
    ("invariants", "harmonic_dim", None),
    ("invariants", "eta_difference", None),
    ("invariants", "prime_integrality_check", None),
    ("invariants", "parity_difference_check", None),
    ("invariants", "positivity_threshold_report", None),
    ("combinatorics", "multiplicity_table", _patterns),
    ("zeta", "eta_numeric", None),
    ("oracle", "build_rep", _rep_bytes),
    ("oracle", "clifford_defect", None),
    ("oracle", "rotor_commutation_defect", None),
    ("oracle", "alpha_power_defect", None),
    ("oracle", "lift_power_defects", None),
    ("oracle", "conjugation_defect", None),
    ("oracle", "eigenbasis_check", None),
    ("oracle", "windowed_spectrum", None),
    ("oracle", "spectrum_table_mismatches", None),
    ("oracle", "zero_class_asymmetries", None),
    ("oracle", "kernel_dim_oracle", None),
)

_CHECKS = ("invariants.prime_integrality_check", "invariants.parity_difference_check",
           "invariants.positivity_threshold_report")
_RENDER = ("catalog.entries_to_json", "catalog.entries_to_csv", "catalog.entries_to_text")

# Per-layer metric -> (kind, span names or a layer prefix, unit).
#   calls: number of spans; total: summed duration of spans not nested in
#   another span of the same set; self: summed self time; extra_sum and
#   extra_max: the recorded extras.
METRICS = {
    "combinatorics.table_calls": ("calls", ("combinatorics.multiplicity_table",), "count"),
    "combinatorics.table_s": ("total", ("combinatorics.multiplicity_table",), "s"),
    "combinatorics.patterns": ("extra_sum", ("combinatorics.multiplicity_table",), "count"),
    "invariants.eta_calls": ("calls", ("invariants.eta",), "count"),
    "invariants.self_s": ("self", "invariants.", "s"),
    "invariants.checks_s": ("total", _CHECKS, "s"),
    "oracle.build_rep_s": ("total", ("oracle.build_rep",), "s"),
    "oracle.clifford_s": ("total", ("oracle.clifford_defect",), "s"),
    "oracle.rotors_s": ("total", ("oracle.rotor_commutation_defect",), "s"),
    "oracle.powers_s": ("total", ("oracle.alpha_power_defect", "oracle.lift_power_defects"), "s"),
    "oracle.conjugation_s": ("total", ("oracle.conjugation_defect",), "s"),
    "oracle.eigenbasis_s": ("total", ("oracle.eigenbasis_check",), "s"),
    "oracle.spectrum_s": (
        "total",
        ("oracle.windowed_spectrum", "oracle.spectrum_table_mismatches", "oracle.zero_class_asymmetries"),
        "s",
    ),
    "oracle.kernel_s": ("total", ("oracle.kernel_dim_oracle",), "s"),
    "oracle.rep_mb": ("extra_max", ("oracle.build_rep",), "MiB"),
    "verification.suite_calls": ("calls", ("verification.run_verification",), "count"),
    "verification.self_s": ("self", "verification.", "s"),
    "zeta.eta_numeric_s": ("total", ("zeta.eta_numeric",), "s"),
    "catalog.row_calls": ("calls", ("catalog.build_catalog_entry",), "count"),
    "catalog.row_self_s": ("self", ("catalog.build_catalog_entry",), "s"),
    "catalog.render_s": ("total", _RENDER, "s"),
    "cli.self_s": ("self", ("cli.main",), "s"),
}


class Tracer:
    """Installs span-recording wrappers and derives per-layer metrics from spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _wrap(self, name, fn, extra):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists, at every package attribute bound to it."""
        self.absent = []
        for module_name, func_name, extra in TARGETS:
            name = f"{module_name}.{func_name}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                module = None
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, extra)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one batch of spans (one pass over the op list)."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def selected(names):
        if isinstance(names, str):
            return [i for i, s in enumerate(spans) if s[0].startswith(names)]
        return [i for i, s in enumerate(spans) if s[0] in names]

    def outermost(indices):
        chosen = set(indices)
        result = []
        for i in indices:
            parent = spans[i][1]
            while parent >= 0 and parent not in chosen:
                parent = spans[parent][1]
            if parent < 0:
                result.append(i)
        return result

    metrics = {}
    for metric, (kind, names, _unit) in METRICS.items():
        idx = selected(names)
        if kind == "calls":
            value = len(idx)
        elif kind == "total":
            value = sum(spans[i][3] - spans[i][2] for i in outermost(idx))
        elif kind == "self":
            value = sum(spans[i][3] - spans[i][2] - child_time[i] for i in idx)
        elif kind == "extra_sum":
            value = sum(spans[i][4] for i in idx)
        else:
            value = max((spans[i][4] for i in idx), default=0) / MIB
        metrics[metric] = value
    return metrics


def median_metrics(batches: list[dict[str, float]]) -> dict[str, float]:
    return {m: statistics.median(b[m] for b in batches) for m in METRICS}
