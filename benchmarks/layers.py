"""What the traced run wraps, and the per-layer metrics computed from it.

Layers are the modules of ``src/nonlocality_lab``.  The wrapped functions
are the library calls the CLI makes plus the kernels the per-layer metrics
name.  Hot inner helpers (``sgn``, ``great_circle_point``,
``abs_sin_integral``, ``classify_chsh``) run 10^5 to 10^6 times per scan op
and are left unwrapped: a wrapper there would cost more than the work it
measures.  ``_arc_average`` runs about as often, so it gets a bare counter
instead of a span.

All metrics are per pass (one run of the workload's op list); a run reports
the median over its traced passes.  Counts repeat exactly for a given seed.
"""

from __future__ import annotations

import os
from typing import Callable, NamedTuple

from tracer import Probe, Span

PACKAGE = "nonlocality_lab"

SCAN_TAGS = ("200x200", "40x1000", "1000x40")
THEOREM_TAGS = ("n2_6", "n16")

CHECKERS = (
    "correlations.check_no_signaling",
    "correlations.check_outcome_independence",
    "correlations.check_parameter_independence",
    "correlations.locality_check",
)
TABLES = ("pr_box.pr_ideal_table", "pr_box.pr_table_from_hidden", "pr_box.pr_chsh")
ESTIMATE = "singlet_sim.estimate_singlet_correlation"
SAMPLE = "singlet_sim.SphereSampler.sample"
SIGN_PRODUCTS = "singlet_sim._sign_products"
REGION_SCAN = "crypto_bell.region_scan"
SCAN_TO_CSV = "crypto_bell.scan_to_csv"
TAU_AVERAGE = "crypto_bell.tau_average_chsh"
CLOSED_FORM = "crypto_bell.closed_form_chsh"
ARC_AVERAGE = "crypto_bell._arc_average"
REPORT = "entangled_ops.verification_report"
SUBSTREAM = "_rng.substream"


def _file_size(arguments: dict, result) -> dict:
    path = arguments.get("path")
    return {"bytes": os.path.getsize(path) if path and os.path.exists(path) else 0}


SPANNED: dict[str, Probe] = {
    "_rng.derive_seed": Probe(),
    SUBSTREAM: Probe(),
    **{name: Probe() for name in CHECKERS},
    **{name: Probe() for name in TABLES},
    ESTIMATE: Probe(note=lambda a, r: {"rounds": a.get("n", 0)}, alloc=True),
    SAMPLE: Probe(note=lambda a, r: {"points": a.get("n", 0)}),
    SIGN_PRODUCTS: Probe(),
    REGION_SCAN: Probe(note=lambda a, r: {"cells": len(r)}),
    SCAN_TO_CSV: Probe(note=_file_size),
    TAU_AVERAGE: Probe(),
    CLOSED_FORM: Probe(),
    "crypto_bell.singlet_reference": Probe(),
    "crypto_bell.quantum_chsh_reference": Probe(),
    REPORT: Probe(),
    "entangled_ops.theorem_bound": Probe(),
    "entangled_ops.transpose_partner": Probe(),
    "entangled_ops.joint_expectation": Probe(),
    "entangled_ops.single_expectation": Probe(),
    "entangled_ops.square_expectation": Probe(),
    "entangled_ops.coords_from_observable": Probe(),
    "entangled_ops.decompose_observable": Probe(),
    "entangled_ops.kernel_split": Probe(),
    "entangled_ops.curve_partition": Probe(),
}
COUNTED = (ARC_AVERAGE,)

OP_SPAN = "cli.op"


class PassTrace:
    """Spans and counters of one traced pass, with the queries metrics use."""

    def __init__(self, spans: list[Span], counts: dict[str, int], op_tags: dict, stdout_bytes: int):
        self.spans = spans
        self.counts = counts
        self.op_tags = op_tags
        self.stdout_bytes = stdout_bytes
        self._by_sid = {s.sid: s for s in spans}
        self._by_name: dict[str, list[Span]] = {}
        self._child_time: dict[int, float] = {}
        for s in spans:
            self._by_name.setdefault(s.name, []).append(s)
            if s.parent is not None:
                self._child_time[s.parent] = self._child_time.get(s.parent, 0.0) + s.end - s.start

    def named(self, *names: str, tag: str | None = None) -> list[Span]:
        return [
            s for name in names for s in self._by_name.get(name, ())
            if tag is None or self.op_tags.get(s.op) == tag
        ]

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def busy(self, *names: str, tag: str | None = None) -> float:
        """Wall time inside any of ``names``; nested calls count once."""
        total = 0.0
        for s in self.named(*names, tag=tag):
            parent = self._by_sid.get(s.parent)
            while parent is not None and parent.name not in names:
                parent = self._by_sid.get(parent.parent)
            if parent is None:
                total += s.end - s.start
        return total

    def self_time(self, name: str) -> float:
        """Duration of ``name`` spans minus the time their child spans cover.

        Children of one span never overlap (single thread), so the covered
        time is the sum of the direct children's durations.
        """
        return sum(s.end - s.start - self._child_time.get(s.sid, 0.0) for s in self.named(name))

    def attr_total(self, name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in self.named(name))

    def attr_max(self, name: str, key: str) -> float:
        return max((s.attrs.get(key, 0) for s in self.named(name)), default=0)


def _per_second(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


class LayerMetric(NamedTuple):
    name: str
    unit: str
    needs: tuple[str, ...]
    value: Callable[[PassTrace], float]


METRICS = [
    LayerMetric(
        "cli.self_ms_per_op", "ms", (),
        lambda t: 1e3 * t.self_time(OP_SPAN) / max(1, t.calls(OP_SPAN)),
    ),
    LayerMetric("cli.stdout_bytes", "count", (), lambda t: t.stdout_bytes),
    LayerMetric("rng.substream.calls", "count", (SUBSTREAM,), lambda t: t.calls(SUBSTREAM)),
    LayerMetric("rng.substream.busy_s", "s", (SUBSTREAM,), lambda t: t.busy(SUBSTREAM)),
    LayerMetric("correlations.checks.busy_s", "s", CHECKERS, lambda t: t.busy(*CHECKERS)),
    LayerMetric("pr_box.tables.busy_s", "s", TABLES, lambda t: t.busy(*TABLES)),
    LayerMetric("singlet_sim.estimate.calls", "count", (ESTIMATE,), lambda t: t.calls(ESTIMATE)),
    LayerMetric("singlet_sim.estimate.busy_s", "s", (ESTIMATE,), lambda t: t.busy(ESTIMATE)),
    LayerMetric(
        "singlet_sim.rounds_per_s", "1/s", (ESTIMATE,),
        lambda t: _per_second(t.attr_total(ESTIMATE, "rounds"), t.busy(ESTIMATE)),
    ),
    LayerMetric(
        "singlet_sim.estimate.peak_alloc_mb", "MB", (ESTIMATE,),
        lambda t: t.attr_max(ESTIMATE, "peak_alloc") / 2**20,
    ),
    LayerMetric("singlet_sim.sample.busy_s", "s", (SAMPLE,), lambda t: t.busy(SAMPLE)),
    LayerMetric(
        "singlet_sim.sample.points", "count", (SAMPLE,), lambda t: t.attr_total(SAMPLE, "points")
    ),
    LayerMetric(
        "singlet_sim.sign_products.busy_s", "s", (SIGN_PRODUCTS,), lambda t: t.busy(SIGN_PRODUCTS)
    ),
    *[
        LayerMetric(
            f"crypto_bell.region_scan.{tag}.busy_s", "s", (REGION_SCAN,),
            lambda t, tag=tag: t.busy(REGION_SCAN, tag=tag),
        )
        for tag in SCAN_TAGS
    ],
    LayerMetric(
        "crypto_bell.scan_cells_per_s", "1/s", (REGION_SCAN,),
        lambda t: _per_second(t.attr_total(REGION_SCAN, "cells"), t.busy(REGION_SCAN)),
    ),
    LayerMetric("crypto_bell.scan_to_csv.busy_s", "s", (SCAN_TO_CSV,), lambda t: t.busy(SCAN_TO_CSV)),
    LayerMetric(
        "crypto_bell.scan_to_csv.bytes", "count", (SCAN_TO_CSV,),
        lambda t: t.attr_total(SCAN_TO_CSV, "bytes"),
    ),
    LayerMetric(
        "crypto_bell.tau_average_chsh.busy_s", "s", (TAU_AVERAGE,), lambda t: t.busy(TAU_AVERAGE)
    ),
    LayerMetric(
        "crypto_bell.closed_form_chsh.busy_s", "s", (CLOSED_FORM,), lambda t: t.busy(CLOSED_FORM)
    ),
    LayerMetric(
        "crypto_bell.arc_average.calls", "count", (ARC_AVERAGE,),
        lambda t: t.counts.get(ARC_AVERAGE, 0),
    ),
    *[
        LayerMetric(
            f"entangled_ops.report.{tag}.busy_s", "s", (REPORT,),
            lambda t, tag=tag: t.busy(REPORT, tag=tag),
        )
        for tag in THEOREM_TAGS
    ],
    LayerMetric("entangled_ops.report.self_s", "s", (REPORT,), lambda t: t.self_time(REPORT)),
    *[
        LayerMetric(
            f"entangled_ops.{fn}.busy_s", "s", (f"entangled_ops.{fn}",),
            lambda t, fn=fn: t.busy(f"entangled_ops.{fn}"),
        )
        for fn in ("joint_expectation", "decompose_observable", "kernel_split", "curve_partition")
    ],
]

# Filled in by the harness rather than from spans.
TRACING_OVERHEAD = ("bench.tracing_overhead_s", "s")
TAU_AVERAGE_FAIL_FRAC = ("crypto_bell.tau_average.fail_frac", "ratio")


def pass_metrics(trace: PassTrace, missing: list[str]) -> tuple[dict[str, float], list[str]]:
    """Per-layer values of one pass, and the metrics absent because a
    function they need is gone from the program."""
    values, absent = {}, []
    for metric in METRICS:
        if any(name in missing for name in metric.needs):
            absent.append(metric.name)
        else:
            values[metric.name] = float(metric.value(trace))
    return values, absent


def units() -> dict[str, str]:
    table = {m.name: m.unit for m in METRICS}
    table.update(dict([TRACING_OVERHEAD, TAU_AVERAGE_FAIL_FRAC]))
    return table
