"""Which qmetro calls the traced run wraps, and the per-layer metrics.

The layers are qmetro's modules: cli, scenarios, kernels, fisher, states,
povm, tomography and serialize. Each entry of ``WRAPPED`` names a module
attribute that qmetro looks up at call time. A function imported into
several modules is wrapped in each module that calls it, under one span
name. Classes are never wrapped, because qmetro tests ``isinstance``
against them.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict

from tracing import Tracer, aggregate


def _kappa_status(counters, args, kwargs, result):
    counters["kernels.kappa.calls"] += 1
    counters["kernels.kappa.ok"] += result[3] == 0


def _optimization(counters, args, kwargs, result):
    counters["scenarios.evals"] += args[0].evaluations


def _search(counters, args, kwargs, result):
    counters["scenarios.trials"] += result.trials


def _mle(counters, args, kwargs, result):
    counters["tomography.mle_iterations"] += result.iterations
    counters["tomography.converged"] += result.converged
    counters["tomography.floored_events"] += result.floored_events


def _write(counters, args, kwargs, result):
    counters["cli.bytes_written"] += len(args[1].encode("utf-8"))


#: (module, attribute, span name, counter hook)
WRAPPED = (
    ("qmetro.cli", "main", "cli.main", None),
    ("qmetro.cli", "run", "cli.run", None),
    ("qmetro.serialize", "atomic_write_text", "serialize.atomic_write_text",
     _write),
    ("qmetro.cli", "kappa_scan", "scenarios.kappa_scan", None),
    ("qmetro.cli", "random_collective_search",
     "scenarios.random_collective_search", _search),
    ("qmetro.scenarios", "optimize_kappa", "scenarios.optimize_kappa", None),
    ("qmetro.scenarios", "_maximize", "scenarios.maximize", _optimization),
    ("qmetro.scenarios", "minimize", "scenarios.minimize", None),
    ("qmetro.scenarios", "evaluate_kappa", "scenarios.evaluate_kappa", None),
    ("qmetro.scenarios", "single_copy_qfi_diagonal",
     "scenarios.single_copy_qfi_diagonal", None),
    ("qmetro.kernels", "kappa_phase_dephasing",
     "kernels.kappa_phase_dephasing", _kappa_status),
    ("qmetro.kernels", "kappa_two_phase", "kernels.kappa_two_phase",
     _kappa_status),
    ("qmetro.kernels", "mle_iterate", "kernels.mle_iterate", None),
    ("qmetro.kernels", "fisher_matrix", "kernels.fisher_matrix", None),
    ("qmetro.scenarios", "probe_with_derivatives",
     "states.probe_with_derivatives", None),
    ("qmetro.scenarios", "measurement_probabilities",
     "fisher.measurement_probabilities", None),
    ("qmetro.scenarios", "classical_fi", "fisher.classical_fi", None),
    ("qmetro.scenarios", "kappa", "fisher.kappa", None),
    ("qmetro.scenarios", "qfi_matrix", "fisher.qfi_matrix", None),
    ("qmetro.scenarios", "sld_operators", "fisher.sld_operators", None),
    ("qmetro.cli", "bell_povm", "povm.build", None),
    ("qmetro.cli", "cs_gate_povm", "povm.build", None),
    ("qmetro.cli", "load_povm", "povm.build", None),
    ("qmetro.povm", "bell_povm", "povm.build", None),
    ("qmetro.cli", "validate_povm", "povm.validate", None),
    ("qmetro.cli", "simulate_counts", "tomography.simulate_counts", None),
    ("qmetro.tomography", "simulate_counts", "tomography.simulate_counts",
     None),
    ("qmetro.cli", "counts_to_csv", "tomography.counts_to_csv", None),
    ("qmetro.cli", "load_counts", "tomography.load_counts", None),
    ("qmetro.cli", "reference_states", "tomography.reference_states", None),
    ("qmetro.tomography", "reference_states", "tomography.reference_states",
     None),
    ("qmetro.cli", "mle_reconstruct", "tomography.mle_reconstruct", _mle),
    ("qmetro.tomography", "mle_reconstruct", "tomography.mle_reconstruct",
     _mle),
    ("qmetro.tomography", "monte_carlo_uncertainty",
     "tomography.monte_carlo_uncertainty", None),
)

LAYERS = ("cli", "scenarios", "kernels", "fisher", "states", "povm",
          "tomography", "serialize")

#: the span the benchmark opens around each pass; its self time is the
#: benchmark's own glue
PASS_SPAN = "bench.pass"


def install(tracer: Tracer) -> None:
    for module, attr, name, hook in WRAPPED:
        tracer.wrap(module, attr, name, hook)


def current() -> dict[tuple[str, str], object]:
    """(module, attribute) -> the object it holds now, for every entry of
    WRAPPED; compare by identity to see that tracing left nothing behind."""
    return {(m, a): getattr(importlib.import_module(m), a)
            for m, a, _, _ in WRAPPED}


def tail(samples) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(samples)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - q) / 100.0 >= 10.0:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return q, cuts[round(q * 10) - 1]
    return None


#: name -> unit of every per-layer metric
PER_LAYER = {
    "kernels.kappa_phase_dephasing.calls": "count",
    "kernels.kappa_phase_dephasing.ns_per_call": "ns",
    "kernels.kappa_phase_dephasing.share": "ratio",
    "kernels.kappa_two_phase.calls": "count",
    "kernels.kappa_two_phase.ns_per_call": "ns",
    "kernels.kappa_two_phase.share": "ratio",
    "kernels.kappa.ok_ratio": "ratio",
    "kernels.mle_iterate.calls": "count",
    "kernels.mle_iterate.s": "s",
    "kernels.mle_iterate.share": "ratio",
    "kernels.fisher_matrix.calls": "count",
    "kernels.self_s": "s",
    "scenarios.optimize_calls": "count",
    "scenarios.evals": "count",
    "scenarios.evals_per_point": "count",
    "scenarios.point_p50_ms": "ms",
    "scenarios.point_tail_ms": "ms",
    "scenarios.refine_self_s": "s",
    "scenarios.self_s": "s",
    "scenarios.trials": "count",
    "scenarios.evaluate_kappa.calls": "count",
    "scenarios.evaluate_kappa.us_per_call": "us",
    "scenarios.evaluate_kappa.share": "ratio",
    "scenarios.single_copy_qfi_diagonal.calls": "count",
    "scenarios.single_copy_qfi_diagonal.us_per_call": "us",
    "states.probe_with_derivatives.calls": "count",
    "states.probe_with_derivatives.us_per_call": "us",
    "states.self_s": "s",
    "fisher.classical_fi.calls": "count",
    "fisher.classical_fi.us_per_call": "us",
    "fisher.kappa.calls": "count",
    "fisher.kappa.us_per_call": "us",
    "fisher.self_s": "s",
    "tomography.mle_calls": "count",
    "tomography.mle_iterations": "count",
    "tomography.ms_per_iteration": "ms",
    "tomography.converged_ratio": "ratio",
    "tomography.floored_events": "count",
    "tomography.mc_failed": "count",
    "tomography.simulate_s": "s",
    "tomography.load_counts_s": "s",
    "tomography.self_s": "s",
    "povm.build_s": "s",
    "povm.validate_s": "s",
    "povm.self_s": "s",
    "cli.run_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "cli.self_s": "s",
    "serialize.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 when nothing was attempted."""
    return num / den if den else 0.0


TIME_UNITS = ("s", "ms", "us", "ns")


def per_layer_metrics(tracer: Tracer, traced_wall_s: float,
                      untraced_wall_s: float,
                      slowdown: float) -> dict[str, float]:
    """Per-layer metrics per traced pass, from the tracer's spans and
    counters. Counts and times are averages over the traced passes. Span
    times are divided by the traced passes' CPU slowdown, as wall_s is; the
    trace.* wall times are the rescaled medians of the traced and untraced
    passes.
    """
    passes = tracer.trace_id
    stats = aggregate(tracer.spans)
    c = tracer.counters

    def calls(name):
        return stats[name].calls / passes if name in stats else 0.0

    def total_s(name):
        return stats[name].total_ns / 1e9 / passes if name in stats else 0.0

    def per_call(name, scale):
        return _ratio(total_s(name) * scale, calls(name))

    def layer_self_s(layer):
        return sum(s.self_ns for n, s in stats.items()
                   if n.split(".", 1)[0] == layer) / 1e9 / passes

    pass_s = total_s(PASS_SPAN)
    # one optimized point (grid point or search trial) per maximize span;
    # the tail is taken within each pass, so its percentile depends only on
    # the points per pass, and then the median over passes
    points: dict[int, list[int]] = defaultdict(list)
    for s in tracer.spans:
        if s.name == "scenarios.maximize":
            points[s.trace_id].append(s.duration_ns)
    tails = [tail(p) for p in points.values()]
    point_tail = statistics.median(t[1] for t in tails) \
        if tails and None not in tails else 0.0
    traced, untraced = traced_wall_s, untraced_wall_s
    iterations = c["tomography.mle_iterations"] / passes
    m = {
        "kernels.kappa.ok_ratio": _ratio(c["kernels.kappa.ok"],
                                         c["kernels.kappa.calls"]),
        "kernels.mle_iterate.calls": calls("kernels.mle_iterate"),
        "kernels.mle_iterate.s": total_s("kernels.mle_iterate"),
        "kernels.fisher_matrix.calls": calls("kernels.fisher_matrix"),
        "scenarios.optimize_calls": calls("scenarios.maximize"),
        "scenarios.evals": c["scenarios.evals"] / passes,
        "scenarios.evals_per_point": _ratio(c["scenarios.evals"] / passes,
                                            calls("scenarios.maximize")),
        "scenarios.point_p50_ms": statistics.median(
            statistics.median(p) for p in points.values()) / 1e6
            if points else 0.0,
        "scenarios.point_tail_ms": point_tail / 1e6,
        "scenarios.refine_self_s": (stats["scenarios.minimize"].self_ns / 1e9
                                    / passes
                                    if "scenarios.minimize" in stats else 0.0),
        "scenarios.trials": c["scenarios.trials"] / passes,
        "tomography.mle_calls": calls("tomography.mle_reconstruct"),
        "tomography.mle_iterations": iterations,
        "tomography.ms_per_iteration": _ratio(
            total_s("kernels.mle_iterate") * 1e3, iterations),
        "tomography.converged_ratio": _ratio(
            c["tomography.converged"] / passes,
            calls("tomography.mle_reconstruct")),
        "tomography.floored_events": c["tomography.floored_events"] / passes,
        "tomography.mc_failed": c["tomography.mc_failed"] / passes,
        "tomography.simulate_s": total_s("tomography.simulate_counts"),
        "tomography.load_counts_s": total_s("tomography.load_counts"),
        "povm.build_s": total_s("povm.build"),
        "povm.validate_s": total_s("povm.validate"),
        "cli.run_s": total_s("cli.run"),
        "cli.write_s": total_s("serialize.atomic_write_text"),
        "cli.bytes_written": c["cli.bytes_written"] / passes,
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.overhead_ratio": _ratio(traced - untraced, untraced),
        "trace.spans": len(tracer.spans) / passes,
    }
    for kernel in ("kappa_phase_dephasing", "kappa_two_phase"):
        name = f"kernels.{kernel}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.ns_per_call"] = per_call(name, 1e9)
    for name in ("scenarios.evaluate_kappa", "scenarios.single_copy_qfi_diagonal",
                 "states.probe_with_derivatives", "fisher.classical_fi",
                 "fisher.kappa"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.us_per_call"] = per_call(name, 1e6)
    for name in ("kernels.kappa_phase_dephasing", "kernels.kappa_two_phase",
                 "kernels.mle_iterate", "scenarios.evaluate_kappa"):
        m[f"{name}.share"] = _ratio(total_s(name), pass_s)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self_s(layer)
    for name, unit in PER_LAYER.items():
        if unit in TIME_UNITS and not name.startswith("trace."):
            m[name] /= slowdown
    return {name: float(m[name]) for name in PER_LAYER}
