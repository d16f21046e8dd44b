"""The qmetro names the benchmark under ``perfbench/`` relies on.

``perfbench/layers.py`` wraps module attributes by name for its traced run
and reads the searches' work from their arguments and results, and
``perfbench/test_perfbench.py`` calls the two-phase kernel in its older
six-argument form; a refactor that renames or drops one of them, or moves
the work its counters read, would break the benchmark without failing any
other test here.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from qmetro import bell_povm, cli, kernels, povm_to_json

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers")


def test_every_wrapped_attribute_resolves(layers):
    missing = [(module, attr) for module, attr, _, _ in layers.WRAPPED
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing


def test_six_argument_two_phase_kernel_call():
    stack = np.ascontiguousarray(bell_povm().elements)
    out = kernels.kappa_two_phase(0.3, 0.4, 0.3, stack, 1e-5, 1e-12)
    assert [type(v) for v in out] == [float, float, float, int]
    assert out == kernels.kappa_two_phase(0.3, 0.4, 0.3, stack, 1e-12)


def test_traced_counters_match_the_work_in_run_log(layers, tmp_path):
    tracing = importlib.import_module("tracing")
    untraced = layers.current()
    tracer = tracing.Tracer()
    layers.install(tracer)
    evaluations = 0
    try:
        for argv in (("conjecture-search", "--trials", "20"),
                     ("kappa-scan", "--sweep-points", "2")):
            out = tmp_path / argv[0]
            assert cli.main([*argv, "--out", str(out)]) == 0
            log = dict(line.split("=", 1) for line in
                       (out / "run.log").read_text().splitlines())
            evaluations += int(log["evaluations"])
    finally:
        tracer.restore()
    assert evaluations > 0
    assert tracer.counters["scenarios.evals"] == evaluations
    assert tracer.counters["scenarios.trials"] == 20
    restored = layers.current()
    assert all(restored[key] is obj for key, obj in untraced.items())


def test_every_povm_the_cli_builds_is_a_povm_build_span(layers, tmp_path):
    tracing = importlib.import_module("tracing")
    path = tmp_path / "bell.json"
    path.write_text(povm_to_json(bell_povm()), encoding="utf-8")
    scan = ("kappa-scan", "--sweep-points", "1", "--budget", "20")
    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        for i, argv in enumerate((
                scan, (*scan, "--measurement", "file", "--povm", str(path)),
                ("simulate-counts", "--exposure", "10"))):
            assert cli.main([*argv, "--out", str(tmp_path / str(i))]) == 0
    finally:
        tracer.restore()
    assert [span.name for span in tracer.spans].count("povm.build") == 3


@pytest.mark.parametrize("argv", [
    ("kappa-scan", "--sweep-points", "2"),
    ("conjecture-search", "--trials", "20"),
], ids=["kappa-scan", "conjecture-search"])
def test_each_search_records_a_refinement_span(layers, tmp_path, argv):
    # ``scenarios.refine_self_s`` is the self time of these spans
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    finally:
        tracer.restore()
    assert [span.name for span in tracer.spans].count(
        "scenarios.minimize") >= 1
