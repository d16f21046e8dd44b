"""Tests for the benchmark's own code (not collected by the repo's suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times_ns  # noqa: E402


def test_self_time_is_duration_minus_time_covered_by_children():
    spans = [
        Span(1, 0, 1, "a.root", 0, 100),
        Span(2, 1, 1, "b.child", 10, 30),
        Span(3, 1, 1, "b.child", 25, 40),     # overlaps the first child
        Span(4, 1, 1, "c.child", 90, 120),    # runs past the parent's end
        Span(5, 2, 1, "d.grandchild", 12, 20),
    ]
    selfs = self_times_ns(spans)
    assert selfs[1] == 100 - ((40 - 10) + (100 - 90))
    assert selfs[2] == 20 - 8
    assert selfs[3] == 15
    assert selfs[5] == 8


def test_nested_wrappers_record_parents_and_self_time():
    mod = type(sys)("perfbench_fake_module")
    sys.modules[mod.__name__] = mod
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    tracer = Tracer()
    try:
        tracer.wrap(mod.__name__, "inner", "k.inner")
        tracer.wrap(mod.__name__, "outer", "s.outer")
        assert mod.outer(1) == 4
    finally:
        tracer.restore()
        del sys.modules[mod.__name__]
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("k.inner", "s.outer")
    assert inner.parent_id == outer.span_id and outer.parent_id == 0
    stats = tracing.aggregate(tracer.spans)
    assert stats["s.outer"].self_ns == outer.duration_ns - inner.duration_ns


def test_wrappers_are_removed_after_tracing():
    originals = layers.current()
    tracer = Tracer()
    layers.install(tracer)
    assert all(now is not originals[key]
               for key, now in layers.current().items())
    tracer.restore()
    for (module, attr), now in layers.current().items():
        assert now is originals[module, attr], f"{module}.{attr}"
    from qmetro import kernels
    kernels.kappa_two_phase(0.3, 0.4, 0.3, _bell(), 1e-5, 1e-12)
    assert tracer.spans == []


def _bell():
    from qmetro import bell_povm
    return bell_povm().elements


def _prepared(cls, tmp_path):
    workload = cls()
    workload.prepare(3, tmp_path)
    workload.reset()
    return workload


def _write_curve(path, rows, sweep="delta"):
    lines = [f"{sweep},kappa"] + [f"{d!r},{k!r}" for d, k in rows]
    path.write_text("\n".join(lines) + "\n")


def _bell_curve(peak):
    deltas = [0.02 * (150 ** (i / 39)) for i in range(40)]
    return [(d, peak if 0.2 <= d <= 1.5 else 1.0) for d in deltas]


def test_correct_bell_scan_counts_no_failure(tmp_path):
    workload = _prepared(workloads.BellScan, tmp_path)
    _write_curve(workload.out / "kappa_scan.csv", _bell_curve(1.2))
    tally = workloads.Tally()
    workload.check({"code": 0}, tally)
    assert tally.failed == 0 and tally.attempted > 40


@pytest.mark.parametrize("peak", [1.6, 1.01, math.nan])
def test_wrong_bell_scan_is_a_failure(tmp_path, peak):
    workload = _prepared(workloads.BellScan, tmp_path)
    _write_curve(workload.out / "kappa_scan.csv", _bell_curve(peak))
    tally = workloads.Tally()
    workload.check({"code": 0}, tally)
    assert tally.failed > 0


def test_nonzero_exit_fails_every_grid_point(tmp_path):
    workload = _prepared(workloads.BellScan, tmp_path)
    tally = workloads.Tally()
    workload.check({"code": 1}, tally)
    assert tally.failed == tally.attempted == 1 + workload.points


def test_single_copy_scan_above_gill_massar_bound_fails(tmp_path):
    workload = _prepared(workloads.SingleCopyScan, tmp_path)
    rows = [(0.1 * (i + 1), 0.9) for i in range(workload.points)]
    _write_curve(workload.out / "kappa_scan.csv", rows)
    tally = workloads.Tally()
    workload.check({"code": 0}, tally)
    assert tally.failed == 0
    rows[4] = (rows[4][0], 1.0 + 1e-6)
    _write_curve(workload.out / "kappa_scan.csv", rows)
    workload.check({"code": 0}, tally)
    assert tally.failed == 1


def test_conjecture_above_one_fails(tmp_path):
    workload = _prepared(workloads.ConjectureSearch, tmp_path)
    (workload.out / "conjecture_search.json").write_text(json.dumps(
        {"trials": workload.trials, "max_kappa": 1.01}))
    tally = workloads.Tally()
    workload.check({"code": 0}, tally)
    assert tally.failures == ["max kappa 1.01 above 1"]


def test_wrong_answer_makes_the_run_incorrect(tmp_path, monkeypatch, capsys):
    for var in run.BLAS_THREAD_VARS + ("QMETRO_DISABLE_NUMBA",):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads.ConjectureSearch, "trials", 2)
    real_main = workloads.cli.main

    def wrong_answer(argv):
        code = real_main(argv)
        path = Path(argv[argv.index("--out") + 1]) / "conjecture_search.json"
        data = json.loads(path.read_text())
        data["max_kappa"] = 1.5
        path.write_text(json.dumps(data))
        return code

    monkeypatch.setattr(workloads.cli, "main", wrong_answer)
    assert run.main(["--workload", "conjecture-search", "--seed", "1",
                     "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    # one failed check in each of the two passes a run makes at least
    assert result["correct"] is False and result["failed"] == 2
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_tail_needs_ten_samples_beyond_it():
    assert layers.tail(list(range(19))) is None
    q, value = layers.tail([float(i) for i in range(40)])
    assert q == 75.0 and 28.0 <= value <= 30.0
    assert layers.tail(list(range(1000)))[0] == 99.0


def test_sic_povm_is_a_valid_povm():
    from qmetro import povm_from_json, validate_povm
    assert validate_povm(povm_from_json(workloads.sic_povm_json(5))).passed


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_speed_probe_samples_and_restores_the_alarm_handler():
    import signal
    import speed

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 0.05
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 3 and probe.slowdown() > 0
