#!/usr/bin/env python3
"""qmetro benchmark: four workbench workloads, end to end and per layer.

Run from the root of a qmetro source tree:

    python3 perfbench/run.py --workload bell-scan --seed 1 --seconds 20 --trace 0

Workloads: bell-scan, conjecture-search, tomography-mc, single-copy-scan
(see perfbench/README.md for what each runs and why). The benchmark imports
qmetro from ``src/`` with the numpy kernel backend and BLAS threads capped
at the CPU count, sets up the workload's inputs from ``--seed``, and then
runs passes of the workload back to back, one command after the other,
while another pass is expected to end within ``--seconds`` (and at least
two). Every pass is checked against the physics and against the first
pass's bytes.

``--trace 0`` prints the end-to-end metrics: median pass wall time, median
set-up time over several fresh processes, peak resident memory and the
share of operations that succeeded. Pass times are rescaled to a reference
CPU speed (see ``speed.py``). ``--trace 1`` spends half the time on
untraced passes and half on traced ones (at least one each), and prints
the per-layer metrics
of ``layers.py`` plus the tracing overhead; its spans go to
``perfbench/.work/<workload>/spans.csv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full report (environment, samples, failure reasons).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# stdlib only: numpy and qmetro are imported after the set-up timer starts
import layers
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
WORKLOAD_NAMES = ("bell-scan", "conjecture-search", "tomography-mc",
                  "single-copy-scan")
#: set-up is timed in this many fresh processes, this one included
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
#: name -> unit of every end-to-end metric
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "ok_ratio": "ratio"}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it and exit")
    return p.parse_args(argv)


def _configure_environment() -> dict:
    """Cap BLAS threads at the CPU count and pin the numpy kernels; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        wanted = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(wanted, nproc))
    os.environ["QMETRO_DISABLE_NUMBA"] = "1"
    sys.path.insert(0, str(SRC))
    return {"nproc": nproc, **{v: os.environ[v] for v in BLAS_THREAD_VARS}}


def _setup(name: str, seed: int):
    """Import qmetro and generate the workload's inputs; returns the
    prepared workload and the seconds it took."""
    start = time.perf_counter()
    import qmetro  # noqa: F401  (the import is what is timed)
    import workloads
    workload = workloads.WORKLOADS[name]()
    workload.prepare(seed, WORK / name)
    return workload, time.perf_counter() - start


def _setup_in_fresh_process(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str:
    """The checked-out commit, read without running git; "unknown" outside
    a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _timed_pass(workload):
    """Run one pass; returns its result, raw wall time and CPU slowdown."""
    from speed import SpeedProbe  # imports numpy, so not at module level
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        result = workload.run_pass()
        wall = time.perf_counter() - t0
    return result, wall, probe.slowdown()


def _run_passes(workload, budget_s, min_passes, tally, digests, tracer=None):
    """At least min_passes passes back to back, then more while another one
    is expected to end within budget_s; returns each pass's (raw wall time,
    CPU slowdown)."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or (time.perf_counter() - start) * (
            len(passes) + 1) / len(passes) <= budget_s:
        workload.reset()
        if tracer is None:
            result, wall, slowdown = _timed_pass(workload)
        else:
            tracer.trace_id += 1
            with tracer.span(layers.PASS_SPAN):
                result, wall, slowdown = _timed_pass(workload)
            for key, value in result.get("counters", {}).items():
                tracer.counters[key] += value
        passes.append((wall, slowdown))
        try:
            workload.check(result, tally)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            tally.op(False, f"check raised {exc!r}")
        digests.append(workload.digest(result))
        tally.op(digests[-1] == digests[0],
                 f"pass {len(digests)} artifacts differ from pass 1")
    return passes


def _wall_report(passes):
    """Rescaled wall times (what wall_s reports) with the raw ones."""
    raw = [w for w, _ in passes]
    return {**_summary([w / s for w, s in passes]),
            "raw": _summary(raw), "slowdown": [s for _, s in passes]}


def _summary(samples):
    q = layers.tail(samples)
    return {"n": len(samples), "median": statistics.median(samples),
            "tail_pct": q[0] if q else None, "tail": q[1] if q else None,
            "samples": samples}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "qmetro" / "__init__.py").is_file():
        print(f"perfbench: no qmetro sources under {SRC}; run from a qmetro "
              "source tree", file=sys.stderr)
        return 2
    env = _configure_environment()
    workload, own_setup = _setup(args.workload, args.seed)
    if args.setup_only:
        print(f"{own_setup:.9f}")
        return 0

    import numpy
    import scipy
    from qmetro import kernels
    from workloads import Tally

    setups = [own_setup] + [_setup_in_fresh_process(args)
                            for _ in range(SETUP_REPEATS - 1)]
    tally = Tally()
    digests: list[str] = []
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "backend": kernels.BACKEND, **env},
        "setup_s": _summary(setups),
    }
    if args.trace:
        budget = args.seconds / 2.0
        untraced = _wall_report(
            _run_passes(workload, budget, 1, tally, digests))
        originals = layers.current()
        tracer = tracing.Tracer()
        try:
            layers.install(tracer)
            traced = _wall_report(
                _run_passes(workload, budget, 1, tally, digests, tracer))
        finally:
            tracer.restore()
        for (module, attr), now in layers.current().items():
            tally.op(now is originals[module, attr],
                     f"{module}.{attr} still wrapped after tracing")
        metrics = layers.per_layer_metrics(
            tracer, traced["median"], untraced["median"],
            statistics.median(traced["slowdown"]))
        units = layers.PER_LAYER
        tracer.write_csv(WORK / args.workload / "spans.csv")
        report["wall_s"] = untraced
        report["traced_wall_s"] = traced
    else:
        report["wall_s"] = _wall_report(
            _run_passes(workload, args.seconds, 2, tally, digests))
        metrics = {
            "wall_s": report["wall_s"]["median"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        }
        units = END_TO_END
    report["failed_ratio"] = tally.failed / tally.attempted
    report["failures"] = tally.failures[:50]
    report["metrics"] = metrics
    (WORK / args.workload / f"report-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
