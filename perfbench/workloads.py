"""The benchmark's four workloads: inputs, one pass, and its checks.

Each workload drives qmetro's public CLI (``qmetro.cli.main``) and library
entry points in this process, one command after the other (a closed loop
with one client). A pass is the timed unit; ``check`` then verifies the
pass's answers against the physics without being timed.

Every callable of qmetro is looked up through its module at call time
(``cli.main``, ``tomography.mle_reconstruct``, ...), so that the tracer in
``layers.py`` sees these calls too.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from qmetro import cli, povm, scenarios, states, tomography


def derive_seed(seed: int, purpose: str) -> int:
    """A seed for one use, derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str, count: int = 1) -> bool:
        self.attempted += count
        if not ok:
            self.failed += count
            self.failures.append(what)
        return ok


def run_cli(argv: list[str]) -> int:
    """Run one qmetro command; its JSON status line is not echoed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def read_curve(path: Path) -> list[tuple[float, float]]:
    """(swept value, kappa) per row of a kappa_scan.csv."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return [(float(r[0]), float(r[1])) for r in rows[1:]]


class Workload:
    name = ""
    #: artifacts that must be byte-identical on every pass with one seed
    deterministic: tuple[str, ...] = ()

    def prepare(self, seed: int, work: Path) -> None:
        """Generate the inputs (set-up, timed as setup_s)."""
        self.work = work
        self.out = work / "out"
        work.mkdir(parents=True, exist_ok=True)

    def reset(self) -> None:
        """Remove the previous pass's outputs (not timed)."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def run_pass(self) -> dict:
        raise NotImplementedError

    def check(self, result: dict, tally: Tally) -> None:
        raise NotImplementedError

    def digest(self, result: dict) -> str:
        """Hash of the deterministic artifacts and in-memory results."""
        h = hashlib.sha256()
        for name in self.deterministic:
            h.update(name.encode())
            try:
                h.update((self.out / name).read_bytes())
            except OSError:
                h.update(b"<missing>")
        h.update(repr(result.get("values")).encode())
        return h.hexdigest()


def _check_command(tally: Tally, code: int, what: str, units: int) -> bool:
    """A non-zero exit fails the command and every unit of work it held."""
    ok = tally.op(code == 0, f"{what} exited {code}")
    if not ok and units:
        tally.op(False, f"{what}: no results", count=units)
    return ok


class BellScan(Workload):
    """The documented ``kappa-scan --measurement bell --copies 2``: 40
    log-spaced delta points at budget 2000 over phi, xi_1, xi_2.

    Why: it is the paper's headline curve, bound by the dephasing kappa
    kernel (about 1.5k calls per point) and heavy on the optimizer's grid.
    """

    name = "bell-scan"
    deterministic = ("kappa_scan.csv", "manifest.json")
    points = 40

    def run_pass(self):
        return {"code": run_cli(["kappa-scan", "--measurement", "bell",
                                 "--copies", 2, "--out", self.out])}

    def check(self, result, tally):
        if not _check_command(tally, result["code"], "kappa-scan", self.points):
            return
        curve = read_curve(self.out / "kappa_scan.csv")
        tally.op(len(curve) == self.points, f"{len(curve)} grid points")
        for delta, k in curve:
            tally.op(not math.isnan(k), f"nan kappa at delta={delta}")
        finite = [(d, k) for d, k in curve if not math.isnan(k)]
        window = [k for d, k in finite if 0.2 <= d <= 1.5]
        best = max(window, default=float("nan"))
        tally.op(best > 1.05, f"max kappa over delta in [0.2, 1.5] is {best}")
        top = max((k for _, k in finite), default=float("nan"))
        tally.op(top <= 1.5 + 1e-6, f"max kappa {top} above 1.5")


class ConjectureSearch(Workload):
    """``conjecture-search`` over Haar-random two-copy bases, seeded from
    the workload seed.

    Why: it uses the kappa layer differently from bell-scan, as many tiny
    1-D optimizations of 48 evaluations each on the finite-difference
    two-phase kernel, so the fixed cost of each optimization (scipy set-up,
    Scenario construction) shows too.
    """

    name = "conjecture-search"
    deterministic = ("conjecture_search.json", "manifest.json")
    #: 10^4 trials take about 2 minutes; 100 keep one pass near 1.5 s
    trials = 100

    def prepare(self, seed, work):
        super().prepare(seed, work)
        self.search_seed = derive_seed(seed, "conjecture-search")

    def run_pass(self):
        return {"code": run_cli(["conjecture-search", "--trials", self.trials,
                                 "--seed", self.search_seed,
                                 "--out", self.out])}

    def check(self, result, tally):
        if not _check_command(tally, result["code"], "conjecture-search",
                              self.trials):
            return
        doc = json.loads((self.out / "conjecture_search.json").read_text())
        tally.op(doc["trials"] == self.trials, f"{doc['trials']} trials run",
                 count=self.trials)
        top = doc["max_kappa"]
        tally.op(top <= 1.0 + 1e-6, f"max kappa {top} above 1")


class TomographyMc(Workload):
    """``simulate-counts`` for the v = 0.9 gate at exposure 1e5, then
    ``tomography`` on that counts CSV, then Monte Carlo error bars on kappa
    (100 MLE runs, max_iters 400, tol 1e-9, at exposures 1e4 and 1e6, with
    Bell-POVM counts as in acceptance criterion 8).

    Why: it calls no kappa kernel, so kappa-engine work predicts no change
    here; the time is in ``kernels.mle_iterate``. It also covers the
    counts CSV write and parse and Monte Carlo failure accounting.
    """

    name = "tomography-mc"
    deterministic = ("counts/counts.csv", "counts/manifest.json",
                     "reco/reconstructed_povm.json",
                     "reco/tomography_report.json", "reco/manifest.json")
    exposures = (1e4, 1e6)
    mc_runs = 100

    def prepare(self, seed, work):
        super().prepare(seed, work)
        self.counts_seed = derive_seed(seed, "simulate-counts")
        self.mc_counts_seed = derive_seed(seed, "monte-carlo-counts")
        self.mc_seed = derive_seed(seed, "monte-carlo")
        self.truth = povm.cs_gate_povm(povm.GateModel(visibility=0.9))[0]

    def run_pass(self):
        codes = [
            run_cli(["simulate-counts", "--measurement", "gate",
                     "--visibility", 0.9, "--exposure", 1e5,
                     "--seed", self.counts_seed, "--out", self.out / "counts"]),
            run_cli(["tomography", "--counts", self.out / "counts" / "counts.csv",
                     "--out", self.out / "reco"]),
        ]
        refs = tomography.reference_states()
        failed = [0]

        def kappa_from_counts(table):
            try:
                reco = tomography.mle_reconstruct(table, refs, max_iters=400,
                                                  tol=1e-9)
                scenario = scenarios.Scenario(
                    family=states.ProbeFamily.phase_dephasing(copies=2),
                    measurement=reco.povm, free_inputs=(),
                    fixed_inputs={"phi": 0.0, "xi_1": math.pi / 4,
                                  "xi_2": math.pi / 4},
                    sweep="delta")
                value = scenarios.evaluate_kappa(scenario, {"delta": 0.3}).kappa
            except Exception:
                failed[0] += 1
                raise
            if not math.isfinite(value):
                failed[0] += 1
            return value

        values = {}
        for exposure in self.exposures:
            table = tomography.simulate_counts(povm.bell_povm(), refs, exposure,
                                               self.mc_counts_seed)
            try:
                values[exposure] = tomography.monte_carlo_uncertainty(
                    table, kappa_from_counts, runs=self.mc_runs,
                    seed=self.mc_seed)
            except RuntimeError:
                values[exposure] = None
        return {"codes": codes, "values": values,
                "counters": {"tomography.mc_failed": failed[0]}}

    def check(self, result, tally):
        simulate, reco = result["codes"]
        if _check_command(tally, simulate, "simulate-counts", 0) and \
                _check_command(tally, reco, "tomography", 0):
            report = json.loads(
                (self.out / "reco" / "tomography_report.json").read_text())
            tally.op(report["converged"], "reconstruction did not converge")
            tally.op(report["validation"]["passed"],
                     "reconstructed POVM failed validation")
            found = povm.povm_from_json(
                (self.out / "reco" / "reconstructed_povm.json").read_text())
            fidelity = float(np.mean([
                tomography.povm_fidelity(c, t)
                for c, t in zip(found.elements, self.truth.elements)]))
            tally.op(fidelity > 0.99, f"mean fidelity {fidelity} vs truth")
        failed = result["counters"]["tomography.mc_failed"]
        tally.op(True, "", count=self.mc_runs * len(self.exposures) - failed)
        if failed:
            tally.op(False, f"{failed} Monte Carlo runs failed", count=failed)
        lo, hi = (result["values"][e] for e in self.exposures)
        if tally.op(lo is not None and hi is not None,
                    "Monte Carlo aborted on failed runs"):
            ratio = lo[1] / hi[1]
            tally.op(5.0 <= ratio <= 20.0, f"Monte Carlo std ratio {ratio}")


class SingleCopyScan(Workload):
    """``kappa-scan --copies 1 --measurement file`` with a seed-rotated
    tetrahedral SIC POVM written at set-up: 20 points at budget 800.

    Why: it bypasses the kernels and runs the reference ``evaluate_kappa``
    path through states and fisher, which is under 4 % of every other
    workload and would otherwise go unmeasured.
    """

    name = "single-copy-scan"
    deterministic = ("kappa_scan.csv", "manifest.json")
    points = 20
    budget = 800

    def prepare(self, seed, work):
        super().prepare(seed, work)
        self.povm_path = work / "sic_povm.json"
        self.povm_path.write_text(sic_povm_json(derive_seed(seed, "sic")),
                                  encoding="utf-8")

    def run_pass(self):
        return {"code": run_cli(["kappa-scan", "--copies", 1,
                                 "--measurement", "file",
                                 "--povm", self.povm_path,
                                 "--sweep-points", self.points,
                                 "--budget", self.budget, "--out", self.out])}

    def check(self, result, tally):
        if not _check_command(tally, result["code"], "kappa-scan", self.points):
            return
        curve = read_curve(self.out / "kappa_scan.csv")
        tally.op(len(curve) == self.points, f"{len(curve)} grid points")
        for delta, k in curve:
            # the Gill-Massar bound for a single-qubit measurement
            tally.op(k <= 1.0 + 1e-9, f"kappa {k} at delta={delta} above 1")


def sic_povm_json(seed: int) -> str:
    """A tetrahedral SIC POVM on one qubit, randomly rotated, as POVM JSON.

    A 2-outcome projective measurement would make every point singular for
    the two parameters (phi, delta); the informationally complete SIC does
    not.
    """
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                       [[1, 0], [0, -1]]])
    outcomes = []
    for k, n in enumerate(np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1],
                                    [-1, -1, 1]]) / math.sqrt(3.0)):
        bloch = q @ n
        element = (np.eye(2) + np.einsum("i,ijk->jk", bloch, paulis)) / 4.0
        outcomes.append({"label": f"t{k}",
                         "re": element.real.tolist(),
                         "im": element.imag.tolist()})
    return json.dumps({"dim": 2, "basis": "logical |0>,|1>",
                       "outcomes": outcomes}, indent=1) + "\n"


WORKLOADS = {w.name: w for w in (BellScan, ConjectureSearch, TomographyMc,
                                 SingleCopyScan)}
