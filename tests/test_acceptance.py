"""Acceptance suite: the workbench's exit criteria.

Each test enforces one criterion at its stated tolerance (and runtime bound
where one applies) and prints a single pass/fail line; run with

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np

from qmetro import (CountsTable, GateModel, Povm, ProbeFamily, Scenario,
                    bell_povm, cli, cs_gate_povm, evaluate_kappa, kappa_scan,
                    mle_reconstruct, monte_carlo_uncertainty, optimize_each,
                    optimize_kappa, povm_fidelity, probe_with_derivatives,
                    product_projective_povm, qfi_matrix,
                    random_collective_search, reference_states, simulate_counts,
                    weak_commutativity_root)
from qmetro.cli import main as cli_main
from qmetro.states import commutator_entry, single_copy


def _report(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {label}: {status}{suffix}")
    assert ok, f"{label} failed: {detail}"


def dephasing_swd(phi, delta, xi=0.0):
    return probe_with_derivatives(
        ProbeFamily.phase_dephasing(copies=1), (phi, delta), (xi,))


def weak_commutativity(family, params, xi):
    """Tr[rho [L_0, L_1]] / i of one copy, as ``weak-comm`` reports it."""
    return 2.0 * float(commutator_entry(single_copy(family, params, xi)[0],
                                        0, 1))


def test_01_qfi_closed_forms():
    start = time.perf_counter()
    worst = 0.0
    for delta in np.linspace(0.05, 3.0, 50):
        H = qfi_matrix(dephasing_swd(0.4, delta))
        c2 = math.exp(-2.0 * delta * delta)
        h_phi = c2
        h_delta = 4.0 * delta * delta * c2 / (1.0 - c2)
        worst = max(worst,
                    abs(H[0, 0] - h_phi) / h_phi,
                    abs(H[1, 1] - h_delta) / h_delta)
    elapsed = time.perf_counter() - start
    _report("1 qfi-closed-forms", worst < 1e-6 and elapsed < 1.0,
            f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_02_weak_commutativity():
    start = time.perf_counter()
    worst_dephasing = 0.0
    for phi in np.linspace(0.0, 2.0 * math.pi, 10):
        for delta in np.linspace(0.1, 2.5, 10):
            for xi in np.linspace(0.0, 2.0 * math.pi, 10):
                worst_dephasing = max(worst_dephasing, abs(weak_commutativity(
                    ProbeFamily.phase_dephasing(), (phi, delta), xi)))

    rng = np.random.default_rng(42)
    smallest_generic = np.inf
    for _ in range(100):
        phi_y, phi_z = rng.uniform(0.2, 1.2, 2)
        xi = rng.uniform(0.0, 2.0 * math.pi)
        smallest_generic = min(smallest_generic, abs(weak_commutativity(
            ProbeFamily.two_phase(), (phi_y, phi_z), xi)))

    xi_bar = weak_commutativity_root(0.4, 0.3)
    swd = probe_with_derivatives(ProbeFamily.two_phase(), (0.4, 0.3), (xi_bar,))
    det_at_root = abs(np.linalg.det(qfi_matrix(swd)))
    elapsed = time.perf_counter() - start
    ok = (worst_dephasing < 1e-8 and smallest_generic > 1e-3
          and det_at_root < 1e-8 and elapsed < 5.0)
    _report("2 weak-commutativity", ok,
            f"dephasing max {worst_dephasing:.1e}, generic min "
            f"{smallest_generic:.1e}, |det H(root)| {det_at_root:.1e}, "
            f"{elapsed:.2f}s")


def test_03_single_copy_bound():
    # product measurements on the two copies, 1000 per family, each
    # optimized as optimize_kappa would optimize it alone, in one lockstep
    # run per family; the input optimization over (xi_1, xi_2) spans the
    # full reachable (phi + xi_i) landscape
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = -np.inf
    for kind in ("phase-dephasing", "two-phase"):
        stack = tuple(product_projective_povm(
            (rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi),
             rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)))
            for _ in range(1000))
        if kind == "phase-dephasing":
            scenario = Scenario(
                family=ProbeFamily.phase_dephasing(copies=2),
                measurement=stack, free_inputs=("xi_1", "xi_2"),
                fixed_inputs={"phi": 0.0}, sweep="delta")
            outcomes, _ = optimize_each(scenario, 0.4, budget=160)
        else:
            scenario = Scenario(
                family=ProbeFamily.two_phase(copies=2),
                measurement=stack, free_inputs=("xi",),
                fixed_inputs={"phi_y": 0.4}, sweep="phi_z")
            outcomes, _ = optimize_each(scenario, 0.3, budget=60)
        for out in outcomes:
            if isinstance(out, Exception):
                raise out
            worst = max(worst, out.result.kappa)
    elapsed = time.perf_counter() - start
    _report("3 single-copy-bound", worst <= 1.0 + 1e-9 and elapsed < 15.0,
            f"max kappa {worst:.12f} over 2000 POVMs, {elapsed:.1f}s")


def test_04_two_copy_bell_advantage():
    start = time.perf_counter()
    scenario = Scenario(family=ProbeFamily.phase_dephasing(copies=2),
                        measurement=bell_povm(),
                        free_inputs=("phi", "xi_1", "xi_2"),
                        fixed_inputs={}, sweep="delta")
    grid = cli._sweep_grid(cli.parse_config("kappa-scan", {}))
    curve = kappa_scan(scenario, grid, budget=2000)
    elapsed = time.perf_counter() - start
    window = (grid >= 0.2) & (grid <= 1.5)
    best_in_window = curve.kappa_values[window].max()
    overall_max = curve.kappa_values.max()
    ok = (best_in_window > 1.05 and overall_max <= 1.5 + 1e-6
          and elapsed < 60.0)
    _report("4 two-copy-bell-advantage", ok,
            f"max in [0.2,1.5] {best_in_window:.4f}, overall max "
            f"{overall_max:.6f}, {elapsed:.1f}s")


def test_05_two_phase_conjecture():
    start = time.perf_counter()
    result = random_collective_search(trials=10_000, seed=77)
    elapsed = time.perf_counter() - start
    ok = result.max_kappa <= 1.0 + 1e-6 and elapsed < 600.0
    _report("5 two-phase-conjecture", ok,
            f"max kappa {result.max_kappa:.9f} over 10^4 trials, {elapsed:.0f}s")


def test_06_gate_model():
    povm, success = cs_gate_povm(GateModel())
    gate_matches = np.abs(povm.elements - bell_povm().elements).max() < 1e-10
    uniform_success = all(abs(v - 1.0 / 9.0) < 1e-12 for v in success.values())

    def best_kappa(measurement):
        scenario = Scenario(family=ProbeFamily.phase_dephasing(copies=2),
                            measurement=measurement,
                            free_inputs=("phi", "xi_1", "xi_2"),
                            fixed_inputs={}, sweep="delta")
        return optimize_kappa(scenario, 0.05, budget=2000).result.kappa

    ideal = best_kappa(bell_povm())
    degraded = best_kappa(cs_gate_povm(GateModel(visibility=0.9))[0])
    drop = ideal - degraded
    ok = gate_matches and uniform_success and drop >= 0.1
    _report("6 gate-model", ok,
            f"ideal kappa(0.05) {ideal:.4f}, v=0.9 {degraded:.4f}, drop {drop:.3f}")


def test_07_tomography_round_trip():
    start = time.perf_counter()
    refs = reference_states()
    rng = np.random.default_rng(5)

    worst_distance = 0.0
    for _ in range(10):
        g = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
        raw = np.array([m @ m.conj().T for m in g])
        total = raw.sum(axis=0)
        w, v = np.linalg.eigh(total)
        whiten = (v * (w ** -0.5)) @ v.conj().T
        truth = Povm(("a", "b", "c", "d"),
                     np.array([whiten @ m @ whiten for m in raw]))
        p = np.einsum("kab,jba->jk", truth.elements, refs.states).real
        exact = CountsTable(refs.labels, truth.labels,
                            np.clip(p, 0.0, None) * 1e6)
        result = mle_reconstruct(exact, refs)
        diffs = np.diff(result.ll_trace)
        assert np.all(diffs >= -1e-9 * np.abs(result.ll_trace[:-1]))
        worst_distance = max(worst_distance, max(
            0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()
            for a, b in zip(result.povm.elements, truth.elements)))

    truth, _ = cs_gate_povm(GateModel(visibility=0.9))
    counts = simulate_counts(truth, refs, 1e5, seed=33)
    noisy = mle_reconstruct(counts, refs)
    diffs = np.diff(noisy.ll_trace)
    assert np.all(diffs >= -1e-9 * np.abs(noisy.ll_trace[:-1]))
    mean_fidelity = float(np.mean([
        povm_fidelity(c, t)
        for c, t in zip(noisy.povm.elements, truth.elements)]))
    elapsed = time.perf_counter() - start
    ok = worst_distance < 1e-3 and mean_fidelity > 0.99 and elapsed < 120.0
    _report("7 tomography-round-trip", ok,
            f"max trace distance {worst_distance:.2e}, mean fidelity "
            f"{mean_fidelity:.5f}, {elapsed:.0f}s")


def test_08_monte_carlo_scaling():
    refs = reference_states()

    def kappa_from_counts(table):
        reco = mle_reconstruct(table, refs, max_iters=400, tol=1e-9)
        scenario = Scenario(
            family=ProbeFamily.phase_dephasing(copies=2),
            measurement=reco.povm, free_inputs=(),
            fixed_inputs={"phi": 0.0, "xi_1": math.pi / 4, "xi_2": math.pi / 4},
            sweep="delta")
        return evaluate_kappa(scenario, {"delta": 0.3}).kappa

    stds = {}
    reproducible = True
    for exposure in (1e4, 1e6):
        counts = simulate_counts(bell_povm(), refs, exposure, seed=13)
        first = monte_carlo_uncertainty(counts, kappa_from_counts,
                                        runs=100, seed=21)
        second = monte_carlo_uncertainty(counts, kappa_from_counts,
                                         runs=100, seed=21)
        reproducible &= first == second
        stds[exposure] = first[1]
    ratio = stds[1e4] / stds[1e6]
    # a 100x exposure increase should shrink the std ~10x (within factor 2)
    ok = reproducible and 5.0 <= ratio <= 20.0
    _report("8 monte-carlo-scaling", ok,
            f"bit-identical {reproducible}, std ratio {ratio:.1f}")


def test_09_end_to_end_determinism(tmp_path, capsys):
    out = tmp_path / "run"

    def run_all():
        assert cli_main(["kappa-scan", "--sweep-points", "3", "--budget",
                         "200", "--seed", "6", "--out", str(out)]) == 0
        assert cli_main(["simulate-counts", "--exposure", "10000", "--seed",
                         "6", "--out", str(out)]) == 0
        capsys.readouterr()
        return {name: (out / name).read_bytes()
                for name in ("kappa_scan.csv", "counts.csv", "manifest.json")}

    first = run_all()
    second = run_all()
    ok = first == second
    _report("9 end-to-end-determinism", ok,
            "byte-identical CSV/JSON artifacts across consecutive runs")
