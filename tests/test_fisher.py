import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import brentq

from qmetro import (Povm, ProbeFamily, Scenario, bell_povm, classical_fi,
                    evaluate_kappa, kappa, measurement_probabilities,
                    probe_with_derivatives, product_projective_povm,
                    qfi_matrix, sld_operators, weak_commutativity_root)
from qmetro import fisher, kernels, scenarios
from qmetro.linalg import PAULI_Y, PAULI_Z, pauli_table
from qmetro.states import (StateWithDerivatives, commutator_entry, qfi_entry,
                           single_copy, two_phase_coordinates)


def dephasing_swd(phi=0.4, delta=0.5, xi=0.0, copies=1):
    return probe_with_derivatives(ProbeFamily.phase_dephasing(copies=copies),
                                  (phi, delta), (xi,) * copies)


def sld_residual(swd, slds):
    """Max entrywise residual of ``2 d_rho - L rho - rho L`` on the support
    of rho."""
    rho = swd.state
    w, v = np.linalg.eigh(rho)
    support = v[:, w > fisher._SUPPORT_RTOL * w.max()]
    proj = support @ support.conj().T
    return max(float(np.abs(proj @ (2.0 * drho - L @ rho - rho @ L)
                            @ proj).max())
               for drho, L in zip(swd.derivatives, slds))


def weak_commutativity(swd):
    """The SLD commutator expectation Tr[rho [L_0, L_1]] / i from the SLD
    solve: the oracle of twice ``states.commutator_entry``."""
    l0, l1 = sld_operators(swd)
    return float(np.imag(np.trace(swd.state @ (l0 @ l1))
                         - np.trace(swd.state @ (l1 @ l0))))


def analytic_qfi_diag(delta):
    c2 = math.exp(-2.0 * delta * delta)
    return c2, 4.0 * delta * delta * c2 / (1.0 - c2)


class TestSldOperators:
    def test_maximally_mixed_oracle(self):
        # solve 2*(sigma_z/2) = L*(I/2) + (I/2)*L directly: L = sigma_z
        swd = StateWithDerivatives(
            state=np.eye(2, dtype=complex) / 2.0,
            derivatives=np.array([PAULI_Z / 2.0]))
        slds = sld_operators(swd)
        assert np.abs(slds[0] - PAULI_Z).max() < 1e-12

    def test_slds_have_zero_mean(self):
        swd = dephasing_swd(delta=0.7)
        slds = sld_operators(swd)
        for op in slds:
            assert abs(np.trace(swd.state @ op)) < 1e-9

    def test_pure_state_identity(self):
        # for rank-1 rho the operator 2*drho solves the defining equation
        swd = probe_with_derivatives(ProbeFamily.two_phase(), (0.5, 0.2), (0.3,))
        slds = sld_operators(swd)
        assert sld_residual(swd, slds) < 1e-7
        rho = swd.state
        for drho in swd.derivatives:
            lhs = 2.0 * drho
            res = 2.0 * drho - lhs @ rho - rho @ lhs
            assert np.abs(res).max() < 1e-7

    def test_defining_equation_across_dephasing_range(self):
        for delta in (0.0, 0.05, 0.4, 1.5, 3.0):
            swd = dephasing_swd(delta=delta)
            assert sld_residual(swd, sld_operators(swd)) < 1e-7

    def test_rejects_non_hermitian(self):
        swd = StateWithDerivatives(
            state=np.array([[0.5, 0.5j], [0.5j, 0.5]]),
            derivatives=np.zeros((1, 2, 2), dtype=complex))
        with pytest.raises(ValueError):
            sld_operators(swd)


class TestQfiMatrix:
    @pytest.mark.parametrize("delta", [0.2, 0.5, 1.0])
    def test_dephasing_closed_forms(self, delta):
        swd = dephasing_swd(delta=delta)
        H = qfi_matrix(swd)
        h_phi, h_delta = analytic_qfi_diag(delta)
        assert abs(H[0, 0] - h_phi) < 1e-6 * h_phi
        assert abs(H[1, 1] - h_delta) < 1e-6 * h_delta
        assert abs(H[0, 1]) < 1e-10

    def test_two_copy_additivity(self):
        h1 = qfi_matrix(dephasing_swd(copies=1))
        h2 = qfi_matrix(dephasing_swd(copies=2))
        assert np.abs(h2 - 2.0 * h1).max() < 1e-8

    def test_singular_at_commutativity_root(self):
        xi_bar = weak_commutativity_root(0.4, 0.3)
        swd = probe_with_derivatives(ProbeFamily.two_phase(), (0.4, 0.3),
                                     (xi_bar,))
        assert abs(np.linalg.det(qfi_matrix(swd))) < 1e-8


class TestWeakCommutativity:
    def test_vanishes_for_phase_dephasing(self):
        for phi in (0.0, 0.9, 2.5):
            for delta in (0.2, 0.8, 2.0):
                swd = dephasing_swd(phi=phi, delta=delta, xi=0.3)
                assert abs(weak_commutativity(swd)) < 1e-8

    def test_generic_two_phase_nonzero(self):
        swd = probe_with_derivatives(ProbeFamily.two_phase(), (0.5, 0.7), (1.0,))
        assert abs(weak_commutativity(swd)) > 1e-3

    def test_pure_state_berry_curvature_oracle(self):
        # for pure states Tr rho [L_i, L_j] equals 8i Im <d_i psi | d_j psi>,
        # here of the output ket by scipy's expm
        xi, py, pz, h = 0.7, 0.5, 0.3, 1e-5
        plus = np.array([1.0, np.exp(1j * xi)]) / np.sqrt(2.0)
        ket = lambda a, b: expm(1j * (a * PAULI_Y + b * PAULI_Z)) @ plus
        dy = (ket(py + h, pz) - ket(py - h, pz)) / (2 * h)
        dz = (ket(py, pz + h) - ket(py, pz - h)) / (2 * h)
        expected = 8.0 * np.imag(np.vdot(dy, dz))
        swd = probe_with_derivatives(ProbeFamily.two_phase(), (py, pz), (xi,))
        assert abs(weak_commutativity(swd) - expected) < 1e-6

    def test_root_output_state_is_equatorial(self):
        xi_bar = weak_commutativity_root(0.4, 0.3)
        # the output's Bloch z component
        assert abs(two_phase_coordinates(xi_bar, 0.4, 0.3)[0, 3]) < 1e-8

    def test_root_at_identity_rotation(self):
        # with no rotation the commutator expectation is 8*cos(xi):
        # d_y psi = i*sigma_y psi, d_z psi = i*sigma_z psi, so
        # 8*Im<d_y psi|d_z psi> = 8*Im<psi|i sigma_x|psi> = 8*cos(xi)
        assert abs(weak_commutativity_root(0.0, 0.0) - math.pi / 2) < 1e-9

    def test_root_matches_a_bracketed_search(self):
        # the closed form against a sign-change scan over one period refined
        # by brentq, both on the SLD path; the roots repeat with period pi
        rng = np.random.default_rng(11)
        for phi_y, phi_z in rng.uniform(-3.0, 3.0, (100, 2)):
            def value(xi):
                swd = probe_with_derivatives(ProbeFamily.two_phase(),
                                             (phi_y, phi_z), (xi,))
                return weak_commutativity(swd)

            grid = np.linspace(0.0, 2.0 * math.pi, 65)
            vals = [value(x) for x in grid]
            k = next(k for k in range(64) if vals[k] * vals[k + 1] < 0.0)
            expected = brentq(value, grid[k], grid[k + 1], xtol=1e-14)
            root = weak_commutativity_root(phi_y, phi_z)
            assert 0.0 <= root < math.pi
            gap = (root - expected + math.pi / 2) % math.pi - math.pi / 2
            assert abs(gap) < 1e-12

    @pytest.mark.parametrize("phi_y", [math.pi / 2, -math.pi / 2])
    def test_root_where_every_phase_is_a_root(self, phi_y):
        # the commutator expectation vanishes at every input phase up to
        # round-off, and the root reads 0.0
        for xi in (0.0, math.pi / 2, 1.3):
            swd = probe_with_derivatives(ProbeFamily.two_phase(),
                                         (phi_y, 0.0), (xi,))
            assert abs(weak_commutativity(swd)) < 1e-14
        assert weak_commutativity_root(phi_y, 0.0) == 0.0


class TestBlochInformation:
    """J and D in closed form (``states.qfi_entry`` and
    ``commutator_entry``), summed over the copies, against the SLD solve of
    the m-copy probe."""

    @given(two_phase=st.booleans(), copies=st.integers(1, 3),
           a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0),
           delta=st.floats(1e-2, 2.5),
           phases=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    @settings(deadline=None, max_examples=300)
    def test_matches_the_sld_solution(self, two_phase, copies, a, b, delta,
                                      phases):
        if not two_phase and copies == 3:
            # the smallest eigenvalue of three dephased copies,
            # (delta^2 / 2)^3, falls below the SLD solve's support cutoff
            # near delta = 0.014: at delta = 0.0105 the solve is 9e-9 off
            delta = max(delta, 0.05)
        family = (ProbeFamily.two_phase(copies) if two_phase
                  else ProbeFamily.phase_dephasing(copies))
        params = (a, b) if two_phase else (a, delta)
        phases = phases[:copies]
        swd = probe_with_derivatives(family, params, phases)
        singles = [single_copy(family, params, xi) for xi in phases]
        J = sum(qfi_entry(*single, [[0], [1]], [0, 1]) for single in singles)
        D = sum(commutator_entry(coords, 0, 1) for coords, _ in singles)
        H = qfi_matrix(swd)
        assert np.abs(J - H).max() <= 1e-10 * np.abs(H).max()
        assert J[0, 1] == J[1, 0]
        assert abs(2.0 * D - weak_commutativity(swd)) <= 1e-12 * max(
            1.0, abs(2.0 * D))

    @pytest.mark.parametrize("i,j", [(0, 0), (1, 1), (0, 1), (1, 0)])
    def test_index_arrays_give_the_entries_alone(self, i, j):
        # the diagonal and the matrix forms are the single entries' bits
        coords, depth = single_copy(ProbeFamily.phase_dephasing(),
                                    (0.3, 0.4), np.array([0.1, 2.0]))
        matrix = qfi_entry(coords, depth, [[0], [1]], [0, 1])
        one = qfi_entry(coords, depth, i, j)
        assert matrix[i, j].tobytes() == one.tobytes()
        if i == j:
            # i defaults to every parameter and j to i
            for diagonal in (qfi_entry(coords, depth),
                             qfi_entry(coords, depth, [0, 1]),
                             qfi_entry(coords, depth, [0, 1], [0, 1])):
                assert diagonal[i].tobytes() == one.tobytes()
        assert (commutator_entry(coords, i, j)
                == -commutator_entry(coords, j, i)).all()


class TestMeasurementProbabilities:
    def test_bell_on_phi_plus(self):
        ket = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        swd = StateWithDerivatives(
            state=np.outer(ket, ket.conj()),
            derivatives=np.zeros((1, 4, 4), dtype=complex))
        p, _ = measurement_probabilities(swd, bell_povm())
        assert np.allclose(p, [1.0, 0.0, 0.0, 0.0], atol=1e-14)

    def test_maximally_mixed_gives_trace_over_dim(self):
        swd = StateWithDerivatives(
            state=np.eye(4, dtype=complex) / 4.0,
            derivatives=np.zeros((1, 4, 4), dtype=complex))
        p, _ = measurement_probabilities(swd, bell_povm())
        assert np.allclose(p, 0.25)

    def test_derivatives_sum_to_zero(self):
        swd = dephasing_swd(copies=2)
        _, dp = measurement_probabilities(swd, bell_povm())
        assert np.abs(dp.sum(axis=1)).max() < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            measurement_probabilities(dephasing_swd(copies=1), bell_povm())

    def test_matches_finite_differences(self):
        h = 1e-6
        family, phases = ProbeFamily.phase_dephasing(copies=2), (0.1, 0.5)
        povm = bell_povm()
        swd = probe_with_derivatives(family, (0.4, 0.6), phases)
        p0, dp = measurement_probabilities(swd, povm)
        for j, shift in enumerate(((h, 0.0), (0.0, h))):
            up = probe_with_derivatives(
                family, (0.4 + shift[0], 0.6 + shift[1]), phases)
            down = probe_with_derivatives(
                family, (0.4 - shift[0], 0.6 - shift[1]), phases)
            pu, _ = measurement_probabilities(up, povm)
            pd, _ = measurement_probabilities(down, povm)
            fd = (pu - pd) / (2 * h)
            scale = max(np.abs(dp[j]).max(), 1e-3)
            assert np.abs(fd - dp[j]).max() < 1e-5 * scale


class TestClassicalFi:
    def test_uniform_pattern_closed_form(self):
        a = 0.05
        p = np.full(4, 0.25)
        dp = np.array([[a, -a, a, -a], [a, a, -a, -a]])
        report = classical_fi(p, dp)
        assert np.abs(report.classical_fi - 16.0 * a * a * np.eye(2)).max() < 1e-12
        assert not report.singular

    def test_scalar_case_effective_equals_classical(self):
        p = np.array([0.7, 0.3])
        dp = np.array([[0.2, -0.2]])
        report = classical_fi(p, dp)
        assert abs(report.effective_fi[0] - report.classical_fi[0, 0]) < 1e-12

    def test_effective_fi_inverse_relation(self):
        swd = dephasing_swd(copies=2)
        p, dp = measurement_probabilities(swd, bell_povm())
        report = classical_fi(p, dp, labels=bell_povm().labels)
        inv = np.linalg.inv(report.classical_fi)
        for j in range(2):
            assert abs(report.effective_fi[j] - 1.0 / inv[j, j]) < 1e-9
            assert report.effective_fi[j] <= report.classical_fi[j, j] + 1e-9

    def test_singular_policy_zero_not_pseudoinverse(self):
        p = np.full(4, 0.25)
        dp = np.array([[0.1, -0.1, 0.1, -0.1], [0.2, -0.2, 0.2, -0.2]])
        report = classical_fi(p, dp)
        assert report.singular
        assert np.all(report.effective_fi == 0.0)

    def test_dropped_outcomes_recorded(self):
        p = np.array([0.5, 0.5, 0.0, 0.0])
        dp = np.array([[0.1, -0.1, 0.0, 0.0], [0.05, -0.05, 0.0, 0.0]])
        report = classical_fi(p, dp, labels=("a", "b", "c", "d"))
        assert report.dropped_outcomes == ("c", "d")
        assert not report.boundary

    def test_boundary_flag_on_informative_zero_probability(self):
        p = np.array([0.5, 0.5, 0.0])
        dp = np.array([[0.1, -0.2, 0.1]])
        report = classical_fi(p, dp, labels=("a", "b", "c"))
        assert report.dropped_outcomes == ("c",)
        assert report.boundary

    def test_preconditions(self):
        with pytest.raises(ValueError):
            classical_fi(np.array([0.6, 0.6]), np.array([[0.1, -0.1]]))
        with pytest.raises(ValueError):
            classical_fi(np.array([0.5, 0.5]), np.array([[0.1, 0.1]]))
        with pytest.raises(ValueError):
            classical_fi(np.array([1.1, -0.1]), np.array([[0.1, -0.1]]))

    def test_stack_keeps_each_failed_distribution_in_its_place(self):
        # a failed distribution, an infinite derivative among them, warns
        # of nothing and leaves the others' reports as they are alone
        p = np.array([[0.5, 0.3, 0.2], [0.5, 0.3, 0.2], [1.1, -0.1, 0.0],
                      [0.6, 0.4, 0.0], [np.inf, 0.5, 0.5]])
        dp = np.tile([[0.1, -0.05, -0.05], [0.0, 0.1, -0.1]], (5, 1, 1))
        dp[1, 0, 0] = np.inf
        labels = [tuple(f"{s}{k}" for k in range(3)) for s in "abcde"]
        reports = classical_fi(p, dp, labels)
        assert [str(r) for r in reports[1:3]] == [
            "derivative probabilities sum to inf per parameter, expected 0",
            "negative probability -1.000e-01"]
        assert isinstance(reports[4], ValueError)
        for i in (0, 3):
            alone = classical_fi(p[i], dp[i], labels[i])
            assert np.array_equal(reports[i].classical_fi, alone.classical_fi)
            assert reports[i].dropped_outcomes == alone.dropped_outcomes
        assert reports[3].dropped_outcomes == ("d2",)
        assert all(isinstance(r, ValueError)
                   for r in classical_fi(p[1:3], dp[1:3]))

    def test_optimal_single_qubit_phase_measurement(self):
        # scanning projective bases must top out at the quantum limit, which
        # is attained measuring along the eigenbasis of the phase SLD
        delta = 0.5
        swd = dephasing_swd(phi=0.3, delta=delta)
        h_phi, _ = analytic_qfi_diag(delta)
        _, vectors = np.linalg.eigh(sld_operators(swd)[0])
        best = -np.inf
        for theta in np.linspace(0.0, math.pi, 41):
            for eta in np.linspace(0.0, 2 * math.pi, 81):
                up = np.array([math.cos(theta / 2),
                               math.sin(theta / 2) * np.exp(1j * eta)])
                down = np.array([math.sin(theta / 2),
                                 -math.cos(theta / 2) * np.exp(1j * eta)])
                p = np.array([np.real(v.conj() @ swd.state @ v) for v in (up, down)])
                dp = np.array([[np.real(v.conj() @ swd.derivatives[0] @ v)
                                for v in (up, down)]])
                best = max(best, classical_fi(p, dp).classical_fi[0, 0])
        p = np.array([np.real(v.conj() @ swd.state @ v) for v in vectors.T])
        dp = np.array([[np.real(v.conj() @ swd.derivatives[0] @ v)
                        for v in vectors.T]])
        exact = classical_fi(p, dp).classical_fi[0, 0]
        assert abs(exact - h_phi) < 1e-9
        assert best <= h_phi + 1e-9
        assert best > 0.995 * h_phi


class TestKappa:
    def test_saturation_gives_parameter_count(self):
        h = np.array([0.7, 1.3])
        report = classical_fi(
            np.full(4, 0.25),
            np.array([[0.05, -0.05, 0.05, -0.05], [0.05, 0.05, -0.05, -0.05]]))
        saturated = kappa(
            type(report)(classical_fi=np.diag(h), effective_fi=h,
                         singular=False), h, m=1)
        assert abs(saturated.kappa - 2.0) < 1e-12

    def test_excluded_parameter_flagged(self):
        report = classical_fi(
            np.full(4, 0.25),
            np.array([[0.05, -0.05, 0.05, -0.05], [0.05, 0.05, -0.05, -0.05]]))
        result = kappa(report, np.array([0.0, 1.0]), m=1)
        assert result.excluded == (0,)
        assert result.per_parameter[0] == 0.0

    def test_kappa_is_sum_of_contributions(self):
        swd = dephasing_swd(copies=2)
        p, dp = measurement_probabilities(swd, bell_povm())
        report = classical_fi(p, dp)
        result = kappa(report, np.array(analytic_qfi_diag(0.5)), m=2)
        assert abs(result.kappa - result.per_parameter.sum()) < 1e-12
        assert np.all(result.per_parameter >= -1e-9)


class TestQcrDominance:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_classical_fi_bounded_by_quantum(self, seed):
        rng = np.random.default_rng(seed)
        angles = rng.uniform(0, math.pi, 4)
        povm = product_projective_povm(tuple(angles))
        for family, params, phases in (
                (ProbeFamily.phase_dephasing(copies=2), (0.4, 0.5), (0.1, 0.9)),
                (ProbeFamily.two_phase(copies=2), (0.5, 0.2), (0.3, 0.3))):
            swd = probe_with_derivatives(family, params, phases)
            p, dp = measurement_probabilities(swd, povm)
            report = classical_fi(p, dp)
            single = probe_with_derivatives(
                type(family)(family.kind, 1), params, phases[:1])
            h = qfi_matrix(single)
            gap = 2.0 * h - report.classical_fi
            assert np.linalg.eigvalsh(gap).min() > -1e-7


ANGLES = st.floats(-math.pi, math.pi)


class TestGillMassarBound:
    """Single-copy kappa <= 1 for every single-qubit measurement (Gill and
    Massar, PRA 61, 042312, 2000): the bound behind acceptance 3."""

    @staticmethod
    def random_qubit_povm(seed, projective_parts):
        # a mixture of projective measurements reaches kappa = 1; a whitened
        # random POVM (projective_parts = 0) covers the non-extremal ones
        rng = np.random.default_rng(seed)
        if projective_parts == 0:
            g = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
            raw = np.array([m @ m.conj().T for m in g])
            w, v = np.linalg.eigh(raw.sum(axis=0))
            whiten = (v * w ** -0.5) @ v.conj().T
            elements = np.array([whiten @ m @ whiten for m in raw])
        else:
            weights = rng.dirichlet(np.ones(projective_parts))
            elements = []
            for weight in weights:
                basis = scenarios._haar_bases(
                    scenarios._complex_gaussian(rng, 2))
                elements += [weight * np.outer(basis[:, k], basis[:, k].conj())
                             for k in range(2)]
        return Povm(tuple(f"k{i}" for i in range(len(elements))),
                    np.array(elements))

    @given(seed=st.integers(0, 2**32 - 1), parts=st.integers(0, 3),
           two_phase=st.booleans(), a=ANGLES, b=ANGLES, xi=ANGLES,
           delta=st.floats(0.0, 3.0))
    @settings(deadline=None, max_examples=200)
    def test_single_copy_kappa_at_most_one(self, seed, parts, two_phase, a, b,
                                           xi, delta):
        # on the reference path and on the batched kernel
        povm = self.random_qubit_povm(seed, parts)
        stack = np.ascontiguousarray(povm.elements)
        if two_phase:
            family, params = ProbeFamily.two_phase(), (a, b)
            fixed = {"phi_y": a, "phi_z": b, "xi": xi}
        else:
            family, params = ProbeFamily.phase_dephasing(), (a, delta)
            fixed = {"phi": a, "delta": delta, "xi_1": xi}
        scenario = Scenario(family=family, measurement=povm,
                            fixed_inputs=fixed, sweep=None)
        single = single_copy(family, params, np.array([xi]))
        batch = kernels.kappa_batch(pauli_table(stack), single[0],
                                    *qfi_entry(*single, [0, 1]), 1,
                                    1e-12)
        assert evaluate_kappa(scenario, {}).kappa <= 1.0 + 1e-9
        assert batch[0][0] <= 1.0 + 1e-9
