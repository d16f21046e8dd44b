import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm_frechet

from qmetro import (ProbeFamily, check_density_matrix, dephased_phase_state,
                    make_equatorial_ket, make_equatorial_state,
                    probe_with_derivatives, purity, rotation_unitary,
                    tensor_product, two_phase_ket_with_derivatives,
                    two_phase_state)
from qmetro.linalg import PAULI_Y, PAULI_Z, hermiticity_defect

ANGLES = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


class TestEquatorialState:
    def test_xi_zero_is_plus(self):
        rho = make_equatorial_state(0.0)
        assert np.allclose(rho, np.full((2, 2), 0.5), atol=1e-15)

    def test_xi_pi_is_minus(self):
        rho = make_equatorial_state(math.pi)
        expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.allclose(rho, expected, atol=1e-15)

    def test_xi_half_pi(self):
        rho = make_equatorial_state(math.pi / 2)
        expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
        assert np.allclose(rho, expected, atol=1e-15)

    def test_rank_one_trace_one(self):
        rho = make_equatorial_state(1.3)
        check_density_matrix(rho)
        assert abs(purity(rho) - 1.0) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            make_equatorial_ket(float("nan"))


class TestRotationUnitary:
    def test_zero_angles_identity(self):
        assert np.allclose(rotation_unitary(0.0, 0.0), np.eye(2), atol=1e-15)

    def test_z_generator_quarter_turn(self):
        # closed-form exponential of sigma_z alone
        expected = np.diag([np.exp(1j * math.pi / 2), np.exp(-1j * math.pi / 2)])
        assert np.allclose(rotation_unitary(0.0, math.pi / 2), expected, atol=1e-14)

    def test_y_generator_quarter_turn(self):
        expected = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.allclose(rotation_unitary(math.pi / 2, 0.0), expected, atol=1e-14)

    @pytest.mark.parametrize("phi_y,phi_z", [
        (0.3, 0.4), (0.9, -0.1), (-0.5, 0.5), (1e-9, 1e-9), (0.6, 0.7),
    ])
    def test_matches_taylor_series(self, phi_y, phi_z):
        # 12th-order Taylor series of exp(iA) as an independent oracle
        a = 1j * (phi_y * PAULI_Y + phi_z * PAULI_Z)
        term = np.eye(2, dtype=complex)
        series = np.eye(2, dtype=complex)
        for k in range(1, 13):
            term = term @ a / k
            series = series + term
        assert np.abs(rotation_unitary(phi_y, phi_z) - series).max() < 1e-10

    @given(phi_y=ANGLES, phi_z=ANGLES)
    @settings(deadline=None, max_examples=60)
    def test_unitarity(self, phi_y, phi_z):
        u = rotation_unitary(phi_y, phi_z)
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12


class TestDephasedPhaseState:
    def test_identity_inputs_give_plus(self):
        assert np.allclose(dephased_phase_state(0.0, 0.0, 0.0),
                           np.full((2, 2), 0.5), atol=1e-15)

    def test_strong_dephasing_maximally_mixed(self):
        rho = dephased_phase_state(0.2, 1.1, 6.0)
        assert abs(rho[0, 1]) < 1e-15
        assert np.allclose(np.diag(rho).real, [0.5, 0.5])

    def test_off_diagonal_value(self):
        rho = dephased_phase_state(0.0, math.pi / 2, 1.0)
        assert abs(abs(rho[0, 1]) - math.exp(-1.0) / 2) < 1e-14
        assert abs(np.angle(rho[0, 1]) + math.pi / 2) < 1e-14

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            dephased_phase_state(0.0, 0.0, -0.1)

    @given(xi=ANGLES, phi=ANGLES, delta=st.floats(0.0, 4.0))
    @settings(deadline=None, max_examples=60)
    def test_valid_state_with_known_purity(self, xi, phi, delta):
        rho = dephased_phase_state(xi, phi, delta)
        check_density_matrix(rho)
        expected = (1.0 + math.exp(-2.0 * delta * delta)) / 2.0
        assert abs(purity(rho) - expected) < 1e-10


class TestProbeWithDerivatives:
    def test_dephasing_analytic_delta_derivative(self):
        phi, delta = 0.3, 0.5
        family = ProbeFamily.phase_dephasing()
        swd = probe_with_derivatives(family, (phi, delta))
        expected = -2.0 * delta * np.exp(-1j * phi - delta ** 2) / 2.0
        assert abs(swd.derivatives[1][0, 1] - expected) < 1e-14

    @pytest.mark.parametrize("family", [
        ProbeFamily.phase_dephasing(),
        ProbeFamily.phase_dephasing(copies=2, xi=(0.1, 0.7)),
        ProbeFamily.two_phase(),
        ProbeFamily.two_phase(copies=2, xi=0.4),
    ])
    def test_derivatives_traceless_and_hermitian(self, family):
        params = (0.5, 0.4)
        swd = probe_with_derivatives(family, params)
        for d in swd.derivatives:
            assert abs(np.trace(d)) < 1e-9
            assert hermiticity_defect(d) < 1e-10

    def test_two_phase_commutator_at_origin(self):
        family = ProbeFamily.two_phase(xi=0.3)
        swd = probe_with_derivatives(family, (0.0, 0.0))
        rho = swd.state
        for pauli, deriv in ((PAULI_Y, swd.derivatives[0]),
                             (PAULI_Z, swd.derivatives[1])):
            commutator = 1j * (pauli @ rho - rho @ pauli)
            assert np.abs(deriv - commutator).max() < 1e-9

    def test_two_phase_analytic_derivative(self):
        # closed form against a central difference of the ket and against
        # the exact Frechet derivative of expm, at random points and around
        # the series cutoff of the theta -> 0 branch
        rng = np.random.default_rng(5)
        points = [tuple(rng.uniform(-2.0, 2.0, 3)) for _ in range(50)]
        for theta in (0.0, 1e-9, 0.99e-2, 1.01e-2):
            points += [(0.4, theta, 0.0), (1.3, 0.6 * theta, 0.8 * theta)]
        h = 1e-6
        for xi, phi_y, phi_z in points:
            psi, *dpsi = two_phase_ket_with_derivatives(xi, phi_y, phi_z)

            def ket(a, b):
                return two_phase_ket_with_derivatives(xi, a, b)[0]

            fd = [(ket(phi_y + h, phi_z) - ket(phi_y - h, phi_z)) / (2 * h),
                  (ket(phi_y, phi_z + h) - ket(phi_y, phi_z - h)) / (2 * h)]
            generator = 1j * (phi_y * PAULI_Y + phi_z * PAULI_Z)
            for d, fd_j, pauli in zip(dpsi, fd, (PAULI_Y, PAULI_Z)):
                u, du = expm_frechet(generator, 1j * pauli)
                assert np.abs(psi - u @ make_equatorial_ket(xi)).max() < 1e-14
                assert np.abs(d - du @ make_equatorial_ket(xi)).max() < 1e-14
                assert np.abs(d - fd_j).max() < 1e-9

    def test_two_copy_product_rule(self):
        family = ProbeFamily.phase_dephasing(copies=2, xi=(0.0, 0.2))
        swd = probe_with_derivatives(family, (0.4, 0.6))
        ones = [probe_with_derivatives(
            ProbeFamily.phase_dephasing(copies=1, xi=(x,)), (0.4, 0.6))
            for x in (0.0, 0.2)]
        assert np.allclose(swd.state,
                           np.kron(ones[0].state, ones[1].state), atol=1e-14)
        for j in range(2):
            expected = (np.kron(ones[0].derivatives[j], ones[1].state)
                        + np.kron(ones[0].state, ones[1].derivatives[j]))
            assert np.abs(swd.derivatives[j] - expected).max() < 1e-14

    def test_two_phase_state_is_rotated_input(self):
        rho = two_phase_state(0.3, 0.5, 0.2)
        u = rotation_unitary(0.5, 0.2)
        expected = u @ make_equatorial_state(0.3) @ u.conj().T
        assert np.abs(rho - expected).max() < 1e-14

    def test_parameter_count_checked(self):
        with pytest.raises(ValueError):
            probe_with_derivatives(ProbeFamily.phase_dephasing(), (0.1,))

    def test_family_validation(self):
        with pytest.raises(ValueError):
            ProbeFamily("bogus")
        with pytest.raises(ValueError):
            ProbeFamily.phase_dephasing(copies=2, xi=(0.1,))


class TestTensorProduct:
    def test_identity(self):
        assert np.allclose(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_projectors(self):
        a = np.diag([1.0, 0.0])
        b = np.diag([0.0, 1.0])
        assert np.allclose(tensor_product(a, b), np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = a @ a.conj().T
        a /= np.trace(a)
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = b @ b.conj().T
        b /= np.trace(b)
        assert abs(np.trace(tensor_product(a, b)) - 1.0) < 1e-12
