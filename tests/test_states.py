import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, expm_frechet

from qmetro import (ProbeFamily, make_equatorial_ket, probe_with_derivatives,
                    qfi_matrix, tensor_product, two_phase_ket_with_derivatives)
from qmetro.linalg import PAULI_Y, PAULI_Z, hermiticity_defect, projector
from qmetro.scenarios import single_copy_qfi_diagonal
from qmetro.states import (check_point, dephasing_qfi, point_errors,
                           pure_qfi_diagonal)

ANGLES = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
#: an input value: finite of either sign, or nan or an infinity
INPUTS = st.one_of(st.floats(-3.0, 3.0),
                   st.sampled_from([math.nan, math.inf, -math.inf]))


def dephased(xi, phi, delta):
    """The single-copy phase-dephasing probe state."""
    return probe_with_derivatives(ProbeFamily.phase_dephasing(),
                                  (phi, delta), (xi,)).state


def check_density_matrix(rho):
    """Hermitian, unit trace and PSD, each to 1e-10."""
    assert np.abs(rho - rho.conj().T).max() <= 1e-10
    assert abs(np.trace(rho) - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(rho).min() >= -1e-10


def purity(rho):
    return float(np.real(np.trace(rho @ rho)))


def sld_qfi_diagonal(family, params, xi):
    """The single-copy quantum information diagonal solved through the
    SLD: the independent oracle of the closed forms."""
    return np.diag(qfi_matrix(probe_with_derivatives(family, params, (xi,))))


def rotation(phi_y, phi_z):
    """exp(i*(phi_y*sigma_y + phi_z*sigma_z)) by scipy, as an oracle."""
    return expm(1j * (phi_y * PAULI_Y + phi_z * PAULI_Z))


class TestEquatorialState:
    """The input state: the dephasing probe with no phase and no dephasing."""

    def test_xi_zero_is_plus(self):
        rho = dephased(0.0, 0.0, 0.0)
        assert np.allclose(rho, np.full((2, 2), 0.5), atol=1e-15)

    def test_xi_pi_is_minus(self):
        rho = dephased(math.pi, 0.0, 0.0)
        expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.allclose(rho, expected, atol=1e-15)

    def test_xi_half_pi(self):
        rho = dephased(math.pi / 2, 0.0, 0.0)
        expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
        assert np.allclose(rho, expected, atol=1e-15)

    def test_rank_one_trace_one(self):
        rho = dephased(1.3, 0.0, 0.0)
        check_density_matrix(rho)
        assert abs(purity(rho) - 1.0) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            make_equatorial_ket(float("nan"))

    @pytest.mark.parametrize("make", [
        lambda xi: make_equatorial_ket(xi),
        lambda xi: two_phase_ket_with_derivatives(xi, 0.4, 0.3),
    ], ids=["equatorial", "two-phase"])
    @pytest.mark.parametrize("xi", [
        math.nan, np.array([0.0, math.nan]), np.array([[0.3], [-math.inf]]),
    ], ids=["one", "row", "column"])
    def test_non_finite_phase_named_by_the_point_rule(self, make, xi):
        # the first non-finite phase, as ``point_errors`` names it
        bad = float(np.ravel(xi)[~np.isfinite(np.ravel(xi))][0])
        with pytest.raises(ValueError) as refused:
            make(xi)
        assert str(refused.value) == f"xi must be finite, got {bad!r}"


class TestRotationUnitary:
    """The two-phase rotation U, read off the output kets U|+> and U|->
    of the inputs xi = 0 and pi: its columns are U|0> = (U|+> + U|->)/sqrt(2)
    and U|1> = (U|+> - U|->)/sqrt(2)."""

    @staticmethod
    def rotation_unitary(phi_y, phi_z):
        kets = [two_phase_ket_with_derivatives(xi, phi_y, phi_z)[0]
                for xi in (0.0, math.pi)]
        return np.stack([kets[0] + kets[1], kets[0] - kets[1]],
                        axis=1) / np.sqrt(2.0)

    def test_zero_angles_identity(self):
        assert np.allclose(self.rotation_unitary(0.0, 0.0), np.eye(2),
                           atol=1e-15)

    def test_z_generator_quarter_turn(self):
        # closed-form exponential of sigma_z alone
        expected = np.diag([np.exp(1j * math.pi / 2), np.exp(-1j * math.pi / 2)])
        assert np.allclose(self.rotation_unitary(0.0, math.pi / 2), expected,
                           atol=1e-14)

    def test_y_generator_quarter_turn(self):
        expected = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.allclose(self.rotation_unitary(math.pi / 2, 0.0), expected,
                           atol=1e-14)

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
        assert np.abs(self.rotation_unitary(phi_y, phi_z) - series).max() < 1e-10

    @given(phi_y=ANGLES, phi_z=ANGLES, xi=ANGLES)
    @settings(deadline=None, max_examples=60)
    def test_matches_scipy_expm(self, phi_y, phi_z, xi):
        ket = two_phase_ket_with_derivatives(xi, phi_y, phi_z)[0]
        expected = rotation(phi_y, phi_z) @ make_equatorial_ket(xi)
        assert np.abs(ket - expected).max() < 1e-12

    @given(phi_y=ANGLES, phi_z=ANGLES)
    @settings(deadline=None, max_examples=60)
    def test_unitarity(self, phi_y, phi_z):
        u = self.rotation_unitary(phi_y, phi_z)
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12


class TestDephasedPhaseState:
    def test_identity_inputs_give_plus(self):
        assert np.allclose(dephased(0.0, 0.0, 0.0),
                           np.full((2, 2), 0.5), atol=1e-15)

    def test_strong_dephasing_maximally_mixed(self):
        rho = dephased(0.2, 1.1, 6.0)
        assert abs(rho[0, 1]) < 1e-15
        assert np.allclose(np.diag(rho).real, [0.5, 0.5])

    def test_off_diagonal_value(self):
        rho = dephased(0.0, math.pi / 2, 1.0)
        assert abs(abs(rho[0, 1]) - math.exp(-1.0) / 2) < 1e-14
        assert abs(np.angle(rho[0, 1]) + math.pi / 2) < 1e-14

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            dephased(0.0, 0.0, -0.1)

    @given(xi=ANGLES, phi=ANGLES, delta=st.floats(0.0, 4.0))
    @settings(deadline=None, max_examples=60)
    def test_valid_state_with_known_purity(self, xi, phi, delta):
        rho = dephased(xi, phi, delta)
        check_density_matrix(rho)
        expected = (1.0 + math.exp(-2.0 * delta * delta)) / 2.0
        assert abs(purity(rho) - expected) < 1e-10


class TestDephasingQfi:
    """The closed-form single-copy quantum information of the dephased probe
    against the SLD solution."""

    @given(delta=st.floats(1e-3, 3.0))
    @settings(deadline=None, max_examples=200)
    def test_matches_the_sld_solution(self, delta):
        # the quantum information does not depend on the phase; phase 0 is
        # where the SLD solution is most accurate for a nearly pure state
        sld = sld_qfi_diagonal(ProbeFamily.phase_dephasing(), (0.0, delta),
                               0.0)
        closed = np.array(dephasing_qfi(delta))
        assert np.all(np.abs(closed - sld) <= 1e-9 * np.abs(sld))

    def test_delta_information_vanishes_at_zero_on_both_paths(self):
        sld = sld_qfi_diagonal(ProbeFamily.phase_dephasing(), (0.4, 0.0), 0.3)
        assert tuple(dephasing_qfi(0.0)) == (1.0, 0.0)
        assert sld[1] == 0.0

    @given(xi=ANGLES, phi=ANGLES, delta=st.floats(0.0, 3.0))
    @settings(deadline=None, max_examples=100)
    def test_reported_information_does_not_depend_on_the_phase(self, xi, phi,
                                                                delta):
        # the reported kappa divides by the bits that the kernels divide
        # by, at every phase; the SLD solution of a nearly pure state moves
        # with the phase, by up to 1e-9 relative at delta = 1e-3
        reported = single_copy_qfi_diagonal(ProbeFamily.phase_dephasing(),
                                            (phi, delta), xi)
        assert reported.tobytes() == np.array(dephasing_qfi(delta)).tobytes()

    def test_reported_information_refuses_bad_inputs(self):
        family = ProbeFamily.phase_dephasing()
        with pytest.raises(ValueError, match="must be >= 0"):
            single_copy_qfi_diagonal(family, (0.3, -0.1), 0.0)
        with pytest.raises(ValueError, match="xi must be finite"):
            single_copy_qfi_diagonal(family, (0.3, 0.5), math.nan)

    def test_array_rows_match_single_values(self):
        deltas = np.array([0.0, 1e-3, 0.3, 2.0, -0.5])
        h_phi, h_delta = dephasing_qfi(deltas)
        for i, delta in enumerate(deltas):
            assert (h_phi[i], h_delta[i]) == tuple(dephasing_qfi(float(delta)))
        # even in delta
        assert h_delta[-1] == dephasing_qfi(0.5)[1]


class TestPureQfi:
    """The closed-form quantum information of the pure two-phase probe
    against the SLD solution."""

    @given(xi=ANGLES, phi_y=ANGLES, phi_z=ANGLES)
    @settings(deadline=None, max_examples=200)
    def test_matches_the_sld_solution(self, xi, phi_y, phi_z):
        sld = sld_qfi_diagonal(ProbeFamily.two_phase(), (phi_y, phi_z), xi)
        kets = two_phase_ket_with_derivatives(xi, phi_y, phi_z)
        closed = pure_qfi_diagonal(kets)
        # each H_jj lies in [0, 4]
        assert np.all(np.abs(closed - sld) <= 1e-12)
        reported = single_copy_qfi_diagonal(ProbeFamily.two_phase(),
                                            (phi_y, phi_z), xi)
        assert reported.tobytes() == closed.tobytes()

    def test_rows_match_single_kets(self):
        xi = np.array([0.0, 0.7, 2.5])
        rows = pure_qfi_diagonal(two_phase_ket_with_derivatives(xi, 0.4, 0.3))
        assert rows.shape == (2, 3)
        for i, x in enumerate(xi):
            single = pure_qfi_diagonal(
                two_phase_ket_with_derivatives(float(x), 0.4, 0.3))
            assert rows[:, i].tobytes() == single.tobytes()

    def test_reported_information_refuses_bad_inputs(self):
        with pytest.raises(ValueError, match="phi_z must be finite"):
            single_copy_qfi_diagonal(ProbeFamily.two_phase(),
                                     (0.3, math.inf), 0.0)


class TestProbeWithDerivatives:
    def test_dephasing_analytic_delta_derivative(self):
        phi, delta = 0.3, 0.5
        family = ProbeFamily.phase_dephasing()
        swd = probe_with_derivatives(family, (phi, delta), (0.0,))
        expected = -2.0 * delta * np.exp(-1j * phi - delta ** 2) / 2.0
        assert abs(swd.derivatives[1][0, 1] - expected) < 1e-14

    @pytest.mark.parametrize("family,phases", [
        (ProbeFamily.phase_dephasing(), (0.0,)),
        (ProbeFamily.phase_dephasing(copies=2), (0.1, 0.7)),
        (ProbeFamily.two_phase(), (0.0,)),
        (ProbeFamily.two_phase(copies=2), (0.4, 0.4)),
    ], ids=["family0", "family1", "family2", "family3"])
    def test_derivatives_traceless_and_hermitian(self, family, phases):
        params = (0.5, 0.4)
        swd = probe_with_derivatives(family, params, phases)
        for d in swd.derivatives:
            assert abs(np.trace(d)) < 1e-9
            assert hermiticity_defect(d) < 1e-10

    def test_two_phase_commutator_at_origin(self):
        swd = probe_with_derivatives(ProbeFamily.two_phase(), (0.0, 0.0), (0.3,))
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
        swd = probe_with_derivatives(ProbeFamily.phase_dephasing(copies=2),
                                     (0.4, 0.6), (0.0, 0.2))
        ones = [probe_with_derivatives(
            ProbeFamily.phase_dephasing(copies=1), (0.4, 0.6), (x,))
            for x in (0.0, 0.2)]
        assert np.allclose(swd.state,
                           np.kron(ones[0].state, ones[1].state), atol=1e-14)
        for j in range(2):
            expected = (np.kron(ones[0].derivatives[j], ones[1].state)
                        + np.kron(ones[0].state, ones[1].derivatives[j]))
            assert np.abs(swd.derivatives[j] - expected).max() < 1e-14

    def test_two_phase_state_is_rotated_input(self):
        rho = probe_with_derivatives(ProbeFamily.two_phase(), (0.5, 0.2),
                                     (0.3,)).state
        u = rotation(0.5, 0.2)
        plus = dephased(0.3, 0.0, 0.0)
        assert np.abs(rho - u @ plus @ u.conj().T).max() < 1e-14

    def test_parameter_count_checked(self):
        with pytest.raises(ValueError):
            probe_with_derivatives(ProbeFamily.phase_dephasing(), (0.1,),
                                   (0.0,))

    @pytest.mark.parametrize("phases", [(0.1,), (0.1, 0.2, 0.3)])
    def test_phase_count_checked(self, phases):
        with pytest.raises(ValueError, match="2 copies take one input phase "
                                             f"each, got {len(phases)}"):
            probe_with_derivatives(ProbeFamily.phase_dephasing(copies=2),
                                   (0.4, 0.6), phases)

    def test_family_validation(self):
        with pytest.raises(ValueError):
            ProbeFamily("bogus")
        with pytest.raises(ValueError):
            ProbeFamily.phase_dephasing(copies=0)


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

    def test_stacks_are_np_kron_bit_for_bit(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2))
        b = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
        out = tensor_product(a, b)
        assert out.shape == (6, 8, 8)
        for x, y, z in zip(a, b, out):
            assert np.array_equal(z, np.kron(x, y))
        # a single matrix broadcasts against a stack
        for y, z in zip(b, tensor_product(a[0], b)):
            assert np.array_equal(z, np.kron(a[0], y))

    def test_real_and_list_inputs_give_complex(self):
        out = tensor_product([[1, 2], [3, 4]], np.eye(2))
        assert out.dtype == np.complex128
        assert np.array_equal(out, np.kron([[1, 2], [3, 4]], np.eye(2)))


class TestProjector:
    def test_stacks_are_outer_products_bit_for_bit(self):
        rng = np.random.default_rng(3)
        kets = rng.standard_normal((5, 3, 4)) + 1j * rng.standard_normal((5, 3, 4))
        out = projector(kets)
        assert out.shape == (5, 3, 4, 4) and out.flags.c_contiguous
        for row, ket in zip(out.reshape(-1, 4, 4), kets.reshape(-1, 4)):
            assert np.array_equal(row, np.outer(ket, ket.conj()))
        assert np.array_equal(projector(kets[0, 0]),
                              np.outer(kets[0, 0], kets[0, 0].conj()))


class TestPointRule:
    """``point_errors`` gives each point of a stack the fault that
    ``check_point`` raises for that point alone."""

    @staticmethod
    def fault(point):
        """The rule written out for one point of floats."""
        for name, x in point.items():
            if not math.isfinite(x):
                return f"{name} must be finite, got {x!r}"
        if point.get("delta", 0.0) < 0:
            return f"dephasing strength must be >= 0, got {point['delta']}"
        return None

    @given(data=st.data())
    @settings(deadline=None, max_examples=300)
    def test_each_point_has_the_fault_it_has_alone(self, data):
        count = data.draw(st.integers(1, 6), label="count")
        names = data.draw(st.lists(st.sampled_from(
            ["phi", "xi_1", "xi_2", "theta_1", "eta_2"]), unique=True,
            max_size=4), label="names")
        names.insert(data.draw(st.integers(0, len(names))), "delta")
        values = {name: np.array(data.draw(st.lists(
            INPUTS, min_size=count, max_size=count), label=name))
            if data.draw(st.booleans()) else data.draw(INPUTS, label=name)
            for name in names}
        errors = point_errors(values, count)
        assert len(errors) == count
        for i, error in enumerate(errors):
            point = {n: float(v[i]) if isinstance(v, np.ndarray) else v
                     for n, v in values.items()}
            expected = self.fault(point)
            if expected is None:
                assert error is None
                check_point(**point)
                continue
            assert type(error) is ValueError and str(error) == expected
            with pytest.raises(ValueError) as raised:
                check_point(**point)
            assert str(raised.value) == expected
        # on the whole stack, check_point raises the first point's fault
        first = next((str(e) for e in errors if e is not None), None)
        if first is None:
            check_point(**values)
        else:
            with pytest.raises(ValueError) as raised:
                check_point(**values)
            assert str(raised.value) == first
