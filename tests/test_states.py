import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, expm_frechet

from qmetro import (ProbeFamily, probe_with_derivatives, qfi_matrix,
                    tensor_product)
from qmetro.linalg import (PAULI_Y, PAULI_Z, PAULIS, hermiticity_defect,
                           projector)
from qmetro.scenarios import single_copy_qfi_diagonal
from qmetro.states import (check_point, dephasing_qfi, point_errors,
                           single_copy, two_phase_coordinates)

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


def equatorial_ket(xi):
    """(|0> + e^{i xi}|1>)/sqrt(2)."""
    return np.array([1.0, np.exp(1j * xi)]) / np.sqrt(2.0)


def bloch_rotation(u):
    """The rotation R_ab = Tr[sigma_a u sigma_b u^dagger]/2 (a, b = x, y, z)
    by which the unitary ``u`` turns Bloch vectors."""
    return np.array([[np.trace(a @ u @ b @ u.conj().T).real / 2.0
                      for b in PAULIS[1:]] for a in PAULIS[1:]])


def oracle_coordinates(xi, phi_y, phi_z):
    """The two-phase copy's (3, 4) coordinate stack from scipy: psi =
    expm(iG)|xi> with G = phi_y*sigma_y + phi_z*sigma_z, d psi from
    expm_frechet, then r_a = <psi|sigma_a|psi> and d r_a = 2 Re <d psi|
    sigma_a|psi>."""
    generator = 1j * (phi_y * PAULI_Y + phi_z * PAULI_Z)
    ket = equatorial_ket(xi)
    kets = [expm(generator) @ ket] + [
        expm_frechet(generator, 1j * pauli)[1] @ ket
        for pauli in (PAULI_Y, PAULI_Z)]
    return np.array([[(1.0 + (k > 0)) * np.vdot(d, pauli @ kets[0]).real
                      for pauli in PAULIS] for k, d in enumerate(kets)])


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
            dephased(float("nan"), 0.0, 0.0)

    # the equatorial input itself is the two-phase copy at no rotation
    @pytest.mark.parametrize("make", [
        lambda xi: two_phase_coordinates(xi, 0.0, 0.0),
        lambda xi: two_phase_coordinates(xi, 0.4, 0.3),
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
    """The two-phase rotation U, as the rotation R of the Bloch sphere that
    it makes, read off the output coordinates of the inputs xi = 0 and
    pi/2: those are R's first two columns R e_x and R e_y, and their cross
    product is its third."""

    @staticmethod
    def read_rotation(phi_y, phi_z):
        x, y = (two_phase_coordinates(xi, phi_y, phi_z)[0, 1:]
                for xi in (0.0, math.pi / 2))
        return np.stack([x, y, np.cross(x, y)], axis=1)

    def test_zero_angles_identity(self):
        assert np.allclose(self.read_rotation(0.0, 0.0), np.eye(3),
                           atol=1e-15)

    def test_z_generator_quarter_turn(self):
        # closed-form exponential of sigma_z alone
        expected = np.diag([np.exp(1j * math.pi / 2), np.exp(-1j * math.pi / 2)])
        assert np.allclose(self.read_rotation(0.0, math.pi / 2),
                           bloch_rotation(expected), atol=1e-14)

    def test_y_generator_quarter_turn(self):
        expected = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.allclose(self.read_rotation(math.pi / 2, 0.0),
                           bloch_rotation(expected), atol=1e-14)

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
        assert np.abs(self.read_rotation(phi_y, phi_z)
                      - bloch_rotation(series)).max() < 1e-10

    @given(phi_y=ANGLES, phi_z=ANGLES, xi=ANGLES)
    @settings(deadline=None, max_examples=60)
    def test_matches_scipy_expm(self, phi_y, phi_z, xi):
        coords = two_phase_coordinates(xi, phi_y, phi_z)[0]
        u = rotation(phi_y, phi_z)
        expected = u @ projector(equatorial_ket(xi)) @ u.conj().T
        assert np.abs(coords - [np.trace(expected @ pauli).real
                                for pauli in PAULIS]).max() < 1e-12

    @given(phi_y=ANGLES, phi_z=ANGLES)
    @settings(deadline=None, max_examples=60)
    def test_unitarity(self, phi_y, phi_z):
        # a unitary U turns the Bloch sphere by an orthogonal R
        r = self.read_rotation(phi_y, phi_z)
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12


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
    """The quantum information of the pure two-phase probe, |dr|^2 of its
    Bloch vector r, against the SLD solution."""

    @staticmethod
    def bloch_information(coords):
        """|d_j r|^2 from a (3, ..., 4) coordinate stack, written out."""
        return sum(coords[1:, ..., a] ** 2 for a in (1, 2, 3))

    @given(xi=ANGLES, phi_y=ANGLES, phi_z=ANGLES)
    @settings(deadline=None, max_examples=200)
    def test_matches_the_sld_solution(self, xi, phi_y, phi_z):
        sld = sld_qfi_diagonal(ProbeFamily.two_phase(), (phi_y, phi_z), xi)
        coords, _ = single_copy(ProbeFamily.two_phase(), (phi_y, phi_z), xi)
        closed = self.bloch_information(coords)
        # each H_jj lies in [0, 4]
        assert np.all(np.abs(closed - sld) <= 1e-12)
        reported = single_copy_qfi_diagonal(ProbeFamily.two_phase(),
                                            (phi_y, phi_z), xi)
        assert reported.tobytes() == closed.tobytes()

    def test_rows_match_single_kets(self):
        family = ProbeFamily.two_phase()
        xi = np.array([0.0, 0.7, 2.5])
        rows = np.array(single_copy(family, (0.4, 0.3), xi)[1])
        assert rows.shape == (2, 3)
        for i, x in enumerate(xi):
            single = np.array(single_copy(family, (0.4, 0.3), float(x))[1])
            assert rows[:, i].tobytes() == single.tobytes()

    def test_reported_information_refuses_bad_inputs(self):
        with pytest.raises(ValueError, match="phi_z must be finite"):
            single_copy_qfi_diagonal(ProbeFamily.two_phase(),
                                     (0.3, math.inf), 0.0)


def oracle_two_phase_qfi(xi, phi_y, phi_z):
    """H_jj = 4 (<d psi|d psi> - |<psi|d psi>|^2) at 50 digits, with
    psi = expm(i (phi_y sigma_y + phi_z sigma_z))|xi> by mpmath and its
    derivatives by central differences of step 1e-20, whose error is far
    below a double's rounding."""
    with mpmath.workdps(50):
        sy = mpmath.matrix([[0, -1j], [1j, 0]])
        sz = mpmath.matrix([[1, 0], [0, -1]])
        plus = mpmath.matrix([1, mpmath.expj(xi)]) / mpmath.sqrt(2)

        def ket(a, b):
            return mpmath.expm(1j * (a * sy + b * sz)) * plus

        psi, h = ket(phi_y, phi_z), mpmath.mpf("1e-20")
        out = []
        for da, db in ((h, 0), (0, h)):
            d = (ket(phi_y + da, phi_z + db)
                 - ket(phi_y - da, phi_z - db)) / (2 * h)
            overlap = sum(mpmath.conj(psi[i]) * d[i] for i in range(2))
            out.append(4 * (sum(abs(d[i]) ** 2 for i in range(2))
                            - abs(overlap) ** 2))
        return out


class TestTwoPhaseRows:
    """The two-phase copy: its quantum information at small H against an
    mpmath oracle, and each row's bits alone and in a batch."""

    # (xi, phi_y, phi_z) where one H_jj lies between 5e-4 and 1.2e-2;
    # there 4 (<d psi|d psi> - |<psi|d psi>|^2) in doubles cancels to a
    # relative error of 1.6e-13 to 3.0e-12, and |d_j r|^2 of coordinates
    # formed from kets to up to 2.4e-14. The last point has H_yy = 3.3e-6,
    # where the coordinates from kets were off by 1.3e-13
    @pytest.mark.parametrize("xi,phi_y,phi_z", [
        (0.2278, 0.05, 1.8), (-1.6054, -1.4, -0.07), (-1.5614, -1.47, 0.02),
        (-0.3597, 0.02, -1.93), (-1.5834, -1.03, -0.02),
        (-2.0609, -0.06, -0.49), (-1.7279, -0.49, -0.17),
        (-1.4357, -0.3, 0.14), (-1.45399, -0.0103092, 0.117249),
    ])
    def test_small_information_matches_the_oracle(self, xi, phi_y, phi_z):
        h = np.array(single_copy(ProbeFamily.two_phase(), (phi_y, phi_z),
                                 xi)[1])
        exact = oracle_two_phase_qfi(xi, phi_y, phi_z)
        assert min(exact) < 1.2e-2
        for value, reference in zip(h, exact):
            assert abs((value - reference) / reference) <= 1e-14

    def test_rows_of_every_branch_get_their_bits_alone(self):
        # theta = 0, theta on both sides of the series cutoff 1e-2 and
        # generic theta, in one batch of per-row rotations
        cut = 1e-2
        thetas = [0.0, 1e-9, 0.99 * cut, np.nextafter(cut, 0.0), cut,
                  np.nextafter(cut, 1.0), 1.01 * cut, 0.7, 2.5]
        rows = [(t, 0.0) for t in thetas] + [(0.6 * t, -0.8 * t)
                                            for t in thetas]
        phi_y, phi_z = np.array(rows).T
        xi = np.linspace(-3.0, 3.0, len(rows))
        family = ProbeFamily.two_phase()
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            stack = two_phase_coordinates(xi, phi_y, phi_z)
            coords, h = single_copy(family, (phi_y, phi_z), xi)
            for i in range(len(rows)):
                point = (float(phi_y[i]), float(phi_z[i]))
                alone = two_phase_coordinates(float(xi[i]), *point)
                assert stack[:, i].tobytes() == alone.tobytes()
                one, one_h = single_copy(family, point, float(xi[i]))
                assert coords[:, i].tobytes() == one.tobytes()
                assert h[:, i].tobytes() == np.array(one_h).tobytes()


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
        # closed form against a central difference of the coordinates and
        # against the exact Frechet derivative of expm, at random points
        # and on both sides of the series cutoff 1e-2 of the theta -> 0
        # branch, along each generator and between them
        rng = np.random.default_rng(5)
        points = [tuple(rng.uniform(-2.0, 2.0, 3)) for _ in range(50)]
        for theta in (0.0, 1e-9, 1e-4, 0.99e-2, np.nextafter(1e-2, 0.0),
                      1e-2, np.nextafter(1e-2, 1.0), 1.01e-2):
            points += [(0.4, theta, 0.0), (-2.2, 0.0, -theta),
                       (1.3, 0.6 * theta, 0.8 * theta)]
        h = 1e-6
        for xi, phi_y, phi_z in points:
            coords = two_phase_coordinates(xi, phi_y, phi_z)
            oracle = oracle_coordinates(xi, phi_y, phi_z)

            def state(a, b):
                return two_phase_coordinates(xi, a, b)[0]

            fd = [(state(phi_y + h, phi_z) - state(phi_y - h, phi_z)),
                  (state(phi_y, phi_z + h) - state(phi_y, phi_z - h))]
            assert np.abs(coords - oracle).max() < 1e-14
            assert np.abs(coords[1:] - np.array(fd) / (2 * h)).max() < 1e-9

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
