"""Cross-checks between the fused kernels and the unaccelerated module-level
reference path, and the quantum-information floor both paths share."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetro import (Povm, ProbeFamily, Scenario, bell_povm, classical_fi,
                    evaluate_kappa, haar_random_basis, kappa,
                    measurement_probabilities, probe_with_derivatives,
                    product_projective_povm)
from qmetro import kernels
from qmetro.fisher import H_FLOOR
from qmetro.scenarios import single_copy_qfi_diagonal

ANGLES = st.floats(-math.pi, math.pi)


def test_dephasing_kernel_matches_reference_path():
    family = ProbeFamily.phase_dephasing(copies=2, xi=(0.2, 1.1))
    scenario = Scenario(family=family, measurement=bell_povm(),
                        free_inputs=(),
                        fixed_inputs={"phi": 0.5, "delta": 0.45,
                                      "xi_1": 0.2, "xi_2": 1.1},
                        sweep="delta")
    reference = evaluate_kappa(scenario, {})
    h = single_copy_qfi_diagonal(family, (0.5, 0.45), 0.2)
    povm = np.ascontiguousarray(bell_povm().elements)
    value, k1, k2, status = kernels.kappa_phase_dephasing(
        0.5 + 0.2, 0.5 + 1.1, 0.45, povm, h[0], h[1], 1e-12)
    assert status == 0
    assert abs(value - reference.kappa) < 1e-9
    assert abs(k1 - reference.per_parameter[0]) < 1e-9
    assert abs(k2 - reference.per_parameter[1]) < 1e-9


@pytest.mark.parametrize("xi,phi_y,phi_z", [
    (0.7, 0.4, 0.3), (2.1, -0.9, 0.05), (0.3, 1e-9, 2e-9), (1.2, 0.007, 0.006),
])
def test_two_phase_kernel_matches_reference_path(xi, phi_y, phi_z):
    family = ProbeFamily.two_phase(copies=2, xi=xi)
    povm = product_projective_povm((0.9, 0.3, 1.4, 2.0))
    scenario = Scenario(family=family, measurement=povm, free_inputs=(),
                        fixed_inputs={"phi_y": phi_y, "phi_z": phi_z,
                                      "xi": xi},
                        sweep="phi_z")
    reference = evaluate_kappa(scenario, {})
    stack = np.ascontiguousarray(povm.elements)
    value, k1, k2, status = kernels.kappa_two_phase(
        xi, phi_y, phi_z, stack, 1e-12)
    assert status == 0
    # both paths use the same closed-form derivative
    assert abs(value - reference.kappa) < 1e-12
    assert abs(k1 - reference.per_parameter[0]) < 1e-12
    assert abs(k2 - reference.per_parameter[1]) < 1e-12


def test_two_phase_kernel_ignores_a_legacy_step_argument():
    stack = np.ascontiguousarray(bell_povm().elements)
    assert (kernels.kappa_two_phase(0.3, 0.4, 0.3, stack, 1e-5, 1e-12)
            == kernels.kappa_two_phase(0.3, 0.4, 0.3, stack, 1e-12))


def test_quantum_information_floor_boundary_on_both_paths():
    h = np.array([H_FLOOR, 2.0 * H_FLOOR])
    report = classical_fi(
        np.full(4, 0.25),
        np.array([[0.05, -0.05, 0.05, -0.05], [0.05, 0.05, -0.05, -0.05]]))
    reference = kappa(report, h, m=2)
    assert reference.excluded == (0,)
    assert reference.per_parameter[0] == 0.0 and reference.per_parameter[1] > 0

    povm = np.ascontiguousarray(bell_povm().elements)
    value, k1, k2, status = kernels.kappa_phase_dephasing(
        0.7, 1.9, 0.45, povm, h[0], h[1], 1e-12)
    assert status == 2
    assert k1 == 0.0 and k2 > 0 and value == k2


def test_singular_point_follows_the_reference_policy():
    # the Fisher matrix is singular here; phi_y's quantum information is 0
    xi, phi_y, phi_z = math.pi / 2, 0.0, 0.0
    povm = product_projective_povm((0.9, 0.3, 1.4, 2.0))
    scenario = Scenario(family=ProbeFamily.two_phase(copies=2), measurement=povm,
                        free_inputs=(),
                        fixed_inputs={"phi_y": phi_y, "phi_z": phi_z, "xi": xi},
                        sweep="phi_z")
    reference = evaluate_kappa(scenario, {})
    value, k1, k2, status = kernels.kappa_two_phase(
        xi, phi_y, phi_z, np.ascontiguousarray(povm.elements), 1e-12)
    assert status == 1
    assert reference.kappa > 0.7
    assert abs(value - reference.kappa) < 1e-12
    assert abs(k1 - reference.per_parameter[0]) < 1e-12
    assert abs(k2 - reference.per_parameter[1]) < 1e-12


def _random_two_copy_povm(seed, haar):
    rng = np.random.default_rng(seed)
    if haar:
        basis = haar_random_basis(rng, 4)
        return Povm(tuple(f"b{k}" for k in range(4)),
                    np.stack([np.outer(basis[:, k], basis[:, k].conj())
                              for k in range(4)]))
    return product_projective_povm(tuple(rng.uniform(0, 2 * math.pi, 4)))


def _tolerance(family, params, povm):
    """1e-12, widened where kappa is ill-conditioned: two ways of computing
    it differ by about eps * cond(F) from inverting the Fisher matrix F, and
    by about eps / H_jj from dividing by a small quantum information H_jj."""
    swd = probe_with_derivatives(family, params)
    fisher_matrix = classical_fi(*measurement_probabilities(swd, povm)).classical_fi
    h = single_copy_qfi_diagonal(family, params, family.input_phases[0])
    return 1e-12 + 1e-14 * (np.linalg.cond(fisher_matrix) + (1.0 / h).max())


def _assert_rows_agree(batch, scalars, references, tolerances):
    for row, (scalar, reference, tol) in enumerate(
            zip(scalars, references, tolerances)):
        from_batch = tuple(float(column[row]) for column in batch[:3])
        for a, b, c in zip(from_batch, scalar[:3],
                           (reference.kappa, *reference.per_parameter)):
            assert abs(a - b) < 1e-12 and abs(a - c) < tol
        assert int(batch[3][row]) == scalar[3]


@given(seed=st.integers(0, 2**32 - 1), haar=st.booleans(), phi=ANGLES,
       delta=st.floats(0.05, 2.5),
       phases=st.lists(st.tuples(ANGLES, ANGLES), min_size=1, max_size=6))
@settings(deadline=None, max_examples=60)
def test_dephasing_batch_matches_scalar_and_reference(seed, haar, phi, delta,
                                                      phases):
    povm = _random_two_copy_povm(seed, haar)
    stack = np.ascontiguousarray(povm.elements)
    family = ProbeFamily.phase_dephasing(copies=2)
    h = single_copy_qfi_diagonal(family, (phi, delta), 0.0)
    alpha1 = np.array([phi + x1 for x1, _ in phases])
    alpha2 = np.array([phi + x2 for _, x2 in phases])
    batch = kernels.kappa_phase_dephasing_batch(alpha1, alpha2, delta, stack,
                                                h[0], h[1], 1e-12)
    scalars = [kernels.kappa_phase_dephasing(a1, a2, delta, stack, h[0], h[1],
                                             1e-12)
               for a1, a2 in zip(alpha1, alpha2)]
    references = [evaluate_kappa(Scenario(
        family=family, measurement=povm, free_inputs=(),
        fixed_inputs={"phi": phi, "delta": delta, "xi_1": x1, "xi_2": x2},
        sweep="delta"), {}) for x1, x2 in phases]
    tolerances = [_tolerance(ProbeFamily.phase_dephasing(copies=2, xi=(x1, x2)),
                             (phi, delta), povm) for x1, x2 in phases]
    _assert_rows_agree(batch, scalars, references, tolerances)


@given(seed=st.integers(0, 2**32 - 1), haar=st.booleans(), phi_y=ANGLES,
       phi_z=ANGLES, xis=st.lists(ANGLES, min_size=1, max_size=6))
@settings(deadline=None, max_examples=60)
def test_two_phase_batch_matches_scalar_and_reference(seed, haar, phi_y, phi_z,
                                                      xis):
    povm = _random_two_copy_povm(seed, haar)
    stack = np.ascontiguousarray(povm.elements)
    batch = kernels.kappa_two_phase_batch(np.array(xis), phi_y, phi_z, stack,
                                          1e-12)
    scalars = [kernels.kappa_two_phase(xi, phi_y, phi_z, stack, 1e-12)
               for xi in xis]
    references = [evaluate_kappa(Scenario(
        family=ProbeFamily.two_phase(copies=2), measurement=povm,
        free_inputs=(), fixed_inputs={"phi_y": phi_y, "phi_z": phi_z, "xi": xi},
        sweep="phi_z"), {}) for xi in xis]
    tolerances = [_tolerance(ProbeFamily.two_phase(copies=2, xi=xi),
                             (phi_y, phi_z), povm) for xi in xis]
    _assert_rows_agree(batch, scalars, references, tolerances)


def test_scalar_kernels_return_python_scalars():
    stack = np.ascontiguousarray(bell_povm().elements)
    for out in (kernels.kappa_two_phase(0.3, 0.4, 0.3, stack, 1e-12),
                kernels.kappa_phase_dephasing(0.7, 1.9, 0.45, stack, 0.6, 0.9,
                                              1e-12)):
        assert [type(v) for v in out] == [float, float, float, int]
