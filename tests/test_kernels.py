"""Cross-checks between the fused kernels and the unaccelerated module-level
reference path, and the quantum-information floor both paths share."""

import numpy as np
import pytest

from qmetro import (ProbeFamily, Scenario, bell_povm, classical_fi,
                    evaluate_kappa, kappa, product_projective_povm)
from qmetro import kernels
from qmetro.fisher import H_FLOOR
from qmetro.scenarios import single_copy_qfi_diagonal


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
