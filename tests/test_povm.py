import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetro import (GateModel, Povm, bell_povm, cs_gate_amplitudes,
                    cs_gate_povm, povm_from_json, povm_to_json,
                    product_projective_povm, tensor_product, validate_povm)

ANGLES = st.floats(0.0, 2.0 * math.pi)


def equatorial_state(xi):
    ket = np.array([1.0, np.exp(1j * xi)]) / np.sqrt(2.0)
    return np.outer(ket, ket.conj())


BELL_KETS = {
    "DD": np.array([1, 0, 0, 1]) / np.sqrt(2),
    "DA": np.array([0, 1, 1, 0]) / np.sqrt(2),
    "AD": np.array([1, 0, 0, -1]) / np.sqrt(2),
    "AA": np.array([0, 1, -1, 0]) / np.sqrt(2),
}


def random_two_qubit_state(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestBellPovm:
    def test_projects_its_own_kets(self):
        p = bell_povm()
        for label, ket in BELL_KETS.items():
            element = dict(p.outcomes)[label]
            prob = np.real(ket.conj() @ element @ ket)
            assert abs(prob - 1.0) < 1e-14

    def test_uniform_on_maximally_mixed(self):
        p = bell_povm()
        rho = np.eye(4) / 4.0
        for _, element in p.outcomes:
            assert abs(np.real(np.trace(rho @ element)) - 0.25) < 1e-14

    def test_mutually_orthogonal_projectors(self):
        p = bell_povm()
        for i in range(4):
            for j in range(4):
                prod = p.elements[i] @ p.elements[j]
                if i == j:
                    assert np.abs(prod - p.elements[i]).max() < 1e-12
                else:
                    assert np.abs(prod).max() < 1e-12

    def test_passes_validation(self):
        assert validate_povm(bell_povm()).passed


class TestProductProjectivePovm:
    def test_computational_basis(self):
        p = product_projective_povm((0.0, 0.0, 0.0, 0.0))
        for k, (label, element) in enumerate(p.outcomes):
            expected = np.zeros((4, 4))
            expected[k, k] = 1.0
            assert np.abs(element - expected).max() < 1e-14

    def test_plus_minus_basis(self):
        p = product_projective_povm((math.pi / 2, 0.0, math.pi / 2, 0.0))
        plus = equatorial_state(0.0)
        prob = np.real(np.trace(tensor_product(plus, plus) @ p.elements[0]))
        assert abs(prob - 1.0) < 1e-14

    @given(t1=ANGLES, x1=ANGLES, t2=ANGLES, x2=ANGLES)
    @settings(deadline=None, max_examples=60)
    def test_complete_for_any_angles(self, t1, x1, t2, x2):
        p = product_projective_povm((t1, x1, t2, x2))
        assert np.abs(p.elements.sum(axis=0) - np.eye(4)).max() < 1e-12


class TestGateModel:
    def test_balanced_compensated_matches_bell(self):
        povm, success = cs_gate_povm(GateModel())
        assert np.abs(povm.elements - bell_povm().elements).max() < 1e-10
        for value in success.values():
            assert abs(value - 1.0 / 9.0) < 1e-12

    def test_uncompensated_amplitudes(self):
        amps = cs_gate_amplitudes(GateModel(compensated=False))
        expected = {"HH": 1.0, "HV": 1 / math.sqrt(3), "VH": 1 / math.sqrt(3),
                    "VV": -1.0 / 3.0}
        for key, value in expected.items():
            assert abs(amps[key] - value) < 1e-14

    def test_zero_visibility_gives_diagonal_elements(self):
        povm, _ = cs_gate_povm(GateModel(visibility=0.0))
        for element in povm.elements:
            off = element - np.diag(np.diag(element))
            assert np.abs(off).max() < 1e-12

    @pytest.mark.parametrize("v", [0.0, 0.3, 0.62, 0.9, 1.0])
    def test_valid_povm_for_any_visibility(self, v):
        povm, _ = cs_gate_povm(GateModel(visibility=v))
        assert validate_povm(povm).passed

    def test_uncompensated_gate_still_valid_povm(self):
        povm, _ = cs_gate_povm(GateModel(compensated=False, visibility=0.8))
        assert validate_povm(povm).passed

    def test_uncompensated_success_probabilities(self):
        _, success = cs_gate_povm(GateModel(compensated=False))
        expected = {"HH": 1.0, "HV": 1 / 3, "VH": 1 / 3, "VV": 1 / 9}
        for key, value in expected.items():
            assert abs(success[key] - value) < 1e-12

    def test_visibility_range_checked(self):
        with pytest.raises(ValueError):
            GateModel(visibility=1.3)
        with pytest.raises(ValueError):
            GateModel(t_v=-0.2)

    @given(v=st.floats(0.0, 1.0), xi1=ANGLES, xi2=ANGLES)
    @settings(deadline=None, max_examples=40)
    def test_probabilities_normalized_on_product_states(self, v, xi1, xi2):
        povm, _ = cs_gate_povm(GateModel(visibility=v))
        rho = tensor_product(equatorial_state(xi1), equatorial_state(xi2))
        probs = np.einsum("kij,ji->k", povm.elements, rho)
        assert np.abs(probs.imag).max() < 1e-12
        assert probs.real.min() > -1e-12
        assert abs(probs.real.sum() - 1.0) < 1e-9


class TestValidation:
    def test_scaled_elements_fail_completeness(self):
        p = bell_povm()
        scaled = Povm(p.labels, 0.9 * p.elements)
        report = validate_povm(scaled)
        assert not report.passed
        assert abs(report.completeness_residual - 0.1) < 1e-9

    def test_negative_eigenvalue_reported(self):
        p = bell_povm()
        elements = p.elements.copy()
        bump = np.zeros((4, 4), dtype=complex)
        bump[1, 1] = -0.01
        elements[0] = elements[0] + bump
        elements[1] = elements[1] - bump  # keep the sum at identity
        report = validate_povm(Povm(p.labels, elements))
        assert not report.passed
        assert report.min_eigenvalue < -0.009

    def test_probabilities_on_random_states(self):
        rng = np.random.default_rng(8)
        p = bell_povm()
        for _ in range(20):
            rho = random_two_qubit_state(rng)
            probs = np.einsum("kij,ji->k", p.elements, rho)
            assert np.abs(probs.imag).max() < 1e-12
            assert probs.real.min() > -1e-12
            assert abs(probs.real.sum() - 1.0) < 1e-9


class TestPovmFileFormat:
    def test_round_trip_is_byte_identical(self):
        povm, _ = cs_gate_povm(GateModel(visibility=0.87))
        text = povm_to_json(povm)
        again = povm_to_json(povm_from_json(text))
        assert text == again

    def test_round_trip_preserves_matrices(self):
        p = bell_povm()
        q = povm_from_json(povm_to_json(p))
        assert q.labels == p.labels
        assert np.abs(q.elements - p.elements).max() == 0.0

    def test_declares_basis_convention(self):
        import json
        doc = json.loads(povm_to_json(bell_povm()))
        assert doc["dim"] == 4
        assert doc["basis"] == "logical |00>,|01>,|10>,|11>; qubit1 slow"

    @pytest.mark.parametrize("dim", [2.5, "4", 0, True])
    def test_dim_must_be_a_positive_integer(self, dim):
        doc = json.loads(povm_to_json(bell_povm()))
        doc["dim"] = dim
        with pytest.raises(ValueError) as info:
            povm_from_json(json.dumps(doc))
        assert str(info.value) == ("POVM file: 'dim' must be a positive "
                                   f"integer, got {dim!r}")

    @pytest.mark.parametrize("label", [1, None, ["DD"]])
    def test_label_must_be_a_string(self, label):
        doc = json.loads(povm_to_json(bell_povm()))
        doc["outcomes"][2]["label"] = label
        with pytest.raises(ValueError) as info:
            povm_from_json(json.dumps(doc))
        assert str(info.value) == (f"POVM file: outcome 2 has label "
                                   f"{label!r}, which is not a string")

    @pytest.mark.parametrize("key,entry", [
        ("re", "1"), ("im", False), ("im", True), ("re", None),
    ], ids=["string", "false", "true", "null"])
    def test_matrix_entry_must_be_a_number(self, key, entry):
        # float() reads "1" as 1.0 and false as 0.0
        doc = json.loads(povm_to_json(bell_povm()))
        doc["outcomes"][1][key][0][0] = entry
        with pytest.raises(ValueError) as info:
            povm_from_json(json.dumps(doc))
        assert str(info.value) == (f"POVM file: outcome 'DA' has {key!r} "
                                   f"entry {entry!r}, which is not a number")

    @pytest.mark.parametrize("part", [0.25, [[0.25, 0.0, 0.0, 0.0]]],
                             ids=["scalar", "row"])
    def test_each_part_must_be_dim_by_dim(self, part):
        # a part of another shape would broadcast against the other part
        doc = json.loads(povm_to_json(bell_povm()))
        doc["outcomes"][1]["im"] = part
        with pytest.raises(ValueError) as info:
            povm_from_json(json.dumps(doc))
        shape = np.shape(part)
        assert str(info.value) == (f"POVM file: outcome 'DA' has 'im' of "
                                   f"shape {shape}, expected (4, 4)")

    def test_repeated_labels_are_refused_by_name(self):
        elements = np.stack([np.eye(2) / 4] * 4)
        with pytest.raises(ValueError) as info:
            Povm(("a", "b", "a", "b"), elements)
        assert str(info.value) == ("POVM labels must be distinct, repeated "
                                   "['a', 'b']")

    def test_shape_mismatch_rejected(self):
        import json
        doc = json.loads(povm_to_json(bell_povm()))
        doc["outcomes"][0]["re"] = [[1.0, 0.0], [0.0, 0.0]]
        with pytest.raises(ValueError):
            povm_from_json(json.dumps(doc))
