"""Measurement models: Bell analysis, product projective bases, and the
post-selected partially-polarising-beam-splitter (PPBS) controlled-sign gate.

Outcome labels follow the D/A analysis convention DD, DA, AD, AA. In the
logical coding (qubit 1 slow index) these correspond to projectors onto the
Bell states Phi+, Psi+, Phi-, Psi- respectively.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import serialize
from .linalg import (EIGENVALUE_FLOOR, HERMITICITY_ATOL, ID2, dagger,
                     hermiticity_defect, projector, tensor_product)

BELL_LABELS = ("DD", "DA", "AD", "AA")

#: amplitude transmittivity of the vertical polarisation for a balanced
#: post-selected controlled-sign gate
BALANCED_T_V = float(1.0 / np.sqrt(3.0))

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)

COMPLETENESS_ATOL = 1e-9


@dataclass(frozen=True)
class Povm:
    """An ordered set of labeled POVM elements.

    ``elements`` is a (K, d, d) complex array; elements are Hermitian PSD and
    sum to the identity. Labels are distinct; repeated labels are rejected
    by name, and a non-finite entry with its element's label. Arrays are
    frozen after construction so values can be shared freely.
    """

    labels: tuple[str, ...]
    elements: np.ndarray

    def __post_init__(self):
        el = np.ascontiguousarray(np.asarray(self.elements, dtype=complex))
        if el.ndim != 3 or el.shape[1] != el.shape[2]:
            raise ValueError(f"elements must be (K, d, d), got {el.shape}")
        labels = tuple(str(s) for s in self.labels)
        if len(labels) != el.shape[0]:
            raise ValueError("one label per element required")
        repeated = list(dict.fromkeys(
            s for i, s in enumerate(labels) if s in labels[:i]))
        if repeated:
            raise ValueError(f"POVM labels must be distinct, repeated "
                             f"{repeated}")
        bad = np.flatnonzero(~np.isfinite(el).all(axis=(1, 2)))
        if bad.size:
            raise ValueError(f"POVM element {labels[bad[0]]!r} has a "
                             "non-finite entry")
        el.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "elements", el)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @property
    def outcomes(self) -> list[tuple[str, np.ndarray]]:
        return list(zip(self.labels, self.elements))


@dataclass(frozen=True)
class PovmValidation:
    """Report of the physicality checks for a POVM."""

    hermiticity_defect: float
    min_eigenvalue: float
    completeness_residual: float
    passed: bool


@dataclass(frozen=True)
class GateModel:
    """Post-selected controlled-sign gate built from PPBS transmittivities.

    ``t_h``/``t_v`` are amplitude transmittivities of the two polarisations,
    ``visibility`` in [0, 1] scales the two-photon interference coherences,
    and ``compensated`` adds the swapped-role PPBS pair on each output arm
    that balances the amplitudes.
    """

    t_h: float = 1.0
    t_v: float = BALANCED_T_V
    visibility: float = 1.0
    compensated: bool = True

    def __post_init__(self):
        if not (0.0 <= self.t_h <= 1.0 and 0.0 <= self.t_v <= 1.0):
            raise ValueError("transmittivities must lie in [0, 1]")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {self.visibility}")


def bell_povm() -> Povm:
    """Projectors onto the four Bell states, ordered DD, DA, AD, AA."""
    s = 1.0 / np.sqrt(2.0)
    kets = np.array([
        [s, 0, 0, s],     # DD: (|00> + |11>)/sqrt(2)
        [0, s, s, 0],     # DA: (|01> + |10>)/sqrt(2)
        [s, 0, 0, -s],    # AD: (|00> - |11>)/sqrt(2)
        [0, s, -s, 0],    # AA: (|01> - |10>)/sqrt(2)
    ], dtype=complex)
    return Povm(BELL_LABELS, projector(kets))


class MeasurementGenerator:
    """A measurement family with named settings: ``elements`` builds N
    settings at once, and ``build`` is its batch of one."""

    setting_names: tuple[str, ...] = ()
    labels: tuple[str, ...] = ()

    def elements(self, settings: dict[str, np.ndarray]) -> np.ndarray:
        """(N, K, d, d) elements, one set per row of the setting arrays."""
        raise NotImplementedError

    def build(self, settings: dict[str, float]) -> Povm:
        one = {k: np.array([float(settings[k])]) for k in self.setting_names}
        return Povm(self.labels, self.elements(one)[0])


class ProductProjectiveGenerator(MeasurementGenerator):
    """Product of two single-qubit projective bases with free Bloch angles.

    Qubit j is measured in the basis cos(theta_j/2)|0> + e^{i eta_j}
    sin(theta_j/2)|1> and its orthogonal complement. Outcomes are labeled
    "00", "01", "10", "11" (first digit: qubit 1 outcome).
    """

    setting_names = ("theta_1", "eta_1", "theta_2", "eta_2")
    labels = ("00", "01", "10", "11")

    def elements(self, settings):
        bases = []  # per qubit: (N, outcome, component)
        for theta, eta in (("theta_1", "eta_1"), ("theta_2", "eta_2")):
            t = np.asarray(settings[theta], dtype=float) / 2.0
            cos, sin = np.cos(t), np.sin(t)
            phase = np.exp(1j * np.asarray(settings[eta], dtype=float))
            bases.append(np.stack([np.stack([cos, phase * sin], axis=-1),
                                   np.stack([sin, -phase * cos], axis=-1)],
                                  axis=-2))
        first, second = bases
        return projector((first[:, :, None, :, None]
                          * second[:, None, :, None, :]).reshape(-1, 4, 4))


def product_projective_povm(basis_angles) -> Povm:
    """``ProductProjectiveGenerator`` at the settings ``basis_angles`` =
    (theta_1, eta_1, theta_2, eta_2)."""
    generator = ProductProjectiveGenerator()
    return generator.build(dict(zip(generator.setting_names, basis_angles)))


def cs_gate_amplitudes(model: GateModel) -> dict[str, float]:
    """Two-photon coincidence amplitudes per polarisation basis state.

    The amplitude for the two photons to exit on different arms is
    ``t_x1*t_x2 - r_x1*r_x2``; the compensated gate multiplies in the
    swapped-role transmittivity pair of the extra PPBSs.
    """
    t = {"H": model.t_h, "V": model.t_v}
    r = {k: float(np.sqrt(max(0.0, 1.0 - v * v))) for k, v in t.items()}
    swapped = {"H": model.t_v, "V": model.t_h}
    amps = {}
    for x1 in "HV":
        for x2 in "HV":
            a = t[x1] * t[x2] - r[x1] * r[x2]
            if model.compensated:
                a *= swapped[x1] * swapped[x2]
            amps[x1 + x2] = float(a)
    return amps


def cs_gate_povm(model: GateModel) -> tuple[Povm, dict[str, float]]:
    """Conditional POVM of the post-selected controlled-sign Bell analyser.

    Builds the (diagonal) post-selected gate operator from the coincidence
    amplitudes, applies the D/A analysis projectors, rewrites everything in
    the logical coding, degrades coherences by the visibility, and finally
    renormalizes the outcome set to a proper POVM by whitening with the
    inverse square root of the element sum (a plain scalar division whenever
    that sum is proportional to the identity, e.g. for the balanced gate).

    Returns the POVM (labels DD, DA, AD, AA) and the post-selection success
    probability per polarisation basis state HH, HV, VH, VV.
    """
    amps = cs_gate_amplitudes(model)
    gate = np.diag([amps["HH"], amps["HV"], amps["VH"], amps["VV"]]).astype(complex)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2.0)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2.0)
    analysis = [np.kron(a, b) for a in (plus, minus) for b in (plus, minus)]

    # logical coding: qubit 1 keeps H/V, qubit 2 logical basis is D/A
    basis_change = tensor_product(ID2, _HADAMARD)
    raw = []
    for ket in analysis:
        element = dagger(gate) @ projector(ket) @ gate
        raw.append(dagger(basis_change) @ element @ basis_change)
    raw = np.array(raw)

    v = model.visibility
    mixed = v * raw + (1.0 - v) * np.array([np.diag(np.diag(e)) for e in raw])

    total = mixed.sum(axis=0)
    w, vec = np.linalg.eigh(total)
    if w.min() <= 1e-15:
        raise ValueError("gate model has a dark basis state; cannot condition "
                         "on post-selection (increase t_v or visibility)")
    whiten = (vec * (w ** -0.5)) @ vec.conj().T
    conditioned = np.array([whiten @ e @ whiten for e in mixed])

    # success probabilities live in the physical polarisation basis
    total_phys = basis_change @ total @ dagger(basis_change)
    success = {lbl: float(np.real(total_phys[i, i]))
               for i, lbl in enumerate(("HH", "HV", "VH", "VV"))}
    return Povm(BELL_LABELS, conditioned), success


def validate_povm(p: Povm) -> PovmValidation:
    """Check Hermiticity, positivity and completeness; report, never raise."""
    herm = max(hermiticity_defect(e) for e in p.elements)
    min_eig = min(float(np.linalg.eigvalsh(0.5 * (e + dagger(e))).min())
                  for e in p.elements)
    residual = float(np.abs(p.elements.sum(axis=0) - np.eye(p.dim)).max())
    passed = bool(herm <= HERMITICITY_ATOL and min_eig >= EIGENVALUE_FLOOR
                  and residual <= COMPLETENESS_ATOL)
    return PovmValidation(herm, min_eig, residual, passed)


# ---------------------------------------------------------------------------
# POVM file format
# ---------------------------------------------------------------------------

def _basis_string(dim: int) -> str:
    if dim == 4:
        return "logical |00>,|01>,|10>,|11>; qubit1 slow"
    if dim == 2:
        return "logical |0>,|1>"
    return f"logical computational basis, dim {dim}"


def povm_to_json(p: Povm) -> str:
    doc = {
        "dim": p.dim,
        "basis": _basis_string(p.dim),
        "outcomes": [
            {"label": label, **serialize.complex_matrix_doc(element)}
            for label, element in p.outcomes
        ],
    }
    return serialize.dumps_json(doc)


def _field(doc, key: str, where: str):
    """``doc[key]``, or a ValueError that names the key and ``where`` the
    object sits in the POVM file."""
    if not isinstance(doc, dict):
        raise ValueError(f"POVM file: {where} must be a JSON object")
    if key not in doc:
        raise ValueError(f"POVM file: {where} has no key {key!r}")
    return doc[key]


def _matrix(out, key: str, where: str, dim: int) -> np.ndarray:
    """The real (dim, dim) matrix ``out[key]`` of JSON numbers."""
    entries = np.array(_field(out, key, where), dtype=object)
    for entry in entries.flat:
        # as floats "1" is 1.0, false 0.0 and null NaN; JSON true and
        # false are Python ints
        if type(entry) not in (int, float):
            raise ValueError(f"POVM file: {where} has {key!r} entry "
                             f"{entry!r}, which is not a number")
    # one shape for each part, so that a scalar part does not broadcast
    if entries.shape != (dim, dim):
        raise ValueError(f"POVM file: {where} has {key!r} of shape "
                         f"{entries.shape}, expected ({dim}, {dim})")
    return entries.astype(float)


def povm_from_json(text: str) -> Povm:
    doc = json.loads(text)
    dim = _field(doc, "dim", "the document")
    # JSON true is a Python int, and 2.5 or "2" would pass int()
    if type(dim) is not int or dim < 1:
        raise ValueError(f"POVM file: 'dim' must be a positive integer, "
                         f"got {dim!r}")
    outcomes = _field(doc, "outcomes", "the document")
    if not isinstance(outcomes, list):
        raise ValueError("POVM file: 'outcomes' must be a list")
    labels = []
    elements = []
    for k, out in enumerate(outcomes):
        label = _field(out, "label", f"outcome {k}")
        if not isinstance(label, str):
            raise ValueError(f"POVM file: outcome {k} has label {label!r}, "
                             "which is not a string")
        where = f"outcome {label!r}"
        labels.append(label)
        elements.append(_matrix(out, "re", where, dim)
                        + 1j * _matrix(out, "im", where, dim))
    return Povm(tuple(labels), np.array(elements))


def load_povm(path) -> Povm:
    with open(path, encoding="utf-8") as fh:
        try:
            return povm_from_json(fh.read())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
