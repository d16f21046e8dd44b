"""Cross-checks between the fused kernels and the unaccelerated module-level
reference path, and the quantum-information floor both paths share."""

import ast
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmetro import (Povm, ProbeFamily, ProductProjectiveGenerator, Scenario,
                    bell_povm, classical_fi, evaluate_kappa, kappa,
                    measurement_probabilities, probe_with_derivatives,
                    product_projective_povm, qfi_matrix)
import qmetro
from qmetro import kernels, scenarios
from qmetro.fisher import H_FLOOR
from qmetro.linalg import pauli_table
from qmetro.states import copies_with_derivatives, single_copy

ANGLES = st.floats(-math.pi, math.pi)

DEPHASED = ProbeFamily.phase_dephasing()
ROTATED = ProbeFamily.two_phase()


def kappa_rows(family, params, phases, povm):
    """``kernels.kappa_batch`` of N rows of ``family`` on the search's
    route: each copy built by ``states.single_copy`` from its own input
    phases (one value or N, one entry of ``phases`` per copy), the copies'
    coordinates multiplied by ``copies_with_derivatives`` and the POVM
    elements (one set or N) read as their ``pauli_table``; each parameter
    is one value or N."""
    singles = [single_copy(family, params, np.asarray(xi, dtype=float))
               for xi in phases]
    coords = copies_with_derivatives([stack for stack, _ in singles])
    return kernels.kappa_batch(pauli_table(povm), coords, *singles[0][1],
                               len(phases), 1e-12)


def test_dephasing_kernel_matches_reference_path():
    scenario = Scenario(family=ProbeFamily.phase_dephasing(copies=2),
                        measurement=bell_povm(),
                        free_inputs=(),
                        fixed_inputs={"phi": 0.5, "delta": 0.45,
                                      "xi_1": 0.2, "xi_2": 1.1},
                        sweep=None)
    reference = evaluate_kappa(scenario, {})
    povm = np.ascontiguousarray(bell_povm().elements)
    value, k1, k2, status = kernels.kappa_phase_dephasing(
        0.5 + 0.2, 0.5 + 1.1, 0.45, povm, 1e-12)
    assert status == 0
    assert abs(value - reference.kappa) < 1e-9
    assert abs(k1 - reference.per_parameter[0]) < 1e-9
    assert abs(k2 - reference.per_parameter[1]) < 1e-9


@pytest.mark.parametrize("xi,phi_y,phi_z", [
    (0.7, 0.4, 0.3), (2.1, -0.9, 0.05), (0.3, 1e-9, 2e-9), (1.2, 0.007, 0.006),
])
def test_two_phase_kernel_matches_reference_path(xi, phi_y, phi_z):
    povm = product_projective_povm((0.9, 0.3, 1.4, 2.0))
    scenario = Scenario(family=ProbeFamily.two_phase(copies=2),
                        measurement=povm, free_inputs=(),
                        fixed_inputs={"phi_y": phi_y, "phi_z": phi_z,
                                      "xi": xi},
                        sweep=None)
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

    coords = copies_with_derivatives(
        [single_copy(DEPHASED, (0.7, 0.45), np.array([xi]))[0]
         for xi in (0.0, 1.2)])
    value, k1, k2, status = (column[0] for column in kernels.kappa_batch(
        pauli_table(bell_povm().elements), coords, h[0], h[1], 2, 1e-12))
    assert status == 2
    assert k1 == 0.0 and k2 > 0 and value == k2


def test_singular_point_follows_the_reference_policy():
    # the Fisher matrix is singular here; phi_y's quantum information is 0
    xi, phi_y, phi_z = math.pi / 2, 0.0, 0.0
    povm = product_projective_povm((0.9, 0.3, 1.4, 2.0))
    scenario = Scenario(family=ProbeFamily.two_phase(copies=2), measurement=povm,
                        free_inputs=(),
                        fixed_inputs={"phi_y": phi_y, "phi_z": phi_z, "xi": xi},
                        sweep=None)
    reference = evaluate_kappa(scenario, {})
    value, k1, k2, status = kernels.kappa_two_phase(
        xi, phi_y, phi_z, np.ascontiguousarray(povm.elements), 1e-12)
    assert status == 1
    assert reference.kappa > 0.7
    assert abs(value - reference.kappa) < 1e-12
    assert abs(k1 - reference.per_parameter[0]) < 1e-12
    assert abs(k2 - reference.per_parameter[1]) < 1e-12


def _random_povm(seed, dim, kind):
    """A random POVM on ``dim`` = 2, 4 or 8: a Haar-random projective
    measurement, a product of projective ones (dim 4), or a whitened set of
    random positive operators with 2 * dim outcomes."""
    rng = np.random.default_rng(seed)
    if kind == "projective":
        basis = scenarios._haar_bases(scenarios._complex_gaussian(rng, dim))
        elements = [np.outer(basis[:, k], basis[:, k].conj())
                    for k in range(dim)]
    elif kind == "product":
        return product_projective_povm(tuple(rng.uniform(0, 2 * math.pi, 4)))
    else:
        g = (rng.standard_normal((2 * dim, dim, dim))
             + 1j * rng.standard_normal((2 * dim, dim, dim)))
        raw = g @ g.conj().transpose(0, 2, 1)
        w, v = np.linalg.eigh(raw.sum(axis=0))
        whiten = (v * w ** -0.5) @ v.conj().T
        elements = whiten @ raw @ whiten
    return Povm(tuple(f"b{k}" for k in range(len(elements))),
                np.array(elements))


def _tolerance(family, params, phases, povm):
    """1e-12, widened where kappa is ill-conditioned: two ways of computing
    it differ by about eps * cond(F) from inverting the Fisher matrix F, and
    by about eps / H_jj from dividing by a small quantum information H_jj,
    here from the SLD solution of one copy."""
    swd = probe_with_derivatives(family, params, phases)
    fisher_matrix = classical_fi(*measurement_probabilities(swd, povm)).classical_fi
    h = np.diag(qfi_matrix(probe_with_derivatives(
        ProbeFamily(family.kind), params, phases[:1])))
    return 1e-12 + 1e-14 * (np.linalg.cond(fisher_matrix) + (1.0 / h).max())


def _assert_rows_agree(batch, scalars, references, tolerances):
    for row, (scalar, reference, tol) in enumerate(
            zip(scalars, references, tolerances)):
        from_batch = tuple(float(column[row]) for column in batch[:3])
        for a, b, c in zip(from_batch, scalar[:3],
                           (reference.kappa, *reference.per_parameter)):
            assert abs(a - b) < 1e-12 and abs(a - c) < tol
        assert int(batch[3][row]) == scalar[3]


TWO_COPY_KINDS = st.sampled_from(["projective", "product", "mixed"])
ONE_COPY_KINDS = st.sampled_from(["projective", "mixed"])
SETTINGS = st.tuples(st.floats(0, math.pi), ANGLES, st.floats(0, math.pi),
                     ANGLES)


@given(seed=st.integers(0, 2**32 - 1), kind=TWO_COPY_KINDS, phi=ANGLES,
       rows=st.lists(st.tuples(ANGLES, ANGLES, st.floats(0.05, 2.5)),
                     min_size=1, max_size=6))
@settings(deadline=None, max_examples=60)
def test_dephasing_batch_matches_scalar_and_reference(seed, kind, phi, rows):
    # every row has its own phases and delta
    povm = _random_povm(seed, 4, kind)
    stack = np.ascontiguousarray(povm.elements)
    family = ProbeFamily.phase_dephasing(copies=2)
    xi1, xi2, deltas = (np.array(column) for column in zip(*rows))
    batch = kappa_rows(DEPHASED, (phi, deltas), (xi1, xi2), stack)
    scalars = [kernels.kappa_phase_dephasing(phi + x1, phi + x2, delta, stack,
                                             1e-12) for x1, x2, delta in rows]
    references = [evaluate_kappa(Scenario(
        family=family, measurement=povm, free_inputs=(),
        fixed_inputs={"phi": phi, "delta": delta, "xi_1": x1, "xi_2": x2},
        sweep=None), {}) for x1, x2, delta in rows]
    tolerances = [_tolerance(family, (phi, delta), (x1, x2), povm)
                  for x1, x2, delta in rows]
    _assert_rows_agree(batch, scalars, references, tolerances)


#: (xi, phi_y, phi_z) rows on the series branch of the closed-form rotation
SERIES_ROWS = [(0.3, 1e-9, 2e-9), (1.2, 0.007, 0.006)]


@given(seed=st.integers(0, 2**32 - 1), kind=TWO_COPY_KINDS,
       rows=st.lists(st.tuples(ANGLES, ANGLES, ANGLES), min_size=1,
                     max_size=6))
@settings(deadline=None, max_examples=60)
def test_two_phase_batch_matches_scalar_and_reference(seed, kind, rows):
    # every row has its own input phase and rotation
    rows = rows + SERIES_ROWS
    povm = _random_povm(seed, 4, kind)
    stack = np.ascontiguousarray(povm.elements)
    xis, phi_ys, phi_zs = (np.array(column) for column in zip(*rows))
    batch = kappa_rows(ROTATED, (phi_ys, phi_zs), (xis, xis), stack)
    scalars = [kernels.kappa_two_phase(*row, stack, 1e-12) for row in rows]
    assert _rows(batch) == scalars
    references = [evaluate_kappa(Scenario(
        family=ProbeFamily.two_phase(copies=2), measurement=povm,
        free_inputs=(), fixed_inputs={"phi_y": phi_y, "phi_z": phi_z, "xi": xi},
        sweep=None), {}) for xi, phi_y, phi_z in rows]
    tolerances = [_tolerance(ProbeFamily.two_phase(copies=2), (phi_y, phi_z),
                             (xi, xi), povm) for xi, phi_y, phi_z in rows]
    _assert_rows_agree(batch, scalars, references, tolerances)


def _rows(batch):
    """Each row of a batch result as a (kappa, k1, k2, status) tuple."""
    return [(float(a), float(b), float(c), int(d)) for a, b, c, d in zip(*batch)]


@given(seed=st.integers(0, 2**32 - 1), kind=ONE_COPY_KINDS, phi=ANGLES,
       delta=st.floats(0.05, 2.5), xis=st.lists(ANGLES, min_size=1, max_size=6))
@settings(deadline=None, max_examples=60)
def test_single_copy_dephasing_batch_matches_reference(seed, kind, phi, delta,
                                                       xis):
    povm = _random_povm(seed, 2, kind)
    stack = np.ascontiguousarray(povm.elements)
    family = ProbeFamily.phase_dephasing()
    batch = kappa_rows(family, (phi, delta), (xis,), stack)
    ones = [_rows(kappa_rows(family, (phi, delta), ([xi],), stack))[0]
            for xi in xis]
    references = [evaluate_kappa(Scenario(
        family=family, measurement=povm,
        fixed_inputs={"phi": phi, "delta": delta, "xi_1": xi},
        sweep=None), {}) for xi in xis]
    tolerances = [_tolerance(family, (phi, delta), (xi,), povm) for xi in xis]
    _assert_rows_agree(batch, ones, references, tolerances)


@given(seed=st.integers(0, 2**32 - 1), kind=ONE_COPY_KINDS, phi_y=ANGLES,
       phi_z=ANGLES, xis=st.lists(ANGLES, min_size=1, max_size=6))
@settings(deadline=None, max_examples=60)
def test_single_copy_two_phase_batch_matches_reference(seed, kind, phi_y,
                                                       phi_z, xis):
    povm = _random_povm(seed, 2, kind)
    stack = np.ascontiguousarray(povm.elements)
    batch = kappa_rows(ROTATED, (phi_y, phi_z), (xis,), stack)
    ones = [_rows(kappa_rows(ROTATED, (phi_y, phi_z), ([xi],), stack))[0]
            for xi in xis]
    references = [evaluate_kappa(Scenario(
        family=ProbeFamily.two_phase(), measurement=povm,
        fixed_inputs={"phi_y": phi_y, "phi_z": phi_z, "xi": xi},
        sweep=None), {}) for xi in xis]
    tolerances = [_tolerance(ProbeFamily.two_phase(), (phi_y, phi_z), (xi,),
                             povm) for xi in xis]
    _assert_rows_agree(batch, ones, references, tolerances)


@given(seed=st.integers(0, 2**32 - 1), copies=st.sampled_from([1, 2]),
       data=st.data(), two_phase=st.booleans(), a=ANGLES, b=ANGLES,
       delta=st.floats(0.0, 3.0), xis=st.lists(ANGLES, min_size=1, max_size=12))
@settings(deadline=None, max_examples=200)
def test_each_kernel_term_at_most_one(seed, copies, data, two_phase, a, b,
                                      delta, xis):
    # Braunstein-Caves: the m-copy Fisher matrix is at most m H, so
    # 1/(F^-1)_jj / (m H_jj) <= F_jj / (m H_jj) <= 1 for every parameter
    kind = data.draw(ONE_COPY_KINDS if copies == 1 else TWO_COPY_KINDS)
    stack = np.ascontiguousarray(_random_povm(seed, 2 ** copies, kind).elements)
    xis = np.array(xis)
    if two_phase:
        batch = kappa_rows(ROTATED, (a, b), (xis,) * copies, stack)
    else:
        batch = kappa_rows(DEPHASED, (a, delta), (xis, xis[::-1])[:copies],
                           stack)
    _, k1, k2, _ = batch
    assert max(k1.max(), k2.max()) <= 1.0 + 1e-9


@given(seed=st.integers(0, 2**32 - 1), kind=ONE_COPY_KINDS, phi=ANGLES,
       delta=st.floats(0.05, 2.5),
       phases=st.lists(st.tuples(ANGLES, ANGLES, ANGLES), min_size=1,
                       max_size=4))
@settings(deadline=None, max_examples=40)
def test_three_copy_dephasing_batch_matches_reference(seed, kind, phi, delta,
                                                      phases):
    povm = _random_povm(seed, 8, kind)
    stack = povm.elements
    family = ProbeFamily.phase_dephasing(copies=3)
    batch = kappa_rows(family, (phi, delta), np.array(phases).T, stack)
    ones = [_rows(kappa_rows(family, (phi, delta), np.array([row]).T,
                             stack))[0] for row in phases]
    references = [evaluate_kappa(Scenario(
        family=family, measurement=povm,
        fixed_inputs={"phi": phi, "delta": delta, "xi_1": x1, "xi_2": x2,
                      "xi_3": x3},
        sweep=None), {}) for x1, x2, x3 in phases]
    tolerances = [_tolerance(family, (phi, delta), xis, povm)
                  for xis in phases]
    _assert_rows_agree(batch, ones, references, tolerances)


@given(seed=st.integers(0, 2**32 - 1), kind=ONE_COPY_KINDS, phi_y=ANGLES,
       phi_z=ANGLES, xis=st.lists(ANGLES, min_size=1, max_size=4))
@settings(deadline=None, max_examples=40)
def test_three_copy_two_phase_batch_matches_reference(seed, kind, phi_y,
                                                      phi_z, xis):
    povm = _random_povm(seed, 8, kind)
    stack = povm.elements
    batch = kappa_rows(ROTATED, (phi_y, phi_z), (xis,) * 3, stack)
    ones = [_rows(kappa_rows(ROTATED, (phi_y, phi_z), ([xi],) * 3,
                             stack))[0] for xi in xis]
    references = [evaluate_kappa(Scenario(
        family=ProbeFamily.two_phase(copies=3), measurement=povm,
        fixed_inputs={"phi_y": phi_y, "phi_z": phi_z, "xi": xi},
        sweep=None), {}) for xi in xis]
    tolerances = [_tolerance(ProbeFamily.two_phase(copies=3), (phi_y, phi_z),
                             (xi,) * 3, povm) for xi in xis]
    _assert_rows_agree(batch, ones, references, tolerances)


@given(two_phase=st.booleans(), a=ANGLES, b=ANGLES, delta=st.floats(0.05, 2.5),
       rows=st.lists(st.tuples(ANGLES, SETTINGS), min_size=1, max_size=6))
@settings(deadline=None, max_examples=60)
# Fisher matrices whose largest entry is below 1e-154, where a singular test
# against top * top would underflow and pass them as regular
@example(two_phase=False, a=0.0, b=0.0, delta=1.0,
         rows=[(0.0, (6.47e-161, 0.0, 0.0, 0.0))])
@example(two_phase=False, a=0.0, b=0.0, delta=1.0,
         rows=[(0.0, (0.0, 0.0, 0.0, 0.0)),
               (0.0, (0.0, 0.0, 2.4529205259826848e-92, 0.0))])
@example(two_phase=False, a=2.4529205259826848e-92, b=0.0, delta=1.0,
         rows=[(0.0, (0.0, 0.0, 0.0, 0.0)),
               (0.0, (0.0, 0.0, 2.4529205259826848e-92, 0.0))])
def test_per_row_generator_povms_match_reference(two_phase, a, b, delta,
                                                 rows):
    # one product measurement per row, as a generator scenario's search
    # scores them
    generator = ProductProjectiveGenerator()
    xis = np.array([xi for xi, _ in rows])
    angles = [dict(zip(generator.setting_names, s)) for _, s in rows]
    elements = generator.elements(
        {name: np.array([s[name] for s in angles])
         for name in generator.setting_names})
    if two_phase:
        family = ProbeFamily.two_phase(copies=2)
        params, fixed = (a, b), {"phi_y": a, "phi_z": b}

        def score(xi, povm):
            return kappa_rows(family, params, (xi, xi), povm)
    else:
        family = ProbeFamily.phase_dephasing(copies=2)
        params, fixed = (a, delta), {"phi": a, "delta": delta}

        def score(xi, povm):
            return kappa_rows(family, params, (xi, -xi), povm)

    def phases(xi):
        return {"xi": xi} if two_phase else {"xi_1": xi, "xi_2": -xi}

    batch = score(xis, elements)
    ones = [_rows(score(xis[i:i + 1], elements[i:i + 1]))[0]
            for i in range(len(rows))]
    references = [evaluate_kappa(Scenario(
        family=family, measurement=generator,
        fixed_inputs={**fixed, **phases(xi), **s},
        sweep=None), {}) for xi, s in zip(xis, angles)]
    tolerances = [_tolerance(family, params, tuple(phases(xi).values())
                             * (2 if two_phase else 1), generator.build(s))
                  for xi, s in zip(xis, angles)]
    _assert_rows_agree(batch, ones, references, tolerances)


@pytest.mark.parametrize("theta_1", [1e-60, 1e-80, 1e-161])
def test_singular_test_holds_at_any_fisher_scale(theta_1):
    # two dephased copies at delta = 1, phi = xi = 0, measured in a product
    # basis tilted by theta_1 from the computational one: the Fisher matrix
    # is singular and scales as theta_1 ** 2
    generator = ProductProjectiveGenerator()
    angles = {"theta_1": theta_1, "eta_1": 0.0, "theta_2": 0.0, "eta_2": 0.0}
    elements = generator.elements({k: np.array([v])
                                   for k, v in angles.items()})
    value, _, _, status = _rows(kappa_rows(
        DEPHASED, (0.0, 1.0), ([0.0], [0.0]), elements))[0]
    reference = evaluate_kappa(Scenario(
        family=ProbeFamily.phase_dephasing(copies=2), measurement=generator,
        fixed_inputs={"phi": 0.0, "delta": 1.0, "xi_1": 0.0, "xi_2": 0.0,
                      **angles}, sweep=None), {})
    assert status == 1 and reference.singular
    assert math.isclose(value, reference.kappa, rel_tol=1e-12)


#: a polar angle in [0, pi] times 10^-e, e in [0, 320]: near 0 the Fisher
#: matrix of a basis tilted by these angles takes every scale down to 0
SCALED_ANGLES = st.builds(lambda x, e: x * 10.0 ** -e, st.floats(0, math.pi),
                          st.integers(0, 320))


@given(two_phase=st.booleans(), a=ANGLES, b=ANGLES, delta=st.floats(0.0, 3.0),
       rows=st.lists(st.tuples(ANGLES, st.tuples(SCALED_ANGLES, ANGLES,
                                                 SCALED_ANGLES, ANGLES)),
                     min_size=1, max_size=6))
@settings(deadline=None, max_examples=100)
def test_regular_rows_have_finite_kappa(two_phase, a, b, delta, rows):
    generator = ProductProjectiveGenerator()
    elements = generator.elements(dict(zip(
        generator.setting_names, np.array([s for _, s in rows]).T)))
    xis = np.array([xi for xi, _ in rows])
    if two_phase:
        batch = kappa_rows(ROTATED, (a, b), (xis, xis), elements)
    else:
        batch = kappa_rows(DEPHASED, (a, delta), (xis, -xis), elements)
    kappa_values, _, _, status = batch
    assert np.isfinite(kappa_values[status == 0]).all()


def test_subnormal_fisher_matrix_is_singular():
    # two dephased copies at total phases 1.75, delta = 1, measured in a
    # product basis tilted by theta_2 = 2e-161: F has subnormal entries and
    # a negative determinant from round-off, where kappa once read 0/0
    generator = ProductProjectiveGenerator()
    angles = {"theta_1": 0.0, "eta_1": 0.0, "theta_2": 2e-161, "eta_2": 0.0}
    elements = generator.elements({k: np.array([v])
                                   for k, v in angles.items()})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, _, _, status = _rows(kappa_rows(
            DEPHASED, (0.0, 1.0), ([1.75], [1.75]), elements))[0]
    assert status == 1 and math.isfinite(value)


def test_kernels_check_the_povm_dimension():
    stack = np.ascontiguousarray(bell_povm().elements)
    for copies in (1, 3):
        with pytest.raises(ValueError, match="dimension mismatch"):
            kappa_rows(ROTATED, (0.4, 0.3), (np.zeros(2),) * copies, stack)


def test_scalar_kernels_return_python_scalars():
    stack = np.ascontiguousarray(bell_povm().elements)
    for out in (kernels.kappa_two_phase(0.3, 0.4, 0.3, stack, 1e-12),
                kernels.kappa_phase_dephasing(0.7, 1.9, 0.45, stack, 1e-12)):
        assert [type(v) for v in out] == [float, float, float, int]


@pytest.mark.parametrize("rotation", ["shared", "per-row"])
def test_two_phase_rows_are_the_same_bits_in_any_batch_size(rotation):
    rng = np.random.default_rng(18)
    xis = rng.uniform(-math.pi, math.pi, 200)
    phi_y, phi_z = 0.4, 0.3
    if rotation == "per-row":
        phi_y, phi_z = rng.uniform(-1, 1, 200), rng.uniform(-1, 1, 200)
    stack = np.ascontiguousarray(product_projective_povm(
        (0.9, 0.3, 1.4, 2.0)).elements)

    def scored(size):
        chunks = [kappa_rows(
            ROTATED, [np.asarray(v)[i:i + size] if np.ndim(v) else v
                        for v in (phi_y, phi_z)],
            (xis[i:i + size],) * 2, stack)
            for i in range(0, len(xis), size)]
        return [np.concatenate(column) for column in zip(*chunks)]

    whole = scored(200)
    for size in (1, 2):
        for a, b in zip(scored(size), whole):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("case", ["dephasing", "stack", "generator"])
def test_rows_are_the_same_bits_in_any_batch_size(case):
    # the lockstep search scores a problem's rows beside any number of
    # other problems' rows, and takes the path it takes alone only if each
    # row's kappa does not depend on the batch around it
    rng = np.random.default_rng(23)
    size = 200
    xis = rng.uniform(-math.pi, math.pi, (2, size))
    deltas = rng.uniform(0.05, 2.5, size)
    if case == "generator":
        generator = ProductProjectiveGenerator()
        povms = generator.elements(dict(zip(
            generator.setting_names,
            rng.uniform(0, math.pi, (len(generator.setting_names), size)))))
    else:
        povms = np.stack([_random_povm(seed, 4, "mixed").elements
                          for seed in range(size)])

    def scored(chunk):
        # one shared POVM, or each row's own; a chunk's POVM table is built
        # per call, as the search builds a generator's
        chunks = [kappa_rows(DEPHASED, (0.3, deltas[r]),
                             (xis[0, r], xis[1, r]),
                             povms[0] if case == "dephasing" else povms[r])
                  for r in (slice(i, i + chunk)
                            for i in range(0, size, chunk))]
        return [np.concatenate(column) for column in zip(*chunks)]

    whole = scored(size)
    for chunk in (1, 2, 7):
        for a, b in zip(scored(chunk), whole):
            assert np.array_equal(a, b)


def _povms_for_rows(copies, kind, seed, n):
    """POVM elements for n rows on ``copies`` copies: one set shared by
    every row, one set per row (``"stacked"``), or the product
    measurements of a generator (two copies)."""
    rng = np.random.default_rng(seed)
    if kind == "generator":
        generator = ProductProjectiveGenerator()
        return generator.elements(dict(zip(
            generator.setting_names,
            rng.uniform(-math.pi, math.pi, (4, n)))))
    kinds = ["projective", "mixed"] + (["product"] if copies == 2 else [])
    # a stack holds POVMs of one element shape, so of one kind
    which = kinds[seed % len(kinds)]
    if kind == "shared":
        return _random_povm(seed, 2 ** copies, which).elements
    return np.stack([_random_povm(seed + i, 2 ** copies, which).elements
                     for i in range(n)])


@given(seed=st.integers(0, 2**32 - 100), data=st.data(),
       two_phase=st.booleans(), a=ANGLES, b=ANGLES, delta=st.floats(0.0, 3.0),
       xis=st.lists(st.tuples(ANGLES, ANGLES, ANGLES), min_size=1,
                    max_size=4))
@settings(deadline=None, max_examples=80)
def test_table_probabilities_match_the_complex_path(seed, data, two_phase, a,
                                                    b, delta, xis):
    # p and dp from the Pauli table and the copies' coordinates against
    # Tr[P_k rho] and Tr[P_k d rho] on the complex matrices of the reference
    # path, for one to three copies and every way the search holds a POVM
    copies = data.draw(st.sampled_from([1, 2, 3]))
    kind = data.draw(st.sampled_from(
        ["shared", "stacked"] + (["generator"] if copies == 2 else [])))
    n = len(xis)
    elements = _povms_for_rows(copies, kind, seed, n)
    if two_phase:
        family, params = ProbeFamily.two_phase(copies=copies), (a, b)
        phases = [(row[0],) * copies for row in xis]
    else:
        family = ProbeFamily.phase_dephasing(copies=copies)
        params = (a, delta)
        phases = [row[:copies] for row in xis]
    coords = copies_with_derivatives([
        single_copy(ProbeFamily(family.kind), params,
                    np.array([row[j] for row in phases]))[0]
        for j in range(copies)])
    got = kernels.probabilities(pauli_table(elements), coords)
    assert got.dtype == float
    assert got.shape == (3, n, elements.shape[-3])
    for i, row in enumerate(phases):
        povm = Povm(tuple(f"b{k}" for k in range(got.shape[-1])),
                    elements if kind == "shared" else elements[i])
        p, dp = measurement_probabilities(
            probe_with_derivatives(family, params, row), povm)
        assert np.abs(got[0, i] - p).max() < 1e-14
        assert np.abs(got[1:, i] - dp).max() < 1e-14


@pytest.mark.parametrize("copies", [1, 2, 3])
def test_pauli_table_of_a_povm_is_complete(copies):
    # sum_k P_k = I, so sum_k T[k, c] = Tr[sigma_c] / 2^m is 1 for the
    # identity string and 0 for every other
    for kind in ("projective", "mixed"):
        table = pauli_table(_random_povm(copies, 2 ** copies, kind).elements)
        total = table.sum(axis=0)
        assert table.shape[-1] == 4 ** copies
        assert abs(total[0] - 1.0) < 1e-14
        assert np.abs(total[1:]).max() < 1e-14


def test_pauli_table_needs_a_power_of_two_dimension():
    with pytest.raises(ValueError, match="power of 2"):
        pauli_table(np.eye(3)[None])


def _einsum_operand_counts(source):
    """Operand count of every ``einsum`` call in a module's source."""
    counts = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and (
                getattr(node.func, "attr", None) == "einsum"
                or getattr(node.func, "id", None) == "einsum"):
            counts.append(len(node.args) - 1)
    return counts


def test_einsum_guard_sees_multi_operand_calls():
    source = ('np.einsum("ab,bc,cd->ad", a, b, c)\n'
              'einsum(f"{s},ij->i", x, y)\n')
    assert _einsum_operand_counts(source) == [3, 2]


def test_no_einsum_in_src_has_three_or_more_operands():
    # numpy's einsum defaults to optimize=False: three or more operands run
    # as one nested loop over every index, 20x slower than matrix products
    # on the 4x4 matrices here
    offenders = {}
    for path in sorted(Path(qmetro.__file__).parent.glob("*.py")):
        counts = _einsum_operand_counts(path.read_text(encoding="utf-8"))
        if any(n >= 3 for n in counts):
            offenders[path.name] = counts
    assert offenders == {}


def _imported_qmetro_modules(source):
    """The qmetro modules a module's source imports, by short name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "qmetro":
                    continue
                module = module.removeprefix("qmetro").lstrip(".")
            if module:
                names.add(module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("qmetro."))
    return names


def _policy_definitions(source):
    """Names assigned in a module's source that define the kappa policy:
    the outcome cutoff, the quantum-information floor or a singular
    cutoff."""
    policy = re.compile(r"_?(H_FLOOR|DEFAULT_P_CUTOFF|\w*(SINGULAR|DET)\w*"
                        r"CUTOFF\w*)")
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        found += [n.id for t in targets for n in ast.walk(t)
                  if isinstance(n, ast.Name) and policy.fullmatch(n.id)]
    return found


#: the family kinds and the per-family builders of ``states``, which only
#: ``states.single_copy`` calls on the kappa route
FAMILY_SPECIFIC = {"PHASE_DEPHASING", "TWO_PHASE", "dephasing_coordinates",
                   "two_phase_coordinates", "dephasing_qfi"}


def _family_specific_names(source):
    """The names of ``FAMILY_SPECIFIC`` that a module's source refers to;
    docstrings do not count."""
    return _referenced_names(ast.parse(source)) & FAMILY_SPECIFIC


def test_structure_guards_see_their_targets():
    source = ('"""two_phase_coordinates named in a docstring"""\n'
              "from . import fisher\n"
              "from .scenarios import x\n"
              "import qmetro.povm\n"
              "from qmetro import states\n"
              "from qmetro.linalg import y\n"
              "from .states import TWO_PHASE\n"
              "states.dephasing_qfi(x)\n"
              "import numpy\n"
              "H_FLOOR = 1e-9\n"
              "_DET_CUTOFF: float = 1e-12\n"
              "SINGULAR_CUTOFF = 1e-12\n"
              "P_FLOOR = 1e-12\n")
    assert _imported_qmetro_modules(source) == {
        "fisher", "scenarios", "povm", "states", "linalg"}
    assert _policy_definitions(source) == [
        "H_FLOOR", "_DET_CUTOFF", "SINGULAR_CUTOFF"]
    assert _family_specific_names(source) == {"TWO_PHASE", "dephasing_qfi"}


def _sources():
    return {path.stem: path.read_text(encoding="utf-8")
            for path in sorted(Path(qmetro.__file__).parent.glob("*.py"))}


def test_kernels_import_neither_fisher_nor_scenarios():
    # fisher and scenarios build on the kernels; the reverse would be a cycle
    assert not {"fisher", "scenarios"} & _imported_qmetro_modules(
        _sources()["kernels"])


def test_kernels_name_no_probe_family():
    # the kernels score the stacks that ``states.single_copy`` builds; a
    # new family kind changes ``states`` alone
    assert _family_specific_names(_sources()["kernels"]) == set()


def test_kappa_policy_is_defined_once_in_kernels():
    definitions = {name: _policy_definitions(source)
                   for name, source in _sources().items()}
    assert sorted(definitions.pop("kernels")) == [
        "DEFAULT_P_CUTOFF", "H_FLOOR", "SINGULAR_CUTOFF"]
    assert not any(definitions.values())


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _assigns(node, name):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == name for t in node.targets)


def _referenced_names(node):
    """The names a syntax tree refers to as names, attributes or imports;
    docstrings are string constants and do not count."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.rsplit(".", 1)[-1])
    return names


def _unreached(sources, perfbench):
    """``module.name`` of each public top-level function or class in
    ``sources`` that no other module, no other statement of its own module
    and no perfbench file refers to. perfbench's ``WRAPPED`` table names
    the attributes it wraps as strings, and these count too; ``__all__``
    does not."""
    reached = set()
    for source in perfbench:
        tree = ast.parse(source)
        reached |= _referenced_names(tree)
        reached |= {c.value for node in tree.body if _assigns(node, "WRAPPED")
                    for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    statements = [(module, node) for module, source in sources.items()
                  for node in ast.parse(source).body
                  if not _assigns(node, "__all__")]
    names = {id(node): _referenced_names(node) for _, node in statements}
    return [f"{module}.{node.name}" for module, node in statements
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in reached
            and not any(node.name in names[id(other)]
                        for _, other in statements if other is not node)]


def test_reach_guard_sees_its_targets():
    sources = {
        "a": ('def used():\n'
              '    """unused() named in a docstring does not count"""\n'
              'def unused():\n'
              '    return unused()\n'
              'def _private():\n'
              '    pass\n'
              'class Wrapped:\n'
              '    pass\n'
              'def by_attribute():\n'
              '    pass\n'
              '__all__ = ["unused"]\n'),
        "b": "from .a import used\n",
    }
    perfbench = ['WRAPPED = (("qmetro.a", "Wrapped", "a.wrapped", None),)\n',
                 'import qmetro.a\nqmetro.a.by_attribute()\n']
    assert _unreached(sources, perfbench) == ["a.unused"]


def test_every_public_definition_is_reached():
    # a public function or class that neither the package nor the benchmark
    # reaches is code that only tests run
    sources = _sources()
    del sources["__init__"]
    perfbench = [path.read_text(encoding="utf-8")
                 for path in sorted(PERFBENCH.glob("*.py"))]
    assert perfbench
    assert _unreached(sources, perfbench) == []


def pinv_rule(F):
    """The singular rule as it reads with ``np.linalg.pinv``: 0 for a
    parameter that overlaps the eigen null space of F over its largest
    diagonal entry, and else 1/pinv(F)_jj, with pinv cut at
    ``SINGULAR_CUTOFF``."""
    top = F.diagonal(axis1=-2, axis2=-1).max(axis=-1)
    unit = F / np.where(top > 0.0, top, 1.0)[:, None, None]
    w, v = np.linalg.eigh(unit)
    null = w < kernels.SINGULAR_CUTOFF
    affected = (np.abs(v) ** 2 * null[:, None, :]).sum(axis=-1) > 1e-8
    pinv = np.linalg.pinv(unit, rcond=kernels.SINGULAR_CUTOFF)
    pinv = pinv.diagonal(axis1=-2, axis2=-1)
    keep = (top[:, None] > 0.0) & ~affected & (pinv > 0.0)
    return np.where(keep, top[:, None] / np.where(keep, pinv, 1.0), 0.0)


def psd_stack(rng, n, rank, aligned, scale, count=40):
    """``count`` symmetric n x n PSD matrices of ``rank`` times ``scale``,
    with eigenvalues in [0.5, 2) on random orthonormal vectors. The
    vectors span every coordinate, or, when ``aligned``, ``rank`` random
    coordinates only: the parameters there then lie outside the null
    space and keep their information."""
    out = np.zeros((count, n, n))
    for i in range(count):
        support = rank if aligned else n
        q, _ = np.linalg.qr(rng.standard_normal((support, support)))
        v = np.zeros((n, rank))
        v[rng.permutation(n)[:support]] = q[:, :rank]
        m = (v * rng.uniform(0.5, 2.0, rank)) @ v.T
        out[i] = 0.5 * (m + m.T) * scale
    return out


@pytest.mark.parametrize("n,rank,aligned", [
    (2, 0, False), (2, 1, False), (2, 1, True), (2, 2, False),
    (3, 0, False), (3, 1, False), (3, 1, True), (3, 2, True),
    (3, 3, False)])
def test_singular_rule_matches_the_pinv_rule(n, rank, aligned):
    # one eigendecomposition gives what eigh and pinv gave, at every scale
    # of F from subnormal entries to 1e300
    rng = np.random.default_rng([n, rank, aligned])
    for scale in (1e-310, 1e-200, 1e-20, 1.0, 1e20, 1e200, 1e300):
        F = psd_stack(rng, n, rank, aligned, scale)
        found, expected = kernels.singular_effective_information(F), \
            pinv_rule(F)
        assert np.array_equal(found == 0.0, expected == 0.0)
        assert np.allclose(found, expected, rtol=1e-12, atol=0.0)
        # an aligned or a full-rank F keeps information; a rank-deficient
        # F spread over every coordinate keeps none
        assert (found > 0).any() == (aligned or rank == n)


@pytest.mark.parametrize("n", [2, 3])
def test_singular_rule_cuts_where_pinv_cuts(n):
    # diagonal F, whose eigen- and singular values are its entries exactly,
    # with entries spread from 1e-16 to 1 of the largest: each parameter
    # keeps its information exactly when its entry is at or above the
    # cutoff, where pinv keeps it too
    rng = np.random.default_rng([n, 7])
    for scale in (1e-300, 1.0, 1e300):
        entries = 10.0 ** rng.uniform(-16.0, 0.0, (40, n))
        entries[:, 0] = 1.0
        entries = rng.permuted(entries, axis=1)
        F = np.einsum("ni,ij->nij", entries, np.eye(n)) * scale
        found = kernels.singular_effective_information(F)
        assert np.array_equal(found == 0.0, pinv_rule(F) == 0.0)
        assert np.allclose(found, pinv_rule(F), rtol=1e-12, atol=0.0)
        assert np.array_equal(found > 0.0,
                              entries >= kernels.SINGULAR_CUTOFF)


def test_singular_rule_makes_no_second_decomposition(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.pinv called")

    monkeypatch.setattr(np.linalg, "pinv", refused)
    F = psd_stack(np.random.default_rng(2), 3, 2, True, 1.0)
    assert (kernels.singular_effective_information(F) > 0).any()
