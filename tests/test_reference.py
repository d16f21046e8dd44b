"""The reference path on a stack of points: ``evaluate_kappa`` at P points
gives each point the bits that it gets alone, a point that fails keeps its
own error and leaves the others unchanged, and an optimizing run reports
all its optima with one stacked evaluation."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetro import (Povm, ProbeFamily, ProductProjectiveGenerator, Scenario,
                    bell_povm, classical_fi, evaluate_kappa, kappa_scan,
                    measurement_probabilities, optimize_each,
                    probe_with_derivatives, product_projective_povm)
from qmetro import cli, fisher, kernels, scenarios
from qmetro.linalg import projector
from qmetro.scenarios import phase_names

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def haar_povm(rng, dim):
    """The projective measurement on a Haar-random basis of ``dim``."""
    basis = scenarios._haar_bases(scenarios._complex_gaussian(rng, dim))
    return Povm(tuple(f"b{k}" for k in range(dim)), projector(basis.T))


def pauli_povm():
    """The three Pauli measurements with weight 1/3 each."""
    return Povm(tuple("xXyYzZ"), np.array(
        [(np.eye(2) + sign * pauli) / 6.0
         for pauli in (PAULI_X, PAULI_Y, PAULI_Z) for sign in (1, -1)]))


def sic_povm():
    """The tetrahedral SIC POVM on one qubit: informationally complete."""
    signs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    return Povm(tuple("abcd"), np.array(
        [(np.eye(2) + (x * PAULI_X + y * PAULI_Y + z * PAULI_Z) / math.sqrt(3))
         / 4 for x, y, z in signs]))


def input_names(family, generator):
    names = [*family.parameter_names,
             *dict.fromkeys(phase_names(family, {
                 f"xi_{j}" for j in range(1, family.copies + 1)}))]
    return names + (list(ProductProjectiveGenerator.setting_names)
                    if generator else [])


def draw_values(rng, family, names, points):
    """Each input one float or ``points`` floats, at random."""
    values = {}
    for name in names:
        if name == "delta":
            draw = rng.uniform(0.0, 2.0, points) * (rng.random(points) > 0.2)
        elif name in ("phi_y", "phi_z"):
            draw = rng.uniform(-2.0, 2.0, points) * 10.0 ** -rng.integers(
                0, 4, points)
        else:
            draw = rng.uniform(-7.0, 7.0, points)
        values[name] = draw if rng.random() < 0.6 else float(draw[0])
    return values


def alone(values, i):
    return {n: float(v[i]) if np.ndim(v) else v for n, v in values.items()}


def assert_same_result(a, b):
    assert a.kappa == b.kappa
    assert a.per_parameter.tobytes() == b.per_parameter.tobytes()
    assert (a.m, a.excluded, a.singular) == (b.m, b.excluded, b.singular)


def assert_same_report(a, b):
    assert a.classical_fi.tobytes() == b.classical_fi.tobytes()
    assert a.effective_fi.tobytes() == b.effective_fi.tobytes()
    assert (a.singular, a.dropped_outcomes, a.boundary) == \
        (b.singular, b.dropped_outcomes, b.boundary)


def assert_each_point_as_alone(scenario, values, count):
    """``evaluate_kappa`` of the stack against each point alone, and
    ``classical_fi`` of the points' distributions stacked against each
    alone."""
    found = evaluate_kappa(scenario, values)
    assert len(found) == count
    stack = scenario.measurement if isinstance(scenario.measurement,
                                               tuple) else None
    distributions, labels = [], []
    for i, result in enumerate(found):
        problem = replace(scenario, measurement=stack[i]) if stack else \
            scenario
        point = alone(values, i)
        try:
            expected = evaluate_kappa(problem, point)
        except (RuntimeError, ValueError) as exc:
            assert type(result) is type(exc) and str(result) == str(exc)
            continue
        assert_same_result(result, expected)
        m = problem.measurement
        vals = {**scenario.fixed_inputs, **point}
        povm = m.build(vals) if isinstance(m, ProductProjectiveGenerator) \
            else m
        family = scenario.family
        distributions.append(measurement_probabilities(probe_with_derivatives(
            family, [vals[n] for n in family.parameter_names],
            [vals[n] for n in phase_names(family, vals)]), povm))
        labels.append(povm.labels)
    if distributions:
        p, dp = (np.array(part) for part in zip(*distributions))
        for report, (pi, dpi), names in zip(classical_fi(p, dp, labels),
                                            distributions, labels):
            assert_same_report(report, classical_fi(pi, dpi, names))


class TestStackedReference:
    @given(seed=st.integers(0, 2**32 - 1),
           two_phase=st.booleans(), copies=st.integers(1, 3),
           measurement=st.sampled_from(["shared", "stack", "generator"]),
           points=st.integers(1, 6))
    @settings(deadline=None, max_examples=100)
    def test_each_point_has_its_bits_alone(self, seed, two_phase, copies,
                                           measurement, points):
        rng = np.random.default_rng(seed)
        if measurement == "generator":
            copies = 2
        family = (ProbeFamily.two_phase if two_phase
                  else ProbeFamily.phase_dephasing)(copies=copies)
        generator = measurement == "generator"
        names = input_names(family, generator)
        values = draw_values(rng, family, names, points)
        if measurement == "stack":
            # a stack holds one POVM per point, so some input is a stack too
            values[names[-1]] = np.broadcast_to(
                values[names[-1]], (points,)).copy()
        count = max([len(v) for v in values.values() if np.ndim(v)],
                    default=1)
        dim = 2 ** copies
        m = (ProductProjectiveGenerator() if generator else
             tuple(haar_povm(rng, dim) for _ in range(count))
             if measurement == "stack" else haar_povm(rng, dim))
        scenario = Scenario(family=family, measurement=m,
                            fixed_inputs=alone(values, 0), sweep=None)
        if not any(np.ndim(v) for v in values.values()):
            # one point: its result, and no list
            assert_same_result(evaluate_kappa(scenario, values),
                               evaluate_kappa(scenario, alone(values, 0)))
            return
        assert_each_point_as_alone(scenario, values, count)

    @pytest.mark.parametrize("case", ["singular", "dropped-and-excluded",
                                      "generator-singular"])
    def test_pinned_points(self, case):
        if case == "singular":
            # the second POVM reads only sigma_z, which phi does not move
            z_only = Povm(tuple("abcd"), np.array(
                [np.diag([0.5, 0.0]), np.diag([0.5, 0.0]),
                 np.diag([0.0, 0.5]), np.diag([0.0, 0.5])], dtype=complex))
            scenario = Scenario(
                family=ProbeFamily.phase_dephasing(),
                measurement=(sic_povm(), z_only),
                fixed_inputs={"phi": 0.3, "xi_1": 0.2, "delta": 0.5},
                sweep=None)
            values = {"delta": np.array([0.5, 0.5])}
        elif case == "dropped-and-excluded":
            # at delta = 0 the delta term is excluded (H_delta = 0) and the
            # state is |+>, so the X- outcome has probability 0
            scenario = Scenario(
                family=ProbeFamily.phase_dephasing(),
                measurement=pauli_povm(),
                fixed_inputs={"phi": 0.0, "xi_1": 0.0, "delta": 0.0},
                sweep=None)
            values = {"delta": np.array([0.0, 0.4, 0.0]),
                      "phi": np.array([0.0, 0.3, 0.0])}
        else:
            scenario = Scenario(
                family=ProbeFamily.two_phase(copies=2),
                measurement=ProductProjectiveGenerator(),
                fixed_inputs={"phi_y": 0.0, "phi_z": 0.0, "xi": math.pi / 2,
                              "theta_1": 0.9, "eta_1": 0.3, "theta_2": 1.4,
                              "eta_2": 2.0},
                sweep=None)
            values = {"phi_y": np.array([0.0, 0.4]),
                      "phi_z": np.array([0.0, 0.3])}
        found = evaluate_kappa(scenario, values)
        assert_each_point_as_alone(scenario, values, len(found))
        if case == "dropped-and-excluded":
            assert found[0].excluded == (1,) and found[1].excluded == ()
            p, dp = measurement_probabilities(probe_with_derivatives(
                scenario.family, (0.0, 0.0), (0.0,)), pauli_povm())
            assert classical_fi(p, dp, pauli_povm().labels)\
                .dropped_outcomes == ("X",)
        elif case == "singular":
            assert not found[0].singular and found[1].singular
        else:
            assert found[0].singular and not found[1].singular

    def test_boundary_report_in_a_stack(self):
        # a dropped outcome that still carries derivative weight
        p = np.array([[0.5, 0.5 - 1e-13, 1e-13], [0.2, 0.3, 0.5]])
        dp = np.array([[[0.1, -0.1 - 1e-5, 1e-5], [0.0, 0.2, -0.2]],
                       [[0.1, -0.2, 0.1], [0.3, 0.0, -0.3]]])
        stacked = classical_fi(p, dp, ("a", "b", "c"))
        for report, pi, dpi in zip(stacked, p, dp):
            assert_same_report(report, classical_fi(pi, dpi, ("a", "b", "c")))
        assert stacked[0].boundary and stacked[0].dropped_outcomes == ("c",)
        assert not stacked[1].boundary and stacked[1].dropped_outcomes == ()

    def test_a_failing_point_keeps_its_error(self):
        # a non-finite phase, an unnormalized POVM and a non-Hermitian one
        # fail alone and in the stack; the regular points are unchanged
        rng = np.random.default_rng(8)
        regular = [haar_povm(rng, 4) for _ in range(3)]
        doubled = Povm(("a", "b", "c", "d"), 2.0 * regular[0].elements)
        skew = regular[1].elements.copy()
        skew[0, 0, 1] += 1e-3j
        skew[0, 1, 0] += 1e-3j
        tilted = Povm(("a", "b", "c", "d"), skew)
        stack = (regular[0], doubled, regular[1], tilted, regular[2],
                 regular[0])
        scenario = Scenario(family=ProbeFamily.phase_dephasing(copies=2),
                            measurement=stack,
                            fixed_inputs={"phi": 0.1, "delta": 0.4,
                                          "xi_1": 0.3, "xi_2": 1.2},
                            sweep=None)
        values = {"xi_1": np.array([0.3, 0.5, 0.7, 0.9, 1.1, math.nan]),
                  "delta": np.array([0.4, 0.4, 0.6, 0.6, 0.8, 0.8])}
        found = evaluate_kappa(scenario, values)
        assert [type(f).__name__ for f in found] == [
            "KappaResult", "ValueError", "KappaResult", "ValueError",
            "KappaResult", "ValueError"]
        assert "probabilities sum to" in str(found[1])
        assert "imaginary probability residue" in str(found[3])
        assert str(found[5]) == "xi_1 must be finite, got nan"
        assert_each_point_as_alone(scenario, values, len(stack))

    def test_one_point_raises_and_a_stack_needs_one_povm_per_point(self):
        scenario = Scenario(family=ProbeFamily.phase_dephasing(copies=2),
                            measurement=(bell_povm(), bell_povm()),
                            fixed_inputs={"phi": 0.1, "delta": 0.4,
                                          "xi_1": 0.3, "xi_2": 1.2},
                            sweep=None)
        with pytest.raises(ValueError, match="needs as many points, got 3"):
            evaluate_kappa(scenario, {"delta": np.array([0.1, 0.2, 0.3])})
        one = replace(scenario, measurement=bell_povm())
        with pytest.raises(ValueError, match="must be >= 0, got -0.2"):
            evaluate_kappa(one, {"delta": -0.2})
        found = evaluate_kappa(one, {"delta": np.array([0.4, -0.2])})
        assert str(found[1]) == "dephasing strength must be >= 0, got -0.2"
        assert_same_result(found[0], evaluate_kappa(one, {"delta": 0.4}))


def bell_scenario(measurement=None):
    return Scenario(family=ProbeFamily.phase_dephasing(copies=2),
                    measurement=measurement or bell_povm(),
                    fixed_inputs={"phi": 0.1, "delta": 0.4, "xi_1": 0.3,
                                  "xi_2": 1.2}, sweep=None)


def generator_scenario():
    return Scenario(family=ProbeFamily.phase_dephasing(copies=2),
                    measurement=ProductProjectiveGenerator(),
                    fixed_inputs={"phi": 0.1, "delta": 0.4, "xi_1": 0.3,
                                  "xi_2": 1.2, "theta_1": 0.9, "eta_1": 0.3,
                                  "theta_2": 1.4, "eta_2": 2.0}, sweep=None)


class TestOnePass:
    """``_reference`` checks every input it reads with one point rule,
    then evaluates the points that pass as one stack."""

    @pytest.mark.parametrize("values,shapes", [
        ({"delta": np.array([])}, "{'delta': (0,)}"),
        ({"delta": np.full((2, 2), 0.4)}, "{'delta': (2, 2)}"),
        ({"delta": np.array([0.1, 0.2]), "xi_1": np.array([0.1, 0.2, 0.3])},
         "{'delta': (2,), 'xi_1': (3,)}"),
    ], ids=["empty", "2-D", "two-lengths"])
    def test_malformed_arrays_are_refused_by_name(self, monkeypatch, values,
                                                  shapes):
        def refused(*args):
            raise AssertionError("the reference path ran")

        monkeypatch.setattr(scenarios, "_reference", refused)
        with pytest.raises(ValueError) as raised:
            evaluate_kappa(bell_scenario(), values)
        assert str(raised.value) == ("point arrays must be 1-D, nonempty and "
                                     f"of one length, got shapes {shapes}")

    def test_non_finite_setting_is_named_without_a_warning(self):
        scenario = generator_scenario()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="^theta_1 must be finite, got inf$"):
                evaluate_kappa(scenario, {"theta_1": math.inf})
            found = evaluate_kappa(scenario, {
                "theta_1": np.array([0.9, math.inf, -math.inf])})
        assert [str(f) for f in found[1:]] == [
            "theta_1 must be finite, got inf",
            "theta_1 must be finite, got -inf"]
        assert_same_result(found[0], evaluate_kappa(scenario, {}))

    def test_residue_error_wins_over_a_classical_fi_error(self):
        # doubled, so its probabilities sum to 2, and skew, so they have an
        # imaginary residue
        skew = 2.0 * bell_povm().elements
        skew[0, 0, 1] += 1e-3j
        skew[0, 1, 0] += 1e-3j
        both = Povm(bell_povm().labels, skew)
        with pytest.raises(ValueError, match="imaginary probability residue"):
            evaluate_kappa(bell_scenario(both), {})
        scenario = bell_scenario((bell_povm(), both))
        values = {"delta": np.array([0.4, 0.4])}
        regular, failed = evaluate_kappa(scenario, values)
        assert "imaginary probability residue" in str(failed)
        assert_same_result(regular, evaluate_kappa(bell_scenario(), {}))

    def test_the_reference_calls_no_kernel(self, monkeypatch):
        # the kernels are tested against this path, so it must not use
        # them (``fisher`` may call ``kernels.fisher_matrix``)
        def refused(*args):
            raise AssertionError("the reference path called a kernel")

        for name in ("kappa_batch", "probabilities"):
            monkeypatch.setattr(kernels, name, refused)
        stack = (bell_povm(), product_projective_povm((0.9, 0.3, 1.4, 2.0)))
        deltas = {"delta": np.array([0.4, 0.7])}
        for scenario, values in [(bell_scenario(), {}),
                                 (bell_scenario(), deltas),
                                 (bell_scenario(stack), deltas),
                                 (generator_scenario(), {}),
                                 (generator_scenario(), deltas)]:
            found = evaluate_kappa(scenario, values)
            for result in found if isinstance(found, list) else [found]:
                assert result.kappa > 0.0


@pytest.mark.parametrize("dim,outcomes", [(2, 6), (4, 4), (8, 8)])
def test_probabilities_keep_the_bits_of_one_state(dim, outcomes):
    # every point of a stack gets the bits of np.einsum on its state alone,
    # so reported kappa values keep their bytes however many are stacked
    rng = np.random.default_rng(dim)
    elements = rng.standard_normal((outcomes, dim, dim)) \
        + 1j * rng.standard_normal((outcomes, dim, dim))
    elements += elements.conj().swapaxes(-1, -2)
    stack = rng.standard_normal((3, 7, dim, dim)) \
        + 1j * rng.standard_normal((3, 7, dim, dim))
    stack += stack.conj().swapaxes(-1, -2)
    for per_point in (False, True):
        povms = np.stack([elements] * 7) if per_point else elements
        p, dp, errors = fisher.outcome_probabilities(stack, povms)
        assert errors == [None] * 7
        for s in range(7):
            assert p[s].tobytes() == np.einsum(
                "kij,ji->k", elements, stack[0, s]).real.tobytes()
            assert dp[s].tobytes() == np.einsum(
                "kij,pji->pk", elements, stack[1:, s]).real.tobytes()


class TestOneReferenceCallPerRun:
    """A run reports all its optima with one stacked reference evaluation:
    one ``evaluate_kappa`` and one ``classical_fi`` call for the run."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"evaluate_kappa": [], "classical_fi": []}
        for name, record in calls.items():
            def counted(*args, _call=getattr(scenarios, name), _record=record):
                _record.append(args)
                return _call(*args)
            monkeypatch.setattr(scenarios, name, counted)
        return calls

    def test_default_bell_scan(self, calls):
        grid = cli._sweep_grid(cli.parse_config("kappa-scan", {}))
        curve = kappa_scan(Scenario(
            family=ProbeFamily.phase_dephasing(copies=2),
            measurement=bell_povm(), free_inputs=("phi", "xi_1", "xi_2"),
            sweep="delta"), grid)
        assert len(grid) == 40 and not any(curve.failed)
        [(_, values)] = calls["evaluate_kappa"]
        assert {np.shape(v) for v in values.values()} == {(40,)}
        [(p, _, _)] = calls["classical_fi"]
        assert p.shape == (40, 4)

    def test_optimize_each_over_a_povm_stack(self, calls):
        rng = np.random.default_rng(2024)
        stack = tuple(product_projective_povm(rng.uniform(0, math.pi, 4))
                      for _ in range(3))
        outcomes, _ = optimize_each(Scenario(
            family=ProbeFamily.phase_dephasing(copies=2), measurement=stack,
            free_inputs=("xi_1", "xi_2"), fixed_inputs={"phi": 0.0},
            sweep="delta"), 0.4, 160)
        assert len(outcomes) == 3
        assert len(calls["evaluate_kappa"]) == len(calls["classical_fi"]) == 1
        [(scenario, values)] = calls["evaluate_kappa"]
        assert len(scenario.measurement) == 3
