import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetro import (GateModel, Povm, ProbeFamily, ProductProjectiveGenerator,
                    Scenario, bell_povm, cs_gate_povm, evaluate_kappa,
                    kappa_scan, optimize_each, optimize_kappa,
                    povm_to_json, product_projective_povm,
                    random_collective_search)
from qmetro import cli, fisher, kernels, linalg, scenarios, states
from qmetro import refine as refine_module
from qmetro.linalg import PAULI_Y, PAULI_Z, projector
from qmetro.scenarios import _maximize, _Objective

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def haar_random_basis(rng, dim):
    """A Haar-random basis drawn as the collective search draws one."""
    return scenarios._haar_bases(scenarios._complex_gaussian(rng, dim))


def default_delta_grid():
    """The dephasing strengths ``kappa-scan`` sweeps by default."""
    return cli._sweep_grid(cli.parse_config("kappa-scan", {}))


def objective_of(scenario, base, names):
    """The search objective of a scenario with one measurement."""
    return _Objective(scenario.family, scenario.measurement, base, names)


def score(objective, x):
    """The objective's search score at one point."""
    return objective.batch(np.asarray(x, dtype=float)[None])[0]


def ideal_bell_scenario(**overrides):
    kwargs = dict(
        family=ProbeFamily.phase_dephasing(copies=2),
        measurement=bell_povm(),
        free_inputs=("phi", "xi_1", "xi_2"),
        fixed_inputs={},
        sweep="delta")
    kwargs.update(overrides)
    return Scenario(**kwargs)


def ideal_kappa(delta):
    # at the optimal phases the two-copy Bell statistics give
    # kappa = c^2 + c^2/(1 + c^2) with c^2 = exp(-2 delta^2)
    c2 = math.exp(-2.0 * delta * delta)
    return c2 + c2 / (1.0 + c2)


class TestScenarioValidation:
    def test_free_fixed_overlap_rejected(self):
        with pytest.raises(ValueError):
            ideal_bell_scenario(free_inputs=("phi",),
                                fixed_inputs={"phi": 0.0, "xi_1": 0.0, "xi_2": 0.0})

    def test_missing_inputs_rejected(self):
        with pytest.raises(ValueError):
            ideal_bell_scenario(free_inputs=("phi",), fixed_inputs={})

    def test_two_phase_requires_shared_phase(self):
        with pytest.raises(ValueError):
            Scenario(family=ProbeFamily.two_phase(copies=2),
                     measurement=bell_povm(),
                     free_inputs=("xi_1", "xi_2"),
                     fixed_inputs={"phi_y": 0.4, "phi_z": 0.3},
                     sweep="phi_z")

    def test_unused_sweep_rejected(self):
        with pytest.raises(ValueError):
            Scenario(family=ProbeFamily.two_phase(copies=2),
                     measurement=bell_povm(),
                     free_inputs=("xi",),
                     fixed_inputs={"phi_y": 0.4, "phi_z": 0.3},
                     sweep="delta")

    @pytest.mark.parametrize("free,fixed,match", [
        (("phi", "xi_1", "xi_2", "bogus"), {}, r"not used.*'bogus'"),
        (("phi", "xi_1", "xi_2", "theta_1"), {}, r"not used.*'theta_1'"),
        (("phi", "phi", "xi_1", "xi_2"), {}, r"repeated.*'phi'"),
        (("phi", "xi_1", "xi_2", "delta"), {},
         r"free and fixed or swept.*'delta'"),
        (("phi", "xi_1", "xi_2"), {"delta": 0.3},
         r"^inputs both fixed and swept: \['delta'\]$"),
    ], ids=["unknown", "setting-of-a-fixed-povm", "repeated", "swept",
            "fixed-and-swept"])
    def test_free_inputs_validated_by_name(self, free, fixed, match):
        with pytest.raises(ValueError, match=match):
            ideal_bell_scenario(free_inputs=free, fixed_inputs=fixed)

    @pytest.mark.parametrize("family,free,fixed,sweep,named", [
        (ProbeFamily.two_phase(copies=2), ("xi",),
         {"phi_y": 0.4, "phi_z": 0.3, "delta": 7.0, "bogus": 1.0}, "phi_z",
         "['bogus', 'delta']"),
        (ProbeFamily.two_phase(copies=2), ("xi_1", "xi_2"),
         {"phi_y": 0.4, "phi_z": 0.3}, "phi_z", "['xi_1', 'xi_2']"),
        (ProbeFamily.phase_dephasing(copies=1), ("phi", "xi_1"),
         {"xi_2": 0.3}, "delta", "['xi_2']"),
    ], ids=["fixed-of-the-other-family", "per-copy-two-phase",
            "beyond-the-copies"])
    def test_unused_inputs_refused_by_name(self, family, free, fixed, sweep,
                                           named):
        with pytest.raises(ValueError, match="inputs not used by this "
                                             f"scenario: {re.escape(named)}"):
            Scenario(family=family, measurement=bell_povm(), free_inputs=free,
                     fixed_inputs=fixed, sweep=sweep)

    @pytest.mark.parametrize("stack", [
        (),
        (bell_povm(), Povm(("a", "b"), np.stack([np.eye(4) / 2] * 2))),
    ], ids=["empty", "mismatched-shapes"])
    def test_measurement_stack_validated(self, stack):
        with pytest.raises(ValueError, match="POVMs of one element shape"):
            ideal_bell_scenario(measurement=stack)

    @pytest.mark.parametrize("call", [
        lambda s: evaluate_kappa(s, {"delta": 0.3, "phi": 0.0, "xi_1": 0.0,
                                     "xi_2": 0.0}),
        lambda s: kappa_scan(s, [0.3]),
        lambda s: optimize_kappa(s, 0.3),
    ], ids=["evaluate_kappa", "kappa_scan", "optimize_kappa"])
    def test_stack_refused_where_one_measurement_is_needed(self, call):
        scenario = ideal_bell_scenario(measurement=(bell_povm(), bell_povm()))
        with pytest.raises(ValueError, match="not a stack of 2 POVMs"):
            call(scenario)

    def test_shared_phase_shorthand_accepted(self):
        scenario = ideal_bell_scenario(free_inputs=("phi", "xi"))
        assert optimize_kappa(scenario, 0.3, budget=200).result.kappa > 1.0

    @pytest.mark.parametrize("free,fixed,phases", [
        (("phi", "xi"), {"xi_1": 0.3}, ("xi_1", "xi")),
        (("phi", "xi", "xi_1"), {}, ("xi_1", "xi")),
        (("phi", "xi_1", "xi_2"), {}, ("xi_1", "xi_2")),
        (("phi",), {"xi": 0.3}, ("xi", "xi")),
    ], ids=["fixed-per-copy", "free-per-copy", "per-copy", "shared"])
    def test_each_copy_reads_xi_j_or_xi(self, free, fixed, phases):
        scenario = ideal_bell_scenario(free_inputs=free, fixed_inputs=fixed)
        assert scenarios.phase_names(scenario.family,
                                     {*free, *fixed}) == phases
        assert scenarios.phase_names(ProbeFamily.two_phase(copies=2),
                                     {*free, *fixed}) == ("xi", "xi")


class TestOptimizeKappa:
    def test_matches_analytic_optimum_at_small_delta(self):
        out = optimize_kappa(ideal_bell_scenario(), 0.3, budget=2000)
        assert abs(out.result.kappa - ideal_kappa(0.3)) < 1e-5
        assert out.result.kappa > 1.0

    def test_no_advantage_beyond_crossing(self):
        # the ideal curve crosses 1 near delta = 0.4905
        out = optimize_kappa(ideal_bell_scenario(), 0.5, budget=2000)
        assert abs(out.result.kappa - ideal_kappa(0.5)) < 1e-5
        assert out.result.kappa < 1.0

    def test_deterministic_for_fixed_budget(self):
        a = optimize_kappa(ideal_bell_scenario(), 0.4, budget=600)
        b = optimize_kappa(ideal_bell_scenario(), 0.4, budget=600)
        assert a.result.kappa == b.result.kappa
        assert a.settings == b.settings

    def test_never_exceeds_parameter_count(self):
        for delta in (0.05, 0.3, 1.0):
            out = optimize_kappa(ideal_bell_scenario(), delta, budget=400)
            assert out.result.kappa <= 2.0 + 1e-6

    def test_product_measurement_bounded_by_one(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            angles = (rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi),
                      rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            scenario = ideal_bell_scenario(
                measurement=product_projective_povm(angles))
            out = optimize_kappa(scenario, 0.4, budget=300)
            assert out.result.kappa <= 1.0 + 1e-9

    def test_two_phase_bell_bounded_by_one(self):
        scenario = Scenario(family=ProbeFamily.two_phase(copies=2),
                            measurement=bell_povm(),
                            free_inputs=("xi",),
                            fixed_inputs={"phi_y": 0.4},
                            sweep="phi_z")
        out = optimize_kappa(scenario, 0.3, budget=400)
        assert out.result.kappa <= 1.0 + 1e-6

    def test_free_measurement_angles_via_generator(self):
        # equal analysis azimuths would leave both copies' derivative
        # directions parallel (singular Fisher matrix), so free the azimuths
        scenario = Scenario(
            family=ProbeFamily.phase_dephasing(copies=2),
            measurement=ProductProjectiveGenerator(),
            free_inputs=("eta_1", "eta_2"),
            fixed_inputs={"phi": 0.3, "xi_1": 0.0, "xi_2": 0.0,
                          "theta_1": math.pi / 2, "theta_2": math.pi / 2},
            sweep="delta")
        out = optimize_kappa(scenario, 0.4, budget=150)
        assert 0.0 < out.result.kappa <= 1.0 + 1e-9
        assert set(out.settings) == {"eta_1", "eta_2"}

    def test_singular_everywhere_raises_with_diagnostics(self):
        # frozen equal azimuths: rank-1 Fisher matrix at every grid point
        scenario = Scenario(
            family=ProbeFamily.phase_dephasing(copies=2),
            measurement=ProductProjectiveGenerator(),
            free_inputs=("theta_1", "theta_2"),
            fixed_inputs={"phi": 0.3, "xi_1": 0.0, "xi_2": 0.0,
                          "eta_1": 0.0, "eta_2": 0.0},
            sweep="delta")
        with pytest.raises(RuntimeError, match="singular"):
            optimize_kappa(scenario, 0.4, budget=60)

    @pytest.mark.parametrize("free,fixed,sweep,at,where", [
        (("phi", "xi_1", "xi_2"), {}, "delta", 0.4, "sweep delta at 0.4"),
        (("phi", "xi_1", "xi_2"), {"delta": 0.4}, None, None,
         "fixed inputs delta=0.4"),
        (("phi", "delta", "xi_1", "xi_2"), {}, None, None,
         "every input free"),
    ], ids=["swept", "fixed", "free"])
    def test_singular_everywhere_names_the_point(self, free, fixed, sweep,
                                                 at, where):
        # the sweep is named only where the scenario has one
        scenario = Scenario(family=ProbeFamily.phase_dephasing(copies=2),
                            measurement=BLIND, free_inputs=free,
                            fixed_inputs=fixed, sweep=sweep)
        with pytest.raises(RuntimeError) as err:
            optimize_kappa(scenario, at, budget=40)
        assert str(err.value) == (
            "kappa evaluation failed at every grid point (singular Fisher "
            f"matrix); scenario {where}")

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            optimize_kappa(ideal_bell_scenario(), 0.3, budget=0)


def random_product_povms(count):
    """Product projective POVMs drawn as acceptance 3 draws them."""
    rng = np.random.default_rng(2024)
    return tuple(product_projective_povm(
        (rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi),
         rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)))
        for _ in range(count))


#: a POVM whose outcomes carry no information: singular everywhere
BLIND = Povm(("a", "b", "c", "d"), np.stack([np.eye(4) / 4] * 4))


class TestOptimizeEach:
    @pytest.mark.parametrize("stack", [
        random_product_povms(1), random_product_povms(8) + (BLIND,),
    ], ids=["one", "eight-and-blind"])
    @pytest.mark.parametrize("family,free,fixed,sweep,at,budget", [
        (ProbeFamily.phase_dephasing(copies=2), ("xi_1", "xi_2"),
         {"phi": 0.0}, "delta", 0.4, 160),
        (ProbeFamily.two_phase(copies=2), ("xi",), {"phi_y": 0.4}, "phi_z",
         0.3, 60),
    ], ids=["dephasing", "two-phase"])
    def test_each_problem_as_optimized_alone(self, family, free, fixed, sweep,
                                             at, budget, stack):
        # one lockstep run for the stack, one run per POVM here; a stack of
        # one is the shared POVM, work included
        def scenario(measurement):
            return Scenario(family=family, measurement=measurement,
                            free_inputs=free, fixed_inputs=fixed, sweep=sweep)

        outcomes, work = optimize_each(scenario(stack), at, budget)
        assert len(outcomes) == len(stack)
        for povm, outcome in zip(stack, outcomes):
            if povm is BLIND:
                with pytest.raises(RuntimeError, match="singular") as alone:
                    optimize_kappa(scenario(povm), at, budget)
                assert isinstance(outcome, RuntimeError)
                assert str(outcome) == str(alone.value)
                continue
            alone = optimize_kappa(scenario(povm), at, budget)
            assert outcome.settings == alone.settings
            assert outcome.result.kappa == alone.result.kappa
            assert np.array_equal(outcome.result.per_parameter,
                                  alone.result.per_parameter)
        if len(stack) == 1:
            assert work == alone.work


class TestNegativeDelta:
    """kappa is even in delta, but a dephasing strength is never negative."""

    @staticmethod
    def free_delta_scenario():
        return ideal_bell_scenario(free_inputs=("phi", "delta"),
                                   fixed_inputs={"xi_2": 0.0}, sweep="xi_1")

    @pytest.mark.parametrize("budget", [60, 120, 400, 2000])
    @pytest.mark.parametrize("at", [0.0, 0.3, 1.0, 2.0])
    def test_free_delta_search_stays_nonnegative(self, at, budget):
        out = optimize_kappa(self.free_delta_scenario(), at, budget=budget)
        assert out.settings["delta"] >= 0.0
        assert 0.0 < out.result.kappa <= 2.0

    @pytest.mark.parametrize("budget", [60, 400, 2000])
    def test_no_search_row_has_negative_delta(self, monkeypatch, budget):
        # the grid scores delta on [0, 3) and the refinement fits its model
        # at least one stencil step above 0, so no row scores -inf
        deltas = []
        batch = _Objective.batch

        def recorded(self, X, problems=None):
            deltas.append(np.asarray(X)[:, self.names.index("delta")])
            return batch(self, X, problems)

        monkeypatch.setattr(_Objective, "batch", recorded)
        for at in (0.0, 1.0):
            optimize_kappa(self.free_delta_scenario(), at, budget=budget)
        deltas = np.concatenate(deltas)
        assert deltas.min() >= refine_module.STEP and deltas.max() < 3.0

    def test_small_budget_backtracks_its_last_steps(self):
        # at budget 60 the refinement holds one model after its first call;
        # then its last rows backtrack that model's step one at a time
        out = optimize_kappa(self.free_delta_scenario(), 1.0, budget=60)
        assert out.result.kappa > 0.99

    def test_negative_rows_never_win_nor_count_as_regular(self):
        scenario = self.free_delta_scenario()
        objective = objective_of(
            scenario, {**scenario.fixed_inputs, "xi_1": 0.3}, ["phi", "delta"])
        assert score(objective, [0.4, -0.2]) == -np.inf
        assert not objective.any_regular
        assert score(objective, [0.4, 0.2]) > 0.0
        assert objective.any_regular

    def test_fixed_negative_delta_is_named(self):
        with pytest.raises(ValueError, match="dephasing strength must be >= 0"):
            optimize_kappa(ideal_bell_scenario(), -0.1, budget=50)


class TestPointCheck:
    """A point with a non-finite fixed or swept value is refused before any
    search, with the message ``states`` gives it."""

    @pytest.fixture
    def no_search(self, monkeypatch):
        def refused(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(scenarios, "_maximize", refused)

    @pytest.mark.parametrize("scenario,at,message", [
        (ideal_bell_scenario(), math.nan, "delta must be finite, got nan"),
        (ideal_bell_scenario(free_inputs=("xi_1", "xi_2"),
                             fixed_inputs={"phi": math.nan}), 0.3,
         "phi must be finite, got nan"),
        (Scenario(family=ProbeFamily.two_phase(copies=2),
                  measurement=bell_povm(), free_inputs=("xi",),
                  fixed_inputs={"phi_y": math.inf}, sweep="phi_z"), 0.3,
         "phi_y must be finite, got inf"),
        (Scenario(family=ProbeFamily.phase_dephasing(copies=2),
                  measurement=ProductProjectiveGenerator(),
                  free_inputs=("phi", "xi_1", "xi_2"),
                  fixed_inputs={"theta_1": -math.inf, "eta_1": 0.0,
                                "theta_2": 0.0, "eta_2": 0.0}), 0.3,
         "theta_1 must be finite, got -inf"),
    ], ids=["nan-delta", "nan-phi", "inf-phi_y", "inf-setting"])
    def test_non_finite_point_is_refused_before_the_search(
            self, no_search, scenario, at, message):
        with pytest.raises(ValueError, match=message):
            optimize_kappa(scenario, at)
        if not math.isfinite(at):
            return
        # a scan fails every point the same way, and searches none
        curve = kappa_scan(scenario, [0.3, 0.6])
        assert curve.failed == (message, message)
        assert np.isnan(curve.kappa_values).all()


class TestKappaScan:
    def test_curve_matches_analytic_form(self):
        grid = np.array([0.1, 0.3, 0.7, 1.2])
        curve = kappa_scan(ideal_bell_scenario(), grid, budget=1200)
        expected = [ideal_kappa(d) for d in grid]
        assert np.abs(curve.kappa_values - expected).max() < 1e-4
        assert all(err is None for err in curve.failed)

    def test_reversal_invariance(self):
        grid = np.array([0.2, 0.6, 1.1])
        forward = kappa_scan(ideal_bell_scenario(), grid, budget=400)
        backward = kappa_scan(ideal_bell_scenario(), grid[::-1].copy()[::-1],
                              budget=400)
        assert np.array_equal(forward.kappa_values, backward.kappa_values)

    def test_contributions_bounded_by_one(self):
        grid = np.array([0.1, 0.4, 0.9])
        curve = kappa_scan(ideal_bell_scenario(), grid, budget=800)
        assert curve.per_parameter.max() <= 1.0 + 1e-9

    def test_rows_layout(self):
        curve = kappa_scan(ideal_bell_scenario(), [0.3, 0.8], budget=200)
        header, rows = curve.rows()
        assert header[:2] == ["delta", "kappa"]
        assert header[2:4] == ["contrib_phi", "contrib_delta"]
        assert set(header[4:]) == {"best_phi", "best_xi_1", "best_xi_2"}
        assert len(rows) == 2 and len(rows[0]) == len(header)

    def test_grid_validated(self):
        with pytest.raises(ValueError):
            kappa_scan(ideal_bell_scenario(), [], budget=100)
        with pytest.raises(ValueError):
            kappa_scan(ideal_bell_scenario(), [0.5, 0.2], budget=100)
        with pytest.raises(ValueError, match="finite"):
            kappa_scan(ideal_bell_scenario(), [0.5, np.inf], budget=100)
        with pytest.raises(ValueError, match="budget"):
            kappa_scan(ideal_bell_scenario(), [0.5], budget=0)
        with pytest.raises(ValueError, match="swept input"):
            kappa_scan(ideal_bell_scenario(sweep=None,
                                           fixed_inputs={"delta": 0.3}),
                       [0.5], budget=100)

    @pytest.mark.parametrize("scenario,grid", [
        (ideal_bell_scenario(), [-0.5, -0.25, 0.0, 0.3, 0.7]),
        (TestNegativeDelta.free_delta_scenario(), [0.0, 0.3, 1.0]),
        (Scenario(family=ProbeFamily.two_phase(copies=2),
                  measurement=bell_povm(), free_inputs=("xi", "phi_y"),
                  sweep="phi_z"), [0.1, 0.3, 0.8]),
    ], ids=["bell-with-failures", "free-delta", "two-phase"])
    def test_each_point_as_optimized_alone(self, scenario, grid):
        # one lockstep run for the scan, one run per point here
        curve = kappa_scan(scenario, grid, budget=150)
        for i, x in enumerate(grid):
            try:
                alone = optimize_kappa(scenario, x, budget=150)
            except (RuntimeError, ValueError) as exc:
                assert curve.failed[i] == str(exc)
                assert np.isnan(curve.kappa_values[i])
                continue
            assert curve.failed[i] is None
            assert curve.optimizer_args[i] == alone.settings
            assert curve.kappa_values[i] == alone.result.kappa

    def test_failed_points_keep_their_own_reasons(self):
        curve = kappa_scan(ideal_bell_scenario(), [-0.5, -0.25, 0.0, 0.3],
                           budget=150)
        assert curve.failed[:2] == (
            "dephasing strength must be >= 0, got -0.5",
            "dephasing strength must be >= 0, got -0.25")
        # the ideal Bell statistics are singular at delta = 0
        assert curve.failed[2] == (
            "kappa evaluation failed at every grid point (singular Fisher "
            "matrix); scenario sweep delta at 0.0")
        assert curve.failed[3] is None and curve.kappa_values[3] > 1.0
        # the negative points are never scored
        assert curve.work.evaluations <= 2 * 150

    def test_fixed_value_of_the_swept_input_is_refused(self):
        # the scan sets the swept input at every grid point, so a fixed
        # value of it would be dropped without a word: construction
        # refuses it, and no scan starts
        with pytest.raises(ValueError, match=r"^inputs both fixed and "
                                             r"swept: \['delta'\]$"):
            kappa_scan(ideal_bell_scenario(fixed_inputs={"delta": 0.3}),
                       [0.3, 0.6], budget=50)
        two_phase = dict(family=ProbeFamily.two_phase(copies=2),
                         measurement=bell_povm(), free_inputs=("xi",),
                         fixed_inputs={"phi_y": 0.4, "phi_z": 0.3},
                         sweep="phi_z")
        with pytest.raises(ValueError, match=r"\['phi_z'\]"):
            kappa_scan(Scenario(**two_phase), [0.3, 0.6], budget=50)

    def test_default_grid(self):
        grid = default_delta_grid()
        assert len(grid) == 40
        assert abs(grid[0] - 0.02) < 1e-12
        assert abs(grid[-1] - 3.0) < 1e-12


class TestVisibilityDegradation:
    def test_low_delta_information_drop(self):
        ideal = optimize_kappa(ideal_bell_scenario(), 0.05, budget=800)
        degraded_povm, _ = cs_gate_povm(GateModel(visibility=0.9))
        degraded = optimize_kappa(
            ideal_bell_scenario(measurement=degraded_povm), 0.05, budget=800)
        assert ideal.result.kappa - degraded.result.kappa > 0.1


class TestDecoherenceTail:
    def test_entangling_strategy_needs_coherence(self):
        # at delta = 3 the Bell strategy collapses while a split product
        # strategy (one copy read for the phase, one for the dephasing)
        # still attains kappa = 1
        bell_out = optimize_kappa(ideal_bell_scenario(), 3.0, budget=600)
        product = Scenario(
            family=ProbeFamily.phase_dephasing(copies=2),
            measurement=ProductProjectiveGenerator(),
            free_inputs=("eta_1", "eta_2"),
            fixed_inputs={"phi": 0.0, "xi_1": 0.0, "xi_2": 0.0,
                          "theta_1": math.pi / 2, "theta_2": math.pi / 2},
            sweep="delta")
        product_out = optimize_kappa(product, 3.0, budget=350)
        assert bell_out.result.kappa < 0.01
        assert product_out.result.kappa > 0.9
        assert product_out.result.kappa <= 1.0 + 1e-9


class TestCollectiveSearch:
    def test_deterministic(self):
        a = random_collective_search(trials=20, seed=5)
        b = random_collective_search(trials=20, seed=5)
        assert a.max_kappa == b.max_kappa
        assert a.trial_index == b.trial_index
        assert a.xi == b.xi
        assert np.array_equal(a.basis, b.basis)

    def test_single_trial_is_bounded(self):
        result = random_collective_search(trials=1, seed=11)
        assert 0.0 <= result.max_kappa <= 1.0 + 1e-6

    @pytest.mark.parametrize("xi_budget", [0, -5])
    def test_xi_budget_validated(self, xi_budget):
        with pytest.raises(ValueError, match="xi_budget must be >= 1"):
            random_collective_search(trials=1, seed=0, xi_budget=xi_budget)

    def test_pinned_seed_77_winner(self):
        result = random_collective_search(trials=200, seed=77)
        assert result.trial_index == 172
        assert repr(result.xi) == "0.39124381451986473"
        assert repr(result.max_kappa) == "0.9999999883734783"
        assert result.work.evaluations <= 200 * 48

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_size_changes_nothing(self, monkeypatch, chunk):
        default = random_collective_search(trials=30, seed=8)
        monkeypatch.setattr(scenarios, "_CALL_ROWS", chunk)
        chunked = random_collective_search(trials=30, seed=8)
        assert (chunked.trial_index, chunked.xi, chunked.max_kappa) == (
            default.trial_index, default.xi, default.max_kappa)
        assert np.array_equal(chunked.per_parameter, default.per_parameter)
        assert chunked.work.evaluations == default.work.evaluations
        assert chunked.work.refine_iterations == \
            default.work.refine_iterations

    def test_projectors_are_outer_products_bit_for_bit(self):
        result = random_collective_search(trials=20, seed=3)
        bases = np.stack([result.basis] + [
            haar_random_basis(np.random.default_rng([3, t]), 4)
            for t in range(20)])
        assert np.array_equal(bases[1 + result.trial_index], result.basis)
        projectors = projector(bases.swapaxes(1, 2))
        assert projectors.flags.c_contiguous
        for basis, elements in zip(bases, projectors):
            outer = [np.outer(basis[:, k], basis[:, k].conj())
                     for k in range(4)]
            assert np.array_equal(elements, outer)

    def test_one_povm_and_one_scenario_per_search(self, monkeypatch):
        built = {Povm: 0, Scenario: 0}
        for cls in built:
            def counted(obj, check=cls.__post_init__, cls=cls):
                built[cls] += 1
                check(obj)
            monkeypatch.setattr(cls, "__post_init__", counted)
        random_collective_search(trials=30, seed=8)
        assert built == {Povm: 1, Scenario: 1}

    def test_kernel_receives_c_ordered_povm_stacks(self, monkeypatch):
        layouts = []
        batched = kernels.kappa_batch

        def recorded(table, *args):
            layouts.append(table.flags.c_contiguous)
            return batched(table, *args)

        monkeypatch.setattr(kernels, "kappa_batch", recorded)
        random_collective_search(trials=30, seed=8)
        assert layouts and all(layouts)

    def test_haar_basis_is_orthonormal(self):
        rng = np.random.default_rng(0)
        basis = haar_random_basis(rng, 4)
        assert np.abs(basis.conj().T @ basis - np.eye(4)).max() < 1e-12

    def test_haar_average_projector_is_uniform(self):
        rng = np.random.default_rng(123)
        samples = 100_000
        # per sample the real, then the imaginary part, in the rng order of
        # ``_complex_gaussian``, and all samples QR'd as one stack
        parts = rng.standard_normal((samples, 2, 4, 4))
        bases = scenarios._haar_bases(parts[:, 0] + 1j * parts[:, 1])
        first = bases[:, :, 0]
        total = first.T @ first.conj()
        assert np.abs(total / samples - np.eye(4) / 4.0).max() < 5e-3


class TestEvaluateKappa:
    def test_asymmetric_input_phases_supported(self):
        scenario = ideal_bell_scenario(
            free_inputs=(), fixed_inputs={"phi": 0.89, "xi_1": 0.0, "xi_2": 0.10})
        result = evaluate_kappa(scenario, {"delta": 0.3})
        assert 0.0 < result.kappa <= 1.5 + 1e-9

    def test_shared_xi_alias_for_dephasing(self):
        shared = ideal_bell_scenario(
            free_inputs=(), fixed_inputs={"phi": 0.2, "xi": 0.4})
        split = ideal_bell_scenario(
            free_inputs=(), fixed_inputs={"phi": 0.2, "xi_1": 0.4, "xi_2": 0.4})
        a = evaluate_kappa(shared, {"delta": 0.5})
        b = evaluate_kappa(split, {"delta": 0.5})
        assert abs(a.kappa - b.kappa) < 1e-12
        # copy 1 reads its own xi_1 and copy 2 the shared xi
        mixed = ideal_bell_scenario(
            free_inputs=(), fixed_inputs={"phi": 0.2, "xi_1": 0.9, "xi": 0.4})
        split = ideal_bell_scenario(
            free_inputs=(), fixed_inputs={"phi": 0.2, "xi_1": 0.9, "xi_2": 0.4})
        a = evaluate_kappa(mixed, {"delta": 0.5})
        b = evaluate_kappa(split, {"delta": 0.5})
        assert abs(a.kappa - b.kappa) < 1e-12
        assert abs(a.kappa - evaluate_kappa(shared, {"delta": 0.5}).kappa) > 1e-3

    def test_unread_and_missing_names_are_refused(self):
        scenario = ideal_bell_scenario()
        point = {"phi": 0.1, "delta": 0.3, "xi_1": 0.2, "xi_2": 0.4}
        assert evaluate_kappa(scenario, point).kappa > 0.0
        with pytest.raises(ValueError, match=re.escape(
                "inputs not used by this scenario: ['bogus', 'xi_3']")):
            evaluate_kappa(scenario, {**point, "xi_3": 5.0, "bogus": 1.0})
        with pytest.raises(ValueError, match=re.escape(
                "scenario does not cover inputs: ['delta', 'phi', 'xi']")):
            evaluate_kappa(scenario, {})
        # the fixed inputs count, as in the benchmark's tomography workload
        fixed = ideal_bell_scenario(free_inputs=(), fixed_inputs={
            "phi": 0.0, "xi_1": math.pi / 4, "xi_2": math.pi / 4})
        assert evaluate_kappa(fixed, {"delta": 0.3}).kappa > 0.0
        with pytest.raises(ValueError, match="not used by this scenario"):
            evaluate_kappa(fixed, {"delta": 0.3, "xi": 0.0})


class TestMaximizeGrid:
    @staticmethod
    def scalar_loop_winner(objective, axes):
        best_x, best_v = None, -np.inf
        for idx in np.ndindex(*(len(a) for a in axes)):
            x = np.array([a[i] for a, i in zip(axes, idx)])
            v = score(objective, x)
            if v > best_v:
                best_x, best_v = x, v
        return best_x, best_v

    @pytest.mark.parametrize("family,names,fixed,budget,per_dim", [
        (ProbeFamily.phase_dephasing(copies=2), ["xi_1", "xi_2"],
         {"phi": 0.2, "delta": 0.4}, 12, 3),
        (ProbeFamily.two_phase(copies=2), ["xi"],
         {"phi_y": 0.4, "phi_z": 0.3}, 8, 6),
    ], ids=["dephasing", "two-phase"])
    def test_batched_grid_picks_the_scalar_loop_winner(self, family, names,
                                                       fixed, budget, per_dim):
        # a budget this small leaves no room for the refinement
        basis = haar_random_basis(np.random.default_rng(5), 4)
        povm = Povm(tuple("abcd"), np.stack(
            [np.outer(basis[:, k], basis[:, k].conj()) for k in range(4)]))
        sweep = list(fixed)[-1]
        scenario = Scenario(family=family, measurement=povm,
                            free_inputs=tuple(names),
                            fixed_inputs={k: v for k, v in fixed.items()
                                          if k != sweep},
                            sweep=sweep)
        objective = objective_of(scenario, dict(fixed), names)
        [best_x], [best_v] = _maximize(objective, names, budget)
        assert objective.evaluations == per_dim ** len(names)
        axes = [np.linspace(0.0, 2 * math.pi, per_dim, endpoint=False)] * len(names)
        grid_values = objective.batch(
            np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(names)))
        top, runner_up = np.sort(grid_values)[::-1][:2]
        assert top > 0 and top - runner_up > 1e-9
        loop_x, loop_v = self.scalar_loop_winner(
            objective_of(scenario, dict(fixed), names), axes)
        assert np.array_equal(best_x, loop_x)
        assert abs(best_v - loop_v) < 1e-12

    def test_nan_row_never_wins(self):
        class Fake:
            evaluations = 0
            problems = 1

            def batch(self, X, problems):
                self.evaluations += len(X)
                values = -np.abs(X[:, 0] - 2.0)
                values[0] = values[4] = np.nan
                return values

        [best_x], [best_v] = _maximize(Fake(), ["xi"], 8)
        assert not np.isnan(best_v)
        assert best_x[0] == 2 * math.pi / 3

    def test_evaluations_count_grid_and_refinement(self, monkeypatch):
        # a lockstep run of P problems grids each one, then refines the
        # starts of all of them together, one kernel call per Newton step
        # whatever P is while a step's rows fit in ``_CALL_ROWS``. Every
        # row the kernel scores is an evaluation: the grid rows plus the
        # refinement's
        rows, runs = [], []
        batched = kernels.kappa_batch
        refine = scenarios.minimize

        def counted(table, coords, *args):
            rows.append(coords.shape[1])
            return batched(table, coords, *args)

        def recorded(*args, **kwargs):
            runs.append(refine(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(kernels, "kappa_batch", counted)
        monkeypatch.setattr(scenarios, "minimize", recorded)
        # the coordinates of the default Bell search, phi held at 0
        names = ["xi_1", "xi_2"]
        per_dim = scenarios.MULTI_GRID_POINTS_PER_DIM
        assert per_dim < int((0.75 * 400) ** (1 / 2))
        for delta, problems in ((0.3, 1), (default_delta_grid(), 40)):
            rows.clear()
            runs.clear()
            objective = objective_of(ideal_bell_scenario(),
                                     {"phi": 0.0, "delta": delta}, names)
            _maximize(objective, names, 400)
            assert objective.problems == problems
            # the problems' grids share calls of up to ``_CALL_ROWS`` rows,
            # as many whole grids as fit in each
            group = max(1, scenarios._CALL_ROWS // per_dim ** 2)
            grid_rows = [per_dim ** 2 * min(group, problems - start)
                         for start in range(0, problems, group)]
            assert rows[:len(grid_rows)] == grid_rows
            [run] = runs
            refinement = rows[len(grid_rows):]
            # the budget left holds four first calls for each of two
            # starts, and the Bell grid has two local maxima, the mirror
            # optima
            starts = scenarios.MULTI_STARTS * problems
            assert 400 - per_dim ** 2 >= scenarios._START_CALLS * \
                scenarios.MULTI_STARTS * refine_module.first_call_rows(2)
            assert len(run.nfev) == objective.starts == starts
            assert starts * refine_module.first_call_rows(2) <= \
                scenarios._CALL_ROWS
            assert len(refinement) == run.nit.max()
            assert sum(refinement) == run.nfev.sum()
            assert (run.nfev <= (400 - per_dim ** 2) // 2).all()
            assert objective.evaluations == sum(rows) == \
                problems * per_dim ** 2 + run.nfev.sum() <= 400 * problems
            assert objective.kernel_calls == len(rows)
            assert objective.refine_iterations == run.nit.sum()
        # lockstep: far fewer calls than refined rows
        assert len(refinement) < sum(refinement) / 10


class Bumpy:
    """A cheap objective of one problem with several maxima along every
    input, for searches of any number of inputs."""

    problems = 1

    def __init__(self):
        self.evaluations = self.refine_iterations = self.starts = 0

    def batch(self, X, problems):
        self.evaluations += len(X)
        return np.cos(2 * X).sum(axis=1) + 0.3 * np.sin(X[:, 0])


class TestSeededStarts:
    """A search of two or more inputs grids each axis at up to
    ``MULTI_GRID_POINTS_PER_DIM`` points and refines the best local maxima
    of its grid; no search scores more rows than its budget."""

    @given(ndim=st.integers(1, 8), budget=st.integers(1, 5000),
           delta=st.booleans())
    @settings(deadline=None, max_examples=150)
    def test_evaluations_never_exceed_the_budget(self, ndim, budget, delta):
        names = [f"xi_{j}" for j in range(1, ndim + 1)]
        if delta:
            names[-1] = "delta"
        objective = Bumpy()
        [best_x], [best_v] = _maximize(objective, names, budget)
        assert 0 < objective.evaluations <= budget
        assert objective.starts <= (1 if ndim == 1 else
                                    scenarios.MULTI_STARTS)
        assert best_v == Bumpy().batch(best_x[None], None)[0]
        rows = scenarios._GRID_FRACTION * budget
        if 3 <= rows < 2 ** ndim:
            # one point per axis fits and two do not: the leading axes take
            # 3 points, so the grid holds more than 0 and half a period
            assert scenarios._grid_counts(ndim, rows).max() == 3

    @pytest.mark.parametrize("ndim,budget,counts", [
        (1, 2000, [17]), (2, 2000, [7, 7]), (3, 150, [4, 4, 4]),
        (2, 5, [3, 1]), (7, 100, [3, 3, 3, 2, 1, 1, 1]),
        (6, 100, [2, 2, 2, 2, 2, 2])])
    def test_grid_counts(self, ndim, budget, counts):
        assert scenarios._grid_counts(
            ndim, scenarios._GRID_FRACTION * budget).tolist() == counts

    @pytest.mark.parametrize("fill", [np.nan, 0.0], ids=["failed", "singular"])
    def test_flat_region_starts_no_second_refinement(self, fill):
        # rows with xi_1 > 3.5 score ``fill``; the grid rows inside that
        # region are as high as their neighbours, so they are local maxima
        # too, but only the one peak above 0 starts a refinement, and it
        # keeps the whole budget left after the grid
        class Flat(Bumpy):
            def batch(self, X, problems):
                self.evaluations += len(X)
                values = 10.0 - ((X - 2.0) ** 2).sum(axis=1)
                values[X[:, 0] > 3.5] = fill
                return values

        objective = Flat()
        [best_x], [best_v] = _maximize(objective, ["xi_1", "xi_2"], 400)
        assert objective.starts == 1
        assert np.abs(best_x - 2.0).max() < 1e-6 and best_v > 10.0 - 1e-12

    @pytest.mark.parametrize("free,fixed,budget", [
        (("xi_1", "xi_2", "theta_1", "eta_1", "theta_2"), {"eta_2": -0.4},
         100),
        (("delta", "xi_1", "xi_2", "theta_1", "eta_1", "theta_2", "eta_2"),
         {}, 500),
    ], ids=["five", "seven"])
    def test_generator_search_keeps_its_budget(self, free, fixed, budget):
        # at least 3 grid points per axis would score 3^5 = 243 and
        # 3^7 = 2187 rows
        sweep = None if "delta" in free else "delta"
        scenario = Scenario(family=ProbeFamily.phase_dephasing(copies=2),
                            measurement=ProductProjectiveGenerator(),
                            free_inputs=free,
                            fixed_inputs={"phi": 0.0, **fixed}, sweep=sweep)
        out = optimize_kappa(scenario, sweep and 0.3, budget)
        assert 0 < out.work.evaluations <= budget
        assert 0.0 < out.result.kappa <= 2.0

    def test_local_maxima_wrap_on_phases_not_on_delta(self):
        # one problem on a 4 x 3 grid, rows in np.ndindex order: along the
        # phase axis the first and last rows are neighbours, along delta's
        # the ends have one neighbour each
        ranked = np.array([[5.0, 1.0, 0.5],
                           [1.0, 0.2, 2.0],
                           [0.3, 0.1, 0.4],
                           [4.0, 0.6, 3.0]]).reshape(1, -1)

        def best(count, periodic):
            return np.flatnonzero(scenarios._best_local_maxima(
                ranked, [4, 3], periodic, count)).tolist()

        assert best(2, [True, False]) == [0, 11]
        assert best(3, [True, False]) == [0, 5, 11]
        # with delta's axis periodic, row (3, 2) would see row (3, 0)
        assert best(3, [True, True]) == [0, 5]

    def test_ties_go_to_the_earlier_grid_row(self):
        ranked = np.array([[1.0, 3.0, 1.0, 3.0 * (1 + 1e-13), 1.0, 2.0]])

        def best():
            return np.flatnonzero(scenarios._best_local_maxima(
                ranked, [6], [True], 1)).tolist()

        assert best() == [1]
        ranked[0, 3] = 3.0 * (1 + 1e-11)
        assert best() == [3]

    def test_last_bit_noise_moves_no_setting(self, monkeypatch):
        # the Bell optima at xi_j = pi/4 and 7 pi/4 are mirror images whose
        # kappa differs in the last bits only: a relative 1e-15 noise on
        # every kernel row must not move the reported settings between them
        grid = default_delta_grid()
        clean = kappa_scan(ideal_bell_scenario(), grid)
        rng = np.random.default_rng(2)
        batched = kernels.kappa_batch

        def noisy(*args):
            kappa_values, *rest = batched(*args)
            return (kappa_values * (1 + 1e-15 * rng.uniform(
                -1, 1, kappa_values.shape)), *rest)

        monkeypatch.setattr(kernels, "kappa_batch", noisy)
        shaken = kappa_scan(ideal_bell_scenario(), grid)
        assert not any(clean.failed) and not any(shaken.failed)
        for name in ("xi_1", "xi_2"):
            moved = [abs(a[name] - b[name]) for a, b in
                     zip(clean.optimizer_args, shaken.optimizer_args)]
            assert max(moved) < 1e-6
        assert np.abs(shaken.kappa_values / clean.kappa_values - 1).max() \
            < 1e-13

    @pytest.mark.parametrize("delta,reached", [
        (0.02, [0.77146, 0.96760, 1.04861, 1.04861]),
        (0.3, [0.79515, 0.84124, 0.88452, 0.88452]),
    ])
    def test_three_copies_never_fall_as_the_budget_grows(self, delta,
                                                         reached):
        # on this Haar basis a fine grid's best row lies in a lower basin:
        # one start from it reported 0.97717 at delta = 0.02 and budget
        # 20 000, where budget 2 000 reached 1.04861
        scenario = Scenario(family=ProbeFamily.phase_dephasing(copies=3),
                            measurement=haar_povm(8, seed=5),
                            free_inputs=("phi", "xi_1", "xi_2", "xi_3"))
        kappas = [optimize_kappa(scenario, delta, budget).result.kappa
                  for budget in (150, 400, 2000, 20000)]
        assert np.all(np.diff(kappas) >= 0)
        assert np.abs(np.array(kappas) - reached).max() < 5e-6


def pauli_povm():
    """The three Pauli measurements with weight 1/3 each: one qubit, six
    outcomes, informationally complete."""
    elements = [(np.eye(2) + sign * pauli) / 6.0
                for pauli in (PAULI_X, PAULI_Y, PAULI_Z) for sign in (1, -1)]
    return Povm(tuple("xXyYzZ"), np.array(elements))


def haar_povm(dim, seed=3):
    """The projective measurement on a Haar-random basis of ``dim``."""
    basis = haar_random_basis(np.random.default_rng(seed), dim)
    return Povm(tuple(f"b{k}" for k in range(dim)), np.stack(
        [np.outer(basis[:, k], basis[:, k].conj()) for k in range(dim)]))


def sic_povm():
    """The tetrahedral SIC POVM on one qubit."""
    signs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    return Povm(tuple("abcd"), np.array(
        [(np.eye(2) + (x * PAULI_X + y * PAULI_Y + z * PAULI_Z) / math.sqrt(3))
         / 4 for x, y, z in signs]))


def _write_povm(path, povm):
    path.write_text(povm_to_json(povm), encoding="utf-8")
    return str(path)


def _default_searches(tmp_path):
    """The searches whose grids must repeat no kernel row: name -> a
    callable that runs one. The CLI's default dephasing scans, Bell and
    gate on two copies, a SIC POVM on one and a Haar POVM on three, and
    the library's two other dephasing measurements, a stack and a
    generator."""
    def scan(**raw):
        return lambda: cli.run("kappa-scan", cli.parse_config(
            "kappa-scan", {**raw, "out": str(tmp_path / "out")}))

    dephasing = ProbeFamily.phase_dephasing
    stack = Scenario(family=dephasing(copies=2),
                     measurement=tuple(haar_povm(4, seed=s) for s in (1, 2, 3)),
                     free_inputs=("phi", "xi_1", "xi_2"))
    generator = Scenario(family=dephasing(copies=2),
                         measurement=ProductProjectiveGenerator(),
                         free_inputs=("phi", "xi_1", "xi_2", "theta_1"),
                         fixed_inputs={"eta_1": 0.2, "theta_2": 1.1,
                                       "eta_2": -0.4})
    return {
        "bell": scan(measurement="bell", copies="2"),
        "gate": scan(measurement="gate", visibility="0.9"),
        "sic": scan(copies="1", measurement="file",
                    povm=_write_povm(tmp_path / "sic.json", sic_povm())),
        "three-copies": scan(copies="3", measurement="file",
                             povm=_write_povm(tmp_path / "haar8.json",
                                              haar_povm(8))),
        "stack": lambda: optimize_each(stack, 0.3),
        "generator": lambda: optimize_kappa(generator, 0.3),
    }


class TestDistinctGridRows:
    """With phi held at 0, no dephasing search grid scores a kernel row
    twice: each row of a grid call has its own bits of every kernel input
    (the row's state coordinates, their derivatives, its quantum
    information and its POVM table)."""

    @pytest.mark.parametrize("case", ["bell", "gate", "sic", "three-copies",
                                      "stack", "generator"])
    def test_grid_repeats_no_kernel_row(self, tmp_path, monkeypatch, case):
        calls, refining = [], []
        batched = kernels.kappa_batch
        refine = scenarios.minimize

        def recorded(table, coords, h1, h2, *args):
            if not refining:
                calls.append((table, coords, h1, h2))
            return batched(table, coords, h1, h2, *args)

        def flagged(*args, **kwargs):
            refining.append(True)
            return refine(*args, **kwargs)

        monkeypatch.setattr(kernels, "kappa_batch", recorded)
        monkeypatch.setattr(scenarios, "minimize", flagged)
        _default_searches(tmp_path)[case]()
        assert calls
        for table, coords, h1, h2 in calls:
            n = coords.shape[1]
            columns = [coords.swapaxes(0, 1), np.broadcast_to(h1, n),
                       np.broadcast_to(h2, n)]
            per_row = np.ndim(table) == 3
            keys = {b"".join(c[i].tobytes() for c in columns)
                    + (table[i].tobytes() if per_row else b"")
                    for i in range(n)}
            assert len(keys) == n
        if case == "bell":
            # 40 default delta points, a 7 x 7 grid of (xi_1, xi_2) each,
            # 16 two-copy coordinates per row; the points share grid calls
            # of up to ``_CALL_ROWS`` rows
            rows = scenarios.MULTI_GRID_POINTS_PER_DIM ** 2
            group = scenarios._CALL_ROWS // rows
            assert [coords.shape for _, coords, *_ in calls] == [
                (3, rows * min(group, 40 - start), 16)
                for start in range(0, 40, group)]


class TestGroupedGridCalls:
    """Several problems share each grid call, up to ``_CALL_ROWS`` rows,
    and that changes no result."""

    def test_grouping_changes_nothing(self, monkeypatch):
        grid_calls, refining = [], []
        batched, refine = kernels.kappa_batch, scenarios.minimize

        def recorded(*args):
            if not refining:
                grid_calls.append(args[1].shape[1])
            return batched(*args)

        def flagged(*args, **kwargs):
            refining.append(True)
            return refine(*args, **kwargs)

        monkeypatch.setattr(kernels, "kappa_batch", recorded)
        monkeypatch.setattr(scenarios, "minimize", flagged)
        grid = default_delta_grid()
        grouped = kappa_scan(ideal_bell_scenario(), grid)
        grouped_calls = len(grid_calls)
        # a 7 x 7 grid of (xi_1, xi_2) per point
        rows = scenarios.MULTI_GRID_POINTS_PER_DIM ** 2
        group = max(1, scenarios._CALL_ROWS // rows)
        monkeypatch.setattr(scenarios, "_CALL_ROWS", rows)
        grid_calls.clear()
        refining.clear()
        alone = kappa_scan(ideal_bell_scenario(), grid)
        assert np.array_equal(grouped.kappa_values, alone.kappa_values)
        assert np.array_equal(grouped.per_parameter, alone.per_parameter)
        assert grouped.optimizer_args == alone.optimizer_args
        assert grouped.work.evaluations == alone.work.evaluations
        assert grouped.work.refine_iterations == alone.work.refine_iterations
        assert grouped.work.starts == alone.work.starts
        # one grid call per point alone, one per group of points grouped
        assert (len(grid_calls), grouped_calls) == (
            len(grid), math.ceil(len(grid) / group))

    def test_search_runs_without_pinv(self, tmp_path, monkeypatch):
        # the singular rule takes the pseudo-inverse diagonal from its own
        # eigendecomposition, on the kernel path and on the reference path
        grid_calls, refining, rule_calls = [], [], []
        batched, refine = kernels.kappa_batch, scenarios.minimize
        rule = kernels.singular_effective_information

        def refused(*args, **kwargs):
            raise AssertionError("np.linalg.pinv called")

        def recorded(*args):
            if not refining:
                grid_calls.append(args[1].shape[1])
            return batched(*args)

        def flagged(*args, **kwargs):
            refining.append(True)
            return refine(*args, **kwargs)

        def counted(F):
            rule_calls.append(len(F))
            return rule(F)

        monkeypatch.setattr(np.linalg, "pinv", refused)
        monkeypatch.setattr(kernels, "kappa_batch", recorded)
        monkeypatch.setattr(scenarios, "minimize", flagged)
        monkeypatch.setattr(kernels, "singular_effective_information",
                            counted)
        curve = kappa_scan(ideal_bell_scenario(), default_delta_grid())
        assert not any(curve.failed) and rule_calls
        rows = 40 * scenarios.MULTI_GRID_POINTS_PER_DIM ** 2
        assert sum(grid_calls) == rows
        assert len(grid_calls) <= math.ceil(rows / scenarios._CALL_ROWS)
        report = fisher.classical_fi([0.5, 0.5], [[0.1, -0.1], [0.0, 0.0]])
        assert report.singular and report.effective_fi[0] > 0.0
        cli.run("conjecture-search", cli.parse_config(
            "conjecture-search", {"trials": "20", "out": str(tmp_path)}))


class TestSpeculativeSteps:
    """A refinement round scores each running problem's trial point with
    the model around it, and in the first round the 2n probes too, before
    it knows which of them it will use. How those rows are cut into kernel
    calls changes no result and no count, and the bound that keeps a
    kernel call's memory down holds for every round: each is cut into
    calls of at most ``_CALL_ROWS`` rows, the first round too."""

    def test_two_calls_per_step_change_nothing(self, monkeypatch):
        grid = default_delta_grid()
        one = kappa_scan(ideal_bell_scenario(), grid)
        refine, rounds = scenarios.minimize, []

        def halves(fun):
            def split(X, rows):
                rounds.append(len(X))
                h = len(X) // 2
                return np.concatenate([fun(X[:h], rows[:h]),
                                       fun(X[h:], rows[h:])])
            return split

        monkeypatch.setattr(scenarios, "minimize", lambda fun, *args, **kw:
                            refine(halves(fun), *args, **kw))
        two = kappa_scan(ideal_bell_scenario(), grid)
        assert np.array_equal(one.kappa_values, two.kappa_values)
        assert np.array_equal(one.per_parameter, two.per_parameter)
        assert one.optimizer_args == two.optimizer_args
        assert one.work.evaluations == two.work.evaluations
        assert one.work.refine_iterations == two.work.refine_iterations
        # every round of more than one row takes one more call
        assert rounds and min(rounds) > 1
        assert two.work.kernel_calls - one.work.kernel_calls == len(rounds)

    def test_no_call_exceeds_the_row_bound(self, monkeypatch):
        calls, refining = [], []
        batched, refine = kernels.kappa_batch, scenarios.minimize

        def recorded(table, coords, *args):
            calls.append((bool(refining), coords.shape[1]))
            return batched(table, coords, *args)

        def flagged(*args, **kwargs):
            refining.append(True)
            try:
                return refine(*args, **kwargs)
            finally:
                refining.clear()

        monkeypatch.setattr(kernels, "kappa_batch", recorded)
        monkeypatch.setattr(scenarios, "minimize", flagged)
        # the Bell scan refines two starts per point, the mirror optima
        for search, grid, first in (
                (lambda: kappa_scan(ideal_bell_scenario(),
                                    default_delta_grid()),
                 scenarios.MULTI_GRID_POINTS_PER_DIM ** 2, 40 * 2 * 13),
                (lambda: random_collective_search(100, seed=5), 17, 100 * 5),
                (lambda: random_collective_search(2000, seed=5), 17,
                 scenarios._CALL_ROWS * 5)):
            calls.clear()
            search()
            refinement = [rows for inside, rows in calls if inside]
            assert refinement and max(refinement) <= scenarios._CALL_ROWS
            # the first round holds every problem's model and probes
            assert sum(refinement[:math.ceil(first / scenarios._CALL_ROWS)]) \
                == first
            assert max(rows for inside, rows in calls if not inside) <= \
                max(scenarios._CALL_ROWS, grid)


class TestHeldPhi:
    """Where phi and every copy's input phase are free, the search holds
    phi at 0 and reaches the optimum that the search over phi and the
    input phases reached. The reference values are that search's: the
    same calls made at commit 1159f3e, before phi was held."""

    def test_bell_scan_reaches_the_full_search_optimum(self):
        curve = kappa_scan(ideal_bell_scenario(), [0.1, 0.3, 0.7, 1.2],
                           budget=2000)
        full = [1.4751988399667877, 1.2903913190376892, 0.6482028825102708,
                0.1092858992321975]
        assert np.abs(curve.kappa_values - full).max() < 1e-10
        assert all(args["phi"] == 0.0 for args in curve.optimizer_args)

    @pytest.mark.parametrize("copies,measurement,full", [
        (1, sic_povm(), 0.5380485798867591),
        (3, haar_povm(8), 0.9529993338581927),
    ], ids=["sic", "three-copies"])
    def test_optimize_reaches_the_full_search_optimum(self, copies,
                                                      measurement, full):
        scenario = Scenario(
            family=ProbeFamily.phase_dephasing(copies=copies),
            measurement=measurement,
            free_inputs=("phi", *(f"xi_{j}" for j in range(1, copies + 1))))
        out = optimize_kappa(scenario, 0.3)
        assert abs(out.result.kappa - full) < 1e-10
        assert list(out.settings) == list(scenario.free_inputs)
        assert out.settings["phi"] == 0.0

    def test_phi_beside_a_fixed_per_copy_phase_is_searched(self):
        # copy 1 reads the fixed xi_1 and copy 2 the free shared xi, so
        # alpha_1 = phi: holding phi at 0 would fix alpha_1 at 0
        scenario = ideal_bell_scenario(free_inputs=("phi", "xi"),
                                       fixed_inputs={"xi_1": 0.0})
        out = optimize_kappa(scenario, 0.3)
        assert out.settings["phi"] != 0.0
        assert abs(out.result.kappa - ideal_kappa(0.3)) < 1e-5

    def test_phi_beside_a_fixed_input_phase_is_searched(self):
        scenario = ideal_bell_scenario(free_inputs=("phi", "xi_1"),
                                       fixed_inputs={"xi_2": 0.0})
        out = optimize_kappa(scenario, 0.3)
        # alpha_2 = phi: only phi reaches it
        assert out.settings["phi"] != 0.0
        assert abs(out.result.kappa - ideal_kappa(0.3)) < 1e-5


class ReferencePathCalled(Exception):
    pass


class TestKernelRouting:
    """Every search is scored on the batched kernels, for a fixed POVM on
    any number of copies and for a measurement generator; ``evaluate_kappa``
    only reports the value at the optimum."""

    @pytest.fixture
    def reference_calls(self, monkeypatch):
        evaluate, maximize = scenarios.evaluate_kappa, scenarios._maximize
        calls, searching = [], []

        def guarded_evaluate(*args):
            if searching:
                raise ReferencePathCalled
            calls.append(args)
            return evaluate(*args)

        def flagged_maximize(*args):
            searching.append(True)
            try:
                return maximize(*args)
            finally:
                searching.clear()

        monkeypatch.setattr(scenarios, "evaluate_kappa", guarded_evaluate)
        monkeypatch.setattr(scenarios, "_maximize", flagged_maximize)
        return calls

    @pytest.mark.parametrize("scenario,at", [
        (ideal_bell_scenario(family=ProbeFamily.phase_dephasing(copies=3),
                             measurement=haar_povm(8),
                             free_inputs=("phi", "xi_1", "xi_2", "xi_3")),
         0.4),
        (Scenario(family=ProbeFamily.two_phase(copies=3),
                  measurement=haar_povm(8), free_inputs=("xi",),
                  fixed_inputs={"phi_y": 0.4}, sweep="phi_z"), 0.3),
        (ideal_bell_scenario(family=ProbeFamily.phase_dephasing(copies=1),
                             measurement=pauli_povm(),
                             free_inputs=("phi", "xi_1")), 0.4),
        (ideal_bell_scenario(), 0.4),
        (ideal_bell_scenario(family=ProbeFamily.phase_dephasing(copies=1),
                             measurement=pauli_povm(),
                             free_inputs=("phi", "delta"), sweep="xi_1"), 0.3),
        (Scenario(family=ProbeFamily.two_phase(), measurement=pauli_povm(),
                  free_inputs=("xi",), fixed_inputs={"phi_y": 0.4},
                  sweep="phi_z"), 0.3),
        (Scenario(family=ProbeFamily.two_phase(copies=2),
                  measurement=bell_povm(), free_inputs=("xi", "phi_y"),
                  sweep="phi_z"), 0.3),
    ], ids=["dephasing-3", "two-phase-3", "dephasing-1", "dephasing-2",
            "dephasing-1-free-delta", "two-phase-1", "two-phase-2-free-phi_y"])
    def test_povm_search_stays_on_the_kernels(self, reference_calls, scenario,
                                              at):
        out = optimize_kappa(scenario, at, budget=120)
        assert len(reference_calls) == 1
        assert 0.0 < out.result.kappa <= scenario.family.copies + 1e-9

    @pytest.mark.parametrize("family,free,fixed,sweep,at", [
        (ProbeFamily.phase_dephasing(copies=2), ("eta_1", "eta_2"),
         {"phi": 0.3, "xi_1": 0.0, "xi_2": 0.0}, "delta", 0.4),
        (ProbeFamily.phase_dephasing(copies=2), ("eta_1", "delta"),
         {"xi_1": 0.0, "xi_2": 0.0, "eta_2": 1.1}, "phi", 0.3),
        (ProbeFamily.two_phase(copies=2), ("eta_1", "phi_y"),
         {"xi": 0.7, "eta_2": 1.1}, "phi_z", 0.3),
    ], ids=["dephasing", "dephasing-free-delta", "two-phase-free-phi_y"])
    def test_generator_search_stays_on_the_kernels(self, reference_calls,
                                                    family, free, fixed, sweep,
                                                    at):
        scenario = Scenario(
            family=family, measurement=ProductProjectiveGenerator(),
            free_inputs=free,
            fixed_inputs={"theta_1": math.pi / 2, "theta_2": math.pi / 2,
                          **fixed},
            sweep=sweep)
        out = optimize_kappa(scenario, at, budget=120)
        assert len(reference_calls) == 1
        assert 0.0 < out.result.kappa <= 1.0 + 1e-9

    @pytest.mark.parametrize("scenario", [
        TestNegativeDelta.free_delta_scenario(),
        Scenario(family=ProbeFamily.two_phase(copies=2),
                 measurement=bell_povm(), free_inputs=("phi_y", "phi_z"),
                 sweep="xi"),
    ], ids=["free-delta", "free-phi_y-phi_z"])
    def test_one_kernel_call_per_batch_and_no_sld_solve(
            self, monkeypatch, scenario):
        kernel_calls, sld_calls = [], []
        batched = kernels.kappa_batch
        solve = fisher.sld_operators

        def counted_kernel(*args, **kwargs):
            kernel_calls.append(args)
            return batched(*args, **kwargs)

        def counted_solve(*args):
            sld_calls.append(args)
            return solve(*args)

        monkeypatch.setattr(kernels, "kappa_batch", counted_kernel)
        # by either name, as ``fisher.qfi_matrix`` or as ``scenarios`` calls it
        monkeypatch.setattr(fisher, "sld_operators", counted_solve)
        monkeypatch.setattr(scenarios, "sld_operators", counted_solve)
        names = list(scenario.free_inputs)
        objective = objective_of(scenario, {**scenario.fixed_inputs,
                                            scenario.sweep: 0.3}, names)
        # every row has its own delta or rotation; some deltas are negative
        grid = np.random.default_rng(4).uniform(-0.5, 2.0, (40, len(names)))
        values = objective.batch(grid)
        assert len(kernel_calls) == 1 and values.shape == (40,)
        if "delta" in names:
            negative = grid[:, names.index("delta")] < 0
            assert negative.any() and (values[negative] == -np.inf).all()
            assert (values[~negative] > -np.inf).all()
        # the reported value at each optimum divides by the closed form
        # that the kernel divides by, with no SLD solve
        optimize_kappa(scenario, 0.3, budget=120)
        kappa_scan(scenario, [0.3, 0.6], budget=60)
        assert not sld_calls

    @pytest.mark.parametrize("case,per_call", [
        ("two-phase-chunk", 1), ("bell", 2), ("shared-xi", 1)])
    def test_each_phase_input_is_built_once_per_kernel_call(
            self, tmp_path, monkeypatch, case, per_call):
        # the two-phase copies all read xi, and so do dephasing copies
        # without their own xi_j: one build serves them all
        built, per_kernel_call = [], []
        build, batched = scenarios.single_copy, kernels.kappa_batch

        def counted_build(*args):
            built.append(args)
            return build(*args)

        def counted_kernel(*args):
            per_kernel_call.append(len(built))
            built.clear()
            return batched(*args)

        monkeypatch.setattr(scenarios, "single_copy", counted_build)
        monkeypatch.setattr(kernels, "kappa_batch", counted_kernel)
        if case == "two-phase-chunk":
            random_collective_search(trials=30, seed=8)
        elif case == "bell":
            _default_searches(tmp_path)["bell"]()
        else:
            kappa_scan(ideal_bell_scenario(free_inputs=("phi", "xi")),
                       [0.3, 0.6], budget=200)
        # the grid's call and at least two refinement calls
        assert len(per_kernel_call) >= 3
        assert set(per_kernel_call) == {per_call}

    @pytest.mark.parametrize("case", ["bell-scan", "conjecture-search"])
    def test_search_reads_real_arrays_and_builds_no_joint_matrix(
            self, tmp_path, monkeypatch, case):
        # the search scores Pauli coordinates against real POVM tables; a
        # d x d joint state is built only for each reported point, on the
        # reference path
        kernel_inputs, inside, joint_builds = [], [], []
        batched, batch = kernels.kappa_batch, _Objective.batch
        build = linalg.tensor_product

        def recorded_kernel(*args):
            kernel_inputs.extend(a for a in args if isinstance(a, np.ndarray))
            return batched(*args)

        def flagged_batch(*args, **kwargs):
            inside.append(True)
            try:
                return batch(*args, **kwargs)
            finally:
                inside.pop()

        def recorded_build(*args):
            joint_builds.append(bool(inside))
            return build(*args)

        monkeypatch.setattr(kernels, "kappa_batch", recorded_kernel)
        monkeypatch.setattr(_Objective, "batch", flagged_batch)
        # under every name a qmetro module calls it by
        holders = [module for name, module in sorted(sys.modules.items())
                   if name.split(".")[0] == "qmetro"
                   and getattr(module, "tensor_product", None) is build]
        assert linalg in holders and states in holders
        for module in holders:
            monkeypatch.setattr(module, "tensor_product", recorded_build)
        if case == "bell-scan":
            cli.run("kappa-scan", cli.parse_config("kappa-scan", {
                "measurement": "bell", "copies": "2",
                "out": str(tmp_path / "out")}))
        else:
            cli.run("conjecture-search", cli.parse_config(
                "conjecture-search", {"trials": "20", "seed": "3",
                                      "out": str(tmp_path / "out")}))
        assert kernel_inputs
        assert {a.dtype for a in kernel_inputs} == {np.dtype(float)}
        # the reported points are built, and only outside the search
        assert joint_builds and not any(joint_builds)

    def test_singular_reference_point_is_not_regular(self):
        # kappa > 0 at this singular point, so a status guessed from
        # kappa == 0 would count it as regular
        scenario = Scenario(
            family=ProbeFamily.two_phase(copies=2),
            measurement=ProductProjectiveGenerator(),
            fixed_inputs={"phi_y": 0.0, "phi_z": 0.0, "xi": math.pi / 2,
                          "theta_1": 0.9, "eta_1": 0.3, "theta_2": 1.4,
                          "eta_2": 2.0},
            sweep=None)
        result = evaluate_kappa(scenario, {})
        assert result.singular and result.kappa > 0.7
        objective = objective_of(scenario, dict(scenario.fixed_inputs), [])
        assert score(objective, np.zeros(0)) == 0.0
        assert not objective.any_regular
        with pytest.raises(RuntimeError, match="singular"):
            optimize_kappa(scenario, None)
