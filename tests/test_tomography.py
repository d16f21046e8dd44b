import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetro import (CountsTable, GateModel, Povm, bell_povm, counts_from_csv,
                    counts_to_csv, cs_gate_povm, element_trace_distances,
                    haar_random_basis, mle_reconstruct,
                    monte_carlo_uncertainty, povm_fidelity,
                    product_projective_povm, reference_gram_condition,
                    reference_gram_rank, reference_states, simulate_counts,
                    validate_povm)
from qmetro.kernels import _LL_SLACK
from qmetro.linalg import bloch_vector


def random_valid_povm(rng, dim=4, outcomes=4):
    g = rng.standard_normal((outcomes, dim, dim)) \
        + 1j * rng.standard_normal((outcomes, dim, dim))
    raw = np.array([m @ m.conj().T for m in g])
    total = raw.sum(axis=0)
    w, v = np.linalg.eigh(total)
    whiten = (v * (w ** -0.5)) @ v.conj().T
    elements = np.array([whiten @ m @ whiten for m in raw])
    return Povm(tuple(f"k{i}" for i in range(outcomes)), elements)


def exact_counts(povm, refs, exposure=1e6):
    p = np.einsum("kab,jba->jk", povm.elements, refs.states).real
    return CountsTable(refs.labels, povm.labels,
                       np.clip(p, 0.0, None) * exposure, exposure)


class TestReferenceStates:
    def test_count_and_first_state(self):
        refs = reference_states()
        assert len(refs.labels) == 36
        assert refs.labels[0] == ("H", "H")
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.abs(refs.states[0] - expected).max() < 1e-15

    def test_rl_bloch_vectors(self):
        refs = reference_states()
        idx = refs.labels.index(("R", "L"))
        rho = refs.states[idx].reshape(2, 2, 2, 2)
        q1 = np.einsum("ikjk->ij", rho)
        q2 = np.einsum("kikj->ij", rho)
        assert np.allclose(bloch_vector(q1), [0.0, 1.0, 0.0], atol=1e-14)
        assert np.allclose(bloch_vector(q2), [0.0, -1.0, 0.0], atol=1e-14)

    def test_informationally_complete(self):
        refs = reference_states()
        assert reference_gram_rank(refs) == 16
        assert reference_gram_condition(refs) < 100.0


class TestSimulateCounts:
    def test_deterministic(self):
        refs = reference_states()
        a = simulate_counts(bell_povm(), refs, 1e4, seed=5)
        b = simulate_counts(bell_povm(), refs, 1e4, seed=5)
        assert np.array_equal(a.counts, b.counts)

    def test_zero_probability_never_fires(self):
        refs = reference_states()
        counts = simulate_counts(bell_povm(), refs, 1e6, seed=2)
        hh = refs.labels.index(("H", "H"))
        # |HH> has zero overlap with the two odd-parity Bell outcomes
        assert counts.counts[hh, 1] == 0
        assert counts.counts[hh, 3] == 0

    def test_poisson_pattern_within_five_sigma(self):
        refs = reference_states()
        exposure = 1e7
        counts = simulate_counts(bell_povm(), refs, exposure, seed=7)
        hh = refs.labels.index(("H", "H"))
        for k, expected in enumerate((0.5, 0.0, 0.5, 0.0)):
            mean = exposure * expected
            tol = 5.0 * np.sqrt(max(mean, 1.0))
            assert abs(counts.counts[hh, k] - mean) <= tol

    def test_exposure_must_be_positive(self):
        with pytest.raises(ValueError):
            simulate_counts(bell_povm(), reference_states(), 0.0, seed=1)


class TestMleReconstruct:
    def test_exact_data_recovers_bell(self):
        refs = reference_states()
        result = mle_reconstruct(exact_counts(bell_povm(), refs), refs)
        assert result.converged
        assert element_trace_distances(result.povm, bell_povm()).max() < 1e-3

    def test_exact_data_recovers_random_povm(self):
        refs = reference_states()
        truth = random_valid_povm(np.random.default_rng(10))
        result = mle_reconstruct(exact_counts(truth, refs), refs)
        assert element_trace_distances(result.povm, truth).max() < 1e-3

    def test_noisy_gate_reconstruction(self):
        refs = reference_states()
        truth, _ = cs_gate_povm(GateModel(visibility=0.9))
        counts = simulate_counts(truth, refs, 1e5, seed=21)
        result = mle_reconstruct(counts, refs)
        assert validate_povm(result.povm).passed
        fids = [povm_fidelity(c, t)
                for c, t in zip(result.povm.elements, truth.elements)]
        assert min(fids) > 0.99

    def test_log_likelihood_monotone(self):
        refs = reference_states()
        counts = simulate_counts(bell_povm(), refs, 1e4, seed=3)
        result = mle_reconstruct(counts, refs)
        diffs = np.diff(result.ll_trace)
        assert np.all(diffs >= -1e-9 * np.abs(result.ll_trace[:-1]))

    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["haar", "product", "whitened"]),
           log_exposure=st.floats(3.0, 6.0), max_iters=st.integers(1, 400))
    @settings(deadline=None, max_examples=30)
    def test_every_iterate_is_a_povm_with_monotone_likelihood(
            self, seed, kind, log_exposure, max_iters):
        # the diluted-MLE guarantee (Rehacek et al., PRA 75, 042108, 2007);
        # stopping after a random number of iterations checks that iterate
        rng = np.random.default_rng(seed)
        if kind == "haar":
            basis = haar_random_basis(rng, 4)
            povm = Povm(tuple("abcd"), np.stack(
                [np.outer(basis[:, k], basis[:, k].conj()) for k in range(4)]))
        elif kind == "product":
            povm = product_projective_povm(rng.uniform(0, 2 * math.pi, 4))
        else:
            povm = random_valid_povm(rng, outcomes=int(rng.integers(4, 9)))
        refs = reference_states()
        counts = simulate_counts(povm, refs, 10.0 ** log_exposure, seed)
        result = mle_reconstruct(counts, refs, max_iters=max_iters)
        ll = result.ll_trace
        assert (ll[1:] >= ll[:-1] - _LL_SLACK * np.abs(ll[:-1])).all()
        assert validate_povm(result.povm).passed

    def test_not_converged_flag(self):
        refs = reference_states()
        counts = simulate_counts(bell_povm(), refs, 1e5, seed=4)
        result = mle_reconstruct(counts, refs, max_iters=3)
        assert not result.converged
        assert result.iterations == 3

    @pytest.mark.parametrize("options,message", [
        ({"max_iters": 0}, "max_iters must be >= 1"),
        ({"max_iters": -3}, "max_iters must be >= 1"),
        ({"tol": -1.0}, "tol must be >= 0"),
        ({"tol": float("nan")}, "tol must be >= 0"),
    ])
    def test_nonsensical_iteration_settings_rejected(self, options, message):
        refs = reference_states()
        counts = simulate_counts(bell_povm(), refs, 1e4, seed=6)
        with pytest.raises(ValueError, match=message):
            mle_reconstruct(counts, refs, **options)

    def test_all_zero_row_rejected(self):
        refs = reference_states()
        counts = simulate_counts(bell_povm(), refs, 1e4, seed=6)
        data = counts.counts.copy()
        data[5] = 0.0
        broken = CountsTable(counts.input_labels, counts.outcome_labels,
                             data, counts.exposure)
        with pytest.raises(ValueError):
            mle_reconstruct(broken, refs)

    def test_mismatched_inputs_rejected(self):
        refs = reference_states()
        counts = simulate_counts(bell_povm(), refs, 1e4, seed=6)
        labels = counts.input_labels[:-1] + (("H", "H"),)
        mismatched = CountsTable(labels, counts.outcome_labels,
                                 counts.counts, counts.exposure)
        with pytest.raises(ValueError, match=r"repeated \[\('H', 'H'\)\], "
                           r"missing \[\('L', 'L'\)\]"):
            mle_reconstruct(mismatched, refs)

    def test_shuffled_csv_rows_reconstruct_the_same_povm(self):
        refs = reference_states()
        counts = simulate_counts(bell_povm(), refs, 1e4, seed=6)
        header, *rows = counts_to_csv(counts).splitlines()
        order = np.random.default_rng(3).permutation(len(rows))
        shuffled = counts_from_csv(
            "\n".join([header] + [rows[i] for i in order]) + "\n",
            exposure=counts.exposure)
        assert shuffled.input_labels != counts.input_labels
        expected = mle_reconstruct(counts, refs)
        result = mle_reconstruct(shuffled, refs)
        # outcomes keep the CSV's first-seen order, which shuffling changes
        reordered = [result.povm.labels.index(k) for k in expected.povm.labels]
        assert sorted(reordered) == list(range(len(reordered)))
        assert np.abs(result.povm.elements[reordered]
                      - expected.povm.elements).max() < 1e-12


class TestPovmFidelity:
    def test_self_fidelity(self):
        p = bell_povm()
        assert abs(povm_fidelity(p.elements[0], p.elements[0]) - 1.0) < 1e-12

    def test_orthogonal_projectors(self):
        p = bell_povm()
        assert povm_fidelity(p.elements[0], p.elements[1]) < 1e-12

    def test_commuting_mixture_closed_form(self):
        # eigenvalues of 0.95*P + 0.05*I/4 are (0.9625, 0.0125 x3) in the
        # eigenbasis of P, so the fidelity to P is 0.9625 exactly
        p = bell_povm().elements[0]
        mixture = 0.95 * p + 0.05 * np.eye(4) / 4.0
        # eigendecomposition noise enters under a square root: ~1e-8 accuracy
        assert abs(povm_fidelity(p, mixture) - 0.9625) < 1e-7

    def test_symmetric_and_unitary_invariant(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = g @ g.conj().T
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = g @ g.conj().T
        f1 = povm_fidelity(a, b)
        assert abs(f1 - povm_fidelity(b, a)) < 1e-10
        q, _ = np.linalg.qr(rng.standard_normal((4, 4))
                            + 1j * rng.standard_normal((4, 4)))
        f2 = povm_fidelity(q @ a @ q.conj().T, q @ b @ q.conj().T)
        assert abs(f1 - f2) < 1e-10

    def test_zero_trace_rejected(self):
        with pytest.raises(ValueError):
            povm_fidelity(np.zeros((4, 4)), bell_povm().elements[0])


class TestMonteCarlo:
    def test_deterministic(self):
        refs = reference_states()
        counts = simulate_counts(bell_povm(), refs, 1e4, seed=1)
        fn = lambda tbl: float(tbl.counts.sum())
        assert (monte_carlo_uncertainty(counts, fn, runs=40, seed=9)
                == monte_carlo_uncertainty(counts, fn, runs=40, seed=9))

    def test_total_count_std_is_poissonian(self):
        refs = reference_states()
        counts = simulate_counts(bell_povm(), refs, 1e5, seed=1)
        _, std = monte_carlo_uncertainty(
            counts, lambda tbl: float(tbl.counts.sum()), runs=300, seed=2)
        expected = np.sqrt(counts.counts.sum())
        assert 0.8 * expected < std < 1.2 * expected

    def test_failure_fraction_aborts(self):
        refs = reference_states()
        counts = simulate_counts(bell_povm(), refs, 1e3, seed=1)

        def broken(tbl):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            monte_carlo_uncertainty(counts, broken, runs=20, seed=3)

    def test_needs_two_runs(self):
        refs = reference_states()
        counts = simulate_counts(bell_povm(), refs, 1e3, seed=1)
        with pytest.raises(ValueError):
            monte_carlo_uncertainty(counts, lambda t: 0.0, runs=1, seed=0)


class TestCountsCsv:
    def test_round_trip(self):
        refs = reference_states()
        counts = simulate_counts(bell_povm(), refs, 1e4, seed=12)
        text = counts_to_csv(counts)
        again = counts_from_csv(text, exposure=counts.exposure)
        assert again.input_labels == counts.input_labels
        assert again.outcome_labels == counts.outcome_labels
        assert np.array_equal(again.counts, counts.counts)
        assert counts_to_csv(again) == text

    def test_header_checked(self):
        with pytest.raises(ValueError):
            counts_from_csv("a,b,c\n1,2,3\n")

    def test_duplicate_rows_rejected(self):
        text = ("input1,input2,outcome,counts\n"
                "H,H,DD,5\nH,H,DD,6\n")
        with pytest.raises(ValueError):
            counts_from_csv(text)

    def test_incomplete_table_rejected(self):
        text = ("input1,input2,outcome,counts\n"
                "H,H,DD,5\nH,H,DA,6\nH,V,DD,2\n")
        with pytest.raises(ValueError):
            counts_from_csv(text)

    def test_unknown_input_label_rejected(self):
        text = ("input1,input2,outcome,counts\n"
                "H,X,DD,5\nQ,H,DD,6\n")
        with pytest.raises(ValueError, match=r"unknown input labels \['Q', 'X'\]"):
            counts_from_csv(text)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_cell_rejected(self, cell):
        refs = reference_states()
        text = counts_to_csv(simulate_counts(bell_povm(), refs, 1e3, seed=3))
        lines = text.splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + "," + cell
        with pytest.raises(ValueError, match=r"input \('H', 'V'\) and outcome 'DD'"):
            counts_from_csv("\n".join(lines) + "\n")
