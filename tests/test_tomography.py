import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetro import (CountsTable, GateModel, Povm, bell_povm, counts_from_csv,
                    counts_to_csv, cs_gate_povm, mle_reconstruct,
                    monte_carlo_uncertainty, povm_fidelity,
                    product_projective_povm, reference_gram_rank,
                    reference_states, simulate_counts, validate_povm)
from qmetro import scenarios, tomography
from qmetro.kernels import _LL_SLACK, mle_iterate
from qmetro.tomography import P_FLOOR, ReferenceSet


def element_trace_distances(a, b):
    """Trace distance between each pair of elements of two POVMs."""
    return np.array([0.5 * np.abs(np.linalg.eigvalsh(x - y)).sum()
                     for x, y in zip(a.elements, b.elements)])


def bloch_vector(rho):
    """Bloch vector (x, y, z) of a single-qubit state."""
    return np.array([2.0 * rho[0, 1].real, -2.0 * rho[0, 1].imag,
                     (rho[0, 0] - rho[1, 1]).real])


def gram_condition(refs):
    """Condition number of the Gram matrix Tr[rho_i rho_j] on its
    support."""
    vec = refs.states.reshape(len(refs.labels), -1)
    sv = np.linalg.svd(np.real(vec @ vec.conj().T), compute_uv=False)
    return float(sv[0] / sv[sv > 1e-14 * sv[0]][-1])


def random_valid_povm(rng, dim=4, outcomes=4):
    g = rng.standard_normal((outcomes, dim, dim)) \
        + 1j * rng.standard_normal((outcomes, dim, dim))
    raw = np.array([m @ m.conj().T for m in g])
    total = raw.sum(axis=0)
    w, v = np.linalg.eigh(total)
    whiten = (v * (w ** -0.5)) @ v.conj().T
    elements = np.array([whiten @ m @ whiten for m in raw])
    return Povm(tuple(f"k{i}" for i in range(outcomes)), elements)


def random_povm(rng, kind):
    """A Haar-random basis, a product basis or a whitened 4-8 outcome POVM."""
    if kind == "haar":
        basis = scenarios._haar_bases(scenarios._complex_gaussian(rng, 4))
        return Povm(tuple("abcd"), np.stack(
            [np.outer(basis[:, k], basis[:, k].conj()) for k in range(4)]))
    if kind == "product":
        return product_projective_povm(rng.uniform(0, 2 * math.pi, 4))
    return random_valid_povm(rng, outcomes=int(rng.integers(4, 9)))


def two_outcome_povm(rng):
    """A random rank-2 projector and its complement."""
    q, _ = np.linalg.qr(rng.standard_normal((4, 4))
                        + 1j * rng.standard_normal((4, 4)))
    upper = q[:, :2] @ q[:, :2].conj().T
    return Povm(("up", "down"), np.stack([upper, np.eye(4) - upper]))


def exact_counts(povm, refs, exposure=1e6):
    p = np.einsum("kab,jba->jk", povm.elements, refs.states).real
    return CountsTable(refs.labels, povm.labels,
                       np.clip(p, 0.0, None) * exposure)


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
        assert gram_condition(refs) < 100.0

    def test_states_are_a_read_only_copy(self):
        states = np.array(reference_states().states)
        refs = ReferenceSet(reference_states().labels, states)
        assert refs.states is not states
        assert not refs.states.flags.writeable
        with pytest.raises(ValueError):
            refs.states[0, 0, 0] = 0.0

    def test_rank_is_checked_once_per_set(self, monkeypatch):
        refs = reference_states()
        counts = simulate_counts(bell_povm(), refs, 1e4, seed=6)

        def recomputed(*args, **kwargs):
            raise AssertionError("reference rank recomputed")

        monkeypatch.setattr(tomography, "reference_gram_rank", recomputed)
        assert refs.gram_rank == 16
        mle_reconstruct(counts, refs, max_iters=5)
        mle_reconstruct(counts, refs, max_iters=5)


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

    @pytest.mark.parametrize("exposure", [math.inf, -math.inf, math.nan])
    def test_exposure_must_be_finite(self, exposure):
        # refused by name, before numpy multiplies by it or draws from it
        with pytest.raises(ValueError, match="exposure must be finite"):
            simulate_counts(bell_povm(), reference_states(), exposure,
                            seed=1)


class TestInOutcomeOrder:
    # the CLI tests of ``tomography --compare-to`` cover reordered labels,
    # two other labels and another dimension
    @pytest.mark.parametrize("labels,message", [
        (("DD", "DA"), "repeated [], missing ['AD', 'AA'], unexpected []"),
        (("DD", "DA", "AD", "x"), "repeated [], missing ['AA'], "
                                  "unexpected ['x']"),
        (("DD", "DD", "AD", "AA"), "repeated ['DD'], missing ['DA'], "
                                   "unexpected []"),
    ], ids=["fewer", "renamed", "repeated"])
    def test_other_labels_are_refused_by_name(self, labels, message):
        elements = np.stack([np.eye(4) / len(labels)] * len(labels))
        with pytest.raises(ValueError) as info:
            tomography.in_outcome_order(Povm(labels, elements),
                                        bell_povm().labels, 4)
        assert str(info.value) == ("povm labels do not match the counts' "
                                   f"outcomes: {message}")


class TestMleReconstruct:
    def test_exact_data_recovers_bell(self):
        refs = reference_states()
        result = mle_reconstruct(exact_counts(bell_povm(), refs), refs)
        assert result.converged and result.stop == "tolerance"
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
        povm = random_povm(np.random.default_rng(seed), kind)
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
        assert result.stop == "max_iters"
        assert result.iterations == 3

    def test_stalled_run_says_so(self, monkeypatch, caplog):
        # an overcomplete start (probabilities summing to 3) is no POVM:
        # every damped step toward the complete full step lowers the
        # log-likelihood beyond the slack, so the line search fails at once
        refs = reference_states()
        truth, _ = cs_gate_povm(GateModel(visibility=0.9))
        counts = simulate_counts(truth, refs, 1e3, seed=1)
        kernel = tomography.kernels.mle_iterate
        monkeypatch.setattr(
            tomography.kernels, "mle_iterate",
            lambda counts, rhos, init, *rest: kernel(counts, rhos, 3.0 * init,
                                                     *rest))
        with caplog.at_level("WARNING", logger="qmetro.tomography"):
            result = mle_reconstruct(counts, refs)
        assert (result.stop, result.converged, result.iterations) == (
            "stalled", False, 0)
        assert "stalled" in caplog.text

    @pytest.mark.parametrize("options,message", [
        ({"max_iters": 0}, "max_iters must be >= 1"),
        ({"max_iters": -3}, "max_iters must be >= 1"),
        ({"tol": -1.0}, "tol must be >= 0"),
        ({"tol": float("nan")}, "tol must be >= 0"),
        ({"max_iters": 2.7}, "max_iters must be a whole number, got 2.7"),
        ({"max_iters": float("inf")}, "max_iters must be a whole number"),
    ])
    def test_nonsensical_iteration_settings_rejected(self, options, message):
        refs = reference_states()
        counts = simulate_counts(bell_povm(), refs, 1e4, seed=6)
        with pytest.raises(ValueError, match=message):
            mle_reconstruct(counts, refs, **options)

    def test_whole_float_iteration_budget_accepted(self):
        refs = reference_states()
        counts = simulate_counts(bell_povm(), refs, 1e5, seed=4)
        assert mle_reconstruct(counts, refs, max_iters=3.0).iterations == 3

    def test_all_zero_row_rejected(self):
        refs = reference_states()
        counts = simulate_counts(bell_povm(), refs, 1e4, seed=6)
        data = counts.counts.copy()
        data[5] = 0.0
        broken = CountsTable(counts.input_labels, counts.outcome_labels,
                             data)
        with pytest.raises(ValueError):
            mle_reconstruct(broken, refs)

    def test_rank_deficient_reference_set_rejected(self):
        refs = reference_states()
        counts = simulate_counts(bell_povm(), refs, 1e4, seed=6)
        # dephased references span only the 4 diagonal directions
        diagonal = refs.states * np.eye(4)
        deficient = ReferenceSet(refs.labels, diagonal)
        assert deficient.gram_rank == 4
        with pytest.raises(ValueError, match="rank deficient"):
            mle_reconstruct(counts, deficient)

    def test_mismatched_inputs_rejected(self):
        refs = reference_states()
        counts = simulate_counts(bell_povm(), refs, 1e4, seed=6)
        labels = counts.input_labels[:-1] + (("H", "H"),)
        mismatched = CountsTable(labels, counts.outcome_labels,
                                 counts.counts)
        with pytest.raises(ValueError, match=r"repeated \[\('H', 'H'\)\], "
                           r"missing \[\('L', 'L'\)\]"):
            mle_reconstruct(mismatched, refs)

    def test_shuffled_csv_rows_reconstruct_the_same_povm(self):
        refs = reference_states()
        counts = simulate_counts(bell_povm(), refs, 1e4, seed=6)
        header, *rows = counts_to_csv(counts).splitlines()
        order = np.random.default_rng(3).permutation(len(rows))
        shuffled = counts_from_csv(
            "\n".join([header] + [rows[i] for i in order]) + "\n")
        assert shuffled.input_labels != counts.input_labels
        expected = mle_reconstruct(counts, refs)
        result = mle_reconstruct(shuffled, refs)
        # outcomes keep the CSV's first-seen order, which shuffling changes
        reordered = [result.povm.labels.index(k) for k in expected.povm.labels]
        assert sorted(reordered) == list(range(len(reordered)))
        assert np.abs(result.povm.elements[reordered]
                      - expected.povm.elements).max() < 1e-12


def einsum_mle_iterate(counts, rhos, init, max_iters, tol, p_floor):
    """The detector update written index by index with ``np.einsum``, as
    ``kernels.mle_iterate`` once computed it: the oracle for the matrix-
    product kernel. Returns the kernel's tuple plus the number of halvings
    of the line search."""
    povm = init.copy()
    pos = counts > 0
    halvings = 0

    def probs(stack):
        return np.einsum("kab,jba->jk", stack, rhos).real

    def floor_and_ll(p):
        low = pos & (p < p_floor)
        p = np.where(low, p_floor, p)
        return p, int(low.sum()), float(np.sum(counts[pos] * np.log(p[pos])))

    p, floored, ll = floor_and_ll(probs(povm))
    ll_trace = [ll]
    stop = "max_iters"
    iters = 0
    for iters in range(1, max_iters + 1):
        ratio = np.where(pos, counts / np.where(pos, p, 1.0), 0.0)
        R = np.einsum("jk,jab->kab", ratio, rhos)
        S = np.einsum("kab,kbc,kcd->ad", R, povm, R)
        w, v = np.linalg.eigh(S)
        w = np.maximum(w, 1e-30)
        s_inv = (v * (w ** -0.5)) @ v.conj().T
        full = np.einsum("ab,kbc,kcd,kde,ef->kaf", s_inv, R, povm, R, s_inv)
        lam = 1.0
        accepted = False
        for _ in range(40):
            trial = lam * full + (1.0 - lam) * povm
            pt, nfl, llt = floor_and_ll(probs(trial))
            if llt >= ll - _LL_SLACK * abs(ll):
                accepted = True
                break
            lam *= 0.5
            halvings += 1
        if not accepted:
            stop = "stalled"
            iters -= 1
            break
        povm, p = trial, pt
        floored += nfl
        ll_trace.append(llt)
        if abs(llt - ll) <= tol * abs(llt):
            stop = "tolerance"
            break
        ll = llt
    return povm, np.array(ll_trace), iters, stop, floored, halvings


def _agree_with_oracle(counts, max_iters, p_floor=P_FLOOR, rhos=None):
    """Run the kernel and the einsum oracle from the I/K start and require
    the same path; returns the oracle's result."""
    rhos = reference_states().states if rhos is None else rhos
    k_out = counts.shape[1]
    init = np.stack([np.eye(4, dtype=complex) / k_out] * k_out)
    args = (counts, rhos, init, max_iters, 1e-10, p_floor)
    povm, ll_trace, iters, stop, floored = mle_iterate(*args)
    oracle = einsum_mle_iterate(*args)
    assert (iters, stop, floored) == oracle[2:5]
    assert ll_trace.shape == oracle[1].shape
    assert (np.abs(ll_trace - oracle[1]) <= 1e-12 * np.abs(oracle[1])).all()
    assert np.abs(povm - oracle[0]).max() <= 1e-12
    return oracle


class TestMleOracle:
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["haar", "product", "whitened"]),
           log_exposure=st.floats(3.0, 6.0), max_iters=st.integers(1, 400))
    @settings(deadline=None, max_examples=25)
    def test_kernel_follows_the_einsum_update(self, seed, kind, log_exposure,
                                              max_iters):
        povm = random_povm(np.random.default_rng(seed), kind)
        counts = simulate_counts(povm, reference_states(),
                                 10.0 ** log_exposure, seed)
        _agree_with_oracle(counts.counts, max_iters)

    def test_damped_step(self):
        # a whitened 5-outcome POVM at exposure 1365: the line search halves
        # the step twice on the way to convergence at iteration 178
        rng = np.random.default_rng(203)
        povm = random_povm(rng, "whitened")
        counts = simulate_counts(povm, reference_states(),
                                 10.0 ** rng.uniform(3.0, 6.0), 203)
        oracle = _agree_with_oracle(counts.counts, 400)
        assert oracle[5] > 0

    def test_floored_probabilities(self):
        # a floor of 0.03 lies above some of the gate's small probabilities
        truth, _ = cs_gate_povm(GateModel(visibility=0.9))
        counts = simulate_counts(truth, reference_states(), 1e4, seed=4)
        oracle = _agree_with_oracle(counts.counts, 400, p_floor=0.03)
        assert oracle[4] > 0

    @pytest.mark.parametrize("layout", ["fortran-counts", "strided-states",
                                        "transposed-states"])
    def test_any_memory_layout(self, layout):
        # the kernel builds the states' real block forms as new C-ordered
        # arrays and reads the counts by flat index into their logical
        # order, so no layout of the caller's arrays changes the result
        counts = simulate_counts(bell_povm(), reference_states(), 1e4,
                                 seed=8).counts
        states = reference_states().states
        rhos = None
        if layout == "fortran-counts":
            counts = np.asfortranarray(counts)
        elif layout == "strided-states":
            rhos = np.zeros(states.shape[:2] + (8,), dtype=complex)
            rhos[..., ::2] = states
            rhos = rhos[..., ::2]
        else:
            rhos = np.ascontiguousarray(states.transpose(0, 2, 1)) \
                .transpose(0, 2, 1)
        assert rhos is None or not rhos.flags.c_contiguous
        _agree_with_oracle(counts, 400, rhos=rhos)

    def test_two_outcome_povm(self):
        povm = two_outcome_povm(np.random.default_rng(11))
        counts = simulate_counts(povm, reference_states(), 1e4, seed=11)
        oracle = _agree_with_oracle(counts.counts, 400)
        # two outcomes pin few directions of each element, so the likelihood
        # creeps up to the last iteration
        assert oracle[2:4] == (400, "max_iters")

    def test_inputs_are_left_unchanged(self):
        counts = simulate_counts(bell_povm(), reference_states(), 1e3,
                                 seed=2).counts
        rhos = np.array(reference_states().states)
        init = np.stack([np.eye(4, dtype=complex) / 4] * 4)
        before = [a.copy() for a in (counts, rhos, init)]
        for a in (counts, rhos, init):
            a.flags.writeable = False
        mle_iterate(counts, rhos, init, 50, 1e-10, P_FLOOR)
        for a, b in zip((counts, rhos, init), before):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("case", ["bell", "gate", "whitened",
                                      "two-outcome"])
    def test_return_contract(self, case):
        # complex128 and C-ordered whatever the arithmetic inside, each
        # element Hermitian and the elements complete
        if case == "bell":
            povm = bell_povm()
        elif case == "gate":
            povm, _ = cs_gate_povm(GateModel(visibility=0.9))
        elif case == "whitened":
            povm = random_povm(np.random.default_rng(203), "whitened")
        else:
            povm = two_outcome_povm(np.random.default_rng(11))
        counts = simulate_counts(povm, reference_states(), 1e4, seed=11)
        k_out = counts.counts.shape[1]
        init = np.stack([np.eye(4, dtype=complex) / k_out] * k_out)
        result = mle_iterate(counts.counts, reference_states().states, init,
                             400, 1e-10, P_FLOOR)[0]
        assert result.dtype == np.complex128
        assert result.flags.c_contiguous
        assert result.shape == (k_out, 4, 4)
        assert np.abs(result - result.conj().transpose(0, 2, 1)).max() \
            <= 1e-14
        assert np.abs(result.sum(axis=0) - np.eye(4)).max() <= 1e-12

    @pytest.mark.parametrize("case", ["plain", "damped", "stalled"])
    def test_one_decomposition_per_iteration(self, monkeypatch, case):
        # an eigendecomposition is the dearest call of an iteration: one
        # per loop entry, the entry that stalls included
        refs = reference_states()
        scale = 1.0
        if case == "plain":
            counts = simulate_counts(bell_povm(), refs, 1e4, seed=3)
        elif case == "damped":
            rng = np.random.default_rng(203)
            counts = simulate_counts(random_povm(rng, "whitened"), refs,
                                     10.0 ** rng.uniform(3.0, 6.0), 203)
        else:
            # the overcomplete start of test_stalled_run_says_so
            truth, _ = cs_gate_povm(GateModel(visibility=0.9))
            counts = simulate_counts(truth, refs, 1e3, seed=1)
            scale = 3.0
        k_out = counts.counts.shape[1]
        init = scale * np.stack([np.eye(4, dtype=complex) / k_out] * k_out)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: calls.append(1) or eigh(a))
        _, _, iters, stop, _ = mle_iterate(counts.counts, refs.states, init,
                                           400, 1e-10, P_FLOOR)
        assert stop == {"stalled": "stalled"}.get(case, "tolerance")
        assert len(calls) == iters + (stop == "stalled") > 0


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

    def test_non_finite_values_are_failed_runs(self, caplog):
        # two NaN runs of 40 are skipped and named, and the rest averaged
        refs = reference_states()
        counts = simulate_counts(bell_povm(), refs, 1e4, seed=1)
        calls, finite = [], []

        def sometimes_nan(tbl):
            calls.append(tbl)
            if len(calls) - 1 in (5, 17):
                return math.nan
            finite.append(float(tbl.counts.sum()))
            return finite[-1]

        with caplog.at_level("WARNING", logger="qmetro.tomography"):
            mean, std = monte_carlo_uncertainty(counts, sometimes_nan,
                                                runs=40, seed=9)
        assert len(finite) == 38
        assert (mean, std) == (float(np.mean(finite)),
                               float(np.std(finite, ddof=1)))
        assert "Monte Carlo run 5 failed: derived quantity is not finite: " \
            "nan" in caplog.text
        assert "Monte Carlo run 17 failed" in caplog.text

    def test_non_finite_values_count_toward_the_abort(self):
        refs = reference_states()
        counts = simulate_counts(bell_povm(), refs, 1e3, seed=1)
        with pytest.raises(RuntimeError, match="3 of 3 Monte Carlo runs"):
            monte_carlo_uncertainty(counts, lambda tbl: math.inf, runs=20,
                                    seed=3)

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
        again = counts_from_csv(text)
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
