"""Detector tomography: reconstruct a POVM from coincidence counts over the
36 product reference states via constrained maximum likelihood, plus fidelity
metrics and Monte Carlo uncertainty propagation.

The maximum-likelihood iteration is the standard multiplicative detector
update ``P_k <- S^(-1/2) R_k P_k R_k S^(-1/2)`` with
``R_k = sum_j (n_jk / p_jk) rho_j`` and ``S = sum_k R_k P_k R_k``, started
from ``P_k = I/K``. It preserves positivity and completeness at every step;
a damped line search toward the previous iterate guarantees a non-decreasing
log-likelihood.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass

import numpy as np

from . import kernels, serialize
from .linalg import psd_sqrt, trace_distance
from .povm import Povm

logger = logging.getLogger(__name__)

SINGLE_QUBIT_LABELS = ("H", "V", "D", "A", "R", "L")

_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "A": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    "R": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
    "L": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
}

DEFAULT_MAX_ITERS = 5000
DEFAULT_TOL = 1e-10
#: probabilities are floored here when a nonzero count meets a vanishing
#: model probability (impossible event observed due to noise)
P_FLOOR = 1e-12


@dataclass(frozen=True)
class ReferenceSet:
    """The 36 labeled product reference states used to probe a detector."""

    labels: tuple[tuple[str, str], ...]
    states: np.ndarray            # (36, 4, 4) complex

    @property
    def dim(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class CountsTable:
    """Counts per (reference state, outcome); complete, one row per pair."""

    input_labels: tuple[tuple[str, str], ...]
    outcome_labels: tuple[str, ...]
    counts: np.ndarray            # (J, K) float64, nonnegative
    exposure: float

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.counts, dtype=float))
        if c.shape != (len(self.input_labels), len(self.outcome_labels)):
            raise ValueError(f"counts shape {c.shape} does not match labels")
        bad = np.argwhere(~(np.isfinite(c) & (c >= 0)))
        if bad.size:
            j, k = bad[0]
            raise ValueError(
                f"counts for input {self.input_labels[j]} and outcome "
                f"{self.outcome_labels[k]!r} must be finite and nonnegative, "
                f"got {c[j, k]}")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)


@dataclass(frozen=True)
class MleResult:
    """Reconstruction output; ``converged`` is False when the iteration hit
    its budget before the relative log-likelihood change fell below tol."""

    povm: Povm
    converged: bool
    iterations: int
    log_likelihood: float
    ll_trace: np.ndarray
    floored_events: int


def reference_states() -> ReferenceSet:
    """All 36 products of the six single-qubit reference states.

    The set is informationally complete: the Gram matrix of the vectorized
    states has full rank 16.
    """
    labels = []
    states = []
    for a in SINGLE_QUBIT_LABELS:
        for b in SINGLE_QUBIT_LABELS:
            k = np.kron(_KETS[a], _KETS[b])
            labels.append((a, b))
            states.append(np.outer(k, k.conj()))
    refs = ReferenceSet(tuple(labels), np.ascontiguousarray(states))
    if reference_gram_rank(refs) != 16:
        raise AssertionError("reference set lost informational completeness")
    return refs


def reference_gram_rank(refs: ReferenceSet, rcond: float = 1e-10) -> int:
    """Rank of the Gram matrix Tr[rho_i rho_j] over the reference states."""
    vec = refs.states.reshape(len(refs.labels), -1)
    gram = np.real(vec @ vec.conj().T)
    return int(np.linalg.matrix_rank(gram, tol=rcond * np.linalg.norm(gram)))


def reference_gram_condition(refs: ReferenceSet) -> float:
    vec = refs.states.reshape(len(refs.labels), -1)
    gram = np.real(vec @ vec.conj().T)
    sv = np.linalg.svd(gram, compute_uv=False)
    positive = sv[sv > 1e-14 * sv[0]]
    return float(sv[0] / positive[-1])


def simulate_counts(povm: Povm, refs: ReferenceSet, exposure: float,
                    seed: int) -> CountsTable:
    """Poisson coincidence counts with mean ``exposure * p(k | input)``."""
    if not exposure > 0:
        raise ValueError("exposure must be positive")
    p = np.einsum("kab,jba->jk", povm.elements, refs.states).real
    p = np.clip(p, 0.0, None)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(exposure * p).astype(float)
    return CountsTable(refs.labels, povm.labels, counts, float(exposure))


def mle_reconstruct(counts: CountsTable, refs: ReferenceSet,
                    max_iters: int = DEFAULT_MAX_ITERS,
                    tol: float = DEFAULT_TOL) -> MleResult:
    """Maximum-likelihood POVM reconstruction from a complete counts table.

    Maximizes ``sum_jk n_jk log Tr[rho_j P_k]`` subject to positivity and
    completeness (both enforced by construction of the update). Raises on a
    rank-deficient reference set or an all-zero input row (no information).
    """
    if counts.input_labels != refs.labels:
        raise ValueError("counts table inputs do not match the reference set")
    if reference_gram_rank(refs) < refs.dim ** 2:
        raise ValueError("reference set is rank deficient; reconstruction "
                         "is not informationally complete")
    data = counts.counts
    if (data.sum(axis=1) == 0).any():
        dead = [lbl for lbl, row in zip(counts.input_labels, data)
                if row.sum() == 0]
        raise ValueError(f"no counts recorded for inputs {dead}; rows carry "
                         "no information")
    k_out = len(counts.outcome_labels)
    init = np.ascontiguousarray(
        np.stack([np.eye(refs.dim, dtype=complex) / k_out] * k_out))
    stack, ll_trace, iterations, converged, floored = kernels.mle_iterate(
        np.ascontiguousarray(data), refs.states, init,
        int(max_iters), float(tol), P_FLOOR)
    if floored:
        logger.warning("MLE floored %d vanishing probabilities with observed "
                       "counts", floored)
    if not converged:
        logger.warning("MLE stopped at max_iters=%d without reaching tol=%g",
                       max_iters, tol)
    return MleResult(
        povm=Povm(counts.outcome_labels, stack),
        converged=bool(converged),
        iterations=int(iterations),
        log_likelihood=float(ll_trace[-1]),
        ll_trace=np.asarray(ll_trace, dtype=float),
        floored_events=int(floored),
    )


def povm_fidelity(candidate: np.ndarray, ideal: np.ndarray) -> float:
    """Uhlmann fidelity of two POVM elements after trace normalization.

    Both elements are scaled to unit trace; the result is
    ``(Tr sqrt(sqrt(a) b sqrt(a)))^2`` in [0, 1].
    """
    fid_args = []
    for m in (candidate, ideal):
        t = float(np.real(np.trace(m)))
        if abs(t) < 1e-14:
            raise ValueError("POVM element has (near-)zero trace")
        fid_args.append(np.asarray(m, dtype=complex) / t)
    a, b = fid_args
    root = psd_sqrt(a)
    inner = psd_sqrt(root @ b @ root)
    val = float(np.real(np.trace(inner))) ** 2
    return float(min(max(val, 0.0), 1.0))


def element_trace_distances(a: Povm, b: Povm) -> np.ndarray:
    """Per-element trace distances between two POVMs with matching labels."""
    if a.labels != b.labels:
        raise ValueError("POVM labels differ")
    return np.array([trace_distance(x, y)
                     for x, y in zip(a.elements, b.elements)])


def monte_carlo_uncertainty(counts: CountsTable, derived_quantity,
                            runs: int, seed: int) -> tuple[float, float]:
    """Poisson-resample the table and propagate through ``derived_quantity``.

    Each run redraws every count from a Poisson law centered on the observed
    value (per-run generators derived from ``(seed, run)``), re-evaluates the
    derived quantity, and reports the sample mean and standard deviation
    (ddof=1). Failing runs are skipped; more than 10% failures aborts.
    """
    if runs < 2:
        raise ValueError("need at least 2 Monte Carlo runs")
    values = []
    failures = 0
    for run in range(runs):
        rng = np.random.default_rng([seed, run])
        resampled = CountsTable(
            counts.input_labels, counts.outcome_labels,
            rng.poisson(counts.counts).astype(float), counts.exposure)
        try:
            values.append(float(derived_quantity(resampled)))
        except Exception as exc:  # noqa: BLE001 - diagnostics by contract
            failures += 1
            logger.warning("Monte Carlo run %d failed: %s", run, exc)
            if failures > 0.1 * runs:
                raise RuntimeError(
                    f"{failures} of {run + 1} Monte Carlo runs failed; last "
                    f"error: {exc}") from exc
    arr = np.array(values)
    return float(arr.mean()), float(arr.std(ddof=1))


# ---------------------------------------------------------------------------
# counts CSV format: header input1,input2,outcome,counts
# ---------------------------------------------------------------------------

def counts_to_csv(counts: CountsTable) -> str:
    buf = io.StringIO()
    buf.write("input1,input2,outcome,counts\n")
    for (a, b), row in zip(counts.input_labels, counts.counts):
        for outcome, value in zip(counts.outcome_labels, row):
            rendered = str(int(value)) if float(value).is_integer() \
                else serialize.format_float(float(value))
            buf.write(f"{a},{b},{outcome},{rendered}\n")
    return buf.getvalue()


def counts_from_csv(text: str, exposure: float = 0.0) -> CountsTable:
    """Parse a counts CSV; the table must be complete and duplicate-free."""
    reader = csv.DictReader(io.StringIO(text))
    required = {"input1", "input2", "outcome", "counts"}
    if reader.fieldnames is None or set(reader.fieldnames) != required:
        raise ValueError(f"counts CSV must have columns {sorted(required)}, "
                         f"got {reader.fieldnames}")
    cells: dict[tuple[str, str, str], float] = {}
    inputs: list[tuple[str, str]] = []
    outcomes: list[str] = []
    for row in reader:
        key = (row["input1"], row["input2"], row["outcome"])
        if key in cells:
            raise ValueError(f"duplicate row for {key}")
        cells[key] = float(row["counts"])
        pair = (row["input1"], row["input2"])
        if pair not in inputs:
            inputs.append(pair)
        if row["outcome"] not in outcomes:
            outcomes.append(row["outcome"])
    table = np.zeros((len(inputs), len(outcomes)))
    for (a, b, out), value in cells.items():
        table[inputs.index((a, b)), outcomes.index(out)] = value
    if len(cells) != len(inputs) * len(outcomes):
        raise ValueError("counts CSV is incomplete: every input/outcome pair "
                         "must appear exactly once (zeros allowed)")
    return CountsTable(tuple(inputs), tuple(outcomes), table, exposure)


def save_counts(path, counts: CountsTable) -> None:
    serialize.atomic_write_text(path, counts_to_csv(counts))


def load_counts(path, exposure: float = 0.0) -> CountsTable:
    with open(path, encoding="utf-8") as fh:
        return counts_from_csv(fh.read(), exposure)
