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
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels, serialize
from .linalg import projector, psd_sqrt
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
#: singular values of the reference Gram matrix below this times its norm
#: do not count toward its rank
_GRAM_RCOND = 1e-10
#: probabilities are floored here when a nonzero count meets a vanishing
#: model probability (impossible event observed due to noise)
P_FLOOR = 1e-12


@dataclass(frozen=True)
class ReferenceSet:
    """The 36 labeled product reference states used to probe a detector."""

    labels: tuple[tuple[str, str], ...]
    states: np.ndarray            # (36, 4, 4) complex, read-only copy

    def __post_init__(self):
        states = np.array(self.states, dtype=complex, order="C")
        states.setflags(write=False)
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @cached_property
    def gram_rank(self) -> int:
        """``reference_gram_rank``, computed once: the states cannot
        change."""
        return reference_gram_rank(self)


@dataclass(frozen=True)
class CountsTable:
    """Counts per (reference state, outcome); complete, one row per pair."""

    input_labels: tuple[tuple[str, str], ...]
    outcome_labels: tuple[str, ...]
    counts: np.ndarray            # (J, K) float64, nonnegative

    def __post_init__(self):
        unknown = sorted({lbl for pair in self.input_labels for lbl in pair}
                         - set(SINGLE_QUBIT_LABELS))
        if unknown:
            raise ValueError(f"unknown input labels {unknown}; inputs are "
                             f"pairs of {SINGLE_QUBIT_LABELS}")
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
    """Reconstruction output. ``stop`` says why the iteration ended:
    ``"tolerance"`` when the relative log-likelihood change fell below tol,
    ``"stalled"`` when no damped step kept the log-likelihood, and
    ``"max_iters"`` when it hit its budget; ``converged`` is True on
    ``"tolerance"`` only."""

    povm: Povm
    converged: bool
    stop: str
    iterations: int
    log_likelihood: float
    ll_trace: np.ndarray
    floored_events: int


def reference_states() -> ReferenceSet:
    """All 36 products of the six single-qubit reference states.

    The set is informationally complete: the Gram matrix of the vectorized
    states has full rank 16.
    """
    labels = tuple((a, b) for a in SINGLE_QUBIT_LABELS
                   for b in SINGLE_QUBIT_LABELS)
    refs = ReferenceSet(labels, projector(
        [np.kron(_KETS[a], _KETS[b]) for a, b in labels]))
    if refs.gram_rank != 16:
        raise AssertionError("reference set lost informational completeness")
    return refs


def reference_gram_rank(refs: ReferenceSet) -> int:
    """Rank of the Gram matrix Tr[rho_i rho_j] over the reference states."""
    vec = refs.states.reshape(len(refs.labels), -1)
    gram = np.real(vec @ vec.conj().T)
    return int(np.linalg.matrix_rank(
        gram, tol=_GRAM_RCOND * np.linalg.norm(gram)))


def simulate_counts(povm: Povm, refs: ReferenceSet, exposure: float,
                    seed: int) -> CountsTable:
    """Poisson coincidence counts with mean ``exposure * p(k | input)``."""
    if povm.dim != refs.dim:
        raise ValueError(f"dimension mismatch: povm {povm.dim}, reference "
                         f"states {refs.dim}")
    if not math.isfinite(exposure):
        raise ValueError(f"exposure must be finite, got {exposure!r}")
    if not exposure > 0:
        raise ValueError("exposure must be positive")
    p = np.einsum("kab,jba->jk", povm.elements, refs.states).real
    p = np.clip(p, 0.0, None)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(exposure * p).astype(float)
    return CountsTable(refs.labels, povm.labels, counts)


def mle_reconstruct(counts: CountsTable, refs: ReferenceSet,
                    max_iters: int = DEFAULT_MAX_ITERS,
                    tol: float = DEFAULT_TOL) -> MleResult:
    """Maximum-likelihood POVM reconstruction from a complete counts table.

    Maximizes ``sum_jk n_jk log Tr[rho_j P_k]`` subject to positivity and
    completeness (both enforced by construction of the update). The table's
    rows may come in any order; each reference input must appear exactly
    once. Raises on a rank-deficient reference set or an all-zero input row
    (no information).
    """
    if not float(max_iters).is_integer():
        raise ValueError(f"max_iters must be a whole number, got "
                         f"{max_iters!r}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not tol >= 0:
        raise ValueError("tol must be >= 0")
    data = counts.counts[_positions(
        counts.input_labels, refs.labels,
        "counts table inputs do not match the reference set")]
    if refs.gram_rank < refs.dim ** 2:
        raise ValueError("reference set is rank deficient; reconstruction "
                         "is not informationally complete")
    if (data.sum(axis=1) == 0).any():
        dead = [lbl for lbl, row in zip(refs.labels, data)
                if row.sum() == 0]
        raise ValueError(f"no counts recorded for inputs {dead}; rows carry "
                         "no information")
    k_out = len(counts.outcome_labels)
    init = np.ascontiguousarray(
        np.stack([np.eye(refs.dim, dtype=complex) / k_out] * k_out))
    stack, ll_trace, iterations, stop, floored = kernels.mle_iterate(
        np.ascontiguousarray(data), refs.states, init,
        int(max_iters), float(tol), P_FLOOR)
    if floored:
        logger.warning("MLE floored %d vanishing probabilities with observed "
                       "counts", floored)
    if stop == "max_iters":
        logger.warning("MLE stopped at max_iters=%d without reaching tol=%g",
                       max_iters, tol)
    elif stop == "stalled":
        logger.warning("MLE stalled after %d iterations: no damped step kept "
                       "the log-likelihood, tol=%g not reached", iterations,
                       tol)
    return MleResult(
        povm=Povm(counts.outcome_labels, stack),
        converged=stop == "tolerance",
        stop=stop,
        iterations=int(iterations),
        log_likelihood=float(ll_trace[-1]),
        ll_trace=np.asarray(ll_trace, dtype=float),
        floored_events=int(floored),
    )


def _positions(found, expected, mismatch: str) -> list[int]:
    """Index in ``found`` of each entry of ``expected``. ``found`` must
    hold each of them once and nothing else; otherwise a ValueError that
    starts with ``mismatch`` names the repeated, missing and unexpected
    entries."""
    index: dict = {}
    repeated = []
    for i, item in enumerate(found):
        if item in index:
            repeated.append(item)
        index[item] = i
    known = set(expected)
    missing = [item for item in expected if item not in index]
    extra = [item for item in index if item not in known]
    if repeated or missing or extra:
        raise ValueError(f"{mismatch}: repeated {repeated}, missing "
                         f"{missing}, unexpected {extra}")
    return [index[item] for item in expected]


def in_outcome_order(povm: Povm, outcome_labels, dim: int) -> Povm:
    """``povm`` with its elements in the order of ``outcome_labels``, each
    paired with its own label, so that it compares element by element with
    a reconstruction of that many outcomes on ``dim``-dimensional states;
    refuses a POVM of another dimension, or one whose labels are not
    exactly ``outcome_labels``, each once."""
    if povm.dim != dim:
        raise ValueError(f"dimension mismatch: povm {povm.dim}, reference "
                         f"states {dim}")
    order = _positions(povm.labels, outcome_labels,
                       "povm labels do not match the counts' outcomes")
    return Povm(tuple(outcome_labels), povm.elements[order])


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


def monte_carlo_uncertainty(counts: CountsTable, derived_quantity,
                            runs: int, seed: int) -> tuple[float, float]:
    """Poisson-resample the table and propagate through ``derived_quantity``.

    Each run redraws every count from a Poisson law centered on the observed
    value (per-run generators derived from ``(seed, run)``), re-evaluates the
    derived quantity, and reports the sample mean and standard deviation
    (ddof=1). A run that raises or yields a value that is not finite fails
    and is skipped; more than 10% failures aborts.
    """
    if runs < 2:
        raise ValueError("need at least 2 Monte Carlo runs")
    values = []
    failures = 0
    for run in range(runs):
        rng = np.random.default_rng([seed, run])
        resampled = CountsTable(
            counts.input_labels, counts.outcome_labels,
            rng.poisson(counts.counts).astype(float))
        try:
            value = float(derived_quantity(resampled))
            if not math.isfinite(value):
                raise ValueError(f"derived quantity is not finite: {value}")
            values.append(value)
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
    # csv quotes a label that holds a comma, a quote or a line feed, but
    # not a carriage return, which a reader would take for a line break
    for label in (*counts.outcome_labels, *sum(counts.input_labels, ())):
        if "\r" in label:
            raise ValueError(f"label {label!r} holds a carriage return, which "
                             "counts.csv cannot hold")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["input1", "input2", "outcome", "counts"])
    for (a, b), row in zip(counts.input_labels, counts.counts):
        for outcome, value in zip(counts.outcome_labels, row):
            rendered = str(int(value)) if float(value).is_integer() \
                else serialize.format_float(float(value))
            writer.writerow([a, b, outcome, rendered])
    return buf.getvalue()


def counts_from_csv(text: str) -> CountsTable:
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
        try:
            cells[key] = float(row["counts"])
        except (TypeError, ValueError):
            # TypeError: a short row leaves the counts cell None
            raise ValueError(
                f"counts for input {key[:2]} and outcome {key[2]!r} must be "
                f"a number, got {row['counts']!r}") from None
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
    return CountsTable(tuple(inputs), tuple(outcomes), table)


def load_counts(path) -> CountsTable:
    with open(path, encoding="utf-8") as fh:
        try:
            return counts_from_csv(fh.read())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
