"""Numerical workbench for multiparameter estimation with qubit probes.

Computes quantum/classical Fisher information, the weak-commutativity
condition and the kappa figure of merit for single-copy and two-copy
(entangling) measurement strategies; models a post-selected Bell analyser
built from partially polarising beam splitters; and reconstructs POVMs from
simulated coincidence counts by constrained maximum likelihood.
"""

from .fisher import (FisherReport, KappaResult, classical_fi, kappa,
                     measurement_probabilities, qfi_matrix, sld_operators,
                     weak_commutativity, weak_commutativity_root)
from .linalg import hermiticity_defect, tensor_product
from .povm import (GateModel, MeasurementGenerator, Povm, PovmValidation,
                   ProductProjectiveGenerator, bell_povm, cs_gate_amplitudes,
                   cs_gate_povm, load_povm, povm_from_json, povm_to_json,
                   product_projective_povm, validate_povm)
from .scenarios import (CollectiveSearchResult, KappaCurve, OptimizeOutcome,
                        Scenario, evaluate_kappa, kappa_scan, optimize_each,
                        optimize_kappa, random_collective_search,
                        single_copy_qfi_diagonal)
from .states import (ProbeFamily, StateWithDerivatives, make_equatorial_ket,
                     probe_with_derivatives, two_phase_ket_with_derivatives)
from .tomography import (CountsTable, MleResult, ReferenceSet, counts_from_csv,
                         counts_to_csv, load_counts, mle_reconstruct,
                         monte_carlo_uncertainty, povm_fidelity,
                         reference_gram_rank, reference_states,
                         simulate_counts)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
