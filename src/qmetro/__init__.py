"""Numerical workbench for multiparameter estimation with qubit probes.

Computes quantum/classical Fisher information, the weak-commutativity
condition and the kappa figure of merit for single-copy and two-copy
(entangling) measurement strategies; models a post-selected Bell analyser
built from partially polarising beam splitters; and reconstructs POVMs from
simulated coincidence counts by constrained maximum likelihood.
"""

from .fisher import (FisherReport, KappaResult, SldSet, classical_fi, kappa,
                     measurement_probabilities, qfi_matrix, sld_operators,
                     sld_residual, weak_commutativity, weak_commutativity_root)
from .linalg import (bloch_vector, check_density_matrix, hermiticity_defect,
                     purity, tensor_product, trace_distance)
from .povm import (GateModel, Povm, PovmValidation, bell_povm,
                   cs_gate_amplitudes, cs_gate_povm, load_povm, povm_from_json,
                   povm_to_json, product_projective_povm, save_povm,
                   validate_povm)
from .scenarios import (CollectiveSearchResult, KappaCurve, OptimizeOutcome,
                        ProductProjectiveGenerator, Scenario,
                        default_delta_grid, evaluate_kappa, haar_random_basis,
                        kappa_scan, optimize_kappa, random_collective_search,
                        single_copy_qfi_diagonal)
from .states import (ProbeFamily, StateWithDerivatives, dephased_phase_state,
                     make_equatorial_ket, make_equatorial_state,
                     probe_with_derivatives, rotation_unitary,
                     two_phase_ket_with_derivatives, two_phase_state)
from .tomography import (CountsTable, MleResult, ReferenceSet, counts_from_csv,
                         counts_to_csv, element_trace_distances, load_counts,
                         mle_reconstruct, monte_carlo_uncertainty,
                         povm_fidelity, reference_gram_condition,
                         reference_gram_rank, reference_states, save_counts,
                         simulate_counts)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
