"""Simulator for cavity-mediated controlled-phase gates between three-level
SQUIDs and the cluster-state chains they generate.

Conventions fixed across the package: SQUID levels |0>, |1>, |e> are indices
0, 1, 2; tensor factors are ordered SQUID 0, SQUID 1, ..., cavity last; the
cavity factor can be addressed as site -1.
"""

from .config import (
    ConfigError,
    RunConfig,
    SweepSettings,
    config_from_dict,
    config_to_dict,
    load_config,
)
from .decoherence import noisy_gate, qcpg_lindblad_fidelity
from .evolution import (
    MAX_LINDBLAD_SUBSTEPS,
    evolve_pure,
    exp_lindblad,
    lindblad_substeps,
    propagator,
    single_excitation_closed_form,
)
from .feasibility import ANCHORS, feasibility_report, round_to_sig_figures
from .hamiltonians import (
    CavityCouplingSpec,
    DriveSpec,
    FeasibilityParams,
    annihilation,
    cavity_coupling_hamiltonian,
    collapse_operators_from_rates,
    drive_hamiltonian,
    excitation_number,
)
from .hilbert import (
    CompositeState,
    LocalOperator,
    SpaceLayout,
    apply_local,
    basis_index,
    basis_state,
    embedded_matrix,
    expectation,
)
from .protocols import (
    CavitySegment,
    DriveSegment,
    GateParams,
    chain_initial_state,
    cluster_chain_schedule,
    cluster_state_oracle,
    gate_condition_residuals,
    prepare_superposition,
    qcpg_schedule,
    rotation_pulse,
    schedule_to_json,
)
from .verification import (
    CZ_DIAG,
    cavity_vacuum_population,
    chain_stabilizer,
    computational_propagator,
    stabilizer_expectations,
    state_fidelity,
    truth_table,
)

__version__ = "0.1.0"
