"""Simulator for cavity-mediated controlled-phase gates between three-level
SQUIDs and the cluster-state chains they generate.

Conventions fixed across the package: SQUID levels |0>, |1>, |e> are indices
0, 1, 2; tensor factors are ordered SQUID 0, SQUID 1, ..., cavity last;
SQUID i is site i and the cavity is site ``hilbert.CAVITY`` (-1), each
factor's one address.

The top level exports what the demos, the benchmark and README use; every
other name is imported from its module.
"""

from .decoherence import noisy_gate, qcpg_lindblad_fidelity
from .evolution import (
    MAX_LINDBLAD_SUBSTEPS,
    evolve_pure,
    single_excitation_closed_form,
)
from .feasibility import feasibility_report
from .hamiltonians import FeasibilityParams
from .hilbert import (
    CompositeState,
    LocalOperator,
    SpaceLayout,
    basis_index,
    basis_state,
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
)
from .verification import stabilizer_expectations, state_fidelity, truth_table

__version__ = "0.1.0"
