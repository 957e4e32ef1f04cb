"""Physical relations as second routes: laws the simulated physics obeys.

Each relation needs no stored answer and reads no pin, so it holds on any
BLAS kernel within the bound stated beside it.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squidcavity import GateParams, noisy_gate, qcpg_lindblad_fidelity, qcpg_schedule
from squidcavity.verification import CZ_SIGNS, computational_propagator

# Both engines are exact to rounding: the pure route through one
# eigendecomposition per segment, the Lindblad route through a Taylor series
# summed to unit roundoff on each sub-step.  Over the draws below the two
# process fidelities, numbers of order 1, differed by at most 2.6e-15, and
# by 5.2e-15 over another 96-point draw of the same ranges; the bound leaves
# a factor of about 20 for other BLAS kernels' rounding.
ENGINE_IDENTITY_TOL = 1e-13

DEFAULT_CAVITY_TIME = GateParams().resolved_cavity_time


@pytest.mark.filterwarnings("ignore:gate conditions violated:UserWarning")
@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    ratio=st.floats(0.1, 4.0),
    scale=st.floats(0.2, 3.0),
    branch_ratio=st.floats(0.0, 1.0),
)
# the default gate, and the detuned ratio the suite's pins run
@example(ratio=GateParams().ratio, scale=1.0, branch_ratio=0.5)
@example(ratio=1.5, scale=1.0, branch_ratio=0.5)
def test_the_two_engines_agree_at_zero_rates_at_any_gate(ratio, scale, branch_ratio):
    # with every rate 0 the channel is the unitary gate, so its process
    # fidelity to CZ is |sum_i s_i M_ii|^2 / 16, M being the pure route's
    # table on the computational states
    gate = GateParams(ratio=ratio, cavity_time=scale * DEFAULT_CAVITY_TIME)
    schedule = qcpg_schedule(0, 1, gate)
    for fock_cutoff in (1, 2, 3):
        table, _ = computational_propagator(schedule, fock_cutoff)
        pure = abs(np.dot(CZ_SIGNS, np.diag(table))) ** 2 / 16
        noisy = noisy_gate(gate, 0.0, 0.0, branch_ratio, fock_cutoff)
        lindblad = qcpg_lindblad_fidelity(noisy).process_fidelity
        assert abs(lindblad - pure) <= ENGINE_IDENTITY_TOL, (ratio, scale, fock_cutoff)
