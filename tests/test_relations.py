"""Physical relations as second routes: laws the simulated physics obeys.

Each relation needs no stored answer and reads no pin, so it holds on any
BLAS kernel within the bound stated beside it.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squidcavity import (
    GateParams,
    chain_initial_state,
    evolve_pure,
    noisy_gate,
    prepare_superposition,
    qcpg_lindblad_fidelity,
    qcpg_schedule,
)
from squidcavity.evolution import exp_segment
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


# The Choi matrix of a trace-preserving channel on 4 states has trace 4 and
# entries of at most 1, so eigvalsh finds its least eigenvalue to about
# n eps ||C|| = 44 * 1.1e-16 * 4 = 2e-14.  At the points below it read
# -7.3e-16 at worst; a channel that is not completely positive reads far
# lower (flipping the sign of the jump term L rho L^dag gives -8.2e-3).
CHOI_EIGENVALUE_MIN = -1e-13


def _choi_matrix(noisy) -> np.ndarray:
    """sum_ij |i><j| x E(|p_i><p_j|): 4 x 4 blocks over the gate's subspace.

    The 10 units with i <= j are propagated, as the score propagates them,
    and each unit with i > j is its partner's adjoint.
    """
    indices = noisy.computational
    dim = len(noisy.kept)
    upper = [(i, j) for i in range(4) for j in range(i, 4)]
    batch = np.zeros((len(upper), dim, dim), dtype=complex)
    for m, (i, j) in enumerate(upper):
        batch[m, indices[i], indices[j]] = 1.0
    for segment in noisy.segments:
        batch = exp_segment(batch, segment)
    image = dict(zip(upper, batch))
    choi = np.zeros((4, dim, 4, dim), dtype=complex)
    for i in range(4):
        for j in range(4):
            choi[i, :, j, :] = image[i, j] if i <= j else image[j, i].conj().T
    return choi.reshape(4 * dim, 4 * dim)


@pytest.mark.parametrize(
    "point",
    [{}, {"cavity_decay_per_s": 5e7}, {"gamma_e_per_s": 3.08e8}, {"fock_cutoff": 1}],
    ids=["default", "k-5e7", "gamma_e-3.08e8", "cutoff-1"],
)
def test_the_noisy_channel_is_completely_positive(point):
    # the score's min_eigenvalue reads only the four diagonal units, which
    # a channel can keep positive without being completely positive
    choi = _choi_matrix(noisy_gate(**point))
    assert np.linalg.eigvalsh(choi)[0] >= CHOI_EIGENVALUE_MIN


# Each order runs N pulses and 3 (N - 1) gate segments, each an exact
# propagator correct to a few ulps, on amplitudes of at most 1: the ideal
# orders agreed within 7.9e-16 at N = 4 and 4.6e-16 at N = 6, and the bound
# leaves a factor of over 100 for other BLAS kernels' rounding.
GATE_ORDER_TOL = 1e-13
# at ratio 1.5 the orders differ by 0.16 to 0.29 in some amplitude
DETUNED_ORDER_GAP = 0.1


def _chain_in_three_orders(n_qubits, gate):
    """The prepared chain after its gates run left to right, right to left
    and even pairs before odd ones."""
    prepare = sum((prepare_superposition(site, gate.drive_rabi) for site in range(n_qubits)), ())
    pairs = list(range(n_qubits - 1))
    states = []
    for order in (pairs, pairs[::-1], pairs[::2] + pairs[1::2]):
        gates = sum((qcpg_schedule(a, a + 1, gate) for a in order), ())
        states.append(evolve_pure(chain_initial_state(n_qubits), prepare + gates).amplitudes)
    return states


@pytest.mark.filterwarnings("ignore:gate conditions violated:UserWarning")
@pytest.mark.parametrize("n_qubits", [4, 6])
def test_ideal_gates_commute_and_detuned_ones_do_not(n_qubits):
    # at the ideal point every gate is diag(1, 1, 1, -1) with the cavity
    # restored, so the order of a chain's gates does not matter
    first, *others = _chain_in_three_orders(n_qubits, GateParams())
    for other in others:
        assert np.abs(other - first).max() <= GATE_ORDER_TOL
    # a detuned gate leaves the cavity and |e> populated, and the next gate
    # sees that: the relation holds only where the physics says it should
    first, *others = _chain_in_three_orders(n_qubits, GateParams(ratio=1.5))
    for other in others:
        assert np.abs(other - first).max() >= DETUNED_ORDER_GAP
