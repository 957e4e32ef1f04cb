"""Physical relations as second routes: laws the simulated physics obeys.

Each relation needs no stored answer and reads no pin, so it holds on any
BLAS kernel within the bound stated beside it.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squidcavity import (
    CavitySegment,
    CompositeState,
    GateParams,
    SpaceLayout,
    chain_initial_state,
    evolve_pure,
    noisy_gate,
    prepare_superposition,
    qcpg_lindblad_fidelity,
    qcpg_schedule,
)
from squidcavity.cli import main
from squidcavity.evolution import exp_segment
from squidcavity.verification import CZ_SIGNS, computational_propagator

from conftest import random_state

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


def _decoherence_rows(out, fock_cutoff) -> str:
    """The rows of a default ``decoherence`` run at ``fock_cutoff``, as JSON text."""
    assert main(["decoherence", "--fock-cutoff", str(fock_cutoff), "--out", str(out)]) == 0
    return json.dumps(json.loads((out / "decoherence.json").read_text())["rows"])


def test_the_noisy_score_does_not_depend_on_the_cutoff_from_two_up(tmp_path, capsys):
    # computational inputs never hold more than two excitations, so from
    # cutoff 2 up the gate runs on the same 11 states, in the same order,
    # with the same matrix entries: the rows agree bit for bit, up to 112,
    # the largest cutoff the budget accepts
    first, *others = (_decoherence_rows(tmp_path / str(c), c) for c in (2, 3, 30, 112))
    capsys.readouterr()
    for rows in others:
        assert rows == first


# (a, b, omega_1, omega_2) and (b, a, omega_2, omega_1) write the same
# exchange, but as matrices over differently ordered sites, so each
# propagator comes from its own eigendecomposition.  Each is exact to a few
# ulps of the largest phase, ||H|| t <= sqrt(3) (1 + 4) 3 pi = 82 rad over
# the draws below, and 82 eps = 1.8e-14; they differed by 1.3e-14 at worst
# on SkylakeX and Haswell and 7.9e-15 on Prescott.  The bound leaves a
# factor of 5 over that scale for other kernels' rounding.
RELABEL_TOL = 1e-13
# at the default gate, swapping the sites and not the rates moves some
# amplitude of a random state by 0.59
RELABEL_GAP = 0.1


def _relabelling_draws(count=90):
    """Seeded (layout, a, b, omega_1, omega_2, time, state) draws: N 2-4,
    cutoffs 1-3, omega_2 / omega_1 in [0.1, 4], time 0.2-3 cavity times."""
    rng = np.random.default_rng(7)
    omega_1 = GateParams().omega_1
    for _ in range(count):
        layout = SpaceLayout(int(rng.integers(2, 5)), int(rng.integers(1, 4)))
        a, b = rng.permutation(layout.n_squids)[:2].tolist()
        omega_2 = omega_1 * rng.uniform(0.1, 4.0)
        t = rng.uniform(0.2, 3.0) * DEFAULT_CAVITY_TIME
        yield layout, a, b, omega_1, omega_2, t, random_state(rng, layout)


def test_an_exchange_is_the_same_with_its_squids_and_rates_swapped():
    for _, a, b, omega_1, omega_2, t, state in _relabelling_draws():
        before = evolve_pure(state, (CavitySegment(a, b, omega_1, omega_2, t),))
        after = evolve_pure(state, (CavitySegment(b, a, omega_2, omega_1, t),))
        assert np.abs(after.amplitudes - before.amplitudes).max() <= RELABEL_TOL
    # the sites alone are not a relabelling: the rates go with the SQUIDs
    gate = GateParams()
    state = random_state(np.random.default_rng(0), SpaceLayout(2, 2))
    runs = [
        evolve_pure(state, (CavitySegment(a, b, gate.omega_1, gate.omega_2, DEFAULT_CAVITY_TIME),))
        for a, b in ((0, 1), (1, 0))
    ]
    assert np.abs(runs[1].amplitudes - runs[0].amplitudes).max() >= RELABEL_GAP


@pytest.mark.filterwarnings("ignore:gate conditions violated:UserWarning")
def test_a_gate_is_the_same_with_its_squids_relabelled():
    # qcpg_schedule(b, a) is qcpg_schedule(a, b) with SQUIDs a and b
    # renamed, omega_1 going with the control: run on the state with the
    # two SQUIDs' factors swapped, it gives the swapped result
    for layout, a, b, omega_1, omega_2, t, state in _relabelling_draws():
        gate = GateParams(omega_1=omega_1, ratio=omega_2 / omega_1, cavity_time=t)

        def swap(amplitudes):
            return np.swapaxes(amplitudes.reshape(layout.dims), a, b).reshape(-1)

        before = evolve_pure(state, qcpg_schedule(a, b, gate))
        relabelled = CompositeState(layout, swap(state.amplitudes))
        after = swap(evolve_pure(relabelled, qcpg_schedule(b, a, gate)).amplitudes)
        assert np.abs(after - before.amplitudes).max() <= RELABEL_TOL
