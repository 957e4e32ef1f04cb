import math
import warnings

import numpy as np
import pytest

from squidcavity import (
    CavitySegment,
    CompositeState,
    DriveSegment,
    GateParams,
    SpaceLayout,
    basis_index,
    basis_state,
    chain_initial_state,
    cluster_chain_schedule,
    cluster_state_oracle,
    evolve_pure,
    prepare_superposition,
    qcpg_schedule,
    stabilizer_expectations,
    state_fidelity,
    truth_table,
)

from squidcavity.verification import (
    COMPUTATIONAL_BASIS,
    CZ_DIAG,
    STATE_NORM_TOL,
    cavity_vacuum_population,
    computational_propagator,
)

from conftest import chain_stabilizer, expectation, oracle_apply, random_state, tensor_state


def test_empty_schedule_gives_identity_table():
    matrix, leakage = computational_propagator(())
    np.testing.assert_allclose(matrix, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(leakage, 0.0, atol=1e-12)


def test_propagator_rejects_outside_squids():
    # the truth table's layout holds SQUIDs 0 and 1 only; at cutoff 2 the
    # cavity has three levels, like SQUID 2 would
    for seg, cutoff in (
        (DriveSegment(2, (0, 1), 1.0, 1.0), 1),
        (DriveSegment(2, (0, 1), 1.0, 1.0), 2),
        (CavitySegment(0, 2, 1.0, 1.0, 1.0), 2),
    ):
        with pytest.raises(ValueError, match="site must be an integer in"):
            computational_propagator((seg,), fock_cutoff=cutoff)


def test_truth_table_of_default_gate():
    report = truth_table(qcpg_schedule(0, 1))
    np.testing.assert_allclose(report.phases, [0.0, 0.0, 0.0, math.pi], atol=1e-9)
    assert report.max_entry_error <= 1e-9
    assert report.leakage <= 1e-10
    assert report.passed
    np.testing.assert_allclose(report.matrix, CZ_DIAG, atol=1e-8)


def test_truth_table_flags_wrong_ratio():
    with pytest.warns(UserWarning):
        schedule = qcpg_schedule(0, 1, GateParams(ratio=1.0))
    report = truth_table(schedule)
    assert not report.passed
    assert report.leakage > 0.1


def test_truth_table_reversed_pair():
    # the gate is symmetric under control/target exchange
    report = truth_table(qcpg_schedule(1, 0))
    np.testing.assert_allclose(report.phases, [0.0, 0.0, 0.0, math.pi], atol=1e-9)
    assert report.passed


def _gate_cases():
    detuned = GateParams(cavity_time=1.3 * GateParams().resolved_cavity_time)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        broken = qcpg_schedule(0, 1, GateParams(ratio=1.0))
        return {
            "default": qcpg_schedule(0, 1),
            "ratio1": broken,
            "detuned": qcpg_schedule(0, 1, detuned),
            # a rotation first mixes the inputs, so that the matrix is not
            # diagonal and its row and column leakages differ
            "rotated": prepare_superposition(0) + broken,
        }


GATE_CASES = _gate_cases()


@pytest.mark.parametrize("fock_cutoff", (1, 2, 3))
@pytest.mark.parametrize("name", sorted(GATE_CASES))
def test_batched_truth_table_matches_single_state_runs(name, fock_cutoff):
    # the four inputs go through the schedule as one block; each column must
    # be what evolving that input alone gives
    schedule = GATE_CASES[name]
    matrix, leakage = computational_propagator(schedule, fock_cutoff=fock_cutoff)
    layout = SpaceLayout(2, fock_cutoff)
    outputs = [basis_index(layout, bits, 0) for bits in COMPUTATIONAL_BASIS]
    for j, bits in enumerate(COMPUTATIONAL_BASIS):
        single = evolve_pure(basis_state(layout, bits, 0), schedule).amplitudes[outputs]
        assert np.max(np.abs(matrix[:, j] - single)) <= 1e-15
        assert abs(leakage[j] - max(0.0, 1.0 - np.sum(np.abs(single) ** 2))) <= 1e-15


def test_state_fidelity_examples():
    layout = SpaceLayout(1, fock_cutoff=1)
    a = basis_state(layout, (0,))
    b = basis_state(layout, (1,))
    assert state_fidelity(a, a) == pytest.approx(1.0)
    assert state_fidelity(a, b) == pytest.approx(0.0)
    with pytest.raises(ValueError, match="layout"):
        state_fidelity(a, basis_state(SpaceLayout(1, fock_cutoff=2), (0,)))
    bad = CompositeState(layout, np.array([0.5, 0, 0, 0, 0, 0], dtype=complex))
    with pytest.raises(ValueError, match="^second state's norm - 1 must be finite"):
        state_fidelity(a, bad)


def test_state_fidelity_checks_the_norm_at_its_bound():
    # one non-zero amplitude is the state's exact norm, and its distance
    # from 1 is exact too: on either side, the amplitude furthest from 1
    # within STATE_NORM_TOL is accepted and the next float out is refused
    layout = SpaceLayout(1, fock_cutoff=1)
    a = basis_state(layout, (0,))
    for side in (1.0, -1.0):
        edge = 1.0 + side * STATE_NORM_TOL
        if abs(edge - 1.0) > STATE_NORM_TOL:
            edge = math.nextafter(edge, 1.0)
        past = math.nextafter(edge, 1.0 + side)
        assert abs(edge - 1.0) <= STATE_NORM_TOL < abs(past - 1.0)
        at = CompositeState(layout, np.array([edge, 0, 0, 0, 0, 0], dtype=complex))
        assert at.norm() == edge
        assert state_fidelity(a, at) == abs(edge) ** 2
        over = CompositeState(layout, np.array([past, 0, 0, 0, 0, 0], dtype=complex))
        assert over.norm() == past
        with pytest.raises(ValueError, match="^second state's norm - 1 must be finite"):
            state_fidelity(a, over)


def test_state_fidelity_refuses_a_nan_written_after_construction():
    # a state shares memory with the caller's array, so a NaN written there
    # after the construction check reaches the norm
    layout = SpaceLayout(1, fock_cutoff=1)
    amplitudes = np.array([1, 0, 0, 0, 0, 0], dtype=complex)
    state = CompositeState(layout, amplitudes)
    amplitudes[1] = np.nan
    with pytest.raises(ValueError, match="^second state's norm - 1 .*=nan$"):
        state_fidelity(basis_state(layout, (0,)), state)


def test_cavity_vacuum_population_basics():
    layout = SpaceLayout(2, fock_cutoff=2)
    assert cavity_vacuum_population(basis_state(layout, (0, 1), 0)) == pytest.approx(1.0)
    assert cavity_vacuum_population(basis_state(layout, (0, 0), 1)) == pytest.approx(0.0)


def test_cavity_vacuum_population_mid_exchange():
    # starting from |1,0,vac>, the photon amplitude is -i (omega_1/omega)
    # sin(omega t), so the vacuum deficit is its squared magnitude
    omega_1, omega_2, t = 1.0, 1.0, 0.7
    omega = math.hypot(omega_1, omega_2)
    seg = CavitySegment(0, 1, omega_1, omega_2, t)
    layout = SpaceLayout(2, fock_cutoff=2)
    out = evolve_pure(basis_state(layout, (1, 0), 0), (seg,))
    want = 1.0 - (omega_1 / omega) ** 2 * math.sin(omega * t) ** 2
    assert cavity_vacuum_population(out) == pytest.approx(want, abs=1e-10)


def test_chain_stabilizer_structure():
    # bulk generator: Z on both neighbours, X in the middle
    op = chain_stabilizer(4, 2)
    assert op.sites == (1, 2, 3)
    z3 = np.diag([1.0, -1.0, 1.0])
    x3 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1.0]])
    np.testing.assert_array_equal(op.matrix, np.kron(np.kron(z3, x3), z3))
    # boundary generators drop the missing neighbour
    left = chain_stabilizer(4, 0)
    assert left.sites == (0, 1)
    np.testing.assert_array_equal(left.matrix, np.kron(x3, z3))
    right = chain_stabilizer(4, 3)
    assert right.sites == (2, 3)
    np.testing.assert_array_equal(right.matrix, np.kron(z3, x3))
    with pytest.raises(ValueError):
        chain_stabilizer(4, 4)
    with pytest.raises(ValueError):
        chain_stabilizer(4, -1)


def test_oracle_satisfies_all_stabilizers():
    for n_qubits in range(2, 9):
        report = stabilizer_expectations(cluster_state_oracle(n_qubits))
        assert report.expectations.shape == (n_qubits,)
        np.testing.assert_allclose(report.expectations, 1.0, atol=1e-12)
        assert report.min_expectation >= 1 - 1e-12
        assert report.cavity_vacuum_population == pytest.approx(1.0)


def test_stabilizers_match_dense_oracle():
    # cross-check expectation values against an independent dense embedding
    state = cluster_state_oracle(3)
    report = stabilizer_expectations(state)
    for i in range(3):
        applied = oracle_apply(state, chain_stabilizer(3, i))
        direct = np.vdot(state.amplitudes, applied).real
        assert abs(report.expectations[i] - direct) <= 1e-12


def _dense_expectations(state, n_qubits):
    return np.array(
        [expectation(state, chain_stabilizer(n_qubits, i)).real for i in range(n_qubits)]
    )


@pytest.mark.parametrize("fock_cutoff", (1, 2, 3))
def test_signed_permutation_readout_matches_the_dense_route_bit_for_bit(fock_cutoff):
    for n_qubits in range(2, 11):
        state = evolve_pure(
            chain_initial_state(n_qubits, fock_cutoff), cluster_chain_schedule(n_qubits)
        )
        report = stabilizer_expectations(state)
        assert report.expectations.tobytes() == _dense_expectations(state, n_qubits).tobytes()


def test_a_lent_scratch_buffer_gives_the_same_expectation_bits():
    # every entry of K_i psi is written, so what the buffer held is never read
    state = evolve_pure(chain_initial_state(5, 2), cluster_chain_schedule(5))
    want = stabilizer_expectations(state).expectations
    scratch = np.full(state.layout.total_dim, np.nan, complex)
    got = stabilizer_expectations(state, scratch=scratch).expectations
    assert got.tobytes() == want.tobytes()
    pair = np.zeros((2, state.layout.total_dim), complex)
    pair[0] = state.amplitudes
    shared = CompositeState(state.layout, pair[0])
    for wrong in (pair[0], np.zeros(state.layout.total_dim), np.zeros((2, pair.shape[1]))[0:1]):
        with pytest.raises(ValueError, match="scratch must be"):
            stabilizer_expectations(shared, scratch=wrong)
    assert stabilizer_expectations(shared, scratch=pair[1]).expectations.tobytes() == want.tobytes()


def test_signed_permutation_readout_on_upper_level_and_photon_amplitudes():
    # every amplitude is non-zero, |e> and photon digits included, so the
    # identity on |e> and the cavity digits are exercised
    rng = np.random.default_rng(20240611)
    for n_qubits, fock_cutoff in ((1, 0), (2, 1), (3, 2), (5, 3)):
        state = random_state(rng, SpaceLayout(n_qubits, fock_cutoff))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            report = stabilizer_expectations(state)
        dense = _dense_expectations(state, n_qubits)
        assert report.expectations.tobytes() == dense.tobytes()
        # and the independent dense embedding agrees to rounding
        for i in range(n_qubits):
            oracle = np.vdot(state.amplitudes, oracle_apply(state, chain_stabilizer(n_qubits, i)))
            assert abs(report.expectations[i] - oracle.real) <= 1e-12


def test_product_state_breaks_stabilizers():
    # |+>|+> has <X Z> = <X><Z> = 0 for both generators
    plus = np.array([1, 1, 0]) / math.sqrt(2)
    state = tensor_state([plus, plus, (1, 0, 0)])
    report = stabilizer_expectations(state)
    np.testing.assert_allclose(report.expectations, 0.0, atol=1e-12)


def test_stabilizer_report_warns_on_photon_support():
    layout = SpaceLayout(2, fock_cutoff=2)
    amp = np.zeros(layout.total_dim, dtype=complex)
    amp[basis_index(layout, (0, 0), 0)] = math.sqrt(1 - 1e-4)
    amp[basis_index(layout, (0, 0), 1)] = math.sqrt(1e-4)
    with pytest.warns(UserWarning, match="vacuum"):
        report = stabilizer_expectations(CompositeState(layout, amp))
    assert report.cavity_vacuum_population == pytest.approx(1 - 1e-4)


def test_stabilizer_report_warns_on_upper_level():
    layout = SpaceLayout(2, fock_cutoff=2)
    amp = np.zeros(layout.total_dim, dtype=complex)
    amp[basis_index(layout, (0, 0), 0)] = math.sqrt(1 - 1e-4)
    amp[basis_index(layout, (2, 0), 0)] = math.sqrt(1e-4)
    with pytest.warns(UserWarning, match="population"):
        stabilizer_expectations(CompositeState(layout, amp))


def test_stabilizer_readout_takes_the_chain_length_from_the_layout():
    # the same 81 amplitudes read as 3 SQUIDs at cutoff 2 and as 2 SQUIDs
    # at cutoff 8: one generator per SQUID of the layout, each as the dense
    # route reads it on that layout
    amplitudes = cluster_state_oracle(3).amplitudes
    for layout in (SpaceLayout(3, 2), SpaceLayout(2, 8)):
        state = CompositeState(layout, amplitudes)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            report = stabilizer_expectations(state)
        assert report.expectations.shape == (layout.n_squids,)
        dense = _dense_expectations(state, layout.n_squids)
        assert report.expectations.tobytes() == dense.tobytes()
