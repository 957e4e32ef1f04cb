import itertools
import json
import math

import numpy as np
import pytest

from squidcavity import (
    CavitySegment,
    DriveSegment,
    GateParams,
    SpaceLayout,
    basis_index,
    basis_state,
    chain_initial_state,
    cluster_chain_schedule,
    cluster_state_oracle,
    evolve_pure,
    gate_condition_residuals,
    prepare_superposition,
    qcpg_schedule,
    rotation_pulse,
    state_fidelity,
)
from squidcavity.cli import main
from squidcavity.verification import cavity_vacuum_population

from conftest import tensor_state


def test_schedule_concatenation_and_duration():
    seg_a = DriveSegment(0, (0, 1), 1.0, 0.5)
    seg_b = DriveSegment(1, (1, 2), 2.0, 0.25)
    sched = (seg_a,) + (seg_b,)
    assert len(sched) == 2
    assert list(sched) == [seg_a, seg_b]
    assert sum(seg.duration for seg in sched) == pytest.approx(0.75)


def test_schedule_rejects_negative_duration():
    # a segment refuses a bad duration when it is built, NaN included
    for duration in (-1e-9, math.nan, math.inf, 10**400):
        with pytest.raises(ValueError, match="duration must be finite and >= 0"):
            DriveSegment(0, (0, 1), 1.0, duration)
        with pytest.raises(ValueError, match="duration must be finite and >= 0"):
            CavitySegment(0, 1, 1.0, 1.0, duration)


def test_drive_segment_validation():
    for transition, rabi, phase in (
        ((1, 1), 1.0, 0.0),  # transition levels must differ
        ((1, 3), 1.0, 0.0),
        # a level is an int, never read from a bool or a float
        ((True, 2), 1.0, 0.0),
        ((1.0, 2), 1.0, 0.0),
        ((0, 1), -1.0, 0.0),
        ((0, 1), math.nan, 0.0),
        ((0, 1), math.inf, 0.0),
        # an integer too large for a float, refused before its generator is built
        ((0, 1), 10**400, 0.0),
        # a phase is refused when the segment is built, not in its generator
        ((1, 2), 1.0, math.nan),
        ((1, 2), 1.0, math.inf),
        ((1, 2), 1.0, -math.inf),
        ((1, 2), 1.0, 10**400),
    ):
        with pytest.raises(ValueError):
            DriveSegment(0, transition, rabi, 1.0, phase)
    # a SQUID index is a non-negative integer: -1 would address the cavity
    # and -2 the last SQUID, and a bool or a float is not an index
    for squid in (-1, -2, True, 1.0):
        with pytest.raises(ValueError, match="target_squid must be an integer >= 0"):
            DriveSegment(squid, (0, 1), 1.0, 1.0)
    # any finite phase stays legal
    for phase in (-1.7e308, -1, 0, 5e-324, 1.7e308):
        segment = DriveSegment(0, (1, 2), 1.0, 1.0, phase)
        assert np.isfinite(segment.hamiltonian(2).matrix).all()


def test_cavity_segment_validation():
    for squid_b, omega_1, omega_2 in (
        (0, 1.0, 1.0),  # the two SQUIDs must differ
        (1, -1.0, 1.0),
        (1, math.nan, 1.0),
        (1, 1.0, math.nan),
        (1, math.inf, 1.0),
        (1, 1.0, math.inf),
        (1, 10**400, 1.0),
        (1, 1.0, 10**400),
        # a SQUID index is a non-negative integer, and a bool is not one
        (-1, 1.0, 1.0),
        (-2, 1.0, 1.0),
        (True, 1.0, 1.0),
        (1.0, 1.0, 1.0),
    ):
        with pytest.raises(ValueError):
            CavitySegment(0, squid_b, omega_1, omega_2, 1.0)
    with pytest.raises(ValueError, match="squid_a must be an integer >= 0"):
        CavitySegment(-2, -3, 1e8, 1e8, 1e-8)


def test_gate_params_defaults_satisfy_conditions():
    params = GateParams()
    assert params.omega_2 == pytest.approx(math.sqrt(3) * params.omega_1)
    assert params.resolved_cavity_time == pytest.approx(math.pi / params.omega_1)
    assert params.resolved_pulse_duration == pytest.approx(math.pi / (2 * params.drive_rabi))
    phase_res, mod_res = gate_condition_residuals(params)
    assert phase_res <= 1e-9
    assert mod_res <= 1e-6


def test_gate_params_validation():
    with pytest.raises(ValueError):
        GateParams(omega_1=0.0)
    with pytest.raises(ValueError):
        GateParams(drive_rabi=-1.0)
    with pytest.raises(ValueError, match="ratio"):
        GateParams(ratio=0.0)
    with pytest.raises(ValueError, match="cavity_time"):
        GateParams(cavity_time=-1e-9)
    for name in ("omega_1", "ratio", "drive_rabi", "cavity_time", "pulse_duration"):
        # an integer too large for a float is refused too, not an OverflowError
        for bad in (math.nan, math.inf, -math.inf, 10**400):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                GateParams(**{name: bad})
    # finite inputs whose derived values overflow
    with pytest.raises(ValueError, match="omega_2 must be finite"):
        GateParams(ratio=1e300)
    # integers whose exact product no float can hold
    with pytest.raises(ValueError, match="omega_2 must be finite"):
        GateParams(omega_1=10**200, ratio=10**200)
    with pytest.raises(ValueError, match="omega_1 \\* cavity_time must be finite"):
        GateParams(omega_1=10**200, cavity_time=10**200)
    with pytest.raises(ValueError, match="resolved_cavity_time must be finite"):
        GateParams(omega_1=1e-310)
    with pytest.raises(ValueError, match="resolved_pulse_duration must be finite"):
        GateParams(drive_rabi=1e-310)
    # finite inputs and derived values whose phases overflow
    with pytest.raises(ValueError, match="omega_1 \\* cavity_time must be finite"):
        GateParams(omega_1=1e300, cavity_time=1e10)
    with pytest.raises(ValueError, match="omega \\* cavity_time must be finite"):
        GateParams(ratio=1e10, cavity_time=1e291)
    with pytest.raises(ValueError, match="drive_rabi \\* pulse_duration must be finite"):
        GateParams(drive_rabi=1e10, pulse_duration=1e300)


def test_gate_conditions_detect_bad_ratio():
    # ratio 1 keeps cos(omega_1 t) = -1 but breaks the mod-2pi condition
    phase_res, mod_res = gate_condition_residuals(GateParams(ratio=1.0))
    assert phase_res <= 1e-9
    assert mod_res > 0.5


def test_rotation_pulse_duration_and_range():
    sched = rotation_pulse(0, (0, 1), math.pi / 3, rabi=2.0)
    assert len(sched) == 1
    assert sched[0].duration == pytest.approx(math.pi / 6)
    with pytest.raises(ValueError):
        rotation_pulse(0, (0, 1), -0.1)
    with pytest.raises(ValueError):
        rotation_pulse(0, (0, 1), 2 * math.pi)
    # the rate is checked before it divides the angle: 0.0 would raise
    # ZeroDivisionError
    for rabi in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rabi must be finite and > 0"):
            rotation_pulse(0, (0, 1), math.pi / 3, rabi=rabi)
        with pytest.raises(ValueError, match="rabi must be finite and > 0"):
            prepare_superposition(0, rabi)


def test_prepare_superposition_from_level_1():
    layout = SpaceLayout(1, fock_cutoff=1)
    out = evolve_pure(basis_state(layout, (1,)), prepare_superposition(0))
    want = tensor_state([np.array([1, 1, 0]) / math.sqrt(2), (1, 0)])
    assert state_fidelity(out, want) >= 1 - 1e-12


def test_prepare_superposition_twice_reaches_level_0():
    layout = SpaceLayout(1, fock_cutoff=1)
    sched = prepare_superposition(0) + prepare_superposition(0)
    out = evolve_pure(basis_state(layout, (1,)), sched)
    assert state_fidelity(out, basis_state(layout, (0,))) >= 1 - 1e-12


def test_prepare_superposition_from_level_0_flips_sign():
    layout = SpaceLayout(1, fock_cutoff=1)
    out = evolve_pure(basis_state(layout, (0,)), prepare_superposition(0))
    want = tensor_state([np.array([1, -1, 0]) / math.sqrt(2), (1, 0)])
    assert state_fidelity(out, want) >= 1 - 1e-12


def test_qcpg_schedule_structure():
    sched = qcpg_schedule(0, 1)
    assert len(sched) == 3
    up, exchange, down = sched
    assert isinstance(up, DriveSegment)
    assert isinstance(exchange, CavitySegment)
    assert isinstance(down, DriveSegment)
    # both drive pulses hit the target's upper transition, phases pi then 0
    assert up.target_squid == 1
    assert up.transition == (1, 2)
    assert up.phase == pytest.approx(math.pi)
    assert down.phase == 0.0
    assert up.duration == pytest.approx(down.duration)
    assert exchange.squid_a == 0
    assert exchange.squid_b == 1
    assert exchange.omega_2 == pytest.approx(math.sqrt(3) * exchange.omega_1)


def test_qcpg_schedule_rejects_same_squid():
    with pytest.raises(ValueError):
        qcpg_schedule(1, 1)


def test_qcpg_warns_on_broken_conditions():
    params = GateParams(cavity_time=1.1 * math.pi / 1.8e8)
    with pytest.warns(UserWarning):
        qcpg_schedule(0, 1, params)


def test_qcpg_acts_as_controlled_phase():
    # diag(1, 1, 1, -1) on the computational levels, cavity restored to vacuum
    layout = SpaceLayout(2, fock_cutoff=2)
    sched = qcpg_schedule(0, 1)
    for bits, sign in (((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((1, 1), -1)):
        start = basis_state(layout, bits, 0)
        out = evolve_pure(start, sched)
        amp = out.amplitudes[basis_index(layout, bits, 0)]
        assert abs(amp - sign) <= 1e-9


def test_qcpg_wrong_ratio_leaks():
    params = GateParams(ratio=1.0)
    with pytest.warns(UserWarning):
        sched = qcpg_schedule(0, 1, params)
    layout = SpaceLayout(2, fock_cutoff=2)
    out = evolve_pure(basis_state(layout, (1, 0), 0), sched)
    kept = sum(
        abs(out.amplitudes[basis_index(layout, bits, 0)]) ** 2
        for bits in itertools.product((0, 1), repeat=2)
    )
    assert 1.0 - kept > 0.1


def test_cluster_chain_schedule_shape():
    sched = cluster_chain_schedule(4)
    # 4 preparation pulses + 3 gates of 3 segments each
    assert len(sched) == 4 + 3 * 3
    with pytest.raises(ValueError):
        cluster_chain_schedule(1)


def test_chain_initial_state_all_ones():
    state = chain_initial_state(3)
    idx = basis_index(state.layout, (1, 1, 1), 0)
    assert state.amplitudes[idx] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_cluster_oracle_two_qubit_amplitudes():
    oracle = cluster_state_oracle(2)
    layout = oracle.layout
    for bits, sign in (((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((1, 1), -1)):
        amp = oracle.amplitudes[basis_index(layout, bits, 0)]
        assert amp == pytest.approx(sign * 0.5)
    # no support outside the computational levels or outside vacuum
    assert np.sum(np.abs(oracle.amplitudes) ** 2) == pytest.approx(1.0)
    assert np.count_nonzero(oracle.amplitudes) == 4


def test_cluster_oracle_three_qubit_signs():
    oracle = cluster_state_oracle(3)
    layout = oracle.layout
    scale = 2 ** (-1.5)
    for bits in itertools.product((0, 1), repeat=3):
        sign = (-1) ** (bits[0] * bits[1] + bits[1] * bits[2])
        amp = oracle.amplitudes[basis_index(layout, bits, 0)]
        assert amp == pytest.approx(sign * scale)
    with pytest.raises(ValueError):
        cluster_state_oracle(1)


def test_cluster_oracle_matches_direct_loop():
    # the vectorized oracle must stay bit-identical to one basis_index per bit string
    cases = [(n, 2) for n in range(2, 11)] + [(3, 0), (3, 4)]
    for n_qubits, cutoff in cases:
        layout = SpaceLayout(n_qubits, cutoff)
        want = np.zeros(layout.total_dim, dtype=complex)
        scale = 2.0 ** (-n_qubits / 2.0)
        for bits in itertools.product((0, 1), repeat=n_qubits):
            sign = (-1) ** sum(bits[i] * bits[i + 1] for i in range(n_qubits - 1))
            want[basis_index(layout, bits, 0)] = sign * scale
        got = cluster_state_oracle(n_qubits, cutoff).amplitudes
        assert got.tobytes() == want.tobytes(), (n_qubits, cutoff)


def test_cluster_oracle_written_into_a_buffer_is_the_same_state():
    # whatever the buffer held is zeroed first, and the state is a view of it
    n_qubits, cutoff = 4, 3
    want = cluster_state_oracle(n_qubits, cutoff).amplitudes
    out = np.full(want.shape, 7.0 - 1j)
    oracle = cluster_state_oracle(n_qubits, cutoff, out=out)
    assert oracle.amplitudes.tobytes() == want.tobytes()
    assert np.shares_memory(oracle.amplitudes, out)
    for wrong in (np.zeros(want.size + 1, complex), np.zeros(want.size), np.zeros((want.size, 1))):
        with pytest.raises(ValueError, match=rf"out must be .* of shape \({want.size},\), but"):
            cluster_state_oracle(n_qubits, cutoff, out=wrong)


def test_cluster_generation_matches_oracle():
    for n_qubits, tol in ((2, 1e-10), (4, 1e-9)):
        out = evolve_pure(chain_initial_state(n_qubits), cluster_chain_schedule(n_qubits))
        oracle = cluster_state_oracle(n_qubits)
        assert state_fidelity(out, oracle) >= 1 - tol


def test_cluster_generation_restores_cavity():
    out = evolve_pure(chain_initial_state(3), cluster_chain_schedule(3))
    assert cavity_vacuum_population(out) >= 1 - 1e-10


def test_gate_order_is_interchangeable():
    # adjacent gates share only the cavity bus, which each gate restores, so
    # applying them in any order yields the same chain state
    n_qubits = 4
    prep = ()
    for site in range(n_qubits):
        prep = prep + prepare_superposition(site)
    pair_lists = [
        [(0, 1), (1, 2), (2, 3)],
        [(2, 3), (0, 1), (1, 2)],
        [(1, 2), (2, 3), (0, 1)],
    ]
    states = []
    for pairs in pair_lists:
        sched = prep
        for a, b in pairs:
            sched = sched + qcpg_schedule(a, b)
        states.append(evolve_pure(chain_initial_state(n_qubits), sched))
    for s_a, s_b in itertools.combinations(states, 2):
        assert state_fidelity(s_a, s_b) >= 1 - 1e-9


def test_segment_serialization_keys():
    drive = DriveSegment(1, (1, 2), 8.5e7, 1.8e-8, math.pi)
    row = drive.to_dict()
    assert row == {
        "kind": "drive",
        "sites": [1],
        "transition": "1-e",
        "rabi_per_s": 8.5e7,
        "phase_rad": math.pi,
        "duration_s": 1.8e-8,
    }
    cavity = CavitySegment(0, 1, 1.8e8, 2.0e8, 1.7e-8)
    row = cavity.to_dict()
    assert row["kind"] == "cavity"
    assert row["sites"] == [0, 1, "cavity"]
    assert row["omega_1_per_s"] == 1.8e8


def test_schedule_json_round_trip(tmp_path, capsys):
    sched = qcpg_schedule(0, 1)
    rows = [seg.to_dict() for seg in sched]
    assert [row["kind"] for row in rows] == ["drive", "cavity", "drive"]
    assert main(["truth-table", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "schedule.json").read_text()) == rows
