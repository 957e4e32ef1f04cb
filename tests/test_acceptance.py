"""Acceptance gate: every headline criterion at its pinned tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines.
"""

import itertools
import json
import math
import time
import warnings

import numpy as np

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
    expectation,
    feasibility_report,
    noisy_gate,
    prepare_superposition,
    qcpg_lindblad_fidelity,
    qcpg_schedule,
    single_excitation_closed_form,
    stabilizer_expectations,
    state_fidelity,
    truth_table,
)
from squidcavity.cli import main
from squidcavity.evolution import exp_segment, lindblad_segment, propagator
from squidcavity.feasibility import round_to_sig_figures
from squidcavity.hamiltonians import (
    cavity_coupling_hamiltonian,
    collapse_operators_from_rates,
    drive_hamiltonian,
)

from conftest import excitation_number, oracle_embedded


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")


def test_a1_truth_table_through_cli(tmp_path, capsys):
    t0 = time.perf_counter()
    code = main(["truth-table", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    payload = json.loads((tmp_path / "truth_table.json").read_text())
    entry_error = payload["max_entry_error"]
    leakage = payload["leakage"]
    phases_ok = np.allclose(payload["phases_rad"], [0, 0, 0, math.pi], atol=1e-9)
    passed = (
        code == 0
        and entry_error <= 1e-9
        and leakage <= 1e-10
        and phases_ok
        and elapsed < 1.0
    )
    with capsys.disabled():
        _report(
            "A1 truth table",
            passed,
            f"entry error {entry_error:.2e}, leakage {leakage:.2e}, {elapsed:.2f} s",
        )
    assert code == 0
    assert entry_error <= 1e-9
    assert leakage <= 1e-10
    assert phases_ok
    assert elapsed < 1.0


def test_a2_closed_form_matches_numerics(capsys):
    rng = np.random.default_rng(12)
    layout = SpaceLayout(2, fock_cutoff=2)
    start = basis_state(layout, (1, 0), 0)
    indices = [
        basis_index(layout, (1, 0), 0),
        basis_index(layout, (0, 1), 0),
        basis_index(layout, (0, 0), 1),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(5):
        omega_1, omega_2 = rng.uniform(0.2, 4.0, size=2)
        omega = math.hypot(omega_1, omega_2)
        for t in np.linspace(0.0, 6 * math.pi / omega, 100):
            seg = CavitySegment(0, 1, omega_1, omega_2, t)
            out = evolve_pure(start, (seg,))
            want = single_excitation_closed_form(omega_1, omega_2, t).as_array()
            worst = max(worst, float(np.max(np.abs(out.amplitudes[indices] - want))))
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-8 and elapsed < 5.0
    with capsys.disabled():
        _report(
            "A2 exchange closed form",
            passed,
            f"worst deviation {worst:.2e} over 5 pairs x 100 points, {elapsed:.2f} s",
        )
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_a3_cluster_chains(capsys):
    worst_fidelity = 1.0
    worst_stabilizer = 1.0
    worst_vacuum = 1.0
    elapsed_8 = 0.0
    for n_qubits in range(2, 9):
        t0 = time.perf_counter()
        state = evolve_pure(chain_initial_state(n_qubits), cluster_chain_schedule(n_qubits))
        elapsed = time.perf_counter() - t0
        if n_qubits == 8:
            elapsed_8 = elapsed
        fidelity = state_fidelity(state, cluster_state_oracle(n_qubits))
        report = stabilizer_expectations(state, n_qubits)
        worst_fidelity = min(worst_fidelity, fidelity)
        worst_stabilizer = min(worst_stabilizer, report.min_expectation)
        worst_vacuum = min(worst_vacuum, report.cavity_vacuum_population)
    passed = (
        worst_fidelity >= 1 - 1e-9
        and worst_stabilizer >= 1 - 1e-9
        and worst_vacuum >= 1 - 1e-10
        and elapsed_8 < 10.0
    )
    with capsys.disabled():
        _report(
            "A3 cluster chains 2..8",
            passed,
            f"min fidelity {worst_fidelity:.12f}, min stabilizer "
            f"{worst_stabilizer:.12f}, min vacuum {worst_vacuum:.12f}, "
            f"N=8 in {elapsed_8:.2f} s",
        )
    assert worst_fidelity >= 1 - 1e-9
    assert worst_stabilizer >= 1 - 1e-9
    assert worst_vacuum >= 1 - 1e-10
    assert elapsed_8 < 10.0


def test_a4_feasibility_numbers(capsys):
    report = feasibility_report()
    checks = [
        round_to_sig_figures(report.cavity_lifetime_s, 2) == 2.0e-5,
        abs(round_to_sig_figures(report.exchange_window_s, 4) - 1.745e-8) < 1e-20,
        abs(round_to_sig_figures(report.pulse_window_s, 4) - 1.848e-8) < 1e-20,
        abs(round_to_sig_figures(report.cooperativity, 3) - 1.62e6) < 1e-6,
        report.passed,
    ]
    passed = all(checks)
    with capsys.disabled():
        _report(
            "A4 feasibility point",
            passed,
            f"lifetime {report.cavity_lifetime_s:.4e} s, exchange "
            f"{report.exchange_window_s:.4e} s, pulse {report.pulse_window_s:.4e} s, "
            f"cooperativity {report.cooperativity:.3e}",
        )
    assert all(checks)


def test_a5_lindblad_gate_fidelity(capsys):
    t0 = time.perf_counter()
    physical = qcpg_lindblad_fidelity(noisy_gate())
    lossless = qcpg_lindblad_fidelity(noisy_gate(cavity_decay_per_s=0.0, gamma_e_per_s=0.0))
    elapsed = time.perf_counter() - t0
    passed = (
        0.98 <= physical.average_fidelity <= 1 - 1e-4
        and lossless.average_fidelity >= 1 - 1e-8
        and elapsed < 60.0
    )
    with capsys.disabled():
        _report(
            "A5 decoherence fidelity",
            passed,
            f"physical rates {physical.average_fidelity:.6f}, lossless "
            f"{lossless.average_fidelity:.12f}, {elapsed:.1f} s",
        )
    assert 0.98 <= physical.average_fidelity <= 1 - 1e-4
    assert lossless.average_fidelity >= 1 - 1e-8
    assert elapsed < 60.0


def test_a6_invariants_and_negative_checks(capsys):
    rng = np.random.default_rng(99)
    layout = SpaceLayout(2, fock_cutoff=2)
    checks = {}

    # Hermiticity of every generated Hamiltonian
    defect = 0.0
    for _ in range(20):
        a, b = rng.choice(3, size=2, replace=False)
        h = drive_hamiltonian(
            0, (int(a), int(b)), rng.uniform(0.1, 3.0), rng.uniform(0, 2 * math.pi)
        )
        full = oracle_embedded(h, layout)
        defect = max(defect, float(np.max(np.abs(full - full.conj().T))))
        h = cavity_coupling_hamiltonian(0, 1, rng.uniform(0.1, 3.0), rng.uniform(0.0, 3.0), 2)
        full = oracle_embedded(h, layout)
        defect = max(defect, float(np.max(np.abs(full - full.conj().T))))
    checks["hermiticity"] = defect <= 1e-12

    # unitarity of propagators
    defect = 0.0
    for _ in range(10):
        h = cavity_coupling_hamiltonian(0, 1, rng.uniform(0.1, 3.0), rng.uniform(0.0, 3.0), 2)
        u = propagator(h, rng.uniform(0.0, 5.0)).matrix
        defect = max(defect, float(np.max(np.abs(u.conj().T @ u - np.eye(27)))))
    checks["unitarity"] = defect <= 1e-12

    # norm preservation through a mixed schedule
    amp = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    state = CompositeState(layout, amp / np.linalg.norm(amp))
    schedule = (
        prepare_superposition(0)
        + (CavitySegment(0, 1, 1.8e8, 1.1e8, 3e-9),)
        + prepare_superposition(1)
    )
    out = evolve_pure(state, schedule)
    checks["norm preservation"] = abs(out.norm() - 1.0) <= 1e-10

    # trace preservation of the dissipative propagator
    cavity_layout = SpaceLayout(1, fock_cutoff=2)
    amp = basis_state(cavity_layout, (0,), 1).amplitudes
    ops = collapse_operators_from_rates(5e4, 0.0, 0.5, n_max=2)
    l_full = [oracle_embedded(op, cavity_layout) for op in ops]
    zero_h = oracle_embedded(drive_hamiltonian(0, (0, 1), 0.0, 0.0), cavity_layout)
    rho = exp_segment(np.outer(amp, amp.conj()), lindblad_segment(zero_h, l_full, 2e-5))
    checks["trace preservation"] = abs(np.trace(rho).real - 1.0) <= 1e-8

    # dark state of the exchange stays put
    omega_1, omega_2 = 1.3, 2.1
    omega = math.hypot(omega_1, omega_2)
    amp = np.zeros(layout.total_dim, dtype=complex)
    amp[basis_index(layout, (1, 0), 0)] = omega_2 / omega
    amp[basis_index(layout, (0, 1), 0)] = -omega_1 / omega
    dark = CompositeState(layout, amp)
    seg = CavitySegment(0, 1, omega_1, omega_2, 2.7)
    out = evolve_pure(dark, (seg,))
    checks["dark state"] = state_fidelity(out, dark) >= 1 - 1e-10

    # total excitation number is conserved by the exchange
    amp = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    state = CompositeState(layout, amp / np.linalg.norm(amp))
    n_op = excitation_number(2)
    before = expectation(state, n_op).real
    out = evolve_pure(state, (seg,))
    checks["excitation conservation"] = abs(expectation(out, n_op).real - before) <= 1e-10

    # gates on different pairs commute: permuted chain builds agree
    n_qubits = 4
    prep = ()
    for site in range(n_qubits):
        prep = prep + prepare_superposition(site)
    orders = [[(0, 1), (1, 2), (2, 3)], [(2, 3), (0, 1), (1, 2)]]
    states = []
    for pairs in orders:
        sched = prep
        for a, b in pairs:
            sched = sched + qcpg_schedule(a, b)
        states.append(evolve_pure(chain_initial_state(n_qubits), sched))
    checks["gate commutation"] = state_fidelity(states[0], states[1]) >= 1 - 1e-9

    # negative: equal couplings leak out of the computational subspace
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bad_ratio = truth_table(qcpg_schedule(0, 1, GateParams(ratio=1.0)))
        doubled = truth_table(
            qcpg_schedule(0, 1, GateParams(cavity_time=2 * math.pi / 1.8e8))
        )
    checks["wrong ratio leaks"] = (not bad_ratio.passed) and bad_ratio.leakage > 0.1
    # negative: doubling the window erases the conditional sign
    checks["doubled window no phase"] = (not doubled.passed) and bool(
        np.allclose(doubled.phases, 0.0, atol=1e-6)
    )

    failed = sorted(name for name, ok in checks.items() if not ok)
    passed = not failed
    with capsys.disabled():
        detail = f"{len(checks)} checks" if passed else "failed: " + ", ".join(failed)
        _report("A6 invariants", passed, detail)
    assert not failed
