import pytest

from squidcavity import (
    MAX_LINDBLAD_SUBSTEPS,
    decoherence,
    fidelity_sweep,
    gate_substeps,
    qcpg_lindblad_fidelity,
)
from squidcavity.evolution import _check_step_size, _rk4_lindblad

# module-scoped fixtures share runs across tests


@pytest.fixture(scope="module")
def baseline_result():
    return qcpg_lindblad_fidelity()


@pytest.fixture(scope="module")
def lossless_result():
    return qcpg_lindblad_fidelity(cavity_decay_per_s=0.0, gamma_e_per_s=0.0)


@pytest.fixture(scope="module")
def heavy_loss_result():
    return qcpg_lindblad_fidelity(cavity_decay_per_s=5e7)


def test_lossless_gate_is_nearly_perfect(lossless_result):
    # the exact propagator leaves only rounding between the channel and U
    assert abs(lossless_result.average_fidelity - 1) <= 1e-12
    assert abs(lossless_result.process_fidelity - 1) <= 1e-12


def test_physical_rates_give_high_but_imperfect_fidelity(baseline_result):
    assert 0.98 <= baseline_result.average_fidelity <= 1 - 1e-4
    # average and process fidelity are tied by F_avg = (4 F_pro + 1) / 5
    want = (4 * baseline_result.process_fidelity + 1) / 5
    assert baseline_result.average_fidelity == pytest.approx(want, abs=1e-12)


def test_exact_propagation_matches_rk4(baseline_result, monkeypatch):
    # the same tomography with every segment integrated by fixed-step RK4 at
    # 2000 steps per segment, an independent route to the same channel
    def rk4(rho, h_full, l_ops, t):
        dt = t / 2000
        _check_step_size(h_full, dt)
        return _rk4_lindblad(rho, h_full, l_ops, t, dt)

    monkeypatch.setattr(decoherence, "exp_lindblad", rk4)
    reference = qcpg_lindblad_fidelity()
    assert abs(baseline_result.average_fidelity - reference.average_fidelity) <= 1e-12
    assert abs(baseline_result.process_fidelity - reference.process_fidelity) <= 1e-12


def test_more_cavity_loss_means_lower_fidelity(baseline_result, heavy_loss_result):
    assert heavy_loss_result.average_fidelity < baseline_result.average_fidelity
    assert heavy_loss_result.cavity_decay_per_s == 5e7


def test_result_diagnostics_are_physical(baseline_result):
    # nothing renormalizes the channel, so trace and positivity drift stay visible
    assert abs(baseline_result.trace_defect) <= 1e-12
    assert baseline_result.min_eigenvalue >= -1e-12
    assert baseline_result.gate_duration_s > 0
    assert baseline_result.gamma_e_per_s == 4e5
    assert baseline_result.branch_ratio_e_to_0 == 0.5


def test_sweep_preserves_order_and_overrides_one_parameter():
    values = [5e6, 5e4]
    results = fidelity_sweep("cavity_decay", values)
    assert [r.cavity_decay_per_s for r in results] == values
    assert all(r.gamma_e_per_s == 4e5 for r in results)
    # larger decay rate scores worse, whatever the list order
    assert results[0].average_fidelity < results[1].average_fidelity


def test_sweep_rejects_unknown_parameter():
    with pytest.raises(ValueError, match="sweep parameter"):
        fidelity_sweep("q_factor", [1.0])


def test_rejects_invalid_rates():
    with pytest.raises(ValueError):
        qcpg_lindblad_fidelity(cavity_decay_per_s=-1.0)
    with pytest.raises(ValueError):
        qcpg_lindblad_fidelity(branch_ratio_e_to_0=1.5)


def test_work_bound_leaves_room_and_refuses_runaway_rates():
    # the default sweep's top rate sits far below the sub-step cap
    assert gate_substeps(cavity_decay_per_s=5e7) * 100 <= MAX_LINDBLAD_SUBSTEPS
    assert gate_substeps(cavity_decay_per_s=1e15) > MAX_LINDBLAD_SUBSTEPS
    with pytest.raises(ValueError, match="sub-steps"):
        qcpg_lindblad_fidelity(cavity_decay_per_s=1e15)
