import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from squidcavity import (
    MAX_LINDBLAD_SUBSTEPS,
    GateParams,
    SpaceLayout,
    basis_index,
    decoherence,
    evolution,
    noisy_gate,
    qcpg_lindblad_fidelity,
)
from squidcavity.cli import main
from squidcavity.config import PREPARED_POINT_BYTES, SWEEP_PARAMETERS, ConfigError, RunConfig
from squidcavity.evolution import LindbladSegment, WorkLimitError, exp_segment
from squidcavity.verification import COMPUTATIONAL_BASIS, CZ_SIGNS

from conftest import (
    PADE_TOL,
    check_step_size,
    full_generators,
    pade_scores,
    reference_kept,
    rk4_lindblad,
    traced_peak,
)

DATA = Path(__file__).parent / "data"

# points off the default one: heavy cavity loss, heavy |e> decay, all |e>
# decay into |1>, and the smallest cutoff the exchange allows
POINTS = [
    {"cavity_decay_per_s": 5e4},
    {"cavity_decay_per_s": 5e7},
    {"gamma_e_per_s": 4e8},
    {"branch_ratio_e_to_0": 0.0},
    {"fock_cutoff": 1},
]

# module-scoped fixtures share runs across tests


@pytest.fixture(scope="module")
def baseline_result():
    return qcpg_lindblad_fidelity(noisy_gate())


@pytest.fixture(scope="module")
def lossless_result():
    return qcpg_lindblad_fidelity(noisy_gate(cavity_decay_per_s=0.0, gamma_e_per_s=0.0))


@pytest.fixture(scope="module")
def heavy_loss_result():
    return qcpg_lindblad_fidelity(noisy_gate(cavity_decay_per_s=5e7))


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
    calls = []

    def rk4(rho, segment):
        calls.append(rho.shape)
        dt = segment.t / 2000
        check_step_size(segment.h_full, dt)
        return rk4_lindblad(rho, segment.h_full, segment.l_ops, segment.t, dt)

    monkeypatch.setattr(decoherence, "exp_segment", rk4)
    reference = qcpg_lindblad_fidelity(noisy_gate())
    # one call per segment replaces the whole propagation of the ten units
    assert calls == [(10, 11, 11)] * 3
    assert abs(baseline_result.average_fidelity - reference.average_fidelity) <= 1e-12
    assert abs(baseline_result.process_fidelity - reference.process_fidelity) <= 1e-12


def _sweep_point(parameter, value):
    # the gate the decoherence command builds for one sweep value
    config = RunConfig()
    rates = {name: getattr(config.feasibility, name) for name in SWEEP_PARAMETERS.values()}
    rates[SWEEP_PARAMETERS[parameter]] = value
    return noisy_gate(config.gate, fock_cutoff=config.fock_cutoff, **rates)


def _assert_matches_pade_route(noisy, average_fidelity, process_fidelity):
    f_avg, f_pro = pade_scores(noisy)
    assert abs(f_pro - process_fidelity) <= PADE_TOL
    assert abs(f_avg - average_fidelity) <= PADE_TOL


@pytest.mark.parametrize("parameter", ["k", "gamma_e"])
def test_pinned_scores_match_the_pade_route(parameter):
    rows = json.loads((DATA / f"decoherence_{parameter}_rows.json").read_text())
    assert rows
    for row in rows:
        noisy = _sweep_point(parameter, row["value"])
        _assert_matches_pade_route(noisy, row["average_fidelity"], row["process_fidelity"])


def test_default_sweep_matches_the_pade_route():
    sweep = RunConfig().sweep
    assert len(sweep.values) == 4
    for value in sweep.values:
        noisy = _sweep_point(sweep.parameter, value)
        result = qcpg_lindblad_fidelity(noisy)
        _assert_matches_pade_route(noisy, result.average_fidelity, result.process_fidelity)


def test_each_segment_is_sized_once(monkeypatch):
    # the work check and the run share one sizing per segment
    calls = []
    original = evolution._exact_parts

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(evolution, "_exact_parts", counted)
    qcpg_lindblad_fidelity(noisy_gate())
    assert len(calls) == 3


def test_a_prepared_point_fits_its_budget():
    # the sweep cap assumes at most PREPARED_POINT_BYTES per built point
    noisy_gate()
    kept, _, held = traced_peak(
        lambda: [noisy_gate(cavity_decay_per_s=5e4 * (1 + i)) for i in range(20)]
    )
    assert len(kept) == 20
    assert held / 20 <= PREPARED_POINT_BYTES


def test_more_cavity_loss_means_lower_fidelity(baseline_result, heavy_loss_result):
    assert heavy_loss_result.average_fidelity < baseline_result.average_fidelity


def test_result_diagnostics_are_physical(baseline_result):
    # nothing renormalizes the channel, so trace and positivity drift stay visible
    assert abs(baseline_result.trace_defect) <= 1e-12
    assert baseline_result.min_eigenvalue >= -1e-12
    assert baseline_result.gate_duration_s > 0


def test_sweep_preserves_order_and_overrides_one_parameter(tmp_path, capsys):
    assert main(["decoherence", "--values", "5e6,5e4", "--out", str(tmp_path / "k")]) == 0
    k_rows = json.loads((tmp_path / "k" / "decoherence.json").read_text())["rows"]
    assert [row["value"] for row in k_rows] == [5e6, 5e4]
    # larger decay rate scores worse, whatever the list order
    assert k_rows[0]["average_fidelity"] < k_rows[1]["average_fidelity"]
    # sweeping gamma_e at its base value leaves k at its base: the default point
    argv = ["decoherence", "--sweep", "gamma_e", "--values", "4e5"]
    assert main([*argv, "--out", str(tmp_path / "gamma_e")]) == 0
    gamma_rows = json.loads((tmp_path / "gamma_e" / "decoherence.json").read_text())["rows"]
    assert gamma_rows[0]["average_fidelity"] == k_rows[1]["average_fidelity"]
    capsys.readouterr()


def test_rejects_invalid_rates():
    with pytest.raises(ValueError):
        noisy_gate(cavity_decay_per_s=-1.0)
    with pytest.raises(ValueError):
        noisy_gate(branch_ratio_e_to_0=1.5)
    # NaN rates once scored as if that channel were off
    with pytest.raises(ValueError, match="cavity_decay=nan"):
        noisy_gate(cavity_decay_per_s=math.nan)
    with pytest.raises(ValueError, match="gamma_e=nan"):
        noisy_gate(gamma_e_per_s=math.nan)
    # the rates belong to the prepared gate; the scorer takes nothing else
    with pytest.raises(TypeError):
        qcpg_lindblad_fidelity(noisy_gate(), cavity_decay_per_s=5e7)


def test_work_bound_leaves_room_and_refuses_runaway_rates():
    # the default sweep's top rate sits far below the sub-step cap
    segments = noisy_gate(cavity_decay_per_s=5e7).segments
    assert max(segment.substeps for segment in segments) * 100 <= MAX_LINDBLAD_SUBSTEPS
    # a point that could not run is refused when it is built
    with pytest.raises(WorkLimitError, match="sub-steps"):
        noisy_gate(cavity_decay_per_s=1e15)


def _point_args(point):
    args = {
        "cavity_decay_per_s": 5e4,
        "gamma_e_per_s": 4e5,
        "branch_ratio_e_to_0": 0.5,
        "fock_cutoff": 2,
    }
    args.update(point)
    return args


@pytest.mark.parametrize("point", [*POINTS, {"fock_cutoff": 3}])
def test_kept_states_are_closed_under_every_generator(point):
    args = _point_args(point)
    layout, segments, l_full = full_generators(GateParams(), **args)
    kept = list(noisy_gate(**args).kept)
    outside = [i for i in range(layout.total_dim) if i not in kept]
    generators = [h for h, _ in segments] + l_full + [l.conj().T @ l for l in l_full]
    for g in generators:
        assert not np.any(g[np.ix_(outside, kept)])
    assert len(kept) == (10 if args["fock_cutoff"] == 1 else 11)


@pytest.mark.filterwarnings("ignore:gate conditions violated")
@pytest.mark.parametrize("fock_cutoff", [1, 2, 3, 4])
def test_kept_states_match_the_frontier_search(fock_cutoff):
    # every decay channel on and off, at a working and a broken gate: 54
    # points per cutoff, 216 in all
    for ratio, k, gamma_e, branch in itertools.product(
        (math.sqrt(3), 1.5), (0.0, 5e4, 5e7), (0.0, 4e5, 4e7), (0.0, 0.5, 1.0)
    ):
        args = (GateParams(ratio=ratio), k, gamma_e, branch, fock_cutoff)
        assert noisy_gate(*args).kept == reference_kept(*args), args


@pytest.mark.parametrize(
    "branch_ratio, carried", [(0.5, 3), (0.0, 2), (1.0, 2)], ids=["default", "to-1", "to-0"]
)
def test_a_segment_carries_only_the_collapse_operators_that_act(branch_ratio, carried):
    # SQUID 0, the control, never reaches |e>, so its relaxation operators
    # are all zero on the subspace; cavity loss and SQUID 1's branches act
    noisy = noisy_gate(branch_ratio_e_to_0=branch_ratio)
    for segment in noisy.segments:
        assert len(segment.l_ops) == carried
        assert all(np.count_nonzero(l) for l in segment.l_ops)


# the largest cutoff the budget accepts; its exchange generator, 16 bytes
# per entry of a 9 (c + 1)-square matrix, is the one full-space matrix
# a noisy build holds
LARGEST_CUTOFF = 112


def test_the_largest_cutoff_builds_in_twice_its_exchange_generator():
    assert RunConfig(fock_cutoff=LARGEST_CUTOFF).fock_cutoff == LARGEST_CUTOFF
    with pytest.raises(ConfigError, match="budget"):
        RunConfig(fock_cutoff=LARGEST_CUTOFF + 1)
    exchange_bytes = 16 * SpaceLayout(2, LARGEST_CUTOFF).total_dim ** 2
    noisy, peak, _ = traced_peak(lambda: noisy_gate(fock_cutoff=LARGEST_CUTOFF))
    assert len(noisy.kept) == 11
    assert peak <= 2 * exchange_bytes


def _full_space_scores(args):
    # the same tomography on the full 9 (cutoff + 1)-dim space, no cut
    layout, segments, l_full = full_generators(GateParams(), **args)
    idx = [basis_index(layout, bits, 0) for bits in COMPUTATIONAL_BASIS]
    return _sixteen_unit_scores(segments, l_full, idx)


def _sixteen_unit_scores(segments, l_ops, idx):
    # all 16 matrix units propagated, none taken as another's adjoint
    units = list(itertools.product(range(4), repeat=2))
    d = segments[0][0].shape[0]
    batch = np.zeros((16, d, d), dtype=complex)
    for m, (i, j) in enumerate(units):
        batch[m, idx[i], idx[j]] = 1.0
    for h, t in segments:
        batch = exp_segment(batch, LindbladSegment(h, l_ops, t))
    f_pro = sum(
        CZ_SIGNS[i] * CZ_SIGNS[j] * batch[m, idx[i], idx[j]].real
        for m, (i, j) in enumerate(units)
    ) / 16.0
    trace_defect = max(
        abs(np.trace(batch[m]).real - 1.0) for m, (i, j) in enumerate(units) if i == j
    )
    return (4.0 * f_pro + 1.0) / 5.0, f_pro, trace_defect


@pytest.mark.parametrize("point", POINTS)
def test_reduced_run_matches_the_full_space(point):
    args = _point_args(point)
    f_avg, f_pro, trace_defect = _full_space_scores(args)
    result = qcpg_lindblad_fidelity(noisy_gate(**args))
    assert abs(result.average_fidelity - f_avg) <= 1e-13
    assert abs(result.process_fidelity - f_pro) <= 1e-13
    assert abs(result.trace_defect - trace_defect) <= 1e-13


@pytest.mark.parametrize("k", [5e4, 5e7])
def test_ten_units_score_like_sixteen(k):
    noisy = noisy_gate(cavity_decay_per_s=k)
    segments = [(seg.h_full, seg.t) for seg in noisy.segments]
    f_avg, f_pro, trace_defect = _sixteen_unit_scores(
        segments, noisy.segments[0].l_ops, noisy.computational
    )
    result = qcpg_lindblad_fidelity(noisy)
    assert abs(result.average_fidelity - f_avg) <= 1e-15
    assert abs(result.process_fidelity - f_pro) <= 1e-15
    assert abs(result.trace_defect - trace_defect) <= 1e-15


def test_cutoff_two_is_converged():
    f = {
        c: qcpg_lindblad_fidelity(noisy_gate(fock_cutoff=c)).average_fidelity
        for c in (1, 2, 3, 6)
    }
    assert abs(f[3] - f[2]) <= 1e-15
    assert abs(f[6] - f[2]) <= 1e-15
    # one photon is too few: it cuts the two-photon state |0,0,2>, which |1,1,0>
    # reaches in the exchange once |e> decay has spoiled the first pulse
    assert f[1] == pytest.approx(0.99435719, abs=1e-8)
    assert abs(f[1] - f[2]) > 1e-7

