"""Open-system gate fidelity via process tomography of the master equation.

The controlled-phase gate acts on the 4-dimensional computational subspace
(both SQUIDs in {|0>, |1>}, cavity in vacuum).  To score it as a channel we
evolve all 16 matrix units |p_i><p_j| built on that subspace through the
three-segment schedule under the Lindblad equation, then read off the
entanglement fidelity against the ideal diagonal gate U = diag(1, 1, 1, -1):

    F_pro = (1/16) sum_ij s_i s_j <p_i| E(|p_i><p_j|) |p_j>,

with s = (1, 1, 1, -1) the diagonal of U, and convert to the average gate
fidelity over Haar-random pure inputs, F_avg = (4 F_pro + 1) / 5.

Matrix units with i != j are not density matrices, but the generator is
linear so propagating them is legitimate; Hermiticity of the channel keeps
F_pro real up to rounding.  All 16 units ride a leading batch axis through
one exact exponential exp(L t) per segment (``evolution.exp_lindblad``), so
the score carries no integrator error.  Trace and positivity diagnostics
come from the four diagonal units, which are honest states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .evolution import exp_lindblad, lindblad_substeps, segment_hamiltonian
from .hamiltonians import FeasibilityParams, collapse_operators_from_rates
from .hilbert import SpaceLayout, basis_index, embedded_matrix
from .protocols import GateParams, qcpg_schedule
from .verification import COMPUTATIONAL_BASIS

CZ_SIGNS = (1.0, 1.0, 1.0, -1.0)


@dataclass
class GateProcessResult:
    """Channel-level score of one noisy controlled-phase gate."""

    average_fidelity: float
    process_fidelity: float
    trace_defect: float
    min_eigenvalue: float
    cavity_decay_per_s: float
    gamma_e_per_s: float
    branch_ratio_e_to_0: float
    gate_duration_s: float


def _noisy_gate(gate, cavity_decay_per_s, gamma_e_per_s, branch_ratio_e_to_0, fock_cutoff):
    """Layout, schedule, per-segment (H, duration) and collapse operators."""
    layout = SpaceLayout(2, fock_cutoff)
    schedule = qcpg_schedule(0, 1, gate)
    collapse = collapse_operators_from_rates(
        cavity_decay_per_s,
        gamma_e_per_s,
        branch_ratio_e_to_0,
        n_max=fock_cutoff,
        squids=(0, 1),
    )
    l_full = [embedded_matrix(op, layout) for op in collapse]
    segments = [
        (embedded_matrix(segment_hamiltonian(seg, fock_cutoff), layout), seg.duration)
        for seg in schedule
    ]
    return layout, schedule, segments, l_full


def gate_substeps(
    gate: GateParams = GateParams(),
    cavity_decay_per_s: float = FeasibilityParams().cavity_decay_per_s,
    gamma_e_per_s: float = FeasibilityParams().gamma_e_per_s,
    branch_ratio_e_to_0: float = 0.5,
    fock_cutoff: int = 2,
) -> int:
    """Most propagator sub-steps any one segment of the noisy gate needs.

    Cheap (no propagation); lets a caller check the work against
    ``evolution.MAX_LINDBLAD_SUBSTEPS`` before starting a run.
    """
    _, _, segments, l_full = _noisy_gate(
        gate, cavity_decay_per_s, gamma_e_per_s, branch_ratio_e_to_0, fock_cutoff
    )
    return max(lindblad_substeps(h_full, l_full, t) for h_full, t in segments)


def qcpg_lindblad_fidelity(
    gate: GateParams = GateParams(),
    cavity_decay_per_s: float = FeasibilityParams().cavity_decay_per_s,
    gamma_e_per_s: float = FeasibilityParams().gamma_e_per_s,
    branch_ratio_e_to_0: float = 0.5,
    fock_cutoff: int = 2,
) -> GateProcessResult:
    """Average gate fidelity of the controlled-phase gate under decay.

    Decay acts through the whole schedule: cavity photon loss at
    ``cavity_decay_per_s`` and |e> relaxation at ``gamma_e_per_s`` on both
    SQUIDs, branching to |0> with ``branch_ratio_e_to_0``.  With all rates
    zero this reproduces the unitary gate to rounding.
    """
    layout, schedule, segments, l_full = _noisy_gate(
        gate, cavity_decay_per_s, gamma_e_per_s, branch_ratio_e_to_0, fock_cutoff
    )

    indices = [basis_index(layout, bits, 0) for bits in COMPUTATIONAL_BASIS]
    dim = layout.total_dim
    batch = np.zeros((16, dim, dim), dtype=complex)
    for m, (i, j) in enumerate(itertools.product(range(4), repeat=2)):
        batch[m, indices[i], indices[j]] = 1.0

    for h_full, duration in segments:
        batch = exp_lindblad(batch, h_full, l_full, duration)

    f_pro = 0.0
    for m, (i, j) in enumerate(itertools.product(range(4), repeat=2)):
        f_pro += CZ_SIGNS[i] * CZ_SIGNS[j] * batch[m, indices[i], indices[j]].real
    f_pro /= 16.0
    f_avg = (4.0 * f_pro + 1.0) / 5.0

    diag_units = [batch[m] for m, (i, j) in
                  enumerate(itertools.product(range(4), repeat=2)) if i == j]
    trace_defect = max(abs(np.trace(rho).real - 1.0) for rho in diag_units)
    min_eig = min(
        float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0]) for rho in diag_units
    )
    return GateProcessResult(
        average_fidelity=float(f_avg),
        process_fidelity=float(f_pro),
        trace_defect=float(trace_defect),
        min_eigenvalue=min_eig,
        cavity_decay_per_s=float(cavity_decay_per_s),
        gamma_e_per_s=float(gamma_e_per_s),
        branch_ratio_e_to_0=float(branch_ratio_e_to_0),
        gate_duration_s=float(schedule.total_duration),
    )


def fidelity_sweep(
    parameter: str,
    values,
    gate: GateParams = GateParams(),
    base: FeasibilityParams = FeasibilityParams(),
    fock_cutoff: int = 2,
) -> list[GateProcessResult]:
    """Score the gate at each value of one decay parameter, others held at base.

    ``parameter`` is one of ``cavity_decay``, ``gamma_e``, ``branch_ratio``.
    Results come back in the order of ``values``.
    """
    if parameter not in ("cavity_decay", "gamma_e", "branch_ratio"):
        raise ValueError(
            f"unknown sweep parameter {parameter!r}; expected cavity_decay, "
            "gamma_e, or branch_ratio"
        )
    results = []
    for value in values:
        kwargs = {
            "cavity_decay_per_s": base.cavity_decay_per_s,
            "gamma_e_per_s": base.gamma_e_per_s,
            "branch_ratio_e_to_0": base.branch_ratio_e_to_0,
        }
        key = {
            "cavity_decay": "cavity_decay_per_s",
            "gamma_e": "gamma_e_per_s",
            "branch_ratio": "branch_ratio_e_to_0",
        }[parameter]
        kwargs[key] = float(value)
        results.append(qcpg_lindblad_fidelity(gate, fock_cutoff=fock_cutoff, **kwargs))
    return results
