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
linear so propagating them is legitimate.  The channel preserves
Hermiticity, so E(|p_j><p_i|) = E(|p_i><p_j|)^dag: only the 10 units with
i <= j are propagated, and the term of a unit with i > j is read from its
partner, whose entry at (p_j, p_i) has the same real part.  The 10 ride
a leading batch axis through one exact exponential exp(L t) per segment
(``evolution.exp_segment``, which runs in real Hermitian coordinates), so
the score carries no integrator error.  ``noisy_gate`` builds each
segment as an ``evolution.LindbladSegment``, which sizes itself once and
raises ``evolution.WorkLimitError`` for work over the sub-step limit, so
a point that cannot run is refused before any point is scored.  The four
diagonal units are Hermitian, so the run leaves out the coordinate rows of
their zero anti-Hermitian parts.
Trace and positivity diagnostics come from the four diagonal units, which
are honest states.

The run never leaves a small subspace, and is carried out on it exactly.
Let S be the smallest set of basis states that contains the four
computational states and that every segment Hamiltonian H, every collapse
operator L_k and every L_k^dag L_k maps into itself.  ``noisy_gate`` reads
it off exact zero patterns: one boolean reach matrix ORs the non-zero
patterns of every full-space H and L_k with the boolean product
(L_k != 0)^T (L_k != 0), which holds every non-zero of L_k^dag L_k with no
complex product and so no overflow (it holds more only where the terms of
a product cancel exactly, which could keep a state more, never one less),
and the four seeds grow through that matrix until nothing changes.  If rho is supported on S x S, so are
H rho, rho H, L_k rho L_k^dag and the anticommutator terms (H and
L_k^dag L_k are Hermitian, so they keep S from the right as well): each
product only sums over entries inside S, and the entries outside stay
exactly 0.  The segment channels therefore keep every matrix unit on
S x S, and slicing the generators to S changes no product except by
dropping terms that are exactly zero.  S holds 11 states at every cutoff
>= 2: the drive only couples |1> and |e> of the target, the exchange
conserves the excitation number, and decay only lowers it, so no more than
two photons are ever present.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .evolution import LindbladSegment, exp_segment
from .hamiltonians import FeasibilityParams, collapse_operators_from_rates
from .hilbert import SpaceLayout, basis_index, contract
from .protocols import GateParams, qcpg_schedule
from .verification import COMPUTATIONAL_BASIS, CZ_SIGNS


@dataclass
class GateProcessResult:
    """Channel-level score of one noisy controlled-phase gate."""

    average_fidelity: float
    process_fidelity: float
    trace_defect: float
    min_eigenvalue: float
    gate_duration_s: float


@dataclass(frozen=True)
class NoisyGate:
    """Generators of one noisy gate, sliced to its invariant subspace.

    ``kept`` lists the full-space basis indices of the subspace in ascending
    order and ``computational`` the positions of the four computational
    states within it.  ``segments`` holds each segment's Hamiltonian,
    collapse operators and duration, as matrices on the subspace, each
    ``LindbladSegment`` sized once when it was built.
    """

    kept: tuple[int, ...]
    computational: tuple[int, ...]
    segments: tuple[LindbladSegment, ...]
    gate_duration_s: float


def _full_generators(gate, cavity_decay_per_s, gamma_e_per_s, branch_ratio_e_to_0, fock_cutoff):
    """Layout, schedule, per-segment (H, duration) and collapse operators."""
    layout = SpaceLayout(2, fock_cutoff)
    schedule = qcpg_schedule(0, 1, gate)
    collapse = collapse_operators_from_rates(
        cavity_decay_per_s, gamma_e_per_s, branch_ratio_e_to_0, n_max=fock_cutoff
    )
    # each full-space matrix is the operator applied to the identity block
    eye = np.eye(layout.total_dim, dtype=complex)
    l_full = [contract(layout, op, eye) for op in collapse]
    segments = [
        (contract(layout, seg.hamiltonian(fock_cutoff), eye), seg.duration)
        for seg in schedule
    ]
    return layout, schedule, segments, l_full


def noisy_gate(
    gate: GateParams = GateParams(),
    cavity_decay_per_s: float = FeasibilityParams().cavity_decay_per_s,
    gamma_e_per_s: float = FeasibilityParams().gamma_e_per_s,
    branch_ratio_e_to_0: float = FeasibilityParams().branch_ratio_e_to_0,
    fock_cutoff: int = 2,
) -> NoisyGate:
    """Build the noisy gate's generators on its invariant subspace; no propagation.

    Decay acts through the whole schedule: cavity photon loss at
    ``cavity_decay_per_s`` and |e> relaxation at ``gamma_e_per_s`` on both
    SQUIDs, branching to |0> with ``branch_ratio_e_to_0``.  A point whose
    exact propagation would need more than
    ``evolution.MAX_LINDBLAD_SUBSTEPS`` sub-steps in one segment, or whose
    sizing could overflow, raises ``evolution.WorkLimitError`` here.
    """
    layout, schedule, segments, l_full = _full_generators(
        gate, cavity_decay_per_s, gamma_e_per_s, branch_ratio_e_to_0, fock_cutoff
    )
    seeds = [basis_index(layout, bits, 0) for bits in COMPUTATIONAL_BASIS]
    # reach[i, j]: some generator maps basis state j onto state i
    reach = np.zeros((layout.total_dim,) * 2, dtype=bool)
    for h, _ in segments:
        reach |= h != 0
    for l in l_full:
        pattern = l != 0
        reach |= pattern | pattern.T @ pattern
    inside = np.isin(np.arange(layout.total_dim), seeds)
    # grow the seeds through reach until nothing changes
    while not np.array_equal(inside, grown := inside | reach @ inside):
        inside = grown
    kept = tuple(int(i) for i in np.flatnonzero(inside))
    cut = np.ix_(kept, kept)
    collapse = tuple(l[cut] for l in l_full)
    return NoisyGate(
        kept=kept,
        computational=tuple(kept.index(s) for s in seeds),
        segments=tuple(LindbladSegment(h[cut], collapse, t) for h, t in segments),
        gate_duration_s=float(sum(seg.duration for seg in schedule)),
    )


def qcpg_lindblad_fidelity(noisy: NoisyGate) -> GateProcessResult:
    """Average gate fidelity of the controlled-phase gate under decay.

    ``noisy`` comes from ``noisy_gate``, which fixes the gate, the decay
    rates and the cutoff.  With all rates zero this reproduces the unitary
    gate to rounding.
    """
    indices = noisy.computational
    dim = len(noisy.kept)
    units = list(itertools.product(range(4), repeat=2))
    # E(|p_j><p_i|) = E(|p_i><p_j|)^dag, so only the units with i <= j run
    upper = [(i, j) for i, j in units if i <= j]
    batch = np.zeros((len(upper), dim, dim), dtype=complex)
    for m, (i, j) in enumerate(upper):
        batch[m, indices[i], indices[j]] = 1.0

    for segment in noisy.segments:
        batch = exp_segment(batch, segment)

    channel = dict(zip(upper, batch))
    f_pro = 0.0
    for i, j in units:
        # Re E(|p_j><p_i|) at (p_j, p_i) is Re E(|p_i><p_j|) at (p_i, p_j)
        lo, hi = sorted((i, j))
        f_pro += CZ_SIGNS[lo] * CZ_SIGNS[hi] * channel[lo, hi][indices[lo], indices[hi]].real
    f_pro /= 16.0
    f_avg = (4.0 * f_pro + 1.0) / 5.0

    diag_units = [channel[i, i] for i in range(4)]
    trace_defect = max(abs(np.trace(rho).real - 1.0) for rho in diag_units)
    min_eig = min(
        float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0]) for rho in diag_units
    )
    return GateProcessResult(
        average_fidelity=float(f_avg),
        process_fidelity=float(f_pro),
        trace_defect=float(trace_defect),
        min_eigenvalue=min_eig,
        gate_duration_s=noisy.gate_duration_s,
    )

