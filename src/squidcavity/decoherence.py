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
operator L_k and every L_k^dag L_k maps into itself.  ``noisy_gate`` walks
to it from the four computational states over each operator's local
non-zero pattern, with no matrix over the whole space: an operator on some
factors is its matrix there times the identity on the rest, so it maps a
basis state only onto states with the same digits off its factors, and on
its factors onto the rows where the pattern's column at the state's digits
is non-zero.  A jump operator's pattern p is widened to p | p^T p, the
boolean product that holds every non-zero of L_k^dag L_k with no complex
product and so no overflow (it holds more only where the terms of a
product cancel exactly, which could keep a state more, never one less).
The walk repeats until it adds no state.  Each generator is then
``contract``ed onto the identity's columns at S and cut to S's rows, so
the one matrix over the whole two-SQUID space a build holds is the
exchange Hamiltonian, whose sites span it.

If rho is supported on S x S, so are H rho, rho H, L_k rho L_k^dag and the
anticommutator terms (H and L_k^dag L_k are Hermitian, so they keep S from
the right as well): each product only sums over entries inside S, and the
entries outside stay exactly 0.  The segment channels therefore keep every
matrix unit on S x S, and slicing the generators to S changes no product
except by dropping terms that are exactly zero.  S holds 11 states at every
cutoff >= 2: the drive only couples |1> and |e> of the target, the exchange
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
    ``LindbladSegment`` sized once when it was built.  A collapse operator
    that is all zero on the subspace is left out: its terms in the drift
    and the jump sum are exactly zero.  SQUID 0, the control, never
    reaches |e>, so at the default rates a segment carries 3 of the 5
    operators, and 2 of 3 at a branch ratio of 0 or 1.
    """

    kept: tuple[int, ...]
    computational: tuple[int, ...]
    segments: tuple[LindbladSegment, ...]
    gate_duration_s: float


def _sites_last(layout, op) -> list[int]:
    """The layout's axes with ``op``'s factors last, in operator order."""
    factors, _ = layout.operator_dims(op)
    return [f for f in range(layout.n_factors) if f not in factors] + list(factors)


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
    layout = SpaceLayout(2, fock_cutoff)
    schedule = qcpg_schedule(0, 1, gate)
    hamiltonians = [seg.hamiltonian(fock_cutoff) for seg in schedule]
    collapse = collapse_operators_from_rates(
        cavity_decay_per_s, gamma_e_per_s, branch_ratio_e_to_0, fock_cutoff=fock_cutoff
    )
    # each operator's local non-zero pattern, a jump's with that of L^dag L
    patterns = [(_sites_last(layout, op), op.matrix != 0) for op in hamiltonians]
    patterns += [(_sites_last(layout, op), (p := op.matrix != 0) | p.T @ p) for op in collapse]
    seeds = [basis_index(layout, bits, 0) for bits in COMPUTATIONAL_BASIS]
    inside = np.zeros(layout.dims, dtype=bool)
    inside.flat[seeds] = True
    # grow the seeds through every pattern until no state is added
    size = 0
    while size < inside.sum():
        size = inside.sum()
        for order, pattern in patterns:
            # one row per setting of the other factors, one column per
            # setting of the operator's
            columns = inside.transpose(order)
            columns |= (columns.reshape(-1, len(pattern)) @ pattern.T).reshape(columns.shape)
    rows = np.flatnonzero(inside)
    kept = tuple(rows.tolist())
    # the identity's columns at the kept states: each generator's own columns
    block = np.zeros((layout.total_dim, len(kept)), dtype=complex)
    block[rows, range(len(kept))] = 1.0
    l_ops = [l for op in collapse if (l := contract(layout, op, block)[rows]).any()]
    return NoisyGate(
        kept=kept,
        computational=tuple(kept.index(s) for s in seeds),
        segments=tuple(
            LindbladSegment(contract(layout, h, block)[rows], l_ops, seg.duration)
            for h, seg in zip(hamiltonians, schedule)
        ),
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
    min_eig = min(float(np.linalg.eigvalsh(rho)[0]) for rho in diag_units)
    return GateProcessResult(
        average_fidelity=float(f_avg),
        process_fidelity=float(f_pro),
        trace_defect=float(trace_defect),
        min_eigenvalue=min_eig,
        gate_duration_s=noisy.gate_duration_s,
    )

