"""Gate truth tables, fidelities, and cluster-state stabilizer checks.

A schedule here is any tuple of ``protocols`` segments, handed as it is to
``evolution.propagate_in_pair``, so this module never asks which kind of
segment it holds.  The truth table runs on a two-SQUID layout, where
``hilbert`` refuses any site but SQUIDs 0 and 1 and the cavity.

The chain generators K_i = Z_{i-1} X_i Z_{i+1} act on the logical levels
and as the identity on |e>, so each is a signed permutation of the
amplitudes.  ``stabilizer_expectations`` applies it with slice copies and
one sign flip per neighbour into one state-sized buffer, then takes
<psi|K_i psi>.  The buffer is the caller's where it has one to lend, as
the ``cluster`` command lends the idle half of its run's buffer pair, so
that a whole chain run holds two states and no third; otherwise it is
allocated once per call.  A dense K_i holds one +-1 and exact zeros per
row, so the operator kernel ``hilbert.contract`` gives the same vector up
to the sign of zero entries and the same expectation bits; the tests keep
that dense route as the reference.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .evolution import propagate_in_pair
from .hilbert import (
    LEVEL_0,
    LEVEL_1,
    LEVEL_E,
    SQUID_DIM,
    CompositeState,
    SpaceLayout,
    basis_index,
)

COMPUTATIONAL_BASIS = ((0, 0), (0, 1), (1, 0), (1, 1))
# the target gate diag(1, 1, 1, -1) over COMPUTATIONAL_BASIS
CZ_SIGNS = (1.0, 1.0, 1.0, -1.0)
CZ_DIAG = np.diag(CZ_SIGNS).astype(complex)

DEFAULT_ENTRY_TOL = 1e-9
DEFAULT_LEAKAGE_TOL = 1e-10

_E_POPULATION_WARN = 1e-8
_VACUUM_WARN = 1e-8


def computational_propagator(
    schedule: tuple, fock_cutoff: int = 2
) -> tuple[np.ndarray, np.ndarray]:
    """Extract the 4x4 action of a schedule on the computational subspace.

    Column j holds the projection onto (computational x vacuum) of the
    evolved j-th basis input |b0 b1> x |vac>, ordered 00, 01, 10, 11 over
    SQUIDs 0 and 1, the only SQUIDs the schedule may touch: the layout has
    no other, so a segment on any other SQUID raises ``ValueError``.
    Returns (matrix, per-column leakage), leakage being the probability
    that escaped the projected subspace.

    The inputs are written straight into the first half of the run's
    (2, total_dim, 4) buffer pair and go through
    ``evolution.propagate_in_pair`` as one block, so each segment's
    propagator is built once and no separate input block is allocated.
    """
    layout = SpaceLayout(2, fock_cutoff)
    indices = [basis_index(layout, bits, 0) for bits in COMPUTATIONAL_BASIS]
    pair = np.zeros((2, layout.total_dim, 4), dtype=complex)
    pair[0, indices, range(4)] = 1.0
    matrix = propagate_in_pair(layout, schedule, pair)[0][indices]
    # clamp rounding-level negatives; leakage is a probability
    leakage = np.maximum(0.0, 1.0 - np.sum(np.abs(matrix) ** 2, axis=0))
    return matrix, leakage


@dataclass
class TruthTableReport:
    """4x4 extracted propagator with phase and leakage diagnostics."""

    matrix: np.ndarray
    phases: np.ndarray
    per_column_leakage: np.ndarray
    leakage: float
    max_entry_error: float
    entry_tol: float
    leakage_tol: float
    passed: bool


def truth_table(schedule: tuple, fock_cutoff: int = 2) -> TruthTableReport:
    """Compare a schedule's computational action against diag(1, 1, 1, -1).

    Phases are normalized to the first nonzero diagonal entry, so the report
    is insensitive to a global phase; the ideal gate reads (0, 0, 0, pi).
    The schedule passes within ``DEFAULT_ENTRY_TOL`` and ``DEFAULT_LEAKAGE_TOL``.
    """
    matrix, leakage = computational_propagator(schedule, fock_cutoff)
    ref = 1.0 + 0j
    for j in range(4):
        if abs(matrix[j, j]) > 1e-12:
            ref = matrix[j, j] / abs(matrix[j, j])
            break
    normalized = matrix * np.conj(ref)
    phases = np.angle(np.where(np.abs(np.diag(normalized)) > 1e-12, np.diag(normalized), 1.0))
    # represent angles in [-pi/2, 3pi/2) so the sign flip reads +pi, never
    # -pi, whichever side of the branch cut rounding lands on
    phases = np.mod(phases + np.pi / 2, 2 * np.pi) - np.pi / 2
    max_entry_error = float(np.max(np.abs(normalized - CZ_DIAG)))
    max_leakage = float(np.max(leakage))
    passed = max_entry_error <= DEFAULT_ENTRY_TOL and max_leakage <= DEFAULT_LEAKAGE_TOL
    return TruthTableReport(
        matrix=matrix,
        phases=phases,
        per_column_leakage=leakage,
        leakage=max_leakage,
        max_entry_error=max_entry_error,
        entry_tol=DEFAULT_ENTRY_TOL,
        leakage_tol=DEFAULT_LEAKAGE_TOL,
        passed=passed,
    )


def state_fidelity(psi: CompositeState, phi: CompositeState) -> float:
    """|<psi|phi>|^2 for two states on the same layout."""
    if psi.layout != phi.layout:
        raise ValueError(f"layout mismatch: {psi.layout} vs {phi.layout}")
    for name, state in (("first", psi), ("second", phi)):
        norm = state.norm()
        # written so that a NaN norm fails too
        if not abs(norm - 1.0) <= 1e-8:
            raise ValueError(f"{name} state is not normalized (norm {norm!r})")
    return float(abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2)


def cavity_vacuum_population(state: CompositeState) -> float:
    """Probability of the cavity digit being 0."""
    psi = state.amplitudes.reshape(state.layout.dims)
    return float(np.sum(np.abs(psi[..., 0]) ** 2))


def _upper_level_population(state: CompositeState) -> float:
    psi = state.amplitudes.reshape(state.layout.dims)
    logical = psi[(slice(0, 2),) * state.layout.n_squids]
    return 1.0 - float(np.sum(np.abs(logical) ** 2))


def _apply_chain_stabilizer(
    psi: np.ndarray, n_qubits: int, i: int, out: np.ndarray
) -> np.ndarray:
    """Write K_i psi into ``out`` and return it.

    K_i = Z_{i-1} X_i Z_{i+1} (boundary terms drop a neighbour), with X and
    Z acting on the logical pair {|0>, |1>} and leaving |e> alone.  It
    permutes the amplitudes up to sign: on the view (3^lo, 3, .., 3, rest)
    over SQUIDs lo..hi = i-1..i+1, three slice copies swap levels 0 and 1 of
    SQUID i, and each neighbour's level-1 slice is negated in place.  Both
    C-contiguous arrays are handled as their float64 real and imaginary
    parts, which numpy negates several times faster than complex numbers,
    with the same bits.
    """
    lo, hi = max(i - 1, 0), min(i + 1, n_qubits - 1)
    shape = (SQUID_DIM**lo,) + (SQUID_DIM,) * (hi - lo + 1) + (-1,)
    view = psi.view(np.float64).reshape(shape)
    target = out.view(np.float64).reshape(shape)

    def level(site, value):
        return (slice(None),) * (1 + site - lo) + (value,)

    target[level(i, LEVEL_0)] = view[level(i, LEVEL_1)]
    target[level(i, LEVEL_1)] = view[level(i, LEVEL_0)]
    target[level(i, LEVEL_E)] = view[level(i, LEVEL_E)]
    for site in {lo, hi} - {i}:
        np.negative(target[level(site, LEVEL_1)], out=target[level(site, LEVEL_1)])
    return out


@dataclass
class StabilizerReport:
    expectations: np.ndarray
    min_expectation: float
    cavity_vacuum_population: float


def stabilizer_expectations(
    state: CompositeState, scratch: np.ndarray | None = None
) -> StabilizerReport:
    """<K_i> for every chain generator; all +1 on the exact cluster state.

    The chain holds every SQUID of the state's layout.  Each K_i psi is
    written into ``scratch``, a C-contiguous complex vector of the layout's
    dimension apart from the amplitudes, such as the idle half of the run's
    buffer pair, or into one buffer allocated for the call.  Every entry of
    it is written for each K_i, so its contents on the way in do not matter.
    """
    vacuum = cavity_vacuum_population(state)
    if 1.0 - vacuum > _VACUUM_WARN:
        warnings.warn(
            f"cavity vacuum population is only {vacuum!r}; stabilizers assume "
            "a disentangled cavity",
            stacklevel=2,
        )
    e_pop = _upper_level_population(state)
    if e_pop > _E_POPULATION_WARN:
        warnings.warn(
            f"|e> population {e_pop:.3e} exceeds {_E_POPULATION_WARN:.0e}; "
            "stabilizers act as identity on |e>",
            stacklevel=2,
        )
    n = state.layout.n_squids
    psi = np.ascontiguousarray(state.amplitudes)
    if scratch is None:
        # one buffer for every K_i psi, freed with the call
        applied = np.empty_like(psi)
    elif (
        scratch.shape != psi.shape
        or scratch.dtype != complex
        or not scratch.flags.c_contiguous
        or np.may_share_memory(scratch, psi)
    ):
        raise ValueError(
            "scratch must be a C-contiguous complex vector shaped like the amplitudes, "
            "apart from them"
        )
    else:
        applied = scratch
    values = np.array(
        [
            np.vdot(psi, _apply_chain_stabilizer(psi, n, i, applied)).real
            for i in range(n)
        ]
    )
    return StabilizerReport(
        expectations=values,
        min_expectation=float(values.min()),
        cavity_vacuum_population=vacuum,
    )
