"""Gate truth tables, fidelities, and cluster-state stabilizer checks.

A schedule here is any tuple of ``protocols`` segments: the checks read
each segment's ``squids`` and hand the schedule to ``evolution.propagate``,
so this module never asks which kind of segment it holds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .evolution import propagate
from .hilbert import (
    SQUID_DIM,
    CompositeState,
    LocalOperator,
    SpaceLayout,
    basis_index,
    expectation,
)

COMPUTATIONAL_BASIS = ((0, 0), (0, 1), (1, 0), (1, 1))
CZ_DIAG = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)

DEFAULT_ENTRY_TOL = 1e-9
DEFAULT_LEAKAGE_TOL = 1e-10

# X and Z act on the logical {|0>, |1>} pair and leave |e> alone
PAULI_X3 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
PAULI_Z3 = np.diag([1.0, -1.0, 1.0]).astype(complex)

_E_POPULATION_WARN = 1e-8
_VACUUM_WARN = 1e-8


def computational_propagator(
    schedule: tuple, fock_cutoff: int = 2
) -> tuple[np.ndarray, np.ndarray]:
    """Extract the 4x4 action of a schedule on the computational subspace.

    Column j holds the projection onto (computational x vacuum) of the
    evolved j-th basis input |b0 b1> x |vac>, ordered 00, 01, 10, 11 over
    SQUIDs 0 and 1, the only SQUIDs the schedule may touch.  Returns
    (matrix, per-column leakage), leakage being the probability that
    escaped the projected subspace.

    The inputs go through ``evolution.propagate`` as one (total_dim, 4)
    block, so each segment's propagator is built once.
    """
    touched = {squid for segment in schedule for squid in segment.squids}
    if not touched <= {0, 1}:
        raise ValueError(
            f"schedule touches SQUIDs {sorted(touched - {0, 1})} outside the pair (0, 1)"
        )
    layout = SpaceLayout(2, fock_cutoff)
    indices = [basis_index(layout, bits, 0) for bits in COMPUTATIONAL_BASIS]
    inputs = np.zeros((layout.total_dim, 4), dtype=complex)
    inputs[indices, range(4)] = 1.0
    matrix = propagate(layout, schedule, inputs)[indices]
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
        if abs(norm - 1.0) > 1e-8:
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


def chain_stabilizer(n_qubits: int, i: int) -> LocalOperator:
    """Generator K_i = Z_{i-1} X_i Z_{i+1} (boundary terms drop a neighbour)."""
    if not 0 <= i < n_qubits:
        raise ValueError(f"generator index {i} outside 0..{n_qubits - 1}")
    sites = []
    mats = []
    if i > 0:
        sites.append(i - 1)
        mats.append(PAULI_Z3)
    sites.append(i)
    mats.append(PAULI_X3)
    if i < n_qubits - 1:
        sites.append(i + 1)
        mats.append(PAULI_Z3)
    matrix = mats[0]
    for m in mats[1:]:
        matrix = np.kron(matrix, m)
    return LocalOperator(
        sites=tuple(sites),
        local_dims=(SQUID_DIM,) * len(sites),
        matrix=matrix,
        hermitian=True,
    )


@dataclass
class StabilizerReport:
    expectations: np.ndarray
    min_expectation: float
    cavity_vacuum_population: float


def stabilizer_expectations(state: CompositeState, n_qubits: int) -> StabilizerReport:
    """<K_i> for every chain generator; all +1 on the exact cluster state."""
    if state.layout.n_squids != n_qubits:
        raise ValueError(
            f"state has {state.layout.n_squids} SQUIDs, expected {n_qubits}"
        )
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
    values = np.array(
        [expectation(state, chain_stabilizer(n_qubits, i)).real for i in range(n_qubits)]
    )
    return StabilizerReport(
        expectations=values,
        min_expectation=float(values.min()),
        cavity_vacuum_population=vacuum,
    )
