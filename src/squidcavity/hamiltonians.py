"""Hamiltonians for driven and cavity-coupled SQUIDs, plus collapse operators.

Two interaction-picture generators cover everything the protocols need.

Classical drive, resonant with an ordered level pair (a, b) of one SQUID::

    H = i*W*e^{i*phi} |a><b|  -  i*W*e^{-i*phi} |b><a|

where W is the Rabi frequency (rad/s).  For phi = 0 on (|0>, |1>) this is the
textbook i*W(|0><1| - |1><0|) whose propagator rotates

    |a> -> cos(Wt)|a> - e^{-i*phi} sin(Wt)|b>
    |b> -> e^{i*phi} sin(Wt)|a> + cos(Wt)|b>

Resonant cavity coupling of two SQUIDs, each exchanging its |0><->|1>
excitation with one cavity mode::

    H = W1*(adag |0><1|_a + a |1><0|_a) + W2*(adag |0><1|_b + a |1><0|_b)

The upper level |e> couples to nothing here: any basis state with a SQUID in
|e> sees only the other SQUID's single Jaynes-Cummings exchange.  The total
excitation number |1><1|_a + |1><1|_b + adag*a commutes with H, and the
combination (W2*|1,0,0> - W1*|0,1,0|)/W is a dark state with eigenvalue 0,
where W = sqrt(W1^2 + W2^2).  No command reads the excitation number, so
the module builds no operator for it; the tests build their own to check
that it is conserved.

All builders are pure: they return immutable LocalOperators that can be
shared freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .hilbert import LEVEL_E, SQUID_DIM, LocalOperator


def _check_level(value: int, what: str) -> int:
    value = int(value)
    if not 0 <= value < SQUID_DIM:
        raise ValueError(f"{what} must be one of 0, 1, 2 (got {value})")
    return value


@dataclass(frozen=True)
class DriveSpec:
    """One classical pulse: target SQUID, ordered level pair, Rabi rate, phase."""

    target_squid: int
    transition: tuple[int, int]
    rabi: float
    phase: float = 0.0

    def __post_init__(self):
        a, b = self.transition
        a = _check_level(a, "transition level")
        b = _check_level(b, "transition level")
        if a == b:
            raise ValueError(f"transition levels must differ (got {a}, {b})")
        object.__setattr__(self, "transition", (a, b))
        if self.rabi < 0:
            raise ValueError(f"rabi must be >= 0, got {self.rabi}")


@dataclass(frozen=True)
class CavityCouplingSpec:
    """Resonant coupling window: two SQUID indices and their coupling rates."""

    squid_a: int
    squid_b: int
    omega_1: float
    omega_2: float

    def __post_init__(self):
        if self.squid_a == self.squid_b:
            raise ValueError("cavity coupling needs two distinct SQUIDs")
        if self.omega_1 <= 0:
            raise ValueError(f"omega_1 must be > 0, got {self.omega_1}")
        if self.omega_2 < 0:
            raise ValueError(f"omega_2 must be >= 0, got {self.omega_2}")

    @property
    def omega(self) -> float:
        """Collective rate sqrt(omega_1^2 + omega_2^2)."""
        return math.hypot(self.omega_1, self.omega_2)


@dataclass(frozen=True)
class FeasibilityParams:
    """Decay side of the operating point, for the decoherence and feasibility studies.

    Units: ``omega_c_hz`` is the cavity frequency in Hz, ``gamma_e_per_s`` the
    upper-level relaxation rate in 1/s.  The coupling and drive rates are not
    here: they belong to the gate (``protocols.GateParams``), the one place
    both studies read them from.  Defaults are a conservative
    superconducting-cavity operating point.
    """

    q_factor: float = 1e6
    omega_c_hz: float = 5e10
    gamma_e_per_s: float = 4e5
    branch_ratio_e_to_0: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in ("q_factor", "omega_c_hz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.gamma_e_per_s < 0:
            raise ValueError(f"gamma_e_per_s must be >= 0, got {self.gamma_e_per_s}")
        if not 0.0 <= self.branch_ratio_e_to_0 <= 1.0:
            raise ValueError(
                f"branch_ratio_e_to_0 must lie in [0, 1], got {self.branch_ratio_e_to_0}"
            )
        # finite inputs can still overflow or underflow in the derived rate
        if not 0.0 < self.cavity_decay_per_s < math.inf:
            raise ValueError(
                "cavity_decay_per_s = omega_c_hz / q_factor must be finite and > 0, "
                f"got {self.cavity_decay_per_s}"
            )

    @property
    def cavity_decay_per_s(self) -> float:
        """Cavity energy decay rate k = omega_c / Q."""
        return self.omega_c_hz / self.q_factor


def drive_hamiltonian(spec: DriveSpec) -> LocalOperator:
    """3x3 drive generator on the target SQUID; the third level is untouched."""
    a, b = spec.transition
    mat = np.zeros((SQUID_DIM, SQUID_DIM), dtype=complex)
    mat[a, b] = 1j * spec.rabi * np.exp(1j * spec.phase)
    mat[b, a] = -1j * spec.rabi * np.exp(-1j * spec.phase)
    return LocalOperator(
        sites=(spec.target_squid,),
        local_dims=(SQUID_DIM,),
        matrix=mat,
        hermitian=True,
    )


def annihilation(n_max: int) -> np.ndarray:
    """Truncated cavity annihilation operator on Fock states |0>..|n_max>."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    return np.diag(np.sqrt(np.arange(1, n_max + 1, dtype=float)), k=1).astype(complex)


def _kron3(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(x, y), z)


def cavity_coupling_hamiltonian(spec: CavityCouplingSpec, n_max: int) -> LocalOperator:
    """Two-SQUID resonant exchange with the cavity, on sites (a, b, cavity)."""
    if n_max < 1:
        raise ValueError(
            f"cavity interaction needs fock_cutoff >= 1 (got {n_max})"
        )
    a_op = annihilation(n_max)
    adag = a_op.conj().T
    s01 = np.zeros((SQUID_DIM, SQUID_DIM), dtype=complex)
    s01[0, 1] = 1.0
    s10 = s01.conj().T
    eye3 = np.eye(SQUID_DIM, dtype=complex)
    mat = spec.omega_1 * (_kron3(s01, eye3, adag) + _kron3(s10, eye3, a_op))
    mat += spec.omega_2 * (_kron3(eye3, s01, adag) + _kron3(eye3, s10, a_op))
    return LocalOperator(
        sites=(spec.squid_a, spec.squid_b, -1),
        local_dims=(SQUID_DIM, SQUID_DIM, n_max + 1),
        matrix=mat,
        hermitian=True,
    )


def collapse_operators_from_rates(
    cavity_decay: float,
    gamma_e: float,
    branch_ratio_e_to_0: float,
    n_max: int,
    squids: tuple[int, ...] = (0, 1),
) -> list[LocalOperator]:
    """Collapse operators for a run: cavity decay plus |e> relaxation per SQUID.

    The upper level relaxes at total rate ``gamma_e``, branching to |0> with
    the given ratio and to |1> with its complement.  Zero-rate operators are
    dropped from the list.
    """
    if cavity_decay < 0 or gamma_e < 0:
        raise ValueError("decay rates must be >= 0")
    if not 0.0 <= branch_ratio_e_to_0 <= 1.0:
        raise ValueError(
            f"branch ratio must lie in [0, 1], got {branch_ratio_e_to_0}"
        )
    ops: list[LocalOperator] = []
    if cavity_decay > 0:
        ops.append(
            LocalOperator(
                sites=(-1,),
                local_dims=(n_max + 1,),
                matrix=math.sqrt(cavity_decay) * annihilation(n_max),
            )
        )
    if gamma_e > 0:
        e_to_0 = np.zeros((SQUID_DIM, SQUID_DIM), dtype=complex)
        e_to_0[0, LEVEL_E] = 1.0
        e_to_1 = np.zeros((SQUID_DIM, SQUID_DIM), dtype=complex)
        e_to_1[1, LEVEL_E] = 1.0
        for squid in squids:
            rate0 = gamma_e * branch_ratio_e_to_0
            rate1 = gamma_e * (1.0 - branch_ratio_e_to_0)
            if rate0 > 0:
                ops.append(
                    LocalOperator(
                        sites=(squid,),
                        local_dims=(SQUID_DIM,),
                        matrix=math.sqrt(rate0) * e_to_0,
                    )
                )
            if rate1 > 0:
                ops.append(
                    LocalOperator(
                        sites=(squid,),
                        local_dims=(SQUID_DIM,),
                        matrix=math.sqrt(rate1) * e_to_1,
                    )
                )
    return ops

