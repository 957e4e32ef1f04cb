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
that it is conserved.  Its builder writes H's non-zeros directly, with no
Kronecker products.

The builders take plain values and check none of them: the segments of
``protocols`` that call them refuse bad rates and levels when they are built.
All builders are pure: they return immutable LocalOperators that can be
shared freely.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .hilbert import LEVEL_E, SQUID_DIM, LocalOperator


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
            # a comparison, unlike math.isfinite, refuses an integer too
            # large for a float without converting it
            if not abs(value) <= sys.float_info.max:
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


def drive_hamiltonian(
    squid: int, transition: tuple[int, int], rabi: float, phase: float
) -> LocalOperator:
    """3x3 drive generator on ``squid``; the third level is untouched."""
    a, b = transition
    mat = np.zeros((SQUID_DIM, SQUID_DIM), dtype=complex)
    mat[a, b] = 1j * rabi * np.exp(1j * phase)
    mat[b, a] = -1j * rabi * np.exp(-1j * phase)
    return LocalOperator(
        sites=(squid,),
        local_dims=(SQUID_DIM,),
        matrix=mat,
        hermitian=True,
    )


def annihilation(n_max: int) -> np.ndarray:
    """Truncated cavity annihilation operator on Fock states |0>..|n_max>."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    return np.diag(np.sqrt(np.arange(1, n_max + 1, dtype=float)), k=1).astype(complex)


def cavity_coupling_hamiltonian(
    squid_a: int, squid_b: int, omega_1: float, omega_2: float, n_max: int
) -> LocalOperator:
    """Two-SQUID resonant exchange with the cavity, on sites (a, b, cavity).

    Each Jaynes-Cummings term is written onto its own non-zeros: rate *
    sqrt(n+1) at |..0.., n+1><..1.., n| and at its adjoint, for every level
    of the other SQUID and every photon number n < n_max.  The four terms
    touch disjoint entries, so the matrix holds the same bits as the sum of
    the Kronecker products rate * (|0><1| x I x adag + |1><0| x I x a) and
    its partner on SQUID b.
    """
    if n_max < 1:
        raise ValueError(
            f"cavity interaction needs fock_cutoff >= 1 (got {n_max})"
        )
    dims = (SQUID_DIM, SQUID_DIM, n_max + 1)
    mat = np.zeros((math.prod(dims),) * 2, dtype=complex)
    # axes: row (a, b, n), then column (a, b, n)
    entries = mat.reshape(dims + dims)
    other = np.arange(SQUID_DIM)[:, None]
    n = np.arange(n_max)
    root = np.sqrt(n + 1.0)
    entries[0, other, n + 1, 1, other, n] = entries[1, other, n, 0, other, n + 1] = (
        omega_1 * root
    )
    entries[other, 0, n + 1, other, 1, n] = entries[other, 1, n, other, 0, n + 1] = (
        omega_2 * root
    )
    return LocalOperator(
        sites=(squid_a, squid_b, -1),
        local_dims=dims,
        matrix=mat,
        hermitian=True,
    )


def collapse_operators_from_rates(
    cavity_decay: float,
    gamma_e: float,
    branch_ratio_e_to_0: float,
    n_max: int,
) -> list[LocalOperator]:
    """Collapse operators for a gate: cavity decay plus |e> relaxation.

    The upper level of both gate SQUIDs, 0 and 1, relaxes at total rate
    ``gamma_e``, branching to |0> with the given ratio and to |1> with its
    complement.  Zero-rate operators are dropped from the list.
    """
    # written so that NaN, inf and an integer too large for a float fail too
    for name, rate in (("cavity_decay", cavity_decay), ("gamma_e", gamma_e)):
        if not 0 <= rate <= sys.float_info.max:
            raise ValueError(f"decay rates must be >= 0 and finite, got {name}={rate}")
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
        for squid in (0, 1):
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

