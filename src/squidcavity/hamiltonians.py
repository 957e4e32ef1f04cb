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

The cavity is truncated at ``fock_cutoff`` photons, the name the whole
package gives it.  The drive builder takes plain values and checks none of
them: the segments of ``protocols`` that call it refuse bad rates and
levels when they are built.  The others check what they alone see:
``annihilation`` a cutoff that is not an ``int`` >= 0, and so the cavity
jump of ``collapse_operators_from_rates``; ``cavity_coupling_hamiltonian``
a cutoff that is not an ``int`` >= 1, through ``hilbert.check_index``, and
an exchange norm past the float range; ``collapse_operators_from_rates``
every rate and the branch ratio, through ``hilbert.check_number``.
``exchange_norm_bound`` checks nothing: both of its callers check the
cutoff first.  All builders are pure: they return immutable LocalOperators
that can be shared freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import CAVITY, LEVEL_0, LEVEL_1, LEVEL_E, SQUID_DIM, LocalOperator
from .hilbert import check_index, check_number


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
        check_number("q_factor", self.q_factor, 0, strict=True)
        check_number("omega_c_hz", self.omega_c_hz, 0, strict=True)
        check_number("gamma_e_per_s", self.gamma_e_per_s, 0)
        check_number("branch_ratio_e_to_0", self.branch_ratio_e_to_0, 0, 1)
        # finite inputs can still overflow or underflow in the derived rate
        check_number("omega_c_hz / q_factor", self.cavity_decay_per_s, 0, strict=True)

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
    return LocalOperator(sites=(squid,), local_dims=(SQUID_DIM,), matrix=mat)


def annihilation(fock_cutoff: int) -> np.ndarray:
    """Truncated cavity annihilation operator on Fock states |0>..|fock_cutoff>."""
    check_index("fock_cutoff", fock_cutoff, 0)
    return np.diag(np.sqrt(np.arange(1, fock_cutoff + 1, dtype=float)), k=1).astype(complex)


def exchange_norm_bound(omega_1: float, omega_2: float, fock_cutoff: int) -> float:
    """(omega_1 + omega_2) sqrt(fock_cutoff): the 1-norm of the exchange generator."""
    root = math.sqrt(fock_cutoff)
    return root * omega_1 + root * omega_2


def cavity_coupling_hamiltonian(
    squid_a: int, squid_b: int, omega_1: float, omega_2: float, fock_cutoff: int
) -> LocalOperator:
    """Two-SQUID resonant exchange with the cavity, on sites (a, b, cavity).

    Each Jaynes-Cummings term is written onto its own non-zeros: rate *
    sqrt(n+1) at |..0.., n+1><..1.., n| and at its adjoint, for every level
    of the other SQUID and every photon number n < fock_cutoff.  The four terms
    touch disjoint entries, so the matrix holds the same bits as the sum of
    the Kronecker products rate * (|0><1| x I x adag + |1><0| x I x a) and
    its partner on SQUID b.
    """
    check_index("fock_cutoff", fock_cutoff, 1)
    check_number("exchange_norm", exchange_norm_bound(omega_1, omega_2, fock_cutoff))
    dims = (SQUID_DIM, SQUID_DIM, fock_cutoff + 1)
    mat = np.zeros((math.prod(dims),) * 2, dtype=complex)
    # axes: row (a, b, n), then column (a, b, n)
    entries = mat.reshape(dims + dims)
    other = np.arange(SQUID_DIM)[:, None]
    n = np.arange(fock_cutoff)
    root = np.sqrt(n + 1.0)
    entries[0, other, n + 1, 1, other, n] = entries[1, other, n, 0, other, n + 1] = (
        omega_1 * root
    )
    entries[other, 0, n + 1, other, 1, n] = entries[other, 1, n, other, 0, n + 1] = (
        omega_2 * root
    )
    return LocalOperator(sites=(squid_a, squid_b, CAVITY), local_dims=dims, matrix=mat)


def collapse_operators_from_rates(
    cavity_decay: float,
    gamma_e: float,
    branch_ratio_e_to_0: float,
    fock_cutoff: int,
) -> list[LocalOperator]:
    """Collapse operators for a gate: cavity decay plus |e> relaxation.

    The upper level of both gate SQUIDs, 0 and 1, relaxes at total rate
    ``gamma_e``, branching to |0> with the given ratio and to |1> with its
    complement.  Zero-rate operators are dropped from the list.
    """
    check_number("cavity_decay", cavity_decay, 0)
    check_number("gamma_e", gamma_e, 0)
    check_number("branch_ratio_e_to_0", branch_ratio_e_to_0, 0, 1)
    ops: list[LocalOperator] = []
    if cavity_decay > 0:
        ops.append(
            LocalOperator(
                sites=(CAVITY,),
                local_dims=(fock_cutoff + 1,),
                matrix=math.sqrt(cavity_decay) * annihilation(fock_cutoff),
            )
        )
    rates = (gamma_e * branch_ratio_e_to_0, gamma_e * (1.0 - branch_ratio_e_to_0))
    for squid in (0, 1):
        for level, rate in zip((LEVEL_0, LEVEL_1), rates):
            if rate > 0:
                jump = np.zeros((SQUID_DIM, SQUID_DIM), dtype=complex)
                jump[level, LEVEL_E] = math.sqrt(rate)
                ops.append(LocalOperator(sites=(squid,), local_dims=(SQUID_DIM,), matrix=jump))
    return ops

