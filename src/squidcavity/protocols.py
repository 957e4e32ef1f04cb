"""Pulse schedules: rotations, the three-step controlled-phase gate, chains.

A schedule is a plain tuple of segments, run strictly in sequence.  There
are two kinds, each one frozen dataclass holding its own SQUIDs, rates and
duration: ``DriveSegment`` (a classical pulse) and ``CavitySegment`` (the
resonant exchange).  Each refuses, when it is built, a SQUID index that is
not a non-negative ``int`` (``hilbert.check_index``; a bool is not one) and
a bad level pair, and sends every rate, duration and phase through
``hilbert.check_number``.  It answers two questions: its generator at a
given cavity cutoff (``hamiltonian``, a ``LocalOperator`` from the
``hamiltonians`` builders, which carries the sites it acts on: its SQUIDs,
then ``CAVITY`` if it couples to the cavity) and its row in
``schedule.json`` (``to_dict``).  No other module asks which kind of
segment it holds.

The controlled-phase gate between a control and a target SQUID is a sandwich
of three sequential segments:

1. classical pulse on the target, |1> -> |e>,
2. both SQUIDs coupled resonantly to the vacuum cavity for time t_c, with the
   control coupling at omega_1 and the target at omega_2 = ratio * omega_1,
3. classical pulse on the target, |e> -> |1>.

With ratio = sqrt(3) and omega_1 * t_c = pi the cavity interaction returns
every computational input to itself, imprinting a sign only on
|1>_control |e>_target, so the net gate is diag(1, 1, 1, -1) and the cavity
ends back in vacuum.  More generally any (t_c, ratio) obeying

    cos(omega_1 * t_c) = -1      and      omega * t_c = 0 (mod 2*pi)

works, where omega = omega_1 * sqrt(1 + ratio^2); the builder warns when a
schedule violates either condition (it still builds it, which is how the
negative tests exercise broken gates).

Pulse phase convention, derived once and locked in by regression tests: for
the ordered transition (|1>, |e>) a quarter-period pulse maps

    phase pi :  |1> -> +|e>        (step 1)
    phase 0  :  |e> -> +|1>        (step 3)

A wrong choice here flips the sign onto the wrong computational state and
turns the gate into diag(1, -1, 1, 1).

Cluster chains start from every SQUID in |1>; a rotation by pi/4 then
prepares (|0> + |1>)/sqrt(2) on each site with coefficient exactly +1 (from
|0> the same pulse would give the sign-flipped superposition), and the gate
is applied to each neighbouring pair in turn.  A chain has ``n_qubits``
SQUIDs, an ``int`` of at least ``MIN_CHAIN`` = 2 (``hilbert.check_index``):
fewer would hold no gate.  The oracle places its amplitudes by
``np.ravel_multi_index`` over ``SpaceLayout.dims``, the one index rule of
the package.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hamiltonians import cavity_coupling_hamiltonian, drive_hamiltonian
from .hilbert import (
    LEVEL_0,
    LEVEL_1,
    LEVEL_E,
    CompositeState,
    LocalOperator,
    SpaceLayout,
    basis_state,
    check_index,
    check_number,
)

# operating-point default for classical pulses (rad/s)
DEFAULT_DRIVE_RABI = 8.5e7

# a chain needs a gate, and a gate needs two SQUIDs
MIN_CHAIN = 2

STEP1_PHASE = math.pi
STEP3_PHASE = 0.0

_GATE_CONDITION_TOL = 1e-6


@dataclass(frozen=True)
class DriveSegment:
    """A classical pulse on one ordered level pair of one SQUID."""

    target_squid: int
    transition: tuple[int, int]
    rabi: float
    duration: float
    phase: float = 0.0

    def __post_init__(self):
        check_index("target_squid", self.target_squid, 0)
        a, b = (check_index("transition level", v, LEVEL_0, LEVEL_E) for v in self.transition)
        if a == b:
            raise ValueError(f"transition must be two distinct levels, got {self.transition}")
        object.__setattr__(self, "transition", (a, b))
        check_number("rabi", self.rabi, 0)
        check_number("duration", self.duration, 0)
        check_number("phase", self.phase)

    def hamiltonian(self, fock_cutoff: int) -> LocalOperator:
        """Generator on the target SQUID; the cavity cutoff does not enter."""
        return drive_hamiltonian(self.target_squid, self.transition, self.rabi, self.phase)

    def to_dict(self) -> dict:
        """The segment's ``schedule.json`` row."""
        a, b = self.transition
        return {
            "kind": "drive",
            "sites": [self.target_squid],
            "transition": f"{'01e'[a]}-{'01e'[b]}",
            "rabi_per_s": self.rabi,
            "phase_rad": self.phase,
            "duration_s": self.duration,
        }


@dataclass(frozen=True)
class CavitySegment:
    """Two SQUIDs coupled resonantly to the cavity at rates omega_1 and omega_2."""

    squid_a: int
    squid_b: int
    omega_1: float
    omega_2: float
    duration: float

    def __post_init__(self):
        for name in ("squid_a", "squid_b"):
            check_index(name, getattr(self, name), 0)
        if self.squid_a == self.squid_b:
            raise ValueError("cavity coupling needs two distinct SQUIDs")
        check_number("omega_1", self.omega_1, 0, strict=True)
        check_number("omega_2", self.omega_2, 0)
        check_number("duration", self.duration, 0)

    def hamiltonian(self, fock_cutoff: int) -> LocalOperator:
        """Generator on both SQUIDs and the cavity truncated at ``fock_cutoff``."""
        return cavity_coupling_hamiltonian(
            self.squid_a, self.squid_b, self.omega_1, self.omega_2, fock_cutoff
        )

    def to_dict(self) -> dict:
        """The segment's ``schedule.json`` row."""
        return {
            "kind": "cavity",
            "sites": [self.squid_a, self.squid_b, "cavity"],
            "omega_1_per_s": self.omega_1,
            "omega_2_per_s": self.omega_2,
            "duration_s": self.duration,
        }


@dataclass(frozen=True)
class GateParams:
    """Rates and timings of one controlled-phase gate.

    ``cavity_time`` and ``pulse_duration`` default to the minimal-solution
    values pi/omega_1 and pi/(2*drive_rabi); override them to build detuned
    or deliberately broken schedules.
    """

    omega_1: float = 1.8e8
    ratio: float = math.sqrt(3)
    drive_rabi: float = DEFAULT_DRIVE_RABI
    cavity_time: float | None = None
    pulse_duration: float | None = None

    def __post_init__(self):
        for name in ("omega_1", "ratio", "drive_rabi"):
            check_number(name, getattr(self, name), 0, strict=True)
        for name in ("cavity_time", "pulse_duration"):
            if getattr(self, name) is not None:
                check_number(name, getattr(self, name), 0)
        # finite inputs can still overflow in the values derived from them;
        # check_number also refuses a product of integers that no float can
        # hold, before the phases below convert it
        for name in ("omega_2", "resolved_cavity_time", "resolved_pulse_duration"):
            check_number(name, getattr(self, name))
        # and so can the phases the propagators and gate conditions take
        t_c = self.resolved_cavity_time
        for name, value in (
            ("omega_1 * cavity_time", self.omega_1 * t_c),
            ("omega * cavity_time", math.hypot(self.omega_1, self.omega_2) * t_c),
            ("drive_rabi * pulse_duration", self.drive_rabi * self.resolved_pulse_duration),
        ):
            check_number(name, value)

    @property
    def omega_2(self) -> float:
        return self.ratio * self.omega_1

    @property
    def resolved_cavity_time(self) -> float:
        return self.cavity_time if self.cavity_time is not None else math.pi / self.omega_1

    @property
    def resolved_pulse_duration(self) -> float:
        if self.pulse_duration is not None:
            return self.pulse_duration
        return math.pi / (2.0 * self.drive_rabi)


def gate_condition_residuals(params: GateParams) -> tuple[float, float]:
    """How far (cavity_time, ratio) sit from an exact controlled-phase point.

    Returns |cos(omega_1 t) + 1| and the circular distance of omega * t from
    a multiple of 2*pi; both vanish for a working gate.
    """
    t = params.resolved_cavity_time
    phase_residual = abs(math.cos(params.omega_1 * t) + 1.0)
    omega_t = math.hypot(params.omega_1, params.omega_2) * t
    wrapped = math.remainder(omega_t, 2.0 * math.pi)
    return phase_residual, abs(wrapped)


def rotation_pulse(
    site: int,
    transition: tuple[int, int],
    angle: float,
    phase: float = 0.0,
    rabi: float = DEFAULT_DRIVE_RABI,
) -> tuple:
    """Single-segment schedule rotating the given transition by ``angle``.

    ``angle`` must lie in [0, 2*pi), and ``rabi`` must be a finite rate > 0,
    checked before it divides ``angle``.
    """
    check_number("angle", angle, 0)
    if angle >= 2.0 * math.pi:
        raise ValueError(f"angle must lie in [0, 2*pi), got {angle}")
    check_number("rabi", rabi, 0, strict=True)
    return (DriveSegment(site, transition, rabi, angle / rabi, phase),)


def prepare_superposition(site: int, rabi: float = DEFAULT_DRIVE_RABI) -> tuple:
    """Pulse taking |1> to (|0> + |1>)/sqrt(2) exactly.

    Chain preparation declares |1> as the initial level; from |0> the same
    rotation gives (|0> - |1>)/sqrt(2) instead.
    """
    return rotation_pulse(site, (LEVEL_0, LEVEL_1), math.pi / 4.0, 0.0, rabi)


def qcpg_schedule(
    control_squid: int, target_squid: int, params: GateParams = GateParams()
) -> tuple:
    """Three-step controlled-phase gate; diag(1, 1, 1, -1) on (control, target)."""
    if control_squid == target_squid:
        raise ValueError("control and target must be distinct SQUIDs")
    phase_res, mod_res = gate_condition_residuals(params)
    if phase_res > _GATE_CONDITION_TOL or mod_res > _GATE_CONDITION_TOL:
        warnings.warn(
            "gate conditions violated: |cos(omega_1 t)+1| = "
            f"{phase_res:.3e}, omega*t mod 2pi = {mod_res:.3e}; "
            "the schedule will not realize a clean controlled-phase gate",
            stacklevel=2,
        )
    pulse_t = params.resolved_pulse_duration
    up = DriveSegment(
        target_squid, (LEVEL_1, LEVEL_E), params.drive_rabi, pulse_t, STEP1_PHASE
    )
    exchange = CavitySegment(
        control_squid, target_squid, params.omega_1, params.omega_2, params.resolved_cavity_time
    )
    down = DriveSegment(
        target_squid, (LEVEL_1, LEVEL_E), params.drive_rabi, pulse_t, STEP3_PHASE
    )
    return (up, exchange, down)


def cluster_chain_schedule(n_qubits: int, params: GateParams = GateParams()) -> tuple:
    """Superposition pulses on every site, then a gate on each adjacent pair."""
    check_index("n_qubits", n_qubits, MIN_CHAIN)
    schedule = ()
    for site in range(n_qubits):
        schedule += prepare_superposition(site, params.drive_rabi)
    for site in range(n_qubits - 1):
        schedule += qcpg_schedule(site, site + 1, params)
    return schedule


def chain_initial_state(n_qubits: int, fock_cutoff: int = 2) -> CompositeState:
    """All SQUIDs in |1>, cavity in vacuum: the declared chain starting point."""
    layout = SpaceLayout(check_index("n_qubits", n_qubits, MIN_CHAIN), fock_cutoff)
    return basis_state(layout, (LEVEL_1,) * n_qubits)


def cluster_state_oracle(n_qubits: int, fock_cutoff: int = 2) -> CompositeState:
    """Direct construction of the linear cluster state, cavity in vacuum.

    Amplitude of bit string b is 2^(-N/2) * (-1)^(sum_i b_i b_{i+1}): equal
    weights with a sign flip for every adjacent |11| pair, exactly what a
    chain of controlled-phase gates on uniform superpositions produces.
    """
    layout = SpaceLayout(check_index("n_qubits", n_qubits, MIN_CHAIN), fock_cutoff)
    amp = np.zeros(layout.total_dim, dtype=complex)
    scale = 2.0 ** (-n_qubits / 2.0)
    # row b holds the bits of b, first SQUID first
    bits = (np.arange(2**n_qubits)[:, None] >> np.arange(n_qubits - 1, -1, -1)) & 1
    odd = (bits[:, :-1] & bits[:, 1:]).sum(axis=1) & 1
    amp[np.ravel_multi_index((*bits.T, 0), layout.dims)] = np.where(odd, -scale, scale)
    return CompositeState(layout, amp)
