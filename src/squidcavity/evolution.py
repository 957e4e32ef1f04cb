"""Exact propagation of piecewise-constant schedules, pure and open-system.

Unitary segments use exp(-iHt) computed from the Hermitian eigendecomposition
of the segment generator; at the local dimensions involved (at most 27) this
is exact to rounding, so ideal-protocol results carry no integrator error.
``propagate`` runs a schedule (a tuple of segments, each of which builds its
own generator) on pure states, alone or as a block; ``evolve_pure`` wraps it
for a ``CompositeState``.

Open-system segments follow the Lindblad master equation

    drho/dt = L(rho) = -i[H, rho] + sum_k ( L_k rho L_k^dag - {L_k^dag L_k, rho}/2 )

whose generator is constant within a segment, so the segment's channel is
exactly exp(L t).  ``exp_lindblad`` applies it to a batch of matrices with a
truncated Taylor series on equal sub-steps (Al-Mohy & Higham, SIAM J. Sci.
Comput. 33:488, 2011).  L maps Hermitian matrices to Hermitian matrices, so
the series runs in real arithmetic: each input X = A + iB is split into
Hermitian parts, each part A is carried as the real vector
y = Re vec(A) + Im vec(A) (an isometry, with A = ((1+i) Y + (1-i) Y^T) / 2),
and L as the real d^2 x d^2 matrix L_y = Re(S) + Im(S P), where S is the
complex superoperator and P the transpose permutation on vec.  L_y is
formed once per call, so each Taylor term is one real matrix product on
all the coordinate rows; since S takes 16 d^4 bytes while it is formed,
dimensions above ``SUPEROPERATOR_DIM_LIMIT`` are refused before anything
is allocated.  The sub-step count follows from a norm bound on L t before
any work is done and is refused above ``MAX_LINDBLAD_SUBSTEPS``.  Density
matrix runs are restricted to small spaces: the noisy gate runs on its
11-state invariant subspace (``decoherence``); chain generation is
pure-state only.

``_rk4_lindblad`` integrates the same equation with fixed-step classical
RK4, and ``_check_step_size`` guards its step.  No program path runs them:
they are the independent second route that tests check the exact
propagator against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import CompositeState, LocalOperator, SpaceLayout, contract

UNITARITY_TOL = 1e-12
NORM_TOL = 1e-10

# step-size guard: dt * (largest |eigenvalue| of H) <= 1/50
_MAX_PHASE_PER_STEP = 1.0 / 50.0

# Taylor degree and the largest ||L h|| per sub-step it covers: a degree-40
# series meets unit-roundoff backward error for norms up to 6.0 (Al-Mohy &
# Higham 2011, Table 3.1)
_TAYLOR_DEGREE = 40
_TAYLOR_THETA = 6.0
_UNIT_ROUNDOFF = 2.0**-53
# each sub-step costs up to _TAYLOR_DEGREE generator applications; at the cap
# one segment costs about what 10 000 RK4 steps would
MAX_LINDBLAD_SUBSTEPS = 1000
# the complex superoperator takes 16 d^4 bytes while it is formed (16.8 MB
# at this dimension) and its real form L_y 8 d^4 bytes for the whole run
SUPEROPERATOR_DIM_LIMIT = 32


def propagator(hamiltonian: LocalOperator, t: float) -> LocalOperator:
    """exp(-iHt) on H's sites, via Hermitian eigendecomposition."""
    if not hamiltonian.hermitian:
        raise ValueError("propagator requires a Hermitian generator")
    if t < 0:
        raise ValueError(f"duration must be >= 0, got {t}")
    w, v = np.linalg.eigh(hamiltonian.matrix)
    mat = (v * np.exp(-1j * w * t)) @ v.conj().T
    defect = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))
    # written so that a NaN defect fails too
    if not defect <= UNITARITY_TOL:
        raise ValueError(f"propagator failed unitarity check ({defect:.3e})")
    return LocalOperator(hamiltonian.sites, hamiltonian.local_dims, mat)


def propagate(layout: SpaceLayout, schedule: tuple, psi: np.ndarray) -> np.ndarray:
    """Run a schedule on raw amplitudes, one state or a (total_dim, batch) block.

    The run owns two state-sized buffers shaped like the input: a copy of
    it, and one more.  Each segment reads one buffer and writes the other,
    so the caller's array is only read and no segment allocates a state.
    Each segment's propagator is built once, from the segment's own
    generator, for the whole block; every state's norm is then checked,
    which also catches NaN and Inf.
    """
    # rebinding ``psi`` drops this frame's hold on the initial amplitudes
    psi = np.array(psi, dtype=complex)
    spare = np.empty_like(psi)
    for segment in schedule:
        h = segment.hamiltonian(layout.fock_cutoff)
        psi, spare = contract(layout, propagator(h, segment.duration), psi, out=spare), psi
        for column in psi.reshape(len(psi), -1).T:
            norm = math.sqrt(np.vdot(column, column).real)
            if not abs(norm - 1.0) <= NORM_TOL:
                raise ValueError(
                    f"norm drifted to {norm!r} after a unitary segment"
                )
    return psi


def evolve_pure(state: CompositeState, schedule: tuple) -> CompositeState:
    """Run a schedule segment by segment on a pure state."""
    # hand the amplitudes over with no name left in this frame, so that a
    # caller that keeps no reference frees them once propagate has copied them
    layout, amplitudes = state.layout, [state.amplitudes]
    del state
    return CompositeState(layout, propagate(layout, schedule, amplitudes.pop()))


@dataclass(frozen=True)
class SingleExcitationAmplitudes:
    """Amplitudes of |1,0,0>, |0,1,0>, |0,0,1> during a coupling window."""

    c_100: complex
    c_010: complex
    c_001: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.c_100, self.c_010, self.c_001])


def single_excitation_closed_form(
    omega_1: float, omega_2: float, t: float
) -> SingleExcitationAmplitudes:
    """Exact single-excitation dynamics starting from |1,0,0>.

    With omega = sqrt(omega_1^2 + omega_2^2):

        c_100 = (omega_1^2 cos(omega t) + omega_2^2) / omega^2
        c_010 = omega_1 omega_2 (cos(omega t) - 1) / omega^2
        c_001 = -i (omega_1 / omega) sin(omega t)

    The amplitudes stay normalized for all t.
    """
    if omega_1 <= 0:
        raise ValueError(f"omega_1 must be > 0, got {omega_1}")
    omega = math.hypot(omega_1, omega_2)
    cos_wt = np.cos(omega * t)
    sin_wt = np.sin(omega * t)
    return SingleExcitationAmplitudes(
        c_100=(omega_1**2 * cos_wt + omega_2**2) / omega**2,
        c_010=omega_1 * omega_2 * (cos_wt - 1.0) / omega**2,
        c_001=-1j * (omega_1 / omega) * sin_wt,
    )


def _check_step_size(h_full: np.ndarray, dt: float) -> None:
    scale = float(np.max(np.abs(np.linalg.eigvalsh(h_full)))) if h_full.size else 0.0
    if scale > 0 and dt > _MAX_PHASE_PER_STEP / scale:
        raise ValueError(
            f"step size {dt:.3e} too large for Hamiltonian scale {scale:.3e} "
            f"(need dt <= {_MAX_PHASE_PER_STEP / scale:.3e})"
        )


def _lindblad_parts(h_full, l_ops):
    # drift = -iH - (1/2) sum L^dag L folds the anticommutator into two
    # matmuls; only the jump terms remain explicit.
    l_dags = [l.conj().T for l in l_ops]
    sink = sum((ld @ l for l, ld in zip(l_ops, l_dags)), np.zeros_like(h_full))
    drift = -1j * h_full - 0.5 * sink
    return drift, drift.conj().T, l_dags


def _lindblad_rhs(rho, drift, drift_dag, l_ops, l_dags):
    out = drift @ rho + rho @ drift_dag
    for l_op, l_dag in zip(l_ops, l_dags):
        out = out + l_op @ rho @ l_dag
    return out


def _rk4_lindblad(rho, h_full, l_ops, t_total: float, dt: float) -> np.ndarray:
    """Fixed-step RK4 Lindblad integration; rho may carry leading batch axes."""
    n_steps = max(1, math.ceil(t_total / dt))
    step = t_total / n_steps
    drift, drift_dag, l_dags = _lindblad_parts(h_full, l_ops)
    rho = np.array(rho, dtype=complex)
    for _ in range(n_steps):
        k1 = _lindblad_rhs(rho, drift, drift_dag, l_ops, l_dags)
        k2 = _lindblad_rhs(rho + 0.5 * step * k1, drift, drift_dag, l_ops, l_dags)
        k3 = _lindblad_rhs(rho + 0.5 * step * k2, drift, drift_dag, l_ops, l_dags)
        k4 = _lindblad_rhs(rho + step * k3, drift, drift_dag, l_ops, l_dags)
        rho = rho + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def _exact_parts(h_full, l_ops, t: float):
    """Generator pieces for ``exp_lindblad`` and its sub-step count."""
    # a multiple of the identity in H drops out of [H, rho]; removing it
    # keeps the norm bound, and the cancellation in the series, small
    d = h_full.shape[0]
    h = h_full - (np.trace(h_full).real / d) * np.eye(d)
    drift, drift_dag, _ = _lindblad_parts(h, l_ops)
    # ||L(X)||_F <= (2 ||drift||_2 + sum_k ||L_k||_2^2) ||X||_F, the spectral
    # norms from one batched singular-value call
    norms = np.linalg.svd(np.stack([drift, *l_ops]), compute_uv=False).max(axis=-1)
    bound = 2.0 * norms[0] + sum(n**2 for n in norms[1:])
    substeps = max(1, math.ceil(bound * t / _TAYLOR_THETA))
    return drift, drift_dag, substeps


def lindblad_substeps(h_full, l_ops, t: float) -> int:
    """Sub-steps ``exp_lindblad`` takes for duration ``t``; no propagation."""
    return _exact_parts(h_full, l_ops, t)[2]


def _kron(a, b) -> np.ndarray:
    """np.kron of two square matrices: the same products, without its per-call overhead."""
    n, m = a.shape[0], b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n * m, n * m)


def _superoperator(drift, drift_dag, l_ops) -> np.ndarray:
    """Matrix of L on row-major vec(rho), using vec(A rho B) = kron(A, B^T) vec(rho)."""
    eye = np.eye(drift.shape[0])
    sup = _kron(drift, eye) + _kron(eye, drift_dag.T)
    for l_op in l_ops:
        sup += _kron(l_op, l_op.conj())
    return sup


def _real_superoperator(drift, drift_dag, l_ops) -> np.ndarray:
    """Matrix of L on the real coordinates y = Re vec(A) + Im vec(A) of a Hermitian A.

    A = Q y with Q = ((1+i) I + (1-i) P) / 2 and P the transpose permutation
    on vec, and L keeps A Hermitian, so L_y = Re(S Q) + Im(S Q), which
    works out to Re(S) + Im(S P): S P only permutes the columns of S.
    """
    d = drift.shape[0]
    sup = _superoperator(drift, drift_dag, l_ops)
    transpose = np.arange(d * d).reshape(d, d).T.reshape(-1)
    real = sup.imag[:, transpose]
    real += sup.real
    return real


def _to_coordinates(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real coordinates of the Hermitian parts A, B of X = A + iB.

    y = Re vec(A) + Im vec(A) keeps the Frobenius norm: ||y|| = ||A||_F.
    """
    x_dag = np.swapaxes(x, -1, -2).conj()
    a = (x + x_dag) / 2
    b = (x - x_dag) * -0.5j
    return a.real + a.imag, b.real + b.imag


def _from_coordinates(y: np.ndarray) -> np.ndarray:
    """The Hermitian matrix ((1+i) Y + (1-i) Y^T) / 2 with real coordinates Y."""
    y_t = np.swapaxes(y, -1, -2)
    return (y + y_t) / 2 + 1j * ((y - y_t) / 2)


def exp_lindblad(rho, h_full, l_ops, t: float) -> np.ndarray:
    """Apply exp(L t) to ``rho`` to rounding; rho may carry leading batch axes.

    L is the Lindbladian of Hamiltonian ``h_full`` and collapse operators
    ``l_ops``, all d x d matrices on the space ``rho`` lives on, with d at
    most ``SUPEROPERATOR_DIM_LIMIT``.  L maps Hermitian matrices to
    Hermitian matrices, so each input X = A + iB runs as the real
    coordinates of its Hermitian parts A and B, and L as the real
    d^2 x d^2 matrix ``_real_superoperator``, formed once.  Each of
    ``lindblad_substeps`` equal sub-steps then sums the Taylor series of
    exp(L h), one real matrix product on all the coordinate rows per term,
    until the largest entries of two consecutive terms fall below unit
    roundoff relative to the sum's.  A Hermitian input comes back exactly
    Hermitian.  Trace is not renormalized, so any drift stays visible to
    the caller.
    """
    d = h_full.shape[0]
    if d > SUPEROPERATOR_DIM_LIMIT:
        raise ValueError(
            f"dimension {d} exceeds the superoperator limit {SUPEROPERATOR_DIM_LIMIT} "
            f"(it would take {16 * d**4 / 1e6:.3g} MB)"
        )
    if t < 0:
        raise ValueError(f"duration must be >= 0, got {t}")
    drift, drift_dag, n_sub = _exact_parts(h_full, l_ops, t)
    if n_sub > MAX_LINDBLAD_SUBSTEPS:
        raise ValueError(
            f"exp(L t) needs {n_sub} sub-steps, above the limit of {MAX_LINDBLAD_SUBSTEPS}"
        )
    h = t / n_sub
    rho = np.asarray(rho, dtype=complex)
    # rows are the coordinates of every A, then of every B, so L acts from the right
    sup_t = _real_superoperator(drift, drift_dag, l_ops).T
    flat = np.concatenate([part.reshape(-1, d * d) for part in _to_coordinates(rho)])
    for _ in range(n_sub):
        term = flat
        # largest-entry sizes: a BLAS norm here runs multithreaded
        last = np.abs(term).max()
        for k in range(1, _TAYLOR_DEGREE + 1):
            term = (term @ sup_t) * (h / k)
            flat = flat + term
            size = np.abs(term).max()
            if last + size <= _UNIT_ROUNDOFF * np.abs(flat).max():
                break
            last = size
    a, b = _from_coordinates(flat.reshape(2, *rho.shape))
    return a + 1j * b
