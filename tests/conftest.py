"""Shared helpers: an independent dense-embedding oracle, random inputs,
product states, the dense chain stabilizers, the excitation-number operator
and the RK4 Lindblad reference.

``chain_stabilizer`` builds each chain generator K_i as a dense operator
from 3-level Paulis, the reference route for the library's signed
permutation readout in ``verification.stabilizer_expectations``.

The oracle builds embedded operators elementwise from mixed-radix digit
comparisons, deliberately avoiding the library's ``contract`` kernel and its
gather-gemm-scatter code paths so agreement between the two is meaningful.

``rk4_lindblad`` integrates the Lindblad master equation with fixed-step
classical RK4 from its textbook right-hand side, and ``check_step_size``
guards its step.  It shares no code with the library's exact propagator
``evolution.exp_segment``, which the tests check against it.
"""

import math

import numpy as np

from squidcavity import CompositeState, LocalOperator, SpaceLayout
from squidcavity.hilbert import SQUID_DIM

# step-size guard: dt * (largest |eigenvalue| of H) <= 1/50
MAX_PHASE_PER_STEP = 1.0 / 50.0

# X and Z act on the logical {|0>, |1>} pair and leave |e> alone
PAULI_X3 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
PAULI_Z3 = np.diag([1.0, -1.0, 1.0]).astype(complex)


def oracle_embedded(op: LocalOperator, layout: SpaceLayout) -> np.ndarray:
    """Full-space matrix of a local operator, built entry by entry."""
    sites = layout.resolve_sites(op.sites)
    dims = layout.dims
    total = layout.total_dim
    digits = np.array(np.unravel_index(np.arange(total), dims))
    # row index into the local matrix for every global basis index
    sub = np.zeros(total, dtype=int)
    for axis, site in enumerate(sites):
        stride = int(np.prod(op.local_dims[axis + 1:], dtype=int))
        sub = sub + digits[site] * stride
    full = np.asarray(op.matrix)[np.ix_(sub, sub)].astype(complex)
    for factor in range(len(dims)):
        if factor not in sites:
            full = full * (digits[factor][:, None] == digits[factor][None, :])
    return full


def oracle_apply(state: CompositeState, op: LocalOperator) -> np.ndarray:
    return oracle_embedded(op, state.layout) @ state.amplitudes


def random_state(rng: np.random.Generator, layout: SpaceLayout) -> CompositeState:
    amp = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    return CompositeState(layout, amp / np.linalg.norm(amp))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    # fix the QR phase ambiguity so the distribution is Haar
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def tensor_state(local_factors) -> CompositeState:
    """Assemble a product state from per-factor amplitude vectors.

    The factor list follows layout order: one length-3 vector per SQUID, then
    the cavity vector last (its length fixes the Fock cutoff).  The amplitude
    of each mixed-radix basis index is the product of the local amplitudes.
    """
    factors = [np.asarray(f, dtype=complex).reshape(-1) for f in local_factors]
    if len(factors) < 2:
        raise ValueError("need at least one SQUID factor plus the cavity factor")
    for i, f in enumerate(factors[:-1]):
        if f.size != SQUID_DIM:
            raise ValueError(
                f"factor {i} has dimension {f.size}, expected {SQUID_DIM} for a SQUID"
            )
    cavity = factors[-1]
    if cavity.size < 1:
        raise ValueError(f"factor {len(factors) - 1} (cavity) is empty")
    layout = SpaceLayout(n_squids=len(factors) - 1, fock_cutoff=cavity.size - 1)
    amp = factors[0]
    for f in factors[1:]:
        amp = np.kron(amp, f)
    return CompositeState(layout, amp)


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


def excitation_number(n_max: int, squids: tuple[int, int] = (0, 1)) -> LocalOperator:
    """|1><1|_a + |1><1|_b + adag*a; commutes with every cavity coupling."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    p1 = np.zeros((SQUID_DIM, SQUID_DIM), dtype=complex)
    p1[1, 1] = 1.0
    eye3 = np.eye(SQUID_DIM, dtype=complex)
    number = np.diag(np.arange(n_max + 1, dtype=float)).astype(complex)
    eye_c = np.eye(n_max + 1, dtype=complex)
    mat = (
        np.kron(np.kron(p1, eye3), eye_c)
        + np.kron(np.kron(eye3, p1), eye_c)
        + np.kron(np.kron(eye3, eye3), number)
    )
    return LocalOperator(
        sites=(squids[0], squids[1], -1),
        local_dims=(SQUID_DIM, SQUID_DIM, n_max + 1),
        matrix=mat,
        hermitian=True,
    )


def check_step_size(h_full: np.ndarray, dt: float) -> None:
    scale = float(np.max(np.abs(np.linalg.eigvalsh(h_full)))) if h_full.size else 0.0
    if scale > 0 and dt > MAX_PHASE_PER_STEP / scale:
        raise ValueError(
            f"step size {dt:.3e} too large for Hamiltonian scale {scale:.3e} "
            f"(need dt <= {MAX_PHASE_PER_STEP / scale:.3e})"
        )


def lindblad_rhs(rho, h_full, l_ops):
    """-i[H, rho] + sum_k (L_k rho L_k^dag - {L_k^dag L_k, rho}/2); rho may carry batch axes."""
    # the anticommutator is linear in L_k^dag L_k, so its terms are summed first
    sink = sum((l_op.conj().T @ l_op for l_op in l_ops), np.zeros_like(h_full))
    out = -1j * (h_full @ rho - rho @ h_full) - 0.5 * (sink @ rho + rho @ sink)
    for l_op in l_ops:
        out = out + l_op @ rho @ l_op.conj().T
    return out


def rk4_lindblad(rho, h_full, l_ops, t_total: float, dt: float) -> np.ndarray:
    """Fixed-step RK4 Lindblad integration; rho may carry leading batch axes."""
    n_steps = max(1, math.ceil(t_total / dt))
    step = t_total / n_steps
    rho = np.array(rho, dtype=complex)
    for _ in range(n_steps):
        k1 = lindblad_rhs(rho, h_full, l_ops)
        k2 = lindblad_rhs(rho + 0.5 * step * k1, h_full, l_ops)
        k3 = lindblad_rhs(rho + 0.5 * step * k2, h_full, l_ops)
        k4 = lindblad_rhs(rho + step * k3, h_full, l_ops)
        rho = rho + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho
