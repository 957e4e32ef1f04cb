"""Shared helpers: an independent dense-embedding oracle, random inputs,
product states, expectation values, the dense chain stabilizers, the
excitation-number operator and the RK4 Lindblad reference.

``expectation`` is <psi| O |psi> through the library's ``contract``; the
package itself reads no expectation value of a general operator.

``chain_stabilizer`` builds each chain generator K_i as a dense operator
from 3-level Paulis, the reference route for the library's signed
permutation readout in ``verification.stabilizer_expectations``.

The oracle builds embedded operators elementwise from mixed-radix digit
comparisons, deliberately avoiding the library's ``contract`` kernel and its
gather-gemm-scatter code paths so agreement between the two is meaningful.

``rk4_lindblad`` integrates the Lindblad master equation with fixed-step
classical RK4 from its textbook right-hand side, and ``check_step_size``
guards its step.  It runs in vec form: ``lindblad_generator`` assembles the
matrix of ``lindblad_rhs`` once, from its images of the d^2 basis matrices,
and one classical RK4 step, run on every basis row at once, gives the
step's increment matrix, so each step is one matrix product and one sum.
It shares no code with
the library's exact propagator ``evolution.exp_segment``, which the tests
check against it.

``full_generators`` builds a noisy gate's Hamiltonians and collapse
operators on the whole two-SQUID space with ``oracle_embedded``: matrices
the package itself never forms.  ``reference_kept`` is the second
route to the gate's invariant subspace, against ``decoherence.noisy_gate``'s
walk over local patterns: a set-and-frontier search from the four
computational states over the float non-zero patterns of every full-space
H, every L_k and every complex L_k^dag L_k product.

``traced_peak`` is the one way the tests bound memory: it calls a function
under tracemalloc and always stops tracing, whatever the function raises.

``pade_scores`` is a second exact route to a noisy gate's scores: each
segment's complex superoperator from textbook ``np.kron`` terms,
exponentiated by Pade-13 scaling and squaring (``expm_pade13``), the three
channels chained, and F_pro read from all 16 matrix units.  It too shares
no code with ``evolution``.
"""

import math
import tracemalloc

import numpy as np

from squidcavity import CompositeState, LocalOperator, SpaceLayout, basis_index, qcpg_schedule
from squidcavity.hamiltonians import collapse_operators_from_rates
from squidcavity.hilbert import SQUID_DIM, contract
from squidcavity.verification import COMPUTATIONAL_BASIS

# step-size guard: dt * (largest |eigenvalue| of H) <= 1/50
MAX_PHASE_PER_STEP = 1.0 / 50.0

# X and Z act on the logical {|0>, |1>} pair and leave |e> alone
PAULI_X3 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
PAULI_Z3 = np.diag([1.0, -1.0, 1.0]).astype(complex)


def traced_peak(fn):
    """``fn()`` under tracemalloc: (its result, peak bytes, bytes still allocated at its end).

    Only allocations made during the call are counted, and tracing stops
    whether or not ``fn`` raises.
    """
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held


def oracle_embedded(op: LocalOperator, layout: SpaceLayout) -> np.ndarray:
    """Full-space matrix of a local operator, built entry by entry."""
    sites = layout.resolve_sites(op.sites)
    dims = layout.dims
    total = layout.total_dim
    digits = np.array(np.unravel_index(np.arange(total), dims))
    # row index into the local matrix for every global basis index
    sub = np.zeros(total, dtype=int)
    for axis, site in enumerate(sites):
        stride = int(np.prod([dims[s] for s in sites[axis + 1:]], dtype=int))
        sub = sub + digits[site] * stride
    full = np.asarray(op.matrix)[np.ix_(sub, sub)].astype(complex)
    for factor in range(len(dims)):
        if factor not in sites:
            full = full * (digits[factor][:, None] == digits[factor][None, :])
    return full


def oracle_apply(state: CompositeState, op: LocalOperator) -> np.ndarray:
    return oracle_embedded(op, state.layout) @ state.amplitudes


def expectation(state: CompositeState, op: LocalOperator) -> complex:
    """<psi| O |psi> with O embedded on its declared sites by ``contract``."""
    psi = state.amplitudes
    return complex(np.vdot(psi, contract(state.layout, op, psi)))


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
    return LocalOperator(sites=tuple(sites), matrix=matrix)


def excitation_number(fock_cutoff: int, squids: tuple[int, int] = (0, 1)) -> LocalOperator:
    """|1><1|_a + |1><1|_b + adag*a; commutes with every cavity coupling."""
    if fock_cutoff < 0:
        raise ValueError(f"fock_cutoff must be >= 0, got {fock_cutoff}")
    p1 = np.zeros((SQUID_DIM, SQUID_DIM), dtype=complex)
    p1[1, 1] = 1.0
    eye3 = np.eye(SQUID_DIM, dtype=complex)
    number = np.diag(np.arange(fock_cutoff + 1, dtype=float)).astype(complex)
    eye_c = np.eye(fock_cutoff + 1, dtype=complex)
    mat = (
        np.kron(np.kron(p1, eye3), eye_c)
        + np.kron(np.kron(eye3, p1), eye_c)
        + np.kron(np.kron(eye3, eye3), number)
    )
    return LocalOperator(sites=(squids[0], squids[1], -1), matrix=mat)


def full_generators(gate, cavity_decay_per_s, gamma_e_per_s, branch_ratio_e_to_0, fock_cutoff):
    """Layout, per-segment (H, duration) and collapse operators of a noisy
    gate, each a matrix on the whole two-SQUID space from ``oracle_embedded``.
    """
    layout = SpaceLayout(2, fock_cutoff)
    collapse = collapse_operators_from_rates(
        cavity_decay_per_s, gamma_e_per_s, branch_ratio_e_to_0, fock_cutoff=fock_cutoff
    )
    segments = [
        (oracle_embedded(seg.hamiltonian(fock_cutoff), layout), seg.duration)
        for seg in qcpg_schedule(0, 1, gate)
    ]
    return layout, segments, [oracle_embedded(op, layout) for op in collapse]


def reference_kept(gate, cavity_decay_per_s, gamma_e_per_s, branch_ratio_e_to_0, fock_cutoff):
    """Smallest set of full-space indices holding the computational states
    that every H, L_k and L_k^dag L_k maps into itself, sorted.
    """
    layout, segments, l_full = full_generators(
        gate, cavity_decay_per_s, gamma_e_per_s, branch_ratio_e_to_0, fock_cutoff
    )
    generators = [h for h, _ in segments] + l_full + [l.conj().T @ l for l in l_full]
    reach = np.zeros(generators[0].shape, dtype=bool)
    for g in generators:
        reach |= g != 0
    seeds = [basis_index(layout, bits, 0) for bits in COMPUTATIONAL_BASIS]
    kept = set(seeds)
    frontier = list(seeds)
    while frontier:
        for i in np.flatnonzero(reach[:, frontier.pop()]):
            if int(i) not in kept:
                kept.add(int(i))
                frontier.append(int(i))
    return tuple(sorted(kept))


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


def lindblad_generator(h_full, l_ops) -> np.ndarray:
    """G with vec(lindblad_rhs(X)) = vec(X) @ G, vec row-major.

    Row m of G is ``lindblad_rhs`` of the m-th basis matrix, all d^2 of
    them run as one batch.
    """
    d = len(h_full)
    basis = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    return lindblad_rhs(basis, h_full, l_ops).reshape(d * d, d * d)


def rk4_lindblad(rho, h_full, l_ops, t_total: float, dt: float) -> np.ndarray:
    """Fixed-step RK4 Lindblad integration; rho may carry leading batch axes.

    The equation is linear with a constant generator G, so one RK4 step
    maps every row vector y to y + y D for one increment matrix D: the
    classical four stages, run once on the rows of the identity.  Each
    step is then one product with D and one sum.
    """
    n_steps = max(1, math.ceil(t_total / dt))
    step = t_total / n_steps
    rho = np.array(rho, dtype=complex)
    d = len(h_full)
    gen = lindblad_generator(h_full, l_ops)
    # the stages of one step from every row of the identity, (I + c K) G
    # written as G + c K G, and the step's increment M - I, kept apart from
    # the identity so that rounding stays relative to the increment
    k1 = gen
    k2 = gen + 0.5 * step * (k1 @ gen)
    k3 = gen + 0.5 * step * (k2 @ gen)
    k4 = gen + step * (k3 @ gen)
    increment = (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    y = rho.reshape(-1, d * d)
    for _ in range(n_steps):
        y = y + y @ increment
    return y.reshape(rho.shape)


# Pade-13 numerator coefficients b_0..b_13, and the largest 1-norm for which
# the unscaled approximant meets unit-roundoff backward error (Higham, SIAM
# J. Matrix Anal. Appl. 26:1179, 2005, Table 2.3)
PADE13_COEFFICIENTS = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
PADE13_THETA = 5.371920351148152

CZ_DIAGONAL = (1.0, 1.0, 1.0, -1.0)
# The Pade route and the library's Taylor route each reach every channel
# entry to about unit roundoff per squaring or sub-step, a few of each per
# segment, and F_pro averages 16 entries of size at most 1.  Their scores
# differed by at most 1.1e-15 (5 ulps of 1) over 150 random points with
# k <= 5e7 and gamma_e <= 4e8.  1e-14 leaves room for another BLAS
# kernel's rounding and sits ten orders below the 1.4e-4 by which k = 5e4
# alone moves F_pro.
PADE_TOL = 1e-14


def expm_pade13(a: np.ndarray) -> np.ndarray:
    """exp(a) by Pade-13 scaling and squaring (Higham 2005, Algorithm 2.3, degree 13 only)."""
    b = PADE13_COEFFICIENTS
    norm = np.linalg.norm(a, 1)
    squarings = max(0, math.ceil(math.log2(norm / PADE13_THETA))) if norm > 0 else 0
    a = a / 2.0**squarings
    eye = np.eye(len(a), dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
    )
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def kron_lindbladian(h_full, l_ops) -> np.ndarray:
    """The Lindbladian on row-major vec(rho), from vec(A rho B) = kron(A, B^T) vec(rho)."""
    eye = np.eye(len(h_full))
    sup = -1j * (np.kron(h_full, eye) - np.kron(eye, h_full.T))
    for l_op in l_ops:
        sink = l_op.conj().T @ l_op
        sup += np.kron(l_op, l_op.conj()) - 0.5 * (np.kron(sink, eye) + np.kron(eye, sink.T))
    return sup


def pade_scores(noisy) -> tuple[float, float]:
    """(F_avg, F_pro) of a noisy gate against diag(1, 1, 1, -1), from all 16 matrix units.

    The three segments' channels are chained as d^2 x d^2 matrices; the
    entry <p_i| E(|p_i><p_j|) |p_j> is the chain's diagonal element at
    row-major index p_i d + p_j.
    """
    d = len(noisy.kept)
    channel = np.eye(d * d, dtype=complex)
    for segment in noisy.segments:
        sup = kron_lindbladian(segment.h_full, segment.l_ops)
        channel = expm_pade13(sup * segment.t) @ channel
    f_pro = sum(
        CZ_DIAGONAL[i] * CZ_DIAGONAL[j] * channel[p * d + q, p * d + q].real
        for i, p in enumerate(noisy.computational)
        for j, q in enumerate(noisy.computational)
    ) / 16.0
    return (4.0 * f_pro + 1.0) / 5.0, f_pro
