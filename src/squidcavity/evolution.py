"""Exact propagation of piecewise-constant schedules, pure and open-system.

Unitary segments use exp(-iHt) computed from the Hermitian eigendecomposition
of the segment generator on its own sites: 3-dimensional for a pulse, and
D = 9 (cutoff + 1) for the exchange, 1017 at the largest cutoff the byte
budget accepts (112).  This is exact to rounding, so ideal-protocol results
carry no integrator error; the rounding grows with D, and the truth table's
entries stay within D eps of the ideal gate (the bound, and its measured
margin on four BLAS kernels, are stated in ``tests/test_relations.py``).
``propagate`` runs a schedule (a tuple of segments, each of which builds its
own generator) on pure states, alone or as a block, in two parts.  The plan
walks the schedule before any amplitude moves: it builds each segment's
generator, checks its sites and size against the layout (so every such
refusal comes before the run), and builds one propagator per distinct key,
the dimensions the layout gives the generator's sites and its matrix bytes
with the duration's bits, reused on the sites of every generator with that
key.  Equal keys are the same input to ``eigh``, so sharing is exact
whatever the segment kind.  The plan also keeps per factor a level range
[lo, hi) outside which every amplitude is exactly zero before each segment.
The ranges start as those of the input's non-zero entries; after each
segment, its sites are joined with the levels that its propagator's exact
non-zero pattern reaches from the block, so no range ever shrinks; of the
amplitudes, the plan reads only which are non-zero.  The run
is a loop of ``hilbert.contract``, which computes only the block the ranges
cut out of the factors a segment does not touch, and a norm check.  The
run's two state buffers are the halves of one two-state array, one
allocation per run, so that glibc keeps the memory a run frees for the
next.  ``propagate_in_pair`` is the run on a pair whose first half the
caller has filled, and it hands back the idle half with the result;
``propagate`` copies its input into a fresh pair and runs the same loop.
Both halves stay exactly zero outside the block: the spare starts zeroed,
and the buffer a segment writes holds the state of two segments back, which
lies inside it.  A cluster chain holds 1 024 non-zero amplitudes of 177 147
at N = 10 after its superposition pulses, so most segments touch a fraction
of the state.  ``evolve_pure`` wraps ``propagate`` for a ``CompositeState``.

Open-system segments follow the Lindblad master equation

    drho/dt = L(rho) = -i[H, rho] + sum_k ( L_k rho L_k^dag - {L_k^dag L_k, rho}/2 )

whose generator is constant within a segment, so the segment's channel is
exactly exp(L t).  ``exp_segment`` applies it to a batch of matrices with a
truncated Taylor series on equal sub-steps (Al-Mohy & Higham, SIAM J. Sci.
Comput. 33:488, 2011).  L maps Hermitian matrices to Hermitian matrices, so
the series runs in real arithmetic: each input X = A + iB is split into
Hermitian parts, each part A is carried as the real vector
y = Re vec(A) + Im vec(A) (an isometry, with A = ((1+i) Y + (1-i) Y^T) / 2),
and L as the real d^2 x d^2 matrix L_y = Re(S) + Im(S P), where S is the
complex superoperator and P the transpose permutation on vec.

A ``LindbladSegment`` sizes itself once, when it is built: its drift and
its sub-step count, which follows from a norm bound on L t.  No segment
exists that cannot run: a dimension above ``SUPEROPERATOR_DIM_LIMIT`` (the
byte budget ``hilbert.MAX_ARRAY_BYTES`` at 24 d^4 bytes, the peak below)
or a duration that is negative, NaN or infinite is refused with
``ValueError``, and a count above ``MAX_LINDBLAD_SUBSTEPS`` with
``WorkLimitError``, as is a generator or a count that overflows, or a
generator whose Taylor products could leave the float range.
``exp_segment`` runs a segment.  It forms L_y once per run, writing each
Kronecker term of S onto that term's own non-zeros, so the terms need no
temporaries; the column gather S P of Im(S) comes out in Fortran order,
so ``np.asfortranarray`` keeps it as L_y without a copy.  So a run peaks
at 24 d^4 bytes, S (16 d^4) and L_y (8 d^4), plus terms of order d^2:
measured with tracemalloc at 3.02-3.04 x 8 d^4 bytes for d = 26-32 (and
4.2 x at d = 11, where the d^2 terms still weigh).  Each Taylor term is
then one real matrix product on the coordinate rows that are not
identically zero, into buffers allocated once per run.  The
dimension is capped before anything is allocated.  Density matrix runs
are restricted to small spaces: the noisy gate runs on its 11-state
invariant subspace (``decoherence``); chain generation is pure-state
only.  The tests check ``exp_segment`` against their own fixed-step RK4
integration of the same equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import (
    MAX_ARRAY_BYTES, CompositeState, LocalOperator, SpaceLayout, check_buffer, check_index,
    check_number, contract,
)

HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-12
NORM_TOL = 1e-10

# Taylor degree and the largest ||L h|| per sub-step it covers: a degree-40
# series meets unit-roundoff backward error for norms up to 6.0 (Al-Mohy &
# Higham 2011, Table 3.1)
_TAYLOR_DEGREE = 40
_TAYLOR_THETA = 6.0
_UNIT_ROUNDOFF = 2.0**-53
# each sub-step sums at most _TAYLOR_DEGREE terms, one real gemm each, so a
# segment at the cap takes at most 40 000 gemms
MAX_LINDBLAD_SUBSTEPS = 1000
# a run peaks while the complex superoperator S (16 d^4 bytes) and the
# column gather of its imaginary part, which becomes L_y (8 d^4 bytes),
# are both alive; the Kronecker terms are written in place, with no
# temporaries of that size.  The limit is the largest d whose 24 d^4 bytes
# fit the byte budget: 28, where a run peaks at 14.9 MB (d = 29 would
# take 17.1 MB, and 32 took 25.3 MB)
SUPEROPERATOR_DIM_LIMIT = math.isqrt(math.isqrt(MAX_ARRAY_BYTES // 24))


def propagator(hamiltonian: LocalOperator, t: float) -> LocalOperator:
    """exp(-iHt) on H's sites, via Hermitian eigendecomposition.

    ``eigh`` reads one triangle of H only, so H is first checked to be
    Hermitian to ``HERMITICITY_TOL``; a NaN or Inf entry fails that check.
    A duration that is negative, NaN or infinite is refused.
    """
    h = hamiltonian.matrix
    # an Inf entry gives inf - inf = NaN here, refused without a warning
    with np.errstate(invalid="ignore"):
        check_number("max|H - H^dag|", np.max(np.abs(h - h.conj().T)), 0, HERMITICITY_TOL)
    check_number("duration", t, 0)
    w, v = np.linalg.eigh(h)
    # as a Python float, a phase past the float range is inf with no warning
    check_number("max|eigenvalue| * duration", float(np.abs(w).max()) * float(t))
    mat = (v * np.exp(-1j * w * t)) @ v.conj().T
    defect = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))
    check_number("max|U^dag U - I|", defect, 0, UNITARITY_TOL)
    return LocalOperator(hamiltonian.sites, mat)


def propagate(layout: SpaceLayout, schedule: tuple, psi: np.ndarray) -> np.ndarray:
    """Run a schedule on raw amplitudes, one state or a (total_dim, batch) block.

    The caller's array is only read: a copy of it goes into half 0 of a
    fresh complex array of shape (2, *input shape), and
    ``propagate_in_pair`` runs the schedule there, so input rows that are
    not the layout's amplitudes are refused as that pair's shape.  The
    result is the half the last segment wrote, and it keeps the idle half
    alive with it.
    """
    pair = np.empty((2, *np.shape(psi)), complex)
    pair[0] = psi
    # drop this frame's hold on the initial amplitudes, as ``evolve_pure`` does
    del psi
    return propagate_in_pair(layout, schedule, pair)[0]


def propagate_in_pair(layout: SpaceLayout, schedule: tuple, pair: np.ndarray) -> tuple:
    """Run a schedule in the two halves of ``pair``; return (result, idle half).

    ``pair`` is a lent buffer (``hilbert.check_buffer``) of shape
    (2, total_dim) or (2, total_dim, batch) whose half 0 the caller has
    filled with the input; half 1 is zeroed here.  First the plan
    (``_plan``) builds every propagator, for the whole block, and the level
    ranges of the module docstring, from the input's support alone.  Then the run applies each
    step with ``contract``, which computes only the block of its ranges,
    and checks every state's norm, which also catches NaN and Inf.  Each
    segment reads one half and writes the other, so no segment allocates
    a state.  The idle half is what the last segment left of its input,
    which ``contract`` may have used as scratch, and is the caller's to
    reuse: a cluster run writes its oracle there, then each stabilizer's
    K_i psi.  So the pair is all the state memory a run holds.

    One allocation of two states, rather than two of one, keeps the state
    memory a run frees in glibc's heap for the next run.  Freeing an
    mmapped allocation raises glibc's mmap threshold to its size and the
    trim threshold to twice that (mallopt(3)).  With two states in one
    allocation the trim threshold becomes four states, above the two a
    cluster op holds at its peak; with one state per allocation it was two,
    so every op handed its freed states back to the kernel and the next op
    faulted them in again.  Other allocators lose nothing: the same bytes
    are allocated.
    """
    check_buffer("pair", pair, (2, layout.total_dim, *np.shape(pair)[2:]))
    psi, spare = pair
    spare.fill(0)
    steps = _plan(layout, schedule, _support(layout, psi))
    for u, ranges in steps:
        psi, spare = contract(layout, u, psi, out=spare, ranges=ranges), psi
        for column in psi.reshape(len(psi), -1).T:
            drift = math.sqrt(np.vdot(column, column).real) - 1.0
            check_number("norm - 1 after a unitary segment", drift, -NORM_TOL, NORM_TOL)
    return psi, spare


def _plan(layout: SpaceLayout, schedule: tuple, ranges: tuple) -> list:
    """Per segment, its propagator on its sites and the ranges its input lies in.

    ``ranges`` are those of the schedule's input.  Every generator's sites
    and size are checked against the layout here, the last segment's too,
    so a misfit is refused before the run moves any amplitude.  A
    propagator is keyed on the dimensions the layout gives its generator's
    sites, the generator's matrix bytes and the duration's bits, sites
    aside, so it is built only the first time its key appears: a cluster
    chain repeats four of them.  So are the levels it reaches from each box
    of levels at its sites, read from its exact non-zero pattern; no
    segment follows the last, so its reach is never needed.  The key keeps
    the dimensions because equal bytes on (SQUID, cavity) and on (cavity,
    SQUID) reach other levels wherever the cavity is not three levels.
    """
    steps, built = [], {}
    for k, segment in enumerate(schedule):
        h = segment.hamiltonian(layout.fock_cutoff)
        sites, dims = layout.operator_dims(h)
        key = (dims, h.matrix.tobytes(), float(segment.duration).hex())
        if key not in built:
            built[key] = propagator(h, segment.duration), {}
        u, reached = built[key]
        if u.sites != h.sites:
            u = LocalOperator(h.sites, u.matrix)
        steps.append((u, ranges))
        if k + 1 == len(schedule):
            break
        box = tuple(ranges[s] for s in sites)
        if box not in reached:
            # rows, then columns, one axis per site; a NaN counts as non-zero
            entries = u.matrix.reshape(dims * 2)
            columns = entries[(Ellipsis,) + tuple(slice(lo, hi) for lo, hi in box)]
            reached[box] = _bounds(np.nonzero(columns.any(axis=tuple(range(-len(sites), 0)))))
        ranges = list(ranges)
        for s, (lo, hi), (r_lo, r_hi) in zip(sites, box, reached[box]):
            ranges[s] = (min(lo, r_lo), max(hi, r_hi))
        ranges = tuple(ranges)
    return steps


def _support(layout: SpaceLayout, psi: np.ndarray) -> tuple:
    """Per factor, the least (lo, hi) outside which ``psi`` holds only +0.0 bits."""
    # a -0.0 or NaN part counts as non-zero: left outside the block, a -0.0
    # would outlive its segment in the buffer the next one writes.  The
    # view is read as it is: a mask of it would take 2 bytes per amplitude
    parts = psi.view(np.int64)
    shape = layout.dims + (parts.size // layout.total_dim,)
    return tuple(_bounds(np.unravel_index(np.flatnonzero(parts), shape))[:-1])


def _bounds(indices: tuple) -> list:
    """Per axis, the least (lo, hi) holding every index of that axis's array."""
    found = np.array(indices)
    if not found.size:
        return [(0, 0)] * len(indices)
    return list(zip(found.min(axis=1).tolist(), (found.max(axis=1) + 1).tolist()))


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

    The amplitudes stay normalized for all t.  Each argument must be
    finite, omega_1 > 0 and omega_2, t >= 0, and omega^2 a positive float.
    """
    check_number("omega_1", omega_1, 0, strict=True)
    check_number("omega_2", omega_2, 0)
    check_number("t", t, 0)
    omega = math.hypot(omega_1, omega_2)
    # the squares below would raise OverflowError past the float range
    check_number("omega_1^2 + omega_2^2", omega * omega, 0, strict=True)
    cos_wt = np.cos(omega * t)
    sin_wt = np.sin(omega * t)
    return SingleExcitationAmplitudes(
        c_100=(omega_1**2 * cos_wt + omega_2**2) / omega**2,
        c_010=omega_1 * omega_2 * (cos_wt - 1.0) / omega**2,
        c_001=-1j * (omega_1 / omega) * sin_wt,
    )


def _drift(h_full, l_ops) -> np.ndarray:
    """drift = -iH - (1/2) sum_k L_k^dag L_k, so L(rho) = drift rho + rho drift^dag + jumps."""
    # a generator that overflows here is refused by the caller's finiteness
    # check, so the overflow itself is not worth a warning
    with np.errstate(over="ignore", invalid="ignore"):
        sink = sum((l.conj().T @ l for l in l_ops), np.zeros_like(h_full))
        return -1j * h_full - 0.5 * sink


class WorkLimitError(ValueError):
    """A Lindblad segment over ``MAX_LINDBLAD_SUBSTEPS``, or whose sizing could overflow."""


def _exact_parts(h_full, l_ops, t: float):
    """The drift of the Taylor series' generator and its sub-step count."""
    # a multiple of the identity in H drops out of [H, rho]; removing it
    # keeps the norm bound, and the cancellation in the series, small
    d = h_full.shape[0]
    h = h_full - (np.trace(h_full).real / d) * np.eye(d)
    drift = _drift(h, l_ops)
    # an SVD of a generator that overflowed need not converge
    if not np.isfinite(drift).all():
        raise WorkLimitError(
            "the Lindblad generator overflows, so its propagator sub-steps are unbounded"
        )
    # ||L(X)||_F <= (2 ||drift||_2 + sum_k ||L_k||_2^2) ||X||_F, the spectral
    # norms from one batched singular-value call
    norms = np.linalg.svd(np.stack([drift, *l_ops]), compute_uv=False).max(axis=-1)
    # an overflowing bound or count is caught by the limit check below
    with np.errstate(over="ignore", invalid="ignore"):
        bound = 2.0 * norms[0] + sum(n**2 for n in norms[1:])
        count = bound * t / _TAYLOR_THETA
    check_number("propagator sub-steps", count, 0, MAX_LINDBLAD_SUBSTEPS, error=WorkLimitError)
    n_sub = max(1, math.ceil(count))
    # A sufficient condition for every Taylor product to stay in the float
    # range.  L_y is L on an isometric copy of the Hermitian matrices, so
    # ||L_y||_2 <= bound, and by Cauchy-Schwarz every entry of a product
    # row, and every partial sum of it, is at most bound times the norm of
    # the term row it multiplies.  With x = bound h <= _TAYLOR_THETA, the
    # k-th term row is at most x^k / k! times the row its sub-step starts
    # from, and x^k / k! peaks at k = floor(x).  A channel keeps the trace
    # norm, so inputs of trace norm at most 1 (states, and the Hermitian
    # parts of matrix units) start every sub-step from rows of norm at most
    # 1.
    x = float(bound) * float(t) / n_sub
    largest = float(bound) * (x ** int(x) / math.factorial(int(x)))
    check_number("Taylor product bound over a segment's sub-steps", largest, error=WorkLimitError)
    return drift, n_sub


@dataclass(frozen=True)
class LindbladSegment:
    """A stretch of constant Lindbladian, sized for ``exp_segment`` when it is built.

    ``h_full`` is the Hamiltonian, ``l_ops`` the collapse operators and
    ``t`` the duration.  The derived ``drift`` = -iH' - (1/2) sum_k
    L_k^dag L_k, with H' the traceless part of H, and ``substeps``, the
    number of equal Taylor sub-steps over ``t``, are computed here, so
    ``dataclasses.replace`` sizes its copy afresh.  A dimension above
    ``SUPEROPERATOR_DIM_LIMIT`` or a duration that is negative, NaN or
    infinite raises ``ValueError`` before anything is allocated; work over
    ``MAX_LINDBLAD_SUBSTEPS``, or a generator, count or Taylor product that
    could overflow, raises ``WorkLimitError``.  So ``substeps`` is an int
    in [1, ``MAX_LINDBLAD_SUBSTEPS``].  Nothing here is of size d^4: each
    run forms its own superoperator.
    """

    h_full: np.ndarray
    l_ops: tuple[np.ndarray, ...]
    t: float
    drift: np.ndarray = field(init=False)
    substeps: int = field(init=False)

    def __post_init__(self):
        check_index("superoperator dimension", self.h_full.shape[0], 0, SUPEROPERATOR_DIM_LIMIT)
        check_number("duration", self.t, 0)
        object.__setattr__(self, "l_ops", tuple(self.l_ops))
        drift, substeps = _exact_parts(self.h_full, self.l_ops, self.t)
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "substeps", substeps)


def _superoperator(drift, l_ops) -> np.ndarray:
    """Matrix of L on row-major vec(rho), using vec(A rho B) = kron(A, B^T) vec(rho).

    L's matrix is kron(drift, I) + kron(I, drift^*) + sum_k kron(L_k, L_k^*).
    Each Kronecker product is written onto its own non-zeros only, d^3 for
    the first two and nnz(L_k)^2 for a jump term, and added in that order,
    so every entry is the same sum of the same products as with full
    Kronecker products.  A jump term is written for a block of L_k's
    non-zeros at a time, at most d^3 products per block, so no d^4
    temporary is formed even for a dense L_k; a jump with at most d
    non-zeros, as every physical one here, is one block.
    """
    d = drift.shape[0]
    # axes (a, b, c, e): row a d + b, column c d + e
    sup = np.zeros((d, d, d, d), dtype=complex)
    diag = np.arange(d)
    sup[:, diag, :, diag] = drift
    sup[diag, :, diag, :] += drift.conj()
    for l_op in l_ops:
        rows, cols = np.nonzero(l_op)
        values = l_op[rows, cols]
        step = max(1, d**3 // max(len(values), 1))
        for lo in range(0, len(values), step):
            block = slice(lo, lo + step)
            sup[rows[block, None], rows, cols[block, None], cols] += (
                values[block, None] * values.conj()
            )
    return sup.reshape(d * d, d * d)


def _real_superoperator(drift, l_ops) -> np.ndarray:
    """Matrix of L on the real coordinates y = Re vec(A) + Im vec(A) of a Hermitian A.

    A = Q y with Q = ((1+i) I + (1-i) P) / 2 and P the transpose permutation
    on vec, and L keeps A Hermitian, so L_y = Re(S Q) + Im(S Q), which
    works out to Re(S) + Im(S P): S P only permutes the columns of S.

    L_y is laid out in Fortran order.  The Taylor gemm's BLAS call follows
    the layout, and a C-ordered copy of the same entries rounds otherwise,
    so the order is set here rather than left to the fancy-indexed gather.
    """
    d = drift.shape[0]
    sup = _superoperator(drift, l_ops)
    transpose = np.arange(d * d).reshape(d, d).T.reshape(-1)
    real = np.asfortranarray(sup.imag[:, transpose])
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


def _taylor_substeps(flat: np.ndarray, sup_t: np.ndarray, n_sub: int, h: float) -> None:
    """Overwrite the coordinate rows ``flat`` with exp(L h)^n_sub applied to them.

    Each term is one product with ``sup_t``, then a scale and an add, all
    into buffers allocated once.  A sub-step ends when the largest entries
    of two consecutive terms fall below unit roundoff relative to the
    sum's.  ``bound`` runs as fl(bound + size) from the sum's largest
    entry: rounding is monotone, so it never falls below the largest entry
    of the sum, and that entry is read only when the test could pass
    against the bound; every stopping decision is the same as with the
    exact maximum after every term.
    """
    term = np.empty_like(flat)
    product = np.empty_like(flat)
    magnitude = np.empty_like(flat)
    for _ in range(n_sub):
        np.copyto(term, flat)
        # largest-entry sizes: a BLAS norm here runs multithreaded
        last = bound = np.abs(term, out=magnitude).max()
        for k in range(1, _TAYLOR_DEGREE + 1):
            np.matmul(term, sup_t, out=product)
            np.multiply(product, h / k, out=term)
            np.add(flat, term, out=flat)
            size = np.abs(term, out=magnitude).max()
            bound = bound + size
            if last + size <= _UNIT_ROUNDOFF * bound:
                bound = np.abs(flat, out=magnitude).max()
                if last + size <= _UNIT_ROUNDOFF * bound:
                    break
            last = size


def exp_segment(rho, segment: LindbladSegment) -> np.ndarray:
    """Apply exp(L t) of a sized ``segment`` to ``rho`` to rounding.

    ``rho`` may carry leading batch axes.  L is the Lindbladian of the
    segment's Hamiltonian ``h_full`` and collapse operators ``l_ops``, all
    d x d matrices on the space ``rho`` lives on; ``t`` is its duration.
    A segment refuses oversized work when it is built, so every segment
    runs.  L maps Hermitian matrices to Hermitian matrices, so each input
    X = A + iB runs as the real coordinates of its Hermitian parts A and B,
    and L as the real d^2 x d^2 matrix ``_real_superoperator``, formed once
    per call.  Each
    of the segment's equal sub-steps then sums the Taylor series of
    exp(L h), one real matrix product on the non-zero coordinate rows per
    term, until the largest entries of two consecutive terms fall below
    unit roundoff relative to the sum's.  A Hermitian input comes back
    exactly Hermitian.  Trace is not renormalized, so any drift stays
    visible to the caller.
    """
    d = segment.h_full.shape[0]
    rho = np.asarray(rho, dtype=complex)
    # rows are the coordinates of every A, then of every B, so L acts from the right
    coords = np.concatenate([part.reshape(-1, d * d) for part in _to_coordinates(rho)])
    # a row of zeros, such as the B part of a Hermitian input, adds nothing
    # to any largest entry, and the series leaves it +0
    live = coords.any(axis=1)
    if live.any():
        sup_t = _real_superoperator(segment.drift, segment.l_ops).T
        flat = coords[live]
        _taylor_substeps(flat, sup_t, segment.substeps, segment.t / segment.substeps)
        coords[live] = flat
    coords[~live] = 0.0
    a, b = _from_coordinates(coords.reshape(2, *rho.shape))
    return a + 1j * b
