"""Tensor-product state and operator algebra for SQUID registers in a cavity.

The composite system is N three-level SQUIDs plus one truncated cavity mode.
Conventions fixed here and relied on everywhere else in the package:

* SQUID levels are indexed 0, 1, 2 for the two flux states ``|0>``, ``|1>``
  and the upper level ``|e>``.
* The cavity keeps Fock states ``|0> .. |n_max>``.  ``n_max`` defaults to 2:
  the ideal protocols never populate more than one photon, so the second
  photon level acts purely as a guard where leakage would show up.
* Factor order is SQUID 0, SQUID 1, ..., SQUID N-1, cavity last.  Amplitude
  vectors are C-ordered over the mixed-radix digits of that factor list
  (first SQUID varies slowest, cavity digit fastest).
* Operators address factors through site indices.  Negative indices count
  from the end of the factor list, so site ``-1`` is always the cavity.

``CompositeState`` is where a state enters: it checks the length and
finiteness of the amplitudes once.  The kernel ``contract`` is the one way an
operator is embedded: it applies the operator to raw amplitudes, one vector
or a block of states along a trailing batch axis, and never forms a global
matrix of it.  Where a full-space matrix is needed (the noisy gate's
generators), it is ``contract`` on the identity block.  When an operator's
sites are one ascending run of neighbouring factors (every single-SQUID
pulse, the last gate's (N-2, N-1, cavity)), the amplitudes reshape to a
(left, D, right) view, the batch axis joining right, and the operator is
applied with no copy.  Any other site set, such as the gate's (a, a+1,
cavity) with a < N-2 or a descending order, takes one gather-gemm-scatter
route: the touched axes are gathered last into the result buffer, one gemm
against the transposed matrix writes into a second buffer, and one scatter
puts the product back in layout order.  Given an ``out`` array,
``contract`` writes there and uses its input as that second buffer, so a
schedule runs in two state-sized buffers.

Layouts and operators are immutable after construction and safe to share
between threads; an operator's matrix and a state's amplitudes are
read-only views.  A CompositeState is owned by whichever evolution is
currently producing it; independent runs can proceed concurrently on their
own states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQUID_DIM = 3
LEVEL_0, LEVEL_1, LEVEL_E = 0, 1, 2

HERMITICITY_TOL = 1e-12

# A single-run operator of dimension D with ``right`` amplitudes after it,
# batch axis included, is applied either as ``left`` stacked (D x D)(D x right)
# products or as one gemm against kron(M, I_right), which does ``right`` times
# the arithmetic.  The single gemm wins while its extra D^2 right (right - 1)
# multiply-adds per block stay below the cost of a separate small product.
_KRON_EXTRA_MACS = 5000


@dataclass(frozen=True)
class SpaceLayout:
    """Shape of the composite space: ``n_squids`` qutrits plus one cavity mode."""

    n_squids: int
    fock_cutoff: int = 2

    def __post_init__(self):
        if self.n_squids < 1:
            raise ValueError(f"need at least one SQUID, got n_squids={self.n_squids}")
        if self.fock_cutoff < 0:
            raise ValueError(f"fock_cutoff must be >= 0, got {self.fock_cutoff}")

    @property
    def n_factors(self) -> int:
        return self.n_squids + 1

    @property
    def dims(self) -> tuple[int, ...]:
        return (SQUID_DIM,) * self.n_squids + (self.fock_cutoff + 1,)

    @property
    def total_dim(self) -> int:
        return SQUID_DIM**self.n_squids * (self.fock_cutoff + 1)

    def resolve_site(self, site: int) -> int:
        """Map a possibly-negative site index to a factor position."""
        if not -self.n_factors <= site < self.n_factors:
            raise ValueError(
                f"site {site} out of range for {self.n_factors} factors"
            )
        return site % self.n_factors

    def resolve_sites(self, sites) -> tuple[int, ...]:
        resolved = tuple(self.resolve_site(s) for s in sites)
        if len(set(resolved)) != len(resolved):
            raise ValueError(f"duplicate sites in {tuple(sites)}")
        return resolved


@dataclass
class CompositeState:
    """Complex amplitude vector over the full register, in layout order.

    Construction checks length and finiteness: the one check a state gets.
    ``amplitudes`` is then a read-only view, so nothing written through the
    state can undo the check.  The view shares memory with a complex array
    the caller passed in; that array stays writable, and a write into it
    shows through.
    """

    layout: SpaceLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.size != self.layout.total_dim:
            raise ValueError(
                f"amplitude vector has length {amp.size}, "
                f"layout dimension is {self.layout.total_dim}"
            )
        if not np.isfinite(amp).all():
            raise ValueError("amplitudes contain NaN or Inf")
        amp = amp.view()
        amp.flags.writeable = False
        self.amplitudes = amp

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def basis_index(layout: SpaceLayout, levels, photons: int = 0) -> int:
    """Flat index of the product basis state with the given SQUID levels.

    ``levels`` lists one level (0, 1 or 2) per SQUID in layout order;
    ``photons`` is the cavity Fock digit.
    """
    levels = tuple(int(v) for v in levels)
    if len(levels) != layout.n_squids:
        raise ValueError(
            f"expected {layout.n_squids} levels, got {len(levels)}"
        )
    for i, v in enumerate(levels):
        if not 0 <= v < SQUID_DIM:
            raise ValueError(f"level {v} at SQUID {i} outside 0..2")
    if not 0 <= photons <= layout.fock_cutoff:
        raise ValueError(f"photon number {photons} exceeds cutoff {layout.fock_cutoff}")
    index = 0
    for v in levels:
        index = index * SQUID_DIM + v
    return index * (layout.fock_cutoff + 1) + photons


def basis_state(layout: SpaceLayout, levels, photons: int = 0) -> CompositeState:
    """Product basis state |levels> x |photons>."""
    amp = np.zeros(layout.total_dim, dtype=complex)
    amp[basis_index(layout, levels, photons)] = 1.0
    return CompositeState(layout, amp)


@dataclass(frozen=True)
class LocalOperator:
    """Dense matrix acting on a declared subset of tensor factors.

    ``sites`` lists the factors the operator touches, in the order matched by
    the row/column mixed-radix convention of ``matrix`` (first listed site is
    the slowest digit).  ``local_dims`` gives the corresponding factor
    dimensions; the matrix must be square with dimension equal to their
    product.  Setting ``hermitian`` asserts Hermiticity at construction.
    ``matrix`` is then a read-only view, so nothing written through the
    operator can undo the checks.  It shares memory with a complex array the
    caller passed in; that array stays writable, and a write into it shows
    through.
    """

    sites: tuple[int, ...]
    local_dims: tuple[int, ...]
    matrix: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(int(s) for s in self.sites))
        object.__setattr__(self, "local_dims", tuple(int(d) for d in self.local_dims))
        mat = np.asarray(self.matrix, dtype=complex)
        if len(self.sites) != len(self.local_dims):
            raise ValueError("sites and local_dims differ in length")
        dim = math.prod(self.local_dims)
        if mat.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {mat.shape} does not match local dimensions "
                f"{self.local_dims} (product {dim})"
            )
        if self.hermitian:
            defect = np.max(np.abs(mat - mat.conj().T)) if dim else 0.0
            # written so that a NaN defect fails too
            if not defect <= HERMITICITY_TOL:
                raise ValueError(
                    f"operator flagged hermitian but max |M - M^dag| = {defect:.3e}"
                )
        mat = mat.view()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def contract(
    layout: SpaceLayout, op: LocalOperator, psi: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Apply a local operator to raw amplitudes, the one operator kernel.

    ``psi`` is one amplitude vector or a block of states as columns, shape
    (total_dim, batch); the result has its shape.  The sites split, in the
    operator's order, into runs of ascending neighbours: on three SQUIDs
    (1, 2, -1) is one run and (0, 1, -1) is two.  One run is applied on the
    view (left, D, right): as ``left`` stacked (D x D)(D x right) products,
    or, while ``right`` is small, as one gemm against kron(M, I_right),
    built as a broadcast product with the bits ``np.kron`` gives.  Otherwise
    the untouched factors between runs are merged into single axes, gathered
    with the batch axis in front of the runs, multiplied in one gemm and
    scattered back.

    Without ``out`` the result is a new array and ``psi`` is only read.
    ``out``, a C-contiguous complex array shaped like ``psi`` and apart from
    it, receives the result and is returned; ``psi`` is then scratch, and
    its contents afterwards are undefined.
    """
    sites = layout.resolve_sites(op.sites)
    for s, d in zip(sites, op.local_dims):
        if layout.dims[s] != d:
            raise ValueError(
                f"operator expects dimension {d} at site {s}, layout has {layout.dims[s]}"
            )
    if out is None:
        out, scratch = np.empty(psi.shape, dtype=complex), None
    elif (
        out.shape != psi.shape
        or out.dtype != complex
        or not out.flags.c_contiguous
        or np.may_share_memory(out, psi)
    ):
        raise ValueError("out must be a C-contiguous complex array shaped like psi, apart from it")
    else:
        scratch = psi
    # split the sites, in operator order, into runs of ascending neighbours
    runs = []
    for s in sites:
        if runs and s == runs[-1][-1] + 1:
            runs[-1].append(s)
        else:
            runs.append([s])
    # merged tensor shape: one axis per run, one per stretch of other factors
    run_of = {s: i for i, run in enumerate(runs) for s in run}
    shape, axes, prev = [], [0] * len(runs), None
    for f, d in enumerate(layout.dims):
        key = run_of.get(f)
        if shape and key == prev:
            shape[-1] *= d
        else:
            if key is not None:
                axes[key] = len(shape)
            shape.append(d)
        prev = key
    if len(runs) == 1:
        view = psi.reshape(math.prod(shape[: axes[0]]), op.dim, -1)
        right = view.shape[2]
        if op.dim**2 * right * (right - 1) <= _KRON_EXTRA_MACS:
            # kron(M, I_right), C-contiguous and with np.kron's bits, without
            # np.kron's per-call overhead
            kron = (op.matrix[:, None, :, None] * np.eye(right)[:, None]).reshape(
                op.dim * right, op.dim * right
            )
            np.matmul(view.reshape(view.shape[0], -1), kron.T, out=out.reshape(view.shape[0], -1))
        else:
            np.matmul(op.matrix, view, out=out.reshape(view.shape))
        return out
    # gather the run axes last, in operator order, after the batch axis
    tensor = psi.reshape(shape + [-1])
    order = [a for a in range(tensor.ndim) if a not in axes] + axes
    gathered = out.reshape([tensor.shape[a] for a in order])
    np.copyto(gathered, tensor.transpose(order))
    if scratch is None:
        scratch = np.empty_like(out)
    product = np.matmul(
        gathered.reshape(-1, op.dim), op.matrix.T, out=scratch.reshape(-1, op.dim)
    )
    np.copyto(out.reshape(tensor.shape).transpose(order), product.reshape(gathered.shape))
    return out


def expectation(state: CompositeState, op: LocalOperator) -> complex:
    """<psi| O |psi> with O embedded on its declared sites."""
    return complex(np.vdot(state.amplitudes, contract(state.layout, op, state.amplitudes)))

