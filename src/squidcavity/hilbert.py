"""Tensor-product state and operator algebra for SQUID registers in a cavity.

The composite system is N three-level SQUIDs plus one truncated cavity mode.
Conventions fixed here and relied on everywhere else in the package:

* SQUID levels are indexed 0, 1, 2 for the two flux states ``|0>``, ``|1>``
  and the upper level ``|e>``.
* The cavity keeps Fock states ``|0> .. |fock_cutoff>``.  ``fock_cutoff``
  defaults to 2: the ideal protocols never populate more than one photon,
  so the second photon level acts purely as a guard where leakage would
  show up.
* Factor order is SQUID 0, SQUID 1, ..., SQUID N-1, cavity last.  Amplitude
  vectors are C-ordered over ``SpaceLayout.dims``, the factor dimensions in
  that order (first SQUID varies slowest, cavity digit fastest), so the
  flat index of a basis state is ``np.ravel_multi_index`` over them.
* Operators address factors through site indices, one per factor: SQUID
  i is site ``i`` (0 <= i < N) and the cavity is ``CAVITY`` (-1) and
  nothing else.

``check_number`` is the one check of a number: every rate, duration,
phase and ratio a constructor or propagator takes goes through it once, and
so does every value a constructor derives from them.  It refuses whatever
is not a real number, ``True`` and a string included, before it compares,
so a value of the wrong type is named like one out of range.
``check_index`` is its counterpart for an integer label (a site, a SQUID,
a level or a photon number) and for every size (a cavity cutoff, a chain
length), in the library and in a run's settings alike: an ``int`` that is
not a ``bool``, in range; it never converts, so 1.7 and ``True`` are
refused rather than read as 1.  The float bound ``check_number`` checks
against, ``FLOAT_MAX``, and the byte budget of the largest array the
program may allocate, ``MAX_ARRAY_BYTES``, are stated here and only here.

``CompositeState`` is where a state enters: it checks the length and
finiteness of the amplitudes once.  The kernel ``contract`` is the one way an
operator is embedded: it applies the operator to raw amplitudes, one vector
or a block of states along a trailing batch axis, and never forms a global
matrix of it.  Where a generator is needed as a matrix on a few basis
states (the noisy gate's subspace), it is ``contract`` on the identity's
columns at those states, cut to their rows.  When an operator's
sites are one ascending run of neighbouring factors (every single-SQUID
pulse, the last gate's (N-2, N-1, cavity)), the amplitudes reshape to a
(left, D, right) view, the batch axis joining right, and the operator is
applied with no copy.  Any other site set, such as the gate's (a, a+1,
cavity) with a < N-2, a descending order or no site at all, takes one
gather-gemm-scatter route over the view with one axis per factor plus the
batch axis: the untouched axes and the batch axis are gathered first and
the operator's sites last into the result buffer, one gemm against the
transposed matrix writes into a second buffer, and one scatter puts the
product back in layout order.  Given an ``out`` array, ``contract`` writes
there and uses its input as that second buffer, so a schedule runs in two
state-sized buffers.  A caller that knows, per factor, a level range
[lo, hi) outside which every amplitude is exactly zero passes these
``ranges``, and ``contract`` computes only the block they cut out of the
factors the operator does not touch, by the route and BLAS call the full
space would take, with basic slices and no index arrays.  Both buffers
are then exactly zero outside the block: ``out`` must be on the way in,
and ``psi`` is left so outside its ranges.

Layouts and operators are immutable after construction and safe to share
between threads.  A ``LocalOperator`` holds its ``sites`` and its square
``matrix``; the layout alone states each factor's dimension, and
``SpaceLayout.operator_dims`` is the one check that an operator's matrix
fits its sites.  An operator's matrix and a state's amplitudes are
read-only views.  A CompositeState is owned by whichever evolution is
currently producing it; independent runs can proceed concurrently on their
own states.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from numbers import Real

import numpy as np

SQUID_DIM = 3
LEVEL_0, LEVEL_1, LEVEL_E = 0, 1, 2
# the one address of the cavity factor
CAVITY = -1

# A single-run operator of dimension D with ``right`` amplitudes after it,
# batch axis included, is applied either as ``left`` stacked (D x D)(D x right)
# products or as one gemm against kron(M, I_right), which does ``right`` times
# the arithmetic.  The single gemm wins while its extra D^2 right (right - 1)
# multiply-adds per block stay below the cost of a separate small product.
_KRON_EXTRA_MACS = 5000

FLOAT_MAX = sys.float_info.max
# budget for the largest single complex array a command may allocate, such
# as a cluster run's two-state buffer array (``config`` counts it)
MAX_ARRAY_BYTES = 2**24


def check_number(name, value, low=-FLOAT_MAX, high=FLOAT_MAX, *, strict=False, error=ValueError):
    """Return ``value`` if it is a finite real number in [low, high]; else raise ``error``.

    A real number is a ``numbers.Real`` that is not a ``bool``: ``True``,
    a string, None, a list, a dict and a complex are refused by name.
    ``strict`` excludes ``low``.  The range test compares and never
    converts, so NaN, +-inf and an integer too large for a float (which
    would raise OverflowError later) all fail it.
    """
    # a float, by far the commonest value, skips the slower ABC test
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, Real)):
        raise error(f"{name} must be a number, got {name}={value!r}")
    if (low < value if strict else low <= value) and value <= high:
        return value
    if high < FLOAT_MAX:
        rule = f" and lie in [{low:g}, {high:g}]"
    elif low > -FLOAT_MAX:
        rule = f" and {'>' if strict else '>='} {low:g}"
    else:
        rule = ""
    raise error(f"{name} must be finite{rule}, got {name}={value}")


def check_index(name, value, low, high=None, *, error=ValueError):
    """Return ``value`` if it is an ``int`` in [low, high]; else raise ``error``.

    A ``bool`` is not an index, and no value is converted, so 1.7 is
    refused rather than read as 1.  ``high`` None leaves no upper bound.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        if low <= value and (high is None or value <= high):
            return value
    rule = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise error(f"{name} must be an integer {rule}, got {name}={value!r}")


@dataclass(frozen=True)
class SpaceLayout:
    """Shape of the composite space: ``n_squids`` qutrits plus one cavity mode."""

    n_squids: int
    fock_cutoff: int = 2

    def __post_init__(self):
        check_index("n_squids", self.n_squids, 1)
        check_index("fock_cutoff", self.fock_cutoff, 0)

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
        """Factor position of SQUID ``site`` (0 <= site < N) or of ``CAVITY``."""
        return check_index("site", site, CAVITY, self.n_squids - 1) % self.n_factors

    def resolve_sites(self, sites) -> tuple[int, ...]:
        resolved = tuple(self.resolve_site(s) for s in sites)
        if len(set(resolved)) != len(resolved):
            raise ValueError(f"duplicate sites in {tuple(sites)}")
        return resolved

    def operator_dims(self, op: LocalOperator) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Factor positions of ``op``'s sites and their dimensions, in site order.

        The one place an operator's dimensions are read: the layout states
        them.  A repeated or out-of-range site is refused, and so is a
        matrix whose size is not their product.
        """
        factors = self.resolve_sites(op.sites)
        dims = tuple(self.dims[f] for f in factors)
        if op.dim != math.prod(dims):
            raise ValueError(
                f"operator on sites {op.sites} has dimension {op.dim}, the layout "
                f"gives them dimensions {dims} (product {math.prod(dims)})"
            )
        return factors, dims


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
    ``photons`` is the cavity Fock digit.  Each is checked to be an ``int``
    in range before numpy, which would read ``True`` as 1, sees it.
    """
    levels = tuple(levels)
    if len(levels) != layout.n_squids:
        raise ValueError(
            f"expected {layout.n_squids} levels, got {len(levels)}"
        )
    for i, v in enumerate(levels):
        check_index(f"level of SQUID {i}", v, 0, SQUID_DIM - 1)
    check_index("photons", photons, 0, layout.fock_cutoff)
    return int(np.ravel_multi_index((*levels, photons), layout.dims))


def basis_state(layout: SpaceLayout, levels, photons: int = 0) -> CompositeState:
    """Product basis state |levels> x |photons>."""
    amp = np.zeros(layout.total_dim, dtype=complex)
    amp[basis_index(layout, levels, photons)] = 1.0
    return CompositeState(layout, amp)


@dataclass(frozen=True)
class LocalOperator:
    """Dense square matrix acting on a declared subset of tensor factors.

    ``sites`` lists the factors the operator touches, in the order matched by
    the row/column mixed-radix convention of ``matrix`` (first listed site is
    the slowest digit): SQUID indices and ``CAVITY``, each checked to be an
    ``int``, never converted.  The layout, not the operator, states each
    factor's dimension: ``SpaceLayout.operator_dims`` checks that the
    matrix size is their product where the operator meets a layout.
    ``matrix`` is a read-only view, so nothing written through the operator
    can undo the check, and a propagator built for one segment can be
    shared by every segment whose generator has the same bits.  It shares
    memory with a complex array the caller passed in; that array stays
    writable, and a write into it shows through.
    """

    sites: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        sites = tuple(check_index("site", s, CAVITY) for s in self.sites)
        object.__setattr__(self, "sites", sites)
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        mat = mat.view()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def contract(
    layout: SpaceLayout,
    op: LocalOperator,
    psi: np.ndarray,
    out: np.ndarray | None = None,
    ranges=None,
) -> np.ndarray:
    """Apply a local operator to raw amplitudes, the one operator kernel.

    ``psi`` is one amplitude vector or a block of states as columns, shape
    (total_dim, batch); the result has its shape.  Sites that are one run of
    ascending neighbours, such as (1, 2, CAVITY) on three SQUIDs, are applied on
    the view (left, D, right): as ``left`` stacked (D x D)(D x right)
    products, or, while ``right`` is small, as one gemm against
    kron(M, I_right), built as a broadcast product with the bits ``np.kron``
    gives.  Any other sites, such as (0, 1, CAVITY) or none, are applied on the
    view with one axis per factor and one for the batch: the untouched axes
    and the batch axis are gathered in front of the sites, in operator
    order, multiplied in one gemm and scattered back.

    ``ranges``, one (lo, hi) per factor, says that ``psi`` is exactly zero
    outside the levels lo <= level < hi of each factor; None is every
    level.  Only the block these ranges cut out of the factors the operator
    does not touch is then computed, its sites whole, and the result is
    zero outside that block: the stacked products skip the items outside
    it, and the other routes take only its gemm rows, gathered into the
    head of ``out`` when they are not one run.  The route is chosen from
    the full dimensions, and a block of one gemm row is widened to two, so
    every amplitude computed goes through the BLAS call of the full ranges.
    Where the kernel rounds each gemm row alike at any row count from two,
    as OpenBLAS's SkylakeX kernel does and its Haswell and SandyBridge
    kernels do not, every non-zero entry has the bits the full ranges
    give it, in one call and in a schedule of calls alike.  An exact zero
    may differ in sign: outside the block this result holds +0.0 where
    the full ranges' gemm may leave a row of -0.0, and a later call over
    the full ranges can sum such a -0.0 into its block.

    Without ``out`` the result is a new array and ``psi`` is only read.
    ``out``, a C-contiguous complex array shaped like ``psi`` and apart from
    it, receives the result and is returned; ``psi`` is then scratch.
    ``out`` must be zero outside the block, and ``psi`` is left zero
    outside its ranges, so that either can take a later result.
    """
    sites, _ = layout.operator_dims(op)
    dims = layout.dims
    if ranges is None:
        ranges = [(0, d) for d in dims]
    elif len(ranges) != len(dims):
        raise ValueError(f"ranges give {len(ranges)} factors, the layout has {len(dims)}")
    if out is None:
        out = np.zeros(psi.shape, complex)
        scratch = None
    elif (
        out.shape != psi.shape
        or out.dtype != complex
        or not out.flags.c_contiguous
        or np.may_share_memory(out, psi)
    ):
        raise ValueError("out must be a C-contiguous complex array shaped like psi, apart from it")
    else:
        scratch = psi
    if sites and sites == tuple(range(sites[0], sites[0] + len(sites))):
        left = dims[: sites[0]]
        right = psi.size // (math.prod(left) * op.dim)
        if op.dim**2 * right * (right - 1) > _KRON_EXTRA_MACS:
            # each item is a (D x D)(D x right) product of its own, so
            # skipping some leaves the others' bits as they are
            shape = left + (op.dim, right)
            items = tuple(slice(lo, hi) for lo, hi in ranges[: sites[0]])
            np.matmul(op.matrix, psi.reshape(shape)[items], out=out.reshape(shape)[items])
            return out
        # kron(M, I_right), C-contiguous and with np.kron's bits, without
        # np.kron's per-call overhead
        kron = (op.matrix[:, None, :, None] * np.eye(right)[:, None]).reshape(
            op.dim * right, op.dim * right
        )
        rows = _two_rows(ranges[: sites[0]], left, 1)
        run = _run(rows, left)
        if run is None:
            tensor = psi.reshape(left + (-1,))
            rows.append((0, tensor.shape[-1]))
            _gemm_block(tensor, out, scratch, rows, range(tensor.ndim), kron.T)
        else:
            flat = (math.prod(left), -1)
            np.matmul(psi.reshape(flat)[run], kron.T, out=out.reshape(flat)[run])
        return out
    # gather the sites last, in operator order, after the batch axis
    tensor = psi.reshape(dims + (-1,))
    order = [a for a in range(tensor.ndim) if a not in sites] + list(sites)
    untouched = order[: len(dims) - len(sites)]
    batch = tensor.shape[-1]
    rows = _two_rows([ranges[f] for f in untouched], [dims[f] for f in untouched], batch)
    box = [(0, n) for n in tensor.shape]
    for f, r in zip(untouched, rows):
        box[f] = r
    _gemm_block(tensor, out, scratch, box, order, op.matrix.T)
    return out


def _two_rows(box, dims, repeat) -> list:
    """``box`` widened by one level where it holds one gemm row of several.

    Each of ``repeat`` columns of the batch is a row of its own.  A product
    of one row is a gemv, which rounds otherwise than a row of a gemm; the
    rows of a gemm round alike at any row count from two.
    """
    box = list(box)
    if repeat == 1 and all(hi - lo == 1 for lo, hi in box) and math.prod(dims) > 1:
        f = next(f for f, d in enumerate(dims) if d > 1)
        lo, hi = box[f]
        box[f] = (lo, hi + 1) if hi < dims[f] else (lo - 1, hi)
    return box


def _run(box, dims) -> slice | None:
    """The C-order flat indices of ``box`` as a slice, if they are one run."""
    # the first factor wider than one level may take part of its levels;
    # every factor after it must be whole
    first = next((f for f, (lo, hi) in enumerate(box) if hi - lo > 1), len(box))
    if any(r != (0, d) for r, d in zip(box[first + 1:], dims[first + 1:])):
        return None
    start = 0
    for (lo, _), d in zip(box, dims):
        start = start * d + lo
    return slice(start, start + math.prod(hi - lo for lo, hi in box))


def _gemm_block(tensor, out, scratch, box, order, matrix_t) -> None:
    """Write ``tensor``'s block, axes in ``order``, times ``matrix_t`` into ``out``'s block.

    ``box`` gives one (lo, hi) per axis of ``tensor``.  The block is
    gathered into the head of ``out``, multiplied into the head of
    ``scratch`` (a new array if None) and scattered back.  The head of
    ``out`` is cleared before the scatter and the head of ``scratch`` after
    it, so each stays zero wherever it was zero outside the block.
    """
    block = tuple(slice(lo, hi) for lo, hi in box)
    part = tensor[block].transpose(order)
    gathered = out.reshape(-1)[: part.size].reshape(part.shape)
    np.copyto(gathered, part)
    head = np.empty(part.size, complex) if scratch is None else scratch.reshape(-1)[: part.size]
    k = matrix_t.shape[0]
    product = np.matmul(gathered.reshape(-1, k), matrix_t, out=head.reshape(-1, k))
    gathered.fill(0)
    np.copyto(out.reshape(tensor.shape)[block].transpose(order), product.reshape(part.shape))
    if scratch is not None:
        head.fill(0)
