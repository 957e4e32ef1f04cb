"""Shared helpers: an independent dense-embedding oracle, random inputs and
product states.

The oracle builds embedded operators elementwise from mixed-radix digit
comparisons, deliberately avoiding the library's kron/transpose and
gather-gemm-scatter code paths so agreement between the two is meaningful.
"""

import numpy as np

from squidcavity import CompositeState, LocalOperator, SpaceLayout
from squidcavity.hilbert import SQUID_DIM


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
