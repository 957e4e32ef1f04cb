"""Property tests: the gate family, the noisy gate's channel and scores, contract's routes.

The routes are checked one state at a time and on blocks of states along
the kernel's trailing batch axis, into a new array and into a given one.
"""

import itertools
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squidcavity import (
    GateParams,
    LocalOperator,
    SpaceLayout,
    noisy_gate,
    qcpg_lindblad_fidelity,
    qcpg_schedule,
    truth_table,
)
from squidcavity.evolution import exp_segment
from squidcavity.hilbert import contract

from conftest import PADE_TOL, oracle_embedded, pade_scores

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=12)

# (m, n) with 2n > 2m + 1, so that the family's ratio is real and positive
FAMILY_MEMBERS = st.integers(0, 2).flatmap(lambda m: st.tuples(st.just(m), st.integers(m + 1, 4)))


@PROPERTY_SETTINGS
@given(FAMILY_MEMBERS)
def test_gate_family_gives_controlled_phase(member):
    # ratio = sqrt((2n/(2m+1))^2 - 1) with t = (2m+1) pi / omega_1 gives
    # omega_1 t = (2m+1) pi and omega t = 2 n pi
    m, n = member
    ratio = math.sqrt((2.0 * n / (2 * m + 1)) ** 2 - 1.0)
    omega_1 = GateParams().omega_1
    gate = GateParams(ratio=ratio, cavity_time=(2 * m + 1) * math.pi / omega_1)
    report = truth_table(qcpg_schedule(0, 1, gate))
    assert report.passed, (m, n, report.max_entry_error, report.leakage)


@PROPERTY_SETTINGS
@given(
    cavity_decay=st.floats(0.0, 5e7),
    gamma_e=st.floats(0.0, 4e8),
    branch_ratio=st.floats(0.0, 1.0),
)
def test_noisy_gate_channel_is_cptp(cavity_decay, gamma_e, branch_ratio):
    noisy = noisy_gate(
        cavity_decay_per_s=cavity_decay,
        gamma_e_per_s=gamma_e,
        branch_ratio_e_to_0=branch_ratio,
    )
    idx = noisy.computational
    d = len(noisy.kept)
    units = list(itertools.product(range(4), repeat=2))
    batch = np.zeros((16, d, d), dtype=complex)
    for m, (i, j) in enumerate(units):
        batch[m, idx[i], idx[j]] = 1.0
    for seg in noisy.segments:
        batch = exp_segment(batch, seg)
    # Choi matrix sum_ij |i><j| (x) E(|i><j|) on the computational inputs
    choi = np.zeros((4 * d, 4 * d), dtype=complex)
    for m, (i, j) in enumerate(units):
        choi[i * d:(i + 1) * d, j * d:(j + 1) * d] = batch[m]
        assert abs(np.trace(batch[m]) - (i == j)) <= 1e-12
    assert choi.shape == (44, 44)
    assert np.max(np.abs(choi - choi.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh((choi + choi.conj().T) / 2)[0] >= -1e-12



@settings(PROPERTY_SETTINGS, max_examples=20)
@given(
    cavity_decay=st.floats(0.0, 5e7),
    gamma_e=st.floats(0.0, 4e8),
    branch_ratio=st.floats(0.0, 1.0),
)
def test_noisy_gate_scores_match_the_pade_route(cavity_decay, gamma_e, branch_ratio):
    noisy = noisy_gate(
        cavity_decay_per_s=cavity_decay,
        gamma_e_per_s=gamma_e,
        branch_ratio_e_to_0=branch_ratio,
    )
    result = qcpg_lindblad_fidelity(noisy)
    f_avg, f_pro = pade_scores(noisy)
    assert abs(f_pro - result.process_fidelity) <= PADE_TOL
    assert abs(f_avg - result.average_fidelity) <= PADE_TOL


# largest layout drawn, and largest tail of it the dense reference is built on
CONTRACT_MAX_DIM = 20000
DENSE_TAIL_MAX_DIM = 729


@st.composite
def local_operator_cases(draw):
    """(n_squids, fock_cutoff, sites, seed) over every contraction route.

    Sites are drawn as an ascending run (start, middle or end of the factor
    list, cavity-last included), as the gate's (a, a+1, cavity), or in any
    order; the cavity is written as -1, its one address.  They stay within
    the tail of the layout that the dense reference is built on.
    """
    n_squids = draw(st.integers(1, 9))
    fock = draw(st.integers(0, 2 if n_squids < 9 else 0))
    layout = SpaceLayout(n_squids, fock)
    n = layout.n_factors
    lowest = next(
        f for f in range(n) if math.prod(layout.dims[f:]) <= DENSE_TAIL_MAX_DIM
    )
    kind = draw(st.sampled_from(("run", "gate", "any")))
    if kind == "gate" and n_squids - lowest >= 2:
        a = draw(st.integers(lowest, n_squids - 2))
        sites = [a, a + 1, n - 1]
    elif kind == "run":
        start = draw(st.integers(lowest, n - 1))
        length = draw(st.integers(1, min(3, n - start)))
        sites = list(range(start, start + length))
    else:
        order = draw(st.permutations(range(lowest, n)))
        sites = list(order[: draw(st.integers(1, min(3, n - lowest)))])
    sites = tuple(-1 if s == n_squids else s for s in sites)
    return n_squids, fock, sites, draw(st.integers(0, 2**32 - 1))


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(local_operator_cases(), st.integers(1, 3))
# one gemm against kron(M, I_9) on 3^7 left blocks; with a batch of two,
# against kron(M, I_18)
@example((8, 2, (7,), 1), 1)
@example((8, 2, (7,), 1), 2)
# stacked products, (3 x 3)(3 x 81) over 81 blocks
@example((8, 2, (4,), 2), 1)
# the last gate's (N-2, N-1, cavity) and a stabilizer's (i-1, i, i+1), small right
@example((8, 2, (6, 7, -1), 3), 1)
@example((8, 2, (5, 6, 7), 4), 1)
# a stabilizer with right = 9: stacked products
@example((8, 2, (4, 5, 6), 5), 1)
# the gate's non-adjacent (a, a+1, cavity); descending and scattered sets
@example((8, 2, (5, 6, -1), 6), 1)
@example((8, 2, (5, 6, -1), 6), 3)
@example((8, 2, (7, 6), 7), 1)
@example((9, 0, (-1, 6, 8), 8), 1)
# no site at all, a scalar on every amplitude; a non-adjacent mixed-sign set
@example((3, 2, (), 9), 1)
@example((3, 2, (), 9), 2)
@example((3, 2, (0, 2, -1), 10), 1)
@example((3, 2, (0, 2, -1), 10), 2)
def test_contract_matches_dense_oracle(case, width):
    n_squids, fock, sites, seed = case
    layout = SpaceLayout(n_squids, fock)
    assert layout.total_dim <= CONTRACT_MAX_DIM
    rng = np.random.default_rng(seed)
    local_dims = tuple(layout.dims[s] for s in sites)
    d = math.prod(local_dims)
    op = LocalOperator(sites, local_dims, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    shape = (layout.total_dim, width)
    block = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # one state, then the block with its batch axis, into a fresh result and
    # then into a given buffer (which takes a copy of the block as its scratch)
    got = [contract(layout, op, block[:, 0])]
    batched = contract(layout, op, block)
    assert batched.shape == shape
    got += list(batched.T)
    buffer = np.empty_like(block)
    assert contract(layout, op, block.copy(), out=buffer) is buffer
    got += list(buffer.T)
    # factors before the first site are untouched, so each block of the
    # leading digits is one state on the layout's tail (which keeps at
    # least one SQUID when the cavity is the only site)
    first = min([*layout.resolve_sites(sites), n_squids - 1])
    tail = SpaceLayout(n_squids - first, fock)
    shifted = tuple(s - first if s >= 0 else s for s in sites)
    dense = oracle_embedded(LocalOperator(shifted, local_dims, op.matrix), tail)
    assert tail.total_dim <= DENSE_TAIL_MAX_DIM
    for column, psi in zip(got, [block[:, 0], *block.T, *block.T], strict=True):
        want = (psi.reshape(-1, tail.total_dim) @ dense.T).reshape(-1)
        assert np.max(np.abs(column - want)) <= 1e-13 * np.max(np.abs(want)), case
