"""Property tests: the gate family, the noisy gate's channel and scores,
contract's routes and propagate's block bookkeeping.

The routes are checked one state at a time and on blocks of states along
the kernel's trailing batch axis, into a new array and into a given one,
on the whole space and on the block a set of level ranges cuts out.
``propagate`` is checked on drawn schedules and sparse inputs against a
segment-by-segment run of ``contract`` on the whole space.
"""

import itertools
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squidcavity import (
    CavitySegment,
    DriveSegment,
    GateParams,
    LocalOperator,
    SpaceLayout,
    noisy_gate,
    qcpg_lindblad_fidelity,
    qcpg_schedule,
    truth_table,
)
from squidcavity import evolution
from squidcavity.evolution import exp_segment, propagate, propagator
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
    d = math.prod(layout.dims[s] for s in sites)
    op = LocalOperator(sites, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
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
    dense = oracle_embedded(LocalOperator(shifted, op.matrix), tail)
    assert tail.total_dim <= DENSE_TAIL_MAX_DIM
    for column, psi in zip(got, [block[:, 0], *block.T, *block.T], strict=True):
        want = (psi.reshape(-1, tail.total_dim) @ dense.T).reshape(-1)
        assert np.max(np.abs(column - want)) <= 1e-13 * np.max(np.abs(want)), case


@st.composite
def restricted_cases(draw):
    """(n_squids, fock_cutoff, sites, ranges, width, seed) over every route.

    Sites are drawn as an ascending run, as the gate's (a, a+1, cavity), or
    in any order; ranges as one (lo, hi) per factor, none of them empty.
    A width of None is one state without a batch axis.
    """
    n_squids = draw(st.integers(1, 4))
    fock = draw(st.integers(1, 3))
    n = n_squids + 1
    kind = draw(st.sampled_from(("run", "gate", "any")))
    if kind == "gate" and n_squids >= 2:
        a = draw(st.integers(0, n_squids - 2))
        sites = [a, a + 1, n - 1]
    elif kind == "run":
        start = draw(st.integers(0, n - 1))
        sites = list(range(start, start + draw(st.integers(1, min(3, n - start)))))
    else:
        order = draw(st.permutations(range(n)))
        sites = list(order[: draw(st.integers(0, min(3, n)))])
    sites = tuple(-1 if s == n_squids else s for s in sites)
    ranges = []
    for d in SpaceLayout(n_squids, fock).dims:
        lo = draw(st.integers(0, d - 1))
        ranges.append((lo, draw(st.integers(lo + 1, d))))
    width = draw(st.sampled_from((None, 1, 2, 3)))
    return n_squids, fock, sites, tuple(ranges), width, draw(st.integers(0, 2**32 - 1))


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(restricted_cases())
# Kronecker rows: one run, not one run, and one row widened to two
@example((3, 2, (2,), ((1, 2), (0, 3), (0, 2), (0, 2)), None, 1))
@example((3, 2, (2,), ((0, 2), (1, 3), (0, 3), (0, 3)), None, 2))
@example((3, 2, (2,), ((2, 3), (1, 2), (0, 1), (0, 1)), None, 3))
# stacked items: (3 x 3)(3 x 27) each, and (36 x 36)(36 x 3) on a batch
@example((4, 2, (1,), ((0, 2), (1, 2), (0, 3), (0, 1), (0, 2)), None, 4))
@example((4, 3, (2, 3, -1), ((1, 3), (0, 1), (0, 3), (0, 3), (0, 2)), 3, 5))
# gather-gemm-scatter: the gate's sites, descending sites, no site, one row
@example((3, 2, (0, 1, -1), ((0, 2), (0, 3), (0, 2), (0, 2)), None, 6))
@example((3, 2, (2, 0), ((0, 3), (2, 3), (0, 3), (0, 2)), 3, 7))
@example((2, 1, (), ((0, 2), (1, 3), (1, 2)), 2, 8))
@example((3, 2, (0, 1, -1), ((0, 3), (0, 3), (2, 3), (0, 3)), 1, 9))
def test_contract_on_a_block_has_the_bits_of_the_whole(case):
    n_squids, fock, sites, ranges, width, seed = case
    layout = SpaceLayout(n_squids, fock)
    rng = np.random.default_rng(seed)
    d = math.prod(layout.dims[s] for s in sites)
    op = LocalOperator(sites, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    shape = layout.dims + (() if width is None else (width,))
    inside = np.zeros(shape, dtype=bool)
    inside[tuple(slice(lo, hi) for lo, hi in ranges)] = True
    psi = np.where(inside, rng.normal(size=shape) + 1j * rng.normal(size=shape), 0)
    psi = psi.reshape(layout.total_dim, *shape[layout.n_factors:])
    want = contract(layout, op, psi)
    # the block: every factor cut to its range but the operator's sites
    cut = [slice(lo, hi) for lo, hi in ranges]
    for f in layout.resolve_sites(sites):
        cut[f] = slice(None)
    block = np.zeros(shape, dtype=bool)
    block[tuple(cut)] = True
    assert not np.any(want.reshape(shape)[~block])

    def same(got):
        # the block has the whole run's bits, and outside it both are zero:
        # a whole-range gemm can give a row of zeros a sign bit at some of
        # its columns, which a run on the block leaves +0.0
        got = got.reshape(shape)
        return got[block].tobytes() == want.reshape(shape)[block].tobytes() and not np.any(
            got[~block]
        )

    # into a new array, and into a buffer that is zero outside the block but
    # holds a stale state inside it, with the input as scratch
    assert same(contract(layout, op, psi, ranges=ranges)), case
    out = np.where(block, rng.normal(size=shape), 0).astype(complex).reshape(psi.shape)
    scratch = psi.copy()
    assert contract(layout, op, scratch, out=out, ranges=ranges) is out
    assert same(out), case
    # the scratch input is left zero outside its ranges, so it can take the
    # next segment's result
    assert not np.any(scratch.reshape(shape)[~inside])


# largest layout the dense reference of the schedule test is built on
DENSE_MAX_SQUIDS = 4


@st.composite
def schedule_cases(draw):
    """(n_squids, fock_cutoff, schedule, support, signed_zeros, width, seed).

    The schedule holds drive pulses on any transition of any SQUID and
    exchanges between any two SQUIDs.  The input's non-zero amplitudes sit
    at ``support``, digit tuples (cavity digit last) inside a drawn box of
    low levels; ``signed_zeros`` are further digit tuples, anywhere, that
    hold a -0.0 part.  A width of None is one state without a batch axis.
    """
    n_squids = draw(st.integers(1, 8))
    fock = draw(st.integers(1, 3))
    dims = SpaceLayout(n_squids, fock).dims
    schedule = []
    for _ in range(draw(st.integers(1, 6))):
        if n_squids >= 2 and draw(st.booleans()):
            a, b = draw(st.permutations(range(n_squids)))[:2]
            omega_2 = draw(st.sampled_from((0.0, 1.8e8 * math.sqrt(3), 2.5e8)))
            duration = draw(st.sampled_from((math.pi / 1.8e8, 4e-9)))
            schedule.append(CavitySegment(a, b, 1.8e8, omega_2, duration))
        else:
            transition = draw(st.permutations((0, 1, 2)))[:2]
            duration = draw(st.sampled_from((0.0, 3e-9, 1.0e-8, 1.7e-8)))
            phase = draw(st.sampled_from((0.0, 0.7)))
            target = draw(st.integers(0, n_squids - 1))
            schedule.append(DriveSegment(target, tuple(transition), 1e8, duration, phase))
    box = [draw(st.integers(1, d)) for d in dims]
    digits = st.tuples(*(st.integers(0, top - 1) for top in box))
    support = draw(st.lists(digits, min_size=1, max_size=4, unique=True))
    anywhere = st.tuples(*(st.integers(0, d - 1) for d in dims))
    signed_zeros = draw(st.lists(anywhere, max_size=3))
    width = draw(st.sampled_from((None, 1, 2, 3)))
    seed = draw(st.integers(0, 2**32 - 1))
    return n_squids, fock, tuple(schedule), support, signed_zeros, width, seed


def _sparse_input(layout, support, signed_zeros, width, seed):
    """Normalized states on ``support``, with a -0.0 part at each ``signed_zeros`` entry."""
    rng = np.random.default_rng(seed)
    columns = 1 if width is None else width
    psi = np.zeros((layout.total_dim, columns), dtype=complex)
    rows = [np.ravel_multi_index(d, layout.dims) for d in support]
    psi[rows] = rng.normal(size=(len(rows), columns)) + 1j * rng.normal(size=(len(rows), columns))
    psi /= np.linalg.norm(psi, axis=0)
    for d in signed_zeros:
        row = np.ravel_multi_index(d, layout.dims)
        if not psi[row].any():
            part = psi.real if rng.integers(2) else psi.imag
            part[row] = -0.0
    return psi[:, 0].copy() if width is None else psi


@settings(PROPERTY_SETTINGS, max_examples=150)
@given(schedule_cases())
# a -0.0 part where SQUID 0 is in |e>: pulses on SQUID 7 never reach it, so
# only the input's support puts it in the ranges
@example(
    (8, 2, (DriveSegment(7, (0, 1), 1e8, 1e-8),) * 2, [(0,) * 9], [(2,) + (0,) * 8], None, 0)
)
# a signed zero in a block of two states, and an exchange that reaches a
# level the input leaves empty
@example(
    (
        3,
        1,
        (DriveSegment(0, (0, 2), 1e8, 1e-8), CavitySegment(0, 2, 1.8e8, 2.5e8, 4e-9)),
        [(0, 0, 0, 0), (1, 0, 0, 0)],
        [(0, 2, 0, 0)],
        2,
        1,
    )
)
def test_propagate_has_the_bits_of_contract_on_drawn_schedules(case):
    n_squids, fock, schedule, support, signed_zeros, width, seed = case
    layout = SpaceLayout(n_squids, fock)
    psi = _sparse_input(layout, support, signed_zeros, width, seed)
    got = propagate(layout, schedule, psi)
    steps = evolution._plan(layout, schedule, evolution._support(layout, psi))
    assert len(steps) == len(schedule)
    shape = layout.dims + (-1,)
    # every non-zero bit pattern of the input, a -0.0 part included, lies
    # in the first ranges
    bits = psi.view(np.int64).reshape(layout.total_dim, -1, 2).any(axis=-1).reshape(shape)
    assert not np.any(bits[_outside(steps[0][1], bits.shape)]), case
    want = dense = psi
    previous = steps[0][1]
    for segment, (u, ranges) in zip(schedule, steps, strict=True):
        # the ranges hold every non-zero of this segment's input and never shrink
        assert not np.any(want.reshape(shape)[_outside(ranges, bits.shape)]), (ranges, case)
        assert all(lo <= a and b <= hi for (a, b), (lo, hi) in zip(previous, ranges)), case
        previous = ranges
        whole = propagator(segment.hamiltonian(fock), segment.duration)
        assert u.sites == whole.sites and u.matrix.tobytes() == whole.matrix.tobytes()
        want = contract(layout, whole, want)
        if n_squids <= DENSE_MAX_SQUIDS:
            dense = oracle_embedded(whole, layout) @ dense
            assert np.max(np.abs(want - dense)) <= 1e-13, case
    if n_squids <= DENSE_MAX_SQUIDS:
        assert np.max(np.abs(got - dense)) <= 1e-13, case
    # the whole run's bits wherever either run is non-zero.  Where both are
    # zero, the sign may differ: a gemm can give a row of zeros a sign bit
    # at some of its columns, and the block run computes fewer rows, so
    # zeros are compared as +0.0 (x + 0.0 is x for every other x)
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes(), case


def _outside(ranges, shape):
    """Mask of the amplitudes, batch axis last, outside the block of ``ranges``."""
    outside = np.ones(shape, dtype=bool)
    outside[tuple(slice(lo, hi) for lo, hi in ranges)] = False
    return outside
