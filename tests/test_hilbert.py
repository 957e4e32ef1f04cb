import math
import re

import numpy as np
import pytest

from conftest import (
    expectation,
    oracle_apply,
    oracle_embedded,
    random_state,
    random_unitary,
    tensor_state,
)
from squidcavity import (
    CompositeState,
    LocalOperator,
    SpaceLayout,
    basis_index,
    basis_state,
    evolve_pure,
    prepare_superposition,
)
from squidcavity.hilbert import contract

SWAP01 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)


def test_layout_shape():
    layout = SpaceLayout(2, fock_cutoff=2)
    assert layout.dims == (3, 3, 3)
    assert layout.total_dim == 27
    assert layout.n_factors == 3


def test_layout_validation():
    with pytest.raises(ValueError):
        SpaceLayout(0)
    with pytest.raises(ValueError):
        SpaceLayout(1, fock_cutoff=-1)
    # sizes are ints, never converted: True is no SQUID count, 1.5 no cutoff
    for n_squids, fock in ((True, 2), (2.0, 2), (2, 1.5), (2, True), (2, 2.0)):
        with pytest.raises(ValueError, match="must be an integer >="):
            SpaceLayout(n_squids, fock)


def test_resolve_site_negative_is_cavity():
    layout = SpaceLayout(3, fock_cutoff=1)
    assert layout.resolve_site(-1) == 3
    assert layout.resolve_sites((0, -1)) == (0, 3)
    # each factor has one address: SQUID i is i and the cavity is -1 only
    assert [layout.resolve_site(s) for s in range(3)] == [0, 1, 2]
    for site in (3, 4, -2, -4, True, 1.0):
        with pytest.raises(ValueError, match="site must be an integer in"):
            layout.resolve_site(site)
    with pytest.raises(ValueError):
        layout.resolve_sites((1, -3))
    with pytest.raises(ValueError, match="duplicate sites"):
        layout.resolve_sites((2, 2))
    # -2 and -3 once named SQUIDs 1 and 0 of a two-SQUID layout
    for site in (-2, -3):
        with pytest.raises(ValueError, match="site must be an integer in"):
            SpaceLayout(2, 2).resolve_site(site)


def test_basis_index_mixed_radix():
    layout = SpaceLayout(2, fock_cutoff=2)
    # cavity digit fastest, first SQUID slowest
    assert basis_index(layout, (0, 0), 0) == 0
    assert basis_index(layout, (0, 0), 1) == 1
    assert basis_index(layout, (0, 1), 0) == 3
    assert basis_index(layout, (1, 0), 0) == 9
    assert basis_index(layout, (2, 2), 2) == 26
    with pytest.raises(ValueError):
        basis_index(layout, (0, 3), 0)
    with pytest.raises(ValueError):
        basis_index(layout, (0, 0), 3)
    with pytest.raises(ValueError):
        basis_index(layout, (0,), 0)
    # a level or photon number is an integer, never truncated to one
    with pytest.raises(ValueError, match="level of SQUID 0 must be an integer"):
        basis_index(layout, (1.7, 0))
    with pytest.raises(ValueError, match="level of SQUID 1 must be an integer"):
        basis_index(layout, (0, True))
    with pytest.raises(ValueError, match="photons must be an integer in"):
        basis_index(layout, (1, 0), 1.5)


def test_basis_state_is_unit_vector():
    layout = SpaceLayout(2)
    state = basis_state(layout, (1, 0), 1)
    assert state.norm() == 1.0
    assert state.amplitudes[basis_index(layout, (1, 0), 1)] == 1.0


def test_state_validation():
    layout = SpaceLayout(1)
    with pytest.raises(ValueError):
        CompositeState(layout, np.zeros(5))
    bad = np.zeros(9)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        CompositeState(layout, bad)


def test_tensor_state_basis_product():
    state = tensor_state([(1, 0, 0), (1, 0, 0), (1, 0, 0)])
    assert state.layout == SpaceLayout(2, fock_cutoff=2)
    assert state.amplitudes[0] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_tensor_state_superposition_product():
    plus = np.array([1, 1, 0]) / np.sqrt(2)
    state = tensor_state([plus, (1, 0, 0), (1, 0, 0)])
    layout = state.layout
    np.testing.assert_allclose(state.amplitudes[basis_index(layout, (0, 0))], 1 / np.sqrt(2))
    np.testing.assert_allclose(state.amplitudes[basis_index(layout, (1, 0))], 1 / np.sqrt(2))
    assert abs(state.norm() - 1.0) < 1e-12


def test_tensor_state_norm_multiplicative():
    rng = np.random.default_rng(7)
    factors = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(3)]
    factors.append(rng.normal(size=4) + 1j * rng.normal(size=4))
    state = tensor_state(factors)
    expected = np.prod([np.linalg.norm(f) for f in factors])
    np.testing.assert_allclose(state.norm(), expected, rtol=1e-12)


def test_tensor_state_rejects_bad_factor():
    with pytest.raises(ValueError, match="factor 1"):
        tensor_state([(1, 0, 0), (1, 0), (1, 0, 0)])
    with pytest.raises(ValueError):
        tensor_state([(1, 0, 0)])  # cavity factor missing


def test_local_operator_validation():
    # the matrix is square and 2-D; the layout it meets checks its size
    for matrix in (np.eye(3)[:2], np.ones(3), np.ones((3, 3, 3)), np.array(1.0)):
        with pytest.raises(ValueError, match="matrix must be square"):
            LocalOperator((0,), matrix)
    # a site is an int of -1 (the cavity) or more, never truncated to one
    for site in (1.7, True, -2):
        with pytest.raises(ValueError, match="site must be an integer >= -1"):
            LocalOperator((site,), np.eye(3))


def test_checked_arrays_are_read_only_views():
    # nothing written through the operator or the state can undo its checks
    mat = np.diag([1.0, 2.0, 0.0]).astype(complex)
    op = LocalOperator((0,), mat)
    with pytest.raises(ValueError, match="read-only"):
        op.matrix[1, 1] = np.nan
    amp = np.zeros(9, dtype=complex)
    amp[0] = 1.0
    state = CompositeState(SpaceLayout(1), amp)
    with pytest.raises(ValueError, match="read-only"):
        state.amplitudes[0] = np.nan
    # views, not copies: the caller's arrays stay writable and shared
    assert np.shares_memory(op.matrix, mat) and mat.flags.writeable
    assert np.shares_memory(state.amplitudes, amp) and amp.flags.writeable
    # every constructed state is frozen, an evolution's result included
    out = evolve_pure(state, prepare_superposition(0))
    assert not out.amplitudes.flags.writeable


def test_apply_local_identity():
    layout = SpaceLayout(2)
    rng = np.random.default_rng(0)
    state = random_state(rng, layout)
    op = LocalOperator((0, -1), np.eye(9))
    out = contract(layout, op, state.amplitudes)
    np.testing.assert_array_equal(out, state.amplitudes)


def test_apply_local_swap_on_second_squid():
    layout = SpaceLayout(2)
    state = basis_state(layout, (0, 0))
    out = contract(layout, LocalOperator((1,), SWAP01), state.amplitudes)
    assert out[basis_index(layout, (0, 1))] == 1.0


def test_apply_local_site_errors():
    layout = SpaceLayout(1)
    state = basis_state(layout, (0,))
    with pytest.raises(ValueError, match="site must be an integer in"):
        contract(layout, LocalOperator((5,), np.eye(3)), state.amplitudes)
    with pytest.raises(ValueError, match="duplicate sites"):
        contract(layout, LocalOperator((0, 0), np.eye(9)), state.amplitudes)
    # SQUID 2 of two is no name for the cavity, though at cutoff 2 the
    # dimensions match
    layout = SpaceLayout(2, 2)
    psi = basis_state(layout, (0, 0)).amplitudes
    with pytest.raises(ValueError, match="site must be an integer in"):
        contract(layout, LocalOperator((2,), np.eye(3)), psi)
    # the layout alone gives each site's dimension: a matrix that does not
    # fit them is refused, naming the sites and the dimensions
    for sites, size, dims in (((0,), 2, (3,)), ((-1,), 4, (3,)), ((0, 1), 27, (3, 3))):
        message = (
            f"matrix size on sites {sites} of dimensions {dims} must be an integer equal to "
            f"{math.prod(dims)}, got matrix size on sites {sites} of dimensions {dims}={size}"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            contract(layout, LocalOperator(sites, np.eye(size)), psi)
    assert layout.operator_dims(LocalOperator((-1, 0), np.eye(9))) == ((2, 0), (3, 3))
    layout = SpaceLayout(2, 1)
    assert layout.operator_dims(LocalOperator((1, -1), np.eye(6))) == ((1, 2), (3, 2))


def test_apply_local_matches_dense_oracle():
    # embedding equivalence on random layouts and operators, 50 trials
    rng = np.random.default_rng(42)
    for _ in range(50):
        n_squids = int(rng.integers(1, 5))
        fock = int(rng.integers(1, 4))
        layout = SpaceLayout(n_squids, fock)
        if layout.total_dim > 2000:
            continue
        n_sites = int(rng.integers(1, min(3, layout.n_factors) + 1))
        factors = rng.choice(layout.n_factors, size=n_sites, replace=False).tolist()
        # the last factor is the cavity, addressed as -1
        sites = tuple(-1 if f == n_squids else f for f in factors)
        d = math.prod(layout.dims[s] for s in sites)
        mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        op = LocalOperator(sites, mat)
        state = random_state(rng, layout)
        got = contract(layout, op, state.amplitudes)
        want = oracle_apply(state, op)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_embedded_matrix_matches_dense_oracle():
    rng = np.random.default_rng(3)
    layout = SpaceLayout(3, fock_cutoff=2)
    for sites in [(0,), (2,), (-1,), (1, -1), (2, 0), (0, 1, -1)]:
        d = math.prod(layout.dims[layout.resolve_site(s)] for s in sites)
        mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        op = LocalOperator(sites, mat)
        # every entry is one product with 1 plus exact zeros, so the
        # kernel on the identity block is the embedded matrix exactly
        eye = np.eye(layout.total_dim, dtype=complex)
        assert np.array_equal(contract(layout, op, eye), oracle_embedded(op, layout)), sites


def test_apply_local_unitary_preserves_norm():
    rng = np.random.default_rng(11)
    layout = SpaceLayout(3, fock_cutoff=2)
    for _ in range(10):
        state = random_state(rng, layout)
        op = LocalOperator((1, -1), random_unitary(rng, 9))
        out = contract(layout, op, state.amplitudes)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10


def test_expectation_projector_and_parity():
    layout = SpaceLayout(1, fock_cutoff=1)
    proj0 = LocalOperator((0,), np.diag([1.0, 0, 0]))
    assert expectation(basis_state(layout, (0,)), proj0) == 1.0
    plus = tensor_state([np.array([1, 1, 0]) / np.sqrt(2), (1, 0)])
    z = LocalOperator((0,), np.diag([1.0, -1.0, 0.0]))
    np.testing.assert_allclose(expectation(plus, z), 0.0, atol=1e-15)


def test_expectation_real_for_hermitian():
    rng = np.random.default_rng(5)
    layout = SpaceLayout(2)
    state = random_state(rng, layout)
    m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    op = LocalOperator((0, 1), (m + m.conj().T) / 2)
    assert abs(expectation(state, op).imag) <= 1e-12


def test_contract_refuses_an_unusable_out():
    # the result must land in the caller's buffer, never in a silent copy
    # of it or in the amplitudes it is computed from
    layout = SpaceLayout(2)
    psi = np.zeros((layout.total_dim, 2), dtype=complex)
    op = LocalOperator((0, -1), np.eye(9))
    for out in (
        psi,
        np.empty(layout.total_dim, dtype=complex),
        np.empty((2, layout.total_dim), dtype=complex).T,
        np.empty(psi.shape),
    ):
        with pytest.raises(ValueError, match="out must be"):
            contract(layout, op, psi, out=out)


def test_contract_refuses_a_psi_it_cannot_use_as_scratch_before_writing_out():
    # given out, the gather-gemm-scatter route writes its product into psi,
    # so psi is a lent buffer too: a float psi and a state's read-only
    # amplitudes are refused by the buffer rule while out is still all zero
    layout = SpaceLayout(2, 2)
    op = LocalOperator((0, -1), np.eye(9))
    for psi, fault in (
        (np.eye(layout.total_dim)[0], "is not complex: got float64"),
        (basis_state(layout, (1, 0)).amplitudes, "is read-only"),
    ):
        out = np.zeros(layout.total_dim, complex)
        rule = r"psi must be a C-contiguous, writable complex array of shape \(27,\), but it "
        with pytest.raises(ValueError, match=rule + fault):
            contract(layout, op, psi, out=out)
        assert not out.any()


def test_contract_without_out_refuses_psi_of_other_rows():
    # with no buffer lent, nothing else reads psi's rows: one amplitude too
    # many is refused by name on the gather route and the single-run route,
    # for a vector and a block alike, not left to numpy's reshape or matmul
    layout = SpaceLayout(2, 2)
    for op in (LocalOperator((0, -1), np.eye(9)), LocalOperator((1,), np.eye(3))):
        for shape in ((28,), (28, 2)):
            with pytest.raises(ValueError, match="^rows of psi must be an integer equal to 27, "):
                contract(layout, op, np.zeros(shape, complex))


def test_contract_refuses_ranges_of_another_layout():
    # one (lo, hi) per factor: a shorter tuple would leave factors unbounded
    layout = SpaceLayout(2, 2)
    psi = basis_state(layout, (0, 0)).amplitudes
    op = LocalOperator((0,), np.eye(3))
    for ranges in (((0, 3),), ((0, 3),) * 4):
        message = rf"^number of ranges must be an integer equal to 3, got .*={len(ranges)}$"
        with pytest.raises(ValueError, match=message):
            contract(layout, op, psi, ranges=ranges)
