import numpy as np
import pytest

from conftest import (
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
    expectation,
    prepare_superposition,
)
from squidcavity.hilbert import contract

SWAP01 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)


def test_layout_shape():
    layout = SpaceLayout(2, fock_cutoff=2)
    assert layout.dims == (3, 3, 3)
    assert layout.total_dim == 27
    assert layout.n_factors == 3
    assert layout.cavity_site == 2


def test_layout_validation():
    with pytest.raises(ValueError):
        SpaceLayout(0)
    with pytest.raises(ValueError):
        SpaceLayout(1, fock_cutoff=-1)


def test_resolve_site_negative_is_cavity():
    layout = SpaceLayout(3, fock_cutoff=1)
    assert layout.resolve_site(-1) == layout.cavity_site == 3
    assert layout.resolve_sites((0, -1)) == (0, 3)
    with pytest.raises(ValueError):
        layout.resolve_site(4)
    with pytest.raises(ValueError):
        layout.resolve_sites((1, -3))  # -3 is SQUID 1 again


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
    with pytest.raises(ValueError):
        LocalOperator((0,), (3,), np.eye(2))
    with pytest.raises(ValueError):
        LocalOperator((0, 1), (3,), np.eye(3))
    # hermitian flag enforces the 1e-12 bound
    almost = np.eye(3, dtype=complex)
    almost[0, 1] = 1e-10
    with pytest.raises(ValueError, match="hermitian"):
        LocalOperator((0,), (3,), almost, hermitian=True)
    LocalOperator((0,), (3,), almost)  # fine without the flag
    # a NaN defect compares false against any bound; it must fail too
    with pytest.raises(ValueError, match="hermitian"):
        LocalOperator((0,), (3,), np.diag([1.0, np.nan, 0.0]), hermitian=True)


def test_checked_arrays_are_read_only_views():
    # nothing written through the operator or the state can undo its checks
    mat = np.diag([1.0, 2.0, 0.0]).astype(complex)
    op = LocalOperator((0,), (3,), mat, hermitian=True)
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
    op = LocalOperator((0, -1), (3, 3), np.eye(9), hermitian=True)
    out = contract(layout, op, state.amplitudes)
    np.testing.assert_array_equal(out, state.amplitudes)


def test_apply_local_swap_on_second_squid():
    layout = SpaceLayout(2)
    state = basis_state(layout, (0, 0))
    out = contract(layout, LocalOperator((1,), (3,), SWAP01, hermitian=True), state.amplitudes)
    assert out[basis_index(layout, (0, 1))] == 1.0


def test_apply_local_site_errors():
    layout = SpaceLayout(1)
    state = basis_state(layout, (0,))
    with pytest.raises(ValueError):
        contract(layout, LocalOperator((5,), (3,), np.eye(3)), state.amplitudes)
    with pytest.raises(ValueError):
        contract(layout, LocalOperator((0, 0), (3, 3), np.eye(9)), state.amplitudes)
    with pytest.raises(ValueError):
        # wrong local dimension for the cavity factor
        contract(layout, LocalOperator((-1,), (4,), np.eye(4)), state.amplitudes)


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
        sites = tuple(rng.choice(layout.n_factors, size=n_sites, replace=False).tolist())
        local_dims = tuple(layout.dims[s] for s in sites)
        d = int(np.prod(local_dims))
        mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        op = LocalOperator(sites, local_dims, mat)
        state = random_state(rng, layout)
        got = contract(layout, op, state.amplitudes)
        want = oracle_apply(state, op)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_embedded_matrix_matches_dense_oracle():
    rng = np.random.default_rng(3)
    layout = SpaceLayout(3, fock_cutoff=2)
    for sites in [(0,), (2,), (-1,), (1, -1), (2, 0), (0, 1, 3)]:
        local_dims = tuple(layout.dims[layout.resolve_site(s)] for s in sites)
        d = int(np.prod(local_dims))
        mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        op = LocalOperator(sites, local_dims, mat)
        # every entry is one product with 1 plus exact zeros, so the
        # kernel on the identity block is the embedded matrix exactly
        eye = np.eye(layout.total_dim, dtype=complex)
        assert np.array_equal(contract(layout, op, eye), oracle_embedded(op, layout)), sites


def test_apply_local_unitary_preserves_norm():
    rng = np.random.default_rng(11)
    layout = SpaceLayout(3, fock_cutoff=2)
    for _ in range(10):
        state = random_state(rng, layout)
        op = LocalOperator((1, -1), (3, 3), random_unitary(rng, 9))
        out = contract(layout, op, state.amplitudes)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10


def test_expectation_projector_and_parity():
    layout = SpaceLayout(1, fock_cutoff=1)
    proj0 = LocalOperator((0,), (3,), np.diag([1.0, 0, 0]), hermitian=True)
    assert expectation(basis_state(layout, (0,)), proj0) == 1.0
    plus = tensor_state([np.array([1, 1, 0]) / np.sqrt(2), (1, 0)])
    z = LocalOperator((0,), (3,), np.diag([1.0, -1.0, 0.0]), hermitian=True)
    np.testing.assert_allclose(expectation(plus, z), 0.0, atol=1e-15)


def test_expectation_real_for_hermitian():
    rng = np.random.default_rng(5)
    layout = SpaceLayout(2)
    state = random_state(rng, layout)
    m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    op = LocalOperator((0, 1), (3, 3), (m + m.conj().T) / 2, hermitian=True)
    assert abs(expectation(state, op).imag) <= 1e-12


def test_contract_refuses_an_unusable_out():
    # the result must land in the caller's buffer, never in a silent copy
    # of it or in the amplitudes it is computed from
    layout = SpaceLayout(2)
    psi = np.zeros((layout.total_dim, 2), dtype=complex)
    op = LocalOperator((0, -1), (3, 3), np.eye(9))
    for out in (
        psi,
        np.empty(layout.total_dim, dtype=complex),
        np.empty((2, layout.total_dim), dtype=complex).T,
        np.empty(psi.shape),
    ):
        with pytest.raises(ValueError, match="out must be"):
            contract(layout, op, psi, out=out)
