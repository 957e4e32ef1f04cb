import math

import numpy as np
import pytest

from squidcavity import FeasibilityParams, SpaceLayout, basis_index
from squidcavity.hamiltonians import (
    annihilation,
    cavity_coupling_hamiltonian,
    collapse_operators_from_rates,
    drive_hamiltonian,
)

from conftest import excitation_number


def test_drive_hamiltonian_matrix_elements():
    h = drive_hamiltonian(0, (1, 2), 2.0, 0.7)
    assert np.array_equal(h.matrix, h.matrix.conj().T)
    assert h.sites == (0,)
    np.testing.assert_allclose(h.matrix[1, 2], 2j * np.exp(0.7j))
    np.testing.assert_allclose(h.matrix[2, 1], -2j * np.exp(-0.7j))
    # untouched level stays decoupled
    assert np.all(h.matrix[0, :] == 0) and np.all(h.matrix[:, 0] == 0)


def test_drive_hamiltonian_zero_rabi_is_zero():
    h = drive_hamiltonian(0, (0, 1), 0.0, 0.0)
    assert np.all(h.matrix == 0)


def test_annihilation_matrix():
    a = annihilation(2)
    expected = np.array([[0, 1, 0], [0, 0, math.sqrt(2)], [0, 0, 0]])
    np.testing.assert_allclose(a, expected)
    # a |n> = sqrt(n) |n-1>
    for n in range(1, 3):
        ket = np.zeros(3)
        ket[n] = 1.0
        out = a @ ket
        np.testing.assert_allclose(out[n - 1], math.sqrt(n))
    with pytest.raises(ValueError):
        annihilation(-1)


def test_cavity_coupling_single_excitation_elements():
    omega_1, omega_2 = 1.5, 2.5
    h = cavity_coupling_hamiltonian(0, 1, omega_1, omega_2, fock_cutoff=2)
    assert np.array_equal(h.matrix, h.matrix.conj().T)
    assert h.sites == (0, 1, -1)
    layout = SpaceLayout(2, fock_cutoff=2)
    i100 = basis_index(layout, (1, 0), 0)
    i010 = basis_index(layout, (0, 1), 0)
    i001 = basis_index(layout, (0, 0), 1)
    # the coupling exchanges |1>_squid with a cavity photon
    np.testing.assert_allclose(h.matrix[i001, i100], omega_1)
    np.testing.assert_allclose(h.matrix[i001, i010], omega_2)
    np.testing.assert_allclose(h.matrix[i100, i001], omega_1)
    # |e> does not couple
    ie00 = basis_index(layout, (2, 0), 0)
    assert np.all(h.matrix[ie00, :] == 0)


def _kron_exchange(omega_1, omega_2, fock_cutoff):
    """The exchange as the sum of its four Kronecker terms, the textbook route."""
    a_op = annihilation(fock_cutoff)
    adag = a_op.conj().T
    s01 = np.zeros((3, 3), dtype=complex)
    s01[0, 1] = 1.0
    s10 = s01.conj().T
    eye3 = np.eye(3, dtype=complex)
    mat = omega_1 * (np.kron(np.kron(s01, eye3), adag) + np.kron(np.kron(s10, eye3), a_op))
    mat += omega_2 * (np.kron(np.kron(eye3, s01), adag) + np.kron(np.kron(eye3, s10), a_op))
    return mat


@pytest.mark.parametrize("fock_cutoff", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "omega_1, omega_2",
    [
        (1.8e8, math.sqrt(3) * 1.8e8),
        # a gate-family ratio sqrt((2n/(2m+1))^2 - 1) with n = 2, m = 0
        (1.8e8, math.sqrt(15) * 1.8e8),
        (0.37, 2.9),
    ],
)
def test_cavity_coupling_matches_kronecker_terms_bitwise(omega_1, omega_2, fock_cutoff):
    h = cavity_coupling_hamiltonian(2, 0, omega_1, omega_2, fock_cutoff)
    assert h.matrix.tobytes() == _kron_exchange(omega_1, omega_2, fock_cutoff).tobytes()
    assert h.sites == (2, 0, -1) and h.local_dims == (3, 3, fock_cutoff + 1)
    assert np.array_equal(h.matrix, h.matrix.conj().T) and not h.matrix.flags.writeable


def test_cavity_coupling_needs_photon_level():
    with pytest.raises(ValueError):
        cavity_coupling_hamiltonian(0, 1, 1.0, 1.0, fock_cutoff=0)


def test_excitation_number_diagonal():
    n_op = excitation_number(2)
    assert np.array_equal(n_op.matrix, n_op.matrix.conj().T)
    assert np.all(n_op.matrix == np.diag(np.diag(n_op.matrix)))
    layout = SpaceLayout(2, fock_cutoff=2)
    diag = np.real(np.diag(n_op.matrix))
    assert diag[basis_index(layout, (1, 1), 2)] == 4.0
    # |e> carries no excitation in this counting
    assert diag[basis_index(layout, (2, 0), 0)] == 0.0


def test_excitation_number_commutes_with_coupling():
    h = cavity_coupling_hamiltonian(0, 1, 1.0, 2.0, fock_cutoff=2)
    n_op = excitation_number(2)
    comm = h.matrix @ n_op.matrix - n_op.matrix @ h.matrix
    assert np.max(np.abs(comm)) <= 1e-12


def test_feasibility_params_defaults_and_validation():
    params = FeasibilityParams()
    np.testing.assert_allclose(params.cavity_decay_per_s, 5e4)
    with pytest.raises(ValueError):
        FeasibilityParams(q_factor=0)
    with pytest.raises(ValueError):
        FeasibilityParams(gamma_e_per_s=-1)
    with pytest.raises(ValueError):
        FeasibilityParams(branch_ratio_e_to_0=1.5)
    for name in ("q_factor", "omega_c_hz", "gamma_e_per_s", "branch_ratio_e_to_0"):
        # an integer too large for a float is refused too, not an OverflowError
        for bad in (float("nan"), float("inf"), 10**400):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                FeasibilityParams(**{name: bad})


def test_collapse_operators_count_and_rates():
    ops = collapse_operators_from_rates(4.0, 9.0, 0.5, fock_cutoff=2)
    # cavity + (e->0, e->1) per SQUID
    assert len(ops) == 5
    cavity = ops[0]
    assert cavity.sites == (-1,)
    np.testing.assert_allclose(cavity.matrix, 2.0 * annihilation(2))
    e0 = ops[1]
    np.testing.assert_allclose(e0.matrix[0, 2], math.sqrt(4.5))


def test_collapse_operators_keep_their_order():
    # the order fixes the noisy gate's bits: the cavity, then e->0 and e->1
    # on SQUID 0, then on SQUID 1
    ops = collapse_operators_from_rates(4.0, 9.0, 0.25, fock_cutoff=1)
    e_to_0 = np.zeros((3, 3), dtype=complex)
    e_to_0[0, 2] = 1.5
    e_to_1 = np.zeros((3, 3), dtype=complex)
    e_to_1[1, 2] = math.sqrt(6.75)
    want = [
        ((-1,), 2.0 * annihilation(1)),
        ((0,), e_to_0),
        ((0,), e_to_1),
        ((1,), e_to_0),
        ((1,), e_to_1),
    ]
    assert [op.sites for op in ops] == [sites for sites, _ in want]
    for op, (_, matrix) in zip(ops, want):
        assert np.array_equal(op.matrix, matrix)


def test_collapse_operators_drop_zero_rates():
    assert len(collapse_operators_from_rates(0.0, 9.0, 0.5, fock_cutoff=2)) == 4
    assert len(collapse_operators_from_rates(4.0, 0.0, 0.5, fock_cutoff=2)) == 1
    assert len(collapse_operators_from_rates(4.0, 9.0, 1.0, fock_cutoff=2)) == 3
    assert len(collapse_operators_from_rates(0.0, 0.0, 0.5, fock_cutoff=2)) == 0
    with pytest.raises(ValueError):
        collapse_operators_from_rates(-1.0, 0.0, 0.5, fock_cutoff=2)
    with pytest.raises(ValueError):
        collapse_operators_from_rates(1.0, 1.0, 2.0, fock_cutoff=2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
def test_collapse_operators_refuse_non_finite_rates(bad):
    # NaN once passed as a zero rate: its operator was silently dropped
    with pytest.raises(ValueError, match="cavity_decay="):
        collapse_operators_from_rates(bad, 9.0, 0.5, fock_cutoff=2)
    with pytest.raises(ValueError, match="gamma_e="):
        collapse_operators_from_rates(4.0, bad, 0.5, fock_cutoff=2)


def test_collapse_operators_from_params():
    params = FeasibilityParams()
    ops = collapse_operators_from_rates(
        params.cavity_decay_per_s, params.gamma_e_per_s, params.branch_ratio_e_to_0, fock_cutoff=2
    )
    assert len(ops) == 5
    np.testing.assert_allclose(np.max(np.abs(ops[0].matrix)), math.sqrt(5e4 * 2))
