import dataclasses
import hashlib
import math

import numpy as np
import pytest

from squidcavity import (
    CavitySegment,
    CompositeState,
    DriveSegment,
    GateParams,
    LocalOperator,
    MAX_LINDBLAD_SUBSTEPS,
    SpaceLayout,
    basis_index,
    basis_state,
    chain_initial_state,
    cluster_chain_schedule,
    evolve_pure,
    noisy_gate,
    qcpg_schedule,
    single_excitation_closed_form,
    state_fidelity,
)
from squidcavity import config, evolution, hilbert
from squidcavity.evolution import (
    SUPEROPERATOR_DIM_LIMIT,
    LindbladSegment,
    WorkLimitError,
    _TAYLOR_DEGREE,
    _UNIT_ROUNDOFF,
    _from_coordinates,
    _drift,
    _real_superoperator,
    _superoperator,
    _to_coordinates,
    exp_segment,
    propagate,
    propagate_in_pair,
    propagator,
)
from squidcavity.hamiltonians import (
    cavity_coupling_hamiltonian,
    collapse_operators_from_rates,
    drive_hamiltonian,
)
from squidcavity.hilbert import contract

from conftest import (
    check_step_size,
    excitation_number,
    expectation,
    lindblad_generator,
    lindblad_rhs,
    oracle_embedded,
    rk4_lindblad,
    tensor_state,
    traced_peak,
)


def _coupling_segment(omega_1, omega_2, duration):
    return CavitySegment(0, 1, omega_1, omega_2, duration)


def test_propagator_zero_time_is_identity():
    h = drive_hamiltonian(0, (0, 1), 1.0, 0.0)
    prop = propagator(h, 0.0)
    np.testing.assert_allclose(prop.matrix, np.eye(3), atol=1e-15)


def test_propagator_rejects_non_hermitian():
    op = LocalOperator((0,), np.diag([1.0, 2.0, 3.0]) + np.triu(np.ones(3), 1))
    with pytest.raises(ValueError):
        propagator(op, 1.0)
    with pytest.raises(ValueError):
        propagator(drive_hamiltonian(0, (0, 1), 1.0, 0.0), -1.0)


def test_propagator_checks_hermiticity_at_its_bound():
    # eigh reads one triangle only, so the defect max |H - H^dag| is
    # checked first: exactly 1e-12 runs, one ulp above it does not
    edge = np.diag([1.0, 2.0, 0.0]).astype(complex)
    edge[0, 1] = 1e-12
    propagator(LocalOperator((0,), edge), 1.0)
    for defect in (np.nextafter(1e-12, 1.0), 1e-10):
        over = np.diag([1.0, 2.0, 0.0]).astype(complex)
        over[0, 1] = defect
        with pytest.raises(ValueError, match="Hermitian generator"):
            propagator(LocalOperator((0,), over), 1.0)
    # any Hermitian matrix propagates; no builder has to vouch for it
    u = propagator(LocalOperator((0,), np.diag([1.0, 2.0, 0.0])), 0.5).matrix
    np.testing.assert_allclose(u, np.diag(np.exp([-0.5j, -1j, 0])), rtol=0, atol=1e-15)


def test_propagator_rejects_nan_generator():
    # a NaN defect compares false against any bound; it must fail too,
    # before eigh reads the matrix, and so must an Inf entry (inf - inf)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="Hermitian generator"):
            propagator(LocalOperator((0,), np.diag([1.0, bad, 0.0])), 1.0)


def test_propagator_refuses_a_phase_past_the_float_range():
    # every entry is finite, but max|w| t is not: refused ahead of np.exp
    h = LocalOperator((0,), np.diag([1.0, 1e300, 0.0]))
    with pytest.raises(ValueError, match="duration must be finite"):
        propagator(h, 1e10)


def test_propagator_refuses_a_non_finite_duration():
    h = drive_hamiltonian(0, (0, 1), 1.0, 0.0)
    for bad in (math.nan, math.inf, -1.0, 10**400):
        with pytest.raises(ValueError, match="^duration must be finite and >= 0"):
            propagator(h, bad)


def test_propagator_checks_unitarity_at_its_bound(monkeypatch):
    # eigh is patched to return eigenvectors scaled by s on one column, so
    # the propagator is diag(s^2 e^(-i w t), ...) and U^dag U - I has the
    # single entry s^4 - 1: just under 1e-12 runs, just over it does not
    h = LocalOperator((0,), np.diag([1.0, 2.0, 0.0]))
    for defect, accepted in ((0.9e-12, True), (1.1e-12, False)):
        scale = (1.0 + defect) ** 0.25
        eigenvectors = np.diag([scale, 1.0, 1.0]).astype(complex)
        monkeypatch.setattr(
            np.linalg, "eigh", lambda m: (np.array([1.0, 2.0, 0.0]), eigenvectors)
        )
        if accepted:
            u = propagator(h, 0.5).matrix
            assert 0.8e-12 <= np.max(np.abs(u.conj().T @ u - np.eye(3))) <= 1e-12
        else:
            with pytest.raises(ValueError, match="unitarity check"):
                propagator(h, 0.5)


def test_propagator_unitary_and_composes():
    h = cavity_coupling_hamiltonian(0, 1, 1.3, 0.7, fock_cutoff=2)
    u1 = propagator(h, 0.4).matrix
    u2 = propagator(h, 1.1).matrix
    u12 = propagator(h, 1.5).matrix
    assert np.max(np.abs(u1.conj().T @ u1 - np.eye(27))) <= 1e-12
    assert np.max(np.abs(u2 @ u1 - u12)) <= 1e-10


def test_drive_quarter_period_rotation():
    # at angle pi/2 with zero phase: |0> -> -|1>, |1> -> |0>
    rabi = 2.0
    h = drive_hamiltonian(0, (0, 1), rabi, 0.0)
    u = propagator(h, (math.pi / 2) / rabi).matrix
    np.testing.assert_allclose(u[:, 0], [0, -1, 0], atol=1e-12)
    np.testing.assert_allclose(u[:, 1], [1, 0, 0], atol=1e-12)
    np.testing.assert_allclose(u[:, 2], [0, 0, 1], atol=1e-12)


def test_coupling_window_returns_input_at_default_point():
    # omega_2 = sqrt(3) omega_1 and omega_1 t = pi: |1,0,0> comes back with +1
    omega_1 = 2.0
    h = cavity_coupling_hamiltonian(0, 1, omega_1, math.sqrt(3) * omega_1, fock_cutoff=2)
    layout = SpaceLayout(2, fock_cutoff=2)
    state = basis_state(layout, (1, 0), 0)
    out = contract(layout, propagator(h, math.pi / omega_1), state.amplitudes)
    i100 = basis_index(layout, (1, 0), 0)
    np.testing.assert_allclose(out[i100], 1.0, atol=1e-12)


def test_evolve_pure_empty_schedule_is_identity():
    layout = SpaceLayout(2)
    state = basis_state(layout, (1, 1))
    out = evolve_pure(state, ())
    np.testing.assert_array_equal(out.amplitudes, state.amplitudes)


def test_evolve_pure_pi_over_4_prepares_superposition():
    rabi = 3.0
    seg = DriveSegment(0, (0, 1), rabi, (math.pi / 4) / rabi)
    layout = SpaceLayout(1, fock_cutoff=1)
    out = evolve_pure(basis_state(layout, (1,)), (seg,))
    plus = tensor_state([np.array([1, 1, 0]) / math.sqrt(2), (1, 0)])
    assert state_fidelity(out, plus) >= 1 - 1e-12


def test_propagate_checks_every_state_after_every_segment(monkeypatch):
    # a propagator that is not unitary on |1> only: a block whose second
    # state has weight there must fail, its first state alone must not
    layout = SpaceLayout(1, fock_cutoff=1)
    schedule = (DriveSegment(0, (0, 1), 1.0, 1.0),)
    block = np.zeros((layout.total_dim, 2), dtype=complex)
    block[basis_index(layout, (0,)), 0] = 1.0
    block[basis_index(layout, (1,)), 1] = 1.0
    leaky = LocalOperator((0,), np.diag([1.0, 1.5, 1.0]))
    monkeypatch.setattr(evolution, "propagator", lambda h, t: leaky)
    assert propagate(layout, schedule, block[:, :1]).shape == (layout.total_dim, 1)
    with pytest.raises(ValueError, match="norm drifted"):
        propagate(layout, schedule, block)
    # NaN (0 * NaN spreads it to every amplitude) fails the same check
    broken = LocalOperator((0,), np.diag([1.0, np.nan, 1.0]))
    monkeypatch.setattr(evolution, "propagator", lambda h, t: broken)
    with pytest.raises(ValueError, match="norm drifted to nan"):
        evolve_pure(CompositeState(layout, block[:, 0]), schedule)
    # so does a squared norm that overflows to Inf
    huge = LocalOperator((0,), np.diag([1.0, 1e300, 1.0]))
    monkeypatch.setattr(evolution, "propagator", lambda h, t: huge)
    with pytest.raises(ValueError, match="norm drifted to inf"):
        propagate(layout, schedule, block)


def test_propagate_checks_the_norm_at_its_bound():
    # a state 5e-11 off norm 1 runs; 2e-10 off, past NORM_TOL, is refused
    layout = SpaceLayout(1, fock_cutoff=1)
    schedule = (DriveSegment(0, (0, 1), 1.0, 1.0),)
    block = np.zeros((layout.total_dim, 2), dtype=complex)
    block[basis_index(layout, (0,)), :] = (1.0 + 5e-11, 1.0 + 2e-10)
    propagate(layout, schedule, block[:, :1])
    with pytest.raises(ValueError, match="norm drifted"):
        propagate(layout, schedule, block)


def test_propagate_runs_the_chain_in_two_state_buffers():
    # the N=10 chain's 37 segments ping-pong between two buffers; a fresh
    # state per segment, or a temporary left alive across one, shows here
    n = 10
    state = chain_initial_state(n)
    psi = np.array(state.amplitudes)
    schedule = cluster_chain_schedule(n)
    out, peak, _ = traced_peak(lambda: propagate(state.layout, schedule, psi))
    assert peak <= 2.5 * psi.nbytes
    # the caller's array is only read
    np.testing.assert_array_equal(psi, state.amplitudes)
    assert out.shape == psi.shape and not np.shares_memory(out, psi)


def test_a_run_in_the_callers_pair_gives_the_bits_of_propagate():
    # the caller fills half 0 and may leave anything in half 1, which the
    # run zeroes; it gets back the result and the idle half, both halves
    # of its own pair
    n = 4
    state = chain_initial_state(n)
    schedule = cluster_chain_schedule(n)
    pair = np.full((2, state.layout.total_dim), np.nan + 1j, complex)
    pair[0] = state.amplitudes
    result, idle = propagate_in_pair(state.layout, schedule, pair)
    assert result.tobytes() == propagate(state.layout, schedule, state.amplitudes).tobytes()
    assert {result.ctypes.data, idle.ctypes.data} == {pair[0].ctypes.data, pair[1].ctypes.data}


def test_a_run_in_a_pair_refuses_anything_but_two_contiguous_complex_states():
    layout = SpaceLayout(2, 1)
    schedule = cluster_chain_schedule(2)
    d = layout.total_dim
    for pair, message in (
        (np.zeros((3, d), complex), "two states"),
        (np.zeros((2, d)), "two states"),
        (np.zeros((2, 2 * d), complex)[:, ::2], "two states"),
        (np.zeros((2, d + 1), complex), "layout dimension is"),
    ):
        with pytest.raises(ValueError, match=message):
            propagate_in_pair(layout, schedule, pair)


def test_propagate_builds_once_per_exact_key(monkeypatch):
    built = []
    original = evolution.propagator
    monkeypatch.setattr(evolution, "propagator", lambda h, t: built.append(1) or original(h, t))
    layout = SpaceLayout(3, fock_cutoff=1)
    psi = basis_state(layout, (1, 1, 1)).amplitudes
    # equal values on other sites share one propagator
    same = (
        DriveSegment(0, (0, 1), 1.0, 0.3),
        DriveSegment(2, (0, 1), 1.0, 0.3),
        CavitySegment(0, 1, 1.0, 2.0, 0.3),
        CavitySegment(1, 2, 1.0, 2.0, 0.3),
    )
    propagate(layout, same, psi)
    assert len(built) == 2
    # a propagator follows the generator's bits and the duration's bits:
    # a phase of -0.0 writes the generator of phase 0.0 bit for bit, so the
    # two share one; a rate of -0.0 writes a -0.0 entry, and a duration of
    # -0.0 has bits of its own
    for a, b, count in (
        (DriveSegment(0, (0, 1), 1.0, 0.3, 0.0), DriveSegment(1, (0, 1), 1.0, 0.3, -0.0), 1),
        (DriveSegment(0, (0, 1), 0.0, 0.3), DriveSegment(1, (0, 1), -0.0, 0.3), 2),
        (DriveSegment(0, (0, 1), 1.0, 0.0), DriveSegment(1, (0, 1), 1.0, -0.0), 2),
        (CavitySegment(0, 1, 1.0, 0.0, 0.3), CavitySegment(1, 2, 1.0, -0.0, 0.3), 2),
    ):
        generators = [s.hamiltonian(1).matrix.tobytes() for s in (a, b)]
        durations = [float(s.duration).hex() for s in (a, b)]
        assert count == 1 + (generators[0] != generators[1] or durations[0] != durations[1])
        built.clear()
        shared = propagate(layout, (a, b), psi)
        assert len(built) == count
        # a shared propagator gives the bits of building each one afresh
        alone = propagate(layout, (b,), propagate(layout, (a,), psi))
        assert shared.tobytes() == alone.tobytes()


@dataclasses.dataclass(frozen=True)
class _FixedSegment:
    """A segment whose generator is given whole, at every cutoff."""

    generator: LocalOperator
    duration: float = 0.3

    def hamiltonian(self, fock_cutoff):
        return self.generator


def test_propagate_refuses_a_misfit_segment_before_the_run(monkeypatch):
    # the plan checks every segment's sites and size against the layout,
    # the last one's too, so none is refused after an amplitude has moved.
    # SQUID 3 of a three-SQUID chain would address the cavity, whose three
    # levels at cutoff 2 have a SQUID's dimension
    def contract(*args, **kwargs):
        pytest.fail("an amplitude moved before the plan refused the schedule")

    monkeypatch.setattr(evolution, "contract", contract)
    state = chain_initial_state(3)
    psi = np.array(state.amplitudes)
    first = DriveSegment(0, (0, 1), 1e8, 1e-8)
    for last, message in (
        (DriveSegment(3, (0, 1), 1e8, 1e-8), "site must be an integer in"),
        (CavitySegment(2, 3, 1e8, 1e8, 1e-8), "site must be an integer in"),
        (_FixedSegment(LocalOperator((1,), np.eye(4))), r"sites \(1,\) has dimension 4"),
        (_FixedSegment(LocalOperator((1, -1), np.eye(6))), r"dimensions \(3, 3\) \(product 9\)"),
    ):
        with pytest.raises(ValueError, match=message):
            propagate(state.layout, (first, last), psi)
    np.testing.assert_array_equal(psi, state.amplitudes)


def test_propagate_refuses_amplitudes_of_another_dimension():
    # the rows are the layout's amplitudes, checked before the plan reads
    # the input's support, small state or large
    for n, length in ((2, 26), (8, 5000), (8, 3**9 + 1)):
        layout = SpaceLayout(n, 2)
        with pytest.raises(ValueError, match="layout dimension is"):
            propagate(layout, cluster_chain_schedule(n), np.ones(length, dtype=complex))


def test_shared_propagators_give_the_bits_of_segment_by_segment_runs():
    state = chain_initial_state(4)
    schedule = cluster_chain_schedule(4)
    whole = propagate(state.layout, schedule, state.amplitudes)
    psi = state.amplitudes
    for segment in schedule:
        psi = propagate(state.layout, (segment,), psi)
    assert whole.tobytes() == psi.tobytes()


def test_a_shared_propagator_reaches_the_levels_of_its_own_sites():
    # equal bytes on (SQUID, cavity) and (cavity, SQUID) share one
    # propagator, but at cutoff 1 the same entry is another level of each
    # factor: local index 2 is SQUID 0 level 1 on (0, cavity), and SQUID 1
    # level 2 on (cavity, 1).  Both meet the box of |0, 0, 0>, so a key
    # without the dimensions would read the second's reach from the first
    # and leave SQUID 1's level 2 out of the block the last segment, on the
    # cavity, computes
    layout = SpaceLayout(2, fock_cutoff=1)
    exchange = np.zeros((6, 6), dtype=complex)
    exchange[0, 2] = exchange[2, 0] = 1.0
    schedule = (
        _FixedSegment(LocalOperator((0, -1), exchange)),
        _FixedSegment(LocalOperator((-1, 1), exchange)),
        _FixedSegment(LocalOperator((-1,), np.array([[0.0, 1.0], [1.0, 0.0]]))),
    )
    psi = basis_state(layout, (0, 0)).amplitudes
    want = psi
    for segment in schedule:
        u = propagator(segment.hamiltonian(1), segment.duration)
        want = oracle_embedded(u, layout) @ want
    # the second segment moves weight sin(0.3)^2 to SQUID 1's level 2
    weight = np.sum(np.abs(want.reshape(layout.dims)[:, 2]) ** 2)
    assert weight == pytest.approx(math.sin(0.3) ** 2, rel=1e-12)
    np.testing.assert_allclose(propagate(layout, schedule, psi), want, rtol=0, atol=1e-14)


def _whole_range_run(layout, schedule, psi):
    """The dense reference: each segment's propagator applied to every amplitude."""
    for segment in schedule:
        u = propagator(segment.hamiltonian(layout.fock_cutoff), segment.duration)
        psi = contract(layout, u, psi)
    return psi


def _truth_table_inputs(layout):
    block = np.zeros((layout.total_dim, 4), dtype=complex)
    for column, bits in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        block[basis_index(layout, bits), column] = 1.0
    return block


def _chain_and_gate_runs():
    """(layout, schedule, input): chains of 2-10 SQUIDs at cutoffs 1-2, and
    truth tables at four ratios, cutoffs 1-3, in both control/target orders."""
    runs = []
    for cutoff in (1, 2):
        for n in range(2, 11):
            state = chain_initial_state(n, cutoff)
            runs.append((state.layout, cluster_chain_schedule(n), state.amplitudes))
    for ratio in (math.sqrt(3), 1.5, math.sqrt(15), 1.0):
        for cutoff in (1, 2, 3):
            layout = SpaceLayout(2, cutoff)
            for control, target in ((0, 1), (1, 0)):
                schedule = qcpg_schedule(control, target, GateParams(ratio=ratio))
                runs.append((layout, schedule, _truth_table_inputs(layout)))
    return runs


def _outside(ranges, shape):
    """Mask of the amplitudes, batch axis last, outside the block of ``ranges``."""
    outside = np.ones(shape, dtype=bool)
    outside[tuple(slice(lo, hi) for lo, hi in ranges)] = False
    return outside


@pytest.mark.filterwarnings("ignore:gate conditions violated:UserWarning")
@pytest.mark.parametrize("one_by_one", [False, True], ids=["as-set", "every-state"])
def test_propagate_has_the_bits_of_whole_range_contraction(one_by_one):
    # contract computes only the block the tracked ranges cut out: every
    # amplitude outside it is zero in the whole-range run too, and every one
    # inside goes through the same BLAS call.  "as-set" runs each input as
    # it is built, truth tables as one block of four states; "every-state"
    # runs each state of a block on its own, so its ranges are its own
    runs = _chain_and_gate_runs()
    # a -0.0 part is support: here, where SQUID 0 is in |e>, a pulse on
    # SQUID 7 leaves it in place, and the whole-range run writes +0.0 over it
    layout = SpaceLayout(8, 2)
    psi = np.zeros(layout.total_dim, dtype=complex)
    psi[basis_index(layout, (0,) * 8)] = 1.0
    psi[basis_index(layout, (2,) + (0,) * 7)] = -0.0
    runs.append((layout, (DriveSegment(7, (0, 1), 1e8, 1e-8),) * 2, psi))
    if one_by_one:
        runs = [
            (layout, schedule, np.ascontiguousarray(state))
            for layout, schedule, psi in runs
            for state in (psi.T if psi.ndim == 2 else (psi,))
        ]
    for layout, schedule, psi in runs:
        want = _whole_range_run(layout, schedule, psi)
        assert propagate(layout, schedule, psi).tobytes() == want.tobytes()


def test_propagate_and_the_whole_range_run_differ_at_most_in_the_sign_of_a_zero():
    # contract's guarantee: every non-zero entry has the bits of the full
    # ranges, and an exact zero may differ in sign.  This schedule shows the
    # second half: the whole-range pulses leave -0.0 on zero rows outside
    # the tracked ranges, and the exchange sums them into its block
    layout = SpaceLayout(7, 1)
    psi = np.zeros(layout.total_dim, dtype=complex)
    psi[basis_index(layout, (0,) * 7)] = np.exp(0.3j)
    for levels in ((0, 0, 0, 2, 0, 2, 0), (0, 0, 2, 0, 0, 0, 0)):
        psi[basis_index(layout, levels)] = complex(-0.0, -0.0)
    schedule = (
        DriveSegment(1, (0, 2), 1e8, 1.7e-8),
        *(DriveSegment(0, (0, 1), 1e8, 0.0),) * 3,
        CavitySegment(6, 4, 1.8e8, 0.0, math.pi / 1.8e8),
    )
    got = propagate(layout, schedule, psi).view(np.float64)
    want = _whole_range_run(layout, schedule, psi).view(np.float64)
    differ = got.view(np.int64) != want.view(np.int64)
    assert np.array_equal(got, want)
    assert differ.any() and not got[differ].any()


def test_the_support_is_read_without_a_state_sized_mask():
    # a boolean mask of the integer view would take 2 bytes per amplitude
    state = chain_initial_state(10, 7)
    ranges, peak, _ = traced_peak(lambda: evolution._support(state.layout, state.amplitudes))
    assert ranges == ((1, 2),) * 10 + ((0, 1),)
    assert peak < state.amplitudes.nbytes / 100


def test_propagate_on_an_all_zero_input():
    # the one input with no support: the first segment refuses it, and a
    # schedule with no segment returns it
    layout = SpaceLayout(2, 1)
    zeros = np.zeros(layout.total_dim, dtype=complex)
    assert evolution._support(layout, zeros) == ((0, 0),) * layout.n_factors
    with pytest.raises(ValueError, match=r"norm drifted to 0\.0 after"):
        propagate(layout, (DriveSegment(0, (0, 1), 1e8, 1e-8),), zeros)
    assert propagate(layout, (), zeros).tobytes() == zeros.tobytes()


# written by the runs below at the commit that pinned it
RAW_BITS_SHA256 = "311510ed7388b26ae58742155702feec0b39de2f641a903cce69da549b859f63"


@pytest.mark.filterwarnings("ignore:gate conditions violated:UserWarning")
def test_propagate_keeps_its_raw_bits():
    # the raw amplitudes of the chains and truth tables above and of seeded
    # detuned truth tables, to the last bit: a change of route, block or
    # BLAS call shape that moves a bit no report shows fails here.  Pinned
    # under OpenBLAS's SkylakeX kernel, like the reports in tests/data
    runs = _chain_and_gate_runs()
    rng = np.random.default_rng(26)
    for _ in range(8):
        ratio, scale = rng.uniform(0.1, 4.0), rng.uniform(0.2, 5.5)
        params = GateParams(ratio=ratio, cavity_time=scale * GateParams().resolved_cavity_time)
        layout = SpaceLayout(2, int(rng.integers(1, 4)))
        control = int(rng.integers(2))
        schedule = qcpg_schedule(control, 1 - control, params)
        runs.append((layout, schedule, _truth_table_inputs(layout)))
    digest = hashlib.sha256()
    for layout, schedule, psi in runs:
        digest.update(propagate(layout, schedule, psi).tobytes())
    assert digest.hexdigest() == RAW_BITS_SHA256


def _level_cycle(monkeypatch):
    """Three SQUIDs whose every pulse moves each level to the next."""
    cycle = np.roll(np.eye(3), 1, axis=0).astype(complex)
    monkeypatch.setattr(evolution, "propagator", lambda h, t: LocalOperator(h.sites, cycle))
    layout = SpaceLayout(3, fock_cutoff=1)
    schedule = tuple(DriveSegment(s, (0, 1), 1.0, 0.3) for s in (1, 2, 0, 1, 2, 2))
    return layout, schedule, basis_state(layout, (1, 1, 1)).amplitudes, cycle


@pytest.mark.parametrize("case", ["chain", "truth-table", "level-cycle"])
def test_tracked_ranges_hold_every_non_zero_amplitude(monkeypatch, case):
    if case == "chain":
        state = chain_initial_state(6)
        layout, schedule, psi = state.layout, cluster_chain_schedule(6), state.amplitudes
    elif case == "truth-table":
        layout = SpaceLayout(2, 2)
        schedule, psi = qcpg_schedule(0, 1), _truth_table_inputs(layout)
    else:
        layout, schedule, psi, _ = _level_cycle(monkeypatch)
    # the plan reads the input's support and the propagators, no amplitude
    steps = evolution._plan(layout, schedule, evolution._support(layout, np.array(psi)))
    assert len(steps) == len(schedule)
    for (_, before), (_, after) in zip(steps, steps[1:]):
        # ranges never shrink
        assert all(lo <= a and b <= hi for (a, b), (lo, hi) in zip(before, after))
    # replay the whole-range run step by step: each step's input lies in its ranges
    shape = layout.dims + (-1,)
    for k, (u, ranges) in enumerate(steps):
        amplitudes = psi.reshape(shape)
        assert not np.any(amplitudes[_outside(ranges, amplitudes.shape)]), (k, ranges)
        # through the superposition pulses the ranges are the least ones
        if case == "chain" and k <= 6:
            assert ranges == evolution._support(layout, psi)
        psi = contract(layout, u, psi)


def test_a_level_emptied_by_a_segment_keeps_its_range(monkeypatch):
    # a propagator that moves every level to the next leaves the one it
    # starts from empty; the buffer written two segments later still holds
    # the state there, so the range must keep that level for the block to
    # overwrite it
    layout, schedule, psi, cycle = _level_cycle(monkeypatch)
    want = psi
    for segment in schedule:
        want = contract(layout, LocalOperator((segment.target_squid,), cycle), want)
    assert propagate(layout, schedule, psi).tobytes() == want.tobytes()


def test_single_excitation_closed_form_anchors():
    amps = single_excitation_closed_form(1.0, 2.0, 0.0)
    np.testing.assert_allclose(amps.as_array(), [1, 0, 0], atol=1e-15)
    # the gate's operating point: a full 2*pi of omega returns the input
    omega_1 = 1.7
    amps = single_excitation_closed_form(omega_1, math.sqrt(3) * omega_1, math.pi / omega_1)
    np.testing.assert_allclose(amps.as_array(), [1, 0, 0], atol=1e-12)
    # symmetric couplings at half period: complete transfer with a sign
    omega = math.hypot(3.0, 3.0)
    amps = single_excitation_closed_form(3.0, 3.0, math.pi / omega)
    np.testing.assert_allclose(amps.as_array(), [0, -1, 0], atol=1e-12)
    with pytest.raises(ValueError):
        single_excitation_closed_form(0.0, 1.0, 1.0)


def test_single_excitation_closed_form_refuses_non_finite_rates():
    # NaN passes a bare "omega_1 <= 0" test and would come back as NaN
    # amplitudes; +inf would reach np.cos
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="omega_1 must be finite and > 0"):
            single_excitation_closed_form(bad, 1.0, 1.0)
    # a NaN omega_2 or t would give all-NaN amplitudes, and an infinite
    # omega_2 numpy warnings too; they take the bounds of CavitySegment's
    # omega_2 and of every duration
    for args, name in (
        ((1.0, math.nan, 1.0), "omega_2"),
        ((1.0, math.inf, 1.0), "omega_2"),
        ((1.0, -1.0, 1.0), "omega_2"),
        ((1.0, 1.0, math.nan), "t"),
        ((1.0, 1.0, math.inf), "t"),
        ((1.0, 1.0, -1.0), "t"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0"):
            single_excitation_closed_form(*args)
    # finite rates whose squares leave the float range, or vanish in it
    for args in ((1e200, 0.0, 1.0), (1e308, 1e308, 1.0), (5e-324, 0.0, 1.0)):
        with pytest.raises(ValueError, match=r"^omega_1\^2 \+ omega_2\^2 must be finite and > 0"):
            single_excitation_closed_form(*args)


def test_single_excitation_normalized():
    rng = np.random.default_rng(2)
    for _ in range(25):
        omega_1, omega_2 = rng.uniform(0.1, 5.0, size=2)
        t = rng.uniform(0.0, 20.0)
        amps = single_excitation_closed_form(omega_1, omega_2, t)
        np.testing.assert_allclose(np.sum(np.abs(amps.as_array()) ** 2), 1.0, atol=1e-12)


def test_closed_form_matches_numerical_evolution():
    rng = np.random.default_rng(8)
    layout = SpaceLayout(2, fock_cutoff=2)
    start = basis_state(layout, (1, 0), 0)
    indices = [
        basis_index(layout, (1, 0), 0),
        basis_index(layout, (0, 1), 0),
        basis_index(layout, (0, 0), 1),
    ]
    for _ in range(2):
        omega_1, omega_2 = rng.uniform(0.3, 3.0, size=2)
        omega = math.hypot(omega_1, omega_2)
        for t in np.linspace(0.0, 4 * math.pi / omega, 40):
            seg = _coupling_segment(omega_1, omega_2, t)
            out = evolve_pure(start, (seg,))
            want = single_excitation_closed_form(omega_1, omega_2, t).as_array()
            assert np.max(np.abs(out.amplitudes[indices] - want)) <= 1e-8


def test_dark_state_is_stationary():
    omega_1, omega_2 = 1.1, 2.3
    omega = math.hypot(omega_1, omega_2)
    layout = SpaceLayout(2, fock_cutoff=2)
    amp = np.zeros(layout.total_dim, dtype=complex)
    amp[basis_index(layout, (1, 0), 0)] = omega_2 / omega
    amp[basis_index(layout, (0, 1), 0)] = -omega_1 / omega
    dark = CompositeState(layout, amp)
    for t in (0.37, 1.0, 8.5):
        out = evolve_pure(dark, (_coupling_segment(omega_1, omega_2, t),))
        assert state_fidelity(out, dark) >= 1 - 1e-10


def test_excitation_number_conserved():
    rng = np.random.default_rng(4)
    layout = SpaceLayout(2, fock_cutoff=2)
    amp = rng.normal(size=27) + 1j * rng.normal(size=27)
    state = CompositeState(layout, amp / np.linalg.norm(amp))
    n_op = excitation_number(2)
    before = expectation(state, n_op).real
    out = evolve_pure(state, (_coupling_segment(0.9, 1.7, 2.2),))
    after = expectation(out, n_op).real
    assert abs(after - before) <= 1e-10


def _zero_cavity_hamiltonian(fock_cutoff):
    return LocalOperator((-1,), np.zeros((fock_cutoff + 1, fock_cutoff + 1)))


def _pure_density(state):
    return np.outer(state.amplitudes, state.amplitudes.conj())


def test_lindblad_photon_decay_matches_exponential():
    k = 5e4
    layout = SpaceLayout(1, fock_cutoff=2)
    rho0 = _pure_density(basis_state(layout, (0,), photons=1))
    ops = collapse_operators_from_rates(k, 0.0, 0.5, fock_cutoff=2)
    l_full = [oracle_embedded(op, layout) for op in ops]
    h_full = oracle_embedded(_zero_cavity_hamiltonian(2), layout)
    t = 2e-5  # one cavity lifetime
    rho = rk4_lindblad(rho0, h_full, l_full, t, dt=t / 500)
    diag = np.real(np.diag(rho)).reshape(3, 3)
    vacuum = diag[:, 0].sum()
    np.testing.assert_allclose(vacuum, 1 - math.exp(-k * t), atol=1e-6)
    assert abs(np.trace(rho).real - 1.0) <= 1e-8
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
    assert np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0] >= -1e-8


def test_lindblad_zero_rates_matches_pure_evolution():
    layout = SpaceLayout(2, fock_cutoff=2)
    seg = _coupling_segment(1.8e8, 1.1e8, 1.2e-8)
    state = basis_state(layout, (1, 0), 0)
    pure = evolve_pure(state, (seg,))
    h_full = oracle_embedded(seg.hamiltonian(2), layout)
    dt = seg.duration / 2000
    check_step_size(h_full, dt)
    rho = rk4_lindblad(_pure_density(state), h_full, [], seg.duration, dt)
    overlap = np.real(np.vdot(pure.amplitudes, rho @ pure.amplitudes))
    assert overlap >= 1 - 1e-8
    assert abs(np.trace(rho).real - 1.0) <= 1e-8


def test_lindblad_guards():
    layout = SpaceLayout(2, fock_cutoff=2)
    h = cavity_coupling_hamiltonian(0, 1, 1.8e8, 1.8e8, 2)
    h_full = oracle_embedded(h, layout)
    # step too coarse for the Hamiltonian scale
    with pytest.raises(ValueError, match="step size"):
        check_step_size(h_full, 1e-9)
    check_step_size(h_full, 1e-12)


def test_exp_lindblad_photon_decay_matches_exponential():
    k = 5e4
    layout = SpaceLayout(1, fock_cutoff=2)
    rho0 = _pure_density(basis_state(layout, (0,), photons=1))
    ops = collapse_operators_from_rates(k, 0.0, 0.5, fock_cutoff=2)
    l_full = [oracle_embedded(op, layout) for op in ops]
    h_full = oracle_embedded(_zero_cavity_hamiltonian(2), layout)
    t = 2e-5  # one cavity lifetime
    out = exp_segment(rho0, LindbladSegment(h_full, l_full, t))
    diag = np.real(np.diag(out)).reshape(3, 3)
    np.testing.assert_allclose(diag[:, 0].sum(), 1 - math.exp(-k * t), atol=1e-14)
    np.testing.assert_allclose(diag[:, 1].sum(), math.exp(-k * t), atol=1e-14)
    assert abs(np.trace(out) - 1.0) <= 1e-14


def test_exp_lindblad_zero_rates_matches_unitary_on_a_batch():
    layout = SpaceLayout(2, fock_cutoff=2)
    seg = _coupling_segment(1.8e8, 1.1e8, 1.2e-8)
    h = seg.hamiltonian(2)
    h_full = oracle_embedded(h, layout)
    u = propagator(h, seg.duration).matrix
    rng = np.random.default_rng(3)
    batch = rng.normal(size=(2, 27, 27)) + 1j * rng.normal(size=(2, 27, 27))
    out = exp_segment(batch, LindbladSegment(h_full, [], seg.duration))
    want = u @ batch @ u.conj().T
    assert np.max(np.abs(out - want)) <= 1e-12


def test_exp_lindblad_ignores_identity_in_the_hamiltonian():
    layout = SpaceLayout(2, fock_cutoff=2)
    h_full = oracle_embedded(cavity_coupling_hamiltonian(0, 1, 1.8e8, 1.1e8, 2), layout)
    shifted = h_full + 7e9 * np.eye(27)
    ops = collapse_operators_from_rates(5e4, 4e5, 0.5, fock_cutoff=2)
    l_full = [oracle_embedded(op, layout) for op in ops]
    t = 1.7e-8
    substeps = [LindbladSegment(h, l_full, t).substeps for h in (shifted, h_full)]
    assert substeps[0] == substeps[1]
    rho0 = _pure_density(basis_state(layout, (1, 0)))
    out = exp_segment(rho0, LindbladSegment(shifted, l_full, t))
    want = exp_segment(rho0, LindbladSegment(h_full, l_full, t))
    assert np.max(np.abs(out - want)) <= 1e-13


def test_exp_lindblad_guards():
    layout = SpaceLayout(1, fock_cutoff=1)
    rho0 = _pure_density(basis_state(layout, (1,)))
    h_full = oracle_embedded(drive_hamiltonian(0, (0, 1), 1.0, 0.0), layout)
    with pytest.raises(ValueError, match="duration"):
        LindbladSegment(h_full, [], -1.0)
    segment = LindbladSegment(h_full, [], 0.0)
    out = exp_segment(rho0, segment)
    np.testing.assert_array_equal(out, rho0)
    assert out is not rho0
    # sub-steps grow with ||L|| t, and runaway work is refused when a
    # segment is built, by hand or as a copy with a new duration
    assert issubclass(WorkLimitError, ValueError)
    assert LindbladSegment(h_full, [], 2.0).substeps <= LindbladSegment(h_full, [], 4.0).substeps
    too_long = 6.0 * (MAX_LINDBLAD_SUBSTEPS + 1)
    with pytest.raises(WorkLimitError, match="sub-steps"):
        LindbladSegment(h_full, [], too_long)
    resized = dataclasses.replace(segment, t=1000.0)
    assert resized.substeps == LindbladSegment(h_full, [], 1000.0).substeps > segment.substeps
    assert type(resized.substeps) is int and resized.substeps <= MAX_LINDBLAD_SUBSTEPS
    with pytest.raises(WorkLimitError, match="sub-steps"):
        dataclasses.replace(segment, t=too_long)


def test_lindblad_segment_refuses_a_non_finite_duration_as_a_value():
    # a NaN or infinite duration is a bad value, not too much work
    h_full = np.diag([1.0, -1.0]).astype(complex)
    for bad in (math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(ValueError, match="^duration must be finite and >= 0") as info:
            LindbladSegment(h_full, (), bad)
        assert not isinstance(info.value, WorkLimitError)


def test_lindblad_sub_step_limit_at_its_bound():
    # drift = diag(-3i, 3i) has spectral norm 3, so the norm bound on L is
    # 6 and a segment of duration t needs 6 t / 6 = t sub-steps: 1000 is
    # the limit and runs, the next float above it is refused
    h_full = np.diag([3.0, -3.0]).astype(complex)
    assert LindbladSegment(h_full, (), 999.5).substeps == 1000
    assert LindbladSegment(h_full, (), 1000.0).substeps == 1000
    with pytest.raises(WorkLimitError, match="above the limit of 1000"):
        LindbladSegment(h_full, (), math.nextafter(1000.0, math.inf))
    with pytest.raises(WorkLimitError, match="sub-steps"):
        LindbladSegment(h_full, (), 1000.5)


def test_superoperator_dimension_limit_is_the_byte_budget():
    # a run peaks while S (16 d^4 bytes) and L_y (8 d^4) are both alive:
    # 28 is the largest d whose 24 d^4 bytes fit the one budget, which
    # config reads from the same place.  32, the largest d whose S alone
    # fits, peaked at 25.3 MB, half again the budget
    assert SUPEROPERATOR_DIM_LIMIT == 28
    assert config.MAX_ARRAY_BYTES is hilbert.MAX_ARRAY_BYTES == 2**24
    assert 24 * 28**4 <= hilbert.MAX_ARRAY_BYTES < 24 * 29**4


def test_a_lindblad_run_at_the_dimension_limit_fits_the_byte_budget():
    # the d^2 terms beside S and L_y stay within the budget's slack at the
    # limit: a generator with a full H and a jump operator, on a batch of
    # non-Hermitian inputs, so both coordinate parts of every input run
    d = SUPEROPERATOR_DIM_LIMIT
    rng = np.random.default_rng(5)
    h = _cplx(rng, d, d)
    lower = np.diag(np.sqrt(np.arange(1.0, d)), 1).astype(complex)
    segment = LindbladSegment(h + _adjoint(h), [lower, _cplx(rng, d, d)], 1e-3)
    rho = _cplx(rng, 4, d, d)
    out, peak, _ = traced_peak(lambda: exp_segment(rho, segment))
    assert out.shape == rho.shape and np.isfinite(out).all()
    assert peak <= hilbert.MAX_ARRAY_BYTES


def test_assembled_generator_matches_lindblad_rhs():
    # the RK4 reference's vec-form generator against the matrix form it is
    # assembled from, on random matrices
    rng = np.random.default_rng(11)
    for d, n_jumps in ((2, 0), (5, 1), (11, 3)):
        h = _cplx(rng, d, d)
        h = h + _adjoint(h)
        l_ops = [_cplx(rng, d, d) for _ in range(n_jumps)]
        rho = _cplx(rng, 4, d, d)
        want = lindblad_rhs(rho, h, l_ops)
        got = (rho.reshape(4, d * d) @ lindblad_generator(h, l_ops)).reshape(rho.shape)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_superoperator_matches_the_matrix_form_of_the_generator():
    rng = np.random.default_rng(7)
    d, batch = 6, 5

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    h = cplx(d, d)
    h = h + h.conj().T
    l_ops = [cplx(d, d) for _ in range(3)]
    drift = _drift(h, l_ops)
    rho = cplx(batch, d, d)
    want = lindblad_rhs(rho, h, l_ops)
    sup = _superoperator(drift, l_ops)
    got = (rho.reshape(batch, d * d) @ sup.T).reshape(rho.shape)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "rates",
    [{}, {"gamma_e_per_s": 3.08e8}, {"cavity_decay_per_s": 5.03e7}],
    ids=["base", "gamma_e", "k"],
)
def test_scattered_superoperator_equals_the_kronecker_sum(rates):
    # the scatter build adds the same products in the same order as the
    # full Kronecker products it replaces, on the noisy gate's generators
    for segment in noisy_gate(**rates).segments:
        drift, l_ops = segment.drift, segment.l_ops
        eye = np.eye(drift.shape[0])
        want = np.kron(drift, eye) + np.kron(eye, drift.conj())
        for l_op in l_ops:
            want += np.kron(l_op, l_op.conj())
        got = _superoperator(drift, l_ops)
        assert np.array_equal(got, want)
        d = drift.shape[0]
        transpose = np.arange(d * d).reshape(d, d).T.reshape(-1)
        real = _real_superoperator(drift, l_ops)
        want_real = want.imag[:, transpose] + want.real
        # the real form, which the series multiplies by, matches to the sign of zero
        assert real.tobytes() == want_real.tobytes()


def _plain_series(flat, sup_t, n_sub, h):
    # the Taylor sub-steps as plainly written: every row, fresh arrays, and
    # both largest entries read after every term
    for _ in range(n_sub):
        term = flat
        last = np.abs(term).max()
        for k in range(1, _TAYLOR_DEGREE + 1):
            term = (term @ sup_t) * (h / k)
            flat = flat + term
            size = np.abs(term).max()
            if last + size <= _UNIT_ROUNDOFF * np.abs(flat).max():
                break
            last = size
    return flat


@pytest.mark.parametrize(
    "rates",
    [{}, {"gamma_e_per_s": 3.08e8}, {"cavity_decay_per_s": 5.03e7}],
    ids=["base", "gamma_e", "k"],
)
def test_buffered_series_matches_the_plain_one_bit_for_bit(rates):
    # on the noisy gate's ten units the zero rows left out, the reused
    # buffers and the running bound change no bit of any segment's output
    noisy = noisy_gate(**rates)
    d, idx = len(noisy.kept), noisy.computational
    upper = [(i, j) for i in range(4) for j in range(i, 4)]
    batch = np.zeros((len(upper), d, d), dtype=complex)
    for m, (i, j) in enumerate(upper):
        batch[m, idx[i], idx[j]] = 1.0
    for segment in noisy.segments:
        flat = np.concatenate([y.reshape(-1, d * d) for y in _to_coordinates(batch)])
        sup_t = _real_superoperator(segment.drift, segment.l_ops).T
        n_sub = segment.substeps
        a, b = _from_coordinates(
            _plain_series(flat, sup_t, n_sub, segment.t / n_sub).reshape(2, *batch.shape)
        )
        batch = exp_segment(batch, segment)
        assert batch.tobytes() == (a + 1j * b).tobytes()


def _cplx(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _adjoint(x):
    return np.swapaxes(x, -1, -2).conj()


def test_real_superoperator_matches_the_complex_one():
    # L applied through the real coordinates of the Hermitian parts equals
    # the complex superoperator, on Hermitian and on non-Hermitian batches
    rng = np.random.default_rng(11)
    d, batch = 6, 5
    h = _cplx(rng, d, d)
    l_ops = [_cplx(rng, d, d) for _ in range(3)]
    drift = _drift(h + _adjoint(h), l_ops)
    sup = _superoperator(drift, l_ops)
    real = _real_superoperator(drift, l_ops)
    assert real.dtype == np.float64 and real.shape == (d * d, d * d)
    x = _cplx(rng, batch, d, d)
    for rho in (x, x + _adjoint(x)):
        want = (rho.reshape(batch, d * d) @ sup.T).reshape(rho.shape)
        a, b = (
            _from_coordinates((y.reshape(batch, d * d) @ real.T).reshape(rho.shape))
            for y in _to_coordinates(rho)
        )
        assert np.max(np.abs(a + 1j * b - want)) <= 1e-14 * np.max(np.abs(want))


def test_real_superoperator_is_laid_out_in_fortran_order():
    # the Taylor gemm's BLAS call follows L_y's layout: a C-ordered copy of
    # the same entries moves the default point's trace defect, so a change
    # of layout shows here before it shows in the pinned reports
    for segment in noisy_gate().segments:
        real = _real_superoperator(segment.drift, segment.l_ops)
        assert real.flags.f_contiguous and not real.flags.c_contiguous


def test_real_coordinates_are_an_isometry_and_invert():
    rng = np.random.default_rng(12)
    x = _cplx(rng, 4, 7, 7)
    herm = x + _adjoint(x)
    y_a, y_b = _to_coordinates(herm)
    assert not np.any(y_b)
    norms = np.linalg.norm(y_a.reshape(4, -1), axis=1)
    np.testing.assert_allclose(norms, np.linalg.norm(herm, axis=(1, 2)), rtol=1e-15)
    # Re + Im and Re - Im round once, so the way back holds to an ulp in
    # general and exactly where neither sum rounds, as for small integers
    back = _from_coordinates(y_a)
    assert np.max(np.abs(back - herm)) <= 2.0**-52 * np.max(np.abs(herm))
    ints = np.round(4 * herm)
    np.testing.assert_array_equal(_from_coordinates(_to_coordinates(ints)[0]), ints)
    # X = A + iB for any X, and A, B come back Hermitian
    a, b = (_from_coordinates(y) for y in _to_coordinates(x))
    assert np.max(np.abs(a + 1j * b - x)) <= 2.0**-51 * np.max(np.abs(x))
    for part in (a, b):
        np.testing.assert_array_equal(part, _adjoint(part))


def test_exp_lindblad_keeps_hermitian_inputs_exactly_hermitian():
    layout = SpaceLayout(2, fock_cutoff=1)
    h_full = oracle_embedded(cavity_coupling_hamiltonian(0, 1, 1.8e8, 1.1e8, 1), layout)
    ops = collapse_operators_from_rates(5e6, 4e7, 0.5, fock_cutoff=1)
    l_full = [oracle_embedded(op, layout) for op in ops]
    rng = np.random.default_rng(13)
    x = _cplx(rng, 3, 18, 18)
    segment = LindbladSegment(h_full, l_full, 1.7e-8)
    out = exp_segment(x + _adjoint(x), segment)
    np.testing.assert_array_equal(out, _adjoint(out))
    # a non-Hermitian input is the sum of its parts' images
    a, b = (x + _adjoint(x)) / 2, (x - _adjoint(x)) / 2j
    whole = exp_segment(x, segment)
    parts = exp_segment(a, segment) + 1j * exp_segment(b, segment)
    assert np.max(np.abs(whole - parts)) <= 1e-14 * np.max(np.abs(whole))


def test_exp_lindblad_refuses_large_dimensions_before_allocating():
    # zero-stride views: a (d, d) operand that takes no memory of its own
    for d in (SUPEROPERATOR_DIM_LIMIT + 1, 1024):
        h = np.broadcast_to(np.zeros((), dtype=complex), (d, d))

        def refused():
            with pytest.raises(ValueError, match="superoperator limit"):
                exp_segment(h, LindbladSegment(h, [h], 1e-9))

        _, peak, _ = traced_peak(refused)
        assert peak < 100_000
    eye = np.eye(SUPEROPERATOR_DIM_LIMIT, dtype=complex)
    np.testing.assert_array_equal(exp_segment(eye, LindbladSegment(0 * eye, [], 0.0)), eye)
