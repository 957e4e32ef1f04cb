"""Property tests over the paper's gate family and the noisy gate's channel."""

import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from squidcavity import GateParams, exp_lindblad, noisy_gate, qcpg_schedule, truth_table

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
    for h, t in noisy.segments:
        batch = exp_lindblad(batch, h, noisy.collapse, t)
    # Choi matrix sum_ij |i><j| (x) E(|i><j|) on the computational inputs
    choi = np.zeros((4 * d, 4 * d), dtype=complex)
    for m, (i, j) in enumerate(units):
        choi[i * d:(i + 1) * d, j * d:(j + 1) * d] = batch[m]
        assert abs(np.trace(batch[m]) - (i == j)) <= 1e-12
    assert choi.shape == (44, 44)
    assert np.max(np.abs(choi - choi.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh((choi + choi.conj().T) / 2)[0] >= -1e-12
