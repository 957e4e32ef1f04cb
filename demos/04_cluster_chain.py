"""Growing a linear cluster state one controlled-phase gate at a time.

Every SQUID starts in |1>, gets rotated into (|0> + |1>)/sqrt(2), and then
nearest neighbours are entangled pairwise through the shared cavity.  The
result is checked against a directly constructed cluster state and against
the full set of chain stabilizer generators.
"""

import numpy as np

from squidcavity import (
    chain_initial_state,
    cluster_chain_schedule,
    cluster_state_oracle,
    evolve_pure,
    stabilizer_expectations,
    state_fidelity,
)

for n_qubits in (2, 3, 4, 6):
    schedule = cluster_chain_schedule(n_qubits)
    state = evolve_pure(chain_initial_state(n_qubits), schedule)
    fidelity = state_fidelity(state, cluster_state_oracle(n_qubits))
    report = stabilizer_expectations(state)
    print(
        f"N={n_qubits}: {len(schedule)} segments, oracle fidelity {fidelity:.12f}, "
        f"min stabilizer {report.min_expectation:+.12f}, "
        f"cavity vacuum {report.cavity_vacuum_population:.12f}"
    )

print()
print("stabilizer generators for N=4 (Z X Z windows, X at the listed site):")
state = evolve_pure(chain_initial_state(4), cluster_chain_schedule(4))
report = stabilizer_expectations(state)
for i, value in enumerate(report.expectations):
    print(f"  site {i}: <K_{i}> = {value:+.12f}")

print()
print("sign pattern of the generated N=3 state (one minus per adjacent 11):")
state = evolve_pure(chain_initial_state(3), cluster_chain_schedule(3))
amps = state.amplitudes.reshape(state.layout.dims)
for bits in np.ndindex(2, 2, 2):
    amp = amps[bits + (0,)]
    label = "".join(str(b) for b in bits)
    print(f"  |{label}>: {amp.real:+.4f}")
