"""Photon exchange between two SQUIDs through a shared cavity mode.

With one excitation split across |1,0,vac>, |0,1,vac>, and |0,0,1 photon>,
the dynamics stay inside a three-state manifold with a closed-form solution.
The coupling ratio omega_2/omega_1 = sqrt(3) is special: when cos(omega_1 t)
reaches -1 the excitation has fully returned to the first SQUID, yet the
total accumulated phase is a multiple of 2*pi, so only |1,1> inputs (which
ride a different ladder) keep a net sign.
"""

import math

import numpy as np

from squidcavity import (
    CavitySegment,
    SpaceLayout,
    basis_index,
    basis_state,
    evolve_pure,
    single_excitation_closed_form,
)

omega_1 = 1.8e8
layout = SpaceLayout(2, fock_cutoff=2)
start = basis_state(layout, (1, 0), 0)
indices = [
    basis_index(layout, (1, 0), 0),
    basis_index(layout, (0, 1), 0),
    basis_index(layout, (0, 0), 1),
]


def simulate(ratio: float, t: float) -> np.ndarray:
    seg = CavitySegment(0, 1, omega_1, ratio * omega_1, t)
    out = evolve_pure(start, (seg,))
    return out.amplitudes[indices]


print("populations during the exchange at ratio sqrt(3), starting from |1,0,vac>:")
print(f"{'omega_1*t/pi':>13} {'|1,0,vac>':>10} {'|0,1,vac>':>10} {'|0,0,1ph>':>10}")
ratio = math.sqrt(3)
for frac in np.linspace(0.0, 1.0, 11):
    t = frac * math.pi / omega_1
    amps = simulate(ratio, t)
    pops = np.abs(amps) ** 2
    print(f"{frac:>13.2f} {pops[0]:>10.4f} {pops[1]:>10.4f} {pops[2]:>10.4f}")

print()
print("numerical propagation against the closed form (worst deviation):")
worst = 0.0
for frac in np.linspace(0.0, 2.0, 81):
    t = frac * math.pi / omega_1
    diff = simulate(ratio, t) - single_excitation_closed_form(omega_1, ratio * omega_1, t).as_array()
    worst = max(worst, float(np.max(np.abs(diff))))
print(f"  max |simulated - closed form| = {worst:.3e}")

print()
print("amplitude of the initial state at omega_1*t = pi for several ratios;")
print("only special ratios sqrt(4k^2 - 1) give a clean +1 return:")
for ratio in (1.0, math.sqrt(3), 2.0, math.sqrt(15)):
    amp = simulate(ratio, math.pi / omega_1)[0]
    print(f"  ratio {ratio:<8.4f} ->  {amp.real:+.4f}{amp.imag:+.4f}j")
