"""Drive pulses on a single three-level SQUID.

A resonant drive on one transition rotates the two levels into each other
while the third level sits idle.  This walks through the rotation angle,
the sign convention, and the pulse used to prepare superpositions.
"""

import math

import numpy as np

from squidcavity import (
    DriveSegment,
    SpaceLayout,
    basis_state,
    evolve_pure,
    prepare_superposition,
    rotation_pulse,
)

layout = SpaceLayout(1, fock_cutoff=1)
rabi = 8.5e7

print("populations of |0>, |1>, |e> while driving the 0-1 transition from |1>:")
print(f"{'angle/pi':>10} {'p0':>8} {'p1':>8} {'pe':>8}")
for angle in np.linspace(0.0, 2 * math.pi, 9, endpoint=False):
    schedule = rotation_pulse(0, (0, 1), angle, rabi=rabi)
    out = evolve_pure(basis_state(layout, (1,)), schedule)
    pops = np.abs(out.amplitudes.reshape(3, 2)[:, 0]) ** 2
    print(f"{angle / math.pi:>10.3f} {pops[0]:>8.4f} {pops[1]:>8.4f} {pops[2]:>8.4f}")

print()
print("a quarter-period pulse sends |0> to -|1> and |1> to +|0>:")
quarter = rotation_pulse(0, (0, 1), math.pi / 2, rabi=rabi)
for level in (0, 1):
    out = evolve_pure(basis_state(layout, (level,)), quarter)
    amps = out.amplitudes.reshape(3, 2)[:, 0].real
    print(f"  |{level}>  ->  {amps[0]:+.3f} |0> {amps[1]:+.3f} |1>")

print()
print("the superposition pulse is an eighth of a period; from |1> it gives")
print("(|0> + |1>)/sqrt(2), and applied twice it completes the quarter turn:")
once = evolve_pure(basis_state(layout, (1,)), prepare_superposition(0))
twice = evolve_pure(basis_state(layout, (1,)), prepare_superposition(0) + prepare_superposition(0))
for label, state in (("once", once), ("twice", twice)):
    amps = state.amplitudes.reshape(3, 2)[:, 0].real
    print(f"  {label:>5}: {amps[0]:+.4f} |0> {amps[1]:+.4f} |1>")

print()
print("the drive phase steers the rotation axis; phase pi reverses the sign")
print("picked up on the way up (used by the gate to imprint a net minus):")
for phase in (0.0, math.pi):
    schedule = (DriveSegment(0, (1, 2), rabi, (math.pi / 2) / rabi, phase),)
    out = evolve_pure(basis_state(layout, (1,)), schedule)
    amps = out.amplitudes.reshape(3, 2)[:, 0].real
    print(f"  phase {phase / math.pi:.0f}*pi: |1> -> {amps[2]:+.3f} |e>")
