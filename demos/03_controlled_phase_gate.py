"""The three-step controlled-phase gate between two SQUIDs.

Step 1 lifts the target's |1> to |e> (phase pi drive), step 2 runs the
cavity exchange for pi/omega_1 at coupling ratio sqrt(3), step 3 brings
|e> back down (phase 0 drive).  Inputs with the control in |1> ride the
exchange and collect a minus sign; everything else returns unchanged.
"""

import math
import warnings

import numpy as np

from squidcavity import GateParams, qcpg_schedule, truth_table

schedule = qcpg_schedule(0, 1)
print("schedule:")
for row in (segment.to_dict() for segment in schedule):
    if row["kind"] == "drive":
        print(
            f"  drive  SQUID {row['sites'][0]}, {row['transition']}, "
            f"phase {row['phase_rad'] / math.pi:.0f}*pi, {row['duration_s']:.3e} s"
        )
    else:
        print(
            f"  cavity SQUIDs {row['sites'][0]}-{row['sites'][1]}, omega_1 "
            f"{row['omega_1_per_s']:.2e}/s, ratio "
            f"{row['omega_2_per_s'] / row['omega_1_per_s']:.4f}, {row['duration_s']:.3e} s"
        )
print(f"  total duration {sum(segment.duration for segment in schedule):.3e} s")

report = truth_table(schedule)
print()
print("action on the computational basis (inputs as columns 00 01 10 11):")
for row in np.real(report.matrix):
    print("  " + "  ".join(f"{x:+8.5f}" for x in row))
print(f"diagonal phases (rad): {', '.join(f'{p:+.6f}' for p in report.phases)}")
print(f"max entry error vs diag(1,1,1,-1): {report.max_entry_error:.3e}")
print(f"max leakage out of the computational subspace: {report.leakage:.3e}")

print()
print("same gate with the coupling ratio forced to 1 (conditions violated):")
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    broken = truth_table(qcpg_schedule(0, 1, GateParams(ratio=1.0)))
print("  per-column leakage:", ", ".join(f"{x:.4f}" for x in broken.per_column_leakage))
print(f"  verdict: {'PASS' if broken.passed else 'FAIL (as expected)'}")
