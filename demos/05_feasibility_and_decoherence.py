"""Operating-point timescales and the gate's survival under decay.

First the timescale budget: both gate windows must be tiny fractions of the
cavity and |e>-level lifetimes.  Then the master-equation check: propagate
the full process through the schedule with photon loss and |e> relaxation
switched on, and score the average gate fidelity.  Each segment's channel
is applied exactly; the whole script takes well under a second.
"""

import time

from squidcavity import (
    FeasibilityParams,
    feasibility_report,
    noisy_gate,
    qcpg_lindblad_fidelity,
)

report = feasibility_report()
print("timescales at the default operating point:")
print(f"  cavity lifetime      {report.cavity_lifetime_s:.4e} s")
print(f"  exchange window      {report.exchange_window_s:.4e} s")
print(f"  pulse window         {report.pulse_window_s:.4e} s")
print(f"  cooperativity        {report.cooperativity:.4e}")
print(f"  window * cavity rate {report.exchange_per_cavity_decay:.4e}")
print(f"  window * e-decay     {report.exchange_per_e_decay:.4e}")
print(f"  all anchors matched: {report.passed}")

print()
print("average gate fidelity vs cavity decay rate:")
base = FeasibilityParams()
values = [base.cavity_decay_per_s, 100 * base.cavity_decay_per_s, 1000 * base.cavity_decay_per_s]
t0 = time.perf_counter()
results = [qcpg_lindblad_fidelity(noisy_gate(cavity_decay_per_s=k)) for k in values]
elapsed = time.perf_counter() - t0
print(f"{'k (1/s)':>12} {'avg fidelity':>13} {'trace defect':>13}")
for k, result in zip(values, results):
    print(
        f"{k:>12.3e} {result.average_fidelity:>13.6f} "
        f"{result.trace_defect:>13.2e}"
    )
print(f"({elapsed:.1f} s for {len(values)} master-equation runs)")
print()
print("the default point sits deep in the high-fidelity regime; a cavity a")
print("thousand times leakier drags the gate below 0.95.")
