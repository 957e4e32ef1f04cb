"""Operating-point timescales: are the gate windows short enough to survive?

The decay times come from ``FeasibilityParams`` and the windows from the
gate's ``GateParams``: they are the segment durations ``qcpg_schedule``
builds, so this report and the ``decoherence`` simulation always describe
the same gate.  The only constants are two-significant-figure anchor values
for the default operating point, kept as regression guards against unit or
formula slips.  The quantities:

    cavity_lifetime_s     1/k        with k = omega_c / Q
    exchange_window_s     t_c        the cavity-coupling segment (pi / omega_1 by default)
    pulse_window_s        t_p        one pulse (pi / (2 * drive_rabi) by default)
    cooperativity         omega_1^2 / (gamma_e * k)   strong-coupling figure

The gate works when both windows are tiny fractions of the decay times,
i.e. ``exchange_per_cavity_decay`` = T_r * k and ``exchange_per_e_decay`` =
T_r * gamma_e are << 1, and the cooperativity is >> 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .hamiltonians import FeasibilityParams
from .protocols import GateParams

# two-significant-figure values at the default operating point
ANCHORS = {
    "cavity_lifetime_s": 2.0e-5,
    "exchange_window_s": 1.7e-8,
    "pulse_window_s": 1.8e-8,
    "cooperativity": 1.6e6,
}

_ANCHOR_SIG_FIGURES = 2


def round_to_sig_figures(value: float, n: int) -> float:
    """Round to ``n`` significant figures; 0.0 stays 0.0."""
    if value == 0.0 or not math.isfinite(value):
        return value
    exponent = math.floor(math.log10(abs(value)))
    return round(value, -exponent + n - 1)


@dataclass
class FeasibilityReport:
    """Derived timescales with pass flags against the default-point anchors."""

    cavity_decay_per_s: float
    cavity_lifetime_s: float
    exchange_window_s: float
    pulse_window_s: float
    cooperativity: float
    exchange_per_cavity_decay: float
    exchange_per_e_decay: float
    anchors_matched: dict
    passed: bool


def feasibility_report(
    params: FeasibilityParams = FeasibilityParams(), gate: GateParams = GateParams()
) -> FeasibilityReport:
    """Recompute every derived quantity and flag each against its anchor.

    The anchors describe the default operating point; a report built from
    other parameters will honestly fail them.
    """
    k = params.cavity_decay_per_s
    gamma_e = params.gamma_e_per_s
    omega_1 = gate.omega_1
    values = {
        "cavity_lifetime_s": 1.0 / k,
        "exchange_window_s": gate.resolved_cavity_time,
        "pulse_window_s": gate.resolved_pulse_duration,
        # gamma_e = 0 is a legal lossless point; report infinite cooperativity.
        # A product, not **2: a huge omega_1 the gate accepts then reads inf
        # instead of raising OverflowError
        "cooperativity": omega_1 * omega_1 / (gamma_e * k) if gamma_e > 0 else math.inf,
    }
    matched = {
        name: math.isclose(
            round_to_sig_figures(values[name], _ANCHOR_SIG_FIGURES),
            anchor,
            rel_tol=1e-9,
        )
        for name, anchor in ANCHORS.items()
    }
    return FeasibilityReport(
        cavity_decay_per_s=k,
        **values,
        exchange_per_cavity_decay=values["exchange_window_s"] * k,
        exchange_per_e_decay=values["exchange_window_s"] * params.gamma_e_per_s,
        anchors_matched=matched,
        passed=all(matched.values()),
    )
