"""Property tests of the input boundary, in the library and at the command line.

Every number drawn here comes from one set of edge values: zero, a
negative, the smallest subnormal, powers of ten near both ends of the
float range, the largest float's neighbourhood, an integer too large for
any float, NaN and +-inf.  The library half feeds them to each constructor
that takes a number and to ``noisy_gate``, and runs each segment it builds:
each call either raises ValueError, with no numpy warning, or returns
finite numbers.  The command-line half writes them into config files and
``--values`` and runs every command in-process: no exception escapes
``cli.main``, a refusal exits 2 and writes no report, and a report that is
written is valid JSON whose pass flag matches the exit code.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squidcavity import (
    CavitySegment,
    DriveSegment,
    FeasibilityParams,
    GateParams,
    SpaceLayout,
    basis_state,
    evolve_pure,
    noisy_gate,
    qcpg_lindblad_fidelity,
)
from squidcavity.cli import main
from squidcavity.config import _SECTIONS, SWEEP_PARAMETERS, ConfigError, SweepSettings
from squidcavity.hamiltonians import collapse_operators_from_rates

BOUNDARY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)

HUGE = 10**400  # an integer no float can hold

EDGE_VALUES = (
    0, -1, 5e-324, 1e-150, -1e-150, 1e150, -1e150, 1e-300, -1e-300, 1e300, -1e300,
    1e306, 5e307, 1.7e308, HUGE, math.nan, math.inf, -math.inf,
)
NUMBERS = st.sampled_from(EDGE_VALUES)


def _some_of(names):
    """Keyword arguments setting any subset of ``names`` to edge values."""
    return st.fixed_dictionaries({}, optional=dict.fromkeys(names, NUMBERS))


def _finite(*numbers) -> bool:
    # float() raises OverflowError on an integer no float can hold
    return all(math.isfinite(float(x)) for x in numbers)


def _built(constructor, *args, **kwargs):
    """What the constructor returns, or None where it raised ValueError."""
    try:
        return constructor(*args, **kwargs)
    except ValueError:
        return None


def _runs_or_refuses(segment):
    """Run ``segment`` on a two-SQUID state: its phase is refused, or the run stays finite."""
    state = basis_state(SpaceLayout(2, 2), (1, 1), 0)
    out = _built(evolve_pure, state, (segment,))
    assert out is None or np.isfinite(out.amplitudes).all()


@BOUNDARY_SETTINGS
@given(_some_of(("omega_1", "ratio", "drive_rabi", "cavity_time", "pulse_duration")))
def test_gate_params_refuse_or_hold_finite_numbers(kwargs):
    gate = _built(GateParams, **kwargs)
    if gate is not None:
        assert _finite(
            gate.omega_1,
            gate.ratio,
            gate.drive_rabi,
            gate.omega_2,
            gate.resolved_cavity_time,
            gate.resolved_pulse_duration,
        )


@BOUNDARY_SETTINGS
@given(_some_of(("q_factor", "omega_c_hz", "gamma_e_per_s", "branch_ratio_e_to_0")))
def test_feasibility_params_refuse_or_hold_finite_numbers(kwargs):
    params = _built(FeasibilityParams, **kwargs)
    if params is not None:
        assert _finite(
            params.q_factor,
            params.omega_c_hz,
            params.gamma_e_per_s,
            params.branch_ratio_e_to_0,
            params.cavity_decay_per_s,
        )


@BOUNDARY_SETTINGS
@given(st.sampled_from(tuple(SWEEP_PARAMETERS)), st.lists(NUMBERS, min_size=1, max_size=3))
@example("k", [HUGE])
def test_sweep_settings_refuse_or_hold_finite_numbers(parameter, values):
    try:
        sweep = SweepSettings(parameter, tuple(values))
    except ConfigError:
        return
    assert _finite(*sweep.values)


@BOUNDARY_SETTINGS
@given(st.sampled_from(((0, 1), (1, 2))), NUMBERS, NUMBERS, NUMBERS)
@example((0, 1), HUGE, 1.0, 0.0)
@example((1, 2), 1.0, 1.0, math.nan)
@example((1, 2), 1.0, 1.0, math.inf)
@example((1, 2), 1.0, 1.0, HUGE)
# a phase rabi * duration past the float range, refused before np.exp
@example((0, 1), 1.7e308, 1.7e308, 0.0)
def test_drive_segment_refuses_or_holds_finite_numbers(transition, rabi, duration, phase):
    segment = _built(DriveSegment, 0, transition, rabi, duration, phase)
    if segment is not None:
        assert _finite(segment.rabi, segment.duration, segment.phase)
        assert np.isfinite(segment.hamiltonian(2).matrix).all()
        _runs_or_refuses(segment)


@BOUNDARY_SETTINGS
@given(NUMBERS, NUMBERS, NUMBERS)
@example(HUGE, 1.0, 1.0)
# finite rates whose photon ladder leaves the float range at the cutoff
@example(1.7e308, 0, 0)
# a finite generator whose phase over the duration leaves the float range
@example(1e300, 0.0, 1e10)
def test_cavity_segment_refuses_or_holds_finite_numbers(omega_1, omega_2, duration):
    segment = _built(CavitySegment, 0, 1, omega_1, omega_2, duration)
    if segment is not None:
        assert _finite(segment.omega_1, segment.omega_2, segment.duration)
        # refused before numpy overflows, or finite
        generator = _built(segment.hamiltonian, 2)
        assert generator is None or np.isfinite(generator.matrix).all()
        _runs_or_refuses(segment)


@BOUNDARY_SETTINGS
@given(NUMBERS, NUMBERS, NUMBERS)
def test_collapse_operators_refuse_or_hold_finite_numbers(cavity_decay, gamma_e, branch_ratio):
    ops = _built(collapse_operators_from_rates, cavity_decay, gamma_e, branch_ratio, n_max=2)
    if ops is not None:
        assert all(np.isfinite(op.matrix).all() for op in ops)


@BOUNDARY_SETTINGS
@given(_some_of(("cavity_decay_per_s", "gamma_e_per_s", "branch_ratio_e_to_0")))
def test_noisy_gate_refuses_or_scores_finite(kwargs):
    # a point over the sub-step limit is refused here, when it is built
    noisy = _built(noisy_gate, **kwargs)
    if noisy is None:
        return
    result = _built(qcpg_lindblad_fidelity, noisy)
    if result is not None:
        assert _finite(
            result.average_fidelity,
            result.process_fidelity,
            result.trace_defect,
            result.min_eigenvalue,
            result.gate_duration_s,
        )


COMMANDS = {
    "truth-table": ("truth_table.json", []),
    "cluster": ("cluster.json", ["--n", "2"]),
    "feasibility": ("feasibility.json", []),
    "decoherence": ("decoherence.json", []),
}

CONFIG_KEYS = [(name, key) for name, (key_map, _) in _SECTIONS.items() for key in key_map]


@st.composite
def cli_runs(draw):
    """(command, config, --values or None): one to three config keys set."""
    command = draw(st.sampled_from(tuple(COMMANDS)))
    config = {}
    for name, key in draw(st.lists(st.sampled_from(CONFIG_KEYS), min_size=1, max_size=3)):
        if key == "parameter":
            value = draw(st.sampled_from(tuple(SWEEP_PARAMETERS)))
        elif key == "values":
            value = draw(st.lists(NUMBERS, min_size=1, max_size=2))
        else:
            value = draw(NUMBERS)
        config.setdefault(name, {})[key] = value
    values = None
    if command == "decoherence":
        # the default sweep has four points; keep the run to two at most
        in_config = "values" in config.get("sweep", {})
        flag = st.lists(NUMBERS, min_size=1, max_size=2)
        values = draw(st.none() | flag if in_config else flag)
    return command, config, values


def _refuse_constant(name):
    raise AssertionError(f"report holds the non-JSON constant {name}")


@settings(BOUNDARY_SETTINGS, max_examples=80)
@given(cli_runs())
@example(("decoherence", {"sweep": {"values": [HUGE]}}, None))
@example(("feasibility", {"feasibility": {"gamma_e_per_s": 5e-324}}, None))
# each value passes alone, but the cavity's photon ladder scales omega_1 past
# the float range in the exchange generator
@example(("cluster", {"gate": {"omega_1_per_s": 1.7e308, "ratio": 1e-150}}, None))
@example(("decoherence", {"gate": {"omega_1_per_s": 1.7e308, "ratio": 1e-150}}, [0]))
# a finite generator whose Taylor products leave the float range
@example(("decoherence", {"gate": {"omega_1_per_s": 5e307, "ratio": 1e-150}}, [0]))
def test_cli_exits_0_1_or_2_on_edge_values(run):
    command, config, values = run
    report_name, flags = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "run.json"
        config_path.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        argv = [command, "--config", str(config_path), "--out", str(out), *flags]
        if values is not None:
            argv.append("--values=" + ",".join(repr(v) for v in values))
        stderr = io.StringIO()
        with warnings.catch_warnings():
            # a drawn gate may break the gate conditions, which only warns
            warnings.simplefilter("ignore", UserWarning)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = main(argv)
        assert code in (0, 1, 2), run
        written = sorted(out.iterdir()) if out.exists() else []
        if code == 2:
            assert "configuration error" in stderr.getvalue(), run
            assert not written, run
            return
        for path in written:
            if path.suffix == ".json":
                json.loads(path.read_text(), parse_constant=_refuse_constant)
        report = json.loads((out / report_name).read_text())
        assert report["passed"] is (code == 0), run
