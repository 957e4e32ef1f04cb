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
written is valid JSON whose pass flag matches the exit code.  It also
resolves drawn flags and config files, from the config boundary's own edge
values and malformed ``--values`` strings: the flags and the file pass one
validation, which returns a ``RunConfig`` or raises ``ConfigError``.

The sizes of a register have one rule, ``hilbert.check_index``, and one
vocabulary: a table lists every public callable that takes a cavity cutoff
(``fock_cutoff``) or a chain length (``n_qubits``, or ``n_squids`` for a
layout) with its least valid value.  Each refuses ``True``, 1.5 and the
value below its bound with a ValueError naming the parameter, and no
public callable is missing from the table or calls the cutoff ``n_max``.
A number has one rule too, ``hilbert.check_number``: a second table lists
every public callable that takes one, and each refuses ``True``, ``"1"``
and None (unless None is the parameter's default) with a ValueError
naming it.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import squidcavity
from squidcavity import (
    CavitySegment,
    DriveSegment,
    FeasibilityParams,
    GateParams,
    SpaceLayout,
    basis_state,
    chain_initial_state,
    cluster_chain_schedule,
    cluster_state_oracle,
    evolve_pure,
    noisy_gate,
    prepare_superposition,
    qcpg_lindblad_fidelity,
    qcpg_schedule,
    rotation_pulse,
    single_excitation_closed_form,
    truth_table,
)
from squidcavity.cli import COMMANDS as CLI_COMMANDS
from squidcavity.cli import COMMON_FLAGS, _resolve_config, build_parser, main
from squidcavity.config import _SECTIONS, SWEEP_PARAMETERS, ConfigError, RunConfig, SweepSettings
from squidcavity.evolution import LindbladSegment, propagator
from squidcavity.hamiltonians import (
    annihilation,
    cavity_coupling_hamiltonian,
    collapse_operators_from_rates,
    exchange_norm_bound,
)
from squidcavity.verification import computational_propagator

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
    ops = _built(collapse_operators_from_rates, cavity_decay, gamma_e, branch_ratio, fock_cutoff=2)
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


# the config boundary's own edge values: signed zeros, units, the least
# subnormals, the top of the float range, an integer no float can hold,
# NaN and +-inf
CONFIG_EDGES = (
    0, -0.0, 1, -1, 5e-324, 1e-320, 1e308, 1.7e308, math.inf, -math.inf, math.nan, HUGE,
)
# --values strings that are no list of finite numbers
BAD_VALUES = ("", ",", "5e4,oops", "1e400")


def _flag_text(value) -> str:
    # an integer in all its digits, a float as the repr that float() reads back
    return str(value) if isinstance(value, int) else repr(value)


@st.composite
def resolve_cases(draw):
    """(command, config data or None, argv): a command, a small config file and its flags."""
    command = draw(st.sampled_from(tuple(CLI_COMMANDS)))
    data = None
    if draw(st.booleans()):
        data = {}
        for name, key in draw(st.lists(st.sampled_from(CONFIG_KEYS), max_size=3)):
            if key == "parameter":
                value = draw(st.sampled_from(tuple(SWEEP_PARAMETERS)))
            elif key == "values":
                value = draw(st.lists(st.sampled_from(CONFIG_EDGES), max_size=2))
            else:
                value = draw(st.sampled_from(CONFIG_EDGES))
            data.setdefault(name, {})[key] = value
        for key in draw(st.lists(st.sampled_from(("n_qubits", "fock_cutoff")), max_size=2)):
            data[key] = draw(st.sampled_from(CONFIG_EDGES))
    argv = []
    for flag in (*COMMON_FLAGS, *CLI_COMMANDS[command][2]):
        if flag in ("--config", "--out") or not draw(st.booleans()):
            continue
        if flag in ("--n", "--fock-cutoff"):
            value = _flag_text(draw(st.sampled_from([v for v in CONFIG_EDGES if type(v) is int])))
        elif flag == "--sweep":
            value = draw(st.sampled_from(tuple(SWEEP_PARAMETERS)))
        elif flag == "--values":
            listed = st.lists(st.sampled_from(CONFIG_EDGES), min_size=1, max_size=2)
            joined = listed.map(lambda values: ",".join(map(repr, values)))
            value = draw(st.sampled_from(BAD_VALUES) | joined)
        else:
            value = _flag_text(draw(st.sampled_from(CONFIG_EDGES)))
        argv += [f"{flag}={value}"]
    return command, data, argv


@settings(BOUNDARY_SETTINGS, max_examples=250)
@given(resolve_cases())
@example(("truth-table", None, ["--ratio=-1.0", "--cavity-time-scale=1e308"]))
@example(("truth-table", {"gate": {"cavity_time_s": 1.7e308}}, ["--cavity-time-scale=5e-324"]))
@example(("decoherence", {"sweep": {"values": [1e308]}}, ["--sweep=branch_ratio"]))
@example(("decoherence", None, ["--values="]))
def test_flags_and_config_files_resolve_or_are_refused(case):
    # a flag and a file value pass one validation: whatever is drawn, the
    # result is a RunConfig or a ConfigError, and never another exception
    command, data, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        if data is not None:
            config_path = Path(tmp) / "run.json"
            config_path.write_text(json.dumps(data))
            argv = [*argv, "--config", str(config_path)]
        args = build_parser(command).parse_args(argv)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            try:
                config = _resolve_config(args)
            except ConfigError:
                return
    assert isinstance(config, RunConfig)


GATE = qcpg_schedule(0, 1)
SIZE_NAMES = ("fock_cutoff", "n_qubits", "n_squids")

# every public callable that takes a size: the parameter, its least valid
# value, and a call with that size and valid values for the rest
SIZES = [
    (SpaceLayout, "n_squids", 1, lambda n: SpaceLayout(n, 2)),
    (SpaceLayout, "fock_cutoff", 0, lambda c: SpaceLayout(2, c)),
    (RunConfig, "n_qubits", 2, lambda n: RunConfig(n_qubits=n)),
    (RunConfig, "fock_cutoff", 1, lambda c: RunConfig(fock_cutoff=c)),
    (annihilation, "fock_cutoff", 0, annihilation),
    (
        cavity_coupling_hamiltonian,
        "fock_cutoff",
        1,
        lambda c: cavity_coupling_hamiltonian(0, 1, 1.0, 1.0, c),
    ),
    # a cavity rate above zero, so that the cavity jump is built
    (
        collapse_operators_from_rates,
        "fock_cutoff",
        0,
        lambda c: collapse_operators_from_rates(1.0, 1.0, 0.5, c),
    ),
    (
        CavitySegment.hamiltonian,
        "fock_cutoff",
        1,
        lambda c: CavitySegment(0, 1, 1.0, 1.0, 1.0).hamiltonian(c),
    ),
    (noisy_gate, "fock_cutoff", 1, lambda c: noisy_gate(fock_cutoff=c)),
    (computational_propagator, "fock_cutoff", 1, lambda c: computational_propagator(GATE, c)),
    (truth_table, "fock_cutoff", 1, lambda c: truth_table(GATE, c)),
    (cluster_chain_schedule, "n_qubits", 2, cluster_chain_schedule),
    (chain_initial_state, "n_qubits", 2, chain_initial_state),
    (chain_initial_state, "fock_cutoff", 0, lambda c: chain_initial_state(2, c)),
    (cluster_state_oracle, "n_qubits", 2, cluster_state_oracle),
    (cluster_state_oracle, "fock_cutoff", 0, lambda c: cluster_state_oracle(2, c)),
]


def _public_callables():
    """(qualified name, callable) for each public function, class and method of the package.

    Exception classes are left out: they take a message, not a size.
    """
    for module_name in (m.name for m in pkgutil.iter_modules(squidcavity.__path__)):
        if module_name.startswith("_"):
            continue
        module = importlib.import_module(f"squidcavity.{module_name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj) and issubclass(obj, Exception):
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                yield f"{module_name}.{name}", obj
            if inspect.isclass(obj):
                for attr, method in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(method):
                        yield f"{module_name}.{name}.{attr}", method


@pytest.mark.parametrize("bad", [True, 1.5, "below"])
@pytest.mark.parametrize(
    "build, name, low, call", SIZES, ids=[f"{b.__qualname__}-{n}" for b, n, _, _ in SIZES]
)
def test_every_size_is_an_int_at_or_above_its_bound(build, name, low, call, bad):
    call(low)
    value = low - 1 if bad == "below" else bad
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(value)


def test_every_callable_that_takes_a_size_is_in_the_table():
    tabled = {(build, name) for build, name, _, _ in SIZES}
    untabled = {
        (qualified, p)
        for qualified, obj in _public_callables()
        for p in inspect.signature(obj).parameters
        if p in SIZE_NAMES and (obj, p) not in tabled
    }
    # the norm bound checks no cutoff, since both of its callers check it
    # first, and a drive's generator does not depend on the cutoff
    assert untabled == {
        ("hamiltonians.exchange_norm_bound", "fock_cutoff"),
        ("protocols.DriveSegment.hamiltonian", "fock_cutoff"),
    }
    assert list(inspect.signature(exchange_norm_bound).parameters) == [
        "omega_1", "omega_2", "fock_cutoff",
    ]


def test_no_public_callable_calls_the_cutoff_n_max():
    named = [
        qualified
        for qualified, obj in _public_callables()
        if "n_max" in inspect.signature(obj).parameters
    ]
    assert named == []


# every public callable that takes a number: the parameter, the name its
# refusal gives the value, and a call with that value and valid values for
# the rest
DRIFT = cavity_coupling_hamiltonian(0, 1, 1.0, 1.0, 2)
NUMBERS_TAKEN = [
    *(
        (GateParams, name, name, lambda x, name=name: GateParams(**{name: x}))
        for name in ("omega_1", "ratio", "drive_rabi", "cavity_time", "pulse_duration")
    ),
    *(
        (FeasibilityParams, name, name, lambda x, name=name: FeasibilityParams(**{name: x}))
        for name in ("q_factor", "omega_c_hz", "gamma_e_per_s", "branch_ratio_e_to_0")
    ),
    (SweepSettings, "values", "sweep values", lambda x: SweepSettings("k", (5e4, x))),
    (DriveSegment, "rabi", "rabi", lambda x: DriveSegment(0, (0, 1), x, 1.0)),
    (DriveSegment, "duration", "duration", lambda x: DriveSegment(0, (0, 1), 1.0, x)),
    (DriveSegment, "phase", "phase", lambda x: DriveSegment(0, (0, 1), 1.0, 1.0, x)),
    (CavitySegment, "omega_1", "omega_1", lambda x: CavitySegment(0, 1, x, 1.0, 1.0)),
    (CavitySegment, "omega_2", "omega_2", lambda x: CavitySegment(0, 1, 1.0, x, 1.0)),
    (CavitySegment, "duration", "duration", lambda x: CavitySegment(0, 1, 1.0, 1.0, x)),
    (rotation_pulse, "angle", "angle", lambda x: rotation_pulse(0, (0, 1), x)),
    (rotation_pulse, "phase", "phase", lambda x: rotation_pulse(0, (0, 1), 1.0, x)),
    (rotation_pulse, "rabi", "rabi", lambda x: rotation_pulse(0, (0, 1), 1.0, 0.0, x)),
    (prepare_superposition, "rabi", "rabi", lambda x: prepare_superposition(0, x)),
    (
        collapse_operators_from_rates,
        "cavity_decay",
        "cavity_decay",
        lambda x: collapse_operators_from_rates(x, 1.0, 0.5, 2),
    ),
    (
        collapse_operators_from_rates,
        "gamma_e",
        "gamma_e",
        lambda x: collapse_operators_from_rates(1.0, x, 0.5, 2),
    ),
    (
        collapse_operators_from_rates,
        "branch_ratio_e_to_0",
        "branch_ratio_e_to_0",
        lambda x: collapse_operators_from_rates(1.0, 1.0, x, 2),
    ),
    # noisy_gate hands its rates to collapse_operators_from_rates
    (noisy_gate, "cavity_decay_per_s", "cavity_decay", lambda x: noisy_gate(cavity_decay_per_s=x)),
    (noisy_gate, "gamma_e_per_s", "gamma_e", lambda x: noisy_gate(gamma_e_per_s=x)),
    (
        noisy_gate,
        "branch_ratio_e_to_0",
        "branch_ratio_e_to_0",
        lambda x: noisy_gate(branch_ratio_e_to_0=x),
    ),
    (
        single_excitation_closed_form,
        "omega_1",
        "omega_1",
        lambda x: single_excitation_closed_form(x, 1.0, 1.0),
    ),
    (
        single_excitation_closed_form,
        "omega_2",
        "omega_2",
        lambda x: single_excitation_closed_form(1.0, x, 1.0),
    ),
    (single_excitation_closed_form, "t", "t", lambda x: single_excitation_closed_form(1.0, 1.0, x)),
    # a duration is called one, whatever its parameter is called
    (propagator, "t", "duration", lambda x: propagator(DRIFT, x)),
    (LindbladSegment, "t", "duration", lambda x: LindbladSegment(DRIFT.matrix, (), x)),
]


@pytest.mark.parametrize("bad", [True, "1", None])
@pytest.mark.parametrize(
    "build, parameter, named, call",
    NUMBERS_TAKEN,
    ids=[f"{b.__qualname__}-{p}" for b, p, _, _ in NUMBERS_TAKEN],
)
def test_every_number_is_a_real_number(build, parameter, named, call, bad):
    call(1.0)
    if bad is None and inspect.signature(build).parameters[parameter].default is None:
        call(bad)
        return
    with pytest.raises(ValueError, match=f"^{re.escape(named)} must be a number, got "):
        call(bad)


def test_every_callable_that_takes_a_number_is_in_the_table():
    tabled = {(build, parameter) for build, parameter, _, _ in NUMBERS_TAKEN}
    untabled = {
        (qualified, p.name)
        for qualified, obj in _public_callables()
        # a dataclass with no checks of its own records computed results
        if not (inspect.isclass(obj) and not hasattr(obj, "__post_init__"))
        for p in inspect.signature(obj).parameters.values()
        if p.annotation in ("float", "float | None") and (obj, p.name) not in tabled
    }
    # the generator builders take the rates their segment has checked, the
    # norm bound's callers check its result, and the rounding formats
    # computed values for a report
    assert untabled == {
        ("hamiltonians.drive_hamiltonian", "rabi"),
        ("hamiltonians.drive_hamiltonian", "phase"),
        ("hamiltonians.cavity_coupling_hamiltonian", "omega_1"),
        ("hamiltonians.cavity_coupling_hamiltonian", "omega_2"),
        ("hamiltonians.exchange_norm_bound", "omega_1"),
        ("hamiltonians.exchange_norm_bound", "omega_2"),
        ("feasibility.round_to_sig_figures", "value"),
    }
