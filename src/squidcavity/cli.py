"""Command-line surface: truth-table, cluster, feasibility, decoherence.

``COMMANDS`` is the one table of the commands: each name maps to its
handler, its one-line help and its own flags, and every command also takes
``COMMON_FLAGS``.  A call builds one parser: ``main`` reads the command word
first and parses the rest with that command's flags alone.  When the first
argument names no command, the top-level parser is built instead; it only
prints the help or a usage error.

Every command resolves its settings as defaults < config file < flags.
``FLAGS`` names the config key each flag sets (``--ratio`` sets
``gate.ratio``): the flags given are written into the config file's JSON
object, or into an empty one, and the result is validated once, by
``config.config_from_dict``, so a bad value is refused by the same check,
and named by the same key, whichever way it came.  ``--cavity-time-scale``
is the one flag that sets no key: it multiplies the validated gate's cavity
window, which is then written as ``gate.cavity_time_s`` and validated
again.  A command's handler computes the results, prints its summary
lines, marks the end of each phase on a clock, and returns its pass flag
with its reports: a file name mapped to its content, a JSON dict or list
for a ``.json`` name and a list of CSV rows (header first) for a ``.csv``
one.  ``main`` alone writes them under the chosen directory, in the one
format each suffix names, echoing the resolved configuration into every
JSON dict; it then prints the wall time, each phase's time and minor page
faults (``resource.getrusage``, where the platform has it), the writes
being the ``report`` phase, and PASS or FAIL.  Exit codes: 0 all checks
passed, 1 a physics check failed, 2 configuration or usage error, 3 an
internal fault; a configuration error exits before any report is written.
A ``decoherence`` point whose exact propagation the library refuses as too
much work (``evolution.WorkLimitError``) is a configuration error, named
by its sweep value.  Any other exception, report writing included, is a
fault in the program: ``main`` prints ``internal error:`` and the
traceback to stderr and returns 3.  An exception that is not an
``Exception``, such as ``KeyboardInterrupt``, is left to propagate.

Output files are byte-identical across runs with the same configuration,
with one documented exception: the ``runtime_s`` column of the decoherence
CSV and the wall-clock lines on stdout measure the actual run.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:  # not on every platform; the phase line then has no fault counts
    resource = None

from .config import (
    SWEEP_PARAMETERS,
    ConfigError,
    RunConfig,
    config_from_dict,
    config_to_dict,
    read_config,
)
from .decoherence import noisy_gate, qcpg_lindblad_fidelity
from .evolution import WorkLimitError, propagate_in_pair
from .feasibility import feasibility_report
from .hilbert import CompositeState, SpaceLayout, basis_index, check_number
from .protocols import (
    CHAIN_START_LEVEL,
    cluster_chain_schedule,
    cluster_state_oracle,
    qcpg_schedule,
)
from .verification import state_fidelity, stabilizer_expectations, truth_table

# thresholds for the cluster command's pass flags
CLUSTER_FIDELITY_MIN = 1.0 - 1e-9
CLUSTER_STABILIZER_MIN = 1.0 - 1e-9
CLUSTER_VACUUM_MIN = 1.0 - 1e-10

# sanity bounds on any Lindblad run; violations signal a propagator fault
SWEEP_TRACE_DEFECT_MAX = 1e-6
SWEEP_EIGENVALUE_MIN = -1e-6

# the score columns of the decoherence CSV; its JSON rows hold every score
SCORE_COLUMNS = ("average_fidelity", "process_fidelity", "trace_defect", "min_eigenvalue")


def _set_key(data, key: str, value) -> None:
    """Write ``value`` at ``key``, dotted ``section.name`` or top-level.

    A root or section that is not an object is left as it is, for
    ``config_from_dict`` to refuse.
    """
    *section, name = key.split(".")
    if section and isinstance(data, dict):
        data = data.setdefault(section[0], {})
    if isinstance(data, dict):
        data[name] = value


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Write each given flag into the config file's JSON, or into ``{}``, and validate once."""
    data = read_config(args.config) if args.config is not None else {}
    for flag, (key, _) in FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if key is None or value is None:
            continue
        if flag == "--values":
            try:
                value = [float(v) for v in value.split(",")]
            except ValueError as exc:
                raise ConfigError(f"--values must be comma-separated numbers: {exc}") from exc
        _set_key(data, key, value)
    try:
        config = config_from_dict(data)
    except ConfigError as exc:
        parameter = getattr(args, "sweep", None)
        # the values came from the config file or the defaults, not the command line
        if parameter is not None and args.values is None and str(exc).startswith("sweep values"):
            raise ConfigError(f"--sweep {parameter} needs --values; configured {exc}") from exc
        raise
    scale = getattr(args, "cavity_time_scale", 1.0)
    if scale == 1.0:
        return config
    check_number("--cavity-time-scale", scale, 0, strict=True, error=ConfigError)
    _set_key(data, "gate.cavity_time_s", config.gate.resolved_cavity_time * scale)
    return config_from_dict(data)


def _make_out_dir(out_dir: Path) -> None:
    """Create the output directory of every command, before any work runs."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        # ValueError: a path holding a NUL
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc


def _write_report(path: Path, report, echo: dict) -> None:
    """Write JSON, with the config ``echo`` added to a dict, or CSV rows, by the suffix."""
    if path.suffix == ".json":
        if isinstance(report, dict):
            report = {**report, "config": echo}
        # NaN and Infinity are not JSON: a report carrying one is a program fault
        path.write_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")
    else:
        with path.open("w") as file:
            csv.writer(file, lineterminator="\n").writerows(report)


def cmd_truth_table(config: RunConfig, clock) -> tuple[bool, dict]:
    schedule = qcpg_schedule(0, 1, config.gate)
    report = truth_table(schedule, fock_cutoff=config.fock_cutoff)
    clock("propagate")
    print("truth table (real part, inputs as columns 00 01 10 11):")
    for row in np.real(report.matrix):
        print("  " + "  ".join(f"{x:+8.5f}" for x in row))
    print(f"phases (rad): {', '.join(f'{p:+.6f}' for p in report.phases)}")
    print(f"max entry error: {report.max_entry_error:.3e} (tolerance {report.entry_tol:.0e})")
    print(f"max leakage: {report.leakage:.3e} (tolerance {report.leakage_tol:.0e})")
    scalars = ("leakage", "max_entry_error", "entry_tol", "leakage_tol", "passed")
    return report.passed, {
        "truth_table.json": {
            "matrix_real": np.real(report.matrix).tolist(),
            "matrix_imag": np.imag(report.matrix).tolist(),
            "phases_rad": report.phases.tolist(),
            "per_column_leakage": report.per_column_leakage.tolist(),
            **{name: getattr(report, name) for name in scalars},
        },
        "schedule.json": [segment.to_dict() for segment in schedule],
    }


def cmd_cluster(config: RunConfig, clock) -> tuple[bool, dict]:
    n = config.n_qubits
    schedule = cluster_chain_schedule(n, config.gate)
    layout = SpaceLayout(n, config.fock_cutoff)
    # the run's buffer pair is all the state memory the command holds: the
    # chain starts in its first half, as ``chain_initial_state`` states it,
    # and the idle half takes the oracle, then each K_i psi
    pair = np.zeros((2, layout.total_dim), complex)
    pair[0, basis_index(layout, (CHAIN_START_LEVEL,) * n)] = 1.0
    psi, idle = propagate_in_pair(layout, schedule, pair)
    state = CompositeState(layout, psi)
    clock("evolve")
    fidelity = state_fidelity(state, cluster_state_oracle(n, config.fock_cutoff, out=idle))
    clock("oracle")
    stab = stabilizer_expectations(state, scratch=idle)
    clock("stabilizers")
    passed = (
        fidelity >= CLUSTER_FIDELITY_MIN
        and stab.min_expectation >= CLUSTER_STABILIZER_MIN
        and stab.cavity_vacuum_population >= CLUSTER_VACUUM_MIN
    )
    print(f"chain of {n} SQUIDs, {len(schedule)} segments")
    print(f"oracle fidelity: {fidelity:.12f}")
    print(f"min stabilizer expectation: {stab.min_expectation:.12f}")
    print(f"cavity vacuum population: {stab.cavity_vacuum_population:.12f}")
    return passed, {
        "cluster.json": {
            "n_qubits": n,
            "oracle_fidelity": fidelity,
            "stabilizer_expectations": stab.expectations.tolist(),
            "min_stabilizer_expectation": stab.min_expectation,
            "cavity_vacuum_population": stab.cavity_vacuum_population,
            "passed": passed,
        },
        "stabilizers.csv": [
            ("generator", "expectation"),
            *((i, repr(float(v))) for i, v in enumerate(stab.expectations)),
        ],
        "schedule.json": [segment.to_dict() for segment in schedule],
    }


def cmd_feasibility(config: RunConfig, clock) -> tuple[bool, dict]:
    report = feasibility_report(config.feasibility, config.gate)
    clock("compute")
    print(f"cavity decay rate:      {report.cavity_decay_per_s:.4e} 1/s")
    print(f"cavity lifetime:        {report.cavity_lifetime_s:.4e} s")
    print(f"exchange window:        {report.exchange_window_s:.4e} s")
    print(f"pulse window:           {report.pulse_window_s:.4e} s")
    print(f"cooperativity:          {report.cooperativity:.4e}")
    print(f"exchange * cavity rate: {report.exchange_per_cavity_decay:.4e}")
    print(f"exchange * e-decay:     {report.exchange_per_e_decay:.4e}")
    for name, ok in sorted(report.anchors_matched.items()):
        print(f"anchor {name}: {'ok' if ok else 'MISMATCH'}")
    # JSON cannot write infinity: a value that overflows to it, such as the
    # cooperativity of a lossless point (gamma_e = 0), is written as null
    return report.passed, {
        "feasibility.json": {
            name: None if isinstance(value, float) and not math.isfinite(value) else value
            for name, value in asdict(report).items()
        }
    }


def cmd_decoherence(config: RunConfig, clock) -> tuple[bool, dict]:
    parameter = config.sweep.parameter
    # every rate keyword of noisy_gate is a sweep parameter's
    rates = {name: getattr(config.feasibility, name) for name in SWEEP_PARAMETERS.values()}
    # build each point's generators once, so that runaway work is refused
    # before any propagation starts
    prepared = []
    for value in config.sweep.values:
        t0 = time.perf_counter()
        rates[SWEEP_PARAMETERS[parameter]] = value
        try:
            noisy = noisy_gate(config.gate, fock_cutoff=config.fock_cutoff, **rates)
        except WorkLimitError as exc:
            raise ConfigError(f"{parameter} = {value:g}: {exc}") from exc
        prepared.append((value, noisy, time.perf_counter() - t0))
    clock("build")
    csv_rows = [("parameter", "value", *SCORE_COLUMNS, "runtime_s")]
    json_rows = []
    for value, noisy, build_s in prepared:
        t0 = time.perf_counter()
        scores = asdict(qcpg_lindblad_fidelity(noisy))
        runtime = build_s + time.perf_counter() - t0
        sane = (
            scores["trace_defect"] <= SWEEP_TRACE_DEFECT_MAX
            and scores["min_eigenvalue"] >= SWEEP_EIGENVALUE_MIN
            and -1e-9 <= scores["average_fidelity"] <= 1 + 1e-9
        )
        csv_rows.append(
            (parameter, repr(value), *(repr(scores[c]) for c in SCORE_COLUMNS), f"{runtime:.3f}")
        )
        json_rows.append({"value": value, **scores, "sane": sane})
        print(
            f"{parameter} = {value:.4e}: "
            f"avg fidelity {scores['average_fidelity']:.6f}, "
            f"trace defect {scores['trace_defect']:.2e}, "
            f"runtime {runtime:.2f} s"
        )
    clock("score")
    passed = all(row["sane"] for row in json_rows)
    return passed, {
        "decoherence.csv": csv_rows,
        "decoherence.json": {"parameter": parameter, "rows": json_rows, "passed": passed},
    }


# every flag, by name: the config key it sets (dotted within a section;
# None for the two that set none) and its add_argument keywords
FLAGS = {
    "--config": (None, dict(type=Path, help="JSON config file; flags override it")),
    "--out": (
        "out_dir",
        dict(type=lambda text: str(Path(text)), help="output directory (default: out)"),
    ),
    "--fock-cutoff": ("fock_cutoff", dict(type=int, help="cavity truncation photon number")),
    "--ratio": ("gate.ratio", dict(type=float, help="coupling ratio omega_2/omega_1 override")),
    "--cavity-time-scale": (
        None,
        dict(type=float, default=1.0, help="scale factor on the cavity window (2.0 doubles it)"),
    ),
    "--n": ("n_qubits", dict(type=int, help="number of SQUIDs in the chain (2..10)")),
    "--sweep": ("sweep.parameter", dict(choices=SWEEP_PARAMETERS, help="parameter to sweep")),
    "--values": ("sweep.values", dict(help="comma-separated sweep values")),
}
# the flags every command takes
COMMON_FLAGS = ("--config", "--out", "--fock-cutoff")
# command name -> (handler, one-line help, the command's own flags)
COMMANDS = {
    "truth-table": (
        cmd_truth_table,
        "extract the gate's 4x4 computational action and score it",
        ("--ratio", "--cavity-time-scale"),
    ),
    "cluster": (cmd_cluster, "run the chain protocol and verify the output", ("--n",)),
    "feasibility": (cmd_feasibility, "recompute operating-point timescales", ()),
    "decoherence": (
        cmd_decoherence,
        "gate fidelity under decay, swept over one rate",
        ("--sweep", "--values"),
    ),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """Return the one parser of ``command``, or the top-level one if it names none.

    The top-level parser takes the command word alone: it prints the help,
    listing every command, or a usage error.
    """
    if command in COMMANDS:
        _, summary, own_flags = COMMANDS[command]
        parser = argparse.ArgumentParser(prog=f"squidcavity {command}", description=summary)
        for flag in (*COMMON_FLAGS, *own_flags):
            parser.add_argument(flag, **FLAGS[flag][1])
        return parser
    listing = "".join(f"\n  {name:<14}{summary}" for name, (_, summary, _) in COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="squidcavity",
        description="Simulate a cavity-mediated controlled-phase gate between three-level "
        f"SQUIDs\nand the cluster chains it generates.\n\ncommands:{listing}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS, help="see squidcavity <command> --help")
    return parser


def _mark(phase: str) -> tuple:
    """The end of ``phase``: the clock, and the process's minor page faults so far."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt if resource else None
    return phase, time.perf_counter(), faults


def _phase(start: tuple, end: tuple) -> str:
    """``end``'s phase with its time, and its minor page faults where they are counted."""
    name, clock, faults = end
    text = f"{name} {clock - start[1]:.4f} s"
    return text if faults is None else f"{text} ({faults - start[2]} faults)"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    parser = build_parser(command)
    try:
        args = parser.parse_args(argv[1:] if command in COMMANDS else argv)
        if command not in COMMANDS:
            # a command word that parses after another argument, as after "--"
            parser.error("the command must be the first argument")
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        config = _resolve_config(args)
        out_dir = Path(config.out_dir)
        _make_out_dir(out_dir)
        # the handler marks the end of each of its phases on this clock
        marks = [_mark("start")]
        passed, reports = COMMANDS[command][0](config, lambda phase: marks.append(_mark(phase)))
        echo = config_to_dict(config)
        for name, report in reports.items():
            _write_report(out_dir / name, report, echo)
        marks.append(_mark("report"))
        print(f"wall time: {marks[-1][1] - marks[0][1]:.3f} s")
        print("  " + ", ".join(_phase(start, end) for start, end in zip(marks, marks[1:])))
        print("PASS" if passed else "FAIL")
        return 0 if passed else 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # a fault in the program, neither in the input nor in the physics
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 3
