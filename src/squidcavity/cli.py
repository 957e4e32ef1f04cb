"""Command-line surface: truth-table, cluster, feasibility, decoherence.

Every command resolves its settings as defaults < config file < flags, echoes
the resolved configuration into its JSON report, and writes outputs under the
chosen directory.  Exit codes: 0 all checks passed, 1 a physics check failed,
2 configuration or usage error.

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
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .config import (
    SWEEP_PARAMETERS,
    ConfigError,
    RunConfig,
    SweepSettings,
    config_to_dict,
    load_config,
)
from .decoherence import noisy_gate, qcpg_lindblad_fidelity
from .evolution import MAX_LINDBLAD_SUBSTEPS, evolve_pure
from .feasibility import feasibility_report
from .protocols import (
    chain_initial_state,
    cluster_chain_schedule,
    cluster_state_oracle,
    qcpg_schedule,
    schedule_to_json,
)
from .verification import state_fidelity, stabilizer_expectations, truth_table

# thresholds for the cluster command's pass flags
CLUSTER_FIDELITY_MIN = 1.0 - 1e-9
CLUSTER_STABILIZER_MIN = 1.0 - 1e-9
CLUSTER_VACUUM_MIN = 1.0 - 1e-10

# sanity bounds on any Lindblad run; violations signal a propagator fault
SWEEP_TRACE_DEFECT_MAX = 1e-6
SWEEP_EIGENVALUE_MIN = -1e-6

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squidcavity",
        description="Simulate a cavity-mediated controlled-phase gate between "
        "three-level SQUIDs and the cluster chains it generates.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="JSON config file; flags override it")
    common.add_argument("--out", type=Path, help="output directory (default: out)")
    common.add_argument("--fock-cutoff", type=int, help="cavity truncation photon number")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "truth-table",
        parents=[common],
        help="extract the gate's 4x4 computational action and score it",
    )
    p.add_argument("--ratio", type=float, help="coupling ratio omega_2/omega_1 override")
    p.add_argument(
        "--cavity-time-scale",
        type=float,
        default=1.0,
        help="scale factor on the cavity window (2.0 doubles it)",
    )
    p.set_defaults(handler=cmd_truth_table)

    p = sub.add_parser(
        "cluster", parents=[common], help="run the chain protocol and verify the output"
    )
    p.add_argument("--n", type=int, help="number of SQUIDs in the chain (2..10)")
    p.set_defaults(handler=cmd_cluster)

    p = sub.add_parser(
        "feasibility", parents=[common], help="recompute operating-point timescales"
    )
    p.set_defaults(handler=cmd_feasibility)

    p = sub.add_parser(
        "decoherence",
        parents=[common],
        help="gate fidelity under decay, swept over one rate",
    )
    p.add_argument("--sweep", choices=SWEEP_PARAMETERS, help="parameter to sweep")
    p.add_argument("--values", help="comma-separated sweep values")
    p.set_defaults(handler=cmd_decoherence)
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = load_config(args.config) if args.config is not None else RunConfig()
    updates = {}
    if args.out is not None:
        updates["out_dir"] = str(args.out)
    if args.fock_cutoff is not None:
        updates["fock_cutoff"] = args.fock_cutoff
    if getattr(args, "n", None) is not None:
        updates["n_qubits"] = args.n

    try:
        gate = config.gate
        if getattr(args, "ratio", None) is not None:
            gate = replace(gate, ratio=args.ratio)
        scale = getattr(args, "cavity_time_scale", 1.0)
        if scale != 1.0:
            if not scale > 0:
                raise ConfigError(f"--cavity-time-scale must be > 0, got {scale}")
            gate = replace(gate, cavity_time=gate.resolved_cavity_time * scale)
        if gate is not config.gate:
            updates["gate"] = gate

        parameter = getattr(args, "sweep", None)
        values = getattr(args, "values", None)
        if values is not None:
            try:
                values = tuple(float(v) for v in values.split(","))
            except ValueError as exc:
                raise ConfigError(f"--values must be comma-separated numbers: {exc}") from exc
        if parameter is not None or values is not None:
            updates["sweep"] = SweepSettings(
                parameter=parameter or config.sweep.parameter,
                values=config.sweep.values if values is None else values,
            )
        return replace(config, **updates) if updates else config
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _make_out_dir(out_dir: Path) -> None:
    """Create the output directory of every command, before any work runs."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc


def _write_json(out_dir: Path, name: str, payload: dict) -> Path:
    path = out_dir / name
    # NaN and Infinity are not JSON: a report carrying one is a program fault
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return path


def _write_text(out_dir: Path, name: str, text: str) -> Path:
    path = out_dir / name
    path.write_text(text if text.endswith("\n") else text + "\n")
    return path


def _write_csv(out_dir: Path, name: str, header, rows) -> Path:
    path = out_dir / name
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def cmd_truth_table(config: RunConfig, args: argparse.Namespace) -> int:
    out_dir = Path(config.out_dir)
    schedule = qcpg_schedule(0, 1, config.gate)
    t0 = time.perf_counter()
    report = truth_table(schedule, fock_cutoff=config.fock_cutoff)
    t_propagate = time.perf_counter()
    payload = {
        "config": config_to_dict(config),
        "matrix_real": np.real(report.matrix).tolist(),
        "matrix_imag": np.imag(report.matrix).tolist(),
        "phases_rad": report.phases.tolist(),
        "per_column_leakage": report.per_column_leakage.tolist(),
        "leakage": report.leakage,
        "max_entry_error": report.max_entry_error,
        "entry_tol": report.entry_tol,
        "leakage_tol": report.leakage_tol,
        "passed": report.passed,
    }
    _write_json(out_dir, "truth_table.json", payload)
    _write_text(out_dir, "schedule.json", schedule_to_json(schedule))
    t_report = time.perf_counter()
    print("truth table (real part, inputs as columns 00 01 10 11):")
    for row in np.real(report.matrix):
        print("  " + "  ".join(f"{x:+8.5f}" for x in row))
    print(f"phases (rad): {', '.join(f'{p:+.6f}' for p in report.phases)}")
    print(f"max entry error: {report.max_entry_error:.3e} (tolerance {report.entry_tol:.0e})")
    print(f"max leakage: {report.leakage:.3e} (tolerance {report.leakage_tol:.0e})")
    print(f"wall time: {t_report - t0:.3f} s")
    print(f"  propagate {t_propagate - t0:.4f} s, report {t_report - t_propagate:.4f} s")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def cmd_cluster(config: RunConfig, args: argparse.Namespace) -> int:
    out_dir = Path(config.out_dir)
    n = config.n_qubits
    schedule = cluster_chain_schedule(n, config.gate)
    t0 = time.perf_counter()
    state = evolve_pure(chain_initial_state(n, config.fock_cutoff), schedule)
    t_evolve = time.perf_counter()
    oracle = cluster_state_oracle(n, config.fock_cutoff)
    fidelity = state_fidelity(state, oracle)
    # free the oracle's amplitudes before the stabilizers allocate theirs
    del oracle
    t_oracle = time.perf_counter()
    stab = stabilizer_expectations(state, n)
    t_stab = time.perf_counter()
    passed = (
        fidelity >= CLUSTER_FIDELITY_MIN
        and stab.min_expectation >= CLUSTER_STABILIZER_MIN
        and stab.cavity_vacuum_population >= CLUSTER_VACUUM_MIN
    )
    payload = {
        "config": config_to_dict(config),
        "n_qubits": n,
        "oracle_fidelity": fidelity,
        "stabilizer_expectations": stab.expectations.tolist(),
        "min_stabilizer_expectation": stab.min_expectation,
        "cavity_vacuum_population": stab.cavity_vacuum_population,
        "passed": passed,
    }
    _write_json(out_dir, "cluster.json", payload)
    _write_csv(
        out_dir,
        "stabilizers.csv",
        ("generator", "expectation"),
        [(i, repr(float(v))) for i, v in enumerate(stab.expectations)],
    )
    _write_text(out_dir, "schedule.json", schedule_to_json(schedule))
    print(f"chain of {n} SQUIDs, {len(schedule)} segments")
    print(f"oracle fidelity: {fidelity:.12f}")
    print(f"min stabilizer expectation: {stab.min_expectation:.12f}")
    print(f"cavity vacuum population: {stab.cavity_vacuum_population:.12f}")
    print(f"wall time: {t_stab - t0:.3f} s")
    print(
        f"  evolve {t_evolve - t0:.4f} s, oracle {t_oracle - t_evolve:.4f} s, "
        f"stabilizers {t_stab - t_oracle:.4f} s"
    )
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def cmd_feasibility(config: RunConfig, args: argparse.Namespace) -> int:
    out_dir = Path(config.out_dir)
    report = feasibility_report(config.feasibility, config.gate)
    # JSON cannot write infinity: a value that overflows to it, such as the
    # cooperativity of a lossless point (gamma_e = 0), is written as null
    payload = {
        name: None if isinstance(value, float) and not math.isfinite(value) else value
        for name, value in asdict(report).items()
    }
    payload["config"] = config_to_dict(config)
    _write_json(out_dir, "feasibility.json", payload)
    print(f"cavity decay rate:      {report.cavity_decay_per_s:.4e} 1/s")
    print(f"cavity lifetime:        {report.cavity_lifetime_s:.4e} s")
    print(f"exchange window:        {report.exchange_window_s:.4e} s")
    print(f"pulse window:           {report.pulse_window_s:.4e} s")
    print(f"cooperativity:          {report.cooperativity:.4e}")
    print(f"exchange * cavity rate: {report.exchange_per_cavity_decay:.4e}")
    print(f"exchange * e-decay:     {report.exchange_per_e_decay:.4e}")
    for name, ok in sorted(report.anchors_matched.items()):
        print(f"anchor {name}: {'ok' if ok else 'MISMATCH'}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _point_rates(config: RunConfig, value: float) -> dict:
    return {
        "cavity_decay_per_s": config.feasibility.cavity_decay_per_s,
        "gamma_e_per_s": config.feasibility.gamma_e_per_s,
        "branch_ratio_e_to_0": config.feasibility.branch_ratio_e_to_0,
        SWEEP_PARAMETERS[config.sweep.parameter]: value,
    }


def cmd_decoherence(config: RunConfig, args: argparse.Namespace) -> int:
    out_dir = Path(config.out_dir)
    values = config.sweep.values
    # build each point's generators once, and refuse runaway work before any
    # propagation starts
    t_start = time.perf_counter()
    prepared = []
    for value in values:
        t0 = time.perf_counter()
        noisy = noisy_gate(
            config.gate, fock_cutoff=config.fock_cutoff, **_point_rates(config, value)
        )
        if noisy.substeps > MAX_LINDBLAD_SUBSTEPS:
            raise ConfigError(
                f"{config.sweep.parameter} = {value:g} needs {noisy.substeps:.3g} propagator "
                f"sub-steps in one gate segment, above the limit of {MAX_LINDBLAD_SUBSTEPS}"
            )
        prepared.append((noisy, time.perf_counter() - t0))
    t_build = time.perf_counter()
    rows = []
    json_rows = []
    passed = True
    for value, (noisy, build_s) in zip(values, prepared):
        t0 = time.perf_counter()
        result = qcpg_lindblad_fidelity(noisy)
        runtime = build_s + time.perf_counter() - t0
        sane = (
            result.trace_defect <= SWEEP_TRACE_DEFECT_MAX
            and result.min_eigenvalue >= SWEEP_EIGENVALUE_MIN
            and -1e-9 <= result.average_fidelity <= 1 + 1e-9
        )
        passed = passed and sane
        rows.append(
            (
                config.sweep.parameter,
                repr(float(value)),
                repr(result.average_fidelity),
                repr(result.process_fidelity),
                repr(result.trace_defect),
                repr(result.min_eigenvalue),
                f"{runtime:.3f}",
            )
        )
        json_rows.append(
            {
                "value": float(value),
                "average_fidelity": result.average_fidelity,
                "process_fidelity": result.process_fidelity,
                "trace_defect": result.trace_defect,
                "min_eigenvalue": result.min_eigenvalue,
                "gate_duration_s": result.gate_duration_s,
                "sane": sane,
            }
        )
        print(
            f"{config.sweep.parameter} = {value:.4e}: "
            f"avg fidelity {result.average_fidelity:.6f}, "
            f"trace defect {result.trace_defect:.2e}, "
            f"runtime {runtime:.2f} s"
        )
    t_score = time.perf_counter()
    _write_csv(
        out_dir,
        "decoherence.csv",
        (
            "parameter",
            "value",
            "average_fidelity",
            "process_fidelity",
            "trace_defect",
            "min_eigenvalue",
            "runtime_s",
        ),
        rows,
    )
    _write_json(
        out_dir,
        "decoherence.json",
        {
            "config": config_to_dict(config),
            "parameter": config.sweep.parameter,
            "rows": json_rows,
            "passed": passed,
        },
    )
    t_report = time.perf_counter()
    print(f"wall time: {t_report - t_start:.3f} s")
    print(
        f"  build {t_build - t_start:.4f} s, score {t_score - t_build:.4f} s, "
        f"report {t_report - t_score:.4f} s"
    )
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        config = _resolve_config(args)
        _make_out_dir(Path(config.out_dir))
        return args.handler(config, args)
    except ConfigError as exc:
        # any other exception is a fault in the program, not in the input
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
