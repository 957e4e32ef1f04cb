"""The benchmark's workloads: seeded op streams and the checks on their outputs.

One op is one call of the public entry point ``squidcavity.cli.main``; the
program sees only the generated argv.  The seed fixes every argv, so two runs
with the same seed issue the same ops.  README.md beside this file says why
each workload exists and which layers it bypasses.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from squidcavity import cli
from squidcavity.evolution import single_excitation_closed_form
from squidcavity.protocols import GateParams, gate_condition_residuals


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]  # without --out, which the runner appends
    expect: dict  # what the checks compare the outputs against


@dataclass
class Outcome:
    code: int | None
    wall_s: float
    cpu_s: float
    error: str | None  # exception raised out of cli.main, if any


def execute(op: Op, out_dir: Path) -> Outcome:
    """Run one op into an emptied ``out_dir``; only the cli.main call is timed."""
    shutil.rmtree(out_dir, ignore_errors=True)
    sink = io.StringIO()
    code = error = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            code = cli.main([*op.argv, "--out", str(out_dir)])
        except Exception as exc:  # a crash is a failed op, not a failed benchmark
            error = f"cli.main raised {exc!r}"
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    return Outcome(code, wall, cpu, error)


def report_digest(out_dir: Path) -> str:
    """Hash of every report file, minus the decoherence CSV's runtime_s column.

    runtime_s, the CSV's last column, measures the run and is the one
    documented exception to the byte-identical report contract.
    """
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "decoherence.csv":
            data = b"\n".join(line.rsplit(b",", 1)[0] for line in data.split(b"\n"))
        digest.update(path.name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


# Pinned at the commit that defined the benchmark: F_avg of the default
# operating point (k = 5e4, gamma_e = 4e5, branch ratio 0.5, 2000 RK4 steps
# per segment).  The exact-exponential prototype agrees to 2.1e-15.
ANCHOR_F_AVG = 0.99435850418853
ANCHOR_TOL = 1e-9


class NoisySweep:
    """``decoherence`` at default integrator settings, one swept rate per op.

    The sweep is drawn over ``k`` or ``gamma_e`` only: at the commit that
    defined the benchmark, ``--sweep branch_ratio --values ...`` exits 2,
    because the CLI validates the default k values against the branch-ratio
    range before ``--values`` replaces them.  A branch-ratio sweep costs the
    same RK4 work as the other two.
    """

    name = "noisy_sweep"
    BASE = {"k": 5e4, "gamma_e": 4e5}
    DECADES = 3.0  # the default k sweep spans three decades above its base

    def __init__(self, seed: int, anchor: float = ANCHOR_F_AVG):
        self.seed = seed
        self.anchor = anchor

    def ops(self):
        rng = random.Random(self.seed)
        while True:
            parameter = rng.choice(sorted(self.BASE))
            base = self.BASE[parameter]
            value = base
            while value == base:
                value = float(f"{base * 10.0 ** rng.uniform(0.0, self.DECADES):.3g}")
            values = [base, value]
            rng.shuffle(values)
            yield Op(
                ("decoherence", "--sweep", parameter, "--values", ",".join(map(repr, values))),
                {"parameter": parameter, "values": values},
            )

    def check(self, op: Op, code: int | None, out_dir: Path) -> list[str]:
        errors = []
        if code != 0:
            errors.append(f"exit code {code}, expected 0")
        payload = _read_json(out_dir / "decoherence.json")
        rows = payload["rows"]
        values = op.expect["values"]
        if [row["value"] for row in rows] != values:
            errors.append(f"rows for {[row['value'] for row in rows]}, asked for {values}")
        errors += [f"row {row['value']} not sane" for row in rows if row["sane"] is not True]
        base = self.BASE[op.expect["parameter"]]
        for row in rows:
            if row["value"] == base and abs(row["average_fidelity"] - self.anchor) > ANCHOR_TOL:
                errors.append(
                    f"base row F_avg {row['average_fidelity']!r} is not {self.anchor!r} +- {ANCHOR_TOL}"
                )
        ordered = [row["average_fidelity"] for row in sorted(rows, key=lambda r: r["value"])]
        if any(later > earlier for earlier, later in zip(ordered, ordered[1:])):
            errors.append(f"F_avg increases with {op.expect['parameter']}: {ordered}")
        csv_rows = _read_csv(out_dir / "decoherence.csv")[1:]
        if [r[2] for r in csv_rows] != [repr(row["average_fidelity"]) for row in rows]:
            errors.append("decoherence.csv and decoherence.json disagree on F_avg")
        return errors


# Copies of squidcavity.cli's CLUSTER_*_MIN at the commit that defined the
# benchmark, pinned so that loosening the program's thresholds cannot
# loosen the check.
CLUSTER_FIDELITY_MIN = 1.0 - 1e-9
CLUSTER_STABILIZER_MIN = 1.0 - 1e-9
CLUSTER_VACUUM_MIN = 1.0 - 1e-10


class ClusterChain:
    """``cluster --n N`` on chains of 8 to 10 SQUIDs, mostly 10."""

    name = "cluster_chain"
    # each block of ops holds these sizes in seeded order, so every run has
    # the same mix and its op time sits on N = 10
    BLOCK = (10, 10, 10, 10, 10, 10, 9, 8)

    def __init__(self, seed: int):
        self.seed = seed

    def ops(self):
        rng = random.Random(self.seed)
        while True:
            block = list(self.BLOCK)
            rng.shuffle(block)
            for n in block:
                yield Op(("cluster", "--n", str(n)), {"n": n})

    def check(self, op: Op, code: int | None, out_dir: Path) -> list[str]:
        errors = []
        n = op.expect["n"]
        if code != 0:
            errors.append(f"exit code {code}, expected 0")
        payload = _read_json(out_dir / "cluster.json")
        stabilizers = payload["stabilizer_expectations"]
        if payload["n_qubits"] != n or len(stabilizers) != n:
            errors.append(f"report for {payload['n_qubits']} SQUIDs / {len(stabilizers)} generators, expected {n}")
        if not payload["oracle_fidelity"] >= CLUSTER_FIDELITY_MIN:
            errors.append(f"oracle fidelity {payload['oracle_fidelity']!r}")
        if not min(stabilizers) >= CLUSTER_STABILIZER_MIN:
            errors.append(f"min stabilizer expectation {min(stabilizers)!r}")
        if not payload["cavity_vacuum_population"] >= CLUSTER_VACUUM_MIN:
            errors.append(f"cavity vacuum population {payload['cavity_vacuum_population']!r}")
        if payload["passed"] is not True:
            errors.append("report not passed")
        csv_values = [float(r[1]) for r in _read_csv(out_dir / "stabilizers.csv")[1:]]
        if csv_values != stabilizers:
            errors.append("stabilizers.csv and cluster.json disagree")
        return errors


ENTRY_TOL = 1e-9
RESIDUAL_REDRAW = 1e-3


def _closed_form_c100(ratio: float, scale: float) -> complex:
    gate = GateParams(ratio=ratio)
    t = gate.resolved_cavity_time * scale
    return complex(single_excitation_closed_form(gate.omega_1, gate.omega_2, t).c_100)


class GateScan:
    """``truth-table`` at exact gate-family members and at detuned points."""

    name = "gate_scan"
    # (m, n) of the family ratio = sqrt((2n/(2m+1))^2 - 1), scale 2m+1
    FAMILY = tuple((m, n) for m in range(3) for n in range(m + 1, m + 4))
    DETUNED_POINTS = 16

    def __init__(self, seed: int):
        self.seed = seed
        self.members = []
        for m, n in self.FAMILY:
            ratio = math.sqrt((2.0 * n / (2 * m + 1)) ** 2 - 1.0)
            self.members.append(self._op(ratio, float(2 * m + 1), member=True))
        rng = random.Random(seed)
        self.detuned = []
        while len(self.detuned) < self.DETUNED_POINTS:
            ratio = float(f"{rng.uniform(0.5, 3.5):.4g}")
            scale = float(f"{rng.uniform(0.5, 5.5):.4g}")
            base = GateParams(ratio=ratio)
            detuned = GateParams(ratio=ratio, cavity_time=base.resolved_cavity_time * scale)
            if max(gate_condition_residuals(detuned)) < RESIDUAL_REDRAW:
                continue  # too close to a working gate to be sure it fails
            self.detuned.append(self._op(ratio, scale, member=False))

    @staticmethod
    def _op(ratio: float, scale: float, member: bool) -> Op:
        return Op(
            ("truth-table", "--ratio", repr(ratio), "--cavity-time-scale", repr(scale)),
            {"member": member, "c_100": _closed_form_c100(ratio, scale)},
        )

    def ops(self):
        rng = random.Random(self.seed)
        while True:
            yield rng.choice(self.members)
            yield rng.choice(self.detuned)

    def check(self, op: Op, code: int | None, out_dir: Path) -> list[str]:
        errors = []
        member = op.expect["member"]
        if code != (0 if member else 1):
            errors.append(f"exit code {code} for a {'member' if member else 'detuned'} point")
        payload = _read_json(out_dir / "truth_table.json")
        if payload["passed"] is not member:
            errors.append(f"passed = {payload['passed']} for a {'member' if member else 'detuned'} point")
        entry = complex(payload["matrix_real"][2][2], payload["matrix_imag"][2][2])
        if not abs(entry - op.expect["c_100"]) <= ENTRY_TOL:
            errors.append(f"|10> diagonal {entry!r}, closed form {op.expect['c_100']!r}")
        return errors


WORKLOADS = {cls.name: cls for cls in (NoisySweep, ClusterChain, GateScan)}
