"""Show that each correctness check of the benchmark catches a wrong answer.

    python3 perfbench/selftest.py

Run from the repository root.  For each workload it runs one genuine op and
confirms that it passes.  Then it gives the same check corrupted copies of
the outputs, a wrong exit code, or a perturbed anchor, and confirms that the
op counts as failed.  The noisy_sweep op runs at default integrator settings
and takes about a minute.  Exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402

OUT = ROOT / ".perfbench_out" / "selftest"


def edit_json(out_dir: Path, name: str, change) -> None:
    path = out_dir / name
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def edit_csv_cell(out_dir: Path, name: str, row: int, col: int, value: str) -> None:
    path = out_dir / name
    lines = path.read_text().split("\n")
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines))


def noisy_cases(op):
    base = wl.NoisySweep.BASE[op.expect["parameter"]]
    i_base = op.expect["values"].index(base)
    i_other = 1 - i_base

    def row(i, key, value):
        return lambda out: edit_json(out, "decoherence.json", lambda p: p["rows"][i].__setitem__(key, value))

    def bumped_base(p):
        p["rows"][i_base]["average_fidelity"] += 2 * wl.ANCHOR_TOL

    def rising(p):
        p["rows"][i_other]["average_fidelity"] = p["rows"][i_base]["average_fidelity"] + 1e-6

    return [
        ("perturbed anchor", {"anchor": wl.ANCHOR_F_AVG + 2 * wl.ANCHOR_TOL}, None, None),
        ("exit code 1", {}, 1, None),
        ("base row off the anchor", {}, None, lambda out: edit_json(out, "decoherence.json", bumped_base)),
        ("row not sane", {}, None, row(i_other, "sane", False)),
        ("F_avg rises with the rate", {}, None, lambda out: edit_json(out, "decoherence.json", rising)),
        ("row for another value", {}, None, row(i_other, "value", 1.0)),
        ("CSV disagrees with JSON", {}, None,
         lambda out: edit_csv_cell(out, "decoherence.csv", 1, 2, "0.5")),
    ]


def cluster_cases(op):
    def field(key, value):
        return lambda out: edit_json(out, "cluster.json", lambda p: p.__setitem__(key, value))

    def low_stabilizer(p):
        p["stabilizer_expectations"][0] = 1.0 - 2e-9

    return [
        ("exit code 1", {}, 1, None),
        ("oracle fidelity below threshold", {}, None, field("oracle_fidelity", 1.0 - 2e-9)),
        ("stabilizer below threshold", {}, None, lambda out: edit_json(out, "cluster.json", low_stabilizer)),
        ("cavity not in vacuum", {}, None, field("cavity_vacuum_population", 1.0 - 2e-10)),
        ("passed flag false", {}, None, field("passed", False)),
        ("wrong chain size", {}, None, field("n_qubits", op.expect["n"] - 1)),
        ("CSV disagrees with JSON", {}, None,
         lambda out: edit_csv_cell(out, "stabilizers.csv", 1, 1, "0.5")),
    ]


def gate_cases(op):
    def entry(p):
        p["matrix_real"][2][2] += 2 * wl.ENTRY_TOL

    wrong_code = 1 if op.expect["member"] else 0
    return [
        (f"exit code {wrong_code}", {}, wrong_code, None),
        ("passed flag flipped", {}, None,
         lambda out: edit_json(out, "truth_table.json", lambda p: p.__setitem__("passed", not p["passed"]))),
        ("|10> entry off the closed form", {}, None, lambda out: edit_json(out, "truth_table.json", entry)),
        ("report missing", {}, None, lambda out: (out / "truth_table.json").unlink()),
    ]


def main() -> int:
    problems = 0
    noisy, cluster, scan = wl.NoisySweep(0), wl.ClusterChain(0), wl.GateScan(0)
    cases = [
        (noisy, next(noisy.ops()), noisy_cases),
        (cluster, next(cluster.ops()), cluster_cases),
        (scan, scan.members[4], gate_cases),
        (scan, scan.detuned[0], gate_cases),
    ]
    try:
        for workload, op, make_cases in cases:
            genuine = OUT / "genuine"
            outcome = wl.execute(op, genuine)
            errors = run.judge(workload, op, outcome, genuine, {})
            print(f"{workload.name} {' '.join(op.argv)}: genuine op {'FAILED ' + str(errors) if errors else 'passes'}")
            problems += bool(errors)
            for label, kwargs, code, corrupt in make_cases(op):
                corrupted = OUT / "corrupted"
                shutil.rmtree(corrupted, ignore_errors=True)
                shutil.copytree(genuine, corrupted)
                if corrupt is not None:
                    corrupt(corrupted)
                bad = wl.Outcome(outcome.code if code is None else code, outcome.wall_s, outcome.cpu_s, None)
                errors = run.judge(type(workload)(0, **kwargs), op, bad, corrupted, {})
                print(f"  {label}: {'caught: ' + errors[0] if errors else 'MISSED'}")
                problems += not errors
            # the byte-identical contract: a second report for the same argv
            # must match the first
            digests = {}
            run.judge(workload, op, outcome, genuine, digests)
            corrupted = OUT / "corrupted"
            shutil.rmtree(corrupted, ignore_errors=True)
            shutil.copytree(genuine, corrupted)
            report = sorted(p.name for p in genuine.glob("*.json"))[0]
            (corrupted / report).write_text((genuine / report).read_text() + " ")
            errors = run.judge(workload, op, outcome, corrupted, digests)
            print(f"  {report} bytes changed for a repeated argv: "
                  f"{'caught: ' + errors[-1] if errors else 'MISSED'}")
            problems += not errors
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print("all corruptions caught" if not problems else f"{problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
