"""Run one benchmark workload against ``squidcavity.cli.main`` and print its metrics.

    python3 perfbench/run.py --workload cluster_chain --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.  A
single client runs ops in a closed loop: the next op starts when the previous
one returns.  The first op of a process is the cold op; the timed window is
the ops after it, run for ``--seconds``.  An op that alone outlasts
``--seconds`` is its own window.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same op
stream once untraced and once under the per-layer tracer and prints the
per-layer metrics, as means per op of the traced window.  Metric names and
units come from BENCHMARK.json at the repository root.  The last line of
stdout is the result object; the line before it, starting ``detail``, holds
provenance, the tail latency and every traced layer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass
class Phase:
    """Ops run in one pass over a workload's op stream, in stream order."""

    outcomes: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # list of error strings per op

    @property
    def window(self) -> range:
        """Indices of the timed ops: all but the cold op, unless it ran alone."""
        return range(1, len(self.outcomes)) if len(self.outcomes) > 1 else range(1)

    @property
    def window_times(self) -> list[float]:
        return [self.outcomes[i].wall_s for i in self.window]

    @property
    def p50(self) -> float:
        return statistics.median(self.window_times)


def judge(workload, op, outcome, out_dir: Path, digests: dict) -> list[str]:
    """Errors of one op: a crash, a failed check, or a report whose bytes differ
    from an earlier op with the same argv (recorded in ``digests``)."""
    from workloads import report_digest

    if outcome.error:
        return [outcome.error]
    try:
        errors = workload.check(op, outcome.code, out_dir)
        digest = report_digest(out_dir)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable report: {exc!r}"]
    if digests.setdefault(op.argv, digest) != digest:
        errors.append("report differs from an earlier op with the same argv")
    return errors


def run_phase(workload, seconds: float, out_dir: Path, digests: dict, tracer=None) -> Phase:
    """Run the workload's op stream from its start for the cold op plus ``seconds``."""
    from workloads import execute

    phase = Phase()
    window_start = None
    for index, op in enumerate(workload.ops()):
        if tracer is not None:
            tracer.op = index
        outcome = execute(op, out_dir)
        phase.outcomes.append(outcome)
        phase.errors.append(judge(workload, op, outcome, out_dir, digests))
        now = time.perf_counter()
        if window_start is None:
            if outcome.wall_s >= seconds:
                break
            window_start = now
        elif now - window_start >= seconds:
            break
    return phase


def tail(times: list[float]) -> dict | None:
    """Highest listed percentile with at least TAIL_MIN_BEYOND samples above it."""
    ordered = sorted(times)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * len(ordered))
        if len(ordered) - rank >= TAIL_MIN_BEYOND:
            return {"percentile": pct, "value_s": ordered[rank - 1], "samples": len(ordered),
                    "beyond": len(ordered) - rank}
    return None


def probe_setup(args) -> list[float]:
    """Fresh-process time from spawn until the first op could run, per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        samples.append(elapsed)
    return samples


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_sha": git_sha(),
    }


def end_to_end_values(untraced: Phase, setup: list[float]) -> dict:
    times = untraced.window_times
    return {
        "setup_s": statistics.median(setup),
        # closed loop, one client: ops per second of op time, checks excluded
        "ops_per_s": len(times) / sum(times),
        "op_s_p50": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_values(names, untraced: Phase, traced: Phase, layers: dict) -> dict:
    values = {}
    for name in names:
        if name == "process.cpu_s":
            cpu = [untraced.outcomes[i].cpu_s for i in untraced.window]
            values[name] = sum(cpu) / len(cpu)
        elif name == "process.cold_op_s":
            values[name] = untraced.outcomes[0].wall_s
        elif name == "trace.overhead_s":
            values[name] = traced.p50 - untraced.p50
        else:
            layer, key = name.rsplit(".", 1)
            values[name] = layers.get(layer, {}).get(key, 0.0)
    return values


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and generate inputs, print 'ready' and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "squidcavity" / "cli.py").is_file():
        print(f"no squidcavity sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup = probe_setup(args) if args.trace == 0 else []
    out_dir = ROOT / ".perfbench_out" / str(os.getpid())
    digests: dict = {}
    traced = tracer = None
    try:
        untraced = run_phase(workload, args.seconds, out_dir, digests)
        if args.trace:
            from tracer import Tracer

            with Tracer() as tracer:
                traced = run_phase(workload, args.seconds, out_dir, digests, tracer)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    phases = {"untraced": untraced, "traced": traced} if traced else {"untraced": untraced}
    attempted = sum(len(phase.outcomes) for phase in phases.values())
    failures = [
        (label, i, " ".join(errors))
        for label, phase in phases.items()
        for i, errors in enumerate(phase.errors)
        if errors
    ]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "ops": len(untraced.outcomes),
        "window_ops": len(untraced.window),
        "cold_op_s": untraced.outcomes[0].wall_s,
        "op_s_tail": tail(untraced.window_times),
        "failed_ops_ratio": len(failures) / attempted,
        "failures": failures[:5],
        "setup_samples_s": setup,
        "provenance": provenance(),
    }
    if args.trace:
        window_ops = set(traced.window)
        layers = {
            name: {key: value / len(window_ops) for key, value in entry.items()}
            for name, entry in tracer.aggregate(window_ops).items()
        }
        detail["traced_ops"] = len(traced.outcomes)
        detail["absent"] = tracer.absent
        detail["layers_per_op"] = layers
        metric_specs = spec["per_layer"]
        values = per_layer_values([m["name"] for m in metric_specs], untraced, traced, layers)
    else:
        metric_specs = spec["end_to_end"]
        values = end_to_end_values(untraced, setup)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
