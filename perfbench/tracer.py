"""Per-layer tracer that wraps the program's functions from outside.

Every public function of the traced modules, plus the private hot-path
functions named in ``ALIASES``, is replaced by a timing wrapper at every
binding site where callers look it up: the defining module and any
``squidcavity`` module that imported it by name (``cli.evolve_pure`` and
``verification.evolve_pure`` are the same function bound twice).  No source
file of the program changes.

Spans nest per thread.  A span opened on a thread with no open span of its
own (a worker of the CLI's sweep pool) is parented to the innermost span open
on the main thread, which waits for it, so the worker's time is subtracted
from that span's self time.  Self time
is a span's duration minus the union of its children's intervals, which
counts concurrently running children once.

A function named in ``ALIASES`` that the program no longer defines is listed
in ``absent`` and reports zero, so the benchmark survives functions being
deleted or renamed.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "squidcavity"
MODULES = ("cli", "protocols", "hamiltonians", "evolution", "hilbert", "verification", "decoherence")

# layer name -> functions (module, attribute) aggregated under it
ALIASES = {
    "evolution.lindblad": (("evolution", "_rk4_lindblad"),),
    "evolution.step_guard": (("evolution", "_check_step_size"),),
    "hamiltonians.build": (
        ("hamiltonians", "drive_hamiltonian"),
        ("hamiltonians", "cavity_coupling_hamiltonian"),
        ("hamiltonians", "collapse_operators_from_rates"),
        ("hamiltonians", "collapse_operators"),
    ),
}


def _lindblad_counts(args: dict) -> dict:
    rho, h_full, l_ops = args["rho"], args["h_full"], args["l_ops"]
    steps = max(1, math.ceil(args["t_total"] / args["dt"]))
    d = h_full.shape[0]
    batch = rho.size // (d * d)
    # each of the 4 RK4 stages does drift@rho, rho@drift^dag and L@rho@L^dag
    # per jump operator: complex d x d matmuls at 8 real flops per
    # multiply-add; elementwise adds are not counted
    flops = steps * 4 * batch * (2 + 2 * len(l_ops)) * 8 * d**3
    return {"steps": steps, "flops_computed": flops}


def _apply_local_counts(args: dict) -> dict:
    # state read, result written, operator read; temporaries not counted
    state_bytes = args["state"].amplitudes.nbytes
    return {"bytes_computed": 2 * state_bytes + args["op"].matrix.nbytes}


# layer name -> function of the bound call arguments returning counters
COUNTERS = {
    "evolution.lindblad": _lindblad_counts,
    "hilbert.apply_local": _apply_local_counts,
}


class _Span:
    __slots__ = ("name", "start", "children")

    def __init__(self, name: str):
        self.name = name
        self.children: list[tuple[float, float]] = []
        self.start = time.perf_counter()


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.aggregate()`` afterwards."""

    def __init__(self):
        # finished spans: (name, op, thread id, duration, self time, counters)
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.op: int | None = None
        self._main_thread = threading.get_ident()
        self._main_stack: list[_Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        signature = inspect.signature(fn)
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            if stack and parent.name == name:
                return fn(*args, **kwargs)  # count a layer once when it re-enters itself
            span = _Span(name)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.children.append((span.start, end))
                duration = end - span.start
                self_s = duration - _union_length(span.children, span.start, end)
                counts = None
                if counter is not None:
                    try:
                        counts = counter(signature.bind(*args, **kwargs).arguments)
                    except (KeyError, AttributeError, TypeError):
                        # the program changed the signature the counter reads
                        if f"{name}.counters" not in tracer.absent:
                            tracer.absent.append(f"{name}.counters")
                tracer.spans.append(
                    (name, tracer.op, threading.get_ident(), duration, self_s, counts)
                )

        traced.__wrapped__ = fn
        return traced

    def _module(self, short: str):
        try:
            return importlib.import_module(f"{PACKAGE}.{short}")
        except ModuleNotFoundError:
            if short not in self.absent:
                self.absent.append(short)
            return None

    def _targets(self) -> dict:
        """Original function object -> layer name."""
        targets = {}
        for short in MODULES:
            module = self._module(short)
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    targets[obj] = f"{short}.{attr}"
        for layer, members in ALIASES.items():
            for short, attr in members:
                fn = getattr(self._module(short), attr, None)
                if inspect.isfunction(fn):
                    targets[fn] = layer
                else:
                    self.absent.append(f"{short}.{attr}")
        return targets

    def __enter__(self) -> "Tracer":
        targets = self._targets()
        wrappers = {fn: self._wrap(layer, fn) for fn, layer in targets.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def aggregate(self, ops) -> dict:
        """Layer name -> {"calls", "total_s", "self_s", counters...} summed over
        the spans of the given op indices.

        Times are summed over threads, so a layer running on two pool
        threads at once can report more seconds than the op's wall time.
        """
        agg: dict = defaultdict(lambda: defaultdict(float))
        for name, op, _tid, duration, self_s, counts in self.spans:
            if op not in ops:
                continue
            entry = agg[name]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += self_s
            for key, value in (counts or {}).items():
                entry[key] += value
        return agg
