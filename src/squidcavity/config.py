"""Run configuration: JSON files with unit-suffixed keys, strict validation.

Every rate or duration key carries its unit in the name (``_per_s``, ``_hz``,
``_s``) because the operating point mixes Hz, microseconds, and dimensionless
quality factors; a silent unit slip is the likeliest way to get plausible but
wrong numbers.  Unknown keys are rejected with their full path rather than
ignored.  A number is checked by the dataclass it fills, through
``hilbert.check_number``, and an integer setting through
``hilbert.check_index``; each refuses a value of the wrong JSON type (a
boolean, a string, null, an array or an object is not a number), and the
refusal is named by the JSON key the value came from.  A section's keys
are the fields its dataclass's ``__init__`` takes, and the top-level keys
are ``RunConfig``'s other fields; ``_UNIT_KEYS`` names the four gate fields
whose keys carry a unit.  The parser reads through these keys and the
report echo is written from them.  Command-line flags override file
values, which override defaults: ``read_config`` returns a file's JSON
value, each flag is written into it at the key it names (``cli.FLAGS``),
and ``config_from_dict`` validates the result, so flags and files share
every check and every message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from decimal import Decimal
from pathlib import Path

from .hamiltonians import FeasibilityParams, exchange_norm_bound
from .hilbert import MAX_ARRAY_BYTES, SpaceLayout, check_index, check_number
from .protocols import MIN_CHAIN, GateParams

# sweep name -> the rate keyword of ``decoherence.noisy_gate`` it sets
SWEEP_PARAMETERS = {
    "k": "cavity_decay_per_s",
    "gamma_e": "gamma_e_per_s",
    "branch_ratio": "branch_ratio_e_to_0",
}

# the longest chain a run may ask for; the shortest is the physics' own
# (``protocols.MIN_CHAIN``)
MAX_CHAIN = 10

# default sweep: cavity decay from the base point up three decades
DEFAULT_SWEEP_VALUES = (5e4, 5e5, 5e6, 5e7)

# ``decoherence`` builds every sweep point before it scores any, and one
# built point holds about 25 kB (tracemalloc over 200 points at the
# default cutoff); rounded up to 32 KiB, the sweep length is capped so
# that the built points stay within the byte budget of one array
PREPARED_POINT_BYTES = 2**15
MAX_SWEEP_VALUES = MAX_ARRAY_BYTES // PREPARED_POINT_BYTES


class ConfigError(ValueError):
    """Invalid or unparseable run configuration."""


def _largest_array_bytes(n_qubits: int, fock_cutoff: int) -> int:
    """Bytes of the largest array a command builds at these sizes.

    That is the two-state array a ``cluster`` run holds its buffers in
    (``evolution.propagate``), two amplitudes per basis state of its
    layout, or the gate's exchange generator, a square matrix over the
    two-SQUID layout that ``decoherence`` builds and ``truth-table``
    propagates; complex entries take 16 bytes.
    """
    gate_dim = SpaceLayout(2, fock_cutoff).total_dim
    return 16 * max(2 * SpaceLayout(n_qubits, fock_cutoff).total_dim, gate_dim**2)


@dataclass(frozen=True)
class SweepSettings:
    parameter: str = "k"
    values: tuple = DEFAULT_SWEEP_VALUES

    def __post_init__(self):
        if not isinstance(self.parameter, str) or self.parameter not in SWEEP_PARAMETERS:
            raise ConfigError(
                f"sweep parameter must be one of {tuple(SWEEP_PARAMETERS)}, "
                f"got {self.parameter!r}"
            )
        if not isinstance(self.values, (list, tuple)):
            raise ConfigError(f"sweep values must be an array of numbers, got {self.values!r}")
        if not self.values:
            raise ConfigError("sweep values must be nonempty")
        if len(self.values) > MAX_SWEEP_VALUES:
            raise ConfigError(
                f"sweep has {len(self.values)} values, above the limit of {MAX_SWEEP_VALUES}"
            )
        bounds = (0, 1) if self.parameter == "branch_ratio" else (0,)
        values = tuple(
            float(check_number("sweep values", v, *bounds, error=ConfigError)) for v in self.values
        )
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class RunConfig:
    n_qubits: int = 4
    fock_cutoff: int = 2
    out_dir: str = "out"
    gate: GateParams = field(default_factory=GateParams)
    feasibility: FeasibilityParams = field(default_factory=FeasibilityParams)
    sweep: SweepSettings = field(default_factory=SweepSettings)

    def __post_init__(self):
        check_index("n_qubits", self.n_qubits, MIN_CHAIN, MAX_CHAIN, error=ConfigError)
        check_index("fock_cutoff", self.fock_cutoff, 1, error=ConfigError)
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")
        need = _largest_array_bytes(self.n_qubits, self.fock_cutoff)
        if need > MAX_ARRAY_BYTES:
            raise ConfigError(
                f"fock_cutoff = {self.fock_cutoff} with n_qubits = {self.n_qubits} needs "
                f"a {Decimal(need) / 2**20:.4g} MiB array, above the budget of "
                f"{MAX_ARRAY_BYTES / 2**20:g} MiB"
            )
        # the exchange generator at this cutoff, and its phase over the
        # cavity time, must stay in the float range
        norm = exchange_norm_bound(self.gate.omega_1, self.gate.omega_2, self.fock_cutoff)
        check_number("exchange_norm", norm, error=ConfigError)
        phase = norm * self.gate.resolved_cavity_time
        check_number("exchange_norm * cavity_time", phase, error=ConfigError)


# the gate fields whose JSON keys carry their unit; every other key is the
# name of the field it sets
_UNIT_KEYS = {
    "omega_1": "omega_1_per_s",
    "drive_rabi": "drive_rabi_per_s",
    "cavity_time": "cavity_time_s",
    "pulse_duration": "pulse_duration_s",
}
# section -> (JSON key -> field, the dataclass it fills), keys in field order
_SECTIONS = {
    name: ({_UNIT_KEYS.get(f.name, f.name): f.name for f in fields(cls)}, cls)
    for name, cls in (
        ("gate", GateParams),
        ("feasibility", FeasibilityParams),
        ("sweep", SweepSettings),
    )
}
_TOP_SCALARS = tuple(f.name for f in fields(RunConfig) if f.name not in _SECTIONS)


def _section(data: dict, name: str, key_map: dict, cls):
    raw = data.get(name, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be an object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(key_map))
    if unknown:
        raise ConfigError(f"unknown key(s) in section {name!r}: {', '.join(unknown)}")
    try:
        return cls(**{key_map[k]: v for k, v in raw.items()})
    except ConfigError:
        raise
    except ValueError as exc:
        message = str(exc)
        # a number's check names its field twice, before "must be" and after
        # "got"; name the JSON key the user wrote, and leave the value as it is
        for key, attr in key_map.items():
            if message.startswith(f"{attr} must be "):
                raise ConfigError(message.replace(attr, f"{name}.{key}", 2)) from exc
        raise ConfigError(f"section {name!r}: {message}") from exc


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(_TOP_SCALARS) - set(_SECTIONS))
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {', '.join(unknown)}")
    kwargs = {k: data[k] for k in _TOP_SCALARS if k in data}
    for name, (key_map, cls) in _SECTIONS.items():
        kwargs[name] = _section(data, name, key_map, cls)
    return RunConfig(**kwargs)


def read_config(path):
    """The JSON value a config file holds, for ``config_from_dict`` to validate."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        # ValueError: text that is not UTF-8, or a path holding a NUL
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a syntax error, an integer with more digits than Python converts,
        # or nesting deeper than the parser recurses
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


def config_to_dict(config: RunConfig) -> dict:
    """Inverse of ``config_from_dict``; suitable for a deterministic JSON echo."""
    data = {key: getattr(config, key) for key in _TOP_SCALARS}
    for name, (key_map, _) in _SECTIONS.items():
        section = getattr(config, name)
        data[name] = {key: getattr(section, attr) for key, attr in key_map.items()}
    return data
