import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from squidcavity import GateParams
from squidcavity.config import (
    MAX_SWEEP_VALUES,
    ConfigError,
    RunConfig,
    SweepSettings,
    config_from_dict,
    config_to_dict,
    load_config,
)


def test_defaults():
    config = RunConfig()
    assert config.n_qubits == 4
    assert config.fock_cutoff == 2
    assert config.sweep.parameter == "k"
    assert config.sweep.values == (5e4, 5e5, 5e6, 5e7)


def test_scalar_validation():
    with pytest.raises(ConfigError, match="n_qubits"):
        RunConfig(n_qubits=1)
    with pytest.raises(ConfigError, match="n_qubits"):
        RunConfig(n_qubits=11)
    # a float sneaking past the range check is still rejected
    with pytest.raises(ConfigError, match="integer"):
        RunConfig(n_qubits=4.5)
    with pytest.raises(ConfigError, match="fock_cutoff"):
        RunConfig(fock_cutoff=0)
    # memory budget: refused from the sizes alone, before anything is built
    with pytest.raises(ConfigError, match="budget"):
        RunConfig(fock_cutoff=10**9)
    with pytest.raises(ConfigError, match="budget"):
        RunConfig(n_qubits=10, fock_cutoff=17)


def test_sweep_validation():
    assert SweepSettings("branch_ratio", (0.0, 0.5, 1.0)).values == (0.0, 0.5, 1.0)
    with pytest.raises(ConfigError):
        SweepSettings("q_factor", (1.0,))
    with pytest.raises(ConfigError):
        SweepSettings("k", ())
    with pytest.raises(ConfigError):
        SweepSettings("k", (-1.0,))
    with pytest.raises(ConfigError):
        SweepSettings("branch_ratio", (1.5,))
    # an integer too large for a float is refused before it is converted
    for bad in (math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(ConfigError, match="finite"):
            SweepSettings("k", (5e4, bad))


def test_exchange_generator_must_stay_finite_at_the_cutoff():
    # each rate is finite, but the photon ladder scales it by sqrt(fock_cutoff)
    ladder = GateParams(omega_1=1.7e308, ratio=1e-150)
    with pytest.raises(ConfigError, match="exchange_norm must be finite"):
        RunConfig(gate=ladder)
    # and the generator's phase over the cavity time
    slow = GateParams(omega_1=1e300, ratio=1e-150, cavity_time=1.5e8)
    with pytest.raises(ConfigError, match="exchange_norm \\* cavity_time must be finite"):
        RunConfig(gate=slow)
    assert RunConfig(gate=GateParams(omega_1=1e300, ratio=1e-150)).gate.omega_1 == 1e300


def test_from_dict_minimal_and_full():
    assert config_from_dict({}) == RunConfig()
    data = {
        "n_qubits": 6,
        "fock_cutoff": 2,
        "out_dir": "results",
        "gate": {"omega_1_per_s": 2e8, "ratio": 1.7320508075688772},
        "feasibility": {"q_factor": 2e6},
        "sweep": {"parameter": "gamma_e", "values": [1e5, 1e6]},
    }
    config = config_from_dict(data)
    assert config.n_qubits == 6
    assert config.gate.omega_1 == 2e8
    assert config.gate.omega_2 == pytest.approx(2e8 * math.sqrt(3))
    assert config.feasibility.q_factor == 2e6
    assert config.sweep.values == (1e5, 1e6)


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="top-level"):
        config_from_dict({"n_qubit": 4})
    with pytest.raises(ConfigError, match="gate"):
        config_from_dict({"gate": {"omega_1": 2e8}})
    with pytest.raises(ConfigError, match="feasibility"):
        config_from_dict({"feasibility": {"q": 1e6}})
    with pytest.raises(ConfigError, match="object"):
        config_from_dict({"gate": [1, 2]})
    with pytest.raises(ConfigError, match="object"):
        config_from_dict([1, 2])
    # the RK4 step count is no longer a setting
    with pytest.raises(ConfigError, match="top-level"):
        config_from_dict({"lindblad": {"steps_per_segment": 800}})
    # nothing is random and the subcommand names the protocol; the gate's
    # omega_1_per_s and drive_rabi_per_s are the one coupling and drive rate
    for data, key in (
        ({"seed": 0}, "seed"),
        ({"protocol": "qcpg"}, "protocol"),
        ({"feasibility": {"g_per_s": 1.8e8}}, "g_per_s"),
        ({"feasibility": {"omega_drive_per_s": 8.5e7}}, "omega_drive_per_s"),
    ):
        with pytest.raises(ConfigError, match=f"unknown .*: {key}$"):
            config_from_dict(data)


def test_from_dict_wraps_value_errors():
    with pytest.raises(ConfigError, match="gate"):
        config_from_dict({"gate": {"omega_1_per_s": -1.0}})
    with pytest.raises(ConfigError, match="feasibility"):
        config_from_dict({"feasibility": {"q_factor": 0.0}})
    with pytest.raises(ConfigError, match="gate"):
        config_from_dict({"gate": {"ratio": "fast"}})
    # finite settings whose derived cavity decay rate k = omega_c / Q
    # overflows to inf or underflows to 0
    for feasibility in (
        {"q_factor": 1e-300},
        {"q_factor": 1e300, "omega_c_hz": 1e-300},
    ):
        with pytest.raises(ConfigError, match="omega_c_hz / q_factor must be finite and > 0"):
            config_from_dict({"feasibility": feasibility})


def test_from_dict_rejects_non_finite_values():
    data = json.loads('{"gate": {"omega_1_per_s": NaN}}')
    with pytest.raises(ConfigError, match="gate.omega_1_per_s must be finite"):
        config_from_dict(data)
    with pytest.raises(ConfigError, match="feasibility.gamma_e_per_s must be finite"):
        config_from_dict({"feasibility": {"gamma_e_per_s": math.inf}})
    with pytest.raises(ConfigError, match="sweep values must be finite"):
        config_from_dict({"sweep": {"values": [5e4, math.nan]}})


def test_round_trip_through_dict():
    config = config_from_dict({"n_qubits": 3, "gate": {"cavity_time_s": 1.7e-8}})
    echoed = config_to_dict(config)
    assert config_from_dict(echoed) == config
    # the echo carries explicit unit-suffixed keys
    assert echoed["gate"]["cavity_time_s"] == 1.7e-8
    assert "omega_1_per_s" in echoed["gate"]
    assert "gamma_e_per_s" in echoed["feasibility"]


def test_round_trip_sets_every_key():
    data = {
        "n_qubits": 3,
        "fock_cutoff": 3,
        "out_dir": "results",
        "gate": {
            "omega_1_per_s": 2e8,
            "ratio": 1.7,
            "drive_rabi_per_s": 9e7,
            "cavity_time_s": 1.6e-8,
            "pulse_duration_s": 1.7e-8,
        },
        "feasibility": {
            "q_factor": 2e6,
            "omega_c_hz": 6e10,
            "gamma_e_per_s": 3e5,
            "branch_ratio_e_to_0": 0.25,
        },
        "sweep": {"parameter": "gamma_e", "values": [1e5, 1e6]},
    }
    config = config_from_dict(data)
    echoed = config_to_dict(config)
    assert config_from_dict(echoed) == config
    # every key is set away from its default, and the echo carries each back
    assert json.loads(json.dumps(echoed)) == data
    assert config != RunConfig()


def _key_tree(data: dict) -> dict:
    return {k: _key_tree(v) if isinstance(v, dict) else None for k, v in data.items()}


def test_readme_config_block_is_the_schema():
    # the JSON block under README's "Config file" heading lists every key
    # at its default; a key added to or removed from the schema shows here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config file", 1)[1]
    block = section.split("```json", 1)[1].split("```", 1)[0]
    data = json.loads(block)
    assert config_from_dict(data) == RunConfig()
    assert _key_tree(config_to_dict(RunConfig())) == _key_tree(data)


@pytest.mark.parametrize(
    "data, message",
    [
        # a string is not an array: it used to be iterated into k = 5, 5
        pytest.param({"sweep": {"values": "55"}}, "array of numbers", id="values-string"),
        pytest.param({"sweep": {"values": ["5e4"]}}, "array of numbers", id="values-of-strings"),
        pytest.param({"sweep": {"values": [5e4, True]}}, "array of numbers", id="values-bool"),
        # a boolean is not a number, although Python counts it as the integer 1
        pytest.param({"fock_cutoff": True}, "fock_cutoff must be an integer", id="cutoff-bool"),
        pytest.param({"n_qubits": False}, "n_qubits must be an integer", id="n-bool"),
        pytest.param(
            {"gate": {"ratio": True}}, "gate.ratio must not be a boolean", id="gate-bool"
        ),
        pytest.param(
            {"feasibility": {"q_factor": True}},
            "feasibility.q_factor must not be a boolean",
            id="feasibility-bool",
        ),
        pytest.param({"out_dir": 5}, "out_dir must be a string", id="out_dir-number"),
    ],
)
def test_wrong_json_types_are_refused(data, message):
    with pytest.raises(ConfigError, match=message):
        config_from_dict(data)


def test_load_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"fock_cutoff": 3, "out_dir": "x"}))
    config = load_config(path)
    assert config.fock_cutoff == 3
    assert config.out_dir == "x"
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        load_config(bad)


def test_replace_revalidates_fields():
    # the command line applies its flags with dataclasses.replace
    config = RunConfig()
    updated = replace(config, n_qubits=8)
    assert updated.n_qubits == 8
    assert config.n_qubits == 4
    with pytest.raises(ConfigError):
        replace(config, n_qubits=1)


def test_sweep_length_is_capped():
    assert len(SweepSettings("k", (5e4,) * MAX_SWEEP_VALUES).values) == MAX_SWEEP_VALUES
    too_many = [5e4] * (MAX_SWEEP_VALUES + 1)
    with pytest.raises(ConfigError, match=f"{MAX_SWEEP_VALUES + 1} values"):
        SweepSettings("k", too_many)
    with pytest.raises(ConfigError, match="limit"):
        config_from_dict({"sweep": {"values": too_many}})
