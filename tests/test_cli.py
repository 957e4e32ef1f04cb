import argparse
import contextlib
import json
import math
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from squidcavity import GateParams, cli, decoherence, evolution, protocols, verification
from squidcavity.cli import main
from squidcavity.config import (
    _SECTIONS,
    _TOP_SCALARS,
    MAX_SWEEP_VALUES,
    RunConfig,
    config_to_dict,
)


def _read_json(path):
    return json.loads(path.read_text())


def test_truth_table_default_passes(tmp_path, capsys):
    assert main(["truth-table", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    # each phase of the run is timed on stdout
    assert "wall time:" in out
    assert "propagate" in out and "report" in out
    payload = _read_json(tmp_path / "truth_table.json")
    assert payload["passed"] is True
    assert payload["phases_rad"] == pytest.approx([0.0, 0.0, 0.0, math.pi], abs=1e-9)
    assert payload["max_entry_error"] <= 1e-9
    assert payload["leakage"] <= 1e-10
    # the echo holds only the values the program reads
    assert set(payload["config"]) == {
        "n_qubits", "fock_cutoff", "out_dir", "gate", "feasibility", "sweep"
    }
    schedule = _read_json(tmp_path / "schedule.json")
    assert [seg["kind"] for seg in schedule] == ["drive", "cavity", "drive"]


@pytest.mark.parametrize(
    "argv, report",
    [
        (["truth-table"], "truth_table.json"),
        (["cluster", "--n", "3"], "cluster.json"),
        (["feasibility"], "feasibility.json"),
        (["decoherence", "--values", "5e4"], "decoherence.json"),
    ],
    ids=["truth-table", "cluster", "feasibility", "decoherence"],
)
def test_every_command_echoes_its_config_times_its_phases_and_ends_with_its_verdict(
    tmp_path, capsys, argv, report
):
    code = main([*argv, "--out", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    # every JSON object written carries the config echo; schedule.json is a list
    assert "config" in _read_json(tmp_path / report)
    for path in tmp_path.glob("*.json"):
        payload = _read_json(path)
        assert isinstance(payload, list) or "config" in payload, path.name
    # the wall time, then one line timing each phase, the writes included
    timed = [i for i, line in enumerate(lines) if line.startswith("wall time:")]
    assert len(timed) == 1
    assert "report" in lines[timed[0] + 1]
    # each phase's minor page faults beside its time, where they are counted
    entry = r"[a-z]+ \d+\.\d{4} s" + (r" \(\d+ faults\)" if cli.resource else "")
    assert re.fullmatch(rf"  {entry}(, {entry})*", lines[timed[0] + 1])
    assert lines[-1] == ("PASS" if code == 0 else "FAIL")
    assert code in (0, 1)


def test_truth_table_outputs_are_byte_identical(tmp_path):
    argv = ["truth-table", "--out", str(tmp_path)]
    assert main(argv) == 0
    first = {
        name: (tmp_path / name).read_bytes() for name in ("truth_table.json", "schedule.json")
    }
    assert main(argv) == 0
    for name, content in first.items():
        assert (tmp_path / name).read_bytes() == content


@pytest.mark.parametrize(
    "argv, fixture",
    [
        (["truth-table"], "schedule_truth_table.json"),
        (["cluster", "--n", "3"], "schedule_cluster_3.json"),
    ],
)
def test_schedule_json_matches_pinned_bytes(tmp_path, argv, fixture):
    # the rows each segment writes are pinned across versions, not only
    # between two runs of the same version
    assert main([*argv, "--out", str(tmp_path)]) == 0
    pinned = (Path(__file__).parent / "data" / fixture).read_bytes()
    assert (tmp_path / "schedule.json").read_bytes() == pinned


def _report_without_config(path):
    payload = _read_json(path)
    # the config echo holds out_dir, which differs between runs
    del payload["config"]
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


@pytest.mark.parametrize(
    "argv, tag",
    [
        (["--n", "3"], "3"),
        (["--n", "10"], "10"),
        (["--n", "4", "--fock-cutoff", "1"], "4_cutoff_1"),
    ],
)
def test_cluster_reports_match_pinned_bytes(tmp_path, capsys, argv, tag):
    # every fidelity and stabilizer bit is pinned across versions
    assert main(["cluster", *argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    data = Path(__file__).parent / "data"
    got = _report_without_config(tmp_path / "cluster.json")
    assert got == (data / f"cluster_{tag}.json").read_text()
    pinned = (data / f"stabilizers_{tag}.csv").read_bytes()
    assert (tmp_path / "stabilizers.csv").read_bytes() == pinned


@pytest.mark.parametrize(
    "argv, tag, code",
    [
        ([], "default", 0),
        # off the gate conditions: every entry and the leakage are non-trivial
        (["--ratio", "1.5", "--cavity-time-scale", "2.3"], "ratio_1.5", 1),
    ],
)
def test_truth_table_reports_match_pinned_bytes(tmp_path, capsys, argv, tag, code):
    # a gate off its conditions warns when its schedule is built
    detuned = pytest.warns(UserWarning, match="gate conditions violated")
    with detuned if code else contextlib.nullcontext():
        assert main(["truth-table", *argv, "--out", str(tmp_path)]) == code
    capsys.readouterr()
    pinned = (Path(__file__).parent / "data" / f"truth_table_{tag}.json").read_text()
    assert _report_without_config(tmp_path / "truth_table.json") == pinned


@pytest.mark.parametrize(
    "parameter, values",
    # 1/4/1 sub-steps per segment at the base rates, 3/5/3 at the top gamma_e
    [("gamma_e", "4e5,3.08e8"), ("k", "5e4,5.03e7"), ("branch_ratio", "0.5,0.7")],
)
def test_decoherence_reports_match_pinned_bytes(tmp_path, capsys, parameter, values):
    argv = ["--sweep", parameter, "--values", values]
    _assert_decoherence_pins(tmp_path, capsys, argv, parameter)


def test_default_decoherence_reports_match_pinned_bytes(tmp_path, capsys):
    # the default sweep: cavity decay k at four points
    _assert_decoherence_pins(tmp_path, capsys, [], "default")


def _assert_decoherence_pins(tmp_path, capsys, argv, tag):
    # the scores are pinned to the last bit across versions; only the
    # runtime column may vary
    assert main(["decoherence", *argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    data = Path(__file__).parent / "data"
    rows = _read_json(tmp_path / "decoherence.json")["rows"]
    got = json.dumps(rows, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert got == (data / f"decoherence_{tag}_rows.json").read_text()
    lines = (tmp_path / "decoherence.csv").read_text().splitlines()
    got = "".join(line.rsplit(",", 1)[0] + "\n" for line in lines)
    assert got == (data / f"decoherence_{tag}.csv").read_text()


def test_feasibility_report_matches_pinned_bytes(tmp_path, capsys):
    assert main(["feasibility", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    pinned = (Path(__file__).parent / "data" / "feasibility.json").read_text()
    assert _report_without_config(tmp_path / "feasibility.json") == pinned


def test_truth_table_wrong_ratio_fails(tmp_path, capsys):
    with pytest.warns(UserWarning):
        code = main(["truth-table", "--ratio", "1.0", "--out", str(tmp_path)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out
    payload = _read_json(tmp_path / "truth_table.json")
    assert payload["passed"] is False
    assert payload["leakage"] > 0.1


def test_truth_table_doubled_window_loses_phase(tmp_path):
    # doubling the cavity time completes a full 2*pi of cos(omega_1 t),
    # removing the conditional sign instead of applying it twice
    with pytest.warns(UserWarning):
        code = main(["truth-table", "--cavity-time-scale", "2.0", "--out", str(tmp_path)])
    assert code == 1
    payload = _read_json(tmp_path / "truth_table.json")
    assert payload["phases_rad"] == pytest.approx([0.0, 0.0, 0.0, 0.0], abs=1e-6)
    assert payload["max_entry_error"] > 1.0


def test_cluster_chain_passes(tmp_path, capsys):
    assert main(["cluster", "--n", "4", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    # each phase of the run is timed on stdout
    assert "wall time:" in out
    assert "evolve" in out and "oracle" in out and "stabilizers" in out
    payload = _read_json(tmp_path / "cluster.json")
    assert payload["passed"] is True
    assert payload["n_qubits"] == 4
    assert payload["oracle_fidelity"] >= 1 - 1e-9
    assert payload["min_stabilizer_expectation"] >= 1 - 1e-9
    assert payload["cavity_vacuum_population"] >= 1 - 1e-10
    lines = (tmp_path / "stabilizers.csv").read_text().splitlines()
    assert lines[0] == "generator,expectation"
    assert len(lines) == 5


def test_cluster_rejects_out_of_range_sizes(tmp_path, capsys):
    assert main(["cluster", "--n", "1", "--out", str(tmp_path)]) == 2
    assert main(["cluster", "--n", "12", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert not (tmp_path / "cluster.json").exists()


def test_feasibility_reports_anchors(tmp_path, capsys):
    assert main(["feasibility", "--out", str(tmp_path)]) == 0
    assert "PASS" in capsys.readouterr().out
    payload = _read_json(tmp_path / "feasibility.json")
    assert payload["passed"] is True
    assert all(payload["anchors_matched"].values())
    assert payload["cavity_lifetime_s"] == pytest.approx(2e-5)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "config",
    [{"feasibility": {"gamma_e_per_s": 0}}, {"gate": {"omega_1_per_s": 1e200}}],
)
def test_reports_parse_as_strict_json(tmp_path, capsys, config):
    # both points have infinite cooperativity, which feasibility.json writes as null
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    for command in ("truth-table", "cluster", "feasibility", "decoherence"):
        # feasibility exits 1: an infinite cooperativity misses its anchor
        assert main([command, "--config", str(config_path), "--out", str(out)]) in (0, 1)
    reports = sorted(out.glob("*.json"))
    assert [p.name for p in reports] == [
        "cluster.json", "decoherence.json", "feasibility.json", "schedule.json", "truth_table.json"
    ]
    for path in reports:
        json.loads(path.read_text(), parse_constant=_refuse_constant)
    assert _read_json(out / "feasibility.json")["cooperativity"] is None
    capsys.readouterr()


def test_feasibility_writes_every_infinite_value_as_null(tmp_path, capsys):
    # omega_1 * t_c = 1 is a legal phase, but t_c * k and t_c * gamma_e overflow
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"gate": {"cavity_time_s": 1e305, "omega_1_per_s": 1e-305}}))
    assert main(["feasibility", "--config", str(config_path), "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "feasibility.json").read_text(), parse_constant=_refuse_constant)
    assert report["exchange_per_cavity_decay"] is None
    assert report["exchange_per_e_decay"] is None
    assert report["exchange_window_s"] == 1e305
    capsys.readouterr()


def test_feasibility_and_decoherence_read_one_gate(tmp_path, capsys):
    # omega_1 is set once, in the gate; both commands see the same gate
    config_path = tmp_path / "fast.json"
    config_path.write_text(json.dumps({"gate": {"omega_1_per_s": 3.6e8}}))
    out = tmp_path / "out"
    assert main(["feasibility", "--config", str(config_path), "--out", str(out)]) == 1
    assert "anchor exchange_window_s: MISMATCH" in capsys.readouterr().out
    report = _read_json(out / "feasibility.json")
    assert report["exchange_window_s"] == math.pi / 3.6e8
    assert report["anchors_matched"]["exchange_window_s"] is False
    argv = ["decoherence", "--config", str(config_path), "--values", "5e4", "--out", str(out)]
    assert main(argv) == 0
    row = _read_json(out / "decoherence.json")["rows"][0]
    assert row["gate_duration_s"] == pytest.approx(
        report["exchange_window_s"] + 2 * report["pulse_window_s"], rel=1e-15
    )
    capsys.readouterr()


def test_decoherence_rows_and_determinism(tmp_path, capsys):
    code = main(["decoherence", "--values", "5e4,5e4", "--out", str(tmp_path)])
    assert code == 0
    # phase timings go to stdout only
    out = capsys.readouterr().out
    assert "wall time:" in out
    assert "build" in out and "score" in out and "report" in out
    lines = (tmp_path / "decoherence.csv").read_text().splitlines()
    assert lines[0] == (
        "parameter,value,average_fidelity,process_fidelity,"
        "trace_defect,min_eigenvalue,runtime_s"
    )
    assert len(lines) == 3
    # identical inputs give identical physics; only the runtime column may vary
    assert lines[1].rsplit(",", 1)[0] == lines[2].rsplit(",", 1)[0]
    payload = _read_json(tmp_path / "decoherence.json")
    assert payload["parameter"] == "k"
    assert payload["rows"][0] == payload["rows"][1]
    assert payload["rows"][0]["sane"] is True
    assert 0.98 <= payload["rows"][0]["average_fidelity"] <= 1 - 1e-4
    assert "lindblad" not in payload["config"]
    assert set(payload) == {"config", "parameter", "rows", "passed"}


def test_decoherence_branch_ratio_sweep(tmp_path):
    # the sweep is validated against its own values, not the default k values
    argv = ["decoherence", "--sweep", "branch_ratio", "--values", "0.5,0.7"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    payload = _read_json(tmp_path / "decoherence.json")
    assert payload["parameter"] == "branch_ratio"
    assert [row["value"] for row in payload["rows"]] == [0.5, 0.7]


def test_decoherence_refuses_runaway_work(tmp_path, capsys):
    assert main(["decoherence", "--values", "5e4,1e15", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "k = 1e+15" in err and "sub-steps" in err
    # refused before any point ran
    assert not (tmp_path / "decoherence.csv").exists()


@pytest.mark.parametrize(
    "argv, config",
    [
        (["--sweep", "gamma_e", "--values", "1.7e308"], None),
        (["--sweep", "k", "--values", "1.7e308"], None),
        ([], {"gate": {"drive_rabi_per_s": 1.7e308}}),
        ([], {"feasibility": {"gamma_e_per_s": 1.7e308}}),
        # a finite generator whose Taylor products would leave the float range
        pytest.param(
            ["--values", "0"],
            {"gate": {"omega_1_per_s": 5e307, "ratio": 1e-150}},
            marks=pytest.mark.filterwarnings("ignore:gate conditions violated:UserWarning"),
        ),
        pytest.param(
            [],
            {"gate": {"cavity_time_s": 1e305, "omega_1_per_s": 1e-305}},
            # this gate also misses its phase conditions, and says so
            marks=pytest.mark.filterwarnings("ignore:gate conditions violated:UserWarning"),
        ),
    ],
    ids=["gamma_e", "k", "drive_rabi", "config_gamma_e", "taylor_products", "cavity_time"],
)
def test_decoherence_refuses_overflowing_work(tmp_path, capsys, argv, config):
    # finite settings whose generator or sub-step count overflows used to
    # die in the sub-step sizing with a traceback
    if config is not None:
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(config_path)]
    out = tmp_path / "out"
    assert main(["decoherence", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "sub-steps" in err
    # the overflow is the refusal's business, not a numerical fault to report
    assert "RuntimeWarning" not in err
    assert not (out / "decoherence.csv").exists()


@pytest.mark.filterwarnings("ignore:gate conditions violated:UserWarning")
def test_decoherence_scores_a_large_generator_within_the_float_range(tmp_path, capsys):
    # the exchange generator is near 1e306, and its Taylor products stay finite
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"gate": {"omega_1_per_s": 1e306, "ratio": 1e-150}}))
    argv = ["decoherence", "--config", str(config_path), "--values", "0"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert _read_json(tmp_path / "out" / "decoherence.json")["rows"][0]["sane"] is True
    capsys.readouterr()


@pytest.mark.parametrize("route", ["values", "config"])
def test_decoherence_refuses_an_oversized_sweep(tmp_path, capsys, monkeypatch, route):
    built = []
    monkeypatch.setattr(cli, "noisy_gate", lambda *args, **kwargs: built.append(1))
    values = [5e4] * (MAX_SWEEP_VALUES + 1)
    if route == "values":
        argv = ["--values", ",".join(map(repr, values))]
    else:
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"sweep": {"values": values}}))
        argv = ["--config", str(config_path)]
    out = tmp_path / "out"
    assert main(["decoherence", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and f"limit of {MAX_SWEEP_VALUES}" in err
    assert built == []
    assert not out.exists()


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` for the test; the returned list grows by one per call."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_decoherence_builds_each_point_once(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, decoherence, "contract")
    assert main(["decoherence", "--values", "5e4,5e5", "--out", str(tmp_path)]) == 0
    # three segment Hamiltonians and five collapse operators per point
    assert len(calls) == 2 * 8


def test_each_distinct_segment_builds_one_propagator(tmp_path, monkeypatch):
    built = _count_calls(monkeypatch, evolution, "propagator")
    applied = _count_calls(monkeypatch, evolution, "contract")
    # the four computational inputs share each of the gate's three segments
    assert main(["truth-table", "--out", str(tmp_path)]) == 0
    assert (len(built), len(applied)) == (3, 3)
    # ten superposition pulses, then nine gates of three segments each; the
    # chain repeats four generators, and every segment is still applied
    built.clear()
    applied.clear()
    assert main(["cluster", "--n", "10", "--out", str(tmp_path)]) == 0
    assert (len(built), len(applied)) == (4, 37)


def test_cluster_chain_builds_each_propagator_once(tmp_path, monkeypatch):
    # the segments call the builders through protocols' own names
    drives = _count_calls(monkeypatch, protocols, "drive_hamiltonian")
    exchanges = _count_calls(monkeypatch, protocols, "cavity_coupling_hamiltonian")
    built = _count_calls(monkeypatch, evolution, "propagator")
    applied = _count_calls(monkeypatch, evolution, "contract")
    assert main(["cluster", "--n", "10", "--out", str(tmp_path)]) == 0
    # every segment builds its generator: ten superposition pulses, and two
    # pulses and one exchange per gate
    assert (len(drives), len(exchanges)) == (10 + 2 * 9, 9)
    # the superposition pulse, the gate's two pulses and its exchange, each
    # one propagator keyed on its generator's bits
    assert (len(built), len(applied)) == (4, 37)


def test_oversized_cutoff_is_refused_before_allocating(tmp_path, capsys):
    for command in ("cluster", "decoherence"):
        argv = [command, "--fock-cutoff", "1000000000", "--out", str(tmp_path)]
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("configuration error") == 2
    assert err.count("budget") == 2
    assert not list(tmp_path.iterdir())


def test_decoherence_rejects_non_finite_values(tmp_path, capsys):
    for bad in ("inf", "nan", "5e4,-inf"):
        assert main(["decoherence", f"--values={bad}", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("sweep values must be finite") == 3
    assert not (tmp_path / "decoherence.csv").exists()


def test_decoherence_rejects_bad_values(tmp_path, capsys):
    assert main(["decoherence", "--values", "5e4,oops", "--out", str(tmp_path)]) == 2
    assert "comma-separated" in capsys.readouterr().err
    # the configured k values (5e4 and up) are no branching ratios
    assert main(["decoherence", "--sweep", "branch_ratio", "--out", str(tmp_path)]) == 2
    assert "branch_ratio needs --values; configured sweep values" in capsys.readouterr().err


def test_non_finite_config_value_names_its_key(tmp_path, capsys):
    config_path = tmp_path / "nan.json"
    config_path.write_text('{"gate": {"omega_1_per_s": NaN}}')
    assert main(["truth-table", "--config", str(config_path), "--out", str(tmp_path)]) == 2
    assert "gate.omega_1_per_s must be finite" in capsys.readouterr().err
    assert main(["truth-table", "--ratio", "inf", "--out", str(tmp_path)]) == 2
    assert "ratio must be finite" in capsys.readouterr().err
    # a finite ratio whose coupling omega_2 = ratio * omega_1 overflows
    assert main(["truth-table", "--ratio", "1e300", "--out", str(tmp_path)]) == 2
    assert "omega_2 must be finite" in capsys.readouterr().err
    assert not (tmp_path / "truth_table.json").exists()


def test_overflowing_gate_phases_are_configuration_errors(tmp_path, capsys):
    # finite settings whose products overflow used to die inside the numerics
    out = tmp_path / "out"
    for gate, message in (
        ({"ratio": 1e10, "cavity_time_s": 1e300}, "omega_1 * cavity_time must be finite"),
        ({"drive_rabi_per_s": 1e10, "pulse_duration_s": 1e300}, "drive_rabi * pulse_duration must be finite"),
    ):
        config_path = tmp_path / "gate.json"
        config_path.write_text(json.dumps({"gate": gate}))
        assert main(["truth-table", "--config", str(config_path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
    assert not out.exists()


HUGE = 10**400  # a JSON integer no float can hold


@pytest.mark.parametrize(
    "command, config, flags, message",
    [
        ("truth-table", {"gate": {"omega_1_per_s": HUGE}}, [], "gate.omega_1_per_s"),
        ("truth-table", {"gate": {"ratio": HUGE}}, [], "gate.ratio"),
        ("feasibility", {"feasibility": {"q_factor": HUGE}}, [], "feasibility.q_factor"),
        # SweepSettings refuses the value itself, before converting it
        ("decoherence", {"sweep": {"values": [5e4, HUGE]}}, [], "sweep values must be finite"),
        ("cluster", {"fock_cutoff": HUGE}, [], "budget"),
        ("cluster", {}, ["--fock-cutoff", str(HUGE)], "budget"),
    ],
    ids=["omega_1", "ratio", "q_factor", "sweep_values", "config_cutoff", "flag_cutoff"],
)
def test_integers_too_large_for_a_float_are_configuration_errors(
    tmp_path, capsys, command, config, flags, message
):
    # these used to die with an OverflowError traceback
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = [command, "--config", str(config_path), *flags, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    assert not out.exists()


def test_unreadable_config_text_is_a_configuration_error(tmp_path, capsys):
    out = tmp_path / "out"
    not_utf8 = tmp_path / "bad.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    # more digits than Python converts to an integer
    too_long = tmp_path / "long.json"
    too_long.write_text('{"fock_cutoff": 1' + "0" * 5000 + "}")
    # nested deeper than the parser recurses: this used to exit 3 with a
    # RecursionError traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    # a config path holding a NUL used to exit 3 with a ValueError traceback
    for path in (not_utf8, too_long, deep, f"{tmp_path}/a\0b.json"):
        assert main(["feasibility", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("configuration error: ") == 4
    assert err.count("cannot read config file") == 2
    assert err.count("not valid JSON") == 2 and "recursion" in err
    assert "Traceback" not in err and "internal error" not in err
    assert not out.exists()


def test_internal_faults_are_not_reported_as_configuration_errors(tmp_path, monkeypatch, capsys):
    # a fault in the program exits 3 with its traceback: not 2, a fault in
    # the input, and not 1, a failed physics check
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "feasibility_report", broken)
    assert main(["feasibility", "--out", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert err.startswith("internal error:\nTraceback (most recent call last):\n")
    assert err.endswith("ValueError: internal fault\n")
    assert "configuration error" not in err and "PASS" not in out and "FAIL" not in out


def test_a_type_error_building_a_config_section_is_an_internal_fault(
    tmp_path, monkeypatch, capsys
):
    # every wrong JSON type is refused by name, so a TypeError there is the
    # program's own
    def broken(self):
        raise TypeError("internal fault")

    monkeypatch.setattr(GateParams, "__post_init__", broken)
    assert main(["truth-table", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and err.endswith("TypeError: internal fault\n")
    assert not any(tmp_path.iterdir())


def test_a_report_the_writer_refuses_is_an_internal_fault(tmp_path, monkeypatch, capsys):
    # NaN is not JSON, so a handler that returns one is a program fault
    def handler(config, clock):
        return True, {"nan.json": {"value": math.nan}}

    monkeypatch.setitem(cli.COMMANDS, "feasibility", (handler, "", ()))
    assert main(["feasibility", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:\n") and "Out of range float values" in err


def test_an_interrupt_is_not_an_internal_fault(tmp_path, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "feasibility_report", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["feasibility", "--out", str(tmp_path)])


def test_config_file_and_flag_precedence(tmp_path, capsys):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"fock_cutoff": 3, "out_dir": str(tmp_path / "from_file")}))
    assert main(["feasibility", "--config", str(config_path)]) == 0
    payload = _read_json(tmp_path / "from_file" / "feasibility.json")
    assert payload["config"]["fock_cutoff"] == 3
    # flags beat the file
    argv = ["feasibility", "--config", str(config_path), "--fock-cutoff", "4"]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 0
    payload = _read_json(tmp_path / "o" / "feasibility.json")
    assert payload["config"]["fock_cutoff"] == 4
    capsys.readouterr()


def _run_files(argv, out, capsys):
    """Exit code, stderr and every report written by one run into ``out``."""
    code = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    files = {}
    for path in sorted(out.iterdir()) if out.exists() else []:
        text = path.read_text()
        if path.name == "decoherence.csv":
            # the runtime column measures the run
            text = "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())
        files[path.name] = text
    return code, err, files


@pytest.mark.parametrize(
    "command, flags, config",
    [
        ("cluster", ["--n", "3"], {"n_qubits": 3}),
        ("cluster", ["--fock-cutoff", "1"], {"fock_cutoff": 1}),
        # the scale is no key: it sets gate.cavity_time_s to the scaled window
        (
            "truth-table",
            ["--ratio", "1.5", "--cavity-time-scale", "2.3"],
            {"gate": {"ratio": 1.5, "cavity_time_s": GateParams().resolved_cavity_time * 2.3}},
        ),
        (
            "decoherence",
            ["--sweep", "gamma_e", "--values", "4e5,3.08e8"],
            {"sweep": {"parameter": "gamma_e", "values": [4e5, 3.08e8]}},
        ),
        # a bad value is refused with the same message from either source
        ("truth-table", ["--ratio", "-1"], {"gate": {"ratio": -1.0}}),
        ("cluster", ["--n", "11"], {"n_qubits": 11}),
    ],
    ids=["n", "fock-cutoff", "ratio-and-scale", "sweep", "bad-ratio", "bad-n"],
)
def test_a_flag_and_its_config_key_give_the_same_run(tmp_path, capsys, command, flags, config):
    out = tmp_path / "out"
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config))
    # a detuned gate warns once per call site and then stays silent, so the
    # two runs' stderrs agree only with the warning ignored in both
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        by_flag = _run_files([command, *flags], out, capsys)
        shutil.rmtree(out, ignore_errors=True)
        by_key = _run_files([command, "--config", str(config_path)], out, capsys)
    assert by_flag == by_key
    code, err, files = by_flag
    if code == 2:
        assert err.startswith("configuration error: ") and not files
    else:
        assert "config" in _read_json(out / f"{command.replace('-', '_')}.json")


@pytest.mark.filterwarnings("ignore:gate conditions violated:UserWarning")
@pytest.mark.parametrize(
    "scale, message",
    [
        ("0", "--cavity-time-scale must be finite and > 0"),
        ("-1", "--cavity-time-scale must be finite and > 0"),
        ("nan", "--cavity-time-scale must be finite and > 0"),
        ("inf", "--cavity-time-scale must be finite and > 0"),
        # finite, but the scaled window's phase omega_1 t_c is not
        ("1e308", "omega_1 * cavity_time must be finite"),
    ],
)
def test_cavity_time_scale_refusals_are_configuration_errors(tmp_path, capsys, scale, message):
    out = tmp_path / "out"
    assert main(["truth-table", "--cavity-time-scale", scale, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert not out.exists()


def test_every_flag_names_a_config_key():
    # a renamed config key cannot leave a flag that writes nowhere
    echo = config_to_dict(RunConfig())
    for flag, (key, _) in cli.FLAGS.items():
        if flag in ("--config", "--cavity-time-scale"):
            assert key is None, flag
            continue
        *section, name = key.split(".")
        assert name in (echo[section[0]] if section else echo), flag


# every config key: the top-level settings, then each section's keys
CONFIG_KEYS = [
    *_TOP_SCALARS,
    *(f"{name}.{key}" for name, (key_map, _) in _SECTIONS.items() for key in key_map),
]
# one JSON value of each type, and the (key, type) cases whose value is valid
JSON_VALUES = {"string": "1.5", "null": None, "array": [1], "object": {}, "bool": True}
VALID_VALUES = {
    ("out_dir", "string"),
    ("gate.cavity_time_s", "null"),
    ("gate.pulse_duration_s", "null"),
    ("sweep.values", "array"),
}


@pytest.mark.parametrize("kind", JSON_VALUES)
@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_every_config_key_runs_or_names_itself_under_each_json_type(
    tmp_path, capsys, monkeypatch, key, kind
):
    # a relative out_dir lands in tmp_path
    monkeypatch.chdir(tmp_path)
    data = {}
    cli._set_key(data, key, JSON_VALUES[kind])
    Path("run.json").write_text(json.dumps(data))
    code = main(["truth-table", "--config", "run.json"])
    err = capsys.readouterr().err
    if (key, kind) in VALID_VALUES:
        assert code == 0, err
        return
    assert code == 2 and err.startswith("configuration error: "), err
    # the sweep's own checks write "sweep values" and "sweep parameter"
    assert key in err or key.replace(".", " ") in err, err
    assert [path.name for path in tmp_path.iterdir()] == ["run.json"]


def test_config_file_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["feasibility", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["feasibility", "--config", str(bad)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"qubits": 4}))
    assert main(["feasibility", "--config", str(unknown)]) == 2
    # a number where a path belongs used to die in Path() with a traceback
    typed = tmp_path / "typed.json"
    typed.write_text(json.dumps({"out_dir": 5}))
    assert main(["feasibility", "--config", str(typed)]) == 2
    # finite settings whose cavity decay rate k = omega_c / Q overflows to
    # inf (which used to reach the numerics) or underflows to 0 (which used
    # to divide by zero)
    rates = tmp_path / "rates.json"
    for feasibility in ({"q_factor": 1e-300}, {"q_factor": 1e300, "omega_c_hz": 1e-300}):
        rates.write_text(json.dumps({"feasibility": feasibility}))
        for command in ("feasibility", "decoherence"):
            argv = [command, "--config", str(rates), "--out", str(tmp_path / "out")]
            assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("configuration error") == 8
    assert "out_dir must be a string" in err
    assert err.count("omega_c_hz / q_factor must be finite and > 0") == 4


def test_out_naming_a_file_is_a_configuration_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    for command in ("truth-table", "cluster", "feasibility", "decoherence"):
        assert main([command, "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.count("configuration error: cannot create output directory") == 4
    assert taken.read_text() == "keep me\n"


def test_out_holding_a_nul_is_a_configuration_error(tmp_path, capsys):
    # mkdir raises ValueError on an embedded NUL; this used to exit 3
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"out_dir": f"{tmp_path}/a\0b"}))
    for argv in (["--config", str(config_path)], ["--out", f"{tmp_path}/a\0b"]):
        assert main(["feasibility", *argv]) == 2
    err = capsys.readouterr().err
    assert err.count("configuration error: cannot create output directory") == 2
    assert "internal error" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


# each command's own flags, besides --help and the common three
OWN_FLAGS = {
    "truth-table": {"--ratio", "--cavity-time-scale"},
    "cluster": {"--n"},
    "feasibility": set(),
    "decoherence": {"--sweep", "--values"},
}


@pytest.mark.filterwarnings("ignore:gate conditions violated:UserWarning")
def test_usage_errors_and_help(tmp_path, capsys):
    assert main(["--help"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # every command is listed with its one-line help
    assert set(cli.COMMANDS) == set(OWN_FLAGS)
    for command, (_, summary, _) in cli.COMMANDS.items():
        assert [command, *summary.split()] in [line.split() for line in lines]
    for command, own in OWN_FLAGS.items():
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: squidcavity {command} ")
        common = {"--help", "--config", "--out", "--fock-cutoff"}
        assert set(re.findall(r"--[a-z-]+", out)) == common | own
    # no command, an unknown one, or a command after a flag or "--"
    for argv in ([], ["bogus"], ["--out", "x", "truth-table"], ["--", "truth-table"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: squidcavity ") and "error:" in err
    assert main(["truth-table", "--bogus"]) == 2
    # the RK4 step count is no longer a setting, and nothing is random
    assert main(["decoherence", "--steps-per-segment", "600"]) == 2
    assert main(["truth-table", "--seed", "5"]) == 2
    capsys.readouterr()
    # an unambiguous prefix of a long flag is that flag
    reports = {}
    for flag in ("--ratio", "--rat"):
        assert main(["truth-table", flag, "1.5", "--out", str(tmp_path)]) == 1
        reports[flag] = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert reports["--rat"] == reports["--ratio"]


def test_each_call_builds_one_parser(tmp_path, capsys, monkeypatch):
    # the parser is built for the command word alone; a call builds no other
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    out = ["--out", str(tmp_path)]
    runs = [
        (["truth-table", *out], "squidcavity truth-table"),
        (["cluster", "--n", "3", *out], "squidcavity cluster"),
        (["feasibility", *out], "squidcavity feasibility"),
        (["decoherence", "--values", "5e4", *out], "squidcavity decoherence"),
        (["--help"], "squidcavity"),
    ]
    for argv, prog in runs:
        built.clear()
        assert main(argv) == 0
        assert built == [prog]
    capsys.readouterr()


# Each verdict threshold, at its bound and one ulp past it.  The bounds are
# written out here rather than read from ``cli``, so that a loosened
# threshold fails these tests.
CLUSTER_BOUNDS = {
    "fidelity": 1.0 - 1e-9,
    "stabilizer": 1.0 - 1e-9,
    "vacuum": 1.0 - 1e-10,
}


@pytest.mark.parametrize("readout", sorted(CLUSTER_BOUNDS))
def test_cluster_verdict_thresholds_bite_one_ulp_past_their_bound(
    tmp_path, capsys, monkeypatch, readout
):
    bound = CLUSTER_BOUNDS[readout]
    for value, code in ((bound, 0), (math.nextafter(bound, 0.0), 1)):
        readouts = {"fidelity": 1.0, "stabilizer": 1.0, "vacuum": 1.0, readout: value}
        monkeypatch.setattr(cli, "state_fidelity", lambda *states: readouts["fidelity"])
        monkeypatch.setattr(
            cli,
            "stabilizer_expectations",
            lambda state: verification.StabilizerReport(
                np.full(state.layout.n_squids, readouts["stabilizer"]),
                readouts["stabilizer"],
                readouts["vacuum"],
            ),
        )
        assert main(["cluster", "--n", "2", "--out", str(tmp_path)]) == code
        assert _read_json(tmp_path / "cluster.json")["passed"] is (code == 0)
        assert capsys.readouterr().out.endswith(("PASS\n", "FAIL\n")[code])


# (score, its bound, the direction past it): trace defect at most 1e-6, least
# eigenvalue at least -1e-6, average fidelity within [-1e-9, 1 + 1e-9]
SWEEP_BOUNDS = [
    ("trace_defect", 1e-6, math.inf),
    ("min_eigenvalue", -1e-6, -math.inf),
    ("average_fidelity", -1e-9, -math.inf),
    ("average_fidelity", 1 + 1e-9, math.inf),
]


@pytest.mark.parametrize("score, bound, past", SWEEP_BOUNDS)
def test_decoherence_sanity_bounds_bite_one_ulp_past_their_bound(
    tmp_path, capsys, monkeypatch, score, bound, past
):
    for value, code in ((bound, 0), (math.nextafter(bound, past), 1)):
        scores = {
            "average_fidelity": 0.99,
            "process_fidelity": 0.99,
            "trace_defect": 0.0,
            "min_eigenvalue": 0.0,
            "gate_duration_s": 1e-8,
            score: value,
        }
        monkeypatch.setattr(
            cli, "qcpg_lindblad_fidelity", lambda noisy: decoherence.GateProcessResult(**scores)
        )
        assert main(["decoherence", "--values", "5e4", "--out", str(tmp_path)]) == code
        row = _read_json(tmp_path / "decoherence.json")["rows"][0]
        assert (row[score], row["sane"]) == (value, code == 0)
        assert capsys.readouterr().out.endswith(("PASS\n", "FAIL\n")[code])
