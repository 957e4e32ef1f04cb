import math
from dataclasses import asdict

import pytest

from squidcavity import FeasibilityParams, GateParams, feasibility_report
from squidcavity.feasibility import ANCHORS, round_to_sig_figures


def test_round_to_sig_figures():
    assert round_to_sig_figures(1.2345e-8, 2) == pytest.approx(1.2e-8)
    assert round_to_sig_figures(1.9876e6, 3) == pytest.approx(1.99e6)
    assert round_to_sig_figures(-0.04567, 2) == pytest.approx(-0.046)
    assert round_to_sig_figures(0.0, 2) == 0.0
    assert round_to_sig_figures(math.inf, 2) == math.inf


def test_default_point_matches_all_anchors():
    report = feasibility_report()
    assert report.passed
    assert all(report.anchors_matched.values())
    assert set(report.anchors_matched) == set(ANCHORS)


def test_default_point_values():
    params = FeasibilityParams()
    report = feasibility_report(params)
    # k = omega_c / Q = 5e10 / 1e6
    assert report.cavity_decay_per_s == pytest.approx(5e4)
    assert report.cavity_lifetime_s == pytest.approx(2e-5)
    # the gate's default segment durations, bit for bit
    assert report.exchange_window_s == math.pi / 1.8e8
    assert report.pulse_window_s == math.pi / (2 * 8.5e7)
    assert report.cooperativity == pytest.approx(1.8e8**2 / (4e5 * 5e4))
    # both gate windows are far shorter than either decay time
    assert report.exchange_per_cavity_decay < 1e-2
    assert report.exchange_per_e_decay < 1e-2


def test_shifted_point_fails_anchors_honestly():
    report = feasibility_report(FeasibilityParams(q_factor=1e5))
    assert not report.passed
    assert not report.anchors_matched["cavity_lifetime_s"]
    # quantities that do not depend on Q still match
    assert report.anchors_matched["exchange_window_s"]
    assert report.anchors_matched["pulse_window_s"]


def test_windows_come_from_the_gate():
    # the windows are the segment durations the gate's schedule builds, so
    # doubling omega_1 halves the exchange window and fails its anchor
    gate = GateParams(omega_1=3.6e8)
    report = feasibility_report(FeasibilityParams(), gate)
    assert report.exchange_window_s == math.pi / 3.6e8
    assert report.cooperativity == pytest.approx(3.6e8**2 / (4e5 * 5e4))
    assert not report.passed
    assert not report.anchors_matched["exchange_window_s"]
    assert not report.anchors_matched["cooperativity"]
    # quantities that do not depend on omega_1 still match
    assert report.anchors_matched["pulse_window_s"]
    assert report.anchors_matched["cavity_lifetime_s"]
    # a coupling the gate accepts but whose square overflows reads inf
    assert feasibility_report(gate=GateParams(omega_1=1e200)).cooperativity == math.inf
    # an explicit cavity time is the window, whatever omega_1 says
    assert feasibility_report(gate=GateParams(cavity_time=2e-8)).exchange_window_s == 2e-8


def test_lossless_point_reports_infinite_cooperativity():
    report = feasibility_report(FeasibilityParams(gamma_e_per_s=0.0))
    assert report.cooperativity == math.inf
    assert not report.anchors_matched["cooperativity"]


def test_report_dict_round_trip():
    report = feasibility_report()
    data = asdict(report)
    assert data["passed"] is True
    assert data["cavity_lifetime_s"] == report.cavity_lifetime_s
    assert data["anchors_matched"] == report.anchors_matched
    assert data["anchors_matched"] is not report.anchors_matched
