"""Cross-cutting checks that reuse the session reproduction runs: post-hoc
analysis of emitted CSVs, summary/plot artifacts, and the certified-rate
comparison against the fitted decay."""
import json
import os

import numpy as np
import pytest

from waveconsensus import harness
from waveconsensus.analysis import bound_columns, decay_fit, iss_check
from waveconsensus.certificate import _decay
from waveconsensus.signals import (DisturbanceSpec, ProfileSpec, SignalSpec,
                                   SpaceTimeSpec)


def test_per_step_monotone_V_at_stride_one(test1_run):
    # literal every-step version of the monotonicity check over the active
    # decay phase (the preset CSV samples every 10th step)
    cert = test1_run[0].certificate
    config = harness.replace(harness.test_preset(1), horizon=20.0)
    config = harness.replace(config, output=harness.OutputOptions(stride=1))
    series, _ = harness.run_experiment(config, cert=cert)
    v = series.column("V")
    assert np.all(v[1:] <= v[:-1] * (1 + 1e-6))


def test_fitted_decay_beats_certified_rate(test1_run):
    result, _ = test1_run
    series, cert = result.series, result.certificate
    t = series.column("time")
    v = series.column("V")
    keep = (v > v[0] * 1e-12) & (t <= 50.0)
    rate, r2 = decay_fit(t[keep], v[keep])
    assert rate >= cert.alpha
    assert r2 > 0.8


def test_presets_switch_to_their_steady_state(test1_run, test2_run, test3_run):
    # from these times on the rest of each horizon is filled from the exact
    # steady state (2,241 s and 6,731 s horizons); a lost switch would show
    # only as a slower run
    for (result, _), limit in zip((test1_run, test2_run, test3_run), (1179.0, 81.0, 76.32)):
        assert result.series.stepped_to is not None
        assert round(result.series.stepped_to, 9) <= limit


def test_perturbed_run_settles_to_bounded_oscillation(test2_run):
    result, _ = test2_run
    t = result.series.column("time")
    l2 = result.series.column("l2_error")
    window = t >= t[-1] - 0.2 * (t[-1] - t[0])
    steady = l2[window]
    assert np.max(l2) < 1e3  # no divergence
    assert np.mean(steady) > 0.05  # no decay to zero
    assert np.max(steady) < 2.0 * np.mean(steady) + 1.0


def test_analyze_iss_csv(test2_run):
    result, _ = test2_run
    res = harness.run_analyze([result.paths["csv"]])
    assert res.exit_code == harness.EXIT_OK
    assert "iss_bound_conservative: 0 violations" in res.report


def test_analyze_counts_a_violated_zero_bound(test2_run, tmp_path):
    # one iss_bound_verbatim cell set to 0.0 where V0 > 0: a violation whose
    # ratio to its zero bound is inf, reported without a numpy warning
    lines = open(test2_run[0].paths["csv"], encoding="utf-8").read().splitlines()
    header = lines[0].split(",")
    row = lines[100].split(",")
    assert float(row[header.index("V0")]) > 0.0
    row[header.index("iss_bound_verbatim")] = "0.0"
    lines[100] = ",".join(row)
    path = tmp_path / "zero_bound.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    res = harness.run_analyze([str(path)])
    n = len(lines) - 1
    assert res.exit_code == harness.EXIT_OK
    assert res.report == (f"iss_bound_conservative: 0 violations / {n}\n"
                          f"iss_bound_verbatim: 1 violations / {n}")


def test_analyze_cross_run_ratio(test2_run, test3_run):
    res = harness.run_analyze([test2_run[0].paths["csv"],
                               test3_run[0].paths["csv"]])
    assert res.exit_code == harness.EXIT_OK
    ratio = float(res.report.rsplit("=", 1)[1])
    assert ratio == pytest.approx(5.0, rel=0.02)


def test_csv_envelope_is_the_checked_libm_bound(test1_run):
    # the CSV's bound_envelope is the bound regime_checks' envelope uses before its
    # slack, V(0) exp(-alpha t) by libm, bit for bit: numpy's SIMD exp can
    # differ from libm's in the last bit
    result, _ = test1_run
    cols = harness.read_csv(result.paths["csv"])
    envelope = cols["V"][0] * _decay(result.certificate.alpha, cols["t"])
    assert cols["bound_envelope"].tobytes() == envelope.tobytes()
    checked = bound_columns(result.series, result.certificate)
    assert checked.keys() == {"bound_envelope"}
    assert checked["bound_envelope"].tobytes() == envelope.tobytes()


def test_csv_iss_bounds_are_the_checked_arrays(test2_run):
    # both ISS columns are the arrays iss_check compares V0 with, bit for
    # bit, and analyze on the CSV counts the violations summary.json gives
    result, _ = test2_run
    cols = harness.read_csv(result.paths["csv"])
    checked = bound_columns(result.series, result.certificate)
    for variant in ("conservative", "verbatim"):
        name = f"iss_bound_{variant}"
        assert cols[name].tobytes() == checked[name].tobytes()
    assert np.isnan(cols["bound_envelope"]).all()
    with open(result.paths["summary"], "r", encoding="utf-8") as fh:
        checks = json.load(fh)["checks"]
    n = len(cols["t"])
    assert harness.run_analyze([result.paths["csv"]]).report == (
        f"iss_bound_conservative: {checks['iss_conservative']['violations']} violations / {n}\n"
        f"iss_bound_verbatim: {checks['iss_verbatim']['violations']} violations / {n}")


def test_reproduce_artifacts(test1_run):
    result, _ = test1_run
    with open(result.paths["summary"], "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["exit_code"] == 0
    assert all(c["ok"] and c["worst_ratio"] == 0.0 for c in summary["checks"].values())
    assert summary["certificate"]["regime"] == "unperturbed"
    for key in ("norm_plot", "surface_plot"):
        path = result.paths[key]
        assert os.path.getsize(path) > 500
        with open(path, "r", encoding="utf-8") as fh:
            assert fh.read(4) == "<svg"


def test_iss_check_warns_on_table_disturbance(test2_run):
    result, _ = test2_run
    dist = DisturbanceSpec(
        psi0=(SignalSpec(),) * 3, psi1=(SignalSpec(),) * 3,
        f=tuple(SpaceTimeSpec(
            kind="separable",
            temporal=SignalSpec(kind="sinusoid", amplitude=1.0,
                                angular_frequency=1.0),
            spatial=ProfileSpec(kind="table", samples=(1.0,) * 201))
            for _ in range(3)))
    with pytest.warns(UserWarning, match="smoothness"):
        iss_check(result.series, result.certificate, dist)
