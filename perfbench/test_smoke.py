"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py

Runs each workload's code path (the seeded network generator with
`simulate`, and the `reproduce` preset pipeline) on short horizons through
run.py's entry point, and checks that every metric is printed by name with
its unit and that a wrong fingerprint counts as a failed run.
"""
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from workloads import (COMMON_SPANS, END_TO_END, LAYER_METRICS, WORKLOADS,  # noqa: E402
                       Workload)

TINY = {
    "smoke-network": Workload(
        name="smoke-network", command="simulate",
        followers=3, nx=21, horizon=2.0, spans=COMMON_SPANS,
        fingerprint=("V0", "steady_mean_l2")),
    "smoke-preset2": Workload(
        name="smoke-preset2", command="reproduce", test_id=2,
        horizon_divisor=400, spans=WORKLOADS["preset2-disturbed"].spans,
        fingerprint=("V0", "steady_mean_l2")),
}


@pytest.fixture
def tiny(monkeypatch):
    for name, wl in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, wl)


def bench(capsys, name, trace=0):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_printed_with_unit(tiny, capsys, name):
    for trace, expected in ((0, END_TO_END), (1, {k: v[0] for k, v in LAYER_METRICS.items()})):
        code, out, result = bench(capsys, name, trace)
        assert code == 0
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
        for metric, unit in expected.items():
            assert any(line.split()[:1] == [metric] and line.split()[-1] == unit
                       for line in out.splitlines()), metric
        assert "fail_rate" in out


def test_network_generator_is_seeded_and_connected():
    a = run.network_config(7, 5, 21, 1.0)
    assert a == run.network_config(7, 5, 21, 1.0)
    assert a != run.network_config(8, 5, 21, 1.0)
    adj = a["topology"]["adjacency"]
    seen, stack = {0}, [0]
    while stack:
        i = stack.pop()
        for j, linked in enumerate(adj[i]):
            if linked and j not in seen:
                seen.add(j)
                stack.append(j)
    assert seen == set(range(5)) and any(a["topology"]["leader_links"])


def test_corrupted_fingerprint_counts_as_failure(tiny, capsys, monkeypatch):
    wl = TINY["smoke-preset2"]
    it, _ = run.run_child(wl, 0)
    assert not it["problems"]
    good = {k: it["fingerprint"][k] for k in wl.fingerprint}
    monkeypatch.setattr(run, "load_fingerprints", lambda: {wl.name: {"*": good}})
    assert bench(capsys, wl.name)[2]["failed"] == 0
    bad = dict(good, V0=good["V0"] * (1.0 + 1e-4))
    monkeypatch.setattr(run, "load_fingerprints", lambda: {wl.name: {"*": bad}})
    code, out, result = bench(capsys, wl.name)
    assert not result["correct"] and result["failed"] >= 1
    assert "fingerprint V0" in out
