import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waveconsensus import harness
from waveconsensus.cli import main
from waveconsensus.errors import ConfigError
from waveconsensus.signals import PROFILE_KINDS, SIGNAL_KINDS, SPACETIME_KINDS
from waveconsensus.wavesim import COURANT_FLOOR, Grid

MINIMAL = json.dumps({
    "topology": {"adjacency": [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
                 "leader_links": [1, 0, 0]},
    "gains": {"k1": 30.0, "k2": 10.0, "c0": 2.5},
})


class TestParseConfig:
    def test_minimal_defaults(self):
        config = harness.parse_config(MINIMAL)
        assert config.grid.nx == 201
        assert config.grid.courant == 0.9
        assert config.output.stride == 10
        assert config.disturbances.is_zero()
        assert config.horizon is None
        assert config.effective_regime() == "unperturbed"

    def test_round_trip_presets(self):
        for tid in (1, 2, 3):
            config = harness.test_preset(tid)
            assert harness.parse_config(harness.serialize_config(config)) == config

    @pytest.mark.parametrize("tid", (1, 2, 3))
    def test_serializer_matches_shipped_bytes(self, tid):
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        with open(os.path.join(root, f"test{tid}.json"), encoding="utf-8") as fh:
            shipped = fh.read()
        assert harness.serialize_config(harness.test_preset(tid)) + "\n" == shipped

    def test_round_trip_with_horizon_and_overrides(self):
        doc = json.loads(MINIMAL)
        doc["horizon"] = 12.5
        doc["certificate"] = {"regime": "unperturbed", "rho1": 0.1, "rho2": 0.5}
        config = harness.parse_config(json.dumps(doc))
        assert config.horizon == 12.5
        assert harness.parse_config(harness.serialize_config(config)) == config

    def test_negative_horizon_names_field(self):
        doc = json.loads(MINIMAL)
        doc["horizon"] = -1.0
        with pytest.raises(ConfigError, match="horizon"):
            harness.parse_config(json.dumps(doc))

    def test_missing_gain_names_path(self):
        doc = json.loads(MINIMAL)
        del doc["gains"]["k1"]
        with pytest.raises(ConfigError, match="gains.k1"):
            harness.parse_config(json.dumps(doc))

    def test_follower_count_mismatch_names_path(self):
        doc = json.loads(MINIMAL)
        doc["initial_conditions"] = {"followers": [{}]}
        with pytest.raises(ConfigError, match="followers"):
            harness.parse_config(json.dumps(doc))

    def test_bad_profile_kind_names_path(self):
        doc = json.loads(MINIMAL)
        doc["initial_conditions"] = {
            "leader": {"displacement": {"kind": "wavelet"}}}
        with pytest.raises(ConfigError, match="displacement.kind"):
            harness.parse_config(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            harness.parse_config("{nope")

    def test_invalid_topology_surfaces(self):
        doc = json.loads(MINIMAL)
        doc["topology"]["adjacency"] = [[0, 1, 0], [1, 0, 1], [1, 1, 0]]
        with pytest.raises(Exception, match="symmetric"):
            harness.parse_config(json.dumps(doc))


# A config that uses every schema field, so each bad-input row below can
# replace one value in it.
FULL = {
    "topology": {"adjacency": [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
                 "leader_links": [1, 0, 0]},
    "gains": {"k1": 30.0, "k2": 10.0, "c0": 2.5},
    "grid": {"nx": 5, "courant": 0.9, "dissipation": 0.1},
    "horizon": 1.0,
    "initial_conditions": {
        "leader": {"displacement": {"kind": "cosine", "amplitude": 1.0,
                                    "spatial_frequency": 2.0},
                   "velocity": {"kind": "table", "samples": [0.0] * 5}},
        "followers": [
            {"displacement": {"kind": "table", "samples": [0.0, 1.0, 2.0, 1.0, 0.0]},
             "velocity": {"kind": "polynomial", "coefficients": [0.0, 1.0]}},
            {}, {}]},
    "disturbances": {
        "psi0": [{"kind": "sinusoid", "amplitude": 1.0, "angular_frequency": 10.0}] * 3,
        "psi1": [{"kind": "sinusoid", "amplitude": 1.0, "angular_frequency": 10.0,
                  "phase": 0.5}] * 3,
        "f": [{"kind": "separable",
               "temporal": {"kind": "sinusoid", "amplitude": 1.0, "angular_frequency": 1.0},
               "spatial": spatial}
              for spatial in ({"kind": "polynomial", "coefficients": [1.0]},
                              {"kind": "table", "samples": [1.0] * 5},
                              {"kind": "polynomial", "coefficients": [1.0]})]},
    "certificate": {"regime": "perturbed", "resolution": 20, "rho1": 0.04,
                    "rho2": 0.5, "xi1": 0.005, "xi2": 0.001},
    "output": {"csv": "run.csv", "stride": 2},
}

# (dotted path, bad value): the value is written at the path (None writes
# null, which counts as missing) and the error must name that path.
BAD_INPUT = [
    ("topology", "x"),
    ("topology.adjacency", "x"),
    ("topology.adjacency", [[0, 2, 0], [2, 0, 1], [0, 1, 0]]),
    ("topology.adjacency", [[0, 1, 0], [0, 0, 1], [0, 1, 0]]),
    ("topology.adjacency[1]", [1, 0]),
    ("topology.adjacency[0][0]", 0.5),
    ("topology.adjacency[0][1]", "1"),
    ("topology.leader_links", None),
    ("topology.leader_links", [1, 0]),
    ("topology.leader_links", [2, 0, 0]),
    ("topology.leader_links[0]", True),
    ("gains", "x"),
    ("gains", None),
    ("gains.k1", -1),
    ("gains.k1", None),
    ("gains.k2", "fast"),
    ("gains.c0", -0.5),
    ("grid", []),
    ("grid.nx", 201.7),
    ("grid.nx", 2),
    ("grid.courant", 1.5),
    ("grid.courant", 0.0),
    ("grid.courant", float("nan")),
    ("grid.dissipation", 2.0),
    ("horizon", -1.0),
    ("horizon", "long"),
    ("initial_conditions", 5),
    ("initial_conditions.leader", "x"),
    ("initial_conditions.leader.displacement", []),
    ("initial_conditions.leader.displacement.kind", "wavelet"),
    ("initial_conditions.leader.displacement.kind", None),
    ("initial_conditions.leader.displacement.amplitude", "big"),
    ("initial_conditions.leader.displacement.spatial_frequency", None),
    ("initial_conditions.leader.velocity.kind", 3),
    ("initial_conditions.followers", [{}]),
    ("initial_conditions.followers[1]", 7),
    ("initial_conditions.followers[0].displacement.samples", "x"),
    ("initial_conditions.followers[0].displacement.samples[2]", float("inf")),
    # a table profile needs grid.nx samples
    ("initial_conditions.leader.velocity.samples", [0.0, 0.0, 0.0]),
    ("initial_conditions.followers[0].displacement.samples", [0.0, 1.0, 0.0]),
    ("disturbances.f[1].spatial.samples", [1.0, 1.0]),
    ("initial_conditions.followers[0].velocity.coefficients", None),
    ("initial_conditions.followers[0].velocity.coefficients[1]", "a"),
    ("disturbances", "x"),
    ("disturbances.psi0", [{"kind": "zero"}]),
    ("disturbances.psi0[0].kind", "square"),
    ("disturbances.psi0[0].amplitude", None),
    ("disturbances.psi0[1].angular_frequency", "w"),
    ("disturbances.psi1", {}),
    ("disturbances.psi1[2].phase", "late"),
    ("disturbances.f", [{"kind": "zero"}] * 4),
    ("disturbances.f[0].kind", "tensor"),
    ("disturbances.f[0].temporal", None),
    ("disturbances.f[0].temporal.kind", "x"),
    ("disturbances.f[1].spatial", "x"),
    ("certificate", 1),
    ("certificate.regime", "fast"),
    ("certificate.resolution", 0),
    ("certificate.resolution", 10.5),
    ("certificate.resolution", 1001),
    ("certificate.rho1", "x"),
    ("certificate.rho2", True),
    ("certificate.xi1", [0.1]),
    ("certificate.xi2", {}),
    ("output", "x"),
    ("output.csv", 7),
    ("output.stride", 10.9),
    ("output.stride", 0),
    # members that are not in the schema
    ("colour", "red"),
    ("topology.weights", [1, 1, 1]),
    ("gains.k3", 1.0),
    ("grid.dx", 0.1),
    ("initial_conditions.middle", {}),
    ("initial_conditions.leader.displacement.frequency", 2.0),
    ("initial_conditions.followers[0].speed", {}),
    ("disturbances.psi0[0].freq", 10.0),
    ("disturbances.f[0].temporal.amp", 1.0),
    ("certificate.rho3", 0.1),
    ("output.stirde", 1),
]


def with_value(doc, path, value):
    """Copy of `doc` with `value` written at a dotted/indexed path; an
    absent or null object on the way is created."""
    doc = json.loads(json.dumps(doc))
    *parents, last = [int(k) if k.isdigit() else k
                      for k in re.findall(r"[^.\[\]]+", path)]
    target = doc
    for key in parents:
        if isinstance(target, dict) and target.get(key) is None:
            target[key] = {}
        target = target[key]
    target[last] = value
    return doc


# Random configs for the schema's property tests (Hypothesis).
NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-10**6, 10**6))
NONNEGATIVE = st.one_of(st.floats(0.0, 1e300), st.integers(0, 10**6))
OPTIONS = ("set", "set", "absent", "null")  # set half the time


def put(draw, obj, key, strategy):
    """An optional member: drawn, absent or null."""
    choice = draw(st.sampled_from(OPTIONS))
    if choice != "absent":
        obj[key] = None if choice == "null" else draw(strategy)


@st.composite
def kinded(draw, kinds, members, optional=()):
    """An object of a random kind with the members that kind uses."""
    kind = draw(st.sampled_from(sorted(kinds)))
    obj = {"kind": kind}
    for name in kinds[kind]:
        if name in optional:
            put(draw, obj, name, members[name])
        else:
            obj[name] = draw(members[name])
    return obj


@st.composite
def valid_docs(draw):
    """A valid config document: 1-4 followers, every profile, signal and
    space-time kind, optional members absent, null or set, and table
    profiles of grid.nx samples."""
    n = draw(st.integers(1, 4))
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            adj[i][j] = adj[j][i] = draw(st.integers(0, 1))
    doc = {"topology": {"adjacency": adj,
                        "leader_links": draw(st.lists(st.integers(0, 1), min_size=n,
                                                      max_size=n))},
           "gains": {key: draw(NONNEGATIVE) for key in ("k1", "k2", "c0")}}
    nx, grid = 201, draw(st.sampled_from(OPTIONS))
    if grid != "absent":
        doc["grid"] = None if grid == "null" else {}
    if doc.get("grid") is not None:
        put(draw, doc["grid"], "nx", st.integers(3, 12))
        nx = doc["grid"].get("nx") or nx
        put(draw, doc["grid"], "dissipation", st.floats(0.0, 1.0))
        # an admissible courant number: courant^2 > d / (4 + d), and the floor
        d = doc["grid"].get("dissipation")
        d = Grid.dissipation if d is None else d
        lowest = max(COURANT_FLOOR, math.sqrt(d / (4.0 + d)))
        put(draw, doc["grid"], "courant", st.floats(lowest, 1.0).filter(
            lambda c: c * c > d / (4.0 + d)))
    put(draw, doc, "horizon", st.floats(0.0, 1e300, exclude_min=True))
    profiles = kinded(PROFILE_KINDS, {
        "amplitude": NUMBERS, "spatial_frequency": NUMBERS,
        "coefficients": st.lists(NUMBERS, max_size=4),
        "samples": st.lists(NUMBERS, min_size=1, max_size=4).map(lambda v: (v * nx)[:nx])})
    signals = kinded(SIGNAL_KINDS, dict.fromkeys(("amplitude", "angular_frequency", "phase"),
                                                 NUMBERS), optional=("phase",))
    spacetimes = kinded(SPACETIME_KINDS, {"temporal": signals, "spatial": profiles})

    @st.composite
    def agents(draw):
        agent = {}
        put(draw, agent, "displacement", profiles)
        put(draw, agent, "velocity", profiles)
        return agent

    def per_agent(items):
        return st.lists(items, min_size=n, max_size=n)

    ics, dist = {}, {}
    put(draw, ics, "leader", agents())
    put(draw, ics, "followers", per_agent(agents()))
    put(draw, doc, "initial_conditions", st.just(ics))
    for key, items in (("psi0", signals), ("psi1", signals), ("f", spacetimes)):
        put(draw, dist, key, per_agent(items))
    put(draw, doc, "disturbances", st.just(dist))
    cert, output = {}, {}
    put(draw, cert, "regime", st.sampled_from(("auto", "unperturbed", "perturbed")))
    put(draw, cert, "resolution", st.integers(1, 1000))
    # rho1/rho2 and xi1/xi2 are drawn in pairs, xi only with rho, and
    # always with rho when the regime resolves perturbed
    disturbed = any(s["kind"] != "zero" for items in dist.values() for s in items or ())
    perturbed = cert.get("regime") == "perturbed" or (
        cert.get("regime") in (None, "auto") and disturbed)
    for a, b in (("rho1", "rho2"), ("xi1", "xi2")):
        if a == "xi1" and cert.get("rho1") is None:
            break
        pair = {}
        if a == "xi1" and perturbed:
            pair[a] = draw(st.tuples(NUMBERS, NUMBERS))
        else:
            put(draw, pair, a, st.tuples(NUMBERS, NUMBERS))
        if a in pair:
            cert[a], cert[b] = pair[a] or (None, None)
    put(draw, doc, "certificate", st.just(cert))
    put(draw, output, "csv", st.text(max_size=8))
    put(draw, output, "stride", st.integers(1, 100))
    put(draw, doc, "output", st.just(output))
    return doc


def members(value, path=""):
    """(path, value) of every member and list item of a document below
    `value` (null members are absent, so they are left out)."""
    items = (value.items() if isinstance(value, dict) else enumerate(value)
             if isinstance(value, list) else ())
    for key, item in items:
        sub = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}" if path else key
        if item is not None:
            yield sub, item
            yield from members(item, sub)


INTEGERS = re.compile(r"grid\.nx|certificate\.resolution|output\.stride"
                      r"|topology\.(adjacency\[\d+\]\[\d+\]|leader_links\[\d+\])")
OUT_OF_RANGE = {"grid.nx": (2, -3), "grid.courant": (0.0, 1.5), "grid.dissipation": (-0.1, 2.0),
                "gains.k1": (-1.0,), "gains.k2": (-1e-300,), "gains.c0": (-2.5,),
                "horizon": (0.0, -1.0), "certificate.resolution": (0, 1001),
                "output.stride": (0, -1)}


def json_type(value):
    return "number" if type(value) in (int, float) else type(value).__name__


@st.composite
def corruptions(draw, doc):
    """One bad field written into a valid document: (document, the path
    the error must name)."""
    leaves = dict(members(doc))

    def pick(paths):  # evenly over the schema's fields, then over list items
        fields = {}
        for path in sorted(paths):
            fields.setdefault(re.sub(r"\[\d+\]", "[]", path), []).append(path)
        return draw(st.sampled_from(fields[draw(st.sampled_from(sorted(fields)))]))

    kind = draw(st.sampled_from(("type", "range", "integral", "unknown")))
    if kind == "type":  # a JSON value of another type
        path = pick(leaves)
        bad = draw(st.sampled_from([v for v in ("x", 1.5, True, [], {})
                                    if json_type(v) != json_type(leaves[path])]))
    elif kind == "range":  # a non-finite number, or one outside its field's range
        numbers = [path for path, value in leaves.items() if json_type(value) == "number"]
        path, bad = draw(st.one_of(
            st.tuples(st.just(pick(numbers)), st.sampled_from((math.nan, math.inf, -math.inf))),
            st.sampled_from([(p, v) for p, vs in OUT_OF_RANGE.items() for v in vs])))
    elif kind == "integral":  # an integer field with a fractional part
        path = pick({*filter(INTEGERS.fullmatch, leaves), "grid.nx", "certificate.resolution",
                     "output.stride"})
        bad = draw(st.floats(-1e6, 1e6).filter(lambda v: not v.is_integer()))
    else:  # a member that is not in the schema
        parent = pick(["", *(path for path, value in leaves.items() if isinstance(value, dict))])
        key = draw(st.sampled_from(("colour", "stirde", "k3")))
        path = f"{parent}.{key}" if parent else key
        bad = 1.0
    return with_value(doc, path, bad), path


class TestBadInput:
    def test_full_config_is_valid(self):
        config = harness.parse_config(json.dumps(FULL))
        assert harness.parse_config(harness.serialize_config(config)) == config

    @pytest.mark.parametrize("path,value", BAD_INPUT,
                             ids=[f"{p}={v!r}" for p, v in BAD_INPUT])
    def test_error_names_the_path(self, path, value):
        with pytest.raises(ConfigError) as exc:
            harness.parse_config(json.dumps(with_value(FULL, path, value)))
        assert str(exc.value).startswith(f"{path}: "), str(exc.value)

    def test_unknown_member_is_rejected_not_defaulted(self):
        with pytest.raises(ConfigError, match=r"^output\.stirde: unknown field$"):
            harness.parse_config(json.dumps(with_value(FULL, "output.stirde", 1)))

    @pytest.mark.parametrize("path,value", [
        ("grid.courant", 1.5), ("grid.courant", 0.15), ("gains.k1", -1),
        ("certificate.resolution", 0),
        ("grid.nx", 201.7), ("output.stride", 10.9),
        ("topology.adjacency[0][0]", 0.5), ("gains", "x"), ("output.stirde", 1),
        ("certificate.resolution", 1_000_000)])
    def test_cli_exits_1_without_traceback(self, tmp_path, path, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(with_value(FULL, path, value)))
        src = os.path.dirname(os.path.dirname(harness.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "waveconsensus.cli", "check-gains", "--config", str(cfg)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"config error: {path}: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("given, message", [
        ({"rho1": 0.06}, "certificate.rho1: given without rho2"),
        ({"rho2": 0.6}, "certificate.rho2: given without rho1"),
        ({"xi1": 0.01}, "certificate.xi1: given without xi2"),
        ({"xi2": 0.01}, "certificate.xi2: given without xi1"),
        ({"xi1": 0.01, "xi2": 0.01}, "certificate.xi1: given without rho1"),
    ], ids=["rho1", "rho2", "xi1", "xi2", "xi-without-rho"])
    def test_partial_override_exits_1(self, tmp_path, capsys, given, message):
        # a lone override used to be dropped, and check-gains printed the
        # optimized parameters instead
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        with open(os.path.join(root, "test1.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["certificate"].update(given)
        cfg = tmp_path / "partial.json"
        cfg.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["check-gains", "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert exc.value.code == harness.EXIT_USAGE
        assert out == "" and err == f"config error: {message}\n"

    @pytest.mark.parametrize("regime", ["perturbed", "auto"])
    @pytest.mark.parametrize("horizon", [None, 1.0])
    def test_rho_without_xi_on_a_perturbed_run_exits_1(self, tmp_path, capsys, regime,
                                                        horizon):
        # the perturbed rules need xi1 and xi2 as well: without a horizon the
        # run used to exit 2 (infeasible certificate), and with one it
        # dropped the overrides and wrote blank bound columns
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        with open(os.path.join(root, "test2.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["certificate"].update(regime=regime, rho1=0.05, rho2=0.3)
        doc["horizon"] = horizon
        cfg = tmp_path / "rho.json"
        cfg.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert exc.value.code == harness.EXIT_USAGE
        assert out == "" and err.startswith("config error: certificate.xi1: ")


class TestSchemaProperties:
    """Random valid and singly corrupted config documents (Hypothesis)."""

    @settings(max_examples=60)
    @given(valid_docs())
    def test_valid_configs_round_trip(self, doc):
        config = harness.parse_config(json.dumps(doc))
        assert harness.parse_config(harness.serialize_config(config)) == config

    @settings(max_examples=160)
    @given(st.data())
    def test_one_bad_field_exits_1_naming_its_path(self, data):
        doc, path = data.draw(corruptions(data.draw(valid_docs())))
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "bad.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
                main(["check-gains", "--config", cfg])
        assert exc.value.code == harness.EXIT_USAGE
        assert out.getvalue() == ""
        assert err.getvalue().startswith(f"config error: {path}: "), err.getvalue()
        assert err.getvalue().count("\n") == 1


class TestPresets:
    def test_reference_setup(self, reference_matrix):
        config = harness.test_preset(1)
        topo = config.topology()
        from waveconsensus.graph import pinned_matrix

        assert np.array_equal(pinned_matrix(topo), reference_matrix)
        assert (config.gains.k1, config.gains.k2, config.gains.c0) == (30.0, 10.0, 2.5)
        assert config.leader_ic.displacement.amplitude == 10.0
        assert config.leader_ic.displacement.spatial_frequency == 2.0
        assert config.follower_ics[2].velocity.coefficients == (0.0, 3.0)
        assert config.disturbances.is_zero()

    def test_perturbed_presets_scale(self):
        c2 = harness.test_preset(2)
        c3 = harness.test_preset(3)
        assert c2.disturbances.psi0[0].amplitude == 10.0
        assert c3.disturbances.psi0[0].amplitude == 50.0
        assert c3.disturbances.f[0].temporal.amplitude == 50.0
        assert c2.effective_regime() == "perturbed"

    def test_unknown_test_id(self):
        with pytest.raises(ConfigError, match="test id"):
            harness.test_preset(9)

    def test_shipped_config_files_match_presets(self):
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        for tid in (1, 2, 3):
            with open(os.path.join(root, f"test{tid}.json"), encoding="utf-8") as fh:
                assert harness.parse_config(fh.read()) == harness.test_preset(tid)


class TestCheckGains:
    def test_reference_gains_feasible_both_regimes(self):
        res = harness.run_check_gains(harness.test_preset(1))
        assert res.exit_code == harness.EXIT_OK
        assert "[unperturbed] gain gate: PASS" in res.report
        assert "[perturbed] gain gate: PASS" in res.report

    def test_low_k1_infeasible(self):
        config = harness.parse_config(MINIMAL.replace('"k1": 30.0', '"k1": 1.0'))
        res = harness.run_check_gains(config)
        assert res.exit_code == harness.EXIT_INFEASIBLE

    def test_disconnected_graph_infeasible(self):
        doc = json.loads(MINIMAL)
        doc["topology"]["adjacency"] = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
        res = harness.run_check_gains(harness.parse_config(json.dumps(doc)))
        assert res.exit_code == harness.EXIT_INFEASIBLE
        assert "connected" in res.report

    def test_explicit_rho_is_reported_not_reoptimized(self):
        doc = json.loads(MINIMAL)
        doc["certificate"] = {"rho1": 0.06, "rho2": 0.6}
        res = harness.run_check_gains(harness.parse_config(json.dumps(doc)))
        assert res.exit_code == harness.EXIT_OK
        assert "rho1, rho2 : 0.06, 0.6\n" in res.report
        assert "0.0647" not in res.report and "0.666" not in res.report
        # the perturbed regime needs xi1/xi2 as well, so it reports why not
        assert "needs xi1 and xi2" in res.report


# Random CSV texts for the reader's property test (Hypothesis): doubles by
# repr, subnormals included, and cells that only float() reads, that neither
# reads, or that numpy's parser and float() might read apart.
ODD_CELLS = ("", " ", " 1.5", "2.5 ", "\t3", "nan", "-inf", "inf", "1e400", "1e-320", "-0.0",
             "#", "#1", "1#", "\r", "1\r2", "1_0", "0x10", "abc", "١", "1\xa0")


@st.composite
def csv_texts(draw):
    """A header and 1-6 data rows in order of t: whole blank columns, stray
    blank and odd cells, rows a cell short or long, and blank lines."""
    width = len(harness.CSV_COLUMNS)
    blank = draw(st.sets(st.integers(1, width - 1)))
    doubles = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    lines = [",".join(harness.CSV_COLUMNS)]
    columns = st.integers(0, width - 1)  # where a stray cell goes: a blank column or t half the time
    columns = st.one_of(columns, st.sampled_from(sorted(blank | {0}))) if blank else columns
    for i in range(draw(st.integers(1, 6))):
        cells = [repr(0.25 * i)] + ["" if j in blank else draw(doubles) for j in range(1, width)]
        for _ in range(draw(st.sampled_from((0, 0, 1, 1, 2)))):  # stray cells
            cells[draw(columns)] = draw(st.sampled_from(ODD_CELLS))
        cells = cells[:draw(st.sampled_from((width, width, width, width - 1, width + 1)))]
        cells += ["0.5"] * (width + 1 - len(cells)) if len(cells) > width else []
        lines += [""] * draw(st.sampled_from((0, 0, 0, 1))) + [",".join(cells)]
    return "\n".join(lines) + draw(st.sampled_from(("\n", "")))


def csv_text(*rows):
    """The header and `rows` (lists of cells) as CSV text."""
    return "\n".join(map(",".join, [harness.CSV_COLUMNS, *rows])) + "\n"


def read_outcome(path):
    """`read_csv`'s columns as bytes, or its ConfigError text."""
    try:
        return {name: col.tobytes() for name, col in harness.read_csv(path).items()}
    except ConfigError as exc:
        return str(exc)


class TestCsv:
    def test_write_read_round_trip(self, tmp_path, path3_topology):
        config = harness.test_preset(1)
        config = harness.replace(config, horizon=1.0)
        series, cert = harness.run_experiment(config)
        path = tmp_path / "run.csv"
        harness.write_csv(path, series, cert)
        cols = harness.read_csv(path)
        assert cols["t"][0] == 0.0
        assert np.allclose(cols["V"], series.column("V"), rtol=0, atol=0)
        assert np.all(np.isnan(cols["iss_bound_conservative"]))
        assert np.isfinite(cols["bound_envelope"]).all()

    def test_numpy_reader_reads_written_csvs(self, tmp_path):
        # what write_csv writes, nominal (blank ISS columns) and disturbed
        # (a blank envelope), is read by numpy's reader alone: the per-cell
        # scan does not run, and it would give the same arrays
        for preset in (1, 2):
            config = harness.replace(harness.test_preset(preset), horizon=1.0)
            series, cert = harness.run_experiment(config)
            path = tmp_path / f"run{preset}.csv"
            harness.write_csv(path, series, cert)
            with mock.patch.object(harness, "_scanned", side_effect=AssertionError):
                fast = read_outcome(path)
            with mock.patch.object(np, "loadtxt", side_effect=ValueError):
                assert read_outcome(path) == fast
            blank = "bound_envelope" if preset == 2 else "iss_bound_verbatim"
            assert isinstance(fast, dict) and np.isnan(np.frombuffer(fast[blank])).all()

    @settings(max_examples=300)
    @given(csv_texts())
    @example(csv_text(["0.0"] * 15 + ["1#"]))  # not a comment
    @example(csv_text([""] + ["1.0"] * 15, ["1.0"] * 16))  # t never blank
    @example(csv_text(["0.0"] * 15 + [""], ["1.0"] * 15 + ["inf"]))
    def test_numpy_reader_matches_the_cell_scan(self, text):
        # every array bit for bit (NaN where a cell is blank), or the same
        # ConfigError text, as the per-cell scan forced on the same file
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            got = read_outcome(path)
            with mock.patch.object(np, "loadtxt", side_effect=ValueError):
                assert got == read_outcome(path)

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(harness.CSV_COLUMNS) + "\n")
        with pytest.raises(ConfigError, match="no data rows"):
            harness.read_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError, match="not a recognized"):
            harness.read_csv(path)

    def test_blank_lines_are_skipped_but_counted(self, tmp_path):
        # a blank line is no row but keeps its line number; a blank cell reads
        # NaN in every column but t
        header, good = ",".join(harness.CSV_COLUMNS), ",".join(["0.0"] * 10 + [""] * 6)
        path = tmp_path / "gaps.csv"
        path.write_text("\n".join([header, good, "", "1.5" + good[3:], "", ""]) + "\n")
        cols = harness.read_csv(path)
        assert cols["t"].tolist() == [0.0, 1.5] and np.isnan(cols["iss_bound_verbatim"]).all()
        path.write_text("\n".join([header, good, "", "1.5,abc" + good[7:]]) + "\n")
        with pytest.raises(ConfigError, match="line 4, column E: 'abc' is not a number"):
            harness.read_csv(path)

    def test_unsorted_time_rejected(self, tmp_path):
        path = tmp_path / "unsorted.csv"
        rows = [",".join(harness.CSV_COLUMNS)]
        for t in (0.0, 2.0, 1.0):
            rows.append(",".join([repr(t)] + ["0.0"] * 15))
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ConfigError, match="increasing"):
            harness.read_csv(path)


class TestAnalyze:
    def test_decay_report_on_unperturbed_csv(self, tmp_path):
        config = harness.replace(harness.test_preset(1), horizon=5.0)
        series, cert = harness.run_experiment(config)
        path = tmp_path / "t1.csv"
        harness.write_csv(path, series, cert)
        res = harness.run_analyze([str(path)])
        assert res.exit_code == harness.EXIT_OK
        assert "decay fit" in res.report

    def test_missing_file_is_usage_error(self):
        res = harness.run_analyze(["/nonexistent/x.csv"])
        assert res.exit_code == harness.EXIT_USAGE

    def test_ratio_report(self, tmp_path):
        # a zero steady-state mean in the first CSV reads inf, or nan when
        # both are zero
        for scales, ratio in (((1.0, 5.0), 5.0), ((0.0, 5.0), math.inf), ((0.0, 0.0), math.nan)):
            paths = []
            for scale in scales:
                series = harness.analysis.TimeSeries()
                for i in range(50):
                    series.append(harness.analysis.FunctionalSample(
                        time=float(i), E=0.0, G1=0.0, G2=0.0, V=1.0, V0=1.0,
                        l2_error=scale * (1.0 + 0.01 * np.sin(i)),
                        h1_seminorm=0.0, ptwise_max_sq=0.0, boundary_err_sq=0.0))
                p = tmp_path / f"r{len(paths)}.csv"
                harness.write_csv(p, series)
                paths.append(str(p))
            res = harness.run_analyze(paths)
            assert res.exit_code == harness.EXIT_OK
            assert "ratio" in res.report
            got = float(res.report.rsplit("=", 1)[1])
            assert got == pytest.approx(ratio, rel=1e-6, nan_ok=True), scales


class TestRunSimulate:
    def test_writes_csv_and_summary(self, tmp_path):
        config = harness.replace(harness.test_preset(1), horizon=2.0)
        res = harness.run_simulate(config, str(tmp_path))
        assert res.exit_code == harness.EXIT_OK
        assert os.path.exists(res.paths["csv"])

    def test_derived_horizon_sets_the_last_sample(self, tmp_path):
        # without a horizon the run lasts the certificate's derived H, which
        # ends on the first step at or after H
        config = harness.replace(harness.test_preset(1), grid=Grid(nx=21))
        res = harness.run_simulate(config, str(tmp_path))
        assert res.exit_code == harness.EXIT_OK and config.horizon is None
        horizon = harness.derive_horizon(res.certificate, "unperturbed")
        dt = config.grid.dt
        assert harness.read_csv(res.paths["csv"])["t"][-1] == math.ceil(horizon / dt) * dt

    def test_disconnected_graph_runs_without_bounds(self, tmp_path):
        # follower 3 has no link to the others or to the leader, so no
        # certificate exists; an explicit horizon still runs
        doc = json.loads(MINIMAL)
        doc["topology"]["adjacency"] = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
        doc.update(horizon=1.0, grid={"nx": 21})
        with pytest.warns(UserWarning, match="follower graph is not connected"):
            res = harness.run_simulate(harness.parse_config(json.dumps(doc)), str(tmp_path))
        assert res.exit_code == harness.EXIT_OK and res.certificate is None
        cols = harness.read_csv(res.paths["csv"])
        assert not np.isnan(cols["V"]).any()
        for name in ("bound_envelope", "iss_bound_conservative", "iss_bound_verbatim"):
            assert np.isnan(cols[name]).all()


class TestCli:
    @pytest.mark.parametrize("argv, code", [
        ([], 1), (["bogus"], 1), (["reproduce"], 1), (["reproduce", "--test", "9"], 1),
        (["simulate"], 1), (["analyze"], 1), (["--help"], 0), (["reproduce", "--help"], 0)],
        ids=lambda v: (" ".join(v) or "none") if isinstance(v, list) else str(v))
    def test_usage(self, capsys, argv, code):
        # a usage error is one stderr line and nothing on stdout; --help
        # prints the usage on stdout
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == code
        if code:
            assert out == "" and err.startswith("usage error: ") and err.count("\n") == 1, err
        else:
            assert out.startswith("usage: waveconsensus") and err == ""

    def test_main_exit_codes(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(MINIMAL)
        with pytest.raises(SystemExit) as exc:
            main(["check-gains", "--config", str(cfg)])
        assert exc.value.code == harness.EXIT_OK
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--test", "9", "--out", str(tmp_path)])
        assert exc.value.code == harness.EXIT_USAGE
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(tmp_path / "missing.csv")])
        assert exc.value.code == harness.EXIT_USAGE

    @pytest.mark.parametrize("xi1, xi2, rule", [(0.0, 0.1, "xi1 > 0"),
                                                (0.05, 0.0, "0 < xi2 < 1/(2*c0)")],
                             ids=["xi1-zero", "xi2-zero"])
    def test_zero_xi_exits_2_without_traceback(self, tmp_path, capsys, xi1, xi2, rule):
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        with open(os.path.join(root, "test2.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["certificate"].update(rho1=0.05, rho2=0.3, xi1=xi1, xi2=xi2)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["check-gains", "--config", str(cfg)])
        assert exc.value.code == harness.EXIT_INFEASIBLE
        assert f"certificate infeasible: infeasible perturbed parameters: ['{rule}']" \
            in capsys.readouterr().out

    @pytest.mark.parametrize("explicit_horizon", (False, True))
    def test_zero_c0_exits_2_without_traceback(self, tmp_path, capsys, explicit_horizon):
        # c0 = 0 (the reflective mode) admits no certificate; with an explicit
        # horizon, simulate still runs without one
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        with open(os.path.join(root, "test2.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["gains"]["c0"] = 0.0
        doc["horizon"] = 0.5 if explicit_horizon else None
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["check-gains", "--config", str(cfg)])
        assert exc.value.code == harness.EXIT_INFEASIBLE
        assert "certificate infeasible: certificates require c0 > 0" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        out = capsys.readouterr().out
        if explicit_horizon:
            assert exc.value.code == harness.EXIT_OK
            assert os.path.exists(tmp_path / "test2.csv")
        else:
            assert exc.value.code == harness.EXIT_INFEASIBLE
            assert "no explicit horizon: certificates require c0 > 0" in out

    @pytest.mark.parametrize("section, fields, refused", [
        ("certificate", {"rho1": 5e-324, "rho2": 0.5},
         "certified decay rate alpha = 0.0 is not positive"),
        ("certificate", {"rho1": 1e-320, "rho2": 0.5}, None),
        ("gains", {"k2": 5e-323}, "no grid point yields a positive decay rate"),
        ("gains", {"k2": 1e-310}, None)],
        ids=["rho1-zero-rate", "rho1-subnormal-rate", "k2-zero-rate", "k2-subnormal-rate"])
    def test_underflowed_rate_exits_2_without_traceback(self, tmp_path, capsys, section,
                                                        fields, refused):
        # subnormal inputs underflow the certified rate: a zero rate admits no
        # certificate, and a subnormal one no finite horizon
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        with open(os.path.join(root, "test1.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc[section].update(fields)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["check-gains", "--config", str(cfg)])
        out = capsys.readouterr().out
        if refused:
            assert exc.value.code == harness.EXIT_INFEASIBLE
            assert f"  certificate infeasible: {refused}\n" in out
        else:
            assert exc.value.code == harness.EXIT_OK
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert exc.value.code == harness.EXIT_INFEASIBLE and err == ""
        reason = re.escape(refused) if refused else r"decay rate \S+ 1/s gives no finite horizon"
        assert re.fullmatch(f"infeasible certificate and no explicit horizon: {reason}\n", out), out

    @pytest.mark.parametrize("verbatim_fails", (False, True))
    def test_verbatim_iss_is_contractual(self, tmp_path, monkeypatch, verbatim_fails):
        # both ISS variants hold on preset 2, so one case adds a verbatim violation
        monkeypatch.setattr(harness, "derive_horizon", lambda cert, regime: 20.0)
        if verbatim_fails:
            iss_check = harness.analysis.iss_check

            def failing_verbatim(*args):
                rep = iss_check(*args)
                return dict(rep, iss_verbatim=harness.replace(
                    rep["iss_verbatim"], violations=((0.0, 2.0, 1.0),), worst_ratio=1.0))

            monkeypatch.setattr(harness.analysis, "iss_check", failing_verbatim)
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--test", "2", "--verbatim-iss", "--out", str(tmp_path)])
        with open(tmp_path / "test2" / "summary.json", encoding="utf-8") as fh:
            checks = json.load(fh)["checks"]
        assert checks["iss_contractual"] == checks["iss_verbatim"]
        assert checks["iss_verbatim"]["ok"] is not verbatim_fails
        assert checks["iss_conservative"]["ok"]
        assert exc.value.code == (harness.EXIT_BOUND_VIOLATION if verbatim_fails
                                  else harness.EXIT_OK)

    def test_passing_final_error_check_reports_no_ratio(self, tmp_path, monkeypatch):
        # 20 s of preset 1 leave the error between 0 and 1% of its start; the
        # passing check reports worst_ratio 0, as every other check does
        monkeypatch.setattr(harness, "derive_horizon", lambda cert, regime: 20.0)
        result = harness.run_reproduce(1, str(tmp_path))
        l2 = result.series.column("l2_error")
        assert result.exit_code == harness.EXIT_OK and 0.0 < l2[-1] < 0.01 * l2[0]
        with open(result.paths["summary"], encoding="utf-8") as fh:
            checks = json.load(fh)["checks"]
        assert checks["final_error_below_1pct"] == {"ok": True, "violations": 0,
                                                    "worst_ratio": 0.0}

    @pytest.mark.parametrize("row, message", [
        ("1.0,0.0,0.0", "line 3, column G2: the row has 3 cells, the header 16"),
        (",".join(["1.0"] * 17), "line 3, column 17: the row has 17 cells, the header 16"),
        (",".join(["1.0"] * 5 + ["abc"] + ["1.0"] * 10),
         "line 3, column V0: 'abc' is not a number"),
        (",".join(["nan"] + ["1.0"] * 15), "line 3, column t: 'nan' is not a finite number"),
        (",".join(["1.0"] * 4 + ["inf"] + ["1.0"] * 11),
         "line 3, column V: 'inf' is not a finite number"),
        (",".join([""] + ["1.0"] * 15), "line 3, column t: '' is not a number"),
    ], ids=["short-row", "long-row", "non-numeric-cell", "nan-time", "inf-cell", "blank-time"])
    def test_malformed_csv_exits_1_without_traceback(self, tmp_path, capsys, row, message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([",".join(harness.CSV_COLUMNS), ",".join(["0.0"] * 16), row]))
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(path)])
        assert exc.value.code == harness.EXIT_USAGE
        assert capsys.readouterr().out == f"format error: {path}: {message}\n"

    @pytest.mark.parametrize("command, data, stream, message", [
        ("analyze", ",".join(harness.CSV_COLUMNS).encode() + b"\n\xff\n", "stdout",
         "format error: {path}: 'utf-8' codec can't decode byte 0xff"),
        ("check-gains", "{}".encode("utf-16"), "stderr",
         "config error: cannot read config {path}: 'utf-8' codec can't decode byte 0xff"),
        ("check-gains", b"[" * 100_000, "stderr",
         "config error: configuration is not valid JSON: maximum recursion depth exceeded"),
    ], ids=["analyze-non-utf8", "config-utf16-bom", "config-deeply-nested"])
    def test_undecodable_input_exits_1_without_traceback(self, tmp_path, command, data,
                                                         stream, message):
        path = tmp_path / "input"
        path.write_bytes(data)
        args = [str(path)] if command == "analyze" else ["--config", str(path)]
        src = os.path.dirname(os.path.dirname(harness.__file__))
        proc = subprocess.run([sys.executable, "-m", "waveconsensus.cli", command, *args],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        text = getattr(proc, stream)
        assert proc.returncode == 1
        assert text.startswith(message.format(path=path)) and text.count("\n") == 1, text
        assert proc.stdout + proc.stderr == text

    def test_diverging_run_exits_3(self, tmp_path, capsys):
        doc = json.loads(MINIMAL)
        sig = {"kind": "sinusoid", "amplitude": 1e14, "angular_frequency": 10.0}
        doc.update(horizon=1.0, grid={"nx": 21}, disturbances={"psi1": [sig] * 3})
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == harness.EXIT_DIVERGED
        out, err = capsys.readouterr()
        assert out.startswith("solver diverged: ") and out.count("\n") == 1 and err == ""

    def test_env_var_out_dir(self, monkeypatch):
        monkeypatch.setenv(harness.ENV_OUT_DIR, "/tmp/somewhere")
        assert harness.default_out_dir(None) == "/tmp/somewhere"
        assert harness.default_out_dir("/explicit") == "/explicit"
