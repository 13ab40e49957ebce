"""The names the benchmark in perfbench/ relies on: the spans its traced
runs wrap, the ISS check it times, and the contractual checks it reads from
summary.json. perfbench's files are read as source, never imported or run."""
import ast
import functools
import importlib
import json
import os

import pytest

from waveconsensus import analysis, harness

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def constant(filename, name):
    """The literal value of a top-level assignment in a perfbench file."""
    with open(os.path.join(PERFBENCH, filename), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == name for target in node.targets))


@pytest.mark.parametrize("group", ("COMMON_SPANS", "PLOT_SPANS", "CHECK_SPANS"))
def test_every_span_names_an_attribute(group):
    for span in constant("workloads.py", group):
        module, *path = span.split(".")
        owner = importlib.import_module(f"waveconsensus.{module}")
        assert callable(functools.reduce(getattr, path, owner)), span


@pytest.fixture(scope="module")
def short_runs(tmp_path_factory):
    """20 s of presets 1 and 2, counting the calls of `analysis.iss_check`
    through a wrapper set on the module, as perfbench's traced run sets it."""
    calls = []
    iss_check = analysis.iss_check

    def counted(*args, **kwargs):
        calls.append(args)
        return iss_check(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "derive_horizon", lambda cert, regime: 20.0)
        mp.setattr(analysis, "iss_check", counted)
        out = tmp_path_factory.mktemp("hooks")
        results = {tid: harness.run_reproduce(tid, str(out)) for tid in (1, 2)}
    return results, calls


def test_the_disturbed_run_calls_the_wrapped_iss_check(short_runs):
    results, calls = short_runs
    assert all(r.exit_code == harness.EXIT_OK for r in results.values())
    assert len(calls) == 1 and calls[0][1].regime == "perturbed"


def test_each_regime_reports_its_contractual_checks(short_runs):
    results, _ = short_runs
    names = {}
    for tid, result in results.items():
        with open(result.paths["summary"], encoding="utf-8") as fh:
            names[result.certificate.regime] = set(json.load(fh)["checks"])
    contractual = constant("run.py", "CONTRACTUAL")
    assert {c for c in contractual if c.startswith("iss_")} <= names["perturbed"]
    assert {c for c in contractual if not c.startswith("iss_")} <= names["unperturbed"]
