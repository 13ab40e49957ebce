"""Benchmark of the waveconsensus toolkit's user flows.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each iteration of the workload runs
in a fresh child process (child.py): a simulation (`reproduce` or
`simulate`), then `analyze` on the CSV it wrote. Iterations repeat, one at
a time (a closed loop with one client), until S seconds are used; at least
one always runs. Set-up is measured at least MIN_SETUPS times per run: when
fewer full iterations fit, extra children stop at the first time step.

Every full iteration's outputs are checked (exit codes, the contractual
checks in summary.json, analyze's ISS violation count, and a fingerprint
against fingerprints.json). With --trace 0 the last stdout line reports the
end-to-end metrics, medians over the run's iterations: wall_rel is each
iteration's wall time (spawn to the end of `analyze`) divided by the time
of a fixed computation run just before and after it (yardstick_s). With
--trace 1 it reports the per-layer metrics of traced iterations, each
paired with an untraced one to give the tracing overhead. The full record,
including every iteration's raw wall time and the windowed stepping
profile, is written to perfbench/.out/.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

from workloads import CHECK_SPANS, END_TO_END, LAYER_METRICS, WORKLOADS, network_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")

MIN_SETUPS = 5
RUN_LIMIT_S = 170.0        # every child is killed past this point of the run
BLAS_THREADS = "1"
FINGERPRINT_RTOL = 1e-6    # loose enough for a declared summation-order change
WINDOW_ROUNDS = 10         # observer rounds (stride steps each) per window
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
CONTRACTUAL = ("monotone_V", "envelope", "pointwise", "final_error_below_1pct",
               "iss_contractual")


def machine_record() -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": int(BLAS_THREADS), "commit": commit}


def yardstick_s() -> float:
    """Time of a fixed computation that uses no code of the repository:
    small numpy operations in an interpreter loop (like a time step), plain
    interpreter work, and passes over 32 MB (like the propagator build).

    A shared host's speed drifts by up to 1.6x over minutes, on both CPUs
    at once, so one run can fall wholly in a slow phase. Wall time divided
    by this time, taken beside it, drifts much less: over ten runs on a
    2-core Xeon its spread was 6-7% of the median, against 10-13% for raw
    wall time. A change to the program moves the wall time alone."""
    t0 = time.perf_counter()
    m = np.random.default_rng(0).standard_normal((64, 64)) / 16.0
    x = np.ones(64)
    for _ in range(12000):
        x = m @ x
        x /= np.abs(x).max()
    total = 0
    for i in range(600_000):
        total += i * i
    big = np.ones(4_000_000)
    for _ in range(16):
        big += 1.0
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# one child process


def _commands(wl, seed, work):
    if wl.command == "reproduce":
        tag = f"test{wl.test_id}"
        return ([["reproduce", "--test", str(wl.test_id), "--out", work],
                 ["analyze", os.path.join(work, tag, f"{tag}.csv")]],
                os.path.join(work, tag))
    config = network_config(seed, wl.followers, wl.nx, wl.horizon)
    path = os.path.join(work, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    return ([["simulate", "--config", path, "--out", work],
             ["analyze", os.path.join(work, config["output"]["csv"])]], work)


def run_child(wl, seed, *, trace=False, setup_only=False, timeout=RUN_LIMIT_S):
    """Run one iteration in a fresh process; returns its measurements, the
    child's own record and, for a full iteration, its output check."""
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        commands, out_dir = _commands(wl, seed, work)
        spec = {"src": SRC, "commands": commands, "trace": trace,
                "setup_only": setup_only, "horizon_divisor": wl.horizon_divisor,
                "result": os.path.join(work, "child.json")}
        spec_path = os.path.join(work, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = BLAS_THREADS
        with open(os.path.join(work, "stdout.txt"), "w") as out, \
                open(os.path.join(work, "stderr.txt"), "w") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                                    stdout=out, stderr=err, cwd=work, env=env)
            timer = threading.Timer(max(timeout, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted or terminated: stop the child too
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        it = {"exit": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "process_s": time.monotonic() - t_spawn, "problems": []}
        child = {}
        if os.path.exists(spec["result"]):
            with open(spec["result"]) as fh:
                child = json.load(fh)
        stamps = child.get("stamps", {})
        if proc.returncode != 0 or "first_step" not in stamps:
            with open(os.path.join(work, "stderr.txt")) as fh:
                tail = fh.read()[-2000:]
            it["problems"].append(f"child exited {proc.returncode} before a time step: {tail}")
            return it, child
        it["setup_s"] = stamps["first_step"] - t_spawn
        if not setup_only:
            it["wall_s"] = stamps["end"] - t_spawn
            with open(os.path.join(work, "stdout.txt")) as fh:
                stdout = fh.read()
            problems, fingerprint = check_outputs(wl, out_dir, commands[-1][1], child, stdout)
            it["problems"] += problems
            it["fingerprint"] = fingerprint
        return it, child
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# output check


def _read_columns(path, names):
    cols = {n: [] for n in names}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            for n in names:
                cols[n].append(float(row[n]) if row[n] else math.nan)
    return cols


def fingerprint_of(path) -> dict:
    """V(0) and the steady-state mean of ||u~|| over the last 20% of the
    run, recomputed from the CSV itself."""
    cols = _read_columns(path, ("t", "V", "l2_err"))
    t, v, l2 = (np.asarray(cols[n]) for n in ("t", "V", "l2_err"))
    window = t >= t[-1] - 0.2 * (t[-1] - t[0])
    return {"V0": float(v[0]), "steady_mean_l2": float(np.mean(l2[window])),
            "rows": int(t.size)}


def check_outputs(wl, out_dir, csv_path, child, stdout):
    """Problems with one iteration's outputs (empty when it passed), and
    its fingerprint."""
    problems = []
    codes = child.get("codes", [])
    if codes != [0, 0]:
        problems.append(f"command exit codes {codes}, expected [0, 0]")
    if wl.command == "reproduce":
        try:
            with open(os.path.join(out_dir, "summary.json")) as fh:
                checks = json.load(fh)["checks"]
            contractual = [c for c in CONTRACTUAL if c in checks]
            if not contractual:
                problems.append("summary.json lists no contractual check")
            problems += [f"contractual check {c} failed" for c in contractual
                         if not checks[c]["ok"]]
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"summary.json unreadable: {exc}")
    try:
        fingerprint = fingerprint_of(csv_path)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return problems + [f"CSV unreadable: {exc}"], {}
    m = re.search(r"iss_bound_conservative: (\d+) violations / (\d+)", stdout)
    if not m:
        problems.append("analyze printed no ISS violation count")
    elif int(m.group(1)) != 0 or int(m.group(2)) != fingerprint["rows"]:
        problems.append(f"analyze: {m.group(0)} (expected 0 violations / "
                        f"{fingerprint['rows']})")
    return problems, fingerprint


def fingerprint_problems(wl, fingerprint, reference) -> list:
    return [f"fingerprint {key} = {fingerprint.get(key)!r}, recorded {reference[key]!r}"
            for key in wl.fingerprint
            if not (isinstance(fingerprint.get(key), float)
                    and math.isclose(fingerprint[key], reference[key],
                                     rel_tol=FINGERPRINT_RTOL))]


def load_fingerprints():
    with open(os.path.join(HERE, "fingerprints.json")) as fh:
        return json.load(fh)


def reference_for(table, wl, seed):
    recorded = table.get(wl.name, {})
    return recorded.get(str(seed), recorded.get("*"))


# ---------------------------------------------------------------------------
# per-layer metrics of one traced iteration


def tail_percentile(count: int) -> float:
    """Highest percentile with at least ten values beyond it."""
    fitting = [p for p in PERCENTILES if count * (1.0 - p / 100.0) >= 10.0]
    return fitting[-1] if fitting else PERCENTILES[0]


def stepping_profile(sample_steps, sample_self) -> dict:
    """Self microseconds per step, per window of WINDOW_ROUNDS observer
    rounds and per decile of the run (observer time already excluded)."""
    steps = np.diff(np.concatenate([[-1], np.asarray(sample_steps)]))
    self_s = np.asarray(sample_self)
    cuts = np.arange(WINDOW_ROUNDS, steps.size, WINDOW_ROUNDS)
    windows = [float(s.sum() / n.sum() * 1e6)
               for s, n in zip(np.split(self_s, cuts), np.split(steps, cuts))]
    parts = 10 if steps.size >= 10 else 1  # tiny runs: one part, repeated
    deciles = [float(s.sum() / n.sum() * 1e6)
               for s, n in zip(np.array_split(self_s, parts), np.array_split(steps, parts))]
    deciles *= 10 // parts
    return {"window_steps": WINDOW_ROUNDS * int(np.median(steps)),
            "windows_us": windows, "deciles_us": deciles}


def layer_metrics(wl, child, wall_s) -> tuple:
    """(metrics, stepping profile, spans that never fired)."""
    tr = child["trace"]
    d = tr["durations"]

    def total(*names):
        return sum(sum(d.get(n, ())) for n in names)

    missing = [s for s in wl.spans if not d.get(s)]
    if missing:
        return {}, {}, missing
    profile = stepping_profile(tr["sample_steps"], tr["sample_self"])
    samples_us = [x * 1e6 for x in d["analysis.lyapunov_sample"]]
    step_pct = tail_percentile(len(profile["windows_us"]))
    sample_pct = tail_percentile(len(samples_us))
    svg = ("svgplot.line_plot", "svgplot.heatmap")
    m = {
        "cli.import_s": child["import_s"],
        "graph.eig_us": statistics.median(d["graph.eig_extremes_sym"]) * 1e6,
        "certificate.optimize_s": total("certificate.optimize_certificate"),
        "wavesim.build_s": total("wavesim.Simulation.__init__"),
        "wavesim.build_rss_mb": tr["build_rss_mb"],
        "wavesim.steps": tr["steps"],
        "wavesim.step_self_s": total("wavesim.step_self"),
        "wavesim.step_us.p50": float(np.percentile(profile["windows_us"], 50.0)),
        "wavesim.step_us.ptail": float(np.percentile(profile["windows_us"], step_pct)),
        "wavesim.step_us.ptail_pct": step_pct,
        **{f"wavesim.step_us.decile{i + 1}": v for i, v in enumerate(profile["deciles_us"])},
        "analysis.samples": len(samples_us),
        "analysis.sample_us.p50": float(np.percentile(samples_us, 50.0)),
        "analysis.sample_us.ptail": float(np.percentile(samples_us, sample_pct)),
        "analysis.sample_us.ptail_pct": sample_pct,
        "analysis.checks_s": total(*CHECK_SPANS),
        "harness.csv_write_s": total("harness.write_csv"),
        "harness.csv_bytes": tr["bytes"].get("harness.write_csv", 0),
        "harness.csv_read_s": total("harness.read_csv"),
        "svgplot.write_s": total(*svg),
        "svgplot.bytes": sum(tr["bytes"].get(s, 0) for s in svg),
    }
    accounted = (child["import_s"] + total("graph.eig_extremes_sym")
                 + m["certificate.optimize_s"] + m["wavesim.build_s"]
                 + total("wavesim.Simulation.run") + m["analysis.checks_s"]
                 + m["harness.csv_write_s"] + m["harness.csv_read_s"] + m["svgplot.write_s"])
    m["trace.accounted_share"] = accounted / wall_s
    return m, profile, []


# ---------------------------------------------------------------------------
# one benchmark run


def measure(wl, seed, seconds, trace, fingerprints):
    """Run the workload for `seconds`; returns the run's record."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c",  # warm the import caches, untimed
                    f"import sys; sys.path.insert(0, {SRC!r}); import waveconsensus.cli"],
                   check=True)
    reference = reference_for(fingerprints, wl, seed)
    iterations, probes, layers, profiles, failures = [], [], [], [], []
    yardsticks = [] if trace else [yardstick_s()]

    def remaining():
        return RUN_LIMIT_S - (time.monotonic() - start)

    def full(traced):
        it, child = run_child(wl, seed, trace=traced, timeout=remaining())
        it["traced"] = traced
        nonlocal reference
        if it.get("fingerprint") and not it["problems"]:
            if reference is None:  # unrecorded seed: iterations must agree
                reference = {k: it["fingerprint"][k] for k in wl.fingerprint}
                it["reference"] = "first iteration (seed not recorded)"
            it["problems"] += fingerprint_problems(wl, it["fingerprint"], reference)
        if traced and not it["problems"]:
            m, profile, missing = layer_metrics(wl, child, it["wall_s"])
            if missing:
                raise SystemExit(f"span coverage: {', '.join(missing)} never fired "
                                 f"on workload {wl.name}; a wrapper is in the wrong place")
            layers.append(m)
            profiles.append(profile)
        if not trace:  # one yardstick before and one after each iteration
            yardsticks.append(yardstick_s())
            it["yardstick_s"] = (yardsticks[-2] + yardsticks[-1]) / 2.0
        iterations.append(it)
        if it["problems"]:
            failures.append(it["problems"])
        return it["process_s"]

    durations = []
    while True:
        if trace:  # alternate which side of the pair runs first
            order = (False, True) if len(durations) % 2 == 0 else (True, False)
            durations.append(sum(full(t) for t in order))
        else:
            durations.append(full(False))
        used = time.monotonic() - start
        if used + statistics.median(durations) > seconds or remaining() < 2 * max(durations):
            break
    if not trace:
        while (len([i for i in iterations if "setup_s" in i]) + len(probes) < MIN_SETUPS
               and remaining() > 30.0):
            it, _ = run_child(wl, seed, setup_only=True, timeout=remaining())
            probes.append(it)
            if it["problems"]:
                failures.append(it["problems"])

    attempted = len(iterations) + len(probes)
    record = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine_record(), "attempted": attempted,
              "failed": len(failures), "failures": failures,
              "iterations": iterations, "probes": probes}
    untraced = [i for i in iterations if not i["traced"] and "wall_s" in i]
    if trace:
        traced = [i for i in iterations if i["traced"] and "wall_s" in i]
        metrics = {}
        if layers and untraced:
            for name in layers[0]:
                metrics[name] = statistics.median(m[name] for m in layers)
            metrics["trace_overhead"] = (statistics.median(i["wall_s"] for i in traced)
                                         / statistics.median(i["wall_s"] for i in untraced)
                                         - 1.0)
        record["profile"] = profiles[0] if profiles else None
        units = {k: LAYER_METRICS[k][0] for k in metrics}
    else:
        setups = [i["setup_s"] for i in iterations + probes if "setup_s" in i]
        metrics = {}
        if untraced and setups:
            metrics = {"wall_rel": statistics.median(i["wall_s"] / i["yardstick_s"]
                                                     for i in untraced),
                       "setup_s": statistics.median(setups),
                       "peak_rss_mb": statistics.median(i["peak_rss_mb"] for i in untraced)}
            record["wall_s"] = statistics.median(i["wall_s"] for i in untraced)
            record["yardstick_s"] = statistics.median(yardsticks)
        units = END_TO_END
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return record


def report(record) -> str:
    lines = [f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}: "
             f"{len(record['iterations'])} iterations, {len(record['probes'])} set-up probes"]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:<30} {m['value']:>14.6g} {m['unit']}")
    if "wall_s" in record:
        lines.append(f"  (wall_s {record['wall_s']:.6g} s over yardstick_s "
                     f"{record['yardstick_s']:.6g} s, medians)")
    rate = record["failed"] / record["attempted"]
    lines.append(f"  {'fail_rate':<30} {rate:>14.6g} ratio "
                 f"({record['failed']} failed / {record['attempted']} attempted)")
    for problems in record["failures"]:
        lines.append("  FAILED: " + "; ".join(problems))
    profile = record.get("profile")
    if profile:
        lines.append("  stepping self us/step by decile: "
                     + " ".join(f"{v:.1f}" for v in profile["deciles_us"]))
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "waveconsensus", "__init__.py")):
        print(f"no waveconsensus sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    record = measure(wl, args.seed, args.seconds, bool(args.trace), load_fingerprints())
    path = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(report(record))
    expected = LAYER_METRICS if args.trace else END_TO_END
    if set(record["metrics"]) != set(expected):
        print("no complete set of metrics was measured; see " + path, file=sys.stderr)
        return 1
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
