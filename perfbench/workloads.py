"""Workload definitions, the seeded network generator and the layer table.

A workload is one user flow of the toolkit: a simulation (`reproduce` or
`simulate`) followed by `analyze` on the CSV it wrote, run in a fresh
process. The layer table (`LAYER_METRICS`) records, before any measurement,
which end-to-end metric each per-layer metric should move and on which
workload; each workload's `spans` are those its traced run must see fire.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Spans every workload fires. The names are "module.function" of the public
# functions the traced child wraps (see child.py).
COMMON_SPANS = (
    "graph.eig_extremes_sym", "certificate.optimize_certificate",
    "wavesim.Simulation.__init__", "wavesim.Simulation.run",
    "analysis.lyapunov_sample", "harness.write_csv", "harness.read_csv",
)
PLOT_SPANS = ("svgplot.line_plot", "svgplot.heatmap")
CHECK_SPANS = ("analysis.iss_check",)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    command: str              # "reproduce" or "simulate"
    spans: tuple              # spans the traced run must see fire
    fingerprint: tuple        # fingerprint keys checked against the record
    test_id: int = 0          # reproduce: preset id
    horizon_divisor: int = 1  # reproduce: certificate-derived horizon / divisor
    followers: int = 0        # simulate: network size
    nx: int = 101             # simulate: grid points per agent
    horizon: float = 0.0      # simulate: explicit horizon in seconds


# A run reports medians over its iterations, so an iteration must be short
# enough that about ten fit in one run. preset2's per-step and per-sample
# costs are uniform in time, so 1/16 of its horizon keeps every layer it
# exercises. network-n24 uses nx=101 so the dense (2 n nx)^2
# propagator build peaks near 0.4 GB. The undisturbed preset is not a
# workload: its subnormal tail comes only at the end of its full
# certificate horizon, one ~40 s iteration per run.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="preset2-disturbed",
            command="reproduce", test_id=2, horizon_divisor=16,
            spans=COMMON_SPANS + PLOT_SPANS + CHECK_SPANS,
            fingerprint=("V0", "steady_mean_l2")),
        Workload(
            name="network-n24",
            command="simulate", followers=24, nx=101, horizon=120.0,
            spans=COMMON_SPANS,
            fingerprint=("V0", "steady_mean_l2")),
    )
}

# Per-layer metric -> (unit, end-to-end metric it should move, where it
# mostly shows). Written before measuring; a perf change names its claim
# as one of these on one workload. `signals` has no public per-step entry
# point, so its cost (the per-step disturbance injection) shows inside
# wavesim.step_us on both workloads; `cli` shows as cli.import_s.
LAYER_METRICS = {
    "cli.import_s": ("s", "setup_s", "all workloads"),
    "graph.eig_us": ("us", "setup_s", "all workloads (tiny)"),
    "certificate.optimize_s": ("s", "setup_s", "all workloads (perturbed 4-D scan)"),
    "wavesim.build_s": ("s", "setup_s", "network-n24"),
    "wavesim.build_rss_mb": ("MB", "peak_rss_mb", "network-n24"),
    "wavesim.steps": ("count", "normaliser", "all workloads"),
    "wavesim.step_self_s": ("s", "wall_rel", "preset2-disturbed, network-n24"),
    "wavesim.step_us.p50": ("us", "wall_rel", "network-n24 (dense injection matvec), preset2-disturbed"),
    "wavesim.step_us.ptail": ("us", "wall_rel", "all workloads (slow windows)"),
    "wavesim.step_us.ptail_pct": ("%", "percentile used for ptail", "all workloads"),
    **{f"wavesim.step_us.decile{i}": ("us", "wall_rel", "all workloads (stepping profile)")
       for i in range(1, 11)},
    "analysis.samples": ("count", "normaliser", "all workloads"),
    "analysis.sample_us.p50": ("us", "wall_rel", "preset2-disturbed"),
    "analysis.sample_us.ptail": ("us", "wall_rel", "preset2-disturbed"),
    "analysis.sample_us.ptail_pct": ("%", "percentile used for ptail", "all workloads"),
    "analysis.checks_s": ("s", "wall_rel", "preset2-disturbed"),
    "harness.csv_write_s": ("s", "wall_rel", "preset2-disturbed"),
    "harness.csv_bytes": ("B", "wall_rel", "preset2-disturbed"),
    "harness.csv_read_s": ("s", "wall_rel, peak_rss_mb", "preset2-disturbed (analyze)"),
    "svgplot.write_s": ("s", "wall_rel", "preset2-disturbed only"),
    "svgplot.bytes": ("B", "wall_rel", "preset2-disturbed only"),
    "trace_overhead": ("ratio", "traced wall time / untraced wall time - 1", "all workloads"),
    "trace.accounted_share": ("ratio", "summed layer time / traced wall time", "all workloads"),
}

END_TO_END = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}

GAINS = {"k1": 30.0, "k2": 10.0, "c0": 2.5}
DISTURBANCE_AMPLITUDE = 10.0
DISTURBANCE_FREQUENCY = 10.0


def _pinned_lambda_min(adj, pins) -> float:
    import numpy as np

    a = np.asarray(adj, dtype=float)
    m = np.diag(a.sum(axis=1)) - a + np.diag(np.asarray(pins, dtype=float))
    return float(np.linalg.eigvalsh(m)[0])


def network_config(seed: int, n: int, nx: int, horizon: float) -> dict:
    """Seeded connected n-follower config that passes the perturbed gain gate.

    Only `Random.random()` is drawn from, whose sequence Python keeps stable
    across versions for a given integer seed.
    """
    rng = random.Random(seed)

    def pick(k):
        return int(rng.random() * k)

    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = pick(i + 1)
        order[i], order[j] = order[j], order[i]
    adj = [[0] * n for _ in range(n)]
    for i in range(1, n):  # random spanning tree
        a, b = order[i], order[pick(i)]
        adj[a][b] = adj[b][a] = 1
    extra = 0
    while extra < n // 2:  # plus n/2 chords
        a, b = pick(n), pick(n)
        if a != b and not adj[a][b]:
            adj[a][b] = adj[b][a] = 1
            extra += 1
    # perturbed gate: k1 > (c0 + 3) / (2 lam), k2 > 1 / (2 lam); keep a 10% margin
    need = 1.1 * max((GAINS["c0"] + 3.0) / (2.0 * GAINS["k1"]), 1.0 / (2.0 * GAINS["k2"]))
    while True:
        pins = [1 if rng.random() < 0.25 else 0 for _ in range(n)]
        if any(pins) and _pinned_lambda_min(adj, pins) > need:
            break

    def sinusoid():
        return {"kind": "sinusoid", "amplitude": DISTURBANCE_AMPLITUDE,
                "angular_frequency": DISTURBANCE_FREQUENCY,
                "phase": 2.0 * math.pi * rng.random()}

    followers = [{"displacement": {"kind": "cosine",
                                   "amplitude": 20.0 * rng.random() - 10.0,
                                   "spatial_frequency": float(1 + pick(2))},
                  "velocity": {"kind": "polynomial",
                               "coefficients": [0.0, 6.0 * rng.random() - 3.0]}}
                 for _ in range(n)]
    return {
        "topology": {"adjacency": adj, "leader_links": pins},
        "gains": dict(GAINS),
        "grid": {"nx": nx},
        "horizon": horizon,
        "initial_conditions": {
            "leader": {"displacement": {"kind": "cosine", "amplitude": 10.0,
                                        "spatial_frequency": 2.0}},
            "followers": followers},
        "disturbances": {
            "psi0": [sinusoid() for _ in range(n)],
            "psi1": [sinusoid() for _ in range(n)],
            "f": [{"kind": "separable", "temporal": sinusoid(),
                   "spatial": {"kind": "polynomial", "coefficients": [1.0]}}
                  for _ in range(n)]},
        "output": {"csv": "network.csv"},
    }
