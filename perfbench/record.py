"""Record the reference data that perfbench/run.py checks and compares with.

    python3 perfbench/record.py fingerprints --seeds 0-99
        Runs one untraced iteration of each preset, and of network-n24 for
        every listed seed, and writes perfbench/fingerprints.json.
    python3 perfbench/record.py baseline
        Collects the run records in perfbench/.out/ into
        perfbench/baseline.json: per workload, every run's end-to-end
        metrics, raw wall time and yardstick time with their median,
        quartiles and spread, and the traced per-layer metrics and
        stepping profile.

Record both at the commit whose results are to serve as the reference.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

import run
from workloads import LAYER_METRICS, WORKLOADS


def record_fingerprints(seeds) -> dict:
    table = {}
    for wl in WORKLOADS.values():
        seeded = wl.command == "simulate"
        for seed in seeds if seeded else (0,):
            it, _ = run.run_child(wl, seed)
            if it["problems"]:
                raise SystemExit(f"{wl.name} seed {seed}: {it['problems']}")
            key = str(seed) if seeded else "*"
            table.setdefault(wl.name, {})[key] = {k: it["fingerprint"][k] for k in wl.fingerprint}
            print(wl.name, key, table[wl.name][key], flush=True)
    return table


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def collect_baseline() -> dict:
    records = []
    for path in sorted(glob.glob(os.path.join(run.OUT, "*.json"))):
        with open(path) as fh:
            records.append(json.load(fh))
    if not records:
        raise SystemExit(f"no run records in {run.OUT}")
    out = {"machine": records[0]["machine"], "workloads": {},
           "predictions": {k: {"unit": unit, "moves": moves, "where": where}
                           for k, (unit, moves, where) in LAYER_METRICS.items()}}
    for name in WORKLOADS:
        mine = [r for r in records if r["workload"] == name]
        plain = sorted((r for r in mine if not r["trace"]), key=lambda r: r["seed"])
        traced = [r for r in mine if r["trace"]]
        entry = {"seeds": [r["seed"] for r in plain],
                 "attempted": sum(r["attempted"] for r in mine),
                 "failed": sum(r["failed"] for r in mine), "end_to_end": {}}
        for metric in run.END_TO_END:
            values = [r["metrics"][metric]["value"] for r in plain if metric in r["metrics"]]
            if len(values) >= 2:
                entry["end_to_end"][metric] = {"values": values, **spread(values)}
        for key in ("wall_s", "yardstick_s"):  # the two times wall_rel divides
            values = [r[key] for r in plain if key in r]
            if len(values) >= 2:
                entry[key] = {"values": values, **spread(values)}
        if traced:
            entry["per_layer"] = {k: m["value"] for k, m in traced[0]["metrics"].items()}
            entry["stepping_profile"] = traced[0]["profile"]
        out["workloads"][name] = entry
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("what", choices=("fingerprints", "baseline"))
    ap.add_argument("--seeds", default="0-99", help="network seeds, as FIRST-LAST")
    args = ap.parse_args(argv)
    if args.what == "fingerprints":
        first, last = (int(x) for x in args.seeds.split("-"))
        data = {"machine": run.machine_record(),
                **record_fingerprints(range(first, last + 1))}
        path = os.path.join(run.HERE, "fingerprints.json")
    else:
        data = collect_baseline()
        path = os.path.join(run.HERE, "baseline.json")
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", path)


if __name__ == "__main__":
    sys.exit(main())
