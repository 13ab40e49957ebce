"""The outputs table: the sha256 of every file `reproduce --test all` writes
and of network-n24's `network.csv` for seeds 0 and 1, with the machine they
were made on.

    python3 bench/outputs.py BENCH_32.json          # measure and write
    python3 bench/outputs.py --check BENCH_32.json  # measure and compare

Run from the root of a source checkout: the CLI runs from `src/` in fresh
processes at one BLAS thread. The network config and the machine record come
from perfbench's own modules, which are only read (no bytecode is written
there). The hashes hold for one BLAS build, CPU kernel and thread count, so
they are a record for this kind of machine, not a test: `--check` exits 1
and names each file whose hash moved, and prints the recorded machine next
to this one.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # perfbench's modules are only read
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from run import BLAS_THREADS, machine_record as perfbench_machine  # noqa: E402
from workloads import network_config  # noqa: E402

SEEDS = (0, 1)


def machine_record() -> dict:
    """perfbench's machine record, plus the BLAS build numpy reports."""
    try:  # numpy >= 1.25
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {**perfbench_machine(), "blas": blas}


def _cli(args, out):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    subprocess.run([sys.executable, "-m", "waveconsensus.cli", *args, "--out", out],
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def outputs() -> dict:
    """{file: sha256}: reproduce/test<i>/<file> and network-n24/seed<s>/network.csv."""
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        _cli(["reproduce", "--test", "all"], os.path.join(tmp, "reproduce"))
        for seed in SEEDS:
            cfg = os.path.join(tmp, f"network{seed}.json")
            with open(cfg, "w") as fh:
                json.dump(network_config(seed, 24, 101, 120.0), fh)
            _cli(["simulate", "--config", cfg], os.path.join(tmp, "network-n24", f"seed{seed}"))
        for top, _, files in os.walk(tmp):
            for name in files:
                path = os.path.join(top, name)
                if os.path.dirname(path) != tmp:  # not the configs
                    table[os.path.relpath(path, tmp).replace(os.sep, "/")] = _sha256(path)
    return dict(sorted(table.items()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("path", help="the BENCH JSON file to write, or to check against")
    ap.add_argument("--check", action="store_true", help="compare instead of writing")
    args = ap.parse_args(argv)
    record = {"machine": machine_record(), "outputs": outputs()}
    if not args.check:
        with open(args.path, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        return 0
    with open(args.path) as fh:
        kept = json.load(fh)
    moved = sorted(name for name in kept["outputs"].keys() | record["outputs"].keys()
                   if kept["outputs"].get(name) != record["outputs"].get(name))
    for name in moved:
        print(f"{name}: {kept['outputs'].get(name)} -> {record['outputs'].get(name)}")
    for name, value in kept["machine"].items():
        if record["machine"].get(name) != value:
            print(f"machine {name}: recorded {value!r}, here {record['machine'].get(name)!r}")
    print(f"{len(moved)} of {len(kept['outputs'])} outputs moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
