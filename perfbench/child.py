"""One workload iteration in a fresh process: `python3 child.py SPEC.json`.

SPEC names the source tree, the `waveconsensus` CLI commands to run (a
simulation, then `analyze`), and whether to trace. The child stamps the
boundary where the first time step begins and the end of the last command
with `time.monotonic()`, which the parent compares with its spawn stamp.

With tracing on, the public functions of each layer are wrapped where the
callers look them up, and the observers handed to `Simulation.run` are
timed so that stepping self time excludes them. Nothing is traced per step;
the run's observers fire once per `stride` steps.
"""
import json
import math
import os
import resource
import sys
import time

T_START = time.monotonic()


class SetupReached(Exception):
    """Raised at the first time step when only the set-up is measured."""


class Tracer:
    def __init__(self):
        self.durations = {}     # span name -> list of seconds
        self.steps = 0
        self.build_rss_mb = 0.0
        self.sample_steps = []  # step index at each observer round
        self.sample_self = []   # stepping self time since the previous round
        self.observer_s = 0.0
        self.bytes = {}

    def add(self, name, seconds):
        self.durations.setdefault(name, []).append(seconds)

    def wrap(self, module, attr, name, *aliases):
        """Time calls to module.attr; aliases are other namespaces that bound
        the same function by name at import."""
        inner = getattr(module, attr)
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                self.add(name, clock() - t0)

        for ns in (module, *aliases):
            setattr(ns, attr, timed)
        return timed


def _rss_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def install(spec, stamps, tracer):
    from waveconsensus import analysis, certificate, graph, harness, svgplot, wavesim

    divisor = spec["horizon_divisor"]
    if divisor != 1:  # workload input: a fixed share of the derived horizon
        derive = harness.derive_horizon
        harness.derive_horizon = lambda cert, regime: float(
            math.ceil(derive(cert, regime) / divisor))

    run = wavesim.Simulation.run
    init = wavesim.Simulation.__init__
    setup_only = spec["setup_only"]

    if tracer is None:
        def stamped_run(self, horizon, observers=(), stride=10):
            stamps.setdefault("first_step", time.monotonic())
            if setup_only:
                raise SetupReached
            return run(self, horizon, observers=observers, stride=stride)

        wavesim.Simulation.run = stamped_run
        return

    clock = time.perf_counter
    last_exit = [0.0]

    def tick(sp):
        now = clock()
        tracer.sample_steps.append(sp.step_index)
        tracer.sample_self.append(now - last_exit[0])

    def timed_observer(obs):
        def call(sp):
            t0 = clock()
            try:
                return obs(sp)
            finally:
                t1 = clock()
                tracer.observer_s += t1 - t0
                last_exit[0] = t1
        return call

    def traced_run(self, horizon, observers=(), stride=10):
        stamps.setdefault("first_step", time.monotonic())
        if setup_only:
            raise SetupReached
        wrapped = [tick, *(timed_observer(o) for o in observers)]
        t0 = last_exit[0] = clock()
        tracer.observer_s = 0.0
        try:
            tracer.steps = run(self, horizon, observers=wrapped, stride=stride)
        finally:
            span = clock() - t0
            tracer.add("wavesim.Simulation.run", span)
            tracer.add("wavesim.step_self", span - tracer.observer_s)
        return tracer.steps

    def traced_init(self, *args, **kwargs):
        rss0 = _rss_mb()
        t0 = clock()
        try:
            init(self, *args, **kwargs)
        finally:
            tracer.add("wavesim.Simulation.__init__", clock() - t0)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            tracer.build_rss_mb = max(tracer.build_rss_mb, peak - rss0)

    wavesim.Simulation.run = traced_run
    wavesim.Simulation.__init__ = traced_init

    # Patch each name where its caller looks it up: harness bound
    # eig_extremes_sym at import; simulate imports lyapunov_sample from
    # analysis at call time; the rest are module attribute lookups.
    tracer.wrap(graph, "eig_extremes_sym", "graph.eig_extremes_sym", harness)
    tracer.wrap(certificate, "optimize_certificate", "certificate.optimize_certificate")
    tracer.wrap(analysis, "lyapunov_sample", "analysis.lyapunov_sample")
    tracer.wrap(analysis, "iss_check", "analysis.iss_check")
    for module, name, tag in ((harness, "write_csv", "harness.write_csv"),
                              (svgplot, "line_plot", "svgplot.line_plot"),
                              (svgplot, "heatmap", "svgplot.heatmap")):
        timed = tracer.wrap(module, name, tag)

        def sized(path, *args, _timed=timed, _tag=tag, **kwargs):
            result = _timed(path, *args, **kwargs)
            tracer.bytes[_tag] = tracer.bytes.get(_tag, 0) + os.path.getsize(path)
            return result

        setattr(module, name, sized)
    tracer.wrap(harness, "read_csv", "harness.read_csv")


def invoke(cli, argv):
    try:
        cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return 0


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import waveconsensus
    from waveconsensus import cli
    import_s = time.perf_counter() - t0
    if not waveconsensus.__file__.startswith(spec["src"]):
        raise SystemExit(f"waveconsensus imported from {waveconsensus.__file__}, "
                         f"not from {spec['src']}")
    stamps = {}
    tracer = Tracer() if spec["trace"] else None
    install(spec, stamps, tracer)
    codes = []
    try:
        for argv in spec["commands"]:
            codes.append(invoke(cli, argv))
            sys.stdout.flush()
    except SetupReached:
        pass
    stamps["end"] = time.monotonic()
    result = {"start": T_START, "stamps": stamps, "codes": codes, "import_s": import_s}
    if tracer is not None:
        result["trace"] = {
            "durations": tracer.durations,
            "steps": tracer.steps, "build_rss_mb": tracer.build_rss_mb,
            "sample_steps": tracer.sample_steps, "sample_self": tracer.sample_self,
            "bytes": tracer.bytes}
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
