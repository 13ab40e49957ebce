"""Experiment configuration, reproduction presets, runners and CSV output.

Configs are JSON documents read and written through one schema table;
defaults come from the config dataclasses, and every schema violation is
a ConfigError naming the path to the offending field.  The three
reproduction presets follow the reference study: a 1-2-3 follower path
with the leader pinned at follower 1, c0=2.5, k1=30, k2=10, cosine
displacement ICs and linear velocity ICs, and disturbance amplitudes
0 / 10 / 50 on all three channels at 10 rad/s.

Run horizons are derived from the optimized certificate, never hardcoded:
long enough that the certified envelope decays below 1e-3 of its initial
value (by the steady-state window start, for perturbed runs).
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import analysis, certificate as cert_mod, svgplot
from .errors import CertificateError, ConfigError, DivergenceError, TopologyError
from .graph import Topology, build_topology, eig_extremes_sym, is_connected, pinned_matrix
from .signals import (PROFILE_KINDS, SIGNAL_KINDS, SPACETIME_KINDS, DisturbanceSpec,
                      ProfileSpec, SignalSpec, SpaceTimeSpec, zero_disturbances)
from .wavesim import ControlGains, Grid, SampleBlock, simulate

ENV_OUT_DIR = "WAVECONSENSUS_OUT"

CSV_COLUMNS = (
    "t", "E", "G1", "G2", "V", "V0", "l2_err", "h1_seminorm",
    "ptwise_max_sq", "boundary_err_sq", "bound_envelope",
    "iss_bound_conservative", "iss_bound_verbatim",
    "es_psi0_sq", "es_psi1_sq", "es_f_sq",
)
_SAMPLED = 10  # the leading columns: t, then E .. boundary_err_sq in FunctionalSample's order

_CSV_ROWS = 1024  # rows formatted and written at once

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_DIVERGED = 3
EXIT_BOUND_VIOLATION = 4


@dataclass(frozen=True)
class AgentIC:
    displacement: ProfileSpec = field(default_factory=ProfileSpec)
    velocity: ProfileSpec = field(default_factory=ProfileSpec)


@dataclass(frozen=True)
class CertificateOptions:
    regime: str = "auto"  # auto | unperturbed | perturbed
    resolution: int = 200
    rho1: float | None = None
    rho2: float | None = None
    xi1: float | None = None
    xi2: float | None = None

    def __post_init__(self):
        if self.regime not in ("auto", *cert_mod.GATES):
            raise ValueError(f"regime: unknown regime {self.regime!r}")
        if not 1 <= self.resolution <= cert_mod.MAX_RESOLUTION:
            raise ValueError(f"resolution: must be between 1 and {cert_mod.MAX_RESOLUTION}, "
                             f"got {self.resolution}")
        # overrides come in pairs, and xi only with rho
        for a, b in (("rho1", "rho2"), ("rho2", "rho1"), ("xi1", "xi2"), ("xi2", "xi1"),
                     ("xi1", "rho1")):
            if getattr(self, a) is not None and getattr(self, b) is None:
                raise ValueError(f"{a}: given without {b}")


@dataclass(frozen=True)
class OutputOptions:
    csv_name: str = "timeseries.csv"
    stride: int = 10

    def __post_init__(self):
        if not self.stride >= 1:
            raise ValueError(f"stride: must be at least 1, got {self.stride}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment.  Without follower ICs every follower starts
    at rest; without disturbance channels the run is undisturbed."""

    adjacency: tuple
    leader_links: tuple
    gains: ControlGains
    grid: Grid = field(default_factory=Grid)
    leader_ic: AgentIC = field(default_factory=AgentIC)
    follower_ics: tuple = ()
    disturbances: DisturbanceSpec = field(default_factory=DisturbanceSpec)
    certificate: CertificateOptions = field(default_factory=CertificateOptions)
    output: OutputOptions = field(default_factory=OutputOptions)
    horizon: float | None = None

    def __post_init__(self):
        if not self.follower_ics:
            object.__setattr__(self, "follower_ics", (AgentIC(),) * self.n)
        if not self.disturbances.n:
            object.__setattr__(self, "disturbances", zero_disturbances(self.n))
        if self.horizon is not None and not self.horizon > 0:
            raise ValueError(f"horizon: must be positive when given, got {self.horizon}")
        try:
            self.topology()
        except TopologyError as exc:
            raise ConfigError(f"topology.{exc}") from exc
        agents = ["initial_conditions.leader",
                  *(f"initial_conditions.followers[{i}]" for i in range(len(self.follower_ics)))]
        profiles = [(f"{agent}.{part}", p) for agent, pair in zip(agents, self.profiles())
                    for part, p in zip(("displacement", "velocity"), pair)]
        profiles += [(f"disturbances.f[{i}].spatial", f.spatial)
                     for i, f in enumerate(self.disturbances.f) if f.kind == "separable"]
        for path, p in profiles:
            if p.kind == "table" and len(p.samples) != self.grid.nx:
                raise ConfigError(f"{path}.samples: expected grid.nx = {self.grid.nx} "
                                  f"samples, got {len(p.samples)}")
        cert = self.certificate  # only the regime that runs: its rules need xi with rho
        if cert.rho1 is not None and cert.xi1 is None and self.effective_regime() == "perturbed":
            raise ConfigError("certificate.xi1: the perturbed regime needs xi1, xi2 with rho1, rho2")

    @property
    def n(self) -> int:
        return len(self.adjacency)

    def topology(self) -> Topology:
        return build_topology([list(r) for r in self.adjacency],
                              list(self.leader_links))

    def profiles(self) -> list:
        agents = [self.leader_ic, *self.follower_ics]
        return [(a.displacement, a.velocity) for a in agents]

    def effective_regime(self) -> str:
        if self.certificate.regime != "auto":
            return self.certificate.regime
        return "unperturbed" if self.disturbances.is_zero() else "perturbed"


# ---------------------------------------------------------------------------
# JSON schema
#
# One table gives the JSON layout of every config dataclass and drives both
# parse_config and serialize_config.  Each JSON object is one node, and it
# rejects a member that is not in its table.  A group node (topology,
# initial_conditions) has no dataclass: its members are fields of the
# enclosing object.  An absent or null member takes its dataclass default; a
# member whose field has no default is required, and so is every field a
# kinded object's kind uses (signals.*_KINDS) unless it is listed as
# optional.  Range checks live only in the dataclasses' __post_init__, whose
# messages name the field first ("courant: ..."); the walker prefixes the
# path of the enclosing object.


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


class _Scalar:
    def dump(self, value):
        return value


class _Number(_Scalar):
    """A finite number; an integral one must have no fractional part."""

    def __init__(self, integral: bool = False):
        self.integral = integral

    def load(self, value, path, n):
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        try:
            ok = ok and math.isfinite(value) and (
                not self.integral or float(value).is_integer())
        except OverflowError:
            ok = False
        if not ok:
            expected = "an integer" if self.integral else "a finite number"
            raise ConfigError(f"{path}: expected {expected}, got {value!r}")
        return int(value) if self.integral else float(value)


class _String(_Scalar):
    def load(self, value, path, n):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value


class _List:
    """A JSON list read as a tuple; a per-agent list has one entry per
    follower."""

    def __init__(self, item, per_agent: bool = False):
        self.item = item
        self.per_agent = per_agent

    def load(self, value, path, n):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        if self.per_agent and len(value) != n:
            raise ConfigError(f"{path}: expected a list of length {n}")
        return tuple(self.item.load(v, f"{path}[{i}]", n) for i, v in enumerate(value))

    def dump(self, value):
        return [self.item.dump(v) for v in value]


class _Object:
    """A JSON object read as `cls`; members are (json key, node) or
    (json key, node, field name) when the two differ.  A group has no class
    (cls None): its members are fields of the enclosing object, so they load
    into that object's keyword arguments and dump from its attributes."""

    def __init__(self, cls, *members, kinds=None, optional=()):
        self.cls = cls
        self.members = {m[0]: (m[1], m[2] if len(m) > 2 else m[0]) for m in members}
        self.groups = {key for key, (node, _name) in self.members.items()
                       if isinstance(node, _Object) and node.cls is None}
        self.kinds = kinds
        if kinds is not None:
            self.required = {name for _node, name in self.members.values()} - set(optional)
        elif cls is not None:
            self.required = {f.name for f in fields(cls)
                             if f.default is MISSING and f.default_factory is MISSING}

    def _used(self, name: str, kind) -> bool:
        return self.kinds is None or name == "kind" or name in self.kinds.get(kind, ())

    def _read(self, value, path, n, kwargs, required) -> dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object, got {value!r}")
        for key in value:
            if key not in self.members:
                raise ConfigError(f"{_join(path, key)}: unknown field")
        for key, (node, name) in self.members.items():
            if not self._used(name, kwargs.get("kind")):
                continue
            item = value.get(key)
            if key in self.groups:  # an absent group still checks its required members
                node._read({} if item is None else item, _join(path, key), n, kwargs, required)
            elif item is not None:
                kwargs[name] = node.load(item, _join(path, key), n)
            elif name in required:
                raise ConfigError(f"{_join(path, key)}: required field is missing")
        return kwargs

    def load(self, value, path, n):
        kwargs = self._read(value, path, n, {}, self.required)
        try:
            return self.cls(**kwargs)
        except ValueError as exc:  # a field-first message from __post_init__
            raise ConfigError(_join(path, str(exc))) from exc

    def dump(self, obj) -> dict:
        out = {}
        for key, (node, name) in self.members.items():
            if self._used(name, getattr(obj, "kind", None)):
                value = obj if key in self.groups else getattr(obj, name)
                out[key] = None if value is None else node.dump(value)
        return out


_NUMBER, _INTEGER, _STRING = _Number(), _Number(integral=True), _String()
_PROFILE = _Object(ProfileSpec, ("kind", _STRING), ("amplitude", _NUMBER),
                   ("spatial_frequency", _NUMBER), ("coefficients", _List(_NUMBER)),
                   ("samples", _List(_NUMBER)), kinds=PROFILE_KINDS)
_SIGNAL = _Object(SignalSpec, ("kind", _STRING), ("amplitude", _NUMBER),
                  ("angular_frequency", _NUMBER), ("phase", _NUMBER),
                  kinds=SIGNAL_KINDS, optional=("phase",))
_SPACETIME = _Object(SpaceTimeSpec, ("kind", _STRING), ("temporal", _SIGNAL),
                     ("spatial", _PROFILE), kinds=SPACETIME_KINDS)
_AGENT = _Object(AgentIC, ("displacement", _PROFILE), ("velocity", _PROFILE))
_CONFIG = _Object(
    ExperimentConfig,
    ("topology", _Object(None, ("adjacency", _List(_List(_INTEGER, per_agent=True))),
                         ("leader_links", _List(_INTEGER, per_agent=True)))),
    ("gains", _Object(ControlGains, ("k1", _NUMBER), ("k2", _NUMBER), ("c0", _NUMBER))),
    ("grid", _Object(Grid, ("nx", _INTEGER), ("courant", _NUMBER),
                     ("dissipation", _NUMBER))),
    ("horizon", _NUMBER),
    ("initial_conditions", _Object(None, ("leader", _AGENT, "leader_ic"),
                                   ("followers", _List(_AGENT, per_agent=True),
                                    "follower_ics"))),
    ("disturbances", _Object(DisturbanceSpec,
                             ("psi0", _List(_SIGNAL, per_agent=True)),
                             ("psi1", _List(_SIGNAL, per_agent=True)),
                             ("f", _List(_SPACETIME, per_agent=True)))),
    ("certificate", _Object(CertificateOptions, ("regime", _STRING),
                            ("resolution", _INTEGER), ("rho1", _NUMBER),
                            ("rho2", _NUMBER), ("xi1", _NUMBER), ("xi2", _NUMBER))),
    ("output", _Object(OutputOptions, ("csv", _STRING, "csv_name"),
                       ("stride", _INTEGER))),
)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment configuration."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be an object")
    topology = doc.get("topology")
    adjacency = topology.get("adjacency") if isinstance(topology, dict) else None
    return _CONFIG.load(doc, "", len(adjacency) if isinstance(adjacency, list) else 0)


def serialize_config(config: ExperimentConfig) -> str:
    return json.dumps(_CONFIG.dump(config), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Presets


def test_preset(test_id: int) -> ExperimentConfig:
    """Reproduction presets 1-3 (unperturbed / amplitude 10 / amplitude 50)."""
    if test_id not in (1, 2, 3):
        raise ConfigError(f"unknown test id {test_id}; valid ids are 1, 2, 3")
    amp = {1: 0.0, 2: 10.0, 3: 50.0}[test_id]
    leader_ic = AgentIC(
        displacement=ProfileSpec(kind="cosine", amplitude=10.0, spatial_frequency=2.0))
    follower_ics = tuple(
        AgentIC(displacement=ProfileSpec(kind="cosine", amplitude=a, spatial_frequency=f),
                velocity=ProfileSpec(kind="polynomial", coefficients=(0.0, v)))
        for a, f, v in ((5.0, 2.0, 1.0), (1.0, 1.0, 2.0), (-5.0, 1.0, 3.0)))
    dist = DisturbanceSpec()
    if amp:
        sig = SignalSpec(kind="sinusoid", amplitude=amp, angular_frequency=10.0)
        dist = DisturbanceSpec(
            psi0=(sig,) * 3, psi1=(sig,) * 3,
            f=(SpaceTimeSpec(kind="separable", temporal=sig,
                             spatial=ProfileSpec(kind="polynomial", coefficients=(1.0,))),) * 3)
    return ExperimentConfig(
        adjacency=((0, 1, 0), (1, 0, 1), (0, 1, 0)), leader_links=(1, 0, 0),
        gains=ControlGains(k1=30.0, k2=10.0, c0=2.5),
        leader_ic=leader_ic, follower_ics=follower_ics, disturbances=dist,
        certificate=CertificateOptions(regime="perturbed" if amp else "unperturbed"),
        output=OutputOptions(csv_name=f"test{test_id}.csv"))


def spectral_extremes_for(config: ExperimentConfig):
    topo = config.topology()
    if not is_connected(topo) or not np.any(np.asarray(config.leader_links)):
        raise CertificateError(
            "certificate requires a connected follower graph with at least "
            "one leader link (pinned matrix must be positive definite)")
    return eig_extremes_sym(pinned_matrix(topo))


def certificate_for(config: ExperimentConfig, regime: str | None = None):
    """Optimize (or build from explicit rho/xi overrides) the certificate
    for a config."""
    ext = spectral_extremes_for(config)
    g, opts = config.gains, config.certificate
    args = (regime or config.effective_regime(), g.k1, g.k2, g.c0, ext.lambda_min, ext.lambda_max)
    if opts.rho1 is not None:  # rho1 and rho2 come as a pair
        return cert_mod.build_certificate(*args, opts.rho1, opts.rho2, opts.xi1, opts.xi2)
    return cert_mod.optimize_certificate(*args, resolution=opts.resolution)


def derive_horizon(cert, regime: str) -> float:
    """Horizon making the certified envelope fall below 1e-3 of its
    initial value (at the steady-state window start for perturbed runs).
    A rate too small for a finite horizon raises CertificateError."""
    rate = cert.alpha if regime == "unperturbed" else 0.8 * cert.alpha
    horizon = math.log(1000.0) / rate
    if not math.isfinite(horizon):
        raise CertificateError(f"decay rate {rate:.6g} 1/s gives no finite horizon")
    return float(math.ceil(horizon))


# ---------------------------------------------------------------------------
# CSV


def write_csv(path, series: analysis.TimeSeries, cert=None) -> None:
    """Fixed-schema CSV: the time and the functionals, then the columns that
    the certificate's regime reports (`analysis.bound_columns`); a column the
    regime does not report is blank."""
    reported = analysis.bound_columns(series, cert)
    sampled = dict(zip(CSV_COLUMNS[:_SAMPLED], (series.times, *series.columns.values())))
    columns = [sampled.get(name, reported.get(name)) for name in CSV_COLUMNS]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for a in range(0, len(series), _CSV_ROWS):  # zip stops at the end of t
            cells = [[""] * _CSV_ROWS if col is None else map(repr, col[a:a + _CSV_ROWS].tolist())
                     for col in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def read_csv(path) -> dict:
    """Read a fixed-schema CSV back into column arrays, NaN where a cell is
    blank: by numpy's reader, or by `_scanned` where that reader fails."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if lines[0].split(",") != list(CSV_COLUMNS):
        raise ConfigError(f"{path}: not a recognized time-series CSV")
    data = [(line, ln) for line, ln in enumerate(lines[1:], 2) if ln]
    if not data:
        raise ConfigError(f"{path}: no data rows")
    blank = {j: _blank_or_finite for j, v in enumerate(data[0][1].split(",")) if j and not v}
    try:  # float() reads each cell numpy's reader accepts to the same double
        table = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2, encoding=None,
                           converters=blank)
        # a row of another width or a value not finite goes to the scan (\r read as \n)
        fast = table.shape == (len(data), len(CSV_COLUMNS)) and np.isfinite(
            np.delete(table, list(blank), axis=1)).all()
    except ValueError:
        fast = False
    cols = dict(zip(CSV_COLUMNS, np.ascontiguousarray(table.T))) if fast else _scanned(path, data)
    if np.any(np.diff(cols["t"]) <= 0):
        raise ConfigError(f"{path}: time column is not strictly increasing")
    return cols


def _blank_or_finite(cell):  # numpy's reader of a column blank in the first row
    if cell and not math.isfinite(value := float(cell)):
        raise ValueError(cell)
    return value if cell else math.nan


def _scanned(path, data) -> dict:
    """The columns of the data rows (line number, text), cell by cell: a bad
    cell raises a ConfigError naming its line and column."""
    width, (numbers, rows) = len(CSV_COLUMNS), zip(*data)
    for line, row in data:
        count = row.count(",") + 1
        if count != width:  # name the first missing column, or number the first extra one
            column = CSV_COLUMNS[count] if count < width else width + 1
            raise ConfigError(f"{path}: line {line}, column {column}: the row has "
                              f"{count} cells, the header {width}")
    cells = ",".join(rows).split(",")  # cell j of each row, every width cells from j
    cols = {}
    for j, name in enumerate(CSV_COLUMNS):
        vals = cells[j::width]
        for line, v in zip(numbers, vals):
            if v or name == "t":  # only t may not be blank
                try:
                    problem = None if math.isfinite(float(v)) else "is not a finite number"
                except ValueError:
                    problem = "is not a number"
                if problem:
                    raise ConfigError(f"{path}: line {line}, column {name}: {v!r} {problem}")
        cols[name] = np.array([float(v) if v else np.nan for v in vals])  # blank cells read NaN
    return cols


# ---------------------------------------------------------------------------
# Runners


@dataclass
class RunResult:
    exit_code: int
    report: str
    series: analysis.TimeSeries | None = None
    certificate: object = None
    paths: dict = field(default_factory=dict)


def _cert_lines(cert) -> list:
    lines = [f"  regime     : {cert.regime}",
             f"  rho1, rho2 : {cert.rho1:.6g}, {cert.rho2:.6g}"]
    if cert.xi1 is not None:
        lines.append(f"  xi1, xi2   : {cert.xi1:.6g}, {cert.xi2:.6g}")
    lines.append(f"  tau1, tau2 : {cert.tau1:.6g}, {cert.tau2:.6g}")
    lines.append(f"  mu         : {cert.mu:.6g}")
    if cert.mu2 is not None:
        lines.append(f"  mu2, q0, qf: {cert.mu2:.6g}, {cert.q0:.6g}, {cert.qf:.6g}")
    lines.append(f"  decay rate : {cert.alpha:.6g} 1/s")
    return lines


def run_check_gains(config: ExperimentConfig) -> RunResult:
    """Report both regimes' gain gates and each regime's certificate
    (optimized, or built from the config's explicit rho/xi)."""
    lines = []
    try:
        ext = spectral_extremes_for(config)
    except CertificateError as exc:
        return RunResult(EXIT_INFEASIBLE, f"infeasible: {exc}")
    g = config.gains
    lines.append(f"pinned matrix spectrum: lambda_min={ext.lambda_min:.6g} "
                 f"lambda_max={ext.lambda_max:.6g}")
    feasible = {}
    for regime, check in cert_mod.GATES.items():
        rep = check(g.k1, g.k2, g.c0, ext.lambda_min)
        lines.append(f"[{regime}] gain gate: {'PASS' if rep.ok else 'FAIL'}")
        for key in ("k1", "k2"):
            lines.append(f"  {key} threshold {rep.thresholds[key]:.6g} "
                         f"(margin {rep.margins[key]:+.6g})")
        if rep.ok:
            try:
                cert = certificate_for(config, regime)
                lines.extend(_cert_lines(cert))
                feasible[regime] = cert
            except CertificateError as exc:
                lines.append(f"  certificate infeasible: {exc}")
    target = config.effective_regime()
    code = EXIT_OK if target in feasible else EXIT_INFEASIBLE
    lines.append(f"requested regime: {target} -> "
                 f"{'feasible' if code == EXIT_OK else 'infeasible'}")
    return RunResult(code, "\n".join(lines),
                     certificate=feasible.get(target))


class SurfaceRecorder:
    """Collects every keep_every-th sample of follower 1's deviation."""

    def __init__(self, keep_every: int = 1):
        self.keep_every = max(1, keep_every)
        self.times = []
        self.rows = []
        self._count = 0  # samples seen before the current block

    def __call__(self, block: SampleBlock):
        first = -self._count % self.keep_every
        self._count += block.times.size
        if block.error.shape[1] and first < block.times.size:
            self.times.extend(block.times[first::self.keep_every].tolist())
            self.rows.append(block.error[first::self.keep_every, 0].copy())


def run_experiment(config: ExperimentConfig, cert=None, observers=()):
    """Simulate a config, returning (series, certificate or None)."""
    if cert is None:
        try:
            cert = certificate_for(config)
        except CertificateError:
            if config.horizon is None:
                raise  # without a certificate there is no derived horizon
            cert = None
    topo = config.topology()
    if not is_connected(topo):
        import warnings

        warnings.warn("follower graph is not connected; simulation proceeds "
                      "but no certificate applies", stacklevel=2)
    horizon = config.horizon
    if horizon is None:
        horizon = derive_horizon(cert, cert.regime)
    series = simulate(topo, config.gains, config.grid, config.profiles(),
                      config.disturbances, horizon,
                      functional_weights=cert, observers=observers,
                      stride=config.output.stride)
    return series, cert


def run_simulate(config: ExperimentConfig, out_dir) -> RunResult:
    """General-purpose run: CSV plus a summary, no contractual checks."""
    os.makedirs(out_dir, exist_ok=True)
    try:
        series, cert = run_experiment(config)
    except CertificateError as exc:  # raised only when no horizon is given
        return RunResult(EXIT_INFEASIBLE,
                         f"infeasible certificate and no explicit horizon: {exc}")
    except DivergenceError as exc:
        return RunResult(EXIT_DIVERGED, f"solver diverged: {exc}")
    csv_path = os.path.join(out_dir, config.output.csv_name)
    write_csv(csv_path, series, cert)
    report = (f"simulated {len(series)} samples to t={series.times[-1]:.6g}; "
              f"wrote {csv_path}")
    return RunResult(EXIT_OK, report, series=series, certificate=cert,
                     paths={"csv": csv_path})


def run_reproduce(test_id: int, out_dir, conservative_iss: bool = True) -> RunResult:
    """Run a reproduction preset with its contractual checks and outputs; the
    checks are its certificate regime's row of `analysis.regime_checks`."""
    config = test_preset(test_id)
    out_dir = os.path.join(out_dir, f"test{test_id}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        cert = certificate_for(config)
    except CertificateError as exc:
        return RunResult(EXIT_INFEASIBLE, f"infeasible: {exc}")
    horizon = derive_horizon(cert, cert.regime)
    nsteps = int(math.ceil(horizon / config.grid.dt))
    surf = SurfaceRecorder(keep_every=max(1, (nsteps // config.output.stride) // 160))
    try:
        series, cert = run_experiment(replace(config, horizon=horizon),
                                      cert=cert, observers=(surf,))
    except DivergenceError as exc:
        return RunResult(EXIT_DIVERGED,
                         f"solver diverged at step {exc.step_index}: {exc}")

    checks = analysis.regime_checks(series, cert, config.disturbances, conservative_iss)
    failed = [name for name, rep in checks.items()  # both ISS variants are reported only
              if not rep.ok and name not in ("iss_conservative", "iss_verbatim")]
    code = EXIT_BOUND_VIOLATION if failed else EXIT_OK

    csv_path = os.path.join(out_dir, config.output.csv_name)
    write_csv(csv_path, series, cert)
    norm_path = os.path.join(out_dir, "error_norm.svg")
    svgplot.line_plot(norm_path, series.times, [series.column("l2_error")],
                      ["||u~||"], title=f"Test {test_id}: tracking error norm",
                      xlabel="t [s]", ylabel="log10 ||u~(.,t)||", ylog=True)
    surface_path = os.path.join(out_dir, "error_surface.svg")
    if surf.rows:
        svgplot.heatmap(surface_path, surf.times, config.grid.points,
                        np.concatenate(surf.rows),
                        title=f"Test {test_id}: deviation of follower 1")
    summary = {
        "test": test_id,
        "horizon": horizon,
        "samples": len(series),
        "certificate": {k: getattr(cert, k) for k in
                        ("regime", "rho1", "rho2", "xi1", "xi2", "tau1", "tau2",
                         "mu", "mu2", "q0", "qf", "alpha", "lambda_min",
                         "lambda_max")},
        "checks": {name: {"ok": rep.ok, "violations": len(rep.violations),
                          "worst_ratio": rep.worst_ratio}
                   for name, rep in checks.items()},
        "exit_code": code,
    }
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    lines = [f"test {test_id}: horizon {horizon:.6g} s, {len(series)} samples",
             f"  stepped to t = {series.stepped_to or series.times[-1]:.6g} s of {horizon:.6g} s"]
    lines.extend(_cert_lines(cert))
    for name, rep in checks.items():
        lines.append(f"  check {name}: {'PASS' if rep.ok else 'FAIL'} "
                     f"({len(rep.violations)} violations / {rep.checked})")
    if failed:
        lines.append(f"contractual checks failed: {', '.join(failed)}")
    return RunResult(code, "\n".join(lines), series=series, certificate=cert,
                     paths={"csv": csv_path, "summary": summary_path,
                            "norm_plot": norm_path, "surface_plot": surface_path})


def run_analyze(csv_paths) -> RunResult:
    """Post-hoc analysis of emitted CSVs.

    One unperturbed CSV: exponential decay fit of V.  One perturbed CSV:
    ISS bound violation count.  Two CSVs: steady-state error-norm ratio
    over the final 20% window.
    """
    if not csv_paths:
        return RunResult(EXIT_USAGE, "no CSV paths given")
    try:
        tables = [read_csv(p) for p in csv_paths]
    except (ConfigError, OSError) as exc:
        return RunResult(EXIT_USAGE, f"format error: {exc}")
    lines = []
    if len(tables) == 1:
        cols = tables[0]
        if np.all(np.isnan(cols["iss_bound_conservative"])):
            t, v = cols["t"], cols["V"]
            keep = v > max(v[0] * 1e-12, 0.0)
            if keep.sum() < 2:
                return RunResult(EXIT_USAGE, "format error: no positive V window to fit")
            rate, r2 = analysis.decay_fit(t[keep], v[keep])
            lines.append(f"decay fit on V: rate={rate:.6g} 1/s, r^2={r2:.6g}")
        else:
            for col in ("iss_bound_conservative", "iss_bound_verbatim"):
                rep = analysis.bound_report(cols["t"], cols["V0"], cols[col])
                lines.append(f"{col}: {len(rep.violations)} violations / {rep.checked}")
        return RunResult(EXIT_OK, "\n".join(lines))
    means = []
    for path, cols in zip(csv_paths, tables):
        t = cols["t"]
        window = t >= t[-1] - 0.2 * (t[-1] - t[0])
        mean = float(np.mean(cols["l2_err"][window]))
        means.append(mean)
        lines.append(f"{path}: steady-state mean ||u~|| = {mean:.6g}")
    first, last = means[0], means[-1]
    ratio = last / first if first else (math.inf if last else math.nan)
    lines.append(f"ratio (last/first) = {ratio:.6g}")
    return RunResult(EXIT_OK, "\n".join(lines))


def default_out_dir(cli_value=None) -> str:
    return cli_value or os.environ.get(ENV_OUT_DIR) or os.path.join(os.getcwd(), "out")
