"""Discrete norms, Lyapunov functionals, and the certificate checkers.

All spatial integrals use composite-trapezoid quadrature (matching the
solver's second order), and the velocity entering the functionals is the
same centered two-step difference the simulator reports.  Functional values
below FLUSH_FLOOR are reported as exact zeros: beyond that point the
quadratics sit in the IEEE subnormal range where quantization noise would
masquerade as growth.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import certificate as cert_mod
from .errors import CertificateError

FLUSH_FLOOR = 1e-300


@dataclass(frozen=True)
class FunctionalWeights:
    """Minimal parameter set for evaluating the Lyapunov functionals when
    no full certificate is in play (open-loop studies use rho1 = rho2 = 0,
    collapsing V to the plain energy)."""

    k1: float
    k2: float
    rho1: float
    rho2: float


def l2_norm_scalar(field, grid) -> float:
    """Trapezoid approximation of the L2 norm on [0, 1]."""
    z = np.asarray(field, dtype=float)
    if z.shape != (grid.nx,):
        raise ValueError(f"field length {z.shape} does not match grid nx={grid.nx}")
    return math.sqrt(float(np.sum(z * z * grid.weights)))


def l2_norm_vector(fields, grid) -> float:
    """Root of the summed squared scalar norms over the agent vector."""
    z = np.asarray(fields, dtype=float)
    if z.ndim == 1:
        return l2_norm_scalar(z, grid)
    if z.shape[1] != grid.nx:
        raise ValueError(f"field length {z.shape[1]} does not match grid nx={grid.nx}")
    return math.sqrt(float(np.einsum("ij,ij,j->", z, z, grid.weights)))


def spatial_derivative(field, grid) -> np.ndarray:
    """Centered differences inside, one-sided second order at the ends."""
    z = np.atleast_2d(np.asarray(field, dtype=float))
    if grid.nx < 3:
        raise ValueError("spatial derivative needs nx >= 3")
    if z.shape[-1] != grid.nx:
        raise ValueError(f"field length {z.shape[-1]} does not match grid nx={grid.nx}")
    d = np.empty_like(z)
    dx = grid.dx
    np.divide(np.subtract(z[..., 2:], z[..., :-2], out=d[..., 1:-1]), 2.0 * dx,
              out=d[..., 1:-1])
    d[..., 0] = (-3.0 * z[..., 0] + 4.0 * z[..., 1] - z[..., 2]) / (2.0 * dx)
    d[..., -1] = (3.0 * z[..., -1] - 4.0 * z[..., -2] + z[..., -3]) / (2.0 * dx)
    return d if np.asarray(field).ndim > 1 else d[0]


@dataclass(frozen=True)
class FunctionalSample:
    """Per-step diagnostics of the deviation fields."""

    time: float
    E: float
    G1: float
    G2: float
    V: float
    V0: float
    l2_error: float
    h1_seminorm: float
    ptwise_max_sq: float
    boundary_err_sq: float
    es_psi0_sq: float = 0.0
    es_psi1_sq: float = 0.0
    es_f_sq: float = 0.0


@dataclass
class TimeSeries:
    """Ordered functional samples.

    The time stamps and the columns live in one float64 array that grows by
    doubling; `times` and `columns` are read-only views of its filled part,
    valid until the next append."""

    _data: np.ndarray = field(init=False, repr=False,
                              default_factory=lambda: np.empty((len(TimeSeries._ROWS), 0)))
    _size: int = field(init=False, repr=False, default=0)
    stepped_to: float | None = None  # where a simulation stopped stepping, if before the end

    _FIELDS = ("E", "G1", "G2", "V", "V0", "l2_error", "h1_seminorm",
               "ptwise_max_sq", "boundary_err_sq",
               "es_psi0_sq", "es_psi1_sq", "es_f_sq")
    _ROWS = {name: i for i, name in enumerate(("time", *_FIELDS))}

    def append(self, sample: FunctionalSample) -> None:
        """Append one sample, or a batch whose fields are (s,) arrays."""
        times = np.atleast_1d(np.asarray(sample.time, dtype=float))
        if np.any(np.diff(times) <= 0) or (self._size and times[0] <= self._data[0, self._size - 1]):
            raise ValueError("time stamps must be strictly increasing")
        end = self._size + times.size
        if end > self._data.shape[1]:
            grown = np.empty((len(self._ROWS), max(end, 2 * self._data.shape[1])))
            grown[:, :self._size] = self._data[:, :self._size]
            self._data = grown
        self._data[0, self._size:end] = times
        for i, name in enumerate(self._FIELDS, 1):
            self._data[i, self._size:end] = getattr(sample, name)
        self._size = end

    def _view(self, row: int) -> np.ndarray:
        view = self._data[row, :self._size]
        view.flags.writeable = False
        return view

    @property
    def times(self) -> np.ndarray:
        return self._view(0)

    @property
    def columns(self) -> dict:
        return {name: self._view(i) for i, name in enumerate(self._FIELDS, 1)}

    def column(self, name: str) -> np.ndarray:
        """A copy of one column ("time" or a functional) as a float64 array."""
        return self._view(self._ROWS[name]).copy()

    @property
    def samples(self) -> list:
        return [FunctionalSample(*row) for row in self._data[:, :self._size].T.tolist()]

    def __len__(self) -> int:
        return self._size


def _products(ul, vl, ur, vr, m, grid):
    """||u_x||^2, ||v||^2, ||u||^2, <v, u_x> (weights x - 1), u(1)^T M u(1), |u(1)|^2
    and u(1) . int v, bilinear in the deviations (ul, vl) and (ur, vr), (..., n, nx)."""
    w, zw = grid.weights, grid.moment_weights
    dl = spatial_derivative(ul, grid)
    dr = dl if ur is ul else spatial_derivative(ur, grid)
    bl, br = ul[..., -1], ur[..., -1]
    return (np.einsum("...ij,...ij->...j", dl, dr) @ w,
            np.einsum("...ij,...ij->...j", vl, vr) @ w,
            np.einsum("...ij,...ij->...j", ul, ur) @ w,
            np.einsum("...ij,...ij->...j", vl, dr) @ zw,
            np.einsum("...i,...i->...", bl @ np.asarray(m, dtype=float), br),
            np.einsum("...i,...i->...", bl, br),
            np.einsum("...i,...i->...", bl, vr @ w))


def _functionals(products, ptwise_max_sq, cert) -> np.ndarray:
    """E .. boundary_err_sq of `FunctionalSample`, (9, s), from the (s,) `_products`
    and pointwise maxima of s samples; all zero where V0 is below FLUSH_FLOOR."""
    nsq_d, nsq_v, nsq_u, vd, quad, bnd, ubv = products
    e_val = 0.5 * nsq_d + 0.5 * nsq_v + 0.5 * cert.k1 * quad
    g1 = 0.5 * cert.rho1 * cert.k2 * quad + cert.rho1 * ubv
    g2 = cert.rho2 * vd
    v0 = nsq_d + nsq_v + bnd
    values = np.array([e_val, g1, g2, e_val + g1 + g2, v0, np.sqrt(np.maximum(nsq_u, 0.0)),
                       np.sqrt(np.maximum(nsq_d, 0.0)), ptwise_max_sq, bnd])
    values[:, v0 < FLUSH_FLOOR] = 0.0
    return values


def lyapunov_sample(u_tilde, u_tilde_t, cert, m, grid, time=0.0,
                    es_psi0_sq=0.0, es_psi1_sq=0.0, es_f_sq=0.0) -> FunctionalSample:
    """Evaluate E, G1, G2, V, V0 and the error norms on deviation states.

    u_tilde / u_tilde_t: (n, nx) deviation displacement and velocity
    fields, or (s, n, nx) for s samples at once; then time and the es_*
    sups are per-sample sequences (or scalars) and every field of the
    returned sample is an (s,) array.
    cert supplies (k1, k2, rho1, rho2); m is the pinned matrix.
    """
    ut = np.asarray(u_tilde, dtype=float)
    vt = np.asarray(u_tilde_t, dtype=float)
    batched = ut.ndim == 3
    if not batched:
        ut, vt = np.atleast_2d(ut)[None], np.atleast_2d(vt)[None]
    s = ut.shape[0]
    extra = [np.broadcast_to(np.asarray(a, dtype=float), (s,))
             for a in (time, es_psi0_sq, es_psi1_sq, es_f_sq)]
    values = np.zeros((9, s))
    if ut.size:
        values[:] = _functionals(_products(ut, vt, ut, vt, m, grid),
                                 np.max(ut * ut, axis=(1, 2)), cert)
    if batched:
        return FunctionalSample(extra[0], *values, *extra[1:])
    return FunctionalSample(*(float(a[0]) for a in (extra[0], *values, *extra[1:])))


def steady_gram(u_coef, v_coef, m, grid) -> np.ndarray:
    """The Gram forms G (7, k, k) of a steady state u~ = phi u_coef, u~_t = phi v_coef
    (k, n, nx): each of `_products` at the phases phi (k,) is phi G phi."""
    return np.array(_products(u_coef[:, None], v_coef[:, None], u_coef[None], v_coef[None],
                              m, grid))


def steady_sample(gram, phi, u_tilde, cert, time, es_psi0_sq, es_psi1_sq,
                  es_f_sq) -> FunctionalSample:
    """`lyapunov_sample` of s steady-state samples from their phases phi (s, k) and
    `steady_gram`; only ptwise_max_sq reads the deviations u_tilde (s, n, nx)."""
    products = np.einsum("sk,pkl,sl->ps", phi, gram, phi)
    peak = np.abs(u_tilde).max(axis=(1, 2), initial=0.0)  # squares keep the order of |u|
    values = _functionals(products, peak * peak, cert)
    return FunctionalSample(time, *values, es_psi0_sq, es_psi1_sq, es_f_sq)


def open_loop_energy(state, grid, leader: bool) -> float:
    """Half the squared H1 seminorm plus half the squared velocity norm,
    for the leader (agent 0) or for the follower stack."""
    fields = state.u_curr[0:1] if leader else state.u_curr[1:]
    prev = state.u_prev[0:1] if leader else state.u_prev[1:]
    vel = (fields - prev) / grid.dt
    return open_loop_energy_fields(fields, vel, grid)


def open_loop_energy_fields(fields, velocity, grid) -> float:
    z = np.atleast_2d(np.asarray(fields, dtype=float))
    v = np.atleast_2d(np.asarray(velocity, dtype=float))
    if z.size == 0:
        return 0.0
    w = grid.weights
    d = spatial_derivative(z, grid)
    energy = 0.5 * float(np.einsum("ij,ij,j->", d, d, w)) \
        + 0.5 * float(np.einsum("ij,ij,j->", v, v, w))
    return 0.0 if energy < FLUSH_FLOOR else energy


def decay_fit(times, values, window=None):
    """Least-squares exponential rate of a positive series: slope of
    log(value) against t over the window; returns (rate, r_squared)."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if window is not None:
        lo, hi = window
        keep = (t >= lo) & (t <= hi)
        t, v = t[keep], v[keep]
    if t.size < 2:
        raise ValueError("decay fit needs at least two samples in the window")
    if np.any(v <= 0.0):
        raise ValueError("decay fit needs positive values in the window")
    logs = np.log(v)
    slope, intercept = np.polyfit(t, logs, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return -float(slope), r2


@dataclass(frozen=True)
class BoundReport:
    """Violation listing for an envelope check."""

    checked: int
    violations: tuple
    worst_ratio: float

    @property
    def ok(self) -> bool:
        return not self.violations


def bound_report(t, value, bound, scale=None) -> BoundReport:
    """One-sided check value <= bound at every sample.

    Each violation is listed as (t, value, bound).  worst_ratio is the
    largest value/scale - 1 over the violations (0 when there are none);
    scale defaults to the bound, and where a scale is given only samples
    with a positive scale count toward it.
    """
    t, value, bound = (np.asarray(a, dtype=float) for a in (t, value, bound))
    bad = value > bound
    if scale is None:
        scale, counted = bound, bad
    else:
        scale = np.asarray(scale, dtype=float)
        counted = bad & (scale > 0)
    worst = 0.0
    if counted.any():  # a violated zero bound (the default scale) gives inf
        with np.errstate(divide="ignore"):
            worst = max(worst, float(np.max(value[counted] / scale[counted] - 1.0)))
    return BoundReport(checked=len(value),
                       violations=tuple(zip(t[bad].tolist(), value[bad].tolist(),
                                            bound[bad].tolist())),
                       worst_ratio=worst)


def monotone_decay_report(series: TimeSeries, rel_slack: float = 1e-6,
                          abs_floor: float = 0.0) -> BoundReport:
    """Per-sample nonincrease check of V: V[k+1] <= V[k] (1 + rel) + abs_floor."""
    v = series.column("V")
    return bound_report(series.column("time")[1:], v[1:],
                        v[:-1] * (1.0 + rel_slack) + abs_floor, scale=v[:-1])


def sandwich_report(series: TimeSeries, cert, rel_slack: float = 1e-8) -> BoundReport:
    """tau1 V0 <= V <= tau2 V0 at every sample."""
    v = series.column("V")
    v0 = series.column("V0")
    t = series.column("time")
    lo, hi = cert.tau1 * v0, cert.tau2 * v0
    bad = ~((lo <= v * (1.0 + rel_slack)) & (v <= hi * (1.0 + rel_slack)))
    worst = 0.0
    if bad.any():
        scale = np.maximum(np.maximum(np.abs(hi[bad]), np.abs(v[bad])), 1e-300)
        worst = float(np.max(np.abs(v[bad] - np.clip(v[bad], lo[bad], hi[bad])) / scale))
    return BoundReport(checked=len(v),
                       violations=tuple(zip(t[bad].tolist(), v[bad].tolist(),
                                            lo[bad].tolist(), hi[bad].tolist())),
                       worst_ratio=worst)


def envelope_report(series: TimeSeries, cert, slack: float = 0.05) -> BoundReport:
    """V(t) <= V(0) exp(-alpha t) (1 + slack) at every sample."""
    v = series.column("V")
    t = series.column("time")
    return bound_report(t, v, v[0] * cert_mod._decay(cert.alpha, t) * (1.0 + slack))


def pointwise_bound_check(series: TimeSeries, cert, v_initial: float | None = None,
                          slack: float = 0.05) -> BoundReport:
    """max_x |u~_i(x,t)|^2 <= delta exp(-alpha t) with delta from the
    certificate's pointwise-envelope factor and V(0)."""
    if v_initial is None:
        v_initial = float(series.column("V")[0])
    t = series.column("time")
    bound = cert.delta_factor * v_initial * cert_mod._decay(cert.alpha, t) * (1.0 + slack)
    return bound_report(t, series.column("ptwise_max_sq"), bound)


@dataclass(frozen=True)
class IssReport:
    conservative: BoundReport
    verbatim: BoundReport

    @property
    def ok(self) -> bool:
        return self.conservative.ok


def iss_check(series: TimeSeries, cert, dist=None) -> IssReport:
    """Compare V0(t) against the ISS bound with running disturbance sups.

    The conservative variant (transient scaled by tau2/tau1) is the
    contractual bound; the verbatim-paper variant is evaluated alongside.
    """
    if cert.regime != "perturbed":
        raise CertificateError("iss_check needs a perturbed-regime certificate")
    if dist is not None:
        for st in dist.f:
            if st.kind == "separable" and st.spatial.kind == "table":
                warnings.warn(
                    "table-based disturbance profiles carry no smoothness "
                    "guarantee; the ISS theorem assumes C^2 boundary data",
                    stacklevel=2)
    t = series.column("time")
    v0 = series.column("V0")
    v0_init = float(v0[0])
    es0 = series.column("es_psi0_sq")
    es1 = series.column("es_psi1_sq")
    esf = series.column("es_f_sq")
    reports = [bound_report(t, v0, cert_mod.iss_bound(cert, v0_init, t, es0, es1, esf,
                                                      conservative=conservative))
               for conservative in (True, False)]
    return IssReport(conservative=reports[0], verbatim=reports[1])


def poincare_check(fields, grid, endpoint: int = 1):
    """||b||^2 <= 2 (||b(endpoint)||^2 + ||b_x||^2) evaluated discretely.

    Returns (lhs, rhs, holds) for the agent-vector field.
    """
    z = np.atleast_2d(np.asarray(fields, dtype=float))
    w = grid.weights
    lhs = float(np.einsum("ij,ij,j->", z, z, w))
    b = z[:, -1] if endpoint == 1 else z[:, 0]
    d = spatial_derivative(z, grid)
    rhs = 2.0 * (float(b @ b) + float(np.einsum("ij,ij,j->", d, d, w)))
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-8)


def agmon_check(field, grid):
    """max_x |u|^2 <= u(1)^2 + ||u|| ||u_x|| evaluated discretely on a
    single-agent field; returns (lhs, rhs, holds).

    This is the paper-stated form.  It is not a theorem for arbitrary H1
    fields (the provable constant on the product term is 2), so `holds`
    may legitimately be False for strongly peaked fields.
    """
    z = np.asarray(field, dtype=float)
    if z.ndim != 1:
        raise ValueError("agmon_check takes a single-agent field")
    lhs = float(np.max(z * z))
    d = spatial_derivative(z, grid)
    rhs = float(z[-1] ** 2) + l2_norm_scalar(z, grid) * l2_norm_scalar(d, grid)
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-8)
