"""Finite-difference time-domain solver for the networked wave agents.

One leader (agent 0) and n followers evolve under the unit-speed wave
equation on [0, 1].  Both ends carry Neumann-type conditions: at x=0 a
Robin absorber u_x = c0 u_t (+ psi0 on followers), at x=1 the leader is
unforced while followers receive the boundary control
q = -k1 M u~(1,t) - k2 M u~_t(1,t) (+ psi1), built from boundary samples
only.  In-domain forcing f acts on followers.

Scheme: explicit 3-point leapfrog in the interior with ghost-point Neumann
closures.  The boundary velocities use the implicit backward difference
(u^{k+1}-u^k)/dt: the explicit two-level difference is unstable at the
reference gains (the k2-feedback coefficient exceeds the stability margin
by an order of magnitude), while the implicit form costs one precomputed
n-by-n solve per step and is stable for courant <= 1.  A 6th-difference
filter on the oldest time level (strength eps0 (1 - courant^2), zero at
courant = 1 where transport is exact) drains near-Nyquist content that
otherwise has vanishing group velocity and never reaches the dissipative
boundaries; its response on resolved modes is O(theta^6) and does not
perturb the solver's second-order convergence.

`simulate` integrates the leader and the deviation (error) fields as two
decoupled blocks through pre-assembled sparse one-step propagators, both
probed from one stencil (the leader is its zero-gain, m = [[0]] case); the
error block is exactly the deviation dynamics and keeps full relative
precision while the error stays in the normal floating-point range (an
undisturbed error stalls near 1e-320, in the subnormal range).  `step` is
the plain per-agent reference implementation of the same update.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sparse

from .errors import DivergenceError
from .graph import Topology, pinned_matrix
from .signals import (DisturbanceSpec, eval_profile, eval_signal,
                      eval_space_time, zero_disturbances)

DIVERGENCE_LIMIT = 1e12
_D6 = np.array([1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0])

try:  # raw CSR kernel: skips scipy's per-call dispatch in the hot loop
    from scipy.sparse import _sparsetools as _st

    def _csr_matvec(s, x, out):
        out.fill(0.0)
        _st.csr_matvec(s.shape[0], s.shape[1], s.indptr, s.indices, s.data, x, out)
        return out
except ImportError:  # pragma: no cover - fallback for scipy layout changes
    def _csr_matvec(s, x, out):
        out[:] = s @ x
        return out


@dataclass(frozen=True)
class Grid:
    """Uniform space-time grid; dt = courant * dx with courant <= 1."""

    nx: int = 201
    courant: float = 0.9
    dissipation: float = 0.1

    def __post_init__(self):
        if not self.nx >= 3:
            raise ValueError(f"nx: the grid needs at least 3 points, got {self.nx}")
        if not 0.0 < self.courant <= 1.0:
            raise ValueError(
                f"courant: {self.courant} violates the CFL bound (0, 1]")
        if not 0.0 <= self.dissipation <= 1.0:
            raise ValueError(f"dissipation: {self.dissipation} is not in [0, 1]")

    @property
    def dx(self) -> float:
        return 1.0 / (self.nx - 1)

    @property
    def dt(self) -> float:
        return self.courant * self.dx

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nx)

    @cached_property
    def weights(self) -> np.ndarray:
        """Composite-trapezoid quadrature weights (read-only)."""
        w = np.full(self.nx, self.dx)
        w[0] = w[-1] = self.dx / 2.0
        w.flags.writeable = False
        return w

    @cached_property
    def moment_weights(self) -> np.ndarray:
        """Trapezoid weights times (x - 1), the kernel of G2 (read-only)."""
        zw = (self.points - 1.0) * self.weights
        zw.flags.writeable = False
        return zw


@dataclass(frozen=True)
class ControlGains:
    """Protocol gains k1, k2 >= 0 and the boundary absorber coefficient.

    c0 = 0 is admitted for the reflective verification mode; certificates
    require c0 > 0.
    """

    k1: float
    k2: float
    c0: float

    def __post_init__(self):
        for name in ("k1", "k2", "c0"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name}: must be nonnegative, got {getattr(self, name)}")


@dataclass
class WaveState:
    """Two time levels of all agent fields; row 0 is the leader."""

    time: float
    u_prev: np.ndarray
    u_curr: np.ndarray

    @property
    def n_followers(self) -> int:
        return self.u_curr.shape[0] - 1


def _filter_oldest(up: np.ndarray, eps: float) -> np.ndarray:
    """Damp (2-2cos theta)^3 content of the oldest level; one-sided
    6th differences on the two-node edge strips, edge nodes untouched."""
    nx = up.shape[1]
    if eps == 0.0 or nx < 7:
        return up
    d = np.zeros_like(up)
    d[:, 3:-3] = (up[:, :-6] - 6.0 * up[:, 1:-5] + 15.0 * up[:, 2:-4]
                  - 20.0 * up[:, 3:-3] + 15.0 * up[:, 4:-2]
                  - 6.0 * up[:, 5:-1] + up[:, 6:])
    for j in (1, 2):
        d[:, j] = up[:, j - 1:j + 6] @ _D6
    for j in (nx - 3, nx - 2):
        d[:, j] = up[:, j - 6:j + 1] @ _D6[::-1]
    return up + (eps / 64.0) * d


class _Stepper:
    """One step of the rows of a self-contained block: the deviation fields
    under the boundary control, or the unforced leader (m = [[0]] and zero
    gains).  Updates are written in increment form u + delta so that
    spatially constant states are exact fixed points in floating point."""

    def __init__(self, grid: Grid, gains: ControlGains, m: np.ndarray):
        self.grid = grid
        self.gains = gains
        self.m = np.asarray(m, dtype=float)
        n = self.m.shape[0]
        r = grid.courant
        self.r2 = r * r
        self.rc0 = r * gains.c0
        self.rk2 = r * gains.k2
        self.k1m = (2.0 * self.r2 * grid.dx * gains.k1) * self.m
        self.a_inv = np.linalg.inv(np.eye(n) + 2.0 * self.rk2 * self.m)
        self.eps = grid.dissipation * (1.0 - self.r2)

    def step(self, ue, uep, psi0=None, psi1=None, fvals=None):
        grid = self.grid
        r2 = self.r2
        dt2 = grid.dt ** 2
        upf = _filter_oldest(uep, self.eps)
        un = np.empty_like(ue)
        un[:, 1:-1] = ue[:, 1:-1] + (
            (ue[:, 1:-1] - upf[:, 1:-1])
            + r2 * (ue[:, 2:] - 2.0 * ue[:, 1:-1] + ue[:, :-2]))
        if fvals is not None:
            un[:, 1:-1] += dt2 * fvals[:, 1:-1]
        z = (ue[:, 0] - upf[:, 0]) + 2.0 * r2 * (ue[:, 1] - ue[:, 0])
        if psi0 is not None:
            z = z - (2.0 * r2 * grid.dx) * psi0
        if fvals is not None:
            z = z + dt2 * fvals[:, 0]
        un[:, 0] = ue[:, 0] + z / (1.0 + 2.0 * self.rc0)
        ub = ue[:, -1]
        rhs = ((ue[:, -1] - upf[:, -1]) + 2.0 * r2 * (ue[:, -2] - ue[:, -1])
               - self.k1m @ ub)
        if psi1 is not None:
            rhs = rhs + (2.0 * r2 * grid.dx) * psi1
        if fvals is not None:
            rhs = rhs + dt2 * fvals[:, -1]
        un[:, -1] = ue[:, -1] + self.a_inv @ rhs
        return un


def init_state(grid: Grid, profiles, gains: ControlGains, m=None,
               dist: DisturbanceSpec | None = None) -> WaveState:
    """Build the two starting levels from per-agent IC profiles.

    `profiles` is a sequence of (displacement, velocity) ProfileSpec pairs,
    leader first.  The previous level is a second-order Taylor start
    u_prev = u - dt v + dt^2/2 (u_xx + f(.,0)) using ghost closures built
    from the t=0 boundary data (IC velocities, q(0), psi(0)).
    """
    n_agents = len(profiles)
    n = n_agents - 1
    if dist is None:
        dist = zero_disturbances(n)
    if m is None and n > 0:
        raise ValueError("the pinned matrix is required when followers exist")
    x = grid.points
    u = np.empty((n_agents, grid.nx))
    v = np.empty_like(u)
    for i, (disp, vel) in enumerate(profiles):
        u[i] = eval_profile(disp, x)
        v[i] = eval_profile(vel, x)
    dx, dt = grid.dx, grid.dt
    lap = np.empty_like(u)
    lap[:, 1:-1] = u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]
    psi0_0 = np.array([0.0] + [eval_signal(s, 0.0) for s in dist.psi0])
    lap[:, 0] = 2.0 * (u[:, 1] - u[:, 0]) - 2.0 * dx * (gains.c0 * v[:, 0] + psi0_0)
    lap[0, -1] = 2.0 * (u[0, -2] - u[0, -1])
    fvals = np.zeros_like(u)
    for i, st in enumerate(dist.f):
        fvals[i + 1] = eval_space_time(st, x, 0.0)
    if n > 0:
        from .certificate import control_input

        ub = u[1:, -1] - u[0, -1]
        vb = v[1:, -1] - v[0, -1]
        q0 = control_input(m, gains.k1, gains.k2, ub, vb)
        psi1_0 = np.array([eval_signal(s, 0.0) for s in dist.psi1])
        lap[1:, -1] = 2.0 * (u[1:, -2] - u[1:, -1]) + 2.0 * dx * (q0 + psi1_0)
    u_prev = u - dt * v + 0.5 * dt * dt * (lap / (dx * dx) + fvals)
    return WaveState(time=0.0, u_prev=u_prev, u_curr=u)


def step(state: WaveState, gains: ControlGains, m, dist: DisturbanceSpec | None,
         grid: Grid, control_hook=None) -> WaveState:
    """Advance all agents one time level (reference implementation).

    The follower boundary control reads only the x=1 samples of the
    deviation and its discrete velocity; `control_hook`, when given, is
    called with exactly those boundary vectors and the applied q.
    """
    u, up = state.u_curr, state.u_prev
    n = state.n_followers
    if dist is None:
        dist = zero_disturbances(n)
    t = state.time
    x = grid.points
    r2 = grid.courant ** 2
    dt2 = grid.dt ** 2
    rc0 = grid.courant * gains.c0
    upf = _filter_oldest(up, grid.dissipation * (1.0 - r2))
    fvals = np.zeros_like(u)
    for i, st in enumerate(dist.f):
        fvals[i + 1] = eval_space_time(st, x, t)
    un = np.empty_like(u)
    un[:, 1:-1] = u[:, 1:-1] + ((u[:, 1:-1] - upf[:, 1:-1])
                                + r2 * (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2])
                                + dt2 * fvals[:, 1:-1])
    psi0 = np.array([0.0] + [eval_signal(s, t) for s in dist.psi0])
    un[:, 0] = u[:, 0] + ((u[:, 0] - upf[:, 0]) + 2.0 * r2 * (u[:, 1] - u[:, 0])
                          - 2.0 * r2 * grid.dx * psi0
                          + dt2 * fvals[:, 0]) / (1.0 + 2.0 * rc0)
    un[0, -1] = u[0, -1] + ((u[0, -1] - upf[0, -1])
                            + 2.0 * r2 * (u[0, -2] - u[0, -1]))
    if n > 0:
        mm = np.asarray(m, dtype=float)
        rk2 = grid.courant * gains.k2
        ub = u[1:, -1] - u[0, -1]
        psi1 = np.array([eval_signal(s, t) for s in dist.psi1])
        # increment form: the velocity-feedback terms collapse to the
        # leader's own boundary increment, so a shared constant is exact
        rhs = ((u[1:, -1] - upf[1:, -1]) + 2.0 * r2 * (u[1:, -2] - u[1:, -1])
               - (2.0 * r2 * grid.dx * gains.k1) * (mm @ ub)
               + (2.0 * rk2 * (un[0, -1] - u[0, -1])) * (mm @ np.ones(n))
               + 2.0 * r2 * grid.dx * psi1 + dt2 * fvals[1:, -1])
        a = np.eye(n) + 2.0 * rk2 * mm
        un[1:, -1] = u[1:, -1] + np.linalg.solve(a, rhs)
        if control_hook is not None:
            from .certificate import control_input

            vb = ((un[1:, -1] - u[1:, -1]) - (un[0, -1] - u[0, -1])) / grid.dt
            control_hook(u_tilde_boundary=ub.copy(), u_tilde_t_boundary=vb,
                         q=control_input(mm, gains.k1, gains.k2, ub, vb))
    if not np.all(np.isfinite(un)) or np.max(np.abs(un)) > DIVERGENCE_LIMIT:
        k = int(round(t / grid.dt))
        raise DivergenceError(f"field values diverged during step {k}",
                              step_index=k)
    return WaveState(time=t + grid.dt, u_prev=u.copy(), u_curr=un)


@dataclass(frozen=True)
class BoundaryTrace:
    u1: np.ndarray
    ut1: np.ndarray
    u0: np.ndarray
    ut0: np.ndarray


def boundary_trace(state: WaveState, grid: Grid) -> BoundaryTrace:
    """Boundary samples per agent; velocities by the two-level difference."""
    vel = (state.u_curr - state.u_prev) / grid.dt
    return BoundaryTrace(u1=state.u_curr[:, -1].copy(), ut1=vel[:, -1].copy(),
                         u0=state.u_curr[:, 0].copy(), ut0=vel[:, 0].copy())


@dataclass(frozen=True)
class SamplePoint:
    """State snapshot handed to observers at sampling instants.

    Velocities are centered differences across the surrounding levels,
    matching the accuracy of the scheme itself.
    """

    step_index: int
    time: float
    grid: Grid
    leader: np.ndarray
    leader_vel: np.ndarray
    error: np.ndarray
    error_vel: np.ndarray
    es_psi0_sq: float
    es_psi1_sq: float
    es_f_sq: float


def _assemble_propagator(step_fn, n_rows: int, nx: int):
    """Probe a linear two-level step with unit vectors into a CSR matrix."""
    dim = n_rows * nx
    cols = []
    for j in range(2 * dim):
        y = np.zeros(2 * dim)
        y[j] = 1.0
        un = step_fn(y[:dim].reshape(n_rows, nx), y[dim:].reshape(n_rows, nx))
        cols.append(np.concatenate([un.ravel(), y[:dim]]))
    s = sparse.csr_matrix(np.stack(cols, axis=1))
    s.eliminate_zeros()
    return s


class Simulation:
    """Pre-assembled propagators plus disturbance injections for one run."""

    def __init__(self, topology: Topology | None, gains: ControlGains,
                 grid: Grid, profiles, dist: DisturbanceSpec | None = None):
        self.grid = grid
        self.gains = gains
        self.topology = topology
        self.n = topology.n if topology is not None else 0
        self.m = pinned_matrix(topology) if topology is not None else None
        if len(profiles) != self.n + 1:
            raise ValueError(
                f"{len(profiles)} IC profile pairs for {self.n + 1} agents")
        self.dist = dist if dist is not None else zero_disturbances(self.n)
        if self.dist.n != self.n:
            raise ValueError("disturbance channels do not match follower count")
        state = init_state(grid, profiles, gains, self.m, self.dist)
        nx = grid.nx
        self._yl = np.concatenate([state.u_curr[0], state.u_prev[0]])
        leader = _Stepper(grid, ControlGains(k1=0.0, k2=0.0, c0=gains.c0), [[0.0]])
        self._sl = _assemble_propagator(leader.step, 1, nx)
        if self.n:
            err = state.u_curr[1:] - state.u_curr[0]
            err_prev = state.u_prev[1:] - state.u_prev[0]
            self._ye = np.concatenate([err.ravel(), err_prev.ravel()])
            stepper = _Stepper(grid, gains, self.m)
            self._se = _assemble_propagator(stepper.step, self.n, nx)
            self._spatial_f = np.stack([
                eval_profile(st.spatial, grid.points) if st.kind == "separable"
                else np.zeros(nx) for st in self.dist.f])
            self._spatial_f_nsq = (self._spatial_f ** 2) @ grid.weights
            # zero kind == amplitude 0: one vectorized cosine covers all
            # 3n scalar signal channels per step
            sigs = [*self.dist.psi0, *self.dist.psi1,
                    *(st.temporal if st.kind == "separable" else None for st in self.dist.f)]
            self._sig_amp, self._sig_om, self._sig_ph = np.array([
                (s.amplitude, s.angular_frequency, s.phase)
                if s is not None and s.kind == "sinusoid" else (0.0, 0.0, 0.0)
                for s in sigs]).T
            self._inject = None if self.dist.is_zero() else self._injection_matrix(stepper)
        else:
            self._ye = np.zeros(0)
            self._se = None
            self._inject = None

    def _injection_matrix(self, stepper: _Stepper) -> np.ndarray:
        """Columns: the state increment per unit psi0_i / psi1_i / f-tempo_i,
        probed through the stencil, so the per-step disturbance load is one
        small matvec J @ values."""
        n, nx = self.n, self.grid.nx
        zero = np.zeros((n, nx))
        cols = []
        for channel in ("psi0", "psi1", "fvals"):
            for i in range(n):
                load = np.zeros((n, nx) if channel == "fvals" else n)
                load[i] = self._spatial_f[i] if channel == "fvals" else 1.0
                cols.append(stepper.step(zero, zero, **{channel: load}).ravel())
        return np.stack(cols, axis=1)

    def _signal_values(self, t: float) -> np.ndarray:
        """psi0, psi1 and f-temporal values stacked as one (3n,) vector."""
        return self._sig_amp * np.cos(self._sig_om * t + self._sig_ph)

    def run(self, horizon: float, observers=(), stride: int = 10):
        """Advance to `horizon`, invoking observers every `stride` steps
        (and at the final step).  Observer failures abort the run."""
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        grid = self.grid
        dt = grid.dt
        nx = grid.nx
        n = self.n
        nsteps = int(math.ceil(horizon / dt)) if horizon > 0 else 0
        dim_l = nx
        dim_e = n * nx
        yl = self._yl.copy()
        ye = self._ye.copy()
        sl = self._sl
        se = self._se
        es0 = es1 = esf = 0.0
        any_dist = self._inject is not None
        inject = self._inject
        yl2 = np.empty_like(yl)
        ye2 = np.empty_like(ye)
        for k in range(nsteps + 1):
            t = k * dt
            _csr_matvec(sl, yl, yl2)
            if n:
                _csr_matvec(se, ye, ye2)
                if any_dist:
                    vals = self._signal_values(t)
                    ye2[:dim_e] += inject @ vals
            if k % stride == 0 or k == nsteps:
                if any_dist:
                    es0 = max(es0, float(vals[:n] @ vals[:n]))
                    es1 = max(es1, float(vals[n:2 * n] @ vals[n:2 * n]))
                    esf = max(esf, float(vals[2 * n:] ** 2 @ self._spatial_f_nsq))
                sp = SamplePoint(
                    step_index=k, time=t, grid=grid,
                    leader=yl[:dim_l].copy(),
                    leader_vel=(yl2[:dim_l] - yl[dim_l:]) / (2.0 * dt),
                    error=ye[:dim_e].reshape(n, nx).copy(),
                    error_vel=((ye2[:dim_e] - ye[dim_e:]) / (2.0 * dt)).reshape(n, nx),
                    es_psi0_sq=es0, es_psi1_sq=es1, es_f_sq=esf)
                peak = max(np.max(np.abs(sp.leader), initial=0.0),
                           np.max(np.abs(sp.error), initial=0.0))
                if not np.isfinite(peak) or peak > DIVERGENCE_LIMIT:
                    raise DivergenceError(
                        f"simulation diverged by step {k} (t = {t:.6g})",
                        step_index=k)
                for obs in observers:
                    try:
                        obs(sp)
                    except DivergenceError:
                        raise
                    except Exception as exc:
                        raise RuntimeError(
                            f"observer {obs!r} failed at step {k} "
                            f"(t = {t:.6g})") from exc
            yl, yl2 = yl2, yl
            ye, ye2 = ye2, ye
        return nsteps


def simulate(topology: Topology | None, gains: ControlGains, grid: Grid,
             profiles, dist: DisturbanceSpec | None, horizon: float,
             functional_weights=None, observers=(), stride: int = 10):
    """Run the closed-loop network and collect the functional time series.

    `functional_weights` supplies (k1, k2, rho1, rho2) for the Lyapunov
    functionals (a GainCertificate, or None for plain-energy weights with
    rho1 = rho2 = 0).  Extra observers are invoked at every sample.
    """
    from .analysis import FunctionalWeights, TimeSeries, lyapunov_sample

    sim = Simulation(topology, gains, grid, profiles, dist)
    weights = functional_weights
    if weights is None:
        weights = FunctionalWeights(k1=gains.k1, k2=gains.k2, rho1=0.0, rho2=0.0)
    series = TimeSeries(grid=grid, gains=gains, certificate=weights)

    def record(sp: SamplePoint):
        series.append(lyapunov_sample(
            sp.error, sp.error_vel, weights, sim.m if sim.n else np.zeros((0, 0)),
            grid, time=sp.time, es_psi0_sq=sp.es_psi0_sq,
            es_psi1_sq=sp.es_psi1_sq, es_f_sq=sp.es_f_sq))

    sim.run(horizon, observers=[record, *observers], stride=stride)
    return series
