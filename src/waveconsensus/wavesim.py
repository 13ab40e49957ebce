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
by an order of magnitude), while the implicit form costs one n-by-n solve
per step (one division per modal row) and is stable for courant <= 1.  A
6th-difference filter on the oldest time level (strength eps0
(1 - courant^2), zero at courant = 1 where transport is exact) drains
near-Nyquist content that otherwise has vanishing group velocity and
never reaches the dissipative boundaries; its response on resolved modes
is O(theta^6) and does not perturb the solver's second-order convergence.

`Simulation` runs in modal coordinates.  The pinned matrix is symmetric,
M = Q diag(lam) Q^T, so the deviation (error) dynamics split along its
eigenvectors into n independent single agents whose x=1 feedback gains
are scaled by lam_i; the leader is the lam = 0 row of the same stencil.
Each disturbance channel A cos(w t + phi) enters through two phase
columns per distinct frequency w, so the sparse powers S^p of a row's
one-step operator carry the exact forced response of p steps.
`Simulation.run` advances the rows [leader, mode_1 .. mode_n] a block of
sample instants at a time: at each instant a single step (which gives
the centered sample velocity), then S^(stride - 1), at most S^16 at a
time.  The rows are independent agents, so a run splits them into
contiguous row groups, each with operators of its own, built from its
own entries of one stencil probe and never written after.  When a run
advances enough grid points per sample (a 24-follower network at 101
grid points, not a three-follower preset) and two CPUs are usable, there
are two groups, and the second advances on a worker thread; the sparse
products release the GIL, so the groups run concurrently.  After each
block the calling thread checks all its samples for divergence at once;
then, while the groups advance the next block, it rebuilds the physical
deviation Q y of the whole block in one product and hands each observer
one `SampleBlock`.  An unforced modal row whose peak decays below
2^-600 is set to exact zero, where it stays, so an undisturbed error
keeps stepping at full speed instead of stalling in the slow subnormal
range; nothing downstream resolves fields that small (`analysis` reads
functionals below 1e-300 as zero), and a forced row stays at the scale
of its forced response.  The samples are bit-identical for any number
of groups.  `step` is the plain per-agent reference implementation of
the same update in physical coordinates.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sparse
from scipy.sparse import _sparsetools

from .errors import DivergenceError
from .graph import Topology, pinned_matrix
from .signals import (DisturbanceSpec, ess_sup_running, eval_profile, eval_signal,
                      eval_space_time, zero_disturbances)

DIVERGENCE_LIMIT = 1e12
_MAX_POWER = 16         # longest propagator power; longer strides repeat it
_FLUSH_BITS = 600       # an unforced modal row below 2^-600 is set to zero
_CHUNK_BYTES = 1 << 20  # deviation fields per block of samples and functional batch
_MAX_GROUPS = 2         # row groups of a run; more have not been measured
_GROUP_WORK = 10240     # row grid points per sample that a row group must carry
_D6 = np.array([1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0])


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

    @cached_property
    def points(self) -> np.ndarray:
        """The nodes on [0, 1] (read-only)."""
        x = np.linspace(0.0, 1.0, self.nx)
        x.flags.writeable = False
        return x

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
    """One step of decoupled rows, each a single agent whose x=1 feedback
    gains are scaled by its own eigenvalue lam: the leader (lam = 0, the
    unforced end) and the modes of the deviation fields along the
    eigenvectors of the pinned matrix (lam = its eigenvalues).  Updates are
    written in increment form u + delta so that spatially constant states
    are exact fixed points in floating point."""

    def __init__(self, grid: Grid, gains: ControlGains, lam):
        self.grid = grid
        lam = np.asarray(lam, dtype=float)
        r = grid.courant
        self.r2 = r * r
        self.rc0 = r * gains.c0
        self.k1m = (2.0 * self.r2 * grid.dx * gains.k1) * lam
        self.a_inv = 1.0 / (1.0 + 2.0 * r * gains.k2 * lam)
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
        rhs = ((ue[:, -1] - upf[:, -1]) + 2.0 * r2 * (ue[:, -2] - ue[:, -1])
               - self.k1m * ue[:, -1])
        if psi1 is not None:
            rhs = rhs + (2.0 * r2 * grid.dx) * psi1
        if fvals is not None:
            rhs = rhs + dt2 * fvals[:, -1]
        un[:, -1] = ue[:, -1] + self.a_inv * rhs
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
class SampleBlock:
    """The s >= 1 samples of one block as read-only arrays: `steps` and
    `times` (s,), `leader` and `leader_vel` (s, nx), and the followers'
    deviations u_i - u_0, `error` and `error_vel` (s, n, nx).  Velocities
    are centered differences across the surrounding levels, matching the
    accuracy of the scheme itself.  `step_index` is the last step."""

    steps: np.ndarray
    times: np.ndarray
    leader: np.ndarray
    leader_vel: np.ndarray
    error: np.ndarray
    error_vel: np.ndarray
    step_index: int


def _probe(stepper: _Stepper, rows: int, nx: int):
    """The one-step propagator of the state [u^k, u^(k-1)] of every row
    (layout (rows, 2, nx)), as COO triplets (row, entry row, entry column,
    value) with entries numbered within the row's own state.  The rows are
    decoupled, so all are probed at once, one column position at a time:
    2 nx stencil calls and O(rows nx) memory.  Each probe input is one unit
    entry per row, so an entry is the same whichever rows are probed
    together."""
    pos = np.arange(nx)
    r, i, j = [np.repeat(np.arange(rows), nx)], [np.tile(pos + nx, rows)], [np.tile(pos, rows)]
    v = [np.ones(rows * nx)]  # u^(k-1) <- u^k
    for col in range(2 * nx):
        y = np.zeros((rows, 2, nx))
        y[:, col // nx, col % nx] = 1.0
        un = stepper.step(y[:, 0], y[:, 1])
        rr, ii = np.nonzero(un)
        r.append(rr)
        i.append(ii)
        j.append(np.full(rr.size, col))
        v.append(un[rr, ii])
    return [np.concatenate(a) for a in (r, i, j, v)]


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity masks
        return os.cpu_count() or 1


def _group_count(rows: int, work: int) -> int:
    """Row groups of a run that advances `work` row grid points per sample
    ((n + 1) nx stride): one per usable CPU, at most _MAX_GROUPS, and no
    more than give each group _GROUP_WORK points.  A group's per-sample
    Python work holds the GIL, so groups with smaller products lose more
    to hand-offs than they overlap: a three-follower preset (8,040 points
    per sample at 201 grid points and stride 10) runs faster as one group,
    a 24-follower network at 101 grid points (25,250) as two."""
    return max(1, min(_usable_cpus(), _MAX_GROUPS, rows, work // _GROUP_WORK))


def _block_samples(n: int, nx: int) -> int:
    """Sample instants per block: about _CHUNK_BYTES of deviation fields."""
    return max(1, _CHUNK_BYTES // (16 * max(n, 1) * nx))


class _RowGroup:
    """Rows [r0, r1) of a run: their operators, their state and their
    block buffers.  The one-step operator is assembled from the group's
    own probe entries, forcing rows and phase rotation, and its power from
    that; nothing writes to either after.  A group touches only its own
    rows and buffers, so groups advance concurrently; the sparse products
    release the GIL, and the rest of a step is kept to a few small array
    operations."""

    def __init__(self, sim: Simulation, probe, r0: int, r1: int, power: int,
                 stride: int, nsteps: int, size: int):
        self.off = off = 2 * sim.grid.nx
        self.omegas = sim._omegas.tolist()
        self.rows = slice(r0, r1)
        self.dim = (r1 - r0) * off
        self.dt = sim.grid.dt
        self.power, self.stride, self.nsteps = power, stride, nsteps
        self.tiny = 2.0 ** -_FLUSH_BITS
        r, i, j, v = probe
        mine = (r >= r0) & (r < r1)
        at = (r[mine] - r0) * off
        s = sparse.csr_matrix((v[mine], (at + i[mine], at + j[mine])), shape=(self.dim, self.dim))
        del mine, at  # freed before the block buffers below are allocated
        forcing = sim._forcing[r0 * off:r1 * off]
        if self.omegas:  # the phase slots rotate by w dt per step
            s = sparse.bmat([[s, forcing], [None, sim._rotation]], format="csr")
        a = s
        for _ in range(1, power):
            a = a @ s
        self.ops = {1: s, power: a}
        # only unforced rows are flushed; probe: per watched row, where its
        # largest entry was last seen
        self.watch = np.flatnonzero(np.diff(forcing.indptr).reshape(-1, off).sum(axis=1) == 0)
        self.probe = self.watch * off
        self.y = np.concatenate([sim._y0[r0 * off:r1 * off], np.zeros(2 * len(self.omegas))])
        # per sample instant of a block: the state [u^k, u^(k-1), phases], and
        # the step after it
        self.states, self.aheads = np.empty((2, size, self.y.size))

    def _advance(self, y, q, k, out=None):
        if self.omegas:  # exact phases; the operator's own rotation is overwritten
            ph = [w * (k * self.dt) for w in self.omegas]
            y[self.dim:] = [*map(math.cos, ph), *map(math.sin, ph)]
        s = self.ops[q]
        out = np.zeros(y.shape[0]) if out is None else out
        _sparsetools.csr_matvec(s.shape[0], s.shape[1], s.indptr, s.indices, s.data, y, out)
        return out

    def _flush(self, y, y1):
        """y1, with each watched row whose peak in y is below tiny set to
        zero (in a copy); those rows are no longer watched.  A zero
        unforced row stays exactly zero: the rows are decoupled and it has
        no forcing entries.  Each watched row's entry at its probe bounds
        its peak from below, so the peaks are recomputed only when a probe
        reads below tiny."""
        fields = np.abs(y[:self.dim].reshape(-1, self.off)[self.watch])
        peaks = fields.max(axis=1)
        live = peaks >= self.tiny
        if not live.all():
            y1 = y1.copy()
            y1[:self.dim].reshape(-1, self.off)[self.watch[~live]] = 0.0
        self.watch = self.watch[live]
        self.probe = self.watch * self.off + fields[live].argmax(axis=1)
        return y1

    def advance(self, instants):
        """Advance through the sample instants, a stride apart (the last one
        possibly nearer).  The state at instant j goes to states[j], the
        step after it to aheads[j]; the products write there directly."""
        states, aheads, last = self.states, self.aheads, len(instants) - 1
        states[:last + 1] = 0.0
        aheads[:last + 1] = 0.0
        states[0] = self.y
        for j, k in enumerate(instants):
            y = states[j]
            y1 = self._advance(y, 1, k, aheads[j])
            if k == self.nsteps:
                return
            if self.probe.size and min(map(abs, y[self.probe].tolist())) < self.tiny:
                y1 = self._flush(y, y1)  # aheads[j] keeps the sample's own step
            nxt, k, to = min(k + self.stride, self.nsteps), k + 1, None
            while k < nxt:  # the last product lands on the next instant's state
                q = self.power if nxt - k >= self.power else 1
                to = states[j + 1] if k + q == nxt and j < last else None
                y1, k = self._advance(y1, q, k, to), k + q
            if to is None and j < last:
                states[j + 1] = y1
        self.y = y1.copy()


class Simulation:
    """One network in modal coordinates (see the module notes).

    The state is the rows [leader, mode_1 .. mode_n] (two time levels
    each), the modes being the deviation fields projected on the
    eigenvectors Q of the pinned matrix, followed by one cos and one sin
    phase slot per distinct disturbance frequency.  A run builds the
    rows' operators (`_RowGroup`); the network keeps their eigenvalues and
    the sparse forcing columns."""

    def __init__(self, topology: Topology | None, gains: ControlGains,
                 grid: Grid, profiles, dist: DisturbanceSpec | None = None):
        self.grid = grid
        self.gains = gains
        self.n = topology.n if topology is not None else 0
        self.m = pinned_matrix(topology) if topology is not None else None
        if len(profiles) != self.n + 1:
            raise ValueError(
                f"{len(profiles)} IC profile pairs for {self.n + 1} agents")
        self.dist = dist if dist is not None else zero_disturbances(self.n)
        if self.dist.n != self.n:
            raise ValueError("disturbance channels do not match follower count")
        state = init_state(grid, profiles, gains, self.m, self.dist)
        lam, self._q = np.linalg.eigh(self.m) if self.n else (np.zeros(0), np.zeros((0, 0)))
        u, up = state.u_curr, state.u_prev
        self._y0 = np.stack([np.vstack([u[0], self._q.T @ (u[1:] - u[0])]),
                             np.vstack([up[0], self._q.T @ (up[1:] - up[0])])],
                            axis=1).ravel()
        self._lam = np.concatenate([[0.0], lam])  # of the rows [leader, modes]
        self._omegas, self._forcing = self._forced_step(_Stepper(grid, gains, lam))
        # the phase rotation [[cos, -sin], [sin, cos]](w dt) as triplets,
        # without the zeros of sin(0 dt)
        n_w = self._omegas.size
        c, sn = np.cos(self._omegas * grid.dt), np.sin(self._omegas * grid.dt)
        k = np.arange(n_w)
        r, j = np.concatenate([k, k, k + n_w, k + n_w]), np.concatenate([k, k + n_w, k, k + n_w])
        v = np.concatenate([c, -sn, sn, c])
        self._rotation = sparse.csr_matrix((v[v != 0], (r[v != 0], j[v != 0])),
                                           shape=(2 * n_w, 2 * n_w))

    def _forced_step(self, modes: _Stepper):
        """Distinct angular frequencies w and the one-step load of all
        channels at each w, as sparse real columns [Re F_w..., -Im F_w...]
        (state layout, leader row zero) built one w at a time: the load of
        the step from time t is their product with [cos(w t)..., sin(w t)...]."""
        n, nx = self.n, self.grid.nx
        loads = {}  # w -> [(channel, follower, physical complex amplitude)]
        for i, f in enumerate(self.dist.f):
            for channel, sig in enumerate((self.dist.psi0[i], self.dist.psi1[i],
                                           f.temporal if f.kind == "separable" else None)):
                if sig is not None and sig.kind == "sinusoid":
                    shape = eval_profile(f.spatial, self.grid.points) if channel == 2 else 1.0
                    loads.setdefault(sig.angular_frequency, []).append(
                        (channel, i, sig.amplitude * np.exp(1j * sig.phase) * shape))
        omegas = np.array(sorted(loads), dtype=float)
        columns = ([], [])  # (state indices, values) of the Re and the -Im columns
        zero = np.zeros((n, nx))
        for w in omegas:
            load = [np.zeros(n, complex), np.zeros(n, complex), np.zeros((n, nx), complex)]
            for channel, i, a in loads[w]:
                load[channel][i] += a
            modal = [self._q.T @ a for a in load]
            for part, col in zip(columns, (modes.step(zero, zero, *(a.real for a in modal)),
                                           -modes.step(zero, zero, *(a.imag for a in modal)))):
                r, x = np.nonzero(col)
                part.append(((r + 1) * 2 * nx + x, col[r, x]))  # level u^k of row r + 1
        index, value = zip((np.zeros(0, int), np.zeros(0)), *columns[0], *columns[1])
        return omegas, sparse.csc_matrix(
            (np.concatenate(value), np.concatenate(index), np.cumsum([i.size for i in index])),
            shape=((n + 1) * 2 * nx, 2 * omegas.size)).tocsr()

    def run(self, horizon: float, observers=(), stride: int = 10):
        """Advance to `horizon`, sampling every `stride` steps (and at the
        final step), and return the number of steps.  Each observer is
        called once per block with its samples (`SampleBlock`); observer
        failures abort the run.

        The rows are probed once (`_probe`) and split into contiguous
        groups (`_group_count`, from the row grid points advanced per
        sample); each group assembles its own operators from its share of
        the probe.  The first group advances on the calling thread, the
        others on worker threads that live for this call only; all advance
        the same block of sample instants (about _CHUNK_BYTES of fields)
        per hand-off, each into buffers of its own.  Between samples a
        group advances by sparse propagator powers S^p (p = stride - 1, at
        most _MAX_POWER; the remainder and the final partial stride take
        single steps), each with its exact forced response.  At sample
        instants each unforced modal row whose peak fell below
        2^-_FLUSH_BITS is set to zero for the steps after the sample, which
        keeps a decaying error out of the slow subnormal range; observers
        read the row as exact zero from the next sample on.  Forced rows
        are never flushed: their forced response keeps them far above the
        subnormal range.  After each block the calling thread copies its
        samples out of the groups' buffers and checks them for divergence;
        then, while the groups advance the next block, it rebuilds the
        physical fields of the whole block in one product and calls each
        observer once with them (so observer time overlaps stepping).
        Observers never see a sample at or after the first diverged one."""
        from concurrent.futures import ThreadPoolExecutor  # kept out of start-up

        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if stride < 1:
            raise ValueError("stride must be at least 1")
        nx, rows = self.grid.nx, self.n + 1
        nsteps = int(math.ceil(horizon / self.grid.dt)) if horizon > 0 else 0
        count = -(-nsteps // stride) + 1  # sample instants: every stride steps, and the last
        power = max(1, min(stride - 1, _MAX_POWER))
        ngroups = _group_count(rows, rows * nx * stride)
        # the calling thread also rebuilds the samples, so its group gets a
        # half share of the rows and each other group a full share
        edges = [0] + [(rows * (2 * g - 1) + ngroups - 1) // (2 * ngroups - 1)
                       for g in range(1, ngroups + 1)]
        probe = _probe(_Stepper(self.grid, self.gains, self._lam), rows, nx)
        size = min(_block_samples(self.n, nx), count)
        groups = [_RowGroup(self, probe, a, b, power, stride, nsteps, size)
                  for a, b in zip(edges, edges[1:])]
        fields = np.empty((2, size, rows, nx))  # u^k, and u^(k+1) - u^(k-1)
        ready = None  # a gathered block not yet handed out
        with ThreadPoolExecutor(max_workers=max(1, ngroups - 1)) as pool:
            for j0 in range(0, count, size):
                instants = [min(j * stride, nsteps) for j in range(j0, min(j0 + size, count))]
                futures = [pool.submit(g.advance, instants) for g in groups[1:]]
                if ready:  # while the workers advance this block
                    self._emit(*ready, fields, observers)
                groups[0].advance(instants)
                for f in futures:
                    f.result()
                ready = self._gather(instants, groups, fields)
            self._emit(*ready, fields, observers)
        return nsteps

    def _gather(self, instants, groups, out):
        """Copy a block's samples out of the groups' buffers, so that they
        can advance the next block into them: u^k and u^(k+1) - u^(k-1) of
        every row into `out`, up to the first diverged sample.  Returns the
        instants and the number of samples kept."""
        nx, cnt = self.grid.nx, len(instants)
        parts = [(g.rows, *(a[:cnt, :g.dim].reshape(cnt, -1, 2, nx) for a in (g.states, g.aheads)))
                 for g in groups]
        peak = np.zeros(cnt)
        for _, state, _ in parts:  # max |x| without a temporary array
            peak = np.maximum(peak, np.maximum(state.max(axis=(1, 2, 3)), -state.min(axis=(1, 2, 3))))
        bad = np.flatnonzero(~(peak <= DIVERGENCE_LIMIT))
        stop = int(bad[0]) if bad.size else cnt
        cur, diff = out[:, :stop]
        for rows, state, ahead in parts:
            cur[:, rows] = state[:stop, :, 0]
            np.subtract(ahead[:stop, :, 0], state[:stop, :, 1], out=diff[:, rows])
        return instants, stop

    def _emit(self, instants, stop, fields, observers):
        """Hand the first `stop` gathered samples of a block to each
        observer as one SampleBlock, with the physical deviation Q y of all
        of them from one product (no call when `stop` is 0), then raise if
        the block diverged."""
        dt = self.grid.dt
        t = np.array(instants[:stop + 1], dtype=float) * dt
        if stop:
            err = np.matmul(self._q, fields[:, :stop, 1:])
            err[1] /= 2.0 * dt
            arrays = (np.array(instants[:stop]), t[:stop], fields[0, :stop, 0].copy(),
                      fields[1, :stop, 0] / (2.0 * dt), err[0], err[1])
            for a in arrays:
                a.flags.writeable = False
            block = SampleBlock(*arrays, step_index=instants[stop - 1])
            for obs in observers:
                try:
                    obs(block)
                except DivergenceError:
                    raise
                except Exception as exc:
                    raise RuntimeError(
                        f"observer {obs!r} failed on the block of steps {instants[0]} "
                        f"to {instants[stop - 1]} (t = {t[0]:.6g} to {t[stop - 1]:.6g})") from exc
        if stop < len(instants):
            raise DivergenceError(
                f"simulation diverged by step {instants[stop]} (t = {t[stop]:.6g})",
                step_index=instants[stop])


def simulate(topology: Topology | None, gains: ControlGains, grid: Grid,
             profiles, dist: DisturbanceSpec | None, horizon: float,
             functional_weights=None, observers=(), stride: int = 10):
    """Run the closed-loop network and collect the functional time series.

    `functional_weights` supplies (k1, k2, rho1, rho2) for the Lyapunov
    functionals (a GainCertificate, or None for plain-energy weights with
    rho1 = rho2 = 0).  Extra observers get every block of samples (a
    `SampleBlock`).  The functionals are evaluated on each block, one
    `analysis.lyapunov_sample` call per block, with the running sups es_*
    of the disturbance channels at the block's sample times.
    """
    from . import analysis

    sim = Simulation(topology, gains, grid, profiles, dist)
    weights = functional_weights
    if weights is None:
        weights = analysis.FunctionalWeights(k1=gains.k1, k2=gains.k2, rho1=0.0, rho2=0.0)
    series = analysis.TimeSeries()
    n, m, dist = sim.n, sim.m if sim.n else np.zeros((0, 0)), sim.dist
    # psi0, psi1 and f-temporal channels, for the running sups es_*
    sigs = [*dist.psi0, *dist.psi1,
            *(st.temporal if st.kind == "separable" else None for st in dist.f)]
    amp, om, ph = np.array([
        (s.amplitude, s.angular_frequency, s.phase)
        if s is not None and s.kind == "sinusoid" else (0.0, 0.0, 0.0)
        for s in sigs]).reshape(-1, 3).T
    f_nsq = np.reshape([eval_profile(st.spatial, grid.points) if st.kind == "separable"
                        else np.zeros(grid.nx) for st in dist.f], (-1, grid.nx)) ** 2 @ grid.weights
    es = np.zeros(3)

    def record(block: SampleBlock):
        nonlocal es
        v = amp * np.cos(om * block.times[:, None] + ph)
        sups = np.hstack([  # (1, c) @ (c, 1) products: the dot of a single sample
            np.matmul(v[:, None, :n], v[:, :n, None]),
            np.matmul(v[:, None, n:2 * n], v[:, n:2 * n, None]),
            np.matmul(v[:, None, 2 * n:] ** 2, f_nsq[:, None])])[:, :, 0]
        sups = ess_sup_running(np.vstack([es, sups]))[1:]
        es = sups[-1]
        series.append(analysis.lyapunov_sample(block.error, block.error_vel, weights, m, grid,
                                               block.times, *sups.T))

    sim.run(horizon, observers=[record, *observers], stride=stride)
    return series
