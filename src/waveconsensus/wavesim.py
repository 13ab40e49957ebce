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
The rows [leader, mode_1 .. mode_n] therefore share one interior
propagator and differ only where the boundaries reach.  `Simulation.run`
keeps them as the columns of one tiled state and advances every row at
once, one sample instant per product: a dense tile product (BLAS) with
the q-step interior stencil, plus each row's correction on the two end
windows and the exact forced response of the disturbances on every
entry (two phase columns per distinct frequency, or with many
frequencies a column per step of the product).  The same product gives
the step after the sample, for the centered sample velocity.  All of it
is probed from the one-step stencil; a sample costs O(rows nx stride)
and runs on the calling thread.  An unforced modal row whose peak decays
below 2^-600 is set to exact zero, where it stays, so an undisturbed error
keeps stepping at full speed instead of stalling in the slow subnormal
range; nothing downstream resolves fields that small (`analysis` reads
functionals below 1e-300 as zero), and a forced row stays at the scale
of its forced response.  Periodic runs stop stepping; the samples are
bit-identical for any block size.  `step` repeats the update per agent in
physical coordinates, apart from `_Stepper` on purpose: it is the oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DivergenceError
from .graph import Topology, pinned_matrix
from .signals import (DisturbanceSpec, ess_sup_running, eval_profile, eval_signal,
                      eval_space_time, zero_disturbances)

DIVERGENCE_LIMIT = 1e12
_MAX_POWER = 16         # longest propagator power; longer strides repeat it
_FLUSH_BITS = 600       # an unforced modal row below 2^-600 is set to zero
_CHUNK_BYTES = 1 << 20  # deviation fields per block of samples and functional batch
_PROBE_BYTES = 1 << 20  # each level of a batch of unit-input probes
_SETTLE = True          # stop stepping once a run is periodic (tests turn it off)
_FIT_BYTES = 1 << 22    # the fit's window of fields; runs that need more keep stepping
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
    if eps == 0.0 or nx < 9:  # the edge strips read nodes 0..7 and nx-9..nx-2
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
    """Advance all agents one time level: the reference oracle.  It repeats
    `_Stepper`'s update per agent, with its own coefficients and boundary
    closures, on purpose: the tests check the modal path against it, so one
    shared update would hide an error in both.  The follower control reads
    only the x=1 samples of the deviation and its discrete velocity;
    `control_hook` gets exactly those boundary vectors and the applied q."""
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


def _levels(stepper: _Stepper, u, up, q: int):
    """The levels [u^(k+1), u^(k+q), u^(k+q-1)] of every row (axis 1)
    after q unforced steps from u^k = u and u^(k-1) = up."""
    first = None
    for _ in range(q):
        u, up = stepper.step(u, up), u
        first = u if first is None else first
    return np.stack([first, u, up], axis=1)


def _kernel(grid: Grid, gains: ControlGains, q: int):
    """The interior stencil of q steps and its reach R: entry [ol, il, R + d]
    maps level il of node x to level ol (as in `_levels`) of node x + d.
    Probed on a line whose edge formulas the unit inputs never reach: a
    step reads three nodes on each side, the edge strips seven nodes in."""
    h = 4 * q + 8
    u = np.zeros((2, 2, 2 * h + 1))
    u[0, 0, h] = u[1, 1, h] = 1.0  # probe row il carries the unit on level il
    k = _levels(_Stepper(grid, gains, np.zeros(2)), u[0], u[1], q)
    reach = int(np.abs(np.flatnonzero(k.any(axis=(0, 1))) - h).max())
    return k[:, :, h - reach:h + reach + 1].transpose(1, 0, 2), reach


def _spread(state, x, c: int, rows: int):
    """Stack the left, centre and right neighbours of each tile of the
    tiled state (2c x tiles*rows) into x; the zero tiles beyond the ends
    are never written."""
    x[2 * c:4 * c] = state
    x[:2 * c, rows:] = state[:, :-rows]
    x[4 * c:, :-rows] = state[:, rows:]


def _block_samples(n: int, nx: int) -> int:
    """Sample instants per block: about _CHUNK_BYTES of deviation fields."""
    return max(1, _CHUNK_BYTES // (16 * max(n, 1) * nx))


class _Propagator:
    """The stacked operator [S^1 (u level only); S^q] of all rows of a run
    on the tiled state (see `Simulation.run`), with tile width c >= the
    reach of the q-step stencil `kernel` (`_kernel`).  Output tile entries
    are u^(k+1) at the c nodes, then the state q steps on.  Everything is
    probed from `_Stepper`: the interior tile block `k` (3c x 6c, shared by
    all rows) from the stencil, each row's correction on the end windows
    that the boundaries reach, and the forced response on every entry."""

    def __init__(self, sim: Simulation, q: int, kernel, c: int):
        grid, gains, lam, nx = sim.grid, sim.gains, sim._lam, sim.grid.nx
        self.c, self.rows, self.tiles, self.q = c, lam.size, -(-nx // c), q
        self.dt, self.omegas = grid.dt, sim._omegas
        kern, reach = kernel
        # (level, node within the tile) of each output and each input entry
        self.ol = np.r_[np.zeros(c, int), np.tile([1, 2], c)]
        self.xl = np.r_[np.arange(c), np.repeat(np.arange(c), 2)]
        il, xi = np.tile([0, 1], c), np.repeat(np.arange(c), 2)
        xin = (xi + c * np.arange(-1, 2)[:, None]).ravel()  # the tiles left, centre, right

        def stencil(ol, il, d):
            return np.where(abs(d) <= reach, kern[ol, il, np.clip(d + reach, 0, 2 * reach)], 0.0)

        self.k = stencil(self.ol[:, None], np.tile(il, 3), self.xl[:, None] - xin)
        # the windows: the inputs (level, node) whose q-step response differs
        # from the stencil's, on one row with a generic eigenvalue; the edge
        # formulas read at most seven nodes in, so deeper columns respond as
        # in the interior
        edge = np.flatnonzero(np.minimum(np.arange(nx), nx - 1 - np.arange(nx)) < 2 * c + 8)
        cl, cx = np.repeat([0, 1], edge.size), np.tile(edge, 2)
        u = np.zeros((2, cx.size, nx))
        u[cl, np.arange(cx.size), cx] = 1.0
        a = _levels(_Stepper(grid, gains, np.full(cx.size, 1.0 + lam.max())), u[0], u[1], q)
        d = np.arange(nx) - cx[:, None]
        differs = a != stencil(np.arange(3)[:, None], cl[:, None, None], d[:, None])
        cols = differs.any(axis=(1, 2))
        ol_o, x_o = np.nonzero(differs.any(axis=0))
        hit = np.nonzero(a)
        end_reach = int(np.abs(hit[2] - cx[hit[0]]).max())  # the edge strips reach further
        il_w, x_w = cl[cols], cx[cols]
        # probe every row at once, several windowed inputs per probe when
        # their responses cannot meet
        order, n_in = np.argsort(x_w, kind="stable"), x_w.size
        xs = x_w[order]
        m = next(j for j in range(1, n_in + 1)
                 if j == n_in or (xs[j:] - xs[:-j]).min() > 2 * end_reach)
        slot = np.empty(n_in, int)
        slot[order] = np.arange(n_in) % m
        corr, per = np.empty((self.rows, x_o.size, n_in)), max(1, _PROBE_BYTES // (8 * m * nx))
        for r in range(0, self.rows, per):  # a few rows at a time
            part = lam[r:r + per]
            u = np.zeros((2, m, part.size, nx))
            u[il_w, slot, :, x_w] = 1.0
            a = _levels(_Stepper(grid, gains, np.tile(part, m)), u[0].reshape(-1, nx),
                        u[1].reshape(-1, nx), q).reshape(m, part.size, 3, nx)
            corr[r:r + per] = a[slot, :, ol_o[:, None], x_o[:, None]].transpose(2, 0, 1)
        d = x_o[:, None] - x_w
        corr = corr * (abs(d) <= end_reach) - stencil(ol_o[:, None], il_w, d)
        # entries as rows of the (entry, tile) x row layout
        t = self.tiles
        self.outs = np.where(ol_o == 0, x_o % c, c + 2 * (x_o % c) + ol_o - 1) * t + x_o // c
        self.ins = (2 * (x_w % c) + il_w) * t + x_w // c
        self.corr = corr
        self.pad = np.flatnonzero((t - 1) * c + self.xl >= nx) * t + t - 1  # beyond the last node
        self._forcing(sim, q)

    def tiled(self, levels):
        """(rows, 3, nx) output levels as (3c, tiles, rows) entries."""
        c, t = self.c, self.tiles
        pad = np.zeros((*levels.shape[:2], c * t), levels.dtype)
        pad[..., :levels.shape[2]] = levels
        return pad[:, self.ol[:, None], self.xl[:, None] + c * np.arange(t)].transpose(1, 2, 0)

    def _forcing(self, sim: Simulation, q: int):
        """The forced response of every row on every output entry, as the
        columns `basis` against coefficients of step k (see `apply`).  A
        spatial pattern of loads costs the q steps that follow its unit
        load, whatever its frequencies.  With few frequencies (2 n_w at most
        q per pattern) the columns are [Re G_w..., -Im G_w...], the response
        G_w of all patterns and rows at frequency w, against [cos(w k dt)...,
        sin(w k dt)...]; otherwise each row has its own columns, every
        pattern's responses to unit loads at the q steps, against the row's
        modal loads at those steps (from `amp`, by frequency).  Either way
        a row keeps at most q columns per pattern."""
        rows, nx = self.rows, sim.grid.nx
        self.forced, self.basis, self.amp = np.zeros(rows, bool), None, None
        if not sim._loads:
            return
        stepper, zero = _Stepper(sim.grid, sim.gains, sim._lam), np.zeros((rows, nx))
        resp, amp = [], []  # per pattern
        for (channel, _), (shape, a) in sim._loads.items():
            unit = [None, None, None]  # on every row
            unit[channel] = np.tile(shape, (rows, 1)) if channel == 2 else np.ones(rows)
            states = [(stepper.step(zero, zero, *unit), zero)]  # the load's own step
            for _ in range(q - 1):
                u, up = states[-1]
                states.append((stepper.step(u, up), u))
            r = np.zeros((q, 3, rows, nx))  # the outputs after the load of step k + j
            r[:, 1:] = states[::-1]
            r[0, 0] = states[0][0]
            resp.append(r.transpose(0, 2, 1, 3))
            amp.append(np.c_[np.zeros(self.omegas.size), a @ sim._q])  # the leader unloaded
        resp, amp = np.array(resp), np.array(amp)  # (pattern, j, row, level, x), (pattern, w, row)
        self.forced = amp.any(axis=(0, 1))
        n_w, m = self.omegas.size, len(resp) * q
        if 2 * n_w <= m:
            lag = np.exp(1j * self.dt * np.outer(self.omegas, np.arange(q)))
            g = np.einsum("pwjr,pjrlx->wrlx", amp[:, :, None] * lag[:, :, None], resp)
            g = self.tiled(g.reshape(-1, 3, nx)).reshape(-1, n_w, rows)
            g = np.concatenate([g.real, -g.imag], axis=1)  # (entry, Re/Im and w, row)
            self.basis = g.transpose(1, 0, 2).reshape(2 * n_w, -1)
        else:
            g = self.tiled(resp.reshape(-1, 3, nx)).reshape(-1, m, rows)
            self.basis, self.amp = np.ascontiguousarray(g.transpose(2, 0, 1)), amp

    def apply(self, x, out, k: int):
        """One product from step k: `out` gets u^(k+1) and the state q steps
        on (3c x tiles*rows) of the state whose left, centre and right tiles
        are stacked in `x` (6c x tiles*rows)."""
        c, rows = self.c, self.rows
        np.matmul(self.k, x, out=out)
        o = out.reshape(-1, rows)
        centre = x[2 * c:4 * c].reshape(-1, rows)
        o[self.outs] += np.matmul(self.corr, centre[self.ins].T[:, :, None])[:, :, 0].T
        if self.amp is not None:  # the modal loads of the q steps, (pattern, j) by row
            coef = (np.exp(1j * self.dt * np.outer(k + np.arange(self.q), self.omegas))
                    @ self.amp).real.transpose(2, 0, 1).reshape(rows, -1, 1)
            o += np.matmul(self.basis, coef)[:, :, 0].T
        elif self.basis is not None:
            ph = self.omegas * (k * self.dt)
            cs = np.concatenate((np.cos(ph), np.sin(ph)))
            o += (cs @ self.basis).reshape(-1, rows)
        o[self.pad] = 0.0


class _Settle:
    """The steady-state fit of a run (see `Simulation.run`): sample j lies in
    window j // 2w, whose first w samples are fitted and last w checked."""

    def __init__(self, sim: Simulation, stride: int, count: int):
        """w >= 8 (twice the fitted columns), doubled until the basis is well
        conditioned; 0 unless 3 windows fit the run and `coef` fits _FIT_BYTES."""
        self.omegas = np.unique(np.abs(sim._omegas[sim._omegas != 0.0])).tolist()  # 0: constant
        self.dt, self.k0, self.pos, self.w = sim.grid.dt, 0, 0, 0  # pos: samples into the window
        self.passes, self.full = 0, False  # full: check every entry, not only x = 1
        shape = (1 + 2 * len(self.omegas), 2, sim.n + 1, sim.grid.nx)  # fill's columns by field
        w = max(4 * len(self.omegas) + 2, 8)
        while 6 * w < count and 8 * math.prod(shape) <= _FIT_BYTES:
            u, s, vt = np.linalg.svd(self.phases(range(0, w * stride, stride)), full_matrices=False)
            if s[0] <= 10.0 * s[-1]:
                self.w, self.pinv, self.coef = w, vt.T @ (u.T / s[:, None]), np.zeros(shape)
                break
            w *= 2

    def phases(self, instants):
        """The rows [1, cos w t, sin w t, ...] at t = (k - k0) dt of the
        instants k, from math.cos and math.sin."""
        return np.array([[1.0, *(f(w * t) for w in self.omegas for f in (math.cos, math.sin))]
                         for t in ((k - self.k0) * self.dt for k in instants)]
                        ).reshape(-1, 1 + 2 * len(self.omegas))  # (0, 1 + 2 n_w) when none

    def feed(self, fields, instants, stop: int):
        """Take the first `stop` samples of a block at `instants`; the index of
        the first to fill after two full checks in a row (x = 1 screens), or None."""
        i, w = 0, self.w
        while w and i < stop:
            x, pos = slice(None if self.full else -1, None), self.pos
            take = min(w - pos % w, stop - i)
            seg, coef = fields[:, i:i + take, :, x], self.coef[..., x]
            if pos == 0:  # a window starts
                self.k0, self.ok, coef[...] = instants[i], True, 0.0
            if pos < w:  # summed one sample at a time, in sample order
                for p, f in zip(self.pinv[:, pos:pos + take].T, seg.swapaxes(0, 1)):
                    coef += p[:, None, None, None] * f
            else:  # fill's own output against the samples, the largest residual per row
                res, tol = (np.abs(e).max(axis=(0, 1, 3)) for e in (
                    self.fill(np.empty_like(seg), instants[i:i + take], x) - seg, 1e-11 * coef))
                self.ok &= res[0] <= tol[0] and res[1:].max(initial=0) <= tol[1:].max(initial=0)
            i, self.pos = i + take, (pos + take) % (2 * w)
            if self.pos == 0:
                self.passes, self.full = self.passes + 1 if self.ok and self.full else 0, self.ok
                if self.passes == 2:
                    return i
        return None

    def fill(self, out, instants, x=slice(None)):
        """The view out[:, :s] (entries x) filled with the fit at the s `instants`,
        C0 + sum_w cos(w (k - k0) dt) Cc_w + sin(...) Cs_w summed in that order."""
        return np.einsum("sk,klre->lsre", self.phases(instants), self.coef[..., x],
                         out=out[:, :len(instants), :, x])


class Simulation:
    """One network in modal coordinates (see the module notes).

    The state is the rows [leader, mode_1 .. mode_n] (two time levels
    each), the modes being the deviation fields projected on the
    eigenvectors Q of the pinned matrix.  A run builds the rows'
    operators (`_Propagator`); the network keeps their eigenvalues and,
    per spatial pattern, one table of load amplitudes by frequency and
    follower."""

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
                             np.vstack([up[0], self._q.T @ (up[1:] - up[0])])], axis=1)
        self._lam = np.concatenate([[0.0], lam])  # of the rows [leader, modes]
        # the loads by spatial pattern, (channel psi0/psi1/f, f shape bytes) ->
        # (f shape, (n_w, n) complex amplitudes at the frequencies _omegas)
        loads = [(channel, i, sig) for i, f in enumerate(self.dist.f)
                 for channel, sig in enumerate((self.dist.psi0[i], self.dist.psi1[i],
                                                f.temporal if f.kind == "separable" else None))
                 if sig is not None and sig.kind == "sinusoid"]
        self._omegas = np.unique(np.array([sig.angular_frequency for *_, sig in loads], float))
        self._loads = {}
        for channel, i, sig in loads:
            shape = eval_profile(self.dist.f[i].spatial, grid.points) if channel == 2 else None
            _, a = self._loads.setdefault(
                (channel, shape if shape is None else shape.tobytes()),
                (shape, np.zeros((self._omegas.size, self.n), complex)))
            a[np.searchsorted(self._omegas, sig.angular_frequency), i] += (
                sig.amplitude * np.exp(1j * sig.phase))

    def run(self, horizon: float, observers=(), stride: int = 10):
        """Advance to `horizon`, sampling every `stride` steps (and at the
        final step), and return the number of steps.  Each observer is
        called once per block with its samples (`SampleBlock`); observer
        failures abort the run.

        The rows are the columns of one x-major tiled state: tile t of row
        r holds entry 2 x + level (u^k or u^(k-1)) of its c nodes, with a
        zero tile on each side, and c is the reach of S^p (p = stride, at
        most _MAX_POWER).  Each sample instant advances every row at once
        by one product of the `_Propagator` of S^p (the remainder of a
        longer stride and the final partial one take one product of their
        own power), which also gives u^(k+1) for the centered sample
        velocity; a block of sample instants (about _CHUNK_BYTES of fields)
        is advanced, checked for divergence and handed to the observers in
        turn, on the calling thread.  At sample instants each unforced modal
        row whose peak fell below 2^-_FLUSH_BITS is set to zero for the
        steps after the sample, which keeps a decaying error out of the slow
        subnormal range; observers read the row as exact zero from the next
        sample on.  Forced rows are never flushed: their forced response
        keeps them far above the subnormal range.  Observers never see a
        sample at or after the first diverged one.

        A run stops stepping once it is periodic (`_Settle`): every 2w
        samples it fits [1, cos w t, sin w t, ...] at its frequencies to u^k
        and u^(k+1) - u^(k-1) of w samples, one sample at a time, and checks
        `fill` itself on the next w.  After two checks in a row with residuals
        at most 1e-11 of the largest fitted coefficient, of the modes and of
        the leader each, `fill` gives the rest, from `switch_step` on (else
        None).  A zero scale needs a zero residual, so an undisturbed run
        switches once every mode is flushed; unsettled runs keep stepping."""
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if stride < 1:
            raise ValueError("stride must be at least 1")
        nx, rows = self.grid.nx, self.n + 1
        nsteps = int(math.ceil(horizon / self.grid.dt)) if horizon > 0 else 0
        count = -(-nsteps // stride) + 1  # sample instants: every stride steps, and the last
        power = min(stride, _MAX_POWER)
        kernel = _kernel(self.grid, self.gains, power)
        c = kernel[1]
        ops = {power: _Propagator(self, power, kernel, c)}

        def op(q):
            if q not in ops:
                ops[q] = _Propagator(self, q, _kernel(self.grid, self.gains, q), c)
            return ops[q]

        tiles, size = op(power).tiles, min(_block_samples(self.n, nx), count)
        # per sample instant: the state's left, centre and right tiles, and
        # the first product from it
        xs, outs = np.zeros((size, 6 * c, tiles * rows)), np.empty((size, 3 * c, tiles * rows))
        x1, out1 = np.zeros((6 * c, tiles * rows)), np.empty((3 * c, tiles * rows))
        fields = np.empty((2, size, rows, nx))  # u^k, and u^(k+1) - u^(k-1)
        # only unforced rows are flushed; probe: per watched row, where its
        # largest entry was last seen in the centre tiles
        watch = probe = np.flatnonzero(~op(power).forced)
        tiny = 2.0 ** -_FLUSH_BITS
        y = np.zeros((rows, 2, tiles * c))
        y[..., :nx] = self._y0
        state = y.reshape(rows, 2, tiles, c).transpose(3, 1, 2, 0).reshape(2 * c, -1)
        settle, self.switch_step = _Settle(self, stride, count) if _SETTLE else None, None
        for j0 in range(0, count, size):
            instants = [min(j * stride, nsteps) for j in range(j0, min(j0 + size, count))]
            if self.switch_step is not None:  # all from the fit
                self._emit(instants, settle.fill(fields, instants).shape[1], fields, observers)
                continue
            for x, out, k in zip(xs, outs, instants):
                nxt = min(k + stride, nsteps)
                q = min(nxt - k, power) or power  # the last sample: only u^(k+1)
                _spread(state, x, c, rows)
                op(q).apply(x, out, k)
                if k == nsteps:
                    break
                centre = x[2 * c:4 * c].reshape(-1, rows)
                if probe.size and min(map(abs, centre.ravel()[probe].tolist())) < tiny:
                    peaks = np.abs(centre[:, watch])
                    live = peaks.max(axis=0) >= tiny
                    out[c:].reshape(-1, rows)[:, watch[~live]] = 0.0
                    watch = watch[live]
                    probe = peaks[:, live].argmax(axis=0) * rows + watch
                state, k = out[c:], k + q
                while k < nxt:  # strides beyond _MAX_POWER and the final partial one
                    q = min(nxt - k, power)
                    _spread(state, x1, c, rows)
                    op(q).apply(x1, out1, k)
                    state, k = out1[c:], k + q
            stop = self._gather(instants, xs, outs, fields)
            i = settle.feed(fields, instants, stop) if settle else None
            if i is not None:  # the samples from i on come from the fit
                self.switch_step = min((j0 + i) * stride, nsteps)
                settle.fill(fields[:, i:], instants[i:stop])
            self._emit(instants, stop, fields, observers)
        return nsteps

    def _gather(self, instants, xs, outs, out):
        """Copy a block's samples out of the tiled buffers: u^k and
        u^(k+1) - u^(k-1) of every row into `out`, up to the first diverged
        sample.  Returns the number of samples kept."""
        nx, rows, cnt, c = self.grid.nx, self.n + 1, len(instants), xs.shape[1] // 6
        tiles = xs.shape[2] // rows
        state = xs[:cnt, 2 * c:4 * c]
        peak = np.maximum(state.max(axis=(1, 2)), -state.min(axis=(1, 2)))
        bad = np.flatnonzero(~(peak <= DIVERGENCE_LIMIT))
        stop = int(bad[0]) if bad.size else cnt

        def rows_of(a):  # (samples, c, tiles * rows) -> (samples, rows, nx)
            return a.reshape(stop, c, tiles, rows).transpose(0, 3, 2, 1).reshape(
                stop, rows, tiles * c)[..., :nx]

        out[0, :stop] = rows_of(state[:stop, 0::2])
        out[1, :stop] = rows_of(outs[:stop, :c] - state[:stop, 1::2])
        return stop

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
    series.stepped_to = None if sim.switch_step is None else sim.switch_step * grid.dt
    return series
