"""Finite-difference time-domain solver for the networked wave agents.

One leader (agent 0) and n followers evolve under the unit-speed wave
equation on [0, 1].  Both ends carry Neumann-type conditions: at x=0 a
Robin absorber u_x = c0 u_t (+ psi0 on followers), at x=1 the leader is
unforced while followers receive the boundary control
q = -k1 M u~(1,t) - k2 M u~_t(1,t) (+ psi1), built from boundary samples
only.  In-domain forcing f acts on followers.

Scheme: explicit 3-point leapfrog in the interior with ghost-point Neumann
closures, second order on the reflective standing wave.  The boundary
velocities use the implicit backward difference (u^{k+1}-u^k)/dt: the
explicit two-level difference is unstable at the reference gains, while the
implicit form costs one division per modal row.  It lags half a step, so
the forced boundary response is first order, and a row's spectral radius
exceeds 1 when k2 lam is small against k1 lam dx.  A 6th-difference filter
on the oldest time level (strength eps0 (1 - courant^2), zero at courant = 1
where transport is exact) drains near-Nyquist content that otherwise has
vanishing group velocity and never reaches the dissipative boundaries; its
response on resolved modes is O(theta^6), and it bounds courant from below.

`Simulation` runs in modal coordinates.  The pinned matrix is symmetric,
M = Q diag(lam) Q^T, so the deviation (error) dynamics split along its
eigenvectors into n independent single agents whose x=1 feedback gains
are scaled by lam_i; the leader is the lam = 0 row of the same stencil.
The rows [leader, mode_1 .. mode_n] differ only at node nx - 1 and share
the leader's propagator up to a rank-q update there.  `Simulation.run`
advances them all at once, one sample instant per product of one tiled
state: the q-step interior stencil (BLAS), the leader's correction on the
end windows, the exact forced response (each spatial pattern's responses
to unit loads, shared by all rows) and each row's q x 2q feedback through
node nx - 1, all probed from the one-step stencil; a sample costs
O(rows nx stride).  An unforced row whose peak decays below 2^-600 is set
to exact zero, so an undisturbed error never stalls in the slow subnormal
range; nothing downstream resolves fields that small.  Periodic runs stop
stepping: each row's steady state is solved exactly at the run's
frequencies, and the leader, stepped as its deviation from its discrete
equilibrium, settles to it.  `step` repeats the update per agent in
physical coordinates, apart from `_Stepper` on purpose: it is the oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .certificate import control_input
from .errors import DivergenceError
from .graph import Topology, pinned_matrix
from .signals import (DisturbanceSpec, ess_sup_running, eval_profile, eval_signal,
                      eval_space_time, zero_disturbances)

DIVERGENCE_LIMIT = 1e12
_MAX_POWER = 16         # longest propagator power; longer strides repeat it
_FLUSH_BITS = 600       # an unforced modal row below 2^-600 is set to zero
_CHUNK_BYTES = 1 << 20  # deviation fields per block of samples and functional batch
_FIT_BYTES = 1 << 22    # the steady state's coefficients; runs that need more keep stepping
_WINDOW = 8             # samples per check of the steady state
_D6 = np.array([1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0])
COURANT_FLOOR = 1e-6  # _Settle's leader solve is singular from 1e-9 (nx = 3) or 1e-10 (nx = 401)


@dataclass(frozen=True)
class Grid:
    """Uniform space-time grid; dt = c dx with COURANT_FLOOR <= c <= 1 and c^2 > d / (4 + d),
    d the dissipation: by Jury's test a root of the filtered grid-Nyquist mode's
    z^2 - 2 (1 - 2 c^2) z + 1 - d (1 - c^2) = 0 leaves the unit circle otherwise."""

    nx: int = 201
    courant: float = 0.9
    dissipation: float = 0.1

    def __post_init__(self):
        if not self.nx >= 3:
            raise ValueError(f"nx: the grid needs at least 3 points, got {self.nx}")
        if not 0.0 <= self.dissipation <= 1.0:
            raise ValueError(f"dissipation: {self.dissipation} is not in [0, 1]")
        if not COURANT_FLOOR <= self.courant <= 1.0:
            raise ValueError(f"courant: {self.courant} violates the CFL bound 1 "
                             f"or the floor {COURANT_FLOOR:g}")
        if not self.courant ** 2 > self.dissipation / (4.0 + self.dissipation):
            raise ValueError(f"courant: {self.courant} lets the grid-Nyquist mode grow; "
                             f"courant^2 must exceed dissipation / (4 + dissipation)")

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
            vb = ((un[1:, -1] - u[1:, -1]) - (un[0, -1] - u[0, -1])) / grid.dt
            control_hook(u_tilde_boundary=ub.copy(), u_tilde_t_boundary=vb,
                         q=control_input(mm, gains.k1, gains.k2, ub, vb))
    if not np.all(np.isfinite(un)) or np.max(np.abs(un)) > DIVERGENCE_LIMIT:
        k = int(round(t / grid.dt))
        raise DivergenceError(f"field values diverged during step {k}",
                              step_index=k)
    return WaveState(time=t + grid.dt, u_prev=u.copy(), u_curr=un)


def _formed(name):
    """A field of `SampleBlock`, formed on first access and then kept."""
    def form(self):
        a = self._stepped[name]
        if self._phi is not None:  # einsum's fixed order: an entry's bits do not depend on f
            b = np.einsum("sk,k...->s...", self._phi, self._coef[name])
            a = np.concatenate([a, b]) if len(a) else b
        a.flags.writeable = False
        return a
    return cached_property(form)


class SampleBlock:
    """The s >= 1 samples of one block as read-only arrays: `steps` and
    `times` (s,), `leader` and `leader_vel` (s, nx), and the followers'
    deviations u_i - u_0, `error` and `error_vel` (s, n, nx).  Velocities
    are centered differences across the surrounding levels, matching the
    accuracy of the scheme itself.  `step_index` is the last step.  The
    samples filled from the steady state (the block's last f, from
    `Simulation.switch_step` on) are their phases phi(t_k) (f, k) times each
    field's coefficients (k, ...): `error` is formed at once, `error_vel`,
    `leader` and `leader_vel` on first access, and each is then kept."""

    leader, leader_vel, error, error_vel = map(_formed, ("leader", "leader_vel", "error",
                                                         "error_vel"))

    def __init__(self, steps, times, stepped, phi=None, coef=None):
        """`stepped` holds each field of the samples before the filled ones."""
        steps.flags.writeable = times.flags.writeable = False
        self.__dict__.update(steps=steps, times=times, step_index=int(steps[-1]),
                             _stepped=stepped, _phi=phi, _coef=coef)
        self.error  # both built-in observers read it

    def __setattr__(self, name, value):
        raise AttributeError(f"SampleBlock.{name} is read-only")


def _levels(stepper: _Stepper, u, up, q: int):
    """The levels u^k .. u^(k+q) of every row (axis 1) over q unforced
    steps from u^k = u and u^(k-1) = up; a product outputs levels 1, q and
    q - 1 of them."""
    levels = [u]
    for _ in range(q):
        u, up = stepper.step(u, up), u
        levels.append(u)
    return np.stack(levels, axis=1)


def _delayed(levels, q: int):
    """(j, level, x), j < q: u^k .. u^(k+q) of an input that enters level
    k + j + 1 as the q or more `levels` enter level k."""
    return np.r_[np.zeros((q, levels.shape[1])), levels][
        np.arange(q + 1) - np.arange(q)[:, None] + q - 1]


def _end_terms(levels):
    """h of each input from its lam = 0 levels (input, level, x): the
    increments d_j of node nx - 1 over the steps, then its values v_j."""
    end = levels[:, :, -1]
    return np.hstack([np.diff(end, axis=1), end[:, :-1]])


def _spread(state, x, c: int, rows: int):
    """Stack the left, centre and right neighbours of each tile of the
    tiled state (2c x tiles*rows) into x; the zero tiles beyond the ends
    are never written."""
    x[2 * c:4 * c] = state
    x[:2 * c, rows:] = state[:, :-rows]
    x[4 * c:, :-rows] = state[:, rows:]


class _Propagator:
    """The stacked operator [S^1 (u level only); S^q] of all rows of a run
    on the tiled state (see `Simulation.run`), with tile width c at least
    the reach of the q-step interior stencil (its own reach if c is None).
    Output tile entries are u^(k+1) at the c nodes, then the state q steps
    on.  A row's step is the lam = 0 step plus
    b_j = (a_inv - 1) d_j - a_inv k1m v_j added to node nx - 1 of level
    k + j + 1, d_j being the lam = 0 increment of that node and v_j its
    value at level k + j (`_Stepper`).  So the rows share what is probed
    once from the lam = 0 `_Stepper`: the interior tile block `k` (3c x 6c),
    the correction `ch[:n]` on the end windows and the map `ch[n:]` to
    h = [d_0 .. d_(q-1), v_0 .. v_(q-1)], the outputs `g` and h (rows of
    `kh`) of q unit impulses, and the forced response `basis` (`_forcing`).
    A row keeps only its amplitudes of the loads and
    w = (I - D kh^T)^-1 D (q x 2q), D = [(a_inv - 1) I, -a_inv k1m I]:
    b = w h, a rank-q update through one node (Buzbee, Dorr, George & Golub,
    SIAM J. Numer. Anal. 8(4), 1971)."""

    def __init__(self, sim: Simulation, q: int, c: int | None = None):
        grid, gains, lam, nx = sim.grid, sim.gains, sim._lam, sim.grid.nx
        stepper = _Stepper(grid, gains, np.zeros(1))
        # the interior stencil: kern[ol, il, reach + d] maps level il of node x
        # to output ol (levels 1, q, q - 1 of `_levels`) of node x + d, probed
        # on a line whose edge formulas the unit inputs never reach (a step
        # reads three nodes on each side, the edge strips seven nodes in)
        h = 4 * q + 8
        u = np.zeros((2, 2, 2 * h + 1))
        u[0, 0, h] = u[1, 1, h] = 1.0  # probe row il carries the unit on level il
        kern = _levels(stepper, u[0], u[1], q)[:, [1, q, q - 1]]
        reach = int(np.abs(np.flatnonzero(kern.any(axis=(0, 1))) - h).max())
        kern = kern[:, :, h - reach:h + reach + 1].transpose(1, 0, 2)
        c = reach if c is None else c
        self.c, self.rows, self.tiles, self.q = c, lam.size, -(-nx // c), q
        self.dt, self.omegas = grid.dt, sim._omegas
        # (level, node within the tile) of each output and each input entry
        self.ol = np.r_[np.zeros(c, int), np.tile([1, 2], c)]
        self.xl = np.r_[np.arange(c), np.repeat(np.arange(c), 2)]
        il, xi = np.tile([0, 1], c), np.repeat(np.arange(c), 2)
        xin = (xi + c * np.arange(-1, 2)[:, None]).ravel()  # the tiles left, centre, right

        def stencil(ol, il, d):
            return np.where(abs(d) <= reach, kern[ol, il, np.clip(d + reach, 0, 2 * reach)], 0.0)

        self.k = stencil(self.ol[:, None], np.tile(il, 3), self.xl[:, None] - xin)
        # the lam = 0 levels of each input (level, node) near an end; the edge
        # formulas read at most seven nodes in, so deeper inputs respond as in
        # the interior and never reach node nx - 1.  Each is stepped on the
        # `span` nodes from its own end: its response stays clear of the nine
        # nodes the far end's formulas read, so each node it reaches gets the
        # operations of the full line.  The levels, their correction (the
        # stencil's reach included) and the window scan cover only the nodes
        # of the two lines, never all nx
        edge = np.flatnonzero(np.minimum(np.arange(nx), nx - 1 - np.arange(nx)) < 2 * c + 8)
        cl, cx = np.repeat([0, 1], edge.size), np.tile(edge, 2)
        span, left = min(nx, 2 * c + 17 + reach), cx < 2 * c + 8
        nodes = np.r_[:min(span, nx - span), nx - span:nx]  # the nodes of both lines
        u = np.zeros((2, cx.size, span))
        u[cl, np.arange(cx.size), np.where(left, cx, cx - nx + span)] = 1.0
        a = np.zeros((cx.size, q + 1, nodes.size))
        lines = _levels(stepper, u[0], u[1], q)
        a[left, :, :span], a[~left, :, -span:] = lines[left], lines[~left]
        imp = _delayed(a[(cl == 0) & (cx == nx - 1)][0], q)  # the unit u^k of node nx - 1
        kh = _end_terms(imp) - np.eye(q, 2 * q)  # a row's own d_j does not see b_j
        corr, g = a[:, [1, q, q - 1]], imp[:, [1, q, q - 1]]
        corr -= stencil(np.arange(3)[:, None], cl[:, None, None], nodes - cx[:, None, None])
        cols = corr.any(axis=(1, 2)) | _end_terms(a).any(axis=1)  # the windows
        ol_o, p_o = np.nonzero(corr[cols].any(axis=0) | g.any(axis=0))
        x_o, il_w, x_w = nodes[p_o], cl[cols], cx[cols]
        self.ch = np.vstack([corr[cols][:, ol_o, p_o].T, _end_terms(a[cols]).T])
        self.g = g[:, ol_o, p_o].T
        st = _Stepper(grid, gains, lam)
        d = np.kron(np.c_[st.a_inv - 1.0, -st.a_inv * st.k1m][:, None], np.eye(q))  # D per row
        self.w = np.linalg.solve(np.eye(q) - d @ kh.T, d)
        # entries as rows of the (entry, tile) x row layout
        t = self.tiles
        self.outs = np.where(ol_o == 0, x_o % c, c + 2 * (x_o % c) + ol_o - 1) * t + x_o // c
        self.ins = (2 * (x_w % c) + il_w) * t + x_w // c
        self.pad = np.flatnonzero((t - 1) * c + self.xl >= nx) * t + t - 1  # beyond the last node
        self.forced, self.amp = np.zeros(self.rows, bool), None
        if sim._loads:
            self._forcing(sim, stepper)

    def tiled(self, levels):
        """(rows, 3, nx) output levels as (3c, tiles, rows) entries."""
        c, t = self.c, self.tiles
        pad = np.zeros((*levels.shape[:2], c * t), levels.dtype)
        pad[..., :levels.shape[2]] = levels
        return pad[:, self.ol[:, None], self.xl[:, None] + c * np.arange(t)].transpose(1, 2, 0)

    def _forcing(self, sim: Simulation, stepper: _Stepper):
        """The forced response, shared by all rows: `basis` holds each spatial
        pattern's responses to unit loads at the q steps (the tiled entries,
        then their h), against the modal loads at those steps (`apply`).  A
        load enters the lam = 0 increment d_j, so a pattern costs the q
        lam = 0 steps after its unit load, and each row's w acts on the
        forced h in `apply` together with the free one.  A row keeps only
        its amplitudes `amp` by pattern and frequency: the load at step
        k + j is Re(amp e^(i w (k + j) dt)), from Re amp and Im amp of each w
        and `lag` (q x 2 n_w: Re e^(i w j dt), -Im e^(i w j dt)) turned by
        e^(i w k dt) in `apply`; with 2 n_w <= q `lag` is folded into `basis`
        and the turn goes to amp."""
        q, zero, n_w = self.q, np.zeros((1, sim.grid.nx)), self.omegas.size
        self.amp, cols = np.zeros((self.rows, len(sim._loads), n_w), complex), []  # (row, pattern, w)
        self.units = np.empty((len(sim._loads), sim.grid.nx))  # the step of each unit load
        for p, ((channel, _), (shape, a)) in enumerate(sim._loads.items()):
            unit = [None, None, None]
            unit[channel] = shape[None] if channel == 2 else np.ones(1)
            self.units[p] = stepper.step(zero, zero, *unit)
            r = _delayed(_levels(stepper, self.units[p, None], zero, q - 1)[0], q)
            cols.append(np.r_[self.tiled(r[:, [1, q, q - 1]]).reshape(-1, q), _end_terms(r).T])
            self.amp[1:, p] = (a.real @ sim._q + 1j * (a.imag @ sim._q)).T  # Q stays real
        self.forced = self.amp.any(axis=(1, 2))
        e = np.exp(1j * self.dt * np.outer(np.arange(q), self.omegas))
        self.lag = np.stack([e.real, -e.imag], axis=2).reshape(q, -1)  # Re, Im of each w
        if 2 * n_w <= q:
            cols, self.lag = [b @ self.lag for b in cols], None
        self.basis = np.asfortranarray(np.hstack(cols))  # few columns: BLAS's fast layout

    def loads(self, steps):
        """z of `apply` for products from each of `steps`, (steps, row, pattern,
        Re and Im of each w), from one call; None unless `lag` is folded."""
        if self.amp is not None and self.lag is None:
            turn = np.exp(1j * (np.asarray(steps)[:, None] * self.dt) * self.omegas)
            return (self.amp * turn[:, None, None]).view(float)

    def apply(self, x, out, k: int, z=None):
        """One product from step k: `out` gets u^(k+1) and the state q steps
        on (3c x tiles*rows) of the state whose left, centre and right tiles
        are stacked in `x` (6c x tiles*rows); z is `loads` of k, if made."""
        c, rows, n = self.c, self.rows, self.outs.size
        np.matmul(self.k, x, out=out)
        o = out.reshape(-1, rows)
        ch = self.ch @ np.take(x[2 * c:4 * c].reshape(-1, rows), self.ins, axis=0)
        if self.amp is not None:  # (row, pattern, Re and Im of each w), or the q loads
            if self.lag is None:
                z = self.loads([k])[0] if z is None else z
            else:  # the phases first: a rows x q temporary, not rows x n_w
                turn = np.exp(1j * (k * self.dt) * self.omegas)
                z = self.amp.view(float).reshape(-1, self.lag.shape[1]) @ (
                    self.lag.view(complex) * turn.conj()).view(float).T
            f = self.basis @ z.reshape(rows, -1).T
            o += f[:len(o)]
            ch[n:] += f[len(o):]
        ch[:n] += self.g @ np.matmul(self.w, ch[n:].T[:, :, None])[:, :, 0].T
        o[self.outs] += ch[:n]
        o[self.pad] = 0.0


class _Settle:
    """The exact steady state of a run (see `Simulation.run`): one coefficient
    set C gives u^k = phi C and u^(k+1) - u^(k-1) = phi T C (`phases`)."""

    def __init__(self, sim: Simulation, op: _Propagator, count: int):
        """From the lam = 0 step u^(k+1) = A1 u^k + A2 u^(k-1) + g: the leader's
        equilibrium cbar = l y / l 1, l = [a, A2^T a], a (A1 + A2 - I) = 0 (0 with
        c0 = 0: u = a + b t solves the leader), and C (None for a constant load,
        where K below is singular, under two windows or past _FIT_BYTES).  At w,
        Y = K^-1 g with K = e^(i w dt) - A1 - e^(-i w dt) A2; a row's step adds
        gamma u_n at n = nx - 1, so its Y adds gamma Y_n / (1 - gamma (K^-1)_nn)
        K^-1 e_n (Sherman & Morrison, 1950)."""
        grid, nx, self.omegas = sim.grid, sim.grid.nx, sorted(set(np.abs(sim._omegas).tolist()))
        self.dt, self.pos, self.passes, self.ok = grid.dt, 0, 0, True
        self.cbar, self.ell, self.coef = 0.0, np.zeros((2, nx)), None
        if sim.gains.c0 == 0.0:
            return
        stepper, eye, zero = _Stepper(grid, sim.gains, np.zeros(1)), np.eye(nx), np.zeros((nx, nx))
        a1, a2 = stepper.step(eye, zero), stepper.step(zero, eye)  # A1^T, A2^T
        a = np.linalg.solve(eye - a1 - a2 + grid.weights[:, None], grid.weights)  # sum(a) = 1
        self.ell = np.stack([a, a2 @ a]) / (a + a2 @ a).sum()  # l / l 1
        (u, up), s = sim._y0[0], self.ell.sum(axis=0)
        self.cbar = u[0] + s @ (u - u[0]) - self.ell[1] @ (u - up)  # about u[0]: no cancellation
        shape = (1 + 2 * len(self.omegas), sim.n + 1, nx)
        if 0.0 in self.omegas or 8 * math.prod(shape) > _FIT_BYTES or count <= 2 * _WINDOW:
            return
        d = np.ravel([[0.0, 2.0 * math.sin(w * self.dt)] for w in self.omegas])  # T's off-diagonals
        self.lift = np.hstack([np.eye(len(d) + 1), np.diag(d, 1) - np.diag(d, -1)])  # [I, T]
        self.coef, st = np.zeros(shape), _Stepper(grid, sim.gains, sim._lam)
        for i, w in enumerate(sim._omegas):  # Re(y e^(i w k dt)) on cos and sin of |w| k dt
            e = np.exp(1j * w * self.dt)
            k = a2 / -e  # K^T, built in place
            k -= a1
            k.flat[::nx + 1] += e
            z = np.linalg.solve(k.T, np.c_[op.units.T, eye[:, -1]])
            g = (1.0 - 1.0 / st.a_inv) * (e - 1.0) - st.k1m
            y = op.amp[:, :, i] @ z[:, :-1].T  # (row, x)
            y += (g * y[:, -1] / (1.0 - g * z[-1, -1]))[:, None] * z[:, -1]
            j = 1 + 2 * self.omegas.index(abs(w))
            self.coef[j:j + 2] += y.real, -math.copysign(1.0, w) * y.imag
        self.tol = 1e-11 * np.array([abs(self.cbar), np.abs(self.coef[:, 1:]).max(initial=0.0)])

    def phases(self, instants):
        """phi = [1, cos w t, sin w t, ...] at t = k dt (math.cos, math.sin), and phi T."""
        t = [k * self.dt for k in instants]
        phi = np.array([[1.0] * len(t), *([f(w * x) for x in t] for w in self.omegas
                                          for f in (math.cos, math.sin))]).T.copy()
        return (phi @ self.lift).reshape(-1, 2, len(self.lift))

    def feed(self, fields, phi, stop: int):
        """Check the first `stop` samples of a block against `fill` at their
        phases `phi`, sample j in window j // _WINDOW, the x = 1 screen from
        one fill of the block, every entry from one of the window; the index
        of the first to fill after two passing windows in a row, or None."""
        i = 0
        if self.coef is not None:  # the x = 1 residual by level, sample and row
            screen = np.abs(self.fill(phi, slice(-1, None)) - fields[:, :stop, :, -1:]).max(3)
        while self.coef is not None and i < stop and self.passes < 2:
            take = min(_WINDOW - self.pos, stop - i)
            res = screen[:, i:i + take]
            if self.passes:
                res = np.abs(self.fill(phi[i:i + take]) - fields[:, i:i + take]).max(3)
            res = res.max(1)  # by level and row
            res[1, 0] /= 2.0 * self.dt  # the leader's u^(k+1) - u^(k-1) as leader_vel reads it
            self.ok &= res[:, 0].max() <= self.tol[0] and res[:, 1:].max(initial=0.0) <= self.tol[1]
            i, self.pos = i + take, (self.pos + take) % _WINDOW
            if self.pos == 0:
                self.passes, self.ok = self.passes + 1 if self.ok else 0, True
        return i if self.passes == 2 else None

    def physical(self, q):
        """The coefficients of each `SampleBlock` field of a filled sample,
        read-only: the leader's C[:, 0] with cbar, the deviations' Cu = Q C[:, 1:]
        from one product, and each velocity's T C / (2 dt)."""
        lead, cu = self.coef[:, 0].copy(), np.matmul(q, self.coef[:, 1:])
        lead[0] += self.cbar
        coef = dict(leader=lead, error=cu)
        for name, c in list(coef.items()):
            coef[name + "_vel"] = np.tensordot(self.lift[:, len(self.lift):], c, 1) / (2.0 * self.dt)
        for c in coef.values():
            c.flags.writeable = False
        return coef

    def fill(self, phi, x=slice(None)):
        """u^k and u^(k+1) - u^(k-1) of every row (entries x) at the phases `phi`."""
        return np.einsum("slk,kre->lsre", phi, self.coef[..., x])


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
        self._omegas = np.array(sorted({sig.angular_frequency for *_, sig in loads}), float)
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
        zero tile on each side, c the reach of S^p (p = stride, at most
        _MAX_POWER).  Each sample instant advances every row by one product
        of the `_Propagator` of S^p (a shorter final stride takes one of its
        own power, a longer one more), on one pair of tile buffers; it also
        gives u^(k+1) for the centered velocity.  Each sample's u^k and
        u^(k+1) - u^(k-1) are copied as tiles into a block (about
        _CHUNK_BYTES), which is turned to fields by row and node once, and
        each block goes to the observers, on the calling thread.  After a sample,
        an unforced row whose peak fell below 2^-_FLUSH_BITS is set to zero,
        out of the slow subnormal range.  A sample diverges when a modal row
        (the leader, or Q^T of the deviations) passes DIVERGENCE_LIMIT,
        checked before its product: the run makes no product from it on, and
        observers never see it or a later sample (`step` checks the
        physical fields instead, so near the limit it can stop later).

        The leader steps as its deviation from its equilibrium (`_Settle`),
        whose l y, kept by the product only to rounding, is reset to 0 once
        per _WINDOW samples.  A run stops stepping once it is periodic: windows of
        _WINDOW samples check the stepped fields against `fill`, first at x = 1
        only, then every entry, to 1e-11 of the largest mode coefficient (the
        leader's of its equilibrium, its u^(k+1) - u^(k-1) over 2 dt; a zero
        scale needs a zero residual), and after two passing windows in a row
        the rest are filled, from `switch_step` on (else None), and `steady`
        is that `_Settle`: phi(t_k) times each field's coefficients, formed at
        the switch (`physical`); a block forms `error` at once, `error_vel`,
        `leader` and `leader_vel` on first access."""
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if stride < 1:
            raise ValueError("stride must be at least 1")
        nx, rows = self.grid.nx, self.n + 1
        nsteps = int(math.ceil(horizon / self.grid.dt)) if horizon > 0 else 0
        count = -(-nsteps // stride) + 1  # sample instants: every stride steps, and the last
        power = min(stride, _MAX_POWER)
        ops = {power: _Propagator(self, power)}
        c = ops[power].c

        def op(q):
            if q not in ops:
                ops[q] = _Propagator(self, q, c)
            return ops[q]

        tiles = op(power).tiles
        size = min(max(1, _CHUNK_BYTES // (16 * max(self.n, 1) * nx)), count)  # samples per block
        # the state's left, centre and right tiles, and a product from it
        x, out = np.zeros((6 * c, tiles * rows)), np.empty((3 * c, tiles * rows))
        centre = x[2 * c:4 * c]
        # u^k, and u^(k+1) - u^(k-1), of a block's samples by row and node (the
        # nodes past nx - 1 of the last tile are cut off)
        padded = np.empty((2, size, rows, tiles * c))
        fields = padded[..., :nx]

        # only unforced rows are flushed; probe: per watched row, where its
        # largest entry was last seen in the centre tiles
        watch = probe = np.flatnonzero(~op(power).forced)
        tiny = 2.0 ** -_FLUSH_BITS
        settle = _Settle(self, op(power), count)
        self.switch_step, self.steady, self._cbar = None, None, settle.cbar
        y = self._y0 - np.r_[settle.cbar, np.zeros(self.n)][:, None, None]  # the leader: y0 - cbar
        state, ell, ones = (op(power).tiled(a[:, [0, 0, 1]])[c:].reshape(2 * c, -1)
                            for a in (y, settle.ell[None], np.ones((1, 2, nx))))  # (u^k, u^(k-1))
        coef = None  # each field's coefficients after the switch (`_Settle.physical`)
        for j0 in range(0, count, size):
            instants = [min(j * stride, nsteps) for j in range(j0, min(j0 + size, count))]
            if coef is not None:  # all filled
                self._emit(instants, len(instants), fields, observers, 0,
                           settle.phases(instants), coef)
                continue
            stop, z = len(instants), op(power).loads(instants)
            tiled = np.empty((2, stop, c, tiles * rows))  # the block's fields as tiles
            for i, k in enumerate(instants):
                _spread(state, x, c, rows)
                # u^k, the reported level, is checked in the modal rows (the
                # leader and Q^T of the deviations), not the physical fields
                tiled[0, i] = centre[0::2]
                if not np.abs(tiled[0, i]).max() <= DIVERGENCE_LIMIT:
                    stop = i
                    break
                nxt = min(k + stride, nsteps)
                q = min(nxt - k, power) or power  # the last sample: only u^(k+1)
                op(q).apply(x, out, k, None if z is None or q != power else z[i])
                np.subtract(out[:c], centre[1::2], out=tiled[1, i])
                if k == nsteps:
                    break
                if probe.size and min(map(abs, centre.reshape(-1)[probe].tolist())) < tiny:
                    peaks = np.abs(centre.reshape(-1, rows)[:, watch])
                    live = peaks.max(axis=0) >= tiny
                    out[c:].reshape(-1, rows)[:, watch[~live]] = 0.0
                    watch = watch[live]
                    probe = peaks[:, live].argmax(axis=0) * rows + watch
                if (j0 + i) % _WINDOW == 0:  # l y = 0, which the product keeps only to rounding
                    lead = out[c:, ::rows]
                    lead -= np.vdot(ell, lead) * ones
                state, k = out[c:], k + q
                while k < nxt:  # the rest of a stride beyond _MAX_POWER
                    q = min(nxt - k, power)
                    _spread(state, x, c, rows)
                    op(q).apply(x, out, k)
                    state, k = out[c:], k + q
            padded[:, :stop].reshape(2, stop, rows, tiles, c)[:] = tiled[:, :stop].reshape(
                2, stop, c, tiles, rows).transpose(0, 1, 4, 3, 2)
            del tiled  # not kept beside the deviations `_emit` forms
            phi = None if settle.coef is None else settle.phases(instants[:stop])
            i = settle.feed(fields, phi, stop)
            if i is not None:  # the samples from i on are filled
                self.switch_step, self.steady = min((j0 + i) * stride, nsteps), settle
                coef = settle.physical(self._q)
            self._emit(instants, stop, fields, observers, stop if i is None else i, phi, coef)
        return nsteps

    def _emit(self, instants, stop, fields, observers, cut, phi, coef):
        """Hand the first `stop` samples of a block to each observer as one
        SampleBlock (no call when `stop` is 0), then raise if the block
        diverged.  The first `cut` are stepped, with the physical deviation
        Q y of all of them from one product; the rest are filled from their
        phases phi[cut:stop] and `coef`."""
        dt = self.grid.dt
        t = np.array(instants[:stop + 1], dtype=float) * dt
        if stop:
            err = np.matmul(self._q, fields[:, :cut, 1:])
            err[1] /= 2.0 * dt
            stepped = dict(leader=fields[0, :cut, 0] + self._cbar,
                           leader_vel=fields[1, :cut, 0] / (2.0 * dt), error=err[0], error_vel=err[1])
            block = SampleBlock(np.array(instants[:stop]), t[:stop], stepped,
                                phi[cut:stop, 0] if cut < stop else None, coef)
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
    `SampleBlock`).  The functionals are evaluated on each block, with the
    running sups es_* of the disturbance channels at the block's sample
    times: one `analysis.lyapunov_sample` call for the stepped samples, and
    one `analysis.steady_sample` for those at or after `switch_step`, from
    the Gram forms of the steady state (built once) at their phases.
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
    es, gram = np.zeros(3), None

    def record(block: SampleBlock):
        nonlocal es, gram
        v = amp * np.cos(om * block.times[:, None] + ph)
        sups = np.hstack([  # (1, c) @ (c, 1) products: the dot of a single sample
            np.matmul(v[:, None, :n], v[:, :n, None]),
            np.matmul(v[:, None, n:2 * n], v[:, n:2 * n, None]),
            np.matmul(v[:, None, 2 * n:] ** 2, f_nsq[:, None])])[:, :, 0]
        sups = ess_sup_running(np.vstack([es, sups]))[1:]
        es = sups[-1]
        phi = block._phi  # the filled samples', the block's last
        cut = len(block.steps) - (0 if phi is None else len(phi))
        if cut:
            series.append(analysis.lyapunov_sample(
                block.error[:cut], block.error_vel[:cut], weights, m, grid, block.times[:cut],
                *sups[:cut].T))
        if cut < len(block.steps):
            if gram is None:
                gram = analysis.steady_gram(block._coef["error"], block._coef["error_vel"], m, grid)
            series.append(analysis.steady_sample(gram, phi, block.error[cut:], weights,
                                                 block.times[cut:], *sups[cut:].T))

    sim.run(horizon, observers=[record, *observers], stride=stride)
    series.stepped_to = None if sim.switch_step is None else sim.switch_step * grid.dt
    return series
