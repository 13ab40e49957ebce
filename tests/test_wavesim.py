import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import each_sample, samples
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_analysis import PLAIN

from waveconsensus import analysis, harness, wavesim
from waveconsensus.analysis import FunctionalWeights, lyapunov_sample
from waveconsensus.errors import DivergenceError
from waveconsensus.graph import build_topology, pinned_matrix
from waveconsensus.signals import (DisturbanceSpec, ProfileSpec, SignalSpec,
                                   SpaceTimeSpec)
from waveconsensus.wavesim import (COURANT_FLOOR, ControlGains, Grid, Simulation, WaveState,
                                   init_state, simulate, step)

GAINS = ControlGains(k1=30.0, k2=10.0, c0=2.5)


def reference_profiles():
    return [
        (ProfileSpec(kind="cosine", amplitude=10.0, spatial_frequency=2.0),
         ProfileSpec()),
        (ProfileSpec(kind="cosine", amplitude=5.0, spatial_frequency=2.0),
         ProfileSpec(kind="polynomial", coefficients=(0.0, 1.0))),
        (ProfileSpec(kind="cosine", amplitude=1.0, spatial_frequency=1.0),
         ProfileSpec(kind="polynomial", coefficients=(0.0, 2.0))),
        (ProfileSpec(kind="cosine", amplitude=-5.0, spatial_frequency=1.0),
         ProfileSpec(kind="polynomial", coefficients=(0.0, 3.0))),
    ]


def resting_leader_profiles():
    """The reference followers under a leader with zero displacement and
    velocity: an all-zero modal row."""
    return [(ProfileSpec(), ProfileSpec()), *reference_profiles()[1:]]


def heterogeneous_disturbances():
    """Per-agent signals at several frequencies and phases, one channel
    zero, and two spatial profiles: every forcing path of the kernel."""
    return DisturbanceSpec(
        psi0=tuple(SignalSpec(kind="sinusoid", amplitude=2.0 + i,
                              angular_frequency=10.0 - i, phase=0.1 * i)
                   for i in range(3)),
        psi1=(SignalSpec(kind="sinusoid", amplitude=1.0, angular_frequency=7.0),
              SignalSpec(),
              SignalSpec(kind="sinusoid", amplitude=0.5, angular_frequency=3.0)),
        f=(SpaceTimeSpec(
            kind="separable",
            temporal=SignalSpec(kind="sinusoid", amplitude=3.0,
                                angular_frequency=10.0),
            spatial=ProfileSpec(kind="polynomial", coefficients=(1.0,))),
           SpaceTimeSpec(),
           SpaceTimeSpec(
            kind="separable",
            temporal=SignalSpec(kind="sinusoid", amplitude=2.0,
                                angular_frequency=5.0),
            spatial=ProfileSpec(kind="cosine", amplitude=1.0,
                                spatial_frequency=2.0))))


def growing_disturbances():
    """Constant loads on two followers: with zero gains and reflective ends
    the deviation grows like t^2 and passes the divergence limit near
    t = 33 s at nx = 101."""
    return DisturbanceSpec(
        psi0=(SignalSpec(),) * 3, psi1=(SignalSpec(),) * 3,
        f=tuple(SpaceTimeSpec(
            kind="separable",
            temporal=SignalSpec(kind="sinusoid", amplitude=a, angular_frequency=0.0),
            spatial=ProfileSpec(kind="polynomial", coefficients=(1.0,)))
            for a in (1e9, 0.0, 2e9)))


def mixed_disturbances(n):
    """Every forcing path for n followers: psi0 and psi1 (at the end whose
    gains scale with lam) at two distinct frequencies, and f with two
    spatial shapes."""
    def sig(i, w):
        return SignalSpec(kind="sinusoid", amplitude=1.0 + i % 3, angular_frequency=w,
                          phase=0.1 * i)
    shapes = (ProfileSpec(kind="polynomial", coefficients=(1.0, -0.5)),
              ProfileSpec(kind="cosine", amplitude=1.0, spatial_frequency=2.0))
    return DisturbanceSpec(
        psi0=tuple(sig(i, (10.0, 7.0)[i % 2]) for i in range(n)),
        psi1=tuple(sig(i, (7.0, 10.0)[i % 2]) for i in range(n)),
        f=tuple(SpaceTimeSpec(kind="separable", temporal=sig(i, (10.0, 7.0)[i % 2]),
                              spatial=shapes[i % 2]) for i in range(n)))


def end_disturbances(n, channel, n_w):
    """psi0 or psi1 alone, on every follower, at n_w frequencies: loads
    whose forced response is zero away from one end."""
    return DisturbanceSpec(**{channel: tuple(
        SignalSpec(kind="sinusoid", amplitude=1.0 + i % 3, angular_frequency=7.0 + i % n_w,
                   phase=0.1 * i) for i in range(n))})


def varied_profiles(n):
    """Moving leader and followers, each with its own shape."""
    return [(ProfileSpec(kind="cosine", amplitude=1.0 + i, spatial_frequency=1.0 + i % 3),
             ProfileSpec(kind="polynomial", coefficients=(0.0, 0.1 * i)))
            for i in range(n + 1)]


def use_blocks(monkeypatch, samples_per_block, grid, n=3):
    """Blocks of `samples_per_block` sample instants for an n-follower run."""
    monkeypatch.setattr(wavesim, "_CHUNK_BYTES", 16 * n * grid.nx * samples_per_block)


def path_topology(n):
    """n followers on a path, the leader linked to the first."""
    path = np.eye(n, k=1, dtype=int) + np.eye(n, k=-1, dtype=int)
    return build_topology(path.tolist(), [1] + [0] * (n - 1))


def fresh_process(code):
    """stdout of `code` run by a new interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wavesim.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def snapshot(sp):
    """Every output of a sample, arrays as bytes (bit-exact comparison)."""
    return (sp.step_index, sp.time,
            *(a.tobytes() for a in (sp.leader, sp.leader_vel, sp.error, sp.error_vel)))


def phase_shifted(dist, shift):
    """The disturbances with `shift` added to the phase of every signal."""
    def move(sig):
        return replace(sig, phase=sig.phase + shift)
    return DisturbanceSpec(psi0=tuple(map(move, dist.psi0)), psi1=tuple(map(move, dist.psi1)),
                           f=tuple(replace(st, temporal=move(st.temporal)) for st in dist.f))


# (first sample, value) of each rise of the running sups es_psi0_sq, es_psi1_sq
# and es_f_sq over 42 samples of the heterogeneous disturbances shifted by 2
# rad, as the kernel computed them sample by sample before they moved to
# `simulate`
SHIFTED_SUPS = (
    ((0, 8.527876102412273), (1, 28.96362031904614)),
    ((0, 0.21647273696024258), (1, 1.0000992186406192), (2, 1.0230386406549374),
     (5, 1.067795878265957), (13, 1.1429770171483518)),
    ((0, 1.904960085250136), (1, 10.398524968988289), (29, 10.43559250119453)),
)


# samples per block: one, and blocks across which the run's state carries
BLOCKS = (1, 2, 4)


@pytest.fixture
def _shortcut(monkeypatch):
    """shortcut(False) turns the steady-state shortcut of `Simulation.run`
    off for the rest of the test, shortcut(True) back on: with no bytes for
    the fit's coefficients a run gets no fit window and steps to the end."""
    fit_bytes = wavesim._FIT_BYTES
    return lambda on: monkeypatch.setattr(wavesim, "_FIT_BYTES", fit_bytes if on else 0)


def settled_run(topo, gains, grid, profiles, dist, horizon, stride=10):
    """A run's switch step and its samples' fields (leader, leader_vel,
    error, error_vel), each over all samples."""
    blocks = []
    sim = Simulation(topo, gains, grid, profiles, dist)
    sim.run(horizon, stride=stride, observers=(lambda b: blocks.append(
        (b.leader, b.leader_vel, b.error, b.error_vel)),))
    return sim.switch_step, [np.concatenate(f) for f in zip(*blocks)]


FIELDS = ("leader", "leader_vel", "error", "error_vel")


def assert_filled_as_rotated_fill(topo, grid, profiles, dist, horizon, stride=10):
    """Each field of a run's filled samples against its steady state's modal
    fields, phi C, turned by Q (the leader plus its equilibrium, the
    velocities over 2 dt), to 1e-13 of the field's largest magnitude; the
    switch step, or None for a run that steps to the end."""
    blocks = []
    sim = Simulation(topo, GAINS, grid, profiles, dist)
    sim.run(horizon, stride=stride, observers=(blocks.append,))
    if sim.switch_step is None:
        return None
    steps = np.concatenate([b.steps for b in blocks])
    first, settle = steps.searchsorted(sim.switch_step), sim.steady
    modal = np.einsum("slk,kre->lsre", settle.phases(steps[first:].tolist()), settle.coef)
    ref = (modal[0, :, 0] + settle.cbar, modal[1, :, 0] / (2.0 * grid.dt),
           np.matmul(sim._q, modal[0, :, 1:]), np.matmul(sim._q, modal[1, :, 1:]) / (2.0 * grid.dt))
    for name, b in zip(FIELDS, ref):
        a = np.concatenate([getattr(block, name) for block in blocks])[first:]
        assert a.shape == b.shape and np.abs(a - b).max() <= 1e-13 * np.abs(b).max(), name
    return sim.switch_step


def assert_functionals_close(series, ref, rel=1e-10):
    """The same instants, and each column of `series` within `rel` of the
    largest magnitude of that column in `ref`."""
    assert series.times.tobytes() == ref.times.tobytes()
    for name, col in ref.columns.items():
        assert np.abs(series.columns[name] - col).max() <= rel * np.abs(col).max(), name


def series_bytes(series, first=0):
    """The time stamps and every column of a series from sample `first` on,
    as bytes."""
    return b"".join(a[first:].tobytes() for a in (series.times, *series.columns.values()))


# functional weights with every term of V in play
WEIGHTS = FunctionalWeights(k1=30.0, k2=10.0, rho1=0.05, rho2=0.5)


def leader_energy(block, grid):
    """The open-loop energy E of each leader sample of a block."""
    return lyapunov_sample(block.leader[:, None], block.leader_vel[:, None], PLAIN,
                           np.eye(1), grid).E


def assert_matches_step(snaps, topo, profiles, dist, grid, case):
    """Each sample of a run against `step` iterated from `init_state`: the
    displacements to 1e-11 and the velocities to 1e-10 of their scale."""
    m = pinned_matrix(topo)
    states = [init_state(grid, profiles, GAINS, m, dist)]
    for _ in range(snaps[-1].step_index + 1):
        states.append(step(states[-1], GAINS, m, dist, grid))
    for sp in snaps:
        k = sp.step_index
        ref = states[k]
        dev = ref.u_curr[1:] - ref.u_curr[0]
        scale = max(np.max(np.abs(dev)), 1.0)
        assert np.max(np.abs(sp.error - dev)) < 1e-11 * scale, case
        assert np.max(np.abs(sp.leader - ref.u_curr[0])) < 1e-11 * 10.0, case
        vel = (states[k + 1].u_curr - ref.u_prev) / (2.0 * grid.dt)
        dev_vel = vel[1:] - vel[0]
        vscale = max(np.max(np.abs(dev_vel)), 1.0)
        assert np.max(np.abs(sp.error_vel - dev_vel)) < 1e-10 * vscale, case
        assert np.max(np.abs(sp.leader_vel - vel[0])) < 1e-10 * vscale, case


@st.composite
def trees(draw, max_n):
    """1 to max_n followers on a random spanning tree, at least one of them
    linked to the leader."""
    n = draw(st.integers(1, max_n))
    adj = np.zeros((n, n), int)
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        adj[i, j] = adj[j, i] = 1
    links = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    links[draw(st.integers(0, n - 1))] = True
    return build_topology(adj.tolist(), [int(b) for b in links])


def drawn_profiles(n):
    """Displacement and velocity profiles of the leader and n followers."""
    return st.lists(st.tuples(
        st.builds(ProfileSpec, kind=st.just("cosine"), amplitude=st.floats(-2.0, 2.0),
                  spatial_frequency=st.integers(0, 3).map(float)),
        st.builds(ProfileSpec, kind=st.just("polynomial"),
                  coefficients=st.tuples(st.just(0.0), st.floats(-1.0, 1.0)))),
        min_size=n + 1, max_size=n + 1)


@st.composite
def channel_loads(draw, n, frequencies):
    """One channel's sinusoids on the n followers (the first always loaded,
    the others or not), at one shared or at distinct `frequencies`, or None
    for an absent channel."""
    kind = draw(st.sampled_from(("absent", "shared", "distinct")))
    if kind == "absent":
        return None
    shared = draw(frequencies)
    return tuple(
        SignalSpec(kind="sinusoid", amplitude=draw(st.floats(0.1, 3.0)),
                   angular_frequency=shared if kind == "shared" else draw(frequencies),
                   phase=draw(st.floats(0.0, 2.0 * math.pi)))
        if draw(st.booleans()) or i == 0 else SignalSpec() for i in range(n))


@st.composite
def drawn_disturbances(draw, n, frequencies):
    """psi0, psi1 and f each drawn on its own; f on one or two shapes."""
    psi0, psi1, f = (draw(channel_loads(n, frequencies)) for _ in range(3))
    if f is not None:
        shapes = draw(st.lists(st.one_of(
            st.builds(ProfileSpec, kind=st.just("cosine"), amplitude=st.floats(0.2, 2.0),
                      spatial_frequency=st.integers(0, 4).map(float)),
            st.builds(ProfileSpec, kind=st.just("polynomial"),
                      coefficients=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))),
            min_size=1, max_size=2))
        f = tuple(SpaceTimeSpec(kind="separable", temporal=sig,
                                spatial=draw(st.sampled_from(shapes)))
                  if sig.kind == "sinusoid" else SpaceTimeSpec() for sig in f)
    return DisturbanceSpec(psi0=psi0 or (SignalSpec(),) * n, psi1=psi1 or (), f=f or ())


@st.composite
def settling_runs(draw):
    """A run that may settle, drawn as in `TestRandomRuns`' shortcut test: a
    tree of up to 4 followers, a grid, a stride, a horizon of 200-400 s,
    profiles, and loads at up to three frequencies, one of them maybe at
    pi / (stride dt), where every sample sees sin = 0."""
    topo = draw(trees(4))
    grid = Grid(nx=draw(st.integers(11, 41)))
    stride, horizon = draw(st.integers(1, 40)), draw(st.floats(200.0, 400.0))
    omegas = draw(st.lists(st.floats(0.5, 15.0), min_size=1, max_size=3))
    aliased = math.pi / (stride * grid.dt)
    if stride >= 2 and 0.5 <= aliased <= 15.0 and draw(st.booleans()):
        omegas.append(aliased)
    dist = draw(drawn_disturbances(topo.n, st.sampled_from(omegas)))
    assume(not dist.is_zero())
    return topo, grid, stride, horizon, draw(drawn_profiles(topo.n)), dist


def constant_profiles(values, n_agents):
    return [(ProfileSpec(kind="polynomial", coefficients=(values,)), ProfileSpec())
            for _ in range(n_agents)]


def standing_wave_error(nx, horizon=2.0):
    """Space-time max-norm error of the reflective-mode standing wave
    cos(pi x) cos(pi t) (c0 = 0, q = 0), robust to where the final step
    lands relative to the oscillation phase."""
    grid = Grid(nx=nx)
    gains = ControlGains(k1=0.0, k2=0.0, c0=0.0)
    profiles = [(ProfileSpec(kind="cosine", amplitude=1.0, spatial_frequency=1.0),
                 ProfileSpec())]
    worst = [0.0]

    def compare(sp):
        exact = np.cos(np.pi * grid.points) * math.cos(math.pi * sp.time)
        worst[0] = max(worst[0], float(np.max(np.abs(sp.leader - exact))))

    simulate(None, gains, grid, profiles, None, horizon=horizon,
             observers=(each_sample(compare),), stride=10)
    return worst[0]


class TestGridAndGains:
    def test_cfl_bound_enforced(self):
        with pytest.raises(ValueError, match="CFL"):
            Grid(nx=101, courant=1.1)

    def test_minimum_points(self):
        with pytest.raises(ValueError, match="points"):
            Grid(nx=2)

    @staticmethod
    def nyquist_radius(courant, dissipation):
        # the filtered grid-Nyquist mode: z^2 - 2 (1 - 2 c^2) z + 1 - d (1 - c^2) = 0
        c2 = courant * courant
        roots = np.roots([1.0, -2.0 * (1.0 - 2.0 * c2), 1.0 - dissipation * (1.0 - c2)])
        return np.abs(roots).max()

    @pytest.mark.parametrize("dissipation", [0.1, 1.0])
    def test_courant_below_the_nyquist_bound_is_refused(self, dissipation):
        # 0.1562 at the default dissipation 0.1, 0.4472 at 1: below it the
        # grid-Nyquist mode grows (0.155 diverged at step 3,020 on test 2)
        bound = math.sqrt(dissipation / (4.0 + dissipation))
        with pytest.raises(ValueError, match="^courant: .*Nyquist"):
            Grid(nx=51, courant=0.99 * bound, dissipation=dissipation)
        assert self.nyquist_radius(0.99 * bound, dissipation) > 1.0
        assert Grid(nx=51, courant=1.01 * bound, dissipation=dissipation).courant == 1.01 * bound
        assert self.nyquist_radius(1.01 * bound, dissipation) < 1.0

    @pytest.mark.parametrize("courant", [1e-10, 1e-300])
    def test_courant_below_the_floor_is_refused(self, courant):
        # without dissipation the Nyquist bound is 0; these courant numbers
        # ended in a LinAlgError (_Settle) and a ZeroDivisionError (_Propagator)
        with pytest.raises(ValueError, match="^courant: .*floor"):
            Grid(nx=51, courant=courant, dissipation=0.0)
        assert Grid(nx=51, courant=COURANT_FLOOR, dissipation=0.0).courant == COURANT_FLOOR

    def test_spacing(self):
        g = Grid(nx=201, courant=0.9)
        assert g.dx == pytest.approx(0.005)
        assert g.dt == pytest.approx(0.0045)

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ControlGains(k1=-1.0, k2=0.0, c0=1.0)

    def test_reflective_mode_allowed(self):
        assert ControlGains(k1=0.0, k2=0.0, c0=0.0).c0 == 0.0


class TestInitState:
    def test_zero_ics(self, path3_topology):
        grid = Grid(nx=51)
        m = pinned_matrix(path3_topology)
        profiles = [(ProfileSpec(), ProfileSpec())] * 4
        state = init_state(grid, profiles, GAINS, m)
        assert not state.u_curr.any() and not state.u_prev.any()

    def test_reference_displacements_at_origin(self, path3_topology):
        grid = Grid(nx=201)
        state = init_state(grid, reference_profiles(), GAINS,
                           pinned_matrix(path3_topology))
        assert state.u_curr[0, 0] == pytest.approx(10.0)
        assert state.u_curr[1, 0] == pytest.approx(5.0)

    def test_shared_constant_is_equilibrium_start(self, path3_topology):
        grid = Grid(nx=101)
        state = init_state(grid, constant_profiles(4.2, 4), GAINS,
                           pinned_matrix(path3_topology))
        assert np.array_equal(state.u_prev, state.u_curr)

    def test_profile_grid_mismatch(self, path3_topology):
        grid = Grid(nx=101)
        bad = [(ProfileSpec(kind="table", samples=(1.0,) * 50), ProfileSpec())] * 4
        with pytest.raises(Exception, match="samples"):
            init_state(grid, bad, GAINS, pinned_matrix(path3_topology))


class TestStep:
    def test_zero_state_stays_zero(self, path3_topology):
        grid = Grid(nx=51)
        m = pinned_matrix(path3_topology)
        state = WaveState(0.0, np.zeros((4, 51)), np.zeros((4, 51)))
        out = step(state, GAINS, m, None, grid)
        assert not out.u_curr.any()
        assert out.time == pytest.approx(grid.dt)

    def test_shared_constant_is_fixed_point(self, path3_topology):
        grid = Grid(nx=101)
        m = pinned_matrix(path3_topology)
        c = np.full((4, 101), -3.7)
        state = WaveState(0.0, c.copy(), c.copy())
        out = step(state, GAINS, m, None, grid)
        assert np.array_equal(out.u_curr, c)

    def test_divergence_detected(self, path3_topology):
        grid = Grid(nx=51)
        m = pinned_matrix(path3_topology)
        huge = np.full((4, 51), 5e13)
        state = WaveState(0.0, huge.copy(), huge.copy())
        with pytest.raises(DivergenceError):
            step(state, GAINS, m, None, grid)

    def test_control_reads_only_boundary_samples(self, path3_topology):
        from waveconsensus.certificate import control_input

        grid = Grid(nx=101)
        m = pinned_matrix(path3_topology)
        state = init_state(grid, reference_profiles(), GAINS, m)
        seen = {}

        def hook(u_tilde_boundary, u_tilde_t_boundary, q):
            seen["ub"] = u_tilde_boundary
            seen["vb"] = u_tilde_t_boundary
            seen["q"] = q

        out = step(state, GAINS, m, None, grid, control_hook=hook)
        # the sensed displacement is exactly the x=1 deviation sample
        expected_ub = state.u_curr[1:, -1] - state.u_curr[0, -1]
        assert seen["ub"] == pytest.approx(expected_ub, rel=1e-14)
        assert seen["ub"].shape == (3,)
        # the sensed velocity is the boundary-condition velocity of the solve
        dv = (out.u_curr - state.u_curr) / grid.dt
        expected_vb = dv[1:, -1] - dv[0, -1]
        assert seen["vb"] == pytest.approx(expected_vb, rel=1e-12)
        # and the applied input is the protocol evaluated on those samples
        assert seen["q"] == pytest.approx(
            control_input(m, GAINS.k1, GAINS.k2, seen["ub"], seen["vb"]), rel=1e-12)

    def test_interior_edit_leaves_sensed_displacement_unchanged(self, path3_topology):
        grid = Grid(nx=101)
        m = pinned_matrix(path3_topology)
        state = init_state(grid, reference_profiles(), GAINS, m)
        sensed = {}
        step(state, GAINS, m, None, grid,
             control_hook=lambda u_tilde_boundary, **kw: sensed.setdefault(
                 "a", u_tilde_boundary))
        state.u_curr[:, 1:-1] += 0.5  # interior-only perturbation
        step(state, GAINS, m, None, grid,
             control_hook=lambda u_tilde_boundary, **kw: sensed.setdefault(
                 "b", u_tilde_boundary))
        assert np.array_equal(sensed["a"], sensed["b"])

    def test_standing_wave_boundary_velocity(self):
        grid = Grid(nx=201)
        gains = ControlGains(k1=0.0, k2=0.0, c0=0.0)
        profiles = [(ProfileSpec(kind="cosine", amplitude=1.0,
                                 spatial_frequency=1.0), ProfileSpec())]
        out = step(init_state(grid, profiles, gains), gains, None, None, grid)
        # d/dt [cos(pi x) cos(pi t)] at x=1 near t=dt/2: +pi sin(pi t)
        t_mid = 0.5 * grid.dt
        expected = math.pi * math.sin(math.pi * t_mid)
        assert (out.u_curr[0, -1] - out.u_prev[0, -1]) / grid.dt == pytest.approx(
            expected, abs=5e-4)


class TestFilter:
    """`_filter_oldest`, the one stencil `step` shares with `_Stepper`, so no
    comparison of the two can find an error in it; checked here against its
    specification: u + eps / 64 times a 6th difference of binomial weights,
    centred inside, on the seven nodes nearest the end for nodes 1, 2,
    nx - 3 and nx - 2, and none at the end nodes."""

    ROW = [(-1) ** k * math.comb(6, k) for k in range(7)]

    def diff(self, up, start):
        return sum(c * up[:, start + k] for k, c in enumerate(self.ROW))

    def test_grid_nyquist_mode_scales_by_one_minus_eps(self):
        eps = 0.1 * (1.0 - 0.5 ** 2)
        nyq = (-1.0) ** np.arange(23)
        out = wavesim._filter_oldest(nyq[None], eps)[0]
        assert np.array_equal(out[3:-3], (1.0 - eps) * nyq[3:-3])

    def test_polynomials_up_to_degree_five_are_unchanged(self):
        j = np.arange(17.0)
        rng = np.random.default_rng(4)
        for degree in range(6):
            # integer values: every difference is exact
            p = np.polyval(rng.integers(-9, 10, degree + 1).astype(float), j)
            assert np.array_equal(wavesim._filter_oldest(p[None], 0.7)[0], p)

    def test_rows_match_the_specification(self):
        nx, eps = 19, 0.5  # integer fields and a dyadic eps: exact in any order
        up = np.random.default_rng(5).integers(-999, 1000, (3, nx)).astype(float)
        out = wavesim._filter_oldest(up, eps)
        assert np.array_equal(out[:, [0, -1]], up[:, [0, -1]])
        starts = {1: 0, 2: 1, nx - 3: nx - 9, nx - 2: nx - 8}
        for j in range(1, nx - 1):
            start = starts.get(j, j - 3)
            assert np.array_equal(out[:, j], up[:, j] + eps / 64 * self.diff(up, start)), j

    def test_short_lines_and_zero_strength_return_the_input(self):
        up = np.random.default_rng(6).standard_normal((2, 8))
        assert wavesim._filter_oldest(up, 0.5) is up
        wide = np.random.default_rng(7).standard_normal((2, 9))
        assert wavesim._filter_oldest(wide, 0.0) is wide
        assert not np.array_equal(wavesim._filter_oldest(wide, 0.5), wide)


class TestLeaderOnly:
    def test_open_loop_energy_nonincreasing(self):
        grid = Grid(nx=201)
        gains = ControlGains(k1=0.0, k2=0.0, c0=2.5)
        profiles = [(ProfileSpec(kind="cosine", amplitude=10.0, spatial_frequency=2.0),
                     ProfileSpec())]
        energies = []
        simulate(None, gains, grid, profiles, None, horizon=30.0,
                 observers=(lambda b: energies.extend(leader_energy(b, grid)),), stride=10)
        energies = np.array(energies)
        assert energies[0] > 0
        assert np.all(energies[1:] <= energies[:-1] * (1 + 1e-6) + 1e-12 * energies[0])

    def test_standing_wave_matches_analytic_solution(self):
        assert standing_wave_error(201) < 1e-3


class TestSimulate:
    def test_zero_horizon_single_record(self, path3_topology):
        grid = Grid(nx=51)
        series = simulate(path3_topology, GAINS, grid,
                          reference_profiles(), None, horizon=0.0)
        assert len(series) == 1
        assert series.times[0] == 0.0

    @pytest.mark.parametrize("stride", (1, 2, 7, 10, 17, 37, 40))
    def test_matches_reference_step_iteration(self, path3_topology, stride):
        # 83 steps: a final partial stride for every stride but 1, and more
        # than two 16-step powers; grids at or below the tile width have no
        # interior tile; a resting leader is an all-zero row; 1 and 25
        # followers carry every forcing path; loads at one end alone add
        # exact zeros to the entries beyond their reach on the wider grids,
        # psi0 at a frequency per follower (the forced response by step),
        # psi1 at two (by frequency, or by step for strides 1 and 2)
        networks = [(path3_topology, reference_profiles(), heterogeneous_disturbances()),
                    (path3_topology, resting_leader_profiles(), heterogeneous_disturbances()),
                    *((path_topology(n), varied_profiles(n), mixed_disturbances(n))
                      for n in (1, 25)),
                    (path_topology(25), varied_profiles(25), end_disturbances(25, "psi0", 25)),
                    (path_topology(25), varied_profiles(25), end_disturbances(25, "psi1", 2))]
        for nx in (3, 7, 15, 21, 101):
            grid = Grid(nx=nx)
            for topo, profiles, dist in networks:
                case = f"nx={nx}, n={topo.n}"
                snaps = []
                sim = Simulation(topo, GAINS, grid, profiles, dist)
                nsteps = sim.run(82.5 * grid.dt, observers=(lambda b: snaps.extend(samples(b)),),
                                 stride=stride)
                assert nsteps == 83, case
                assert [sp.step_index for sp in snaps] == [*range(0, nsteps, stride), nsteps]
                assert_matches_step(snaps, topo, profiles, dist, grid, case)

    @pytest.mark.parametrize("stride", (1, 7, 10, 37))
    def test_block_size_gives_bit_identical_samples(self, path3_topology, monkeypatch, stride):
        # 83 steps end on a partial stride; with one, three or the default
        # number of samples per block, every run spans several blocks; a
        # resting leader is an all-zero row
        grid = Grid(nx=81)
        for profiles in (reference_profiles(), resting_leader_profiles()):
            runs = {}
            for per_block in (None, 1, 3):  # the default first
                if per_block:
                    use_blocks(monkeypatch, per_block, grid)
                snaps = []
                Simulation(path3_topology, GAINS, grid, profiles,
                           heterogeneous_disturbances()).run(
                    83 * grid.dt, stride=stride,
                    observers=(each_sample(lambda sp: snaps.append(snapshot(sp))),))
                runs[per_block] = snaps
            assert len(runs[1]) > 3 and runs[1][-1][0] in (83, 84)
            assert runs[3] == runs[1] and runs[None] == runs[1]

    def test_kept_blocks_keep_the_bytes_of_one_sample_per_block(self, path3_topology,
                                                               monkeypatch):
        # each stepped sample is copied from the tiles into fields by row and
        # node, in one buffer that every block reuses: an observer that keeps
        # every block and reads it after the run gets the bytes of one sample
        # per block, over two default blocks of mixed loads whose phases are
        # folded in
        grid, kept = Grid(nx=81), {}
        for per_block in (None, 1):  # the default first
            if per_block:
                use_blocks(monkeypatch, per_block, grid)
            blocks = []
            sim = Simulation(path3_topology, GAINS, grid, reference_profiles(),
                             mixed_disturbances(3))
            sim.run(40.0, observers=(blocks.append,))
            assert sim.switch_step is None
            kept[per_block] = (len(blocks), [b"".join(getattr(b, name).tobytes() for b in blocks)
                                             for name in ("steps", "times", *FIELDS)])
        assert kept[None][0] == 2 and kept[1][0] == 357
        assert kept[1][1] == kept[None][1]

    def test_divergence_inside_a_block(self, path3_topology, monkeypatch):
        # observers see exactly the samples before the first diverged one,
        # whatever the block size
        grid = Grid(nx=101)
        gains = ControlGains(k1=0.0, k2=0.0, c0=0.0)
        seen, index = {}, {}
        for per_block in (8, *BLOCKS):
            use_blocks(monkeypatch, per_block, grid)
            snaps = []
            with pytest.raises(DivergenceError) as err:
                Simulation(path3_topology, gains, grid, reference_profiles(),
                           growing_disturbances()).run(
                    100.0, observers=(lambda b: snaps.extend(b.steps.tolist()),), stride=10)
            seen[per_block], index[per_block] = snaps, err.value.step_index
        k = index[8]
        # the check at sample instants first fails at step 3710 (t = 33.4 s),
        # which is not the first sample of a block of eight
        assert k == 3710 and (k // 10) % 8 != 0
        assert seen[8] == list(range(0, k, 10))
        assert all(seen[b] == seen[8] and index[b] == k for b in BLOCKS)

    def test_divergence_stops_stepping(self, path3_topology, monkeypatch):
        # the run above at the default block size (216 samples): one product
        # for each of the 371 samples before the first diverged one (step
        # 3710), and none for it or the rest of its block
        apply, calls, seen = wavesim._Propagator.apply, [], []

        def spy(self, x, out, z):
            calls.append(z)
            return apply(self, x, out, z)

        monkeypatch.setattr(wavesim._Propagator, "apply", spy)
        with pytest.raises(DivergenceError):
            Simulation(path3_topology, ControlGains(k1=0.0, k2=0.0, c0=0.0), Grid(nx=101),
                       reference_profiles(), growing_disturbances()).run(
                100.0, observers=(lambda b: seen.extend(b.steps.tolist()),), stride=10)
        assert len(calls) == 371 and seen == list(range(0, 3710, 10))

    @pytest.mark.parametrize("per_block", BLOCKS)
    def test_observer_failure_names_its_step(self, path3_topology, monkeypatch, per_block):
        grid = Grid(nx=51)
        use_blocks(monkeypatch, per_block, grid)
        sim = Simulation(path3_topology, GAINS, grid, reference_profiles(),
                         heterogeneous_disturbances())
        assert sim.run(60 * grid.dt, stride=5) == 60

        def fail_at_30(block):
            if 30 in block.steps:
                raise ValueError("observer bug")

        # step 30 is sample 6, so its block starts at sample 6 // b * b
        first = 6 // per_block * per_block * 5
        with pytest.raises(RuntimeError, match=f"failed on the block of steps {first} to "
                                               f"{first + 5 * (per_block - 1)}") as err:
            sim.run(60 * grid.dt, observers=(fail_at_30,), stride=5)
        assert isinstance(err.value.__cause__, ValueError)

    @pytest.mark.parametrize("per_block", BLOCKS)
    def test_observers_get_each_block_once_and_never_empty(self, path3_topology, monkeypatch,
                                                           per_block):
        # the first diverged sample (step 3710, the 372nd) ends the run: the
        # samples before it arrive in full blocks, then in one shorter block
        # unless it opens a block, which then reaches no observer
        grid = Grid(nx=101)
        use_blocks(monkeypatch, per_block, grid)
        blocks = []
        with pytest.raises(DivergenceError) as err:
            Simulation(path3_topology, ControlGains(k1=0.0, k2=0.0, c0=0.0), grid,
                       reference_profiles(), growing_disturbances()).run(
                100.0, observers=(blocks.append,), stride=10)
        assert err.value.step_index == 3710 and len(blocks) == -(-371 // per_block)
        assert all(b.steps.size == per_block for b in blocks[:-1])
        assert all(0 < b.steps.size and type(b.step_index) is int
                   and b.step_index == b.steps[-1] for b in blocks)
        assert np.concatenate([b.steps for b in blocks]).tolist() == list(range(0, 3710, 10))

    @pytest.mark.parametrize("n, nx", ((3, 201), (24, 101), (200, 101)))
    def test_block_deviation_is_the_per_sample_product(self, monkeypatch, n, nx):
        # Q y of a whole block in one product gives the bits of one product
        # per sample; the larger networks span several blocks
        grid = Grid(nx=nx)
        emit, modal, blocks = Simulation._emit, [], []

        def spy(self, instants, observers, fields=None, **filled):  # each block's modal fields
            modal.append((self._q, fields.copy()))
            return emit(self, instants, observers, fields, **filled)

        monkeypatch.setattr(Simulation, "_emit", spy)
        Simulation(path_topology(n), GAINS, grid, varied_profiles(n)).run(
            30 * grid.dt, observers=(blocks.append,), stride=1)
        assert len(blocks) == len(modal) and sum(b.steps.size for b in blocks) >= 31
        for (q, fields), b in zip(modal, blocks):
            for j in range(b.steps.size):
                cur, diff = (q @ fields[0, j, 1:]), (q @ fields[1, j, 1:]) / (2.0 * grid.dt)
                assert b.error[j].tobytes() == cur.tobytes()
                assert b.error_vel[j].tobytes() == diff.tobytes()

    @pytest.mark.parametrize("per_block", BLOCKS)
    def test_disturbance_sups_match_the_per_sample_values(self, path3_topology, monkeypatch,
                                                          per_block):
        # the running sups carry across blocks
        grid = Grid(nx=81)
        use_blocks(monkeypatch, per_block, grid)
        series = simulate(path3_topology, GAINS, grid, reference_profiles(),
                          phase_shifted(heterogeneous_disturbances(), 2.0), 400 * grid.dt)
        assert len(series) == 42
        for name, rises in zip(("es_psi0_sq", "es_psi1_sq", "es_f_sq"), SHIFTED_SUPS):
            expected = np.empty(42)
            for i, value in rises:
                expected[i:] = value
            assert series.column(name).tobytes() == expected.tobytes(), name

    def test_cli_import_leaves_scipy_out(self):
        # scipy.sparse alone costs about 0.23 s and 22 MB of start-up; the CLI
        # parses its arguments with the standard library alone
        assert fresh_process("import sys, waveconsensus.cli; "
                             "print('scipy' in sys.modules, 'click' in sys.modules)"
                             ).split() == ["False", "False"]

    def test_run_imports_no_numpy_module(self, tmp_path):
        # np.unique called np.ma.is_masked, which imports numpy.ma on first
        # use on numpy 2.4 (about 15 ms); a simulate that settles, and analyze
        # on its CSV, load no numpy module that the CLI import did not
        sig = {"kind": "sinusoid", "amplitude": 1.0, "angular_frequency": 7.0}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "topology": {"adjacency": [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
                         "leader_links": [1, 0, 0]},
            "gains": {"k1": 30.0, "k2": 10.0, "c0": 2.5}, "grid": {"nx": 31},
            "horizon": 200.0, "disturbances": {"psi1": [sig] * 3}}))
        out = fresh_process(f"""
import contextlib, io, sys
import waveconsensus.cli as cli
from waveconsensus import analysis
before, filled, gram = set(sys.modules), [], analysis.steady_sample
analysis.steady_sample = lambda *a: filled.append(1) or gram(*a)
for argv in (["simulate", "--config", {str(cfg)!r}, "--out", {str(tmp_path)!r}],
             ["analyze", {str(tmp_path / "timeseries.csv")!r}]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
        cli.main(argv)
print(bool(filled), *sorted(m for m in set(sys.modules) - before if m.startswith("numpy")))
""")
        assert out.split() == ["True"]

    def test_run_starts_no_thread(self):
        # a 24-follower network at 101 grid points advances on the calling
        # thread alone
        seen = fresh_process("""
import threading
from waveconsensus.graph import build_topology
from waveconsensus.signals import ProfileSpec
from waveconsensus.wavesim import ControlGains, Grid, Simulation
n = 24
topo = build_topology([[int(abs(i - j) == 1) for j in range(n)] for i in range(n)],
                      [1] + [0] * (n - 1))
grid, seen = Grid(nx=101), [threading.active_count()]
Simulation(topo, ControlGains(30.0, 10.0, 2.5), grid,
           [(ProfileSpec(kind="cosine", amplitude=1.0, spatial_frequency=1.0),
             ProfileSpec())] * (n + 1)).run(
    200 * grid.dt, observers=(lambda block: seen.append(threading.active_count()),))
print(*seen, threading.active_count())
""").split()
        assert len(seen) > 2 and set(seen) == {"1"}

    @pytest.mark.parametrize("per_block", BLOCKS)
    def test_flush_zeroes_only_decayed_unforced_rows(self, path3_topology, monkeypatch,
                                                     per_block):
        # with a threshold of 2^-2, undisturbed modal rows and the leader's
        # deviation from its equilibrium decay below it and are flushed; from
        # rest, the forced response is below it for a while, but forced rows
        # are never flushed
        grid = Grid(nx=81)
        use_blocks(monkeypatch, per_block, grid)
        emit, apply = Simulation._emit, wavesim._Propagator.apply
        modal, peaks, bits = [], [], wavesim._FLUSH_BITS

        def emit_spy(self, instants, observers, fields=None, **filled):
            if fields is not None:  # the modal fields of a block of stepped samples
                modal.append(fields.copy())
            return emit(self, instants, observers, fields, **filled)

        def apply_spy(self, x, out, z):  # one product per sample at stride 7
            # each row's peak over both levels of its state, as the flush
            # reads it: the centre tiles, (entry, tile) x row
            peaks.append(np.abs(x[2 * self.c:4 * self.c].reshape(-1, self.rows)).max(axis=0))
            return apply(self, x, out, z)

        monkeypatch.setattr(Simulation, "_emit", emit_spy)
        monkeypatch.setattr(wavesim._Propagator, "apply", apply_spy)

        def fields(bits, profiles, dist, nsteps):
            monkeypatch.setattr(wavesim, "_FLUSH_BITS", bits)
            modal.clear()
            peaks.clear()
            sim = Simulation(path3_topology, GAINS, grid, profiles, dist)
            sim.run(nsteps * grid.dt, stride=7)
            # (u^k or u^(k+1) - u^(k-1), sample, row, nx), and (sample, row)
            return np.concatenate(modal, axis=1), np.vstack(peaks)

        forced = ([(ProfileSpec(), ProfileSpec())] * 4, heterogeneous_disturbances(), 120)
        (plain, plain_peaks), (flushed, _) = fields(bits, *forced), fields(2, *forced)
        assert 0.0 < plain_peaks[1:, 1:].min() < 2.0 ** -2
        assert plain.tobytes() == flushed.tobytes()

        undisturbed = (reference_profiles(), None, 3000)
        (plain, plain_peaks), (flushed, _) = fields(bits, *undisturbed), fields(2, *undisturbed)
        # once every row reads zero the flushed run switches to its (zero) steady
        # state, and only its stepped samples have modal fields
        assert plain.shape[1] > flushed.shape[1] and plain_peaks.min() > 0.0
        below, count = plain_peaks < 2.0 ** -2, plain_peaks.shape[0]
        # per row, the first sample that reads zero (the sample count if none)
        first = np.where(below.any(axis=0), below.argmax(axis=0) + 1, count)
        assert (first < flushed.shape[1]).all()
        for row, j in enumerate(first):
            assert plain[:, :j, row].tobytes() == flushed[:, :j, row].tobytes()
            assert not flushed[:, j:, row].any()

    @pytest.mark.parametrize("per_block", BLOCKS)
    def test_undisturbed_error_decays_past_the_subnormal_range(self, path3_topology,
                                                               monkeypatch, per_block):
        # unflushed, the stored error would stall near 1e-322; flushed, each
        # modal row reads exact zero once its peak falls below 2^-600
        grid = Grid(nx=21)
        use_blocks(monkeypatch, per_block, grid)
        peaks = []
        Simulation(path3_topology, GAINS, grid, reference_profiles()).run(
            4800.0, observers=(each_sample(lambda sp: peaks.append(np.max(np.abs(sp.error)))),))
        assert peaks[0] > 1.0 and peaks[-1] == 0.0

    def test_200_follower_path_graph_in_linear_memory(self):
        # the kernel stores O(n nx) entries per operator; a dense coupled
        # propagator of this network would take (2 n nx)^2 doubles, 13 GB
        n, grid = 200, Grid(nx=101)
        topo = path_topology(n)
        profiles = [(ProfileSpec(kind="cosine", amplitude=1.0, spatial_frequency=1.0),
                     ProfileSpec())] + [(ProfileSpec(), ProfileSpec())] * n
        sig = SignalSpec(kind="sinusoid", amplitude=1.0, angular_frequency=10.0)
        dist = DisturbanceSpec(psi0=(sig,) * n, psi1=(sig,) * n, f=(SpaceTimeSpec(
            kind="separable", temporal=sig,
            spatial=ProfileSpec(kind="polynomial", coefficients=(1.0,))),) * n)
        snaps = []
        tracemalloc.start()
        try:
            sim = Simulation(topo, GAINS, grid, profiles, dist)
            build_peak = tracemalloc.get_traced_memory()[1]
            nsteps = sim.run(25 * grid.dt, observers=(snaps.append,), stride=10)
            run_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert build_peak < 40 * 2**20 and run_peak < 100 * 2**20
        m = pinned_matrix(topo)
        state = init_state(grid, profiles, GAINS, m, dist)
        for _ in range(nsteps):
            state = step(state, GAINS, m, dist, grid)
        dev = state.u_curr[1:] - state.u_curr[0]
        assert snaps[-1].step_index == nsteps
        assert np.max(np.abs(snaps[-1].error[-1] - dev)) < 1e-11 * np.max(np.abs(dev))

    def test_run_keeps_one_pair_of_tile_buffers(self, monkeypatch):
        # a block of 100 samples holds F = 16 * 100 (n + 1) nx bytes of modal
        # fields; a run keeps them, the physical deviations `_emit` forms
        # from them (about F) and one pair of tile buffers.  A tiled state and
        # product kept per sample would add at least 4.5 F
        n, grid, per_block = 24, Grid(nx=101), 100
        use_blocks(monkeypatch, per_block, grid, n)
        sim = Simulation(path_topology(n), GAINS, grid, varied_profiles(n))
        tracemalloc.start()
        try:
            sim.run(2 * per_block * grid.dt, observers=(lambda block: None,), stride=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 16 * per_block * (n + 1) * grid.nx, peak / 2**20

    def test_400_follower_build_keeps_no_per_row_window(self):
        # the rows share the lam = 0 end windows and keep q x 2q each: a
        # per-row window of 68 x 84 would hold 18 MB here, twice over
        n, grid = 400, Grid(nx=101)
        sig = SignalSpec(kind="sinusoid", amplitude=1.0, angular_frequency=10.0)
        profiles = [(ProfileSpec(kind="cosine", amplitude=1.0, spatial_frequency=1.0),
                     ProfileSpec())] * (n + 1)
        tracemalloc.start()
        try:
            Simulation(path_topology(n), GAINS, grid, profiles, DisturbanceSpec(psi0=(sig,) * n)
                       ).run(25 * grid.dt, observers=(lambda block: None,), stride=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, peak / 2**20

    def test_scale_ladder_runs_in_linear_memory(self):
        # build plus a 25-step run of path graphs at 101 grid points with one
        # shared psi0 frequency: the operators hold O(n nx) entries and a
        # block about 1 MB of fields, so each doubling of the followers at
        # most 2.2x the peak
        grid = Grid(nx=101)
        sig = SignalSpec(kind="sinusoid", amplitude=1.0, angular_frequency=10.0)
        peaks = []
        for n in (25, 50, 100, 200):
            topo = path_topology(n)
            profiles = [(ProfileSpec(kind="cosine", amplitude=1.0, spatial_frequency=1.0),
                         ProfileSpec())] * (n + 1)
            tracemalloc.start()
            try:
                Simulation(topo, GAINS, grid, profiles, DisturbanceSpec(psi0=(sig,) * n)).run(
                    25 * grid.dt, observers=(lambda block: None,))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        growth = np.divide(peaks[1:], peaks[:-1])
        assert growth.max() <= 2.2, growth

    def test_distinct_frequencies_build_in_linear_memory(self):
        # one psi0 frequency per follower loads every mode at each frequency;
        # the forced response, built when a run starts, keeps q columns per
        # spatial pattern for all rows whatever the frequencies, and each row
        # one amplitude per pattern and frequency
        n, grid = 200, Grid(nx=101)
        topo = path_topology(n)
        profiles = [(ProfileSpec(), ProfileSpec())] * (n + 1)

        def build_peak(omegas):
            dist = DisturbanceSpec(psi0=tuple(
                SignalSpec(kind="sinusoid", amplitude=1.0, angular_frequency=w) for w in omegas))
            tracemalloc.start()
            try:
                sim = Simulation(topo, GAINS, grid, profiles, dist)
                sim.run(25 * grid.dt, observers=(lambda block: None,), stride=10)
                return tracemalloc.get_traced_memory()[1], sim._omegas.size
            finally:
                tracemalloc.stop()

        shared, shared_count = build_peak([10.0] * n)
        distinct, distinct_count = build_peak(10.0 + np.arange(n))
        assert (shared_count, distinct_count) == (1, n)
        assert distinct <= 1.5 * shared

    def test_divergence_reports_step_index(self, path3_topology):
        grid = Grid(nx=51)
        blowup = DisturbanceSpec(
            psi0=tuple(SignalSpec() for _ in range(3)),
            psi1=tuple(SignalSpec() for _ in range(3)),
            f=tuple(SpaceTimeSpec(
                kind="separable",
                temporal=SignalSpec(kind="sinusoid", amplitude=1e16,
                                    angular_frequency=0.0),
                spatial=ProfileSpec(kind="polynomial", coefficients=(1.0,)))
                for _ in range(3)))
        with pytest.raises(DivergenceError) as err:
            simulate(path3_topology, GAINS, grid, reference_profiles(),
                     blowup, horizon=5.0, stride=1)
        assert err.value.step_index is not None

    def test_divergence_is_read_on_the_reported_level(self, path3_topology):
        # a 3e13 psi1 load puts the Taylor start u^(-1) past the limit at
        # x = 1 while u^0 is zero: the run ends at the first sample whose own
        # level u^k, leader or mode, passes it
        grid, m = Grid(nx=21), pinned_matrix(path3_topology)
        dist = DisturbanceSpec(psi1=(SignalSpec(kind="sinusoid", amplitude=3e13,
                                                angular_frequency=1.0),) * 3)
        profiles = [(ProfileSpec(), ProfileSpec())] * 4
        with pytest.raises(DivergenceError) as err:
            Simulation(path3_topology, GAINS, grid, profiles, dist).run(1.0, stride=1)
        k, q = err.value.step_index, np.linalg.eigh(m)[1]
        states = [init_state(grid, profiles, GAINS, m, dist)]
        for _ in range(k):
            states.append(step(states[-1], GAINS, m, dist, grid))
        peaks = [max(np.abs(s.u_curr[0]).max(), np.abs(q.T @ (s.u_curr[1:] - s.u_curr[0])).max())
                 for s in states]
        assert np.abs(states[0].u_prev).max() > wavesim.DIVERGENCE_LIMIT
        assert k > 0 and peaks[-1] > wavesim.DIVERGENCE_LIMIT >= max(peaks[:-1])

    def test_closed_loop_energy_never_grows(self, path3_topology):
        # CFL safety across the admissible courant range, over the active
        # dynamic range of the energy (at courant=1 the high-frequency
        # filter is structurally off, so a ~1e-5-relative residue lingers
        # once the energy has decayed that far; the invariant targets
        # energy pumping by the scheme, i.e. the active phase)
        for courant in (0.5, 0.9, 1.0):
            grid = Grid(nx=201, courant=courant)
            series = simulate(path3_topology, GAINS, grid,
                              reference_profiles(), None, horizon=5.0,
                              functional_weights=FunctionalWeights(
                                  k1=GAINS.k1, k2=GAINS.k2, rho1=0.0, rho2=0.0),
                              stride=10)
            e = series.column("E")
            assert np.all(e[1:] <= e[:-1] * (1 + 1e-6)), f"courant={courant}"

    def test_spatial_convergence_second_order(self):
        errs = {nx: standing_wave_error(nx) for nx in (101, 201)}
        assert 3.5 <= errs[101] / errs[201] <= 4.5


def loaded_levels(stepper, u, up, q, loads):
    """`_levels` under loads: step j gets the psi0, psi1 and f of loads(j)."""
    levels = [u]
    for j in range(q):
        u, up = stepper.step(u, up, *loads(j)), u
        levels.append(u)
    return np.stack(levels, axis=1)


class TestPropagator:
    @pytest.mark.parametrize("gains", (GAINS, ControlGains(k1=30.0, k2=0.0, c0=2.5),
                                       ControlGains(k1=30.0, k2=10.0, c0=0.0)))
    def test_one_product_is_each_rows_own_levels(self, gains):
        # the shared lam = 0 operator, the shared forced response and each
        # row's q x 2q feedback through node nx - 1 against q steps of the
        # row's own `_Stepper` under the same modal loads (psi0, psi1 and one
        # f pattern), unloaded, at one frequency (phases folded into the
        # basis) and at more than q / 2 (phases per step), on grids whose two
        # end windows overlap and on grids where they do not
        lam = np.r_[0.0, 1e-3, np.linalg.eigvalsh(pinned_matrix(path_topology(6))), 50.0]
        rows, k = lam.size, 7  # the product starts at step k
        rng = np.random.default_rng(0)
        for nx in (9, 15, 21, 101):
            grid = Grid(nx=nx)
            shape = np.cos(3.0 * grid.points)
            for q in (1, 3, 10, 16):
                for n_w in (0, 1, q // 2 + 1):
                    omegas = np.sort(rng.uniform(0.5, 15.0, n_w))
                    # modal amplitudes by pattern, frequency and follower, each
                    # load's response O(1) per step; the leader is unloaded
                    scale = np.array([1.0 / grid.dx, 1.0 / grid.dx, grid.dt ** -2])[:, None, None]
                    amp = scale * (rng.standard_normal((3, n_w, rows - 1))
                                   + 1j * rng.standard_normal((3, n_w, rows - 1)))
                    loads = dict(zip([(0, None), (1, None), (2, shape.tobytes())],
                                     zip([None, None, shape], amp))) if n_w else {}
                    sim = SimpleNamespace(grid=grid, gains=gains, _lam=lam, _omegas=omegas,
                                          _loads=loads, _q=np.eye(rows - 1))
                    Simulation._form_rows(sim)

                    def modal_loads(j):
                        v = np.r_[np.zeros((1, 3)), (np.exp(1j * omegas * (k + j) * grid.dt)
                                                     @ amp).real.T]
                        return v[:, 0], v[:, 1], v[:, 2:] * shape

                    for width in (None, wavesim._Propagator(sim, 16).c):  # own reach, S^16's
                        op = wavesim._Propagator(sim, q, width)
                        assert n_w == 0 or (op.lag is None) == (2 * n_w <= q)
                        c = op.c
                        y = np.zeros((rows, 2, op.tiles * c))
                        y[..., :nx] = rng.standard_normal((rows, 2, nx))
                        x = np.zeros((6 * c, op.tiles * rows))
                        wavesim._spread(y.reshape(rows, 2, op.tiles, c).transpose(3, 1, 2, 0)
                                        .reshape(2 * c, -1), x, c, rows)
                        out = np.empty((3 * c, op.tiles * rows))
                        op.apply(x, out, op.loads([k])[0])
                        stepper = wavesim._Stepper(grid, gains, lam)
                        own = loaded_levels(stepper, y[:, 0, :nx], y[:, 1, :nx], q,
                                            modal_loads)[:, [1, q, q - 1]]
                        ref = op.tiled(own).reshape(out.shape)
                        assert np.abs(out - ref).max() <= 1e-13 * np.abs(own).max(), (nx, q, n_w, c)
                        assert op.w.shape == (rows, q, 2 * q)

    def test_per_step_loads_add_only_the_forced_response(self):
        # 200 followers, each with its own psi0 frequency (n_w > q / 2): the
        # loads of a product turn the q x n_w phases first,
        # Re(amp e^(i w (k + j) dt)), so beyond an unloaded product they and
        # the product allocate the forced response (basis rows x rows) and
        # rows x q, not the rows x n_w complex table z = amp e^(i w k dt),
        # which at nx = 21 more than tripled the excess
        n = 200
        sim = Simulation(path_topology(n), GAINS, Grid(nx=21),
                         [(ProfileSpec(), ProfileSpec())] * (n + 1),
                         end_disturbances(n, "psi0", n))
        op = wavesim._Propagator(sim, 10)
        x = np.random.default_rng(0).standard_normal((6 * op.c, op.tiles * op.rows))
        out = np.empty((3 * op.c, op.tiles * op.rows))
        peaks = []
        for amp in (op.amp, None):
            op.amp = amp
            tracemalloc.start()
            try:
                op.apply(x, out, op.loads([7])[0])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert op.lag is not None and op.basis.shape[1] == 10
        assert peaks[0] - peaks[1] <= 8 * op.basis.shape[0] * op.rows + 32 * op.rows * 10

    def test_block_loads_are_the_per_product_turn(self):
        # `loads` makes the z of a block's products from one call, each bit for
        # bit the z of its own step k: amp e^(i w k dt) with the phases folded
        # into the basis, and with more than q / 2 frequencies the q loads
        # Re(amp e^(i w (k + j) dt)) of each row and pattern
        steps = [0, 10, 20, 30, 987_650, 10**7 + 3]
        for n_w in (1, 5, 6):
            dist = replace(end_disturbances(6, "psi0", n_w),
                           psi1=end_disturbances(6, "psi1", n_w).psi1)
            sim = Simulation(path_topology(6), GAINS, Grid(nx=41), varied_profiles(6), dist)
            op = wavesim._Propagator(sim, 10)
            z = op.loads(steps)
            assert (op.lag is None) == (n_w < 6) and len(z) == len(steps)
            for k, zk in zip(steps, z):
                assert zk.tobytes() == op.loads([k])[0].tobytes()
                if op.lag is None:
                    assert zk.shape == (op.rows, 2, 2 * n_w)
                    assert zk.tobytes() == (op.amp * np.exp(1j * (k * op.dt) * op.omegas)).view(
                        float).tobytes()
                else:
                    t = (k + np.arange(10)[:, None]) * op.dt
                    ref = (op.amp[..., None, :] * np.exp(1j * t * op.omegas)).real.sum(3)
                    assert np.abs(zk - ref.reshape(-1, 10)).max() <= 1e-8 * np.abs(op.amp).max()
        assert wavesim._Propagator(Simulation(path_topology(6), GAINS, Grid(nx=41),
                                              varied_profiles(6)), 10).loads(steps) == [None] * 6

    def test_end_windows_are_formed_on_their_lines(self):
        # the end inputs' levels, correction and window scan cover only the
        # nodes of their two lines of `span` nodes: nx wide, they took the
        # build's tracemalloc peak to 55 MiB at nx = 2,001 (6.5 MiB at
        # nx = 201); what is left grows with nx only through the forced
        # response (about 8 MiB here)
        sim = Simulation(path_topology(3), GAINS, Grid(nx=2001), reference_profiles(),
                         mixed_disturbances(3))
        tracemalloc.start()
        try:
            wavesim._Propagator(sim, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11 * 2**20, peak / 2**20

    def test_forced_build_keeps_q_real(self):
        # the modal amplitudes are two real products with Q: a complex table
        # times the real Q first cast Q (800 x 800) to complex, and the
        # build peaked at 15.3 MiB under tracemalloc
        n = 800
        sig = SignalSpec(kind="sinusoid", amplitude=1.0, angular_frequency=8.0)
        sim = Simulation(path_topology(n), GAINS, Grid(nx=101),
                         [(ProfileSpec(), ProfileSpec())] * (n + 1), DisturbanceSpec(psi0=(sig,) * n))
        tracemalloc.start()
        try:
            op = wavesim._Propagator(sim, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        a = sim._loads[(0, None)][1]
        assert np.abs(op.amp[1:, 0] - (a @ sim._q).T).max() <= 1e-13

    @pytest.mark.parametrize("n_w", (1, 6))
    def test_forced_response_is_shared_by_the_rows(self, n_w):
        # one basis for all rows: 3 and 200 followers under the same psi0,
        # psi1 and f loads get the same `basis` and `lag`, with the phases of
        # one frequency folded in and those of 6 > q / 2 kept apart
        grid, sizes = Grid(nx=101), set()
        for n in (3, 200):
            sig = [SignalSpec(kind="sinusoid", amplitude=1.0, angular_frequency=7.0 + i % n_w)
                   for i in range(n + 3)]  # psi1 from the fourth: 3 followers see 6
            dist = DisturbanceSpec(psi0=tuple(sig[:n]), psi1=tuple(sig[3:]), f=tuple(
                SpaceTimeSpec(kind="separable", temporal=s,
                              spatial=ProfileSpec(kind="polynomial", coefficients=(1.0,)))
                for s in sig[:n]))
            sim = Simulation(path_topology(n), GAINS, grid,
                             [(ProfileSpec(), ProfileSpec())] * (n + 1), dist)
            op = wavesim._Propagator(sim, 10)
            assert op.amp.shape == (n + 1, 3, n_w) and (op.lag is None) == (n_w == 1)
            sizes.add((op.basis.shape, None if op.lag is None else op.lag.shape))
        assert sizes == {((3 * op.c * op.tiles + 20, 3 * min(2 * n_w, 10)),
                          None if n_w == 1 else (10, 2 * n_w))}


class TestClosure:
    """The row closure at node nx - 1, which only `_Stepper` holds."""

    @staticmethod
    def random_gains(rng):
        return ControlGains(k1=rng.uniform(0.0, 100.0), k2=rng.uniform(0.0, 20.0),
                            c0=rng.uniform(0.1, 5.0))

    @pytest.mark.parametrize("nx", (9, 21))
    def test_feedback_is_the_step_difference(self, nx):
        # unit inputs on u^k, on u^(k-1) and on psi1, each row its own lam: a
        # row's step less the lam = 0 step is zero off node nx - 1, and there
        # the pair (a_inv - 1, -a_inv k1m) of `feedback` on the lam = 0
        # increment d and on u^k
        rng = np.random.default_rng(nx)
        grid, eye, zero = Grid(nx=nx), np.eye(nx), np.zeros((nx + 1, nx))
        u, up, psi1 = np.r_[eye, zero], np.r_[zero[:nx], eye, zero[:1]], np.eye(2 * nx + 1)[-1]
        for _ in range(10):
            gains, lam = self.random_gains(rng), rng.uniform(0.0, 5.0, 2 * nx + 1)
            row = wavesim._Stepper(grid, gains, lam)
            lead = wavesim._Stepper(grid, gains, np.zeros(1)).step(u, up, psi1=psi1)
            diff = row.step(u, up, psi1=psi1) - lead
            pair = row.feedback(1)[:, 0]
            assert pair.shape == (2 * nx + 1, 2) and row.feedback(3).shape == (2 * nx + 1, 3, 6)
            b = pair[:, 0] * (lead[:, -1] - u[:, -1]) + pair[:, 1] * u[:, -1]
            assert not diff[:, :-1].any()
            scale = np.abs(lead).max() * (1.0 + np.abs(pair).max())  # to rounding
            assert np.abs(diff[:, -1] - b).max() <= 4e-16 * scale

    @pytest.mark.parametrize("nx", (9, 21))
    def test_steady_state_is_each_rows_own_solve(self, nx):
        # `_Settle.response` solves the lam = 0 map once and closes each row
        # through gamma(z); one row's steady state must be a dense solve of
        # that row's own probed map z - A1 - A2 / z under its own one-step
        # responses to the loads (psi0, psi1 and one f pattern), at random z
        # on and off the unit circle
        rng = np.random.default_rng(nx)
        grid, eye, zero = Grid(nx=nx), np.eye(nx), np.zeros((nx, nx))
        shape = np.cos(3.0 * grid.points)
        units = [(np.ones(1), None, None), (None, np.ones(1), None), (None, None, shape[None])]
        for _ in range(5):
            gains, lam = self.random_gains(rng), rng.uniform(0.0, 5.0)
            amp = rng.standard_normal((3, 1, 1)) + 1j * rng.standard_normal((3, 1, 1))
            sim = SimpleNamespace(grid=grid, gains=gains, _lam=np.r_[0.0, lam],
                                  _omegas=np.array([1.0]), _q=np.eye(1),
                                  _loads=dict(zip([(0, None), (1, None), (2, shape.tobytes())],
                                                  zip([None, None, shape], amp))))
            Simulation._form_rows(sim)
            a1, a2 = sim._lead.step(eye, zero), sim._lead.step(zero, eye)
            own = wavesim._Stepper(grid, gains, np.array([lam]))
            b1, b2 = own.step(eye, zero).T, own.step(zero, eye).T
            g = sum(a * own.step(zero[:1], zero[:1], *unit)[0] for a, unit in zip(amp.flat, units))
            for r in (1.0, 1.0, 0.8, 1.25):
                z = r * np.exp(1j * rng.uniform(0.2, 3.0))
                ref = np.linalg.solve(z * eye - b1 - b2 / z, g)
                y = wavesim._Settle.response(sim, a1, a2, z, sim._amp[:, :, 0])
                assert not y[0].any()  # the leader is unloaded
                assert np.abs(y[1] - ref).max() <= 1e-12 * np.abs(ref).max(), (lam, z)


class TestSteadyState:
    # two frequencies on a coarse grid settle after about 130 s
    GRID = Grid(nx=31)

    def test_shortcut_matches_stepping(self, path3_topology, _shortcut):
        runs = []
        for on in (True, False):
            _shortcut(on)
            runs.append(settled_run(path3_topology, GAINS, self.GRID, reference_profiles(),
                                    mixed_disturbances(3), 300.0))
        (switch, fields), (never, stepped) = runs
        assert never is None and 0 < switch < 0.6 * 300.0 / self.GRID.dt
        for a, b in zip(fields, stepped):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))

    def test_switch_is_block_size_invariant(self, path3_topology, monkeypatch):
        runs = {}
        for per_block in (None, 1, 7):  # the default first
            if per_block:
                use_blocks(monkeypatch, per_block, self.GRID)
            switch, fields = settled_run(path3_topology, GAINS, self.GRID,
                                         reference_profiles(), mixed_disturbances(3), 160.0)
            runs[per_block] = switch, [f.tobytes() for f in fields]
        assert runs[None][0] is not None
        assert runs[1] == runs[None] and runs[7] == runs[None]

    def test_stepping_stops_at_the_switch(self, path3_topology, monkeypatch):
        # one product per stepped sample and none from the switch on; where it
        # falls inside a block (the default one, which holds all 357 samples,
        # or one of five; seven puts it between two blocks) that block's
        # stepped samples and filled ones arrive apart
        apply, calls, grid = wavesim._Propagator.apply, [], Grid(nx=21)

        def spy(self, *args):
            calls.append(1)
            return apply(self, *args)

        monkeypatch.setattr(wavesim._Propagator, "apply", spy)
        for per_block in (None, 5, 7):  # the default first
            if per_block:
                use_blocks(monkeypatch, per_block, grid)
            calls.clear()
            blocks = []
            sim = Simulation(path3_topology, GAINS, grid, reference_profiles(),
                             mixed_disturbances(3))
            sim.run(160.0, observers=(blocks.append,))
            switch = sim.switch_step
            assert switch is not None and switch % 10 == 0 and len(calls) == switch // 10
            assert all(b.steps[-1] < switch or b.steps[0] >= switch for b in blocks)

    def test_functionals_match_stepping(self, path3_topology, _shortcut):
        runs = []
        for on in (True, False):
            _shortcut(on)
            runs.append(simulate(path3_topology, GAINS, self.GRID, reference_profiles(),
                                 mixed_disturbances(3), 300.0, functional_weights=WEIGHTS))
        assert runs[0].stepped_to is not None and runs[1].stepped_to is None
        assert_functionals_close(*runs)

    def test_filled_series_is_block_size_invariant(self, path3_topology, monkeypatch):
        # each filled sample is evaluated on its own, so from the switch on
        # the series has the same bytes at every block size; the switch falls
        # inside the default block (which holds every sample) and inside a
        # block of seven.  The stepped samples' sums run over a whole block
        # in `lyapunov_sample`, and their last bits move with its size
        runs = {}
        for per_block in (None, 1, 7):  # the default first
            if per_block:
                use_blocks(monkeypatch, per_block, self.GRID)
            runs[per_block] = simulate(path3_topology, GAINS, self.GRID, reference_profiles(),
                                       mixed_disturbances(3), 160.0, functional_weights=WEIGHTS)
        first = runs[None].times.tolist().index(runs[None].stepped_to)
        assert first % 7 and len(runs[None]) - first > 100
        for series in runs.values():
            assert series.stepped_to == runs[None].stepped_to
            assert series_bytes(series, first) == series_bytes(runs[None], first)
            assert_functionals_close(series, runs[None], 1e-13)

    def test_filled_samples_skip_lyapunov_sample(self, path3_topology, monkeypatch):
        # lyapunov_sample gets the samples before the switch and no other
        real, seen = analysis.lyapunov_sample, []

        def spy(u_tilde, u_tilde_t, cert, m, grid, time, *sups):
            seen.extend(np.atleast_1d(time).tolist())
            return real(u_tilde, u_tilde_t, cert, m, grid, time, *sups)

        monkeypatch.setattr(analysis, "lyapunov_sample", spy)
        for per_block in (None, 7):
            if per_block:
                use_blocks(monkeypatch, per_block, self.GRID)
            seen.clear()
            series = simulate(path3_topology, GAINS, self.GRID, reference_profiles(),
                              mixed_disturbances(3), 160.0)
            times = series.times.tolist()
            assert series.stepped_to in times[1:]
            assert seen == times[:times.index(series.stepped_to)]

    def test_fill_only_checks_after_the_switch(self, path3_topology, monkeypatch):
        # filled samples come from each field's coefficients, not from a modal
        # fill: `fill` serves the checks before the switch and nothing else
        fill, callers = wavesim._Settle.fill, []

        def spy(self, *args):
            callers.append(sys._getframe(1).f_code.co_name)
            return fill(self, *args)

        monkeypatch.setattr(wavesim._Settle, "fill", spy)
        for per_block in (None, 7):
            if per_block:
                use_blocks(monkeypatch, per_block, self.GRID)
            callers.clear()
            sim = Simulation(path3_topology, GAINS, self.GRID, reference_profiles(),
                             mixed_disturbances(3))
            sim.run(160.0)
            assert sim.switch_step is not None and callers and set(callers) == {"feed"}

    def test_filled_fields_match_the_rotated_fill(self, path3_topology):
        switch = assert_filled_as_rotated_fill(path3_topology, self.GRID, reference_profiles(),
                                               mixed_disturbances(3), 300.0)
        assert switch is not None

    def test_filled_fields_form_on_first_access(self, path3_topology, monkeypatch):
        # blocks of seven, the switch inside one, whose stepped samples and
        # filled ones arrive as two blocks: an observer that keeps the blocks
        # and reads them after the run gets the bytes of reads made during
        # the call; each field is formed once and is read-only
        use_blocks(monkeypatch, 7, self.GRID)

        def run(observer):
            sim = Simulation(path3_topology, GAINS, self.GRID, reference_profiles(),
                             mixed_disturbances(3))
            sim.run(160.0, observers=(observer,))
            return sim.switch_step

        early, kept = [], []
        run(lambda b: early.append([getattr(b, name).tobytes() for name in FIELDS]))
        switch = run(kept.append)
        filled = [b for b in kept if b.steps[0] >= switch]
        assert len(filled) > 10 and kept[-len(filled) - 1].steps[-1] < switch
        assert kept[-len(filled) - 1].steps.size + filled[0].steps.size == 7
        for b in filled:  # only `error` is formed by the run
            assert "error" in vars(b) and not {"leader", "leader_vel", "error_vel"} & vars(b).keys()
        assert [[getattr(b, name).tobytes() for name in FIELDS] for b in kept] == early
        for b in kept:
            for name in FIELDS:
                a = getattr(b, name)
                assert a is getattr(b, name) and not a.flags.writeable
            with pytest.raises(AttributeError):
                b.error = None

    def test_phases_match_the_per_instant_form(self, path3_topology):
        # one list per column gives the bits of one list per instant
        sim = Simulation(path3_topology, GAINS, self.GRID, reference_profiles(),
                         mixed_disturbances(3))
        settle = wavesim._Settle(sim, 10**6)
        assert len(settle.omegas) == 2
        for instants in ([], [0], list(range(0, 1080, 10)), [10**9 + 7]):
            phi = np.array([[1.0, *(f(w * t) for w in settle.omegas for f in (math.cos, math.sin))]
                            for t in (k * settle.dt for k in instants)]).reshape(-1, 5)
            ref = (phi @ settle.lift).reshape(-1, 2, 5)
            assert settle.phases(instants).tobytes() == ref.tobytes()
            assert settle.phases(instants).shape == (len(instants), 2, 5)

    def test_never_settling_run_is_bit_identical(self, path3_topology, _shortcut):
        # with c0 = 0 the leader reflects at both ends and never settles
        gains, runs = ControlGains(k1=30.0, k2=10.0, c0=0.0), []
        for on in (True, False):
            _shortcut(on)
            runs.append(settled_run(path3_topology, gains, self.GRID, reference_profiles(),
                                    mixed_disturbances(3), 300.0))
        assert runs[0][0] is None
        assert [f.tobytes() for f in runs[0][1]] == [f.tobytes() for f in runs[1][1]]

    def test_aliased_frequency(self, path3_topology, _shortcut):
        # at w = pi / (stride dt) every sample instant sees cos(w k dt) = +-1
        # and sin(w k dt) = 0; the run ends off the sample lattice
        sig = SignalSpec(kind="sinusoid", amplitude=2.0,
                         angular_frequency=math.pi / (10 * self.GRID.dt))
        dist, runs = DisturbanceSpec(psi1=(sig,) * 3), []
        for on in (True, False):
            _shortcut(on)
            runs.append(settled_run(path3_topology, GAINS, self.GRID, reference_profiles(),
                                    dist, 300.0 + 3.5 * self.GRID.dt))
        assert runs[0][0] is not None and runs[1][0] is None
        for a, b in zip(runs[0][1], runs[1][1]):
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))

    def test_near_aliased_frequencies_switch(self, path3_topology, _shortcut):
        # at nx = 21 and stride 10, w = 7 turns 3.15 rad per sample, near pi:
        # u^k alone fits only on a window that outgrows the run
        grid, runs = Grid(nx=21), []
        for on in (True, False):
            _shortcut(on)
            runs.append(settled_run(path3_topology, GAINS, grid, reference_profiles(),
                                    mixed_disturbances(3), 300.0))
        (switch, fields), (never, stepped) = runs
        assert never is None and switch is not None
        for a, b in zip(fields, stepped):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))

    def test_leader_velocity_is_checked_as_a_velocity(self, _shortcut):
        # one pinned follower whose leader's u^(k+1) - u^(k-1) is within
        # 1e-11 |cbar| of the steady state at the last step (4,294), while
        # leader_vel, that difference over 2 dt, is 5.2e-11 from the stepped
        # one, above 1e-10 of its peak 0.5: a switch there misses stepping
        profiles = [(ProfileSpec(kind="polynomial", coefficients=(2.0,)),
                     ProfileSpec(kind="polynomial", coefficients=(0.0, 0.5))),
                    (ProfileSpec(), ProfileSpec())]
        dist = DisturbanceSpec(psi0=(SignalSpec(kind="sinusoid", amplitude=0.1,
                                                angular_frequency=11.0, phase=1.0),))
        runs = []
        for on in (True, False):
            _shortcut(on)
            runs.append(settled_run(build_topology([[0]], [1]), GAINS, Grid(nx=13), profiles,
                                    dist, 322.0, stride=3))
        for name, a, b in zip(FIELDS, runs[0][1], runs[1][1]):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b)), name

    def test_shared_constant_leader_stays_put(self, _shortcut):
        # all four agents at rest at 10 (preset 1's graph and gains), with the
        # shortcut and stepped: the leader steps as its deviation from its
        # equilibrium 10, which stays zero; as a constant itself it drifted by
        # 3.5e-9 over 2,000 s at nx = 51
        config = harness.test_preset(1)
        for on in (True, False):
            _shortcut(on)
            switch, (leader, _, error, error_vel) = settled_run(
                config.topology(), config.gains, Grid(nx=51), constant_profiles(10.0, 4), None,
                2000.0)
            assert (switch is not None) == on
            assert np.max(np.abs(leader - 10.0)) <= 1e-13
            assert not error.any() and not error_vel.any()

    def test_leader_settles_to_its_discrete_equilibrium(self, _shortcut):
        # preset 2 stepped: the leader settles to c = l y / l 1, l the left null
        # vector of its one-step map, here probed from `step` on [u^k; u^(k-1)]
        _shortcut(False)
        config = harness.test_preset(2)
        grid, nx = config.grid, config.grid.nx
        eye = np.eye(2 * nx)
        cols = [step(WaveState(0.0, e[nx:, None].T, e[:nx, None].T), config.gains, None, None,
                     grid) for e in eye]
        a0 = np.array([np.r_[s.u_curr[0], s.u_prev[0]] for s in cols]).T
        v = np.r_[grid.weights, np.zeros(nx)]  # bordered with v 1^T
        ell = np.linalg.solve((a0 - eye).T + v[:, None], v)
        y0 = init_state(grid, config.profiles(), config.gains, pinned_matrix(config.topology()))
        y = np.r_[y0.u_curr[0], y0.u_prev[0]]
        c = y[0] + ell @ (y - y[0]) / ell.sum()
        blocks = []
        Simulation(config.topology(), config.gains, grid, config.profiles(),
                   config.disturbances).run(110.0, observers=(blocks.append,))
        leader = np.concatenate([b.leader[b.times >= 100.0] for b in blocks])
        assert leader.size and np.max(np.abs(leader - c)) <= 1e-12

    def test_close_frequencies_switch(self, path3_topology, _shortcut):
        # psi0 at 8 and 8.01 rad/s: a least-squares fit of the two needs a
        # window of about 2 pi / 0.01 s, while the exact steady state holds
        # each frequency apart
        sig = [SignalSpec(kind="sinusoid", amplitude=1.0, angular_frequency=w) for w in (8.0, 8.01)]
        dist, runs = DisturbanceSpec(psi0=(*sig, SignalSpec())), []
        for on in (True, False):
            _shortcut(on)
            runs.append(settled_run(path3_topology, GAINS, self.GRID, reference_profiles(),
                                    dist, 200.0))
        (switch, fields), (never, stepped) = runs
        assert never is None and switch is not None and switch * self.GRID.dt < 200.0
        for a, b in zip(fields, stepped):
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))

    def test_large_network_gets_a_steady_state(self, monkeypatch):
        # the steady state keeps only its coefficients, 8 (1 + 2 n_w) (n + 1) nx
        # bytes, so _FIT_BYTES bounds it: with one frequency up to 1,729
        # followers at nx = 101; the network is given by the eigenvalues and
        # modal loads from which `_form_rows` forms what `_Settle` reads
        n, grid, lam = 1729, Grid(nx=101), np.r_[0.0, np.linspace(0.01, 4.0, 1729)]
        sim = SimpleNamespace(grid=grid, gains=GAINS, n=n, _lam=lam, _omegas=np.array([8.0]),
                              _loads={(0, None): (None, np.ones((1, n), complex))},
                              _q=np.eye(n), _y0=np.zeros((n + 1, 2, grid.nx)))
        Simulation._form_rows(sim)
        settle = wavesim._Settle(sim, 10**6)
        assert settle.coef.nbytes == 8 * 3 * (n + 1) * 101
        assert settle.coef.nbytes + 8 * 3 * 101 > wavesim._FIT_BYTES  # one more follower
        assert np.abs(settle.coef[1:3, 1:, 0]).min() > 0.0  # every mode is loaded at x = 0
        monkeypatch.setattr(wavesim, "_FIT_BYTES", settle.coef.nbytes - 1)
        assert wavesim._Settle(sim, 10**6).coef is None

    def test_frequency_per_follower_gets_a_steady_state(self):
        # 8 (1 + 2 n) (n + 1) nx bytes fit _FIT_BYTES up to 50 followers at
        # nx = 101
        n = 50
        sim = Simulation(path_topology(n), GAINS, Grid(nx=101),
                         [(ProfileSpec(), ProfileSpec())] * (n + 1),
                         end_disturbances(n, "psi0", n))
        settle = wavesim._Settle(sim, 10**6)
        assert settle.coef.nbytes == 8 * (1 + 2 * n) * (n + 1) * 101
        assert 8 * (1 + 2 * (n + 1)) * (n + 2) * 101 > wavesim._FIT_BYTES


class TestLoadTable:
    """`Simulation` reads each sinusoid once, as |w| with its phase negated for
    w < 0 (cos(-w t + p) = cos(w t - p)): one table feeds the forced
    response, the steady state and the running sups."""

    @staticmethod
    def csv_bytes(tmp_path, signs):
        # psi0, psi1 and f of follower i at signs[i] * 7 rad/s and phase
        # -signs[i] p: the same loads for any signs; the run switches at 110.4 s
        def sig(i, amp, p):
            return SignalSpec(kind="sinusoid", amplitude=amp, angular_frequency=signs[i] * 7.0,
                              phase=-signs[i] * p)
        shape = ProfileSpec(kind="cosine", amplitude=1.0, spatial_frequency=1.0)
        dist = DisturbanceSpec(
            psi0=tuple(sig(i, 1.0 + i, 0.3 + i) for i in range(3)),
            psi1=tuple(sig(i, 2.0 - 0.5 * i, 1.1 * i) for i in range(3)),
            f=tuple(SpaceTimeSpec(kind="separable", temporal=sig(i, 0.5 + i, 0.7 - i),
                                  spatial=shape) for i in range(3)))
        series = simulate(path_topology(3), GAINS, Grid(nx=31), reference_profiles(), dist, 160.0)
        assert series.stepped_to < 120.0
        path = tmp_path / f"{signs}.csv"
        harness.write_csv(path, series)
        return path.read_bytes()

    def test_negative_frequencies_are_the_folded_run(self, tmp_path):
        assert self.csv_bytes(tmp_path, (-1, -1, -1)) == self.csv_bytes(tmp_path, (1, 1, 1))

    def test_opposite_signs_are_one_frequency(self, tmp_path):
        # +7 and -7 rad/s were two frequencies of the forced response, summed
        # into one of the steady state: the CSV moved in its last bits
        assert self.csv_bytes(tmp_path, (1, -1, 1)) == self.csv_bytes(tmp_path, (1, 1, 1))


class TestRandomRuns:
    """Random networks, grids and loads, drawn by Hypothesis."""

    @settings(max_examples=100)
    @given(st.data())
    def test_samples_match_reference_step(self, data):
        topo = data.draw(trees(6))
        grid = Grid(nx=data.draw(st.integers(3, 41)))
        stride, nsteps = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 100))
        profiles = data.draw(drawn_profiles(topo.n))
        dist = data.draw(drawn_disturbances(topo.n, st.floats(0.5, 15.0)))
        runs = []
        for per_block in (None, 1):  # the default first
            with pytest.MonkeyPatch.context() as mp:
                if per_block:
                    use_blocks(mp, per_block, grid, topo.n)
                snaps = []
                sim = Simulation(topo, GAINS, grid, profiles, dist)
                assert sim.run((nsteps - 0.5) * grid.dt, stride=stride,
                               observers=(lambda b: snaps.extend(samples(b)),)) == nsteps
                runs.append(snaps)
        assert list(map(snapshot, runs[1])) == list(map(snapshot, runs[0]))
        assert_matches_step(runs[0], topo, profiles, dist, grid, f"nx={grid.nx}")

    @settings(max_examples=25)
    @given(st.data())
    def test_shortcut_matches_stepping(self, data):
        topo = data.draw(trees(4))
        grid = Grid(nx=data.draw(st.integers(11, 41)))
        stride, horizon = data.draw(st.integers(1, 40)), data.draw(st.floats(200.0, 400.0))
        omegas = data.draw(st.lists(st.floats(0.5, 15.0), min_size=1, max_size=3))
        aliased = math.pi / (stride * grid.dt)  # every sample instant sees sin = 0
        if stride >= 2 and 0.5 <= aliased <= 15.0 and data.draw(st.booleans()):
            omegas.append(aliased)
        dist = data.draw(drawn_disturbances(topo.n, st.sampled_from(omegas)))
        assume(not dist.is_zero())
        profiles = data.draw(drawn_profiles(topo.n))
        runs = []
        for on, per_block in ((True, None), (False, None), (True, 1)):
            with pytest.MonkeyPatch.context() as mp:
                if not on:
                    mp.setattr(wavesim, "_FIT_BYTES", 0)
                if per_block:
                    use_blocks(mp, per_block, grid, topo.n)
                runs.append(settled_run(topo, GAINS, grid, profiles, dist, horizon, stride))
        (switch, fields), (never, stepped), (blocked, per_sample) = runs
        assert never is None and blocked == switch
        assert [f.tobytes() for f in per_sample] == [f.tobytes() for f in fields]
        for a, b in zip(fields, stepped):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))

    @settings(max_examples=25)
    @given(settling_runs())
    def test_filled_fields_match_the_rotated_fill(self, run):
        topo, grid, stride, horizon, profiles, dist = run
        assert_filled_as_rotated_fill(topo, grid, profiles, dist, horizon, stride)

    @settings(max_examples=25)
    @given(settling_runs())
    def test_shortcut_functionals_match_stepping(self, run):
        # the filled samples' functionals come from the Gram forms of the
        # steady state, the stepped ones from the fields
        topo, grid, stride, horizon, profiles, dist = run
        runs = []
        for on in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                if not on:
                    mp.setattr(wavesim, "_FIT_BYTES", 0)
                runs.append(simulate(topo, GAINS, grid, profiles, dist, horizon,
                                     functional_weights=WEIGHTS, stride=stride))
        assert runs[1].stepped_to is None
        assert_functionals_close(*runs)
