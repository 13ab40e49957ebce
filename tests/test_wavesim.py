import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import each_sample, samples
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from waveconsensus import harness, wavesim
from waveconsensus.analysis import FunctionalWeights, open_loop_energy_fields
from waveconsensus.errors import DivergenceError
from waveconsensus.graph import build_topology, pinned_matrix
from waveconsensus.signals import (DisturbanceSpec, ProfileSpec, SignalSpec,
                                   SpaceTimeSpec)
from waveconsensus.wavesim import (ControlGains, Grid, Simulation, WaveState,
                                   boundary_trace, init_state, simulate, step)

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
    off for the rest of the test, shortcut(True) back on."""
    return lambda on: monkeypatch.setattr(wavesim, "_SETTLE", on)


def settled_run(topo, gains, grid, profiles, dist, horizon, stride=10):
    """A run's switch step and its samples' fields (leader, leader_vel,
    error, error_vel), each over all samples."""
    blocks = []
    sim = Simulation(topo, gains, grid, profiles, dist)
    sim.run(horizon, stride=stride, observers=(lambda b: blocks.append(
        (b.leader, b.leader_vel, b.error, b.error_vel)),))
    return sim.switch_step, [np.concatenate(f) for f in zip(*blocks)]


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


class TestLeaderOnly:
    def test_open_loop_energy_nonincreasing(self):
        grid = Grid(nx=201)
        gains = ControlGains(k1=0.0, k2=0.0, c0=2.5)
        profiles = [(ProfileSpec(kind="cosine", amplitude=10.0, spatial_frequency=2.0),
                     ProfileSpec())]
        energies = []

        def watch(sp):
            energies.append(open_loop_energy_fields(
                sp.leader[None, :], sp.leader_vel[None, :], grid))

        simulate(None, gains, grid, profiles, None, horizon=30.0,
                 observers=(each_sample(watch),), stride=10)
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
        gather, modal, blocks = Simulation._gather, [], []

        def spy(self, instants, xs, outs, out):  # the modal fields of each block
            stop = gather(self, instants, xs, outs, out)
            modal.append((self._q, out[:, :stop].copy()))
            return stop

        monkeypatch.setattr(Simulation, "_gather", spy)
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
        # with a threshold of 2^-2, undisturbed modal rows decay below it and
        # are flushed; from rest, the forced response is below it for a
        # while, but forced rows are never flushed
        grid = Grid(nx=81)
        use_blocks(monkeypatch, per_block, grid)
        gather, modal, peaks, bits = Simulation._gather, [], [], wavesim._FLUSH_BITS

        def spy(self, instants, xs, outs, out):  # the modal fields of each block
            stop = gather(self, instants, xs, outs, out)
            modal.append(out[:, :stop].copy())
            # each row's peak over both levels of its state, as the flush
            # reads it: the centre tiles, (entry, tile) x row
            c, rows = xs.shape[1] // 6, self.n + 1
            peaks.append(np.abs(xs[:stop, 2 * c:4 * c].reshape(stop, -1, rows)).max(axis=1))
            return stop

        monkeypatch.setattr(Simulation, "_gather", spy)

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
        assert plain.shape == flushed.shape and plain_peaks.min() > 0.0
        below, count = plain_peaks < 2.0 ** -2, plain_peaks.shape[0]
        # per row, the first sample that reads zero (the sample count if none)
        first = np.where(below.any(axis=0), below.argmax(axis=0) + 1, count)
        assert not below[:, 0].any() and (first[1:] < count).any()
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
        # the forced response, built when a run starts, keeps at most q
        # columns per row and spatial pattern whatever the frequencies
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
        for a, b in zip(runs[0][1], runs[1][1]):
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))

    def test_shared_constant_leader_stays_put(self):
        # all four agents at rest at 10 (preset 1's graph and gains): the
        # stepped leader drifts by about 3.5e-9 over 2,000 s at nx = 51
        config = harness.test_preset(1)
        switch, (leader, _, error, error_vel) = settled_run(
            config.topology(), config.gains, Grid(nx=51), constant_profiles(10.0, 4), None,
            2000.0)
        assert switch is not None
        assert np.max(np.abs(leader - 10.0)) <= 1e-10
        assert not error.any() and not error_vel.any()

    def test_large_network_gets_a_fit_window(self, monkeypatch):
        # the fit keeps only its coefficients, 16 (1 + 2 n_w) (n + 1) nx bytes
        # (790 kB here), so _FIT_BYTES bounds them and not a window of fields
        n, sig = 162, SignalSpec(kind="sinusoid", amplitude=1.0, angular_frequency=8.0)
        sim = Simulation(path_topology(n), GAINS, Grid(nx=101),
                         [(ProfileSpec(), ProfileSpec())] * (n + 1),
                         DisturbanceSpec(psi0=(sig,) * n))
        settle = wavesim._Settle(sim, 10, 10**6)
        assert settle.w == 8 and settle.coef.nbytes == 16 * 3 * (n + 1) * 101
        monkeypatch.setattr(wavesim, "_FIT_BYTES", settle.coef.nbytes - 1)
        assert wavesim._Settle(sim, 10, 10**6).w == 0


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
        stride, horizon = data.draw(st.integers(1, 16)), data.draw(st.floats(200.0, 400.0))
        omegas = data.draw(st.lists(st.floats(0.5, 15.0), min_size=1, max_size=3))
        dist = data.draw(drawn_disturbances(topo.n, st.sampled_from(omegas)))
        assume(not dist.is_zero())
        profiles = data.draw(drawn_profiles(topo.n))
        runs = []
        for on, per_block in ((True, None), (False, None), (True, 1)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(wavesim, "_SETTLE", on)
                if per_block:
                    use_blocks(mp, per_block, grid, topo.n)
                runs.append(settled_run(topo, GAINS, grid, profiles, dist, horizon, stride))
        (switch, fields), (never, stepped), (blocked, per_sample) = runs
        assert never is None and blocked == switch
        assert [f.tobytes() for f in per_sample] == [f.tobytes() for f in fields]
        # the leader settles to a constant, whose stepped velocity is only the
        # tiled product's rounding drift; it is held to 1e-10 of the leader's
        # displacement per 2 dt, the scale of the fitted u^(k+1) - u^(k-1)
        scales = [np.max(np.abs(b)) for b in stepped]
        scales[1] = max(scales[1], scales[0] / (2.0 * grid.dt))
        for a, b, scale in zip(fields, stepped, scales):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-10 * scale


class TestBoundaryTrace:
    def test_zero_state(self):
        grid = Grid(nx=31)
        state = WaveState(0.0, np.zeros((2, 31)), np.zeros((2, 31)))
        tr = boundary_trace(state, grid)
        assert not tr.u1.any() and not tr.ut1.any()
        assert not tr.u0.any() and not tr.ut0.any()

    def test_constant_state(self):
        grid = Grid(nx=31)
        c = np.full((2, 31), 7.0)
        tr = boundary_trace(WaveState(0.0, c.copy(), c.copy()), grid)
        assert tr.u1 == pytest.approx([7.0, 7.0])
        assert not tr.ut1.any()

    def test_standing_wave_velocity(self):
        grid = Grid(nx=201)
        gains = ControlGains(k1=0.0, k2=0.0, c0=0.0)
        profiles = [(ProfileSpec(kind="cosine", amplitude=1.0,
                                 spatial_frequency=1.0), ProfileSpec())]
        state = init_state(grid, profiles, gains)
        out = step(state, gains, None, None, grid)
        tr = boundary_trace(out, grid)
        # d/dt [cos(pi x) cos(pi t)] at x=1 near t=dt/2: +pi sin(pi t)
        t_mid = 0.5 * grid.dt
        expected = math.pi * math.sin(math.pi * t_mid)
        assert tr.ut1[0] == pytest.approx(expected, abs=5e-4)
