import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import each_sample, samples

from waveconsensus import wavesim
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


def use_groups(monkeypatch, groups, samples_per_block=None, grid=None, n=3):
    """Split a run into `groups` row groups, whatever the operator size and
    the usable CPUs, and, if given, blocks of `samples_per_block` sample
    instants."""
    monkeypatch.setattr(wavesim, "_group_count", lambda rows, work: groups)
    if samples_per_block is not None:
        monkeypatch.setattr(wavesim, "_CHUNK_BYTES", 16 * n * grid.nx * samples_per_block)


def path_topology(n):
    """n followers on a path, the leader linked to the first."""
    path = np.eye(n, k=1, dtype=int) + np.eye(n, k=-1, dtype=int)
    return build_topology(path.tolist(), [1] + [0] * (n - 1))


def worker_threads(n, nx):
    """Threads a short run of an n-follower path network at nx grid points
    holds besides those alive before it, seen from its observers."""
    topo = path_topology(n)
    profiles = [(ProfileSpec(kind="cosine", amplitude=1.0, spatial_frequency=1.0),
                 ProfileSpec())] * (n + 1)
    grid = Grid(nx=nx)
    sim = Simulation(topo, GAINS, grid, profiles)
    before, seen = threading.active_count(), []
    sim.run(200 * grid.dt, observers=(lambda block: seen.append(threading.active_count()),))
    assert threading.active_count() == before
    return max(seen) - before


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


# one group, two, and one per row of the three-follower network
GROUPS = (1, 2, 4)


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

    @pytest.mark.parametrize("stride", (1, 7, 10, 37))
    def test_matches_reference_step_iteration(self, path3_topology, stride):
        grid = Grid(nx=81)
        m = pinned_matrix(path3_topology)
        dist = heterogeneous_disturbances()
        for profiles in (reference_profiles(), resting_leader_profiles()):
            snaps = []
            sim = Simulation(path3_topology, GAINS, grid, profiles, dist)
            # 83 steps: no multiple of any stride, and more than two 16-step powers
            nsteps = sim.run(83 * grid.dt, observers=(lambda b: snaps.extend(samples(b)),),
                             stride=stride)
            assert nsteps in (83, 84)
            assert [sp.step_index for sp in snaps] == [*range(0, nsteps, stride), nsteps]
            state = init_state(grid, profiles, GAINS, m, dist)
            states = [state]
            for _ in range(nsteps + 1):
                states.append(step(states[-1], GAINS, m, dist, grid))
            for sp in snaps:
                k = sp.step_index
                ref = states[k]
                dev = ref.u_curr[1:] - ref.u_curr[0]
                scale = max(np.max(np.abs(dev)), 1.0)
                assert np.max(np.abs(sp.error - dev)) < 1e-11 * scale
                assert np.max(np.abs(sp.leader - ref.u_curr[0])) < 1e-11 * 10.0
                vel = (states[k + 1].u_curr - ref.u_prev) / (2.0 * grid.dt)
                dev_vel = vel[1:] - vel[0]
                vscale = max(np.max(np.abs(dev_vel)), 1.0)
                assert np.max(np.abs(sp.error_vel - dev_vel)) < 1e-10 * vscale
                assert np.max(np.abs(sp.leader_vel - vel[0])) < 1e-10 * vscale

    @pytest.mark.parametrize("stride", (1, 7, 10, 37))
    def test_row_groups_give_bit_identical_samples(self, path3_topology, monkeypatch, stride):
        # 83 steps end on a partial stride; three samples per block make
        # every run span several blocks, and frequent thread switches mix
        # the groups' work on the shared buffer; a resting leader is an
        # all-zero row
        grid = Grid(nx=81)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for profiles in (reference_profiles(), resting_leader_profiles()):
                runs = {}
                for groups in GROUPS:
                    use_groups(monkeypatch, groups, 3, grid)
                    snaps = []
                    Simulation(path3_topology, GAINS, grid, profiles,
                               heterogeneous_disturbances()).run(
                        83 * grid.dt, stride=stride,
                        observers=(each_sample(lambda sp: snaps.append(snapshot(sp))),))
                    runs[groups] = snaps
                assert len(runs[1]) > 3 and runs[1][-1][0] in (83, 84)
                assert runs[2] == runs[1] and runs[4] == runs[1]
        finally:
            sys.setswitchinterval(interval)

    def test_divergence_inside_a_block(self, path3_topology, monkeypatch):
        # observers see exactly the samples before the first diverged one,
        # whatever the grouping; no worker thread outlives the run
        grid = Grid(nx=101)
        gains = ControlGains(k1=0.0, k2=0.0, c0=0.0)
        seen, index = {}, {}
        for groups in GROUPS:
            use_groups(monkeypatch, groups, 8, grid)
            threads = threading.active_count()
            snaps = []
            with pytest.raises(DivergenceError) as err:
                Simulation(path3_topology, gains, grid, reference_profiles(),
                           growing_disturbances()).run(
                    100.0, observers=(lambda b: snaps.extend(b.steps.tolist()),), stride=10)
            assert threading.active_count() == threads
            seen[groups], index[groups] = snaps, err.value.step_index
        k = index[1]
        # the check at sample instants first fails at step 3710 (t = 33.4 s),
        # which is not the first sample of a block
        assert k == 3710 and (k // 10) % 8 != 0
        assert seen[1] == list(range(0, k, 10))
        assert all(seen[g] == seen[1] and index[g] == k for g in GROUPS)

    @pytest.mark.parametrize("groups", GROUPS)
    def test_observer_failure_names_its_step(self, path3_topology, monkeypatch, groups):
        grid = Grid(nx=51)
        use_groups(monkeypatch, groups, 4, grid)
        threads = threading.active_count()
        sim = Simulation(path3_topology, GAINS, grid, reference_profiles(),
                         heterogeneous_disturbances())
        assert sim.run(60 * grid.dt, stride=5) == 60
        assert threading.active_count() == threads

        def fail_at_30(block):
            if 30 in block.steps:
                raise ValueError("observer bug")

        # four samples per block: steps 20, 25, 30 and 35
        with pytest.raises(RuntimeError, match="failed on the block of steps 20 to 35") as err:
            sim.run(60 * grid.dt, observers=(fail_at_30,), stride=5)
        assert isinstance(err.value.__cause__, ValueError)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("groups", GROUPS)
    def test_observers_get_each_block_once_and_never_empty(self, path3_topology, monkeypatch,
                                                         groups):
        # seven samples per block: the first diverged sample (step 3710, the
        # 372nd) opens block 54, which reaches no observer
        grid = Grid(nx=101)
        use_groups(monkeypatch, groups, 7, grid)
        blocks = []
        with pytest.raises(DivergenceError) as err:
            Simulation(path3_topology, ControlGains(k1=0.0, k2=0.0, c0=0.0), grid,
                       reference_profiles(), growing_disturbances()).run(
                100.0, observers=(blocks.append,), stride=10)
        assert err.value.step_index == 3710 and len(blocks) == 53
        assert all(b.steps.size == 7 and type(b.step_index) is int
                   and b.step_index == b.steps[-1] for b in blocks)
        assert np.concatenate([b.steps for b in blocks]).tolist() == list(range(0, 3710, 10))

    @pytest.mark.parametrize("n, nx", ((3, 201), (24, 101), (200, 101)))
    def test_block_deviation_is_the_per_sample_product(self, monkeypatch, n, nx):
        # Q y of a whole block in one product gives the bits of one product
        # per sample; the larger networks span several blocks
        grid = Grid(nx=nx)
        profiles = [(ProfileSpec(kind="cosine", amplitude=1.0 + i, spatial_frequency=1.0 + i % 3),
                     ProfileSpec(kind="polynomial", coefficients=(0.0, 0.1 * i)))
                    for i in range(n + 1)]
        gather, modal, blocks = Simulation._gather, [], []

        def spy(self, instants, groups, out):  # the modal fields of each block
            instants, stop = gather(self, instants, groups, out)
            modal.append((self._q, out[:, :stop].copy()))
            return instants, stop

        monkeypatch.setattr(Simulation, "_gather", spy)
        Simulation(path_topology(n), GAINS, grid, profiles).run(
            30 * grid.dt, observers=(blocks.append,), stride=1)
        assert len(blocks) == len(modal) and sum(b.steps.size for b in blocks) >= 31
        for (q, fields), b in zip(modal, blocks):
            for j in range(b.steps.size):
                cur, diff = (q @ fields[0, j, 1:]), (q @ fields[1, j, 1:]) / (2.0 * grid.dt)
                assert b.error[j].tobytes() == cur.tobytes()
                assert b.error_vel[j].tobytes() == diff.tobytes()

    @pytest.mark.parametrize("groups", GROUPS)
    def test_disturbance_sups_match_the_per_sample_values(self, path3_topology, monkeypatch,
                                                          groups):
        # three samples per block: the running sups carry across blocks
        grid = Grid(nx=81)
        use_groups(monkeypatch, groups, 3, grid)
        series = simulate(path3_topology, GAINS, grid, reference_profiles(),
                          phase_shifted(heterogeneous_disturbances(), 2.0), 400 * grid.dt)
        assert len(series) == 42
        for name, rises in zip(("es_psi0_sq", "es_psi1_sq", "es_f_sq"), SHIFTED_SUPS):
            expected = np.empty(42)
            for i, value in rises:
                expected[i:] = value
            assert series.column(name).tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize("cpus", (1, 2, 8))
    def test_row_groups_follow_the_operator_size(self, monkeypatch, cpus):
        # three followers at the preset grid run as one group; 24 at 101
        # points as two when two CPUs are usable, and never more than two
        monkeypatch.setattr(wavesim, "_usable_cpus", lambda: cpus)
        assert worker_threads(3, 201) == 0
        assert worker_threads(24, 101) == min(cpus, 2) - 1

    def test_one_usable_cpu_starts_no_thread(self):
        # reads the real affinity mask: under `taskset -c 0` the large
        # network runs inline too
        assert worker_threads(24, 101) == min(wavesim._usable_cpus(), 2) - 1

    @pytest.mark.parametrize("groups", GROUPS)
    def test_flush_zeroes_only_decayed_unforced_rows(self, path3_topology, monkeypatch, groups):
        # with a threshold of 2^-2, undisturbed modal rows decay below it and
        # are flushed; from rest, the forced response is below it for a
        # while, but forced rows are never flushed
        grid = Grid(nx=81)
        use_groups(monkeypatch, groups, 4, grid)
        gather, modal, peaks, bits = Simulation._gather, [], [], wavesim._FLUSH_BITS

        def spy(self, instants, groups, out):  # the modal fields of each block
            instants, stop = gather(self, instants, groups, out)
            modal.append(out[:, :stop].copy())
            # each row's peak over both levels of its state, as the flush reads it
            peaks.append(np.hstack([np.abs(g.states[:stop, :g.dim].reshape(stop, -1, g.off))
                                    .max(axis=2) for g in groups]))
            return instants, stop

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

    @pytest.mark.parametrize("groups", GROUPS)
    def test_undisturbed_error_decays_past_the_subnormal_range(self, path3_topology,
                                                               monkeypatch, groups):
        # unflushed, the stored error would stall near 1e-322; flushed, each
        # modal row reads exact zero once its peak falls below 2^-600
        grid = Grid(nx=21)
        use_groups(monkeypatch, groups)
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
        # one psi0 frequency per follower loads every mode at each frequency,
        # but the forcing columns are built sparse, one frequency at a time
        n, grid = 200, Grid(nx=101)
        topo = path_topology(n)
        profiles = [(ProfileSpec(), ProfileSpec())] * (n + 1)

        def build_peak(omegas):
            dist = DisturbanceSpec(psi0=tuple(
                SignalSpec(kind="sinusoid", amplitude=1.0, angular_frequency=w) for w in omegas))
            tracemalloc.start()
            try:
                sim = Simulation(topo, GAINS, grid, profiles, dist)
                return tracemalloc.get_traced_memory()[1], sim._forcing.nnz
            finally:
                tracemalloc.stop()

        shared, shared_nnz = build_peak([10.0] * n)
        distinct, distinct_nnz = build_peak(10.0 + np.arange(n))
        assert distinct_nnz == n * shared_nnz
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
