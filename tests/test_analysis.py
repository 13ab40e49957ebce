import math

import numpy as np
import pytest

from waveconsensus.analysis import (SANDWICH_SLACK, BoundReport, FunctionalSample,
                                    FunctionalWeights, TimeSeries, agmon_check,
                                    bound_report, decay_fit, iss_check,
                                    lyapunov_sample, poincare_check,
                                    regime_checks, spatial_derivative)
from waveconsensus.certificate import (build_certificate, iss_bound,
                                       optimize_certificate)
from waveconsensus.errors import CertificateError
from waveconsensus.graph import eig_extremes_sym
from waveconsensus.wavesim import Grid

K1, K2, C0 = 30.0, 10.0, 2.5
PLAIN = FunctionalWeights(k1=0.0, k2=0.0, rho1=0.0, rho2=0.0)


def at_rest(fields, grid):
    """`lyapunov_sample` of (n, nx) displacement fields at rest under PLAIN."""
    z = np.atleast_2d(fields)
    return lyapunov_sample(z, np.zeros_like(z), PLAIN, np.eye(len(z)), grid)


def sandwich_reports(series, cert):
    """tau1 V0 <= V and V <= tau2 V0 at every sample as two `bound_report`s,
    each side up to SANDWICH_SLACK."""
    t, v, v0 = (series.column(name) for name in ("time", "V", "V0"))
    return (bound_report(t, cert.tau1 * v0, v * (1.0 + SANDWICH_SLACK)),
            bound_report(t, v, cert.tau2 * v0 * (1.0 + SANDWICH_SLACK)))


def l2_err(fields, grid):
    return at_rest(fields, grid).l2_error


def smooth_field(rng, nx, kmax=6):
    """Random trig polynomial with uniform coefficients on a unit grid."""
    x = np.linspace(0.0, 1.0, nx)
    f = rng.uniform(-1, 1) * np.ones(nx)
    for k in range(1, kmax + 1):
        f += rng.uniform(-1, 1) * np.cos(k * np.pi * x)
        f += rng.uniform(-1, 1) * np.sin(k * np.pi * x)
    return f


class TestNorms:
    """The l2_error column: the trapezoid L2 norm of the deviation stack."""

    def test_constant_unit_field(self):
        grid = Grid(nx=201)
        assert l2_err(np.ones(201), grid) == pytest.approx(1.0, abs=1e-14)

    def test_linear_field(self):
        grid = Grid(nx=201)
        val = l2_err(grid.points, grid)
        assert val == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-4)

    def test_zero_field(self):
        grid = Grid(nx=51)
        assert l2_err(np.zeros(51), grid) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="nx"):
            l2_err(np.ones(10), Grid(nx=51))

    def test_vector_of_unit_fields(self):
        grid = Grid(nx=101)
        val = l2_err(np.ones((3, 101)), grid)
        assert val == pytest.approx(math.sqrt(3.0), abs=1e-14)

    def test_single_agent_reduces_to_scalar(self):
        grid = Grid(nx=101)
        rng = np.random.default_rng(0)
        z = smooth_field(rng, 101)
        assert l2_err(z, grid) == pytest.approx(
            math.sqrt(np.sum(z * z * grid.weights)), rel=1e-15)

    def test_reference_error_fields_against_fine_quadrature(self):
        # initial deviation fields of the reference setup; oracle is the
        # same integrand on a 40x finer trapezoid grid
        grid = Grid(nx=201)
        x = grid.points
        fields = np.stack([
            5 * np.cos(2 * np.pi * x) - 10 * np.cos(2 * np.pi * x),
            np.cos(np.pi * x) - 10 * np.cos(2 * np.pi * x),
            -5 * np.cos(np.pi * x) - 10 * np.cos(2 * np.pi * x)])
        xf = np.linspace(0.0, 1.0, 8001)
        fine = np.stack([
            5 * np.cos(2 * np.pi * xf) - 10 * np.cos(2 * np.pi * xf),
            np.cos(np.pi * xf) - 10 * np.cos(2 * np.pi * xf),
            -5 * np.cos(np.pi * xf) - 10 * np.cos(2 * np.pi * xf)])
        oracle = math.sqrt(sum(np.trapezoid(row ** 2, xf) for row in fine))
        val = l2_err(fields, grid)
        assert val > 0
        assert val == pytest.approx(oracle, rel=5e-4)

    def test_quadrature_second_order_convergence(self):
        errs = []
        for nx in (51, 101, 201):
            grid = Grid(nx=nx)
            val = l2_err(grid.points ** 2, grid)
            errs.append(abs(val - math.sqrt(0.2)))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)
        assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.5)


class TestSpatialDerivative:
    def test_linear_exact(self):
        grid = Grid(nx=101)
        d = spatial_derivative(3.0 * grid.points + 1.0, grid)
        assert np.max(np.abs(d - 3.0)) < 1e-10

    def test_cosine(self):
        grid = Grid(nx=201)
        d = spatial_derivative(np.cos(np.pi * grid.points), grid)
        exact = -np.pi * np.sin(np.pi * grid.points)
        assert np.max(np.abs(d - exact)) < 1e-3

    def test_constant_zero(self):
        grid = Grid(nx=51)
        assert not spatial_derivative(np.full(51, 2.5), grid).any()

    def test_batch_is_the_two_slice_formula(self):
        # one pass over the rows laid end to end gives, bit for bit, the
        # centered difference of each row's own two slices, on a
        # non-contiguous (s, n, nx) batch, its contiguous copy and one row
        grid = Grid(nx=101)
        z = np.random.default_rng(3).standard_normal((5, 4, 2 * 101))[:, ::-1, ::2]
        ref = np.empty_like(z)
        ref[..., 1:-1] = (z[..., 2:] - z[..., :-2]) / (2.0 * grid.dx)
        ref[..., 0] = (-3.0 * z[..., 0] + 4.0 * z[..., 1] - z[..., 2]) / (2.0 * grid.dx)
        ref[..., -1] = (3.0 * z[..., -1] - 4.0 * z[..., -2] + z[..., -3]) / (2.0 * grid.dx)
        assert not z.flags.c_contiguous
        for field, want in ((z, ref), (z.copy(), ref), (z[2, 1], ref[2, 1])):
            d = spatial_derivative(field, grid)
            assert d.shape == want.shape and d.tobytes() == want.tobytes()

    def test_too_few_points(self):
        grid = Grid(nx=3)
        with pytest.raises(ValueError, match="length"):
            spatial_derivative(np.ones(2), grid)


class TestLyapunovSample:
    def test_zero_state(self, reference_matrix):
        grid = Grid(nx=101)
        w = FunctionalWeights(k1=K1, k2=K2, rho1=0.1, rho2=0.5)
        s = lyapunov_sample(np.zeros((3, 101)), np.zeros((3, 101)), w,
                            reference_matrix, grid)
        assert s.V == 0.0 and s.V0 == 0.0 and s.E == 0.0

    def test_constant_deviation(self, reference_matrix):
        grid = Grid(nx=101)
        w = FunctionalWeights(k1=K1, k2=K2, rho1=0.1, rho2=0.5)
        c = np.array([1.0, -2.0, 0.5])
        ut = np.repeat(c[:, None], 101, axis=1)
        s = lyapunov_sample(ut, np.zeros_like(ut), w, reference_matrix, grid)
        quad = float(c @ reference_matrix @ c)
        assert s.E == pytest.approx(0.5 * K1 * quad, rel=1e-14)
        assert s.G1 == pytest.approx(0.5 * 0.1 * K2 * quad, rel=1e-14)
        assert s.G2 == 0.0
        assert s.V == pytest.approx(s.E + s.G1 + s.G2, rel=1e-15)

    def test_consistency_identity(self, reference_matrix):
        grid = Grid(nx=101)
        w = FunctionalWeights(k1=K1, k2=K2, rho1=0.1, rho2=0.5)
        rng = np.random.default_rng(4)
        ut = np.stack([smooth_field(rng, 101) for _ in range(3)])
        vt = np.stack([smooth_field(rng, 101) for _ in range(3)])
        s = lyapunov_sample(ut, vt, w, reference_matrix, grid)
        assert s.V == pytest.approx(s.E + s.G1 + s.G2, rel=1e-14)
        h1sq = s.h1_seminorm ** 2
        vsq = s.V0 - h1sq - s.boundary_err_sq
        assert vsq >= 0

    def test_sandwich_on_random_smooth_states(self, reference_matrix):
        grid = Grid(nx=201)
        ext = eig_extremes_sym(reference_matrix)
        rho1, rho2 = 0.1, 0.5
        cert = build_certificate("unperturbed", K1, K2, C0, ext.lambda_min,
                                 ext.lambda_max, rho1, rho2)
        tau1, tau2 = cert.tau1, cert.tau2
        w = FunctionalWeights(k1=K1, k2=K2, rho1=rho1, rho2=rho2)
        rng = np.random.default_rng(12)
        for _ in range(200):
            ut = np.stack([smooth_field(rng, 201) for _ in range(3)])
            vt = np.stack([smooth_field(rng, 201) for _ in range(3)])
            s = lyapunov_sample(ut, vt, w, reference_matrix, grid)
            assert tau1 * s.V0 <= s.V * (1 + 1e-8)
            assert s.V <= tau2 * s.V0 * (1 + 1e-8)

    def test_batch_matches_single_samples(self, reference_matrix):
        grid = Grid(nx=101)
        w = FunctionalWeights(k1=K1, k2=K2, rho1=0.1, rho2=0.5)
        rng = np.random.default_rng(7)
        ut = np.stack([[smooth_field(rng, 101) for _ in range(3)] for _ in range(9)])
        vt = np.stack([[smooth_field(rng, 101) for _ in range(3)] for _ in range(9)])
        ut[4] *= 1e-160  # one flushed sample inside the batch
        vt[4] *= 1e-160
        times = np.arange(9) * 0.5
        es = [rng.uniform(0, 2, 9) for _ in range(3)]
        batch = lyapunov_sample(ut, vt, w, reference_matrix, grid, times, *es)
        for i in range(9):
            single = lyapunov_sample(ut[i], vt[i], w, reference_matrix, grid,
                                     times[i], *(e[i] for e in es))
            for name in ("time", *TimeSeries._FIELDS):
                got, want = getattr(batch, name)[i], getattr(single, name)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (i, name)
        assert batch.V[4] == 0.0 and batch.V[3] > 0.0

    def test_batch_appends_as_samples(self, reference_matrix):
        grid = Grid(nx=51)
        w = FunctionalWeights(k1=K1, k2=K2, rho1=0.1, rho2=0.5)
        fields = np.ones((4, 3, 51))
        series = TimeSeries()
        series.append(lyapunov_sample(fields[0], fields[0], w, reference_matrix, grid, 0.0))
        series.append(lyapunov_sample(fields[1:], fields[1:], w, reference_matrix, grid,
                                      [1.0, 2.0, 3.0]))
        assert len(series) == 4 and series.times.tolist() == [0.0, 1.0, 2.0, 3.0]
        single = lyapunov_sample(fields[2], fields[2], w, reference_matrix, grid, 2.0)
        assert series.columns["V"].dtype == np.float64 and series.columns["V"][2] == single.V
        with pytest.raises(ValueError, match="increasing"):
            series.append(lyapunov_sample(fields[1:], fields[1:], w, reference_matrix,
                                          grid, [4.0, 4.0, 5.0]))

    def test_flush_below_floor(self, reference_matrix):
        grid = Grid(nx=101)
        w = FunctionalWeights(k1=K1, k2=K2, rho1=0.1, rho2=0.5)
        tiny = np.full((3, 101), 1e-160)
        s = lyapunov_sample(tiny, tiny, w, reference_matrix, grid)
        assert s.V == 0.0 and s.V0 == 0.0 and s.l2_error == 0.0


class TestOpenLoopEnergy:
    def test_standing_wave_initial_energy(self):
        grid = Grid(nx=201)
        val = at_rest(np.cos(np.pi * grid.points), grid).E
        assert val == pytest.approx(math.pi ** 2 / 4.0, abs=1e-3)


class TestDecayFit:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 10.0, 200)
        rate, r2 = decay_fit(t, np.exp(-0.5 * t))
        assert rate == pytest.approx(0.5, abs=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-9)

    def test_constant_series(self):
        t = np.linspace(0.0, 1.0, 50)
        rate, _ = decay_fit(t, np.ones(50))
        assert rate == pytest.approx(0.0, abs=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            decay_fit([0.0, 1.0], [1.0, 0.0])


def synthetic_series(times, V, V0=None, ptwise=None):
    ts = TimeSeries()
    V0 = V if V0 is None else V0
    ptwise = V if ptwise is None else ptwise
    for i, t in enumerate(times):
        ts.append(FunctionalSample(
            time=float(t), E=V[i], G1=0.0, G2=0.0, V=V[i], V0=V0[i],
            l2_error=math.sqrt(max(V0[i], 0.0)), h1_seminorm=0.0,
            ptwise_max_sq=ptwise[i], boundary_err_sq=0.0))
    return ts


class TestBoundChecks:
    def test_monotone_report(self, reference_matrix):
        ext = eig_extremes_sym(reference_matrix)
        cert = optimize_certificate("unperturbed", K1, K2, C0,
                                    ext.lambda_min, ext.lambda_max, resolution=50)
        t = np.arange(5.0)
        ts = synthetic_series(t, np.array([4.0, 3.0, 2.0, 2.5, 1.0]))
        rep = regime_checks(ts, cert)["monotone_V"]
        assert not rep.ok
        assert rep.violations[0][0] == 3.0

    def test_pointwise_detector_catches_halved_delta(self, reference_matrix):
        ext = eig_extremes_sym(reference_matrix)
        cert = optimize_certificate("unperturbed", K1, K2, C0,
                                    ext.lambda_min, ext.lambda_max, resolution=50)
        t = np.linspace(0.0, 5.0, 40)
        v0 = 2.0
        envelope = cert.delta_factor * v0 * np.exp(-cert.alpha * t)
        ts = synthetic_series(t, np.full_like(t, v0), ptwise=envelope * 0.99)
        assert regime_checks(ts, cert)["pointwise"].ok
        # halving delta (doubling the observed peak) must be detected at t=0
        ts_bad = synthetic_series(t, np.full_like(t, v0), ptwise=envelope * 2.01)
        rep = regime_checks(ts_bad, cert)["pointwise"]
        assert not rep.ok
        assert rep.violations[0][0] == 0.0

    def test_sandwich_report_flags_outliers(self, reference_matrix):
        ext = eig_extremes_sym(reference_matrix)
        cert = optimize_certificate("unperturbed", K1, K2, C0,
                                    ext.lambda_min, ext.lambda_max, resolution=50)
        t = np.arange(3.0)
        good = synthetic_series(t, np.full(3, cert.tau1 * 2.0), V0=np.full(3, 2.0))
        assert all(r.ok for r in sandwich_reports(good, cert))
        bad = synthetic_series(t, np.full(3, cert.tau2 * 2.0 * 1.1),
                               V0=np.full(3, 2.0))
        low, high = sandwich_reports(bad, cert)
        assert low.ok and len(high.violations) == 3
        low, high = sandwich_reports(synthetic_series(t, np.full(3, cert.tau1 * 2.0 * 0.9),
                                                      V0=np.full(3, 2.0)), cert)
        assert len(low.violations) == 3 and high.ok

    def test_iss_check_reports_violations(self, reference_matrix):
        ext = eig_extremes_sym(reference_matrix)
        cert = optimize_certificate("perturbed", K1, K2, C0,
                                    ext.lambda_min, ext.lambda_max, resolution=50)
        t = np.linspace(0.0, 50.0, 30)
        ok_series = synthetic_series(t, 0.9 * np.exp(-cert.alpha * t))
        rep = regime_checks(ok_series, cert)
        assert rep["iss_contractual"].ok and rep["iss_verbatim"].ok
        # a non-decaying series violates the conservative envelope once the
        # transient term has decayed through the tau2/tau1 headroom
        t_long = np.linspace(0.0, 3.0 * math.log(cert.tau2 / cert.tau1) / cert.alpha, 50)
        bad_series = synthetic_series(t_long, np.full_like(t_long, 7.0))
        rep_bad = regime_checks(bad_series, cert)
        assert not rep_bad["iss_contractual"].ok
        assert rep_bad["iss_conservative"].violations

    def test_violated_zero_bound_reads_inf(self):
        # the default scale is the bound itself; Tier-1 turns a numpy
        # divide-by-zero warning into an error
        rep = bound_report([0.0, 1.0, 2.0], [1.0, 2.0, 0.0], [2.0, 0.0, 0.0])
        assert rep.violations == ((1.0, 2.0, 0.0),) and rep.worst_ratio == math.inf


# Per-sample loop versions of the bound checks: the oracle the vectorised
# reports must match exactly.
def loop_monotone(series):
    v = series.column("V")
    t = series.column("time")
    bad = []
    worst = 0.0
    for i in range(1, len(v)):
        limit = v[i - 1] * (1.0 + 1e-6)
        if v[i] > limit:
            bad.append((float(t[i]), float(v[i]), float(limit)))
            if v[i - 1] > 0:
                worst = max(worst, v[i] / v[i - 1] - 1.0)
    return BoundReport(checked=len(v) - 1, violations=tuple(bad), worst_ratio=worst)


def loop_exp_envelope(t, values, factor, v_initial, alpha, slack=0.05):
    bad = []
    worst = 0.0
    for i in range(len(values)):
        bound = factor * (v_initial * math.exp(-alpha * t[i])) * (1.0 + slack)
        if values[i] > bound:
            bad.append((float(t[i]), float(values[i]), float(bound)))
            worst = max(worst, values[i] / bound - 1.0)
    return BoundReport(checked=len(values), violations=tuple(bad), worst_ratio=worst)


def loop_envelope(series, cert):
    v = series.column("V")
    return loop_exp_envelope(series.column("time"), v, 1.0, v[0], cert.alpha)


def loop_pointwise(series, cert):
    return loop_exp_envelope(series.column("time"), series.column("ptwise_max_sq"),
                             cert.delta_factor, series.column("V")[0], cert.alpha)


def loop_iss(series, cert, conservative):
    t = series.column("time")
    v0 = series.column("V0")
    bound = iss_bound(cert, float(v0[0]), t, series.column("es_psi0_sq"),
                      series.column("es_psi1_sq"), series.column("es_f_sq"),
                      conservative=conservative)
    bad = []
    worst = 0.0
    for i in range(len(t)):
        if v0[i] > bound[i]:
            bad.append((float(t[i]), float(v0[i]), float(bound[i])))
            worst = max(worst, v0[i] / bound[i] - 1.0)
    return BoundReport(checked=len(t), violations=tuple(bad), worst_ratio=worst)


@pytest.fixture(scope="module")
def certs(reference_matrix):
    ext = eig_extremes_sym(reference_matrix)
    return {regime: optimize_certificate(regime, K1, K2, C0, ext.lambda_min,
                                         ext.lambda_max, resolution=50)
            for regime in ("unperturbed", "perturbed")}


class TestBoundChecksMatchLoopOracle:
    @staticmethod
    def random_series(rng, cert, n=400):
        """Decaying series with multiplicative noise large enough that
        every check sees violations; some samples are zero."""
        t = np.cumsum(rng.uniform(0.5, 5.0, n)) - 0.5
        t[0] = 0.0
        decay = np.exp(-cert.alpha * t)
        v = 3.0 * decay * rng.uniform(0.9, 1.2, n)
        v[0] = 3.0
        v[rng.integers(1, n, 5)] = 0.0
        v0 = v * rng.uniform(0.5 / cert.tau2, 2.0 / cert.tau1, n)
        v0[0] = v[0] / cert.tau2
        ts = TimeSeries()
        es = np.maximum.accumulate(rng.uniform(0.0, 1e-9, (3, n)), axis=1)
        for i in range(n):
            ts.append(FunctionalSample(
                time=float(t[i]), E=v[i], G1=0.0, G2=0.0, V=v[i], V0=v0[i],
                l2_error=0.0, h1_seminorm=0.0,
                ptwise_max_sq=cert.delta_factor * 3.0 * decay[i] * rng.uniform(0.9, 1.1),
                boundary_err_sq=0.0, es_psi0_sq=es[0, i], es_psi1_sq=es[1, i],
                es_f_sq=es[2, i]))
        return ts

    @staticmethod
    def assert_same(fast, loop):
        assert fast.violations, "the series must exercise violations"
        assert fast.checked == loop.checked
        assert fast.violations == loop.violations
        assert fast.worst_ratio == loop.worst_ratio

    @pytest.mark.parametrize("seed", range(5))
    def test_unperturbed_reports(self, certs, seed):
        cert = certs["unperturbed"]
        ts = self.random_series(np.random.default_rng(seed), cert)
        checks = regime_checks(ts, cert)
        self.assert_same(checks["monotone_V"], loop_monotone(ts))
        self.assert_same(checks["envelope"], loop_envelope(ts, cert))
        self.assert_same(checks["pointwise"], loop_pointwise(ts, cert))

    @pytest.mark.parametrize("seed", range(5))
    def test_iss_reports(self, certs, seed):
        cert = certs["perturbed"]
        ts = self.random_series(np.random.default_rng(seed), cert)
        checks = regime_checks(ts, cert)
        self.assert_same(checks["iss_conservative"], loop_iss(ts, cert, True))
        self.assert_same(checks["iss_verbatim"], loop_iss(ts, cert, False))


class TestRegimeChecks:
    """The one table of contractual checks: its rows' names and order (the
    order of the `reproduce` verdict lines) and the contractual ISS pick."""

    @pytest.fixture(scope="class")
    def series(self):
        t = np.linspace(0.0, 10.0, 20)
        return synthetic_series(t, np.exp(-0.1 * t))

    def test_each_regime_has_its_checks_in_order(self, certs, series):
        assert list(regime_checks(series, certs["unperturbed"])) == [
            "monotone_V", "envelope", "pointwise", "final_error_below_1pct"]
        assert list(regime_checks(series, certs["perturbed"])) == [
            "iss_contractual", "iss_conservative", "iss_verbatim"]

    @pytest.mark.parametrize("conservative", (True, False))
    def test_contractual_iss_is_the_selected_variant(self, certs, series, conservative):
        checks = regime_checks(series, certs["perturbed"], conservative_iss=conservative)
        chosen = "iss_conservative" if conservative else "iss_verbatim"
        assert checks["iss_contractual"] is checks[chosen]

    def test_iss_check_refuses_an_unperturbed_certificate(self, certs, series):
        with pytest.raises(CertificateError, match="needs a perturbed-regime certificate"):
            iss_check(series, certs["unperturbed"])


class TestClassicalInequalities:
    def test_poincare_constant_field(self):
        grid = Grid(nx=101)
        lhs, rhs, holds = poincare_check(np.full((2, 101), 3.0), grid, endpoint=1)
        assert holds
        assert lhs == pytest.approx(18.0, rel=1e-12)
        assert rhs == pytest.approx(36.0, rel=1e-12)

    def test_poincare_linear_field(self):
        grid = Grid(nx=201)
        lhs, rhs, holds = poincare_check(grid.points[None, :], grid, endpoint=1)
        assert holds
        assert lhs == pytest.approx(1.0 / 3.0, abs=1e-3)
        assert rhs == pytest.approx(4.0, abs=1e-3)

    def test_poincare_property(self):
        grid = Grid(nx=201)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            f = np.stack([smooth_field(rng, 201) for _ in range(2)])
            for endpoint in (0, 1):
                _, _, holds = poincare_check(f, grid, endpoint)
                assert holds

    def test_terms_are_the_lyapunov_sample_columns(self, reference_matrix):
        # bit for bit the columns the CSV writes, under any weights and velocities
        grid = Grid(nx=101)
        rng = np.random.default_rng(5)
        w = FunctionalWeights(k1=K1, k2=K2, rho1=0.1, rho2=0.5)
        for _ in range(5):
            f = np.stack([smooth_field(rng, 101) for _ in range(3)])
            s = lyapunov_sample(f, rng.uniform(-1, 1, f.shape), w, reference_matrix, grid)
            h1 = s.h1_seminorm ** 2
            assert poincare_check(f, grid, 1)[:2] == (s.l2_error ** 2,
                                                      2.0 * (s.boundary_err_sq + h1))
            assert poincare_check(f, grid, 0)[:2] == (s.l2_error ** 2,
                                                      2.0 * (float(f[:, 0] @ f[:, 0]) + h1))
            one = lyapunov_sample(f[:1], f[1:2], w, [[2.0]], grid)
            assert agmon_check(f[0], grid)[:2] == (
                one.ptwise_max_sq, one.boundary_err_sq + one.l2_error * one.h1_seminorm)

    def test_agmon_constant_equality(self):
        grid = Grid(nx=101)
        lhs, rhs, holds = agmon_check(np.full(101, -2.0), grid)
        assert holds
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_agmon_cosine(self):
        grid = Grid(nx=201)
        lhs, rhs, holds = agmon_check(np.cos(np.pi * grid.points), grid)
        assert holds
        assert lhs == pytest.approx(1.0, rel=1e-6)
        assert rhs == pytest.approx(1.0 + (1 / math.sqrt(2)) * (math.pi / math.sqrt(2)),
                                    rel=1e-3)

    def test_agmon_detects_peaked_counterexample(self):
        # the stated single-endpoint product form is not a theorem; the
        # checker must report the violation for a concentrated field
        grid = Grid(nx=201)
        x = grid.points
        f = np.sum(np.cos(np.outer(np.arange(0, 7), np.pi * x)), axis=0)
        lhs, rhs, holds = agmon_check(f, grid)
        assert not holds
        assert lhs > rhs
