import ast
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveconsensus import harness
from waveconsensus.certificate import (MAX_RESOLUTION, _constants, _rules, build_certificate,
                                       check_gains_perturbed, check_gains_unperturbed,
                                       control_input, iss_bound, optimize_certificate)
from waveconsensus.errors import CertificateError
from waveconsensus.graph import eig_extremes_sym

K1, K2, C0 = 30.0, 10.0, 2.5


@pytest.fixture(scope="module")
def spectrum(reference_matrix):
    ext = eig_extremes_sym(reference_matrix)
    return ext.lambda_min, ext.lambda_max


def violated(regime, k1, k2, c0, lam_min, lam_max, rho1, rho2, xi1=None, xi2=None):
    """The rule names build_certificate reports as violated ([] when it
    builds a certificate)."""
    try:
        build_certificate(regime, k1, k2, c0, lam_min, lam_max, rho1, rho2, xi1, xi2)
    except CertificateError as exc:
        prefix = f"infeasible {regime} parameters: "
        assert str(exc).startswith(prefix), str(exc)
        return ast.literal_eval(str(exc)[len(prefix):])
    return []


class TestGainGates:
    def test_reference_gains_pass_unperturbed(self, spectrum):
        lam_min, _ = spectrum
        rep = check_gains_unperturbed(K1, K2, C0, lam_min)
        assert rep.ok
        assert rep.thresholds["k1"] == pytest.approx(6.311, abs=1e-3)

    def test_reference_gains_pass_perturbed(self, spectrum):
        lam_min, _ = spectrum
        rep = check_gains_perturbed(K1, K2, C0, lam_min)
        assert rep.ok
        assert rep.thresholds["k1"] == pytest.approx(13.884, abs=1e-3)
        assert rep.thresholds["k2"] == pytest.approx(2.524, abs=1e-3)

    def test_low_k1_rejected(self, spectrum):
        assert not check_gains_unperturbed(6.0, K2, C0, spectrum[0]).ok
        assert not check_gains_perturbed(13.0, K2, C0, spectrum[0]).ok

    def test_low_k2_rejected(self, spectrum):
        assert not check_gains_unperturbed(K1, 0.0, C0, spectrum[0]).ok
        assert not check_gains_perturbed(K1, 2.0, C0, spectrum[0]).ok

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(CertificateError, match="positive"):
            check_gains_unperturbed(K1, K2, C0, 0.0)
        with pytest.raises(CertificateError, match="positive"):
            check_gains_perturbed(K1, K2, C0, -1.0)

    def test_perturbed_gate_implies_unperturbed_gate(self, spectrum):
        lam_min, _ = spectrum
        rng = np.random.default_rng(17)
        for _ in range(200):
            k1 = rng.uniform(0.0, 40.0)
            k2 = rng.uniform(0.0, 20.0)
            c0 = rng.uniform(0.1, 5.0)
            if check_gains_perturbed(k1, k2, c0, lam_min).ok:
                assert check_gains_unperturbed(k1, k2, c0, lam_min).ok


class TestRhoFeasibility:
    def test_reference_pair_feasible(self, spectrum):
        lam_min, _ = spectrum
        assert violated("unperturbed", K1, K2, C0, *spectrum, 0.1, 0.5) == []

        def holds(rule, rho1, rho2):
            return _rules("unperturbed", rho1, rho2, None, None, K1, K2, C0, lam_min)[rule]

        # each bound sits where its rule flips
        for rule, rho2, bound, eps in (("rho1 < k1*lambda_min", 0.5, 5.942, 1e-3),
                                       ("rho1 < 2*k2*lambda_min", 0.5, 3.961, 1e-3),
                                       ("rho1 < 1 - rho2", 0.5, 0.5, 1e-12),
                                       ("rho1 < rho2", 0.5, 0.5, 1e-12)):
            assert holds(rule, bound - eps, rho2) and not holds(rule, bound + eps, rho2)
        assert not holds("rho1 < 1 - rho2", 0.5, 0.5) and not holds("rho1 < rho2", 0.5, 0.5)
        rule = "rho2 < 2*c0/(1+c0^2)"
        assert holds(rule, 0.1, 0.6896) and not holds(rule, 0.1, 0.6898)

    def test_rho2_too_large(self, spectrum):
        names = violated("unperturbed", K1, K2, C0, *spectrum, 0.1, 0.8)
        assert any("2*c0/(1+c0^2)" in v for v in names)

    def test_rho1_zero_rejected(self, spectrum):
        assert "rho1 > 0" in violated("unperturbed", K1, K2, C0, *spectrum, 0.0, 0.5)

    def test_matches_branchwise_oracle_on_grid(self, spectrum):
        # literal re-evaluation of every inequality branch in isolation,
        # over the full 100x100 grid on (0, 1)^2
        lam_min, _ = spectrum
        grid = (np.arange(1, 101) / 101.0)
        for rho1 in grid:
            for rho2 in grid:
                expected = (
                    0.0 < rho1
                    and rho1 < K1 * lam_min
                    and rho1 < 2.0 * K2 * lam_min
                    and rho1 < 1.0 - rho2
                    and rho1 < rho2
                    and rho1 < (2.0 * C0 - rho2 * (1.0 + C0 * C0)) / C0
                    and 0.0 < rho2 < 1.0
                    and rho2 < 2.0 * C0 / (1.0 + C0 * C0))
                assert (violated("unperturbed", K1, K2, C0, *spectrum, rho1, rho2) == []) \
                    == expected


class TestCertificateConstants:
    def test_reference_values(self, spectrum):
        lam_min, lam_max = spectrum
        cert = build_certificate("unperturbed", K1, K2, C0, lam_min, lam_max, 0.1, 0.5)
        assert cert.tau1 == pytest.approx(0.2, abs=1e-12)
        assert cert.tau2 == pytest.approx(K1 * lam_max + 0.1, abs=1e-12)
        assert cert.tau2 == pytest.approx(97.51, abs=1e-2)
        assert cert.mu == pytest.approx(0.2, abs=1e-12)
        assert cert.mu2 is cert.q0 is cert.qf is cert.xi1 is cert.xi2 is None
        # branch values feeding the minima
        assert K1 * lam_min + 0.1 * K2 * lam_min - 0.1 == pytest.approx(6.04, abs=1e-2)
        assert 0.1 * (K1 * lam_min - C0 / 2.0) == pytest.approx(0.4692, abs=1e-4)

    def test_tau_ordering(self, spectrum):
        lam_min, lam_max = spectrum
        rng = np.random.default_rng(23)
        for _ in range(200):
            rho2 = rng.uniform(0.01, 0.689)
            hi = min(K1 * lam_min, 2.0 * K2 * lam_min, 1.0 - rho2, rho2,
                     (2.0 * C0 - rho2 * (1.0 + C0 * C0)) / C0)
            if hi <= 0:
                continue
            rho1 = rng.uniform(0.0, 1.0) * hi * 0.999 + 1e-9
            cert = build_certificate("unperturbed", K1, K2, C0, lam_min, lam_max, rho1, rho2)
            assert cert.tau1 <= cert.tau2

    def test_small_rho1_drives_mu_to_zero(self, spectrum):
        lam_min, lam_max = spectrum
        cert = build_certificate("unperturbed", K1, K2, C0, lam_min, lam_max, 1e-9, 0.5)
        assert 0.0 < cert.mu <= 1e-9 * (K1 * lam_min - C0 / 2.0) + 1e-20

    def test_infeasible_combination_raises(self, spectrum):
        lam_min, lam_max = spectrum
        # tau1 < 0 here, and the rules refuse the pair before any constant
        assert _constants("unperturbed", 0.3, 0.8, None, K1, K2, C0, lam_min, lam_max)[0] < 0.0
        with pytest.raises(CertificateError, match=re.escape(
                "infeasible unperturbed parameters: ['rho2 < 2*c0/(1+c0^2)', "
                "'rho1 < 1 - rho2', 'rho1 < (2*c0 - rho2*(1+c0^2))/c0']")):
            build_certificate("unperturbed", K1, K2, C0, lam_min, lam_max, 0.3, 0.8)


class TestConsensusBound:
    def test_reference_values(self, spectrum):
        cert = build_certificate("unperturbed", K1, K2, C0, *spectrum, 0.1, 0.5)
        assert cert.delta_factor == pytest.approx(12.07, abs=1e-2)
        assert cert.alpha == pytest.approx(0.002051, abs=1e-6)


class TestPerturbedConstants:
    def test_reference_tuple(self, spectrum):
        lam_min, lam_max = spectrum
        cert = build_certificate("perturbed", K1, K2, C0, lam_min, lam_max,
                                 0.05, 0.3, 0.05, 0.1)
        # re-derive each min branch independently
        b1 = 0.3 / 4.0
        b2 = (0.3 - 0.05 - 0.05) / 2.0
        b3 = 0.05 * (K1 * lam_min - C0 / 2.0 - 1.5)
        assert b1 == pytest.approx(0.075)
        assert b2 == pytest.approx(0.1)
        assert b3 == pytest.approx(0.1596, abs=1e-4)
        assert cert.mu2 == pytest.approx(min(b1, b2, b3), abs=1e-15)
        assert cert.mu2 == pytest.approx(0.075, abs=1e-12)
        assert cert.alpha == cert.mu2 / cert.tau2
        assert cert.q0 == pytest.approx(0.5 * (1.0 / 0.1 + 0.05 + 0.3 * 3.5), abs=1e-12)
        assert cert.q0 == pytest.approx(5.55, abs=1e-12)
        assert cert.qf == pytest.approx(1.0 / (2 * 0.05) + 0.05 / 2 + 0.3, abs=1e-12)
        assert cert.qf == pytest.approx(10.325, abs=1e-12)

    def test_xi2_above_limit(self, spectrum):
        names = violated("perturbed", K1, K2, C0, *spectrum, 0.05, 0.3, 0.05, 0.5)
        assert any("xi2" in v for v in names)

    def test_xi1_at_least_rho2(self, spectrum):
        names = violated("perturbed", K1, K2, C0, *spectrum, 0.05, 0.3, 0.3, 0.1)
        assert any("xi1 < rho2" in v for v in names)

    def test_matches_branchwise_oracle_on_grid(self):
        # literal re-evaluation of each of the 11 inequalities over a 4-D grid
        # that crosses every one of them, zero and negative values included;
        # dyadic nodes land exactly on most boundaries, so strictness counts
        k1, k2, c0, lam_min = 0.5, 0.625, 1.0, 1.0
        rhos = np.arange(-1, 17) / 16.0
        xis = (-0.0625, 0.0, 0.0625, 0.1875, 0.25, 0.375, 0.5, 0.75)
        failed = set()
        for rho1, rho2, xi1, xi2 in itertools.product(rhos, rhos, xis, xis):
            rules = (
                xi1 > 0.0,
                0.0 < xi2 < 1.0 / (2.0 * c0),
                xi1 < rho2,
                rho2 < 1.0,
                rho2 < 2.0 * (c0 - xi2 / 2.0) / (1.0 + c0 + c0 * c0),
                rho1 > 0.0,
                rho1 < k1 * lam_min,
                rho1 < 1.0 - rho2,
                rho1 < rho2 - xi1,
                rho1 < 2.0 * k2 * lam_min - 1.0,
                rho1 < (2.0 * (c0 - xi2 / 2.0) - rho2 * (1.0 + c0 + c0 * c0)) / c0)
            failed.update(i for i, holds in enumerate(rules) if not holds)
            table = _rules("perturbed", rho1, rho2, xi1, xi2, k1, k2, c0, lam_min)
            assert tuple(map(bool, table.values())) == rules
        assert failed == set(range(11))


class TestLiteralFormulas:
    def test_build_certificate_is_the_displayed_formulas(self):
        # the gates, rules and constants written out one by one; the last
        # unperturbed rho1 bound takes its proof-consistent form (see the
        # certificate module)
        rng = np.random.default_rng(31)
        built = {"unperturbed": 0, "perturbed": 0}
        for i in range(4000):
            regime = ("unperturbed", "perturbed")[i % 2]
            lam_min = rng.uniform(0.1, 2.0)
            lam_max = lam_min + rng.uniform(0.0, 4.0)
            k1, k2, c0 = rng.uniform(0.0, 20.0), rng.uniform(0.0, 10.0), rng.uniform(0.1, 4.0)
            rho2 = rng.uniform(0.0, 1.0) * min(1.0, 2.0 * c0 / (1.0 + c0 + c0 * c0))
            rho1 = rng.uniform(0.0, 1.0) * rho2
            xi1 = rng.uniform(0.0, 1.0) * (rho2 - rho1)
            xi2 = rng.uniform(0.0, 1.2) / (2.0 * c0)
            if regime == "unperturbed":
                ok = (k1 > c0 / (2.0 * lam_min) and k2 > 0.0
                      and 0.0 < rho2 < 1.0 and rho2 < 2.0 * c0 / (1.0 + c0 ** 2)
                      and 0.0 < rho1 < k1 * lam_min and rho1 < 2.0 * k2 * lam_min
                      and rho1 < 1.0 - rho2 and rho1 < rho2
                      and rho1 < (2.0 * c0 - rho2 * (1.0 + c0 ** 2)) / c0)
            else:
                ok = (k1 > (c0 + 3.0) / (2.0 * lam_min) and k2 > 1.0 / (2.0 * lam_min)
                      and xi1 > 0.0 and 0.0 < xi2 < 1.0 / (2.0 * c0) and xi1 < rho2
                      and rho2 < 1.0 and rho2 < 2.0 * (c0 - xi2 / 2.0) / (1.0 + c0 + c0 ** 2)
                      and 0.0 < rho1 < k1 * lam_min and rho1 < 1.0 - rho2
                      and rho1 < rho2 - xi1 and rho1 < 2.0 * k2 * lam_min - 1.0
                      and rho1 < (2.0 * (c0 - xi2 / 2.0) - rho2 * (1.0 + c0 + c0 ** 2)) / c0)
            try:
                cert = build_certificate(regime, k1, k2, c0, lam_min, lam_max,
                                         rho1, rho2, xi1, xi2)
            except CertificateError:
                assert not ok
                continue
            assert ok
            built[regime] += 1
            tau1 = min((1.0 - rho2 - rho1) / 2.0, k1 * lam_min + rho1 * k2 * lam_min - rho1)
            tau2 = max((1.0 + rho2 + rho1) / 2.0, k1 * lam_max + rho1, k2 * lam_max + rho1)
            mu = min(rho2 / 2.0, (rho2 - rho1) / 2.0, rho1 * (k1 * lam_min - c0 / 2.0))
            expected = {"tau1": tau1, "tau2": tau2, "mu": mu,
                        "delta_factor": (1.0 + math.sqrt(2.0)) / tau1, "alpha": mu / tau2}
            if regime == "perturbed":
                mu2 = min(rho2 / 4.0, (rho2 - rho1 - xi1) / 2.0,
                          rho1 * (k1 * lam_min - c0 / 2.0 - 1.5))
                expected.update(mu2=mu2, alpha=mu2 / tau2,
                                q0=(1.0 / xi2 + rho1 + rho2 * (c0 + 1.0)) / 2.0,
                                qf=1.0 / (2.0 * xi1) + rho1 / 2.0 + rho2)
            for name, value in expected.items():
                assert getattr(cert, name) == pytest.approx(value, rel=1e-12), name
        assert min(built.values()) > 100, built


class TestOptimizer:
    def test_unperturbed_beats_reference_witness(self, spectrum):
        lam_min, lam_max = spectrum
        cert = optimize_certificate("unperturbed", K1, K2, C0, lam_min, lam_max)
        assert cert.alpha > 0.0
        # the (0.1, 0.5) witness is feasible, so the optimum is at least as good
        assert cert.alpha >= 0.2 / 97.50939 - 1e-12
        assert all(_rules("unperturbed", cert.rho1, cert.rho2, None, None, K1, K2, C0,
                          lam_min).values())

    def test_gain_check_failure_is_named(self, spectrum):
        lam_min, lam_max = spectrum
        with pytest.raises(CertificateError, match="gain check"):
            optimize_certificate("unperturbed", 1.0, K2, C0, lam_min, lam_max)

    @pytest.mark.parametrize("regime", ("unperturbed", "perturbed"))
    def test_zero_c0_is_refused_before_any_division(self, spectrum, regime):
        # c0 = 0 passes both gain gates, but the rules divide by c0
        with pytest.raises(CertificateError, match=re.escape("c0 > 0")):
            optimize_certificate(regime, K1, K2, 0.0, *spectrum)
        with pytest.raises(CertificateError, match=re.escape("c0 > 0")):
            build_certificate(regime, K1, K2, 0.0, *spectrum, 0.05, 0.3, 0.01, 0.01)

    def test_nested_resolution_monotone(self, spectrum):
        lam_min, lam_max = spectrum
        coarse = optimize_certificate("unperturbed", K1, K2, C0, lam_min,
                                      lam_max, resolution=40)
        fine = optimize_certificate("unperturbed", K1, K2, C0, lam_min,
                                    lam_max, resolution=81)  # nested: 41 | 82
        assert fine.alpha >= coarse.alpha - 1e-15

    # one gain set (k1, k2, c0, lambda_min, lambda_max) per active branch of
    # mu2 at the optimum; None takes the reference gains and spectrum
    @pytest.mark.parametrize("gains, branch", [
        (None, 0),                          # rho2/4
        ((60.0, 30.0, 0.3, 1.5, 4.0), 1),   # (rho2 - rho1 - xi1)/2
        ((2.1, 3.0, 1.0, 1.0, 2.0), 2),     # rho1 (k1 lambda_min - c0/2 - 1.5)
    ], ids=["reference-gains", "second-branch", "third-branch"])
    def test_perturbed_matches_bruteforce_4d(self, spectrum, gains, branch):
        k1, k2, c0, lam_min, lam_max = gains or (K1, K2, C0, *spectrum)
        res = 10
        cert = optimize_certificate("perturbed", k1, k2, c0, lam_min, lam_max,
                                    resolution=res)
        # brute force over the full 4-D grid with the spec tie-break order
        r2_hi = min(1.0, 2 * c0 / (1 + c0 + c0 * c0))
        r1_hi = min(k1 * lam_min, 2 * k2 * lam_min - 1.0, 1.0)
        grid = lambda hi: hi * np.arange(1, res + 1) / (res + 1)
        best = None
        for rho2 in grid(r2_hi):
            for rho1 in grid(r1_hi):
                for xi1 in grid(1.0):
                    for xi2 in grid(1.0 / (2 * c0)):
                        try:
                            mu2 = build_certificate("perturbed", k1, k2, c0, lam_min, lam_max,
                                                    rho1, rho2, xi1, xi2).mu2
                        except CertificateError:  # a violated rule, or alpha <= 0
                            continue
                        tau2 = max((1 + rho2 + rho1) / 2, k1 * lam_max + rho1,
                                   k2 * lam_max + rho1)
                        key = (-mu2 / tau2, rho2, rho1, xi1, xi2)
                        if best is None or key < best[0]:
                            best = (key, (rho1, rho2, xi1, xi2, mu2))
        assert best is not None
        assert (cert.rho1, cert.rho2, cert.xi1, cert.xi2, cert.mu2) == best[1]
        rho1, rho2, xi1, _xi2, mu2 = best[1]
        branches = (rho2 / 4.0, (rho2 - rho1 - xi1) / 2.0,
                    rho1 * (k1 * lam_min - c0 / 2.0 - 1.5))
        assert mu2 == branches[branch] < min(b for i, b in enumerate(branches) if i != branch)

    def test_empty_grid_names_the_failing_rule(self, spectrum):
        # one node per parameter: xi1 = 1/2 is above every rho2 node
        with pytest.raises(CertificateError, match=re.escape(
                "empty feasible set for the perturbed regime; tightest "
                "constraint: xi1 < rho2 (admits 0.0% of the search box on its own)")):
            optimize_certificate("perturbed", K1, K2, C0, *spectrum, resolution=1)

    def test_resolution_above_the_bound_is_refused(self, spectrum):
        # 10^6 points per dimension would allocate terabytes of grid arrays
        for regime in ("unperturbed", "perturbed"):
            with pytest.raises(ValueError, match=r"^resolution: at most 1000, got 1000000$"):
                optimize_certificate(regime, K1, K2, C0, *spectrum, resolution=1_000_000)
        assert optimize_certificate("perturbed", K1, K2, C0, *spectrum,
                                    resolution=MAX_RESOLUTION).mu2 > 0

    def test_feasible_certificates_have_positive_constants(self, spectrum):
        lam_min, lam_max = spectrum
        for regime in ("unperturbed", "perturbed"):
            cert = optimize_certificate(regime, K1, K2, C0, lam_min, lam_max,
                                        resolution=60)
            assert cert.tau1 > 0 and cert.tau2 > 0 and cert.tau1 <= cert.tau2
            assert cert.mu > 0
            if regime == "perturbed":
                assert cert.mu2 > 0 and cert.q0 > 0 and cert.qf > 0


TINY = st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-1074, -1022))


def positive(lo: float, hi: float):
    """Floats in [lo, hi], or from the smallest subnormal 5e-324 up to the
    smallest normal 2^-1022."""
    return st.floats(lo, hi) | TINY


class TestRateCheck:
    @settings(max_examples=300)
    @given(regime=st.sampled_from(("unperturbed", "perturbed")),
           gains=st.tuples(positive(1.0, 100.0), positive(0.1, 100.0), positive(0.1, 10.0)),
           spectrum=st.tuples(positive(0.1, 10.0), st.floats(0.0, 10.0)).map(
               lambda p: (p[0], p[0] + p[1])),
           overrides=st.none() | st.tuples(*[positive(1e-3, 1.0)] * 4),
           resolution=st.integers(1, 12))
    def test_admitted_certificates_have_a_positive_rate(self, regime, gains, spectrum,
                                                        overrides, resolution):
        # subnormal inputs underflow mu or alpha: a certificate is refused,
        # never admitted with alpha = 0, and a rate too small for a finite
        # horizon is refused by derive_horizon
        args = (regime, *gains, *spectrum)
        try:
            if overrides is None:
                cert = optimize_certificate(*args, resolution=resolution)
            else:
                cert = build_certificate(*args, *overrides)
        except (CertificateError, ValueError):
            return
        assert cert.tau1 > 0.0 and cert.tau2 > 0.0 and cert.alpha > 0.0
        try:
            horizon = harness.derive_horizon(cert, regime)
        except CertificateError:
            return
        assert isinstance(horizon, float) and math.isfinite(horizon)

    @pytest.mark.parametrize("regime", ("unperturbed", "perturbed"))
    def test_underflowed_rate_is_refused(self, spectrum, regime):
        # the rules hold and mu (mu2) > 0, but mu/tau2 (mu2/tau2) rounds to 0
        with pytest.raises(CertificateError, match=re.escape(
                "certified decay rate alpha = 0.0 is not positive")):
            build_certificate(regime, K1, K2, C0, *spectrum, 5e-324, 0.5, 0.1, 0.1)

    def test_tiny_c0_empties_the_perturbed_grid_without_a_warning(self, spectrum):
        # 1/(2 c0) bounds xi2, and the last rule's quotient overflows to -inf
        with pytest.raises(CertificateError, match="empty feasible set"):
            optimize_certificate("perturbed", K1, K2, 1e-300, *spectrum)


class TestControlInput:
    def test_zero_input(self, reference_matrix):
        q = control_input(reference_matrix, K1, K2, np.zeros(3), np.zeros(3))
        assert not q.any()

    def test_row_sum_structure(self, reference_matrix):
        q = control_input(reference_matrix, 30.0, 0.0, np.ones(3), np.zeros(3))
        assert q == pytest.approx([-30.0, 0.0, 0.0], abs=1e-14)

    def test_linearity(self, reference_matrix):
        rng = np.random.default_rng(2)
        ub, vb = rng.normal(size=3), rng.normal(size=3)
        q1 = control_input(reference_matrix, K1, K2, ub, vb)
        q2 = control_input(reference_matrix, K1, K2, 3.5 * ub, 3.5 * vb)
        assert q2 == pytest.approx(3.5 * q1, rel=1e-12)

    def test_dimension_mismatch(self, reference_matrix):
        with pytest.raises(ValueError, match="match"):
            control_input(reference_matrix, K1, K2, np.ones(2), np.ones(2))

    def test_disagreement_alignment(self, reference_matrix, spectrum):
        lam_min, _ = spectrum
        rng = np.random.default_rng(9)
        for _ in range(100):
            ub = rng.normal(size=3)
            q = control_input(reference_matrix, K1, 0.0, ub, np.zeros(3))
            assert ub @ (-q) / K1 >= lam_min * (ub @ ub) - 1e-9


@pytest.fixture(scope="module")
def cert(spectrum):
    return optimize_certificate("perturbed", K1, K2, C0, *spectrum)


class TestIssBound:
    def test_zero_disturbances_pure_exponential(self, cert):
        t = np.array([0.0, 100.0, 500.0])
        bound = iss_bound(cert, 2.0, t, 0.0, 0.0, 0.0, conservative=False)
        assert bound == pytest.approx(2.0 * np.exp(-cert.alpha * t), rel=1e-12)
        cons = iss_bound(cert, 2.0, t, 0.0, 0.0, 0.0, conservative=True)
        assert cons == pytest.approx(cert.tau2 / cert.tau1 * bound, rel=1e-12)

    def test_zero_sups_give_the_libm_transient(self, cert):
        # numpy's SIMD exp can differ from libm's in the last bit; the
        # reported bounds take libm's, one sample at a time
        t, rate = np.linspace(0.0, 6000.0, 10001), cert.mu2 / cert.tau2
        for conservative, scale in ((False, 1.0), (True, cert.tau2 / cert.tau1)):
            bound = iss_bound(cert, 2.0, t, 0.0, 0.0, 0.0, conservative=conservative)
            assert bound.tolist() == [scale * (2.0 * math.exp(-rate * s)) for s in t.tolist()]

    def test_asymptote_is_weighted_sum(self, cert):
        gain = cert.tau2 / (cert.mu2 * cert.tau1)
        asym = iss_bound(cert, 5.0, 1e9, 300.0, 300.0, 300.0)
        expected = gain * (cert.q0 * 300.0 + 300.0 + cert.qf * 300.0)
        assert asym == pytest.approx(expected, rel=1e-12)

    def test_asymptote_scales_linearly_with_sups(self, cert):
        a1 = iss_bound(cert, 0.0, 1e9, 300.0, 300.0, 300.0)
        a25 = iss_bound(cert, 0.0, 1e9, 7500.0, 7500.0, 7500.0)
        assert a25 == pytest.approx(25.0 * a1, rel=1e-12)

    def test_requires_perturbed_regime(self, spectrum):
        cert_u = optimize_certificate("unperturbed", K1, K2, C0, *spectrum)
        with pytest.raises(CertificateError):
            iss_bound(cert_u, 1.0, 0.0, 0.0, 0.0, 0.0)
