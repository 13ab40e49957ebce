import itertools
import re

import numpy as np
import pytest

from waveconsensus.certificate import (check_gains_perturbed,
                                       check_gains_unperturbed,
                                       certificate_constants_unperturbed,
                                       consensus_bound, control_input,
                                       iss_bound, optimize_certificate,
                                       perturbed_constants,
                                       rho_bounds_unperturbed,
                                       rho2_bounds_unperturbed,
                                       rho_feasible_unperturbed)
from waveconsensus.errors import CertificateError
from waveconsensus.graph import eig_extremes_sym

K1, K2, C0 = 30.0, 10.0, 2.5


@pytest.fixture(scope="module")
def spectrum(reference_matrix):
    ext = eig_extremes_sym(reference_matrix)
    return ext.lambda_min, ext.lambda_max


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
        ok, violated = rho_feasible_unperturbed(0.1, 0.5, K1, K2, C0, lam_min)
        assert ok and not violated
        bounds = rho_bounds_unperturbed(0.5, K1, K2, C0, lam_min)
        assert bounds["k1*lambda_min"] == pytest.approx(5.942, abs=1e-3)
        assert bounds["2*k2*lambda_min"] == pytest.approx(3.961, abs=1e-3)
        assert bounds["1 - rho2"] == 0.5
        assert bounds["rho2"] == 0.5
        r2b = rho2_bounds_unperturbed(C0)
        assert r2b["2*c0/(1+c0^2)"] == pytest.approx(0.6897, abs=1e-4)

    def test_rho2_too_large(self, spectrum):
        ok, violated = rho_feasible_unperturbed(0.1, 0.8, K1, K2, C0, spectrum[0])
        assert not ok
        assert any("2*c0/(1+c0^2)" in v for v in violated)

    def test_rho1_zero_rejected(self, spectrum):
        ok, violated = rho_feasible_unperturbed(0.0, 0.5, K1, K2, C0, spectrum[0])
        assert not ok and "rho1 > 0" in violated

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
                ok, _violated = rho_feasible_unperturbed(rho1, rho2, K1, K2, C0, lam_min)
                assert ok == expected


class TestCertificateConstants:
    def test_reference_values(self, spectrum):
        lam_min, lam_max = spectrum
        tau1, tau2, mu = certificate_constants_unperturbed(
            0.1, 0.5, K1, K2, lam_min, lam_max, C0)
        assert tau1 == pytest.approx(0.2, abs=1e-12)
        assert tau2 == pytest.approx(K1 * lam_max + 0.1, abs=1e-12)
        assert tau2 == pytest.approx(97.51, abs=1e-2)
        assert mu == pytest.approx(0.2, abs=1e-12)
        # branch values feeding the minima
        assert K1 * lam_min + 0.1 * K2 * lam_min - 0.1 == pytest.approx(6.04, abs=1e-2)
        assert 0.1 * (K1 * lam_min - C0 / 2.0) == pytest.approx(0.4692, abs=1e-4)

    def test_tau_ordering(self, spectrum):
        lam_min, lam_max = spectrum
        rng = np.random.default_rng(23)
        for _ in range(200):
            rho2 = rng.uniform(0.01, 0.689)
            hi = min(rho_bounds_unperturbed(rho2, K1, K2, C0, lam_min).values())
            if hi <= 0:
                continue
            rho1 = rng.uniform(0.0, 1.0) * hi * 0.999 + 1e-9
            tau1, tau2, _mu = certificate_constants_unperturbed(
                rho1, rho2, K1, K2, lam_min, lam_max, C0)
            assert tau1 <= tau2

    def test_small_rho1_drives_mu_to_zero(self, spectrum):
        lam_min, lam_max = spectrum
        _, _, mu = certificate_constants_unperturbed(
            1e-9, 0.5, K1, K2, lam_min, lam_max, C0)
        assert mu <= 1e-9 * (K1 * lam_min - C0 / 2.0) + 1e-20

    def test_infeasible_combination_raises(self, spectrum):
        lam_min, lam_max = spectrum
        with pytest.raises(CertificateError, match="tau1"):
            certificate_constants_unperturbed(0.3, 0.8, K1, K2, lam_min, lam_max, C0)


class TestConsensusBound:
    def test_reference_values(self):
        delta, alpha = consensus_bound(1.0, 0.2, 0.2, 97.50939)
        assert delta == pytest.approx(12.07, abs=1e-2)
        assert alpha == pytest.approx(0.002051, abs=1e-6)

    def test_zero_initial(self):
        delta, _alpha = consensus_bound(0.0, 0.2, 0.2, 97.5)
        assert delta == 0.0

    def test_linearity_in_initial_value(self):
        d1, a1 = consensus_bound(3.0, 0.2, 0.2, 97.5)
        d2, a2 = consensus_bound(6.0, 0.2, 0.2, 97.5)
        assert d2 == pytest.approx(2 * d1, rel=1e-14)
        assert a2 == a1


class TestPerturbedConstants:
    def test_reference_tuple(self, spectrum):
        lam_min, _ = spectrum
        mu2, q0, qf, ok, violated = perturbed_constants(
            0.05, 0.3, 0.05, 0.1, K1, K2, lam_min, C0)
        assert ok and not violated
        # re-derive each min branch independently
        b1 = 0.3 / 4.0
        b2 = (0.3 - 0.05 - 0.05) / 2.0
        b3 = 0.05 * (K1 * lam_min - C0 / 2.0 - 1.5)
        assert b1 == pytest.approx(0.075)
        assert b2 == pytest.approx(0.1)
        assert b3 == pytest.approx(0.1596, abs=1e-4)
        assert mu2 == pytest.approx(min(b1, b2, b3), abs=1e-15)
        assert mu2 == pytest.approx(0.075, abs=1e-12)
        assert q0 == pytest.approx(0.5 * (1.0 / 0.1 + 0.05 + 0.3 * 3.5), abs=1e-12)
        assert q0 == pytest.approx(5.55, abs=1e-12)
        assert qf == pytest.approx(1.0 / (2 * 0.05) + 0.05 / 2 + 0.3, abs=1e-12)
        assert qf == pytest.approx(10.325, abs=1e-12)

    def test_xi2_above_limit(self, spectrum):
        *_rest, ok, violated = perturbed_constants(
            0.05, 0.3, 0.05, 0.5, K1, K2, spectrum[0], C0)
        assert not ok
        assert any("xi2" in v for v in violated)

    def test_xi1_at_least_rho2(self, spectrum):
        *_rest, ok, violated = perturbed_constants(
            0.05, 0.3, 0.3, 0.1, K1, K2, spectrum[0], C0)
        assert not ok
        assert any("xi1 < rho2" in v for v in violated)

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
            _mu2, q0, qf, ok, violated = perturbed_constants(
                rho1, rho2, xi1, xi2, k1, k2, lam_min, c0)
            assert ok == all(rules)
            assert len(violated) == len(rules) - sum(rules)
            assert (q0 is None) == (qf is None) == (not ok)
        assert failed == set(range(11))


class TestOptimizer:
    def test_unperturbed_beats_reference_witness(self, spectrum):
        lam_min, lam_max = spectrum
        cert = optimize_certificate("unperturbed", K1, K2, C0, lam_min, lam_max)
        assert cert.alpha > 0.0
        # the (0.1, 0.5) witness is feasible, so the optimum is at least as good
        assert cert.alpha >= 0.2 / 97.50939 - 1e-12
        ok, _ = rho_feasible_unperturbed(cert.rho1, cert.rho2, K1, K2, C0, lam_min)
        assert ok

    def test_gain_check_failure_is_named(self, spectrum):
        lam_min, lam_max = spectrum
        with pytest.raises(CertificateError, match="gain check"):
            optimize_certificate("unperturbed", 1.0, K2, C0, lam_min, lam_max)

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
                        mu2, q0, qf, ok, _ = perturbed_constants(
                            rho1, rho2, xi1, xi2, k1, k2, lam_min, c0)
                        if not ok or mu2 <= 0:
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

    def test_feasible_certificates_have_positive_constants(self, spectrum):
        lam_min, lam_max = spectrum
        for regime in ("unperturbed", "perturbed"):
            cert = optimize_certificate(regime, K1, K2, C0, lam_min, lam_max,
                                        resolution=60)
            assert cert.tau1 > 0 and cert.tau2 > 0 and cert.tau1 <= cert.tau2
            assert cert.mu > 0
            if regime == "perturbed":
                assert cert.mu2 > 0 and cert.q0 > 0 and cert.qf > 0


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
