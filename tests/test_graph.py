import numpy as np
import pytest

from waveconsensus.errors import TopologyError
from waveconsensus.graph import (SpectralExtremes, build_topology,
                                 eig_extremes_sym, is_connected, laplacian,
                                 pinned_matrix)


def char_poly_coefficients(a):
    """Faddeev-LeVerrier characteristic polynomial of a small matrix:
    coefficients of lambda^n + c[1] lambda^(n-1) + ... + c[n]."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return np.array(coeffs)


def poly_roots_bisect(coeffs, lo, hi, samples=20000):
    """All real roots of a polynomial with simple roots in [lo, hi], by
    sign-change bracketing plus bisection."""
    def p(x):
        v = 0.0
        for c in coeffs:
            v = v * x + c
        return v

    xs = np.linspace(lo, hi, samples)
    vals = np.array([p(x) for x in xs])
    roots = []
    for i in range(samples - 1):
        if vals[i] == 0.0:
            roots.append(xs[i])
        elif vals[i] * vals[i + 1] < 0:
            a, b = xs[i], xs[i + 1]
            fa = vals[i]
            for _ in range(200):
                mid = 0.5 * (a + b)
                fm = p(mid)
                if (fm < 0) == (fa < 0):
                    a, fa = mid, fm
                else:
                    b = mid
            roots.append(0.5 * (a + b))
    return roots


class TestBuildTopology:
    def test_reference_setup(self, path3_topology):
        assert path3_topology.n == 3
        assert path3_topology.adjacency[0, 1] == 1
        assert path3_topology.leader_links.tolist() == [1, 0, 0]

    def test_empty_adjacency_is_valid(self):
        t = build_topology([[0, 0], [0, 0]], [1, 0])
        assert t.n == 2

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError, match="diagonal"):
            build_topology([[1, 0], [0, 0]], [1, 0])

    def test_asymmetric_rejected(self):
        with pytest.raises(TopologyError, match="symmetric"):
            build_topology([[0, 1], [0, 0]], [1, 0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(TopologyError, match="length"):
            build_topology([[0, 1], [1, 0]], [1, 0, 0])

    def test_non_binary_rejected(self):
        with pytest.raises(TopologyError, match="0 or 1"):
            build_topology([[0, 2], [2, 0]], [1, 0])

    def test_nonsquare_rejected(self):
        with pytest.raises(TopologyError, match="square"):
            build_topology([[0, 1, 0], [1, 0, 1]], [1, 0])


class TestLaplacian:
    def test_path_graph(self, path3_topology):
        expected = [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
        assert laplacian(path3_topology).tolist() == expected

    def test_zero_adjacency(self):
        t = build_topology(np.zeros((3, 3)), [1, 0, 0])
        assert not laplacian(t).any()

    def test_complete_pair(self):
        t = build_topology([[0, 1], [1, 0]], [0, 1])
        assert laplacian(t).tolist() == [[1, -1], [-1, 1]]

    def test_row_sums_vanish_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            a = (rng.random((n, n)) < 0.5).astype(float)
            a = np.triu(a, 1)
            a = a + a.T
            t = build_topology(a, rng.integers(0, 2, n))
            lap = laplacian(t)
            assert np.array_equal(lap @ np.ones(n), np.zeros(n))
            assert lap.sum(axis=1).tolist() == [0.0] * n


class TestPinnedMatrix:
    def test_reference_matrix(self, path3_topology, reference_matrix):
        assert np.array_equal(pinned_matrix(path3_topology), reference_matrix)

    def test_no_links_reduces_to_laplacian(self):
        t = build_topology([[0, 1], [1, 0]], [0, 0])
        assert np.array_equal(pinned_matrix(t), laplacian(t))

    def test_single_pinned_isolated(self):
        t = build_topology([[0]], [1])
        assert pinned_matrix(t).tolist() == [[1.0]]


class TestConnectivity:
    def test_path_connected(self, path3_topology):
        assert is_connected(path3_topology)

    def test_isolated_pair_disconnected(self):
        assert not is_connected(build_topology(np.zeros((2, 2)), [1, 0]))

    def test_singleton_connected(self):
        assert is_connected(build_topology([[0]], [1]))


class TestEigExtremes:
    def test_reference_matrix_against_char_poly_oracle(self, reference_matrix):
        coeffs = char_poly_coefficients(reference_matrix)
        assert np.allclose(coeffs, [1.0, -5.0, 6.0, -1.0], atol=1e-12)
        roots = poly_roots_bisect(coeffs, 0.0, 4.0)
        assert len(roots) == 3
        ext = eig_extremes_sym(reference_matrix)
        assert ext.lambda_min == pytest.approx(roots[0], abs=1e-10)
        assert ext.lambda_max == pytest.approx(roots[-1], abs=1e-10)

    def test_identity(self):
        ext = eig_extremes_sym(np.eye(3))
        assert ext.lambda_min == pytest.approx(1.0, abs=1e-12)
        assert ext.lambda_max == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        ext = eig_extremes_sym(np.diag([2.0, 5.0]))
        assert (ext.lambda_min, ext.lambda_max) == (2.0, 5.0)

    def test_returns_spectral_extremes(self, reference_matrix):
        ext = eig_extremes_sym(reference_matrix)
        assert isinstance(ext, SpectralExtremes)
        assert ext.lambda_min <= ext.lambda_max

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            eig_extremes_sym([[0.0, 1.0], [0.5, 0.0]])

    def test_agreement_with_oracle_up_to_order_4(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            a = rng.normal(size=(n, n))
            a = (a + a.T) / 2.0
            coeffs = char_poly_coefficients(a)
            bound = np.max(np.abs(a)) * n + 1.0
            roots = poly_roots_bisect(coeffs, -bound, bound)
            if len(roots) != n:  # nearly multiple roots: bracketing unreliable
                continue
            ext = eig_extremes_sym(a)
            assert ext.lambda_min == pytest.approx(min(roots), abs=1e-7)
            assert ext.lambda_max == pytest.approx(max(roots), abs=1e-7)

    def test_connected_pinned_graphs_are_positive_definite(self):
        rng = np.random.default_rng(3)
        produced = 0
        while produced < 30:
            n = int(rng.integers(1, 7))
            a = (rng.random((n, n)) < 0.6).astype(float)
            a = np.triu(a, 1)
            a = a + a.T
            links = rng.integers(0, 2, n)
            if not links.any():
                links[int(rng.integers(0, n))] = 1
            t = build_topology(a, links)
            if not is_connected(t):
                continue
            ext = eig_extremes_sym(pinned_matrix(t))
            assert ext.lambda_min > 0.0
            produced += 1
