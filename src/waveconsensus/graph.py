"""Communication topology: adjacency validation, Laplacian, leader-pinned
matrix and symmetric eigenvalue extremes.

The follower network is a static undirected graph given by a 0/1 adjacency
matrix; the leader is attached through a 0/1 pinning vector.  The pinned
matrix M = L + diag(leader_links) is positive definite exactly when the
follower graph is connected and at least one follower hears the leader,
which is what every certificate downstream relies on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TopologyError


@dataclass(frozen=True, eq=False)  # `==` is identity: the fields are arrays
class Topology:
    """Validated follower graph plus leader pinning."""

    n: int
    adjacency: np.ndarray
    leader_links: np.ndarray


@dataclass(frozen=True)
class SpectralExtremes:
    """Smallest/largest eigenvalue of a symmetric matrix."""

    lambda_min: float
    lambda_max: float


def build_topology(adjacency, leader_links) -> Topology:
    """Validate and freeze a follower adjacency matrix and pinning vector."""
    adj = np.asarray(adjacency, dtype=float)
    links = np.asarray(leader_links, dtype=float)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise TopologyError(f"adjacency: must be square, got shape {adj.shape}")
    n = adj.shape[0]
    if n < 1:
        raise TopologyError("adjacency: at least one follower is required")
    if links.shape != (n,):
        raise TopologyError(
            f"leader_links: length {links.shape} does not match {n} followers")
    if not np.array_equal(adj, adj.T):
        raise TopologyError("adjacency: must be symmetric")
    if np.any(np.diag(adj) != 0):
        raise TopologyError("adjacency: diagonal must be zero (no self-loops)")
    if not np.isin(adj, (0.0, 1.0)).all():
        raise TopologyError("adjacency: entries must be 0 or 1")
    if not np.isin(links, (0.0, 1.0)).all():
        raise TopologyError("leader_links: entries must be 0 or 1")
    adj = adj.copy()
    links = links.copy()
    adj.flags.writeable = False
    links.flags.writeable = False
    return Topology(n=n, adjacency=adj, leader_links=links)


def laplacian(t: Topology) -> np.ndarray:
    """Graph Laplacian of the follower network: row sums are exactly zero."""
    lap = -t.adjacency.copy()
    np.fill_diagonal(lap, t.adjacency.sum(axis=1))
    return lap


def pinned_matrix(t: Topology) -> np.ndarray:
    """Laplacian plus diagonal leader pinning; symmetric by construction."""
    return laplacian(t) + np.diag(t.leader_links)


def is_connected(t: Topology) -> bool:
    """Breadth-first reachability over the follower graph."""
    n = t.n
    if n == 1:
        return True
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(t.adjacency[i])[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return bool(seen.all())


def eig_extremes_sym(m) -> SpectralExtremes:
    """Smallest and largest eigenvalue of a symmetric matrix (LAPACK,
    through numpy.linalg.eigvalsh)."""
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be symmetric")
    vals = np.linalg.eigvalsh(a)
    return SpectralExtremes(lambda_min=float(vals[0]), lambda_max=float(vals[-1]))
