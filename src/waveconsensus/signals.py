"""Declarative initial-condition profiles and disturbance signals.

Profiles are functions of the spatial coordinate on [0, 1]; signals are
functions of time; space-time disturbances are separable products of the
two.  Everything is a plain frozen dataclass so experiment configurations
round-trip losslessly through JSON.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

# The fields each kind uses; the JSON config reads and writes exactly these.
PROFILE_KINDS = {"zero": (), "cosine": ("amplitude", "spatial_frequency"),
                 "polynomial": ("coefficients",), "table": ("samples",)}
SIGNAL_KINDS = {"zero": (), "sinusoid": ("amplitude", "angular_frequency", "phase")}
SPACETIME_KINDS = {"zero": (), "separable": ("temporal", "spatial")}


@dataclass(frozen=True)
class ProfileSpec:
    """Spatial profile on [0, 1].

    cosine:     amplitude * cos(spatial_frequency * pi * x)
    polynomial: coefficients[0] + coefficients[1] * x + ...
    table:      verbatim samples, must match the evaluation grid length
    """

    kind: str = "zero"
    amplitude: float = 0.0
    spatial_frequency: float = 0.0
    coefficients: tuple = ()
    samples: tuple = ()

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ConfigError(f"kind: unknown profile kind {self.kind!r}")


@dataclass(frozen=True)
class SignalSpec:
    """Scalar time signal: zero or amplitude * cos(omega t + phase)."""

    kind: str = "zero"
    amplitude: float = 0.0
    angular_frequency: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in SIGNAL_KINDS:
            raise ConfigError(f"kind: unknown signal kind {self.kind!r}")


@dataclass(frozen=True)
class SpaceTimeSpec:
    """Separable space-time disturbance f(x, t) = spatial(x) * temporal(t)."""

    kind: str = "zero"
    temporal: SignalSpec = field(default_factory=SignalSpec)
    spatial: ProfileSpec = field(default_factory=ProfileSpec)

    def __post_init__(self):
        if self.kind not in SPACETIME_KINDS:
            raise ConfigError(f"kind: unknown space-time kind {self.kind!r}")


@dataclass(frozen=True)
class DisturbanceSpec:
    """Per-agent disturbance channels: psi0 (x=0 boundary), psi1 (x=1
    boundary), f (in-domain).  An empty channel is zero on every agent."""

    psi0: tuple = ()
    psi1: tuple = ()
    f: tuple = ()

    def __post_init__(self):
        n = max(len(self.psi0), len(self.psi1), len(self.f))
        for name, zero in (("psi0", SignalSpec()), ("psi1", SignalSpec()),
                           ("f", SpaceTimeSpec())):
            channel = getattr(self, name)
            if not channel:
                object.__setattr__(self, name, (zero,) * n)
            elif len(channel) != n:
                raise ConfigError("disturbance channel lengths disagree")

    @property
    def n(self) -> int:
        return len(self.psi0)

    def is_zero(self) -> bool:
        return (all(s.kind == "zero" for s in self.psi0)
                and all(s.kind == "zero" for s in self.psi1)
                and all(s.kind == "zero" for s in self.f))


def zero_disturbances(n: int) -> DisturbanceSpec:
    return DisturbanceSpec(psi0=(SignalSpec(),) * n)


def eval_profile(p: ProfileSpec, grid_points) -> np.ndarray:
    """Evaluate a profile on sorted grid points within [0, 1]."""
    x = np.asarray(grid_points, dtype=float)
    if x.size and (x.min() < 0.0 or x.max() > 1.0 or np.any(np.diff(x) < 0)):
        raise ValueError("grid points must be sorted and within [0, 1]")
    if p.kind == "zero":
        return np.zeros_like(x)
    if p.kind == "cosine":
        return p.amplitude * np.cos(p.spatial_frequency * np.pi * x)
    if p.kind == "polynomial":
        out = np.zeros_like(x)
        for c in reversed(p.coefficients):
            out = out * x + c
        return out
    if len(p.samples) != x.size:
        raise ConfigError(
            f"table profile has {len(p.samples)} samples, grid has {x.size} points")
    return np.asarray(p.samples, dtype=float)


def eval_signal(s: SignalSpec, t: float) -> float:
    if s.kind == "zero":
        return 0.0
    return s.amplitude * np.cos(s.angular_frequency * t + s.phase)


def eval_space_time(s: SpaceTimeSpec, x, t: float):
    """Evaluate f at position(s) x and time t; scalar in, scalar out."""
    if s.kind == "zero":
        return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0
    spatial = eval_profile(s.spatial, np.atleast_1d(np.asarray(x, dtype=float)))
    value = spatial * eval_signal(s.temporal, t)
    return value if np.ndim(x) else float(value[0])


def ess_sup_running(series) -> np.ndarray:
    """Running maximum: discrete stand-in for the essential supremum of a
    continuous signal sampled on the simulation time grid."""
    arr = np.asarray(series, dtype=float)
    return np.maximum.accumulate(arr)
