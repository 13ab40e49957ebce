"""Gain tuning rules, Lyapunov certificate constants and the ISS bound.

Two regimes are supported.  In the unperturbed regime the gate is
k1 > c0/(2 lambda_min), k2 > 0 and a feasible pair (rho1, rho2) yields
constants (tau1, tau2, mu) certifying the decay rate alpha = mu/tau2 and
the pointwise envelope delta * exp(-alpha t).  In the perturbed regime the
gate tightens to k1 > (c0+3)/(2 lambda_min), k2 > 1/(2 lambda_min) and a
feasible tuple (rho1, rho2, xi1, xi2) yields (mu2, q0, qf) entering the
exponential ISS bound on V0.

Each regime's strict inequalities on the free parameters are written once,
in the elementwise rule table `_rules` (mu2 likewise in `_mu2`), which the
feasibility checks, the grid search and its infeasibility message all read.

One constraint is implemented in proof-consistent form rather than as
displayed: the last branch of the unperturbed rho1 bound is
(2 c0 - rho2 (1 + c0^2))/c0, the positivity condition of the boundary
velocity coefficient in the dissipation estimate (its perturbed analogue
is stated that way).  With the displayed reciprocal form the optimizer
selects parameters whose V is not monotone, which is observable in
simulation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import CertificateError

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class MarginReport:
    """Outcome of a strict-inequality gate with the thresholds that were
    checked and the worst margin (positive = satisfied)."""

    ok: bool
    thresholds: dict
    margins: dict


@dataclass(frozen=True)
class GainCertificate:
    regime: str
    k1: float
    k2: float
    c0: float
    lambda_min: float
    lambda_max: float
    rho1: float
    rho2: float
    xi1: float | None
    xi2: float | None
    tau1: float
    tau2: float
    mu: float
    mu2: float | None
    q0: float | None
    qf: float | None
    delta_factor: float  # delta = delta_factor * V(0)
    alpha: float


def _gate(k1: float, k2: float, lambda_min: float, k1_num: float,
          k2_num: float) -> MarginReport:
    """The strict gate k1 > k1_num/(2 lambda_min), k2 > k2_num/(2 lambda_min)."""
    if lambda_min <= 0:
        raise CertificateError(
            "lambda_min must be positive: pinned matrix is not positive "
            "definite (connected follower graph with at least one leader "
            "link is required)")
    k1_thr, k2_thr = k1_num / (2.0 * lambda_min), k2_num / (2.0 * lambda_min)
    return MarginReport(ok=k1 > k1_thr and k2 > k2_thr,
                        thresholds={"k1": k1_thr, "k2": k2_thr},
                        margins={"k1": k1 - k1_thr, "k2": k2 - k2_thr})


def check_gains_unperturbed(k1: float, k2: float, c0: float,
                            lambda_min: float) -> MarginReport:
    """Gate k1 > c0/(2 lambda_min), k2 > 0."""
    return _gate(k1, k2, lambda_min, c0, 0.0)


def check_gains_perturbed(k1: float, k2: float, c0: float,
                          lambda_min: float) -> MarginReport:
    """Gate k1 > (c0+3)/(2 lambda_min), k2 > 1/(2 lambda_min)."""
    return _gate(k1, k2, lambda_min, c0 + 3.0, 1.0)


GATES = {"unperturbed": check_gains_unperturbed, "perturbed": check_gains_perturbed}


def rho_bounds_unperturbed(rho2: float, k1: float, k2: float, c0: float,
                           lambda_min: float) -> dict:
    """Upper bounds on rho1 given rho2, by constraint name."""
    return {
        "k1*lambda_min": k1 * lambda_min,
        "2*k2*lambda_min": 2.0 * k2 * lambda_min,
        "1 - rho2": 1.0 - rho2,
        "rho2": rho2,
        "(2*c0 - rho2*(1+c0^2))/c0": (2.0 * c0 - rho2 * (1.0 + c0 * c0)) / c0,
    }


def rho2_bounds_unperturbed(c0: float) -> dict:
    return {"1": 1.0, "2*c0/(1+c0^2)": 2.0 * c0 / (1.0 + c0 * c0)}


def _rules(regime: str, rho1, rho2, xi1, xi2, k1: float, k2: float,
           c0: float, lambda_min: float) -> dict:
    """The regime's strict inequalities on the free parameters: name ->
    whether it holds, elementwise, so scalars and grids read the same rules.
    The unperturbed rules ignore xi1 and xi2."""
    if regime == "unperturbed":
        rules = {"rho2 > 0": rho2 > 0.0}
        rules.update({f"rho2 < {name}": rho2 < bound
                      for name, bound in rho2_bounds_unperturbed(c0).items()})
        rules["rho1 > 0"] = rho1 > 0.0
        rules.update({f"rho1 < {name}": rho1 < bound for name, bound in
                      rho_bounds_unperturbed(rho2, k1, k2, c0, lambda_min).items()})
        return rules
    twice_c = 2.0 * (c0 - xi2 / 2.0)
    c_poly = 1.0 + c0 + c0 * c0
    return {
        "xi1 > 0": xi1 > 0.0,
        "0 < xi2 < 1/(2*c0)": (0.0 < xi2) & (xi2 < 1.0 / (2.0 * c0)),
        "xi1 < rho2": xi1 < rho2,
        "rho2 < 1": rho2 < 1.0,
        "rho2 < 2*(c0 - xi2/2)/(1+c0+c0^2)": rho2 < twice_c / c_poly,
        "rho1 > 0": rho1 > 0.0,
        "rho1 < k1*lambda_min": rho1 < k1 * lambda_min,
        "rho1 < 1 - rho2": rho1 < 1.0 - rho2,
        "rho1 < rho2 - xi1": rho1 < rho2 - xi1,
        "rho1 < 2*k2*lambda_min - 1": rho1 < 2.0 * k2 * lambda_min - 1.0,
        "rho1 < (2*(c0 - xi2/2) - rho2*(1+c0+c0^2))/c0":
            rho1 < (twice_c - rho2 * c_poly) / c0,
    }


def _violated(rules: dict) -> list:
    return [name for name, holds in rules.items() if not holds]


def rho_feasible_unperturbed(rho1: float, rho2: float, k1: float, k2: float,
                             c0: float, lambda_min: float):
    """Strict feasibility of (rho1, rho2); returns (ok, violated names)."""
    violated = _violated(_rules("unperturbed", rho1, rho2, None, None, k1, k2,
                                c0, lambda_min))
    return (not violated), violated


def _sandwich(rho1, rho2, k1, k2, lambda_min, lambda_max, c0):
    """(tau1, tau2, mu) elementwise, for scalars or grids of (rho1, rho2)."""
    tau1 = np.minimum((1.0 - rho2 - rho1) / 2.0,
                      k1 * lambda_min + rho1 * k2 * lambda_min - rho1)
    tau2 = np.maximum((1.0 + rho2 + rho1) / 2.0,
                      np.maximum(k1 * lambda_max + rho1, k2 * lambda_max + rho1))
    mu = np.minimum(rho2 / 2.0, np.minimum((rho2 - rho1) / 2.0,
                                           rho1 * (k1 * lambda_min - c0 / 2.0)))
    return tau1, tau2, mu


def certificate_constants_unperturbed(rho1: float, rho2: float, k1: float,
                                      k2: float, lambda_min: float,
                                      lambda_max: float, c0: float):
    """Sandwich constants tau1, tau2 and the decay coefficient mu."""
    constants = tuple(float(v) for v in _sandwich(rho1, rho2, k1, k2, lambda_min,
                                                  lambda_max, c0))
    for name, value in zip(("tau1", "tau2", "mu"), constants):
        if value <= 0.0:
            raise CertificateError(f"certificate constant {name} = {value} is not positive")
    return constants


def consensus_bound(v_initial: float, tau1: float, mu: float, tau2: float):
    """Pointwise envelope parameters: delta = (1+sqrt(2)) V(0)/tau1,
    alpha = mu/tau2."""
    delta = (1.0 + SQRT2) * v_initial / tau1
    alpha = mu / tau2
    return delta, alpha


def _mu2(rho1, rho2, xi1, k1: float, c0: float, lambda_min: float):
    """The perturbed decay coefficient mu2, elementwise."""
    return np.minimum(rho2 / 4.0, np.minimum((rho2 - rho1 - xi1) / 2.0,
                                             rho1 * (k1 * lambda_min - c0 / 2.0 - 1.5)))


def perturbed_constants(rho1: float, rho2: float, xi1: float, xi2: float,
                        k1: float, k2: float, lambda_min: float, c0: float):
    """(mu2, q0, qf) plus feasibility of the (rho, xi) tuple.  q0 and qf
    divide by xi2 and xi1, so they are None unless every rule holds."""
    violated = _violated(_rules("perturbed", rho1, rho2, xi1, xi2, k1, k2, c0,
                                lambda_min))
    q0 = qf = None
    if not violated:
        q0 = 0.5 * (1.0 / xi2 + rho1 + rho2 * (c0 + 1.0))
        qf = 1.0 / (2.0 * xi1) + rho1 / 2.0 + rho2
    mu2 = float(_mu2(rho1, rho2, xi1, k1, c0, lambda_min))
    return mu2, q0, qf, (not violated), violated


def control_input(m, k1: float, k2: float, u_tilde_boundary,
                  u_tilde_t_boundary) -> np.ndarray:
    """Boundary control q = -k1 M u~(1) - k2 M u~_t(1)."""
    m = np.asarray(m, dtype=float)
    ub = np.asarray(u_tilde_boundary, dtype=float)
    vb = np.asarray(u_tilde_t_boundary, dtype=float)
    if ub.shape != (m.shape[0],) or vb.shape != (m.shape[0],):
        raise ValueError(
            f"boundary vectors of length {ub.shape}/{vb.shape} do not match "
            f"matrix order {m.shape[0]}")
    return -k1 * (m @ ub) - k2 * (m @ vb)


def iss_bound(cert: GainCertificate, v0_initial: float, t, es_psi0_sq,
              es_psi1_sq, es_f_sq, conservative: bool = True):
    """Right-hand side of the exponential ISS relation for V0(t).

    The verbatim variant uses transient V0(0) exp(-(mu2/tau2) t); the
    conservative variant scales the transient by tau2/tau1, which is what
    chaining V(t) <= V(0) exp(...) with the sandwich actually yields.
    """
    if cert.regime != "perturbed":
        raise CertificateError("iss_bound requires a perturbed-regime certificate")
    rate = cert.mu2 / cert.tau2
    gain = cert.tau2 / (cert.mu2 * cert.tau1)
    transient = v0_initial * np.exp(-rate * np.asarray(t, dtype=float))
    if conservative:
        transient = (cert.tau2 / cert.tau1) * transient
    return (transient
            + gain * cert.q0 * np.asarray(es_psi0_sq, dtype=float)
            + gain * np.asarray(es_psi1_sq, dtype=float)
            + gain * cert.qf * np.asarray(es_f_sq, dtype=float))


def _grid(upper: float, resolution: int) -> np.ndarray:
    """Open-interval grid: `resolution` points strictly inside (0, upper).
    Nested refinement: the grid for 2r+1 points contains the grid for r."""
    return upper * np.arange(1, resolution + 1) / (resolution + 1)


def _require_gate(regime: str, k1: float, k2: float, c0: float,
                  lambda_min: float) -> None:
    if regime not in GATES:
        raise ValueError(f"unknown regime {regime!r}")
    gate = GATES[regime](k1, k2, c0, lambda_min)
    if not gate.ok:
        raise CertificateError(
            f"gain check failed: thresholds {gate.thresholds}, margins {gate.margins}")


def build_certificate(regime: str, k1: float, k2: float, c0: float,
                      lambda_min: float, lambda_max: float, rho1: float,
                      rho2: float, xi1: float | None = None,
                      xi2: float | None = None) -> GainCertificate:
    """The certificate for given free parameters.

    Checks the regime's gain gate and the strict feasibility of (rho1, rho2)
    (plus xi1, xi2 in the perturbed regime), then derives every constant.
    The optimizer and explicit parameter overrides end here.
    """
    _require_gate(regime, k1, k2, c0, lambda_min)
    mu2 = q0 = qf = None
    if regime == "unperturbed":
        xi1 = xi2 = None
        ok, violated = rho_feasible_unperturbed(rho1, rho2, k1, k2, c0, lambda_min)
    elif xi1 is None or xi2 is None:
        raise CertificateError("the perturbed regime needs xi1 and xi2 as well as rho1, rho2")
    else:
        mu2, q0, qf, ok, violated = perturbed_constants(
            rho1, rho2, xi1, xi2, k1, k2, lambda_min, c0)
        if ok and mu2 <= 0.0:
            ok, violated = False, ["mu2 > 0"]
    if not ok:
        raise CertificateError(f"infeasible {regime} parameters: {violated}")
    tau1, tau2, mu = certificate_constants_unperturbed(rho1, rho2, k1, k2,
                                                       lambda_min, lambda_max, c0)
    delta_factor, alpha = consensus_bound(1.0, tau1, mu if mu2 is None else mu2, tau2)
    return GainCertificate(
        regime=regime, k1=k1, k2=k2, c0=c0, lambda_min=lambda_min,
        lambda_max=lambda_max, rho1=rho1, rho2=rho2, xi1=xi1, xi2=xi2,
        tau1=tau1, tau2=tau2, mu=mu, mu2=mu2, q0=q0, qf=qf,
        delta_factor=delta_factor, alpha=alpha)


def optimize_certificate(regime: str, k1: float, k2: float, c0: float,
                         lambda_min: float, lambda_max: float,
                         resolution: int = 200) -> GainCertificate:
    """Exhaustive grid search maximizing the certified decay rate.

    Unperturbed: maximize mu/tau2 over (rho1, rho2).  Perturbed: maximize
    mu2/tau2 over (rho1, rho2, xi1, xi2).  Ties break toward the smallest
    rho2, then rho1, then xi1, then xi2.  One scan of the (rho1, rho2) grid
    reads the regime's rule table.  In the perturbed regime it runs at the
    smallest xi1 and xi2 nodes, which hold the 4-D optimum and win its
    tie-break: every xi-dependent rule relaxes and mu2 does not fall as xi1
    or xi2 decrease, and tau2 involves neither.  An empty feasible set
    raises CertificateError naming the rule that admits the fewest nodes.
    """
    _require_gate(regime, k1, k2, c0, lambda_min)
    xi1 = xi2 = None
    if regime == "unperturbed":
        r1_hi = min(k1 * lambda_min, 2.0 * k2 * lambda_min, 1.0)
        r2_hi = min(rho2_bounds_unperturbed(c0).values())
    else:
        xi1 = float(_grid(1.0, resolution)[0])
        xi2 = float(_grid(1.0 / (2.0 * c0), resolution)[0])
        r1_hi = min(k1 * lambda_min, max(2.0 * k2 * lambda_min - 1.0, 0.0), 1.0)
        r2_hi = min(1.0, 2.0 * c0 / (1.0 + c0 + c0 * c0))
    # rows hold rho2, so the first maximum in C order has the smallest rho2, then rho1
    R1, R2 = np.meshgrid(_grid(r1_hi, resolution), _grid(r2_hi, resolution))
    rules = _rules(regime, R1, R2, xi1, xi2, k1, k2, c0, lambda_min)
    feasible = reduce(np.logical_and, rules.values())
    tau1, tau2, mu = _sandwich(R1, R2, k1, k2, lambda_min, lambda_max, c0)
    if regime == "perturbed":
        mu = _mu2(R1, R2, xi1, k1, c0, lambda_min)
    ok = feasible & (mu > 0.0) & (tau1 > 0.0)
    best = np.unravel_index(np.argmax(np.where(ok, mu / tau2, -np.inf)), ok.shape)
    if not ok[best]:
        raise CertificateError("no grid point yields a positive decay rate"
                               if feasible.any() else
                               _tightest_constraint_message(rules, regime))
    return build_certificate(regime, k1, k2, c0, lambda_min, lambda_max,
                             float(R1[best]), float(R2[best]), xi1, xi2)


def _tightest_constraint_message(rules: dict, regime: str) -> str:
    rates = {name: float(np.mean(holds)) for name, holds in rules.items()}
    tightest = min(rates, key=rates.get)
    return (f"empty feasible set for the {regime} regime; tightest "
            f"constraint: {tightest} (admits {rates[tightest]:.1%} of the "
            "search box on its own)")
