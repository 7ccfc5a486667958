"""Potential models with attractive slowly-decaying tails.

A model splits V = V1 + V2 where V1 is smooth, negative, and virial-
positive with decay rate mu in (0, 2), and V2 is a possibly singular
remainder with an integrable tail.  The five runtime hypotheses are:

  (1) V1(x) <= -eps1 <x>^{-mu},
  (2) |d^alpha V1| <= C_alpha <x>^{-mu-|alpha|} for |alpha| <= 2,
  (3) -|x|^{-2} x . grad(|x|^2 V1) >= -eps1_tilde V1  (virial positivity),
  (4) |V2| <= C |x|^{-2 s0 - delta} for |x| > R, with s0 = 1/2 + mu/4,
  (5) local p-integrability of V2, p depending on dimension.

``check_condition`` evaluates all five on a sample grid and returns one
check per hypothesis with its worst-case witness radius.  The module
also carries the local momentum weight f_lambda = (lambda + K
<x>^{-mu})^{1/2} and the virial function W = -2 V1 - x . grad V1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .reports import CheckResult

__all__ = [
    "PotentialModel",
    "WeightParams",
    "weight_f",
    "virial_w",
    "check_condition",
    "standard_model",
    "coulomb_model",
    "model_from_config",
]


def bracket(x):
    """Japanese bracket <x> = sqrt(1 + |x|^2), elementwise."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(1.0 + x * x)


# ---------------------------------------------------------------------------
# Weight
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightParams:
    """Parameters of the local momentum weight f_lambda."""

    lam: float
    kappa: float
    mu: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.kappa <= 0:
            raise ValueError("weight constant K must be positive")
        if not 0.0 < self.mu < 2.0:
            raise ValueError("decay rate mu must lie in (0, 2)")


def weight_f(params: WeightParams, x) -> np.ndarray:
    """f_lambda(x) = (lambda + K <x>^{-mu})^{1/2}."""
    return np.sqrt(params.lam + params.kappa * bracket(x) ** (-params.mu))


def threshold_s0(mu: float) -> float:
    """s0 = 1/2 + mu/4, the weight threshold of the decay rate mu."""
    return 0.5 + mu / 4.0


def weight_exponent(mu: float) -> float:
    """s0 + 0.05, the exponent every weighted bound is checked at."""
    return threshold_s0(mu) + 0.05


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialModel:
    """V = V1 + V2 with certified constants.

    ``v1`` and ``v2`` map the radial coordinate (or the signed 1-d
    coordinate) to values; ``grad_v1`` is the analytic derivative of
    V1 along the radial direction, so x . grad V1 = |x| grad_v1(|x|).
    ``symbol_constants`` holds (C_0, C_1, C_2) of the symbol hypothesis
    and ``v2_tail`` (delta, C, R) of the tail hypothesis.
    """

    mu: float
    eps1: float
    eps1_tilde: float
    v1: Callable[[np.ndarray], np.ndarray]
    grad_v1: Callable[[np.ndarray], np.ndarray]
    dim: int
    symbol_constants: tuple[float, float, float]
    v2: Callable[[np.ndarray], np.ndarray] | None = None
    v2_tail: tuple[float, float, float] = (1.0, 0.0, 1.0)   # (delta, C, R)

    def __post_init__(self):
        if not 0.0 < self.mu < 2.0:
            raise ValueError("mu must lie in (0, 2)")
        if self.eps1 <= 0 or self.eps1_tilde <= 0:
            raise ValueError("eps1 and eps1_tilde must be positive")

    @property
    def s0(self) -> float:
        return threshold_s0(self.mu)

    @property
    def kappa_low_energy(self) -> float:
        """Weight constant used by the zero-energy radiation symbols."""
        return self.eps1 * self.eps1_tilde / (2.0 - self.mu)

    def c0_prime(self) -> float:
        """max(C_0 / K, 1), the plateau scale of the low-frequency cutoff."""
        return max(self.symbol_constants[0] / self.kappa_low_energy, 1.0)

    def total(self, x) -> np.ndarray:
        r = np.abs(np.asarray(x, dtype=float))
        return self.v1(r) if self.v2 is None else self.v1(r) + self.v2(r)


def virial_w(model: PotentialModel, x) -> np.ndarray:
    """W(x) = -2 V1(x) - x . grad V1(x), the virial function."""
    r = np.abs(np.asarray(x, dtype=float))
    return -2.0 * model.v1(r) - r * model.grad_v1(r)


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def standard_model(gamma: float, mu: float, dim: int) -> PotentialModel:
    """V1 = -gamma <x>^{-mu}, V2 = 0.

    Certified constants: eps1 = gamma, eps1_tilde = 2 - mu (the virial
    inequality then holds with slack mu), C_0 = gamma,
    C_1 = gamma mu, C_2 = gamma mu (mu + 2).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")

    def v1(r):
        return -gamma * bracket(r) ** (-mu)

    def grad_v1(r):
        r = np.asarray(r, dtype=float)
        return gamma * mu * r * bracket(r) ** (-mu - 2.0)

    return PotentialModel(
        mu=mu,
        eps1=gamma,
        eps1_tilde=2.0 - mu,
        v1=v1,
        grad_v1=grad_v1,
        dim=dim,
        symbol_constants=(gamma, gamma * mu, gamma * mu * (mu + 2.0)),
    )


def _bump(t):
    """exp(1/(t-1)) for t < 1, zero for t >= 1; smooth on the line."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = t < 1.0
    out[inside] = np.exp(1.0 / (t[inside] - 1.0))
    return out


def _bump_prime(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = t < 1.0
    ti = t[inside]
    out[inside] = -np.exp(1.0 / (ti - 1.0)) / (ti - 1.0) ** 2
    return out


def coulomb_model(gamma: float, dim: int) -> PotentialModel:
    """Attractive Coulomb V = -gamma / |x| with a smooth/singular split.

    V1 = -gamma (|x|^2 + phi(|x|^2))^{-1/2} with a smooth bump phi
    vanishing identically for |x| >= 1, so V1 agrees with the Coulomb
    potential outside the unit ball and V2 = V - V1 is compactly
    supported there, carrying the singularity.  Certified constants:
    mu = 1, eps1 = gamma, eps1_tilde = 1, C_0 = gamma sqrt(e).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if dim < 3:
        raise ValueError("the Coulomb model needs dimension >= 3")

    def v1(r):
        t = np.asarray(r, dtype=float) ** 2
        return -gamma / np.sqrt(t + _bump(t))

    def grad_v1(r):
        r = np.asarray(r, dtype=float)
        t = r * r
        m = t + _bump(t)
        return gamma * r * (1.0 + _bump_prime(t)) * m ** (-1.5)

    def v2(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            coulomb = -gamma / r
        return np.where(r < 1.0, coulomb - v1(r), 0.0)

    delta = 0.499   # vacuous: the tail vanishes identically beyond R = 1
    return PotentialModel(
        mu=1.0,
        eps1=gamma,
        eps1_tilde=1.0,
        v1=v1,
        grad_v1=grad_v1,
        dim=dim,
        v2=v2,
        v2_tail=(delta, gamma, 1.0),
        symbol_constants=(gamma * math.sqrt(math.e), 2.2 * gamma, 10.5 * gamma),
    )


# ---------------------------------------------------------------------------
# Hypothesis checks
# ---------------------------------------------------------------------------

def _fd_second(model, r):
    """Second radial derivative of V1 by central differences of grad_v1.

    V1 is radial, so the gradient extends oddly through the origin.
    """
    h = 1e-4
    rm = r - h
    gm = np.sign(rm) * model.grad_v1(np.abs(rm))
    return (model.grad_v1(r + h) - gm) / (2.0 * h)


def check_condition(model: PotentialModel,
                    grid_radii) -> tuple[list[CheckResult], list[float | None]]:
    """Evaluate all five hypotheses pointwise: one check per hypothesis,
    its value the smallest slack observed (negative is a violation), and
    beside the checks the radius where each slack is attained.

    Decay hypotheses bind at large radius, so the sample set extends
    the supplied grid with a log-spaced ladder out to ten times the
    tail radius.  Derivative bounds for |alpha| = 2 use central
    differences of the analytic gradient with a relative slack of 1e-6.
    Each threshold is the hypothesis' rounding allowance.
    """
    grid_radii = np.asarray(grid_radii, dtype=float)
    if grid_radii.size == 0:
        raise ValueError("sample grid is empty")
    delta, tail_c, tail_r = model.v2_tail
    reach = max(tail_r, 0.1)
    extra = np.geomspace(reach * 0.5, reach * 10.0, 48)
    r = np.array(sorted({*np.abs(grid_radii).tolist(), *extra.tolist(), 0.0}))
    br = bracket(r)
    rows = []       # (description, margin, threshold, witness) per hypothesis

    # (1) attraction: V1 <= -eps1 <x>^{-mu}
    margin1 = -model.v1(r) - model.eps1 * br ** (-model.mu)
    i1 = int(np.argmin(margin1))
    rows.append(("V1 <= -eps1 <x>^-mu", float(margin1[i1]), -1e-12 * model.eps1,
                 float(r[i1])))

    # (2) symbol bounds |d^a V1| <= C_a <x>^{-mu-|a|}, |a| <= 2, as relative
    # margins so the three orders are comparable; the first least one counts
    derivatives = (np.abs(model.v1(r)), np.abs(model.grad_v1(r)),
                   np.abs(_fd_second(model, r)))
    margin2 = np.array([((1.0 + slack) * c_alpha * br ** (-model.mu - order) - values) / c_alpha
                        for order, (values, c_alpha, slack) in enumerate(zip(
                            derivatives, model.symbol_constants, (0.0, 0.0, 1e-6)))])
    order, i2 = np.unravel_index(np.argmin(margin2), margin2.shape)
    rows.append(("|d^a V1| <= C_a <x>^-mu-|a|", float(margin2[order, i2]), -1e-10,
                 float(r[i2])))

    # (3) virial: W >= -eps1_tilde V1 pointwise
    margin3 = virial_w(model, r) + model.eps1_tilde * model.v1(r)
    i3 = int(np.argmin(margin3))
    rows.append(("-|x|^-2 x.grad(|x|^2 V1) >= -eps1_tilde V1",
                 float(margin3[i3]), -1e-12 * max(model.eps1, 1.0), float(r[i3])))

    # (4) tail: |V2| <= C |x|^{-2 s0 - delta} for |x| > R, and (5) local
    # integrability of V2 on the bounded region; both hold without a V2
    if model.v2 is None:
        rows += [("|V2| tail bound", math.inf, 0.0, None),
                 ("V2 local integrability", math.inf, 0.0, None)]
    else:
        outside = r[r > tail_r]
        margin4 = tail_c * outside ** (-2.0 * model.s0 - delta) - np.abs(model.v2(outside))
        i4 = int(np.argmin(margin4))
        rows.append(("|V2| <= C |x|^-2s0-delta beyond R", float(margin4[i4]),
                     -1e-12 * max(tail_c, 1.0), float(outside[i4])))

        p = 2.0 if model.dim <= 3 else (3.0 if model.dim == 4 else model.dim / 2.0)
        inner = np.linspace(0.0, max(tail_r, 1.0), 4097)[1:]
        h = inner[1] - inner[0]
        dens = np.abs(model.v2(inner - h / 2.0)) ** p * (inner - h / 2.0) ** (model.dim - 1)
        lp = float(np.sum(dens) * h) ** (1.0 / p)
        # the margin is the norm itself when it is finite, a violation if not
        rows.append((f"V2 in L^{p:g} on the bounded region",
                     lp if math.isfinite(lp) else -math.inf, 0.0, None))
    checks = [CheckResult(f"hypothesis-{k}", f"condition-hypothesis-{k}", margin,
                          threshold, ">=", description)
              for k, (description, margin, threshold, _) in enumerate(rows, 1)]
    return checks, [row[3] for row in rows]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def model_from_config(cfg: dict) -> PotentialModel:
    family = cfg.get("family")
    if family == "standard":
        return standard_model(float(cfg["gamma"]), float(cfg["mu"]), int(cfg["dim"]))
    if family == "coulomb":
        return coulomb_model(float(cfg["gamma"]), int(cfg["dim"]))
    raise ValueError(f"unknown model family {family!r}")
