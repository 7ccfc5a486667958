"""Potential models with attractive slowly-decaying tails.

A model splits V = V1 + V2 where V1 is smooth, negative, and virial-
positive with decay rate mu in (0, 2), and V2 is a possibly singular
remainder with an integrable tail.  The five runtime hypotheses are:

  (1) V1(x) <= -eps1 <x>^{-mu},
  (2) |d^alpha V1| <= C_alpha <x>^{-mu-|alpha|} for |alpha| <= 2,
  (3) -|x|^{-2} x . grad(|x|^2 V1) >= -eps1_tilde V1  (virial positivity),
  (4) |V2| <= C |x|^{-2 s0 - delta} for |x| > R, with s0 = 1/2 + mu/4,
  (5) local p-integrability of V2, p depending on dimension.

``check_condition`` evaluates all five on a sample grid and reports a
worst-case witness per hypothesis.  The module also carries the local
momentum weight f_lambda = (lambda + K <x>^{-mu})^{1/2} and the virial
function W = -2 V1 - x . grad V1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "PotentialModel",
    "WeightParams",
    "ConditionReport",
    "HypothesisResult",
    "weight_f",
    "virial_w",
    "check_condition",
    "standard_model",
    "coulomb_model",
    "model_to_config",
    "model_from_config",
    "load_v2_table",
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


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialModel:
    """V = V1 + V2 with certified constants.

    ``v1`` and ``v2`` map the radial coordinate (or the signed 1-d
    coordinate) to values; ``grad_v1`` is the analytic derivative of
    V1 along the radial direction, so x . grad V1 = |x| grad_v1(|x|).
    ``v2_tail`` holds (delta, C, R) of the tail hypothesis.
    """

    name: str
    mu: float
    eps1: float
    eps1_tilde: float
    v1: Callable[[np.ndarray], np.ndarray]
    grad_v1: Callable[[np.ndarray], np.ndarray]
    dim: int = 1
    v2: Callable[[np.ndarray], np.ndarray] | None = None
    v2_tail: tuple[float, float, float] = (1.0, 0.0, 1.0)   # (delta, C, R)
    symbol_constants: dict = field(default_factory=dict)    # C_alpha, |alpha| <= 2
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.mu < 2.0:
            raise ValueError("mu must lie in (0, 2)")
        if self.eps1 <= 0 or self.eps1_tilde <= 0:
            raise ValueError("eps1 and eps1_tilde must be positive")

    @property
    def s0(self) -> float:
        return 0.5 + self.mu / 4.0

    @property
    def kappa_low_energy(self) -> float:
        """Weight constant used by the zero-energy radiation symbols."""
        return self.eps1 * self.eps1_tilde / (2.0 - self.mu)

    @property
    def c0(self) -> float:
        return self.symbol_constants.get(0, self.eps1)

    def c0_prime(self, kappa: float | None = None) -> float:
        """max(C_0 / K, 1), the plateau scale of the low-frequency cutoff."""
        k = self.kappa_low_energy if kappa is None else kappa
        return max(self.c0 / k, 1.0)

    def total(self, x) -> np.ndarray:
        v = self.v1(np.abs(np.asarray(x, dtype=float)))
        if self.v2 is not None:
            v = v + self.v2(np.abs(np.asarray(x, dtype=float)))
        return v


def virial_w(model: PotentialModel, x) -> np.ndarray:
    """W(x) = -2 V1(x) - x . grad V1(x), the virial function."""
    r = np.abs(np.asarray(x, dtype=float))
    return -2.0 * model.v1(r) - r * model.grad_v1(r)


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def standard_model(gamma: float, mu: float, dim: int = 1) -> PotentialModel:
    """V1 = -gamma <x>^{-mu}, V2 = 0.

    Certified constants: eps1 = gamma, eps1_tilde = 2 - mu (the virial
    inequality then holds with slack mu), C_0 = gamma,
    C_1 = gamma mu, C_2 = gamma mu (mu + 2).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not 0.0 < mu < 2.0:
        raise ValueError("mu must lie in (0, 2)")

    def v1(r):
        return -gamma * bracket(r) ** (-mu)

    def grad_v1(r):
        r = np.asarray(r, dtype=float)
        return gamma * mu * r * bracket(r) ** (-mu - 2.0)

    return PotentialModel(
        name="standard",
        mu=mu,
        eps1=gamma,
        eps1_tilde=2.0 - mu,
        v1=v1,
        grad_v1=grad_v1,
        dim=dim,
        symbol_constants={0: gamma, 1: gamma * mu, 2: gamma * mu * (mu + 2.0)},
        params={"gamma": gamma, "mu": mu, "dim": dim},
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


def coulomb_model(gamma: float, dim: int = 3) -> PotentialModel:
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
        name="coulomb",
        mu=1.0,
        eps1=gamma,
        eps1_tilde=1.0,
        v1=v1,
        grad_v1=grad_v1,
        dim=dim,
        v2=v2,
        v2_tail=(delta, gamma, 1.0),
        symbol_constants={0: gamma * math.sqrt(math.e),
                          1: 2.2 * gamma, 2: 10.5 * gamma},
        params={"gamma": gamma, "dim": dim},
    )


# ---------------------------------------------------------------------------
# Hypothesis checks
# ---------------------------------------------------------------------------

@dataclass
class HypothesisResult:
    index: int
    description: str
    passed: bool
    margin: float           # smallest slack observed; negative = violation
    witness: float | None   # radius where the margin is attained

    def to_dict(self):
        return {
            "hypothesis": self.index,
            "description": self.description,
            "passed": self.passed,
            "margin": self.margin,
            "witness": self.witness,
        }


@dataclass
class ConditionReport:
    model: str
    results: list[HypothesisResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self):
        return {
            "model": self.model,
            "passed": self.passed,
            "hypotheses": [r.to_dict() for r in self.results],
        }


def _fd_second(model, r, h=1e-4):
    """Second radial derivative of V1 by central differences of grad_v1.

    V1 is radial, so the gradient extends oddly through the origin.
    """
    rm = r - h
    gm = np.sign(rm) * model.grad_v1(np.abs(rm))
    return (model.grad_v1(r + h) - gm) / (2.0 * h)


def _sample_radii(grid_radii, tail_R):
    """Grid radii plus a log ladder out to 10x the tail radius."""
    extra = np.geomspace(max(tail_R, 0.1) * 0.5, max(tail_R, 0.1) * 10.0, 48)
    return np.unique(np.concatenate([np.abs(grid_radii), extra, [0.0]]))


def _local_p(dim):
    if dim <= 3:
        return 2.0
    if dim == 4:
        return 3.0
    return dim / 2.0


def check_condition(model: PotentialModel, grid_radii) -> ConditionReport:
    """Evaluate all five hypotheses pointwise, with witnesses.

    Decay hypotheses bind at large radius, so the sample set extends
    the supplied grid with a log-spaced ladder out to ten times the
    tail radius.  Derivative bounds for |alpha| = 2 use central
    differences of the analytic gradient with a relative slack of 1e-6.
    """
    grid_radii = np.asarray(grid_radii, dtype=float)
    if grid_radii.size == 0:
        raise ValueError("sample grid is empty")
    delta, tail_c, tail_r = model.v2_tail
    r = _sample_radii(grid_radii, tail_r)
    br = bracket(r)
    results = []

    # (1) attraction: V1 <= -eps1 <x>^{-mu}
    margin1 = -model.v1(r) - model.eps1 * br ** (-model.mu)
    i1 = int(np.argmin(margin1))
    results.append(HypothesisResult(
        1, "V1 <= -eps1 <x>^-mu", bool(margin1[i1] >= -1e-12 * model.eps1),
        float(margin1[i1]), float(r[i1])))

    # (2) symbol bounds |d^a V1| <= C_a <x>^{-mu-|a|}, |a| <= 2
    worst2 = math.inf
    wit2 = None
    budgets = [
        (np.abs(model.v1(r)), model.symbol_constants.get(0, model.eps1), 0),
        (np.abs(model.grad_v1(r)), model.symbol_constants.get(1, math.inf), 1),
        (np.abs(_fd_second(model, r)), model.symbol_constants.get(2, math.inf), 2),
    ]
    for values, c_alpha, order in budgets:
        if not math.isfinite(c_alpha):
            continue
        slack = 1e-6 if order == 2 else 0.0
        # relative margin so the three orders are comparable
        margin = ((1.0 + slack) * c_alpha * br ** (-model.mu - order) - values) / c_alpha
        i = int(np.argmin(margin))
        if margin[i] < worst2:
            worst2 = float(margin[i])
            wit2 = float(r[i])
    results.append(HypothesisResult(
        2, "|d^a V1| <= C_a <x>^-mu-|a|", bool(worst2 >= -1e-10),
        worst2, wit2))

    # (3) virial: W >= -eps1_tilde V1 pointwise
    margin3 = virial_w(model, r) + model.eps1_tilde * model.v1(r)
    i3 = int(np.argmin(margin3))
    results.append(HypothesisResult(
        3, "-|x|^-2 x.grad(|x|^2 V1) >= -eps1_tilde V1",
        bool(margin3[i3] >= -1e-12 * max(model.eps1, 1.0)),
        float(margin3[i3]), float(r[i3])))

    # (4) tail: |V2| <= C |x|^{-2 s0 - delta} for |x| > R
    if model.v2 is None:
        results.append(HypothesisResult(4, "|V2| tail bound", True, math.inf, None))
    else:
        outside = r[r > tail_r]
        if outside.size == 0:
            outside = np.geomspace(tail_r * 1.01, tail_r * 10.0, 32)
        margin4 = tail_c * outside ** (-2.0 * model.s0 - delta) - np.abs(model.v2(outside))
        i4 = int(np.argmin(margin4))
        results.append(HypothesisResult(
            4, "|V2| <= C |x|^-2s0-delta beyond R",
            bool(margin4[i4] >= -1e-12 * max(tail_c, 1.0)),
            float(margin4[i4]), float(outside[i4])))

    # (5) local integrability of V2 on the bounded region
    if model.v2 is None:
        results.append(HypothesisResult(5, "V2 local integrability", True,
                                        math.inf, None))
    else:
        p = _local_p(model.dim)
        inner = np.linspace(0.0, max(tail_r, 1.0), 4097)[1:]
        h = inner[1] - inner[0]
        dens = np.abs(model.v2(inner - h / 2.0)) ** p * (inner - h / 2.0) ** (model.dim - 1)
        lp = float(np.sum(dens) * h) ** (1.0 / p)
        results.append(HypothesisResult(
            5, f"V2 in L^{p:g} on the bounded region", bool(math.isfinite(lp)),
            lp, None))

    return ConditionReport(model=model.name, results=results)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def model_to_config(model: PotentialModel) -> dict:
    """Named family plus parameters, round-trippable through a config file."""
    if model.name not in ("standard", "coulomb"):
        raise ValueError(f"model family {model.name!r} is not serializable")
    return {"family": model.name, **{k: v for k, v in model.params.items()}}


def model_from_config(cfg: dict) -> PotentialModel:
    family = cfg.get("family")
    if family == "standard":
        return standard_model(float(cfg["gamma"]), float(cfg["mu"]),
                              int(cfg.get("dim", 1)))
    if family == "coulomb":
        return coulomb_model(float(cfg["gamma"]), int(cfg.get("dim", 3)))
    raise ValueError(f"unknown model family {family!r}")


def load_v2_table(path) -> Callable[[np.ndarray], np.ndarray]:
    """Radial V2 from a two-column text file (radius, value).

    Values are interpolated linearly in radius, held at the innermost
    value below the first radius, and set to zero beyond the last one
    (a tabulated potential carries no tail).
    """
    data = np.loadtxt(path)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("expected a two-column table (radius, value)")
    radii, values = data[:, 0], data[:, 1]
    order = np.argsort(radii)
    radii, values = radii[order], values[order]

    def v2(r):
        return np.interp(np.abs(np.asarray(r, dtype=float)), radii, values,
                         right=0.0)

    return v2
