"""Adoption probabilities, the A/B choice split, thresholds, and dormancy rates.

All functions here are pure. Node states are small ints shared with the engine:
NAIVE, STATE_A, STATE_B, STATE_AB. Each contagion contributes a saturating term
(density / K)^alpha to the adoption odds; a node that already carries a
contagion has that contagion's term switched off by its indicator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

NAIVE, STATE_A, STATE_B, STATE_AB = 0, 1, 2, 3

INCLUSIVE = "inclusive"
EXCLUSIVE = "exclusive"
ANNEALED = "annealed"
QUENCHED = "quenched"


@dataclass(frozen=True)
class KernelParams:
    """Synergy exponent alpha, half-saturation constants, adoption and threshold modes.

    The terms at density 1, the largest a node can see, must sum to a finite
    number: an infinite sum would make p = inf / (1 + inf) NaN, which no draw
    clears, so saturating adoption would never fire.
    """

    alpha: float
    k_a: float = 2.0
    k_b: float = 2.0
    mode: str = INCLUSIVE
    threshold_mode: str = ANNEALED

    def __post_init__(self):
        if self.alpha < 0:
            raise ConfigurationError(f"alpha must be >= 0, got {self.alpha}")
        if self.k_a <= 0 or self.k_b <= 0:
            raise ConfigurationError(f"k_a and k_b must be > 0, got {self.k_a}, {self.k_b}")
        if self.mode not in (INCLUSIVE, EXCLUSIVE):
            raise ConfigurationError(f"unknown adoption mode {self.mode!r}")
        if self.threshold_mode not in (ANNEALED, QUENCHED):
            raise ConfigurationError(f"unknown threshold mode {self.threshold_mode!r}")
        with np.errstate(over="ignore"):
            top = (hill_term_vec(1.0, self.k_a, self.alpha)
                   + hill_term_vec(1.0, self.k_b, self.alpha))
        if not np.isfinite(top):
            raise ConfigurationError(
                f"kernel terms overflow: (1/k_a)^alpha + (1/k_b)^alpha is not finite "
                f"for alpha {self.alpha}, k_a {self.k_a}, k_b {self.k_b}")


@dataclass(frozen=True)
class DormancyParams:
    """Per-step switch-off probabilities; dual adopters use the arithmetic mean."""

    tau_a: float
    tau_b: float

    def __post_init__(self):
        for name, val in (("tau_a", self.tau_a), ("tau_b", self.tau_b)):
            if not 0.0 <= val <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {val}")

    @property
    def tau_ab(self) -> float:
        return (self.tau_a + self.tau_b) / 2.0


@dataclass(frozen=True)
class Densities:
    """Fractions of active adopters among a node's neighbors, one per layer."""

    dens_a: float
    dens_b: float


def hill_term(x: float, k: float, alpha: float) -> float:
    """(x/k)^alpha with the zero-density convention: exactly 0 whenever x == 0.

    The convention covers alpha == 0 too, so a node with no active sources can
    never adopt spontaneously. math.pow raises ValueError on a negative x with
    a fractional alpha (where ** returns a complex number or NaN) and
    OverflowError on overflow.
    """
    if x == 0.0:
        return 0.0
    return math.pow(x / k, alpha)


def hill_term_vec(x: np.ndarray, k: float, alpha: float) -> np.ndarray:
    """Vectorized hill_term. np.power gives 0**0 == 1, so zeros are masked explicitly."""
    return np.where(x > 0.0, np.power(x / k, alpha), 0.0)


def adoption_probability(state: int, dens: Densities, params: KernelParams) -> float:
    """Probability that a node in `state` adopts one (more) contagion this step.

    General form: switched terms over 1 + switched terms. Dual adopters get 0;
    in exclusive mode any prior adoption confers immunity and also gives 0.
    """
    has_a = state in (STATE_A, STATE_AB)
    has_b = state in (STATE_B, STATE_AB)
    if params.mode == EXCLUSIVE and (has_a or has_b):
        return 0.0
    ta = 0.0 if has_a else hill_term(dens.dens_a, params.k_a, params.alpha)
    tb = 0.0 if has_b else hill_term(dens.dens_b, params.k_b, params.alpha)
    tot = ta + tb
    return tot / (1.0 + tot)


def choose_contagion(dens: Densities, params: KernelParams, u: float) -> int:
    """Split a naive adoption between A and B by the relative size of their terms.

    Caller must guarantee at least one term is positive (a fired adoption does).
    """
    ta = hill_term(dens.dens_a, params.k_a, params.alpha)
    tb = hill_term(dens.dens_b, params.k_b, params.alpha)
    tot = ta + tb
    if tot <= 0.0:
        raise ValueError("choose_contagion requires at least one positive term")
    return STATE_A if u < ta / tot else STATE_B


def threshold_of(p: float) -> float:
    """Threshold mu = 1 - p; adoption fires when the node's uniform draw reaches mu."""
    return 1.0 - p


def fires(p: float, draw: float) -> bool:
    """True when a U[0,1) draw clears the threshold. P(fires) == p exactly, incl. p in {0, 1}."""
    return draw >= threshold_of(p)


def dormancy_rate(state: int, d: DormancyParams) -> float:
    """Per-step dormancy probability for an adopter state."""
    if state == STATE_A:
        return d.tau_a
    if state == STATE_B:
        return d.tau_b
    if state == STATE_AB:
        return d.tau_ab
    raise ValueError("naive nodes have no dormancy rate")
