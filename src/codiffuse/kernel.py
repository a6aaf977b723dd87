"""Kernel and dormancy parameters, node states, and the one definition of the
adoption term.

Node states are small ints shared with the engine: NAIVE, STATE_A, STATE_B,
STATE_AB. Each contagion contributes a saturating term (density / K)^alpha to
the adoption odds; a node that already carries a contagion has that
contagion's term switched off by its indicator. The engine evaluates the terms
once per parameter set into lookup tables (`engine.step_tables`), the
mean-field model per RK4 stage.
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
        # Each comparison is written so that NaN fails it.
        if not self.alpha >= 0:
            raise ConfigurationError(f"alpha must be >= 0, got {self.alpha}")
        if not (self.k_a > 0 and self.k_b > 0):
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


def hill_term(x: float, k: float, alpha: float) -> float:
    """(x/k)^alpha with the zero-density convention: exactly 0 whenever x == 0.

    The convention covers alpha == 0 too, so a node with no active sources can
    never adopt spontaneously. A negative x raises ValueError at every alpha:
    math.pow would accept it with an integral alpha and return a real number
    for a density that does not exist. Overflow raises OverflowError.
    """
    if x <= 0.0:
        if x < 0.0:
            raise ValueError(f"negative density {x!r}")
        return 0.0
    return math.pow(x / k, alpha)


def hill_term_vec(x: np.ndarray, k: float, alpha: float) -> np.ndarray:
    """Vectorized hill_term. np.power gives 0**0 == 1, so zeros are masked explicitly."""
    return np.where(x > 0.0, np.power(x / k, alpha), 0.0)
