"""Well-mixed compartment model cross-check for the co-diffusion dynamics.

Five fractions: x_a, x_b (active single adopters), x_ab (active dual adopters),
x_naive, and x_r (dormant). Adoption rates instantiate the same kernel with the
global adopter fractions as densities; the naive inflow is split between A and B
by the relative-proportion rule. In exclusive mode no single adopter becomes a
dual adopter, so x_ab only decays by dormancy. Every flux appears once as an
outflow and once as an inflow, so the derivative components sum to zero by
construction (the compartment total is conserved up to round-off).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, IntegrationError
from .kernel import EXCLUSIVE, DormancyParams, KernelParams, hill_term

BOUNDS_TOL = 1e-6

COMPONENTS = ("x_a", "x_b", "x_ab", "x_naive", "x_r")


@dataclass(frozen=True)
class MeanFieldState:
    x_a: float
    x_b: float
    x_ab: float
    x_naive: float
    x_r: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x_a, self.x_b, self.x_ab, self.x_naive, self.x_r])


@dataclass(frozen=True)
class MeanFieldParams:
    """Kernel + dormancy plus integration controls.

    kappa is the nominal contact degree of the well-mixed population; it is
    carried for reporting only and enters no equation.
    """

    kernel: KernelParams
    dormancy: DormancyParams
    kappa: int = 4
    h: float = 0.1
    horizon: float = 700.0

    def __post_init__(self):
        if self.h <= 0:
            raise ConfigurationError(f"step size h must be > 0, got {self.h}")
        if self.horizon < self.h:
            raise ConfigurationError("horizon must be at least one step")


def mf_rates(state: np.ndarray, params: MeanFieldParams) -> np.ndarray:
    """Derivatives of (x_a, x_b, x_ab, x_naive, x_r); components sum to 0."""
    x_a, x_b, x_ab, x_naive, _ = state
    kern, dorm = params.kernel, params.dormancy
    ta = hill_term(x_a + x_ab, kern.k_a, kern.alpha)
    tb = hill_term(x_b + x_ab, kern.k_b, kern.alpha)
    tot = ta + tb
    p_naive = tot / (1.0 + tot)
    if tot > 0.0:
        f_a = x_naive * p_naive * (ta / tot)
        f_b = x_naive * p_naive * (tb / tot)
    else:
        f_a = f_b = 0.0
    if kern.mode == EXCLUSIVE:  # a single adopter is immune to the other contagion
        g_a = g_b = 0.0
    else:
        g_a = x_a * (tb / (1.0 + tb))  # single A adopters picking up B
        g_b = x_b * (ta / (1.0 + ta))
    r_a = dorm.tau_a * x_a
    r_b = dorm.tau_b * x_b
    r_ab = dorm.tau_ab * x_ab
    return np.array([
        f_a - g_a - r_a,
        f_b - g_b - r_b,
        g_a + g_b - r_ab,
        -(f_a + f_b),
        r_a + r_b + r_ab,
    ])


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray  # (m,)
    states: np.ndarray  # (m, 5), columns per COMPONENTS


def integrate(initial: MeanFieldState, params: MeanFieldParams) -> Trajectory:
    """Classical fixed-step 4th-order integration to the horizon.

    The horizon is rounded to a whole number of steps. Raises IntegrationError
    if any component leaves [0, 1] by more than 1e-6 or turns NaN (shrink h).
    """
    n_steps = max(1, round(params.horizon / params.h))
    h = params.h
    y = initial.as_array().astype(float)
    out = np.empty((n_steps + 1, 5))
    out[0] = y
    for k in range(1, n_steps + 1):
        k1 = mf_rates(y, params)
        k2 = mf_rates(y + 0.5 * h * k1, params)
        k3 = mf_rates(y + 0.5 * h * k2, params)
        k4 = mf_rates(y + h * k3, params)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all((y >= -BOUNDS_TOL) & (y <= 1.0 + BOUNDS_TOL)):
            raise IntegrationError(
                f"state left [0,1] at t={k * h:.6g} (h={h}); reduce the step size"
            )
        out[k] = y
    times = np.arange(n_steps + 1) * h
    return Trajectory(times=times, states=out)


def write_trajectory(traj: Trajectory, fh) -> None:
    """CSV dump: t,x_a,x_b,x_ab,x_naive,x_r."""
    fh.write("t," + ",".join(COMPONENTS) + "\n")
    for t, row in zip(traj.times, traj.states):
        fh.write(f"{t:.6f}," + ",".join(f"{x:.9f}" for x in row) + "\n")
