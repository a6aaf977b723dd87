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

# Most RK4 steps one trajectory may take: its times and states then fill about
# 480 MB (the default horizon 700 at h 0.1 takes 7,000 steps).
MAX_STEPS = 10_000_000

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
        # Each comparison is written so that NaN fails it.
        if not self.h > 0:
            raise ConfigurationError(f"step size h must be > 0, got {self.h}")
        if not self.horizon >= self.h:
            raise ConfigurationError("horizon must be at least one step")
        if not self.horizon / self.h <= MAX_STEPS:  # an infinite ratio fails too
            raise ConfigurationError(
                f"horizon / h must be <= {MAX_STEPS} steps, got {self.horizon / self.h}")


def mf_rates(state, params: MeanFieldParams) -> tuple[float, ...]:
    """Derivatives of (x_a, x_b, x_ab, x_naive, x_r) at any 5-sequence of
    fractions, as a tuple of floats; components sum to 0."""
    x_a, x_b, x_ab, x_naive, _ = state
    kern, dorm = params.kernel, params.dormancy
    alpha = kern.alpha
    ta = hill_term(x_a + x_ab, kern.k_a, alpha)
    tb = hill_term(x_b + x_ab, kern.k_b, alpha)
    tot = ta + tb
    if tot > 0.0:
        p_naive = tot / (1.0 + tot)
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
    return (
        f_a - g_a - r_a,
        f_b - g_b - r_b,
        g_a + g_b - r_ab,
        -(f_a + f_b),
        r_a + r_b + r_ab,
    )


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray  # (m,)
    states: np.ndarray  # (m, 5), columns per COMPONENTS


def integrate(initial: MeanFieldState, params: MeanFieldParams) -> Trajectory:
    """Classical fixed-step 4th-order integration to the horizon, on Python floats.

    The horizon is rounded to a whole number of steps. The state is five local
    floats, and each stage is built component by component with the operations,
    in the order, that whole-array RK4 on 5-element numpy arrays runs, so the
    trajectory is bit-identical to it. Raises IntegrationError (shrink h) at the
    first step whose state leaves [0, 1] by more than 1e-6 or turns NaN, or one
    of whose stages gives hill_term a negative density (at any alpha) or
    overflows its power, in either adoption mode.
    """
    n_steps = max(1, round(params.horizon / params.h))
    h = params.h
    half, sixth = 0.5 * h, h / 6.0
    lo, hi = -BOUNDS_TOL, 1.0 + BOUNDS_TOL
    out = np.empty((n_steps + 1, 5))
    out[0] = initial.as_array()
    y = y0, y1, y2, y3, y4 = out[0].tolist()
    for k in range(1, n_steps + 1):
        try:
            d1 = mf_rates(y, params)
            d2 = mf_rates((y0 + half * d1[0], y1 + half * d1[1], y2 + half * d1[2],
                           y3 + half * d1[3], y4 + half * d1[4]), params)
            d3 = mf_rates((y0 + half * d2[0], y1 + half * d2[1], y2 + half * d2[2],
                           y3 + half * d2[3], y4 + half * d2[4]), params)
            d4 = mf_rates((y0 + h * d3[0], y1 + h * d3[1], y2 + h * d3[2],
                           y3 + h * d3[3], y4 + h * d3[4]), params)
        except (ValueError, ArithmeticError):  # a negative density, an overflowing power
            inside = False
        else:
            y0 += sixth * (((d1[0] + 2.0 * d2[0]) + 2.0 * d3[0]) + d4[0])
            y1 += sixth * (((d1[1] + 2.0 * d2[1]) + 2.0 * d3[1]) + d4[1])
            y2 += sixth * (((d1[2] + 2.0 * d2[2]) + 2.0 * d3[2]) + d4[2])
            y3 += sixth * (((d1[3] + 2.0 * d2[3]) + 2.0 * d3[3]) + d4[3])
            y4 += sixth * (((d1[4] + 2.0 * d2[4]) + 2.0 * d3[4]) + d4[4])
            inside = (lo <= y0 <= hi and lo <= y1 <= hi and lo <= y2 <= hi
                      and lo <= y3 <= hi and lo <= y4 <= hi)
        if not inside:
            raise IntegrationError(
                f"state left [0,1] at t={k * h:.6g} (h={h}); reduce the step size"
            )
        out[k] = y = y0, y1, y2, y3, y4
    times = np.arange(n_steps + 1) * h
    return Trajectory(times=times, states=out)


def trajectory_csv(traj: Trajectory) -> str:
    """CSV text: t,x_a,x_b,x_ab,x_naive,x_r."""
    rows = (f"{t:.6f}," + ",".join(f"{x:.9f}" for x in row) + "\n"
            for t, row in zip(traj.times.tolist(), traj.states.tolist()))
    return "t," + ",".join(COMPONENTS) + "\n" + "".join(rows)
