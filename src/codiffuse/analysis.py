"""Ensemble reductions: ceilings, inflection points, KDE modality, heatmap rows.

The engine reports exclusive state counts. At the analysis level the categories
"a" and "b" mean every node that has adopted that contagion, i.e. single plus
dual adopters; "ab" is dual adopters only and "naive" is untouched nodes. This
is the reading under which a fully co-diffused population has an "a" ceiling of
n rather than 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AnalysisError

CATEGORIES = ("naive", "a", "b", "ab")
CEILING_WINDOW = 0.2  # trailing fraction of the series that defines the ceiling
MIN_CEILING_STEPS = 5  # shortest series a ceiling is defined on
MODE_PROMINENCE = 0.05  # local maxima below this fraction of the peak are noise
KDE_GRID_SIZE = 512


def category_series(counts: np.ndarray, category: str) -> np.ndarray:
    """Reduce (..., steps, 4) state counts to one category's (..., steps) series."""
    if category == "naive":
        return counts[..., 0]
    if category == "a":
        return counts[..., 1] + counts[..., 3]
    if category == "b":
        return counts[..., 2] + counts[..., 3]
    if category == "ab":
        return counts[..., 3]
    raise ValueError(f"unknown category {category!r}")


def ceiling(series: np.ndarray) -> np.ndarray:
    """Equilibrium level: mean of the trailing 20% (rounded up) of each series
    along the last axis; a numpy float for one series."""
    series = np.asarray(series)
    length = series.shape[-1]
    if length < MIN_CEILING_STEPS:
        raise AnalysisError(f"series too short for a ceiling (length {length})")
    return series[..., -math.ceil(CEILING_WINDOW * length):].mean(axis=-1)


def inflection(series: np.ndarray) -> int | None:
    """First step at which the series reaches half its ceiling; None if ceiling is 0.

    A proxy for the diffusion rate: later inflection, slower spread.
    """
    series = np.asarray(series)
    c = ceiling(series)
    if c <= 0:
        return None
    return int(np.nonzero(series >= c / 2.0)[0][0])


def iteration_ceilings(counts: np.ndarray) -> np.ndarray:
    """(iterations, steps, 4) state counts -> (iterations, 4) ceilings per CATEGORIES."""
    return np.stack([ceiling(category_series(counts, cat)) for cat in CATEGORIES], axis=-1)


def silverman_bandwidth(values: np.ndarray) -> float:
    """0.9 * min(std, iqr/1.34) * n^(-1/5), guarded against degenerate spreads."""
    values = np.asarray(values, dtype=float)
    n = values.size
    std = float(values.std(ddof=1)) if n > 1 else 0.0
    q75, q25 = np.percentile(values, [75, 25])
    candidates = [x for x in (std, (q75 - q25) / 1.34) if x > 0.0]
    if not candidates:
        # All values identical: a nominal width still yields one clean mode.
        return max(1e-3, 1e-3 * float(np.max(np.abs(values), initial=0.0)))
    return 0.9 * min(candidates) * n ** (-0.2)


@dataclass(frozen=True, eq=False)
class ModalityReport:
    """Gaussian KDE on a fixed grid plus the accepted local maxima."""

    bandwidth: float
    grid: np.ndarray  # (KDE_GRID_SIZE,)
    density: np.ndarray  # (KDE_GRID_SIZE,)
    modes: list[float] = field(default_factory=list)

    @property
    def mode_count(self) -> int:
        return len(self.modes)

    def to_json_dict(self) -> dict:
        return {
            "bandwidth": self.bandwidth,
            "mode_count": self.mode_count,
            "modes": self.modes,
            "grid": [[float(x), float(d)] for x, d in zip(self.grid, self.density)],
        }


def kde(values: np.ndarray) -> ModalityReport:
    """Gaussian-kernel density of the values, Silverman bandwidth h, on a
    512-point grid spanning [min - 3h, max + 3h]; modes are interior local
    maxima with density at least 5% of the global peak."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size < 2:
        raise AnalysisError(f"kde needs at least 2 values, got {values.size}")
    h = silverman_bandwidth(values)
    grid = np.linspace(values.min() - 3 * h, values.max() + 3 * h, KDE_GRID_SIZE)
    z = (grid[:, None] - values[None, :]) / h
    density = np.exp(-0.5 * z * z).sum(axis=1) / (values.size * h * math.sqrt(2 * math.pi))

    interior = density[1:-1]
    # >= on the left so an exact two-point plateau still registers one mode.
    is_max = (interior >= density[:-2]) & (interior > density[2:])
    accepted = is_max & (interior >= MODE_PROMINENCE * density.max())
    mode_idx = np.nonzero(accepted)[0] + 1
    modes = [float(grid[i]) for i in mode_idx]
    return ModalityReport(bandwidth=h, grid=grid, density=density, modes=modes)


def mode_shares(values: np.ndarray, modes: list[float]) -> list[float]:
    """Fraction of values nearest each mode (cut at midpoints between modes)."""
    if not modes:
        return []
    values = np.asarray(values, dtype=float)
    cuts = [(modes[i] + modes[i + 1]) / 2.0 for i in range(len(modes) - 1)]
    cell = np.searchsorted(cuts, values)
    return [float(np.mean(cell == k)) for k in range(len(modes))]


def ensemble_stats(mean_counts: np.ndarray, ceilings: np.ndarray) -> list[tuple]:
    """12 long-format (category, metric, value) entries for one parameter set.

    Ceiling mean/std are taken over per-iteration ceilings (population std, since
    branching lives in the iteration-to-iteration spread); the inflection is taken
    on the ensemble-mean series. A zero-ceiling category has inflection None.
    """
    rows = []
    for k, cat in enumerate(CATEGORIES):
        rows.append((cat, "ceiling_mean", float(ceilings[:, k].mean())))
        rows.append((cat, "ceiling_std", float(ceilings[:, k].std(ddof=0))))
        infl = inflection(category_series(mean_counts, cat))
        rows.append((cat, "inflection_mean", None if infl is None else float(infl)))
    return rows

