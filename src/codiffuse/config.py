"""Sweep configuration: JSON schema, validation with field paths, defaults.

An empty config resolves to the reference setup: 80x80 lattice (6400 nodes) plus
a degree-4 random regular layer, 700 steps, 100 iterations per parameter set,
alpha grid 0.0..1.3 step 0.1 and tau grids 0.00..0.10 step 0.01.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .analysis import MIN_CEILING_STEPS
from .engine import DEFAULT_SEED, RunConfig
from .errors import ConfigurationError
from .kernel import ANNEALED, EXCLUSIVE, INCLUSIVE, QUENCHED, DormancyParams, KernelParams

DEFAULT_ALPHAS = [round(0.1 * i, 10) for i in range(14)]
DEFAULT_TAUS = [round(0.01 * i, 10) for i in range(11)]


@dataclass
class SweepSpec:
    alphas: list[float] = field(default_factory=lambda: list(DEFAULT_ALPHAS))
    tau_a: list[float] = field(default_factory=lambda: list(DEFAULT_TAUS))
    tau_b: list[float] = field(default_factory=lambda: list(DEFAULT_TAUS))
    iterations: int = 100
    steps: int = 700
    side: int = 80
    degree: int = 4
    graph_mode: str = "multiplex"
    freeze_rrg: bool = False
    k_a: float = 2.0
    k_b: float = 2.0
    adoption: str = INCLUSIVE
    thresholds: str = ANNEALED
    seeds_per_contagion: int = 1
    enforce_tau_b_lt_tau_a: bool = False
    seed: int = DEFAULT_SEED
    mf_h: float = 0.1
    mf_horizon: float = 700.0
    mf_kappa: int = 4


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigurationError(msg)


def _check_keys(d: dict, allowed: set[str], path: str):
    for key in d:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigurationError(f"unknown config key: {where}")


def _number(value, path: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{path} must be a number, got {value!r}")
    return float(value)


def _integer(value, path: str, minimum: int) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{path} must be an integer, got {value!r}")
    _require(value >= minimum, f"{path} must be >= {minimum}, got {value}")
    return value


def _boolean(value, path: str) -> bool:
    _require(isinstance(value, bool), f"{path} must be true or false, got {value!r}")
    return value


def _float_list(value, path: str, low: float | None, high: float | None) -> list[float]:
    _require(isinstance(value, list) and len(value) > 0, f"{path} must be a nonempty list")
    out = []
    for i, item in enumerate(value):
        x = _number(item, f"{path}[{i}]")
        if low is not None:
            _require(x >= low, f"{path}[{i}] must be >= {low}, got {x}")
        if high is not None:
            _require(x <= high, f"{path}[{i}] must be <= {high}, got {x}")
        out.append(x)
    return out


def _choice(value, path: str, options: tuple[str, ...]) -> str:
    _require(value in options, f"{path} must be one of {options}, got {value!r}")
    return value


def spec_from_dict(raw: dict) -> SweepSpec:
    """Validate a config mapping; unknown keys are rejected with their path."""
    _require(isinstance(raw, dict), "config root must be an object")
    _check_keys(raw, {"alpha", "tau_a", "tau_b", "iterations", "steps", "graph", "kernel",
                      "seeds_per_contagion", "enforce_tau_b_lt_tau_a", "seed", "meanfield"},
                "")
    spec = SweepSpec()
    if "alpha" in raw:
        spec.alphas = _float_list(raw["alpha"], "alpha", 0.0, None)
    if "tau_a" in raw:
        spec.tau_a = _float_list(raw["tau_a"], "tau_a", 0.0, 1.0)
    if "tau_b" in raw:
        spec.tau_b = _float_list(raw["tau_b"], "tau_b", 0.0, 1.0)
    if "iterations" in raw:
        spec.iterations = _integer(raw["iterations"], "iterations", 1)
    if "steps" in raw:
        # Every emitted set needs a ceiling, so reject a horizon too short for one
        # here, before any compute or output.
        spec.steps = _integer(raw["steps"], "steps", MIN_CEILING_STEPS)
    if "graph" in raw:
        g = raw["graph"]
        _require(isinstance(g, dict), "graph must be an object")
        _check_keys(g, {"mode", "side", "degree", "freeze_rrg"}, "graph")
        if "mode" in g:
            spec.graph_mode = _choice(g["mode"], "graph.mode", ("multiplex", "single"))
        if "side" in g:
            spec.side = _integer(g["side"], "graph.side", 2)
        if "degree" in g:
            spec.degree = _integer(g["degree"], "graph.degree", 1)
        if "freeze_rrg" in g:
            spec.freeze_rrg = _boolean(g["freeze_rrg"], "graph.freeze_rrg")
    if "kernel" in raw:
        k = raw["kernel"]
        _require(isinstance(k, dict), "kernel must be an object")
        _check_keys(k, {"k_a", "k_b", "adoption", "thresholds"}, "kernel")
        if "k_a" in k:
            spec.k_a = _number(k["k_a"], "kernel.k_a")
            _require(spec.k_a > 0, f"kernel.k_a must be > 0, got {spec.k_a}")
        if "k_b" in k:
            spec.k_b = _number(k["k_b"], "kernel.k_b")
            _require(spec.k_b > 0, f"kernel.k_b must be > 0, got {spec.k_b}")
        if "adoption" in k:
            spec.adoption = _choice(k["adoption"], "kernel.adoption", (INCLUSIVE, EXCLUSIVE))
        if "thresholds" in k:
            spec.thresholds = _choice(k["thresholds"], "kernel.thresholds",
                                      (ANNEALED, QUENCHED))
    if "seeds_per_contagion" in raw:
        spec.seeds_per_contagion = _integer(raw["seeds_per_contagion"],
                                            "seeds_per_contagion", 1)
    if "enforce_tau_b_lt_tau_a" in raw:
        spec.enforce_tau_b_lt_tau_a = _boolean(raw["enforce_tau_b_lt_tau_a"],
                                               "enforce_tau_b_lt_tau_a")
    if "seed" in raw:
        spec.seed = _integer(raw["seed"], "seed", 0)
    if "meanfield" in raw:
        m = raw["meanfield"]
        _require(isinstance(m, dict), "meanfield must be an object")
        _check_keys(m, {"h", "horizon", "kappa"}, "meanfield")
        if "h" in m:
            spec.mf_h = _number(m["h"], "meanfield.h")
            _require(spec.mf_h > 0, f"meanfield.h must be > 0, got {spec.mf_h}")
        if "horizon" in m:
            spec.mf_horizon = _number(m["horizon"], "meanfield.horizon")
            _require(spec.mf_horizon >= spec.mf_h, "meanfield.horizon must be >= meanfield.h")
        if "kappa" in m:
            spec.mf_kappa = _integer(m["kappa"], "meanfield.kappa", 1)

    n = spec.side * spec.side
    _require(spec.degree < n, f"graph.degree must be < node count {n}, got {spec.degree}")
    _require((n * spec.degree) % 2 == 0,
             f"node count * degree must be even (n={n}, degree={spec.degree})")
    _require(n >= 2 * spec.seeds_per_contagion,
             f"need {2 * spec.seeds_per_contagion} nodes to seed, graph has {n}")
    return spec


def spec_to_dict(spec: SweepSpec) -> dict:
    """Inverse of spec_from_dict: spec_from_dict(spec_to_dict(s)) == s."""
    return {
        "alpha": list(spec.alphas),
        "tau_a": list(spec.tau_a),
        "tau_b": list(spec.tau_b),
        "iterations": spec.iterations,
        "steps": spec.steps,
        "graph": {
            "mode": spec.graph_mode,
            "side": spec.side,
            "degree": spec.degree,
            "freeze_rrg": spec.freeze_rrg,
        },
        "kernel": {
            "k_a": spec.k_a,
            "k_b": spec.k_b,
            "adoption": spec.adoption,
            "thresholds": spec.thresholds,
        },
        "seeds_per_contagion": spec.seeds_per_contagion,
        "enforce_tau_b_lt_tau_a": spec.enforce_tau_b_lt_tau_a,
        "seed": spec.seed,
        "meanfield": {"h": spec.mf_h, "horizon": spec.mf_horizon, "kappa": spec.mf_kappa},
    }


def load_spec(path: str) -> SweepSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed config {path}: {exc}") from exc
    return spec_from_dict(raw)


def enumerate_parameter_sets(spec: SweepSpec) -> list[tuple[int, float, float, float]]:
    """(index, alpha, tau_a, tau_b) for the parameter cube, in product order.

    With the constraint flag set, only combinations with tau_b < tau_a survive;
    indices are assigned after filtering.
    """
    triples = []
    for alpha in spec.alphas:
        for ta in spec.tau_a:
            for tb in spec.tau_b:
                if spec.enforce_tau_b_lt_tau_a and not tb < ta:
                    continue
                triples.append((alpha, ta, tb))
    return [(i, a, ta, tb) for i, (a, ta, tb) in enumerate(triples)]


def run_config_for(spec: SweepSpec, param_index: int, alpha: float,
                   tau_a: float, tau_b: float) -> RunConfig:
    kernel = KernelParams(alpha=alpha, k_a=spec.k_a, k_b=spec.k_b,
                          mode=spec.adoption, threshold_mode=spec.thresholds)
    dormancy = DormancyParams(tau_a=tau_a, tau_b=tau_b)
    return RunConfig(kernel=kernel, dormancy=dormancy, side=spec.side,
                     degree=spec.degree, graph_mode=spec.graph_mode,
                     freeze_rrg=spec.freeze_rrg, steps=spec.steps,
                     seeds_per_contagion=spec.seeds_per_contagion,
                     master_seed=spec.seed, param_index=param_index)
