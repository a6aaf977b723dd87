"""Sweep configuration: JSON schema, validation with field paths, defaults.

An empty config resolves to the reference setup: 80x80 lattice (6400 nodes) plus
a degree-4 random regular layer, 700 steps, 100 iterations per parameter set,
alpha grid 0.0..1.3 step 0.1 and tau grids 0.00..0.10 step 0.01.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

from .analysis import MIN_CEILING_STEPS
from .engine import DEFAULT_SEED, RunConfig
from .errors import ConfigurationError
from .kernel import ANNEALED, EXCLUSIVE, INCLUSIVE, QUENCHED, DormancyParams, KernelParams
from .meanfield import MAX_STEPS
from .topology import MAX_NODES

DEFAULT_ALPHAS = [round(0.1 * i, 10) for i in range(14)]
DEFAULT_TAUS = [round(0.01 * i, 10) for i in range(11)]


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigurationError(msg)


def _check_keys(d: dict, allowed: set[str], path: str):
    for key in d:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigurationError(f"unknown config key: {where}")


# Parsers take (value, path) and return the validated field value.

def _number(value, path: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{path} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise ConfigurationError(
            f"{path} must be a finite number, got an integer too large for a float") from None
    _require(math.isfinite(x), f"{path} must be a finite number, got {x}")
    return x


def _positive(value, path: str) -> float:
    x = _number(value, path)
    _require(x > 0, f"{path} must be > 0, got {x}")
    return x


def _integer(minimum: int):
    def parse(value, path: str) -> int:
        _require(isinstance(value, int) and not isinstance(value, bool),
                 f"{path} must be an integer, got {value!r}")
        _require(value >= minimum, f"{path} must be >= {minimum}, got {value}")
        return value
    return parse


def _boolean(value, path: str) -> bool:
    _require(isinstance(value, bool), f"{path} must be true or false, got {value!r}")
    return value


def _float_list(low: float, high: float | None):
    def parse(value, path: str) -> list[float]:
        _require(isinstance(value, list) and len(value) > 0, f"{path} must be a nonempty list")
        out, printed = [], {}
        for i, item in enumerate(value):
            x = _number(item, f"{path}[{i}]")
            _require(x >= low, f"{path}[{i}] must be >= {low}, got {x}")
            if high is not None:
                _require(x <= high, f"{path}[{i}] must be <= {high}, got {x}")
            # File tags and heatmap rows print values with :g, so two values
            # that print alike would give rows no reader can tell apart.
            text = f"{x:g}"
            if text in printed:
                raise ConfigurationError(
                    f"{path}[{i}] prints as {text}, like {path}[{printed[text]}]")
            printed[text] = i
            out.append(x)
        return out
    return parse


def _choice(*options: str):
    def parse(value, path: str) -> str:
        _require(value in options, f"{path} must be one of {options}, got {value!r}")
        return value
    return parse


def _key(path: str, parse, default):
    """A SweepSpec field read from the dotted JSON `path` through `parse`."""
    meta = {"path": path, "parse": parse}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class SweepSpec:
    alphas: list[float] = _key("alpha", _float_list(0.0, None), DEFAULT_ALPHAS)
    tau_a: list[float] = _key("tau_a", _float_list(0.0, 1.0), DEFAULT_TAUS)
    tau_b: list[float] = _key("tau_b", _float_list(0.0, 1.0), DEFAULT_TAUS)
    iterations: int = _key("iterations", _integer(1), 100)
    # Every emitted set needs a ceiling, so a horizon too short for one is
    # rejected at load, before any compute or output.
    steps: int = _key("steps", _integer(MIN_CEILING_STEPS), 700)
    side: int = _key("graph.side", _integer(2), 80)
    degree: int = _key("graph.degree", _integer(1), 4)
    graph_mode: str = _key("graph.mode", _choice("multiplex", "single"), "multiplex")
    freeze_rrg: bool = _key("graph.freeze_rrg", _boolean, False)
    k_a: float = _key("kernel.k_a", _positive, 2.0)
    k_b: float = _key("kernel.k_b", _positive, 2.0)
    adoption: str = _key("kernel.adoption", _choice(INCLUSIVE, EXCLUSIVE), INCLUSIVE)
    thresholds: str = _key("kernel.thresholds", _choice(ANNEALED, QUENCHED), ANNEALED)
    seeds_per_contagion: int = _key("seeds_per_contagion", _integer(1), 1)
    enforce_tau_b_lt_tau_a: bool = _key("enforce_tau_b_lt_tau_a", _boolean, False)
    seed: int = _key("seed", _integer(0), DEFAULT_SEED)
    mf_h: float = _key("meanfield.h", _positive, 0.1)
    mf_horizon: float = _key("meanfield.horizon", _number, 700.0)
    mf_kappa: int = _key("meanfield.kappa", _integer(1), 4)


def _schema():
    """(attribute, path, section, key, parser) per field, and the allowed keys per
    section. Section "" is the root, which also allows each section's name."""
    entries, keys = [], {"": set()}
    for f in fields(SweepSpec):
        path = f.metadata["path"]
        section, _, key = path.rpartition(".")
        entries.append((f.name, path, section, key, f.metadata["parse"]))
        keys[""].add(section or key)
        keys.setdefault(section, set()).add(key)
    return entries, keys


_FIELDS, _KEYS = _schema()


def spec_from_dict(raw: dict) -> SweepSpec:
    """Validate a config mapping; unknown keys are rejected with their path."""
    _require(isinstance(raw, dict), "config root must be an object")
    _check_keys(raw, _KEYS[""], "")
    sections = {"": raw}
    values = {}
    for name, path, section, key, parse in _FIELDS:
        if section not in sections:
            # A section's keys are checked when its first field is reached.
            sub = sections[section] = raw.get(section, {})
            _require(isinstance(sub, dict), f"{section} must be an object")
            _check_keys(sub, _KEYS[section], section)
        if key in sections[section]:
            values[name] = parse(sections[section][key], path)
    spec = SweepSpec(**values)

    _require(spec.mf_horizon >= spec.mf_h, "meanfield.horizon must be >= meanfield.h")
    mf_steps = spec.mf_horizon / spec.mf_h  # a float compare, so an infinite ratio fails too
    _require(mf_steps <= MAX_STEPS,
             f"meanfield.horizon / meanfield.h must be <= {MAX_STEPS} steps, got {mf_steps}")
    for alpha in spec.alphas:  # each kernel's own checks, before any output
        KernelParams(alpha=alpha, k_a=spec.k_a, k_b=spec.k_b, mode=spec.adoption,
                     threshold_mode=spec.thresholds)
    n = spec.side * spec.side
    _require(n <= MAX_NODES,
             f"graph.side must be <= {math.isqrt(MAX_NODES)} (node count <= {MAX_NODES}), "
             f"got {spec.side}")
    if spec.graph_mode == "multiplex":  # the RRG's rules; single mode builds none
        _require(spec.degree < n, f"graph.degree must be < node count {n}, got {spec.degree}")
        _require((n * spec.degree) % 2 == 0,
                 f"node count * degree must be even (n={n}, degree={spec.degree})")
    _require(n >= 2 * spec.seeds_per_contagion,
             f"need {2 * spec.seeds_per_contagion} nodes to seed, graph has {n}")
    return spec


def spec_to_dict(spec: SweepSpec) -> dict:
    """Inverse of spec_from_dict: spec_from_dict(spec_to_dict(s)) == s."""
    out: dict = {}
    for name, _, section, key, _ in _FIELDS:
        target = out.setdefault(section, {}) if section else out
        value = getattr(spec, name)
        target[key] = list(value) if isinstance(value, list) else value
    return out


def load_spec(path: str) -> SweepSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:  # not JSON, not UTF-8, or an integer past int's digit limit
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


def nonempty_parameter_sets(spec: SweepSpec) -> list[tuple[int, float, float, float]]:
    """The enumerated sets of a command that runs or dumps them; none is an error."""
    sets = enumerate_parameter_sets(spec)
    _require(bool(sets), "parameter cube is empty (constraint filtered everything)")
    return sets


def single_parameter_set(spec: SweepSpec, command: str) -> tuple[int, float, float, float]:
    """The one (index, alpha, tau_a, tau_b) that `command` runs on; the rule is
    on the enumerated sets, so a filtered cube of one set qualifies."""
    sets = enumerate_parameter_sets(spec)
    _require(len(sets) == 1,
             f"{command} wants a single parameter set, config enumerates {len(sets)}")
    return sets[0]


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
