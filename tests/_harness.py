"""Shared test fixtures and oracles: a hand-built two-layer graph of independent
star groups, the per-node scalar kernel (adoption probability, A/B choice,
threshold, dormancy rate) and a slow per-node reference implementation of the
synchronous step built on it, a full-horizon realization loop that never stops
at absorption, `run` outputs at several worker counts, and three
implementations that `src/` replaced, kept as oracles of their replacements:
the per-iteration realization loop (`engine.run_ensemble`), the `np.unique`
RRG sampler (`topology.build_rrg`) and the numpy-array mean-field integrator
(`meanfield.integrate`).

Each star group has 9 nodes: one target (offset 0), four layer-A sources
(offsets 1..4) and four layer-B sources (offsets 5..8). The target's layer-A
neighborhood is exactly its A sources and its layer-B neighborhood exactly its
B sources, so setting k sources active fixes the target's densities at k/4.
Sources point back at the target (4 copies, keeping every neighbor list at
length 4), and the off-layer sources pair up among themselves, so adjacency is
symmetric and groups never interact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from codiffuse.config import spec_from_dict
from codiffuse.engine import (
    StepTables,
    iteration_graph,
    iteration_stream,
    seed_population,
    step,
    step_tables,
    step_with_draws,
    stream,
    table_keys,
)
from codiffuse.errors import ConfigurationError, GraphGenerationError, IntegrationError
from codiffuse.kernel import (
    EXCLUSIVE,
    NAIVE,
    QUENCHED,
    STATE_A,
    STATE_AB,
    STATE_B,
    DormancyParams,
    KernelParams,
    hill_term,
)
from codiffuse.meanfield import BOUNDS_TOL, Trajectory
from codiffuse.sweep import run_single
from codiffuse.topology import RRG_RESTART_BUDGET, Layer, MultiplexGraph

# The default mode, the single-layer mode (whose batches union one shared
# lattice), and the one in which every unit of a split set rebuilds the set's
# frozen graph in its own process.
WORKER_COUNT_MODES = (
    {},
    {"graph": {"mode": "single"}},
    {"graph": {"freeze_rrg": True},
     "kernel": {"adoption": "exclusive", "thresholds": "quenched"}},
)


@dataclass(frozen=True)
class Densities:
    """Fractions of active adopters among a node's neighbors, one per layer."""

    dens_a: float
    dens_b: float


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


def star_groups(n_groups: int) -> MultiplexGraph:
    base = 9 * np.arange(n_groups, dtype=np.int64)[:, None]

    def layer_for(src_lo: int, pair_lo: int) -> Layer:
        nbrs = np.empty((9 * n_groups, 4), dtype=np.int64)
        nbrs[base[:, 0] + 0] = base + np.arange(src_lo, src_lo + 4)
        for off in range(src_lo, src_lo + 4):
            nbrs[base[:, 0] + off] = base  # the target, 4 copies
        pairs = [(pair_lo, pair_lo + 1), (pair_lo + 2, pair_lo + 3)]
        for x, y in pairs:
            nbrs[base[:, 0] + x] = base + y
            nbrs[base[:, 0] + y] = base + x
        return Layer(kind="star-test", nbrs=np.asfortranarray(nbrs.astype(np.int32)))

    return MultiplexGraph(layer_a=layer_for(1, 5), layer_b=layer_for(5, 1))


def group_states(n_groups: int, target_state: int, a_count: int,
                 b_count: int) -> tuple[np.ndarray, np.ndarray]:
    states = np.full(9 * n_groups, NAIVE, dtype=np.int8)
    states[0::9] = target_state
    for k in range(a_count):
        states[1 + k::9] = STATE_A
    for k in range(b_count):
        states[5 + k::9] = STATE_B
    return states, np.ones(9 * n_groups, dtype=bool)


def empirical_adoption_freq(graph: MultiplexGraph, kernel, dormancy, target_state: int,
                            a_count: int, b_count: int, trials: int, seed: int) -> float:
    """Fraction of targets changing state in one engine step, over `trials` samples."""
    n_groups = graph.n // 9
    rng = stream(seed, target_state, a_count, b_count)
    tables = step_tables(kernel, dormancy, graph.layer_a.t, graph.layer_b.t)
    fired = 0
    done = 0
    while done < trials:
        batch = min(n_groups, trials - done)
        states, active = group_states(n_groups, target_state, a_count, b_count)
        u, v, w = rng.random((3, graph.n))
        new_states, _ = step_with_draws(
            states, active, table_keys(graph, states, active), tables, u, v, w)
        fired += int(np.sum(new_states[0:9 * batch:9] != states[0:9 * batch:9]))
        done += batch
    return fired / trials


def node_densities(graph: MultiplexGraph, states, active, i: int) -> Densities:
    """Node i's active-carrier fractions over its neighbor slots, one per layer."""
    nbrs_a = graph.layer_a.nbrs[i]
    nbrs_b = graph.layer_b.nbrs[i]
    cnt_a = sum(1 for j in nbrs_a if states[j] in (STATE_A, STATE_AB) and active[j])
    cnt_b = sum(1 for j in nbrs_b if states[j] in (STATE_B, STATE_AB) and active[j])
    return Densities(cnt_a / len(nbrs_a), cnt_b / len(nbrs_b))


def step_inputs(graph: MultiplexGraph, states, active, kernel,
                dormancy) -> tuple[np.ndarray, StepTables]:
    """The `(key, tables)` pair that `engine.step` reads for this population."""
    return (table_keys(graph, states, active),
            step_tables(kernel, dormancy, graph.layer_a.t, graph.layer_b.t))


def reference_step(graph: MultiplexGraph, states, active, kernel, dormancy,
                   adoption_u, choice_u, dorm_u, order=None):
    """Per-node loop built on the scalar kernel functions; the engine oracle."""
    n = graph.n
    new_states = states.copy()
    new_active = active.copy()
    nodes = list(range(n)) if order is None else list(order)
    for i in nodes:
        st = int(states[i])
        dens = node_densities(graph, states, active, i)
        p = adoption_probability(st, dens, kernel)
        if fires(p, float(adoption_u[i])):
            if st == NAIVE:
                new_states[i] = choose_contagion(dens, kernel, float(choice_u[i]))
            else:
                new_states[i] = STATE_AB
    for i in nodes:
        st = int(new_states[i])
        if st != NAIVE and new_active[i]:
            if float(dorm_u[i]) < dormancy_rate(st, dormancy):
                new_active[i] = False
    return new_states, new_active


def full_horizon_run(config, iteration: int) -> np.ndarray:
    """`engine.run`'s counts without the absorption stop: the same stream address
    and draw order, then `step` for every one of `config.steps` steps."""
    rng = iteration_stream(config, iteration)
    graph = iteration_graph(config, rng)
    states, active = seed_population(graph.n, rng, config.seeds_per_contagion)
    quenched = rng.random(graph.n) if config.kernel.threshold_mode == QUENCHED else None
    tables = step_tables(config.kernel, config.dormancy, graph.layer_a.t, graph.layer_b.t)
    counts = np.empty((config.steps, 4), dtype=np.int64)
    for t in range(config.steps):
        states, active = step(states, active, table_keys(graph, states, active), tables,
                              [rng], quenched)
        counts[t] = np.bincount(states, minlength=4)
    return counts


def reference_run(config, iteration: int = 0,
                  graph: MultiplexGraph | None = None) -> tuple[np.ndarray, int]:
    """One realization stepped alone: `run_ensemble`'s row for `iteration` as
    `(counts, absorbed_at)`, from the per-iteration loop it replaced (absorption
    tested after every step that left the count row unchanged)."""
    rng = iteration_stream(config, iteration)
    if graph is None:
        graph = iteration_graph(config, rng)
    states, active = seed_population(graph.n, rng, config.seeds_per_contagion)
    quenched = rng.random(graph.n) if config.kernel.threshold_mode == QUENCHED else None
    tables = step_tables(config.kernel, config.dormancy, graph.layer_a.t, graph.layer_b.t)

    counts = np.empty((config.steps, 4), dtype=np.int64)
    prev = np.bincount(states, minlength=4)
    done = 0
    while done < config.steps:
        states, active = step(states, active, table_keys(graph, states, active), tables,
                              [rng], quenched)
        row = counts[done]
        row[:] = np.bincount(states, minlength=4)
        done += 1
        if np.array_equal(row, prev):
            if not tables.fires.take(table_keys(graph, states, active)).any():
                break
        prev = row
    counts[done:] = counts[done - 1]
    return counts, done


def reference_ensemble(config, iterations: range) -> tuple[np.ndarray, np.ndarray]:
    """`run_ensemble` as one `reference_run` per iteration, sharing a frozen graph."""
    graph = iteration_graph(config, None) if config.freeze_rrg else None
    counts = np.empty((len(iterations), config.steps, 4), dtype=np.int64)
    absorbed_at = np.empty(len(iterations), dtype=np.int64)
    for row, i in enumerate(iterations):
        counts[row], absorbed_at[row] = reference_run(config, i, graph=graph)
    return counts, absorbed_at


def reference_build_rrg(n: int, degree: int, rng: np.random.Generator) -> Layer:
    """`topology.build_rrg` with the duplicate test through `np.unique` and the
    stable argsort on int64 sources."""
    if degree < 1 or degree >= n:
        raise ConfigurationError(f"need 1 <= degree < n, got degree={degree}, n={n}")
    if (n * degree) % 2 != 0:
        raise ConfigurationError(f"n*degree must be even, got n={n}, degree={degree}")
    stubs = np.repeat(np.arange(n, dtype=np.int64), degree)
    for _ in range(RRG_RESTART_BUDGET):
        perm = rng.permutation(stubs)
        u, v = perm[0::2], perm[1::2]
        if np.any(u == v):
            continue
        key = np.minimum(u, v) * n + np.maximum(u, v)
        if np.unique(key).size != key.size:
            continue
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        order = np.argsort(src, kind="stable")
        nbrs = np.asfortranarray(dst[order].reshape(n, degree).astype(np.int32))
        return Layer(kind=f"rrg(degree={degree})", nbrs=nbrs)
    raise GraphGenerationError(
        f"stub pairing failed {RRG_RESTART_BUDGET} times (n={n}, degree={degree})"
    )


def run_outputs_by_workers(tmp_path, raw: dict) -> list[list[tuple[dict, dict]]]:
    """For each of WORKER_COUNT_MODES merged into `raw`: (every CSV's bytes by
    relative path, the manifest's `absorbed_at`) of `run_single` at workers 1,
    2 and 3."""
    by_mode = []
    for k, mode in enumerate(WORKER_COUNT_MODES):
        merged = {**raw, **{key: {**raw.get(key, {}), **value} for key, value in mode.items()}}
        outputs = []
        for w in (1, 2, 3):
            out = tmp_path / f"mode{k}-w{w}"
            manifest = run_single(spec_from_dict(merged), str(out), workers=w)
            assert manifest["failures"] == []
            csvs = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*.csv"))}
            outputs.append((csvs, manifest["parameter_sets"][0]["absorbed_at"]))
        by_mode.append(outputs)
    return by_mode


def _reference_rates(state: np.ndarray, params) -> np.ndarray:
    """`mf_rates` on numpy scalars. A negative density raises ValueError at
    every alpha, as `kernel.hill_term` does."""
    x_a, x_b, x_ab, x_naive, _ = state
    kern, dorm = params.kernel, params.dormancy

    def hill(x, k):
        if x < 0.0:
            raise ValueError(f"negative density {x!r}")
        return 0.0 if x == 0.0 else (x / k) ** kern.alpha

    ta = hill(x_a + x_ab, kern.k_a)
    tb = hill(x_b + x_ab, kern.k_b)
    tot = ta + tb
    p_naive = tot / (1.0 + tot)
    if tot > 0.0:
        f_a = x_naive * p_naive * (ta / tot)
        f_b = x_naive * p_naive * (tb / tot)
    else:
        f_a = f_b = 0.0
    if kern.mode == EXCLUSIVE:
        g_a = g_b = 0.0
    else:
        g_a = x_a * (tb / (1.0 + tb))
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


def reference_integrate(initial, params) -> Trajectory:
    """`meanfield.integrate` as whole-array RK4 steps on 5-element arrays."""
    n_steps = max(1, round(params.horizon / params.h))
    h = params.h
    y = initial.as_array().astype(float)
    out = np.empty((n_steps + 1, 5))
    out[0] = y
    for k in range(1, n_steps + 1):
        try:
            k1 = _reference_rates(y, params)
            k2 = _reference_rates(y + 0.5 * h * k1, params)
            k3 = _reference_rates(y + 0.5 * h * k2, params)
            k4 = _reference_rates(y + h * k3, params)
        except ValueError:  # a negative density
            inside = False
        else:
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            inside = np.all((y >= -BOUNDS_TOL) & (y <= 1.0 + BOUNDS_TOL))
        if not inside:
            raise IntegrationError(
                f"state left [0,1] at t={k * h:.6g} (h={h}); reduce the step size"
            )
        out[k] = y
    times = np.arange(n_steps + 1) * h
    return Trajectory(times=times, states=out)
