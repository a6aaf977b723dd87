"""Synchronous two-contagion update loop and ensemble runner.

A population is a pair of arrays: `states` (int8, one of NAIVE/STATE_A/STATE_B/
STATE_AB) and `active` (bool). One step has two phases. Phase 1 (adoption) reads
neighbor counts only from the pre-step buffer: every node draws against its adoption
probability; naive adopters pick A or B by the relative-proportion split, single
adopters add the other contagion (inclusive mode only), and at most one contagion
is adopted per node per step. Dormancy is one-directional: a dormant single
adopter may still pick up the second contagion but stays dormant, never feeding
either density again. Phase 2 (dormancy) switches off every active adopter,
including same-step adopters, with its state's rate.

Both layers are regular, so a node's adoption probability depends only on its
state and its integer counts (ca, cb) of active carriers in its neighbor slots.
A step therefore looks those up in tables built once per parameter set
(`step_tables`), with the same float operations a per-node kernel evaluation
would do, so every comparison sees the same bits.

Randomness is counter-based (Philox) and addressed by
(master_seed, param_index, stream, iteration), so any iteration of any parameter
set can be reproduced bit-exactly from any process or worker count.

A realization stops at absorption: once no node can fire, no state can change
again (adoption never turns activity on and dormancy only turns it off, so
carrier counts can only fall), and the remaining count rows repeat the last
one. The skipped draws belong to that iteration's own stream and feed nothing
else, so the series is the same as stepping the full horizon.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .kernel import (
    EXCLUSIVE,
    NAIVE,
    QUENCHED,
    STATE_A,
    STATE_AB,
    STATE_B,
    DormancyParams,
    KernelParams,
    hill_term_vec,
)
from .topology import MultiplexGraph, build_lattice, build_rrg

DEFAULT_SEED = 1234

# Third component of a stream address.
ITERATION_STREAM = 0
GRAPH_STREAM = 1


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for one addressed random stream; same address, same draws."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((master_seed, *key))))


@dataclass(frozen=True)
class RunConfig:
    """Everything one realization needs: graph spec, kernel, dormancy, horizon, seeding."""

    kernel: KernelParams
    dormancy: DormancyParams
    side: int = 80
    degree: int = 4
    graph_mode: str = "multiplex"  # "multiplex" or "single"
    freeze_rrg: bool = False
    steps: int = 700
    seeds_per_contagion: int = 1
    master_seed: int = DEFAULT_SEED
    param_index: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {self.steps}")
        if self.seeds_per_contagion < 1:
            raise ConfigurationError("seeds_per_contagion must be >= 1")
        if self.graph_mode not in ("multiplex", "single"):
            raise ConfigurationError(f"unknown graph_mode {self.graph_mode!r}")

    @property
    def n(self) -> int:
        return self.side * self.side


@dataclass(frozen=True, eq=False)
class StepTables:
    """Everything a step reads from the kernel, indexed by integer neighbor counts.

    `threshold[state, ca, cb]` is 1 - p (1.0 wherever the node cannot adopt),
    `share[ca, cb]` the A share of a naive adoption and `rates[state]` the
    dormancy rate (0 for naive nodes). Threshold and share are flattened, so a
    node's entries sit at `key = state * share.size + cell` and
    `cell = ca * (t_b + 1) + cb`. `index_dtype` is the narrowest unsigned type
    that holds every key, and with it every count 0..t, without wrapping.
    """

    threshold: np.ndarray  # (4 * (t_a + 1) * (t_b + 1),) float64
    share: np.ndarray  # ((t_a + 1) * (t_b + 1),) float64
    rates: np.ndarray  # (4,) float64
    index_dtype: np.dtype


@functools.lru_cache(maxsize=64)
def step_tables(kernel: KernelParams, dormancy: DormancyParams, t_a: int,
                t_b: int) -> StepTables:
    """Tables for layer widths t_a and t_b, built once per parameter set.

    The densities are count / t, and every entry is computed with the float
    operations of a per-node evaluation (`hill_term_vec`, the indicator-switched
    sum, p = tot / (1 + tot), 1 - p and the guarded share division), so a lookup
    returns exactly the value the node would have computed.
    """
    # KernelParams keeps every term finite; a density / k that overflows passes
    # only at alpha == 0, whose power is exactly 1.
    with np.errstate(over="ignore"):
        term_a = hill_term_vec(np.arange(t_a + 1) / t_a, kernel.k_a, kernel.alpha)
        term_b = hill_term_vec(np.arange(t_b + 1) / t_b, kernel.k_b, kernel.alpha)
    threshold = np.empty((4, t_a + 1, t_b + 1))
    for state in (NAIVE, STATE_A, STATE_B, STATE_AB):
        # A carried contagion switches its term off; exclusive adopters are immune.
        immune = kernel.mode == EXCLUSIVE and state != NAIVE
        ta = np.zeros_like(term_a) if immune or state & STATE_A else term_a
        tb = np.zeros_like(term_b) if immune or state & STATE_B else term_b
        tot = ta[:, None] + tb[None, :]
        threshold[state] = 1.0 - tot / (1.0 + tot)
    denom = term_a[:, None] + term_b[None, :]  # raw terms: the split ignores indicators
    share = np.divide(np.broadcast_to(term_a[:, None], denom.shape), denom,
                      out=np.zeros_like(denom), where=denom > 0.0)
    rates = np.array([0.0, dormancy.tau_a, dormancy.tau_b, dormancy.tau_ab])
    threshold, share = threshold.ravel(), share.ravel()
    for table in (threshold, share, rates):
        table.flags.writeable = False  # shared by every caller through the cache
    return StepTables(threshold=threshold, share=share, rates=rates,
                      index_dtype=np.min_scalar_type(threshold.size - 1))


def seed_population(n: int, rng: np.random.Generator,
                    seeds_per_contagion: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Non-overlapping random seeds: k nodes get A, k distinct nodes get B, all active."""
    k = seeds_per_contagion
    if n < 2 * k:
        raise ConfigurationError(f"need at least {2 * k} nodes to seed, got {n}")
    states = np.full(n, NAIVE, dtype=np.int8)
    active = np.ones(n, dtype=bool)
    picks = rng.choice(n, size=2 * k, replace=False)
    states[picks[:k]] = STATE_A
    states[picks[k:]] = STATE_B
    return states, active


def _neighbor_count(src: np.ndarray, nbrs: np.ndarray) -> np.ndarray:
    """Sum `src` over every node's neighbor list (column at a time: faster than
    a 2-D gather and allocation-light). The sum has `src`'s dtype; a bool sum
    saturates at True ("some slot holds a source")."""
    acc = np.take(src, nbrs[:, 0])
    for j in range(1, nbrs.shape[1]):
        acc += np.take(src, nbrs[:, j])
    return acc


def _carriers(states: np.ndarray, active: np.ndarray, bit: int) -> np.ndarray:
    """Active nodes that carry the contagion with state bit `bit`."""
    return ((states & bit) != 0) & active


def step_with_draws(graph: MultiplexGraph, states: np.ndarray, active: np.ndarray,
                    kernel: KernelParams, dormancy: DormancyParams,
                    adoption_u: np.ndarray, choice_u: np.ndarray,
                    dorm_u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous step with explicit per-node uniforms (deterministic)."""
    la, lb = graph.layer_a, graph.layer_b
    tables = step_tables(kernel, dormancy, la.t, lb.t)
    idt = tables.index_dtype
    ca = _neighbor_count(_carriers(states, active, STATE_A).astype(idt), la.nbrs)
    cb = _neighbor_count(_carriers(states, active, STATE_B).astype(idt), lb.nbrs)

    cell = ca * (lb.t + 1)
    cell += cb
    key = states.astype(idt)
    key *= tables.share.size
    key += cell
    # P(fired) == p for U[0,1) draws; p == 0 (threshold 1.0) never fires.
    fired = np.flatnonzero(adoption_u >= tables.threshold.take(key))

    new_states = states.copy()
    if fired.size:
        pick_a = choice_u[fired] < tables.share.take(cell[fired])
        new_states[fired] = np.where(states[fired] != NAIVE, STATE_AB,
                                     np.where(pick_a, STATE_A, STATE_B))

    # Adoption leaves the activity flag untouched (one-directional dormancy);
    # naive nodes have rate 0, which no U[0,1) draw undercuts.
    new_active = active & (dorm_u >= tables.rates.take(new_states))
    return new_states, new_active


def can_fire(graph: MultiplexGraph, states: np.ndarray, active: np.ndarray,
             kernel: KernelParams) -> bool:
    """True while some node lacks a contagion and has an active carrier of it in
    its neighbor slots on that contagion's layer (in exclusive mode only naive
    nodes lack one).

    Structural: it reads carrier presence, not probabilities, so it is never
    False while any adoption probability is positive, for every alpha >= 0,
    underflow included.
    """
    for bit, layer in ((STATE_A, graph.layer_a), (STATE_B, graph.layer_b)):
        carrier = _carriers(states, active, bit)
        if not carrier.any():
            continue
        lacks = states == NAIVE if kernel.mode == EXCLUSIVE else (states & bit) == 0
        if (lacks & _neighbor_count(carrier, layer.nbrs)).any():
            return True
    return False


def step(graph: MultiplexGraph, states: np.ndarray, active: np.ndarray,
         kernel: KernelParams, dormancy: DormancyParams, rng: np.random.Generator,
         quenched_draws: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous step. Annealed mode draws a fresh adoption uniform per node;
    quenched mode reuses the fixed per-node draws from initialization."""
    n = graph.n
    if kernel.threshold_mode == QUENCHED:
        if quenched_draws is None:
            raise ValueError("quenched threshold mode needs the per-node draws")
        choice_u, dorm_u = rng.random((2, n))
        adoption_u = quenched_draws
    else:
        adoption_u, choice_u, dorm_u = rng.random((3, n))
    return step_with_draws(graph, states, active, kernel, dormancy,
                           adoption_u, choice_u, dorm_u)


def iteration_stream(config: RunConfig, iteration: int) -> np.random.Generator:
    """One iteration's random stream, drawn in a fixed order: the RRG pairing
    (multiplex mode, RRG not frozen), the seed picks, the quenched draws if any,
    then per step the adoption, choice and dormancy uniforms."""
    return stream(config.master_seed, config.param_index, ITERATION_STREAM, iteration)


def iteration_graph(config: RunConfig, rng: np.random.Generator | None) -> MultiplexGraph:
    """Lattice layer plus, in multiplex mode, an RRG layer paired from `rng`, the
    iteration's stream. A frozen set pairs its one RRG from its own graph stream
    instead, so any iteration (or `rng=None`) gets the same graph."""
    lattice = build_lattice(config.side)
    if config.graph_mode == "single":
        return MultiplexGraph(layer_a=lattice, layer_b=lattice)
    if config.freeze_rrg:
        rng = stream(config.master_seed, config.param_index, GRAPH_STREAM, 0)
    return MultiplexGraph(layer_a=lattice, layer_b=build_rrg(lattice.n, config.degree, rng))


def run(config: RunConfig, iteration: int = 0,
        graph: MultiplexGraph | None = None) -> tuple[np.ndarray, int]:
    """One realization: (re)sample graph, seed, step until absorption or
    `config.steps`, count, all from `iteration_stream`.

    Returns `(counts, absorbed_at)`. `counts` is (steps, 4) int64: per-step node
    counts by state (columns naive, a, b, ab); states are exclusive, so each
    row sums to n, and counting ignores activity. `absorbed_at` is the number
    of steps actually simulated: rows from there on repeat the absorbed row,
    and it equals the horizon when the run never absorbed.

    Absorption is tested only after a step that left the count row unchanged:
    an absorbed population produces such a step, so busy steps pay nothing for
    the test.
    """
    rng = iteration_stream(config, iteration)
    if graph is None:
        graph = iteration_graph(config, rng)
    states, active = seed_population(graph.n, rng, config.seeds_per_contagion)
    quenched = rng.random(graph.n) if config.kernel.threshold_mode == QUENCHED else None

    counts = np.empty((config.steps, 4), dtype=np.int64)
    prev = np.bincount(states, minlength=4)
    done = 0
    while done < config.steps:
        states, active = step(graph, states, active, config.kernel, config.dormancy,
                              rng, quenched)
        row = counts[done]
        row[:] = np.bincount(states, minlength=4)
        done += 1
        if np.array_equal(row, prev) and not can_fire(graph, states, active, config.kernel):
            break
        prev = row
    counts[done:] = counts[done - 1]
    return counts, done


def run_ensemble(config: RunConfig, iterations: int | range) -> tuple[np.ndarray, np.ndarray]:
    """Independent realizations of one parameter set, in index order: 0..iterations-1
    for a count, the given iteration indices for a range.

    Returns `(counts, absorbed_at)`: every iteration's `run` result as one row
    of a (iterations, steps, 4) and a (iterations,) int64 array.

    Every iteration has its own stream, so any split of the indices yields the
    same per-iteration rows. A frozen graph is built once for the whole call.
    """
    indices = iterations if isinstance(iterations, range) else range(iterations)
    if len(indices) < 1:
        raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
    graph = iteration_graph(config, None) if config.freeze_rrg else None
    counts = np.empty((len(indices), config.steps, 4), dtype=np.int64)
    absorbed_at = np.empty(len(indices), dtype=np.int64)
    for row, i in enumerate(indices):
        counts[row], absorbed_at[row] = run(config, i, graph=graph)
    return counts, absorbed_at
