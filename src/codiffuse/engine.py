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
A step therefore reads everything from tables built once per batch
(`step_tables`), at one flat key per node (`table_keys`), with the same float
operations a per-node kernel evaluation would do, so every comparison sees the
same bits.

Each random stream is a Philox generator seeded from
SeedSequence((master_seed, param_index, stream, iteration)): the address is the
seed, not Philox's counter. So any iteration of any parameter set can be
reproduced bit-exactly from any process or worker count.

A realization stops at absorption: once no node can fire, no state can change
again (adoption never turns activity on and dormancy only turns it off, so
carrier counts can only fall), and the remaining count rows repeat the last
one. The stop test looks up `StepTables.fires` at the keys the next step reads
(`table_keys`, taken once per step, except after the horizon's last step,
where nothing reads them), so it gathers nothing itself; `fires` reads carrier
presence, not probabilities, so it is exact for every alpha >= 0. The skipped
draws belong to that iteration's own stream and feed nothing else, so the
series is the same as stepping the full horizon.

`run_ensemble` steps a batch of R iterations as one population of R·n nodes on
the disjoint union of their graphs: block r holds iteration r's nodes, and its
neighbor ids are its own graph's ids offset by r·n, so no neighbor slot crosses
a block and one pass of the step code does R independent steps. Each
iteration's stream samples its graph, seeds and quenched draws as a lone run
would, and every step it fills its own n-slice of the adoption, choice and
dormancy rows, so each block sees exactly the draws it would see alone.
Counting is one bincount over the union and absorption is tested per block.
An absorbed block leaves the batch: the batch keeps its iterations' graphs
(every one shares the cached lattice, so only the RRGs cost memory), drops the
absorbed ones and rebuilds the union from the rest. Batches hold at most
`BATCH_NODES` nodes (or one iteration), which bounds memory and changes no
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

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
from .topology import Layer, MultiplexGraph, build_lattice, build_rrg

DEFAULT_SEED = 1234

# Third component of a stream address.
ITERATION_STREAM = 0
GRAPH_STREAM = 1

# Most nodes one batch of `run_ensemble` steps together (a batch always holds at
# least one iteration). It bounds a worker's batch arrays to a few MB and
# changes no output.
BATCH_NODES = 1 << 16


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
    """Everything a step reads from the kernel, indexed by a node's flat key.

    A node's key (`table_keys`) is `state * share.size + cell`, with
    `cell = ca * (t_b + 1) + cb` from its integer active-carrier counts.
    `threshold[key]` is 1 - p (1.0 wherever the node cannot adopt),
    `fires[key]` is True where the node lacks a contagion and has an active
    carrier of it on that contagion's layer, `share[cell]` is the A share of a
    naive adoption and `rates[state]` the dormancy rate (0 for naive nodes).
    `quenched` is True when adoption reads fixed per-node draws.
    """

    threshold: np.ndarray  # (4 * (t_a + 1) * (t_b + 1),) float64
    fires: np.ndarray  # (4 * (t_a + 1) * (t_b + 1),) bool
    share: np.ndarray  # ((t_a + 1) * (t_b + 1),) float64
    rates: np.ndarray  # (4,) float64
    quenched: bool


def step_tables(kernel: KernelParams, dormancy: DormancyParams, t_a: int,
                t_b: int) -> StepTables:
    """Tables for layer widths t_a and t_b; a batch builds them once.

    The densities are count / t, and every entry is computed with the float
    operations of a per-node evaluation (`hill_term_vec`, the indicator-switched
    sum, p = tot / (1 + tot), 1 - p and the guarded share division), so a lookup
    returns exactly the value the node would have computed. `fires` is built
    from the same indicators but reads carrier presence, not probabilities, so
    it is never False where p > 0, for every alpha >= 0, underflow included.
    """
    ca, cb = np.arange(t_a + 1), np.arange(t_b + 1)
    # KernelParams keeps every term finite; a density / k that overflows passes
    # only at alpha == 0, whose power is exactly 1.
    with np.errstate(over="ignore"):
        term_a = hill_term_vec(ca / t_a, kernel.k_a, kernel.alpha)
        term_b = hill_term_vec(cb / t_b, kernel.k_b, kernel.alpha)
    threshold = np.empty((4, t_a + 1, t_b + 1))
    fires = np.empty((4, t_a + 1, t_b + 1), dtype=bool)
    for state in (NAIVE, STATE_A, STATE_B, STATE_AB):
        # A carried contagion switches its term off; exclusive adopters are immune.
        immune = kernel.mode == EXCLUSIVE and state != NAIVE
        lacks_a = not (immune or state & STATE_A)
        lacks_b = not (immune or state & STATE_B)
        ta = term_a if lacks_a else np.zeros_like(term_a)
        tb = term_b if lacks_b else np.zeros_like(term_b)
        tot = ta[:, None] + tb[None, :]
        threshold[state] = 1.0 - tot / (1.0 + tot)
        fires[state] = (lacks_a & (ca > 0))[:, None] | (lacks_b & (cb > 0))[None, :]
    denom = term_a[:, None] + term_b[None, :]  # raw terms: the split ignores indicators
    share = np.divide(np.broadcast_to(term_a[:, None], denom.shape), denom,
                      out=np.zeros_like(denom), where=denom > 0.0)
    rates = np.array([0.0, dormancy.tau_a, dormancy.tau_b, dormancy.tau_ab])
    threshold, fires, share = threshold.ravel(), fires.ravel(), share.ravel()
    return StepTables(threshold=threshold, fires=fires, share=share, rates=rates,
                      quenched=kernel.threshold_mode == QUENCHED)


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
    a 2-D gather and allocation-light). The sum has `src`'s dtype."""
    acc = np.take(src, nbrs[:, 0])
    for j in range(1, nbrs.shape[1]):
        acc += np.take(src, nbrs[:, j])
    return acc


def table_keys(graph: MultiplexGraph, states: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Per node, its flat `StepTables` key `state * cells + ca * (t_b + 1) + cb`,
    where `cells = (t_a + 1) * (t_b + 1)` and `(ca, cb)` are the active A
    carriers in its layer-A slots and the active B carriers in its layer-B
    slots. The keys have the narrowest unsigned type that holds every key, so
    no count 0..t wraps."""
    la, lb = graph.layer_a, graph.layer_b
    cells = (la.t + 1) * (lb.t + 1)
    dtype = np.min_scalar_type(4 * cells - 1)
    ca, cb = (_neighbor_count((((states & bit) != 0) & active).astype(dtype), layer.nbrs)
              for bit, layer in ((STATE_A, la), (STATE_B, lb)))
    key = states.astype(dtype)
    key *= cells
    ca *= lb.t + 1
    key += ca
    key += cb
    return key


def step_with_draws(states: np.ndarray, active: np.ndarray, key: np.ndarray,
                    tables: StepTables, adoption_u: np.ndarray, choice_u: np.ndarray,
                    dorm_u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous step at the nodes' `table_keys` with explicit per-node uniforms."""
    # P(fired) == p for U[0,1) draws; p == 0 (threshold 1.0) never fires.
    fired = np.flatnonzero(adoption_u >= tables.threshold.take(key))

    new_states = states.copy()
    if fired.size:
        pick_a = choice_u[fired] < tables.share.take(key[fired] % tables.share.size)
        new_states[fired] = np.where(states[fired] != NAIVE, STATE_AB,
                                     np.where(pick_a, STATE_A, STATE_B))

    # Adoption leaves the activity flag untouched (one-directional dormancy);
    # naive nodes have rate 0, which no U[0,1) draw undercuts.
    new_active = active & (dorm_u >= tables.rates.take(new_states))
    return new_states, new_active


def step(states: np.ndarray, active: np.ndarray, key: np.ndarray, tables: StepTables,
         rngs: list[np.random.Generator],
         quenched_draws: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous step at the nodes' `table_keys`, reading `tables`
    (`step_tables`). `rngs` holds one generator per block of
    `states.size // len(rngs)` consecutive nodes; each fills its block's slice
    of every draw row, row by row. Annealed mode draws adoption, choice and
    dormancy uniforms; quenched mode reuses the fixed per-node adoption draws
    and draws only the choice and dormancy rows."""
    if tables.quenched and quenched_draws is None:
        raise ValueError("quenched threshold mode needs the per-node draws")
    draws = np.empty((2 if tables.quenched else 3, states.size))
    size = states.size // len(rngs)
    for r, rng in enumerate(rngs):
        for row in draws:
            rng.random(out=row[r * size:(r + 1) * size])
    if tables.quenched:
        adoption_u, (choice_u, dorm_u) = quenched_draws, draws
    else:
        adoption_u, choice_u, dorm_u = draws
    return step_with_draws(states, active, key, tables, adoption_u, choice_u, dorm_u)


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


def run(config: RunConfig, iteration: int = 0) -> tuple[np.ndarray, int]:
    """One realization: row 0 of `run_ensemble(config, range(iteration, iteration + 1))`,
    as `(counts, absorbed_at)`, a (steps, 4) int64 array and an int."""
    counts, absorbed_at = run_ensemble(config, range(iteration, iteration + 1))
    return counts[0], int(absorbed_at[0])


def run_ensemble(config: RunConfig, iterations: int | range) -> tuple[np.ndarray, np.ndarray]:
    """Independent realizations of one parameter set, in index order: 0..iterations-1
    for a count, the given iteration indices for a range.

    Returns `(counts, absorbed_at)`, a (iterations, steps, 4) and an
    (iterations,) int64 array. `counts[r]` holds iteration r's per-step node
    counts by state (columns naive, a, b, ab); states are exclusive, so each
    row sums to n, and counting ignores activity. `absorbed_at[r]` is the
    number of steps iteration r actually simulated: its rows from there on
    repeat the absorbed row, and it equals the horizon when the run never
    absorbed.

    The iterations are stepped in batches of at most `BATCH_NODES` nodes (at
    least one iteration each). Every iteration has its own stream and its own
    block of a batch, so any split of the indices yields the same rows. A
    frozen graph is built once for the whole call.
    """
    indices = iterations if isinstance(iterations, range) else range(iterations)
    if len(indices) < 1:
        raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
    frozen = iteration_graph(config, None) if config.freeze_rrg else None
    counts = np.empty((len(indices), config.steps, 4), dtype=np.int64)
    absorbed_at = np.empty(len(indices), dtype=np.int64)
    size = max(1, BATCH_NODES // config.n)
    for lo in range(0, len(indices), size):
        batch = slice(lo, lo + size)
        _run_batch(config, indices[batch], frozen, counts[batch], absorbed_at[batch])
    return counts, absorbed_at


def _run_batch(config: RunConfig, indices: range, frozen: MultiplexGraph | None,
               counts: np.ndarray, absorbed_at: np.ndarray) -> None:
    """Step the iterations `indices` as one population until each absorbs or the
    horizon ends, filling their rows of `counts` and `absorbed_at` in place.

    The tables are built once. The keys are taken when the batch starts
    and after every step but the horizon's last, whose keys no step and no
    stop test would read. Absorption is tested only for blocks whose step left
    their count row unchanged: an absorbed block produces such a step, so busy
    steps pay nothing for the test. Absorbed blocks leave the population at
    once: the batch's graph, stream and row lists are filtered by one mask and
    the union is rebuilt from the graphs left, so a last block steps on its own
    graph.
    """
    n, kernel = config.n, config.kernel
    rngs, graphs, seeded, quenched = [], [], [], []
    for i in indices:
        rng = iteration_stream(config, i)
        graphs.append(iteration_graph(config, rng) if frozen is None else frozen)
        seeded.append(seed_population(n, rng, config.seeds_per_contagion))
        if kernel.threshold_mode == QUENCHED:
            quenched.append(rng.random(n))
        rngs.append(rng)
    graph = _disjoint_union(graphs)
    tables = step_tables(kernel, config.dormancy, graph.layer_a.t, graph.layer_b.t)
    states = np.concatenate([s for s, _ in seeded])
    active = np.concatenate([a for _, a in seeded])
    quenched = np.concatenate(quenched) if quenched else None

    bins = np.repeat(4 * np.arange(len(rngs)), n)  # block r counts into bins 4r..4r+3
    rows = np.arange(len(rngs))  # the counts row of each block still stepping
    prev = np.bincount(bins + states, minlength=4 * rows.size).reshape(-1, 4)
    key = table_keys(graph, states, active)
    done = 0
    while True:
        states, active = step(states, active, key, tables, rngs, quenched)
        row = np.bincount(bins[:states.size] + states, minlength=4 * rows.size).reshape(-1, 4)
        counts[rows, done] = row
        done += 1
        if done == config.steps:
            break
        key = table_keys(graph, states, active)
        absorbed = (row == prev).all(axis=1)
        if absorbed.any():
            absorbed &= ~tables.fires.take(key).reshape(rows.size, -1).any(axis=1)
        prev = row
        if not absorbed.any():
            continue
        counts[rows[absorbed], done:] = row[absorbed, None]
        absorbed_at[rows[absorbed]] = done
        keep = ~absorbed
        if not keep.any():
            return
        nodes = np.repeat(keep, n)
        states, active, key = states[nodes], active[nodes], key[nodes]
        if quenched is not None:
            quenched = quenched[nodes]
        rngs, graphs = list(compress(rngs, keep)), list(compress(graphs, keep))
        rows, prev = rows[keep], prev[keep]
        graph = _disjoint_union(graphs)
    absorbed_at[rows] = done


def _disjoint_union(graphs: list[MultiplexGraph]) -> MultiplexGraph:
    """The graphs side by side, graph r on nodes r·n .. (r+1)·n - 1 with its
    neighbor ids offset by r·n; a lone graph is itself."""
    if len(graphs) == 1:
        return graphs[0]

    def union(layers: list[Layer]) -> Layer:
        nbrs = np.stack([layer.nbrs.T for layer in layers], axis=1)  # (t, R, n)
        t, blocks, n = nbrs.shape
        nbrs += (np.arange(blocks, dtype=nbrs.dtype) * n)[:, None]
        return Layer(kind=f"union of {layers[0].kind}", nbrs=nbrs.reshape(t, blocks * n).T)

    layer_a = union([g.layer_a for g in graphs])
    single = graphs[0].layer_b is graphs[0].layer_a
    return MultiplexGraph(layer_a=layer_a,
                          layer_b=layer_a if single else union([g.layer_b for g in graphs]))
