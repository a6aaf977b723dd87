import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codiffuse.engine as engine
from codiffuse.engine import (
    RunConfig,
    iteration_graph,
    iteration_stream,
    run,
    run_ensemble,
    seed_population,
    step,
    step_with_draws,
    stream,
)
from codiffuse.errors import ConfigurationError
from codiffuse.kernel import (
    EXCLUSIVE,
    NAIVE,
    QUENCHED,
    STATE_A,
    STATE_AB,
    STATE_B,
    DormancyParams,
    KernelParams,
)
from codiffuse.topology import MultiplexGraph, build_lattice, build_rrg

from _harness import (
    empirical_adoption_freq,
    group_states,
    reference_ensemble,
    reference_step,
    run_outputs_by_workers,
    star_groups,
    step_inputs,
)


def small_config(**kw):
    defaults = dict(kernel=KernelParams(alpha=0.8), dormancy=DormancyParams(0.05, 0.1),
                    side=8, steps=30, master_seed=99)
    defaults.update(kw)
    return RunConfig(**defaults)


def random_multiplex(rng, side=4, degree=4):
    lat = build_lattice(side)
    return MultiplexGraph(lat, build_rrg(lat.n, degree, rng))


class TestSeeding:
    def test_reference_counts(self):
        states, active = seed_population(6400, stream(1, 0))
        assert int(np.sum(states == NAIVE)) == 6398
        assert int(np.sum(states == STATE_A)) == 1
        assert int(np.sum(states == STATE_B)) == 1
        assert active.all()

    def test_seeds_distinct_over_many_trials(self):
        for k in range(10_000):
            states, _ = seed_population(10, stream(2, k))
            assert int(np.sum(states != NAIVE)) == 2

    def test_deterministic_given_stream(self):
        a, _ = seed_population(500, stream(3, 7))
        b, _ = seed_population(500, stream(3, 7))
        np.testing.assert_array_equal(a, b)

    def test_too_small_population_rejected(self):
        with pytest.raises(ConfigurationError):
            seed_population(1, stream(1, 1))
        with pytest.raises(ConfigurationError):
            seed_population(5, stream(1, 1), seeds_per_contagion=3)


class TestStepAgainstReference:
    """The vectorized step must reproduce a per-node loop over the scalar kernel."""

    def test_random_cases_exact(self):
        master = stream(42, 0)
        for case in range(40):
            rng = stream(42, 1, case)
            graph = random_multiplex(rng, side=4, degree=int(rng.choice([2, 4])))
            n = graph.n
            states = rng.integers(0, 4, n).astype(np.int8)
            active = rng.random(n) < 0.7
            active[states == NAIVE] = True  # naive nodes are never dormant
            kernel = KernelParams(alpha=float(rng.choice([0.0, 0.3, 1.0, 1.7])),
                                  k_a=float(rng.uniform(0.5, 3.0)),
                                  k_b=float(rng.uniform(0.5, 3.0)),
                                  mode=str(rng.choice(["inclusive", "exclusive"])))
            dormancy = DormancyParams(tau_a=float(rng.choice([0.0, 0.3, 1.0])),
                                      tau_b=float(rng.uniform(0.0, 1.0)))
            u, v, w = master.random((3, n))
            got_s, got_a = step_with_draws(
                states, active, *step_inputs(graph, states, active, kernel, dormancy), u, v, w)
            exp_s, exp_a = reference_step(graph, states, active, kernel, dormancy, u, v, w)
            np.testing.assert_array_equal(got_s, exp_s)
            np.testing.assert_array_equal(got_a, exp_a)

    def test_node_order_is_irrelevant(self):
        rng = stream(43, 0)
        graph = random_multiplex(rng)
        n = graph.n
        states = rng.integers(0, 4, n).astype(np.int8)
        active = np.ones(n, dtype=bool)
        kernel = KernelParams(alpha=0.9)
        dormancy = DormancyParams(0.2, 0.4)
        u, v, w = rng.random((3, n))
        base_s, base_a = reference_step(graph, states, active, kernel, dormancy, u, v, w)
        for _ in range(5):
            order = rng.permutation(n)
            perm_s, perm_a = reference_step(graph, states, active, kernel, dormancy,
                                            u, v, w, order=order)
            np.testing.assert_array_equal(base_s, perm_s)
            np.testing.assert_array_equal(base_a, perm_a)


class TestStepSemantics:
    def test_all_naive_is_a_fixed_point(self):
        graph = star_groups(50)
        states = np.full(graph.n, NAIVE, dtype=np.int8)
        active = np.ones(graph.n, dtype=bool)
        rng = stream(44, 0)
        kernel, dormancy = KernelParams(alpha=0.0), DormancyParams(0.5, 0.5)
        for _ in range(10):
            states, active = step(
                states, active, *step_inputs(graph, states, active, kernel, dormancy), [rng])
        assert (states == NAIVE).all() and active.all()

    def test_zero_rates_freeze_activity(self):
        rng = stream(44, 1)
        graph = random_multiplex(rng)
        cfg_kernel = KernelParams(alpha=0.5)
        states, active = seed_population(graph.n, rng)
        dormancy = DormancyParams(0.0, 0.0)
        for _ in range(20):
            states, active = step(
                states, active, *step_inputs(graph, states, active, cfg_kernel, dormancy), [rng])
        assert active.all()

    def test_certain_dormancy_switches_off_b_each_step(self):
        rng = stream(44, 2)
        graph = random_multiplex(rng, side=6)
        states, active = seed_population(graph.n, rng)
        kernel, dormancy = KernelParams(alpha=0.3), DormancyParams(0.0, 1.0)
        for _ in range(15):
            states, active = step(
                states, active, *step_inputs(graph, states, active, kernel, dormancy), [rng])
            assert not np.any((states == STATE_B) & active)

    def test_single_active_a_neighbor_rate(self):
        # One of four lattice sources active with A at alpha=1, K=2: p = 1/9.
        graph = star_groups(10_000)
        kernel = KernelParams(alpha=1.0)
        freq = empirical_adoption_freq(graph, kernel, DormancyParams(0.0, 0.0),
                                       NAIVE, 1, 0, trials=20_000, seed=7)
        p = 1.0 / 9.0
        assert abs(freq - p) <= 3.0 * math.sqrt(p * (1 - p) / 20_000)

    def test_dormant_single_adopter_still_adopts_but_stays_dormant(self):
        # A dormant A target with every B source active can still reach state
        # AB, but dormancy is one-directional: it never switches back on.
        graph = star_groups(4000)
        states, active = group_states(4000, STATE_A, 0, 4)
        active[0::9] = False
        kernel = KernelParams(alpha=0.5)
        u, v, w = stream(45, 0).random((3, graph.n))
        new_states, new_active = step_with_draws(
            states, active, *step_inputs(graph, states, active, kernel, DormancyParams(0.0, 0.0)),
            u, v, w)
        adopted = new_states[0::9] == STATE_AB
        assert adopted.any()
        assert not new_active[0::9].any()

    def test_quenched_draws_fire_iff_probability_crosses_threshold(self):
        graph = star_groups(1000)
        states, active = group_states(1000, NAIVE, 2, 0)
        kernel = KernelParams(alpha=1.0, threshold_mode=QUENCHED)
        rng = stream(45, 1)
        quenched = rng.random(graph.n)
        new_states, _ = step(
            states, active, *step_inputs(graph, states, active, kernel, DormancyParams(0.0, 0.0)),
            [rng], quenched_draws=quenched)
        p = (0.5 / 2.0) / (1.0 + 0.5 / 2.0)  # two active of four at K=2
        targets = slice(0, None, 9)
        np.testing.assert_array_equal(new_states[targets] != NAIVE,
                                      quenched[targets] >= 1.0 - p)

    def test_quenched_mode_requires_draws(self):
        graph = star_groups(2)
        states, active = group_states(2, NAIVE, 1, 0)
        key, tables = step_inputs(graph, states, active,
                                  KernelParams(alpha=1.0, threshold_mode=QUENCHED),
                                  DormancyParams(0.0, 0.0))
        with pytest.raises(ValueError):
            step(states, active, key, tables, [stream(45, 2)])


class TestRun:
    def test_bit_identical_repeat(self):
        cfg = small_config()
        a_counts, a_absorbed_at = run(cfg, 0)
        b_counts, b_absorbed_at = run(cfg, 0)
        np.testing.assert_array_equal(a_counts, b_counts)
        assert a_absorbed_at == b_absorbed_at

    def test_conservation_and_monotone_ab(self):
        cfg = small_config(steps=60)
        counts, _ = run(cfg, 3)
        assert (counts.sum(axis=1) == cfg.n).all()
        assert (np.diff(counts[:, 3]) >= 0).all()

    def test_full_codiffusion_at_zero_alpha_zero_tau(self):
        cfg = RunConfig(kernel=KernelParams(alpha=0.0), dormancy=DormancyParams(0.0, 0.0),
                        side=80, steps=700, master_seed=5)
        counts, _ = run(cfg, 0)
        assert counts[-1, 0] == 0
        assert counts[-1, 3] == 6400

    def test_exclusive_mode_never_reaches_ab(self):
        cfg = small_config(kernel=KernelParams(alpha=0.3, mode=EXCLUSIVE), steps=50)
        counts, _ = run(cfg, 0)
        assert (counts[:, 3] == 0).all()
        assert counts[-1, 0] < cfg.n - 2  # it does spread, just without overlap

    def test_single_layer_mode_shares_lattice(self):
        cfg = small_config(graph_mode="single")
        g = iteration_graph(cfg, stream(1, 2, 3))
        assert g.layer_b is g.layer_a

    def test_frozen_rrg_is_stable_across_iterations(self):
        cfg = small_config(freeze_rrg=True)
        g1 = iteration_graph(cfg, iteration_stream(cfg, 0))
        g2 = iteration_graph(cfg, iteration_stream(cfg, 1))
        np.testing.assert_array_equal(g1.layer_b.nbrs, g2.layer_b.nbrs)


class TestEnsemble:
    def test_single_iteration_mean_equals_run(self):
        cfg = small_config()
        counts, _ = run_ensemble(cfg, 1)
        np.testing.assert_array_equal(counts.mean(axis=0), run(cfg, 0)[0].astype(float))

    def test_iteration_streams_match_standalone_runs(self):
        cfg = small_config()
        counts, _ = run_ensemble(cfg, 3)
        for i in range(3):
            np.testing.assert_array_equal(counts[i], run(cfg, i)[0])

    def test_iteration_range_runs_those_iterations(self):
        cfg = small_config(freeze_rrg=True)
        counts, absorbed_at = run_ensemble(cfg, range(1, 6, 2))
        assert counts.dtype == absorbed_at.dtype == np.int64
        for row, i in enumerate((1, 3, 5)):
            run_counts, run_absorbed_at = run(cfg, i)
            np.testing.assert_array_equal(counts[row], run_counts)
            assert absorbed_at[row] == run_absorbed_at

    def test_worker_count_does_not_change_results(self, tmp_path):
        raw = {"alpha": [0.8], "tau_a": [0.05], "tau_b": [0.1], "iterations": 4,
               "steps": 15, "graph": {"side": 8}, "seed": 99}
        for serial, *split in run_outputs_by_workers(tmp_path, raw):
            assert len(serial[0]) == 4 + 1 + 1 + 1  # iterations, mean, ceilings, heatmap
            for outputs in split:
                assert outputs == serial

    def test_mean_of_identical_runs_is_the_run(self):
        # Frozen graph + quenched thresholds still differ by seeds; instead use
        # tau=0, alpha=0 on a tiny graph where every run absorbs to all-AB.
        cfg = RunConfig(kernel=KernelParams(alpha=0.0), dormancy=DormancyParams(0.0, 0.0),
                        side=4, steps=80, master_seed=8)
        counts, _ = run_ensemble(cfg, 5)
        np.testing.assert_array_equal(counts.mean(axis=0)[-1], [0.0, 0.0, 0.0, 16.0])

    def test_rejects_zero_iterations(self):
        with pytest.raises(ConfigurationError):
            run_ensemble(small_config(), 0)
        with pytest.raises(ConfigurationError):
            run_ensemble(small_config(), range(3, 3))

    def test_iterations_share_one_cached_lattice(self):
        cfg = small_config(side=13, steps=120)  # a side no other test steps on
        misses = build_lattice.cache_info().misses
        _, absorbed_at = run_ensemble(cfg, 8)
        assert build_lattice.cache_info().misses - misses <= 1
        assert len(set(absorbed_at.tolist())) >= 3  # blocks left the batch one by one
        fresh = build_lattice.__wrapped__(cfg.side)
        assert build_lattice(cfg.side).nbrs.tobytes() == fresh.nbrs.tobytes()


BATCH_MODES = {
    "default": ({}, {}),
    "exclusive": ({"mode": EXCLUSIVE}, {}),
    "quenched": ({"threshold_mode": QUENCHED}, {}),
    "single": ({}, {"graph_mode": "single"}),
    "freeze_rrg": ({}, {"freeze_rrg": True}),
    "combined": ({"mode": EXCLUSIVE, "threshold_mode": QUENCHED}, {"freeze_rrg": True}),
}
# name -> (alpha, tau_a, tau_b, side, steps): iterations that absorb at
# different steps, so blocks leave a batch one by one, and ones that never do.
BATCH_POINTS = {
    "absorbs": (0.8, 0.03, 0.05, 8, 120),
    "never": (2.0, 0.0, 0.0, 16, 40),
}
BATCH_RANGES = (range(1), range(3), range(8), range(1, 8, 3), range(5, 8), range(2, 3))


def batch_config(point: str, mode: str, master_seed: int = 31) -> RunConfig:
    alpha, tau_a, tau_b, side, steps = BATCH_POINTS[point]
    kernel_kw, graph_kw = BATCH_MODES[mode]
    return RunConfig(kernel=KernelParams(alpha=alpha, **kernel_kw),
                     dormancy=DormancyParams(tau_a, tau_b), side=side, steps=steps,
                     master_seed=master_seed, **graph_kw)


class TestBatching:
    """`run_ensemble` steps a batch of iterations on the disjoint union of their
    graphs; every row must equal the iteration stepped alone."""

    @pytest.mark.parametrize("point", sorted(BATCH_POINTS))
    @pytest.mark.parametrize("mode", sorted(BATCH_MODES))
    def test_rows_equal_iterations_stepped_alone(self, point, mode):
        cfg = batch_config(point, mode)
        for indices in BATCH_RANGES:
            counts, absorbed_at = run_ensemble(cfg, indices)
            exp_counts, exp_absorbed_at = reference_ensemble(cfg, indices)
            assert counts.tobytes() == exp_counts.tobytes()
            assert absorbed_at.tobytes() == exp_absorbed_at.tobytes()
        if point == "never":
            assert (absorbed_at == cfg.steps).all()
        else:  # blocks left the eight-iteration batch at different steps
            _, absorbed_at = run_ensemble(cfg, 8)
            assert len(set(absorbed_at[absorbed_at < cfg.steps].tolist())) >= 3

    @pytest.mark.parametrize("mode", sorted(BATCH_MODES))
    def test_batch_cap_does_not_change_rows(self, mode, monkeypatch):
        cfg = batch_config("absorbs", mode)
        counts, absorbed_at = run_ensemble(cfg, range(1, 8))
        for per_batch in (1, 2, 3):
            monkeypatch.setattr(engine, "BATCH_NODES", per_batch * cfg.n)
            capped_counts, capped_absorbed_at = run_ensemble(cfg, range(1, 8))
            assert capped_counts.tobytes() == counts.tobytes()
            assert capped_absorbed_at.tobytes() == absorbed_at.tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(mode=st.sampled_from(sorted(BATCH_MODES)), seed=st.integers(0, 2**31),
           alpha=st.floats(0.0, 2.0), tau_a=st.floats(0.0, 0.3), tau_b=st.floats(0.0, 0.3),
           side=st.integers(4, 7), steps=st.integers(1, 60), start=st.integers(0, 5),
           stride=st.integers(1, 3), size=st.integers(1, 8), per_batch=st.integers(1, 9))
    def test_any_unit_equals_its_iterations_stepped_alone(self, mode, seed, alpha, tau_a,
                                                          tau_b, side, steps, start, stride,
                                                          size, per_batch):
        kernel_kw, graph_kw = BATCH_MODES[mode]
        cfg = RunConfig(kernel=KernelParams(alpha=alpha, **kernel_kw),
                        dormancy=DormancyParams(tau_a, tau_b), side=side, steps=steps,
                        master_seed=seed, **graph_kw)
        indices = range(start, start + stride * size, stride)
        cap = engine.BATCH_NODES
        engine.BATCH_NODES = per_batch * cfg.n
        try:
            counts, absorbed_at = run_ensemble(cfg, indices)
        finally:
            engine.BATCH_NODES = cap
        exp_counts, exp_absorbed_at = reference_ensemble(cfg, indices)
        assert counts.tobytes() == exp_counts.tobytes()
        assert absorbed_at.tobytes() == exp_absorbed_at.tobytes()


# name -> RunConfig graph fields of every kind of graph an iteration steps on.
LAYER_GRAPHS = {
    "rrg-2": {"degree": 2},
    "rrg-4": {"degree": 4},
    "single": {"graph_mode": "single"},
    "frozen-rrg-2": {"degree": 2, "freeze_rrg": True},
    "frozen-rrg-4": {"degree": 4, "freeze_rrg": True},
}


def assert_symmetric_and_block_confined(nbrs: np.ndarray, n: int) -> None:
    """Every neighbor id of block r (nodes r·n .. (r+1)·n - 1) lies in block r,
    and j appears in i's slots exactly as often as i in j's."""
    nodes = nbrs.shape[0]
    assert (nbrs // n == (np.arange(nodes) // n)[:, None]).all()
    pairs = np.bincount(np.repeat(np.arange(nodes), nbrs.shape[1]) * nodes
                        + nbrs.ravel().astype(np.int64), minlength=nodes * nodes)
    pairs = pairs.reshape(nodes, nodes)
    np.testing.assert_array_equal(pairs, pairs.T)


class TestSteppedLayers:
    """The kept-keys update after a step is exact only when every layer the
    engine steps on is symmetric with multiplicity and never crosses a block."""

    @pytest.mark.parametrize("name,side", [
        (name, side) for name in sorted(LAYER_GRAPHS) for side in range(2, 8)
        if side > 2 or LAYER_GRAPHS[name].get("degree") != 4])  # degree 4 needs > 4 nodes
    def test_every_stepped_layer_is_symmetric_and_block_confined(self, name, side):
        cfg = small_config(side=side, **LAYER_GRAPHS[name])
        frozen = iteration_graph(cfg, None) if cfg.freeze_rrg else None
        for blocks in (1, 2, 4):
            graphs = [iteration_graph(cfg, iteration_stream(cfg, i)) if frozen is None
                      else frozen for i in range(blocks)]
            union = engine._disjoint_union(graphs)
            assert union.n == blocks * cfg.n
            for layer in (union.layer_a, union.layer_b):
                assert_symmetric_and_block_confined(layer.nbrs, cfg.n)
