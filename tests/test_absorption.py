"""Stop at absorption and the count-table step: exactness against the
full-horizon loop, properties of `table_keys`, `StepTables.fires` and the
vectorized step against the scalar reference on random small graphs, one
gather pair per step shared by the step and the stop test, none after the
horizon's last step, and one table lookup per batch."""

import itertools
import traceback

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import codiffuse.engine as engine
from codiffuse.engine import (
    RunConfig,
    run,
    run_ensemble,
    step,
    step_with_draws,
    stream,
    table_keys,
)
from codiffuse.kernel import (
    ANNEALED,
    EXCLUSIVE,
    INCLUSIVE,
    NAIVE,
    QUENCHED,
    STATE_B,
    DormancyParams,
    KernelParams,
)
from codiffuse.topology import Layer, MultiplexGraph, build_lattice, build_rrg

from _harness import (
    adoption_probability,
    full_horizon_run,
    node_densities,
    reference_ensemble,
    reference_step,
    run_outputs_by_workers,
    step_inputs,
)

KERNEL_MODES = list(itertools.product((INCLUSIVE, EXCLUSIVE), (ANNEALED, QUENCHED)))
MODES = [(mode, thresholds, graph_mode, freeze_rrg)
         for (mode, thresholds), graph_mode, freeze_rrg
         in itertools.product(KERNEL_MODES, ("multiplex", "single"), (False, True))]

# name -> (alpha, tau_a, tau_b, side, steps, absorbs)
POINTS = {
    "seeds_dormant_at_once": (2.0, 1.0, 1.0, 16, 20, True),
    "mid_horizon": (0.8, 0.03, 0.03, 16, 200, True),
    "never": (2.0, 0.0, 0.0, 32, 200, False),
}


def point_config(point, mode, thresholds, graph_mode, freeze_rrg):
    alpha, tau_a, tau_b, side, steps, _ = POINTS[point]
    return RunConfig(kernel=KernelParams(alpha=alpha, mode=mode, threshold_mode=thresholds),
                     dormancy=DormancyParams(tau_a, tau_b), side=side, steps=steps,
                     graph_mode=graph_mode, freeze_rrg=freeze_rrg, master_seed=31)


class TestStopIsExact:
    @pytest.mark.parametrize("point", sorted(POINTS))
    @pytest.mark.parametrize("mode,thresholds,graph_mode,freeze_rrg", MODES)
    def test_counts_match_full_horizon(self, point, mode, thresholds, graph_mode, freeze_rrg):
        cfg = point_config(point, mode, thresholds, graph_mode, freeze_rrg)
        absorbs = POINTS[point][-1]
        for it in range(2):
            counts, absorbed_at = run(cfg, it)
            np.testing.assert_array_equal(counts, full_horizon_run(cfg, it))
            if absorbs:
                assert absorbed_at < cfg.steps
                # Every row from the absorption step on repeats the absorbed row.
                assert (counts[absorbed_at - 1:] == counts[-1]).all()
            else:
                assert absorbed_at == cfg.steps
            if point == "seeds_dormant_at_once":
                assert absorbed_at <= 2

    def test_worker_count_does_not_change_absorption(self, tmp_path):
        alpha, tau_a, tau_b, side, steps, _ = POINTS["mid_horizon"]
        raw = {"alpha": [alpha], "tau_a": [tau_a], "tau_b": [tau_b], "iterations": 4,
               "steps": steps, "graph": {"side": side}, "seed": 31}
        for serial, *split in run_outputs_by_workers(tmp_path, raw):
            assert serial[1]["max"] < steps
            for outputs in split:
                assert outputs == serial


# Alpha stays within [0, 4] and K within [0.5, 3], so no positive density term
# underflows in the scalar oracle and "p > 0" is exactly "an unmasked active
# carrier in the slots".
@st.composite
def populations(draw, mode, thresholds, width=None, alpha=st.floats(0.0, 4.0)):
    """A random graph, states, activity, kernel (alpha drawn from `alpha`) and
    dormancy.

    The graph is a small lattice plus an RRG, a single shared lattice, or (and
    always when `width` is given) two layers of arbitrary neighbor slots,
    `width` of them per node, possibly shared as in single mode.
    """
    kind = "slots" if width is not None else draw(
        st.sampled_from(("lattice+rrg", "single", "slots")))
    if kind == "slots":
        n = draw(st.integers(2, 16))

        def layer():
            t = draw(width if width is not None else st.integers(1, 4))
            return Layer(kind="random", nbrs=draw(hnp.arrays(np.int32, (n, t),
                                                             elements=st.integers(0, n - 1))))

        layer_a = layer()
        graph = MultiplexGraph(layer_a, layer_a if draw(st.booleans()) else layer())
    else:
        lattice = build_lattice(draw(st.integers(3, 4)))
        n = lattice.n
        if kind == "single":
            graph = MultiplexGraph(lattice, lattice)
        else:
            rrg = build_rrg(n, draw(st.sampled_from((2, 4))), stream(draw(st.integers(0, 999))))
            graph = MultiplexGraph(lattice, rrg)
    event(kind)
    states = draw(hnp.arrays(np.int8, n, elements=st.integers(0, 3)))
    active = draw(hnp.arrays(np.bool_, n))
    active[states == NAIVE] = True  # naive nodes are never dormant
    kernel = KernelParams(alpha=draw(alpha),
                          k_a=draw(st.floats(0.5, 3.0)), k_b=draw(st.floats(0.5, 3.0)),
                          mode=mode, threshold_mode=thresholds)
    dormancy = DormancyParams(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)))
    return graph, states, active, kernel, dormancy


def uniforms(n):
    return hnp.arrays(np.float64, (3, n), elements=st.floats(0.0, 1.0, exclude_max=True))


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def assert_step_matches_reference(pop, u, v, w, seed):
    graph, states, active, kernel, dormancy = pop
    got = step_with_draws(
        states, active, *step_inputs(graph, states, active, kernel, dormancy), u, v, w)
    exp = reference_step(graph, states, active, kernel, dormancy, u, v, w)
    np.testing.assert_array_equal(got[0], exp[0])
    np.testing.assert_array_equal(got[1], exp[1])

    # The stream-driven step in this threshold mode: quenched mode reuses the
    # fixed per-node draws and takes only choice and dormancy uniforms per step.
    quenched = u if kernel.threshold_mode == QUENCHED else None
    got = step(
        states, active, *step_inputs(graph, states, active, kernel, dormancy),
        [stream(seed)], quenched)
    if quenched is None:
        u, v, w = stream(seed).random((3, graph.n))
    else:
        v, w = stream(seed).random((2, graph.n))
    exp = reference_step(graph, states, active, kernel, dormancy, u, v, w)
    np.testing.assert_array_equal(got[0], exp[0])
    np.testing.assert_array_equal(got[1], exp[1])


@pytest.mark.parametrize("alpha", [st.floats(0.0, 4.0), st.just(0.0)],
                         ids=["alpha-0-4", "alpha-0"])
@pytest.mark.parametrize("mode,thresholds", KERNEL_MODES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_fires_is_exactly_some_positive_probability(mode, thresholds, alpha, data):
    graph, states, active, kernel, dormancy = data.draw(populations(mode, thresholds,
                                                                    alpha=alpha))
    probs = [adoption_probability(int(states[i]), node_densities(graph, states, active, i),
                                  kernel) for i in range(graph.n)]
    key, tables = step_inputs(graph, states, active, kernel, dormancy)
    fires = tables.fires.take(key)
    fire = bool(fires.any())
    event(f"fires={fire}")
    assert fires.tolist() == [p > 0.0 for p in probs]
    if not fire:
        # Absorbed: no draws can change a state, not even the largest uniform.
        largest = np.full((3, graph.n), np.nextafter(1.0, 0.0))
        for u, v, w in (data.draw(uniforms(graph.n)), largest):
            new_states, _ = reference_step(graph, states, active, kernel, dormancy, u, v, w)
            np.testing.assert_array_equal(new_states, states)


@pytest.mark.parametrize("mode,thresholds", KERNEL_MODES)
@PROPERTY_SETTINGS
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_step_matches_reference_step(mode, thresholds, data, seed):
    pop = data.draw(populations(mode, thresholds))
    assert_step_matches_reference(pop, *data.draw(uniforms(pop[0].n)), seed)


@pytest.mark.parametrize("mode,thresholds", KERNEL_MODES)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_step_matches_reference_step_on_wide_layers(mode, thresholds, data, seed):
    # Layers wider than 127 slots: a count type that wraps at int8 (or uint8,
    # past 255) gives nodes the wrong neighbor counts.
    pop = data.draw(populations(mode, thresholds, st.integers(128, 300)))
    assert_step_matches_reference(pop, *data.draw(uniforms(pop[0].n)), seed)


@pytest.mark.parametrize("t", [127, 128, 255, 256, 300, 65536])
def test_every_slot_a_carrier_counts_to_t(t):
    # Node 0 is naive; all of its t layer-B slots hold node 1, an active B
    # carrier. Its B density is exactly 1, whatever the count type.
    layer_a = Layer(kind="slots", nbrs=np.zeros((2, 1), dtype=np.int32))
    layer_b = Layer(kind="slots", nbrs=np.ones((2, t), dtype=np.int32))
    graph = MultiplexGraph(layer_a, layer_b)
    states = np.array([NAIVE, STATE_B], dtype=np.int8)
    active = np.ones(2, dtype=bool)
    kernel = KernelParams(alpha=1.0, k_b=1.0)  # p = 1/2 at density 1, 0 at density 0
    dormancy = DormancyParams(0.0, 0.0)
    u = np.array([0.5, 0.0])  # fires exactly when the count is t
    new_states, _ = step_with_draws(
        states, active, *step_inputs(graph, states, active, kernel, dormancy),
        u, np.zeros(2), np.zeros(2))
    assert new_states[0] == STATE_B
    exp, _ = reference_step(graph, states, active, kernel, dormancy, u, np.zeros(2), np.zeros(2))
    np.testing.assert_array_equal(new_states, exp)


def assert_keys_match_node_densities(graph, states, active):
    key = table_keys(graph, states, active)
    t_a, t_b = graph.layer_a.t, graph.layer_b.t
    cells = (t_a + 1) * (t_b + 1)
    # Every key fits the type, so none wraps.
    assert key.dtype.kind == "u" and np.iinfo(key.dtype).max >= 4 * cells - 1
    for i in range(graph.n):
        state, cell = divmod(int(key[i]), cells)
        ca, cb = divmod(cell, t_b + 1)
        dens = node_densities(graph, states, active, i)
        assert state == states[i]
        # count / t is one-to-one on 0..t, so equal fractions mean equal counts.
        assert (ca / t_a, cb / t_b) == (dens.dens_a, dens.dens_b)


@pytest.mark.parametrize("width", [st.integers(1, 4), st.integers(128, 300)],
                         ids=["width-1-4", "width-128-300"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_table_keys_match_per_node_counting(width, data):
    graph, states, active, _, _ = data.draw(populations(INCLUSIVE, ANNEALED, width))
    assert_keys_match_node_densities(graph, states, active)


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_table_keys_match_per_node_counting_on_65536_slots(data, seed):
    # Counts up to 65,536 need a type wider than uint16.
    n = data.draw(st.integers(2, 3))
    rng = stream(seed)
    wide = Layer(kind="random", nbrs=rng.integers(0, n, (n, 65536), dtype=np.int32))
    narrow = Layer(kind="random", nbrs=rng.integers(0, n, (n, data.draw(st.integers(1, 4))),
                                                    dtype=np.int32))
    graph = MultiplexGraph(*data.draw(st.permutations((wide, narrow))))
    states = data.draw(hnp.arrays(np.int8, n, elements=st.integers(0, 3)))
    active = data.draw(hnp.arrays(np.bool_, n)) | (states == NAIVE)
    assert_keys_match_node_densities(graph, states, active)


def test_every_gather_is_one_table_keys_pair_per_step(monkeypatch):
    # The step and the stop test read the same keys: every gather runs inside
    # `table_keys`, at most one pair per step plus one when a batch starts.
    gathers, steps = [], []
    real_gather, real_step = engine._neighbor_count, engine.step

    def gather(*args):
        gathers.append(any(f.name == "table_keys" for f in traceback.extract_stack()))
        return real_gather(*args)

    def counted_step(*args, **kwargs):
        steps.append(1)
        return real_step(*args, **kwargs)

    cfg = point_config("mid_horizon", INCLUSIVE, ANNEALED, "multiplex", False)
    monkeypatch.setattr(engine, "_neighbor_count", gather)
    monkeypatch.setattr(engine, "step", counted_step)
    monkeypatch.setattr(engine, "BATCH_NODES", 3 * cfg.n)
    _, absorbed_at = run_ensemble(cfg, 7)  # batches of 3, 3 and 1 iterations
    assert (absorbed_at < cfg.steps).all()  # every block reached the stop test
    assert all(gathers)
    assert len(gathers) <= 2 * (len(steps) + 3)


def test_step_tables_are_looked_up_once_per_batch(monkeypatch):
    # A batch looks its tables up when it starts; no step looks them up again.
    calls = []
    real_tables = engine.step_tables

    def counted_tables(*args):
        calls.append(args)
        return real_tables(*args)

    cfg = point_config("mid_horizon", INCLUSIVE, ANNEALED, "multiplex", False)
    monkeypatch.setattr(engine, "step_tables", counted_tables)
    monkeypatch.setattr(engine, "BATCH_NODES", 3 * cfg.n)
    _, absorbed_at = run_ensemble(cfg, 7)  # batches of 3, 3 and 1 iterations
    assert (absorbed_at < cfg.steps).all()
    assert len(calls) == 3


def test_no_gather_after_the_horizons_last_step(monkeypatch):
    # No step and no stop test reads the keys after the last step, so a batch
    # that never absorbs gathers one pair when it starts and one after every
    # step but the last.
    cfg = RunConfig(kernel=KernelParams(alpha=2.0), dormancy=DormancyParams(0.0, 0.0),
                    side=32, steps=200, master_seed=1)
    real_gather = engine._neighbor_count
    gathers = []

    def gather(*args):
        gathers.append(1)
        return real_gather(*args)

    monkeypatch.setattr(engine, "_neighbor_count", gather)
    counts, absorbed_at = run_ensemble(cfg, 2)
    monkeypatch.undo()
    assert len(gathers) == 2 * cfg.steps
    ref_counts, ref_absorbed_at = reference_ensemble(cfg, range(2))
    np.testing.assert_array_equal(counts, ref_counts)
    assert absorbed_at.tolist() == ref_absorbed_at.tolist() == [cfg.steps] * 2
