"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The Monte Carlo criteria use
fixed master seeds, so the whole suite is deterministic. Reference scale
(6400 nodes, 700 steps, 100 iterations) is used wherever a criterion pins it;
the two rate-ordering criteria use smaller lattices with shorter horizons (the
orderings they test are scale-free) to keep the suite tractable.
"""

import math
import os

import numpy as np

from codiffuse.analysis import (
    CATEGORIES,
    category_series,
    inflection,
    iteration_ceilings,
    kde,
    mode_shares,
)
from codiffuse.config import spec_from_dict
from codiffuse.engine import RunConfig, run_ensemble, seed_population, step, stream
from codiffuse.kernel import (
    ANNEALED,
    EXCLUSIVE,
    INCLUSIVE,
    NAIVE,
    QUENCHED,
    STATE_A,
    STATE_AB,
    STATE_B,
    DormancyParams,
    KernelParams,
)
from codiffuse.meanfield import MeanFieldParams, MeanFieldState, integrate
from codiffuse.sweep import sweep

from _harness import (
    Densities,
    adoption_probability,
    empirical_adoption_freq,
    star_groups,
    step_inputs,
)

N_REF = 6400
A_COL = CATEGORIES.index("a")


def report(num: int, ok: bool, desc: str, detail: str = ""):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {desc} {detail}"


def a_ceilings(alpha: float, tau_a: float, tau_b: float, seed: int,
               iterations: int = 100) -> np.ndarray:
    cfg = RunConfig(kernel=KernelParams(alpha=alpha),
                    dormancy=DormancyParams(tau_a, tau_b), master_seed=seed)
    counts, _ = run_ensemble(cfg, iterations)
    return iteration_ceilings(counts)[:, A_COL]


def test_criterion_01_kernel_oracle_equivalence():
    """Engine single-step frequencies match the closed form on the full
    neighborhood grid (3-sigma binomial, 1e5 trials per configuration)."""
    graph = star_groups(12_500)
    dormancy = DormancyParams(0.0, 0.0)
    trials = 100_000
    worst = 0.0
    checked = 0
    for alpha in (0.0, 0.5, 1.0, 1.3):
        kernel = KernelParams(alpha=alpha)
        for state in (NAIVE, STATE_A, STATE_B, STATE_AB):
            for a_count in range(5):
                for b_count in range(5):
                    dens = Densities(a_count / 4.0, b_count / 4.0)
                    p = adoption_probability(state, dens, kernel)
                    freq = empirical_adoption_freq(graph, kernel, dormancy, state,
                                                   a_count, b_count, trials, seed=9001)
                    tol = 3.0 * math.sqrt(p * (1.0 - p) / trials)
                    assert abs(freq - p) <= tol, (
                        f"alpha={alpha} state={state} a={a_count} b={b_count}: "
                        f"freq={freq} expected={p} tol={tol}")
                    if tol > 0:
                        worst = max(worst, abs(freq - p) / tol)
                    checked += 1
    report(1, checked == 400, "kernel oracle equivalence on 400 configurations",
           f"worst deviation {worst:.2f} of the 3-sigma budget")


def test_criterion_02_branching_with_thick_lower_branch():
    """alpha=1.2, tau_a=0, tau_b=0.02: A-ceiling KDE has >= 2 modes, every
    cluster holding at least 5% of the 100 runs."""
    ceilings = a_ceilings(1.2, 0.0, 0.02, seed=2024)
    rep = kde(ceilings)
    shares = mode_shares(ceilings, rep.modes)
    ok = rep.mode_count >= 2 and all(s >= 0.05 for s in shares)
    report(2, ok, "branching at (1.2, 0, 0.02)",
           f"modes at {[round(m) for m in rep.modes]}, shares {[round(s, 2) for s in shares]}")


def test_criterion_03_probabilistic_blocking():
    """alpha=1.2, tau_a=0, tau_b=0.10: both full diffusion and blocked runs
    occur; the full-diffusion fraction is strictly inside (0.05, 0.95)."""
    ceilings = a_ceilings(1.2, 0.0, 0.10, seed=2024)
    frac_full = float(np.mean(ceilings > 0.95 * N_REF))
    ok = 0.05 < frac_full < 0.95
    report(3, ok, "ring-vaccination blocking at (1.2, 0, 0.10)",
           f"full-diffusion fraction {frac_full:.2f}")


def test_criterion_04_contagion_b_diffuses_faster():
    """alpha=0.8, tau=0: the mean B curve inflects strictly before the mean A
    curve in at least 95 of 100 seed-replicated ensembles."""
    wins = 0
    for s in range(100):
        cfg = RunConfig(kernel=KernelParams(alpha=0.8), dormancy=DormancyParams(0.0, 0.0),
                        side=32, steps=250, master_seed=40_000 + s)
        mean = run_ensemble(cfg, 6)[0].mean(axis=0)
        ia = inflection(category_series(mean, "a"))
        ib = inflection(category_series(mean, "b"))
        if ia is not None and ib is not None and ib < ia:
            wins += 1
    report(4, wins >= 95, "B inflects before A at (0.8, 0, 0)", f"{wins}/100 ensembles")


def test_criterion_05_alpha_slows_diffusion():
    """Inflection of the mean dual-adopter curve increases with alpha at tau=0
    (Spearman >= 0.9 over alpha in {0.2, 0.5, 0.8, 1.1})."""
    from scipy.stats import spearmanr

    alphas = (0.2, 0.5, 0.8, 1.1)
    infl = []
    for k, alpha in enumerate(alphas):
        cfg = RunConfig(kernel=KernelParams(alpha=alpha), dormancy=DormancyParams(0.0, 0.0),
                        side=32, steps=500, master_seed=50_000, param_index=k)
        mean = run_ensemble(cfg, 12)[0].mean(axis=0)
        infl.append(inflection(category_series(mean, "ab")))
    rho = float(spearmanr(alphas, infl).statistic)
    report(5, rho >= 0.9, "alpha slows diffusion (dual-adopter inflection)",
           f"inflections {infl}, spearman {rho:.2f}")


def test_criterion_06_maximal_convergence_at_alpha_zero():
    """alpha=0, tau=0 at reference scale: A-ceiling mean >= 0.99 N with
    std <= 0.01 N over 100 iterations."""
    ceilings = a_ceilings(0.0, 0.0, 0.0, seed=2024)
    mean, std = float(ceilings.mean()), float(ceilings.std(ddof=0))
    ok = mean >= 0.99 * N_REF and std <= 0.01 * N_REF
    report(6, ok, "maximal convergence at alpha=0",
           f"ceiling mean {mean:.1f}, std {std:.2f}")


def test_criterion_07_trimodality_capability():
    """Scanning tau_b in {0.02..0.10} at alpha=1.3, tau_a=0: at least one
    setting yields a 3-mode A-ceiling KDE."""
    found = None
    scanned = []
    for tb in [round(0.01 * k, 10) for k in range(2, 11)]:
        ceilings = a_ceilings(1.3, 0.0, tb, seed=77)
        rep = kde(ceilings)
        scanned.append((tb, rep.mode_count))
        if rep.mode_count >= 3:
            found = (tb, [round(m) for m in rep.modes])
            break
    report(7, found is not None, "trimodal ceiling distribution within the tau_b scan",
           f"scan {scanned}" + (f", modes {found[1]} at tau_b={found[0]}" if found else ""))


def test_criterion_08_engine_invariants_under_fuzzing():
    """1e4 randomized short runs: conservation, legal transitions only, naive
    never dormant, dual-adopter count nondecreasing, dormancy one-directional."""
    legal_next = {NAIVE: {NAIVE, STATE_A, STATE_B}, STATE_A: {STATE_A, STATE_AB},
                  STATE_B: {STATE_B, STATE_AB}, STATE_AB: {STATE_AB}}
    legal_next_exclusive = {NAIVE: {NAIVE, STATE_A, STATE_B}, STATE_A: {STATE_A},
                            STATE_B: {STATE_B}, STATE_AB: {STATE_AB}}
    violations = 0
    master = stream(707, 0)
    from codiffuse.engine import iteration_graph

    for case in range(10_000):
        rng = stream(707, 1, case)
        side = int(rng.integers(3, 8))
        mode = INCLUSIVE if rng.random() < 0.5 else EXCLUSIVE
        thresholds = ANNEALED if rng.random() < 0.5 else QUENCHED
        kernel = KernelParams(alpha=float(rng.uniform(0.0, 2.0)),
                              k_a=float(rng.uniform(0.5, 3.0)),
                              k_b=float(rng.uniform(0.5, 3.0)),
                              mode=mode, threshold_mode=thresholds)
        dormancy = DormancyParams(float(rng.uniform(0.0, 1.0)),
                                  float(rng.uniform(0.0, 1.0)))
        cfg = RunConfig(kernel=kernel, dormancy=dormancy, side=side,
                        degree=int(rng.choice([2, 4])),
                        graph_mode="single" if rng.random() < 0.2 else "multiplex",
                        steps=int(rng.integers(3, 16)), master_seed=int(rng.integers(1 << 30)))
        graph = iteration_graph(cfg, rng)
        states, active = seed_population(graph.n, rng)
        quenched = rng.random(graph.n) if thresholds == QUENCHED else None
        allowed = legal_next if mode == INCLUSIVE else legal_next_exclusive
        prev_ab = int(np.sum(states == STATE_AB))
        for _ in range(cfg.steps):
            new_states, new_active = step(
                states, active, *step_inputs(graph, states, active, kernel, dormancy),
                [rng], quenched)
            counts = np.bincount(new_states, minlength=4)
            if counts.sum() != graph.n:
                violations += 1
            for st, nxt in zip(states, new_states):
                if int(nxt) not in allowed[int(st)]:
                    violations += 1
            if np.any((new_states == NAIVE) & ~new_active):
                violations += 1
            if np.any(new_active & ~active):  # dormancy is one-directional
                violations += 1
            if counts[3] < prev_ab:
                violations += 1
            prev_ab = counts[3]
            states, active = new_states, new_active
    report(8, violations == 0, "engine invariants under 1e4 fuzzed runs",
           f"{violations} violations")


def test_criterion_09_meanfield_numerics():
    """Conservation drift <= 1e-9 over horizon 700, Richardson ratio 16 +/- 4,
    monotone naive/dormant fractions on every scanned parameter triple."""
    x0 = 1.0 / N_REF
    initial = MeanFieldState(x0, x0, 0.0, 1.0 - 2 * x0, 0.0)
    worst_drift = 0.0
    monotone = True
    for alpha in (0.5, 1.0, 1.3):
        for tau_a, tau_b in ((0.0, 0.0), (0.04, 0.02), (0.10, 0.05)):
            params = MeanFieldParams(kernel=KernelParams(alpha=alpha),
                                     dormancy=DormancyParams(tau_a, tau_b),
                                     h=0.1, horizon=700.0)
            traj = integrate(initial, params)
            worst_drift = max(worst_drift, float(np.abs(traj.states.sum(axis=1) - 1).max()))
            if np.any(np.diff(traj.states[:, 3]) > 1e-15):
                monotone = False
            if np.any(np.diff(traj.states[:, 4]) < -1e-15):
                monotone = False
            if traj.states.min() < -1e-9:
                monotone = False
    rich = MeanFieldState(0.05, 0.05, 0.0, 0.9, 0.0)
    ends = []
    for h in (0.8, 0.4, 0.2):
        params = MeanFieldParams(kernel=KernelParams(alpha=1.0),
                                 dormancy=DormancyParams(0.04, 0.02), h=h, horizon=48.0)
        ends.append(integrate(rich, params).states[-1])
    ratio = float(np.max(np.abs(ends[0] - ends[1])) / np.max(np.abs(ends[1] - ends[2])))
    ok = worst_drift <= 1e-9 and monotone and 12.0 <= ratio <= 20.0
    report(9, ok, "well-mixed model numerics",
           f"drift {worst_drift:.1e}, order ratio {ratio:.1f}, monotone {monotone}")


def test_criterion_10_reproducibility_across_worker_counts(tmp_path):
    """Identical manifest seed gives byte-identical CSV bodies for every worker
    count from 1 to 16."""
    spec_dict = {"alpha": [0.4, 1.0], "tau_a": [0.0, 0.04], "tau_b": [0.02],
                 "iterations": 4, "steps": 40, "graph": {"side": 10}, "seed": 606}

    def csv_bytes(out_dir):
        out = {}
        for dirpath, _dirs, files in os.walk(out_dir):
            for name in sorted(files):
                if name.endswith(".csv"):
                    with open(os.path.join(dirpath, name), "rb") as fh:
                        out[os.path.relpath(os.path.join(dirpath, name), out_dir)] = fh.read()
        return out

    reference = None
    for workers in range(1, 17):
        out_dir = str(tmp_path / f"w{workers}")
        sweep(spec_from_dict(spec_dict), out_dir, workers=workers)
        got = csv_bytes(out_dir)
        if reference is None:
            reference = got
        elif got != reference:
            report(10, False, "byte-identical sweeps across worker counts",
                   f"divergence at workers={workers}")
    ok = reference is not None and len(reference) >= 9  # 2 per set x 4 sets + heatmap
    report(10, ok, "byte-identical sweeps across worker counts 1..16",
           f"{len(reference)} csv files compared")
