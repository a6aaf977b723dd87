#!/usr/bin/env python3
"""codiffuse benchmark: seeded workloads, a correctness gate and a traced run.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --record-goldens

Run from anywhere; the package is imported from `src/` next to this directory.
Workloads, their default and held-out seeds, and the reason each was chosen are
in `bench/spec.json`; golden output hashes are in `bench/goldens.json`.

A run repeats the workload's unit of work until the measured time reaches
`--seconds` and reports medians over the repetitions. With `--trace 0` it
prints the end-to-end metrics of BENCHMARK.json; with `--trace 1` it spends
half the time untraced and half traced (see tracer.py) and prints the
per-layer metrics plus the tracing overhead. The last line of standard output
is one JSON object: correct, attempted, failed, metrics.

Every output is checked: golden sha256 hashes (at the recorded seeds, plus an
untimed replay at the default seed when `--seed` has none), invariants of the
count series, manifest hashes, byte-identical reruns and `analyze` rewrites,
and an untimed mode-coverage probe. Each check, parameter set and realization
is one attempted operation; `failed_frac` is failed over attempted.

`--record-goldens` rewrites goldens.json from this machine's outputs. Do it
only when an intended change alters output bytes, never to make a mismatch on
another CPU go away: that mismatch is the defect the goldens exist to show.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import Tracer  # bench/ is sys.path[0] when this file runs as a script

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"
GOLDENS_PATH = BENCH_DIR / "goldens.json"
SETUP_SAMPLES = 9

# Mode-coverage probe: tiny runs, one non-default mode each plus one combining
# them, so a kernel rewrite is checked in every mode, not only the default.
PROBE_BASE = {"alpha": [0.8], "tau_a": [0.02], "tau_b": [0.05], "iterations": 3,
              "steps": 40, "graph": {"side": 8}, "seed": 2024}
PROBES = {
    "exclusive": {"kernel": {"adoption": "exclusive"}},
    "quenched": {"kernel": {"thresholds": "quenched"}},
    "single": {"graph": {"side": 8, "mode": "single"}},
    "freeze_rrg": {"graph": {"side": 8, "freeze_rrg": True}},
    "combined": {"kernel": {"adoption": "exclusive", "thresholds": "quenched"},
                 "graph": {"side": 8, "freeze_rrg": True}},
}

cd = None  # the codiffuse modules, bound by _import_package()


def _import_package():
    global cd
    sys.path.insert(0, str(SRC))
    import importlib
    from types import SimpleNamespace
    cd = SimpleNamespace(**{name: importlib.import_module(f"codiffuse.{name}")
                            for name in ("config", "engine", "meanfield", "sweep",
                                         "kernel", "topology", "analysis")})


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_hashes(out: Path) -> dict[str, str]:
    """sha256 of every emitted file except the manifest (it holds timestamps)."""
    return {p.relative_to(out).as_posix(): _sha256_file(p)
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def _cpu_s() -> tuple[float, float]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


class Timer:
    """Wall and CPU (self + reaped children) over the `with` blocks it times."""

    def __init__(self):
        self.wall = self.cpu = self.child_cpu = 0.0

    @contextlib.contextmanager
    def __call__(self):
        w0, (s0, c0) = time.perf_counter(), _cpu_s()
        try:
            yield
        finally:
            s1, c1 = _cpu_s()
            self.wall += time.perf_counter() - w0
            self.cpu += (s1 - s0) + (c1 - c0)
            self.child_cpu += c1 - c0


class Checks:
    """Attempted and failed operations; failures keep a message."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def goldens(self, name: str, got: dict[str, str], want: dict[str, str] | None) -> None:
        if want is None:
            self.add(f"{name}: goldens recorded", False, "no golden entry")
            return
        for rel in sorted(set(got) | set(want)):
            self.add(f"{name}: golden {rel}", got.get(rel) == want.get(rel),
                     "missing" if rel not in got else
                     "unexpected file" if rel not in want else "hash differs")


def _check_manifest(checks: Checks, name: str, manifest: dict, hashes: dict[str, str]) -> None:
    """The manifest lists exactly the files on disk, with their current hashes."""
    files = manifest["files"]
    for rel in sorted(set(files) | set(hashes)):
        checks.add(f"{name}: manifest hash {rel}", files.get(rel) == hashes.get(rel),
                   "not on disk" if rel not in hashes else
                   "not in manifest" if rel not in files else "hash differs")


def _check_counts(checks: Checks, name: str, rows, n: int, exact: bool) -> None:
    """Counts rows sum to n; the naive column never increases."""
    import numpy as np
    rows = np.asarray(rows)
    sums = rows.sum(axis=1)
    ok = bool(np.all(sums == n)) if exact else bool(np.all(np.abs(sums - n) <= 1e-9 * n))
    checks.add(f"{name}: rows sum to n", ok, f"n={n}")
    checks.add(f"{name}: naive never increases", bool(np.all(np.diff(rows[:, 0]) <= 0)))


# ---------------------------------------------------------------------------
# Workloads. Each builds the config a CLI user would write, from the seed;
# the program receives only that config.


class EngineWorkload:
    """Shared verification for the run_single / sweep workloads."""

    workers = 1

    def golden_key(self, seed: int) -> str:
        return str(seed)

    def sets(self, spec) -> int:
        return len(cd.config.enumerate_parameter_sets(spec))

    def resolve(self, raw: dict):
        spec = cd.config.spec_from_dict(raw)
        for i, a, ta, tb in cd.config.enumerate_parameter_sets(spec):
            cd.config.run_config_for(spec, i, a, ta, tb)
        cd.topology.build_lattice(spec.side)
        return spec

    def node_steps(self, spec) -> float:
        return float(spec.side ** 2 * spec.steps * spec.iterations * self.sets(spec))

    def _check_run(self, checks: Checks, name: str, manifest: dict, spec,
                   hashes: dict[str, str]) -> None:
        sets = len(manifest["parameter_sets"])
        failed = {f["index"] for f in manifest["failures"]}
        for k in range(sets):
            checks.add(f"{name}: parameter set {k}", k not in failed,
                       str([f["error"] for f in manifest["failures"] if f["index"] == k]))
        for k in range(sets * spec.iterations):
            checks.add(f"{name}: realization {k}", k // spec.iterations not in failed)
        _check_manifest(checks, name, manifest, hashes)


class EnsembleRef(EngineWorkload):
    name = "ensemble_ref"

    def raw_config(self, seed: int) -> dict:
        return {"alpha": [1.2], "tau_a": [0.0], "tau_b": [0.02], "iterations": 4,
                "steps": 700, "graph": {"mode": "multiplex", "side": 80, "degree": 4},
                "seed": seed}

    def unit(self, spec, out: Path, timer: Timer):
        with timer():
            manifest = cd.sweep.run_single(spec, str(out), workers=self.workers)
        return manifest

    def verify(self, checks: Checks, name: str, out: Path, manifest: dict, spec) -> dict:
        hashes = _tree_hashes(out)
        self._check_run(checks, name, manifest, spec, hashes)
        n = spec.side ** 2
        for path in sorted((out / "series").glob("*_iter*.csv")):
            rows = cd.sweep.read_series_csv(str(path))
            _check_counts(checks, f"{name}: {path.name}", rows, n, exact=True)
        return hashes


class SweepGrid(EngineWorkload):
    name = "sweep_grid"
    workers = 2

    def raw_config(self, seed: int) -> dict:
        return {"alpha": [0.6, 0.9, 1.2, 1.5], "tau_a": [0.0, 0.02, 0.05],
                "tau_b": [0.0, 0.02, 0.05], "iterations": 8, "steps": 120,
                "graph": {"mode": "multiplex", "side": 16, "degree": 4}, "seed": seed}

    def unit(self, spec, out: Path, timer: Timer):
        with timer(), contextlib.redirect_stderr(io.StringIO()):  # per-set progress lines
            manifest = cd.sweep.sweep(spec, str(out), workers=self.workers)
        # Untimed: what analyze must reproduce byte for byte.
        emitted = {rel: h for rel, h in _tree_hashes(out).items()
                   if rel == "heatmap.csv" or rel.startswith("modality/")}
        with timer():
            cd.sweep.analyze(str(out))
        manifest["_emitted"] = emitted
        return manifest

    def verify(self, checks: Checks, name: str, out: Path, manifest: dict, spec) -> dict:
        emitted = manifest.pop("_emitted")
        hashes = _tree_hashes(out)
        self._check_run(checks, name, manifest, spec, hashes)
        for rel, digest in emitted.items():
            checks.add(f"{name}: analyze rewrites {rel} byte-identical", hashes.get(rel) == digest)
        n = spec.side ** 2
        for path in sorted((out / "series").glob("*_mean.csv")):
            rows = cd.sweep.read_series_csv(str(path))
            _check_counts(checks, f"{name}: {path.name}", rows, n, exact=False)
        return hashes


class MeanfieldScan:
    name = "meanfield_scan"
    workers = 1

    @staticmethod
    def _seeds_per_contagion(seed: int) -> int:
        return 1 + seed % 4

    def golden_key(self, seed: int) -> str:
        return f"seeds_per_contagion={self._seeds_per_contagion(seed)}"

    def raw_config(self, seed: int) -> dict:
        return {"alpha": [round(0.1 * i, 10) for i in range(14)], "tau_a": [0.0],
                "tau_b": [0.02], "seeds_per_contagion": self._seeds_per_contagion(seed),
                "meanfield": {"h": 0.1, "horizon": 700.0}}

    def resolve(self, raw: dict):
        """(alpha, params, initial) per set, built as the `meanfield` command does."""
        spec = cd.config.spec_from_dict(raw)
        x0 = spec.seeds_per_contagion / (spec.side * spec.side)
        initial = cd.meanfield.MeanFieldState(x_a=x0, x_b=x0, x_ab=0.0,
                                              x_naive=1.0 - 2 * x0, x_r=0.0)
        runs = []
        for _, alpha, ta, tb in cd.config.enumerate_parameter_sets(spec):
            params = cd.meanfield.MeanFieldParams(
                kernel=cd.kernel.KernelParams(alpha=alpha, k_a=spec.k_a, k_b=spec.k_b,
                                              mode=spec.adoption,
                                              threshold_mode=spec.thresholds),
                dormancy=cd.kernel.DormancyParams(tau_a=ta, tau_b=tb),
                kappa=spec.mf_kappa, h=spec.mf_h, horizon=spec.mf_horizon)
            runs.append((alpha, params, initial))
        return runs

    def sets(self, runs) -> int:
        return 0  # no parameter sets go through the sweep layer

    def node_steps(self, runs) -> float:
        """The well-mixed model is one node: one node-step per RK4 step."""
        return float(sum(round(p.horizon / p.h) for _, p, _ in runs))

    def unit(self, runs, out: Path, timer: Timer):
        with timer():
            return [(alpha, cd.meanfield.integrate(initial, params))
                    for alpha, params, initial in runs]

    def verify(self, checks: Checks, name: str, out: Path, trajectories, runs) -> dict:
        import numpy as np
        hashes = {}
        for alpha, traj in trajectories:
            label = f"alpha={alpha:g}"
            states = traj.states
            checks.add(f"{name}: {label} compartments sum to 1",
                       bool(np.all(np.abs(states.sum(axis=1) - 1.0) <= 1e-9)))
            checks.add(f"{name}: {label} naive never increases",
                       bool(np.all(np.diff(states[:, 3]) <= 1e-15)))
            hashes[label] = hashlib.sha256(traj.times.tobytes() + states.tobytes()).hexdigest()
        return hashes


WORKLOADS = {w.name: w for w in (EnsembleRef(), SweepGrid(), MeanfieldScan())}


# ---------------------------------------------------------------------------


def _load_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _simd() -> dict:
    import numpy as np
    try:
        ext = np.show_config(mode="dicts").get("SIMD Extensions", {})
    except TypeError:  # numpy < 1.26 has no dict mode
        return {}
    return {"baseline": list(ext.get("baseline", [])), "found": list(ext.get("found", []))}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment() -> dict:
    import numpy as np
    return {"nproc": _nproc(), "cpu": _cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "numpy_simd": _simd(),
            "loadavg_start": os.getloadavg()[0]}


def _run_once(workload, raw: dict, work: Path, label: str):
    """One untimed unit in a fresh directory: (resolved, output, out dir)."""
    resolved = workload.resolve(raw)
    out = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=work))
    return resolved, workload.unit(resolved, out, Timer()), out


def mode_probe(checks: Checks, goldens: dict | None, work: Path) -> dict[str, dict]:
    """Tiny run_single calls in each non-default mode, hashed against goldens
    (only recorded when `goldens` is None)."""
    recorded = {}
    for label, override in PROBES.items():
        raw = {**PROBE_BASE, **override}
        spec, manifest, out = _run_once(WORKLOADS["ensemble_ref"], raw, work, label)
        recorded[label] = WORKLOADS["ensemble_ref"].verify(checks, f"probe {label}", out,
                                                           manifest, spec)
        if goldens is not None:
            checks.goldens(f"probe {label}", recorded[label],
                           goldens.get("mode_probe", {}).get(label))
        shutil.rmtree(out)
    return recorded


def setup_sample(workload: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import codiffuse and resolve the config."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                           "--workload", workload, "--seed", str(seed)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.strip().splitlines()[-1])


def _setup_probe(workload: str, seed: int) -> None:
    t0 = time.perf_counter()
    _import_package()
    wl = WORKLOADS[workload]
    wl.resolve(wl.raw_config(seed))
    print(repr(time.perf_counter() - t0))


def measure(workload, resolved, seconds: float, checks: Checks, want: dict | None,
            work: Path, tracer=None, between=None) -> list[Timer]:
    """Repeat the unit until `seconds` of it are measured; verify every repetition
    and call `between()` after each, untraced and outside the timing."""
    timers: list[Timer] = []
    first: dict | None = None
    while not timers or sum(t.wall for t in timers) < seconds:
        out = Path(tempfile.mkdtemp(prefix="unit-", dir=work))
        timer = Timer()
        output = workload.unit(resolved, out, timer)
        if tracer is not None:  # verification below is not part of the trace
            tracer.enabled = False
            tracer.account_files()
        name = f"{workload.name} rep {len(timers)}"
        hashes = workload.verify(checks, name, out, output, resolved)
        if first is None:
            first = hashes
            if want is not None:
                checks.goldens(name, hashes, want)
        else:
            checks.add(f"{name}: identical to rep 0", hashes == first)
        shutil.rmtree(out)
        timers.append(timer)
        if between is not None:
            between()
        if tracer is not None:
            tracer.enabled = True
    return timers


def layer_metrics(tr, units: int, workload, resolved, timers: list[Timer]) -> dict[str, float]:
    """Per-layer numbers from the traced repetitions (per unit, call or step)."""
    def per(ns: float, count: float, scale: float) -> float:
        return ns / count / scale if count else 0.0

    steps, runs = tr.calls("engine.step"), tr.calls("engine.run")
    run_ms = [d / 1e6 for d in tr.durations_ns("engine.run")]
    entries = ("sweep.sweep", "sweep.run_single")
    emit_sites = ("sweep.write_series_csv", "sweep.write_ceilings_csv",
                  "sweep._write_modality", "sweep.ensemble_stats", "sweep.write_heatmap_csv")
    emit_ns = sum(tr.total_ns(s, entry=e) for s in emit_sites for e in entries)
    manifest_ns = sum(tr.total_ns("sweep._finalize_manifest", entry=e) for e in entries)
    compute_s = per(sum(tr.total_ns(e) for e in entries) - emit_ns - manifest_ns, units, 1e9)
    child_cpu = statistics.median(t.child_cpu for t in timers)
    set_units = units * workload.sets(resolved)
    read_ns = tr.total_ns("sweep.read_series_csv") + tr.total_ns("sweep.read_ceilings_csv")
    return {
        "topology.rrg_ms": per(tr.total_ns("engine.build_rrg"), tr.calls("engine.build_rrg"), 1e6),
        "topology.rrg_attempts": tr.calls("rng.permutation", parent="engine.build_rrg") / units,
        "kernel.eval_us_per_step": per(tr.total_ns("engine.hill_term_vec"), steps, 1e3),
        "kernel.scalar_calls": tr.calls("meanfield.hill_term") / units,
        "engine.step_us": per(tr.total_ns("engine.step"), steps, 1e3),
        "engine.draw_us_per_step": per(tr.total_ns("rng.random", parent="engine.step"), steps, 1e3),
        "engine.gather_us_per_step": per(tr.total_ns("engine._neighbor_count"), steps, 1e3),
        "engine.update_us_per_step": per(tr.self_ns("engine.step_with_draws"), steps, 1e3),
        "engine.count_us_per_step": per(tr.self_ns("engine.run"), steps, 1e3),
        "engine.seed_us": per(tr.total_ns("engine.seed_population"),
                              tr.calls("engine.seed_population"), 1e3),
        "engine.steps_per_run": per(steps, runs, 1),
        "engine.run_ms_p50": statistics.median(run_ms) if run_ms else 0.0,
        "engine.run_ms_p90": (statistics.quantiles(run_ms, n=10, method="inclusive")[-1]
                              if len(run_ms) > 1 else sum(run_ms)),
        "sweep.compute_s": compute_s,
        "sweep.child_cpu_s": child_cpu,
        "sweep.worker_util": per(child_cpu, workload.workers * compute_s, 1) if child_cpu else 0.0,
        "sweep.emit_ms_per_set": per(emit_ns, set_units, 1e6),
        "sweep.manifest_ms": per(manifest_ns, sum(tr.calls("sweep._finalize_manifest", entry=e)
                                                  for e in entries), 1e6),
        "sweep.read_ms_per_set": per(read_ns, set_units, 1e6),
        "sweep.files_written": tr.files_written / units,
        "sweep.bytes_written": tr.bytes_written / units,
        "analysis.kde_ms": per(tr.total_ns("sweep.kde"), tr.calls("sweep.kde"), 1e6),
        "analysis.kde_calls": tr.calls("sweep.kde") / units,
        "analysis.stats_ms_per_set": per(tr.total_ns("sweep.ensemble_stats"),
                                         tr.calls("sweep.ensemble_stats"), 1e6),
        "analysis.ceilings_ms": per(tr.total_ns("sweep.iteration_ceilings"), units, 1e6),
        "meanfield.integrate_ms": per(tr.total_ns("meanfield.integrate"),
                                      tr.calls("meanfield.integrate"), 1e6),
        "meanfield.rates_us": per(tr.total_ns("meanfield.mf_rates"),
                                  tr.calls("meanfield.mf_rates"), 1e3),
        "meanfield.rates_calls": tr.calls("meanfield.mf_rates") / units,
    }


# Call sites each per-layer metric is computed from; a metric whose site a
# refactor removed is reported as absent, never as zero.
METRIC_SITES = {
    "topology.rrg_ms": ("engine.build_rrg",),
    "topology.rrg_attempts": ("engine.build_rrg", "rng.permutation"),
    "kernel.eval_us_per_step": ("engine.hill_term_vec", "engine.step"),
    "kernel.scalar_calls": ("meanfield.hill_term",),
    "engine.step_us": ("engine.step",),
    "engine.draw_us_per_step": ("engine.step", "rng.random"),
    "engine.gather_us_per_step": ("engine.step", "engine._neighbor_count"),
    "engine.update_us_per_step": ("engine.step", "engine.step_with_draws"),
    "engine.count_us_per_step": ("engine.step", "engine.run"),
    "engine.seed_us": ("engine.seed_population",),
    "engine.steps_per_run": ("engine.step", "engine.run"),
    "engine.run_ms_p50": ("engine.run",),
    "engine.run_ms_p90": ("engine.run",),
    "sweep.compute_s": ("sweep.sweep", "sweep.run_single"),
    "sweep.worker_util": ("sweep.sweep", "sweep.run_single"),
    "sweep.emit_ms_per_set": ("sweep.write_series_csv", "sweep.write_ceilings_csv",
                              "sweep._write_modality", "sweep.ensemble_stats",
                              "sweep.write_heatmap_csv"),
    "sweep.manifest_ms": ("sweep._finalize_manifest",),
    "sweep.read_ms_per_set": ("sweep.read_series_csv", "sweep.read_ceilings_csv"),
    "sweep.files_written": ("sweep.write_series_csv", "sweep.write_ceilings_csv",
                            "sweep._write_modality", "sweep.write_heatmap_csv",
                            "sweep._finalize_manifest"),
    "sweep.bytes_written": ("sweep.write_series_csv", "sweep.write_ceilings_csv",
                            "sweep._write_modality", "sweep.write_heatmap_csv",
                            "sweep._finalize_manifest"),
    "analysis.kde_ms": ("sweep.kde",),
    "analysis.kde_calls": ("sweep.kde",),
    "analysis.stats_ms_per_set": ("sweep.ensemble_stats",),
    "analysis.ceilings_ms": ("sweep.iteration_ceilings",),
    "meanfield.integrate_ms": ("meanfield.integrate",),
    "meanfield.rates_us": ("meanfield.mf_rates",),
    "meanfield.rates_calls": ("meanfield.mf_rates",),
}


def record_goldens(spec: dict) -> None:
    """Rewrite goldens.json from this machine's outputs (see the module docstring)."""
    work = Path(tempfile.mkdtemp(prefix="record-", dir=WORK_ROOT))
    checks = Checks()
    try:
        goldens = {"environment": environment(), "mode_probe": mode_probe(checks, None, work)}
        for name, wl in WORKLOADS.items():
            seeds = [spec["workloads"][name]["default_seed"], spec["workloads"][name]["heldout_seed"]]
            if name == "meanfield_scan":
                seeds = list(range(4))  # every seeds_per_contagion the seed can select
            goldens[name] = {}
            for seed in seeds:
                resolved, output, out = _run_once(wl, wl.raw_config(seed), work, name)
                goldens[name][wl.golden_key(seed)] = wl.verify(checks, f"{name} seed {seed}",
                                                               out, output, resolved)
                shutil.rmtree(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if checks.failures:
        sys.exit("refusing to record goldens, invariants failed:\n  "
                 + "\n  ".join(checks.failures))
    goldens["environment"].pop("loadavg_start")
    with open(GOLDENS_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDENS_PATH}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "codiffuse" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    bench = _load_json(ROOT / "BENCHMARK.json")
    spec = _load_json(BENCH_DIR / "spec.json")
    WORK_ROOT.mkdir(exist_ok=True)
    if args.record_goldens:
        _import_package()
        record_goldens(spec)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    wl = WORKLOADS[args.workload]
    seed = spec["workloads"][wl.name]["default_seed"] if args.seed is None else args.seed
    seconds = float(bench["run_seconds"] if args.seconds is None else args.seconds)

    _import_package()
    env = environment()
    goldens = _load_json(GOLDENS_PATH)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_ROOT))
    checks = Checks()
    trace_json = None
    try:
        # Untimed correctness work first: mode probe and default-seed replay.
        mode_probe(checks, goldens, work)
        want = goldens.get(wl.name, {}).get(wl.golden_key(seed))
        if want is None:
            default_seed = spec["workloads"][wl.name]["default_seed"]
            resolved, output, out = _run_once(wl, wl.raw_config(default_seed), work, "replay")
            name = f"{wl.name} replay seed {default_seed}"
            checks.goldens(name, wl.verify(checks, name, out, output, resolved),
                           goldens.get(wl.name, {}).get(wl.golden_key(default_seed)))
            shutil.rmtree(out)

        resolved = wl.resolve(wl.raw_config(seed))
        if args.trace == 0:
            # Setup samples are taken between units so that they see the same
            # machine conditions as the units, then topped up to SETUP_SAMPLES.
            setup = []
            timers = measure(wl, resolved, seconds, checks, want, work,
                             between=lambda: setup.append(setup_sample(wl.name, seed)))
            while len(setup) < SETUP_SAMPLES:
                setup.append(setup_sample(wl.name, seed))
            wall = statistics.median(t.wall for t in timers)
            me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            values = {"wall_s": wall,
                      "node_steps_per_s": wl.node_steps(resolved) / wall,
                      "cpu_s": statistics.median(t.cpu for t in timers),
                      "setup_s": statistics.median(setup),
                      "peak_rss_mb": max(me, kids) / 1024.0}
            declared = bench["end_to_end"]
        else:
            plain = measure(wl, resolved, seconds / 2, checks, want, work)
            tracer = Tracer()
            tracer.install({name: getattr(cd, name) for name in ("engine", "sweep", "meanfield")})
            tracer.enabled = True
            try:
                timers = measure(wl, resolved, seconds / 2, checks, want, work, tracer)
            finally:
                tracer.enabled = False
                tracer.uninstall()
            values = layer_metrics(tracer, len(timers), wl, resolved, timers)
            values["trace.overhead_s"] = (statistics.median(t.wall for t in timers)
                                          - statistics.median(t.wall for t in plain))
            absent = sorted(m for m, sites in METRIC_SITES.items()
                            if not all(tracer.present.get(s) for s in sites))
            for metric in absent:
                values.pop(metric)
            declared = [m for m in bench["per_layer"] if m["name"] not in absent]
            trace_json = tracer.to_json()
            timers = plain + timers
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env["loadavg_end"] = os.getloadavg()[0]
    env["load_warning"] = max(env["loadavg_start"], env["loadavg_end"]) > env["nproc"]
    env["simd_matches_goldens"] = env["numpy_simd"] == goldens["environment"]["numpy_simd"]
    if env["load_warning"]:
        print(f"warning: load average exceeded nproc={env['nproc']} during the run",
              file=sys.stderr)
    if checks.failures and not env["simd_matches_goldens"]:
        print("note: numpy SIMD set differs from the goldens' "
              f"({goldens['environment']['numpy_simd']}); np.power can differ by 1 ULP "
              "across SIMD widths, which changes output bytes", file=sys.stderr)
    for failure in checks.failures[:50]:
        print(f"FAILED {failure}", file=sys.stderr)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    failed = len(checks.failures)
    print(f"{wl.name} seed={seed} trace={args.trace} reps={len(timers)}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        for metric in sorted(set(METRIC_SITES) - {m['name'] for m in declared}):
            print(f"  {metric:28s} absent")
        print("  sites: " + ", ".join(f"{s}={v}" for s, v in trace_json["sites"].items()))
    print(f"  {'failed_frac':28s} {failed / checks.attempted:.6g} ({failed}/{checks.attempted})")
    print("env " + json.dumps(env, sort_keys=True))

    OUT_ROOT.mkdir(exist_ok=True)
    record = {"workload": wl.name, "seed": seed, "trace": args.trace, "environment": env,
              "unit_wall_s": [t.wall for t in timers], "metrics": metrics,
              "failures": checks.failures, "trace_data": trace_json}
    with open(OUT_ROOT / f"{wl.name}-seed{seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
