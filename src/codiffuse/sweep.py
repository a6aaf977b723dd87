"""Sweep orchestration and file emission.

`sweep` runs the (alpha, tau_a, tau_b) cube, one ensemble per parameter set;
`run` is the single-set variant that also stores every iteration's series. Both
use one scheduler over (set, iteration range) units: in this process for one
worker, over one process pool for more, splitting a set's iterations only when
workers outnumber sets. This process writes each set as soon as its last unit
arrives: the ensemble-mean time series (series/), the per-iteration ceilings
(ceilings/) and KDE modality reports for the two contagions (modality/); at the
end, heatmap.csv and a manifest.json with a content hash for every emitted
file. Every iteration has its own random stream, so all emitted bytes are a
pure function of the resolved config, identical at any worker count. `analyze`
refuses inputs whose bytes do not match the manifest.
"""

from __future__ import annotations

import concurrent.futures as cf
import hashlib
import json
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analysis import CATEGORIES, ensemble_stats, iteration_ceilings, kde
from .config import SweepSpec, enumerate_parameter_sets, run_config_for, spec_to_dict
from .engine import EnsembleResult, run_ensemble
from .errors import AnalysisError, ConfigurationError

SERIES_DIR = "series"
CEILINGS_DIR = "ceilings"
MODALITY_DIR = "modality"
MODALITY_CATEGORIES = ("a", "b")
HEATMAP_HEADER = "alpha,tau_a,tau_b,category,metric,value"


def set_tag(index: int, alpha: float, tau_a: float, tau_b: float) -> str:
    return f"set{index:04d}_a{alpha:g}_ta{tau_a:g}_tb{tau_b:g}"


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def _write_table(path: str, header: str, table: np.ndarray) -> None:
    """`header`, then one row per leading index: the index, then the row's values.

    Values go through `tolist()`, so ints print as ints and floats in shortest
    round-trip form: `analyze` re-reads the exact values the sweep computed.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for i, row in enumerate(table.tolist()):
            fh.write(f"{i}," + ",".join(map(repr, row)) + "\n")


def write_series_csv(path: str, counts: np.ndarray) -> None:
    """`step,naive,a,b,ab` rows; columns are the exclusive state counts."""
    _write_table(path, "step,naive,a,b,ab", counts)


def read_series_csv(path: str) -> np.ndarray:
    """Value columns of a series or ceilings CSV (header and index column dropped)."""
    with open(path, "r", encoding="utf-8") as fh:
        next(fh)
        rows = [[float(x) for x in line.strip().split(",")[1:]] for line in fh if line.strip()]
    return np.array(rows)


def write_ceilings_csv(path: str, ceilings: np.ndarray) -> None:
    """Per-iteration ceilings; a and b count every adopter of that contagion."""
    _write_table(path, "iteration,naive,a,b,ab", ceilings)


read_ceilings_csv = read_series_csv


def write_heatmap_csv(path: str, sets: list[tuple[int, float, float, float]],
                      stats: dict[int, list[tuple]]) -> None:
    """One row per (category, metric) of each set in `sets` order; a set without
    `stats` (failed or pruned) has no rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(HEATMAP_HEADER + "\n")
        for i, alpha, tau_a, tau_b in sets:
            for cat, metric, value in stats.get(i, ()):
                fh.write(f"{alpha:g},{tau_a:g},{tau_b:g},{cat},{metric},{_fmt(value)}\n")


def _write_modality(out_dir: str, tag: str, ceilings: np.ndarray) -> list[str]:
    """KDE reports for the contagion categories; skipped below 2 iterations."""
    written = []
    if ceilings.shape[0] < 2:
        return written
    for cat in MODALITY_CATEGORIES:
        report = kde(ceilings[:, CATEGORIES.index(cat)])
        rel = os.path.join(MODALITY_DIR, f"{tag}_{cat}.json")
        with open(os.path.join(out_dir, rel), "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report.to_json_dict(), fh, sort_keys=True)
            fh.write("\n")
        written.append(rel)
    return written


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _ensure_dirs(out_dir: str, subdirs: tuple[str, ...]) -> None:
    for sub in subdirs:
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)


def _absorption(absorbed_at: np.ndarray) -> dict:
    """Manifest summary of a set's per-iteration absorption steps."""
    return {"min": int(absorbed_at.min()), "p50": float(np.median(absorbed_at)),
            "max": int(absorbed_at.max())}


def _sweep_task(spec: SweepSpec, index: int, alpha: float, tau_a: float,
                tau_b: float, iterations: range) -> EnsembleResult:
    """Counts and absorption steps of one set's iterations `iterations`."""
    return run_ensemble(run_config_for(spec, index, alpha, tau_a, tau_b), iterations)


def _emit_set(out_dir: str, tag: str, ens: EnsembleResult, per_iteration: bool,
              files: list[str]) -> list[tuple]:
    """Write one set's files, appending each relative path to `files` once it is
    on disk; returns the set's (category, metric, value) statistics."""
    if per_iteration:
        for it, counts in enumerate(ens.counts):
            rel = os.path.join(SERIES_DIR, f"{tag}_iter{it:03d}.csv")
            write_series_csv(os.path.join(out_dir, rel), counts)
            files.append(rel)
    mean_counts = ens.mean
    ceilings = iteration_ceilings(ens.counts)
    rel = os.path.join(SERIES_DIR, f"{tag}_mean.csv")
    write_series_csv(os.path.join(out_dir, rel), mean_counts)
    files.append(rel)
    rel = os.path.join(CEILINGS_DIR, f"{tag}.csv")
    write_ceilings_csv(os.path.join(out_dir, rel), ceilings)
    files.append(rel)
    files += _write_modality(out_dir, tag, ceilings)
    return ensemble_stats(mean_counts, ceilings)


def _manifest_skeleton(spec: SweepSpec, command: str, workers: int,
                       sets: list[tuple[int, float, float, float]]) -> dict:
    return {
        "tool": "codiffuse",
        "version": __version__,
        "command": command,
        "created_utc": _utc_now(),
        "finished_utc": None,
        "workers": workers,
        "config": spec_to_dict(spec),
        "parameter_sets": [
            {"index": i, "alpha": a, "tau_a": ta, "tau_b": tb, "stream_key": [spec.seed, i]}
            for i, a, ta, tb in sets
        ],
        "files": {},
        "failures": [],
    }


def _finalize_manifest(out_dir: str, manifest: dict, files: list[str]) -> None:
    manifest["finished_utc"] = _utc_now()
    manifest["files"] = {rel: _sha256(os.path.join(out_dir, rel)) for rel in sorted(files)}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_units(spec: SweepSpec, units: list, workers: int, collect) -> None:
    """Compute every (set, iteration range) unit and hand `collect` each result,
    or the exception that failed it, in this process as it arrives.

    One worker computes in this process, where a tracer or profiler sees it;
    more share one pool. A finished future leaves `futures` before `collect`
    sees its result, so no result outlives its `collect` call here. When
    `collect` raises, units not yet started are cancelled.
    """
    if workers <= 1:
        for unit in units:
            try:
                result = _sweep_task(spec, *unit[0], unit[1])
            except Exception as exc:  # isolate the parameter set
                result = exc
            collect(unit, result)
        return
    pool = cf.ProcessPoolExecutor(max_workers=min(workers, len(units)))
    try:
        futures = {pool.submit(_sweep_task, spec, *s, its): (s, its) for s, its in units}
        for fut in cf.as_completed(futures):
            unit = futures.pop(fut)
            exc = fut.exception()
            collect(unit, fut.result() if exc is None else exc)
    finally:
        pool.shutdown(cancel_futures=True)


def _simulate(spec: SweepSpec, out_dir: str, workers: int, command: str,
              sets: list[tuple[int, float, float, float]], per_iteration: bool) -> dict:
    """Run `sets` and write each one as soon as its last unit is back; returns
    the manifest.

    A set's iterations are split into strided ranges only when workers
    outnumber sets. A set holds its counts only until it is written. A failed
    unit fails its set, which is recorded once under manifest["failures"] and
    does not stop the others. Files are written by this process only.
    """
    _ensure_dirs(out_dir, (SERIES_DIR, CEILINGS_DIR, MODALITY_DIR))
    manifest = _manifest_skeleton(spec, command, workers, sets)
    parts = max(1, min(spec.iterations, workers // len(sets)))
    units = [(s, range(k, spec.iterations, parts)) for s in sets for k in range(parts)]
    arrived: dict[int, list] = {}
    stats: dict[int, list[tuple]] = {}
    files: list[str] = []
    t0 = time.monotonic()

    def collect(unit, result) -> None:
        (i, alpha, ta, tb), its = unit
        got = arrived.setdefault(i, [])
        got.append((its, result))
        if len(got) < parts:
            return
        del arrived[i]
        errors = [r for _, r in got if isinstance(r, BaseException)]
        absorbed = ""
        if errors:
            manifest["failures"].append(
                {"index": i, "error": f"{type(errors[0]).__name__}: {errors[0]}"})
        else:
            counts = np.empty((spec.iterations, spec.steps, 4), dtype=np.int64)
            absorbed_at = np.empty(spec.iterations, dtype=np.int64)
            for part_its, part in got:
                counts[part_its] = part.counts
                absorbed_at[part_its] = part.absorbed_at
            summary = _absorption(absorbed_at)
            manifest["parameter_sets"][i]["absorbed_at"] = summary
            absorbed = f" absorbed p50={summary['p50']:g}/{spec.steps}"
            stats[i] = _emit_set(out_dir, set_tag(i, alpha, ta, tb),
                                 EnsembleResult(counts=counts, absorbed_at=absorbed_at),
                                 per_iteration, files)
        _progress(f"[{len(stats) + len(manifest['failures'])}/{len(sets)}] "
                  f"set {i} done ({time.monotonic() - t0:.1f}s){absorbed}")

    try:
        _run_units(spec, units, workers, collect)
        write_heatmap_csv(os.path.join(out_dir, "heatmap.csv"), sets, stats)
        files.append("heatmap.csv")
    except OSError as exc:
        # Abort, but leave a manifest covering whatever reached disk.
        manifest["failures"].append({"index": None, "error": f"io: {exc}"})
        _finalize_manifest(out_dir, manifest, files)
        raise
    _finalize_manifest(out_dir, manifest, files)
    return manifest


def sweep(spec: SweepSpec, out_dir: str, workers: int = 1) -> dict:
    """Run the whole parameter cube; returns the manifest dict."""
    sets = enumerate_parameter_sets(spec)
    if not sets:
        raise ConfigurationError("parameter cube is empty (constraint filtered everything)")
    return _simulate(spec, out_dir, workers, "sweep", sets, per_iteration=False)


def run_single(spec: SweepSpec, out_dir: str, workers: int = 1) -> dict:
    """One parameter set with full per-iteration series on disk; returns the
    manifest dict.

    The config's alpha/tau lists must each hold exactly one value.
    """
    for name, values in (("alpha", spec.alphas), ("tau_a", spec.tau_a), ("tau_b", spec.tau_b)):
        if len(values) != 1:
            raise ConfigurationError(
                f"run wants a single parameter set; {name} has {len(values)} values")
    sets = enumerate_parameter_sets(spec)
    if not sets:
        raise ConfigurationError("parameter set filtered out by the tau_b < tau_a constraint")
    return _simulate(spec, out_dir, workers, "run", sets, per_iteration=True)


def analyze(out_dir: str) -> None:
    """Recompute heatmap and modality reports from a sweep's or run's stored series.

    Reads the manifest for the parameter list, then the per-set mean series and
    per-iteration ceilings; rewrites heatmap.csv and modality/ in place. Before
    it reads or writes anything, every input must match its manifest hash.
    """
    manifest_path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise ConfigurationError(f"no manifest.json under {out_dir}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    sets = [(e["index"], e["alpha"], e["tau_a"], e["tau_b"]) for e in manifest["parameter_sets"]]
    inputs = []
    for i, alpha, ta, tb in sets:
        tag = set_tag(i, alpha, ta, tb)
        rels = (os.path.join(SERIES_DIR, f"{tag}_mean.csv"), os.path.join(CEILINGS_DIR, f"{tag}.csv"))
        paths = [os.path.join(out_dir, rel) for rel in rels]
        if not all(os.path.exists(path) for path in paths):
            continue  # failed or pruned set
        for rel, path in zip(rels, paths):
            digest = manifest["files"].get(rel)
            if digest is None:
                raise AnalysisError(f"{rel} is not listed in manifest.json")
            if digest != _sha256(path):
                raise AnalysisError(f"{rel} does not match its manifest.json hash")
        inputs.append((i, tag, *paths))
    stats: dict[int, list[tuple]] = {}
    for i, tag, mean_path, ceil_path in inputs:
        mean_counts = read_series_csv(mean_path)
        ceilings = read_ceilings_csv(ceil_path)
        _write_modality(out_dir, tag, ceilings)
        stats[i] = ensemble_stats(mean_counts, ceilings)
    write_heatmap_csv(os.path.join(out_dir, "heatmap.csv"), sets, stats)
