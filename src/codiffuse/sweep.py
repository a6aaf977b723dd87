"""Sweep orchestration and file emission.

`sweep` runs the (alpha, tau_a, tau_b) cube, one ensemble per parameter set;
`run` is the single-set variant that also stores every iteration's series. Both
use one scheduler over (set, iteration range) units: one process pool of at
most one process per worker, unit and usable CPU, or this process alone when
that pool would hold one; a set's iterations are split only when workers
outnumber sets. This process writes each set as soon as its last unit arrives:
the ensemble-mean time series (series/), the per-iteration ceilings (ceilings/)
and KDE modality reports for the two contagions (modality/); at the end,
heatmap.csv and a manifest.json with the sha256 of every emitted file, each
written whole by `write_text` and entered in manifest["files"] by its writer.
Every iteration has its own random stream, so all emitted bytes are a pure
function of the resolved config, identical at any worker count. `analyze` refuses inputs whose bytes do not match the manifest.
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
from .config import (SweepSpec, nonempty_parameter_sets, run_config_for,
                     single_parameter_set, spec_to_dict)
from .engine import run_ensemble
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


def write_text(path: str, text: str) -> str:
    """Write `text` as UTF-8 to `<path>.tmp`, then rename it over `path`, so
    `path` holds its old bytes or all the new ones, never a part (no fsync: this
    survives a dying process, not power loss). Returns the bytes' sha256."""
    data = text.encode("utf-8")
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the rename failed
            os.remove(tmp)
    return hashlib.sha256(data).hexdigest()


def _write_table(path: str, header: str, table: np.ndarray) -> str:
    """`header`, then one row per leading index: the index, then the row's values.

    Values go through `tolist()`, so ints print as ints and floats in shortest
    round-trip form: `analyze` re-reads the exact values the sweep computed.
    """
    rows = (f"{i}," + ",".join(map(repr, row)) + "\n" for i, row in enumerate(table.tolist()))
    return write_text(path, header + "\n" + "".join(rows))


def write_series_csv(path: str, counts: np.ndarray) -> str:
    """`step,naive,a,b,ab` rows; columns are the exclusive state counts."""
    return _write_table(path, "step,naive,a,b,ab", counts)


def read_series_csv(path: str) -> np.ndarray:
    """Value columns of a series or ceilings CSV (header and index column dropped)."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]


def write_ceilings_csv(path: str, ceilings: np.ndarray) -> str:
    """Per-iteration ceilings; a and b count every adopter of that contagion."""
    return _write_table(path, "iteration,naive,a,b,ab", ceilings)


read_ceilings_csv = read_series_csv


def write_heatmap_csv(path: str, sets: list[tuple[int, float, float, float]],
                      stats: dict[int, list[tuple]]) -> str:
    """One row per (category, metric) of each set in `sets` order; a set without
    `stats` (failed or pruned) has no rows."""
    rows = (f"{alpha:g},{tau_a:g},{tau_b:g},{cat},{metric},{_fmt(value)}\n"
            for i, alpha, tau_a, tau_b in sets for cat, metric, value in stats.get(i, ()))
    return write_text(path, HEATMAP_HEADER + "\n" + "".join(rows))


def _write_modality(out_dir: str, tag: str, ceilings: np.ndarray, files: dict[str, str]) -> dict:
    """KDE reports as {rel: sha256}, each put in `files` once on disk; none below 2 iterations."""
    written = {}
    if ceilings.shape[0] < 2:
        return written
    for cat in MODALITY_CATEGORIES:
        report = kde(ceilings[:, CATEGORIES.index(cat)])
        rel = os.path.join(MODALITY_DIR, f"{tag}_{cat}.json")
        files[rel] = written[rel] = write_text(
            os.path.join(out_dir, rel), json.dumps(report, sort_keys=True) + "\n")
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


def usable_cpus() -> int:
    """CPUs this process may run on: the default worker count and the pool cap."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _sweep_task(spec: SweepSpec, index: int, alpha: float, tau_a: float,
                tau_b: float, iterations: range) -> tuple[np.ndarray, np.ndarray]:
    """Counts and absorption steps of one set's iterations `iterations`."""
    return run_ensemble(run_config_for(spec, index, alpha, tau_a, tau_b), iterations)


def _set_inputs(tag: str) -> tuple[str, str]:
    """The mean series and ceilings of one set, relative to the output
    directory: what `_emit_set` writes and `analyze` reads back."""
    return os.path.join(SERIES_DIR, f"{tag}_mean.csv"), os.path.join(CEILINGS_DIR, f"{tag}.csv")


def _emit_set(out_dir: str, tag: str, counts: np.ndarray, per_iteration: bool,
              files: dict[str, str]) -> list[tuple]:
    """Write the files of one set's (iterations, steps, 4) counts, adding each to
    `files` as rel: sha256 once it is on disk; returns the set's (category,
    metric, value) statistics."""
    if per_iteration:
        for it, series in enumerate(counts):
            rel = os.path.join(SERIES_DIR, f"{tag}_iter{it:03d}.csv")
            files[rel] = write_series_csv(os.path.join(out_dir, rel), series)
    mean_counts = counts.mean(axis=0)
    ceilings = iteration_ceilings(counts)
    mean_rel, ceil_rel = _set_inputs(tag)
    files[mean_rel] = write_series_csv(os.path.join(out_dir, mean_rel), mean_counts)
    files[ceil_rel] = write_ceilings_csv(os.path.join(out_dir, ceil_rel), ceilings)
    _write_modality(out_dir, tag, ceilings, files)
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
            {"index": i, "alpha": a, "tau_a": ta, "tau_b": tb} for i, a, ta, tb in sets
        ],
        "files": {},
        "failures": [],
    }


def _write_manifest(out_dir: str, manifest: dict) -> None:
    write_text(os.path.join(out_dir, "manifest.json"),
               json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _finalize_manifest(out_dir: str, manifest: dict) -> None:
    manifest["finished_utc"] = _utc_now()
    _write_manifest(out_dir, manifest)


def _run_units(spec: SweepSpec, units: list, workers: int, collect) -> None:
    """Compute every (set, iteration range) unit and hand `collect` each result,
    or the exception that failed it, in this process as it arrives.

    A pool of `workers` processes computes the units; at one worker, this
    process computes every unit itself, where a tracer or profiler sees it. A
    finished future leaves `futures` before `collect` sees its result, so no
    result outlives its `collect` call here. When `collect` raises, units not
    yet started are cancelled.
    """
    if workers <= 1:
        for unit in units:
            try:
                result = _sweep_task(spec, *unit[0], unit[1])
            except Exception as exc:  # isolate the parameter set
                result = exc
            collect(unit, result)
        return
    pool = cf.ProcessPoolExecutor(max_workers=workers)
    try:
        futures = {pool.submit(_sweep_task, spec, *s, its): (s, its) for s, its in units}
        for fut in cf.as_completed(futures):
            unit = futures.pop(fut)
            exc = fut.exception()
            collect(unit, fut.result() if exc is None else exc)
    finally:
        pool.shutdown(cancel_futures=True)


def _simulate(spec: SweepSpec, out_dir: str, workers: int, command: str,
              sets: list[tuple[int, float, float, float]]) -> dict:
    """Run `sets` and write each one as soon as its last unit is back; returns
    the manifest. `run` also writes every iteration's series.

    A set's iterations are split into strided ranges only when the workers
    that can run, `workers` capped at `usable_cpus()`, outnumber sets.
    manifest["workers"] records the processes that ran: those workers, capped
    again at the number of units; 1 means this process computed every unit. A
    set holds its counts only until it is written. A failed unit fails its
    set, which is recorded once under manifest["failures"] and does not stop
    the others. This process alone writes files, each whole. Any other
    exception, an interrupt included, aborts the command: the manifest
    is still written, lists exactly the files on disk with their hashes and
    records the abort under one failure with index None; the exception propagates.
    A worker count below 1 is refused before any directory is made.
    """
    if workers < 1:
        raise ConfigurationError(f"worker count must be >= 1, got {workers}")
    _ensure_dirs(out_dir, (SERIES_DIR, CEILINGS_DIR, MODALITY_DIR))
    workers = min(workers, usable_cpus())
    parts = max(1, min(spec.iterations, workers // len(sets)))
    units = [(s, range(k, spec.iterations, parts)) for s in sets for k in range(parts)]
    workers = min(workers, len(units))
    manifest = _manifest_skeleton(spec, command, workers, sets)
    arrived: dict[int, list] = {}
    stats: dict[int, list[tuple]] = {}
    files = manifest["files"]
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
            for part_its, (part_counts, part_absorbed_at) in got:
                counts[part_its] = part_counts
                absorbed_at[part_its] = part_absorbed_at
            summary = _absorption(absorbed_at)
            manifest["parameter_sets"][i]["absorbed_at"] = summary
            absorbed = f" absorbed p50={summary['p50']:g}/{spec.steps}"
            stats[i] = _emit_set(out_dir, set_tag(i, alpha, ta, tb), counts,
                                 command == "run", files)
        _progress(f"[{len(stats) + len(manifest['failures'])}/{len(sets)}] "
                  f"set {i} done ({time.monotonic() - t0:.1f}s){absorbed}")

    try:
        _run_units(spec, units, workers, collect)
        files["heatmap.csv"] = write_heatmap_csv(os.path.join(out_dir, "heatmap.csv"), sets, stats)
    except BaseException as exc:
        manifest["failures"].append(
            {"index": None, "error": f"aborted: {type(exc).__name__}: {exc}"})
        raise
    finally:
        _finalize_manifest(out_dir, manifest)
    return manifest


def sweep(spec: SweepSpec, out_dir: str, workers: int = 1) -> dict:
    """Run the whole parameter cube; returns the manifest dict."""
    return _simulate(spec, out_dir, workers, "sweep", nonempty_parameter_sets(spec))


def run_single(spec: SweepSpec, out_dir: str, workers: int = 1) -> dict:
    """One parameter set with full per-iteration series on disk; returns the
    manifest dict.

    The config must enumerate exactly one parameter set.
    """
    return _simulate(spec, out_dir, workers, "run", [single_parameter_set(spec, "run")])


def analyze(out_dir: str) -> None:
    """Recompute heatmap and modality reports from a sweep's or run's stored series.

    Reads the manifest for the parameter list, then the per-set mean series and
    per-iteration ceilings; rewrites heatmap.csv and modality/ in place, then
    manifest.json with those files' new hashes and nothing else changed, also
    when a write fails, so the manifest matches the disk. Before it reads or
    writes anything, every input must be listed in the manifest, be on disk and
    match its hash. A set with an input that is both unlisted and absent is
    skipped: it failed, or an aborted sweep never wrote it.
    """
    manifest_path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise ConfigurationError(f"no manifest.json under {out_dir}")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        sets = [(e["index"], e["alpha"], e["tau_a"], e["tau_b"])
                for e in manifest["parameter_sets"]]
        tags = [set_tag(*s) for s in sets]
        listed = manifest["files"]
        if not isinstance(listed, dict):
            raise TypeError(f"files is a {type(listed).__name__}, not an object")
    except (ValueError, KeyError, TypeError) as exc:  # not JSON, a key missing or mistyped
        raise AnalysisError(f"malformed manifest.json: {type(exc).__name__}: {exc}") from exc
    inputs = []
    for (i, *_), tag in zip(sets, tags):
        rels = _set_inputs(tag)
        paths = [os.path.join(out_dir, rel) for rel in rels]
        if any(rel not in listed and not os.path.exists(path) for rel, path in zip(rels, paths)):
            continue  # a failed set, or one an aborted sweep never wrote
        for rel, path in zip(rels, paths):
            if rel not in listed:
                raise AnalysisError(f"{rel} is not listed in manifest.json")
            if not os.path.exists(path):
                raise AnalysisError(f"{rel} is listed in manifest.json but missing")
            if listed[rel] != _sha256(path):
                raise AnalysisError(f"{rel} does not match its manifest.json hash")
        inputs.append((i, tag, *paths))
    stats: dict[int, list[tuple]] = {}
    try:
        for i, tag, mean_path, ceil_path in inputs:
            mean_counts = read_series_csv(mean_path)
            ceilings = read_ceilings_csv(ceil_path)
            _write_modality(out_dir, tag, ceilings, listed)
            stats[i] = ensemble_stats(mean_counts, ceilings)
        listed["heatmap.csv"] = write_heatmap_csv(os.path.join(out_dir, "heatmap.csv"), sets, stats)
    finally:
        _write_manifest(out_dir, manifest)
