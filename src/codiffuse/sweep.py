"""Sweep orchestration and file emission.

A sweep runs the (alpha, tau_a, tau_b) cube, one ensemble per parameter set,
scheduled over a process pool. Per set it writes the ensemble-mean time series
(series/), the per-iteration ceilings (ceilings/), and KDE modality reports for
the two contagions (modality/); plus one heatmap.csv and a manifest.json with a
content hash for every emitted file. All emitted bytes are a pure function of
the resolved config, so reruns are byte-identical at any worker count.

The `run` entry point is the single-parameter-set variant that additionally
stores every iteration's series.
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
from .engine import run_ensemble
from .errors import ConfigurationError

SERIES_DIR = "series"
CEILINGS_DIR = "ceilings"
MODALITY_DIR = "modality"
MODALITY_CATEGORIES = ("a", "b")
HEATMAP_HEADER = "alpha,tau_a,tau_b,category,metric,value"


def set_tag(index: int, alpha: float, tau_a: float, tau_b: float) -> str:
    return f"set{index:04d}_a{alpha:g}_ta{tau_a:g}_tb{tau_b:g}"


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def write_series_csv(path: str, counts: np.ndarray, as_int: bool) -> None:
    """`step,naive,a,b,ab` rows; columns are the exclusive state counts.

    Float rows use shortest round-trip formatting so `analyze` re-reads the
    exact values the sweep computed.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,naive,a,b,ab\n")
        for t, row in enumerate(counts):
            if as_int:
                fh.write(f"{t}," + ",".join(str(int(x)) for x in row) + "\n")
            else:
                fh.write(f"{t}," + ",".join(repr(float(x)) for x in row) + "\n")


def read_series_csv(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        next(fh)
        rows = [[float(x) for x in line.strip().split(",")[1:]] for line in fh if line.strip()]
    return np.array(rows)


def write_ceilings_csv(path: str, ceilings: np.ndarray) -> None:
    """Per-iteration ceilings; a and b count every adopter of that contagion."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,naive,a,b,ab\n")
        for i, row in enumerate(ceilings):
            fh.write(f"{i}," + ",".join(repr(float(x)) for x in row) + "\n")


def read_ceilings_csv(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        next(fh)
        rows = [[float(x) for x in line.strip().split(",")[1:]] for line in fh if line.strip()]
    return np.array(rows)


def write_heatmap_csv(path: str, rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(HEATMAP_HEADER + "\n")
        for alpha, tau_a, tau_b, cat, metric, value in rows:
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
                tau_b: float) -> tuple[np.ndarray, np.ndarray, dict]:
    """Mean series, per-iteration ceilings and the absorption summary of one set."""
    cfg = run_config_for(spec, index, alpha, tau_a, tau_b)
    ens = run_ensemble(cfg, spec.iterations)
    return ens.mean, iteration_ceilings(ens.counts), _absorption(ens.absorbed_at)


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


def sweep(spec: SweepSpec, out_dir: str, workers: int = 1) -> dict:
    """Run the whole parameter cube; returns the manifest dict.

    A failed parameter set is recorded under manifest["failures"] and does not
    stop the others. Files are written by this process only, in index order.
    """
    sets = enumerate_parameter_sets(spec)
    if not sets:
        raise ConfigurationError("parameter cube is empty (constraint filtered everything)")
    _ensure_dirs(out_dir, (SERIES_DIR, CEILINGS_DIR, MODALITY_DIR))
    manifest = _manifest_skeleton(spec, "sweep", workers, sets)

    results: dict[int, tuple[np.ndarray, np.ndarray, dict]] = {}
    t0 = time.monotonic()

    def done(i: int) -> None:
        absorbed = ""
        if i in results:
            summary = results[i][2]
            manifest["parameter_sets"][i]["absorbed_at"] = summary
            absorbed = f" absorbed p50={summary['p50']:g}/{spec.steps}"
        _progress(f"[{len(results) + len(manifest['failures'])}/{len(sets)}] "
                  f"set {i} done ({time.monotonic() - t0:.1f}s){absorbed}")

    if workers <= 1:
        for i, alpha, ta, tb in sets:
            try:
                results[i] = _sweep_task(spec, i, alpha, ta, tb)
            except Exception as exc:  # isolate the parameter set
                manifest["failures"].append({"index": i, "error": f"{type(exc).__name__}: {exc}"})
            done(i)
    else:
        with cf.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_sweep_task, spec, i, a, ta, tb): i
                       for i, a, ta, tb in sets}
            for fut in cf.as_completed(futures):
                i = futures[fut]
                exc = fut.exception()
                if exc is not None:
                    manifest["failures"].append({"index": i, "error": f"{type(exc).__name__}: {exc}"})
                else:
                    results[i] = fut.result()
                done(i)

    files: list[str] = []
    heatmap_rows: list[tuple] = []
    try:
        for i, alpha, ta, tb in sets:
            if i not in results:
                continue
            mean_counts, ceilings, _ = results[i]
            tag = set_tag(i, alpha, ta, tb)
            rel_mean = os.path.join(SERIES_DIR, f"{tag}_mean.csv")
            write_series_csv(os.path.join(out_dir, rel_mean), mean_counts, as_int=False)
            rel_ceil = os.path.join(CEILINGS_DIR, f"{tag}.csv")
            write_ceilings_csv(os.path.join(out_dir, rel_ceil), ceilings)
            files += [rel_mean, rel_ceil]
            files += _write_modality(out_dir, tag, ceilings)
            for cat, metric, value in ensemble_stats(mean_counts, ceilings):
                heatmap_rows.append((alpha, ta, tb, cat, metric, value))
        write_heatmap_csv(os.path.join(out_dir, "heatmap.csv"), heatmap_rows)
        files.append("heatmap.csv")
    except OSError as exc:
        # Abort, but leave a manifest covering whatever reached disk.
        manifest["failures"].append({"index": None, "error": f"io: {exc}"})
        _finalize_manifest(out_dir, manifest, [f for f in files
                           if os.path.exists(os.path.join(out_dir, f))])
        raise
    _finalize_manifest(out_dir, manifest, files)
    return manifest


def run_single(spec: SweepSpec, out_dir: str, workers: int = 1) -> dict:
    """One parameter set with full per-iteration series on disk.

    The config's alpha/tau lists must each hold exactly one value.
    """
    for name, values in (("alpha", spec.alphas), ("tau_a", spec.tau_a), ("tau_b", spec.tau_b)):
        if len(values) != 1:
            raise ConfigurationError(
                f"run wants a single parameter set; {name} has {len(values)} values")
    sets = enumerate_parameter_sets(spec)
    if not sets:
        raise ConfigurationError("parameter set filtered out by the tau_b < tau_a constraint")
    i, alpha, ta, tb = sets[0]
    _ensure_dirs(out_dir, (SERIES_DIR, CEILINGS_DIR, MODALITY_DIR))
    manifest = _manifest_skeleton(spec, "run", workers, sets)

    cfg = run_config_for(spec, i, alpha, ta, tb)
    ens = run_ensemble(cfg, spec.iterations, workers=workers)
    manifest["parameter_sets"][0]["absorbed_at"] = _absorption(ens.absorbed_at)
    ceilings = iteration_ceilings(ens.counts)
    tag = set_tag(i, alpha, ta, tb)

    files: list[str] = []
    for it in range(ens.iterations):
        rel = os.path.join(SERIES_DIR, f"{tag}_iter{it:03d}.csv")
        write_series_csv(os.path.join(out_dir, rel), ens.counts[it], as_int=True)
        files.append(rel)
    rel_mean = os.path.join(SERIES_DIR, f"{tag}_mean.csv")
    write_series_csv(os.path.join(out_dir, rel_mean), ens.mean, as_int=False)
    rel_ceil = os.path.join(CEILINGS_DIR, f"{tag}.csv")
    write_ceilings_csv(os.path.join(out_dir, rel_ceil), ceilings)
    files += [rel_mean, rel_ceil]
    files += _write_modality(out_dir, tag, ceilings)

    rows = [(alpha, ta, tb, cat, metric, value)
            for cat, metric, value in ensemble_stats(ens.mean, ceilings)]
    write_heatmap_csv(os.path.join(out_dir, "heatmap.csv"), rows)
    files.append("heatmap.csv")
    _finalize_manifest(out_dir, manifest, files)
    return manifest


def analyze(out_dir: str) -> None:
    """Recompute heatmap and modality reports from the stored series of a sweep.

    Reads the manifest for the parameter list, then the per-set mean series and
    per-iteration ceilings; rewrites heatmap.csv and modality/ in place.
    """
    manifest_path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise ConfigurationError(f"no manifest.json under {out_dir}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    heatmap_rows: list[tuple] = []
    for entry in manifest["parameter_sets"]:
        i, alpha, ta, tb = entry["index"], entry["alpha"], entry["tau_a"], entry["tau_b"]
        tag = set_tag(i, alpha, ta, tb)
        mean_path = os.path.join(out_dir, SERIES_DIR, f"{tag}_mean.csv")
        ceil_path = os.path.join(out_dir, CEILINGS_DIR, f"{tag}.csv")
        if not (os.path.exists(mean_path) and os.path.exists(ceil_path)):
            continue  # failed or pruned set
        mean_counts = read_series_csv(mean_path)
        ceilings = read_ceilings_csv(ceil_path)
        _write_modality(out_dir, tag, ceilings)
        for cat, metric, value in ensemble_stats(mean_counts, ceilings):
            heatmap_rows.append((alpha, ta, tb, cat, metric, value))
    write_heatmap_csv(os.path.join(out_dir, "heatmap.csv"), heatmap_rows)
