"""In-memory call tracing from outside the codiffuse package.

The tracer replaces module attributes that the package's entry points look up
at call time (for example `engine.step` or `sweep.kde`) with timing wrappers,
and restores them on `uninstall`. It also wraps the generator returned by
`engine.stream`, which gives random-draw time and, through `permutation`, the
number of RRG pairing attempts.

Every call is folded into aggregate statistics keyed by (entry, parent, site),
where the entry is the outermost traced site on the stack and the parent the
innermost: calls count, total time and self time (total minus the time of
traced callees). Coarse sites also keep one span per call (id, parent id,
site, start, end); hot per-step and scalar sites are aggregated only, to keep
memory and overhead bounded. Tracing is switched off in forked children, so
worker processes run the original code.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass

# (site name, module, attribute, kind). The site name is where the call is
# looked up, so a refactor that removes the attribute shows as an absent site.
# Kinds: "span" keeps one span per call, "agg" folds calls into statistics
# only, "count" only counts calls (for scalar functions timing would swamp).
SITES = (
    ("engine.stream", "engine", "stream", "span"),
    ("engine.build_rrg", "engine", "build_rrg", "span"),
    ("engine.seed_population", "engine", "seed_population", "span"),
    ("engine.run", "engine", "run", "span"),
    ("engine.step", "engine", "step", "agg"),
    ("engine.step_with_draws", "engine", "step_with_draws", "agg"),
    ("engine._neighbor_count", "engine", "_neighbor_count", "agg"),
    ("engine.hill_term_vec", "engine", "hill_term_vec", "agg"),
    ("sweep.sweep", "sweep", "sweep", "span"),
    ("sweep.run_single", "sweep", "run_single", "span"),
    ("sweep.analyze", "sweep", "analyze", "span"),
    ("sweep.run_ensemble", "sweep", "run_ensemble", "span"),
    ("sweep.iteration_ceilings", "sweep", "iteration_ceilings", "span"),
    ("sweep.kde", "sweep", "kde", "span"),
    ("sweep.ensemble_stats", "sweep", "ensemble_stats", "span"),
    ("sweep.write_series_csv", "sweep", "write_series_csv", "span"),
    ("sweep.write_ceilings_csv", "sweep", "write_ceilings_csv", "span"),
    ("sweep.write_heatmap_csv", "sweep", "write_heatmap_csv", "span"),
    ("sweep._write_modality", "sweep", "_write_modality", "span"),
    ("sweep._finalize_manifest", "sweep", "_finalize_manifest", "span"),
    ("sweep.read_series_csv", "sweep", "read_series_csv", "span"),
    ("sweep.read_ceilings_csv", "sweep", "read_ceilings_csv", "span"),
    ("meanfield.integrate", "meanfield", "integrate", "span"),
    ("meanfield.mf_rates", "meanfield", "mf_rates", "agg"),
    ("meanfield.hill_term", "meanfield", "hill_term", "count"),
)

# Methods of the wrapped generator, traced as sites of their own.
RNG_SITES = ("random", "permutation", "choice")

# Write functions whose first argument is the path of the one file they write.
PATH_WRITERS = {"sweep.write_series_csv", "sweep.write_ceilings_csv",
                "sweep.write_heatmap_csv"}


@dataclass
class Stat:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


class Tracer:
    def __init__(self):
        self.enabled = False
        self.present: dict[str, bool] = {}
        self.stats: dict[tuple[str, str, str], Stat] = {}
        self.counts: dict[str, int] = {}  # calls of "count" sites
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.files_written = 0
        self.bytes_written = 0
        self._pending_files: list[str] = []  # paths written since account_files()
        self._stack: list[list] = []  # [site, start_ns, child_ns, span_id]
        self._originals: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self):
        self.enabled = False

    # -- recording -------------------------------------------------------

    def _enter(self, site: str, keep_span: bool) -> None:
        span_id = len(self.spans) if keep_span else -1
        if keep_span:
            self.spans.append(None)  # placeholder, filled on exit
        self._stack.append([site, time.perf_counter_ns(), 0, span_id])

    def _exit(self) -> None:
        end = time.perf_counter_ns()
        site, start, child_ns, span_id = self._stack.pop()
        dur = end - start
        entry = self._stack[0][0] if self._stack else site
        parent = self._stack[-1][0] if self._stack else ""
        key = (entry, parent, site)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        stat.calls += 1
        stat.total_ns += dur
        stat.self_ns += dur - child_ns
        if self._stack:
            self._stack[-1][2] += dur
        if span_id >= 0:
            parent_id = next((f[3] for f in reversed(self._stack) if f[3] >= 0), -1)
            self.spans[span_id] = (span_id, parent_id, site, start, end)

    def _wrap(self, site: str, fn, kind: str):
        tracer = self
        if kind == "count":
            self.counts[site] = 0

            @functools.wraps(fn)
            def counter(*args, **kwargs):
                if tracer.enabled:
                    tracer.counts[site] += 1
                return fn(*args, **kwargs)

            return counter
        keep_span = kind == "span"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._enter(site, keep_span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            tracer._count_files(site, args, result)
            if site == "engine.stream":
                result = _TracedGenerator(result, tracer)
            return result

        return wrapper

    def _count_files(self, site: str, args: tuple, result) -> None:
        if site in PATH_WRITERS:
            self._pending_files.append(args[0])
        elif site == "sweep._write_modality":
            self._pending_files += [os.path.join(args[0], rel) for rel in result]
        elif site == "sweep._finalize_manifest":
            self._pending_files.append(os.path.join(args[0], "manifest.json"))

    def account_files(self) -> None:
        """Add the files written since the last call (while they still exist)."""
        self.files_written += len(self._pending_files)
        self.bytes_written += sum(os.path.getsize(p) for p in self._pending_files)
        self._pending_files.clear()

    # -- installation ----------------------------------------------------

    def install(self, modules: dict[str, object]) -> None:
        """Wrap every site whose attribute exists; record the others as absent."""
        for site, mod_name, attr, kind in SITES:
            module = modules[mod_name]
            fn = getattr(module, attr, None)
            self.present[site] = callable(fn)
            if not callable(fn):
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(site, fn, kind))
        for method in RNG_SITES:
            self.present[f"rng.{method}"] = self.present["engine.stream"]

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    # -- queries ---------------------------------------------------------

    def _select(self, site: str, entry: str | None, parent: str | None):
        return [s for (e, p, n), s in self.stats.items()
                if n == site and entry in (None, e) and parent in (None, p)]

    def total_ns(self, site: str, entry: str | None = None, parent: str | None = None) -> int:
        return sum(s.total_ns for s in self._select(site, entry, parent))

    def self_ns(self, site: str, entry: str | None = None, parent: str | None = None) -> int:
        return sum(s.self_ns for s in self._select(site, entry, parent))

    def calls(self, site: str, entry: str | None = None, parent: str | None = None) -> int:
        if site in self.counts:
            return self.counts[site]
        return sum(s.calls for s in self._select(site, entry, parent))

    def durations_ns(self, site: str) -> list[int]:
        return [span[4] - span[3] for span in self.spans
                if span is not None and span[2] == site]

    def to_json(self) -> dict:
        return {
            "sites": {site: ("present" if ok else "absent")
                      for site, ok in sorted(self.present.items())},
            "stats": [{"entry": e, "parent": p, "site": n, "calls": s.calls,
                       "total_ns": s.total_ns, "self_ns": s.self_ns}
                      for (e, p, n), s in sorted(self.stats.items())],
            "counts": dict(sorted(self.counts.items())),
            "spans": [list(span) for span in self.spans if span is not None],
        }


class _TracedGenerator:
    """Forwards to a numpy Generator, timing the draw methods the engine uses."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        for method in RNG_SITES:
            setattr(self, method, tracer._wrap(f"rng.{method}", getattr(gen, method), "agg"))

    def __getattr__(self, name):
        return getattr(self._gen, name)
