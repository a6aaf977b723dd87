import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import codiffuse
from codiffuse.analysis import CATEGORIES, kde
from codiffuse.cli import main
from codiffuse.config import spec_from_dict
from codiffuse.sweep import (
    HEATMAP_HEADER,
    analyze,
    read_ceilings_csv,
    read_series_csv,
    run_single,
    sweep,
    write_ceilings_csv,
    write_series_csv,
    write_text,
)

TINY = {
    "alpha": [0.3, 0.9],
    "tau_a": [0.0, 0.05],
    "tau_b": [0.02],
    "iterations": 3,
    "steps": 25,
    "graph": {"side": 8},
    "seed": 314,
}


def tree_bytes(root, suffix):
    """{relative path: bytes} for every file under root with the suffix."""
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in sorted(files):
            if name.endswith(suffix):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, root)] = fh.read()
    return out


@pytest.fixture
def pool_sizes(monkeypatch):
    """The size of every process pool the sweep builds; each is a stub that runs
    its tasks at submit and starts no process."""
    import concurrent.futures as cf

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            fut = cf.Future()
            fut.set_result(fn(*args))
            return fut

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(cf, "ProcessPoolExecutor", InProcessPool)
    return sizes


class TestSweepOutputs:
    def test_minimal_sweep_file_inventory(self, tmp_path):
        spec = spec_from_dict({"alpha": [0.5], "tau_a": [0.0], "tau_b": [0.0],
                               "iterations": 1, "steps": 20, "graph": {"side": 6},
                               "seed": 1})
        out = str(tmp_path / "out")
        manifest = sweep(spec, out, workers=1)
        series = os.listdir(os.path.join(out, "series"))
        assert len(series) == 1  # one time-series file for a 1x1x1 single-iteration sweep
        with open(os.path.join(out, "heatmap.csv")) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == HEATMAP_HEADER
        assert len(lines) - 1 == 12  # 4 categories x 3 metrics
        assert manifest["failures"] == []
        # single iteration: no KDE possible, so no modality reports
        assert os.listdir(os.path.join(out, "modality")) == []

    def test_sweep_row_count_matches_cube(self, tmp_path):
        spec = spec_from_dict(TINY)
        out = str(tmp_path / "out")
        sweep(spec, out, workers=1)
        with open(os.path.join(out, "heatmap.csv")) as fh:
            rows = fh.read().strip().split("\n")[1:]
        assert len(rows) == 2 * 2 * 1 * 4 * 3

    def test_manifest_hashes_every_file(self, tmp_path):
        spec = spec_from_dict(TINY)
        out = str(tmp_path / "out")
        manifest = sweep(spec, out, workers=1)
        assert len(manifest["parameter_sets"]) == 4
        for rel, digest in manifest["files"].items():
            with open(os.path.join(out, rel), "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest
        on_disk = {rel for rel in tree_bytes(out, "").keys() if rel != "manifest.json"}
        assert set(manifest["files"]) == on_disk

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = spec_from_dict(TINY)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        sweep(spec, out1, workers=1)
        sweep(spec, out2, workers=1)
        assert tree_bytes(out1, ".csv") == tree_bytes(out2, ".csv")
        assert tree_bytes(out1, ".json").keys() == tree_bytes(out2, ".json").keys()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        spec = spec_from_dict(TINY)
        out1, out2 = str(tmp_path / "w1"), str(tmp_path / "w2")
        sweep(spec, out1, workers=1)
        sweep(spec, out2, workers=3)
        assert tree_bytes(out1, ".csv") == tree_bytes(out2, ".csv")

    def test_series_csv_round_trip(self, tmp_path):
        spec = spec_from_dict(TINY)
        out = str(tmp_path / "out")
        sweep(spec, out, workers=1)
        tag_mean = sorted(os.listdir(os.path.join(out, "series")))[0]
        mean = read_series_csv(os.path.join(out, "series", tag_mean))
        assert mean.shape == (25, 4)
        np.testing.assert_allclose(mean.sum(axis=1), 64.0)
        tag_ceil = sorted(os.listdir(os.path.join(out, "ceilings")))[0]
        ceilings = read_ceilings_csv(os.path.join(out, "ceilings", tag_ceil))
        assert ceilings.shape == (3, 4)

    def test_tables_print_python_scalars_and_round_trip(self, tmp_path):
        path = str(tmp_path / "table.csv")
        ints = np.array([[6400, 0, 0, 0], [1, 2, 3, 6394]], dtype=np.int64)
        write_series_csv(path, ints)
        with open(path) as fh:
            assert fh.read() == "step,naive,a,b,ab\n0,6400,0,0,0\n1,1,2,3,6394\n"
        np.testing.assert_array_equal(read_series_csv(path), ints)
        floats = np.array([[0.1, 1 / 3, 2.5, 6400.0]])
        write_ceilings_csv(path, floats)
        with open(path) as fh:
            assert fh.read() == "iteration,naive,a,b,ab\n0,0.1,0.3333333333333333,2.5,6400.0\n"
        np.testing.assert_array_equal(read_ceilings_csv(path), floats)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(table=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                            elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_any_float_table_round_trips_exactly(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "table.csv")
            write_ceilings_csv(path, table)
            np.testing.assert_array_equal(read_ceilings_csv(path), table)

    @pytest.mark.parametrize("entry, overrides", [
        (sweep, {}),
        (run_single, {"alpha": [0.9], "tau_a": [0.05]}),
    ], ids=["sweep", "run"])
    def test_analyze_reproduces_heatmap_and_modality(self, tmp_path, entry, overrides):
        spec = spec_from_dict({**TINY, **overrides})
        out = str(tmp_path / "out")
        entry(spec, out, workers=1)
        before_heat = tree_bytes(out, "heatmap.csv")
        before_modality = tree_bytes(os.path.join(out, "modality"), ".json")
        assert before_modality
        analyze(out)
        assert tree_bytes(out, "heatmap.csv") == before_heat
        assert tree_bytes(os.path.join(out, "modality"), ".json") == before_modality

    @pytest.mark.parametrize("entry, overrides", [
        (sweep, {}),
        (run_single, {"alpha": [0.9], "tau_a": [0.05]}),
    ], ids=["sweep", "run"])
    def test_modality_file_is_the_kde_of_the_stored_ceilings(self, tmp_path, entry, overrides):
        out = tmp_path / "out"
        entry(spec_from_dict({**TINY, **overrides}), str(out), workers=1)
        tags = sorted(name[:-len(".csv")] for name in os.listdir(out / "ceilings"))
        assert tags
        for tag in tags:
            ceilings = read_ceilings_csv(str(out / "ceilings" / f"{tag}.csv"))
            for cat in ("a", "b"):
                on_disk = json.loads((out / "modality" / f"{tag}_{cat}.json").read_text())
                assert on_disk == kde(ceilings[:, CATEGORIES.index(cat)])

    def test_analyze_rewrites_the_hashes_of_the_files_it_rewrites(self, tmp_path, monkeypatch):
        # A KDE that rounds one ulp apart (another CPU's np.exp, say) makes
        # analyze write other modality and heatmap bytes than the sweep did.
        import codiffuse.sweep as sweep_mod

        out = tmp_path / "out"
        sweep(spec_from_dict(TINY), str(out), workers=1)
        before = json.loads((out / "manifest.json").read_text())
        real_kde = sweep_mod.kde

        def kde_one_ulp_off(values):
            report = real_kde(values)
            return {**report, "bandwidth": np.nextafter(report["bandwidth"], np.inf)}

        def assert_manifest_is_the_sweeps_with_the_hashes_on_disk():
            manifest = json.loads((out / "manifest.json").read_text())
            on_disk = {rel: hashlib.sha256((out / rel).read_bytes()).hexdigest()
                       for rel in manifest["files"]}
            assert manifest.pop("files") == on_disk
            assert on_disk != before["files"]  # the ulp reached the files
            assert manifest == {k: v for k, v in before.items() if k != "files"}

        monkeypatch.setattr(sweep_mod, "kde", kde_one_ulp_off)
        # A failed write: the two reports written before it keep their new hashes.
        real_write = sweep_mod.write_text
        writes = []

        def third_write_fails(path, text):
            writes.append(path)
            if len(writes) == 3:
                raise OSError("no space left")
            return real_write(path, text)

        monkeypatch.setattr(sweep_mod, "write_text", third_write_fails)
        with pytest.raises(OSError, match="no space left"):
            analyze(str(out))
        assert [os.path.dirname(os.path.relpath(p, out)) for p in writes[:3]] == ["modality"] * 3
        assert_manifest_is_the_sweeps_with_the_hashes_on_disk()
        monkeypatch.setattr(sweep_mod, "write_text", real_write)
        analyze(str(out))
        assert_manifest_is_the_sweeps_with_the_hashes_on_disk()

    def test_pool_frees_each_result_once_collected(self):
        import codiffuse.sweep as sweep_mod
        from codiffuse.config import enumerate_parameter_sets

        spec = spec_from_dict(TINY)
        units = [(s, range(spec.iterations)) for s in enumerate_parameter_sets(spec)]
        collected = []
        alive_at_collect = []

        def collect(unit, result):
            assert not isinstance(result, BaseException), result
            alive_at_collect.append(sum(ref() is not None for ref in collected))
            collected.append(weakref.ref(result[0]))

        sweep_mod._run_units(spec, units, 2, collect)
        assert len(collected) == len(units)
        # a unit's counts are gone before the next unit reaches `collect`
        assert alive_at_collect == [0] * len(units)

    def test_pool_is_capped_at_the_usable_cpus(self, tmp_path, monkeypatch, pool_sizes):
        import argparse

        import codiffuse.cli as cli_mod

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        spec = spec_from_dict(TINY)
        sweep(spec, str(tmp_path / "many"), workers=10_000)
        # 2 usable CPUs run the 4 sets as 4 whole-set units on a pool of 2.
        assert pool_sizes == [2]
        sweep(spec, str(tmp_path / "one"), workers=1)
        assert tree_bytes(tmp_path / "many", ".csv") == tree_bytes(tmp_path / "one", ".csv")
        assert cli_mod._workers(argparse.Namespace(workers=None)) == 2

    def test_sets_are_split_by_the_workers_that_can_run(self, tmp_path, monkeypatch,
                                                        pool_sizes):
        # Workers beyond the usable CPUs never run, so they must not cut the
        # sets into more units: 2 CPUs and 4 sets leave every set whole.
        import codiffuse.sweep as sweep_mod

        real_task = sweep_mod._sweep_task
        tasks = []

        def counted_task(*args):
            tasks.append(args)
            return real_task(*args)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(sweep_mod, "_sweep_task", counted_task)
        sweep(spec_from_dict(TINY), str(tmp_path / "many"), workers=10_000)
        assert len(tasks) == 4
        assert all(its == range(TINY["iterations"]) for *_, its in tasks)
        sweep(spec_from_dict(TINY), str(tmp_path / "one"), workers=1)
        assert tree_bytes(tmp_path / "many", ".csv") == tree_bytes(tmp_path / "one", ".csv")

    def test_manifest_records_the_workers_that_ran(self, tmp_path, monkeypatch, pool_sizes):
        # Not the requested --workers: 2 usable CPUs run a pool of 2, 1 runs none.
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            out = tmp_path / str(len(cpus))
            sweep(spec_from_dict(TINY), str(out), workers=10_000)
            assert json.loads((out / "manifest.json").read_text())["workers"] == len(cpus)
        assert pool_sizes == [2]

    def test_no_one_process_pool_is_started(self, tmp_path, monkeypatch, pool_sizes):
        # A pool of one process would only add IPC and hide the work from a
        # tracer, so a one-unit run and a one-CPU sweep compute in this process.
        one_unit = spec_from_dict({**TINY, "alpha": [0.3], "tau_a": [0.0], "iterations": 1})
        run_single(one_unit, str(tmp_path / "run4"), workers=4)
        run_single(one_unit, str(tmp_path / "run1"), workers=1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        sweep(spec_from_dict(TINY), str(tmp_path / "sweep_many"), workers=10_000)
        sweep(spec_from_dict(TINY), str(tmp_path / "sweep1"), workers=1)
        assert pool_sizes == []
        assert tree_bytes(tmp_path / "run4", ".csv") == tree_bytes(tmp_path / "run1", ".csv")
        assert (tree_bytes(tmp_path / "sweep_many", ".csv")
                == tree_bytes(tmp_path / "sweep1", ".csv"))

    def test_failed_parameter_set_is_isolated(self, tmp_path, monkeypatch):
        import codiffuse.sweep as sweep_mod

        real_task = sweep_mod._sweep_task

        def flaky(spec, index, *rest):
            if index == 1:
                raise RuntimeError("boom")
            return real_task(spec, index, *rest)

        monkeypatch.setattr(sweep_mod, "_sweep_task", flaky)
        out = str(tmp_path / "out")
        manifest = sweep(spec_from_dict(TINY), out, workers=1)
        assert [f["index"] for f in manifest["failures"]] == [1]
        assert "boom" in manifest["failures"][0]["error"]
        # the other three sets still produced their files and heatmap rows
        assert len(os.listdir(os.path.join(out, "series"))) == 3
        with open(os.path.join(out, "heatmap.csv")) as fh:
            assert len(fh.read().strip().split("\n")) - 1 == 3 * 12
        # analyze skips the failed set, whose files are unlisted and absent
        heat = tree_bytes(out, "heatmap.csv")
        analyze(out)
        assert tree_bytes(out, "heatmap.csv") == heat


    @pytest.mark.parametrize("point, abort", [
        ("third-set", OSError),
        ("third-set", KeyboardInterrupt),
        ("second-b-report", OSError),
        ("second-b-report", KeyboardInterrupt),
    ], ids=["OSError", "KeyboardInterrupt", "modality-OSError", "modality-KeyboardInterrupt"])
    def test_aborted_sweep_keeps_a_manifest_of_what_reached_disk(self, tmp_path, monkeypatch,
                                                                  point, abort):
        import codiffuse.sweep as sweep_mod

        real_emit, real_write = sweep_mod._emit_set, sweep_mod.write_text
        real_modality = sweep_mod._write_modality
        emits, b_reports, modality_calls = [], [], []

        def emit_two_sets(*args):
            emits.append(args)
            if len(emits) == 3:
                raise abort("stop")
            return real_emit(*args)

        def stop_at_second_b_report(path, text):
            if path.endswith("_b.json"):
                b_reports.append(path)
                if len(b_reports) == 2:
                    raise abort("stop")
            return real_write(path, text)

        def recorded_modality(out_dir, tag, ceilings, files):
            before = dict(files)
            written = real_modality(out_dir, tag, ceilings, files)
            modality_calls.append((written, {rel: files[rel] for rel in files.keys() - before}))
            return written

        if point == "third-set":
            monkeypatch.setattr(sweep_mod, "_emit_set", emit_two_sets)
        else:
            monkeypatch.setattr(sweep_mod, "write_text", stop_at_second_b_report)
        monkeypatch.setattr(sweep_mod, "_write_modality", recorded_modality)
        out = tmp_path / "out"
        with pytest.raises(abort):
            sweep(spec_from_dict(TINY), str(out), workers=1)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failures"] == [{"index": None, "error": f"aborted: {abort.__name__}: stop"}]
        on_disk = {rel: hashlib.sha256(data).hexdigest()
                   for rel, data in tree_bytes(out, "").items() if rel != "manifest.json"}
        # mean series, ceilings and modality reports a and b of the sets written
        reports = [(os.path.basename(rel)[:7], rel[-6:])
                   for rel in sorted(on_disk) if rel.startswith("modality")]
        if point == "third-set":
            assert len(on_disk) == 8
            assert reports == [("set0000", "a.json"), ("set0000", "b.json"),
                               ("set0001", "a.json"), ("set0001", "b.json")]
        else:  # the cut set's a report landed before its b report failed
            assert len(on_disk) == 7
            assert reports == [("set0000", "a.json"), ("set0000", "b.json"),
                               ("set0001", "a.json")]
        assert {os.path.basename(rel)[:7] for rel in on_disk} == {"set0000", "set0001"}
        assert manifest["files"] == on_disk
        # What `_write_modality` returns is what it added to the ledger: the
        # files a tracer counts.
        assert modality_calls
        for written, added in modality_calls:
            assert written == added and len(written) == 2
        analyze(str(out))
        with open(out / "heatmap.csv") as fh:
            assert len(fh.read().strip().split("\n")) - 1 == 2 * 12

    def test_interrupt_while_formatting_a_file_leaves_no_part_of_it(self, tmp_path,
                                                                    monkeypatch):
        import codiffuse.sweep as sweep_mod

        class Interrupting(np.ndarray):
            def tolist(self):
                raise KeyboardInterrupt("stop")

        real_ceilings = sweep_mod.iteration_ceilings
        calls = []

        def ceilings_of_third_set_interrupt(counts):
            calls.append(counts)
            ceilings = real_ceilings(counts)
            return ceilings.view(Interrupting) if len(calls) == 3 else ceilings

        monkeypatch.setattr(sweep_mod, "iteration_ceilings", ceilings_of_third_set_interrupt)
        spec = spec_from_dict({"alpha": [0.5, 1.0], "tau_a": [0.0], "tau_b": [0.0, 0.05],
                               "iterations": 3, "steps": 20, "graph": {"side": 6}, "seed": 5})
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            sweep(spec, str(out), workers=1)
        assert not (out / "ceilings" / "set0002_a1_ta0_tb0.csv").exists()
        on_disk = {rel: hashlib.sha256(data).hexdigest()
                   for rel, data in tree_bytes(out, "").items() if rel != "manifest.json"}
        assert not [rel for rel in on_disk if rel.endswith(".tmp")]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == on_disk
        analyze(str(out))
        with open(out / "heatmap.csv") as fh:
            assert len(fh.read().strip().split("\n")) - 1 == 2 * 12


class TestWriteText:
    def test_returns_the_sha256_of_the_bytes_on_disk(self, tmp_path):
        path = tmp_path / "f.csv"
        digest = write_text(str(path), "\u03b1,b\n1,2\n")
        assert path.read_bytes() == "\u03b1,b\n1,2\n".encode("utf-8")
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert os.listdir(tmp_path) == ["f.csv"]

    def test_failed_rename_keeps_the_old_bytes_and_no_tmp(self, tmp_path, monkeypatch):
        path = tmp_path / "f.csv"
        path.write_bytes(b"old\n")

        def failing_replace(src, dst):
            raise OSError("no room")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="no room"):
            write_text(str(path), "new\n")
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["f.csv"]


class TestAbsorptionSummary:
    def test_sweep_records_absorption_per_set(self, tmp_path, capsys):
        spec = spec_from_dict(TINY)
        serial = sweep(spec, str(tmp_path / "w1"), workers=1)
        progress = capsys.readouterr().err
        parallel = sweep(spec, str(tmp_path / "w2"), workers=2)
        summaries = [entry["absorbed_at"] for entry in serial["parameter_sets"]]
        assert summaries == [entry["absorbed_at"] for entry in parallel["parameter_sets"]]
        for s in summaries:
            assert 1 <= s["min"] <= s["p50"] <= s["max"] <= spec.steps
        assert progress.count(f"/{spec.steps}\n") == len(summaries)
        assert f" absorbed p50={summaries[-1]['p50']:g}/{spec.steps}" in progress

    def test_run_records_absorption(self, tmp_path):
        spec = spec_from_dict({"alpha": [0.8], "tau_a": [0.05], "tau_b": [0.05],
                               "iterations": 5, "steps": 200, "graph": {"side": 8},
                               "seed": 3})
        serial = run_single(spec, str(tmp_path / "w1"), workers=1)
        parallel = run_single(spec, str(tmp_path / "w2"), workers=2)
        summary = serial["parameter_sets"][0]["absorbed_at"]
        assert summary == parallel["parameter_sets"][0]["absorbed_at"]
        assert summary["max"] < spec.steps  # every iteration stopped early


class TestRunSingle:
    def test_per_iteration_series_emitted(self, tmp_path):
        spec = spec_from_dict({"alpha": [0.8], "tau_a": [0.04], "tau_b": [0.0],
                               "iterations": 4, "steps": 30, "graph": {"side": 8},
                               "seed": 2})
        out = str(tmp_path / "out")
        run_single(spec, out, workers=1)
        series = sorted(os.listdir(os.path.join(out, "series")))
        assert len(series) == 5  # 4 iterations + mean
        assert sum(name.endswith("_mean.csv") for name in series) == 1
        iter0 = read_series_csv(os.path.join(out, "series", series[0]))
        assert iter0.shape == (30, 4)
        np.testing.assert_array_equal(iter0.sum(axis=1), np.full(30, 64.0))
        modality = sorted(os.listdir(os.path.join(out, "modality")))
        assert [m.split("_")[-1] for m in modality] == ["a.json", "b.json"]

    def test_multi_valued_lists_rejected(self, tmp_path):
        spec = spec_from_dict(TINY)
        from codiffuse.errors import ConfigurationError
        with pytest.raises(ConfigurationError, match="single parameter set"):
            run_single(spec, str(tmp_path / "out"))

    def test_filtered_single_set_runs_like_sweep(self, tmp_path):
        spec = spec_from_dict({**TINY, "alpha": [0.9], "enforce_tau_b_lt_tau_a": True})
        run_out, sweep_out = tmp_path / "run", tmp_path / "sweep"
        run_single(spec, str(run_out), workers=1)
        sweep(spec, str(sweep_out), workers=1)
        swept, ran = tree_bytes(sweep_out, ""), tree_bytes(run_out, "")
        del swept["manifest.json"]
        assert os.path.join("ceilings", "set0000_a0.9_ta0.05_tb0.02.csv") in swept
        assert {rel: ran.get(rel) for rel in swept} == swept


def cli(*args, cwd=None):
    # The suite's filterwarnings (pyproject.toml) does not reach a subprocess.
    return subprocess.run([sys.executable, "-m", "codiffuse.cli", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"})


OVERFLOW_REPRO = {"alpha": [1.3], "tau_a": [0.0], "tau_b": [0.0], "iterations": 2,
                  "steps": 20, "graph": {"side": 8}, "kernel": {"k_a": 1e-300, "k_b": 1e-300}}


class TestCli:
    @pytest.mark.parametrize("command, raw, message", [
        ("run", OVERFLOW_REPRO, "kernel terms overflow"),
        ("meanfield", {"alpha": [0.5], "tau_a": [0.0], "tau_b": [0.0],
                       "meanfield": {"h": 1e-12}},
         "must be <= 10000000 steps, got 700000000000000.0"),
        ("meanfield", {"alpha": [0.5], "tau_a": [0.0], "tau_b": [0.0],
                       "meanfield": {"h": 5e-324}}, "must be <= 10000000 steps, got inf"),
        ("graph-dump", {"alpha": [0.5], "tau_a": [0.0], "tau_b": [0.0],
                        "graph": {"side": 2147483648}}, "graph.side must be <= 46340"),
    ], ids=["kernel-overflow", "mf-h-1e-12", "mf-h-5e-324", "graph-side-2147483648"])
    def test_load_time_rule_exits_two_and_writes_nothing(self, tmp_path, command, raw, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "results"
        proc = cli(command, "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert not out.exists()

    def test_huge_finite_kernel_terms_reach_full_adoption(self, tmp_path):
        raw = {**OVERFLOW_REPRO, "kernel": {"k_a": 1e-200, "k_b": 1e-200}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
        (mean,) = (out / "series").glob("*_mean.csv")
        assert read_series_csv(str(mean))[-1].tolist() == [0.0, 0.0, 0.0, 64.0]

    def test_missing_config_file_exits_three_and_non_json_exits_two(self, tmp_path):
        proc = cli("run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path))
        assert proc.returncode == 3  # unreadable input surfaces as OSError
        proc = cli("run", "--config", __file__, "--out", str(tmp_path))
        assert proc.returncode == 2  # present but not JSON

    def test_out_of_range_config_exits_two(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"tau_a": [1.5]}))
        proc = cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "tau_a[0]" in proc.stderr

    def test_run_writes_outputs_and_exits_zero(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": [0.5], "tau_a": [0.0], "tau_b": [0.0],
                                   "iterations": 2, "steps": 15, "graph": {"side": 6},
                                   "seed": 5}))
        out = tmp_path / "results"
        proc = cli("run", "--config", str(cfg), "--out", str(out), "--workers", "1")
        assert proc.returncode == 0, proc.stderr
        assert (out / "manifest.json").exists()
        assert (out / "heatmap.csv").exists()

    def test_negative_seed_exits_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        proc = cli("graph-dump", "--config", str(cfg), "--out", str(tmp_path / "g"))
        assert proc.returncode == 2
        assert "seed must be >= 0, got -1" in proc.stderr
        assert not (tmp_path / "g").exists()

    def test_meanfield_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": [0.8], "tau_a": [0.04], "tau_b": [0.0],
                                   "meanfield": {"h": 0.5, "horizon": 20.0}}))
        out = tmp_path / "mf"
        proc = cli("meanfield", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = (out / "meanfield.csv").read_text().strip().split("\n")
        assert lines[0] == "t,x_a,x_b,x_ab,x_naive,x_r"
        assert len(lines) - 1 == 41

    def test_meanfield_rejects_cube(self, tmp_path):
        proc = cli("meanfield", "--out", str(tmp_path / "mf"))
        assert proc.returncode == 2  # default config enumerates 1694 sets

    def test_graph_dump(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": [0.5], "tau_a": [0.0], "tau_b": [0.0],
                                   "graph": {"side": 6}}))
        out = tmp_path / "g"
        proc = cli("graph-dump", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        a = (out / "layer_A.edgelist").read_text().strip().split("\n")
        b = (out / "layer_B.edgelist").read_text().strip().split("\n")
        assert a[0] == "# layer=A kind=lattice(side=6) n=36"
        assert b[0] == "# layer=B kind=rrg(degree=4) n=36"
        assert len(a) - 1 == 72  # 2n edges at degree 4
        assert len(b) - 1 == 72

    def test_graph_dump_writes_the_graph_iteration_zero_steps_on(self, tmp_path, monkeypatch):
        import codiffuse.engine as engine
        from codiffuse.config import run_config_for
        from codiffuse.topology import edgelist

        raw = {"alpha": [0.5], "tau_a": [0.0], "tau_b": [0.0], "steps": 5,
               "graph": {"side": 6}, "seed": 12}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "g"
        proc = cli("graph-dump", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr

        stepped_on = []
        real_keys = engine.table_keys

        def recording_keys(graph, *args):
            stepped_on.append(graph)
            return real_keys(graph, *args)

        monkeypatch.setattr(engine, "table_keys", recording_keys)
        spec = spec_from_dict(raw)
        engine.run(run_config_for(spec, 0, 0.5, 0.0, 0.0), 0)
        for label, layer in (("A", stepped_on[0].layer_a), ("B", stepped_on[0].layer_b)):
            assert (out / f"layer_{label}.edgelist").read_text() == edgelist(layer, label)

    def test_short_horizon_exits_two_before_any_output(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": [0.5], "tau_a": [0.0], "tau_b": [0.0],
                                   "iterations": 2, "steps": 4, "graph": {"side": 6}}))
        out = tmp_path / "results"
        proc = cli("run", "--config", str(cfg), "--out", str(out), "--workers", "1")
        assert proc.returncode == 2
        assert "steps must be >= 5" in proc.stderr
        assert not out.exists()

    def test_analyze_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY))
        out = tmp_path / "results"
        assert cli("sweep", "--config", str(cfg), "--out", str(out),
                   "--workers", "1").returncode == 0
        heat = (out / "heatmap.csv").read_bytes()
        proc = cli("analyze", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "heatmap.csv").read_bytes() == heat

    def test_analyze_refuses_inputs_that_do_not_match_the_manifest(self, tmp_path, capsys):
        out = tmp_path / "results"
        sweep(spec_from_dict(TINY), str(out), workers=1)
        before = {**tree_bytes(out, "heatmap.csv"), **tree_bytes(out / "modality", ".json")}
        ceil = sorted((out / "ceilings").iterdir())[1]
        data = bytearray(ceil.read_bytes())
        data[-3] ^= 1
        ceil.write_bytes(bytes(data))
        assert main(["analyze", "--out", str(out)]) == 3
        assert f"{ceil.name} does not match" in capsys.readouterr().err
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["files"][os.path.join("ceilings", ceil.name)]
        manifest_path.write_text(json.dumps(manifest))
        assert main(["analyze", "--out", str(out)]) == 3
        assert f"{ceil.name} is not listed" in capsys.readouterr().err
        assert {**tree_bytes(out, "heatmap.csv"), **tree_bytes(out / "modality", ".json")} == before

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_run_is_recorded_and_exits_three(self, tmp_path, monkeypatch, workers):
        import multiprocessing

        import codiffuse.engine as engine

        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched engine.iteration_stream reaches pool workers only "
                        "when they are forked")
        real_stream = engine.iteration_stream

        def flaky(config, iteration):
            if iteration == 2:
                raise RuntimeError("boom")
            return real_stream(config, iteration)

        monkeypatch.setattr(engine, "iteration_stream", flaky)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": [0.5], "tau_a": [0.0], "tau_b": [0.0],
                                   "iterations": 4, "steps": 15, "graph": {"side": 6},
                                   "seed": 5}))
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--workers", str(workers)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert [f["index"] for f in manifest["failures"]] == [0]
        assert "boom" in manifest["failures"][0]["error"]
        assert os.listdir(out / "series") == [] and os.listdir(out / "ceilings") == []

    def test_analyze_refuses_a_listed_input_that_is_missing(self, tmp_path, capsys):
        out = tmp_path / "results"
        sweep(spec_from_dict(TINY), str(out), workers=1)
        before = {**tree_bytes(out, "heatmap.csv"), **tree_bytes(out / "modality", ".json")}
        ceil = sorted((out / "ceilings").iterdir())[1]
        ceil.unlink()
        assert main(["analyze", "--out", str(out)]) == 3
        assert f"{ceil.name} is listed in manifest.json but missing" in capsys.readouterr().err
        assert {**tree_bytes(out, "heatmap.csv"), **tree_bytes(out / "modality", ".json")} == before

    @pytest.mark.parametrize("text", [
        "{not json",
        "[1, 2]",
        json.dumps({"parameter_sets": []}),
        json.dumps({"files": {}, "parameter_sets": [{"index": 0, "tau_a": 0.0, "tau_b": 0.0}]}),
        json.dumps({"files": {}, "parameter_sets": [{"index": 0, "alpha": "x", "tau_a": 0,
                                                     "tau_b": 0}]}),
        json.dumps({"files": ["a"], "parameter_sets": [{"index": 0, "alpha": 0.5, "tau_a": 0.0,
                                                        "tau_b": 0.0}]}),
    ], ids=["not-json", "not-an-object", "no-files", "set-without-alpha", "alpha-not-a-number",
            "files-not-an-object"])
    def test_analyze_refuses_a_malformed_manifest(self, tmp_path, capsys, text):
        (tmp_path / "manifest.json").write_text(text)
        assert main(["analyze", "--out", str(tmp_path)]) == 3
        assert "malformed manifest.json" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["manifest.json"]

    def test_config_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"seed": 5, "alpha": [0.5\xff]}')
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "malformed config" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_graph_dump_of_an_empty_cube_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau_a": [0.0], "tau_b": [0.0], "graph": {"side": 6},
                                   "enforce_tau_b_lt_tau_a": True}))
        out = tmp_path / "g"
        assert main(["graph-dump", "--config", str(cfg), "--out", str(out)]) == 2
        assert "parameter cube is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_analyze_without_manifest_exits_two(self, tmp_path):
        proc = cli("analyze", "--out", str(tmp_path))
        assert proc.returncode == 2

    @pytest.mark.parametrize("command, flag, value", [
        ("analyze", "--workers", "2"),
        ("meanfield", "--workers", "2"),
        ("graph-dump", "--workers", "2"),
        ("analyze", "--config", "nope.json"),
        ("analyze", "--seed", "3"),
        ("graph-dump", "--seed", "3"),
    ])
    def test_flag_the_command_does_not_read_exits_two(self, tmp_path, command, flag, value):
        proc = cli(command, flag, value, "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert f"unrecognized arguments: {flag} {value}" in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_zero_workers_exits_two(self, tmp_path):
        proc = cli("sweep", "--workers", "0", "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "worker count must be >= 1, got 0" in proc.stderr


def test_manifest_version_is_the_projects(tmp_path):
    # A line match, not tomllib, so the test also runs on Python 3.10.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    section, versions = None, []
    with open(path) as fh:
        for line in fh:
            if line.startswith("["):
                section = line.strip()
            elif section == "[project]" and (m := re.match(r'version\s*=\s*"([^"]*)"', line)):
                versions.append(m.group(1))
    spec = spec_from_dict({**TINY, "alpha": [0.3], "tau_a": [0.0], "iterations": 1})
    manifest = sweep(spec, str(tmp_path / "out"), workers=1)
    assert versions == [codiffuse.__version__] == [manifest["version"]]
