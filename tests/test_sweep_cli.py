import hashlib
import io
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

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
            collected.append(weakref.ref(result.counts))

        sweep_mod._run_units(spec, units, 2, collect)
        assert len(collected) == len(units)
        # a unit's counts are gone before the next unit reaches `collect`
        assert alive_at_collect == [0] * len(units)

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


def cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "codiffuse.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


class TestCli:
    def test_missing_config_file_is_config_error(self, tmp_path):
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

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": [0.5], "tau_a": [0.0], "tau_b": [0.0],
                                   "iterations": 1, "steps": 10, "graph": {"side": 6},
                                   "seed": 5}))
        out = tmp_path / "results"
        cli("run", "--config", str(cfg), "--out", str(out), "--seed", "77", "--workers", "1")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 77

    def test_negative_seed_flag_exits_two(self, tmp_path):
        proc = cli("graph-dump", "--seed", "-1", "--out", str(tmp_path / "g"))
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
        from codiffuse.topology import write_edgelist

        raw = {"alpha": [0.5], "tau_a": [0.0], "tau_b": [0.0], "steps": 5,
               "graph": {"side": 6}, "seed": 12}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "g"
        proc = cli("graph-dump", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr

        stepped_on = []
        real_step = engine.step

        def recording_step(graph, *args, **kwargs):
            stepped_on.append(graph)
            return real_step(graph, *args, **kwargs)

        monkeypatch.setattr(engine, "step", recording_step)
        spec = spec_from_dict(raw)
        engine.run(run_config_for(spec, 0, 0.5, 0.0, 0.0), 0)
        for label, layer in (("A", stepped_on[0].layer_a), ("B", stepped_on[0].layer_b)):
            buf = io.StringIO()
            write_edgelist(layer, label, buf)
            assert (out / f"layer_{label}.edgelist").read_text() == buf.getvalue()

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
            pytest.skip("the patched engine.run reaches pool workers only when they are forked")
        real_run = engine.run

        def flaky(config, iteration=0, graph=None):
            if iteration == 2:
                raise RuntimeError("boom")
            return real_run(config, iteration, graph=graph)

        monkeypatch.setattr(engine, "run", flaky)
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

    def test_analyze_without_manifest_exits_two(self, tmp_path):
        proc = cli("analyze", "--out", str(tmp_path))
        assert proc.returncode == 2

    def test_env_var_sets_worker_count(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": [0.5], "tau_a": [0.0], "tau_b": [0.0],
                                   "iterations": 1, "steps": 10, "graph": {"side": 6},
                                   "seed": 5}))
        out = tmp_path / "results"
        proc = subprocess.run(
            [sys.executable, "-m", "codiffuse.cli", "sweep", "--config", str(cfg),
             "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "CODIFFUSE_WORKERS": "2"})
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["workers"] == 2

    def test_bad_env_worker_count_exits_two(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "codiffuse.cli", "sweep", "--out", str(tmp_path / "o")],
            capture_output=True, text=True,
            env={**os.environ, "CODIFFUSE_WORKERS": "lots"})
        assert proc.returncode == 2
