import json
import math
import re

import pytest

from codiffuse.cli import main
from codiffuse.config import (
    DEFAULT_ALPHAS,
    DEFAULT_TAUS,
    SweepSpec,
    enumerate_parameter_sets,
    load_spec,
    run_config_for,
    single_parameter_set,
    spec_from_dict,
    spec_to_dict,
)
from codiffuse.engine import run
from codiffuse.errors import ConfigurationError
from codiffuse.meanfield import MAX_STEPS


class TestDefaults:
    def test_empty_config_gives_reference_setup(self):
        spec = spec_from_dict({})
        assert spec.side * spec.side == 6400
        assert spec.steps == 700
        assert spec.iterations == 100
        assert spec.seeds_per_contagion == 1
        assert spec.degree == 4
        assert spec.k_a == spec.k_b == 2.0
        assert spec.alphas == DEFAULT_ALPHAS
        assert spec.alphas[0] == 0.0 and spec.alphas[-1] == pytest.approx(1.3)
        assert spec.tau_a == DEFAULT_TAUS
        assert spec.tau_b[-1] == pytest.approx(0.10)
        assert spec.enforce_tau_b_lt_tau_a is False

    def test_single_timeseries_figure_config(self):
        spec = spec_from_dict({"alpha": [0.8], "tau_a": [0.04], "tau_b": [0.0],
                               "graph": {"mode": "single"}})
        assert spec.alphas == [0.8]
        assert spec.tau_a == [0.04]
        assert spec.tau_b == [0.0]
        assert spec.graph_mode == "single"


class TestValidation:
    def test_tau_out_of_range(self):
        with pytest.raises(ConfigurationError, match=r"tau_a\[0\]"):
            spec_from_dict({"tau_a": [1.5]})

    def test_negative_alpha(self):
        with pytest.raises(ConfigurationError, match=r"alpha\[1\]"):
            spec_from_dict({"alpha": [0.5, -0.1]})

    def test_empty_list(self):
        with pytest.raises(ConfigurationError, match="nonempty"):
            spec_from_dict({"tau_b": []})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="unknown config key: alphas"):
            spec_from_dict({"alphas": [0.1]})

    def test_unknown_nested_key_path(self):
        with pytest.raises(ConfigurationError, match="graph.sides"):
            spec_from_dict({"graph": {"sides": 80}})

    def test_bad_mode_value(self):
        with pytest.raises(ConfigurationError, match="kernel.adoption"):
            spec_from_dict({"kernel": {"adoption": "both"}})

    def test_type_errors(self):
        with pytest.raises(ConfigurationError, match="iterations"):
            spec_from_dict({"iterations": "many"})
        with pytest.raises(ConfigurationError, match="freeze_rrg"):
            spec_from_dict({"graph": {"freeze_rrg": "yes"}})

    def test_horizon_too_short_for_a_ceiling(self):
        with pytest.raises(ConfigurationError, match="steps must be >= 5, got 4"):
            spec_from_dict({"steps": 4})
        assert spec_from_dict({"steps": 5}).steps == 5

    def test_meanfield_horizon_checked_against_default_horizon(self):
        with pytest.raises(ConfigurationError,
                           match="meanfield.horizon must be >= meanfield.h"):
            spec_from_dict({"meanfield": {"h": 1000}})
        assert spec_from_dict({"meanfield": {"h": 700}}).mf_h == 700.0

    def test_meanfield_step_count_is_capped(self):
        spec = spec_from_dict({"meanfield": {"h": 0.5, "horizon": MAX_STEPS / 2}})
        assert spec.mf_horizon / spec.mf_h == MAX_STEPS
        just_above = {"h": math.nextafter(0.5, 0.0), "horizon": MAX_STEPS / 2}
        with pytest.raises(ConfigurationError,
                           match=f"meanfield.horizon / meanfield.h must be <= {MAX_STEPS}"):
            spec_from_dict({"meanfield": just_above})

    def test_overflowing_kernel_rejected_for_any_listed_alpha(self):
        with pytest.raises(ConfigurationError, match="kernel terms overflow.*alpha 1.3"):
            spec_from_dict({"alpha": [0.0, 1.3], "kernel": {"k_a": 1e-300}})
        assert spec_from_dict({"alpha": [0.0, 1.3], "kernel": {"k_a": 1e-200}}).k_a == 1e-200

    @pytest.mark.parametrize("raw, path", [
        ({"x": 1}, "x"),
        ({"graph": {"x": 1}}, "graph.x"),
        ({"kernel": {"x": 1}}, "kernel.x"),
        ({"meanfield": {"x": 1}}, "meanfield.x"),
    ])
    def test_unknown_key_in_each_section(self, raw, path):
        with pytest.raises(ConfigurationError, match=f"^unknown config key: {path}$"):
            spec_from_dict(raw)

    @pytest.mark.parametrize("section", ["graph", "kernel", "meanfield"])
    def test_section_must_be_an_object(self, section):
        with pytest.raises(ConfigurationError, match=f"^{section} must be an object$"):
            spec_from_dict({section: [1]})

    def test_unknown_top_level_key_wins_over_nested_errors(self):
        with pytest.raises(ConfigurationError, match="^unknown config key: steps2$"):
            spec_from_dict({"graph": {"sides": 1}, "steps2": 4})
        with pytest.raises(ConfigurationError, match="^steps must be >= 5, got 4$"):
            spec_from_dict({"steps": 4, "graph": {"sides": 1}})

    def test_parity_of_stub_count(self):
        with pytest.raises(ConfigurationError, match="even"):
            spec_from_dict({"graph": {"side": 3, "degree": 3}})

    def test_degree_below_node_count(self):
        with pytest.raises(ConfigurationError,
                           match="^graph.degree must be < node count 4, got 4$"):
            spec_from_dict({"graph": {"side": 2}})

    def test_node_count_fits_int32_neighbor_ids(self):
        # 46341^2 > 2^31 - 1, so its neighbor ids would wrap negative.
        for mode in ("multiplex", "single"):
            with pytest.raises(ConfigurationError, match="^graph.side must be <= 46340 "):
                spec_from_dict({"graph": {"side": 46341, "mode": mode}})
        assert spec_from_dict({"graph": {"side": 46340}}).side == 46340

    @pytest.mark.parametrize("graph, error", [
        ({"side": 5, "degree": 3}, "node count \\* degree must be even"),
        ({"side": 2}, "graph.degree must be < node count 4"),
    ])
    def test_rrg_rules_apply_only_in_multiplex_mode(self, graph, error):
        with pytest.raises(ConfigurationError, match=error):
            spec_from_dict({"graph": {"mode": "multiplex", **graph}})
        spec = spec_from_dict({"alpha": [0.5], "tau_a": [0.0], "tau_b": [0.0], "steps": 5,
                               "graph": {"mode": "single", **graph}})
        counts, _ = run(run_config_for(spec, *single_parameter_set(spec, "run")))
        assert (counts.sum(axis=1) == spec.side ** 2).all()

    @pytest.mark.parametrize("literal, shown", [
        ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf")])
    @pytest.mark.parametrize("path, template", [
        ("alpha[0]", '{"alpha": [X]}'),
        ("kernel.k_a", '{"kernel": {"k_a": X}}'),
        ("meanfield.h", '{"meanfield": {"h": X}}'),
        ("meanfield.horizon", '{"meanfield": {"horizon": X}}'),
    ])
    def test_non_finite_json_number_rejected(self, tmp_path, path, template, literal, shown):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(template.replace("X", literal))
        with pytest.raises(ConfigurationError,
                           match=f"^{re.escape(path)} must be a finite number, got {shown}$"):
            load_spec(str(cfg))

    @pytest.mark.parametrize("path, template", [
        ("alpha[0]", '{"alpha": [X]}'),
        ("kernel.k_a", '{"kernel": {"k_a": X}}'),
        ("meanfield.h", '{"meanfield": {"h": X}}'),
    ])
    def test_integer_beyond_float_range_exits_two(self, tmp_path, capsys, path, template):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(template.replace("X", "1" + "0" * 400))
        out = tmp_path / "mf"
        assert main(["meanfield", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{path} must be a finite number" in err
        assert "0" * 400 not in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["alpha", "tau_a", "tau_b"])
    @pytest.mark.parametrize("values, text, first", [
        ([0.05, 0.5, 0.5000001], "0.5", 1),  # prints alike
        ([0.05, 0.02, 0.05], "0.05", 0),  # exact duplicate
        ([0.0, 0.02, 0], "0", 0),  # an int and a float of one value
    ])
    def test_grid_values_that_print_alike_exit_two(self, tmp_path, capsys, key, values, text,
                                                   first):
        # Heatmap rows and file tags print grid values with :g; two values that
        # print alike would give rows that cannot be told apart.
        cfg = tmp_path / "cfg.json"
        raw = {"alpha": [0.5], "tau_a": [0.0], "tau_b": [0.0], "iterations": 1, "steps": 5,
               "graph": {"side": 4}}
        cfg.write_text(json.dumps({**raw, key: values}))
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{key}[2] prints as {text}, like {key}[{first}]" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_past_the_digit_limit_is_malformed(self, tmp_path):
        # json parses integers with int(), which refuses more than 4300 digits.
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"alpha": [1' + "0" * 5000 + "]}")
        with pytest.raises(ConfigurationError, match="malformed config"):
            load_spec(str(cfg))

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="malformed"):
            load_spec(str(path))


class TestRoundTrip:
    def test_parse_emit_identity(self):
        spec = spec_from_dict({"alpha": [0.8, 1.2], "tau_a": [0.0, 0.05], "tau_b": [0.02],
                               "iterations": 7, "steps": 55,
                               "graph": {"mode": "single", "side": 12, "freeze_rrg": True},
                               "kernel": {"adoption": "exclusive", "thresholds": "quenched"},
                               "seed": 99, "meanfield": {"h": 0.25, "horizon": 10.0}})
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_every_key_set_to_a_non_default_value_round_trips(self):
        raw = {"alpha": [0.8, 1.2], "tau_a": [0.0, 0.05], "tau_b": [0.02],
               "iterations": 7, "steps": 55,
               "graph": {"mode": "single", "side": 12, "degree": 6, "freeze_rrg": True},
               "kernel": {"k_a": 1.5, "k_b": 3.0, "adoption": "exclusive",
                          "thresholds": "quenched"},
               "seeds_per_contagion": 3, "enforce_tau_b_lt_tau_a": True, "seed": 99,
               "meanfield": {"h": 0.25, "horizon": 10.0, "kappa": 6}}
        spec = spec_from_dict(raw)
        defaults = SweepSpec()
        assert all(value != getattr(defaults, name) for name, value in vars(spec).items())
        assert spec_to_dict(spec) == raw

    def test_json_file_round_trip(self, tmp_path):
        spec = SweepSpec()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(spec_to_dict(spec)))
        assert load_spec(str(path)) == spec


class TestEnumeration:
    def test_default_cube_size(self):
        sets = enumerate_parameter_sets(SweepSpec())
        assert len(sets) == 14 * 11 * 11  # 1694
        assert sets[0][0] == 0 and sets[-1][0] == len(sets) - 1

    def test_constraint_filters_strictly(self):
        spec = spec_from_dict({"alpha": [1.0], "tau_a": [0.0, 0.05, 0.1],
                               "tau_b": [0.0, 0.05, 0.1],
                               "enforce_tau_b_lt_tau_a": True})
        sets = enumerate_parameter_sets(spec)
        assert [(ta, tb) for _i, _a, ta, tb in sets] == [(0.05, 0.0), (0.1, 0.0), (0.1, 0.05)]
        assert [i for i, *_rest in sets] == [0, 1, 2]

    def test_single_set_rule_counts_enumerated_sets(self):
        raw = {"alpha": [1.2], "tau_a": [0.0, 0.05], "tau_b": [0.02],
               "enforce_tau_b_lt_tau_a": True}
        assert single_parameter_set(spec_from_dict(raw), "run") == (0, 1.2, 0.05, 0.02)
        for overrides, count in (({"tau_a": [0.0]}, 0), ({"enforce_tau_b_lt_tau_a": False}, 2)):
            with pytest.raises(ConfigurationError,
                               match=f"^meanfield wants a single parameter set, "
                                     f"config enumerates {count}$"):
                single_parameter_set(spec_from_dict({**raw, **overrides}), "meanfield")

    def test_run_config_carries_triple(self):
        spec = spec_from_dict({"alpha": [0.9], "tau_a": [0.03], "tau_b": [0.01],
                               "steps": 44, "seed": 7})
        cfg = run_config_for(spec, 5, 0.9, 0.03, 0.01)
        assert cfg.kernel.alpha == 0.9
        assert cfg.dormancy.tau_a == 0.03
        assert cfg.dormancy.tau_b == 0.01
        assert cfg.steps == 44
        assert cfg.master_seed == 7
        assert cfg.param_index == 5
