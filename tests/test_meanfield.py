import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from codiffuse import meanfield
from codiffuse.cli import main
from codiffuse.errors import ConfigurationError, IntegrationError
from codiffuse.kernel import EXCLUSIVE, INCLUSIVE, DormancyParams, KernelParams
from codiffuse.meanfield import (
    COMPONENTS,
    MAX_STEPS,
    MeanFieldParams,
    MeanFieldState,
    integrate,
    mf_rates,
    trajectory_csv,
)

from _harness import reference_integrate


def mfp(alpha, tau_a, tau_b, **kw):
    return MeanFieldParams(kernel=KernelParams(alpha=alpha),
                           dormancy=DormancyParams(tau_a, tau_b), **kw)


def seeded_state(x0=1.0 / 6400):
    return MeanFieldState(x_a=x0, x_b=x0, x_ab=0.0, x_naive=1.0 - 2 * x0, x_r=0.0)


class TestRates:
    def test_all_naive_is_stationary(self):
        state = MeanFieldState(0.0, 0.0, 0.0, 1.0, 0.0).as_array()
        np.testing.assert_array_equal(mf_rates(state, mfp(0.7, 0.1, 0.2)), np.zeros(5))

    def test_zero_tau_means_no_dormancy_flux(self):
        state = MeanFieldState(0.2, 0.1, 0.1, 0.6, 0.0).as_array()
        rates = mf_rates(state, mfp(1.0, 0.0, 0.0))
        assert rates[4] == 0.0

    def test_hand_computed_vector(self):
        # x_a = x_b = 0.1, x_naive = 0.8, alpha = 1, K = 2, tau = 0:
        # terms 0.05 each, naive adoption 1/11 split evenly, so the naive->A
        # flux is 0.8/22 = 2/55 and the A->AB flux is 0.1 * (0.05/1.05) = 1/210.
        state = MeanFieldState(0.1, 0.1, 0.0, 0.8, 0.0).as_array()
        rates = mf_rates(state, mfp(1.0, 0.0, 0.0))
        expect = np.array([2 / 55 - 1 / 210, 2 / 55 - 1 / 210, 2 / 210, -4 / 55, 0.0])
        np.testing.assert_allclose(rates, expect, rtol=1e-12, atol=0.0)

    def test_components_sum_to_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            raw = rng.random(5)
            state = raw / raw.sum()
            rates = mf_rates(state, mfp(float(rng.uniform(0, 1.6)),
                                        float(rng.uniform(0, 0.3)),
                                        float(rng.uniform(0, 0.3))))
            assert abs(np.sum(rates)) < 1e-16


class TestIntegrate:
    def test_stationary_state_stays_constant(self):
        params = mfp(0.8, 0.0, 0.0, h=0.5, horizon=50.0)
        traj = integrate(MeanFieldState(0.0, 0.0, 0.0, 1.0, 0.0), params)
        np.testing.assert_array_equal(traj.states, np.tile([0, 0, 0, 1, 0.0],
                                                           (traj.times.size, 1)))

    def test_conservation_and_monotonicity(self):
        params = mfp(0.8, 0.05, 0.02, h=0.1, horizon=700.0)
        traj = integrate(seeded_state(), params)
        drift = np.abs(traj.states.sum(axis=1) - 1.0)
        assert drift.max() <= 1e-9
        assert traj.states.min() >= -1e-9
        x_naive, x_r = traj.states[:, 3], traj.states[:, 4]
        assert (np.diff(x_naive) <= 1e-15).all()
        assert (np.diff(x_r) >= -1e-15).all()

    def test_fourth_order_by_richardson(self):
        # Terminal error should shrink ~16x per step halving on a smooth setup.
        params = dict(alpha=1.0, tau_a=0.04, tau_b=0.02)
        initial = MeanFieldState(0.05, 0.05, 0.0, 0.9, 0.0)
        ends = []
        for h in (0.8, 0.4, 0.2):
            traj = integrate(initial, mfp(**params, h=h, horizon=48.0))
            ends.append(traj.states[-1])
        err_coarse = np.max(np.abs(ends[0] - ends[1]))
        err_fine = np.max(np.abs(ends[1] - ends[2]))
        ratio = err_coarse / err_fine
        assert 12.0 <= ratio <= 20.0

    def test_full_adoption_without_dormancy(self):
        params = mfp(0.5, 0.0, 0.0, h=0.1, horizon=700.0)
        traj = integrate(seeded_state(), params)
        adopters = traj.states[-1, 0] + traj.states[-1, 1] + traj.states[-1, 2]
        assert adopters > 0.999

    def test_exclusive_adoption_makes_no_dual_adopters(self):
        params = MeanFieldParams(kernel=KernelParams(alpha=0.8, mode=EXCLUSIVE),
                                 dormancy=DormancyParams(0.0, 0.0), h=0.1, horizon=700.0)
        traj = integrate(seeded_state(), params)
        assert np.all(traj.states[:, 2] == 0.0)
        assert traj.states[-1, 0] + traj.states[-1, 1] > 0.999

    def test_unstable_step_size_reported(self):
        params = mfp(0.0, 0.0, 0.0, h=10.0, horizon=200.0)
        with pytest.raises(IntegrationError, match="reduce the step"):
            integrate(MeanFieldState(0.1, 0.1, 0.0, 0.8, 0.0), params)

    def test_exclusive_negative_stage_reported_at_its_step(self):
        # No dual-adoption term would carry this stage's failed power into the
        # state, so only the power's own error can report it.
        params = MeanFieldParams(kernel=KernelParams(alpha=0.3, mode=EXCLUSIVE),
                                 dormancy=DormancyParams(0.5, 0.25), h=3.0, horizon=700.0)
        with pytest.raises(IntegrationError, match=r"at t=3 \(h=3\.0\); reduce the step size"):
            integrate(MeanFieldState(0.1, 0.1, 0.0, 0.8, 0.0), params)

    def test_integral_alpha_negative_stage_reported_at_its_step(self):
        # math.pow takes a negative base with an integral exponent, so only
        # hill_term's own check stops this stage; alpha 0 would give 1.0.
        with pytest.raises(IntegrationError, match=r"at t=2 \(h=2\.0\); reduce the step size"):
            integrate(seeded_state(), mfp(2.0, 0.9, 0.9, h=2.0))

    def test_four_rates_and_eight_hill_terms_per_step(self, monkeypatch):
        # bench/tracer.py counts these calls through the module globals, so
        # inlining either one would change the traced call counts.
        calls = {"mf_rates": 0, "hill_term": 0}
        for name in calls:
            def counted(*args, _real=getattr(meanfield, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(meanfield, name, counted)
        n_steps = 37
        integrate(seeded_state(), mfp(1.2, 0.0, 0.02, h=0.5, horizon=n_steps * 0.5))
        assert calls == {"mf_rates": 4 * n_steps, "hill_term": 8 * n_steps}

    @pytest.mark.parametrize("raw, t", [
        ({"alpha": [0.3], "tau_a": [0.5], "tau_b": [0.25],
          "kernel": {"adoption": "exclusive"}, "meanfield": {"h": 4.0}}, "4"),
        ({"alpha": [2.0], "tau_a": [0.9], "tau_b": [0.9], "meanfield": {"h": 2.0}}, "2"),
        ({"alpha": [1.6], "tau_a": [0.0], "tau_b": [0.0],
          "meanfield": {"h": 1e300, "horizon": 1e300}}, "1e+300"),
    ], ids=["exclusive-negative-stage", "integral-alpha-negative-stage", "overflowing-stage"])
    def test_failing_stage_exits_three_and_writes_nothing(self, tmp_path, capsys, raw, t):
        cfg = tmp_path / "mf.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "mf"
        assert main(["meanfield", "--config", str(cfg), "--out", str(out)]) == 3
        assert f"state left [0,1] at t={t} " in capsys.readouterr().err
        assert not (out / "meanfield.csv").exists()

    def test_nan_state_exits_three_and_writes_nothing(self, tmp_path, capsys):
        # An RK stage goes negative, so hill_term fails, which must be
        # reported like any overshoot.
        cfg = tmp_path / "mf.json"
        cfg.write_text(json.dumps({"alpha": [0.3], "tau_a": [0.5], "tau_b": [0.25],
                                   "meanfield": {"h": 5.0}}))
        out = tmp_path / "mf"
        assert main(["meanfield", "--config", str(cfg), "--out", str(out)]) == 3
        assert "reduce the step size" in capsys.readouterr().err
        assert not (out / "meanfield.csv").exists()

    def test_infinite_horizon_exits_two_and_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "mf.json"
        cfg.write_text('{"alpha": [0.5], "tau_a": [0.0], "tau_b": [0.0],'
                       ' "meanfield": {"horizon": Infinity}}')
        out = tmp_path / "mf"
        assert main(["meanfield", "--config", str(cfg), "--out", str(out)]) == 2
        assert "meanfield.horizon must be a finite number, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_step_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            mfp(1.0, 0.0, 0.0, h=0.0)
        with pytest.raises(ConfigurationError):
            mfp(1.0, 0.0, 0.0, h=2.0, horizon=1.0)
        for h in (1e-12, 5e-324):
            with pytest.raises(ConfigurationError, match=f"must be <= {MAX_STEPS} steps"):
                mfp(1.0, 0.0, 0.0, h=h)
        assert mfp(1.0, 0.0, 0.0, h=1.0, horizon=float(MAX_STEPS)).horizon == MAX_STEPS

    @pytest.mark.parametrize("kw, message", [
        ({"h": float("nan")}, "step size h must be > 0, got nan"),
        ({"horizon": float("nan")}, "horizon must be at least one step"),
    ], ids=["h", "horizon"])
    def test_nan_step_size_or_horizon_rejected(self, kw, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            mfp(1.0, 0.0, 0.0, **kw)


class TestMatchesArrayIntegrator:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(alpha=st.floats(0.0, 1.6), k_a=st.floats(0.5, 4.0), k_b=st.floats(0.5, 4.0),
           tau_a=st.floats(0.0, 0.3), tau_b=st.floats(0.0, 0.3),
           mode=st.sampled_from((INCLUSIVE, EXCLUSIVE)),
           x0=st.floats(0.0, 0.2, exclude_min=True), h=st.floats(0.05, 1.0),
           n_steps=st.integers(1, 50))
    # The drawn steps never leave [0, 1]; these overshoot at t=10 and at t=20,
    # with negative stages under an integral alpha.
    @example(alpha=0.0, k_a=2.0, k_b=2.0, tau_a=0.0, tau_b=0.0, mode=INCLUSIVE,
             x0=0.1, h=10.0, n_steps=20)
    @example(alpha=1.0, k_a=2.0, k_b=2.0, tau_a=0.0, tau_b=0.0, mode=INCLUSIVE,
             x0=0.1, h=10.0, n_steps=20)
    def test_bit_identical_to_numpy_array_rk4(self, alpha, k_a, k_b, tau_a, tau_b, mode,
                                               x0, h, n_steps):
        params = MeanFieldParams(
            kernel=KernelParams(alpha=alpha, k_a=k_a, k_b=k_b, mode=mode),
            dormancy=DormancyParams(tau_a, tau_b), h=h, horizon=n_steps * h)
        initial = seeded_state(x0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                expect = reference_integrate(initial, params)
            except RuntimeWarning:
                reject()  # a NaN stage, which integrate reports instead
            except IntegrationError as exc:
                with pytest.raises(IntegrationError) as got:
                    integrate(initial, params)
                assert str(got.value) == str(exc)
                return
        got = integrate(initial, params)
        assert np.array_equal(got.times, expect.times)
        assert np.array_equal(got.states, expect.states)


class TestTrajectoryCsv:
    def test_header_and_row_count(self):
        params = mfp(1.0, 0.01, 0.02, h=0.5, horizon=5.0)
        lines = trajectory_csv(integrate(seeded_state(), params)).strip().split("\n")
        assert lines[0] == "t,x_a,x_b,x_ab,x_naive,x_r"
        assert len(lines) - 1 == 11

    def test_bytes(self):
        params = mfp(1.0, 0.01, 0.02, h=0.5, horizon=1.0)
        assert trajectory_csv(integrate(seeded_state(), params)) == (
            "t,x_a,x_b,x_ab,x_naive,x_r\n"
            "0.000000,0.000156250,0.000156250,0.000000000,0.999687500,0.000000000\n"
            "0.500000,0.000199594,0.000198598,0.000000016,0.999599141,0.000002651\n"
            "1.000000,0.000254954,0.000252417,0.000000041,0.999486562,0.000006026\n")

    def test_matches_numpy_scalar_formatting(self):
        # Rows are formatted from Python floats; numpy scalars gave the same text.
        traj = integrate(seeded_state(), mfp(1.2, 0.0, 0.02))
        rows = "".join(f"{t:.6f}," + ",".join(f"{x:.9f}" for x in row) + "\n"
                       for t, row in zip(traj.times, traj.states))
        assert traj.times.size == 7001
        assert trajectory_csv(traj) == "t," + ",".join(COMPONENTS) + "\n" + rows
