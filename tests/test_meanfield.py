import json

import numpy as np
import pytest

from codiffuse.cli import main
from codiffuse.errors import ConfigurationError, IntegrationError
from codiffuse.kernel import EXCLUSIVE, DormancyParams, KernelParams
from codiffuse.meanfield import (
    MeanFieldParams,
    MeanFieldState,
    integrate,
    mf_rates,
    write_trajectory,
)


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
            assert abs(rates.sum()) < 1e-16


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

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nan_state_exits_three_and_writes_nothing(self, tmp_path, capsys):
        # An RK stage goes negative, hill_term raises it to a fractional power
        # and returns NaN, which must fail the bounds check like any overshoot.
        cfg = tmp_path / "mf.json"
        cfg.write_text(json.dumps({"alpha": [0.3], "tau_a": [0.5], "tau_b": [0.25],
                                   "meanfield": {"h": 5.0}}))
        out = tmp_path / "mf"
        assert main(["meanfield", "--config", str(cfg), "--out", str(out)]) == 3
        assert "reduce the step size" in capsys.readouterr().err
        assert not (out / "meanfield.csv").exists()

    def test_bad_step_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            mfp(1.0, 0.0, 0.0, h=0.0)
        with pytest.raises(ConfigurationError):
            mfp(1.0, 0.0, 0.0, h=2.0, horizon=1.0)


class TestTrajectoryCsv:
    def test_header_and_row_count(self, tmp_path):
        params = mfp(1.0, 0.01, 0.02, h=0.5, horizon=5.0)
        traj = integrate(seeded_state(), params)
        path = tmp_path / "mf.csv"
        with open(path, "w") as fh:
            write_trajectory(traj, fh)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,x_a,x_b,x_ab,x_naive,x_r"
        assert len(lines) - 1 == 11
