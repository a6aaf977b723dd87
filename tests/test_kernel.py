import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codiffuse.engine import step_tables, stream
from codiffuse.errors import ConfigurationError
from codiffuse.kernel import (
    EXCLUSIVE,
    NAIVE,
    STATE_A,
    STATE_AB,
    STATE_B,
    DormancyParams,
    KernelParams,
    hill_term,
    hill_term_vec,
)

from _harness import (
    Densities,
    adoption_probability,
    choose_contagion,
    dormancy_rate,
    fires,
    threshold_of,
)


def kp(alpha, **kw):
    return KernelParams(alpha=alpha, **kw)


class TestHill:
    def test_zero_density_is_zero_for_every_alpha(self):
        for alpha in (0.0, 0.5, 1.0, 1.3, 2.0):
            assert hill_term(0.0, 2.0, alpha) == 0.0

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.0, 0.25, 0.5, 1.0])
        for alpha in (0.0, 0.7, 1.3):
            expect = [hill_term(float(x), 2.0, alpha) for x in xs]
            np.testing.assert_array_equal(hill_term_vec(xs, 2.0, alpha), expect)


class TestAdoptionProbability:
    def test_no_active_neighbors_never_adopts(self):
        assert adoption_probability(NAIVE, Densities(0.0, 0.0), kp(1.0)) == 0.0

    def test_naive_single_source(self):
        p = adoption_probability(NAIVE, Densities(1.0, 0.0), kp(1.0))
        assert p == pytest.approx(1.0 / 3.0)

    def test_single_adopter_reduced_form(self):
        p = adoption_probability(STATE_A, Densities(0.7, 1.0), kp(1.0))
        assert p == pytest.approx((1.0 / 2.0) / (1.0 + 1.0 / 2.0))  # = 1/3

    def test_reduction_consistency(self):
        # With A already adopted the general formula must equal tb/(1+tb) exactly.
        for alpha in (0.0, 0.5, 1.0, 1.3):
            for da in (0.0, 0.25, 0.75, 1.0):
                for db in (0.0, 0.25, 0.5, 1.0):
                    params = kp(alpha)
                    tb = hill_term(db, params.k_b, alpha)
                    general = adoption_probability(STATE_A, Densities(da, db), params)
                    assert general == tb / (1.0 + tb)

    def test_dual_adopter_never_adopts(self):
        assert adoption_probability(STATE_AB, Densities(1.0, 1.0), kp(0.5)) == 0.0

    def test_exclusive_mode_adopters_immune(self):
        params = kp(1.0, mode=EXCLUSIVE)
        dens = Densities(1.0, 1.0)
        assert adoption_probability(STATE_A, dens, params) == 0.0
        assert adoption_probability(STATE_B, dens, params) == 0.0
        assert adoption_probability(NAIVE, dens, params) > 0.0

    def test_bounded_and_monotone(self):
        grid = np.linspace(0.0, 1.0, 9)
        for alpha in (0.3, 1.0, 1.6):
            last = -1.0
            for d in grid:
                p = adoption_probability(NAIVE, Densities(float(d), 0.5), kp(alpha))
                assert 0.0 <= p <= 1.0
                assert p > last or d == 0.0 and p >= 0.0
                last = p

    def test_synergy_concavity_flips_with_alpha(self):
        # Concave-down (joint beats split) below alpha=1, reversed above.
        for alpha, sign in ((0.5, 1), (1.3, -1)):
            params = kp(alpha)
            for d in (0.25, 0.5, 0.75, 1.0):
                split = (adoption_probability(NAIVE, Densities(d, 0.0), params)
                         + adoption_probability(NAIVE, Densities(0.0, d), params))
                joint = 2.0 * adoption_probability(NAIVE, Densities(d / 2, d / 2), params)
                assert sign * (joint - split) >= -1e-12


class TestChooseContagion:
    def test_symmetric_split(self):
        dens = Densities(0.5, 0.5)
        assert choose_contagion(dens, kp(1.0), 0.49) == STATE_A
        assert choose_contagion(dens, kp(1.0), 0.51) == STATE_B

    def test_degenerate_split_always_a(self):
        for u in (0.0, 0.5, 0.999999):
            assert choose_contagion(Densities(0.75, 0.0), kp(1.0), u) == STATE_A

    def test_no_source_is_contract_violation(self):
        with pytest.raises(ValueError):
            choose_contagion(Densities(0.0, 0.0), kp(1.0), 0.2)

    def test_two_thirds_split_frequency(self):
        # terms 0.5 and 0.25 at alpha=1, K=2 give P(A) = 2/3.
        dens = Densities(1.0, 0.5)
        rng = stream(101, 0)
        n = 100_000
        draws = rng.random(n)
        picks = sum(1 for u in draws if choose_contagion(dens, kp(1.0), float(u)) == STATE_A)
        p = 2.0 / 3.0
        assert abs(picks / n - p) <= 3.0 * math.sqrt(p * (1 - p) / n)


class TestThreshold:
    def test_endpoints(self):
        assert threshold_of(0.0) == 1.0
        assert threshold_of(1.0) == 0.0
        draws = stream(5, 1).random(10_000)
        assert not any(fires(0.0, float(u)) for u in draws)
        assert all(fires(1.0, float(u)) for u in draws)

    def test_quarter_probability_frequency(self):
        rng = stream(5, 2)
        n = 100_000
        hits = int(np.sum(rng.random(n) >= threshold_of(0.25)))
        assert abs(hits / n - 0.25) <= 3.0 * math.sqrt(0.25 * 0.75 / n)


class TestDormancy:
    def test_dual_rate_is_arithmetic_mean(self):
        d = DormancyParams(tau_a=0.04, tau_b=0.0)
        assert dormancy_rate(STATE_AB, d) == pytest.approx(0.02)
        assert d.tau_ab == (d.tau_a + d.tau_b) / 2.0

    def test_single_rates(self):
        d = DormancyParams(tau_a=0.1, tau_b=0.0)
        assert dormancy_rate(STATE_A, d) == 0.1
        assert dormancy_rate(STATE_B, d) == 0.0

    def test_naive_has_no_rate(self):
        with pytest.raises(ValueError):
            dormancy_rate(NAIVE, DormancyParams(0.1, 0.1))

    def test_range_validation(self):
        with pytest.raises(ConfigurationError):
            DormancyParams(tau_a=1.5, tau_b=0.0)


class TestParamValidation:
    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            KernelParams(alpha=-0.1)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ConfigurationError):
            KernelParams(alpha=1.0, k_a=0.0)

    @pytest.mark.parametrize("kw, message", [
        ({"alpha": math.nan}, "alpha must be >= 0, got nan"),
        ({"alpha": 1.0, "k_a": math.nan}, "k_a and k_b must be > 0, got nan, 2.0"),
        ({"alpha": 1.0, "k_b": math.nan}, "k_a and k_b must be > 0, got 2.0, nan"),
    ], ids=["alpha", "k_a", "k_b"])
    def test_nan_rejected_with_its_own_message(self, kw, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            KernelParams(**kw)

    def test_unknown_modes_rejected(self):
        with pytest.raises(ConfigurationError):
            KernelParams(alpha=1.0, mode="both")
        with pytest.raises(ConfigurationError):
            KernelParams(alpha=1.0, threshold_mode="frozen")

    def test_overflowing_terms_rejected_and_huge_finite_terms_saturate(self):
        with pytest.raises(ConfigurationError, match="kernel terms overflow"):
            KernelParams(alpha=1.3, k_a=1e-300, k_b=1e-300)
        # Terms of about 1e260 are finite: every naive node with a source adopts.
        tables = step_tables(KernelParams(alpha=1.3, k_a=1e-200, k_b=1e-200),
                             DormancyParams(0.0, 0.0), 4, 4)
        assert (tables.threshold.reshape(4, 5, 5)[NAIVE].ravel()[1:] == 0.0).all()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(alpha=st.floats(0.0, 1200.0), log_k_a=st.floats(-320.0, 3.0),
           log_k_b=st.floats(-320.0, 3.0))
    @example(alpha=0.0, log_k_a=-320.0, log_k_b=-320.0)  # density / k overflows
    def test_accepted_kernels_have_finite_tables(self, alpha, log_k_a, log_k_b):
        try:
            kernel = KernelParams(alpha=alpha, k_a=10.0 ** log_k_a, k_b=10.0 ** log_k_b)
        except ConfigurationError:
            return
        tables = step_tables(kernel, DormancyParams(0.0, 0.0), 4, 4)
        for table in (tables.threshold, tables.share):
            assert np.isfinite(table).all()
            assert ((0.0 <= table) & (table <= 1.0)).all()
