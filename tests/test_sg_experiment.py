import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import orientation_pairs, random_rotation
from li_qt.errors import EmptyLog, InsufficientData, NoSignal
from li_qt.sg_experiment import (
    EventLog,
    UnitVector3,
    derive_seeds,
    estimate_expectation,
    fit_robust_solution,
    sample_sg,
    sg_probability,
)

Z = UnitVector3(0.0, 0.0, 1.0)
X = UnitVector3(1.0, 0.0, 0.0)
PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)


def _where_outcomes(a, m, n, seed, sign):
    """Outcomes as ``sample_sg`` drew them with ``np.where``, before it compared and
    converted in int8; kept here only as the reference for bitwise equality."""
    rng = np.random.Generator(np.random.PCG64(seed))
    uniforms = rng.random(n)
    return np.where(uniforms < sg_probability(1, a, m, sign), 1, -1).astype(np.int8)


class TestUnitVector:
    def test_renormalizes(self):
        v = UnitVector3(3.0, 0.0, 4.0)
        assert v.as_array() == pytest.approx([0.6, 0.0, 0.8], abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            UnitVector3(0.0, 0.0, 0.0)

    def test_angle(self):
        assert Z.angle_to(X) == pytest.approx(math.pi / 2)

    def test_from_polar(self):
        v = UnitVector3.from_polar(math.pi / 3)
        assert v.z == pytest.approx(0.5)


class TestSgProbability:
    def test_aligned(self):
        assert sg_probability(1, Z, Z, 1) == 1.0

    def test_orthogonal(self):
        assert sg_probability(1, X, Z, 1) == pytest.approx(0.5, abs=1e-15)

    def test_partial_overlap(self):
        m = UnitVector3(0.8, 0.0, 0.6)
        assert sg_probability(-1, Z, m, 1) == pytest.approx(0.2, abs=1e-12)

    def test_sign_convention_identity(self):
        m = UnitVector3(0.3, -0.5, 1.0)
        a = UnitVector3(-0.2, 0.9, 0.1)
        for x in (1, -1):
            assert sg_probability(x, a, m, 1) == sg_probability(-x, a, m, -1)

    def test_rotational_invariance(self):
        rng = np.random.default_rng(7)
        a = UnitVector3.from_array(rng.normal(size=3))
        m = UnitVector3.from_array(rng.normal(size=3))
        base = sg_probability(1, a, m)
        for _ in range(100):
            rot = random_rotation(rng)
            a_r = UnitVector3.from_array(rot @ a.as_array())
            m_r = UnitVector3.from_array(rot @ m.as_array())
            assert sg_probability(1, a_r, m_r) == pytest.approx(base, abs=1e-12)

    def test_never_negative_for_a_dot_product_past_one(self):
        a = UnitVector3(0.36486176735685877, 0.9240647543268905, -0.11393077078653184)
        assert a.dot(a) > 1.0
        assert (sg_probability(1, a, a), sg_probability(-1, a, a)) == (1.0, 0.0)
        assert a.cos_to(a) == 1.0 and a.angle_to(a) == 0.0

    @PROPERTY
    @given(orientation_pairs(), st.sampled_from([-1, 1]))
    def test_probabilities_in_unit_interval_and_normalized(self, pair, sign):
        p = [sg_probability(x, *pair, sign) for x in (1, -1)]
        assert all(0 <= q <= 1 for q in p)
        assert abs(sum(p) - 1.0) <= 1e-15

    def test_born_rule_pin(self):
        # Regression pin: the probability equals (1 + x a.m)/2 identically.
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = UnitVector3.from_array(rng.normal(size=3))
            m = UnitVector3.from_array(rng.normal(size=3))
            for x in (1, -1):
                assert sg_probability(x, a, m) == pytest.approx(
                    (1 + x * a.dot(m)) / 2, abs=1e-15
                )


class TestSampling:
    def test_aligned_all_plus(self):
        log = sample_sg(Z, Z, 100, seed=5)
        assert np.all(log.outcomes == 1)

    def test_orthogonal_balance(self):
        log = sample_sg(X, Z, 10**6, seed=11)
        n_plus = int(np.sum(log.outcomes == 1))
        # binomial 5-sigma bound around N/2
        assert abs(n_plus / 10**6 - 0.5) < 5 * math.sqrt(0.25 / 10**6)

    def test_deterministic(self):
        log1 = sample_sg(X, Z, 10, seed=42)
        log2 = sample_sg(X, Z, 10, seed=42)
        assert np.array_equal(log1.outcomes, log2.outcomes)

    def test_derived_seeds_stable_and_distinct(self):
        seeds = derive_seeds(123, 4)
        assert seeds == derive_seeds(123, 4)
        assert len(set(seeds)) == 4

    @PROPERTY
    @given(orientation_pairs(), st.sampled_from([-1, 1]), st.integers(1, 3000),
           st.integers(0, 2**64 - 1))
    def test_matches_where_bitwise(self, pair, sign, n, seed):
        outcomes = sample_sg(*pair, n, seed, sign).outcomes
        assert outcomes.dtype == np.int8
        assert outcomes.tobytes() == _where_outcomes(*pair, n, seed, sign).tobytes()

    def test_theta_invariant(self):
        log = sample_sg(UnitVector3.from_polar(1.1), Z, 10, seed=1)
        assert log.theta == pytest.approx(1.1, abs=1e-12)


class TestEventLog:
    @pytest.mark.parametrize("outcomes", [
        np.array([257, -257, 1]),  # int8 would wrap these to [1, -1, 1]
        np.array([255, 1], dtype=np.uint8),
        np.array([1.5, -1]),  # int8 would truncate 1.5 to 1
        np.array([1.0, math.nan]),
        np.array([1j, 1]),
        np.array([0, 1]),
        np.array([-128, 1], dtype=np.int8),
    ])
    def test_non_pm_one_rejected_before_narrowing(self, outcomes):
        with pytest.raises(ValueError, match=r"^outcomes must be \+1 or -1$"):
            EventLog(outcomes, Z, Z, seed=0)

    def test_int8_outcomes_kept_uncopied(self):
        outcomes = np.array([1, -1, -1], dtype=np.int8)
        assert EventLog(outcomes, Z, Z, seed=0).outcomes is outcomes

    @pytest.mark.parametrize("outcomes", [[1, -1], [1.0, -1.0], np.array([1, -1], dtype=np.int64)])
    def test_other_pm_one_values_narrowed(self, outcomes):
        narrowed = EventLog(outcomes, Z, Z, seed=0).outcomes
        assert narrowed.dtype == np.int8 and narrowed.tolist() == [1, -1]


class TestEstimate:
    def test_known_counts(self):
        log = EventLog(np.array([1] * 75 + [-1] * 25), Z, Z, seed=0)
        e_hat, stderr = estimate_expectation(log)
        assert e_hat == pytest.approx(0.5)
        assert stderr == pytest.approx(math.sqrt(0.75 / 100))

    def test_all_plus(self):
        log = EventLog(np.ones(10, dtype=int), Z, Z, seed=0)
        e_hat, stderr = estimate_expectation(log)
        assert e_hat == 1.0 and stderr == 0.0

    def test_balanced(self):
        log = EventLog(np.array([1, -1] * 25), Z, Z, seed=0)
        assert estimate_expectation(log)[0] == 0.0

    def test_empty_raises(self):
        log = EventLog(np.array([1]), Z, Z, seed=0)
        with pytest.raises(EmptyLog):
            estimate_expectation(log)


class TestRobustFit:
    thetas = np.linspace(0, math.pi, 16)

    def test_exact_cosine(self):
        fit = fit_robust_solution(self.thetas, np.cos(self.thetas))
        assert fit.k_winding == 1 and fit.phi == 0.0
        assert fit.residual < 1e-12
        assert fit.fisher == 1.0

    def test_exact_double_winding_with_phase(self):
        data = np.cos(2 * self.thetas + math.pi)
        fit = fit_robust_solution(self.thetas, data)
        assert fit.k_winding == 2 and fit.phi == math.pi

    def test_monte_carlo_recovery(self):
        thetas = np.linspace(0, math.pi, 16)
        e_hats, stderrs = [], []
        for i, theta in enumerate(thetas):
            log = sample_sg(UnitVector3.from_polar(theta), Z, 10**5, seed=1000 + i)
            e_hat, stderr = estimate_expectation(log)
            e_hats.append(e_hat)
            stderrs.append(stderr)
        fit = fit_robust_solution(thetas, e_hats, stderrs=stderrs)
        assert fit.k_winding == 1 and fit.phi == 0.0
        assert fit.residual < 3 * np.mean(stderrs)

    def test_aliasing_prefers_smallest_k(self):
        # On a 9-point grid with spacing pi/8, K=15 aliases K=1 exactly.
        thetas = np.linspace(0, math.pi, 9)
        data = np.cos(thetas)
        assert np.allclose(np.cos(15 * thetas), data, atol=1e-12)
        fit = fit_robust_solution(thetas, data, k_max=16)
        assert fit.k_winding == 1

    def test_constant_data_is_no_signal(self):
        with pytest.raises(NoSignal):
            fit_robust_solution(self.thetas, np.full(16, 0.3))

    def test_too_few_points(self):
        with pytest.raises(InsufficientData):
            fit_robust_solution(self.thetas[:5], np.cos(self.thetas[:5]))

    def test_distinct_angles_counted(self):
        # 16 angles spanning [0, pi], but only 7 distinct values.
        thetas = np.linspace(0, math.pi, 7)[np.arange(16) % 7]
        with pytest.raises(InsufficientData, match="8 distinct"):
            fit_robust_solution(thetas, np.cos(thetas))

    def test_non_finite_angle(self):
        thetas = np.append(np.linspace(0, math.pi, 15), np.nan)
        with pytest.raises(InsufficientData, match="finite"):
            fit_robust_solution(thetas, np.cos(thetas))

    def test_span_required(self):
        short = np.linspace(0, 2.0, 16)
        with pytest.raises(InsufficientData):
            fit_robust_solution(short, np.cos(short))

    @pytest.mark.parametrize("stderrs", [
        [math.nan] * 16,
        [-1e-3] * 16,
        [1e-3] * 15 + [math.nan],
        [1e-3] * 15 + [-1e-3],
        [1e-3] * 3,
        [1e-3] * 17,
    ])
    def test_invalid_stderrs_rejected(self, stderrs):
        with pytest.raises(InsufficientData, match="^stderrs must be one nonnegative number"):
            fit_robust_solution(self.thetas, np.cos(self.thetas), stderrs=stderrs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_expectation(self, bad):
        e_hats = np.append(np.cos(self.thetas[:-1]), bad)
        with pytest.raises(InsufficientData, match="finite"):
            fit_robust_solution(self.thetas, e_hats)

    def test_zero_stderrs_keep_exact_winner(self):
        fit = fit_robust_solution(self.thetas, np.cos(2 * self.thetas), stderrs=[0.0] * 16)
        assert fit.k_winding == 2 and fit.phi == 0.0

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.data())
    def test_exact_data_recovers_winding_and_phase(self, data):
        # Equally spaced angles over [0, pi]; with fewer than k_max + 2 of them a
        # winding number can alias onto another.
        k_max = data.draw(st.integers(1, 8), label="k_max")
        k = data.draw(st.integers(1, k_max), label="K")
        phi = data.draw(st.sampled_from([0.0, math.pi]), label="phi")
        thetas = np.linspace(0, math.pi, data.draw(st.integers(max(8, k_max + 2), 39), label="N"))
        fit = fit_robust_solution(thetas, np.cos(k * thetas + phi), k_max=k_max)
        assert (fit.k_winding, fit.phi) == (k, phi)

    def test_sampling_consistency_12_points(self):
        thetas = np.linspace(0.1, math.pi - 0.1, 12)
        for i, theta in enumerate(thetas):
            log = sample_sg(UnitVector3.from_polar(theta), Z, 10**6, seed=500 + i)
            e_hat, stderr = estimate_expectation(log)
            assert abs(e_hat - math.cos(theta)) < 5 * stderr
