import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import orientation_pairs, random_rotation
from li_qt.errors import EmptyLog
from li_qt.eprb_experiment import (
    PAIR_SPACE,
    PairEventLog,
    correlation_report,
    correlation_report_from_counts,
    eprb_probability,
    marginal_uniformity_test,
    pair_probabilities,
    sample_eprb,
    sample_eprb_counts,
    singlet_compliance_from_counts,
    singlet_compliance_test,
)
from li_qt.inference_core import (
    CountTable,
    DichotomicModel,
    fisher_dichotomic,
)
from li_qt.sg_experiment import UnitVector3, fit_robust_solution

Z = UnitVector3(0.0, 0.0, 1.0)
X = UnitVector3(1.0, 0.0, 0.0)
# a . a = 1 + 2.2e-16: rounding takes the raw dot product past 1.
PAST_ONE = UnitVector3(0.36486176735685877, 0.9240647543268905, -0.11393077078653184)
# a . a = 1 + 1e-12: a length inside _UNIT_TOL is not renormalized.
INSIDE_TOL = UnitVector3(1 + 5e-13, 0.0, 0.0)
SIGNS = st.sampled_from([-1, 1])
PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)


def _searchsorted_pairs(a1, a2, n, seed, correlation_sign):
    """xs and ys as ``sample_eprb`` drew them with ``searchsorted`` and a lookup table.

    This was the sampler before it compared the uniforms with the CDF edges; it is
    kept here only as the reference for bitwise equality.
    """
    edges = np.cumsum(pair_probabilities(a1, a2, correlation_sign))
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = np.searchsorted(edges, rng.random(n), side="right")
    idx = np.minimum(idx, 3)  # guard the u == 1.0 endpoint
    lookup = np.array(PAIR_SPACE, dtype=np.int8)
    return lookup[idx, 0], lookup[idx, 1]


class TestPairProbability:
    def test_perfect_anticorrelation(self):
        assert eprb_probability((1, 1), Z, Z) == 0.0

    @pytest.mark.parametrize("pair", [(1, 0), (2, -1), (-1, -3)])
    def test_rejects_outcomes_other_than_plus_minus_one(self, pair):
        with pytest.raises(ValueError, match="pair outcomes must be"):
            eprb_probability(pair, Z, Z)

    def test_orthogonal_uniform(self):
        for pair in PAIR_SPACE:
            assert eprb_probability(pair, Z, X) == pytest.approx(0.25, abs=1e-15)

    def test_opposite_pair_aligned(self):
        assert eprb_probability((1, -1), Z, Z) == pytest.approx(0.5)

    def test_normalization_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            a1 = UnitVector3.from_array(rng.normal(size=3))
            a2 = UnitVector3.from_array(rng.normal(size=3))
            assert pair_probabilities(a1, a2).sum() == pytest.approx(1.0, abs=1e-15)

    def test_marginals_exactly_half(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a1 = UnitVector3.from_array(rng.normal(size=3))
            a2 = UnitVector3.from_array(rng.normal(size=3))
            p = pair_probabilities(a1, a2)
            # sum over y at fixed x
            assert p[0] + p[1] == pytest.approx(0.5, abs=1e-15)
            assert p[2] + p[3] == pytest.approx(0.5, abs=1e-15)

    def test_joint_rotational_invariance(self):
        rng = np.random.default_rng(5)
        a1 = UnitVector3.from_array(rng.normal(size=3))
        a2 = UnitVector3.from_array(rng.normal(size=3))
        base = pair_probabilities(a1, a2)
        for _ in range(100):
            rot = random_rotation(rng)
            r1 = UnitVector3.from_array(rot @ a1.as_array())
            r2 = UnitVector3.from_array(rot @ a2.as_array())
            assert pair_probabilities(r1, r2) == pytest.approx(base, abs=1e-12)

    def test_correlation_sign_flip(self):
        assert eprb_probability((1, 1), Z, Z, correlation_sign=1) == pytest.approx(0.5)

    @pytest.mark.parametrize("a", [PAST_ONE, INSIDE_TOL], ids=["past_one", "inside_tol"])
    def test_never_negative_for_a_dot_product_past_one(self, a):
        assert a.dot(a) > 1.0
        assert pair_probabilities(a, a).tolist() == [0.0, 0.5, 0.5, 0.0]

    def test_cdf_edges_sorted(self):
        edges = np.cumsum(pair_probabilities(PAST_ONE, PAST_ONE))
        assert np.all(np.diff(edges) >= 0) and edges.tolist() == [0.0, 0.5, 1.0, 1.0]

    @PROPERTY
    @given(orientation_pairs(), SIGNS)
    def test_probabilities_in_unit_interval_and_normalized(self, pair, sign):
        p = pair_probabilities(*pair, correlation_sign=sign)
        assert np.all((p >= 0) & (p <= 1))
        assert abs(p.sum() - 1.0) <= 1e-15


class TestPairEventLog:
    @pytest.mark.parametrize("bad", [
        np.array([255, 1]),  # int8 would wrap 255 to -1
        np.array([255, 1], dtype=np.uint8),
        np.array([-257, 1]),
        np.array([1.5, -1]),
    ])
    @pytest.mark.parametrize("side", ["xs", "ys"])
    def test_non_pm_one_rejected_before_narrowing(self, bad, side):
        good = np.array([1, -1], dtype=np.int8)
        pairs = {"xs": good, "ys": good, side: bad}
        with pytest.raises(ValueError, match=r"^outcomes must be \+1 or -1$"):
            PairEventLog(a1=Z, a2=X, seed=0, **pairs)

    def test_int8_outcomes_kept_uncopied(self):
        xs, ys = np.array([1, -1], dtype=np.int8), np.array([-1, -1], dtype=np.int8)
        log = PairEventLog(xs, ys, Z, X, seed=0)
        assert log.xs is xs and log.ys is ys


class TestSampling:
    def test_aligned_always_opposite(self):
        log = sample_eprb(Z, Z, 1000, seed=9)
        assert np.all(log.xs == -log.ys)

    def test_orthogonal_cells_within_5_sigma(self):
        log = sample_eprb(Z, X, 10**6, seed=17)
        counts = log.count_table().as_vector()
        expect = 10**6 / 4
        sigma = math.sqrt(10**6 * 0.25 * 0.75)
        assert np.all(np.abs(counts - expect) < 5 * sigma)

    def test_deterministic(self):
        log1 = sample_eprb(Z, X, 50, seed=4)
        log2 = sample_eprb(Z, X, 50, seed=4)
        assert np.array_equal(log1.xs, log2.xs) and np.array_equal(log1.ys, log2.ys)

    def test_counts_sampler_at_a_dot_product_past_one(self):
        counts = sample_eprb_counts(PAST_ONE, PAST_ONE, 1000, 1)
        assert counts.counts[(1, 1)] == counts.counts[(-1, -1)] == 0 and counts.total == 1000

    @PROPERTY
    @given(orientation_pairs(), SIGNS, st.integers(1, 3000), st.integers(0, 2**64 - 1))
    def test_matches_searchsorted_bitwise(self, pair, sign, n, seed):
        log = sample_eprb(*pair, n, seed, correlation_sign=sign)
        xs, ys = _searchsorted_pairs(*pair, n, seed, sign)
        assert log.xs.dtype == log.ys.dtype == np.int8
        assert log.xs.tobytes() == xs.tobytes() and log.ys.tobytes() == ys.tobytes()

    def test_counts_sampler_matches_model(self):
        a2 = UnitVector3.from_polar(1.0)
        counts = sample_eprb_counts(Z, a2, 10**6, seed=21)
        report = correlation_report_from_counts(counts)
        assert abs(report.xy_mean + math.cos(1.0)) < 5 * report.stderr_xy


class TestReports:
    def test_all_plus_minus(self):
        xs = np.ones(100, dtype=int)
        ys = -np.ones(100, dtype=int)
        counts = CountTable.from_pairs(xs, ys)
        report = correlation_report_from_counts(counts)
        assert report.xy_mean == -1.0
        assert report.x_mean == 1.0

    def test_exact_proportional_counts(self):
        # counts = N * P(x,y) at a1.a2 = 0.5 -> xy_mean = -0.5 exactly
        space = PAIR_SPACE
        counts = CountTable(
            {space[0]: 10, space[1]: 30, space[2]: 30, space[3]: 10}, space
        )
        report = correlation_report_from_counts(counts)
        assert report.xy_mean == pytest.approx(-0.5, abs=1e-15)
        assert report.x_mean == 0.0 and report.y_mean == 0.0

    def test_opposite_magnets_positive_correlation(self):
        a2 = UnitVector3(0.0, 0.0, -1.0)
        log = sample_eprb(Z, a2, 10**5, seed=31)
        report = correlation_report(log)
        assert report.xy_mean == pytest.approx(1.0, abs=1e-12)

    def test_empty_raises(self):
        counts = CountTable({PAIR_SPACE[0]: 1}, PAIR_SPACE)
        with pytest.raises(EmptyLog):
            correlation_report_from_counts(counts)


class TestMarginalUniformity:
    def test_balanced_counts_zero(self):
        xs = np.array([1, 1, -1, -1] * 50)
        ys = np.array([1, -1, 1, -1] * 50)
        log = sample_eprb(Z, X, 200, seed=0)
        log = type(log)(xs=xs, ys=ys, a1=Z, a2=X, seed=0)
        assert marginal_uniformity_test(log) == (0.0, 0.0)

    def test_simulated_below_5_sigma(self):
        log = sample_eprb(Z, UnitVector3.from_polar(0.7), 10**6, seed=23)
        sig_x, sig_y = marginal_uniformity_test(log)
        assert sig_x < 5 and sig_y < 5

    def test_adversarial_all_plus(self):
        n = 400
        xs = np.ones(n, dtype=int)
        ys = np.array([1, -1] * (n // 2))
        log = sample_eprb(Z, X, n, seed=0)
        log = type(log)(xs=xs, ys=ys, a1=Z, a2=X, seed=0)
        sig_x, _ = marginal_uniformity_test(log)
        assert sig_x == pytest.approx(math.sqrt(n), rel=1e-12)

    def test_minimum_size(self):
        log = sample_eprb(Z, X, 50, seed=1)
        with pytest.raises(EmptyLog):
            marginal_uniformity_test(log)


class TestSingletCompliance:
    def test_exact_counts_sigma_zero(self):
        space = PAIR_SPACE
        counts = CountTable(
            {space[0]: 100, space[1]: 300, space[2]: 300, space[3]: 100}, space
        )
        a2 = UnitVector3(math.sqrt(3) / 2, 0.0, 0.5)  # a1.a2 exactly 0.5
        sigma, ok = singlet_compliance_from_counts(counts, Z, a2)
        assert sigma == 0.0 and ok

    def test_simulated_passes(self):
        a2 = UnitVector3.from_polar(math.pi / 3)
        log = sample_eprb(Z, a2, 10**6, seed=77)
        sigma, ok = singlet_compliance_test(log)
        assert ok and sigma < 5

    def test_wrong_model_fails(self):
        # Data with <xy> = -0.9 a1.a2: effect size far beyond 5 stderr at N=1e6.
        d = 0.5
        weak = 0.9 * d
        probs = np.array([(1 - weak) / 4, (1 + weak) / 4, (1 + weak) / 4, (1 - weak) / 4])
        rng = np.random.Generator(np.random.PCG64(99))
        draws = rng.multinomial(10**6, probs)
        counts = CountTable(dict(zip(PAIR_SPACE, map(int, draws))), PAIR_SPACE)
        a2 = UnitVector3.from_polar(math.acos(d))
        sigma, ok = singlet_compliance_from_counts(counts, Z, a2)
        assert not ok and sigma > 5


class TestFisherPair:
    def test_singlet_form(self):
        model = DichotomicModel.robust(1, math.pi)  # E12 = -cos(theta)
        assert fisher_dichotomic(model, 0.8) == pytest.approx(1.0, abs=1e-9)

    def test_double_winding(self):
        model = DichotomicModel.robust(2, 0.0)
        assert fisher_dichotomic(model, 0.3) == pytest.approx(4.0, abs=1e-9)

    def test_constant_zero(self):
        model = DichotomicModel(lambda theta: 0.2, derivative_fn=lambda theta: 0.0)
        assert fisher_dichotomic(model, 1.0) == 0.0


class TestNoSignaling:
    def test_x_marginal_invariant_under_a2_change(self):
        n = 10**6
        log_a = sample_eprb(Z, UnitVector3.from_polar(0.4), n, seed=41)
        log_b = sample_eprb(Z, UnitVector3.from_polar(2.3), n, seed=42)
        x_a = float(np.mean(log_a.xs))
        x_b = float(np.mean(log_b.xs))
        combined_stderr = math.sqrt(2.0 / n)
        assert abs(x_a - x_b) < 5 * combined_stderr


class TestFormRecovery:
    def test_fit_returns_k1_phi_pi(self):
        thetas = np.linspace(0, math.pi, 12)
        e12s, stderrs = [], []
        for i, theta in enumerate(thetas):
            log = sample_eprb(Z, UnitVector3.from_polar(theta), 10**5, seed=600 + i)
            rep = correlation_report(log)
            e12s.append(rep.xy_mean)
            stderrs.append(rep.stderr_xy)
        fit = fit_robust_solution(thetas, e12s, stderrs=stderrs)
        assert fit.k_winding == 1 and fit.phi == math.pi
