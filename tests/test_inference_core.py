import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from li_qt.errors import DegenerateProbability, MismatchedDimensions
from li_qt.inference_core import (
    PAIR_SPACE,
    CountTable,
    DichotomicModel,
    evidence,
    evidence_quadratic,
    fisher_dichotomic,
    log_multinomial_iprob,
)


def enumerate_count_probability(counts: CountTable, probs) -> float:
    """Brute-force oracle: sum sequence probabilities over all orderings."""
    space = counts.outcome_space
    n = counts.total
    target = tuple(counts.counts.get(k, 0) for k in space)
    total = 0.0
    for seq in itertools.product(range(len(space)), repeat=n):
        if tuple(seq.count(i) for i in range(len(space))) == target:
            p = 1.0
            for i in seq:
                p *= probs[i]
            total += p
    return total


class TestIprob:
    """The i-prob [P(+1), P(-1)] = [(1 + E) / 2, (1 - E) / 2] of a model."""

    def test_certain_outcome_at_alignment(self):
        model = DichotomicModel.robust(1, 0.0)
        assert model.probabilities(0.0)[0] == pytest.approx(1.0, abs=1e-15)

    def test_symmetry_point(self):
        model = DichotomicModel.robust(1, 0.0)
        assert model.probabilities(math.pi / 2)[0] == pytest.approx(0.5, abs=1e-15)

    def test_direct_evaluation(self):
        # E = 0.5 at theta = pi/3, so P(-1) = (1 - 0.5)/2
        model = DichotomicModel.robust(1, 0.0)
        assert model.probabilities(math.pi / 3)[1] == pytest.approx(0.25, abs=1e-12)

    def test_sum_rule(self):
        model = DichotomicModel.robust(2, math.pi)
        for theta in np.linspace(0, 2 * math.pi, 101):
            assert abs(model.probabilities(theta).sum() - 1.0) <= 1e-15


class TestLogMultinomial:
    def test_two_singleton_counts(self):
        table = CountTable.dichotomic(1, 1)
        assert log_multinomial_iprob(table, [0.5, 0.5]) == pytest.approx(
            math.log(0.5), abs=1e-12
        )

    def test_certain_outcome(self):
        table = CountTable.dichotomic(10, 0)
        assert log_multinomial_iprob(table, [1.0, 0.0]) == 0.0

    def test_two_two_counts(self):
        # Oracle: 6 of the 16 sequences give counts (2,2); total 27/128.
        table = CountTable.dichotomic(2, 2)
        assert log_multinomial_iprob(table, [0.75, 0.25]) == pytest.approx(
            -1.556193397915288, abs=1e-10
        )

    def test_impossible_data_sentinel(self):
        table = CountTable.dichotomic(3, 1)
        assert log_multinomial_iprob(table, [1.0, 0.0]) == -math.inf

    def test_dimension_mismatch(self):
        table = CountTable.dichotomic(3, 1)
        with pytest.raises(MismatchedDimensions):
            log_multinomial_iprob(table, [0.5, 0.25, 0.25])

    def test_unnormalized_probs_rejected(self):
        table = CountTable.dichotomic(3, 1)
        with pytest.raises(ValueError):
            log_multinomial_iprob(table, [0.6, 0.6])

    @pytest.mark.parametrize("n_plus,n_minus", [(0, 3), (2, 2), (5, 1), (4, 4)])
    def test_against_enumeration(self, n_plus, n_minus):
        table = CountTable.dichotomic(n_plus, n_minus)
        probs = [0.37, 0.63]
        expected = math.log(enumerate_count_probability(table, probs))
        assert log_multinomial_iprob(table, probs) == pytest.approx(expected, abs=1e-10)

    def test_four_category_enumeration(self):
        space = ((1, 1), (1, -1), (-1, 1), (-1, -1))
        table = CountTable({space[0]: 2, space[1]: 1, space[2]: 0, space[3]: 2}, space)
        probs = [0.1, 0.4, 0.2, 0.3]
        expected = math.log(enumerate_count_probability(table, probs))
        assert log_multinomial_iprob(table, probs) == pytest.approx(expected, abs=1e-10)

    def test_large_counts_finite(self):
        table = CountTable.dichotomic(70_000_000, 30_000_000)
        value = log_multinomial_iprob(table, [0.7, 0.3])
        assert math.isfinite(value)


class TestEvidence:
    model = DichotomicModel.robust(1, 0.0)

    def test_zero_epsilon(self):
        table = CountTable.dichotomic(60, 40)
        assert evidence(table, self.model, 1.0, 0.0) == 0.0

    def test_matches_direct_two_term_formula(self):
        # Independent oracle: Ev = sum_x n_x log(p_x(theta+eps)/p_x(theta)).
        table = CountTable.dichotomic(75, 25)
        theta, eps = math.pi / 3, 0.01

        def p(x, th):
            return (1 + x * math.cos(th)) / 2

        direct = 75 * math.log(p(1, theta + eps) / p(1, theta)) + 25 * math.log(
            p(-1, theta + eps) / p(-1, theta)
        )
        assert evidence(table, self.model, theta, eps) == pytest.approx(direct, abs=1e-12)

    def test_maximum_likelihood_property(self):
        # Counts exactly equal to N p(theta): no shift can raise the evidence.
        theta = math.pi / 3
        table = CountTable.dichotomic(7500, 2500)  # N = 1e4, p_+ = 0.75
        for eps in np.linspace(-0.05, 0.05, 41):
            if eps == 0:
                continue
            assert evidence(table, self.model, theta, eps) <= 0.0

    def test_antisymmetry(self):
        table = CountTable.dichotomic(811, 189)
        theta, eps = 0.9, 0.03
        forward = evidence(table, self.model, theta, eps)
        backward = evidence(table, self.model, theta + eps, -eps)
        assert forward == pytest.approx(-backward, abs=1e-12)

    def test_degenerate_probability_raises(self):
        table = CountTable.dichotomic(5, 5)
        with pytest.raises(DegenerateProbability):
            evidence(table, self.model, 0.0, 0.01)

    def test_epsilon_bound_enforced(self):
        table = CountTable.dichotomic(5, 5)
        with pytest.raises(ValueError):
            evidence(table, self.model, 1.0, 0.5)


class TestEvidenceQuadratic:
    model = DichotomicModel.robust(1, 0.0)

    def test_zero_epsilon(self):
        table = CountTable.dichotomic(60, 40)
        assert evidence_quadratic(table, self.model, 1.0, 0.0) == 0.0

    def test_known_value(self):
        # I_F = 1 for the K=1 solution: -(1e4 * 1e-4 / 2) * 1 = -0.5.
        table = CountTable.dichotomic(5000, 5000)
        value = evidence_quadratic(table, self.model, math.pi / 4, 0.01)
        assert value == pytest.approx(-0.5, rel=1e-9)

    def test_cubic_order_agreement(self):
        # With counts = N p(theta) the difference to the full evidence is
        # third order: diff/(N eps^3) stays within a narrow constant band.
        theta = math.pi / 3
        table = CountTable.dichotomic(7500, 2500)
        n = table.total
        ratios = []
        for eps in (0.02, 0.01, 0.005):
            diff = abs(
                evidence(table, self.model, theta, eps)
                - evidence_quadratic(table, self.model, theta, eps)
            )
            ratios.append(diff / (n * eps**3))
        reference = ratios[-1]
        for ratio in ratios:
            assert 0.2 * reference <= ratio <= 5 * reference


class TestFisher:
    def test_unit_winding(self):
        model = DichotomicModel.robust(1, 0.0)
        for theta in np.linspace(0.1, math.pi - 0.1, 50):
            assert fisher_dichotomic(model, theta) == pytest.approx(1.0, abs=1e-9)

    def test_winding_three(self):
        model = DichotomicModel.robust(3, math.pi)
        assert fisher_dichotomic(model, 0.4) == pytest.approx(9.0, abs=1e-9)

    def test_constant_model_is_zero(self):
        model = DichotomicModel(lambda theta: 0.5, lambda theta: 0.0)
        assert fisher_dichotomic(model, 1.3) == 0.0

    def test_degenerate_point_raises(self):
        model = DichotomicModel.robust(1, 0.0)
        with pytest.raises(DegenerateProbability):
            fisher_dichotomic(model, 0.0)

    @pytest.mark.parametrize("k,phi", [(1, 0.0), (2, 0.0), (3, math.pi)])
    def test_constancy_over_theta_grid(self, k, phi):
        model = DichotomicModel.robust(k, phi)
        thetas = np.linspace(0.0, math.pi, 1000)
        values = [
            fisher_dichotomic(model, t)
            for t in thetas
            if abs(model.expectation(t)) < 0.99
        ]
        assert len(values) > 800
        assert max(values) - min(values) < 1e-9
        assert values[0] == pytest.approx(k * k, abs=1e-9)


class TestModelConstructors:
    def test_robust_rejects_bad_phase(self):
        with pytest.raises(ValueError):
            DichotomicModel.robust(1, 0.3)

    @pytest.mark.parametrize("k", [0, -1, 1.5])
    def test_robust_winding_must_be_integer_at_least_one(self, k):
        with pytest.raises(ValueError, match="K >= 1"):
            DichotomicModel.robust(k, 0.0)

    def test_count_table_vector_order(self):
        table = CountTable.dichotomic(7, 3)
        assert list(table.as_vector()) == [7, 3]
        assert table.total == 10


class TestPairCounts:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.one_of(st.sampled_from([1, -1]), st.integers(-128, 127))] * 2),
                    max_size=300))
    def test_matches_masked_sums(self, pairs):
        """Values outside +-1 count in no cell, as with the masked sums it replaced."""
        xs = np.array([x for x, _ in pairs], dtype=np.int8)
        ys = np.array([y for _, y in pairs], dtype=np.int8)
        table = CountTable.from_pairs(xs, ys)
        masked = {(x, y): int(np.sum((xs == x) & (ys == y))) for (x, y) in PAIR_SPACE}
        assert table.counts == masked and all(type(k) is int for k in table.counts.values())
