"""Plausibility algebra for dichotomic experiments.

A dichotomic experiment produces outcomes x in {+1, -1} with inference
probability (i-prob)

    P(x | theta) = (1 + x E(theta)) / 2,

where E(theta) is the expectation of x under the conditions summarised by the
angle theta.  Repeating the experiment N times yields a count table whose
i-prob is multinomial.  The evidence of the hypothesis "conditions were
theta + epsilon" against "conditions were theta" is the log-ratio of the two
multinomial i-probs; its quadratic expansion in epsilon is governed by the
Fisher information

    I_F(theta) = E'(theta)^2 / (1 - E(theta)^2).

Robust experiments (evidence magnitude independent of theta, not constant in
theta) force E(theta) = cos(K theta + phi) with integer winding number K >= 1
and phi in {0, pi}; those closed forms are constructed by
``DichotomicModel.robust``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DegenerateProbability, MismatchedDimensions

#: Documented smallness bound for the evidence expansion parameter epsilon.
EPSILON_BOUND = math.pi / 8

#: The two outcomes x, in the order dichotomic count tables use.
DICHOTOMIC_SPACE = ((1,), (-1,))

#: The four pair outcomes (x, y), in the order pair count tables use.
PAIR_SPACE = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass(frozen=True)
class ExperimentConditions:
    """Opaque record of the fixed conditions under which data was taken."""

    label: str = ""
    parameters: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class CountTable:
    """Outcome counts of a repeated experiment.

    ``counts`` maps outcome tuples (e.g. ``(+1,)`` or ``(+1, -1)``) to
    nonnegative integers; ``outcome_space`` fixes the ordering used whenever
    counts are paired with a probability vector.
    """

    counts: Mapping[tuple, int]
    outcome_space: tuple

    def __post_init__(self):
        for key, n in self.counts.items():
            if key not in self.outcome_space:
                raise ValueError(f"count key {key!r} not in declared outcome space")
            if n < 0 or n != int(n):
                raise ValueError(f"count for {key!r} must be a nonnegative integer")

    @property
    def total(self) -> int:
        return int(sum(self.counts.values()))

    def as_vector(self) -> np.ndarray:
        """Counts as an integer vector ordered like ``outcome_space``."""
        return np.array([self.counts.get(k, 0) for k in self.outcome_space], dtype=np.int64)

    @classmethod
    def dichotomic(cls, n_plus: int, n_minus: int) -> "CountTable":
        return cls({(1,): int(n_plus), (-1,): int(n_minus)}, DICHOTOMIC_SPACE)

    @classmethod
    def from_outcomes(cls, outcomes: Sequence[int]) -> "CountTable":
        arr = np.asarray(outcomes)
        return cls.dichotomic(int(np.sum(arr == 1)), int(np.sum(arr == -1)))

    @classmethod
    def from_pairs(cls, xs: Sequence[int], ys: Sequence[int]) -> "CountTable":
        xs = np.asarray(xs)
        ys = np.asarray(ys)
        counts = {
            (x, y): int(np.count_nonzero((xs == x) & (ys == y))) for (x, y) in PAIR_SPACE
        }
        return cls(counts, PAIR_SPACE)


@dataclass(frozen=True)
class DichotomicModel:
    """Expectation model E(theta) of a two-outcome experiment, with its derivative.

    ``robust`` builds the closed forms E(theta) = cos(K theta + phi).
    """

    expectation_fn: Callable[[float], float]
    derivative_fn: Callable[[float], float]

    @classmethod
    def robust(cls, k_winding: int, phi: float) -> "DichotomicModel":
        """Closed-form robust solution E(theta) = cos(K theta + phi)."""
        if k_winding < 1 or k_winding != int(k_winding):
            raise ValueError("winding number must be an integer K >= 1")
        if not (math.isclose(phi, 0.0, abs_tol=1e-15) or math.isclose(phi, math.pi, rel_tol=0, abs_tol=1e-15)):
            raise ValueError("phase offset must be 0 or pi")
        k = int(k_winding)
        return cls(
            lambda theta: math.cos(k * theta + phi),
            lambda theta: -k * math.sin(k * theta + phi),
        )

    def expectation(self, theta: float) -> float:
        e = float(self.expectation_fn(theta))
        if abs(e) > 1 + 1e-12:
            raise ValueError(f"expectation {e} outside [-1, 1] at theta={theta}")
        return min(1.0, max(-1.0, e))

    def probabilities(self, theta: float) -> np.ndarray:
        """[P(+1), P(-1)] at theta."""
        e = self.expectation(theta)
        return np.array([(1 + e) / 2, (1 - e) / 2])


def log_multinomial_iprob(counts: CountTable, probs: Sequence[float]) -> float:
    """Natural log of the multinomial i-prob N! prod_x p_x^{n_x} / n_x!.

    Factorials go through log-gamma so counts up to ~1e8 stay representable.
    If some n_x > 0 has p_x = 0 the data is impossible under the hypothesis
    and the function returns -inf (a legitimate log-ratio divergence), never
    raises.
    """
    vec = counts.as_vector()
    p = np.asarray(probs, dtype=float)
    if p.shape != vec.shape:
        raise MismatchedDimensions(
            f"{len(p)} probabilities for {len(vec)} outcome classes"
        )
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
    n = counts.total
    if np.any((p == 0) & (vec > 0)):
        return -math.inf
    occupied = vec > 0
    log_p_terms = float(np.sum(vec[occupied] * np.log(p[occupied])))
    log_coeff = math.lgamma(n + 1) - float(np.sum([math.lgamma(k + 1) for k in vec]))
    return log_coeff + log_p_terms


def _check_epsilon(epsilon: float) -> None:
    if abs(epsilon) >= EPSILON_BOUND:
        raise ValueError(
            f"|epsilon| = {abs(epsilon):.4f} exceeds the smallness bound pi/8"
        )


def _strict_probs(model: DichotomicModel, theta: float) -> np.ndarray:
    p = model.probabilities(theta)
    if np.any(p <= 0) or np.any(p >= 1):
        raise DegenerateProbability(
            f"probabilities {p} at theta={theta} are not strictly inside (0, 1)"
        )
    return p


def evidence(counts: CountTable, model: DichotomicModel, theta: float, epsilon: float) -> float:
    """Log-ratio of count-table i-probs under theta + epsilon vs theta.

    Positive evidence means the shifted hypothesis is the more plausible one.
    """
    _check_epsilon(epsilon)
    p0 = _strict_probs(model, theta)
    p1 = _strict_probs(model, theta + epsilon)
    return log_multinomial_iprob(counts, p1) - log_multinomial_iprob(counts, p0)


def evidence_quadratic(counts: CountTable, model: DichotomicModel, theta: float, epsilon: float) -> float:
    """Quadratic (small-epsilon) evidence: -(N epsilon^2 / 2) I_F(theta).

    Agrees with ``evidence`` to O(epsilon^3) when the counts equal N times the
    model probabilities at theta (the frequency identification n_x = N p_x).
    """
    _check_epsilon(epsilon)
    if epsilon == 0.0:
        return 0.0
    return -(counts.total * epsilon**2 / 2) * fisher_dichotomic(model, theta)


def fisher_dichotomic(model: DichotomicModel, theta: float) -> float:
    """Fisher information E'(theta)^2 / (1 - E(theta)^2) of the model.

    For the robust closed forms this is exactly k_winding^2, independent of
    theta away from the degenerate points |E| = 1.
    """
    e = model.expectation(theta)
    denom = 1.0 - e * e
    if denom <= 0.0:
        raise DegenerateProbability(f"|E(theta)| = 1 at theta={theta}")
    de = float(model.derivative_fn(theta))
    return de * de / denom
