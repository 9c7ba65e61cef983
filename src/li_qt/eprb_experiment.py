"""EPRB thought experiment: paired outcomes at two Stern-Gerlach magnets.

Each repetition produces a pair (x, y) in {+1,-1}^2 at magnet orientations
a1, a2.  The robust description with the singlet sign convention is

    P(x, y) = (1 - x y a1.a2) / 4,

with uniform marginals and correlation <xy> = -a1.a2.  The opposite sign
(correlation +a1.a2) is exposed through ``correlation_sign=+1`` since the
relative orientation of the two magnets fixes it only up to a flip.

``singlet_compliance_test`` is the five-standard-deviation hypothesis test of
observed <xy> against -a1.a2; ``marginal_uniformity_test`` checks the uniform
marginals the same way.  Each takes a log or, in its ``*_from_counts`` form, the
log's count table, on which alone the i-prob of independent pairs depends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EmptyLog
from .inference_core import PAIR_SPACE, CountTable, ExperimentConditions
from .sg_experiment import UnitVector3, pm_one_int8


@dataclass(frozen=True)
class PairEventLog:
    """Sequence of outcome pairs plus the generating configuration."""

    xs: np.ndarray
    ys: np.ndarray
    a1: UnitVector3
    a2: UnitVector3
    seed: int
    conditions: ExperimentConditions = field(default_factory=ExperimentConditions)

    def __post_init__(self):
        xs, ys = pm_one_int8(self.xs), pm_one_int8(self.ys)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("xs and ys must be equal-length flat sequences")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @cached_property
    def theta(self) -> float:
        return self.a1.angle_to(self.a2)

    @property
    def n(self) -> int:
        return int(self.xs.size)

    def count_table(self) -> CountTable:
        return CountTable.from_pairs(self.xs, self.ys)


@dataclass(frozen=True)
class CorrelationReport:
    xy_mean: float
    x_mean: float
    y_mean: float
    stderr_xy: float
    n: int


def eprb_probability(
    pair: tuple[int, int],
    a1: UnitVector3,
    a2: UnitVector3,
    correlation_sign: int = -1,
) -> float:
    """Pair probability (1 + s x y a1.a2) / 4 with s the correlation sign, never negative."""
    x, y = pair
    if x not in (1, -1) or y not in (1, -1):
        raise ValueError("pair outcomes must be +1 or -1")
    if correlation_sign not in (1, -1):
        raise ValueError("correlation sign must be +1 or -1")
    return (1 + correlation_sign * x * y * a1.cos_to(a2)) / 4


def pair_probabilities(
    a1: UnitVector3, a2: UnitVector3, correlation_sign: int = -1
) -> np.ndarray:
    """Probabilities of the four pair outcomes in PAIR_SPACE order."""
    return np.array(
        [eprb_probability(p, a1, a2, correlation_sign) for p in PAIR_SPACE]
    )


def sample_eprb(
    a1: UnitVector3,
    a2: UnitVector3,
    n: int,
    seed: int,
    correlation_sign: int = -1,
) -> PairEventLog:
    """Draw n independent pairs from the four-outcome distribution."""
    if n < 1:
        raise ValueError("need at least one pair")
    edges = np.cumsum(pair_probabilities(a1, a2, correlation_sign))
    rng = np.random.Generator(np.random.PCG64(seed))
    uniforms = rng.random(n)
    # No probability is negative, so the edges are sorted and a pair's PAIR_SPACE
    # index is the number of edges at or below its uniform; edges[:3] stops it at 3.
    past = [uniforms >= edge for edge in edges[:3]]
    return PairEventLog(
        xs=1 - 2 * past[1].view(np.int8),  # x = -1 from index 2 on
        ys=1 - 2 * (past[0] ^ past[1] ^ past[2]).view(np.int8),  # y = -1 at odd indices
        a1=a1,
        a2=a2,
        seed=int(seed),
    )


def sample_eprb_counts(
    a1: UnitVector3,
    a2: UnitVector3,
    n: int,
    seed: int,
) -> CountTable:
    """Multinomial draw of the four pair counts: sample_eprb's model, singlet sign.

    Useful for large-n calibration runs where individual event order does not
    matter.
    """
    if n < 1:
        raise ValueError("need at least one pair")
    probs = pair_probabilities(a1, a2)
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = rng.multinomial(n, probs)
    return CountTable(dict(zip(PAIR_SPACE, (int(k) for k in draws))), PAIR_SPACE)


def correlation_report_from_counts(counts: CountTable) -> CorrelationReport:
    if counts.outcome_space != PAIR_SPACE:
        raise ValueError("expected pair counts over the four (x, y) outcomes")
    n = counts.total
    if n < 2:
        raise EmptyLog(f"need at least 2 pairs, got {n}")
    vec = counts.as_vector().astype(float)
    xy = np.array([x * y for x, y in PAIR_SPACE], dtype=float)
    xv = np.array([x for x, _ in PAIR_SPACE], dtype=float)
    yv = np.array([y for _, y in PAIR_SPACE], dtype=float)
    xy_mean = float(vec @ xy / n)
    stderr_xy = math.sqrt(max(0.0, 1.0 - xy_mean**2) / n)
    return CorrelationReport(
        xy_mean=xy_mean,
        x_mean=float(vec @ xv / n),
        y_mean=float(vec @ yv / n),
        stderr_xy=stderr_xy,
        n=n,
    )


def correlation_report(log: PairEventLog) -> CorrelationReport:
    """Sample means <xy>, <x>, <y> and the standard error of <xy>."""
    return correlation_report_from_counts(log.count_table())


def marginal_uniformity_from_counts(counts: CountTable) -> tuple[float, float]:
    """Sigma-distances of the x and y marginals from the P = 1/2 prediction.

    The standard error is taken under the uniform-marginal null, 1/sqrt(N),
    so a log with all x = +1 scores exactly sqrt(N).
    """
    n = counts.total
    if n < 100:
        raise EmptyLog(f"marginal test needs at least 100 pairs, got {n}")
    report = correlation_report_from_counts(counts)
    scale = math.sqrt(n)
    return abs(report.x_mean) * scale, abs(report.y_mean) * scale


def marginal_uniformity_test(log: PairEventLog) -> tuple[float, float]:
    """``marginal_uniformity_from_counts`` of the log's count table."""
    return marginal_uniformity_from_counts(log.count_table())


def singlet_compliance_from_counts(
    counts: CountTable, a1: UnitVector3, a2: UnitVector3
) -> tuple[float, bool]:
    n = counts.total
    if n < 100:
        raise EmptyLog(f"compliance test needs at least 100 pairs, got {n}")
    report = correlation_report_from_counts(counts)
    deviation = abs(report.xy_mean + a1.dot(a2))
    if deviation == 0.0:
        sigma = 0.0
    elif report.stderr_xy == 0.0:
        sigma = math.inf
    else:
        sigma = deviation / report.stderr_xy
    return sigma, sigma <= 5.0


def singlet_compliance_test(log: PairEventLog) -> tuple[float, bool]:
    """Five-sigma test of <xy> against the singlet value -a1.a2."""
    return singlet_compliance_from_counts(log.count_table(), log.a1, log.a2)
