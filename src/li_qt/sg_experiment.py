"""Stern-Gerlach experiment: simulation, estimation, robust-solution fit.

A source fires particles of magnetic-moment direction m through a magnet of
orientation a; each event lands in one of two detectors, outcome x = +1 or -1.
The robust description depends on a and m only through a . m = cos(theta) and
reads P(x) = (1 +/- x a.m) / 2.  ``fit_robust_solution`` recovers the winding
number K and phase phi of E(theta) = cos(K theta + phi) from estimated
expectations on a theta grid, preferring the smallest K consistent with the
data (minimum Fisher information).

Randomness: all sampling uses numpy's PCG64 generator seeded explicitly;
outcomes are ``+1 where uniform < P(+1)`` so event logs are reproducible
bit-for-bit for a fixed seed.  ``derive_seeds`` splits a master seed into
independent child streams for parallel repeats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import EmptyLog, InsufficientData, NoSignal
from .inference_core import CountTable, ExperimentConditions

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class UnitVector3:
    """Direction in 3-space, renormalized to unit length on construction."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        x, y, z = float(self.x), float(self.y), float(self.z)
        norm = math.sqrt(x**2 + y**2 + z**2)
        if norm == 0.0 or not math.isfinite(norm):
            raise ValueError("cannot normalize a zero or non-finite vector")
        if abs(norm - 1.0) > _UNIT_TOL:
            x, y, z = x / norm, y / norm, z / norm
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @classmethod
    def from_array(cls, v: Sequence[float]) -> "UnitVector3":
        v = np.asarray(v, dtype=float)
        if v.shape != (3,):
            raise ValueError("expected a 3-vector")
        return cls(*v.tolist())

    @classmethod
    def from_polar(cls, theta: float, azimuth: float = 0.0) -> "UnitVector3":
        """Unit vector at polar angle theta from +z, in the azimuth plane."""
        return cls(
            math.sin(theta) * math.cos(azimuth),
            math.sin(theta) * math.sin(azimuth),
            math.cos(theta),
        )

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def dot(self, other: "UnitVector3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cos_to(self, other: "UnitVector3") -> float:
        """The dot product clamped to [-1, 1], which rounding and ``_UNIT_TOL`` can overstep."""
        return min(1.0, max(-1.0, self.dot(other)))

    def angle_to(self, other: "UnitVector3") -> float:
        return math.acos(self.cos_to(other))


def pm_one_int8(values) -> np.ndarray:
    """``values`` as int8, each checked to be +1 or -1 first (narrowing wraps 255 to -1).

    An int8 array passes through uncopied.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf" or not (np.abs(arr) == 1).all():
        raise ValueError("outcomes must be +1 or -1")
    return arr.astype(np.int8, copy=False)


@dataclass(frozen=True)
class EventLog:
    """Time series of dichotomic outcomes plus the generating configuration."""

    outcomes: np.ndarray
    a: UnitVector3
    m_direction: UnitVector3
    seed: int
    conditions: ExperimentConditions = field(default_factory=ExperimentConditions)

    def __post_init__(self):
        arr = pm_one_int8(self.outcomes)
        if arr.ndim != 1:
            raise ValueError("outcomes must be a flat sequence")
        object.__setattr__(self, "outcomes", arr)

    @cached_property
    def theta(self) -> float:
        return self.a.angle_to(self.m_direction)

    @property
    def n(self) -> int:
        return int(self.outcomes.size)

    def count_table(self) -> CountTable:
        minus = int(np.count_nonzero(self.outcomes < 0))
        return CountTable.dichotomic(self.n - minus, minus)


@dataclass(frozen=True)
class RobustFit:
    """Result of fitting E(theta) = cos(K theta + phi) to expectation data."""

    k_winding: int
    phi: float
    residual: float
    fisher: float

    def __post_init__(self):
        if self.residual < 0:
            raise ValueError("residual must be nonnegative")


def sg_probability(x: int, a: UnitVector3, m: UnitVector3, sign: int = 1) -> float:
    """Outcome probability (1 +/- x a.m) / 2.

    The sign picks the labelling of the two detectors; it satisfies
    sg_probability(x, a, m, +1) == sg_probability(-x, a, m, -1) identically.
    """
    if x not in (1, -1):
        raise ValueError("outcome must be +1 or -1")
    if sign not in (1, -1):
        raise ValueError("sign convention must be +1 or -1")
    return (1 + sign * x * a.cos_to(m)) / 2


def derive_seeds(seed: int, count: int) -> list[int]:
    """Split a master seed into ``count`` independent 64-bit child seeds."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def sample_sg(
    a: UnitVector3,
    m: UnitVector3,
    n: int,
    seed: int,
    sign: int = 1,
) -> EventLog:
    """Draw n independent outcomes with P(+1) = sg_probability(+1, a, m, sign)."""
    if n < 1:
        raise ValueError("need at least one event")
    p_plus = sg_probability(1, a, m, sign)
    rng = np.random.Generator(np.random.PCG64(seed))
    uniforms = rng.random(n)
    return EventLog(
        outcomes=1 - 2 * (uniforms >= p_plus).view(np.int8),
        a=a,
        m_direction=m,
        seed=int(seed),
    )


def estimate_from_counts(counts: CountTable) -> tuple[float, float]:
    """Sample mean of x, (n(+1) - n(-1)) / N, and its standard error sqrt((1 - E^2)/N).

    The mean equals ``np.mean`` of the outcomes bit for bit: their sum is an exact
    integer either way, and the one division is correctly rounded.
    """
    n = counts.total
    if n < 2:
        raise EmptyLog(f"need at least 2 events to estimate, got {n}")
    n_plus, n_minus = counts.as_vector().tolist()
    e_hat = (n_plus - n_minus) / n
    stderr = math.sqrt(max(0.0, 1.0 - e_hat * e_hat) / n)
    return e_hat, stderr


def estimate_expectation(log: EventLog) -> tuple[float, float]:
    """Sample mean of x and its standard error sqrt((1 - E^2)/N)."""
    return estimate_from_counts(log.count_table())


def fit_robust_solution(
    thetas: Sequence[float],
    e_hats: Sequence[float],
    k_max: int = 8,
    stderrs: Sequence[float] | None = None,
) -> RobustFit:
    """Exhaustive scan of E(theta) = cos(K theta + phi) over K in 1..k_max.

    phi is restricted to {0, pi} because E must be a function of cos(theta)
    alone.  K = 0 (a theta-independent model) is excluded: if no periodic
    candidate beats the best constant fit, NoSignal is raised.  When several
    K tie within one mean standard error (aliasing on a coarse grid), the
    smallest — the minimum-Fisher-information solution — wins.
    """
    th = np.asarray(thetas, dtype=float)
    eh = np.asarray(e_hats, dtype=float)
    if th.shape != eh.shape or th.ndim != 1:
        raise InsufficientData("thetas and e_hats must be equal-length 1-d sequences")
    if not (np.all(np.isfinite(th)) and np.all(np.isfinite(eh))):
        raise InsufficientData("theta and e_hat values must be finite")
    if len(set(th.tolist())) < 8:  # not np.unique, which imports numpy.ma
        raise InsufficientData("need at least 8 distinct theta values")
    if th.max() - th.min() < math.pi - 1e-9:
        raise InsufficientData("theta values must span at least [0, pi]")
    if k_max < 1:
        raise InsufficientData("k_max must be at least 1")

    tie_tol = 1e-12
    if stderrs is not None:
        se = np.asarray(stderrs, dtype=float)
        if se.shape != th.shape or not np.all(se >= 0):  # NaN fails too
            raise InsufficientData("stderrs must be one nonnegative number per theta")
        tie_tol = float(np.mean(se))

    candidates = []
    for k in range(1, k_max + 1):
        for phi in (0.0, math.pi):
            resid = float(np.sqrt(np.mean((np.cos(k * th + phi) - eh) ** 2)))
            candidates.append((k, phi, resid))
    best_resid = min(c[2] for c in candidates)

    const_resid = float(np.sqrt(np.mean((eh - eh.mean()) ** 2)))
    if best_resid + tie_tol >= const_resid:
        raise NoSignal(
            f"best periodic residual {best_resid:.3e} does not beat the "
            f"constant-model residual {const_resid:.3e}"
        )

    # Ascending K: the smallest winner survives; the best candidate itself qualifies.
    k, phi, resid = next(c for c in candidates if c[2] <= best_resid + tie_tol)
    return RobustFit(k_winding=k, phi=phi, residual=resid, fisher=float(k * k))
