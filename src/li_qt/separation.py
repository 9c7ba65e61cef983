"""Separation of frequency data into source and instrument operators.

Expectation data from a dichotomic experiment can always be written as a
trace, <x> = Tr(rho X).  Separation asks for rho to depend only on the source
(moment direction m) and X only on the instrument (magnet direction a).  In
the Pauli basis that forces

    rho = (1 + m.sigma) / 2,    X = a.sigma            (one magnet)
    rho = (1 - sigma_1.sigma_2) / 4,  X = a1.sigma_1, Y = a2.sigma_2
                                                       (EPRB, singlet sign)

and it succeeds exactly when <x> is affine in a (respectively <xy> bilinear
in a1, a2).  ``separate_sg`` / ``separate_eprb`` perform the least-squares
version of that rewriting on a finite orientation design and raise
NonSeparable when the residual exceeds the noise floor, e.g. for data of the
form (1 + x (a.m)^2) / 2.

Matrix index convention for pairs: the row of outcome (x, y) is
(1 - x)/2 + (1 - y), i.e. the particle-1 index varies fastest.  Under that
ordering an operator A acting on particle 1 embeds as kron(I, A) and an
operator B on particle 2 as kron(B, I).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientDesign, NonSeparable, NotHermitian, NotPure
from .sg_experiment import UnitVector3

_HERMITIAN_TOL = 1e-12
_EXACT_RESIDUAL_FLOOR = 1e-8

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)
IDENTITY_2 = np.eye(2, dtype=complex)
# kron(sigma_l, sigma_k) at [k][l]: the sigma_1 . rho12 . sigma_2 basis, built once.
_PAULI_PAIRS = [[np.kron(PAULI[l], PAULI[k]) for l in range(3)] for k in range(3)]


def pauli_vector(v: Sequence[float]) -> np.ndarray:
    """v . sigma for a real 3-vector v."""
    v = np.asarray(v, dtype=float)
    return v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z


def embed_particle1(op: np.ndarray) -> np.ndarray:
    return np.kron(IDENTITY_2, op)


def embed_particle2(op: np.ndarray) -> np.ndarray:
    return np.kron(op, IDENTITY_2)


@dataclass(frozen=True)
class HermitianOperator:
    """2x2 or 4x4 complex Hermitian matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
            raise ValueError("operator must be a 2x2 or 4x4 matrix")
        if np.max(np.abs(m - m.conj().T)) > _HERMITIAN_TOL:
            raise NotHermitian("matrix differs from its conjugate transpose")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class PauliCoefficients4:
    """Two-particle expansion in the product Pauli basis.

    op = rho0 * 1 + rho1.sigma_1 + rho2.sigma_2 + sigma_1 . rho12 . sigma_2
    """

    rho0: float
    rho1: np.ndarray
    rho2: np.ndarray
    rho12: np.ndarray

    def to_matrix(self) -> np.ndarray:
        out = self.rho0 * np.eye(4, dtype=complex)
        out += embed_particle1(pauli_vector(self.rho1))
        out += embed_particle2(pauli_vector(self.rho2))
        for k in range(3):
            for l in range(3):
                out += self.rho12[k, l] * _PAULI_PAIRS[k][l]
        return out


def rho_to_state(rho: HermitianOperator) -> np.ndarray:
    """Unit eigenvector of a rank-1 projector, first nonzero entry real > 0."""
    m = rho.matrix
    if np.max(np.abs(m @ m - m)) > 1e-10:
        raise NotPure("operator is not idempotent within tolerance")
    if abs(np.trace(m).real - 1.0) > 1e-5:  # the square root of that tolerance
        raise NotPure("projector does not have unit trace (rank != 1)")
    eigvals, eigvecs = np.linalg.eigh(m)
    state = eigvecs[:, -1]
    # Global phase: make the first amplitude of significant modulus real positive.
    anchor = np.argmax(np.abs(state) > 1e-8)
    phase = state[anchor] / abs(state[anchor])
    return state / phase


@dataclass(frozen=True)
class SgSeparation:
    """Affine fit <x> = u0 + rho_vec . a over an orientation design."""

    m_est: np.ndarray
    u0: float
    residual: float
    trivial_signal: bool


def _sg_means(
    f: Callable[[int, UnitVector3, UnitVector3], float] | Sequence[float],
    design: Sequence[tuple[UnitVector3, UnitVector3]],
) -> np.ndarray:
    if callable(f):
        means = []
        for a, m in design:
            p_plus = float(f(1, a, m))
            p_minus = float(f(-1, a, m))
            if abs(p_plus + p_minus - 1.0) > 1e-9:
                raise ValueError("frequencies at a design point do not sum to 1")
            means.append(p_plus - p_minus)
        return np.asarray(means)
    means = np.asarray(f, dtype=float)
    if means.shape != (len(design),):
        raise ValueError("tabulated means must match the design length")
    return means


def separate_sg(
    f: Callable[[int, UnitVector3, UnitVector3], float] | Sequence[float],
    design: Sequence[tuple[UnitVector3, UnitVector3]],
    noise_floor: float | None = None,
) -> SgSeparation:
    """Separate single-magnet frequency data into source and instrument parts.

    ``f`` is either an evaluator f(x, a, m) -> frequency or a tabulated list
    of means <x> aligned with the design.  The design must hold the source
    direction fixed and vary the magnet over >= 6 configurations whose
    [1, a] rows have full rank.  Returns the fitted source vector (equal to m
    for separable data), the identity coefficient u0 (zero for separable
    data), and the rms residual.  Raises NonSeparable when the residual
    exceeds 10x the noise floor, or 1e-8 for exact inputs (no floor given).
    """
    if len(design) < 6:
        raise InsufficientDesign(f"need at least 6 design points, got {len(design)}")
    means = _sg_means(f, design)
    rows = np.array([[1.0, a.x, a.y, a.z] for a, _ in design])
    if np.linalg.matrix_rank(rows) < 4:
        raise InsufficientDesign("magnet directions do not span, rank < 4")
    coeffs, *_ = np.linalg.lstsq(rows, means, rcond=None)
    residual = float(np.sqrt(np.mean((rows @ coeffs - means) ** 2)))
    threshold = _EXACT_RESIDUAL_FLOOR if noise_floor is None else 10.0 * noise_floor
    if residual > threshold:
        raise NonSeparable(residual, threshold)
    u0 = float(coeffs[0])
    m_est = coeffs[1:]
    trivial = bool(np.linalg.norm(m_est) <= max(threshold, 1e-8))
    return SgSeparation(m_est=m_est, u0=u0, residual=residual, trivial_signal=trivial)


def build_eprb_operators(
    a1: UnitVector3, a2: UnitVector3
) -> tuple[HermitianOperator, HermitianOperator, HermitianOperator]:
    """Singlet source operator and the two instrument operators.

    rho = (1 - sigma_1.sigma_2)/4 satisfies Tr rho = 1, Tr rho X = 0,
    Tr rho Y = 0 and Tr rho X Y = -a1.a2.
    """
    sigma_dot_sigma = sum(_PAULI_PAIRS[k][k] for k in range(3))
    rho = (np.eye(4, dtype=complex) - sigma_dot_sigma) / 4
    xhat = embed_particle1(pauli_vector(a1.as_array()))
    yhat = embed_particle2(pauli_vector(a2.as_array()))
    return HermitianOperator(rho), HermitianOperator(xhat), HermitianOperator(yhat)


@dataclass(frozen=True)
class EprbSeparation:
    coeffs: PauliCoefficients4
    residual: float
    block_residuals: dict

    def rho(self) -> HermitianOperator:
        return HermitianOperator(self.coeffs.to_matrix())


def separate_eprb(
    design: Sequence[tuple[UnitVector3, UnitVector3]],
    x_means: Sequence[float],
    y_means: Sequence[float],
    xy_means: Sequence[float],
    noise_floor: float | None = None,
) -> EprbSeparation:
    """Solve for the source operator given instrument operators a1.sigma_1, a2.sigma_2.

    With rho expanded in the product Pauli basis the constraints read

        4 rho1 . a1    = <x>
        4 rho2 . a2    = <y>
        4 a1' rho12 a2 = <xy>        (and Tr rho = 1 fixes rho0 = 1/4)

    solved blockwise by least squares over the design.  Needs >= 9 pairs
    whose outer products a1 a2' span the 9-dimensional coefficient space.
    Raises NonSeparable when the combined rms residual exceeds 10x the noise
    floor, e.g. for correlations that are cubic rather than bilinear in the
    orientations.
    """
    n = len(design)
    if n < 9:
        raise InsufficientDesign(f"need at least 9 design points, got {n}")
    xm = np.asarray(x_means, dtype=float)
    ym = np.asarray(y_means, dtype=float)
    xym = np.asarray(xy_means, dtype=float)
    if not (xm.shape == ym.shape == xym.shape == (n,)):
        raise ValueError("means must be 1-d arrays matching the design length")

    a1_rows = np.array([a1.as_array() for a1, _ in design])
    a2_rows = np.array([a2.as_array() for _, a2 in design])
    outer_rows = np.array(
        [np.outer(a1.as_array(), a2.as_array()).ravel() for a1, a2 in design]
    )
    if np.linalg.matrix_rank(outer_rows) < 9:
        raise InsufficientDesign("orientation pairs do not span the 9 bilinear coefficients")

    rho1, *_ = np.linalg.lstsq(4 * a1_rows, xm, rcond=None)
    rho2, *_ = np.linalg.lstsq(4 * a2_rows, ym, rcond=None)
    rho12_flat, *_ = np.linalg.lstsq(4 * outer_rows, xym, rcond=None)
    rho12 = rho12_flat.reshape(3, 3)

    res_x = float(np.sqrt(np.mean((4 * a1_rows @ rho1 - xm) ** 2)))
    res_y = float(np.sqrt(np.mean((4 * a2_rows @ rho2 - ym) ** 2)))
    res_xy = float(np.sqrt(np.mean((4 * outer_rows @ rho12_flat - xym) ** 2)))
    residual = float(np.sqrt((res_x**2 + res_y**2 + res_xy**2) / 3))

    threshold = _EXACT_RESIDUAL_FLOOR if noise_floor is None else 10.0 * noise_floor
    if residual > threshold:
        raise NonSeparable(residual, threshold)
    coeffs = PauliCoefficients4(rho0=0.25, rho1=rho1, rho2=rho2, rho12=rho12)
    return EprbSeparation(
        coeffs=coeffs,
        residual=residual,
        block_residuals={"x": res_x, "y": res_y, "xy": res_xy},
    )


def fibonacci_sphere(n: int) -> list[UnitVector3]:
    """n roughly uniform directions on the sphere (golden-angle spiral)."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    points = []
    for i in range(n):
        z = 1.0 - 2.0 * (i + 0.5) / n
        r = math.sqrt(max(0.0, 1.0 - z * z))
        phi = golden * i
        points.append(UnitVector3(r * math.cos(phi), r * math.sin(phi), z))
    return points


def sg_design(m: UnitVector3, n: int = 20) -> list[tuple[UnitVector3, UnitVector3]]:
    """Fixed-source design: n spread magnet directions against one moment."""
    return [(a, m) for a in fibonacci_sphere(n)]


def eprb_design(n: int = 20) -> list[tuple[UnitVector3, UnitVector3]]:
    """n orientation pairs spanning the bilinear coefficient space.

    Built as a product of two spanning direction sets, so the outer products
    a1 a2' fill all 9 dimensions once both factors span 3-space.
    """
    n_left = max(3, math.ceil(math.sqrt(n)))
    n_right = max(3, math.ceil(n / n_left))
    left = fibonacci_sphere(n_left)
    right = fibonacci_sphere(n_right)
    pairs = [(a1, a2) for a1 in left for a2 in right]
    return pairs[:n]
