import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_rotation
from li_qt.errors import InsufficientDesign, NonSeparable, NotHermitian, NotPure
from li_qt.separation import (
    IDENTITY_2,
    PAULI,
    HermitianOperator,
    build_eprb_operators,
    eprb_design,
    embed_particle1,
    embed_particle2,
    fibonacci_sphere,
    pauli_vector,
    rho_to_state,
    separate_eprb,
    separate_sg,
    sg_design,
)
from li_qt.sg_experiment import UnitVector3
from li_qt.eprb_experiment import pair_probabilities
from li_qt.sg_experiment import sg_probability

Z = UnitVector3(0.0, 0.0, 1.0)
X = UnitVector3(1.0, 0.0, 0.0)


def random_hermitian(rng, dim=2):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


class TestPauliBasis:
    def test_two_dim_orthonormality(self):
        for i, si in enumerate(PAULI):
            for j, sj in enumerate(PAULI):
                assert np.trace(si @ sj) == pytest.approx(2.0 if i == j else 0.0)

    def test_product_basis_orthogonal(self):
        basis = [np.eye(4)]
        basis += [embed_particle1(s) for s in PAULI]
        basis += [embed_particle2(s) for s in PAULI]
        basis += [np.kron(sl, sk) for sk in PAULI for sl in PAULI]
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                inner = np.trace(a.conj().T @ b)
                assert inner == pytest.approx(4.0 if i == j else 0.0, abs=1e-12)

    def test_trace_coefficients_rebuild_random_hermitian(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            m = random_hermitian(rng)
            c = [float(np.trace(s @ m).real) / 2 for s in PAULI]
            rebuilt = float(np.trace(m).real) / 2 * IDENTITY_2 + pauli_vector(c)
            assert np.max(np.abs(rebuilt - m)) < 1e-12


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            HermitianOperator(np.array([[0, 1], [0, 0]], dtype=complex))


def sg_operators(a: UnitVector3, m: UnitVector3) -> tuple[HermitianOperator, HermitianOperator]:
    """The separated SG operators rho = (1 + m.sigma)/2 and X = a.sigma."""
    rho = (IDENTITY_2 + pauli_vector(m.as_array())) / 2
    return HermitianOperator(rho), HermitianOperator(pauli_vector(a.as_array()))


class TestSgOperators:
    def test_z_moment_is_projector_up(self):
        rho, _ = sg_operators(X, Z)
        assert rho.matrix == pytest.approx(np.diag([1.0, 0.0]), abs=1e-15)

    def test_orthogonal_gives_zero_mean(self):
        rho, xhat = sg_operators(X, Z)
        assert np.trace(rho.matrix @ xhat.matrix).real == pytest.approx(0.0, abs=1e-15)

    def test_mean_equals_overlap(self):
        a = UnitVector3(0.0, 0.6, 0.8)
        rho, xhat = sg_operators(a, Z)
        assert np.trace(rho.matrix @ xhat.matrix).real == pytest.approx(0.8, abs=1e-12)

    def test_trace_identity_against_probability(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = UnitVector3.from_array(rng.normal(size=3))
            m = UnitVector3.from_array(rng.normal(size=3))
            rho, _ = sg_operators(a, m)
            for x in (1, -1):
                effect = (np.eye(2) + x * pauli_vector(a.as_array())) / 2
                traced = float(np.trace(rho.matrix @ effect).real)
                assert traced == pytest.approx(sg_probability(x, a, m), abs=1e-12)

    def test_projector_and_positivity(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            m = UnitVector3.from_array(rng.normal(size=3))
            rho, _ = sg_operators(Z, m)
            assert np.max(np.abs(rho.matrix @ rho.matrix - rho.matrix)) < 1e-12
            assert np.min(np.linalg.eigvalsh(rho.matrix)) > -1e-12


class TestRhoToState:
    def test_up_projector(self):
        state = rho_to_state(HermitianOperator(np.diag([1.0, 0.0])))
        assert state == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_x_projector(self):
        state = rho_to_state(HermitianOperator((IDENTITY_2 + PAULI[0]) / 2))
        assert state == pytest.approx([1 / math.sqrt(2), 1 / math.sqrt(2)], abs=1e-12)

    def test_singlet_amplitudes(self):
        rho, _, _ = build_eprb_operators(Z, Z)
        state = rho_to_state(rho)
        expected = np.array([0.0, 1 / math.sqrt(2), -1 / math.sqrt(2), 0.0])
        assert state == pytest.approx(expected, abs=1e-12)

    def test_mixed_state_rejected(self):
        with pytest.raises(NotPure):
            rho_to_state(HermitianOperator(np.diag([0.6, 0.4])))


class TestSeparateSg:
    M = UnitVector3(0.36, -0.48, 0.8)

    def test_exact_separable_data(self):
        def f(x, a, m):
            return (1 + x * a.dot(m)) / 2

        result = separate_sg(f, sg_design(self.M, 20))
        assert result.m_est == pytest.approx(self.M.as_array(), abs=1e-12)
        assert abs(result.u0) < 1e-12
        assert result.residual < 1e-12
        assert not result.trivial_signal

    def test_quadratic_data_not_separable(self):
        def f(x, a, m):
            return (1 + x * a.dot(m) ** 2) / 2

        with pytest.raises(NonSeparable) as exc_info:
            separate_sg(f, sg_design(self.M, 20))
        assert exc_info.value.residual > 1e-2

    def test_constant_data_flagged_trivial(self):
        result = separate_sg(lambda x, a, m: 0.5, sg_design(self.M, 20))
        assert np.linalg.norm(result.m_est) < 1e-10
        assert result.trivial_signal

    def test_too_small_design(self):
        design = sg_design(self.M, 5)
        with pytest.raises(InsufficientDesign):
            separate_sg(lambda x, a, m: 0.5, design)

    def test_coplanar_design_rejected(self):
        # All magnet directions in the x-y plane: the [1, a] rows have rank 3.
        design = [
            (UnitVector3(math.cos(t), math.sin(t), 0.0), self.M)
            for t in np.linspace(0, 2 * math.pi, 10, endpoint=False)
        ]
        with pytest.raises(InsufficientDesign):
            separate_sg(lambda x, a, m: 0.5, design)

    def test_tabulated_means_accepted(self):
        design = sg_design(self.M, 12)
        means = [a.dot(m) for a, m in design]
        result = separate_sg(means, design)
        assert result.m_est == pytest.approx(self.M.as_array(), abs=1e-12)


class TestEprbOperators:
    def test_constraints_hold(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a1 = UnitVector3.from_array(rng.normal(size=3))
            a2 = UnitVector3.from_array(rng.normal(size=3))
            rho, xhat, yhat = build_eprb_operators(a1, a2)
            assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
            assert np.trace(rho.matrix @ xhat.matrix).real == pytest.approx(0.0, abs=1e-12)
            assert np.trace(rho.matrix @ yhat.matrix).real == pytest.approx(0.0, abs=1e-12)
            corr = np.trace(rho.matrix @ xhat.matrix @ yhat.matrix).real
            assert corr == pytest.approx(-a1.dot(a2), abs=1e-12)

    def test_aligned_full_anticorrelation(self):
        rho, xhat, yhat = build_eprb_operators(Z, Z)
        assert np.trace(rho.matrix @ xhat.matrix @ yhat.matrix).real == pytest.approx(-1.0)

    def test_orthogonal_uncorrelated(self):
        rho, xhat, yhat = build_eprb_operators(Z, X)
        assert np.trace(rho.matrix @ xhat.matrix @ yhat.matrix).real == pytest.approx(
            0.0, abs=1e-15
        )

    def test_projector(self):
        rho, _, _ = build_eprb_operators(Z, X)
        assert np.max(np.abs(rho.matrix @ rho.matrix - rho.matrix)) < 1e-12

    def test_positivity(self):
        rho, _, _ = build_eprb_operators(Z, X)
        assert np.min(np.linalg.eigvalsh(rho.matrix)) > -1e-12

    def test_trace_identity_against_pair_probabilities(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            a1 = UnitVector3.from_array(rng.normal(size=3))
            a2 = UnitVector3.from_array(rng.normal(size=3))
            rho, _, _ = build_eprb_operators(a1, a2)
            probs = pair_probabilities(a1, a2)
            for (x, y), p in zip(((1, 1), (1, -1), (-1, 1), (-1, -1)), probs):
                effect1 = (np.eye(2) + x * pauli_vector(a1.as_array())) / 2
                effect2 = (np.eye(2) + y * pauli_vector(a2.as_array())) / 2
                effect = embed_particle1(effect1) @ embed_particle2(effect2)
                traced = float(np.trace(rho.matrix @ effect).real)
                assert traced == pytest.approx(p, abs=1e-12)


class TestSeparateEprb:
    design = eprb_design(20)

    def singlet_data(self):
        xm = [0.0] * len(self.design)
        ym = [0.0] * len(self.design)
        xym = [-a1.dot(a2) for a1, a2 in self.design]
        return xm, ym, xym

    def test_exact_singlet(self):
        xm, ym, xym = self.singlet_data()
        result = separate_eprb(self.design, xm, ym, xym)
        assert result.coeffs.rho0 == 0.25
        assert np.max(np.abs(result.coeffs.rho1)) < 1e-12
        assert np.max(np.abs(result.coeffs.rho2)) < 1e-12
        assert result.coeffs.rho12 == pytest.approx(-np.eye(3) / 4, abs=1e-12)
        rho_expected = build_eprb_operators(Z, X)[0].matrix
        assert np.max(np.abs(result.rho().matrix - rho_expected)) < 1e-10

    def test_triplet_like_sign(self):
        xm, ym, xym = self.singlet_data()
        flipped = [-v for v in xym]
        result = separate_eprb(self.design, xm, ym, flipped)
        assert result.coeffs.rho12 == pytest.approx(np.eye(3) / 4, abs=1e-12)
        assert np.trace(result.rho().matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_cubic_correlations_rejected(self):
        xm, ym, _ = self.singlet_data()
        xym = [-(a1.dot(a2)) ** 3 for a1, a2 in self.design]
        with pytest.raises(NonSeparable) as exc_info:
            separate_eprb(self.design, xm, ym, xym)
        assert exc_info.value.residual > 1e-2

    def test_small_design_rejected(self):
        design = self.design[:8]
        with pytest.raises(InsufficientDesign):
            separate_eprb(design, [0] * 8, [0] * 8, [0] * 8)

    def test_degenerate_design_rejected(self):
        design = [(Z, X)] * 12
        with pytest.raises(InsufficientDesign):
            separate_eprb(design, [0] * 12, [0] * 12, [0] * 12)


class TestChoiceAsymmetry:
    """Swapping source and instrument roles fits one magnet but not EPRB."""

    def test_swapped_roles_reproduce_single_sg_probabilities(self):
        a, m = UnitVector3(0.0, 0.6, 0.8), UnitVector3(1.0, 0.0, 0.0)
        swapped_rho = HermitianOperator((IDENTITY_2 + pauli_vector(a.as_array())) / 2)
        swapped_x = HermitianOperator(pauli_vector(m.as_array()))
        mean = float(np.trace(swapped_rho.matrix @ swapped_x.matrix).real)
        assert mean == pytest.approx(a.dot(m), abs=1e-12)

    def test_swapped_roles_inconsistent_for_eprb(self):
        # With X, Y built from the (fixed) moments, a single rho must satisfy
        # Tr(rho X Y) = -a1.a2 for every magnet setting; two settings with
        # different correlations already make the system unsolvable.
        m1, m2 = Z, X
        xhat = embed_particle1(pauli_vector(m1.as_array()))
        yhat = embed_particle2(pauli_vector(m2.as_array()))
        settings = [(Z, Z), (Z, UnitVector3(0.0, 0.0, -1.0))]  # corr -1 vs +1
        rows, rhs = [], []
        for a1, a2 in settings:
            rows.append(np.eye(4).ravel())
            rhs.append(1.0)
            rows.append((xhat @ yhat).T.ravel().real)
            rhs.append(-a1.dot(a2))
        rows, rhs = np.array(rows), np.array(rhs)
        solution, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
        residual = math.sqrt(np.mean((rows @ solution - rhs) ** 2))
        assert residual > 0.1


class TestDesignHelpers:
    def test_fibonacci_sphere_unit_norm(self):
        for v in fibonacci_sphere(30):
            assert np.linalg.norm(v.as_array()) == pytest.approx(1.0, abs=1e-12)

    def test_eprb_design_spans(self):
        design = eprb_design(20)
        rows = np.array(
            [np.outer(a1.as_array(), a2.as_array()).ravel() for a1, a2 in design]
        )
        assert np.linalg.matrix_rank(rows) == 9


def _turned(rot: np.ndarray, v: UnitVector3) -> UnitVector3:
    return UnitVector3(*(rot @ v.as_array()))


class TestRotationEquivariance:
    """Rotating the orientations rotates the separated source, for any data.

    The means are drawn once and kept: a rotated design with the same means
    is the same experiment seen in turned axes.  The noise floor is set high
    enough that no draw is rejected as non-separable.
    """

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_separate_sg_rotates_m_est(self, seed):
        rng = np.random.default_rng(seed)
        m, rot = UnitVector3(*rng.normal(size=3)), random_rotation(rng)
        design = sg_design(m, 12)
        means = [a.dot(m) + 0.05 * rng.normal() for a, _ in design]
        base = separate_sg(means, design, noise_floor=1.0)
        turned = separate_sg(means, [(_turned(rot, a), _turned(rot, m)) for a, _ in design],
                             noise_floor=1.0)
        assert turned.m_est == pytest.approx(rot @ base.m_est, abs=1e-12)
        assert turned.u0 == pytest.approx(base.u0, abs=1e-12)
        assert turned.residual == pytest.approx(base.residual, abs=1e-12)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_separate_eprb_rotates_rho12(self, seed):
        rng = np.random.default_rng(seed)
        rot1, rot2 = random_rotation(rng), random_rotation(rng)
        design = eprb_design(20)
        xm, ym = rng.uniform(-0.2, 0.2, size=(2, len(design)))
        xym = [-a1.dot(a2) + 0.05 * rng.normal() for a1, a2 in design]
        base = separate_eprb(design, xm, ym, xym, noise_floor=1.0)
        turned = separate_eprb([(_turned(rot1, a1), _turned(rot2, a2)) for a1, a2 in design],
                               xm, ym, xym, noise_floor=1.0)
        assert turned.coeffs.rho12 == pytest.approx(rot1 @ base.coeffs.rho12 @ rot2.T, abs=1e-12)
        assert turned.coeffs.rho1 == pytest.approx(rot1 @ base.coeffs.rho1, abs=1e-12)
        assert turned.coeffs.rho2 == pytest.approx(rot2 @ base.coeffs.rho2, abs=1e-12)
        assert turned.residual == pytest.approx(base.residual, abs=1e-12)
