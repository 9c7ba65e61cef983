import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.stats import norm as gaussian_dist

from li_qt import wave_dynamics
from li_qt.errors import BoundaryContact, PhaseUndefined, UnstableStep
from li_qt.wave_dynamics import (
    PhysicalParams,
    PolarField,
    SpatialGrid,
    check_madelung_extremum,
    detector_edges,
    evolve_tdse,
    fisher_continuum,
    fisher_discrete,
    functional_F,
    functional_Q,
    gaussian_packet,
    harmonic_potential,
    polar_to_wave,
    random_polar_fields,
    wave_to_polar,
)
from li_qt.wave_dynamics import (
    _d_space_spectral,
    _d_time,
    _hamiltonian_diagonals,
    _hj_bracket,
    _promote,
    _tridiag_solver,
    _x_integral,
)


def normalized_gaussian(grid: SpatialGrid, sigma: float, center: float = 0.0) -> np.ndarray:
    P = np.exp(-((grid.x - center) ** 2) / (2 * sigma**2))
    return P / np.trapezoid(P, dx=grid.dx)


class TestGridAndFields:
    def test_grid_spacing(self):
        grid = SpatialGrid(L=8.0, n_x=17, dt=0.1, n_t=10)
        assert grid.dx == pytest.approx(1.0)
        assert grid.x[0] == -8.0 and grid.x[-1] == 8.0

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            SpatialGrid(L=1.0, n_x=8, dt=0.1, n_t=1)

    def test_extent_overflow_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any arithmetic could warn
            with pytest.raises(ValueError, match=r"^half-extent L = 1e\+308 overflows"):
                SpatialGrid(L=1e308, n_x=16, dt=0.001, n_t=5)
        assert SpatialGrid(L=8e307, n_x=16, dt=0.001, n_t=5).dx < math.inf

    @pytest.mark.parametrize("lam", [0.0, -1.0, -0.0, math.nan, math.inf])
    def test_packet_lam_not_finite_and_positive_rejected(self, lam):
        grid = SpatialGrid(L=8.0, n_x=65, dt=0.1, n_t=1)
        with pytest.raises(ValueError, match=f"^lam must be finite and positive, got {lam}$"):
            gaussian_packet(grid, lam=lam)

    def test_polar_field_promotes_single_slice(self):
        field = PolarField(P=np.ones(32), S=np.zeros(32))
        assert field.P.shape == (1, 32)

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            PolarField(P=-np.ones(32), S=np.zeros(32))

    def test_packet_sigma0_square_overflow_rejected(self):
        grid = SpatialGrid(L=8.0, n_x=65, dt=0.1, n_t=1)
        with pytest.raises(ValueError, match=r"^sigma0 = 1e\+200 has a square out of range$"):
            gaussian_packet(grid, sigma0=1e200)

    @pytest.mark.parametrize("p0, lam, aliases", [
        (12.5, 4.0, False), (-12.5, 4.0, False), (12.6, 4.0, True), (-12.6, 4.0, True),
        (6.2, 16.0, False), (6.3, 16.0, True), (1e300, 4.0, True),
    ])
    def test_packet_momentum_at_or_past_nyquist_rejected(self, p0, lam, aliases):
        # dx = 0.25, so |p0| / hbar must stay below pi / dx = 12.566 (hbar = 2 / sqrt(lam)).
        grid = SpatialGrid(L=8.0, n_x=65, dt=0.1, n_t=1)
        if not aliases:
            assert gaussian_packet(grid, p0=p0, lam=lam).shape == (65,)
            return
        with pytest.raises(ValueError, match="^" + re.escape(f"p0 = {p0} aliases on the grid")):
            gaussian_packet(grid, p0=p0, lam=lam)

    def test_random_fields_normalized(self):
        grid = SpatialGrid(L=8.0, n_x=256, dt=1e-4, n_t=8)
        fields = random_polar_fields(grid, n_slices=8, seed=3)
        norms = np.trapezoid(fields.P, dx=grid.dx, axis=1)
        assert np.max(np.abs(norms - 1)) < 1e-12


class TestDetectorModel:
    def test_edges_cover_segment(self):
        edges = detector_edges(10.0, 5)
        assert edges[0] == -10.0 and edges[-1] == 10.0
        assert len(edges) == 12


class TestFisherDiscrete:
    sigma = 1.0

    def binned_gaussian(self, k_det, L=8.0, origin=0.0):
        edges = detector_edges(L, k_det) + origin

        def prob(x0, tau):
            cdf = gaussian_dist.cdf(edges, loc=x0, scale=self.sigma)
            return np.diff(cdf) / (cdf[-1] - cdf[0])

        return prob

    def test_position_independent_model_is_zero(self):
        def prob(x0, tau):
            return np.full(9, 1.0 / 9)

        assert fisher_discrete(prob, [0.0, 1.0], dx_step=1e-5) == 0.0

    def test_gaussian_binned_approaches_inverse_variance(self):
        fine = fisher_discrete(self.binned_gaussian(200), [0.0], dx_step=1e-4)
        assert fine == pytest.approx(1.0 / self.sigma**2, rel=0.01)
        coarse = fisher_discrete(self.binned_gaussian(4), [0.0], dx_step=1e-4)
        assert coarse < fine <= 1.0 / self.sigma**2 + 0.01

    def test_per_slice_additivity(self):
        prob = self.binned_gaussian(50)
        one = fisher_discrete(prob, [0.0], dx_step=1e-4)
        three = fisher_discrete(prob, [0.0, 0.0, 0.0], dx_step=1e-4)
        assert three == pytest.approx(3 * one, rel=1e-12)

    def test_homogeneity_shift(self):
        base = fisher_discrete(self.binned_gaussian(100), [0.0], dx_step=1e-3)
        shifted = fisher_discrete(
            self.binned_gaussian(100, origin=4.0), [4.0], dx_step=1e-3
        )
        assert abs(base - shifted) < 1e-12


class TestFisherContinuum:
    def test_gaussian_identity(self):
        grid = SpatialGrid(L=8.0, n_x=512, dt=1.0, n_t=1)
        P = normalized_gaussian(grid, sigma=1.0)
        value = fisher_continuum(PolarField(P=P, S=np.zeros_like(P)), grid)
        assert value == pytest.approx(1.0, rel=0.01)

    def test_uniform_is_zero(self):
        grid = SpatialGrid(L=8.0, n_x=256, dt=1.0, n_t=1)
        P = np.full(grid.n_x, 1.0 / (2 * grid.L))
        P /= np.trapezoid(P, dx=grid.dx)
        value = fisher_continuum(PolarField(P=P, S=np.zeros_like(P)), grid)
        assert value == pytest.approx(0.0, abs=1e-20)

    @pytest.mark.parametrize("n_x", [256, 512])
    def test_gaussian_exact_to_roundoff(self, n_x):
        # The spectral derivative is exact on a Gaussian that has decayed to roundoff at the walls.
        grid = SpatialGrid(L=8.0, n_x=n_x, dt=1.0, n_t=1)
        P = normalized_gaussian(grid, sigma=1.0)
        value = fisher_continuum(PolarField(P=P, S=np.zeros_like(P)), grid)
        assert abs(value - 1.0) < 1e-9


def hj_bracket_of(S, params, grid):
    """The Hamilton-Jacobi bracket of S with the derivatives the checks take."""
    return _hj_bracket(_d_time(S, grid.dt), np.gradient(S, grid.dx, axis=-1, edge_order=2),
                       params, grid.x)


class TestHamiltonJacobi:
    def test_free_particle_exact(self):
        grid = SpatialGrid(L=8.0, n_x=128, dt=0.05, n_t=10)
        p = 0.7
        times = grid.times(11)
        S = p * grid.x[None, :] - (p**2 / 2) * times[:, None]
        residual = hj_bracket_of(S, PhysicalParams(), grid)
        assert np.max(np.abs(residual)) < 1e-12

    def test_constant_potential(self):
        grid = SpatialGrid(L=8.0, n_x=128, dt=0.05, n_t=10)
        c = 1.3
        times = grid.times(11)
        S = np.broadcast_to(-c * times[:, None], (11, grid.n_x)).copy()
        residual = hj_bracket_of(S, PhysicalParams(potential=lambda x: c), grid)
        assert np.max(np.abs(residual)) < 1e-12

    def test_velocity_field_matches_characteristics(self):
        # Self-similar S = x^2 / (2 (1 + t)): flow x(t) = x0 (1 + t), V = 0.
        grid = SpatialGrid(L=12.0, n_x=512, dt=0.001, n_t=400)
        times = grid.times(grid.n_t + 1)
        S = grid.x[None, :] ** 2 / (2 * (1 + times)[:, None])
        residual = hj_bracket_of(S, PhysicalParams(), grid)
        # S is quadratic in x (exact centered differences) but not polynomial
        # in t: the O(dt^2) time error peaks at the domain corners, ~ x^2 dt^2,
        # with twice the constant on the one-sided end slices.
        assert np.max(np.abs(residual[1:-1, 1:-1])) < 1e-4
        assert np.max(np.abs(residual[:, 1:-1])) < 2e-4

        # Integrate dx/dt = dS/dx with RK4 against the exact trajectory.
        def velocity(x, t):
            return x / (1 + t)

        x0, x_num = 2.0, 2.0
        for k in range(grid.n_t):
            t = times[k]
            h = grid.dt
            k1 = velocity(x_num, t)
            k2 = velocity(x_num + h * k1 / 2, t + h / 2)
            k3 = velocity(x_num + h * k2 / 2, t + h / 2)
            k4 = velocity(x_num + h * k3, t + h)
            x_num += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        assert x_num == pytest.approx(x0 * (1 + times[-1]), rel=1e-9)


class TestFunctionalF:
    def test_reduces_to_fisher_for_static_real_fields(self):
        grid = SpatialGrid(L=8.0, n_x=512, dt=1.0, n_t=1)
        P = normalized_gaussian(grid, sigma=1.0)
        fields = PolarField(P=P, S=np.zeros_like(P))
        params = PhysicalParams()
        F = functional_F(fields, params, grid)
        assert F == pytest.approx(fisher_continuum(fields, grid), rel=1e-12)
        assert F == pytest.approx(1.0, rel=0.01)

    def test_ground_state_is_a_minimum(self):
        # Stationary pair (P0, S = -E0 t) for the oscillator at lam = 4.
        grid = SpatialGrid(L=10.0, n_x=512, dt=0.01, n_t=4)
        params = PhysicalParams(potential=harmonic_potential())
        n_slices = 5
        times = grid.times(n_slices)
        P0 = normalized_gaussian(grid, sigma=1.0 / math.sqrt(2.0))
        P = np.tile(P0, (n_slices, 1))
        S = np.broadcast_to(-0.5 * times[:, None], (n_slices, grid.n_x)).copy()
        f0 = functional_F(PolarField(P=P, S=S), params, grid)

        rng = np.random.default_rng(17)
        envelope = np.exp(-grid.x**2 / 8)
        for _ in range(20):
            k1, k2 = rng.integers(1, 5, size=2)
            a, b = rng.normal(size=2) * 0.03
            dP = a * envelope * np.cos(k1 * np.pi * grid.x / grid.L)
            P_pert = np.maximum(P + dP[None, :], 1e-14)
            P_pert /= np.trapezoid(P_pert, dx=grid.dx, axis=1)[:, None]
            dS = b * envelope * np.sin(k2 * np.pi * grid.x / grid.L)
            f_pert = functional_F(PolarField(P=P_pert, S=S + dS[None, :]), params, grid)
            assert f_pert >= f0 - 1e-9 * max(1.0, abs(f0))

    def test_matches_q_spectrally(self):
        grid = SpatialGrid(L=8.0, n_x=256, dt=1e-4, n_t=8)
        params = PhysicalParams(potential=lambda x: 0.3 * np.cos(np.pi * x / 8))
        for seed in range(5):
            fields = random_polar_fields(grid, n_slices=8, seed=seed)
            F = functional_F(fields, params, grid)
            Q = functional_Q(polar_to_wave(fields, params.lam), params, grid)
            assert abs(F - Q) / (abs(F) + abs(Q)) < 1e-8

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4), st.integers(1, 8))
    def test_static_phase_free_f_is_fisher_bitwise(self, seeds, slices):
        # With S = 0 and V = 0 the dynamic term is exactly 0: F's Fisher term is I_F itself.
        P = random_polar_fields(FQ_GRID, n_slices=slices, seed=seeds).P
        fields = PolarField(P=P, S=np.zeros_like(P))
        F = functional_F(fields, PhysicalParams(), FQ_GRID)
        assert np.asarray(F).tobytes() == np.asarray(fisher_continuum(fields, FQ_GRID)).tobytes()


# The fields and potential of ``check fq`` (acceptance criterion 7).
FQ_GRID = SpatialGrid(L=8.0, n_x=256, dt=1e-4, n_t=8)
FQ_PARAMS = PhysicalParams(potential=lambda x: 0.3 * np.cos(np.pi * x / 8))


def _f_q_fisher(fields: PolarField):
    F = functional_F(fields, FQ_PARAMS, FQ_GRID)
    Q = functional_Q(polar_to_wave(fields, FQ_PARAMS.lam), FQ_PARAMS, FQ_GRID)
    return F, Q, fisher_continuum(fields, FQ_GRID)


class TestStackedHistories:
    @pytest.mark.parametrize("stack", [1, 5, 50])
    def test_stack_equals_single_histories_bitwise(self, stack):
        # At 50 each complex array is 1.6 MB, past numpy's 256 KB threshold for
        # running a product with an unnamed temporary in place.
        seeds = list(range(90000, 90000 + stack))
        stacked = _f_q_fisher(random_polar_fields(FQ_GRID, n_slices=8, seed=seeds))
        assert all(values.shape == (stack,) for values in stacked)
        for i, seed in enumerate(seeds):
            single = _f_q_fisher(random_polar_fields(FQ_GRID, n_slices=8, seed=seed))
            assert all(type(value) is float for value in single)
            assert [values[i] for values in stacked] == list(single)

    def test_seed_sequence_stacks_single_seed_fields(self):
        seeds = [3, 2**64, 0, 17]
        stack = random_polar_fields(FQ_GRID, n_slices=6, seed=seeds)
        assert stack.P.shape == (4, 6, FQ_GRID.n_x) and stack.n_slices == 6
        for i, seed in enumerate(seeds):
            single = random_polar_fields(FQ_GRID, n_slices=6, seed=seed)
            assert single.P.shape == (6, FQ_GRID.n_x)
            assert np.array_equal(stack.P[i], single.P) and np.array_equal(stack.S[i], single.S)

    def test_fields_report_slices_of_a_stack(self):
        zeros = np.zeros((3, 5, 32))
        assert PolarField(P=zeros + 1, S=zeros).n_slices == 5
        assert _promote(zeros, complex).shape == (3, 5, 32)
        assert _promote(np.ones(32), complex).shape == (1, 32)
        assert _promote(np.ones(32), complex).dtype == complex

    def test_four_dimensional_fields_rejected(self):
        with pytest.raises(ValueError, match="3-d"):
            PolarField(P=np.ones((2, 3, 5, 32)), S=np.zeros((2, 3, 5, 32)))
        with pytest.raises(ValueError, match="3-d"):
            wave_to_polar(np.ones((2, 3, 5, 32), dtype=complex), lam=4.0)
        with pytest.raises(ValueError, match="3-d"):
            functional_Q(np.ones((2, 3, 5, 32), dtype=complex), FQ_PARAMS, FQ_GRID)

    def test_one_history_functions_reject_a_stack(self):
        fields = random_polar_fields(FQ_GRID, n_slices=8, seed=[1, 2])
        with pytest.raises(ValueError, match="not a stack"):
            wave_to_polar(polar_to_wave(fields, lam=4.0), lam=4.0)
        with pytest.raises(ValueError, match="one history"):
            check_madelung_extremum(fields, FQ_PARAMS, FQ_GRID, slice_dt=FQ_GRID.dt)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
    def test_f_equals_q_on_random_smooth_fields(self, seeds):
        # Criterion 7's ratio, each history of the stack on its own.
        F, Q, fisher = _f_q_fisher(random_polar_fields(FQ_GRID, n_slices=8, seed=seeds))
        ratios = np.abs(F - Q) / (2 * fisher + np.abs(F - fisher) + np.abs(Q - fisher))
        assert ratios.shape == (len(seeds),) and np.all(ratios < 1e-8)


# Reference copies of kernels as they were before they moved to real arithmetic.
def _old_x_integral(fields, dx):
    return np.trapezoid(fields, dx=dx, axis=-1)


def _old_polar_to_wave(fields, lam):
    phase = np.where(np.isfinite(fields.S), fields.S, 0.0) * (math.sqrt(lam) / 2)
    return np.sqrt(fields.P) * np.exp(1j * phase)


def _old_functional_Q(psi, params, grid):
    arr = _promote(psi, complex)
    n = arr.shape[-2]
    dpsi_dt = np.zeros_like(arr) if n == 1 else np.gradient(arr, grid.dt, axis=-2,
                                                            edge_order=min(2, n - 1))
    dpsi_dt_conj = np.conj(dpsi_dt)
    z = arr * dpsi_dt_conj
    time_term = 2 * params.mass * math.sqrt(params.lam) * 1j * (z - np.conj(z))
    k = 2 * np.pi * np.fft.fftfreq(grid.n_x, d=grid.dx)
    dpsi_dx = np.fft.ifft(1j * k * np.fft.fft(arr, axis=-1), axis=-1)
    integrand = (time_term.real + 4 * np.abs(dpsi_dx) ** 2
                 + 2 * params.mass * params.lam * params.potential_on(grid.x) * np.abs(arr) ** 2)
    per_slice = _old_x_integral(integrand, grid.dx)
    return per_slice[..., 0] if per_slice.shape[-1] == 1 else np.trapezoid(per_slice, dx=grid.dt)


KERNEL_SETTINGS = settings(derandomize=True, database=None, max_examples=40, deadline=None)
_SEEDS = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4)


def _field(seed: int, shape: tuple[int, ...], complex_: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    f = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    f[rng.random(shape) < 0.05] = -0.0
    return f + 1j * rng.normal(size=shape) if complex_ else f


class TestKernels:
    """The derivative, quadrature and polar-map kernels against numpy and the earlier code."""

    @KERNEL_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), slices=st.integers(1, 9),
           stack=st.sampled_from([(), (1,), (3,)]), n_x=st.integers(1, 40),
           complex_=st.booleans(), dt=st.floats(1e-6, 1e3))
    def test_d_time_is_np_gradient_bitwise(self, seed, slices, stack, n_x, complex_, dt):
        f = _field(seed, (*stack, slices, n_x), complex_)
        got = _d_time(f, dt)
        expected = (np.zeros_like(f) if slices == 1
                    else np.gradient(f, dt, axis=-2, edge_order=min(2, slices - 1)))
        assert got.dtype == f.dtype and got.shape == f.shape
        assert got.tobytes() == expected.tobytes()

    @KERNEL_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n_x=st.integers(16, 300),
           stack=st.sampled_from([(1,), (3,), (2, 3)]), dx=st.floats(1e-3, 10.0))
    def test_d_space_spectral_real_path_matches_complex_path(self, seed, n_x, stack, dx):
        f = _field(seed, (*stack, n_x), complex_=False)
        got = _d_space_spectral(f, dx)
        reference = _d_space_spectral(f.astype(complex), dx)
        assert got.dtype == float and got.shape == f.shape
        assert got.base is None or not np.iscomplexobj(got.base)  # not a view of a complex array
        assert np.max(np.abs(got - reference.real)) <= 1e-12 * np.max(np.abs(reference.real))

    def test_d_space_spectral_exact_on_a_band_limited_field(self):
        for n_x in (64, 65):
            grid = SpatialGrid(L=8.0, n_x=n_x, dt=1.0, n_t=1)
            phase = 2 * np.pi * 3 * grid.x / (n_x * grid.dx)
            expected = 2 * np.pi * 3 / (n_x * grid.dx) * np.cos(phase)
            assert np.max(np.abs(_d_space_spectral(np.sin(phase), grid.dx) - expected)) < 1e-12

    @KERNEL_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n_x=st.integers(2, 300),
           stack=st.sampled_from([(), (1,), (4,), (2, 3)]), dx=st.floats(1e-3, 10.0))
    def test_x_integral_matches_trapezoid(self, seed, n_x, stack, dx):
        f = _field(seed, (*stack, n_x), complex_=False)
        scale = _old_x_integral(np.abs(f), dx)  # no cancellation in the scale
        assert np.all(np.abs(_x_integral(f, dx) - _old_x_integral(f, dx)) <= 1e-12 * scale)

    @KERNEL_SETTINGS
    @given(seeds=_SEEDS, lam=st.floats(0.1, 100.0), floored=st.booleans())
    def test_polar_to_wave_matches_complex_exponential(self, seeds, lam, floored):
        fields = random_polar_fields(FQ_GRID, n_slices=8, seed=seeds)
        if floored:  # below-floor points carry no phase
            fields = PolarField(P=np.where(fields.P > 0.9 * fields.P.max(), 0.0, fields.P),
                                S=np.where(fields.P > 0.9 * fields.P.max(), np.nan, fields.S))
        got, expected = polar_to_wave(fields, lam), _old_polar_to_wave(fields, lam)
        assert got.dtype == complex and got.shape == fields.P.shape
        assert np.allclose(got, expected, rtol=1e-12, atol=0)

    @KERNEL_SETTINGS
    @given(seeds=_SEEDS, slices=st.integers(1, 8))
    def test_functional_q_matches_complex_arithmetic(self, seeds, slices):
        fields = random_polar_fields(FQ_GRID, n_slices=slices, seed=seeds)
        psi = polar_to_wave(fields, FQ_PARAMS.lam)
        got = functional_Q(psi, FQ_PARAMS, FQ_GRID)
        expected = _old_functional_Q(psi, FQ_PARAMS, FQ_GRID)
        assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))


NAN_GRID = SpatialGrid(L=8.0, n_x=64, dt=1e-3, n_t=4)
NAN = np.full((3, NAN_GRID.n_x), np.nan)


@pytest.mark.parametrize("call", [
    lambda: fisher_continuum(PolarField(P=NAN, S=np.zeros_like(NAN)), NAN_GRID),
    lambda: functional_F(PolarField(P=NAN, S=np.zeros_like(NAN)), PhysicalParams(), NAN_GRID),
    lambda: functional_Q(NAN.astype(complex), PhysicalParams(), NAN_GRID),
    lambda: evolve_tdse(NAN[0].astype(complex), PhysicalParams(), NAN_GRID),
], ids=["fisher_continuum", "functional_F", "functional_Q", "evolve_tdse"])
def test_nan_field_rejected(call):
    # A NaN norm fails the normalization check, so none of them returns a number.
    with pytest.raises(ValueError, match="is not normalized: worst slice off by nan$"):
        call()


class TestPolarWaveMaps:
    def test_uniform_real(self):
        grid = SpatialGrid(L=4.0, n_x=64, dt=1.0, n_t=1)
        P = np.full(grid.n_x, 1.0 / (2 * grid.L))
        wave = polar_to_wave(PolarField(P=P, S=np.zeros_like(P)), lam=4.0)
        assert np.max(np.abs(wave.imag)) == 0.0
        assert np.all(wave.real > 0)

    def test_norm_preserved(self):
        grid = SpatialGrid(L=8.0, n_x=256, dt=1e-4, n_t=8)
        fields = random_polar_fields(grid, n_slices=3, seed=8)
        wave = polar_to_wave(fields, lam=4.0)
        norm_psi = np.trapezoid(np.abs(wave) ** 2, dx=grid.dx, axis=1)
        norm_p = np.trapezoid(fields.P, dx=grid.dx, axis=1)
        assert norm_psi == pytest.approx(norm_p, abs=1e-14)

    def test_round_trip(self):
        grid = SpatialGrid(L=8.0, n_x=256, dt=1e-4, n_t=8)
        fields = random_polar_fields(grid, n_slices=4, seed=15)
        back = wave_to_polar(polar_to_wave(fields, lam=4.0), lam=4.0)
        assert np.max(np.abs(back.P - fields.P)) < 1e-12
        assert np.max(np.abs(back.S - fields.S)) < 1e-12

    def test_plane_wave_phase_gradient(self):
        grid = SpatialGrid(L=8.0, n_x=512, dt=1.0, n_t=1)
        k = 2 * math.pi / grid.L
        lam = 4.0
        psi = np.exp(1j * k * grid.x) / math.sqrt(2 * grid.L)
        polar = wave_to_polar(psi, lam=lam)
        grad = np.gradient(polar.S[0], grid.dx)
        assert grad[2:-2] == pytest.approx(
            np.full(grid.n_x - 4, 2 * k / math.sqrt(lam)), rel=1e-6
        )

    def test_real_positive_gives_zero_phase(self):
        grid = SpatialGrid(L=8.0, n_x=128, dt=1.0, n_t=1)
        P = normalized_gaussian(grid, sigma=2.0)
        polar = wave_to_polar(np.sqrt(P).astype(complex), lam=4.0)
        live = ~np.isnan(polar.S[0])
        assert np.max(np.abs(polar.S[0][live])) == 0.0

    def test_node_masked_without_crash(self):
        grid = SpatialGrid(L=8.0, n_x=257, dt=1.0, n_t=1)
        psi = grid.x * np.exp(-grid.x**2)
        psi = psi / math.sqrt(np.trapezoid(np.abs(psi) ** 2, dx=grid.dx))
        polar = wave_to_polar(psi.astype(complex), lam=4.0)
        center = grid.n_x // 2  # psi(0) = 0 exactly
        assert math.isnan(polar.S[0, center])
        assert np.isfinite(polar.S[0, center + 5])

    def test_empty_slice_raises(self):
        with pytest.raises(PhaseUndefined):
            wave_to_polar(np.zeros(32, dtype=complex), lam=4.0)


class TestFunctionalQ:
    def test_static_real_field_value(self):
        grid = SpatialGrid(L=8.0, n_x=512, dt=0.1, n_t=2)
        P = normalized_gaussian(grid, sigma=1.0)
        psi = np.tile(np.sqrt(P).astype(complex), (3, 1))
        params = PhysicalParams()
        q = functional_Q(psi, params, grid)
        dpsi = np.gradient(np.sqrt(P), grid.dx)
        expected_slice = 4 * np.trapezoid(dpsi**2, dx=grid.dx)
        expected = expected_slice * (2 * grid.dt)  # trapezoid over 3 slices
        assert q == pytest.approx(expected, rel=1e-3)

    def test_stationary_at_evolved_solution(self):
        grid = SpatialGrid(L=10.0, n_x=512, dt=1e-3, n_t=400)
        params = PhysicalParams(potential=harmonic_potential())
        traj = evolve_tdse(gaussian_packet(grid, x0=0.5), params, grid, store_every=1)
        psi = traj.psi
        q0 = functional_Q(psi, params, grid)

        rng = np.random.default_rng(23)
        n_slices, n_x = psi.shape
        envelope_x = np.exp(-grid.x**2 / 8)
        for _ in range(20):
            mode = rng.integers(1, 4)
            bump = (
                rng.normal() * envelope_x * np.cos(mode * np.pi * grid.x / grid.L)
                + 1j * rng.normal() * envelope_x * np.sin(mode * np.pi * grid.x / grid.L)
            )
            ramp = np.zeros(n_slices)
            ramp[3:-3] = np.sin(np.linspace(0, np.pi, n_slices - 6))
            dpsi = ramp[:, None] * bump[None, :]
            dpsi[:, 0] = dpsi[:, -1] = 0.0
            norm = math.sqrt(
                np.trapezoid(
                    np.trapezoid(np.abs(dpsi) ** 2, dx=grid.dx, axis=1), dx=grid.dt
                )
            )
            dpsi *= 1e-4 / norm
            perturbed = psi + dpsi
            perturbed /= np.sqrt(np.trapezoid(np.abs(perturbed) ** 2, dx=grid.dx, axis=1))[:, None]
            q1 = functional_Q(perturbed, params, grid)
            assert abs(q1 - q0) < 1e-6


class TestEvolver:
    def test_coherent_state_returns_after_one_period(self):
        grid = SpatialGrid(L=12.0, n_x=1024, dt=2 * math.pi / 3142, n_t=3142)
        params = PhysicalParams(potential=harmonic_potential())
        psi0 = gaussian_packet(grid, x0=1.0, sigma0=1.0 / math.sqrt(2.0))
        traj = evolve_tdse(psi0, params, grid, store_every=grid.n_t)
        overlap = np.trapezoid(np.conj(traj.psi[-1]) * traj.psi[0], dx=grid.dx)
        assert abs(overlap) ** 2 > 1 - 1e-6

    def test_ground_state_stationary(self):
        # The sampled continuum ground state is an O(dx^2) eigenvector of the
        # discrete operator: density wobble stays at that scale.
        grid = SpatialGrid(L=12.0, n_x=1024, dt=1e-3, n_t=2000)
        params = PhysicalParams(potential=harmonic_potential())
        psi0 = gaussian_packet(grid, sigma0=1.0 / math.sqrt(2.0))
        traj = evolve_tdse(psi0, params, grid, store_every=grid.n_t)
        density_shift = np.max(np.abs(np.abs(traj.psi[-1]) ** 2 - np.abs(traj.psi[0]) ** 2))
        assert density_shift < 1e-4

    def test_free_gaussian_width_law(self):
        grid = SpatialGrid(L=15.0, n_x=1536, dt=1e-3, n_t=2000)
        traj = evolve_tdse(gaussian_packet(grid), PhysicalParams(), grid, store_every=500)
        sigma0ad, t_end = 1.0, 2.0
        P = np.abs(traj.psi[-1]) ** 2
        mean = np.trapezoid(grid.x * P, dx=grid.dx)
        var = np.trapezoid((grid.x - mean) ** 2 * P, dx=grid.dx)
        exact = sigma0ad**2 * (1 + (t_end / (2 * sigma0ad**2)) ** 2)
        assert abs(var - exact) / exact < 1e-4

    def test_ehrenfest_drift_and_norm(self):
        # Plane-wave-like packet: sigma_k = 1/(2 sigma0) well below p0, so the
        # grid dispersion error E[k^3] dx^2 / 6 stays under the tolerance.
        grid = SpatialGrid(L=30.0, n_x=3072, dt=1e-3, n_t=10000)
        psi0 = gaussian_packet(grid, x0=-5.0, sigma0=2.0, p0=0.5)
        traj = evolve_tdse(psi0, PhysicalParams(), grid, store_every=1000)
        P = np.abs(traj.psi[-1]) ** 2
        mean = np.trapezoid(grid.x * P, dx=grid.dx)
        assert abs(mean - 0.0) / 5.0 < 1e-4  # drifted p/m * t = 5 from -5
        assert abs(traj.norms[-1] - traj.norms[0]) < 1e-10

    def test_energy_conserved(self):
        grid = SpatialGrid(L=12.0, n_x=768, dt=1e-3, n_t=10000)
        params = PhysicalParams(potential=harmonic_potential())
        traj = evolve_tdse(
            gaussian_packet(grid, x0=1.0, sigma0=1.0 / math.sqrt(2.0)),
            params,
            grid,
            store_every=1000,
        )
        drift = np.max(np.abs(traj.energies - traj.energies[0]))
        assert drift / abs(traj.energies[0]) < 1e-8

    def test_boundary_contact_raises(self):
        grid = SpatialGrid(L=6.0, n_x=256, dt=1e-3, n_t=20000)
        psi0 = gaussian_packet(grid, x0=0.0, p0=2.0)
        with pytest.raises(BoundaryContact):
            evolve_tdse(psi0, PhysicalParams(), grid)

    def test_nan_potential_raises_unstable(self):
        grid = SpatialGrid(L=6.0, n_x=128, dt=1e-3, n_t=10)
        params = PhysicalParams(potential=lambda x: np.full_like(x, np.nan))
        with pytest.raises(UnstableStep):
            evolve_tdse(gaussian_packet(grid), params, grid)

    @pytest.mark.parametrize("L", [1e300, 1e-300])
    def test_grid_spacing_square_out_of_range_rejected(self, L):
        grid = SpatialGrid(L=L, n_x=64, dt=1e-3, n_t=5)
        with pytest.raises(ValueError, match=r"^grid spacing dx = \S+ has a square out of range$"):
            evolve_tdse(np.ones(64), PhysicalParams(), grid)

    def test_nan_initial_state_rejected(self):
        grid = SpatialGrid(L=6.0, n_x=128, dt=1e-3, n_t=10)
        psi0 = gaussian_packet(grid)
        psi0[40] = np.nan
        with pytest.raises(ValueError, match="normalized"):
            evolve_tdse(psi0, PhysicalParams(), grid)

    @pytest.mark.parametrize("shape", [(2, 64), (1, 1, 64)])
    def test_psi0_of_more_than_one_slice_rejected(self, shape):
        grid = SpatialGrid(L=6.0, n_x=64, dt=1e-3, n_t=3)
        with pytest.raises(ValueError, match="^psi0 must be a single slice$"):
            evolve_tdse(np.ones(shape), PhysicalParams(), grid)

    def test_norm_drift_covers_unstored_steps(self):
        # 23 steps with stride 10 store t = 0, 10, 20 only; the drift
        # diagnostics still come from every step, the last one included.
        grid = SpatialGrid(L=10.0, n_x=128, dt=0.01, n_t=23)
        params = PhysicalParams(potential=harmonic_potential())
        every = evolve_tdse(gaussian_packet(grid, x0=0.5), params, grid, store_every=1)
        sparse = evolve_tdse(gaussian_packet(grid, x0=0.5), params, grid, store_every=10)
        drifts = np.abs(every.norms - every.norms[0])
        assert len(sparse.norms) == 3
        assert sparse.norm_drift == every.norm_drift == drifts[-1]
        assert sparse.max_norm_drift == every.max_norm_drift == drifts.max() > 0

    def test_edge_mass_covers_unstored_steps(self):
        # The same 23 steps: the wall mass is recorded on every step too.
        grid = SpatialGrid(L=10.0, n_x=128, dt=0.01, n_t=23)
        params = PhysicalParams(potential=harmonic_potential())
        every = evolve_tdse(gaussian_packet(grid, x0=0.5), params, grid, store_every=1)
        sparse = evolve_tdse(gaussian_packet(grid, x0=0.5), params, grid, store_every=10)
        masses = [
            float(np.sum(np.abs(p[:5]) ** 2) + np.sum(np.abs(p[-5:]) ** 2)) * grid.dx
            for p in every.psi[1:]
        ]
        assert sparse.max_edge_mass == every.max_edge_mass == max(masses) > 0

    def test_edge_mass_recorded_without_boundary_check(self):
        grid = SpatialGrid(L=10.0, n_x=512, dt=1e-3, n_t=1000)
        psi0 = gaussian_packet(grid, p0=20.0)
        with pytest.raises(BoundaryContact):
            evolve_tdse(psi0, PhysicalParams(), grid, store_every=100)
        traj = evolve_tdse(psi0, PhysicalParams(), grid, store_every=100, check_boundary=False)
        assert traj.max_edge_mass > 1e-6

    def test_lambda_rescaling_invariance(self):
        # (lam, dt, V) and (lam/c^2, dt/c, c^2 V) give identical trajectories.
        c = 2.0
        n_steps = 200
        base_grid = SpatialGrid(L=10.0, n_x=512, dt=1e-3, n_t=n_steps)
        scaled_grid = SpatialGrid(L=10.0, n_x=512, dt=1e-3 / c, n_t=n_steps)
        base = evolve_tdse(
            gaussian_packet(base_grid, x0=0.7),
            PhysicalParams(lam=4.0, potential=harmonic_potential()),
            base_grid,
            store_every=n_steps,
        )
        scaled = evolve_tdse(
            gaussian_packet(scaled_grid, x0=0.7),
            PhysicalParams(
                lam=4.0 / c**2,
                potential=lambda x: c**2 * harmonic_potential()(x),
            ),
            scaled_grid,
            store_every=n_steps,
        )
        assert np.max(np.abs(base.psi[-1] - scaled.psi[-1])) < 1e-10


def _banded_reference(psi0, params, grid, store_every):
    """Stored psi, norms and energies of the per-step banded CN solve.

    This is the stepper ``evolve_tdse`` had before it factored the matrix
    once; it is kept here only as the reference for bitwise equality.
    """
    dx, dt = grid.dx, grid.dt
    main, off = _hamiltonian_diagonals(grid, params)
    ab = np.zeros((3, grid.n_x - 2), dtype=complex)
    ab[0, 1:] = 0.5j * dt * off
    ab[1, :] = 1.0 + 0.5j * dt * main
    ab[2, :-1] = 0.5j * dt * off

    def energy_of(p):
        interior = p[1:-1]
        m_psi = main * interior
        m_psi[1:] += off * interior[:-1]
        m_psi[:-1] += off * interior[1:]
        expectation = float(np.real(np.sum(np.conj(interior) * m_psi)) * dx)
        return (2.0 / math.sqrt(params.lam)) * expectation

    psi = psi0.copy()
    psi[0] = psi[-1] = 0.0
    stored = [psi.copy()]
    for step in range(grid.n_t):
        interior = psi[1:-1]
        rhs = (1.0 - 0.5j * dt * main) * interior
        rhs[1:] += -0.5j * dt * off * interior[:-1]
        rhs[:-1] += -0.5j * dt * off * interior[1:]
        psi[1:-1] = solve_banded((1, 1), ab, rhs)
        if (step + 1) % store_every == 0:
            stored.append(psi.copy())
    norms = [float(np.trapezoid(np.abs(p) ** 2, dx=dx)) for p in stored]
    return np.array(stored), np.array(norms), np.array([energy_of(p) for p in stored])


class TestBlockedDiagnostics:
    """The evolver computes its diagnostics once per block of steps.

    Blocks hold 16 steps: the grids below end just before, on and just after
    a block edge, and the failures fall inside a block.
    """

    @staticmethod
    def evolve(psi0, params, grid, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return evolve_tdse(psi0, params, grid, **kwargs)

    @pytest.mark.parametrize("n_t", [1, 15, 16, 17, 35])
    @pytest.mark.parametrize("store_every", [1, 3, 16, 100])
    def test_block_edges_match_banded_reference(self, n_t, store_every):
        grid = SpatialGrid(L=10.0, n_x=128, dt=0.01, n_t=n_t)
        params = PhysicalParams(potential=harmonic_potential())
        psi0 = gaussian_packet(grid, x0=0.5)
        traj = self.evolve(psi0, params, grid, store_every=store_every)
        psi, norms, energies = _banded_reference(psi0, params, grid, store_every)
        assert np.array_equal(traj.psi, psi)
        assert np.array_equal(traj.norms, norms)
        assert np.array_equal(traj.energies, energies)

    def test_boundary_contact_names_first_step_over_limit(self):
        grid = SpatialGrid(L=10.0, n_x=512, dt=1e-3, n_t=300)
        psi0, params = gaussian_packet(grid, p0=20.0), PhysicalParams()
        every = self.evolve(psi0, params, grid, store_every=1, check_boundary=False)
        masses = [float(np.sum(np.abs(p[:5]) ** 2) + np.sum(np.abs(p[-5:]) ** 2)) * grid.dx
                  for p in every.psi[1:]]
        step = 1 + next(k for k, m in enumerate(masses) if m > 1e-6)
        assert step % 16 not in (0, 1)
        message = f"probability {masses[step - 1]:.3e} within 5 cells of the wall at step {step}"
        with pytest.raises(BoundaryContact, match=f"^{re.escape(message)}$"):
            self.evolve(psi0, params, grid, store_every=100)

    def test_norm_failure_names_first_step_over_tolerance(self, monkeypatch):
        grid = SpatialGrid(L=10.0, n_x=128, dt=0.01, n_t=40)
        psi0, params = gaussian_packet(grid), PhysicalParams(potential=harmonic_potential())
        every = self.evolve(psi0, params, grid, store_every=1)
        step = int(np.argmax(np.abs(every.norms - every.norms[0]) > 1e-15))
        assert step % 16 not in (0, 1)
        message = (f"norm drifted to {every.norms[step]:.12f} at step {step} "
                   "(tolerance 1.0e-15)")
        monkeypatch.setattr(wave_dynamics, "_NORM_TOLERANCE", 1e-15)
        with pytest.raises(UnstableStep, match=f"^{re.escape(message)}$"):
            self.evolve(psi0, params, grid, store_every=7)


# Small random CN problems: a Gaussian in a harmonic well on [-10, 10].  The
# walls are not checked: with weak wells the packet may spread onto them,
# which leaves the scheme exactly as unitary.
CN_CASES = st.fixed_dictionaries({
    "n_x": st.integers(64, 256),
    "n_t": st.integers(1, 200),
    "dt": st.floats(1e-3, 2e-2),
    "mass": st.floats(0.5, 2.0),
    "lam": st.floats(1.0, 8.0),
    "omega": st.floats(0.2, 2.0),
    "x0": st.floats(-1.5, 1.5),
    "store_every": st.integers(1, 50),
})
CN_SETTINGS = settings(derandomize=True, database=None, max_examples=40, deadline=None)


def _cn_problem(case, dt_scale=1.0, lam_scale=1.0, v_scale=1.0):
    grid = SpatialGrid(L=10.0, n_x=case["n_x"], dt=case["dt"] * dt_scale, n_t=case["n_t"])
    well = harmonic_potential(case["omega"], case["mass"])
    params = PhysicalParams(
        mass=case["mass"], lam=case["lam"] * lam_scale, potential=lambda x: v_scale * well(x)
    )
    return gaussian_packet(grid, x0=case["x0"], lam=params.lam), params, grid


class TestEvolverProperties:
    @CN_SETTINGS
    @given(CN_CASES)
    def test_matches_banded_reference_bitwise(self, case):
        psi0, params, grid = _cn_problem(case)
        traj = evolve_tdse(psi0, params, grid, store_every=case["store_every"],
                           check_boundary=False)
        psi, norms, energies = _banded_reference(psi0, params, grid, case["store_every"])
        assert np.array_equal(traj.psi, psi)
        assert np.array_equal(traj.norms, norms)
        assert np.array_equal(traj.energies, energies)

    @CN_SETTINGS
    @given(CN_CASES)
    def test_history_is_one_array_and_polar_slices_its_rows(self, case):
        psi0, params, grid = _cn_problem(case)
        traj = evolve_tdse(psi0, params, grid, store_every=case["store_every"],
                           check_boundary=False)
        assert traj.psi.shape == (1 + case["n_t"] // case["store_every"], case["n_x"])
        assert traj.psi.flags.c_contiguous and traj.psi.flags.owndata
        whole = traj.polar()
        for k in range(len(traj.psi)):
            one = traj.polar(k)
            assert np.array_equal(one.P, whole.P[k:k + 1])
            assert np.array_equal(one.S, whole.S[k:k + 1], equal_nan=True)  # NaN where P is floored

    @CN_SETTINGS
    @given(CN_CASES)
    def test_norm_conserved(self, case):
        psi0, params, grid = _cn_problem(case)
        traj = evolve_tdse(psi0, params, grid, store_every=case["store_every"],
                           check_boundary=False)
        assert np.max(np.abs(traj.norms - traj.norms[0])) <= 1e-10
        assert traj.max_norm_drift <= 1e-10

    @CN_SETTINGS
    @given(CN_CASES, st.floats(0.5, 3.0))
    def test_lambda_rescaling(self, case, c):
        # (lam, dt, V) and (lam/c^2, dt/c, c^2 V) give the same trajectory.
        base = evolve_tdse(*_cn_problem(case), store_every=case["store_every"],
                           check_boundary=False)
        scaled = evolve_tdse(*_cn_problem(case, dt_scale=1 / c, lam_scale=1 / c**2, v_scale=c**2),
                             store_every=case["store_every"], check_boundary=False)
        assert np.max(np.abs(base.psi - scaled.psi)) < 1e-10


class TestMadelung:
    def run_free(self, n_x, dt, n_t, store_every):
        grid = SpatialGrid(L=8.0, n_x=n_x, dt=dt, n_t=n_t)
        params = PhysicalParams()
        traj = evolve_tdse(gaussian_packet(grid), params, grid, store_every=store_every)
        report = check_madelung_extremum(
            traj.polar(), params, grid, slice_dt=traj.slice_dt
        )
        return report

    def test_free_gaussian_residuals_small(self):
        report = self.run_free(512, 1e-3, 200, 10)
        assert report.continuity_rms < 1e-4

    def test_stationary_ground_state(self):
        grid = SpatialGrid(L=10.0, n_x=512, dt=1e-3, n_t=300)
        params = PhysicalParams(potential=harmonic_potential())
        traj = evolve_tdse(
            gaussian_packet(grid, sigma0=1.0 / math.sqrt(2.0)),
            params,
            grid,
            store_every=30,
        )
        polar = traj.polar()
        dP = np.max(np.abs(polar.P - polar.P[0]))
        assert dP < 1e-4
        report = check_madelung_extremum(polar, params, grid, slice_dt=traj.slice_dt)
        assert report.continuity_rms < 1e-6

    def test_second_order_refinement(self):
        coarse = self.run_free(256, 2e-3, 100, 10)
        fine = self.run_free(512, 1e-3, 200, 10)
        ratio_c = coarse.continuity_rms / fine.continuity_rms
        ratio_q = coarse.quantum_hj_rms / fine.quantum_hj_rms
        assert 2.5 < ratio_c < 8.0
        assert 2.5 < ratio_q < 8.0


@pytest.fixture(params=["numpy", "scipy"])
def lapack_binding(request, monkeypatch):
    """Run a test through numpy's OpenBLAS binding, then through SciPy's wrappers."""
    if request.param == "numpy" and wave_dynamics._LAPACK is None:
        pytest.skip("this numpy bundles no zgttrf/zgttrs")
    if request.param == "scipy":
        monkeypatch.setattr(wave_dynamics, "_LAPACK", None)
    return request.param


class TestLapackBinding:
    @CN_SETTINGS
    @given(CN_CASES)
    def test_scipy_fallback_matches_bitwise(self, case):
        psi0, params, grid = _cn_problem(case)
        kwargs = dict(store_every=case["store_every"], check_boundary=False)
        numpy_path = evolve_tdse(psi0, params, grid, **kwargs)
        with mock.patch.object(wave_dynamics, "_LAPACK", None):
            scipy_path = evolve_tdse(psi0, params, grid, **kwargs)
        for field in ("psi", "norms", "energies"):
            assert np.array_equal(getattr(numpy_path, field), getattr(scipy_path, field))
        for field in ("norm_drift", "max_norm_drift", "max_edge_mass"):
            assert getattr(numpy_path, field) == getattr(scipy_path, field)

    def test_rejects_mismatched_sizes(self, lapack_binding):
        with pytest.raises(ValueError, match="one shorter"):
            _tridiag_solver(np.zeros(14, dtype=complex), np.ones(14, dtype=complex),
                            np.zeros((1, 14), dtype=complex))

    @pytest.mark.parametrize("rows", [np.zeros((2, 13), dtype=complex), np.zeros((2, 14)),
                                      np.zeros(14, dtype=complex)])
    def test_rejects_rows_zgttrs_would_overrun(self, lapack_binding, rows):
        with pytest.raises(ValueError, match="rows of the diagonal's length"):
            _tridiag_solver(np.zeros(13, dtype=complex), np.ones(14, dtype=complex), rows)

    def test_singular_cn_matrix_raises(self, lapack_binding, monkeypatch):
        grid = SpatialGrid(L=6.0, n_x=128, dt=1e-3, n_t=10)
        main = np.full(grid.n_x - 2, 1.0, dtype=complex)
        main[30] = 2j / grid.dt  # 1 + i dt/2 * main is 0 there
        monkeypatch.setattr(wave_dynamics, "_hamiltonian_diagonals", lambda g, p: (main, 0.0))
        with pytest.raises(UnstableStep, match="singular"):
            evolve_tdse(gaussian_packet(grid), PhysicalParams(), grid)

    def test_overflowing_cn_matrix_raises(self, lapack_binding):
        # A finite operator whose CN matrices overflow is rejected before it is
        # factored, and numpy warns about nothing on the way.
        grid = SpatialGrid(L=6.0, n_x=128, dt=1e308, n_t=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnstableStep, match="^Crank-Nicolson matrix is non-finite$"):
                evolve_tdse(gaussian_packet(grid), PhysicalParams(), grid)
