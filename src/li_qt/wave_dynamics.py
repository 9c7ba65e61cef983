"""Detector bins, Fisher functionals, and the linear evolver.

A particle on [-L, L] is probed by 2K+1 contiguous detectors of width L/K.
The robust-experiment functional over densities P(x, t) and phase fields
S(x, t) is

    F = int dx dt { (dP/dx)^2 / P
                    + 2 m lam [dS/dt + (dS/dx)^2 / (2m) + V] P },

whose extrema are the hydrodynamic (continuity + quantum Hamilton-Jacobi)
equations.  Substituting psi = sqrt(P) exp(i S sqrt(lam) / 2) turns F into
the quadratic functional

    Q = int dx dt [ 2 i m sqrt(lam) (psi dpsi*/dt - psi* dpsi/dt)
                    + 4 |dpsi/dx|^2 + 2 m lam V |psi|^2 ],

whose extremum condition is the linear equation

    (2i/sqrt(lam)) dpsi/dt = -(2/(m lam)) d^2psi/dx^2 + V psi,

i.e. the time-dependent Schroedinger equation once lam = 4/hbar^2.  The
default units are hbar = 1 (lam = 4) and m = 1.

Numerical conventions
---------------------
* Probability floor 1e-12: grid points with P below it are masked out of any
  expression with P in a denominator, and carry no phase.
* Space derivatives: F, Q and the continuum Fisher term take FFT-based
  derivatives, periodic over the box of length n_x * dx, where they are exact to
  roundoff for band-limited fields; real fields take real FFTs.  The Madelung
  residuals take ``np.gradient``'s 2nd-order centered differences with one-sided
  2nd-order ends.  Time derivatives are always ``np.gradient``'s stencil on the
  stored slices.  Q is evaluated in real arithmetic.
* The potential V(x) is static: it is evaluated once on the grid and
  broadcast over the time slices.
* Single-slice fields are integrated with unit time weight (stationary
  checks); multi-slice fields use trapezoid weights spaced by the grid's dt.
* Fields are (n_slices, n_x), or (stack, n_slices, n_x) for a stack of
  independent histories: time is axis -2 and space axis -1.  A wavefunction
  is a complex array of that shape (1-d: one slice).  F, Q and the
  continuum Fisher term take a stack as they take one history and return one
  value per history, bitwise equal to separate calls; ``polar_to_wave`` maps
  a stack to a stack.  The evolver and the Madelung check take one history;
  the latter's second difference is the Hamiltonian's 3-point operator.
* The evolver uses Crank-Nicolson stepping with hard-wall (zero-Dirichlet)
  boundaries; it is unitary in exact arithmetic, so norm drift beyond
  tolerance diagnoses a genuinely unstable configuration.  It keeps the
  stored history in one array of 1 + n_t // store_every slices (16 n_x bytes
  each), allocated before the first step: a history too large to allocate
  fails at once with MemoryError (or numpy's "array is too big" ValueError).
* lam is the only free parameter: evolving with (lam, dt, V) and with
  (lam/c^2, dt/c, c^2 V) produces identical trajectories.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import numpy.random  # noqa: F401  at start-up, not inside the first command that samples

from .errors import (
    BoundaryContact,
    DegenerateProbability,
    PhaseUndefined,
    UnstableStep,
)

PROBABILITY_FLOOR = 1e-12
_BLOCK = 16  # CN steps whose diagnostics are computed together (256 KB at n_x = 1024)
_NORM_TOLERANCE = 1e-8  # largest |norm - initial norm| a CN step may leave
_WALL_MASS_LIMIT = 1e-6  # largest probability within 5 cells of a wall

# LAPACK zgttrf/zgttrs from the OpenBLAS bundled with numpy's wheels, which
# numpy.linalg has already mapped: dlsym on its extension module also
# searches the libraries it links.  That build is ILP64 (every integer is
# 64-bit) with prefixed names.  None where numpy lacks them; the CN stepper
# then uses SciPy's wrappers of the same routines.  No ``argtypes``: every
# argument is built once as a ctypes object of its exact C type (see
# ``_tridiag_solver``), and converting 12 arguments on each call would cost
# about 8 % of a solve.
try:
    _lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    _LAPACK = (_lib.scipy_zgttrf_64_, _lib.scipy_zgttrs_64_)
except (OSError, AttributeError):
    _LAPACK = None
else:
    _LAPACK[0].restype = _LAPACK[1].restype = None


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform space-time grid on [-L, L] with n_x points and n_t time steps."""

    L: float
    n_x: int
    dt: float
    n_t: int

    def __post_init__(self):
        if not 0 < self.L < math.inf:  # NaN fails too
            raise ValueError(f"half-extent L must be finite and positive, got {self.L}")
        if not 2 * self.L < math.inf:
            raise ValueError(f"half-extent L = {self.L} overflows the extent 2 * L")
        if self.n_x < 16:
            raise ValueError("need at least 16 grid points")
        if not 0 < self.dt < math.inf:
            raise ValueError(f"time step dt must be finite and positive, got {self.dt}")
        if self.n_t < 1:
            raise ValueError("need at least one time step")

    @property
    def dx(self) -> float:
        return 2 * self.L / (self.n_x - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.n_x)

    def times(self, n_slices: int) -> np.ndarray:
        return np.arange(n_slices) * self.dt


def _promote(arr, dtype) -> np.ndarray:
    out = np.asarray(arr, dtype=dtype)
    if out.ndim == 1:
        out = out[None, :]
    if out.ndim not in (2, 3):
        raise ValueError("fields must be 1-d (one slice), 2-d (time x space) or 3-d (a stack)")
    return out


@dataclass(frozen=True)
class PolarField:
    """Density P >= 0 and phase field S on the grid, one row per time slice.

    S entries may be NaN where the density sits below the probability floor
    (no phase defined there).  3-d P and S stack histories on their first axis.
    """

    P: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        P = _promote(self.P, float)
        S = _promote(self.S, float)
        if P.shape != S.shape:
            raise ValueError("P and S must have the same shape")
        if np.any(P < -1e-15):
            raise ValueError("P must be nonnegative")
        object.__setattr__(self, "P", np.maximum(P, 0.0))
        object.__setattr__(self, "S", S)

    @property
    def n_slices(self) -> int:
        return self.P.shape[-2]


@dataclass(frozen=True)
class PhysicalParams:
    """Mass, coupling lam, and the static potential V(x) (energy units).

    ``potential`` maps an x array to energies; None means free evolution.
    """

    mass: float = 1.0
    lam: float = 4.0
    potential: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        for name, value in (("mass", self.mass), ("lam", self.lam)):
            if not 0 < value < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and positive, got {value}")

    def potential_on(self, x: np.ndarray) -> np.ndarray:
        if self.potential is None:
            return np.zeros_like(x)
        return np.broadcast_to(np.asarray(self.potential(x), dtype=float), x.shape)


# -- derivatives and quadrature ------------------------------------------------

def _d_time(f: np.ndarray, dt: float) -> np.ndarray:
    """Centered time derivative along axis -2, one-sided 2nd-order at the end slices.

    A single slice has zero derivative; two slices share their forward
    difference.  Three or more take ``np.gradient``'s stencil, written out: the same bits.
    """
    if f.shape[-2] < 3:
        return np.zeros_like(f) if f.shape[-2] == 1 else np.gradient(f, dt, axis=-2, edge_order=1)
    out = np.empty_like(f)
    rows, f_rows = out.reshape(-1, f.shape[-1]), f.reshape(-1, f.shape[-1])
    np.subtract(f_rows[2:], f_rows[:-2], out=rows[1:-1])  # every row; where it mixes two
    rows[1:-1] /= 2.0 * dt  # histories of a stack, it is at end slices, overwritten below
    g, o = np.moveaxis(f, -2, 0), np.moveaxis(out, -2, 0)  # slices first
    o[0] = -1.5 / dt * g[0] + 2.0 / dt * g[1] - 0.5 / dt * g[2]
    o[-1] = 0.5 / dt * g[-3] - 2.0 / dt * g[-2] + 1.5 / dt * g[-1]
    return out


def _d_space_spectral(f: np.ndarray, dx: float) -> np.ndarray:
    n = f.shape[-1]
    if np.iscomplexobj(f):
        spectrum = np.fft.fft(f, axis=-1)
        spectrum *= 2j * np.pi * np.fft.fftfreq(n, d=dx)
        return np.fft.ifft(spectrum, axis=-1, out=spectrum)
    spectrum = np.fft.rfft(f, axis=-1)
    spectrum *= 2j * np.pi * np.fft.rfftfreq(n, d=dx)
    spectrum[..., -1] *= n % 2  # even n: zero the Nyquist bin, whose i k c the complex .real drops
    return np.fft.irfft(spectrum, n, axis=-1)


def _time_integral(per_slice: np.ndarray, dt: float) -> float | np.ndarray:
    """Trapezoid over time slices (axis -1), one slice at unit weight; a float per history."""
    total = (per_slice[..., 0] if per_slice.shape[-1] == 1
             else np.trapezoid(per_slice, dx=dt, axis=-1))
    return float(total) if total.ndim == 0 else total


def _x_integral(fields: np.ndarray, dx: float) -> np.ndarray:
    return dx * (np.add.reduce(fields, -1) - (fields[..., 0] + fields[..., -1]) / 2)


def _check_normalized(P: np.ndarray, dx: float, what: str) -> None:
    norms = _x_integral(P, dx)
    worst = float(np.max(np.abs(norms - 1.0)))
    if not worst <= 1e-8:  # a NaN norm fails too
        raise ValueError(f"{what} is not normalized: worst slice off by {worst:.3e}")


# -- detector model -------------------------------------------------------------

def detector_edges(L: float, k_det: int) -> np.ndarray:
    """Edges of the 2K+1 detector bins covering [-L, L], width L/K each.

    Detector j is centered at j * L/K; the two outermost bins are clipped to
    the line segment.
    """
    if k_det < 1:
        raise ValueError("need at least one detector pair, k_det >= 1")
    delta = L / k_det
    centers = np.arange(-k_det, k_det + 1) * delta
    edges = np.concatenate([centers - delta / 2, [centers[-1] + delta / 2]])
    return np.clip(edges, -L, L)


# -- Fisher information ----------------------------------------------------------

def fisher_discrete(
    prob_fn: Callable[[float, int], np.ndarray],
    x_positions: Sequence[float],
    dx_step: float,
) -> float:
    """Sum over slices and bins of (dP/dX)^2 / P with a centered difference.

    ``prob_fn(X, tau)`` returns the bin probabilities at source position X in
    slice tau.  Bins with probability at or below the floor are masked out.
    """
    if dx_step <= 0:
        raise ValueError("difference step must be positive")
    total = 0.0
    any_support = False
    for tau, x0 in enumerate(x_positions):
        p0 = np.asarray(prob_fn(float(x0), tau), dtype=float)
        p_plus = np.asarray(prob_fn(float(x0) + dx_step, tau), dtype=float)
        p_minus = np.asarray(prob_fn(float(x0) - dx_step, tau), dtype=float)
        mask = p0 > PROBABILITY_FLOOR
        if np.any(mask):
            any_support = True
        deriv = (p_plus[mask] - p_minus[mask]) / (2 * dx_step)
        total += float(np.sum(deriv**2 / p0[mask]))
    if not any_support:
        raise DegenerateProbability("no bin probability above the floor")
    return total


def _fisher_integrand(P: np.ndarray, dx: float) -> np.ndarray:
    """(dP/dx)^2 / P, 0 where P is at or below the floor; P's normalization checked first."""
    _check_normalized(P, dx, "P")
    integrand = _d_space_spectral(P, dx)  # in place from here: F adds its dynamic term to it
    integrand *= integrand
    integrand /= np.maximum(P, PROBABILITY_FLOOR)
    integrand[~(P > PROBABILITY_FLOOR)] = 0.0
    return integrand


def fisher_continuum(fields: PolarField, grid: SpatialGrid) -> float | np.ndarray:
    """Trapezoid quadrature of int dx dt (dP/dx)^2 / P, floor-masked."""
    return _time_integral(_x_integral(_fisher_integrand(fields.P, grid.dx), grid.dx), grid.dt)


# -- classical limit -------------------------------------------------------------

def _hj_bracket(dSdt: np.ndarray, dSdx: np.ndarray, params: PhysicalParams,
                x: np.ndarray) -> np.ndarray:
    """Pointwise Hamilton-Jacobi bracket dS/dt + (dS/dx)^2 / (2m) + V."""
    return dSdt + dSdx**2 / (2 * params.mass) + params.potential_on(x)


# -- the nonlinear functional and its quadratic twin ------------------------------

def functional_F(fields: PolarField, params: PhysicalParams,
                 grid: SpatialGrid) -> float | np.ndarray:
    """Quadrature of the robust-experiment functional F over (P, S): I_F plus its dynamic term."""
    P, S = fields.P, fields.S
    integrand = _fisher_integrand(P, grid.dx)  # checks the normalization first
    live = P > PROBABILITY_FLOOR
    if not np.all((finite := np.isfinite(S))[live]):
        raise ValueError("S must be finite wherever P is above the floor")
    S_safe = np.where(finite, S, 0.0)

    dynamic = _hj_bracket(_d_time(S_safe, grid.dt), _d_space_spectral(S_safe, grid.dx),
                          params, grid.x)
    dynamic *= 2 * params.mass * params.lam * P
    np.add(integrand, dynamic, out=integrand, where=live)  # the Fisher term is 0 elsewhere
    return _time_integral(_x_integral(integrand, grid.dx), grid.dt)


def polar_to_wave(fields: PolarField, lam: float) -> np.ndarray:
    """psi = sqrt(P) exp(i S sqrt(lam) / 2); no phase where P is floored."""
    phase = np.where(np.isfinite(fields.S), fields.S, 0.0) * (math.sqrt(lam) / 2)
    amplitude, psi = np.sqrt(fields.P), np.empty(fields.P.shape, dtype=complex)
    np.multiply(amplitude, np.cos(phase), out=psi.real)
    np.multiply(amplitude, np.sin(phase), out=psi.imag)
    return psi


def wave_to_polar(psi: np.ndarray, lam: float) -> PolarField:
    """P = |psi|^2 and S = (2/sqrt(lam)) * phase, unwrapped along x.

    Unwrapping proceeds per time slice from the leftmost point whose density
    exceeds the floor; below-floor points get S = NaN.  Raises PhaseUndefined
    if an entire slice sits below the floor.
    """
    psi = _promote(psi, complex)
    if psi.ndim != 2:
        raise ValueError("wave_to_polar takes one history, not a stack")
    P = np.abs(psi) ** 2
    S = np.full(P.shape, np.nan)
    scale = 2.0 / math.sqrt(lam)
    for tau in range(P.shape[0]):
        mask = P[tau] > PROBABILITY_FLOOR
        if not np.any(mask):
            raise PhaseUndefined(f"slice {tau} has no density above the floor")
        raw = np.angle(psi[tau, mask])
        S[tau, mask] = scale * np.unwrap(raw)
    return PolarField(P=P, S=S)


def functional_Q(psi: np.ndarray, params: PhysicalParams,
                 grid: SpatialGrid) -> float | np.ndarray:
    """Quadrature of the quadratic functional Q over a wavefunction history.

    Evaluated in real arithmetic: the time term 2 i m sqrt(lam) (psi dpsi*/dt -
    psi* dpsi/dt) is 4 m sqrt(lam) (Re psi Im dpsi/dt - Im psi Re dpsi/dt).
    """
    arr = _promote(psi, complex)
    density = arr.real**2 + arr.imag**2
    _check_normalized(density, grid.dx, "|psi|^2")
    dpsi = _d_time(arr, grid.dt)
    integrand = arr.real * dpsi.imag - arr.imag * dpsi.real
    del dpsi  # each complex derivative is freed before the next one is made
    integrand *= 4 * params.mass * math.sqrt(params.lam)
    dpsi = _d_space_spectral(arr, grid.dx)
    integrand += 4 * (dpsi.real**2 + dpsi.imag**2)
    integrand += 2 * params.mass * params.lam * params.potential_on(grid.x) * density
    return _time_integral(_x_integral(integrand, grid.dx), grid.dt)


# -- linear evolution --------------------------------------------------------------

@dataclass(frozen=True)
class TdseTrajectory:
    """Stored Crank-Nicolson history with per-step diagnostics."""

    psi: np.ndarray
    norms: np.ndarray
    energies: np.ndarray
    grid: SpatialGrid
    params: PhysicalParams
    norm_drift: float  # |norm - initial norm| after the last step
    max_norm_drift: float  # its largest value over all steps, stored or not
    max_edge_mass: float  # largest probability near a wall over all steps
    store_every: int = 1

    @property
    def slice_dt(self) -> float:
        return self.grid.dt * self.store_every

    def polar(self, index: int | None = None) -> PolarField:
        """(P, S) of the whole history, or of its slice ``psi[index]`` alone: one row,
        bitwise equal to that row of the whole history's (P, S)."""
        return wave_to_polar(self.psi if index is None else self.psi[index], self.params.lam)


def gaussian_packet(
    grid: SpatialGrid,
    x0: float = 0.0,
    sigma0: float = 1.0,
    p0: float = 0.0,
    lam: float = 4.0,
) -> np.ndarray:
    """Normalized Gaussian with density std sigma0 and mean momentum p0."""
    if not 0 < lam < math.inf:  # NaN fails too
        raise ValueError(f"lam must be finite and positive, got {lam}")
    if not sigma0 > 0:
        raise ValueError(f"sigma0 must be positive, got {sigma0}")
    if not sigma0 * sigma0 < math.inf:
        raise ValueError(f"sigma0 = {sigma0} has a square out of range")
    if not (math.isfinite(x0) and math.isfinite(p0)):
        raise ValueError(f"x0 and p0 must be finite, got {x0} and {p0}")
    x = grid.x
    hbar = 2.0 / math.sqrt(lam)
    if not abs(p0) / hbar < math.pi / grid.dx:  # the grid's Nyquist wavenumber
        raise ValueError(f"p0 = {p0} aliases on the grid: |p0| / hbar = {abs(p0) / hbar:g} "
                         f"is not below pi / dx = {math.pi / grid.dx:g}")
    with np.errstate(over="ignore"):  # a packet far off the grid has no norm: checked below
        psi = np.exp(-((x - x0) ** 2) / (4 * sigma0**2) + 1j * p0 * x / hbar)
    if not (norm := np.trapezoid(np.abs(psi) ** 2, dx=grid.dx)) > 0:
        raise ValueError(f"a packet at x0 = {x0} of sigma0 = {sigma0} has no norm on the grid")
    psi /= math.sqrt(norm)
    return psi


def harmonic_potential(omega: float = 1.0, mass: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    def V(x: np.ndarray) -> np.ndarray:
        return 0.5 * mass * omega**2 * x**2

    return V


def _hamiltonian_diagonals(grid: SpatialGrid, params: PhysicalParams) -> tuple[np.ndarray, float]:
    """Main diagonal and off-diagonal of M = (sqrt(lam)/2) H on interior points.

    The evolution equation is i dpsi/dt = M psi with
    M = -(1/(m sqrt(lam))) d^2/dx^2 + (sqrt(lam)/2) V.
    """
    if not 0 < grid.dx * grid.dx < math.inf:
        raise ValueError(f"grid spacing dx = {grid.dx} has a square out of range")
    kinetic = 1.0 / (params.mass * math.sqrt(params.lam))
    V = params.potential_on(grid.x)[1:-1]
    main = 2 * kinetic / grid.dx**2 + (math.sqrt(params.lam) / 2) * V
    off = -kinetic / grid.dx**2
    return main, off


def _tridiag_apply(p: np.ndarray, diag, off, out: np.ndarray | None = None,
                   tmp: np.ndarray | None = None) -> np.ndarray:
    """The symmetric tridiagonal product (diag on the diagonal, off beside it) times p.

    It runs along p's first axis.  With ``out`` and ``tmp`` (p's size) given,
    it allocates nothing.
    """
    out = np.multiply(diag, p, out=out)
    tmp = np.multiply(off, p, out=tmp)
    out[1:] += tmp[:-1]
    out[:-1] += tmp[1:]
    return out


def _view(a: np.ndarray) -> ctypes.Array:
    """A ctypes view of ``a``'s memory, passed as a pointer; it keeps ``a`` alive."""
    return (ctypes.c_char * a.nbytes).from_buffer(a)


def _tridiag_solver(off: np.ndarray, diag: np.ndarray, rows: np.ndarray):
    """Factor the tridiagonal matrix (diag; off on both sides of it) with zgttrf.

    ``rows`` is a 2-d complex array whose rows are each contiguous and of the
    diagonal's length.  Returns ``(solve, info)``: ``info`` is zgttrf's, and
    ``solve(k)`` overwrites ``rows[k]`` with the solution for the right-hand
    side it holds (zgttrs) and returns zgttrs' info.
    """
    if diag.ndim != 1 or np.shape(off) != (diag.size - 1,) or diag.size < 2:
        raise ValueError("need a diagonal of at least 2 entries and an off-diagonal one shorter")
    if rows.ndim != 2 or rows.shape[1] != diag.size or rows.dtype != complex:
        raise ValueError("need complex right-hand-side rows of the diagonal's length")
    if _LAPACK is None:
        from scipy.linalg.lapack import zgttrf, zgttrs

        *lu, info = zgttrf(off, diag, off)

        def solve(k: int) -> int:
            x, info = zgttrs(*lu, rows[k], overwrite_b=True)
            rows[k] = x  # a no-op where SciPy solved in place
            return info

        return solve, info
    zgttrf, zgttrs = _LAPACK
    n, nrhs, info = ctypes.c_int64(diag.size), ctypes.c_int64(1), ctypes.c_int64()
    # dl, d, du (overwritten by the factors), du2, ipiv: fresh contiguous buffers.
    lu = [_view(np.array(a, dtype=complex)) for a in (off, diag, off)]
    lu += [_view(np.empty(diag.size - 2, dtype=complex)),
           _view(np.empty(diag.size, dtype=np.int64))]
    zgttrf(ctypes.byref(n), *lu, ctypes.byref(info))
    head = (ctypes.c_char_p(b"N"), ctypes.byref(n), ctypes.byref(nrhs), *lu)
    tail = (ctypes.byref(n), ctypes.byref(info), ctypes.c_size_t(1))
    args = [(*head, _view(row), *tail) for row in rows]  # one argument tuple per row

    def solve(k: int) -> int:
        zgttrs(*args[k])
        return info.value

    return solve, info.value


def evolve_tdse(
    psi0: np.ndarray,
    params: PhysicalParams,
    grid: SpatialGrid,
    store_every: int = 1,
    check_boundary: bool = True,
) -> TdseTrajectory:
    """Crank-Nicolson integration of (2i/sqrt(lam)) dpsi/dt = -(2/(m lam)) psi_xx + V psi.

    Hard-wall boundaries (psi = 0 at both ends).  The scheme is unitary and
    second order in dt; accuracy requires dt * (dominant energy scale) << 1,
    which the norm and energy diagnostics make observable.  V is static, so
    I + i dt/2 M is factored once (LAPACK ``zgttrf``); a step is one ``zgttrs``.
    Raises UnstableStep if that matrix is non-finite or singular or the norm
    drifts by more than ``_NORM_TOLERANCE``.  The probability within 5 cells
    of a wall is recorded on every step (its maximum is ``max_edge_mass``);
    with ``check_boundary`` set, more than ``_WALL_MASS_LIMIT`` of it raises
    BoundaryContact.  Both diagnostics are computed once per block of
    ``_BLOCK`` steps, in the same arithmetic as step by step; the first
    failing step of a block is reported (the norm check first) and the steps
    after it are discarded.
    """
    if store_every < 1:
        raise ValueError(f"store_every (the snapshot stride) must be at least 1, got {store_every}")
    psi = _promote(psi0, complex)
    if psi.shape[:-1] != (1,):
        raise ValueError("psi0 must be a single slice")
    psi = psi[0].copy()
    if psi.size != grid.n_x:
        raise ValueError("psi0 length does not match the grid")
    psi[0] = psi[-1] = 0.0
    # The whole history, allocated first: one too large to hold fails before any step.
    stored = np.empty((1 + grid.n_t // store_every, grid.n_x), dtype=complex)
    stored[0] = psi
    dx, dt = grid.dx, grid.dt
    main, off = _hamiltonian_diagonals(grid, params)

    def norm_of(p: np.ndarray) -> float:
        return float(np.trapezoid(np.abs(p) ** 2, dx=dx))

    def energy_of(p: np.ndarray) -> float:
        interior = p[1:-1]
        # M = (sqrt(lam)/2) H, so <H> = (2/sqrt(lam)) <M>.
        m_psi = _tridiag_apply(interior, main, off)
        expectation = float(np.real(np.sum(np.conj(interior) * m_psi)) * dx)
        return (2.0 / math.sqrt(params.lam)) * expectation

    _check_normalized(np.abs(psi) ** 2, dx, "psi0")
    n0 = norm_of(psi)
    if not (np.all(np.isfinite(main)) and math.isfinite(off)):
        raise UnstableStep("operator is non-finite")
    with np.errstate(over="ignore", invalid="ignore"):  # a huge dt overflows: checked below
        lhs_diag, rhs_diag = 1.0 + 0.5j * dt * main, 1.0 - 0.5j * dt * main
    lhs_off, rhs_off = 0.5j * dt * off, -0.5j * dt * off
    if not (np.all(np.isfinite(lhs_diag)) and np.isfinite(lhs_off)):  # the RHS's magnitudes
        raise UnstableStep("Crank-Nicolson matrix is non-finite")
    edge = min(5, grid.n_x // 4)
    filled, max_drift, max_edge = 1, 0.0, 0.0
    rows = np.zeros((_BLOCK, grid.n_x), dtype=complex)  # the wall columns stay 0
    interiors = list(rows[:, 1:-1])  # views, made once
    tmp = np.empty(grid.n_x - 2, dtype=complex)
    solve, info = _tridiag_solver(np.full(grid.n_x - 3, lhs_off), lhs_diag, rows[:, 1:-1])
    if info != 0:
        raise UnstableStep(f"Crank-Nicolson matrix is singular (zgttrf info {info})")

    previous = psi[1:-1]
    for start in range(0, grid.n_t, _BLOCK):
        block = rows[:grid.n_t - start]
        with np.errstate(over="ignore", invalid="ignore"):  # steps past a failure are dropped
            for k, interior in enumerate(interiors[:len(block)]):
                # The right-hand side goes into the next row, where zgttrs solves in place.
                _tridiag_apply(previous, rhs_diag, rhs_off, out=interior, tmp=tmp)
                info = solve(k)
                if info != 0:
                    raise UnstableStep(f"zgttrs info {info} at step {start + k + 1}")
                previous = interior
            density = np.abs(block) ** 2
            norms = np.trapezoid(density, dx=dx, axis=1)
            drifts = np.abs(norms - n0)
            walls = (density[:, :edge].sum(1) + density[:, -edge:].sum(1)) * dx
        unstable = ~(drifts <= _NORM_TOLERANCE)  # a NaN norm fails too
        failed = unstable | (check_boundary & (walls > _WALL_MASS_LIMIT))
        if failed.any():
            k = int(np.argmax(failed))
            if unstable[k]:
                raise UnstableStep(
                    f"norm drifted to {norms[k]:.12f} at step {start + k + 1} "
                    f"(tolerance {_NORM_TOLERANCE:.1e})"
                )
            raise BoundaryContact(
                f"probability {walls[k]:.3e} within {edge} cells of the wall "
                f"at step {start + k + 1}"
            )
        max_drift, max_edge = max(max_drift, drifts.max()), max(max_edge, walls.max())
        picked = block[(-start - 1) % store_every::store_every]
        stored[filled:filled + len(picked)] = picked
        filled += len(picked)

    return TdseTrajectory(
        psi=stored,
        norms=np.array([norm_of(p) for p in stored]),
        energies=np.array([energy_of(p) for p in stored]),
        grid=grid,
        params=params,
        norm_drift=float(drifts[-1]),
        max_norm_drift=float(max_drift),
        max_edge_mass=float(max_edge),
        store_every=store_every,
    )


def random_polar_fields(
    grid: SpatialGrid,
    n_slices: int,
    seed: int | Sequence[int],
) -> PolarField:
    """Random smooth normalized (P, S) pair for equivalence checks.

    Built from four low trigonometric modes periodic over the box of length
    n_x * dx, so the spectral derivatives of F, Q and I_F are exact on them;
    P is kept well above the probability floor and normalized slice by slice.
    A sequence of seeds gives the stack of their fields, row i that of seed i.
    """
    seeds = seed if np.ndim(seed) else [seed]
    k = np.arange(1, 5)  # the wavenumbers of the four modes
    # Per seed, sum (P's bump, then S) and mode: amp_c, amp_s, omega, phi0.
    draws = np.array([np.random.Generator(np.random.PCG64(s)).normal(size=8 * k.size)
                      for s in seeds]).reshape(*np.shape(seed), 2, k.size, 4)
    angles = 2 * np.pi * k[:, None] * grid.x / (grid.n_x * grid.dx)
    mode_c, mode_s = np.cos(angles), np.sin(angles)
    times = grid.times(n_slices)

    def trig_sum(d: np.ndarray, scale: float) -> np.ndarray:
        amp = d[..., :2] * scale / k[:, None]
        spatial = amp[..., :1] * mode_c + amp[..., 1:] * mode_s
        temporal = 1.0 + 0.3 * np.sin(d[..., 2:3] * times + d[..., 3:])
        total = temporal[..., 0, :, None] * spatial[..., 0, None, :]
        scratch = np.empty_like(total)
        for j in range(1, k.size):  # mode by mode in place, in the order the draws were made
            total += np.multiply(temporal[..., j, :, None], spatial[..., j, None, :], out=scratch)
        return total

    bump = trig_sum(draws[..., 0, :, :], 1.0)
    P = 1.0 + 0.5 * np.tanh(bump)  # bounded in [0.5, 1.5]: safely above floor
    P /= _x_integral(P, grid.dx)[..., None]
    S = trig_sum(draws[..., 1, :, :], 0.5)
    return PolarField(P=P, S=S)


# -- extremum verification -----------------------------------------------------------

@dataclass(frozen=True)
class MadelungReport:
    continuity_rms: float
    quantum_hj_rms: float


def _align_slice_phases(S: np.ndarray, P: np.ndarray, branch: float) -> np.ndarray:
    """Remove whole phase branches between slices at the max-density column.

    Spatial unwrapping fixes S within a slice only up to the branch constant
    2 pi (2/sqrt(lam)); time derivatives need successive slices on the same
    branch.
    """
    aligned = S.copy()
    anchor = int(np.argmax(P.sum(axis=0)))
    for tau in range(1, S.shape[0]):
        jump = aligned[tau, anchor] - aligned[tau - 1, anchor]
        aligned[tau] -= branch * round(jump / branch)
    return aligned


def check_madelung_extremum(
    fields: PolarField,
    params: PhysicalParams,
    grid: SpatialGrid,
    slice_dt: float,
) -> MadelungReport:
    """Residuals of the coupled hydrodynamic equations on slices ``slice_dt`` apart.

    Continuity: dP/dt + d(P dS/dx / m)/dx;  quantum Hamilton-Jacobi:
    dS/dt + (dS/dx)^2/(2m) + V - (hbar^2/2m) (d^2 sqrt(P)/dx^2)/sqrt(P) with
    hbar^2 = 4/lam.  Points with P <= 1e-3 of the slice maximum are
    masked: the residual statistics cover the probability bulk,
    where the deep-tail amplification of the quantum-potential term cannot
    drown the signal.  Both rms residuals converge at 2nd order in (dx, dt)
    for a true solution.
    """
    if fields.P.ndim != 2 or fields.n_slices < 3:
        raise ValueError("need one history of at least 3 slices for time derivatives")
    P, S = fields.P, fields.S

    mask = P > 1e-3 * np.max(P, axis=1, keepdims=True)
    if not np.any(mask):
        raise PhaseUndefined("all points masked")
    if not np.all(np.isfinite(S[mask])):
        raise PhaseUndefined("phase undefined inside the unmasked region")

    branch = 2 * math.pi * (2.0 / math.sqrt(params.lam))
    S_safe = _align_slice_phases(np.where(np.isfinite(S), S, 0.0), P, branch)

    dPdt = _d_time(P, slice_dt)
    dSdx = np.gradient(S_safe, grid.dx, axis=-1, edge_order=2)
    flux = P * dSdx / params.mass
    continuity = dPdt + np.gradient(flux, grid.dx, axis=-1, edge_order=2)

    hbar2 = 4.0 / params.lam
    sqrtP = np.sqrt(np.maximum(P, 0.0))
    quantum_potential = np.where(
        sqrtP > 0,
        # The Hamiltonian's 3-point second difference; interior_mask drops its end rows.
        -(hbar2 / (2 * params.mass)) * _tridiag_apply(sqrtP.T, -2 / grid.dx**2, 1 / grid.dx**2).T
        / np.maximum(sqrtP, 1e-300),
        0.0,
    )
    dSdt = _d_time(S_safe, slice_dt)
    qhj = _hj_bracket(dSdt, dSdx, params, grid.x) + quantum_potential

    # Spatial stencils straddle the mask edge; drop a one-cell margin.
    interior_mask = mask & np.roll(mask, 1, axis=1) & np.roll(mask, -1, axis=1)
    interior_mask[:, [0, -1]] = False
    cont_rms = float(np.sqrt(np.mean(continuity[interior_mask] ** 2)))
    qhj_rms = float(np.sqrt(np.mean(qhj[interior_mask] ** 2)))
    return MadelungReport(
        continuity_rms=cont_rms,
        quantum_hj_rms=qhj_rms,
    )
