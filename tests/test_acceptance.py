"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines and
timings.  Every tolerance is stated inline; nothing is deferred to later
calibration.
"""

import itertools
import math
import time

import numpy as np
import pytest

from li_qt import eprb_experiment, separation, sg_experiment
from li_qt.errors import NonSeparable
from li_qt.inference_core import (
    CountTable,
    DichotomicModel,
    evidence,
    evidence_quadratic,
    fisher_dichotomic,
    log_multinomial_iprob,
)
from li_qt.io_cli import run_command
from li_qt.sg_experiment import UnitVector3
from li_qt.wave_dynamics import (
    PhysicalParams,
    SpatialGrid,
    evolve_tdse,
    gaussian_packet,
    harmonic_potential,
)

Z = UnitVector3(0.0, 0.0, 1.0)


def _report(number: int, name: str, ok: bool, detail: str, elapsed: float, limit: float):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{status}] criterion {number:2d} {name}: {detail} ({elapsed:.2f}s / limit {limit:.0f}s)")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < limit, f"criterion {number} exceeded runtime: {elapsed:.1f}s"


def test_criterion_01_sg_closed_form():
    start = time.perf_counter()
    thetas = np.linspace(0, math.pi, 16)
    seeds = sg_experiment.derive_seeds(20250801, 16)
    e_hats, stderrs = [], []
    worst = 0.0
    for theta, seed in zip(thetas, seeds):
        n = 10**6
        log = sg_experiment.sample_sg(UnitVector3.from_polar(theta), Z, n, seed)
        p_plus = (1 + math.cos(theta)) / 2
        n_plus = int(np.sum(log.outcomes == 1))
        sigma = math.sqrt(max(p_plus * (1 - p_plus), 0.0) / n)
        deviation = abs(n_plus / n - p_plus)
        assert deviation <= 5 * sigma
        worst = max(worst, deviation / sigma if sigma > 0 else 0.0)
        e_hat, stderr = sg_experiment.estimate_expectation(log)
        e_hats.append(e_hat)
        stderrs.append(stderr)
    fit = sg_experiment.fit_robust_solution(thetas, e_hats, stderrs=stderrs)
    ok = fit.k_winding == 1 and fit.phi == 0.0
    _report(
        1, "sg closed form", ok,
        f"16 theta points within 5 sigma (worst {worst:.2f}), fit K={fit.k_winding} "
        f"phi={fit.phi:g}",
        time.perf_counter() - start, 10.0,
    )


def test_criterion_02_fisher_constancy():
    start = time.perf_counter()
    worst = 0.0
    for k in (1, 2, 3):
        model = DichotomicModel.robust(k, 0.0)
        thetas = np.linspace(0, math.pi, 1000)
        values = np.array(
            [
                fisher_dichotomic(model, t)
                for t in thetas
                if abs(model.expectation(t)) < 0.99
            ]
        )
        worst = max(worst, float(np.max(np.abs(values - k * k))))
    _report(
        2, "fisher constancy", worst < 1e-9,
        f"max |I_F - K^2| = {worst:.2e} over K in {{1,2,3}}",
        time.perf_counter() - start, 1.0,
    )


def test_criterion_03_evidence_order():
    start = time.perf_counter()
    model = DichotomicModel.robust(1, 0.0)
    theta = math.pi / 3
    counts = CountTable.dichotomic(7500, 2500)  # N = 1e4 with n_x = N p_x exactly
    ratios = []
    for eps in (0.02, 0.01, 0.005):
        diff = abs(
            evidence(counts, model, theta, eps)
            - evidence_quadratic(counts, model, theta, eps)
        )
        ratios.append(diff / (counts.total * eps**3))
    reference = ratios[-1]
    ok = all(0.2 * reference <= r <= 5 * reference for r in ratios)
    _report(
        3, "evidence order", ok,
        f"|Ev - Ev_quad| / (N eps^3) = {[f'{r:.4f}' for r in ratios]}",
        time.perf_counter() - start, 1.0,
    )


def test_criterion_04_eprb_singlet():
    start = time.perf_counter()
    thetas = np.linspace(0, math.pi, 12)
    seeds = sg_experiment.derive_seeds(20250802, 12)
    for theta, seed in zip(thetas, seeds):
        log = eprb_experiment.sample_eprb(
            Z, UnitVector3.from_polar(theta), 10**6, seed
        )
        report = eprb_experiment.correlation_report(log)
        stderr = max(report.stderr_xy, 1e-12)
        assert abs(report.xy_mean + math.cos(theta)) <= 5 * stderr
        marg = 1 / math.sqrt(10**6)
        assert abs(report.x_mean) <= 5 * marg and abs(report.y_mean) <= 5 * marg

    a2 = UnitVector3.from_polar(math.pi / 3)
    passes = 0
    for seed in sg_experiment.derive_seeds(20250803, 1000):
        counts = eprb_experiment.sample_eprb_counts(Z, a2, 10**6, seed)
        _, ok = eprb_experiment.singlet_compliance_from_counts(counts, Z, a2)
        passes += int(ok)
    _report(
        4, "eprb singlet", passes >= 999,
        f"12 theta points within 5 sigma; compliance passes {passes}/1000 seeds",
        time.perf_counter() - start, 60.0,
    )


def test_criterion_05_separation():
    start = time.perf_counter()
    m_true = UnitVector3(0.36, -0.48, 0.8)

    def freq(x, a, m):
        return (1 + x * a.dot(m)) / 2

    sg_result = separation.separate_sg(freq, separation.sg_design(m_true, 20))
    ok = bool(np.max(np.abs(sg_result.m_est - m_true.as_array())) < 1e-12)

    design = separation.eprb_design(20)
    eprb_result = separation.separate_eprb(
        design,
        [0.0] * len(design),
        [0.0] * len(design),
        [-a1.dot(a2) for a1, a2 in design],
    )
    rho = eprb_result.rho().matrix
    rho_expected = separation.build_eprb_operators(Z, Z)[0].matrix
    ok &= bool(np.max(np.abs(rho - rho_expected)) < 1e-10)
    ok &= bool(np.max(np.abs(rho @ rho - rho)) < 1e-12)
    state = separation.rho_to_state(eprb_result.rho())
    singlet = np.array([0.0, 1 / math.sqrt(2), -1 / math.sqrt(2), 0.0])
    ok &= bool(np.max(np.abs(state - singlet)) < 1e-10)
    _report(
        5, "separation", ok,
        f"m recovered to {np.max(np.abs(sg_result.m_est - m_true.as_array())):.1e}, "
        f"rho entrywise to {np.max(np.abs(rho - rho_expected)):.1e}, singlet state ok",
        time.perf_counter() - start, 1.0,
    )


def test_criterion_06_non_separability():
    start = time.perf_counter()
    m_true = UnitVector3(0.36, -0.48, 0.8)
    design = separation.sg_design(m_true, 20)

    control = separation.separate_sg(
        lambda x, a, m: (1 + x * a.dot(m)) / 2, design
    )
    with pytest.raises(NonSeparable) as exc_info:
        separation.separate_sg(lambda x, a, m: (1 + x * a.dot(m) ** 2) / 2, design)
    ok = exc_info.value.residual > 1e-2 and control.residual < 1e-10
    _report(
        6, "non-separability counterexample", ok,
        f"quadratic data residual {exc_info.value.residual:.2e} > 1e-2, "
        f"control residual {control.residual:.1e} < 1e-10",
        time.perf_counter() - start, 1.0,
    )


def test_criterion_07_f_equals_q(capsys):
    # Seeds 90000..90049; the command's gate is max relative |F - Q| < 1e-8.
    start = time.perf_counter()
    code = run_command(["check", "fq", "--trials", "50", "--seed", "90000"])
    detail = capsys.readouterr().out.strip()
    _report(7, "F equals Q", code == 0, detail, time.perf_counter() - start, 5.0)


def test_criterion_08_linear_route(capsys):
    start = time.perf_counter()
    details = []

    # Harmonic oscillator: coherent packet returns after one period.
    grid = SpatialGrid(L=12.0, n_x=1024, dt=2 * math.pi / 3142, n_t=3142)
    params = PhysicalParams(potential=harmonic_potential())
    traj = evolve_tdse(
        gaussian_packet(grid, x0=1.0, sigma0=1.0 / math.sqrt(2.0)),
        params, grid, store_every=grid.n_t,
    )
    overlap = np.trapezoid(np.conj(traj.psi[-1]) * traj.psi[0], dx=grid.dx)
    fidelity = abs(overlap) ** 2
    ok = fidelity > 1 - 1e-6
    details.append(f"HO fidelity 1-{1 - fidelity:.1e}")

    # Free Gaussian width law.
    grid_f = SpatialGrid(L=15.0, n_x=1536, dt=1e-3, n_t=2000)
    traj_f = evolve_tdse(gaussian_packet(grid_f), PhysicalParams(), grid_f,
                         store_every=2000)
    P = np.abs(traj_f.psi[-1]) ** 2
    mean = np.trapezoid(grid_f.x * P, dx=grid_f.dx)
    var = np.trapezoid((grid_f.x - mean) ** 2 * P, dx=grid_f.dx)
    exact = 1.0 + (2.0 / 2.0) ** 2
    width_err = abs(var - exact) / exact
    ok &= width_err < 1e-4
    details.append(f"width law err {width_err:.1e}")

    # Norm drift over 1e4 steps.
    grid_n = SpatialGrid(L=12.0, n_x=768, dt=1e-3, n_t=10000)
    traj_n = evolve_tdse(
        gaussian_packet(grid_n, x0=1.0, sigma0=1.0 / math.sqrt(2.0)),
        params, grid_n, store_every=1000,
    )
    drift = float(np.max(np.abs(traj_n.norms - traj_n.norms[0])))
    ok &= drift < 1e-10
    details.append(f"norm drift {drift:.1e}")

    # Madelung residuals refine at 2nd order: the command passes when both
    # refinement ratios lie in (2.5, 8).
    ok &= run_command(["check", "madelung"]) == 0
    details.append(capsys.readouterr().out.strip().splitlines()[-1])

    _report(8, "linear route", ok, "; ".join(details),
            time.perf_counter() - start, 120.0)


def test_criterion_09_multinomial_oracle():
    start = time.perf_counter()
    probs = (0.37, 0.63)
    worst = 0.0
    for n in range(1, 13):
        # one pass over all 2^n sequences, binned by their (+1) count
        sequence_mass = np.zeros(n + 1)
        for seq in itertools.product((0, 1), repeat=n):
            n_plus = n - sum(seq)
            mass = probs[0] ** n_plus * probs[1] ** (n - n_plus)
            sequence_mass[n_plus] += mass
        for n_plus in range(n + 1):
            table = CountTable.dichotomic(n_plus, n - n_plus)
            got = log_multinomial_iprob(table, probs)
            expected = math.log(sequence_mass[n_plus])
            worst = max(worst, abs(got - expected))
    _report(
        9, "multinomial oracle", worst < 1e-10,
        f"max |log iprob - enumeration| = {worst:.1e} over all tables N <= 12",
        time.perf_counter() - start, 5.0,
    )


def test_criterion_10_cli_determinism(tmp_path):
    start = time.perf_counter()
    sg_args = ["sg", "run", "--theta-grid", "0:3.141592653589793:4",
               "--n", "20000", "--seed", "11"]
    ev_args = ["evolve", "--potential", "harmonic", "--grid", "10,256,0.005,40",
               "--stride", "20"]
    identical = True
    for label, args, names in (
        ("sg", sg_args, [f"sg_{i:03d}.csv" for i in range(4)]),
        ("evolve", ev_args, [f"snap_{i:06d}.csv" for i in range(3)]),
    ):
        out_a, out_b = tmp_path / f"{label}_a", tmp_path / f"{label}_b"
        assert run_command(args + ["--out", str(out_a)]) == 0
        assert run_command(args + ["--out", str(out_b)]) == 0
        for name in names:
            identical &= (out_a / name).read_bytes() == (out_b / name).read_bytes()
    _report(
        10, "cli determinism", identical,
        "sg and evolve reruns byte-identical",
        time.perf_counter() - start, 60.0,
    )
