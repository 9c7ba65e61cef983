"""The three README pipelines, their generated inputs and their output checks.

Each workload is a function ``(sizes, seed, out) -> list[Command]``.  It writes
whatever inputs the commands need under ``out`` (untimed) and returns the CLI
invocations in order.  Each command carries a check that reads the command's
outputs and returns a list of problems; a command together with its check is
one operation in the pass/fail count.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from li_qt import eprb_experiment, separation, sg_experiment
from li_qt.sg_experiment import UnitVector3

PI = "3.141592653589793"


@dataclass(frozen=True)
class Sizes:
    sg_angles: int
    sg_events: int  # per angle; the README uses 1e6
    eprb_angles: int
    eprb_pairs: int  # per angle; the README uses 1e5
    table_samples: int  # samples behind each generated correlation-table mean
    evolve_grid: str  # L,n_x,dt,n_t
    fq_trials: int


FULL = Sizes(
    sg_angles=16,
    sg_events=20_000,
    eprb_angles=12,
    eprb_pairs=20_000,
    table_samples=100_000,
    evolve_grid="12,1024,0.002,3142",  # the README's evolve
    fq_trials=50,
)
TINY = Sizes(
    sg_angles=16,
    sg_events=2_000,
    eprb_angles=12,
    eprb_pairs=2_000,
    table_samples=10_000,
    evolve_grid="12,256,0.002,300",
    fq_trials=3,
)


@dataclass(frozen=True)
class Command:
    label: str
    argv: list[str]
    produces: bool  # the workload's producing command, timed as produce_s
    check: Callable[[str], list[str]]  # stdout -> problems; run only on exit code 0


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def _number_after(text: str, prefix: str) -> float:
    match = re.search(re.escape(prefix) + r"\s*([-+0-9.eE]+|nan|inf)", text)
    if match is None:
        raise ValueError(f"no {prefix!r} in output")
    return float(match.group(1))


def _grid(count: int) -> str:
    return f"0:{PI}:{count}"


# -- sg_pipeline --------------------------------------------------------------------


def sg_pipeline(sizes: Sizes, seed: int, out: Path) -> list[Command]:
    logdir = out / "sg"

    def check_run(stdout: str) -> list[str]:
        written = len(list(logdir.glob("sg_*.csv")))
        lines = stdout.count("e_hat=")
        if written == lines == sizes.sg_angles:
            return []
        return [f"sg run: {written} logs and {lines} lines, want {sizes.sg_angles}"]

    def check_fit(stdout: str) -> list[str]:
        fit = json.loads((logdir / "fit.json").read_text())
        problems = []
        if fit["k_winding"] != 1 or fit["phi"] != 0.0:
            problems.append(f"sg fit: K={fit['k_winding']} phi={fit['phi']}, want K=1 phi=0")
        m = UnitVector3(0.0, 0.0, 1.0)
        thetas = np.linspace(0.0, float(PI), sizes.sg_angles)
        seeds = sg_experiment.derive_seeds(seed, sizes.sg_angles)
        expected = [
            sg_experiment.estimate_expectation(
                sg_experiment.sample_sg(UnitVector3.from_polar(float(t)), m, sizes.sg_events, s)
            )[0]
            for t, s in zip(thetas, seeds)
        ]
        if fit["e_hats"] != expected:
            problems.append("sg fit: e_hats differ from in-memory sample_sg")
        return problems

    return [
        Command(
            "sg run",
            ["sg", "run", "--theta-grid", _grid(sizes.sg_angles), "--n", str(sizes.sg_events),
             "--seed", str(seed), "--out", str(logdir)],
            True,
            check_run,
        ),
        Command("sg fit", ["sg", "fit", str(logdir)], False, check_fit),
    ]


# -- eprb_pipeline ------------------------------------------------------------------


def _write_table(path: Path, header: list[str], rows: list[list[float]]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([["%.17g" % v for v in row] for row in rows])


def _sg_table(rng: np.random.Generator, m: UnitVector3, n: int, path: Path) -> None:
    """Sampled <x> over separation.sg_design for a source along m."""
    rows = []
    for a, m_dir in separation.sg_design(m):
        n_plus = rng.binomial(n, (1 + a.dot(m_dir)) / 2)
        rows.append([*a.as_array(), *m_dir.as_array(), (2 * n_plus - n) / n])
    _write_table(path, ["ax", "ay", "az", "mx", "my", "mz", "mean_x"], rows)


def _eprb_table(rng: np.random.Generator, n: int, path: Path) -> None:
    """Sampled singlet <x>, <y>, <xy> over separation.eprb_design."""
    rows = []
    for a1, a2 in separation.eprb_design():
        counts = rng.multinomial(n, eprb_experiment.pair_probabilities(a1, a2))
        xs, ys = np.array(eprb_experiment.PAIR_SPACE, dtype=float).T
        rows.append([*a1.as_array(), *a2.as_array(),
                     counts @ xs / n, counts @ ys / n, counts @ (xs * ys) / n])
    header = ["a1x", "a1y", "a1z", "a2x", "a2y", "a2z", "mean_x", "mean_y", "mean_xy"]
    _write_table(path, header, rows)


def eprb_pipeline(sizes: Sizes, seed: int, out: Path) -> list[Command]:
    logdir = out / "eprb"
    report = logdir / "report.csv"
    sg_table, eprb_table = out / "sg_correlations.csv", out / "eprb_correlations.csv"
    sep_sg, sep_eprb = out / "sep_sg", out / "sep_eprb"

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1])))
    source = UnitVector3.from_array(rng.normal(size=3))
    _sg_table(rng, source, sizes.table_samples, sg_table)
    _eprb_table(rng, sizes.table_samples, eprb_table)
    noise_floor = 1.0 / math.sqrt(sizes.table_samples)  # largest sampling stderr of a mean
    tolerance = 10 * noise_floor

    def check_run(stdout: str) -> list[str]:
        written = len(list(logdir.glob("eprb_*.csv")))
        if written == sizes.eprb_angles:
            return []
        return [f"eprb run: {written} logs, want {sizes.eprb_angles}"]

    def check_report(stdout: str) -> list[str]:
        a1 = UnitVector3(0.0, 0.0, 1.0)
        thetas = np.linspace(0.0, float(PI), sizes.eprb_angles)
        seeds = sg_experiment.derive_seeds(seed, sizes.eprb_angles)
        expected = [["theta", "xy_mean", "x_mean", "y_mean", "stderr_xy", "n"]]
        for theta, s in zip(thetas, seeds):
            log = eprb_experiment.sample_eprb(
                a1, UnitVector3.from_polar(float(theta)), sizes.eprb_pairs, s
            )
            rep = eprb_experiment.correlation_report(log)
            values = (log.theta, rep.xy_mean, rep.x_mean, rep.y_mean, rep.stderr_xy)
            expected.append(["%.17g" % v for v in values] + [str(rep.n)])
        if _read_csv(report) != expected:
            return ["eprb report: rows differ from in-memory sample_eprb"]
        return []

    def check_test(stdout: str) -> list[str]:
        lines = [line for line in stdout.splitlines() if line.startswith("theta=")]
        passed = sum(line.endswith(" PASS") for line in lines)
        if passed == len(lines) == sizes.eprb_angles:
            return []
        return [f"eprb test: {passed} of {len(lines)} lines pass, want {sizes.eprb_angles}"]

    def check_sep_sg(stdout: str) -> list[str]:
        result = json.loads((sep_sg / "separation.json").read_text())
        error = np.max(np.abs(np.asarray(result["m_est"]) - source.as_array()))
        if error <= tolerance and abs(result["u0"]) <= tolerance:
            return []
        return [f"separate sg: m_est off by {error:.2e}, u0 {result['u0']:.2e}"]

    def check_sep_eprb(stdout: str) -> list[str]:
        result = json.loads((sep_eprb / "separation.json").read_text())
        singlet = {"rho1": np.zeros(3), "rho2": np.zeros(3), "rho12": -np.eye(3) / 4}
        error = max(np.max(np.abs(np.asarray(result[k]) - v)) for k, v in singlet.items())
        if error <= tolerance:
            return []
        return [f"separate eprb: coefficients off the singlet by {error:.2e}"]

    floor = "%.17g" % noise_floor
    return [
        Command(
            "eprb run",
            ["eprb", "run", "--theta-grid", _grid(sizes.eprb_angles), "--n", str(sizes.eprb_pairs),
             "--seed", str(seed), "--out", str(logdir)],
            True,
            check_run,
        ),
        Command("eprb report", ["eprb", "report", str(logdir), "--out", str(report)], False,
                check_report),
        Command("eprb test", ["eprb", "test", str(logdir)], False, check_test),
        Command("separate sg", ["separate", "sg", "--input", str(sg_table), "--noise-floor", floor,
                                "--out", str(sep_sg)], False, check_sep_sg),
        Command("separate eprb", ["separate", "eprb", "--input", str(eprb_table), "--noise-floor",
                                  floor, "--out", str(sep_eprb)], False, check_sep_eprb),
    ]


# -- evolve_checks ------------------------------------------------------------------


def evolve_checks(sizes: Sizes, seed: int, out: Path) -> list[Command]:
    rundir = out / "evolve"
    n_t = int(sizes.evolve_grid.split(",")[3])
    stride = 100
    snapshots = n_t // stride + 1

    def check_evolve(stdout: str) -> list[str]:
        problems = []
        written = len(list(rundir.glob("snap_*.csv")))
        if written != snapshots:
            problems.append(f"evolve: {written} snapshots, want {snapshots}")
        drift = _number_after(stdout, "final norm drift")
        if not drift <= 1e-8:
            problems.append(f"evolve: final norm drift {drift:.2e} > 1e-8")
        return problems

    def check_verify(stdout: str) -> list[str]:
        return [] if "verify: all digests match" in stdout else ["report --verify: no match line"]

    def check_fq(stdout: str) -> list[str]:
        worst = _number_after(stdout, "trials:")
        return [] if worst < 1e-8 else [f"check fq: |F - Q| {worst:.2e} >= 1e-8"]

    def exit_code_only(stdout: str) -> list[str]:
        return []

    return [
        Command(
            "evolve",
            ["evolve", "--potential", "harmonic", "--grid", sizes.evolve_grid, "--x0", "1.0",
             "--sigma0", "0.7071067811865476", "--stride", str(stride), "--out", str(rundir)],
            True,
            check_evolve,
        ),
        Command("report", ["report", str(rundir), "--verify"], False, check_verify),
        Command("check fq", ["check", "fq", "--trials", str(sizes.fq_trials), "--seed", str(seed)],
                False, check_fq),
        Command("check madelung", ["check", "madelung"], False, exit_code_only),
        Command("check fisher", ["check", "fisher"], False, exit_code_only),
    ]


WORKLOADS = {
    "sg_pipeline": sg_pipeline,
    "eprb_pipeline": eprb_pipeline,
    "evolve_checks": evolve_checks,
}
