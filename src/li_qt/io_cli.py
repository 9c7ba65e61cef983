"""Persistence, run manifests, and the ``li-qt`` command line.

Event logs are CSV files with a JSON sidecar of the same stem; every run
directory gets a ``manifest.json`` recording the resolved configuration,
seeds, library version, RNG algorithm, timestamp, and a sha256 digest of
every output file.  Re-running with the same configuration and seeds
reproduces the CSV outputs byte for byte.

Exit codes: 0 success, 2 usage or validation error, 3 numerical-contract
failure (failed compliance test, non-separable data, digest mismatch).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, eprb_experiment, separation, sg_experiment, wave_dynamics
from .errors import CorruptData, NonSeparable, NoSignal, SchemaMismatch
from .inference_core import ExperimentConditions
from .sg_experiment import EventLog, UnitVector3
from .eprb_experiment import PairEventLog
from .wave_dynamics import (
    DetectorData,
    PhysicalParams,
    SpatialGrid,
    gaussian_packet,
    harmonic_potential,
)

SCHEMA_VERSION = 1
RNG_ALGORITHM = "PCG64"
_FLOAT_FMT = "%.17g"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONTRACT = 3


# -- sidecar / csv persistence ---------------------------------------------------

def _write_sidecar(path: Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_sidecar(path: Path) -> dict:
    data = json.loads(path.read_text())
    if data.get("schema_version") != SCHEMA_VERSION:
        raise SchemaMismatch(f"{path}: unsupported schema version")
    return data


# kind -> (header, dtype, allowed values of every column after ``index``).  A
# leading ``index`` column is written as, and must read back as, 0..n-1.  Rows
# end in "\r\n" on write, the terminator csv.writer emitted, so the bytes are
# unchanged; either line ending is accepted on read.
_SCHEMAS = {
    "sg": (("index", "outcome"), np.int64, (-1, 1)),
    "eprb": (("index", "x", "y"), np.int64, (-1, 1)),
    "detector": (("tau", "j", "count"), np.int64, None),
    "sg_correlations": (("ax", "ay", "az", "mx", "my", "mz", "mean_x"), np.float64, None),
    "eprb_correlations": (
        ("a1x", "a1y", "a1z", "a2x", "a2y", "a2z", "mean_x", "mean_y", "mean_xy"),
        np.float64,
        None,
    ),
}
_LOG_KINDS = ("sg", "eprb", "detector")


def _write_table(path: Path, kind: str, columns: list[np.ndarray]) -> None:
    """Write integer ``columns`` (the index excluded) as the CSV table ``kind``."""
    header = _SCHEMAS[kind][0]
    n = len(columns[0])
    if header[0] == "index":
        columns = [np.arange(n), *columns]
    row = ",".join(["%d"] * len(header)) + "\r\n"
    cells = tuple(np.column_stack(columns).ravel().tolist())
    path.write_text(",".join(header) + "\r\n" + (row * n) % cells, newline="")


def _read_table(path: Path, kind: str) -> np.ndarray:
    """The rows of the CSV table ``kind`` at ``path``, validated in bulk."""
    header, dtype, allowed = _SCHEMAS[kind]
    with Path(path).open() as fh:
        found = fh.readline().rstrip("\n").split(",")
        if found != list(header):
            raise SchemaMismatch(f"{path}: expected header {list(header)}, got {found}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            try:
                rows = np.loadtxt(fh, delimiter=",", dtype=dtype, ndmin=2, comments=None)
            except ValueError as exc:
                raise CorruptData(f"{path}: {exc}") from exc
    if rows.size == 0:
        rows = rows.reshape(0, len(header))
    if rows.shape[1] != len(header):
        raise CorruptData(f"{path}: rows have {rows.shape[1]} columns, header {len(header)}")
    if header[0] == "index" and not np.array_equal(rows[:, 0], np.arange(len(rows))):
        raise CorruptData(f"{path}: index column is not 0..{len(rows) - 1}")
    if allowed is not None and not np.isin(rows[:, 1:], allowed).all():
        raise CorruptData(f"{path}: values outside {set(allowed)}")
    return rows


def _save(base: Path, kind: str, columns: list[np.ndarray], **meta) -> list[Path]:
    csv_path = base.with_suffix(".csv")
    _write_table(csv_path, kind, columns)
    sidecar = base.with_suffix(".json")
    _write_sidecar(sidecar, {"kind": kind, **meta})
    return [csv_path, sidecar]


def _conditions(conditions: ExperimentConditions) -> dict:
    return {"label": conditions.label, "parameters": dict(conditions.parameters)}


def save_event_log(log: EventLog, base: Path) -> list[Path]:
    return _save(
        base, "sg", [log.outcomes],
        a=list(log.a.as_array()), m=list(log.m_direction.as_array()), theta=log.theta,
        seed=log.seed, n=log.n, conditions=_conditions(log.conditions),
    )


def save_pair_log(log: PairEventLog, base: Path) -> list[Path]:
    return _save(
        base, "eprb", [log.xs, log.ys],
        a1=list(log.a1.as_array()), a2=list(log.a2.as_array()), theta=log.theta,
        seed=log.seed, n=log.n, conditions=_conditions(log.conditions),
    )


def save_detector_data(data: DetectorData, base: Path, seed: int) -> list[Path]:
    n_slices, width = data.clicks.shape
    return _save(
        base, "detector",
        [np.repeat(np.arange(n_slices), width),
         np.tile(np.arange(-data.k_det, data.k_det + 1), n_slices),
         data.clicks.ravel()],
        k_det=data.k_det, n_repeats=data.n_repeats, n_slices=n_slices, seed=seed,
    )


def _detector_clicks(rows: np.ndarray, n_slices: int, k_det: int, path: Path) -> np.ndarray:
    """Click matrix from (tau, j, count) rows that cover each cell exactly once."""
    tau, j, count = rows.T
    width = 2 * k_det + 1
    if not np.all((0 <= tau) & (tau < n_slices) & (-k_det <= j) & (j <= k_det)):
        raise CorruptData(f"{path}: (tau, j) outside {n_slices} slices x |j| <= {k_det}")
    cell = tau * width + j + k_det
    if not np.all(np.bincount(cell, minlength=n_slices * width) == 1):
        raise CorruptData(f"{path}: rows must cover each (tau, j) exactly once")
    clicks = np.empty(n_slices * width, dtype=np.int64)
    clicks[cell] = count
    return clicks.reshape(n_slices, width)


def load_events(base: Path) -> EventLog | PairEventLog | DetectorData:
    """Load whatever log the sidecar at ``base`` describes.

    ``base`` may point at the CSV, the JSON, or the common stem.
    """
    stem = Path(base).with_suffix("")
    sidecar_path = stem.with_suffix(".json")
    csv_path = stem.with_suffix(".csv")
    for path in (sidecar_path, csv_path):
        if not path.exists():
            raise SchemaMismatch(f"missing file {path}")
    meta = _read_sidecar(sidecar_path)
    kind = meta.get("kind")
    if kind not in _LOG_KINDS:
        raise SchemaMismatch(f"{sidecar_path}: unknown log kind {kind!r}")
    rows = _read_table(csv_path, kind)
    if kind == "detector":
        k_det = int(meta["k_det"])
        clicks = _detector_clicks(rows, int(meta["n_slices"]), k_det, csv_path)
        try:
            return DetectorData(clicks=clicks, n_repeats=int(meta["n_repeats"]), k_det=k_det)
        except ValueError as exc:
            raise CorruptData(f"{csv_path}: {exc}") from exc
    if rows.shape[0] != meta["n"]:
        raise CorruptData(f"{csv_path}: {rows.shape[0]} rows but sidecar declares n={meta['n']}")
    conditions = ExperimentConditions(**meta.get("conditions", {}))
    if kind == "sg":
        log = EventLog(
            outcomes=rows[:, 1],
            a=UnitVector3.from_array(meta["a"]),
            m_direction=UnitVector3.from_array(meta["m"]),
            seed=int(meta["seed"]),
            conditions=conditions,
        )
    else:
        log = PairEventLog(
            xs=rows[:, 1],
            ys=rows[:, 2],
            a1=UnitVector3.from_array(meta["a1"]),
            a2=UnitVector3.from_array(meta["a2"]),
            seed=int(meta["seed"]),
            conditions=conditions,
        )
    if abs(log.theta - float(meta["theta"])) > 1e-12:
        raise CorruptData(
            f"{sidecar_path}: declared theta {meta['theta']} does not match "
            f"the angle between the orientations, {log.theta}"
        )
    return log


def load_external_pair_csv(
    path: Path, a1: UnitVector3, a2: UnitVector3
) -> PairEventLog:
    """Ingest a bare index,x,y CSV (no sidecar) with orientations from flags."""
    rows = _read_table(path, "eprb")
    return PairEventLog(xs=rows[:, 1], ys=rows[:, 2], a1=a1, a2=a2, seed=-1)


def save_operator(op: separation.HermitianOperator, path: Path) -> Path:
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in op.matrix]
    path.write_text(
        json.dumps(
            {"schema_version": SCHEMA_VERSION, "dim": op.dim, "entries": entries},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    return path


def load_operator(path: Path) -> separation.HermitianOperator:
    data = json.loads(Path(path).read_text())
    if data.get("schema_version") != SCHEMA_VERSION:
        raise SchemaMismatch(f"{path}: unsupported schema version")
    entries = np.array(
        [[complex(re, im) for re, im in row] for row in data["entries"]]
    )
    if entries.shape != (data["dim"], data["dim"]):
        raise CorruptData(f"{path}: entries do not match declared dim")
    return separation.HermitianOperator(entries)


# -- manifests --------------------------------------------------------------------

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: Path, command: str, config: dict, outputs: list[Path]) -> Path:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "library_version": __version__,
        "rng_algorithm": RNG_ALGORITHM,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": {p.name: _sha256(p) for p in sorted(outputs)},
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def verify_manifest(out_dir: Path) -> list[str]:
    """Recompute output digests; return a list of mismatch descriptions."""
    manifest = json.loads((Path(out_dir) / "manifest.json").read_text())
    problems = []
    for name, recorded in manifest["outputs"].items():
        target = Path(out_dir) / name
        if not target.exists():
            problems.append(f"{name}: missing")
        elif _sha256(target) != recorded:
            problems.append(f"{name}: digest mismatch")
    return problems


# -- config handling ----------------------------------------------------------------

class ConfigError(ValueError):
    pass


def _walk_parsers(parser: argparse.ArgumentParser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from _walk_parsers(child)


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Pull --config FILE out of argv and fold its values into the defaults.

    Defaults are installed on every (sub)parser that owns the key, since
    subparsers parse into a fresh namespace.  Unknown keys in the file are
    rejected so typos cannot silently pass.
    """
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        cfg_path = argv[idx + 1]
    except IndexError as exc:
        raise ConfigError("--config needs a file argument") from exc
    argv = argv[:idx] + argv[idx + 2 :]
    data = json.loads(Path(cfg_path).read_text())
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    applied = set()
    for node in _walk_parsers(parser):
        dests = {action.dest for action in node._actions}
        matching = {k: v for k, v in data.items() if k in dests}
        if matching:
            node.set_defaults(**matching)
            applied |= set(matching)
    unknown = set(data) - applied
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return argv


def _fallback_seed(value: int | None) -> int:
    import os

    if value is not None:
        return int(value)
    env = os.environ.get("LI_QT_SEED")
    return int(env) if env else 0


def _parse_vector(text: str) -> UnitVector3:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"expected three comma-separated components, got {text!r}")
    return UnitVector3.from_array(parts)


def _parse_theta_grid(text: str) -> np.ndarray:
    """Either a single angle or start:stop:count."""
    if ":" in text:
        start, stop, count = text.split(":")
        return np.linspace(float(start), float(stop), int(count))
    return np.array([float(text)])


# -- subcommand implementations --------------------------------------------------------

def _cmd_sg_run(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = _fallback_seed(args.seed)
    thetas = _parse_theta_grid(args.theta_grid)
    m = _parse_vector(args.m_direction)
    seeds = sg_experiment.derive_seeds(seed, len(thetas))
    outputs = []
    for i, (theta, child_seed) in enumerate(zip(thetas, seeds)):
        a = UnitVector3.from_polar(float(theta))
        log = sg_experiment.sample_sg(a, m, args.n, child_seed, sign=args.sign)
        outputs += save_event_log(log, out / f"sg_{i:03d}")
        e_hat, stderr = sg_experiment.estimate_expectation(log)
        print(f"theta={theta:.6f} n={args.n} e_hat={e_hat:+.6f} stderr={stderr:.2e}")
    config = {
        "theta_grid": args.theta_grid,
        "n": args.n,
        "seed": seed,
        "m_direction": args.m_direction,
        "sign": args.sign,
    }
    write_manifest(out, "sg run", config, outputs)
    return EXIT_OK


def _cmd_sg_fit(args) -> int:
    logdir = Path(args.logdir)
    sidecars = sorted(logdir.glob("sg_*.json"))
    if not sidecars:
        print(f"no sg_*.json logs under {logdir}", file=sys.stderr)
        return EXIT_USAGE
    thetas, e_hats, stderrs = [], [], []
    for sidecar in sidecars:
        log = load_events(sidecar)
        e_hat, stderr = sg_experiment.estimate_expectation(log)
        thetas.append(log.theta)
        e_hats.append(e_hat)
        stderrs.append(stderr)
    try:
        fit = sg_experiment.fit_robust_solution(
            thetas, e_hats, k_max=args.k_max, stderrs=stderrs
        )
    except NoSignal as exc:
        print(f"no signal: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    result = {
        "k_winding": fit.k_winding,
        "phi": fit.phi,
        "residual": fit.residual,
        "fisher": fit.fisher,
        "thetas": thetas,
        "e_hats": e_hats,
        "stderrs": stderrs,
    }
    (logdir / "fit.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(
        f"K={fit.k_winding} phi={fit.phi:.6f} residual={fit.residual:.3e} "
        f"fisher={fit.fisher:.1f}"
    )
    return EXIT_OK


def _cmd_eprb_run(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = _fallback_seed(args.seed)
    thetas = _parse_theta_grid(args.theta_grid)
    seeds = sg_experiment.derive_seeds(seed, len(thetas))
    sign = -1 if args.correlation_sign == "-" else 1
    outputs = []
    for i, (theta, child_seed) in enumerate(zip(thetas, seeds)):
        a1 = UnitVector3(0.0, 0.0, 1.0)
        a2 = UnitVector3.from_polar(float(theta))
        log = eprb_experiment.sample_eprb(
            a1, a2, args.n, child_seed, correlation_sign=sign
        )
        outputs += save_pair_log(log, out / f"eprb_{i:03d}")
        report = eprb_experiment.correlation_report(log)
        print(
            f"theta={theta:.6f} n={args.n} xy_mean={report.xy_mean:+.6f} "
            f"x_mean={report.x_mean:+.6f} y_mean={report.y_mean:+.6f}"
        )
    config = {
        "theta_grid": args.theta_grid,
        "n": args.n,
        "seed": seed,
        "correlation_sign": args.correlation_sign,
    }
    write_manifest(out, "eprb run", config, outputs)
    return EXIT_OK


def _iter_pair_logs(args) -> list[PairEventLog]:
    source = Path(args.source)
    if source.is_dir():
        sidecars = sorted(source.glob("eprb_*.json"))
        return [load_events(p) for p in sidecars]
    if args.a1 is None or args.a2 is None:
        raise ConfigError("external CSV input needs --a1 and --a2")
    return [load_external_pair_csv(source, _parse_vector(args.a1), _parse_vector(args.a2))]


def _cmd_eprb_report(args) -> int:
    logs = _iter_pair_logs(args)
    if not logs:
        print("no pair logs found", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    for log in logs:
        rep = eprb_experiment.correlation_report(log)
        rows.append((log.theta, rep.xy_mean, rep.x_mean, rep.y_mean, rep.stderr_xy, rep.n))
        print(
            f"theta={log.theta:.6f} xy_mean={rep.xy_mean:+.6f} "
            f"x_mean={rep.x_mean:+.6f} y_mean={rep.y_mean:+.6f} "
            f"stderr_xy={rep.stderr_xy:.2e} n={rep.n}"
        )
    if args.out is not None:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["theta", "xy_mean", "x_mean", "y_mean", "stderr_xy", "n"])
            for row in rows:
                writer.writerow([_FLOAT_FMT % v for v in row[:5]] + [row[5]])
    return EXIT_OK


def _cmd_eprb_test(args) -> int:
    logs = _iter_pair_logs(args)
    if not logs:
        print("no pair logs found", file=sys.stderr)
        return EXIT_USAGE
    all_pass = True
    for log in logs:
        sigma, ok = eprb_experiment.singlet_compliance_test(log)
        sig_x, sig_y = eprb_experiment.marginal_uniformity_test(log)
        line_pass = ok and sig_x <= 5 and sig_y <= 5
        all_pass &= line_pass
        print(
            f"theta={log.theta:.6f} singlet_sigma={sigma:.3f} "
            f"marginal_sigma=({sig_x:.3f}, {sig_y:.3f}) "
            f"{'PASS' if line_pass else 'FAIL'}"
        )
    return EXIT_OK if all_pass else EXIT_CONTRACT


def _design(rows: np.ndarray) -> list[tuple[UnitVector3, UnitVector3]]:
    return [(UnitVector3(*r[0:3]), UnitVector3(*r[3:6])) for r in rows.tolist()]


def _cmd_separate_sg(args) -> int:
    rows = _read_table(args.input, "sg_correlations")
    try:
        result = separation.separate_sg(rows[:, 6], _design(rows), noise_floor=args.noise_floor)
    except NonSeparable as exc:
        print(f"non-separable: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    rho = separation.HermitianOperator(
        (separation.IDENTITY_2 + separation.pauli_vector(result.m_est)) / 2
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = [save_operator(rho, out / "rho.json")]
    summary = {
        "m_est": [float(v) for v in result.m_est],
        "u0": result.u0,
        "residual": result.residual,
        "trivial_signal": result.trivial_signal,
    }
    summary_path = out / "separation.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    outputs.append(summary_path)
    write_manifest(out, "separate sg", {"input": str(args.input)}, outputs)
    print(
        f"m_est=({result.m_est[0]:+.6f}, {result.m_est[1]:+.6f}, {result.m_est[2]:+.6f}) "
        f"u0={result.u0:+.2e} residual={result.residual:.2e}"
        + (" [trivial signal]" if result.trivial_signal else "")
    )
    return EXIT_OK


def _cmd_separate_eprb(args) -> int:
    rows = _read_table(args.input, "eprb_correlations")
    try:
        result = separation.separate_eprb(
            _design(rows), *rows[:, 6:9].T, noise_floor=args.noise_floor
        )
    except NonSeparable as exc:
        print(f"non-separable: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = [save_operator(result.rho(), out / "rho.json")]
    summary = {
        "rho0": result.coeffs.rho0,
        "rho1": [float(v) for v in result.coeffs.rho1],
        "rho2": [float(v) for v in result.coeffs.rho2],
        "rho12": [[float(v) for v in row] for row in result.coeffs.rho12],
        "residual": result.residual,
        "block_residuals": result.block_residuals,
    }
    summary_path = out / "separation.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    outputs.append(summary_path)
    write_manifest(out, "separate eprb", {"input": str(args.input)}, outputs)
    print(f"rho0={result.coeffs.rho0:.6f} residual={result.residual:.2e}")
    return EXIT_OK


def _build_potential(kind: str, mass: float):
    if kind == "free":
        return None
    if kind == "harmonic":
        return harmonic_potential(omega=1.0, mass=mass)
    if kind.startswith("file:"):
        table = json.loads(Path(kind[5:]).read_text())
        xs = np.asarray(table["x"], dtype=float)
        vs = np.asarray(table["v"], dtype=float)

        def V(x, t, xs=xs, vs=vs):
            return np.interp(x, xs, vs)

        return V
    raise ConfigError(f"unknown potential {kind!r}")


def _cmd_evolve(args) -> int:
    parts = args.grid.split(",")
    if len(parts) != 4:
        raise ConfigError(f"--grid expects L,n_x,dt,n_t, got {args.grid!r}")
    grid = SpatialGrid(
        L=float(parts[0]), n_x=int(parts[1]), dt=float(parts[2]), n_t=int(parts[3])
    )
    potential = _build_potential(args.potential, args.mass)
    params = PhysicalParams(mass=args.mass, lam=getattr(args, "lambda"), potential=potential)
    psi0 = gaussian_packet(grid, x0=args.x0, sigma0=args.sigma0, p0=args.p0, lam=params.lam)
    traj = wave_dynamics.evolve_tdse(
        psi0, params, grid, store_every=args.stride, check_boundary=not args.allow_boundary
    )
    polar = traj.polar()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    for k in range(traj.psi.shape[0]):
        snap = out / f"snap_{k:06d}.csv"
        with snap.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "re_psi", "im_psi", "P", "S"])
            for i, x in enumerate(grid.x):
                writer.writerow(
                    [
                        _FLOAT_FMT % x,
                        _FLOAT_FMT % traj.psi[k, i].real,
                        _FLOAT_FMT % traj.psi[k, i].imag,
                        _FLOAT_FMT % polar.P[k, i],
                        _FLOAT_FMT % polar.S[k, i],
                    ]
                )
        outputs.append(snap)
    config = {
        "grid": args.grid,
        "potential": args.potential,
        "lambda": params.lam,
        "mass": params.mass,
        "x0": args.x0,
        "sigma0": args.sigma0,
        "p0": args.p0,
        "stride": args.stride,
    }
    write_manifest(out, "evolve", config, outputs)
    print(
        f"stored {traj.psi.shape[0]} snapshots; final norm drift "
        f"{abs(traj.norms[-1] - traj.norms[0]):.2e}; energy drift "
        f"{abs(traj.energies[-1] - traj.energies[0]):.2e}"
    )
    return EXIT_OK


def _cmd_check_fq(args) -> int:
    grid = SpatialGrid(L=8.0, n_x=256, dt=1e-4, n_t=8)
    params = PhysicalParams(potential=lambda x, t: 0.3 * np.cos(np.pi * x / 8))
    worst = 0.0
    for trial in range(args.trials):
        fields = wave_dynamics.random_polar_fields(grid, n_slices=8, seed=args.seed + trial)
        F = wave_dynamics.functional_F(fields, params, grid, x_scheme="spectral")
        Q = wave_dynamics.functional_Q(
            wave_dynamics.polar_to_wave(fields, params.lam), params, grid,
            x_scheme="spectral",
        )
        worst = max(worst, abs(F - Q) / (abs(F) + abs(Q)))
    print(f"max relative |F - Q| over {args.trials} trials: {worst:.3e}")
    return EXIT_OK if worst < 1e-8 else EXIT_CONTRACT


def _cmd_check_fisher(args) -> int:
    grid = SpatialGrid(L=8.0, n_x=512, dt=1.0, n_t=1)
    sigma = 1.0
    P = np.exp(-grid.x**2 / (2 * sigma**2)) / math.sqrt(2 * math.pi * sigma**2)
    P /= np.trapezoid(P, dx=grid.dx)
    fields = wave_dynamics.PolarField(P=P, S=np.zeros_like(P))
    value = wave_dynamics.fisher_continuum(fields, grid)
    rel = abs(value - 1.0 / sigma**2) * sigma**2
    print(f"continuum Fisher of a unit Gaussian: {value:.6f} (expect 1.0, off by {rel:.2e})")

    def binned_gaussian(k_det, origin=0.0):
        edges = wave_dynamics.detector_edges(grid.L, k_det) + origin

        def prob(x0, tau):
            from scipy.stats import norm

            cdf = norm.cdf(edges, loc=x0, scale=sigma)
            return np.diff(cdf) / (cdf[-1] - cdf[0])

        return prob

    # Homogeneity: shifting detector line and source together changes nothing.
    disc = wave_dynamics.fisher_discrete(binned_gaussian(200), [0.0], dx_step=1e-4)
    shifted = wave_dynamics.fisher_discrete(
        binned_gaussian(200, origin=2.5), [2.5], dx_step=1e-4
    )
    print(f"discrete Fisher fine bins: {disc:.6f}; jointly shifted: {shifted:.6f}")
    ok = rel < 0.01 and abs(disc - 1.0) < 0.01 and abs(disc - shifted) < 1e-9
    return EXIT_OK if ok else EXIT_CONTRACT


def _cmd_check_madelung(args) -> int:
    reports = []
    # Fixed store stride: the slice spacing must refine together with dt for
    # the analysis time derivatives to converge.
    for n_x, dt in ((256, 2e-3), (512, 1e-3)):
        grid = SpatialGrid(L=8.0, n_x=n_x, dt=dt, n_t=int(round(0.2 / dt)))
        params = PhysicalParams()
        traj = wave_dynamics.evolve_tdse(
            gaussian_packet(grid, sigma0=1.0), params, grid, store_every=10
        )
        rep = wave_dynamics.check_madelung_extremum(
            traj.polar(), params, grid, slice_dt=traj.slice_dt
        )
        reports.append(rep)
        print(
            f"n_x={n_x} dt={dt:g}: continuity_rms={rep.continuity_rms:.3e} "
            f"quantum_hj_rms={rep.quantum_hj_rms:.3e}"
        )
    ratio_c = reports[0].continuity_rms / reports[1].continuity_rms
    ratio_q = reports[0].quantum_hj_rms / reports[1].quantum_hj_rms
    print(f"refinement ratios: continuity x{ratio_c:.2f}, quantum HJ x{ratio_q:.2f}")
    ok = ratio_c > 2.0 and ratio_q > 2.0
    return EXIT_OK if ok else EXIT_CONTRACT


def _cmd_report(args) -> int:
    out_dir = Path(args.rundir)
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        print(f"no manifest.json under {out_dir}", file=sys.stderr)
        return EXIT_USAGE
    manifest = json.loads(manifest_path.read_text())
    print(f"command:  {manifest['command']}")
    print(f"version:  {manifest['library_version']} (rng {manifest['rng_algorithm']})")
    print(f"created:  {manifest['created_utc']}")
    print(f"config:   {json.dumps(manifest['config'], sort_keys=True)}")
    print(f"outputs:  {len(manifest['outputs'])} files")
    for name, digest in sorted(manifest["outputs"].items()):
        print(f"  {name}  sha256:{digest[:16]}...")
    if args.verify:
        problems = verify_manifest(out_dir)
        if problems:
            for problem in problems:
                print(f"VERIFY FAIL {problem}", file=sys.stderr)
            return EXIT_CONTRACT
        print("verify: all digests match")
    return EXIT_OK


# -- parser ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="li-qt",
        description="Robust dichotomic experiments, operator separation, and the linear evolver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sg = sub.add_parser("sg", help="Stern-Gerlach experiment").add_subparsers(
        dest="subcommand", required=True
    )
    sg_run = sg.add_parser("run", help="simulate event logs over a theta grid")
    sg_run.add_argument("--theta-grid", default="0:3.141592653589793:16",
                        help="single angle or start:stop:count (radians)")
    sg_run.add_argument("--theta", dest="theta_grid", help="alias for a single angle")
    sg_run.add_argument("--n", type=int, default=10000)
    sg_run.add_argument("--seed", type=int, default=None)
    sg_run.add_argument("--m-direction", default="0,0,1")
    sg_run.add_argument("--sign", type=int, choices=(1, -1), default=1,
                        help="detector labelling convention")
    sg_run.add_argument("--out", default="sg_out")
    sg_run.set_defaults(func=_cmd_sg_run)

    sg_fit = sg.add_parser("fit", help="fit cos(K theta + phi) to a log directory")
    sg_fit.add_argument("logdir")
    sg_fit.add_argument("--k-max", type=int, default=8)
    sg_fit.set_defaults(func=_cmd_sg_fit)

    eprb = sub.add_parser("eprb", help="EPRB pair experiment").add_subparsers(
        dest="subcommand", required=True
    )
    eprb_run = eprb.add_parser("run", help="simulate pair logs over a theta grid")
    eprb_run.add_argument("--theta-grid", default="0:3.141592653589793:12")
    eprb_run.add_argument("--theta", dest="theta_grid")
    eprb_run.add_argument("--n", type=int, default=10000)
    eprb_run.add_argument("--seed", type=int, default=None)
    eprb_run.add_argument("--correlation-sign", choices=("+", "-"), default="-")
    eprb_run.add_argument("--out", default="eprb_out")
    eprb_run.set_defaults(func=_cmd_eprb_run)

    for name, func, help_text in (
        ("report", _cmd_eprb_report, "correlation report for logs"),
        ("test", _cmd_eprb_test, "singlet compliance and marginal tests"),
    ):
        p = eprb.add_parser(name, help=help_text)
        p.add_argument("source", help="log directory or external index,x,y CSV")
        p.add_argument("--a1", default=None, help="needed for external CSV")
        p.add_argument("--a2", default=None, help="needed for external CSV")
        if name == "report":
            p.add_argument("--out", default=None, help="optional CSV output path")
        p.set_defaults(func=func)

    sep = sub.add_parser("separate", help="operator separation").add_subparsers(
        dest="subcommand", required=True
    )
    sep_sg = sep.add_parser("sg", help="separate single-magnet correlations")
    sep_sg.add_argument("--input", required=True)
    sep_sg.add_argument("--noise-floor", type=float, default=None)
    sep_sg.add_argument("--out", default="separate_out")
    sep_sg.set_defaults(func=_cmd_separate_sg)
    sep_ep = sep.add_parser("eprb", help="separate pair correlations")
    sep_ep.add_argument("--input", required=True)
    sep_ep.add_argument("--noise-floor", type=float, default=None)
    sep_ep.add_argument("--out", default="separate_out")
    sep_ep.set_defaults(func=_cmd_separate_eprb)

    evolve = sub.add_parser("evolve", help="Crank-Nicolson evolution")
    evolve.add_argument("--potential", default="free",
                        help="free | harmonic | file:PATH (JSON {x: [...], v: [...]})")
    evolve.add_argument("--lambda", type=float, default=4.0, dest="lambda")
    evolve.add_argument("--mass", type=float, default=1.0)
    evolve.add_argument("--grid", default="10,512,0.001,1000", help="L,n_x,dt,n_t")
    evolve.add_argument("--x0", type=float, default=0.0)
    evolve.add_argument("--sigma0", type=float, default=1.0)
    evolve.add_argument("--p0", type=float, default=0.0)
    evolve.add_argument("--stride", type=int, default=100)
    evolve.add_argument("--allow-boundary", action="store_true")
    evolve.add_argument("--out", default="evolve_out")
    evolve.set_defaults(func=_cmd_evolve)

    check = sub.add_parser("check", help="numerical property checks").add_subparsers(
        dest="subcommand", required=True
    )
    fq = check.add_parser("fq", help="F and Q functional equivalence")
    fq.add_argument("--trials", type=int, default=50)
    fq.add_argument("--seed", type=int, default=0)
    fq.set_defaults(func=_cmd_check_fq)
    fisher = check.add_parser("fisher", help="Gaussian Fisher identities")
    fisher.set_defaults(func=_cmd_check_fisher)
    madelung = check.add_parser("madelung", help="hydrodynamic residual convergence")
    madelung.set_defaults(func=_cmd_check_madelung)

    report = sub.add_parser("report", help="summarize and verify a run directory")
    report.add_argument("rundir")
    report.add_argument("--verify", action="store_true")
    report.set_defaults(func=_cmd_report)

    return parser


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        argv = _apply_config_file(parser, list(argv))
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # includes SchemaMismatch, CorruptData, EmptyLog
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonSeparable as exc:
        print(f"contract failure: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
