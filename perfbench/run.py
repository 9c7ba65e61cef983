"""li-qt benchmark: the README pipelines through ``li_qt.io_cli.run_command``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sg_pipeline --seed 3 --seconds 30 --trace 0

A run first runs the workload's command sequence once on the pinned seed
(warm-up, with every CSV and result JSON checked against ``digests.json``),
then repeats it on ``--seed`` until ``--seconds`` have passed.  After each
iteration it times the calibration kernel, and between iterations it times
``SETUP_REPEATS`` fresh interpreters for ``setup_s``.  Every command's
outputs are checked.  A digest mismatch or failed check on the pinned seed
stops the run before timing, with exit code 1 and no result; a failed check
later still prints the result (``"correct": false``) and exits with code 1.
The last line of standard output is the JSON result;
the lines before it give the environment and each metric's sample count and
spread, raw and scaled.  A fuller record (environment, every raw sample, and
with ``--trace 1`` every span) is written under ``.bench_build/perfbench/results/``.

With ``--trace 0`` the metrics are end to end, measured with tracing off; the
times are medians scaled to the reference machine speed (calibration.py).
With ``--trace 1`` untraced and traced iterations alternate; the metrics are
the raw per-layer times and counts of the traced ones (medians per iteration;
``<layer>.errors`` are totals), and ``trace.overhead_s`` is the traced minus
the untraced median wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTPUT_ROOT = ROOT / ".bench_build" / "perfbench"

PINNED_SEED = 7
SETUP_REPEATS = 5
SETUP_CODE = "import li_qt.io_cli as cli; cli.build_parser()"
RSS_CODE = "import sys, run; print(run.rss_growth(sys.argv[1], int(sys.argv[2]), sys.argv[3]))"
DIGESTS = Path(__file__).with_name("digests.json")
UNITS = (("_us", "us"), ("_s", "s"), ("_mb", "MB"), ("_bytes", "B"), ("_ratio", "ratio"))


class MissingProgram(RuntimeError):
    pass


def require_io_cli():
    """Import ``li_qt.io_cli`` from ``<checkout>/src`` or raise MissingProgram.

    The benchmark never measures an installed copy, so that a checkout
    without its sources fails instead of quietly timing some other build.
    """
    package = SRC / "li_qt"
    if not (package / "io_cli.py").is_file():
        raise MissingProgram(f"no li_qt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from li_qt import io_cli

    if Path(io_cli.__file__).resolve().parent != package.resolve():
        raise MissingProgram(f"li_qt imported from {io_cli.__file__}, not from {SRC}")
    return io_cli


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- environment and set-up ----------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: Path) -> str:
    """Type of the mount holding ``path``, from the longest matching mount point."""
    best, fstype = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fstype
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        point = fields[1]
        inside = target == point or target.startswith(point.rstrip("/") + "/")
        if inside and len(point) > len(best):
            best, fstype = point, fields[2]
    return fstype


def environment(out: Path) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "filesystem": _filesystem(out),
    }


def time_setup() -> float:
    """Wall time of a fresh interpreter that imports io_cli and builds its parser."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - start


def peak_rss_mb() -> float:
    """This process's own peak RSS (``VmHWM``), in MB.

    ``getrusage`` would report the larger of it and the peak RSS of the
    process that started this one: Linux carries the parent's peak over fork
    and exec.  It is only the fallback where ``/proc`` is missing.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def rss_growth(workload: str, seed: int, work: str) -> float:
    """Peak RSS in MB that the workload's full-size commands add to this interpreter.

    Meant for a fresh interpreter (``workload_rss``).  The baseline is read
    after ``li_qt`` is imported and the inputs are generated, so the growth is
    the commands' own memory (decoded rows, sampled arrays, trajectories, and
    modules they import lazily), not the ~80 MB of imports that dominate
    ``peak_rss_mb``.  Output checks are not run here.
    """
    io_cli = require_io_cli()
    import workloads

    out = Path(work)
    out.mkdir(parents=True)
    commands = workloads.WORKLOADS[workload](workloads.FULL, seed, out)
    baseline = peak_rss_mb()
    for cmd in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = io_cli.run_command(cmd.argv)
        if rc != 0:
            raise SystemExit(f"{cmd.label}: exit code {rc}")
    return peak_rss_mb() - baseline


def workload_rss(workload: str, seed: int, work: Path) -> float:
    """``rss_growth`` measured in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent))
    proc = subprocess.run([sys.executable, "-c", RSS_CODE, workload, str(seed), str(work)],
                          env=env, check=True, stdout=subprocess.PIPE, text=True)
    return float(proc.stdout.split()[-1])


# -- iterations ------------------------------------------------------------------------


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digests(out: Path) -> dict[str, str]:
    """sha256 of every output except manifest.json, which holds a timestamp."""
    return {
        p.relative_to(out).as_posix(): sha256(p)
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def digest_problems(actual: dict, pinned: dict) -> list[str]:
    problems = [f"{name}: not written" for name in sorted(set(pinned) - set(actual))]
    problems += [f"{name}: not pinned" for name in sorted(set(actual) - set(pinned))]
    problems += [
        f"{name}: sha256 {actual[name][:12]} != pinned {pinned[name][:12]}"
        for name in sorted(set(actual) & set(pinned))
        if actual[name] != pinned[name]
    ]
    return problems


class Session:
    """Runs iterations of one workload and counts operations."""

    def __init__(self, io_cli, workload, sizes):
        self.io_cli = io_cli
        self.workload = workload
        self.sizes = sizes
        self.attempted = 0
        self.failed = 0

    def _record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {label}: {problem}", file=sys.stderr)

    def iterate(self, seed: int, out: Path, tracer=None) -> dict:
        """Run the command sequence once; return its timings after checking it."""
        out.mkdir(parents=True)
        commands = self.workload(self.sizes, seed, out)
        results = []
        traced = tracer.installed() if tracer else contextlib.nullcontext()
        with traced:
            start = perf_counter()
            for cmd in commands:
                stdout = io.StringIO()
                span = tracer.command(cmd.label) if tracer else contextlib.nullcontext()
                with contextlib.redirect_stdout(stdout):
                    t0 = perf_counter()
                    try:
                        with span:
                            rc = self.io_cli.run_command(cmd.argv)
                    except Exception:  # a traceback fails the operation, not the benchmark
                        traceback.print_exc()
                        rc = None
                    elapsed = perf_counter() - t0
                results.append((cmd, rc, stdout.getvalue(), elapsed))
            wall = perf_counter() - start
        for cmd, rc, text, _ in results:
            if rc != 0:
                self._record(cmd.label, [f"exit code {rc}"])
                continue
            try:
                problems = cmd.check(text)
            except Exception as exc:  # a missing or malformed output fails the check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            self._record(cmd.label, problems)
        return {
            "wall_s": wall,
            "produce_s": sum(e for cmd, _, _, e in results if cmd.produces),
            "analyze_s": sum(e for cmd, _, _, e in results if not cmd.produces),
        }

    def pinned_iteration(self, name: str, out: Path) -> None:
        """Warm-up on PINNED_SEED; its outputs must match digests.json byte for byte.

        A mismatch counts as a failed operation; ``main`` then stops before timing.
        """
        self.iterate(PINNED_SEED, out)
        pinned = json.loads(DIGESTS.read_text())[name]
        self._record("digests", digest_problems(output_digests(out), pinned))
        shutil.rmtree(out)


@dataclass
class Samples:
    plain: list = field(default_factory=list)  # untraced iterations
    traced: list = field(default_factory=list)
    setup: list = field(default_factory=list)  # raw set-up times
    kernel: list = field(default_factory=list)  # raw calibration kernel times


def timed_loop(session: Session, seed: int, work: Path, seconds: float, tracer=None,
               setup_repeats: int = 0) -> Samples:
    """Repeat iterations for ``seconds``, timing the calibration kernel after each.

    With a tracer, untraced and traced iterations alternate.  The
    ``setup_repeats`` set-up interpreters are spread over the run, between
    iterations, so that they see the same machine as the iterations; their own
    time does not count against ``seconds``.
    """
    samples = Samples()
    start = perf_counter()
    k = 0

    def elapsed() -> float:
        return perf_counter() - start - sum(samples.setup)

    while k < (2 if tracer else 1) or elapsed() < seconds:
        use_tracer = tracer is not None and k % 2 == 1
        out = work / f"iter-{k}"
        first_span = len(tracer.spans) if use_tracer else 0
        sample = session.iterate(seed, out, tracer if use_tracer else None)
        if use_tracer:
            sample["layers"] = tracer.layer_metrics(first_span)
            samples.traced.append(sample)
        else:
            samples.plain.append(sample)
        shutil.rmtree(out)
        samples.kernel.append(calibration.time_kernel())
        if len(samples.setup) < setup_repeats and (
            elapsed() * setup_repeats >= seconds * len(samples.setup)
        ):
            samples.setup.append(time_setup())
        k += 1
    while len(samples.setup) < setup_repeats:
        samples.setup.append(time_setup())
    return samples


# -- reporting ---------------------------------------------------------------------------


def summarize(name: str, values: list[float]) -> float:
    median = statistics.median(values)
    spread = f"min {min(values):.6g} max {max(values):.6g}"
    print(f"{name:34s} {median:.6g} {unit_of(name)}  (median of {len(values)}; {spread})")
    return median


def end_to_end(samples: Samples, session: Session, workload_rss_mb: float) -> dict:
    """Medians scaled to the reference machine speed (see calibration.py)."""
    kernel = summarize("raw calibration kernel_s", samples.kernel)
    scale = calibration.REFERENCE_S / kernel
    raw = {"setup_s": samples.setup}
    for key in ("wall_s", "produce_s", "analyze_s"):
        raw[key] = [s[key] for s in samples.plain]
    metrics = {}
    for key, values in raw.items():
        summarize(f"raw {key}", values)
        metrics[key] = summarize(key, [v * scale for v in values])
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["workload_rss_mb"] = workload_rss_mb
    metrics["pass_ratio"] = (session.attempted - session.failed) / session.attempted
    print(f"peak_rss_mb {metrics['peak_rss_mb']:.6g} MB; workload_rss_mb "
          f"{workload_rss_mb:.6g} MB; fail_ratio "
          f"{session.failed}/{session.attempted} = {1 - metrics['pass_ratio']:.6g}")
    return metrics


def per_layer(samples: Samples, tracer) -> dict:
    """Raw medians over the traced iterations; errors are totals."""
    traced = samples.traced
    metrics = {
        key: statistics.median(s["layers"][key] for s in traced) for key in traced[0]["layers"]
    }
    metrics.update(tracer.error_metrics())
    traced_wall = summarize("trace.wall_s", [s["wall_s"] for s in traced])
    untraced_wall = summarize("trace.untraced_wall_s", [s["wall_s"] for s in samples.plain])
    unattributed = [
        s["wall_s"] - sum(v for k, v in s["layers"].items() if k.endswith(".self_s"))
        for s in traced
    ]
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.unattributed_s"] = summarize("trace.unattributed_s", unattributed)
    metrics["calib.kernel_s"] = summarize("calib.kernel_s", samples.kernel)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        io_cli = require_io_cli()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUTPUT_ROOT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUTPUT_ROOT))
    try:
        env = environment(work)
        print("environment " + json.dumps(env, sort_keys=True))
        session = Session(io_cli, workloads.WORKLOADS[args.workload], workloads.FULL)
        session.pinned_iteration(args.workload, work / "pinned")
        if session.failed:
            print(f"perfbench: {session.failed} of {session.attempted} operations failed on "
                  f"the pinned seed {PINNED_SEED}; nothing timed", file=sys.stderr)
            return 1
        tracer = tracing.Tracer() if args.trace else None
        if not tracer:
            time_setup()  # compiles bytecode and fills the file cache; not a sample
        samples = timed_loop(session, args.seed, work, args.seconds, tracer,
                             0 if tracer else SETUP_REPEATS)
        if tracer:
            metrics = per_layer(samples, tracer)
        else:
            metrics = end_to_end(samples, session,
                                 workload_rss(args.workload, args.seed, work / "rss"))
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: child interpreter failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, samples=asdict(samples),
                  reference_kernel_s=calibration.REFERENCE_S)
    if tracer:
        record["spans"] = tracing.dump_spans(tracer.spans)
        record["untraced_targets"] = tracer.missing
    results = OUTPUT_ROOT / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 1 if session.failed else 0


if __name__ == "__main__":
    sys.exit(main())
