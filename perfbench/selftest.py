"""Self-test of the benchmark on a tiny size.

For each workload it checks that
- every command passes its output checks;
- no layer's self time is negative, and the traced layers' self times sum to
  the traced wall time within SLACK of it.  Self times add up to the command
  spans by construction, so this only bounds the benchmark's own bookkeeping
  between commands;
- time is attributed to the right layer: under cProfile, the direct calls
  from code of one li_qt module into a function of another that no tracing
  wrapper sits between (``io_cli`` calling ``wave_dynamics.gaussian_packet``,
  say, which lands in ``io_cli.self_s``) take at most BYPASS_SLACK of the
  commands' wall time;
- each mode reports exactly the metrics BENCHMARK.json names, in its units.

Run from the root of a checkout (about 15 s):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import json
import pstats
import shutil
import sys
import tempfile
from pathlib import Path

import run

SLACK = 0.01  # share of the traced wall time the layers' self times may leave out
BYPASS_SLACK = 0.03  # share of the wall time that untraced cross-module calls may take


def check_names(reported: dict, declared: list[dict], mode: str) -> list[str]:
    problems = []
    names = {m["name"] for m in declared}
    problems += [f"{mode}: {n} declared but not reported" for n in sorted(names - set(reported))]
    problems += [f"{mode}: {n} reported but not declared" for n in sorted(set(reported) - names)]
    problems += [
        f"{mode}: {m['name']} unit {run.unit_of(m['name'])} != declared {m['unit']}"
        for m in declared
        if run.unit_of(m["name"]) != m["unit"]
    ]
    return problems


def bypassed_calls(io_cli, tracer, commands) -> tuple[float, list[tuple[float, str]]]:
    """Run ``commands`` traced under cProfile; return their wall time and the
    cumulative time of each direct call between li_qt modules, largest first.

    A traced target is called from the wrapper in tracing.py, so its calls do
    not count.  A call whose time a span does not cover lands in the caller's
    layer, so a heavy one means a function is missing from ``TARGETS``.
    """
    package = str(run.SRC / "li_qt")

    def module(code) -> str | None:  # code is (filename, line, function)
        return Path(code[0]).stem if code[0].startswith(package) else None

    first = len(tracer.spans)
    profile = cProfile.Profile()
    with tracer.installed():
        profile.enable()
        for cmd in commands:
            with contextlib.redirect_stdout(io.StringIO()), tracer.command(cmd.label):
                io_cli.run_command(cmd.argv)
        profile.disable()
    wall = sum(s.end - s.start for s in tracer.spans[first:] if s.parent < 0)
    calls = [
        (cumulative, f"{module(caller)}.{caller[2]} -> {module(callee)}.{callee[2]}")
        for callee, (*_, callers) in pstats.Stats(profile).stats.items()
        for caller, (*_, cumulative) in callers.items()
        if module(callee) and module(caller) and module(callee) != module(caller)
    ]
    return wall, sorted(calls, reverse=True)


def main() -> int:
    io_cli = run.require_io_cli()
    import tracing
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {w["name"] for w in spec["workloads"]}
    problems = [f"workloads: BENCHMARK.json {sorted(declared)} != {sorted(workloads.WORKLOADS)}"
                ] if declared != set(workloads.WORKLOADS) else []
    run.OUTPUT_ROOT.mkdir(parents=True, exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUTPUT_ROOT))
        try:
            session = run.Session(io_cli, workload, workloads.TINY)
            tracer = tracing.Tracer()
            samples = run.timed_loop(session, 1, work, 0.0, tracer, setup_repeats=1)
            e2e = run.end_to_end(samples, session, run.workload_rss(name, 1, work / "rss"))
            layers = run.per_layer(samples, tracer)
            (work / "profiled").mkdir()
            commands = workload(workloads.TINY, 1, work / "profiled")
            profiled_wall, calls = bypassed_calls(io_cli, tracer, commands)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if session.failed:
            problems.append(f"{name}: {session.failed} of {session.attempted} operations failed")
        problems += check_names(e2e, spec["end_to_end"], f"{name} end_to_end")
        problems += check_names(layers, spec["per_layer"], f"{name} per_layer")
        negative = [k for k, v in layers.items() if k.endswith(".self_s") and v < 0]
        if negative:
            problems.append(f"{name}: negative self time in {negative}")
        wall, gap = layers["trace.wall_s"], layers["trace.unattributed_s"]
        if not 0 <= gap <= SLACK * wall:
            problems.append(f"{name}: self times leave {gap:.2e} s of {wall:.3f} s unattributed")
        bypassed = sum(t for t, _ in calls)
        if bypassed > BYPASS_SLACK * profiled_wall:
            problems.append(f"{name}: untraced cross-module calls take {bypassed:.3f} s of "
                            f"{profiled_wall:.3f} s; largest: {calls[:3]}")
        print(f"{name}: traced wall {wall:.4f} s, unattributed {gap:.2e} s; untraced "
              f"cross-module calls {bypassed / profiled_wall:.2%} of the profiled wall"
              + (f", largest {calls[0][1]}" if calls else ""))
    for problem in problems:
        print(f"SELFTEST FAIL {problem}", file=sys.stderr)
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
