"""Spans around the calls into each li_qt layer, recorded from outside the program.

``Tracer.installed()`` replaces the public functions listed in ``TARGETS`` by
wrappers and restores them on exit.  The CLI looks these names up on their
modules (or classes) at call time, so the program itself is not changed.  A
span is (name, command, start, end, parent); a layer's self time is the time
its spans cover minus the time covered by their direct child spans.  Each CLI
command is a root span of layer ``io_cli`` (argument parsing, dispatch and
whatever formatting the command does itself).
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

from li_qt import eprb_experiment, io_cli, separation, sg_experiment, wave_dynamics
from li_qt.inference_core import CountTable

LAYERS = (
    "io_cli",
    "sg_experiment",
    "eprb_experiment",
    "inference_core",
    "separation",
    "wave_dynamics",
)
COMMAND_SPAN = "io_cli.command"


def _size(path) -> int:
    return Path(path).stat().st_size


def _encoded(args, kwargs, result):
    return {"io_cli.encode_rows": args[0].n, "io_cli.encode_bytes": _size(result[0])}


def _decoded(args, kwargs, result):
    csv_path = Path(args[0]).with_suffix("").with_suffix(".csv")
    return {"io_cli.decode_rows": result.n, "io_cli.decode_bytes": _size(csv_path)}


def _decoded_external(args, kwargs, result):
    return {"io_cli.decode_rows": result.n, "io_cli.decode_bytes": _size(args[0])}


def _digested(args, kwargs, result):
    return {"io_cli.digest_bytes": _size(args[0])}


def _sampled(args, kwargs, result):
    return {"sg_experiment.sample_events": result.n}


def _stepped(args, kwargs, result):
    grid = kwargs["grid"] if "grid" in kwargs else args[2]
    return {"wave_dynamics.cn_steps": grid.n_t}


# (owner, attribute, span name, counts taken from the call) -- each span name
# ``<layer>.<what>`` yields the metric ``<layer>.<what>_s``, its inclusive time.
TARGETS = (
    (io_cli, "build_parser", "io_cli.parse", None),
    (io_cli, "save_event_log", "io_cli.encode", _encoded),
    (io_cli, "save_pair_log", "io_cli.encode", _encoded),
    (io_cli, "load_events", "io_cli.decode", _decoded),
    (io_cli, "load_external_pair_csv", "io_cli.decode", _decoded_external),
    (io_cli, "write_manifest", "io_cli.manifest", None),
    (io_cli, "verify_manifest", "io_cli.verify", None),
    (io_cli, "_sha256", "io_cli.digest", _digested),
    (sg_experiment, "sample_sg", "sg_experiment.sample", _sampled),
    (sg_experiment, "estimate_expectation", "sg_experiment.estimate", None),
    (sg_experiment, "fit_robust_solution", "sg_experiment.fit", None),
    (eprb_experiment, "sample_eprb", "eprb_experiment.sample", None),
    (eprb_experiment, "correlation_report", "eprb_experiment.report", None),
    (eprb_experiment, "singlet_compliance_test", "eprb_experiment.test", None),
    (eprb_experiment, "marginal_uniformity_test", "eprb_experiment.test", None),
    (CountTable, "from_outcomes", "inference_core.count_table", None),
    (CountTable, "from_pairs", "inference_core.count_table", None),
    (separation, "separate_sg", "separation.solve", None),
    (separation, "separate_eprb", "separation.solve", None),
    (wave_dynamics, "evolve_tdse", "wave_dynamics.evolve", _stepped),
    (io_cli, "gaussian_packet", "wave_dynamics.prepare", None),  # imported by name
    (wave_dynamics, "random_polar_fields", "wave_dynamics.prepare", None),
    (wave_dynamics, "polar_to_wave", "wave_dynamics.prepare", None),
    (wave_dynamics.TdseTrajectory, "polar", "wave_dynamics.polar", None),
    (wave_dynamics, "functional_F", "wave_dynamics.fq", None),
    (wave_dynamics, "functional_Q", "wave_dynamics.fq", None),
    (wave_dynamics, "check_madelung_extremum", "wave_dynamics.madelung", None),
    (wave_dynamics, "fisher_continuum", "wave_dynamics.fisher", None),
    (wave_dynamics, "fisher_discrete", "wave_dynamics.fisher", None),
)

COUNT_METRICS = (
    "io_cli.encode_rows",
    "io_cli.encode_bytes",
    "io_cli.decode_rows",
    "io_cli.decode_bytes",
    "io_cli.digest_bytes",
    "sg_experiment.sample_events",
    "wave_dynamics.cn_steps",
)
TIME_METRICS = tuple(sorted({f"{name}_s" for _, _, name, _ in TARGETS})) + (
    "io_cli.snapshot_encode_s",
    "wave_dynamics.step_us",
) + tuple(f"{layer}.self_s" for layer in LAYERS)


@dataclass(slots=True)
class Span:
    name: str
    command: str
    start: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a command
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.errors: Counter = Counter()
        self.missing: list[str] = []
        self._open: list[int] = []

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        for owner, attr, name, measure in TARGETS:
            raw = vars(owner).get(attr)
            if raw is None:
                label = f"{getattr(owner, '__name__', owner)}.{attr}"
                if label not in self.missing:
                    self.missing.append(label)
                    print(f"tracing: {label} not found, not traced", file=sys.stderr)
                continue
            saved.append((owner, attr, raw))
            setattr(owner, attr, self._wrap(raw, name, measure))
        try:
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    @contextmanager
    def command(self, label: str):
        """Root span for one CLI command."""
        with self._span(COMMAND_SPAN, label):
            yield

    @contextmanager
    def _span(self, name: str, command: str):
        span = Span(name, command, perf_counter(), self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        except Exception:
            self.errors[name.split(".")[0]] += 1
            raise
        finally:
            span.end = perf_counter()
            self._open.pop()

    def _wrap(self, raw, name, measure):
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            command = self.spans[self._open[0]].command if self._open else ""
            with self._span(name, command) as span:
                result = fn(*args, **kwargs)
            if measure is not None:
                span.counts = measure(args, kwargs, result)
            return result

        return classmethod(traced) if is_classmethod else traced

    def error_metrics(self) -> dict[str, float]:
        return {f"{layer}.errors": float(self.errors[layer]) for layer in LAYERS}

    def layer_metrics(self, first: int) -> dict[str, float]:
        """Per-layer times and counts over ``spans[first:]``, one iteration."""
        spans = self.spans
        metrics = dict.fromkeys(TIME_METRICS + COUNT_METRICS, 0.0)
        covered = Counter()
        for span in spans[first:]:
            if span.parent >= 0:
                covered[span.parent] += span.end - span.start
        step_time = step_count = 0.0
        for index in range(first, len(spans)):
            span = spans[index]
            duration = span.end - span.start
            own = duration - covered[index]
            metrics[f"{span.name.split('.')[0]}.self_s"] += own
            for key, value in span.counts.items():
                metrics[key] += value
            if span.name == COMMAND_SPAN:
                if span.command == "evolve":
                    metrics["io_cli.snapshot_encode_s"] += own
                continue
            metrics[f"{span.name}_s"] += duration
            if span.name == "wave_dynamics.evolve" and span.command == "evolve":
                step_time += duration
                step_count += span.counts["wave_dynamics.cn_steps"]
        if step_count:
            metrics["wave_dynamics.step_us"] = step_time / step_count * 1e6
        return metrics


def dump_spans(spans: list[Span]) -> list[dict]:
    return [asdict(span) for span in spans]
