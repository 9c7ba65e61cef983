import argparse
import dataclasses
import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import li_qt
from li_qt import io_cli, separation, wave_dynamics
from li_qt.errors import CorruptData, SchemaMismatch
from li_qt.eprb_experiment import PairEventLog, sample_eprb
from li_qt.io_cli import (
    _ROWS,
    _log_rows,
    _read_manifest,
    _read_table,
    _write_table,
    load_events,
    load_external_pair_csv,
    run_command,
    save_detector_data,
    save_event_log,
    save_operator,
    save_pair_log,
    verify_manifest,
    write_manifest,
)
from li_qt.sg_experiment import EventLog, UnitVector3, sample_sg
from li_qt.wave_dynamics import (
    DetectorData,
    PhysicalParams,
    PolarField,
    SpatialGrid,
    evolve_tdse,
    gaussian_packet,
    simulate_detector_clicks,
)

Z = UnitVector3(0.0, 0.0, 1.0)
X = UnitVector3(1.0, 0.0, 0.0)


class TestLogPersistence:
    def test_event_log_round_trip(self, tmp_path):
        log = sample_sg(UnitVector3.from_polar(0.8), Z, 5000, seed=12)
        save_event_log(log, tmp_path / "run")
        loaded = load_events(tmp_path / "run.csv")
        assert np.array_equal(loaded.outcomes, log.outcomes)
        assert loaded.seed == log.seed
        assert loaded.theta == pytest.approx(log.theta, abs=1e-12)

    def test_large_pair_log_round_trip(self, tmp_path):
        log = sample_eprb(Z, X, 10**6, seed=3)
        save_pair_log(log, tmp_path / "pairs")
        loaded = load_events(tmp_path / "pairs")
        assert np.array_equal(loaded.xs, log.xs)
        assert np.array_equal(loaded.ys, log.ys)

    def test_sidecar_count_mismatch(self, tmp_path):
        log = sample_sg(Z, Z, 100, seed=1)
        _, sidecar = save_event_log(log, tmp_path / "run")
        meta = json.loads(sidecar.read_text())
        meta["n"] = 99
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(CorruptData):
            load_events(tmp_path / "run")

    def test_missing_sidecar(self, tmp_path):
        (tmp_path / "orphan.csv").write_text("index,outcome\n0,1\n")
        with pytest.raises(SchemaMismatch):
            load_events(tmp_path / "orphan.csv")

    def test_unknown_kind(self, tmp_path):
        (tmp_path / "odd.csv").write_text("index,outcome\n0,1\n")
        (tmp_path / "odd.json").write_text(
            json.dumps({"schema_version": 1, "kind": "mystery"})
        )
        with pytest.raises(SchemaMismatch):
            load_events(tmp_path / "odd")

    def test_external_pair_csv(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("index,x,y\n0,1,-1\n1,-1,1\n2,1,1\n")
        log = load_external_pair_csv(path, Z, X)
        assert log.n == 3
        assert list(log.xs) == [1, -1, 1]

    def test_detector_round_trip(self, tmp_path):
        grid = SpatialGrid(L=5.0, n_x=256, dt=0.1, n_t=3)
        P = np.exp(-grid.x**2)
        P /= np.trapezoid(P, dx=grid.dx)
        fields = PolarField(P=np.tile(P, (3, 1)), S=np.zeros((3, grid.n_x)))
        data = simulate_detector_clicks(fields, grid, k_det=4, n=500, seed=6)
        save_detector_data(data, tmp_path / "det", seed=6)
        loaded = load_events(tmp_path / "det")
        assert np.array_equal(loaded.clicks, data.clicks)
        assert loaded.k_det == 4

    def test_header_only_log_round_trip(self, tmp_path):
        empty = EventLog(outcomes=np.array([], dtype=np.int8), a=Z, m_direction=Z, seed=0)
        csv_path, _ = save_event_log(empty, tmp_path / "empty")
        assert csv_path.read_bytes() == b"index,outcome\r\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_events(tmp_path / "empty")
        assert loaded.n == 0

    def test_single_event_round_trip(self, tmp_path):
        log = sample_sg(X, Z, 1, seed=4)
        pairs = sample_eprb(Z, X, 1, seed=4)
        save_event_log(log, tmp_path / "one")
        save_pair_log(pairs, tmp_path / "pair")
        assert np.array_equal(load_events(tmp_path / "one").outcomes, log.outcomes)
        loaded = load_events(tmp_path / "pair")
        assert (loaded.xs.tolist(), loaded.ys.tolist()) == (pairs.xs.tolist(), pairs.ys.tolist())

    def test_integer_orientations_write_float_sidecar(self, tmp_path):
        as_ints = sample_sg(UnitVector3(1, 0, 0), UnitVector3(0, 0, 1), 10, seed=1)
        as_floats = sample_sg(X, Z, 10, seed=1)
        _, ints = save_event_log(as_ints, tmp_path / "ints")
        _, floats = save_event_log(as_floats, tmp_path / "floats")
        assert ints.read_bytes() == floats.read_bytes()
        _, ints = save_pair_log(sample_eprb(UnitVector3(0, 0, 1), UnitVector3(1, 0, 0), 10, 1),
                                tmp_path / "pair_ints")
        _, floats = save_pair_log(sample_eprb(Z, X, 10, 1), tmp_path / "pair_floats")
        assert ints.read_bytes() == floats.read_bytes()


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedBytes:
    """sha256 of outputs at fixed seeds, each recorded before its writer was vectorized."""

    def test_cli_logs(self, tmp_path):
        assert run_command(["sg", "run", "--theta-grid", "0.2:2.9:4", "--n", "2000",
                            "--seed", "11", "--out", str(tmp_path / "sg")]) == 0
        assert run_command(["eprb", "run", "--theta-grid", "0.2:2.9:3", "--n", "2000",
                            "--seed", "9", "--out", str(tmp_path / "eprb")]) == 0
        assert {name: _sha(tmp_path / name) for name in (
            "sg/sg_000.csv", "sg/sg_000.json", "sg/sg_002.csv",
            "eprb/eprb_000.csv", "eprb/eprb_000.json",
        )} == {
            "sg/sg_000.csv": "2c661264ff50572c5a2dafda3ebf3df87359537351db2be9b63b8e9657649805",
            "sg/sg_000.json": "56bd60bb79bdf8d9300920db24bd6a91b00be169743849c46dc8fe7056e54ef2",
            "sg/sg_002.csv": "f42b8ec81a29874e3a241f2e45b7ce9eb1aae5fe06dba07014b713f369073b74",
            "eprb/eprb_000.csv": "46d9adec354112b1bcb334412343c22ffb115f519aeec71d8fe09f80b46d7d04",
            "eprb/eprb_000.json": "3b0a8fae4125fb385c37ae07d139f78de8542ebe536002460e21766f10552a18",
        }

    def test_cli_logs_past_four_digit_indices(self, tmp_path):
        # Recorded with the %d writer: indices 10000..100000 have 5 and 6 digits.
        assert run_command(["sg", "run", "--theta", "1.1", "--n", "100001", "--seed", "13",
                            "--out", str(tmp_path / "sg")]) == 0
        assert run_command(["eprb", "run", "--theta", "1.9", "--n", "100001", "--seed", "17",
                            "--out", str(tmp_path / "eprb")]) == 0
        assert {name: _sha(tmp_path / name) for name in (
            "sg/sg_000.csv", "sg/sg_000.json", "eprb/eprb_000.csv", "eprb/eprb_000.json",
        )} == {
            "sg/sg_000.csv": "7bd1d92d3e545e29efdb1fa2eefcf524d38872d75b95d9efc258d83be963f737",
            "sg/sg_000.json": "af54b11360adc0282ccf93b6f9a6866dc61ced55b4675f79a5a4ecbeba2fb50c",
            "eprb/eprb_000.csv": "172eaaafe382a1285e699628063edb798ee117da6fd4d29fc615803dd30f70bf",
            "eprb/eprb_000.json": "3b04d8326b5a6227c6594a4fd36235ea8a7a7f3f8159bc242098bff65b7cd1ae",
        }

    def test_detector_data(self, tmp_path):
        grid = SpatialGrid(L=5.0, n_x=256, dt=0.1, n_t=3)
        P = np.exp(-grid.x**2)
        P /= np.trapezoid(P, dx=grid.dx)
        fields = PolarField(P=np.tile(P, (3, 1)), S=np.zeros((3, grid.n_x)))
        data = simulate_detector_clicks(fields, grid, k_det=4, n=500, seed=6)
        csv_path, sidecar = save_detector_data(data, tmp_path / "det", seed=6)
        assert _sha(csv_path) == "e98cffc11e9a80125014c51b52ff09e35ca240590c5c0d0da9592dfd7e4823b9"
        assert _sha(sidecar) == "884b5b00b50e897a68c74d82d2d6626c30be18e0eae4cde8534c87b5c5160f04"

    def test_evolve_snapshots(self, tmp_path):
        # Recorded before the factored stepper and the vectorized snapshot writer.
        assert run_command(["evolve", "--potential", "harmonic", "--grid", "10,256,0.005,40",
                            "--stride", "20", "--out", str(tmp_path)]) == 0
        first, last = tmp_path / "snap_000000.csv", tmp_path / "snap_000002.csv"
        assert b",nan\r\n" in first.read_bytes() and b",nan\r\n" in last.read_bytes()
        assert _sha(first) == "295df2a7de8e9f389e07f16d45648b9fd6e3ca35d06566101270c5e47271b0fa"
        assert _sha(last) == "a941116daa5ee89eb42a5d31d2dc70af8f44c402b1e1d4025385887e6a6ae8e2"

    def test_eprb_report_table(self, tmp_path):
        assert run_command(["eprb", "run", "--theta-grid", "0.2:2.9:3", "--n", "2000",
                            "--seed", "9", "--out", str(tmp_path)]) == 0
        report = tmp_path / "report.csv"
        assert run_command(["eprb", "report", str(tmp_path), "--out", str(report)]) == 0
        assert _sha(report) == "48f129c9e0b2e78aa63bc6564dedab8b93f01d7797c0d401ef6d3e36d033a214"


def _write_log(tmp_path: Path, kind: str, n: int) -> Path:
    """A valid log of ``n`` rows (detector: n = 3, one slice, k_det = 1)."""
    if kind == "sg":
        save_event_log(sample_sg(X, Z, n, seed=1), tmp_path / "sg_000")
        return tmp_path / "sg_000.csv"
    if kind == "eprb":
        save_pair_log(sample_eprb(Z, X, n, seed=1), tmp_path / "eprb_000")
        return tmp_path / "eprb_000.csv"
    data = DetectorData(clicks=np.array([[2, 3, 0]]), n_repeats=5, k_det=1)
    save_detector_data(data, tmp_path / "det", seed=0)
    return tmp_path / "det.csv"


MALFORMED = {
    # id: (kind, csv text; the sidecar declares as many rows as it holds)
    "int8_wrap_257": ("sg", "index,outcome\n0,257\n"),
    "int8_wrap_minus_255": ("sg", "index,outcome\n0,1\n1,-255\n"),
    "zero_outcome": ("sg", "index,outcome\n0,0\n"),
    "index_not_arange": ("sg", "index,outcome\n7,1\n7,1\n7,1\n"),
    "non_integer_cell": ("sg", "index,outcome\n0,1.0\n"),
    "wrong_header": ("sg", "index,x\n0,1\n"),
    "ragged_row": ("eprb", "index,x,y\n0,1,-1\n1,1\n"),
    "extra_column": ("eprb", "index,x,y\n0,1,-1,1\n1,1,1,1\n"),
    "pair_outcome_2": ("eprb", "index,x,y\n0,1,2\n"),
    "detector_j_out_of_range": ("detector", "tau,j,count\n0,-2,2\n0,0,3\n0,-1,0\n"),
    "detector_duplicate_cell": ("detector", "tau,j,count\n0,-1,5\n0,0,0\n0,1,0\n0,-1,5\n"),
    "detector_missing_cell": ("detector", "tau,j,count\n0,-1,2\n0,0,3\n"),
    "detector_tau_out_of_range": ("detector", "tau,j,count\n3,-1,2\n0,0,3\n0,1,0\n"),
}
# Spellings np.loadtxt accepted and reinterpreted, in an sg and in an eprb log;
# the event-log reader takes only what the writer writes.
LOOSE_SPELLINGS = {
    "plus_sign": ("index,outcome\n0,+1\n", "index,x,y\n0,1,+1\n"),
    "space_before_cell": ("index,outcome\n0, 1\n", "index,x,y\n0, 1,-1\n"),
    "space_after_cell": ("index,outcome\n0,1 \n", "index,x,y\n0,1,-1 \n"),
    "tab_before_cell": ("index,outcome\n0,\t1\n", "index,x,y\n0,1,\t-1\n"),
    "index_leading_zero": ("index,outcome\n00,1\n", "index,x,y\n00,1,-1\n"),
    "blank_line_inside": ("index,outcome\n0,1\n\n1,-1\n", "index,x,y\n0,1,-1\n\n1,-1,1\n"),
    "blank_line_at_end": ("index,outcome\n0,1\n1,-1\n\n", "index,x,y\n0,1,-1\n1,-1,1\n\n"),
    "lone_cr_in_rows": ("index,outcome\n0,1\r1,-1\r", "index,x,y\n0,1,-1\r1,-1,1\r"),
    "lone_cr_line_endings": ("index,outcome\r0,1\r1,-1\r", "index,x,y\r0,1,-1\r1,-1,1\r"),
}
MALFORMED.update({f"{name}_{kind}": (kind, text) for name, texts in LOOSE_SPELLINGS.items()
                  for kind, text in zip(("sg", "eprb"), texts)})


# id: (kind, sidecar field, the value written in its place).  JSON booleans are not
# numbers, and each number must be finite as a float.
MALFORMED_SIDECARS = {
    "a_int_past_float_range": ("sg", "a", [10**400, 0, 0]),
    "a_booleans": ("sg", "a", [True, False, False]),
    "m_nan": ("sg", "m", [math.nan, 0.0, 1.0]),
    "n_boolean": ("sg", "n", True),
    "seed_boolean": ("sg", "seed", False),
    "theta_int_past_float_range": ("sg", "theta", -(10**400)),
    "theta_infinite": ("sg", "theta", math.inf),
    "a1_int_past_float_range": ("eprb", "a1", [0, 0, 10**400]),
    "a2_booleans": ("eprb", "a2", [False, True, False]),
    "a2_infinite": ("eprb", "a2", [1.0, -math.inf, 0.0]),
    "n_boolean_eprb": ("eprb", "n", True),
    "theta_boolean_eprb": ("eprb", "theta", True),
}


def _drop_sidecar_field(csv_path: Path, key: str) -> None:
    sidecar = csv_path.with_suffix(".json")
    meta = json.loads(sidecar.read_text())
    del meta[key]
    sidecar.write_text(json.dumps(meta))


def _sg_correlations(path: Path, power: int = 1) -> Path:
    """SG correlation table over a 12-point design; power 2 is not separable."""
    rows = ["ax,ay,az,mx,my,mz,mean_x"] + [
        f"{a.x!r},{a.y!r},{a.z!r},{m.x!r},{m.y!r},{m.z!r},{a.dot(m) ** power!r}"
        for a, m in separation.sg_design(UnitVector3(0.6, 0.0, 0.8), 12)
    ]
    path.write_text("\n".join(rows) + "\n")
    return path


class TestMalformedFiles:
    @pytest.mark.parametrize("kind,key", [("sg", "m"), ("eprb", "a2"), ("detector", "n_slices")])
    def test_sidecar_missing_field(self, tmp_path, kind, key):
        csv_path = _write_log(tmp_path, kind, 3)
        _drop_sidecar_field(csv_path, key)
        with pytest.raises(SchemaMismatch, match=key):
            load_events(csv_path)
        if kind == "sg":
            assert run_command(["sg", "fit", str(tmp_path)]) == 2
        elif kind == "eprb":
            assert run_command(["eprb", "test", str(tmp_path)]) == 2

    def test_header_not_utf8(self, tmp_path):
        csv_path = _write_log(tmp_path, "sg", 1)
        csv_path.write_bytes(b"index,outcome\xff\r\n0,1\r\n")
        with pytest.raises(SchemaMismatch, match="expected header"):
            load_events(csv_path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_SIDECARS))
    def test_sidecar_rejected(self, tmp_path, case):
        kind, key, value = MALFORMED_SIDECARS[case]
        csv_path = _write_log(tmp_path, kind, 3)
        sidecar = csv_path.with_suffix(".json")
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), key: value}))
        with pytest.raises(SchemaMismatch, match=f"\\['{key}'\\]"):
            load_events(csv_path)
        command = ["sg", "fit"] if kind == "sg" else ["eprb", "test"]
        assert run_command([*command, str(tmp_path)]) == 2

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_rejected(self, tmp_path, case):
        kind, text = MALFORMED[case]
        n = sum(1 for line in text.splitlines() if line.strip()) - 1  # rows np.loadtxt would read
        csv_path = _write_log(tmp_path, kind, n)
        csv_path.write_text(text)
        with pytest.raises((CorruptData, SchemaMismatch)):
            load_events(csv_path)
        if kind == "sg":
            assert run_command(["sg", "fit", str(tmp_path)]) == 2
        elif kind == "eprb":
            assert run_command(["eprb", "test", str(tmp_path)]) == 2
            assert run_command(["eprb", "test", str(csv_path), "--a1", "0,0,1",
                                "--a2", "1,0,0"]) == 2


def _same(loaded, original) -> bool:
    """Whether two loaded logs (dataclasses holding arrays) or manifests are equal."""
    if isinstance(original, dict):
        return loaded == original
    pairs = [(getattr(loaded, f.name), getattr(original, f.name))
             for f in dataclasses.fields(original)]
    return type(loaded) is type(original) and all(
        np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b for a, b in pairs)


def _schema_paths(doc: dict, kind: str) -> tuple[list[tuple], list[tuple]]:
    """The places a loader checks: keys it requires (droppable) and values it types."""
    keys = [(key,) for key in doc]
    if kind in ("sg", "eprb"):
        keys += [("conditions", key) for key in doc["conditions"]]
    values = keys + [(key, i) for key, value in doc.items() if isinstance(value, list)
                     for i in range(len(value))]
    if kind == "manifest":
        values += [("outputs", name) for name in doc["outputs"]]
    return keys, values


# A value of another JSON type put in a field's place: a boolean, an int past the float
# range, a float (NaN and infinities too), a string, a list, null.
RETYPED = st.one_of(st.sampled_from([True, False, 10**400, -(10**400), "1", [], [0.0] * 3, None]),
                    st.floats())
MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 2**16)),
    st.tuples(st.just("retype"), st.integers(0, 2**16), RETYPED),
    st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 2**16)),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from(["sg", "eprb", "detector", "manifest"]), MUTATIONS)
def test_mutated_sidecar_or_manifest_loads_equal_or_raises(tmp_path_factory, kind, mutation):
    """A dropped or retyped field loads as before or is rejected.  So do flipped or
    truncated bytes that still parse to the original document; bytes that parse to
    another valid one (a flipped digit of ``seed``, say) may load as what it declares."""
    tmp = tmp_path_factory.mktemp("sidecar")
    csv_path = _write_log(tmp, "sg" if kind == "manifest" else kind, 3)
    if kind == "manifest":
        write_manifest(tmp, "sg run", {"n": 3, "seed": 1}, [csv_path, csv_path.with_suffix(".json")])
        path, load = tmp / "manifest.json", lambda: _read_manifest(tmp)
    else:
        path, load = csv_path.with_suffix(".json"), lambda: load_events(csv_path)
    original, data = load(), path.read_bytes()
    doc = json.loads(data)
    op, where, *value = mutation
    if op in ("drop", "retype"):
        keys, values = _schema_paths(doc, kind)
        *parents, last = (keys if op == "drop" else values)[where % len(keys if op == "drop" else values)]
        target = doc
        for step in parents:
            target = target[step]
        if op == "drop":
            del target[last]
        else:
            assume(type(value[0]) is not type(target[last]))
            target[last] = value[0]
        path.write_text(json.dumps(doc))
    elif op == "flip":
        at = where % len(data)
        path.write_bytes(data[:at] + bytes([data[at] ^ value[0]]) + data[at + 1:])
    else:
        path.write_bytes(data[:where % len(data)])
    try:
        loaded = load()
    except (SchemaMismatch, CorruptData):
        return
    try:
        unchanged = op in ("drop", "retype") or json.loads(path.read_bytes()) == doc
    except ValueError:
        unchanged = False
    assert not unchanged or _same(loaded, original)


def _log_columns(kind: str, n: int, seed: int, p_minus: float) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [np.where(rng.random(n) < p_minus, -1, 1).astype(np.int8)
            for _ in range(1 if kind == "sg" else 2)]


def _save_log(tmp_path: Path, kind: str, n: int, seed: int = 1) -> Path:
    """A valid log of ``n`` >= 0 random events, saved as ``sg_000`` or ``eprb_000``."""
    columns = _log_columns(kind, n, seed, 0.5)
    if kind == "sg":
        save_event_log(EventLog(*columns, a=X, m_direction=Z, seed=seed), tmp_path / "sg_000")
    else:
        save_pair_log(PairEventLog(*columns, a1=Z, a2=X, seed=seed), tmp_path / "eprb_000")
    return tmp_path / f"{kind}_000.csv"


def _percent_d_log(kind: str, columns: list[np.ndarray]) -> bytes:
    """An event log as the %d writer wrote it before the byte-level codec."""
    header = ("index", "outcome") if kind == "sg" else ("index", "x", "y")
    n = len(columns[0])
    row = ",".join(["%d"] * len(header)) + "\r\n"
    cells = tuple(np.column_stack([np.arange(n), *columns]).ravel().tolist())
    return (",".join(header) + "\r\n" + (row * n) % cells).encode()


def _grammar_cells(data: bytes, kind: str) -> list[tuple[int, ...]] | None:
    r"""The cells the documented event-log grammar reads from ``data``, or None.

    Rows "i,±1[,±1]" for i = 0..n-1 follow the header; every line ends in
    "\r\n" or "\n", except that the last one may end in nothing.
    """
    header = b"index,outcome" if kind == "sg" else b"index,x,y"
    lines = data.split(b"\n")
    ended = lines[-1] == b""
    if ended:
        lines.pop()
    lines = [line.removesuffix(b"\r") if ended or i < len(lines) - 1 else line
             for i, line in enumerate(lines)]
    if not lines or lines[0] != header:
        return None
    pattern = rb"(0|[1-9][0-9]*)" + rb",(-?1)" * header.count(b",")
    cells = []
    for i, line in enumerate(lines[1:]):
        match = re.fullmatch(pattern, line)
        if match is None or int(match.group(1)) != i:
            return None
        cells.append(tuple(int(cell) for cell in match.groups()[1:]))
    return cells


# n across the edges of the index widths, 1 to 6 digits, and of the writer's chunks of
# _ROWS rows (the first chunk of 4-digit indices ends before 1000 + _ROWS).
WIDTH_EDGES = [0, 1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 9999, 10000, 10001,
               99999, 100000, 100001, 120000, _ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS + 1,
               1000 + _ROWS, 1001 + _ROWS]
KINDS = st.sampled_from(["sg", "eprb"])


class TestEventLogCodec:
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(KINDS, st.one_of(st.sampled_from(WIDTH_EDGES), st.integers(0, 120_000)),
           st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.5, 1.0]))
    def test_same_bytes_as_percent_d_and_round_trip(self, tmp_path_factory, kind, n, seed,
                                                    p_minus):
        path = tmp_path_factory.mktemp("codec") / "log.csv"
        columns = _log_columns(kind, n, seed, p_minus)
        _write_table(path, kind, columns)
        assert path.read_bytes() == _percent_d_log(kind, columns)
        cells = _read_table(path, kind)
        assert cells.dtype == np.int8 and cells.shape == (n, len(columns))
        assert all(np.array_equal(cells[:, j], col) for j, col in enumerate(columns))

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(KINDS, st.integers(0, 25), st.integers(0, 2**32 - 1),
           st.sampled_from(["flip", "insert", "delete"]), st.integers(0, 2**20),
           st.one_of(st.sampled_from(b"0123456789,-+\r\n \t"), st.integers(0, 255)))
    def test_one_byte_mutation_reads_as_the_grammar_says_or_raises(
        self, tmp_path_factory, kind, n, seed, op, where, byte
    ):
        csv_path = _save_log(tmp_path_factory.mktemp("mutation"), kind, n, seed)
        data = csv_path.read_bytes()
        at = where % (len(data) + (op == "insert"))
        tail = data[at:] if op == "insert" else data[at + 1:]
        csv_path.write_bytes(data[:at] + (b"" if op == "delete" else bytes([byte])) + tail)
        expected = _grammar_cells(csv_path.read_bytes(), kind)
        try:
            log = load_events(csv_path)
        except (SchemaMismatch, CorruptData):
            assert expected is None or len(expected) != n
            return
        assert expected is not None
        got = log.outcomes[:, None] if kind == "sg" else np.column_stack([log.xs, log.ys])
        assert got.tolist() == [list(row) for row in expected]

    @pytest.mark.parametrize("first", [10**8 - 2, 10**12 - 2, 10**16 - 2])
    @pytest.mark.parametrize("k", [1, 2])
    def test_rows_past_eight_digits(self, first, k):
        # Indices of 9 to 17 digits take two and three words; no log reaches them.
        columns = [np.array([1, -1, 1, 1, -1], np.int8)[::1 - 2 * j] for j in range(k)]
        rows = (b"%d" % (first + i) + b"".join(b",%d" % col[i] for col in columns) + b"\r\n"
                for i in range(5))
        assert b"".join(_log_rows(first, columns)) == b"".join(rows)
        assert b"".join(_log_rows(first, [np.ones(5, np.int8)])) == b"".join(
            b"%d,1\r\n" % i for i in range(first, first + 5))

    def test_writer_memory_does_not_grow_with_n(self, tmp_path):
        columns = _log_columns("eprb", 300_000, 5, 0.5)
        tracemalloc.start()
        try:
            _write_table(tmp_path / "eprb.csv", "eprb", columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20  # the whole-file writer peaked at 8.5 MiB

    @pytest.mark.parametrize("kind", ["sg", "eprb"])
    @pytest.mark.parametrize("n", [0, 1, 25])
    @pytest.mark.parametrize("ending", ["crlf", "lf", "mixed", "crlf_unended", "lf_unended"])
    def test_line_endings_load_equal(self, tmp_path, kind, n, ending):
        csv_path = _save_log(tmp_path, kind, n)
        written = load_events(csv_path)
        lines = csv_path.read_bytes().split(b"\r\n")[:-1]
        eols = {"crlf": (b"\r\n",), "lf": (b"\n",), "mixed": (b"\n", b"\r\n")}[
            ending.removesuffix("_unended")]
        data = b"".join(line + eols[i % len(eols)] for i, line in enumerate(lines))
        csv_path.write_bytes(data.removesuffix(b"\n").removesuffix(b"\r")
                             if ending.endswith("unended") else data)
        loaded = load_events(csv_path)
        for field in ("outcomes",) if kind == "sg" else ("xs", "ys"):
            assert np.array_equal(getattr(loaded, field), getattr(written, field))
        assert _grammar_cells(csv_path.read_bytes(), kind) is not None


def _percent_g_table(kind: str, cells: np.ndarray) -> bytes:
    """The float table as Python's "%.17g" prints it, cell by cell (the oracle)."""
    header = {"snapshot": "x,re_psi,im_psi,P,S",
              "eprb_report": "theta,xy_mean,x_mean,y_mean,stderr_xy,n"}[kind]
    row = ",".join(["%.17g"] * cells.shape[1]) + "\r\n"
    return (header + "\r\n" + (row * len(cells)) % tuple(cells.ravel().tolist())).encode()


def _float_cases() -> np.ndarray:
    """Cells where "%.17g" is hardest to match: specials, range edges, ties, powers of ten."""
    powers = np.array([float(f"1e{k}") for k in range(-300, 300)])
    edges = np.array([0.0, 5e-324, 2.2250738585072014e-308, 1e-280, 1e280, 1e-5, 1e-4, 1e16,
                      1e17, 0.5, 2.5, 99999999999999999.0, 9999999999999998.0])
    nan_payloads = (np.uint64(0x7FF0000000000001) + np.arange(0, 2**51, 2**45, dtype=np.uint64))
    cells = np.concatenate([
        powers, edges, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        np.nextafter(edges, 0), np.nextafter(edges, np.inf), [np.inf, np.nan, 1.7976931348623157e308],
        np.arange(-5000, 5000) / 1024, nan_payloads.view(np.float64),
    ])
    return np.concatenate([cells, -cells])


class TestFloatTable:
    @pytest.mark.parametrize("kind, width", [("snapshot", 5), ("eprb_report", 6)])
    def test_same_bytes_as_percent_g_on_hard_cells(self, tmp_path, kind, width):
        cells = _float_cases()
        cells = np.concatenate([cells, np.ones(-cells.size % width)]).reshape(-1, width)
        _write_table(tmp_path / "t.csv", kind, list(cells.T))
        assert (tmp_path / "t.csv").read_bytes() == _percent_g_table(kind, cells)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=40), st.integers(0, 2**32 - 1),
           st.integers(0, 3000))
    def test_same_bytes_as_percent_g_on_any_bit_pattern(self, tmp_path_factory, bits, seed, n):
        random = np.random.default_rng(seed).integers(0, 2**64, n, dtype=np.uint64)
        cells = np.concatenate([np.array(bits, np.uint64), random]).view(np.float64)
        cells = np.concatenate([cells, np.zeros(-cells.size % 5)]).reshape(-1, 5)
        path = tmp_path_factory.mktemp("float") / "snap.csv"
        _write_table(path, "snapshot", list(cells.T))
        assert path.read_bytes() == _percent_g_table("snapshot", cells)


def _read_operator(path: Path) -> np.ndarray:
    """The matrix a ``rho.json`` holds, as ``[re, im]`` pairs row by row."""
    data = json.loads(path.read_text())
    assert data["schema_version"] == 1
    matrix = np.array([[complex(re, im) for re, im in row] for row in data["entries"]])
    assert matrix.shape == (data["dim"], data["dim"])
    return matrix


class TestOperatorPersistence:
    def test_round_trip(self, tmp_path):
        rho, _, _ = separation.build_eprb_operators(Z, X)
        save_operator(rho, tmp_path / "rho.json")
        assert np.max(np.abs(_read_operator(tmp_path / "rho.json") - rho.matrix)) == 0.0


class TestManifest:
    def test_write_and_verify(self, tmp_path):
        target = tmp_path / "data.csv"
        target.write_text("index,outcome\n0,1\n")
        write_manifest(tmp_path, "sg run", {"n": 1}, [target])
        assert verify_manifest(tmp_path) == []

    def test_tamper_detected(self, tmp_path):
        target = tmp_path / "data.csv"
        target.write_text("index,outcome\n0,1\n")
        write_manifest(tmp_path, "sg run", {"n": 1}, [target])
        target.write_text("index,outcome\n0,-1\n")
        problems = verify_manifest(tmp_path)
        assert problems and "mismatch" in problems[0]

    def test_missing_key_rejected(self, tmp_path):
        write_manifest(tmp_path, "sg run", {"n": 1}, [])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        del manifest["outputs"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaMismatch, match="outputs"):
            verify_manifest(tmp_path)

    @pytest.mark.parametrize("key, value", [
        ("outputs", ["data.csv"]),
        ("outputs", {"data.csv": 7}),
        ("config", [1]),
        ("command", 3),
        ("created_utc", None),
    ])
    def test_wrong_type_rejected(self, tmp_path, key, value):
        write_manifest(tmp_path, "sg run", {"n": 1}, [])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest[key] = value
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaMismatch, match=f"wrong type for \\['{key}'\\]"):
            verify_manifest(tmp_path)


def _run_python(args: list[str]) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports li_qt from this source tree."""
    env = {"PYTHONPATH": str(Path(li_qt.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


class TestCli:
    def test_sg_run_expectation(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_command(
            ["sg", "run", "--theta", "1.0472", "--n", "1000", "--seed", "7",
             "--out", str(out)]
        )
        assert code == 0
        log = load_events(out / "sg_000")
        e_hat = float(np.mean(log.outcomes))
        stderr = math.sqrt((1 - e_hat**2) / 1000)
        assert abs(e_hat - 0.5) < 5 * stderr

    def test_unknown_flag_exits_2_without_files(self, tmp_path, capsys):
        out = tmp_path / "nothing"
        with pytest.raises(SystemExit) as exc_info:
            run_command(["sg", "run", "--bogus", "1", "--out", str(out)])
        assert exc_info.value.code == 2
        assert not out.exists()

    def test_config_file_applied(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 500, "seed": 3}))
        out = tmp_path / "run"
        code = run_command(
            ["--config", str(cfg), "sg", "run", "--theta", "0.5", "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n"] == 500
        assert manifest["config"]["seed"] == 3

    def test_config_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_knob": 1}))
        assert run_command(["--config", str(cfg), "sg", "run"]) == 2

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LI_QT_SEED", "99")
        out = tmp_path / "run"
        assert run_command(["sg", "run", "--theta", "0.3", "--n", "100",
                            "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 99

    def test_sg_run_deterministic_bytes(self, tmp_path):
        args = ["sg", "run", "--theta-grid", "0:3.141592653589793:4", "--n", "2000",
                "--seed", "11"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_command(args + ["--out", str(out_a)]) == 0
        assert run_command(args + ["--out", str(out_b)]) == 0
        for name in ("sg_000.csv", "sg_001.csv", "sg_002.csv", "sg_003.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_sg_fit_pipeline(self, tmp_path):
        out = tmp_path / "run"
        assert run_command(
            ["sg", "run", "--theta-grid", "0:3.141592653589793:16", "--n", "20000",
             "--seed", "5", "--out", str(out)]
        ) == 0
        assert run_command(["sg", "fit", str(out)]) == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["k_winding"] == 1 and fit["phi"] == 0.0

    def test_eprb_pipeline_and_test(self, tmp_path):
        out = tmp_path / "pairs"
        assert run_command(
            ["eprb", "run", "--theta-grid", "0.2:2.9:5", "--n", "20000",
             "--seed", "9", "--out", str(out)]
        ) == 0
        assert run_command(["eprb", "report", str(out),
                            "--out", str(out / "report.csv")]) == 0
        assert run_command(["eprb", "test", str(out)]) == 0

    def test_eprb_external_csv(self, tmp_path):
        log = sample_eprb(Z, X, 5000, seed=2)
        path = tmp_path / "ext.csv"
        lines = ["index,x,y"] + [
            f"{i},{x},{y}" for i, (x, y) in enumerate(zip(log.xs, log.ys))
        ]
        path.write_text("\n".join(lines) + "\n")
        code = run_command(
            ["eprb", "test", str(path), "--a1", "0,0,1", "--a2", "1,0,0"]
        )
        assert code == 0

    def test_eprb_compliance_failure_exit_3(self, tmp_path):
        # Data generated at theta = 0 tested against orthogonal settings.
        log = sample_eprb(Z, Z, 5000, seed=2)
        path = tmp_path / "ext.csv"
        lines = ["index,x,y"] + [
            f"{i},{x},{y}" for i, (x, y) in enumerate(zip(log.xs, log.ys))
        ]
        path.write_text("\n".join(lines) + "\n")
        code = run_command(
            ["eprb", "test", str(path), "--a1", "0,0,1", "--a2", "1,0,0"]
        )
        assert code == 3

    def test_eprb_marginal_failure_line_reads_fail(self, tmp_path, capsys):
        # <xy> = 0 passes the singlet test at orthogonal settings; x = +1 always
        # fails the marginal test, so the line verdict must read FAIL.
        path = tmp_path / "ext.csv"
        path.write_text("index,x,y\n" + "".join(
            f"{i},1,{1 if i % 2 else -1}\n" for i in range(1000)
        ))
        code = run_command(["eprb", "test", str(path), "--a1", "0,0,1", "--a2", "1,0,0"])
        line = capsys.readouterr().out.strip()
        assert code == 3
        assert "singlet_sigma=0.000" in line and line.endswith("FAIL")

    def test_python_dash_m_runs_cli(self, tmp_path):
        for module in ("li_qt", "li_qt.io_cli"):
            proc = _run_python(["-m", module, "report", str(tmp_path)])
            assert proc.returncode == 2, module
            assert "no manifest.json" in proc.stderr

    def test_startup_loads_no_scipy(self):
        # Every command pays for what a fresh ``li-qt`` process imports.  The
        # CN stepper binds LAPACK from numpy's own OpenBLAS, and SciPy's
        # wrappers load only inside a step where numpy lacks it.
        proc = _run_python(["-c", "import sys, li_qt.io_cli as cli; cli.build_parser(); "
                                  "print(*sorted(m for m in sys.modules if m.startswith('scipy')))"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    def test_separate_sg_cli(self, tmp_path):
        path = _sg_correlations(tmp_path / "corr.csv")
        out = tmp_path / "sep"
        assert run_command(
            ["separate", "sg", "--input", str(path), "--out", str(out)]
        ) == 0
        result = json.loads((out / "separation.json").read_text())
        assert result["m_est"] == pytest.approx([0.6, 0.0, 0.8], abs=1e-10)

    def test_separate_sg_nonseparable_exit_3(self, tmp_path):
        path = _sg_correlations(tmp_path / "corr.csv", power=2)
        code = run_command(["separate", "sg", "--input", str(path),
                            "--out", str(tmp_path / "sep")])
        assert code == 3

    def test_separate_eprb_cli(self, tmp_path):
        design = separation.eprb_design(16)
        rows = ["a1x,a1y,a1z,a2x,a2y,a2z,mean_x,mean_y,mean_xy"]
        for a1, a2 in design:
            rows.append(
                f"{a1.x!r},{a1.y!r},{a1.z!r},{a2.x!r},{a2.y!r},{a2.z!r},"
                f"0.0,0.0,{-a1.dot(a2)!r}"
            )
        path = tmp_path / "corr.csv"
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "sep"
        assert run_command(
            ["separate", "eprb", "--input", str(path), "--out", str(out)]
        ) == 0
        expected = separation.build_eprb_operators(Z, X)[0].matrix
        assert np.max(np.abs(_read_operator(out / "rho.json") - expected)) < 1e-10

    def test_evolve_deterministic_and_verify(self, tmp_path):
        args = ["evolve", "--potential", "harmonic", "--grid", "10,256,0.005,40",
                "--stride", "20"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_command(args + ["--out", str(out_a)]) == 0
        assert run_command(args + ["--out", str(out_b)]) == 0
        for name in ("snap_000000.csv", "snap_000001.csv", "snap_000002.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert run_command(["report", str(out_a), "--verify"]) == 0
        (out_a / "snap_000001.csv").write_text("x,re_psi,im_psi,P,S\n")
        assert run_command(["report", str(out_a), "--verify"]) == 3

    def test_evolve_reports_drift_over_all_steps(self, tmp_path, capsys):
        # 10 steps at the default stride of 100 store only t = 0.
        assert run_command(["evolve", "--grid", "10,64,0.001,10", "--out", str(tmp_path)]) == 0
        summary = capsys.readouterr().out
        grid = SpatialGrid(L=10.0, n_x=64, dt=0.001, n_t=10)
        every = evolve_tdse(gaussian_packet(grid), PhysicalParams(), grid, store_every=1)
        drifts = np.abs(every.norms - every.norms[0])
        assert summary.startswith("stored 1 snapshots; ")
        assert f"final norm drift {drifts[-1]:.2e}; max norm drift {drifts.max():.2e};" in summary
        assert summary.rstrip().endswith(f"; max wall mass {every.max_edge_mass:.2e}")

    def test_check_fisher(self, capsys):
        # Recorded when the normal CDF came from scipy.stats.norm.cdf.
        assert run_command(["check", "fisher"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "continuum Fisher of a unit Gaussian: 1.000000 (expect 1.0, off by 1.60e-07)",
            "discrete Fisher fine bins: 0.999867; jointly shifted: 0.999867",
        ]

    def test_evolve_overflowing_cn_matrix_exit_3(self, tmp_path):
        proc = _run_python(["-m", "li_qt", "evolve", "--grid", "10,64,1e308,3",
                            "--out", str(tmp_path)])
        assert proc.returncode == 3
        assert proc.stderr == "contract failure: UnstableStep: Crank-Nicolson matrix is non-finite\n"

    def test_check_fq_small(self):
        assert run_command(["check", "fq", "--trials", "5"]) == 0

    @pytest.mark.parametrize("seed", [1469, 1870, 4452, 5087, 7020])
    def test_check_fq_nearly_cancelling_functional(self, seed, capsys):
        # F nearly cancels at these seeds, so |F| + |Q| was too small a scale.
        assert run_command(["check", "fq", "--trials", "1", "--seed", str(seed)]) == 0
        assert capsys.readouterr().out.startswith("max relative |F - Q| over 1 trials: ")

    def test_check_fq_fails_on_a_wrong_q(self, monkeypatch, capsys):
        exact_q = wave_dynamics.functional_Q
        monkeypatch.setattr(wave_dynamics, "functional_Q",
                            lambda *args, **kwargs: (1 + 1e-6) * exact_q(*args, **kwargs))
        assert run_command(["check", "fq", "--trials", "1", "--seed", "90000"]) == 3
        assert capsys.readouterr().out == "max relative |F - Q| over 1 trials: 5.000e-07\n"

    def test_check_fq_fails_on_a_nan_q(self, monkeypatch, capsys):
        exact_q = wave_dynamics.functional_Q
        monkeypatch.setattr(wave_dynamics, "functional_Q",
                            lambda *args, **kwargs: exact_q(*args, **kwargs) * np.nan)
        assert run_command(["check", "fq", "--trials", "3"]) == 3
        assert capsys.readouterr().out == "max relative |F - Q| over 3 trials: nan\n"

    def test_check_fq_seed_past_int64(self, capsys):
        assert run_command(["check", "fq", "--trials", "2", "--seed", str(2**64)]) == 0
        assert capsys.readouterr().out == "max relative |F - Q| over 2 trials: 1.738e-11\n"

    def test_manifest_config_records_every_flag(self, tmp_path):
        assert run_command(["evolve", "--grid", "10,64,0.001,10", "--stride", "5",
                            "--allow-boundary", "--out", str(tmp_path / "ev")]) == 0
        assert run_command(["separate", "sg", "--input", str(_sg_correlations(tmp_path / "c.csv")),
                            "--noise-floor", "0.01", "--out", str(tmp_path / "sep")]) == 0
        evolve = json.loads((tmp_path / "ev" / "manifest.json").read_text())["config"]
        separate = json.loads((tmp_path / "sep" / "manifest.json").read_text())["config"]
        assert evolve["allow_boundary"] is True and evolve["stride"] == 5
        assert separate["noise_floor"] == 0.01


def _words(entry) -> list[str]:
    """The argv words that invoke a ``_COMMANDS`` entry: ``["evolve"]``, ``["sg", "run"]``."""
    return [word for word in entry[:2] if word is not None]


# One argv per ``_COMMANDS`` entry, run from a directory that holds cfg.json.
COMMAND_ARGVS = (
    ["sg", "run", "--theta", "0.5", "--n", "7", "--sign", "-1", "--out", "o"],
    ["sg", "fit", "logs", "--k-max", "3"],
    ["eprb", "run", "--theta-grid", "0:1:3", "--correlation-sign", "+", "--seed", "2"],
    ["eprb", "report", "p.csv", "--a1", "0,0,1", "--a2", "1,0,0", "--out", "r.csv"],
    ["eprb", "test", "logs"],
    ["separate", "sg", "--input", "c.csv", "--noise-floor", "0.01"],
    ["separate", "eprb", "--input", "c.csv"],
    ["--config", "cfg.json", "evolve", "--p0", "1", "--grid", "10,64,0.001,10"],
    ["check", "fq", "--trials", "3", "--seed", "4"],
    ["check", "fisher"],
    ["check", "madelung"],
    ["report", "run", "--verify"],
)
CONFIG = {"stride": 5, "allow_boundary": True, "sigma0": 0.5, "n": 9}

# Argvs that print help or fail to parse: each level's -h, bad values, unknown
# flags, a missing subcommand or argument, and unknown commands.
PARSE_PROBES = (
    ["-h"], [], ["bogus"], ["--n", "3", "sg", "run"],
    ["sg"], ["sg", "-h"], ["sg", "bogus"], ["check"], ["check", "-h"],
    ["sg", "run", "--n", "x"], ["sg", "run", "--sign", "2"], ["evolve", "--stride", "1.5"],
    ["eprb", "run", "--correlation-sign", "0"], ["check", "fq", "--trials"], ["sg", "fit"],
    ["separate", "sg"],
    ["report", "d", "--bogus", "x"], ["check", "fisher", "extra"], ["sg", "run", "--", "x"],
    *([*_words(entry), flag] for entry in io_cli._COMMANDS for flag in ("-h", "--bogus")),
)


def _handlers(parser: argparse.ArgumentParser) -> list:
    """The handler of every command that ``parser`` can dispatch to."""
    found = [parser.get_default("func")] if parser.get_default("func") else []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action._name_parser_map.values():
                found += _handlers(child)
    return found


def _exit_of(parse, argv, capsys) -> tuple:
    with pytest.raises(SystemExit) as exit_info:
        parse(argv)
    return (exit_info.value.code, *capsys.readouterr())


class TestParserBranch:
    """``run_command`` builds the invoked command's parser alone, to the same effect."""

    @pytest.fixture
    def in_config_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(CONFIG))

    def test_one_argv_per_command(self):
        assert len(COMMAND_ARGVS) == len(io_cli._COMMANDS)
        for entry, argv in zip(io_cli._COMMANDS, COMMAND_ARGVS):
            words = _words(entry)
            assert words in (argv[:len(words)], argv[2:2 + len(words)])  # after --config FILE

    @pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=" ".join)
    def test_same_namespace_as_the_full_parser(self, in_config_dir, argv):
        argv = io_cli._expand_config(argv)
        branch = io_cli.build_parser(argv)
        assert len(_handlers(branch)) == 1
        assert branch.parse_args(argv) == io_cli.build_parser().parse_args(argv)

    @pytest.mark.parametrize("entry, argv", [
        pytest.param(entry, argv, id=" ".join(argv))
        for entry, argv in zip(io_cli._COMMANDS, COMMAND_ARGVS)
    ])
    def test_run_command_builds_one_command(self, in_config_dir, monkeypatch, entry, argv):
        class Built(ValueError):
            pass

        built, build = [], io_cli.build_parser

        def record(*args):
            built.append(_handlers(build(*args)))
            raise Built

        monkeypatch.setattr(io_cli, "build_parser", record)
        assert run_command(argv) == 2
        assert built == [[entry[2]]]

    @pytest.mark.parametrize("argv", PARSE_PROBES, ids=lambda argv: " ".join(argv) or "-")
    def test_help_and_errors_match_the_full_parser(self, monkeypatch, capsys, argv):
        for columns in ("80", "40"):  # argparse wraps usage lines to the width
            monkeypatch.setenv("COLUMNS", columns)
            full = _exit_of(lambda argv: io_cli.build_parser().parse_args(argv), argv, capsys)
            assert _exit_of(run_command, argv, capsys) == full
            assert full[0] in (0, 2) and full[1 if full[0] == 0 else 2]


def _potential_file(text: str):
    def make_argv(tmp: Path) -> list[str]:
        (tmp / "v.json").write_text(text)
        return ["evolve", "--potential", f"file:{tmp / 'v.json'}", "--grid", "10,64,0.001,10"]

    return make_argv


def _sg_log_without_m(tmp: Path) -> list[str]:
    assert run_command(["sg", "run", "--theta", "0.5", "--n", "100", "--seed", "1",
                        "--out", str(tmp)]) == 0
    _drop_sidecar_field(tmp / "sg_000.csv", "m")
    return ["sg", "fit", str(tmp)]


def _sg_log_with(key: str, value):
    def make_argv(tmp: Path) -> list[str]:
        assert run_command(["sg", "run", "--theta", "0.5", "--n", "100", "--seed", "1",
                            "--out", str(tmp)]) == 0
        sidecar = tmp / "sg_000.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), key: value}))
        return ["sg", "fit", str(tmp)]

    return make_argv


def _fresh_out(*argv: str):
    """``argv`` with an ``--out`` that does not exist yet."""
    return lambda tmp: [*argv, "--out", str(tmp / "out")]


def _evolve_with(flag: str, value: str):
    return _fresh_out("evolve", "--grid", "10,64,0.001,10", flag, value)


def _manifest_without_outputs(tmp: Path) -> list[str]:
    assert run_command(["sg", "run", "--theta", "0.5", "--n", "100", "--seed", "1",
                        "--out", str(tmp)]) == 0
    manifest = json.loads((tmp / "manifest.json").read_text())
    del manifest["outputs"]
    (tmp / "manifest.json").write_text(json.dumps(manifest))
    return ["report", str(tmp), "--verify"]


def _manifest_outputs_as_list(tmp: Path) -> list[str]:
    assert run_command(["sg", "run", "--theta", "0.5", "--n", "100", "--seed", "1",
                        "--out", str(tmp)]) == 0
    manifest = json.loads((tmp / "manifest.json").read_text())
    manifest["outputs"] = list(manifest["outputs"])
    (tmp / "manifest.json").write_text(json.dumps(manifest))
    return ["report", str(tmp), "--verify"]


def _run_with_theta_grid(command: str, spec: str):
    return lambda tmp: [command, "run", f"--theta-grid={spec}", "--out", str(tmp / "out")]


def _unknown_config_key(tmp: Path) -> list[str]:
    (tmp / "cfg.json").write_text('{"bogus_knob": 1}')
    return ["--config", str(tmp / "cfg.json"), "sg", "run", "--out", str(tmp)]


EXIT_CASES = {
    # id: (argv from a scratch directory, exit code, text stderr must hold)
    "boundary_contact": (lambda tmp: ["evolve", "--grid", "10,512,0.001,1000", "--p0", "20"],
                         3, "BoundaryContact"),
    "nan_file_potential": (_potential_file('{"x": [-10, 10], "v": [NaN, NaN]}'), 3, "UnstableStep"),
    "potential_not_object": (_potential_file("[[-10, 0], [10, 0]]"), 2, "ConfigError"),
    "potential_missing_v": (_potential_file('{"x": [-10, 10]}'), 2, "ConfigError"),
    "potential_length_mismatch": (_potential_file('{"x": [-10, 0, 10], "v": [0, 1]}'),
                                  2, "ConfigError"),
    "potential_one_point": (_potential_file('{"x": [0], "v": [1]}'), 2, "ConfigError"),
    "potential_x_not_increasing": (_potential_file('{"x": [-10, 5, 0, 10], "v": [1, 0, 0, 1]}'),
                                   2, "ConfigError"),
    "manifest_missing_outputs": (_manifest_without_outputs, 2, "lacks ['outputs']"),
    "manifest_outputs_not_object": (_manifest_outputs_as_list, 2, "wrong type for ['outputs']"),
    "stride_zero": (lambda tmp: ["evolve", "--grid", "10,64,0.001,10", "--stride", "0"],
                    2, "stride"),
    "sidecar_missing_field": (_sg_log_without_m, 2, "lacks ['m']"),
    "unknown_config_key": (_unknown_config_key, 2, "bogus_knob"),
    "trials_zero": (lambda tmp: ["check", "fq", "--trials", "0"], 2, "--trials"),
    "trials_negative": (lambda tmp: ["check", "fq", "--trials", "-2"], 2, "--trials"),
    "fq_seed_negative": (lambda tmp: ["check", "fq", "--trials", "2", "--seed", "-1"],
                         2, "--seed must be a non-negative integer, got -1"),
    **{f"{cmd}_{name}": (_fresh_out(cmd, "run", "--theta", "0.5", flag, value), 2, message)
       for cmd in ("sg", "eprb")
       for name, flag, value, message in (
           ("n_zero", "--n", "0", "--n must be at least 1, got 0"),
           ("seed_negative", "--seed", "-1", "--seed must be a non-negative integer, got -1"),
       )},
    "grid_dx_square_underflows": (_evolve_with("--grid", "1e-300,64,0.001,5"), 2,
                                  "--grid '1e-300,64,0.001,5' gives dx = 3.1746e-302"),
    "grid_dx_square_overflows": (_evolve_with("--grid", "1e300,64,0.001,5"), 2,
                                 "whose square is inf"),
    "sigma0_square_overflows": (_evolve_with("--sigma0", "1e300"), 2,
                                "--sigma0 1e+300 has a square out of range"),
    "sigma0_square_underflows": (_evolve_with("--sigma0", "1e-300"), 2,
                                 "--sigma0 1e-300 has a square out of range"),
    "sigma0_packet_between_points": (_evolve_with("--sigma0", "1e-150"), 2,
                                     "has no norm on the grid"),
    "x0_square_overflows": (_evolve_with("--x0", "1e300"), 2, "has no norm on the grid"),
    "x0_far_from_grid": (_evolve_with("--x0", "1e100"), 2, "has no norm on the grid"),
    "lambda_energy_overflows": (_evolve_with("--lambda", "1e-320"), 2,
                                "--lambda 9.99989e-321 overflow 2 / (mass lambda dx**2)"),
    "mass_energy_overflows": (_evolve_with("--mass", "1e-320"), 2,
                              "--mass 9.99989e-321 and --lambda 4"),
    "sigma0_zero": (_evolve_with("--sigma0", "0"), 2, "sigma0"),
    "sigma0_negative": (_evolve_with("--sigma0", "-1"), 2, "sigma0"),
    "x0_inf": (_evolve_with("--x0", "inf"), 2, "x0"),
    "p0_nan": (_evolve_with("--p0", "nan"), 2, "p0"),
    "p0_past_nyquist": (_evolve_with("--p0", "1e300"), 2, "p0 = 1e+300 aliases on the grid"),
    "p0_at_nyquist": (_evolve_with("--p0", "-10"), 2,
                      "p0 = -10.0 aliases on the grid: |p0| / hbar = 10 is not below pi / dx"),
    "sidecar_conditions_unknown_key": (_sg_log_with("conditions", {"bogus": 1}), 2,
                                       "lacks ['label', 'parameters']"),
    "sidecar_conditions_list": (_sg_log_with("conditions", [1]), 2,
                                "wrong type for ['conditions']"),
    "sidecar_seed_list": (_sg_log_with("seed", [1]), 2, "wrong type for ['seed']"),
    "grid_dt_nan": (lambda tmp: ["evolve", "--grid", "10,64,nan,5", "--out", str(tmp)],
                    2, "time step dt must be finite and positive, got nan"),
    "grid_L_inf": (lambda tmp: ["evolve", "--grid", "inf,64,0.001,5", "--out", str(tmp)],
                   2, "half-extent L must be finite and positive, got inf"),
    "grid_extent_overflows": (_fresh_out("evolve", "--grid", "1e308,16,0.001,5"), 2,
                              "half-extent L = 1e+308 overflows the extent 2 * L"),
    "mass_inf": (_evolve_with("--mass", "inf"), 2, "mass must be finite and positive, got inf"),
    "lambda_nan": (_evolve_with("--lambda", "nan"), 2, "lam must be finite and positive, got nan"),
    "sg_theta_grid_empty": (_run_with_theta_grid("sg", "0:1:0"), 2,
                            "--theta-grid needs at least one angle"),
    "eprb_theta_grid_empty": (_run_with_theta_grid("eprb", "0:1:0"), 2,
                              "--theta-grid needs at least one angle"),
    **{f"{cmd}_theta_grid_{name}": (_run_with_theta_grid(cmd, spec), 2,
                                     f"ConfigError: --theta-grid {message}, got {spec!r}")
       for cmd in ("sg", "eprb")
       for name, spec, message in (
           ("stop_inf", "0:inf:2", "angles must be finite"),
           ("start_nan", "nan:1:2", "angles must be finite"),
           ("angle_inf", "inf", "angles must be finite"),
           ("span_overflows", "-1e308:1e308:3", "angles must be finite"),
           ("four_fields", "0:1:2:3", "must be one angle or start:stop:count"),
           ("two_fields", "0:1", "must be one angle or start:stop:count"),
           ("count_not_int", "0:1:2.5", "must be one angle or start:stop:count"),
       )},
    "sg_m_direction_two_fields": (
        lambda tmp: ["sg", "run", "--m-direction", "1,0", "--out", str(tmp / "out")],
        2, "expected three comma-separated components"),
    "non_separable": (lambda tmp: ["separate", "sg", "--input",
                                   str(_sg_correlations(tmp / "corr.csv", power=2))],
                      3, "NonSeparable"),
}


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_exit_codes(tmp_path, monkeypatch, capsys, case):
    make_argv, expected, named = EXIT_CASES[case]
    monkeypatch.chdir(tmp_path)
    argv = make_argv(tmp_path)
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    fresh_out = out is not None and not out.exists()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_command(argv)
    stderr = capsys.readouterr().err
    assert code in (0, 2, 3) and code == expected
    assert named in stderr and "Traceback" not in stderr
    assert [str(w.message) for w in caught] == []
    if fresh_out:  # a failed command leaves no output directory behind
        assert not out.exists()
