"""Persistence, run manifests, and the ``li-qt`` command line.

Event logs are CSV files with a JSON sidecar of the same stem.  ``run_command``
builds each run directory beside ``--out`` with a ``manifest.json`` (resolved
configuration and seeds, library version, RNG algorithm, timestamp, every output's
sha256), then renames it to ``--out``, replacing an earlier run but nothing else.
Re-running with the same configuration and seeds reproduces the CSVs byte for byte.

Exit codes: 0 success, 2 usage or validation error (any ``ValueError``,
``OSError`` or ``MemoryError``), 3 numerical-contract failure (any
``RuntimeError``: boundary contact, unstable step, no signal, non-separable
data; also a failed compliance test or digest mismatch).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
import warnings
from collections.abc import Iterator
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, eprb_experiment, separation, sg_experiment, wave_dynamics
from .errors import CorruptData, SchemaMismatch
from .inference_core import ExperimentConditions
from .sg_experiment import EventLog, UnitVector3
from .eprb_experiment import PairEventLog
from .wave_dynamics import (
    PhysicalParams,
    SpatialGrid,
    gaussian_packet,
    harmonic_potential,
)

SCHEMA_VERSION = 1
RNG_ALGORITHM = "PCG64"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONTRACT = 3
_FQ_STACK = 5  # check fq trials evaluated as one stack (160 KB a complex array)


# -- json / csv persistence ------------------------------------------------------

def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _read_json(path: Path) -> dict:
    """A JSON object that declares the current ``schema_version``."""
    try:
        data = json.loads(Path(path).read_bytes().decode())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise CorruptData(f"{path}: not a JSON document: {exc}") from exc
    version = data.get("schema_version") if isinstance(data, dict) else None
    if type(version) is not int or version != SCHEMA_VERSION:  # true and 1.0 are not 1
        raise SchemaMismatch(f"{path}: unsupported schema version")
    return data


def _is(value, kind) -> bool:
    """Whether ``value`` has the JSON type ``kind``: a boolean is no number, a number is finite
    as a float (int and float compare exactly, so an int past the float range is not)."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and (kind is not _NUMBER or abs(value) <= sys.float_info.max))


def _require(data: dict, fields: dict, path: Path) -> dict:
    """``data``, once it holds every key of ``fields`` with a value of that key's type."""
    missing = [key for key in fields if key not in data]
    if missing:
        raise SchemaMismatch(f"{path}: lacks {missing}")
    wrong = [key for key, kind in fields.items() if not _is(data[key], kind)]
    if wrong:
        raise SchemaMismatch(f"{path}: wrong type for {wrong}")
    return data


# kind -> header.  Event logs (the kinds of ``_SIDECAR_FIELDS``) are byte-coded rows
# "i,±1[,±1]", i = 0..n-1, read back as int8 cells without the index; the reader compares
# the 8-byte words before each row's first comma with "%08d" of i's digits 8 at a time.
# Float cells are written as "%.17g" prints them (``_float_table``; NaN is "nan"), read with
# ``np.loadtxt``.  Rows end in "\r\n"; on read "\n" also does, and the last may not.
_SCHEMAS = {
    "sg": ("index", "outcome"),
    "eprb": ("index", "x", "y"),
    "sg_correlations": ("ax", "ay", "az", "mx", "my", "mz", "mean_x"),
    "eprb_correlations": ("a1x", "a1y", "a1z", "a2x", "a2y", "a2z", "mean_x", "mean_y", "mean_xy"),
    "snapshot": ("x", "re_psi", "im_psi", "P", "S"),
    "eprb_report": ("theta", "xy_mean", "x_mean", "y_mean", "stderr_xy", "n"),
}
# log kind -> sidecar field its loader reads -> the JSON type it must hold.
_NUMBER = (int, float)
_VECTOR = list  # of 3 numbers
_LOG_FIELDS = {"n": int, "seed": int, "theta": _NUMBER, "conditions": dict}
_SIDECAR_FIELDS = {
    "sg": {**_LOG_FIELDS, "a": _VECTOR, "m": _VECTOR},
    "eprb": {**_LOG_FIELDS, "a1": _VECTOR, "a2": _VECTOR},
}
_CONDITIONS_FIELDS = {"label": str, "parameters": dict}
# manifest field -> the JSON type it must hold; ``outputs`` maps names to digest strings.
_MANIFEST_FIELDS = {
    "command": str, "config": dict, "library_version": str, "rng_algorithm": str,
    "created_utc": str, "outputs": dict,
}


# -- "%.17g" for a whole float table ----------------------------------------------------
# For 1e-280 < |x| < 1e280 the digits are N = round(|x| 10**(16 - E)), 10**16 <= N < 10**17,
# 10**(16 - E) a double-double, its product split exactly (T. J. Dekker, Numer. Math. 18, 224
# (1971)).  With an error below 1e-14, N is the correctly rounded value "%" prints (D. M. Gay,
# AT&T NA Manuscript 90-10 (1990)) unless its fraction lies within 1e-9 of a half: such
# ties, and the cells outside that range but NaN and zero, go through "%".

def _split(a):
    """Veltkamp's split a = hi + lo into halves of 26 bits, whose products are exact."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _powers_of_ten() -> np.ndarray:
    """Rows hi, hi's halves and lo, with hi + lo = 10**k within 1e-31, for k = -264..297."""
    def pair(num: int, den: int) -> tuple[float, float]:  # hi correctly rounded, lo the rest
        n, d = (num / den).as_integer_ratio()
        return n / d, (num * d - n * den) / (den * d)

    big = np.array([pair(10 ** max(q, 0), 10 ** max(-q, 0)) for q in range(-288, 289, 32)])
    small, k = np.array([pair(10**r, 1) for r in range(32)]), np.arange(-264, 298)
    (bh, bl), (sh, sl) = big[k // 32 + 9].T, small[k % 32].T
    (bhh, bhl), (shh, shl), hi = _split(bh), _split(sh), bh * sh
    lo = ((bhh * shh - hi) + bhh * shl + bhl * shh) + bhl * shl + (bh * sl + bl * sh)
    return np.array([hi, *_split(hi), lo])


# A cell is a record of four int64 words whose NUL bytes are deleted at the end: sign,
# "0.000" lead, first digit, "."; digits 2-17 (trailing zeros NUL); the digit a "." among
# them pushes out, "e±XX[X]", "," or "\r\n".  Tables by exponent E take E + 300.
_POW10 = _powers_of_ten()
_D, _Z = np.arange(10), np.arange(10) == 0  # digits; for 0..9999, "dddd" and trailing zeros:
_ASCII4 = (_D + 48 << 24 | _D[:, None] + 48 << 16 | _D[:, None, None] + 48 << 8
           | _D[:, None, None, None] + 48).ravel()
_ZEROS4 = (_Z * (1 + _Z[:, None] * (1 + _Z[:, None, None] * (1 + _Z[:, None, None, None])))).ravel()
_FIRST = np.array([(1 << 8 * m) - 1 for m in range(8)] + [-1])  # the first m bytes
_E = np.arange(-300, 301)
_FIXED = (-4 <= _E) & (_E <= 16)  # "%g" without exponent: integer digits keep their zeros
_KEPT = np.where(_FIXED, np.maximum(_E, 0), 0)  # digits after the first kept in any case
_DOT = np.where(_FIXED & ((_E < 0) | (_E == 16)), 17, _KEPT)  # a "." after this many
_LEAD = np.zeros(601, np.int64)  # "0.", "0.0", ... for E = -1 .. -4
_LEAD[296:300] = np.frombuffer(b"".join(b"\0" + b"0.000"[:1 - e].ljust(7, b"\0")
                                        for e in range(-4, 0)), np.int64)
_DOT0 = np.where(_DOT == 0, 46 << 56, 0)
_MAG = abs(_E)
_EXP = np.where(_FIXED, 0, 101 | (43 + 2 * (_E < 0)) << 8 | (_MAG >= 100) * (48 + _MAG // 100) << 16
                | (48 + _MAG // 10 % 10) << 24 | (48 + _MAG % 10) << 32) << 8  # "e±XX[X]"


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s + t = a 10**(16 - e) within 1e-14, with s = fl(s + t)."""
    hi, hi_1, hi_2, lo = (np.take(row, 280 - e) for row in _POW10)
    p, (a_1, a_2) = hi * a, _split(a)
    t = ((a_1 * hi_1 - p) + a_1 * hi_2 + a_2 * hi_1) + a_2 * hi_2 + lo * a
    s = p + t
    return s, t - (s - p)


def _float_records(x: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Fill the records of the cells ``x``; return the cells that need "%"."""
    a = abs(x)
    fast = (1e-280 < a) & (a < 1e280)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    s, t = _scaled(a, e)
    low, high = (s < 1e16) | (s == 1e16) & (t < 0), (s > 1e17) | (s == 1e17) & (t >= 0)
    redo = np.flatnonzero(low | high)  # log10 was one off
    e[redo] += high[redo] * 2 - 1
    s[redo], t[redo] = _scaled(a[redo], e[redo])
    t -= (whole := np.floor(t))  # the fraction
    digits = s.astype(np.int64) + whole.astype(np.int64) + (t > 0.5)
    odd = ~fast | (abs(t - 0.5) < 1e-9)
    del a, s, t, whole  # lowers the peak memory of the steps below
    top = digits == 10**17
    digits[top], e[top] = 10**16, e[top] + 1
    first = (nine := digits // 10**8) // 10**8
    g = np.empty((4, x.size), np.int64)  # 4-digit groups: digits 6-9, 2-5, 14-17, 10-13
    g[0], g[2] = nine - first * 10**8, digits - nine * 10**8
    g[1::2] = g[::2] // 10**4
    g[::2] -= g[1::2] * 10**4
    z = np.take(_ZEROS4, g)  # trailing zeros of each group; then the digits kept after the first
    last = 16 - (z[2] + (z[2] == 4) * (z[3] + (z[3] == 4) * (z[0] + (z[0] == 4) * z[1])))
    e += 300
    keep, dot = np.maximum(last, np.take(_KEPT, e)), np.take(_DOT, e)
    words[:, 0] = (np.signbit(x) * 45 | np.take(_LEAD, e) | np.take(_DOT0, e) * (last > dot)
                   | (first + 48) << 48)
    for w, (hi, lo, mask) in enumerate(((1, 0, keep), (3, 2, keep - 8)), 1):  # clipped to 0..8
        words[:, w] = (np.take(_ASCII4, g[hi]) | np.take(_ASCII4, g[lo]) << 32) & np.take(
            _FIRST, mask, mode="clip")
    words[:, 3] = np.take(_EXP, e)
    moved = np.flatnonzero((last > dot) & (dot > 0))  # a "." at byte ``at`` moves the rest
    at, j, b = 8 + dot[moved, None], np.arange(8, 25), words.view(np.uint8)
    b[moved, 8:25] = np.where(j == at, 46, np.where(j > at, b[moved, 7:24], b[moved, 8:25]))
    return np.flatnonzero(odd)


def _float_table(head: bytes, x: np.ndarray, n_cols: int) -> bytes:
    """``head``, then rows of ``n_cols`` cells of ``x`` as "%.17g" prints them."""
    off = len(head) + -len(head) % 8  # records start 8-aligned, after NULs
    buf = bytearray(off + 32 * x.size)
    buf[:len(head)] = head
    words = np.frombuffer(buf, np.int64, offset=off).reshape(-1, 4)
    odd = _float_records(x, words)
    words[odd] = 0
    words[odd, 0] = np.where(np.isnan(x[odd]), int.from_bytes(b"nan", "little"),
                             np.where(x[odd] == 0, np.signbit(x[odd]) * 45 | 48 << 8, 0))
    words[:, 3].reshape(-1, n_cols)[...] |= np.array([44 << 48] * (n_cols - 1) + [0x0A0D << 48])
    for i in odd[~np.isnan(x[odd]) & (x[odd] != 0)].tolist():  # at most 24 bytes
        buf[off + 32 * i:off + 32 * i + 24] = (b"%.17g" % x[i]).ljust(24, b"\0")
    return buf.translate(None, b"\0")


def _write_table(path: Path, kind: str, columns: list[np.ndarray]) -> None:
    """Write ``columns`` (an event log's index excluded) as the CSV table ``kind``."""
    header = _SCHEMAS[kind]
    head = ",".join(header) + "\r\n"
    if kind not in _SIDECAR_FIELDS:
        path.write_bytes(_float_table(head.encode(), np.column_stack(columns).ravel(), len(header)))
        return
    with path.open("wb") as fh:
        fh.write(head.encode())
        fh.writelines(_log_rows(0, columns))


# An event-log row is a record of int64 words whose NUL bytes are deleted at the end: the
# index's digits 8 at a time, its first word shifted past the leading zeros, then the tail
# ",±1" per cell and "\r\n", looked up by the cells' sign bits.  Rows are built _ROWS at a
# time, within a run of indices of one width, so the writer holds a chunk, not the file.
_ROWS = 8192


def _log_rows(first: int, columns: list[np.ndarray]) -> Iterator[bytes]:
    r"""Rows "i,±1[,±1]\r\n" of the cells ``columns``, i = first, first + 1, ..., in chunks."""
    k, n, start = len(columns), len(columns[0]), 0
    tails = np.frombuffer(b"".join(
        (b"".join(b",-1" if bits >> j & 1 else b",1" for j in range(k)) + b"\r\n").ljust(8, b"\0")
        for bits in range(2**k)), np.int64)
    while start < n:
        width = len(str(first + start))
        stop = min(n, start + _ROWS, 10**width - first)
        groups = -(-width // 8)
        buf = bytearray(8 * (groups + 1) * (stop - start))
        words = np.frombuffer(buf, np.int64).reshape(-1, groups + 1)
        i = np.arange(first + start, first + stop)
        for w in range(groups):  # 8 digits a word, "0"-padded
            part = i // 10 ** (8 * (groups - 1 - w)) % 10**8 if groups > 1 else i
            high = part // 10**4
            words[:, w] = np.take(_ASCII4, high) | np.take(_ASCII4, part - high * 10**4) << 32
        words[:, 0] >>= 8 * (8 * groups - width)
        signs = sum((col[start:stop] < 0).view(np.uint8) << j for j, col in enumerate(columns))
        words[:, groups] = np.take(tails, signs)
        yield buf.translate(None, b"\0")
        start = stop


# An event log is read in slabs of whole rows cut at about _SLAB bytes, so that a read holds
# the file and its cells, and per slab a byte mask and the slab's row offsets.
_SLAB = 1 << 17


def _read_table(path: Path, kind: str, first: int = 0) -> np.ndarray:
    """The data columns of the CSV table ``kind`` at ``path``, validated in bulk; an event
    log's indices count from ``first``, as ``_log_rows`` writes them."""
    header = _SCHEMAS[kind]
    raw = Path(path).read_bytes()
    if not raw.endswith(b"\n"):
        raw += b"\r\n"  # the missing last line ending; a lone "\r" before it stays wrong
    head = raw.index(b"\n")
    found = raw[:head].removesuffix(b"\r").decode(errors="replace").split(",")
    if found != list(header):
        raise SchemaMismatch(f"{path}: expected header {list(header)}, got {found}")
    if kind not in _SIDECAR_FIELDS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            try:
                rows = np.loadtxt(io.BytesIO(raw), delimiter=",", ndmin=2, comments=None,
                                  skiprows=1)
            except ValueError as exc:
                raise CorruptData(f"{path}: {exc}") from exc
        if rows.size == 0:
            rows = rows.reshape(0, len(header))
        if rows.shape[1] != len(header):
            raise CorruptData(f"{path}: rows have {rows.shape[1]} columns, header {len(header)}")
        return rows
    buf = np.frombuffer(raw, np.uint8)
    words = np.ndarray((len(raw) - 7,), "<i8", raw, 0, (1,))  # the 8 bytes from each byte on
    slabs, row, start = [np.empty((len(header) - 1, 0), np.int8)], 0, head + 1
    while start < len(raw):  # whole rows from ``start``: about _SLAB bytes, at least one row
        stop = raw.rfind(b"\n", start, start + _SLAB) + 1 or raw.index(b"\n", start) + 1
        newlines = np.flatnonzero(buf[start - 1:stop] == ord("\n"))
        newlines += start - 1  # offsets in the file, intp: numpy would copy another index
        slabs.append(_slab_cells(path, buf, words, newlines, len(header) - 1, first, row))
        row += len(newlines) - 1
        start = stop
    return np.concatenate(slabs, axis=1).T


def _slab_cells(path: Path, buf: np.ndarray, words: np.ndarray, newlines: np.ndarray, k: int,
                first: int, row: int) -> np.ndarray:
    """The ``k`` cell columns, as rows, of the log rows that end at ``newlines[1:]``, validated:
    data rows ``row + 1``, ... of the file, whose indices count from ``first + row``."""
    ends = newlines[1:] - (buf[newlines[1:] - 1] == ord("\r"))  # newlines[1:] - 1 >= head
    n = len(ends)
    ok = ends - newlines[:-1] > 2 * k + 1
    if not ok.all():  # checked before any gather that such a row could wrap around
        raise CorruptData(f"{path}: data row {row + np.argmin(ok) + 1} is blank or too short")
    cells = np.empty((k, n), np.int8)
    for j in reversed(range(k)):  # step back over ",1" or ",-1" to the cell's comma
        ends -= 2  # the "-" or "," before the cell's "1"
        ok &= buf[1:][ends] == ord("1")
        neg = (buf[ends] == ord("-")).view(np.int8)
        cells[j] = 1 - 2 * neg
        ends -= neg
        ok &= buf[ends] == ord(",")
    first += row
    start = 0
    while start < n:  # a run of indices of one width within a block of 10**4
        i = first + start
        width, block = len(str(i)), i // 10**4
        stop = min(n, (block + 1) * 10**4 - first, 10**width - first)
        rows = slice(start, stop)
        ok[rows] &= ends[rows] - newlines[rows] == width + 1  # ``width`` bytes before the comma
        for g in range(-(-width // 8)):  # the index's digits 8 at a time, from the last
            # The word that ends 8 g bytes before the comma, less these digits "0"-padded, is
            # 0 in its top bytes.  A short row failed above.
            x = ends[rows] - np.intp(8 * g + 8)
            x = words[np.maximum(x, 0, out=x)]
            part = i // 10 ** (8 * g) % 10**8
            x ^= (_ASCII4[part % 10**4:][:stop - start] if g == 0 else _ASCII4[part % 10**4]) << 32
            x ^= _ASCII4[part // 10**4]
            x >>= 8 * max(8 * g + 8 - width, 0)
            ok[rows] &= x == 0
        start = stop
    if not ok.all():
        raise CorruptData(f"{path}: data row {row + np.argmin(ok) + 1} is not 'index,±1' cells")
    return cells


def _save(base: Path, kind: str, columns: list[np.ndarray], **meta) -> list[Path]:
    sidecar_path, csv_path = _log_files(base)
    _write_table(csv_path, kind, columns)
    sidecar = _write_json(sidecar_path, {"schema_version": SCHEMA_VERSION, "kind": kind, **meta})
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


def _log_files(base: Path) -> tuple[Path, Path]:
    """The sidecar and the CSV of the log at ``base``: either file or their common stem.

    Only a final ".csv" or ".json" is stripped: the stem "eprb_0.5" keeps its ".5".
    """
    base = Path(base)
    name = base.stem if base.suffix in (".csv", ".json") else base.name
    return base.with_name(name + ".json"), base.with_name(name + ".csv")


def load_events(base: Path) -> EventLog | PairEventLog:
    """Load whatever log the sidecar at ``base`` describes.

    ``base`` may point at the CSV, the JSON, or the common stem.
    """
    sidecar_path, csv_path = paths = _log_files(base)
    for path in paths:
        if not path.exists():
            raise SchemaMismatch(f"missing file {path}")
    meta = _read_json(sidecar_path)
    kind = meta.get("kind")
    if not isinstance(kind, str) or kind not in _SIDECAR_FIELDS:  # a list is unhashable
        raise SchemaMismatch(f"{sidecar_path}: unknown log kind {kind!r}")
    _require(meta, _SIDECAR_FIELDS[kind], sidecar_path)
    vectors = [key for key, type_ in _SIDECAR_FIELDS[kind].items() if type_ is _VECTOR]
    wrong = [key for key in vectors
             if len(meta[key]) != 3 or not all(_is(c, _NUMBER) for c in meta[key])]
    if wrong:
        raise SchemaMismatch(f"{sidecar_path}: {wrong} must each hold 3 finite numbers")
    rows = _read_table(csv_path, kind)
    if rows.shape[0] != meta["n"]:
        raise CorruptData(f"{csv_path}: {rows.shape[0]} rows but sidecar declares n={meta['n']}")
    cond = _require(meta["conditions"], _CONDITIONS_FIELDS, sidecar_path)
    conditions = ExperimentConditions(label=cond["label"], parameters=cond["parameters"])
    # The data columns, the two orientations, the seed and the conditions, in field order.
    log = (EventLog if kind == "sg" else PairEventLog)(
        *rows.T, *(UnitVector3(*meta[key]) for key in vectors), meta["seed"], conditions
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
    return PairEventLog(*_read_table(path, "eprb").T, a1=a1, a2=a2, seed=-1)


def save_operator(op: separation.HermitianOperator, path: Path) -> Path:
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in op.matrix]
    return _write_json(path, {"schema_version": SCHEMA_VERSION, "dim": op.dim, "entries": entries})


# -- manifests --------------------------------------------------------------------

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: Path, args: argparse.Namespace, outputs: list[Path]) -> Path:
    """Record ``args``' command, every parsed flag as resolved, and ``outputs``' digests."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "subcommand", "func")}
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": " ".join(filter(None, (args.command, getattr(args, "subcommand", None)))),
        "config": config,
        "library_version": __version__,
        "rng_algorithm": RNG_ALGORITHM,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": {p.name: _sha256(p) for p in sorted(outputs)},
    }
    return _write_json(out_dir / "manifest.json", manifest)


def _read_manifest(out_dir: Path) -> dict:
    path = Path(out_dir) / "manifest.json"
    if not path.exists():
        raise FileNotFoundError(f"no manifest.json under {out_dir}")
    manifest = _require(_read_json(path), _MANIFEST_FIELDS, path)
    if not all(isinstance(v, str) for v in manifest["outputs"].values()):
        raise SchemaMismatch(f"{path}: wrong type for ['outputs']")
    outside = [name for name in manifest["outputs"]
               if name in ("", "..") or Path(name).name != name]  # a path, not a file name
    if outside:
        raise SchemaMismatch(f"{path}: outputs {outside} are not file names in {out_dir}")
    return manifest


def verify_manifest(out_dir: Path) -> list[str]:
    """Recompute output digests; return a list of mismatch descriptions."""
    manifest = _read_manifest(out_dir)
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


def _fallback_seed(value: int | None) -> int:
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
    """Either a single angle or start:stop:count; every angle must be finite."""
    parts = text.split(":")
    try:
        start, stop, count = ((float(parts[0]), float(parts[1]), int(parts[2]))
                              if len(parts) == 3 else (float(text), None, 1))
    except ValueError:
        raise ConfigError(
            f"--theta-grid must be one angle or start:stop:count, got {text!r}") from None
    if count < 1:
        raise ConfigError(f"--theta-grid needs at least one angle, got count {count}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite grid is rejected below
        thetas = np.array([start]) if stop is None else np.linspace(start, stop, count)
    if not np.all(np.isfinite(thetas)):
        raise ConfigError(f"--theta-grid angles must be finite, got {text!r}")
    return thetas


# -- subcommand implementations --------------------------------------------------------

def _check_seed(seed: int, n: int = 1) -> int:
    if n < 1:
        raise ConfigError(f"--n must be at least 1, got {n}")
    if seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {seed}")
    return seed


def _cmd_sg_run(args, out: Path) -> list[Path]:
    args.seed = _check_seed(_fallback_seed(args.seed), args.n)
    thetas = _parse_theta_grid(args.theta_grid)
    m = _parse_vector(args.m_direction)
    seeds = sg_experiment.derive_seeds(args.seed, len(thetas))
    outputs = []
    for i, (theta, child_seed) in enumerate(zip(thetas, seeds)):
        a = UnitVector3.from_polar(float(theta))
        log = sg_experiment.sample_sg(a, m, args.n, child_seed, sign=args.sign)
        outputs += save_event_log(log, out / f"sg_{i:03d}")
        e_hat, stderr = sg_experiment.estimate_expectation(log)
        print(f"theta={theta:.6f} n={args.n} e_hat={e_hat:+.6f} stderr={stderr:.2e}")
    return outputs


def _log_sidecars(logdir: Path, kind: str) -> list[Path]:
    """The ``{kind}_*.json`` log sidecars under ``logdir`` in name order; none is an error."""
    sidecars = sorted(logdir.glob(f"{kind}_*.json"))
    if not sidecars:
        raise FileNotFoundError(f"no {kind}_*.json logs under {logdir}")
    return sidecars


def _cmd_sg_fit(args) -> int:
    logdir = Path(args.logdir)
    thetas, e_hats, stderrs = [], [], []
    for sidecar in _log_sidecars(logdir, "sg"):
        log = load_events(sidecar)
        e_hat, stderr = sg_experiment.estimate_expectation(log)
        thetas.append(log.theta)
        e_hats.append(e_hat)
        stderrs.append(stderr)
    fit = sg_experiment.fit_robust_solution(thetas, e_hats, k_max=args.k_max, stderrs=stderrs)
    _write_json(logdir / "fit.json", {
        "k_winding": fit.k_winding,
        "phi": fit.phi,
        "residual": fit.residual,
        "fisher": fit.fisher,
        "thetas": thetas,
        "e_hats": e_hats,
        "stderrs": stderrs,
    })
    print(
        f"K={fit.k_winding} phi={fit.phi:.6f} residual={fit.residual:.3e} "
        f"fisher={fit.fisher:.1f}"
    )
    return EXIT_OK


def _cmd_eprb_run(args, out: Path) -> list[Path]:
    args.seed = _check_seed(_fallback_seed(args.seed), args.n)
    thetas = _parse_theta_grid(args.theta_grid)
    seeds = sg_experiment.derive_seeds(args.seed, len(thetas))
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
    return outputs


def _iter_pair_logs(args) -> list[PairEventLog]:
    source = Path(args.source)
    if source.is_dir():
        return [load_events(p) for p in _log_sidecars(source, "eprb")]
    if args.a1 is None or args.a2 is None:
        raise ConfigError("external CSV input needs --a1 and --a2")
    return [load_external_pair_csv(source, _parse_vector(args.a1), _parse_vector(args.a2))]


def _cmd_eprb_report(args) -> int:
    source, out = Path(args.source), None if args.out is None else Path(args.out)
    if out is not None:  # refused if it is a file the report reads or its run directory lists
        reads = {source} if not source.is_dir() else {
            path for sidecar in source.glob("eprb_*.json") for path in _log_files(sidecar)}
        if (source / "manifest.json").exists():
            reads |= {source / n for n in ("manifest.json", *_read_manifest(source)["outputs"])}
        if any(p.samefile(out) if p.exists() else os.path.realpath(p) == os.path.realpath(out)
               for p in reads if p.exists() == out.exists()):  # a missing out is a missing input
            raise ConfigError(f"--out {args.out} is an input of the report; left as it is")
    rows = []
    for log in _iter_pair_logs(args):
        rep = eprb_experiment.correlation_report(log)
        rows.append((log.theta, rep.xy_mean, rep.x_mean, rep.y_mean, rep.stderr_xy, rep.n))
        print(
            f"theta={log.theta:.6f} xy_mean={rep.xy_mean:+.6f} "
            f"x_mean={rep.x_mean:+.6f} y_mean={rep.y_mean:+.6f} "
            f"stderr_xy={rep.stderr_xy:.2e} n={rep.n}"
        )
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_table(out, "eprb_report", np.array(rows, dtype=float).T)
    return EXIT_OK


def _cmd_eprb_test(args) -> int:
    logs = _iter_pair_logs(args)
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


def _cmd_separate_sg(args, out: Path) -> list[Path]:
    rows = _read_table(args.input, "sg_correlations")
    result = separation.separate_sg(rows[:, 6], _design(rows), noise_floor=args.noise_floor)
    rho = separation.HermitianOperator(
        (separation.IDENTITY_2 + separation.pauli_vector(result.m_est)) / 2
    )
    print(
        f"m_est=({result.m_est[0]:+.6f}, {result.m_est[1]:+.6f}, {result.m_est[2]:+.6f}) "
        f"u0={result.u0:+.2e} residual={result.residual:.2e}"
        + (" [trivial signal]" if result.trivial_signal else "")
    )
    return [save_operator(rho, out / "rho.json"), _write_json(out / "separation.json", {
        "m_est": [float(v) for v in result.m_est],
        "u0": result.u0,
        "residual": result.residual,
        "trivial_signal": result.trivial_signal,
    })]


def _cmd_separate_eprb(args, out: Path) -> list[Path]:
    rows = _read_table(args.input, "eprb_correlations")
    result = separation.separate_eprb(_design(rows), *rows[:, 6:9].T, noise_floor=args.noise_floor)
    print(f"rho0={result.coeffs.rho0:.6f} residual={result.residual:.2e}")
    return [save_operator(result.rho(), out / "rho.json"), _write_json(out / "separation.json", {
        "rho0": result.coeffs.rho0,
        "rho1": [float(v) for v in result.coeffs.rho1],
        "rho2": [float(v) for v in result.coeffs.rho2],
        "rho12": [[float(v) for v in row] for row in result.coeffs.rho12],
        "residual": result.residual,
        "block_residuals": result.block_residuals,
    })]


def _build_potential(kind: str, mass: float):
    if kind == "free":
        return None
    if kind == "harmonic":
        return harmonic_potential(omega=1.0, mass=mass)
    if kind.startswith("file:"):
        table = json.loads(Path(kind[5:]).read_text())
        columns = [table.get(key) if isinstance(table, dict) else None for key in ("x", "v")]
        if not all(isinstance(c, list) and all(isinstance(e, float) or _is(e, _NUMBER) for e in c)
                   for c in columns):  # a float may be NaN; an int must fit a float
            raise ConfigError(f"{kind}: expected a JSON object with lists x and v of numbers")
        xs, vs = (np.array(c, dtype=float) for c in columns)
        if xs.shape != vs.shape or xs.size < 2 or not np.all(np.diff(xs) > 0) or np.isinf(xs).any():
            raise ConfigError(f"{kind}: x and v need equal lengths >= 2, x finite and strictly "
                              "increasing")
        return lambda x: np.interp(x, xs, vs)  # NaN values reach the evolver's operator check
    raise ConfigError(f"unknown potential {kind!r}")


def _cmd_evolve(args, out: Path) -> list[Path]:
    parts = args.grid.split(",")
    if len(parts) != 4:
        raise ConfigError(f"--grid expects L,n_x,dt,n_t, got {args.grid!r}")
    grid = SpatialGrid(
        L=float(parts[0]), n_x=int(parts[1]), dt=float(parts[2]), n_t=int(parts[3])
    )
    potential = _build_potential(args.potential, args.mass)
    params = PhysicalParams(mass=args.mass, lam=getattr(args, "lambda"), potential=potential)
    # Derived quantities the evolver squares or divides by must stay normal floats.
    huge, dx2 = sys.float_info.max, grid.dx * grid.dx
    if not 1 / huge < dx2 < huge:
        raise ConfigError(f"--grid {args.grid!r} gives dx = {grid.dx:g}, whose square is {dx2:g}")
    if not 1 / huge < args.sigma0 * args.sigma0 < huge:
        raise ConfigError(f"--sigma0 {args.sigma0:g} has a square out of range")
    if not params.mass * params.lam * dx2 > 2 / huge:
        raise ConfigError(f"--mass {params.mass:g} and --lambda {params.lam:g} overflow 2 / "
                          "(mass lambda dx**2)")
    psi0 = gaussian_packet(grid, x0=args.x0, sigma0=args.sigma0, p0=args.p0, lam=params.lam)
    traj = wave_dynamics.evolve_tdse(
        psi0, params, grid, store_every=args.stride, check_boundary=not args.allow_boundary
    )
    x = grid.x
    outputs = [out / f"snap_{k:06d}.csv" for k in range(len(traj.psi))]
    for k, (path, psi) in enumerate(zip(outputs, traj.psi)):
        polar = traj.polar(k)  # one slice at a time: the history's (P, S) is never held
        _write_table(path, "snapshot", [x, psi.real, psi.imag, polar.P[0], polar.S[0]])
    print(
        f"stored {traj.psi.shape[0]} snapshots; final norm drift {traj.norm_drift:.2e}; "
        f"max norm drift {traj.max_norm_drift:.2e}; energy drift "
        f"{abs(traj.energies[-1] - traj.energies[0]):.2e}; "
        f"max wall mass {traj.max_edge_mass:.2e}"
    )
    return outputs


def _cmd_check_fq(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {args.trials}")
    _check_seed(args.seed)
    grid = SpatialGrid(L=8.0, n_x=256, dt=1e-4, n_t=8)
    params = PhysicalParams(potential=lambda x: 0.3 * np.cos(np.pi * x / 8))
    worst = 0.0
    for start in range(0, args.trials, _FQ_STACK):
        seeds = [args.seed + t for t in range(start, min(start + _FQ_STACK, args.trials))]
        fields = wave_dynamics.random_polar_fields(grid, n_slices=8, seed=seeds)
        F = wave_dynamics.functional_F(fields, params, grid)
        Q = wave_dynamics.functional_Q(
            wave_dynamics.polar_to_wave(fields, params.lam), params, grid)
        # With F's Fisher term I_F, the scale 2 I_F + |F - I_F| + |Q - I_F| is
        # |F| + |Q| unless a dynamic part is negative, and never cancels.
        fisher = wave_dynamics.fisher_continuum(fields, grid)
        ratios = abs(F - Q) / (2 * fisher + abs(F - fisher) + abs(Q - fisher))
        worst = np.max(ratios, initial=worst)  # a NaN ratio propagates
    print(f"max relative |F - Q| over {args.trials} trials: {worst:.3e}")
    return EXIT_OK if worst < 1e-8 else EXIT_CONTRACT  # a NaN fails too


_erfc = np.frompyfunc(math.erfc, 1, 1)  # elementwise; the normal CDF is erfc(-z/sqrt 2)/2


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
            cdf = 0.5 * _erfc(-(edges - x0) / (sigma * math.sqrt(2))).astype(float)
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
    print(
        f"refinement ratios: continuity x{ratio_c:.2f}, quantum HJ x{ratio_q:.2f} "
        "(2nd order: both in (2.5, 8))"
    )
    ok = 2.5 < ratio_c < 8.0 and 2.5 < ratio_q < 8.0
    return EXIT_OK if ok else EXIT_CONTRACT


def _cmd_report(args) -> int:
    manifest = _read_manifest(args.rundir)
    print(f"command:  {manifest['command']}")
    print(f"version:  {manifest['library_version']} (rng {manifest['rng_algorithm']})")
    print(f"created:  {manifest['created_utc']}")
    print(f"config:   {json.dumps(manifest['config'], sort_keys=True)}")
    print(f"outputs:  {len(manifest['outputs'])} files")
    for name, digest in sorted(manifest["outputs"].items()):
        print(f"  {name}  sha256:{digest[:16]}...")
    if args.verify:
        problems = verify_manifest(args.rundir)
        if problems:
            for problem in problems:
                print(f"VERIFY FAIL {problem}", file=sys.stderr)
            return EXIT_CONTRACT
        print("verify: all digests match")
    return EXIT_OK


# -- parser ---------------------------------------------------------------------------

_GROUPS = {
    "sg": "Stern-Gerlach experiment",
    "eprb": "EPRB pair experiment",
    "separate": "operator separation",
    "check": "numerical property checks",
}
_PAIR_SOURCE = (
    ("source", {"help": "log directory or external index,x,y CSV"}),
    ("--a1", {"help": "needed for external CSV"}),
    ("--a2", {"help": "needed for external CSV"}),
)
_SEPARATE = (
    ("--input", {"required": True}),
    ("--noise-floor", {"type": float}),
    ("--out", {"default": "separate_out"}),
)

# (group, subcommand or None for a top-level command, handler, help, arguments);
# each argument is (name or flag, ``add_argument`` keywords).
_COMMANDS = (
    ("sg", "run", _cmd_sg_run, "simulate event logs over a theta grid", (
        ("--theta-grid", {"default": "0:3.141592653589793:16",
                          "help": "single angle or start:stop:count (radians)"}),
        ("--theta", {"dest": "theta_grid", "help": "alias for a single angle"}),
        ("--n", {"type": int, "default": 10000}),
        ("--seed", {"type": int}),
        ("--m-direction", {"default": "0,0,1"}),
        ("--sign", {"type": int, "choices": (1, -1), "default": 1,
                    "help": "detector labelling convention"}),
        ("--out", {"default": "sg_out"}),
    )),
    ("sg", "fit", _cmd_sg_fit, "fit cos(K theta + phi) to a log directory", (
        ("logdir", {}),
        ("--k-max", {"type": int, "default": 8}),
    )),
    ("eprb", "run", _cmd_eprb_run, "simulate pair logs over a theta grid", (
        ("--theta-grid", {"default": "0:3.141592653589793:12"}),
        ("--theta", {"dest": "theta_grid"}),
        ("--n", {"type": int, "default": 10000}),
        ("--seed", {"type": int}),
        ("--correlation-sign", {"choices": ("+", "-"), "default": "-"}),
        ("--out", {"default": "eprb_out"}),
    )),
    ("eprb", "report", _cmd_eprb_report, "correlation report for logs",
     _PAIR_SOURCE + (("--out", {"help": "optional CSV output path"}),)),
    ("eprb", "test", _cmd_eprb_test, "singlet compliance and marginal tests", _PAIR_SOURCE),
    ("separate", "sg", _cmd_separate_sg, "separate single-magnet correlations", _SEPARATE),
    ("separate", "eprb", _cmd_separate_eprb, "separate pair correlations", _SEPARATE),
    ("evolve", None, _cmd_evolve, "Crank-Nicolson evolution", (
        ("--potential", {"default": "free",
                         "help": "free | harmonic | file:PATH (JSON {x: [...], v: [...]})"}),
        ("--lambda", {"type": float, "default": 4.0}),
        ("--mass", {"type": float, "default": 1.0}),
        ("--grid", {"default": "10,512,0.001,1000", "help": "L,n_x,dt,n_t"}),
        ("--x0", {"type": float, "default": 0.0}),
        ("--sigma0", {"type": float, "default": 1.0}),
        ("--p0", {"type": float, "default": 0.0}),
        ("--stride", {"type": int, "default": 100}),
        ("--allow-boundary", {"action": "store_true"}),
        ("--out", {"default": "evolve_out"}),
    )),
    ("check", "fq", _cmd_check_fq, "F and Q functional equivalence", (
        ("--trials", {"type": int, "default": 50}),
        ("--seed", {"type": int, "default": 0}),
    )),
    ("check", "fisher", _cmd_check_fisher, "Gaussian Fisher identities", ()),
    ("check", "madelung", _cmd_check_madelung, "hydrodynamic residual convergence", ()),
    ("report", None, _cmd_report, "summarize and verify a run directory", (
        ("rundir", {}),
        ("--verify", {"action": "store_true"}),
    )),
)
# The commands that write a run directory at ``--out``, through ``_write_run``.
_RUN_DIRS = {_cmd_sg_run, _cmd_eprb_run, _cmd_separate_sg, _cmd_separate_eprb, _cmd_evolve}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The ``li-qt`` parser, holding only the command that ``argv`` begins with.

    An ``argv`` that begins with no command (``-h``, an unknown or partial
    command, an option ahead of the command) gets every command.  The
    top-level list keeps every command's name as ``choices``: the usage line
    of an "unrecognized arguments" error is formatted from it.
    """
    words = list(argv[:2])
    invoked = [cmd for cmd in _COMMANDS if words[:1] == [cmd[0]] and cmd[1] in (None, *words[1:])]
    parser = argparse.ArgumentParser(
        prog="li-qt",
        description="Robust dichotomic experiments, operator separation, and the linear evolver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.choices = tuple(dict.fromkeys(group for group, *_ in _COMMANDS))
    groups = {}
    for group, name, func, help_text, arguments in invoked or _COMMANDS:
        if name is None:
            command = sub.add_parser(group, help=help_text)
        else:
            if group not in groups:
                groups[group] = sub.add_parser(group, help=_GROUPS[group]).add_subparsers(
                    dest="subcommand", required=True
                )
            command = groups[group].add_parser(name, help=help_text)
        for flag, options in arguments:
            command.add_argument(flag, **options)
        command.set_defaults(func=func)
    return parser


def _expand_config(argv: list[str]) -> list[str]:
    """Replace ``--config FILE`` in ``argv`` by the flags its JSON object sets.

    The flags go right after the command words, ahead of the command line's
    own flags, which therefore override them; argparse checks both alike.
    Every key must be the destination of some command's flag, so typos cannot
    silently pass.  Keys of other commands, and null values, set nothing.
    """
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 == len(argv):
        raise ConfigError("--config needs a file argument")
    data = json.loads(Path(argv[idx + 1]).read_text())
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    argv = argv[:idx] + argv[idx + 2:]
    flags = {  # command words -> {destination: flag}
        (group,) if name is None else (group, name): {
            opts.get("dest", flag[2:].replace("-", "_")): flag
            for flag, opts in arguments if flag.startswith("--")
        }
        for group, name, _, _, arguments in _COMMANDS
    }
    unknown = set(data).difference(*flags.values())
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    words = next((w for w in flags if tuple(argv[:len(w)]) == w), ())
    preset = [
        flag if value is True else f"{flag}={value}"  # True switches a store_true flag on
        for key, value in data.items()
        if (flag := flags.get(words, {}).get(key)) and value is not None and value is not False
    ]
    return [*words, *preset, *argv[len(words):]]


def _write_run(args: argparse.Namespace) -> int:
    """Let ``args.func(args, directory)`` write a new directory and return the paths it wrote;
    add the manifest, then rename it to ``--out``.  A failure leaves ``--out`` as it was."""
    out = Path(os.path.abspath(args.out))  # "." and "a/.." get a name and a parent
    entries = os.scandir(out) if out.exists() else ()  # a file raises NotADirectoryError
    files = {e.name: e.is_file(follow_symlinks=False) for e in entries}
    if out.is_symlink() or files and not (all(files.values()) and files.get("manifest.json")):
        raise ConfigError(f"--out {args.out} holds more than a li-qt run; left as it is")
    if out.exists() and os.path.samefile(out, os.curdir):  # replacing it would delete it
        raise ConfigError(f"--out {args.out} is the working directory; left as it is")
    out.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    try:
        (run := stage / "run").mkdir()  # with the usual mode, not mkdtemp's 0o700
        write_manifest(run, args, args.func(args, run))
        if out.exists():
            out.rename(stage / "old")  # removed with the stage
        run.rename(out)
    finally:
        shutil.rmtree(stage)
    return EXIT_OK


def run_command(argv: list[str]) -> int:
    try:
        argv = _expand_config(list(argv))
        args = build_parser(argv).parse_args(argv)
        if [] in vars(args).values():  # Python 3.11's argparse parses "--n=--" as [], not "--"
            raise ConfigError("no flag takes the value '--'")
        return _write_run(args) if args.func in _RUN_DIRS else args.func(args)
    except (OSError, ValueError) as exc:  # ConfigError, SchemaMismatch, CorruptData, EmptyLog, ...
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # the numerical-contract family of ``errors``
        print(f"contract failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except MemoryError as exc:  # sizes past memory, e.g. an --n numpy refuses to allocate
        command = " ".join(word for word in argv[:2] if not word.startswith("-"))
        print(f"input error: MemoryError: {command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
