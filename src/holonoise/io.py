"""On-disk formats: binary/CSV time series, metadata-prefixed CSV tables, JSON.

The binary record format is little-endian throughout: a fixed 44-byte header
(magic ``HNTS``, format version, sample rate, length, seed, units tag,
metadata length) followed by a UTF-8 JSON metadata blob and then float64
samples.  All writers are deterministic functions of their inputs so reruns
with the same config and seed are byte-identical.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from io import StringIO
from pathlib import Path

import numpy as np

from .synthesis import TimeSeries

MAGIC = b"HNTS"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIdQQ8sI")  # magic, version, fs, n, seed, units, meta length
_ROWS = 1 << 16  # rows per `%` call of `_write_rows`, a block of text


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_timeseries_bin(path, ts: TimeSeries, seed: int = 0,
                         metadata: dict | None = None) -> None:
    """Write a record in the HNTS binary format, without copying its samples
    on a little-endian machine.  The fixed header stores the seed's low 64
    bits; the metadata blob keeps the exact value when one is given there."""
    meta_dict = dict(metadata or {})
    meta_dict.setdefault("seed", int(seed))
    meta = _canonical_json(meta_dict).encode("utf-8")
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, ts.sample_rate, ts.n,
                          int(seed) & 0xFFFFFFFFFFFFFFFF,
                          b"m".ljust(8, b"\0"), len(meta))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(meta)
        fh.write(memoryview(np.ascontiguousarray(ts.values, dtype="<f8")))


def read_timeseries_bin(path) -> tuple[TimeSeries, dict]:
    """Read an HNTS file; returns (series, metadata)."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, fs, n, seed, units, meta_len = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise ValueError(f"{path}: not an HNTS file (magic {magic!r})")
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        meta = json.loads(fh.read(meta_len).decode("utf-8"))
        meta.setdefault("seed", seed)
        meta.setdefault("units", units.rstrip(b"\0").decode("ascii"))
        # the header's count is checked before anything is read
        found = (os.fstat(fh.fileno()).st_size - fh.tell()) // 8
        if found < n:
            raise ValueError(f"{path}: expected {n} samples, found {found}")
        values = np.fromfile(fh, dtype="<f8", count=n)
    return TimeSeries(sample_rate=fs, values=values), meta


def write_timeseries_csv(path, ts: TimeSeries, seed: int = 0,
                         metadata: dict | None = None) -> None:
    """CSV alternative for small records: metadata preamble plus one column."""
    meta = dict(metadata or {})
    meta.update(sample_rate_hz=ts.sample_rate, n_samples=ts.n, seed=int(seed),
                units="m")
    _write_rows(path, {"displacement_m": ts.values}, meta, "%.17e")


def read_timeseries_csv(path) -> tuple[TimeSeries, dict]:
    """Read a `write_timeseries_csv` file; returns (series, metadata)."""
    columns, meta = read_table_csv(path)
    if "sample_rate_hz" not in meta:
        raise ValueError(f"{path}: missing sample_rate_hz metadata")
    values = next(iter(columns.values()))
    return TimeSeries(sample_rate=float(meta["sample_rate_hz"]),
                      values=values), meta


def _preamble(metadata: dict) -> str:
    """'# key = json' lines in sorted key order, each ending in a newline."""
    return "".join(f"# {key} = {_canonical_json(metadata[key])}\n"
                   for key in sorted(metadata))


def _text_file(out):
    """`out` if it is an open text file, else the path opened for writing."""
    return (contextlib.nullcontext(out) if hasattr(out, "write")
            else open(out, "w", encoding="utf-8"))


def _blocks(cols: list, row: str):
    """`row`, a `%` format of one cell per column, for each row of the
    equally long 1-d `cols`, `_ROWS` rows a block of text."""
    for start in range(0, cols[0].size, _ROWS):
        block = np.column_stack([c[start:start + _ROWS] for c in cols])
        yield (row * len(block)) % tuple(block.ravel().tolist())


def _write_rows(out, columns: dict, metadata: dict, cell: str) -> None:
    """Write a '#' metadata preamble and a CSV table of `columns` (1-d,
    equally long; a complex one split into `<name>_re` and `<name>_im`) to
    `out`, an open text file or a path opened once they are checked.  Cells
    are `cell`, a `%` format, `_ROWS` rows per block; NaN cells are empty."""
    cols: dict[str, np.ndarray] = {}
    for name, values in columns.items():
        arr = np.asarray(values)
        cols.update({f"{name}_re": arr.real, f"{name}_im": arr.imag}
                    if np.iscomplexobj(arr) else {name: arr})
    lengths = sorted({c.size for c in cols.values()})
    if len(lengths) != 1:
        raise ValueError(f"columns have unequal lengths: {lengths}")
    row = ",".join([cell] * len(cols)) + "\n"
    with _text_file(out) as fh:
        fh.write(_preamble(metadata) + ",".join(cols) + "\n")
        for text in _blocks(list(cols.values()), row):
            # "nan" is the only cell text holding those letters
            fh.write(text.replace("nan", ""))


def _write_json(out, doc: dict) -> None:
    """Write json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    and a newline to `out` (as `_write_rows` takes it); a 1-d float array
    member is its list, `_ROWS` cells a block, with NaN cells null."""
    with _text_file(out) as fh:
        fh.write("{")
        for i, key in enumerate(sorted(doc)):
            value = doc[key]
            fh.write(",\n" if i else "\n")
            if isinstance(value, np.ndarray) and not value.size:
                value = []
            if not isinstance(value, np.ndarray):
                # the member as json.dumps indents it in the object
                fh.write(json.dumps({key: value}, sort_keys=True, indent=2,
                                    allow_nan=False)[2:-2])
                continue
            if np.any(np.isinf(value)):
                raise ValueError(f"{key} holds a value JSON cannot: infinity")
            fh.write(f"  {json.dumps(key)}: [")
            for k, text in enumerate(_blocks([value], ",\n    %r")):
                # the repr of a float is its JSON text; "nan" is NaN's only
                fh.write((text[1:] if k == 0 else text).replace("nan", "null"))
            fh.write("\n  ]")
        fh.write("\n}\n")


def format_table_csv(columns: dict, metadata: dict | None = None) -> str:
    """The text that `write_table_csv` writes."""
    _write_rows(text := StringIO(), columns, metadata or {}, "%.12e")
    return text.getvalue()


def write_table_csv(path, columns: dict, metadata: dict | None = None) -> None:
    """Write `columns` as a CSV table (`_write_rows`), cells as `%.12e`."""
    _write_rows(path, columns, metadata or {}, "%.12e")


def read_table_csv(path) -> tuple[dict, dict]:
    """Read a metadata-prefixed CSV table; returns (columns, metadata)."""
    meta: dict = {}
    header: list[str] | None = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                meta[key.strip()] = json.loads(val.strip())
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(x) if x else np.nan for x in line.split(",")])
    if header is None:
        raise ValueError(f"{path}: no column header found")
    data = np.array(rows) if rows else np.empty((0, len(header)))
    return {name: data[:, i] for i, name in enumerate(header)}, meta


def write_summary_json(path, summary: dict) -> None:
    """Write `summary` as sorted, indented JSON.

    A non-finite number raises ValueError instead of writing the
    non-standard `NaN`/`Infinity` tokens.
    """
    Path(path).write_text(
        json.dumps(summary, sort_keys=True, indent=2, allow_nan=False) + "\n",
        encoding="utf-8",
    )
