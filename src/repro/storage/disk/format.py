"""The on-disk segment format: versioned, self-describing column files.

A disk-resident table is a directory:

.. code-block:: text

    table_dir/
      MANIFEST.json      # format version, schema, statistics, segment index
      <column>.col       # one file per column: a sequence of segments

Each column file is a concatenation of fixed-row-count *segments*. A
segment is its encoded payload followed by a backward-readable footer::

    [payload bytes][footer JSON][footer length: uint32 LE][magic "RDS1"]

so the file is self-describing even without the manifest:
:func:`scan_footers` recovers every segment's metadata by walking the
trailer chain from the end of the file. The footer (and the manifest's
segment index, which carries the same dicts plus payload offsets) is the
segment's *zone map*: min/max, null count, and a distinct estimate —
what scan pruning and the optimiser's I/O costing consume without
touching the payload.

Three page encodings are supported, reusing the library's existing
compression schemes (:mod:`repro.storage.dictionary`,
:mod:`repro.storage.rle`):

* ``plain`` — the raw little-endian array; read back zero-copy as a
  read-only :class:`numpy.memmap`.
* ``dictionary`` — width-narrowed codes plus the sorted dictionary.
* ``rle`` — run values plus int64 run lengths.

``auto`` picks the smallest payload per segment, which is how the
storage layer *manufactures* layout choices the optimiser then costs.
"""

from __future__ import annotations

import json
import os
import struct
from typing import BinaryIO

import numpy as np

from repro._util.arrays import run_count
from repro.errors import StorageError
from repro.storage.dictionary import code_dtype
from repro.storage.rle import rle_encode
from repro.storage.statistics import ColumnStatistics, count_distinct

#: trailing magic of every segment; the "1" is the segment format version.
MAGIC = b"RDS1"

#: manifest-level format version; readers reject anything newer.
FORMAT_VERSION = 1

#: manifest file name inside a table directory.
MANIFEST_NAME = "MANIFEST.json"

#: the supported page encodings, in decode-cheapness order.
ENCODINGS = ("plain", "dictionary", "rle")

_TRAILER = struct.Struct("<I")  # footer length, little-endian uint32


def _has_nulls(values: np.ndarray) -> bool:
    return bool(
        np.issubdtype(values.dtype, np.floating)
        and bool(np.isnan(values).any())
    )


def choose_encoding(values: np.ndarray) -> str:
    """The smallest-payload encoding for one segment's values.

    Dictionary pages are never chosen for float segments containing NaN:
    ``np.unique``'s NaN handling differs across numpy versions, and a
    NaN-bearing dictionary round-trip is not value-stable. Ties prefer
    the cheaper-to-decode encoding (``plain`` < ``rle`` < ``dictionary``).
    """
    n = int(values.size)
    if n == 0:
        return "plain"
    itemsize = int(values.dtype.itemsize)
    sizes = {"plain": n * itemsize}
    sizes["rle"] = run_count(values) * (itemsize + 8)
    if not _has_nulls(values):
        cardinality = count_distinct(values, values.min(), values.max())
        sizes["dictionary"] = (
            cardinality * itemsize + n * code_dtype(cardinality).itemsize
        )
    order = {"plain": 0, "rle": 1, "dictionary": 2}
    return min(sizes, key=lambda name: (sizes[name], order[name]))


def _zone_map(values: np.ndarray) -> dict:
    """min/max/null_count/distinct of one segment, NaN-aware.

    ``min``/``max`` ignore NaNs and are ``None`` for an all-null
    segment; ``distinct`` counts NaN as one extra value.
    """
    null_count = 0
    if np.issubdtype(values.dtype, np.floating):
        nan_mask = np.isnan(values)
        null_count = int(np.count_nonzero(nan_mask))
        present = values[~nan_mask] if null_count else values
    else:
        present = values
    if present.size == 0:
        minimum = maximum = None
        distinct = 1 if null_count else 0
    else:
        minimum = present.min().item()
        maximum = present.max().item()
        distinct = count_distinct(present, minimum, maximum) + (
            1 if null_count else 0
        )
    return {
        "min": minimum,
        "max": maximum,
        "null_count": null_count,
        "distinct": distinct,
    }


def encode_segment(values: np.ndarray, encoding: str = "auto") -> tuple[bytes, dict]:
    """Encode one segment; returns ``(payload, meta)``.

    ``meta`` is the footer dict: rows, the resolved encoding, the zone
    map, ``payload_bytes``, and the payload's array layout
    (``[[name, numpy dtype, nbytes], ...]``, laid out sequentially).

    :raises StorageError: for an unknown ``encoding`` name.
    """
    if encoding == "auto":
        encoding = choose_encoding(values)
    if encoding not in ENCODINGS:
        raise StorageError(f"unknown segment encoding {encoding!r}")
    values = np.ascontiguousarray(values)
    if encoding == "dictionary" and _has_nulls(values):
        # NaN dictionaries are not round-trip safe; fall back silently so
        # an explicit table-level encoding choice still writes correctly.
        encoding = "plain"
    if encoding == "plain":
        arrays = [("values", values)]
    elif encoding == "dictionary":
        # A segment stores no counts: np.unique without them.
        dictionary, codes = np.unique(values, return_inverse=True)
        arrays = [
            ("codes", codes.astype(code_dtype(dictionary.size))),
            ("dictionary", dictionary),
        ]
    else:  # rle
        encoded = rle_encode(values)
        arrays = [
            ("values", encoded.values),
            ("lengths", encoded.lengths.astype(np.int64)),
        ]
    payload = b"".join(np.ascontiguousarray(a).tobytes() for __, a in arrays)
    meta = {
        "rows": int(values.size),
        "encoding": encoding,
        "payload_bytes": len(payload),
        "arrays": [
            [name, str(array.dtype), int(array.nbytes)] for name, array in arrays
        ],
    }
    meta.update(_zone_map(values))
    return payload, meta


def write_segment(handle: BinaryIO, values: np.ndarray, encoding: str = "auto") -> dict:
    """Encode and append one segment to an open column file.

    Returns the segment meta with its ``offset`` (payload file offset)
    filled in — the dict the manifest's segment index stores.
    """
    payload, meta = encode_segment(values, encoding)
    footer = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    meta = dict(meta, offset=handle.tell())
    handle.write(payload)
    handle.write(footer)
    handle.write(_TRAILER.pack(len(footer)))
    handle.write(MAGIC)
    return meta


def read_segment(path: str, meta: dict, dtype: np.dtype) -> np.ndarray:
    """Decode one segment back to its value array (read-only).

    Plain segments come back as a zero-copy read-only
    :class:`numpy.memmap`; dictionary and RLE segments decode into fresh
    arrays. ``dtype`` is the column's logical numpy dtype (the decode
    target).
    """
    encoding = meta["encoding"]
    layout = {name: (np.dtype(spec), int(nbytes)) for name, spec, nbytes in meta["arrays"]}
    offset = int(meta["offset"])
    if encoding == "plain":
        array_dtype, nbytes = layout["values"]
        array = np.memmap(
            path,
            dtype=array_dtype,
            mode="r",
            offset=offset,
            shape=(nbytes // array_dtype.itemsize,),
        )
        return array
    parts: dict[str, np.ndarray] = {}
    cursor = offset
    for name, spec, nbytes in meta["arrays"]:
        part_dtype = np.dtype(spec)
        parts[name] = np.fromfile(
            path,
            dtype=part_dtype,
            count=int(nbytes) // part_dtype.itemsize,
            offset=cursor,
        )
        cursor += int(nbytes)
    if encoding == "dictionary":
        decoded = parts["dictionary"][parts["codes"]]
    elif encoding == "rle":
        decoded = np.repeat(parts["values"], parts["lengths"])
    else:  # pragma: no cover - encode_segment validated the name
        raise StorageError(f"unknown segment encoding {encoding!r}")
    decoded = np.ascontiguousarray(decoded, dtype=dtype)
    decoded.flags.writeable = False
    return decoded


def scan_footers(path: str) -> list[dict]:
    """Recover every segment's metadata by walking the trailer chain
    backward from the end of ``path`` (no manifest needed).

    Returns the segment metas in file order, each with ``offset`` filled
    in — the recovery path for a table whose manifest was lost, and the
    round-trip check the format tests assert.

    :raises StorageError: when the trailer chain is malformed.
    """
    metas: list[dict] = []
    size = os.path.getsize(path)
    if size == 0:
        return metas
    with open(path, "rb") as handle:
        position = size
        while position > 0:
            if position < len(MAGIC) + _TRAILER.size:
                raise StorageError(f"{path}: truncated segment trailer")
            handle.seek(position - len(MAGIC))
            if handle.read(len(MAGIC)) != MAGIC:
                raise StorageError(f"{path}: bad segment magic")
            handle.seek(position - len(MAGIC) - _TRAILER.size)
            (footer_len,) = _TRAILER.unpack(handle.read(_TRAILER.size))
            footer_start = position - len(MAGIC) - _TRAILER.size - footer_len
            if footer_start < 0:
                raise StorageError(f"{path}: segment footer overruns file")
            handle.seek(footer_start)
            meta = json.loads(handle.read(footer_len).decode("utf-8"))
            offset = footer_start - int(meta["payload_bytes"])
            if offset < 0:
                raise StorageError(f"{path}: segment payload overruns file")
            metas.append(dict(meta, offset=offset))
            position = offset
    metas.reverse()
    return metas


# -- statistics (de)serialisation ------------------------------------------


def statistics_to_dict(stats: ColumnStatistics) -> dict:
    """A :class:`ColumnStatistics` as a JSON-friendly dict."""
    return {
        "count": stats.count,
        "minimum": stats.minimum,
        "maximum": stats.maximum,
        "distinct": stats.distinct,
        "is_sorted": stats.is_sorted,
        "is_clustered": stats.is_clustered,
        "is_dense": stats.is_dense,
    }


def statistics_from_dict(record: dict) -> ColumnStatistics:
    """Rebuild a :class:`ColumnStatistics` from its manifest dict."""
    return ColumnStatistics(
        count=int(record["count"]),
        minimum=record["minimum"],
        maximum=record["maximum"],
        distinct=int(record["distinct"]),
        is_sorted=bool(record["is_sorted"]),
        is_clustered=bool(record["is_clustered"]),
        is_dense=bool(record["is_dense"]),
    )


# -- manifest ----------------------------------------------------------------


def write_manifest(directory: str, manifest: dict) -> None:
    """Atomically write a table directory's manifest (tmp + rename)."""
    path = os.path.join(directory, MANIFEST_NAME)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
    os.replace(tmp, path)


def read_manifest(directory: str) -> dict:
    """Read and version-check a table directory's manifest.

    :raises StorageError: missing manifest or unsupported format version.
    """
    path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(path):
        raise StorageError(f"no {MANIFEST_NAME} in {directory!r}")
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise StorageError(
            f"{directory!r}: on-disk format version {version!r} is not "
            f"supported (this build reads version {FORMAT_VERSION})"
        )
    return manifest
