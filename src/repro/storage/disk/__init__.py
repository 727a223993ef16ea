"""Out-of-core columnar storage: disk segments, zone maps, a buffer pool.

The subsystem in one paragraph: :func:`write_table` serialises a table
into a versioned directory of per-column segment files (plain /
dictionary / RLE pages with min-max zone-map footers, statistics
persisted in the manifest); :class:`DiskTable` opens that directory
behind the Table protocol; every data access goes through a
:class:`BufferManager` (clock eviction, pin/unpin leases, a hard byte
budget); :class:`~repro.engine.operators.segment_scan.SegmentScan`
iterates pinned row groups and skips segments its pushed-down
predicates prove empty; and the cost model's I/O terms
(:meth:`~repro.core.cost.model.CostModel.disk_scan_cost`) let the DP
optimiser trade scan strategies against cold-read, buffer-hit, and
decode cost. Set ``REPRO_STORAGE=disk`` to spill every registered
catalog table transparently; the storage settings are fields of
:class:`repro.settings.Settings`.
"""

from repro.storage.disk.buffer import (
    BufferManager,
    Lease,
    get_buffer_manager,
    set_buffer_manager,
)
from repro.storage.disk.format import (
    ENCODINGS,
    FORMAT_VERSION,
    MANIFEST_NAME,
    choose_encoding,
    encode_segment,
    read_manifest,
    read_segment,
    scan_footers,
    write_manifest,
    write_segment,
)
from repro.storage.disk.table import (
    DiskColumn,
    DiskTable,
    ScanEstimate,
    append_table,
    conjunct_triple,
    is_disk_table,
    open_table,
    spill_directory,
    spill_table,
    write_table,
)

__all__ = [
    "BufferManager",
    "DiskColumn",
    "DiskTable",
    "ENCODINGS",
    "FORMAT_VERSION",
    "Lease",
    "MANIFEST_NAME",
    "ScanEstimate",
    "append_table",
    "choose_encoding",
    "conjunct_triple",
    "encode_segment",
    "get_buffer_manager",
    "is_disk_table",
    "open_table",
    "read_manifest",
    "read_segment",
    "scan_footers",
    "set_buffer_manager",
    "spill_directory",
    "spill_table",
    "write_manifest",
    "write_segment",
    "write_table",
]
