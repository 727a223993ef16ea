"""Index structures: the MACROMOLECULE- and MOLECULE-level building blocks
(Table 1 of the paper) that deep query optimisation chooses among."""

from repro.indexes.btree import BPlusTree
from repro.indexes.hash_table import (
    HASH_FUNCTIONS,
    ChainedHashTable,
    OpenAddressingHashTable,
    identity_hash,
    murmur3_finalizer,
)
from repro.indexes.perfect_hash import StaticPerfectHash
from repro.indexes.sorted_array import SortedKeyIndex

__all__ = [
    "BPlusTree",
    "ChainedHashTable",
    "HASH_FUNCTIONS",
    "OpenAddressingHashTable",
    "SortedKeyIndex",
    "StaticPerfectHash",
    "identity_hash",
    "murmur3_finalizer",
]
