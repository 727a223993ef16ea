"""Index structures: the MACROMOLECULE- and MOLECULE-level building blocks
(Table 1 of the paper) that deep query optimisation chooses among."""

from repro.indexes.hash_table import (
    HASH_FUNCTIONS,
    ChainedHashTable,
    OpenAddressingHashTable,
    identity_hash,
    murmur3_finalizer,
)
from repro.indexes.perfect_hash import StaticPerfectHash

__all__ = [
    "ChainedHashTable",
    "HASH_FUNCTIONS",
    "OpenAddressingHashTable",
    "StaticPerfectHash",
    "identity_hash",
    "murmur3_finalizer",
]
