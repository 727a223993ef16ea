"""Keys with a chosen hash, for tests that need keys to collide.

Importable from any test module: ``tests/`` holds the root ``conftest.py``
and is not a package, so pytest puts it on ``sys.path``.
"""


def key_with_hash(hashed: int, hash_name: str = "murmur3") -> int:
    """The int64 key whose ``hash_name`` hash is ``hashed`` (an unsigned
    64-bit value). Murmur3's finaliser is a bijection, undone step by step
    (``h ^= h >> 33`` is its own inverse, the multiplications have inverses
    mod 2**64); the identity hash is its own inverse."""
    if hash_name == "murmur3":
        mod = 2**64
        for constant in (0xC4CEB9FE1A85EC53, 0xFF51AFD7ED558CCD):
            hashed ^= hashed >> 33
            hashed = hashed * pow(constant, -1, mod) % mod
        hashed ^= hashed >> 33
    return hashed - 2**64 if hashed >= 2**63 else hashed
