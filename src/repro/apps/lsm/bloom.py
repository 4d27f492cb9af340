"""Bloom filters for SSTable point lookups.

Every table carries a bloom filter so negative probes usually skip the
flash read -- the standard LSM read-path optimization. Built from scratch
on a Python ``bytearray`` with double hashing (Kirsch-Mitzenmacher): two
base hashes combine as ``h1 + i*h2`` to derive the k probe positions.
A filter is populated once, for a whole table, by :meth:`BloomFilter.build`.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any

import numpy as np


class BloomFilter:
    """A fixed-size bloom filter.

    Parameters
    ----------
    expected_items:
        Sizing target; the bit array and hash count are derived for the
        requested false-positive rate at this load.
    fp_rate:
        Target false-positive probability (default 1%, RocksDB's usual
        10-bits-per-key territory).
    """

    def __init__(self, expected_items: int, fp_rate: float = 0.01):
        if expected_items < 1:
            raise ValueError("expected_items must be >= 1")
        if not 0.0 < fp_rate < 1.0:
            raise ValueError("fp_rate must be in (0, 1)")
        self.expected_items = expected_items
        self.fp_rate = fp_rate
        # Optimal sizing: m = -n ln(p) / (ln 2)^2, k = (m/n) ln 2.
        bits = max(int(-expected_items * math.log(fp_rate) / (math.log(2) ** 2)), 8)
        self.num_bits = bits
        self.num_hashes = max(int(round(bits / expected_items * math.log(2))), 1)
        self._bits = bytearray((bits + 7) // 8)
        self.items_added = 0

    @staticmethod
    def _digest(key: Any) -> bytes:
        """16 bytes per key: two little-endian u64 base hashes (frozen)."""
        return hashlib.blake2b(repr(key).encode(), digest_size=16).digest()

    @classmethod
    def hashes(cls, key: Any) -> tuple[int, int]:
        """The key's (h1, h2) pair: the same for every filter, so a lookup
        that probes several tables computes it once."""
        digest = cls._digest(key)
        return int.from_bytes(digest[:8], "little"), int.from_bytes(digest[8:], "little") | 1

    def might_contain(self, key: Any) -> bool:
        """False means definitely absent; True means probably present."""
        return self.might_contain_hashed(self.hashes(key))

    def might_contain_hashed(self, hashes: tuple[int, int]) -> bool:
        """:meth:`might_contain` for a key whose :meth:`hashes` are known."""
        h1, h2 = hashes  # h2 is odd => full period
        bits, num_bits = self._bits, self.num_bits
        for i in range(self.num_hashes):
            pos = (h1 + i * h2) % num_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    @classmethod
    def build(cls, keys: list[Any], fp_rate: float = 0.01) -> "BloomFilter":
        """Construct a filter sized for ``keys`` and set all their bits at once."""
        bloom = cls(expected_items=max(len(keys), 1), fp_rate=fp_rate)
        digest = cls._digest
        hashes = np.frombuffer(b"".join([digest(key) for key in keys]), dtype="<u8")
        # h1 + i*h2 passes 2**64, so reduce both terms mod m first; the
        # positions equal the Python-int ones and stay exact in uint64.
        m = np.uint64(bloom.num_bits)
        h1 = hashes[0::2] % m
        h2 = (hashes[1::2] | np.uint64(1)) % m
        steps = np.arange(bloom.num_hashes, dtype=np.uint64)
        positions = (h1[:, None] + steps * h2[:, None]) % m
        flags = np.zeros(len(bloom._bits) * 8, dtype=np.uint8)
        flags[positions.ravel()] = 1
        bloom._bits = bytearray(np.packbits(flags, bitorder="little"))
        bloom.items_added = len(keys)
        return bloom


__all__ = ["BloomFilter"]
