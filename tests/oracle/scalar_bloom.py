"""Scalar reference for ``repro.apps.lsm.bloom``: one key, one bit at a time.

This is the filter as it stood before the bulk build (commit a72f8c1),
kept verbatim so the hash, probe order and bit layout stay pinned.
"""

import hashlib
import math


class ScalarBloom:
    def __init__(self, expected_items, fp_rate=0.01):
        bits = max(int(-expected_items * math.log(fp_rate) / (math.log(2) ** 2)), 8)
        self.num_bits = bits
        self.num_hashes = max(int(round(bits / expected_items * math.log(2))), 1)
        self._bits = bytearray((bits + 7) // 8)
        self.items_added = 0

    def _positions(self, key):
        digest = hashlib.blake2b(repr(key).encode(), digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1  # odd => full period
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def add(self, key):
        for pos in self._positions(key):
            self._bits[pos >> 3] |= 1 << (pos & 7)
        self.items_added += 1

    def might_contain(self, key):
        return all(self._bits[p >> 3] & (1 << (p & 7)) for p in self._positions(key))
