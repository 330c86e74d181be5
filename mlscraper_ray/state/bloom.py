"""Deterministic, serializable Bloom filter for the URL-seen set.

Design point (north_star): each frontier shard owns one filter sized
for ``10^10 / P`` keys. At 1e-9 FPR that is ~43.1 bits per key
(k = 30 probes), i.e. ~54 GB across the WHOLE fleet — at P=1024
shards ~53 MB per shard, trivially heap-resident; even P=64 is
~840 MB/shard. Real deployments size FPR to 1e-6..1e-9 per budget
(1e-6 is ~28.8 bits/key, ~36 GB fleet-wide). These numbers are
pinned by ``tests/test_state.py::test_bloom_design_point`` (parameter
math + measured fill/FPR at a scaled capacity).
The implementation is a flat numpy bit array
with k hash probes derived from one blake2b digest (double hashing),
so membership decisions are identical in every process — which is what
lets the single-process oracle crawler reproduce the distributed
crawl's decisions bit-for-bit, false positives included.

Serialization: ``to_bytes``/``from_bytes`` round-trips the exact bit
array (checkpoint/restore unit).
"""
from __future__ import annotations

import hashlib
import math
import struct

import numpy as np


class BloomFilter:
    __slots__ = ("m_bits", "k", "bits", "n_added")

    def __init__(self, capacity: int, fpr: float = 1e-9):
        m = max(64, int(-capacity * math.log(fpr) / (math.log(2) ** 2)))
        self.m_bits = (m + 63) // 64 * 64
        self.k = max(1, round(self.m_bits / capacity * math.log(2)))
        self.bits = np.zeros(self.m_bits // 64, dtype=np.uint64)
        self.n_added = 0

    @staticmethod
    def _hashes(item: str) -> tuple[int, int]:
        d = hashlib.blake2b(item.encode(), digest_size=16).digest()
        return struct.unpack("<QQ", d)

    def _positions(self, item: str):
        h1, h2 = self._hashes(item)
        m = self.m_bits
        return [(h1 + i * h2) % m for i in range(self.k)]

    def add(self, item: str) -> bool:
        """Insert; returns True if the item was (probably) new."""
        # the words as Python ints: numpy scalar arithmetic costs more
        # than the hash
        words = memoryview(self.bits)
        new = False
        for pos in self._positions(item):
            word, bit = pos >> 6, 1 << (pos & 63)
            w = words[word]
            if not w & bit:
                new = True
                words[word] = w | bit
        if new:
            self.n_added += 1
        return new

    def __contains__(self, item: str) -> bool:
        words = memoryview(self.bits)
        for pos in self._positions(item):
            if not words[pos >> 6] & (1 << (pos & 63)):
                return False
        return True

    def to_bytes(self) -> bytes:
        header = struct.pack("<QQQ", self.m_bits, self.k, self.n_added)
        return header + self.bits.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        m_bits, k, n_added = struct.unpack("<QQQ", data[:24])
        obj = cls.__new__(cls)
        obj.m_bits = m_bits
        obj.k = k
        obj.n_added = n_added
        obj.bits = np.frombuffer(data[24:], dtype=np.uint64).copy()
        return obj
