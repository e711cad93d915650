"""A set-associative, write-back cache model with LRU replacement.

Used for the per-core L1 instruction/data caches and private L2 of Table I,
and as the building block of the distributed L3 slices.  The model tracks tag
state only (no data payloads); the functional models keep data in NumPy arrays
and use the cache purely for hit/miss accounting and latency.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.mem.address import cache_index, cache_tag


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str
    size_bytes: int
    associativity: int
    line_size: int = 64
    hit_latency_cycles: int = 4
    writeback: bool = True

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.associativity <= 0 or self.line_size <= 0:
            raise ValueError(f"invalid cache config: {self}")
        if self.size_bytes % (self.associativity * self.line_size):
            raise ValueError(
                f"{self.name}: size {self.size_bytes} is not divisible by "
                f"associativity*line_size ({self.associativity * self.line_size})"
            )
        # The number of sets is allowed to be a non-power-of-two (the paper's 48 KB
        # four-way L1 caches have 192 sets); indexing is modulo the set count.

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_size)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass
class CacheLine:
    tag: int
    dirty: bool = False
    locked: bool = False


@dataclass
class AccessResult:
    """Outcome of a cache access."""

    hit: bool
    latency_cycles: int
    evicted_address: Optional[int] = None
    writeback: bool = False


class SetAssociativeCache:
    """Tag-state-only set-associative cache with per-line lock support.

    Lines can be *locked* (pinned), which is how the MACO mapping scheme keeps
    stashed GEMM tiles resident in the L3 while the CPU runs the non-GEMM tail
    (paper Fig. 5(b)).  Locked lines are never chosen as eviction victims; if a
    set is entirely locked, the fill is treated as a bypass (uncached access).

    A set's ordered dict is allocated on its first fill: an untouched set is
    empty either way, and the whole-cache queries (residency and lock counts,
    unlock/invalidate all) only visit allocated sets, so a cache nobody
    accesses (the analytic models build whole systems) costs no memory.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        # Set index -> ordered dict of that set's lines: key = tag, ordered
        # oldest -> newest.  Sets appear on their first fill.
        self._sets: Dict[int, "OrderedDict[int, CacheLine]"] = {}

    # ----------------------------------------------------------------- helpers
    def _locate(self, address: int) -> Tuple[int, int]:
        index = cache_index(address, self.config.line_size, self.config.num_sets)
        tag = cache_tag(address, self.config.line_size, self.config.num_sets)
        return index, tag

    def _line_address(self, index: int, tag: int) -> int:
        return (tag * self.config.num_sets + index) * self.config.line_size

    # ------------------------------------------------------------------ access
    def probe(self, address: int) -> bool:
        """Check residency without updating LRU or statistics."""
        index, tag = self._locate(address)
        return tag in self._sets.get(index, ())

    def access(self, address: int, write: bool = False) -> AccessResult:
        """Access one cache line; on miss the line is filled (allocate-on-miss)."""
        index, tag = self._locate(address)
        cache_set = self._sets.get(index)
        line = None if cache_set is None else cache_set.get(tag)
        if line is not None:
            cache_set.move_to_end(tag)
            if write:
                line.dirty = True
            self.stats.hits += 1
            return AccessResult(hit=True, latency_cycles=self.config.hit_latency_cycles)
        self.stats.misses += 1
        evicted_address, writeback = self._fill(index, tag, dirty=write)
        return AccessResult(
            hit=False,
            latency_cycles=self.config.hit_latency_cycles,
            evicted_address=evicted_address,
            writeback=writeback,
        )

    def fill(self, address: int, dirty: bool = False, locked: bool = False) -> Optional[int]:
        """Install a line without counting an access (used by stash/prefetch paths).

        Returns the address of the evicted line, if any.
        """
        index, tag = self._locate(address)
        cache_set = self._sets.get(index, {})
        if tag in cache_set:
            line = cache_set[tag]
            line.dirty = line.dirty or dirty
            line.locked = line.locked or locked
            cache_set.move_to_end(tag)
            return None
        evicted_address, _ = self._fill(index, tag, dirty=dirty, locked=locked)
        return evicted_address

    def _fill(
        self, index: int, tag: int, dirty: bool, locked: bool = False
    ) -> Tuple[Optional[int], bool]:
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = OrderedDict()
        evicted_address: Optional[int] = None
        writeback = False
        if len(cache_set) >= self.config.associativity:
            victim_tag = self._choose_victim(cache_set)
            if victim_tag is None:
                # Every way is locked: bypass the cache for this fill.
                return None, False
            victim = cache_set.pop(victim_tag)
            evicted_address = self._line_address(index, victim_tag)
            self.stats.evictions += 1
            if victim.dirty and self.config.writeback:
                self.stats.writebacks += 1
                writeback = True
        cache_set[tag] = CacheLine(tag=tag, dirty=dirty, locked=locked)
        return evicted_address, writeback

    @staticmethod
    def _choose_victim(cache_set: "OrderedDict[int, CacheLine]") -> Optional[int]:
        for tag, line in cache_set.items():  # oldest first
            if not line.locked:
                return tag
        return None

    # ------------------------------------------------------------------ locking
    def lock(self, address: int) -> bool:
        """Pin the line holding ``address``; returns False if it is not resident."""
        index, tag = self._locate(address)
        line = self._sets.get(index, {}).get(tag)
        if line is None:
            return False
        line.locked = True
        return True

    def unlock(self, address: int) -> bool:
        index, tag = self._locate(address)
        line = self._sets.get(index, {}).get(tag)
        if line is None:
            return False
        line.locked = False
        return True

    def unlock_all(self) -> int:
        """Unlock every line; returns how many lines were locked."""
        count = 0
        for cache_set in self._sets.values():
            for line in cache_set.values():
                if line.locked:
                    line.locked = False
                    count += 1
        return count

    # ------------------------------------------------------------------- state
    def invalidate(self, address: int) -> bool:
        index, tag = self._locate(address)
        return self._sets.get(index, {}).pop(tag, None) is not None

    def invalidate_all(self) -> None:
        self._sets.clear()

    @property
    def resident_lines(self) -> int:
        return sum(len(cache_set) for cache_set in self._sets.values())

    @property
    def locked_lines(self) -> int:
        return sum(
            1 for cache_set in self._sets.values() for line in cache_set.values() if line.locked
        )

    @property
    def occupancy(self) -> float:
        return self.resident_lines / self.config.num_lines
