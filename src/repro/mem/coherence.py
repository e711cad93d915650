"""Directory-based MOESI cache coherence (the CCM of the paper).

Each Cache Coherence Manager (CCM) owns a slice of the distributed L3 cache
and a directory that tracks, per cache line, the MOESI state and the set of
compute nodes holding a copy (paper Section III.A).  The model is a protocol
state machine plus message accounting — enough to (a) verify protocol
invariants in tests and (b) charge coherence traffic to the NoC model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Set


class CoherenceState(enum.Enum):
    """MOESI line states as tracked by the directory."""

    MODIFIED = "M"
    OWNED = "O"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


class CoherenceProtocolError(Exception):
    """Raised when a request would violate the MOESI protocol invariants."""


@dataclass
class DirectoryEntry:
    """Directory state for one cache line."""

    line_address: int
    state: CoherenceState = CoherenceState.INVALID
    owner: Optional[int] = None
    sharers: Set[int] = field(default_factory=set)

    def check_invariants(self) -> None:
        """Raise if the entry violates MOESI invariants."""
        if self.state in (CoherenceState.MODIFIED, CoherenceState.EXCLUSIVE):
            if self.owner is None:
                raise CoherenceProtocolError(f"{self.state.name} line {self.line_address:#x} has no owner")
            if self.sharers - {self.owner}:
                raise CoherenceProtocolError(
                    f"{self.state.name} line {self.line_address:#x} has extra sharers {self.sharers}"
                )
        if self.state is CoherenceState.OWNED and self.owner is None:
            raise CoherenceProtocolError(f"OWNED line {self.line_address:#x} has no owner")
        if self.state is CoherenceState.INVALID and (self.owner is not None or self.sharers):
            raise CoherenceProtocolError(f"INVALID line {self.line_address:#x} still tracked")
        if self.state is CoherenceState.SHARED and not self.sharers:
            raise CoherenceProtocolError(f"SHARED line {self.line_address:#x} has no sharers")


@dataclass
class CoherenceResponse:
    """Result of a directory request: latency class plus messages generated."""

    state: CoherenceState
    data_from_memory: bool
    invalidations_sent: int
    forwarded_from_owner: bool

    @property
    def messages(self) -> int:
        """Coherence messages on the NoC caused by this request (excluding the request itself)."""
        count = 1  # the data/ack response
        count += self.invalidations_sent * 2  # invalidation + ack per sharer
        if self.forwarded_from_owner:
            count += 1
        return count


class DirectoryController:
    """A CCM: directory + request handlers for reads, writes and evictions.

    Nodes are identified by integer ids.  The controller does not move data; it
    updates directory state and reports what traffic the request generated so
    the caller can charge NoC/DRAM time.
    """

    def __init__(self, name: str = "ccm") -> None:
        self.name = name
        self._directory: Dict[int, DirectoryEntry] = {}
        self.read_requests = 0
        self.write_requests = 0
        self.invalidations = 0
        self.memory_fetches = 0

    def entry(self, line_address: int) -> DirectoryEntry:
        if line_address not in self._directory:
            self._directory[line_address] = DirectoryEntry(line_address)
        return self._directory[line_address]

    def lookup_state(self, line_address: int) -> CoherenceState:
        entry = self._directory.get(line_address)
        return entry.state if entry else CoherenceState.INVALID

    # ------------------------------------------------------------------ requests
    def handle_read(self, node_id: int, line_address: int) -> CoherenceResponse:
        """A node asks for a readable copy of the line."""
        self.read_requests += 1
        entry = self.entry(line_address)
        forwarded = False
        data_from_memory = False

        if entry.state is CoherenceState.INVALID:
            data_from_memory = True
            self.memory_fetches += 1
            entry.state = CoherenceState.EXCLUSIVE
            entry.owner = node_id
            entry.sharers = {node_id}
        elif entry.state in (CoherenceState.MODIFIED, CoherenceState.OWNED):
            # Owner forwards the data and the line becomes OWNED/shared.
            forwarded = True
            entry.state = CoherenceState.OWNED
            entry.sharers.add(node_id)
        elif entry.state is CoherenceState.EXCLUSIVE:
            if entry.owner == node_id:
                pass  # silent re-read by the owner
            else:
                forwarded = True
                entry.state = CoherenceState.SHARED
                entry.sharers.add(node_id)
                entry.owner = None
        else:  # SHARED
            entry.sharers.add(node_id)

        entry.check_invariants()
        return CoherenceResponse(
            state=entry.state,
            data_from_memory=data_from_memory,
            invalidations_sent=0,
            forwarded_from_owner=forwarded,
        )

    def handle_write(self, node_id: int, line_address: int) -> CoherenceResponse:
        """A node asks for an exclusive (writable) copy of the line."""
        self.write_requests += 1
        entry = self.entry(line_address)
        data_from_memory = False
        forwarded = False

        others = (entry.sharers | ({entry.owner} if entry.owner is not None else set())) - {node_id}
        invalidations = len(others)
        self.invalidations += invalidations

        if entry.state is CoherenceState.INVALID:
            data_from_memory = True
            self.memory_fetches += 1
        elif entry.state in (CoherenceState.MODIFIED, CoherenceState.OWNED, CoherenceState.EXCLUSIVE):
            forwarded = entry.owner is not None and entry.owner != node_id

        entry.state = CoherenceState.MODIFIED
        entry.owner = node_id
        entry.sharers = {node_id}
        entry.check_invariants()
        return CoherenceResponse(
            state=entry.state,
            data_from_memory=data_from_memory,
            invalidations_sent=invalidations,
            forwarded_from_owner=forwarded,
        )

    def handle_eviction(self, node_id: int, line_address: int) -> bool:
        """A node drops its copy; returns True if the line had to be written back."""
        entry = self._directory.get(line_address)
        if entry is None or entry.state is CoherenceState.INVALID:
            return False
        writeback = entry.state in (CoherenceState.MODIFIED, CoherenceState.OWNED) and entry.owner == node_id
        entry.sharers.discard(node_id)
        if entry.owner == node_id:
            entry.owner = None
        if not entry.sharers and entry.owner is None:
            entry.state = CoherenceState.INVALID
        elif entry.owner is None:
            entry.state = CoherenceState.SHARED
        entry.check_invariants()
        return writeback

    # ------------------------------------------------------------------ queries
    def sharers_of(self, line_address: int) -> Set[int]:
        entry = self._directory.get(line_address)
        return set(entry.sharers) if entry else set()

    def check_all_invariants(self) -> None:
        for entry in self._directory.values():
            entry.check_invariants()
