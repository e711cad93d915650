"""Batching policies for the serving simulator.

A :class:`BatchingPolicy` owns the *waiting* queue between request arrival
and admission into a server's running batch, and decides three things:

* **admission order** — ``push``/``peek``/``pop`` define which waiting
  request is admitted next when a server has a free batch slot
  (``push_span`` pushes a run of consecutive ranks in one call, and
  ``bypass`` records a rank the request runner sends straight to a server
  because it arrived to an empty queue alone in its admission window —
  ``push`` then ``pop`` would have returned it at once);
* **priority tiers** — requests carry a ``priority`` (larger is more
  important) plus optional TTFT/TPOT SLO deadlines; the ``priority`` and
  ``slo`` policies order admission by tier (and, for ``slo``, by the
  earliest TTFT deadline within a tier);
* **preemption victim selection** — ``victim`` picks which running request
  loses its KV-cache residency when a step-mode server overflows its budget.

Requests are *ranks*: positions in the canonical ``(arrival tick, request
id)`` order of an :class:`~repro.serve.engine.EngineTrace`.  Every policy
reads only the per-rank columns it orders by, so both batching modes share
one queue family and no request object is ever built on the event path:

* ``fcfs`` — first come, first served (rank order);
* ``sjf`` — shortest estimated job first (the server-0 service ticks);
* ``rr`` — one FIFO queue per tenant, served cyclically in first-seen
  tenant order, so no tenant can starve the others;
* ``priority`` — higher priority tiers first, FCFS within a tier;
* ``slo`` — higher priority tiers first, earliest TTFT deadline
  (``arrival + ttft_slo``) first within a tier; requests without a deadline
  sort last in their tier.

Every order breaks ties on rank, i.e. ``(arrival, request id)``, and a
preempted rank re-enters its queue at that position, so every pop — and
therefore the whole simulation, including preemption and resume order — is
deterministic.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.serve.report import TICK_LIMIT

__all__ = [
    "NO_DEADLINE",
    "BatchingPolicy",
    "SCHEDULER_NAMES",
    "scheduler_by_name",
]

#: CLI-facing policy names in the order they are documented.
SCHEDULER_NAMES = ("fcfs", "sjf", "rr", "priority", "slo")

#: Deadline sentinel for requests without a TTFT SLO under the slo policy:
#: the end of the engine's clock, past every deadline it accepts, so
#: deadline-less requests order after every deadline-carrying one of equal
#: priority.
NO_DEADLINE = TICK_LIMIT


class BatchingPolicy:
    """Base class: a rank-keyed waiting queue plus preemption-victim selection.

    ``push``/``peek``/``pop`` manage the policy-ordered waiting queue
    (``peek`` lets the event loop stop admission without disturbing the
    order when the head does not fit the KV budget or is not yet admissible
    at the admitting server's clock).  ``push_span`` and ``bypass`` are the
    request runner's shortcuts for a window of arrivals and for a lone one;
    their defaults are plain pushes and a ``push``/``pop`` round trip, so a
    policy overrides them only to do the same work faster.  ``victim``
    picks the running batch member to preempt; it is shared by every
    policy, so preemption order is a property of the request metadata, not
    the admission policy.
    """

    #: Policy name used by the CLI and the report.
    name = "base"
    __slots__ = ("_priority",)

    def __init__(self, priority: Optional[Sequence[int]] = None) -> None:
        self._priority = priority

    def push(self, rank: int) -> None:
        """Admit an arrived (or preempted) rank into the waiting queue."""
        raise NotImplementedError

    def peek(self) -> int:
        """Return (without removing) the rank ``pop`` would yield next."""
        raise NotImplementedError

    def pop(self) -> int:
        """Remove and return the next rank to admit."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def push_span(self, first: int, stop: int) -> None:
        """Push the ranks ``first .. stop - 1`` (one admission window), in order."""
        for rank in range(first, stop):
            self.push(rank)

    def bypass(self, rank: int) -> None:
        """Account for ``rank`` going to a server without waiting.

        The request runner calls this instead of ``push(rank); pop()`` when
        no rank waits and ``rank`` is alone in its admission window: every
        policy would pop it straight back.  The default does that round
        trip; a policy whose queue it leaves exactly as it was overrides
        this to do nothing.
        """
        self.push(rank)
        self.pop()

    def victim(self, running: Sequence[int]) -> int:
        """The running rank to preempt: the lowest priority tier, then the newest.

        An old request never loses its KV residency to a younger one of its
        tier, and ties cannot occur (ranks are unique).
        """
        if not running:
            raise ValueError("cannot select a preemption victim from an empty batch")
        priority = self._priority
        if priority is None:
            return max(running)
        return max(running, key=lambda rank: (-priority[rank], rank))


class _FifoPolicy(BatchingPolicy):
    """FCFS: ranks arrive in rank order, so a head pointer suffices.

    A preempted rank re-pushed behind younger ranks is inserted back at its
    rank position.
    """

    name = "fcfs"
    __slots__ = ("_ranks", "_head")

    def __init__(self, priority=None) -> None:
        super().__init__(priority)
        self._ranks: List[int] = []
        self._head = 0

    def push(self, rank: int) -> None:
        ranks = self._ranks
        if ranks and rank < ranks[-1]:
            insort(ranks, rank, self._head)
        else:
            ranks.append(rank)

    def push_span(self, first: int, stop: int) -> None:
        if self._ranks and first < self._ranks[-1]:
            super().push_span(first, stop)
        else:
            self._ranks.extend(range(first, stop))

    def bypass(self, rank: int) -> None:
        """A lone rank is appended and popped at once: nothing to record."""

    def peek(self) -> int:
        return self._ranks[self._head]

    def pop(self) -> int:
        rank = self._ranks[self._head]
        self._head += 1
        if self._head > 4096 and self._head * 2 > len(self._ranks):
            del self._ranks[: self._head]
            self._head = 0
        return rank

    def __len__(self) -> int:
        return len(self._ranks) - self._head


class _KeyedPolicy(BatchingPolicy):
    """sjf/priority/slo: a heap of one precomputed integer key per rank.

    Keys are ``composite * n + rank`` Python ints (arbitrary precision, so
    stacking priority/deadline/service components can never overflow), built
    in one vectorised pass.  Heap order on the packed key equals
    lexicographic order on ``(composite, rank)``.
    """

    __slots__ = ("name", "_keys", "_n", "_heap")

    def __init__(self, name: str, keys: List[int], n: int, priority=None) -> None:
        super().__init__(priority)
        self.name = name
        self._keys = keys
        self._n = n
        self._heap: List[int] = []

    def push(self, rank: int) -> None:
        heapq.heappush(self._heap, self._keys[rank])

    def push_span(self, first: int, stop: int) -> None:
        heap, push = self._heap, heapq.heappush
        for key in self._keys[first:stop]:
            push(heap, key)

    def bypass(self, rank: int) -> None:
        """Pushing onto and popping from an empty heap leaves it empty."""

    def peek(self) -> int:
        return self._heap[0] % self._n

    def pop(self) -> int:
        return heapq.heappop(self._heap) % self._n

    def __len__(self) -> int:
        return len(self._heap)


class _RoundRobinPolicy(BatchingPolicy):
    """Round robin across tenants: per-tenant FIFO queues served cyclically.

    Tenants enter the rotation in first-push order, each tenant's queue is
    FIFO in rank order (a preempted rank is inserted back at its rank
    position, so resume never jumps a tenant-mate that arrived earlier), and
    a pop advances the cursor past the served tenant, so every tenant with
    queued work is visited before any tenant is served twice.  A lone rank
    takes the default :meth:`bypass` round trip: its push can enter a new
    tenant into the rotation and its pop moves the cursor.
    """

    name = "rr"
    __slots__ = ("_tenant", "_queues", "_heads", "_rotation", "_cursor", "_size")

    def __init__(self, tenant_of: Sequence[int], priority=None) -> None:
        super().__init__(priority)
        self._tenant = tenant_of
        self._queues: Dict[int, List[int]] = {}
        self._heads: Dict[int, int] = {}
        self._rotation: List[int] = []
        self._cursor = 0
        self._size = 0

    def push(self, rank: int) -> None:
        tenant = int(self._tenant[rank])
        queue = self._queues.get(tenant)
        if queue is None:
            self._queues[tenant] = [rank]
            self._heads[tenant] = 0
            self._rotation.append(tenant)
        elif rank < queue[-1]:
            insort(queue, rank, self._heads[tenant])
        else:
            queue.append(rank)
        self._size += 1

    def _next(self):
        """``(rotation index, tenant, queue head)`` of the next tenant with work."""
        rotation = self._rotation
        length = len(rotation)
        for offset in range(length):
            index = (self._cursor + offset) % length
            tenant = rotation[index]
            head = self._heads[tenant]
            if head < len(self._queues[tenant]):
                return index, tenant, head
        raise IndexError("pop from an empty round-robin queue")

    def peek(self) -> int:
        _, tenant, head = self._next()
        return self._queues[tenant][head]

    def pop(self) -> int:
        index, tenant, head = self._next()
        self._heads[tenant] = head + 1
        self._cursor = (index + 1) % len(self._rotation)
        self._size -= 1
        return self._queues[tenant][head]

    def __len__(self) -> int:
        return self._size


def scheduler_by_name(
    name: str,
    *,
    tenant: Optional[np.ndarray] = None,
    service: Optional[np.ndarray] = None,
    priority: Optional[np.ndarray] = None,
    deadline: Optional[np.ndarray] = None,
) -> BatchingPolicy:
    """Build the named policy's waiting queue over every rank of its key column.

    The per-rank columns are indexed by rank: ``service`` (sjf: estimated
    service ticks), ``priority`` (priority/slo tiers, and the victim tier
    under every policy), ``deadline`` (slo: arrival plus TTFT SLO in ticks,
    :data:`NO_DEADLINE` when absent) and ``tenant`` (rr).
    """
    key = name.strip().lower()
    if key not in SCHEDULER_NAMES:
        raise ValueError(f"unknown scheduler {name!r}; options: {list(SCHEDULER_NAMES)}")
    if key == "fcfs":
        return _FifoPolicy(priority)
    column = {"rr": tenant, "sjf": service}.get(key, priority)
    if column is None or (key == "slo" and deadline is None):
        raise ValueError(f"the {key} policy needs its per-rank key columns")
    if key == "rr":
        return _RoundRobinPolicy(tenant, priority)
    n = len(column)
    if key == "slo":
        # Two stacked components exceed int64, so pack through Python ints.
        priorities = (-np.asarray(priority, np.int64)).tolist()
        deadlines = np.asarray(deadline, np.int64).tolist()
        keys = [((priorities[i] * (NO_DEADLINE + 1) + deadlines[i]) * n) + i for i in range(n)]
        return _KeyedPolicy(key, keys, n, priority)
    composite = np.asarray(column, np.int64)
    if key == "priority":
        composite = -composite
    if len(composite) and int(np.abs(composite).max()) < (2**62) // max(n, 1):
        keys = (composite * n + np.arange(n, dtype=np.int64)).tolist()
    else:
        keys = [int(value) * n + i for i, value in enumerate(composite.tolist())]
    return _KeyedPolicy(key, keys, n, priority)
