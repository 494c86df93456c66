"""Embedded append-only log with consumer-group offsets.

Stands in for an external message broker: temporary retention plus fan-out
to parallel consumers. Each topic is a single ordered partition; offsets
start at 0 and increase by exactly 1 per append. A topic's consumer groups
are declared when it is created and are independent, so every group
observes every record (broadcast across groups), while a group's committed
offset survives its handles and drives resume-after-kill delivery.

One retention rule: a topic keeps a record until every group it was
created with has committed it. A topic's groups are fixed at creation,
and it needs at least one. retention is how far a producer may run ahead
of its slowest group: append blocks while that group has retention
records uncommitted.

Payloads are any Python objects, handed to every consumer as they were
appended, never copied or serialized. A poll slices only the batch it
returns. After an empty poll, wait blocks until the next append or until
the producer closes the topic, which ends its stream. close is also how a
consumer that ends early lets go: it wakes a held-back append, which
raises TopicClosed, and no later append is stored.

Each topic has its own lock, shared by two Conditions: consumers sleep on
one and a held-back producer on the other, so an append wakes only
consumers and a commit only the producer. Consumers count themselves in
and out of their wait under the lock, so an append notifies only when one
sleeps; while none does, an append costs only the lock. A
ConsumerHandle belongs to a single owner thread.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any


class TopicMissing(KeyError):
    """The named topic has not been created."""


class TopicClosed(Exception):
    """An append to a topic that is closed, or that closed while it waited."""


class CommitRegression(Exception):
    """A commit tried to move a group's offset backwards."""


@dataclass
class ConsumerHandle:
    """One consumer's read position within a topic, scoped to a group.

    position is the next offset to read and advances on poll; the group's
    committed offset only moves via commit. Not thread-safe: one owner.
    """

    topic: str
    group: str
    position: int
    last_polled: int | None = None


class _Topic:
    """payloads[i] holds offset base + i, for every offset from the slowest
    group's commit + 1 to the end, so len(payloads) is that group's
    uncommitted count. commit cuts the committed prefix off, so an
    append costs O(1) and a poll O(batch). Every field is guarded by lock,
    which cond (consumers) and space (the producer) share; waiting counts
    the consumers asleep on cond."""

    def __init__(self, retention: int, groups: tuple[str, ...]) -> None:
        self.retention = retention
        self.groups = frozenset(groups)
        self.payloads: list[Any] = []
        self.base = 0
        self.next_offset = 0
        self.committed: dict[str, int] = {}
        self.closed = False
        self.waiting = 0
        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)
        self.space = threading.Condition(self.lock)

    def trim(self) -> None:
        """Drop every record all groups have committed, and wake the producer."""
        low = min(self.committed.get(g, -1) + 1 for g in self.groups)
        if low > self.base:
            del self.payloads[: low - self.base]
            self.base = low
            self.space.notify_all()


DEFAULT_RETENTION_RECORDS = 1_000


class StreamLog:
    """In-process broker: named topics, consumer groups, bounded lead."""

    def __init__(self, retention: int = DEFAULT_RETENTION_RECORDS) -> None:
        if retention <= 0:
            raise ValueError("retention must be positive")
        self._retention = retention
        self._topics: dict[str, _Topic] = {}
        self._lock = threading.Lock()  # topic creation only; each topic has its own

    def create_topic(self, name: str, groups: tuple[str, ...]) -> None:
        """Create a topic read by the given consumer groups, and only by them."""
        if not groups:
            raise ValueError(f"topic {name!r} needs at least one consumer group")
        with self._lock:
            if name in self._topics:
                raise ValueError(f"topic {name!r} already exists")
            self._topics[name] = _Topic(self._retention, groups)

    def _topic(self, name: str) -> _Topic:
        try:
            return self._topics[name]
        except KeyError:
            raise TopicMissing(name) from None

    def append(self, topic: str, payload: Any) -> int:
        """Append one record and wake the topic's waiting consumers, if
        any; returns its assigned offset. Blocks while the slowest group
        has retention records uncommitted; raises TopicClosed once the
        topic is closed."""
        t = self._topic(topic)
        with t.lock:
            while not t.closed and len(t.payloads) >= t.retention:
                t.space.wait()
            if t.closed:
                raise TopicClosed(topic)
            t.payloads.append(payload)
            t.next_offset += 1
            if t.waiting:
                t.cond.notify_all()
            return t.next_offset - 1

    def close(self, topic: str) -> None:
        """Mark the end of the topic's stream and wake every waiter, held-back
        appends too. Idempotent; the records held stay readable."""
        t = self._topic(topic)
        with t.lock:
            t.closed = True
            t.cond.notify_all()
            t.space.notify_all()

    def wait(self, handle: ConsumerHandle) -> bool:
        """Block until a record exists at the handle's position (True), or
        until the topic is closed with nothing left to read (False)."""
        t = self._topic(handle.topic)
        with t.lock:
            while handle.position >= t.next_offset:
                if t.closed:
                    return False
                t.waiting += 1
                try:
                    t.cond.wait()
                finally:
                    t.waiting -= 1
            return True

    def subscribe(self, topic: str, group: str) -> ConsumerHandle:
        """A new handle for one of the topic's groups, right after the
        group's last commit: offset 0 for a group that never committed."""
        t = self._topic(topic)
        with t.lock:
            if group not in t.groups:
                raise ValueError(f"{topic}: {group!r} is not a group of this topic")
            return ConsumerHandle(topic=topic, group=group,
                                  position=t.committed.get(group, -1) + 1)

    def poll(self, handle: ConsumerHandle, max_records: int) -> list[tuple[int, Any]]:
        """Up to max_records (offset, payload) pairs from the handle's
        position, in offset order; advances the read position, not the
        commit. Empty when caught up. Raises ValueError when the records
        at the position were released: its group committed past it through
        another handle.
        """
        if max_records <= 0:
            raise ValueError("max_records must be positive")
        t = self._topic(handle.topic)
        with t.lock:
            start = handle.position - t.base
            if start < 0:
                raise ValueError(f"{handle.topic}/{handle.group}: position "
                                 f"{handle.position} precedes the oldest record held, {t.base}")
            out = list(enumerate(t.payloads[start : start + max_records], handle.position))
            if out:
                handle.position += len(out)
                handle.last_polled = handle.position - 1
            return out

    def commit(self, handle: ConsumerHandle, offset: int) -> None:
        """Mark the group's progress, releasing what every group has
        committed; subscribe delivers offset+1 next."""
        if handle.last_polled is None or offset > handle.last_polled:
            raise ValueError(
                f"cannot commit {offset}: beyond last polled offset {handle.last_polled}"
            )
        t = self._topic(handle.topic)
        with t.lock:
            current = t.committed.get(handle.group)
            if current is not None and offset < current:
                raise CommitRegression(
                    f"{handle.topic}/{handle.group}: commit {offset} behind {current}"
                )
            t.committed[handle.group] = offset
            t.trim()

    def earliest_offset(self, topic: str) -> int:
        """The offset of the oldest record the topic holds (the next offset
        when it holds none)."""
        t = self._topic(topic)
        with t.lock:
            return t.base
