"""Embedded append-only retention log with consumer-group offsets.

Stands in for an external message broker: temporary retention plus fan-out
to parallel consumers. Each topic is a single ordered partition; offsets
start at 0 and increase by exactly 1 per append. Consumer groups are
independent, so every group observes every retained record (broadcast
across groups), while a group's committed offset survives its handles and
drives resume-after-kill delivery.

A topic retains its last `retention` records. Groups registered when the
topic is created hold its producer back instead: append blocks while the
slowest of them has `retention` records uncommitted, so none of them loses
a record until it leaves. For other groups retention evicts only a prefix,
and a handle that fell behind raises OffsetEvicted on poll instead of
skipping the lost records.

Payloads are any Python objects, handed to every consumer as they were
appended, never copied or serialized. A poll slices only the batch it
returns. After an empty poll, wait blocks until the next append or until
the producer closes the topic, which ends its stream; close also wakes a
held-back append, which raises TopicClosed.

Each topic has its own lock, shared by two Conditions: consumers sleep on
one and a held-back producer on the other, so an append wakes only
consumers and a commit only the producer. A ConsumerHandle belongs to a
single owner thread.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any


class TopicMissing(KeyError):
    """The named topic has not been created."""


class OffsetEvicted(Exception):
    """A start offset or read position precedes the earliest retained record."""


class TopicClosed(Exception):
    """An append to a topic that is closed, or that closed while it waited."""


class CommitRegression(Exception):
    """A commit tried to move a group's offset backwards."""


@dataclass(frozen=True)
class FromEarliest:
    """Start at the earliest retained record."""


@dataclass(frozen=True)
class FromLatest:
    """Start after the current end: only records appended later."""


@dataclass(frozen=True)
class AtOffset:
    offset: int


StartPosition = FromEarliest | FromLatest | AtOffset


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
    """payloads[i] holds offset base + i. Evicted slots are set to None at
    once and cut off the front when as many as retention piled up, so an
    append costs O(1) amortized and a poll O(batch). Every field is guarded
    by the lock that cond (consumers) and space (the producer) share."""

    def __init__(self, retention: int, groups: tuple[str, ...]) -> None:
        self.retention = retention
        self.groups = set(groups)
        self.payloads: list[Any] = []
        self.base = 0
        self.next_offset = 0
        self.committed: dict[str, int] = {}
        self.closed = False
        lock = threading.Lock()
        self.cond = threading.Condition(lock)
        self.space = threading.Condition(lock)

    @property
    def earliest(self) -> int:
        return max(self.base, self.next_offset - self.retention)

    def unacked(self) -> int:
        """Records the slowest registered group has not committed."""
        last = self.next_offset - 1
        return last - min((self.committed.get(g, -1) for g in self.groups), default=last)


DEFAULT_RETENTION_RECORDS = 100_000


class StreamLog:
    """In-process broker: named topics, retention, consumer groups."""

    def __init__(self, retention: int = DEFAULT_RETENTION_RECORDS) -> None:
        if retention <= 0:
            raise ValueError("retention must be positive")
        self._retention = retention
        self._topics: dict[str, _Topic] = {}
        self._lock = threading.Lock()  # topic creation only; each topic has its own

    def create_topic(self, name: str, groups: tuple[str, ...] = ()) -> None:
        """Create a topic whose groups hold back its producer from the start."""
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
        """Append one record and wake the topic's waiters; returns its
        assigned offset. Blocks while a registered group has retention
        records uncommitted; raises TopicClosed once the topic is closed."""
        t = self._topic(topic)
        with t.cond:
            while not t.closed and t.unacked() >= t.retention:
                t.space.wait()
            if t.closed:
                raise TopicClosed(topic)
            t.payloads.append(payload)
            t.next_offset += 1
            evicted = t.next_offset - t.retention - 1 - t.base
            if evicted >= 0:
                t.payloads[evicted] = None
                if evicted + 1 >= t.retention:
                    del t.payloads[: evicted + 1]
                    t.base += evicted + 1
            t.cond.notify_all()
            return t.next_offset - 1

    def close(self, topic: str) -> None:
        """Mark the end of the topic's stream and wake every waiter, held-back
        appends too. Idempotent; the retained records stay readable."""
        t = self._topic(topic)
        with t.cond:
            t.closed = True
            t.cond.notify_all()
            t.space.notify_all()

    def leave(self, topic: str, group: str) -> None:
        """Stop the group, whose consumer ended, holding back the producer."""
        t = self._topic(topic)
        with t.cond:
            t.groups.discard(group)
            t.space.notify_all()

    def wait(self, handle: ConsumerHandle) -> bool:
        """Block until a record exists at the handle's position (True), or
        until the topic is closed with nothing left to read (False)."""
        t = self._topic(handle.topic)
        with t.cond:
            while handle.position >= t.next_offset:
                if t.closed:
                    return False
                t.cond.wait()
            return True

    def subscribe(self, topic: str, group: str, start: StartPosition = FromEarliest()) -> ConsumerHandle:
        """Position a new handle for the group per the start mode.

        AtOffset raises OffsetEvicted when the offset precedes the earliest
        retained record; an offset at or beyond the end is allowed and
        simply waits for future appends.
        """
        t = self._topic(topic)
        with t.cond:
            if isinstance(start, FromEarliest):
                position = t.earliest
            elif isinstance(start, FromLatest):
                position = t.next_offset
            elif isinstance(start, AtOffset):
                if start.offset < t.earliest:
                    raise OffsetEvicted(
                        f"{topic}: offset {start.offset} precedes earliest retained {t.earliest}"
                    )
                position = start.offset
            else:
                raise TypeError(f"unknown start position {start!r}")
            return ConsumerHandle(topic=topic, group=group, position=position)

    def resume(self, topic: str, group: str) -> ConsumerHandle:
        """Re-subscribe after the group's last commit (Earliest when none)."""
        t = self._topic(topic)
        with t.cond:
            committed = t.committed.get(group)
        if committed is None:
            return self.subscribe(topic, group, FromEarliest())
        return self.subscribe(topic, group, AtOffset(committed + 1))

    def poll(self, handle: ConsumerHandle, max_records: int) -> list[tuple[int, Any]]:
        """Up to max_records (offset, payload) pairs from the handle's
        position, in offset order; advances the read position, not the
        commit. Empty when caught up. Raises OffsetEvicted when the
        position fell behind retention, so no record is lost silently.
        """
        if max_records <= 0:
            raise ValueError("max_records must be positive")
        t = self._topic(handle.topic)
        with t.cond:
            if handle.position < t.earliest:
                raise OffsetEvicted(
                    f"{handle.topic}/{handle.group}: position {handle.position} "
                    f"precedes earliest retained {t.earliest}"
                )
            start = handle.position - t.base
            out = list(enumerate(t.payloads[start : start + max_records], handle.position))
            if out:
                handle.position += len(out)
                handle.last_polled = handle.position - 1
            return out

    def commit(self, handle: ConsumerHandle, offset: int) -> None:
        """Durably mark the group's progress; resume delivers offset+1 next."""
        if handle.last_polled is None or offset > handle.last_polled:
            raise ValueError(
                f"cannot commit {offset}: beyond last polled offset {handle.last_polled}"
            )
        t = self._topic(handle.topic)
        with t.cond:
            current = t.committed.get(handle.group)
            if current is not None and offset < current:
                raise CommitRegression(
                    f"{handle.topic}/{handle.group}: commit {offset} behind {current}"
                )
            t.committed[handle.group] = offset
            t.space.notify_all()

    def earliest_offset(self, topic: str) -> int:
        t = self._topic(topic)
        with t.cond:
            return t.earliest
