"""Embedded append-only retention log with consumer-group offsets.

Stands in for an external message broker: temporary retention plus fan-out
to parallel consumers. Each topic is a single ordered partition; offsets
start at 0 and increase by exactly 1 per append; count retention evicts
only a prefix. Consumer groups are independent, so every group observes
every retained record (broadcast across groups), while a group's committed
offset survives its handles and drives resume-after-kill delivery.

The log lives inside the process, so payloads are any Python objects and
are handed to every consumer as they were appended, never copied or
serialized; producers append immutable records. A handle whose position
fell behind retention raises OffsetEvicted on poll instead of skipping the
lost records. A poll slices only the batch it returns, so its cost does
not grow with retention.

Consumers do not poll on a timer: after an empty poll, wait blocks until
the next append or until the producer closes the topic, which marks the
end of its stream. A closed topic accepts no further appends.

Each topic has its own lock, the lock of the Condition its waiters sleep
on, so appends are linearizable per topic and threads working on different
topics never contend. A ConsumerHandle belongs to a single owner thread.
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
    """An append to a topic whose producer already closed it."""


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
    once and cut off the front when as many as max_records piled up, so an
    append costs O(1) amortized and a poll O(batch). Every field is guarded
    by cond's lock."""

    def __init__(self, max_records: int) -> None:
        self.max_records = max_records
        self.payloads: list[Any] = []
        self.base = 0
        self.next_offset = 0
        self.committed: dict[str, int] = {}
        self.closed = False
        self.cond = threading.Condition(threading.Lock())

    @property
    def earliest(self) -> int:
        return max(self.base, self.next_offset - self.max_records)


DEFAULT_RETENTION_RECORDS = 100_000


class StreamLog:
    """In-process broker: named topics, retention, consumer groups."""

    def __init__(self, default_retention: int = DEFAULT_RETENTION_RECORDS) -> None:
        self._default_retention = default_retention
        self._topics: dict[str, _Topic] = {}
        self._lock = threading.Lock()  # topic creation only; each topic has its own

    def create_topic(self, name: str, max_records: int | None = None) -> None:
        with self._lock:
            if name in self._topics:
                raise ValueError(f"topic {name!r} already exists")
            retention = max_records if max_records is not None else self._default_retention
            if retention <= 0:
                raise ValueError("retention must be positive")
            self._topics[name] = _Topic(retention)

    def _topic(self, name: str) -> _Topic:
        try:
            return self._topics[name]
        except KeyError:
            raise TopicMissing(name) from None

    def append(self, topic: str, payload: Any) -> int:
        """Append one record and wake the topic's waiters; returns its
        assigned offset. Raises TopicClosed once the topic is closed."""
        t = self._topic(topic)
        with t.cond:
            if t.closed:
                raise TopicClosed(topic)
            t.payloads.append(payload)
            t.next_offset += 1
            evicted = t.next_offset - t.max_records - 1 - t.base
            if evicted >= 0:
                t.payloads[evicted] = None
                if evicted + 1 >= t.max_records:
                    del t.payloads[: evicted + 1]
                    t.base += evicted + 1
            t.cond.notify_all()
            return t.next_offset - 1

    def close(self, topic: str) -> None:
        """Mark the end of the topic's stream and wake every waiter.
        Idempotent; the retained records stay readable."""
        t = self._topic(topic)
        with t.cond:
            t.closed = True
            t.cond.notify_all()

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

    def committed(self, topic: str, group: str) -> int | None:
        t = self._topic(topic)
        with t.cond:
            return t.committed.get(group)

    def earliest_offset(self, topic: str) -> int:
        t = self._topic(topic)
        with t.cond:
            return t.earliest
