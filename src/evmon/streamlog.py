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
lost records.

Appends are linearizable per broker (one lock); a ConsumerHandle belongs
to a single owner thread.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any


class TopicMissing(KeyError):
    """The named topic has not been created."""


class OffsetEvicted(Exception):
    """A start offset or read position precedes the earliest retained record."""


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
    def __init__(self, name: str, max_records: int) -> None:
        self.name = name
        self.payloads: deque[Any] = deque(maxlen=max_records)
        self.next_offset = 0
        self.committed: dict[str, int] = {}

    @property
    def earliest(self) -> int:
        return self.next_offset - len(self.payloads)


DEFAULT_RETENTION_RECORDS = 100_000


class StreamLog:
    """In-process broker: named topics, retention, consumer groups."""

    def __init__(self, default_retention: int = DEFAULT_RETENTION_RECORDS) -> None:
        self._default_retention = default_retention
        self._topics: dict[str, _Topic] = {}
        self._lock = threading.Lock()

    def create_topic(self, name: str, max_records: int | None = None) -> None:
        with self._lock:
            if name in self._topics:
                raise ValueError(f"topic {name!r} already exists")
            retention = max_records if max_records is not None else self._default_retention
            if retention <= 0:
                raise ValueError("retention must be positive")
            self._topics[name] = _Topic(name, retention)

    def _topic(self, name: str) -> _Topic:
        try:
            return self._topics[name]
        except KeyError:
            raise TopicMissing(name) from None

    def append(self, topic: str, payload: Any) -> int:
        """Append one record; returns its assigned offset."""
        with self._lock:
            t = self._topic(topic)
            t.payloads.append(payload)
            t.next_offset += 1
            return t.next_offset - 1

    def subscribe(self, topic: str, group: str, start: StartPosition = FromEarliest()) -> ConsumerHandle:
        """Position a new handle for the group per the start mode.

        AtOffset raises OffsetEvicted when the offset precedes the earliest
        retained record; an offset at or beyond the end is allowed and
        simply waits for future appends.
        """
        with self._lock:
            t = self._topic(topic)
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
        with self._lock:
            t = self._topic(topic)
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
        with self._lock:
            t = self._topic(handle.topic)
            if handle.position < t.earliest:
                raise OffsetEvicted(
                    f"{handle.topic}/{handle.group}: position {handle.position} "
                    f"precedes earliest retained {t.earliest}"
                )
            start_index = handle.position - t.earliest
            payloads = list(t.payloads)[start_index : start_index + max_records]
            out = list(enumerate(payloads, handle.position))
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
        with self._lock:
            t = self._topic(handle.topic)
            current = t.committed.get(handle.group)
            if current is not None and offset < current:
                raise CommitRegression(
                    f"{handle.topic}/{handle.group}: commit {offset} behind {current}"
                )
            t.committed[handle.group] = offset

    def committed(self, topic: str, group: str) -> int | None:
        with self._lock:
            return self._topic(topic).committed.get(group)

    def earliest_offset(self, topic: str) -> int:
        with self._lock:
            return self._topic(topic).earliest

    def end_offset(self, topic: str) -> int:
        """The offset the next append will receive."""
        with self._lock:
            return self._topic(topic).next_offset
