"""Embedded append-only log with one committed offset per topic.

Stands in for an external message broker: temporary retention between a
topic's producer and its one consumer. Each topic is a single ordered
partition; offsets start at 0 and increase by exactly 1 per append. The
topic's committed offset survives its handles and drives
resume-after-kill delivery.

One retention rule: a topic keeps a record until it is committed. The
log sets no bound of its own: a producer that also drives its topic's
consumer, as evmon's do, bounds what the topic holds by how often it
runs it.

Payloads are any Python objects, handed to the consumer as they were
appended, never copied or serialized. A poll slices only the batch it
returns, and nothing ever blocks: a caught-up poll returns empty.

Each topic has its own lock, held only for the length of one call. A
ConsumerHandle belongs to a single owner thread.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any


class TopicMissing(KeyError):
    """The named topic has not been created."""


class CommitRegression(Exception):
    """A commit tried to move a topic's offset backwards."""


@dataclass
class ConsumerHandle:
    """One consumer's read position within a topic.

    position is the next offset to read and advances on poll; the topic's
    committed offset only moves via commit. Not thread-safe: one owner.
    """

    topic: str
    position: int


class _Topic:
    """payloads[i] holds offset committed + 1 + i, for every offset after
    the commit, so len(payloads) is the uncommitted count. commit cuts the
    committed prefix off, so an append costs O(1) and a poll O(batch).
    Every field is guarded by lock."""

    def __init__(self) -> None:
        self.payloads: list[Any] = []
        self.committed = -1
        self.lock = threading.Lock()


class StreamLog:
    """In-process broker: named topics, each with one committed offset."""

    def __init__(self) -> None:
        self._topics: dict[str, _Topic] = {}
        self._lock = threading.Lock()  # topic creation only; each topic has its own

    def create_topic(self, name: str) -> None:
        """Create an empty topic, with nothing committed."""
        with self._lock:
            if name in self._topics:
                raise ValueError(f"topic {name!r} already exists")
            self._topics[name] = _Topic()

    def _topic(self, name: str) -> _Topic:
        try:
            return self._topics[name]
        except KeyError:
            raise TopicMissing(name) from None

    def append(self, topic: str, payload: Any) -> int:
        """Append one record; returns its assigned offset."""
        t = self._topic(topic)
        with t.lock:
            t.payloads.append(payload)
            return t.committed + len(t.payloads)

    def subscribe(self, topic: str) -> ConsumerHandle:
        """A new handle right after the topic's last commit: offset 0 for a
        topic never committed."""
        t = self._topic(topic)
        with t.lock:
            return ConsumerHandle(topic=topic, position=t.committed + 1)

    def poll(self, handle: ConsumerHandle, max_records: int) -> list[tuple[int, Any]]:
        """Up to max_records (offset, payload) pairs from the handle's
        position, in offset order; advances the read position, not the
        commit. Empty when caught up. Raises ValueError when the records
        at the position were released: the topic was committed past it
        through another handle.
        """
        if max_records <= 0:
            raise ValueError("max_records must be positive")
        t = self._topic(handle.topic)
        with t.lock:
            start = handle.position - t.committed - 1
            if start < 0:
                raise ValueError(f"{handle.topic}: position {handle.position} "
                                 f"precedes the oldest record held, {t.committed + 1}")
            out = list(enumerate(t.payloads[start : start + max_records], handle.position))
            handle.position += len(out)
            return out

    def commit(self, handle: ConsumerHandle, offset: int) -> None:
        """Mark the topic's progress, releasing every record up to offset;
        subscribe delivers offset+1 next. offset must precede the handle's
        position."""
        if offset >= handle.position:
            raise ValueError(f"cannot commit {offset}: the handle has read only "
                             f"up to {handle.position - 1}")
        t = self._topic(handle.topic)
        with t.lock:
            if offset < t.committed:
                raise CommitRegression(f"{handle.topic}: commit {offset} behind {t.committed}")
            del t.payloads[: offset - t.committed]
            t.committed = offset

    def earliest_offset(self, topic: str) -> int:
        """The offset of the oldest record the topic holds (the next offset
        when it holds none)."""
        t = self._topic(topic)
        with t.lock:
            return t.committed + 1
