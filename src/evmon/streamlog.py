"""Embedded append-only log with consumer-group offsets.

Stands in for an external message broker: temporary retention plus fan-out
to parallel consumers. Each topic is a single ordered partition; offsets
start at 0 and increase by exactly 1 per append. A topic's consumer groups
are declared when it is created and are independent, so every group
observes every record (broadcast across groups), while a group's committed
offset survives its handles and drives resume-after-kill delivery.

One retention rule: a topic keeps a record until every group it was
created with has committed it. A topic's groups are fixed at creation,
and it needs at least one. The log sets no bound of its own: a producer
that also drives its topic's consumers, as evmon's do, bounds what the
topic holds by how often it runs them.

Payloads are any Python objects, handed to every consumer as they were
appended, never copied or serialized. A poll slices only the batch it
returns, and nothing ever blocks: a caught-up poll returns empty. close
ends a topic's stream: every later append raises TopicClosed, and the
records held stay readable. It is how a consumer that ends early stops
its producer.

Each topic has its own lock, held only for the length of one call. A
ConsumerHandle belongs to a single owner thread.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any


class TopicMissing(KeyError):
    """The named topic has not been created."""


class TopicClosed(Exception):
    """An append to a topic that is closed."""


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
    append costs O(1) and a poll O(batch). Every field is guarded by lock."""

    def __init__(self, groups: tuple[str, ...]) -> None:
        self.groups = frozenset(groups)
        self.payloads: list[Any] = []
        self.base = 0
        self.next_offset = 0
        self.committed: dict[str, int] = {}
        self.closed = False
        self.lock = threading.Lock()

    def trim(self) -> None:
        """Drop every record all groups have committed."""
        low = min(self.committed.get(g, -1) + 1 for g in self.groups)
        if low > self.base:
            del self.payloads[: low - self.base]
            self.base = low


class StreamLog:
    """In-process broker: named topics and consumer groups."""

    def __init__(self) -> None:
        self._topics: dict[str, _Topic] = {}
        self._lock = threading.Lock()  # topic creation only; each topic has its own

    def create_topic(self, name: str, groups: tuple[str, ...]) -> None:
        """Create a topic read by the given consumer groups, and only by them."""
        if not groups:
            raise ValueError(f"topic {name!r} needs at least one consumer group")
        with self._lock:
            if name in self._topics:
                raise ValueError(f"topic {name!r} already exists")
            self._topics[name] = _Topic(groups)

    def _topic(self, name: str) -> _Topic:
        try:
            return self._topics[name]
        except KeyError:
            raise TopicMissing(name) from None

    def append(self, topic: str, payload: Any) -> int:
        """Append one record; returns its assigned offset. Raises
        TopicClosed once the topic is closed."""
        t = self._topic(topic)
        with t.lock:
            if t.closed:
                raise TopicClosed(topic)
            t.payloads.append(payload)
            t.next_offset += 1
            return t.next_offset - 1

    def close(self, topic: str) -> None:
        """Mark the end of the topic's stream: later appends raise.
        Idempotent; the records held stay readable."""
        t = self._topic(topic)
        with t.lock:
            t.closed = True

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
