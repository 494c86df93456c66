import random
import threading

import pytest

from evmon.streamlog import (
    AtOffset,
    CommitRegression,
    FromEarliest,
    FromLatest,
    OffsetEvicted,
    StreamLog,
    TopicMissing,
)


def fresh(retention=100_000):
    broker = StreamLog(default_retention=retention)
    broker.create_topic("t")
    return broker


def test_first_append_gets_offset_zero():
    broker = fresh()
    assert broker.append("t", b"a") == 0


def test_offsets_are_consecutive():
    broker = fresh()
    assert [broker.append("t", bytes([i])) for i in range(3)] == [0, 1, 2]


def test_append_to_missing_topic():
    broker = StreamLog()
    with pytest.raises(TopicMissing):
        broker.append("nope", b"x")


def test_retention_evicts_prefix_only():
    broker = fresh(retention=1_000)
    for i in range(10_000):
        broker.append("t", b"%d" % i)
    assert broker.earliest_offset("t") == 9_000
    handle = broker.subscribe("t", "g", FromEarliest())
    offsets = [offset for offset, _ in broker.poll(handle, 2_000)]
    assert offsets == list(range(9_000, 10_000))


def test_two_groups_both_see_everything():
    broker = fresh()
    payloads = [b"%d" % i for i in range(5)]
    for p in payloads:
        broker.append("t", p)
    for group in ("g1", "g2"):
        handle = broker.subscribe("t", group, FromEarliest())
        got = [payload for _, payload in broker.poll(handle, 10)]
        assert got == payloads


def test_subscribe_at_evicted_offset_fails():
    broker = fresh(retention=3)
    for i in range(8):
        broker.append("t", b"%d" % i)
    with pytest.raises(OffsetEvicted):
        broker.subscribe("t", "g", AtOffset(3))
    handle = broker.subscribe("t", "g", AtOffset(5))
    assert [o for o, _ in broker.poll(handle, 10)] == [5, 6, 7]


def test_poll_behind_retention_raises_instead_of_skipping():
    broker = fresh(retention=3)
    broker.append("t", b"0")
    handle = broker.subscribe("t", "g")
    assert [o for o, _ in broker.poll(handle, 1)] == [0]
    for i in range(10):
        broker.append("t", b"%d" % (i + 1))
    with pytest.raises(OffsetEvicted):
        broker.poll(handle, 10)


def test_poll_hands_back_the_appended_object():
    broker = fresh()
    record = {"number": 7}
    broker.append("t", record)
    [(offset, payload)] = broker.poll(broker.subscribe("t", "g"), 10)
    assert offset == 0
    assert payload is record


def test_subscribe_latest_sees_only_later_appends():
    broker = fresh()
    broker.append("t", b"old")
    handle = broker.subscribe("t", "g", FromLatest())
    broker.append("t", b"new1")
    broker.append("t", b"new2")
    assert [p for _, p in broker.poll(handle, 10)] == [b"new1", b"new2"]


def test_poll_caught_up_returns_empty():
    broker = fresh()
    handle = broker.subscribe("t", "g")
    assert broker.poll(handle, 10) == []


def test_poll_respects_max_and_order():
    broker = fresh()
    for i in range(5):
        broker.append("t", b"%d" % i)
    handle = broker.subscribe("t", "g")
    assert [o for o, _ in broker.poll(handle, 2)] == [0, 1]
    assert [o for o, _ in broker.poll(handle, 2)] == [2, 3]


def test_interleaved_append_poll_sees_each_once():
    broker = fresh()
    handle = broker.subscribe("t", "g")
    seen = []
    for i in range(1000):
        broker.append("t", b"%d" % i)
        if i % 3 == 0:
            seen += [o for o, _ in broker.poll(handle, 2)]
    seen += [o for o, _ in broker.poll(handle, 2000)]
    assert seen == list(range(1000))


def test_commit_resume_continues_after_committed():
    broker = fresh()
    for i in range(20):
        broker.append("t", b"%d" % i)
    handle = broker.subscribe("t", "g")
    broker.poll(handle, 11)
    broker.commit(handle, 10)
    resumed = broker.resume("t", "g")
    assert [o for o, _ in broker.poll(resumed, 1)] == [11]


def test_commit_regression_rejected():
    broker = fresh()
    for i in range(20):
        broker.append("t", b"%d" % i)
    handle = broker.subscribe("t", "g")
    broker.poll(handle, 15)
    broker.commit(handle, 10)
    with pytest.raises(CommitRegression):
        broker.commit(handle, 5)


def test_commit_beyond_poll_rejected():
    broker = fresh()
    broker.append("t", b"x")
    handle = broker.subscribe("t", "g")
    with pytest.raises(ValueError):
        broker.commit(handle, 0)
    broker.poll(handle, 1)
    with pytest.raises(ValueError):
        broker.commit(handle, 5)


def test_delivered_offsets_strictly_increase_per_consumer():
    broker = fresh()
    for i in range(500):
        broker.append("t", b"%d" % i)
    handle = broker.subscribe("t", "g")
    delivered = []
    while True:
        batch = broker.poll(handle, 7)
        if not batch:
            break
        delivered += [o for o, _ in batch]
    assert delivered == sorted(set(delivered))


def test_kill_resume_cycles_deliver_everything():
    """Replay oracle: across random kill/commit/resume points, the union of
    deliveries covers the topic and nothing before a commit is redelivered.
    """
    broker = fresh()
    total = 2_000
    for i in range(total):
        broker.append("t", b"%d" % i)
    rng = random.Random(99)
    delivered = set()
    committed = -1
    for _ in range(30):
        handle = broker.resume("t", "g")
        polled = []
        for _ in range(rng.randint(1, 5)):
            polled += [o for o, _ in broker.poll(handle, rng.randint(1, 200))]
        delivered.update(polled)
        if polled:
            assert min(polled) == committed + 1  # no post-commit redelivery
            commit_to = rng.choice(polled)
            broker.commit(handle, commit_to)
            committed = commit_to
        # handle dropped here = consumer killed with uncommitted progress
    handle = broker.resume("t", "g")
    while True:
        batch = broker.poll(handle, 500)
        if not batch:
            break
        delivered.update(o for o, _ in batch)
    assert delivered == set(range(total))


def test_concurrent_appends_are_gapless():
    broker = fresh()

    def producer(base):
        for i in range(500):
            broker.append("t", b"%d:%d" % (base, i))

    threads = [threading.Thread(target=producer, args=(n,)) for n in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    handle = broker.subscribe("t", "g")
    offsets = []
    while True:
        batch = broker.poll(handle, 200)
        if not batch:
            break
        offsets += [o for o, _ in batch]
    assert offsets == list(range(2_000))
