import random
import sys
import threading
import time

import pytest

from evmon.streamlog import (
    CommitRegression,
    StreamLog,
    TopicClosed,
    TopicMissing,
)


def fresh(groups=("g",)):
    broker = StreamLog()
    broker.create_topic("t", groups=groups)
    return broker


def consume_and_commit(broker, group, max_records):
    handle = broker.subscribe("t", group)
    batch = broker.poll(handle, max_records)
    broker.commit(handle, batch[-1][0])
    return handle


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


def test_earliest_offset_follows_the_slowest_commit():
    broker = fresh(groups=("slow", "fast"))
    for i in range(1_000):
        broker.append("t", b"%d" % i)
    consume_and_commit(broker, "fast", 600)
    assert broker.earliest_offset("t") == 0  # "slow" has committed nothing
    consume_and_commit(broker, "slow", 250)
    assert broker.earliest_offset("t") == 250
    consume_and_commit(broker, "slow", 500)
    assert broker.earliest_offset("t") == 600  # now "fast" is the slowest
    handle = broker.subscribe("t", "fast")
    assert [o for o, _ in broker.poll(handle, 2_000)] == list(range(600, 1_000))


def test_subscribe_an_undeclared_group_raises():
    broker = fresh(groups=("g",))
    broker.append("t", 0)
    with pytest.raises(ValueError, match="'other'"):
        broker.subscribe("t", "other")


def test_a_topic_needs_a_consumer_group():
    broker = StreamLog()
    with pytest.raises(ValueError, match="at least one consumer group"):
        broker.create_topic("t", groups=())
    with pytest.raises(TopicMissing):
        broker.append("t", 0)


def test_two_groups_both_see_everything():
    broker = fresh(groups=("g1", "g2"))
    payloads = [b"%d" % i for i in range(5)]
    for p in payloads:
        broker.append("t", p)
    for group in ("g1", "g2"):
        handle = broker.subscribe("t", group)
        got = [payload for _, payload in broker.poll(handle, 10)]
        assert got == payloads


def test_poll_at_a_released_position_raises_instead_of_skipping():
    """A handle whose group committed past it through another handle reads
    nothing wrong: its poll raises."""
    broker = fresh()
    for i in range(10):
        broker.append("t", i)
    stale = broker.subscribe("t", "g")
    assert [o for o, _ in broker.poll(stale, 2)] == [0, 1]
    consume_and_commit(broker, "g", 5)
    with pytest.raises(ValueError, match="precedes"):
        broker.poll(stale, 10)


def test_poll_hands_back_the_appended_object():
    broker = fresh()
    record = {"number": 7}
    broker.append("t", record)
    [(offset, payload)] = broker.poll(broker.subscribe("t", "g"), 10)
    assert offset == 0
    assert payload is record


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
    resumed = broker.subscribe("t", "g")
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
        handle = broker.subscribe("t", "g")
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
    handle = broker.subscribe("t", "g")
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


def test_append_after_close_raises():
    """An append after close raises; the records held stay readable."""
    broker = fresh()
    for i in range(3):
        broker.append("t", i)
    broker.close("t")
    broker.close("t")  # idempotent
    with pytest.raises(TopicClosed):
        broker.append("t", 3)
    assert broker.earliest_offset("t") == 0
    handle = broker.subscribe("t", "g")
    assert [o for o, _ in broker.poll(handle, 2)] == [0, 1]
    assert [o for o, _ in broker.poll(handle, 2)] == [2]
    assert broker.poll(handle, 2) == []


def test_poll_matches_reference_model_across_compactions():
    """Two groups polling batches of varying size and committing random
    offsets between bursts of appends: every batch agrees with a plain list
    of everything appended, and the earliest offset is the lowest commit
    + 1."""
    groups = ("g0", "g1")
    broker = fresh(groups=groups)
    handles = {g: broker.subscribe("t", g) for g in groups}
    committed = dict.fromkeys(groups, -1)
    rng = random.Random(5)
    appended = []
    while len(appended) < 1_000:
        for _ in range(rng.randint(0, 3)):
            assert broker.append("t", ("p", len(appended))) == len(appended)
            appended.append(("p", len(appended)))
        group = rng.choice(groups)
        handle = handles[group]
        position, max_records = handle.position, rng.randint(1, 5)
        end = min(position + max_records, len(appended))
        assert broker.poll(handle, max_records) == [(o, appended[o]) for o in range(position, end)]
        if handle.last_polled is not None and rng.random() < 0.7:
            offset = rng.randint(committed[group], handle.last_polled)
            if offset >= 0:
                broker.commit(handle, offset)
                committed[group] = offset
        assert broker.earliest_offset("t") == min(committed.values()) + 1
    assert broker.earliest_offset("t") > 0


def test_groups_polling_in_other_threads_see_every_record_once():
    """Four groups poll and commit in random batch sizes, each in a thread
    of its own, while a producer appends 2,000 records under fast thread
    switching: each group sees every record once, in order, and once all
    have committed the topic holds nothing."""
    groups = [f"g{n}" for n in range(4)]
    broker = fresh(groups=groups)
    total = 2_000
    seen = {}

    def consume(group, seed):
        rng = random.Random(seed)
        handle = broker.subscribe("t", group)
        offsets = []
        deadline = time.monotonic() + 30
        while len(offsets) < total and time.monotonic() < deadline:
            batch = broker.poll(handle, rng.randint(1, 8))
            if batch:
                offsets += [o for o, _ in batch]
                broker.commit(handle, batch[-1][0])
        seen[group] = offsets

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        consumers = [threading.Thread(target=consume, args=(g, n), daemon=True)
                     for n, g in enumerate(groups)]
        for t in consumers:
            t.start()
        for i in range(total):
            broker.append("t", i)
        for t in consumers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(t.is_alive() for t in consumers)
    assert seen == {g: list(range(total)) for g in groups}
    assert broker.earliest_offset("t") == total
