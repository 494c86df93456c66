import random
import sys
import threading
import time

import pytest

from evmon.streamlog import (
    CommitRegression,
    StreamLog,
    TopicMissing,
)


def fresh():
    broker = StreamLog()
    broker.create_topic("t")
    return broker


def consume_and_commit(broker, max_records):
    handle = broker.subscribe("t")
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


def test_earliest_offset_follows_the_commit():
    broker = fresh()
    for i in range(1_000):
        broker.append("t", b"%d" % i)
    assert broker.earliest_offset("t") == 0  # nothing committed yet
    consume_and_commit(broker, 250)
    assert broker.earliest_offset("t") == 250
    consume_and_commit(broker, 350)
    assert broker.earliest_offset("t") == 600
    handle = broker.subscribe("t")
    assert [o for o, _ in broker.poll(handle, 2_000)] == list(range(600, 1_000))
    broker.commit(handle, 999)
    assert broker.earliest_offset("t") == 1_000
    assert broker.append("t", b"x") == 1_000


def test_poll_at_a_released_position_raises_instead_of_skipping():
    """A handle whose topic was committed past it through another handle
    reads nothing wrong: its poll raises."""
    broker = fresh()
    for i in range(10):
        broker.append("t", i)
    stale = broker.subscribe("t")
    assert [o for o, _ in broker.poll(stale, 2)] == [0, 1]
    consume_and_commit(broker, 5)
    with pytest.raises(ValueError, match="precedes"):
        broker.poll(stale, 10)


def test_poll_hands_back_the_appended_object():
    broker = fresh()
    record = {"number": 7}
    broker.append("t", record)
    [(offset, payload)] = broker.poll(broker.subscribe("t"), 10)
    assert offset == 0
    assert payload is record


def test_poll_caught_up_returns_empty():
    broker = fresh()
    handle = broker.subscribe("t")
    assert broker.poll(handle, 10) == []


def test_poll_respects_max_and_order():
    broker = fresh()
    for i in range(5):
        broker.append("t", b"%d" % i)
    handle = broker.subscribe("t")
    assert [o for o, _ in broker.poll(handle, 2)] == [0, 1]
    assert [o for o, _ in broker.poll(handle, 2)] == [2, 3]


def test_interleaved_append_poll_sees_each_once():
    broker = fresh()
    handle = broker.subscribe("t")
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
    handle = broker.subscribe("t")
    broker.poll(handle, 11)
    broker.commit(handle, 10)
    resumed = broker.subscribe("t")
    assert [o for o, _ in broker.poll(resumed, 1)] == [11]


def test_commit_regression_rejected():
    broker = fresh()
    for i in range(20):
        broker.append("t", b"%d" % i)
    handle = broker.subscribe("t")
    broker.poll(handle, 15)
    broker.commit(handle, 10)
    with pytest.raises(CommitRegression):
        broker.commit(handle, 5)


def test_commit_beyond_poll_rejected():
    broker = fresh()
    broker.append("t", b"x")
    handle = broker.subscribe("t")
    with pytest.raises(ValueError):
        broker.commit(handle, 0)
    broker.poll(handle, 1)
    with pytest.raises(ValueError):
        broker.commit(handle, 5)


def test_delivered_offsets_strictly_increase_per_consumer():
    broker = fresh()
    for i in range(500):
        broker.append("t", b"%d" % i)
    handle = broker.subscribe("t")
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
        handle = broker.subscribe("t")
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
    handle = broker.subscribe("t")
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
    handle = broker.subscribe("t")
    offsets = []
    while True:
        batch = broker.poll(handle, 200)
        if not batch:
            break
        offsets += [o for o, _ in batch]
    assert offsets == list(range(2_000))


def test_poll_matches_reference_model_across_compactions():
    """One consumer polling batches of varying size, committing random
    offsets and now and then resubscribing, between bursts of appends:
    every batch agrees with a plain list of everything appended, a new
    handle starts right after the commit, and the earliest offset is the
    commit + 1."""
    broker = fresh()
    handle = broker.subscribe("t")
    committed = -1
    rng = random.Random(5)
    appended = []
    while len(appended) < 1_000:
        for _ in range(rng.randint(0, 3)):
            assert broker.append("t", ("p", len(appended))) == len(appended)
            appended.append(("p", len(appended)))
        position, max_records = handle.position, rng.randint(1, 5)
        end = min(position + max_records, len(appended))
        assert broker.poll(handle, max_records) == [(o, appended[o]) for o in range(position, end)]
        if handle.position > committed + 1 and rng.random() < 0.7:
            committed = rng.randint(committed, handle.position - 1)
            broker.commit(handle, committed)
        if rng.random() < 0.1:  # the consumer is killed with uncommitted progress
            handle = broker.subscribe("t")
            assert handle.position == committed + 1
        assert broker.earliest_offset("t") == committed + 1
    assert broker.earliest_offset("t") > 0


def test_groups_polling_in_other_threads_see_every_record_once():
    """One consumer polls and commits in random batch sizes, in a thread of
    its own, while a producer appends 2,000 records under fast thread
    switching: it sees every record once, in order, and once it has
    committed the last the topic holds nothing."""
    broker = fresh()
    total = 2_000
    seen = []

    def consume():
        rng = random.Random(0)
        handle = broker.subscribe("t")
        deadline = time.monotonic() + 30
        while len(seen) < total and time.monotonic() < deadline:
            batch = broker.poll(handle, rng.randint(1, 8))
            if batch:
                seen.extend(o for o, _ in batch)
                broker.commit(handle, batch[-1][0])

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        for i in range(total):
            broker.append("t", i)
        consumer.join(timeout=60)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not consumer.is_alive()
    assert seen == list(range(total))
    assert broker.earliest_offset("t") == total
