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


def fresh(retention=100_000, groups=("g",)):
    broker = StreamLog(retention=retention)
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
    broker = fresh(retention=1_000, groups=("slow", "fast"))
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


def test_wait_returns_at_once_when_a_record_is_there():
    broker = fresh()
    broker.append("t", b"x")
    assert broker.wait(broker.subscribe("t", "g")) is True


def test_wait_wakes_on_append_from_another_thread():
    broker = fresh()
    handle = broker.subscribe("t", "g")
    woke = []
    waiter = threading.Thread(target=lambda: woke.append(broker.wait(handle)), daemon=True)
    waiter.start()
    broker.append("t", b"x")
    waiter.join(timeout=5)
    assert not waiter.is_alive()
    assert woke == [True]


def test_wait_after_close_drains_then_returns_false():
    broker = fresh()
    for i in range(3):
        broker.append("t", b"%d" % i)
    broker.close("t")
    broker.close("t")  # idempotent
    handle = broker.subscribe("t", "g")
    assert broker.wait(handle) is True
    assert [o for o, _ in broker.poll(handle, 2)] == [0, 1]
    assert broker.wait(handle) is True
    assert [o for o, _ in broker.poll(handle, 2)] == [2]
    assert broker.wait(handle) is False


def test_close_wakes_a_waiter():
    broker = fresh()
    handle = broker.subscribe("t", "g")
    woke = []
    waiter = threading.Thread(target=lambda: woke.append(broker.wait(handle)), daemon=True)
    waiter.start()
    broker.close("t")
    waiter.join(timeout=5)
    assert not waiter.is_alive()
    assert woke == [False]


def test_append_after_close_raises():
    broker = fresh()
    broker.append("t", b"x")
    broker.close("t")
    with pytest.raises(TopicClosed):
        broker.append("t", b"y")
    assert broker.earliest_offset("t") == 0


def test_poll_matches_reference_model_across_compactions():
    """Retention 3, two groups polling batches of varying size and
    committing random offsets between bursts of appends: every batch agrees
    with a plain list of everything appended, and the earliest offset is
    the lowest commit + 1."""
    retention = 3
    groups = ("g0", "g1")
    broker = fresh(retention=retention, groups=groups)
    handles = {g: broker.subscribe("t", g) for g in groups}
    committed = dict.fromkeys(groups, -1)
    rng = random.Random(5)
    appended = []
    while len(appended) < 1_000:
        # the slowest group has len(appended) - 1 - min(committed) uncommitted
        room = retention - (len(appended) - 1 - min(committed.values()))
        for _ in range(rng.randint(0, room)):
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


def test_waiting_consumers_see_every_record_then_the_end():
    """Four groups block on the log while a producer appends, then closes
    once all of them caught up: each sees every record once, in order, and
    then the end. A lost wake-up would leave a consumer hanging."""
    groups = [f"g{n}" for n in range(4)]
    broker = fresh(groups=groups)
    total = 2_000
    read = {}
    seen = {}

    def consume(group):
        handle = broker.subscribe("t", group)
        offsets = []
        while True:
            batch = broker.poll(handle, 50)
            if batch:
                offsets += [o for o, _ in batch]
                read[group] = len(offsets)
            elif not broker.wait(handle):
                break
        seen[group] = offsets

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        consumers = [threading.Thread(target=consume, args=(g,), daemon=True) for g in groups]
        for t in consumers:
            t.start()
        for i in range(total):
            broker.append("t", i)
        deadline = time.monotonic() + 10
        while any(read.get(g) != total for g in groups) and time.monotonic() < deadline:
            time.sleep(0.001)
        broker.close("t")
        for t in consumers:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(t.is_alive() for t in consumers)
    assert seen == {g: list(range(total)) for g in groups}


def test_append_blocks_until_a_registered_group_commits():
    broker = StreamLog(retention=2)
    broker.create_topic("t", groups=("g",))
    assert [broker.append("t", i) for i in range(2)] == [0, 1]
    appended = threading.Event()
    producer = threading.Thread(target=lambda: (broker.append("t", 2), appended.set()),
                                daemon=True)
    producer.start()
    assert not appended.wait(0.05)
    handle = broker.subscribe("t", "g")
    assert [o for o, _ in broker.poll(handle, 10)] == [0, 1]
    assert not appended.wait(0.05)  # read, but not committed
    broker.commit(handle, 0)
    assert appended.wait(5)
    producer.join(timeout=5)
    assert not producer.is_alive()
    assert [o for o, _ in broker.poll(handle, 10)] == [2]
    assert broker.earliest_offset("t") == 1


def test_close_wakes_a_blocked_appender():
    broker = StreamLog(retention=1)
    broker.create_topic("t", groups=("g",))
    broker.append("t", 0)
    raised = []

    def produce():
        try:
            broker.append("t", 1)
        except TopicClosed:
            raised.append(True)

    producer = threading.Thread(target=produce, daemon=True)
    producer.start()
    producer.join(timeout=0.05)
    assert producer.is_alive()
    broker.close("t")
    producer.join(timeout=5)
    assert not producer.is_alive()
    assert raised == [True]
    assert [p for _, p in broker.poll(broker.subscribe("t", "g"), 10)] == [0]


def test_registered_groups_see_every_record_through_a_tiny_retention():
    """Retention 3, two registered groups reading in random batch sizes
    while a producer appends 2,000 records under fast thread switching:
    each group sees every record once, in order, and none is lost."""
    broker = StreamLog(retention=3)
    broker.create_topic("t", groups=("g0", "g1"))
    total = 2_000
    seen = {}

    def consume(group, seed):
        rng = random.Random(seed)
        handle = broker.subscribe("t", group)
        offsets = []
        while True:
            batch = broker.poll(handle, rng.randint(1, 4))
            if batch:
                offsets += [o for o, _ in batch]
                broker.commit(handle, batch[-1][0])
            elif not broker.wait(handle):
                break
        seen[group] = offsets

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        consumers = [threading.Thread(target=consume, args=(g, n), daemon=True)
                     for n, g in enumerate(("g0", "g1"))]
        for t in consumers:
            t.start()
        for i in range(total):
            broker.append("t", i)
        broker.close("t")
        for t in consumers:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(t.is_alive() for t in consumers)
    assert seen == {g: list(range(total)) for g in ("g0", "g1")}


@pytest.mark.parametrize("retention", [1, 2, 3, 100_000])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_consumer_alternating_poll_and_wait_sees_every_burst(retention, seed):
    """A producer appends seeded bursts with pauses between them, so the
    consumer keeps catching up and sleeping in wait, where only an append
    that finds it counted as waiting wakes it. At retention 1-3 the
    producer is also held back, and only the consumer's commit wakes it.
    The consumer catches up before the close and sees every record once,
    in order, then the end. A lost wake-up of the consumer fails the
    catch-up; one of the producer hangs, and hang_guard ends the run."""
    broker = fresh(retention=retention)
    rng = random.Random(seed)
    bursts = [rng.randint(1, 40) for _ in range(60)]
    seen = []

    def consume():
        batch_sizes = random.Random(seed + 1)
        handle = broker.subscribe("t", "g")
        while True:
            batch = broker.poll(handle, batch_sizes.randint(1, 8))
            if batch:
                seen.extend(payload for _, payload in batch)
                broker.commit(handle, batch[-1][0])
            elif not broker.wait(handle):
                return

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        n = 0
        for size in bursts:
            for _ in range(size):
                broker.append("t", n)
                n += 1
            time.sleep(rng.choice((0, 0, 0.0005)))  # a pause lets the consumer wait
        deadline = time.monotonic() + 10
        while len(seen) < n and time.monotonic() < deadline:  # woken by appends alone
            time.sleep(0.001)
        caught_up = len(seen)
        broker.close("t")
        consumer.join(timeout=30)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not consumer.is_alive()
    assert caught_up == n
    assert seen == list(range(n))


def test_an_append_with_no_consumer_waiting_notifies_no_one(monkeypatch):
    notified = []
    notify_all = threading.Condition.notify_all
    monkeypatch.setattr(threading.Condition, "notify_all",
                        lambda self: (notified.append(self), notify_all(self))[1])
    broker = fresh()
    handle = broker.subscribe("t", "g")
    for i in range(100):
        broker.append("t", i)
    assert [p for _, p in broker.poll(handle, 200)] == list(range(100))
    assert notified == []  # no consumer was waiting
