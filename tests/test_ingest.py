import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import TEST_CHAIN, constant_fee_scenario, make_header, make_profile
from evmon.ingest import (
    BlockNotFound,
    IngestCursor,
    InvalidHeader,
    MalformedQuantity,
    RpcClient,
    RpcUnavailable,
    decode_block_fields,
    encode_quantity,
    parse_quantity,
    poll_chain,
)
from evmon.simnode import (
    ManualClock,
    ScaledClock,
    SimNodeServer,
    encode_header_wire,
    generate_scenario,
)


def test_parse_quantity_zero():
    assert parse_quantity("0x0") == 0


def test_parse_quantity_known_value():
    assert parse_quantity("0x1c9c380") == 30_000_000


@pytest.mark.parametrize("bad", ["12ab", "0x", "", "0xzz", "0x1g", "x1"])
def test_parse_quantity_rejects_malformed(bad):
    with pytest.raises(MalformedQuantity):
        parse_quantity(bad)


@given(st.integers(min_value=0, max_value=2**256))
def test_quantity_round_trip(value):
    assert parse_quantity(encode_quantity(value)) == value


def wire(header):
    return encode_header_wire(header)


def test_decode_block_fields_round_trip():
    header = make_header(priority_fee_wei=3 * 10**9)
    assert decode_block_fields(TEST_CHAIN, wire(header)) == header


def test_decode_rejects_missing_base_fee():
    obj = wire(make_header())
    del obj["baseFeePerGas"]
    with pytest.raises(InvalidHeader):
        decode_block_fields(TEST_CHAIN, obj)


def test_decode_rejects_gas_used_above_limit():
    obj = wire(make_header())
    obj["gasUsed"] = encode_quantity(40_000_000)
    obj["gasLimit"] = encode_quantity(30_000_000)
    with pytest.raises(InvalidHeader):
        decode_block_fields(TEST_CHAIN, obj)


class ScriptedSource:
    """A BlockSource driven by a scripted head sequence, for poll tests."""

    def __init__(self, heads, ledger, head_errors=0):
        self._heads = list(heads)
        self._blocks = {h.number: h for h in ledger}
        self._head_errors = head_errors
        self.head_calls = 0

    def head_number(self):
        self.head_calls += 1
        if self._head_errors > 0:
            self._head_errors -= 1
            raise RpcUnavailable("scripted outage")
        if len(self._heads) > 1:
            return self._heads.pop(0)
        return self._heads[0]

    def fetch_block(self, number):
        if number not in self._blocks:
            raise BlockNotFound(str(number))
        return self._blocks[number]


def ledger(n):
    return [make_header(number=i, timestamp=1000 + i) for i in range(n)]


def run_poll(source, max_blocks, start_number=None):
    profile = make_profile()
    emitted = []
    count = poll_chain(
        profile,
        IngestCursor(chain=profile.chain, start_number=start_number),
        emitted.append,
        client=source,
        max_blocks=max_blocks,
    )
    return count, [h.number for h in emitted]


def test_repeated_head_is_deduplicated():
    count, numbers = run_poll(ScriptedSource([5, 5, 6], ledger(10)), max_blocks=2)
    assert count == 2
    assert numbers == [5, 6]


def test_head_jump_backfills_gap():
    count, numbers = run_poll(ScriptedSource([5, 8], ledger(10)), max_blocks=4)
    assert count == 4
    assert numbers == [5, 6, 7, 8]


def test_head_regression_is_ignored():
    count, numbers = run_poll(ScriptedSource([5, 3, 3, 6], ledger(10)), max_blocks=2)
    assert numbers == [5, 6]


def test_outage_then_recovery_loses_nothing():
    source = ScriptedSource([0, 9], ledger(10), head_errors=4)
    count, numbers = run_poll(source, max_blocks=10, start_number=0)
    assert numbers == list(range(10))


def test_invalid_header_halts_chain_after_retries():
    class PoisonSource(ScriptedSource):
        def fetch_block(self, number):
            if number == 3:
                raise InvalidHeader("poisoned block")
            return super().fetch_block(number)

    count, numbers = run_poll(PoisonSource([9], ledger(10)), max_blocks=10, start_number=0)
    assert numbers == [0, 1, 2]  # halted at the poisoned block, earlier emits kept


class WaitRecorder(threading.Event):
    """A stop event that records every wait and returns at once."""

    def __init__(self):
        super().__init__()
        self.waits = []

    def wait(self, timeout=None):
        self.waits.append(timeout)
        return self.is_set()


def test_last_block_at_head_returns_without_waiting():
    profile = make_profile(poll_interval_ms=60_000)
    stop = WaitRecorder()
    emitted = []
    count = poll_chain(profile, IngestCursor(chain=profile.chain, start_number=0),
                       emitted.append, client=ScriptedSource([4], ledger(10)), stop=stop,
                       max_blocks=5)
    assert count == 5
    assert [h.number for h in emitted] == [0, 1, 2, 3, 4]
    assert stop.waits == []


def test_start_defaults_to_current_head():
    count, numbers = run_poll(ScriptedSource([7, 9], ledger(10)), max_blocks=3)
    assert numbers == [7, 8, 9]


def test_fetch_block_from_simnode():
    scenario = constant_fee_scenario(block_count=5)
    ledger_blocks = generate_scenario(scenario)
    clock = ManualClock(scenario.start_time_s + 10_000)
    with SimNodeServer(ledger_blocks, clock) as server:
        client = RpcClient(server.url, scenario.chain)
        genesis = client.fetch_block(0)
        assert genesis == ledger_blocks[0]
        assert genesis.base_fee_per_gas.value_wei == 10**7
        with pytest.raises(BlockNotFound):
            client.fetch_block(50)


def test_rpc_client_reports_unreachable_endpoint():
    client = RpcClient("http://127.0.0.1:1", TEST_CHAIN, timeout_s=0.2)
    with pytest.raises(RpcUnavailable):
        client.head_number()


def test_sequential_fetches_match_scenario_record():
    scenario = constant_fee_scenario(block_count=10)
    ledger_blocks = generate_scenario(scenario)
    clock = ManualClock(scenario.start_time_s + 10_000)
    with SimNodeServer(ledger_blocks, clock) as server:
        client = RpcClient(server.url, scenario.chain)
        fetched = [client.fetch_block(n) for n in range(10)]
    assert fetched == ledger_blocks
    stamps = [h.timestamp for h in fetched]
    assert stamps == sorted(stamps)


def test_full_scenario_ingest_is_complete_and_ordered():
    """Count/order oracle: polling a paced 1000-block scenario emits every
    block exactly once, in ascending order."""
    scenario = constant_fee_scenario(block_count=1000, block_interval_s=1)
    ledger_blocks = generate_scenario(scenario)
    # ~1000 virtual seconds replayed in ~0.25 real seconds
    clock = ScaledClock(scenario.start_time_s, rate=4000)
    profile = make_profile(chain=scenario.chain, poll_interval_ms=10)
    emitted = []
    with SimNodeServer(ledger_blocks, clock) as server:
        client = RpcClient(server.url, scenario.chain)
        count = poll_chain(
            profile,
            IngestCursor(chain=scenario.chain, start_number=0),
            emitted.append,
            client=client,
            max_blocks=1000,
        )
    assert count == 1000
    assert [h.number for h in emitted] == list(range(1000))
    assert emitted == ledger_blocks


def test_poll_chain_stops_on_event():
    source = ScriptedSource([5], ledger(10))
    stop = threading.Event()
    stop.set()
    profile = make_profile()
    count = poll_chain(profile, IngestCursor(chain=profile.chain), lambda h: None,
                       client=source, stop=stop)
    assert count == 0
