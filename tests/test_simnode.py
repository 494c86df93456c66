
import dataclasses
import http.client
import json
import math
import socket
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import TEST_CHAIN, adaptive_fee_scenario, constant_fee_scenario, make_header
from evmon.cli import load_config
from evmon.ingest import BlockNotFound, decode_block_fields, encode_quantity
from evmon.records import header_to_dict, to_line
from evmon.simnode import (
    AdaptiveBaseFee,
    ConstantBaseFee,
    InvalidScenario,
    LedgerRpcClient,
    ManualClock,
    Scenario,
    Xorshift64Star,
    encode_header_wire,
    generate_scenario,
    next_base_fee,
    scenario_from_dict,
)
from evmon.simserver import SimNodeServer


def scenario_to_dict(scenario):
    """The full JSON form of a scenario, every optional key written out:
    the oracle scenario_from_dict is checked against (schema in the README)."""
    if isinstance(scenario.regime, ConstantBaseFee):
        regime = {"type": "constant", "base_fee_wei": scenario.regime.base_fee_wei}
    else:
        regime = {
            "type": "adaptive",
            "initial_wei": scenario.regime.initial_wei,
            "min_wei": scenario.regime.min_wei,
            "adjust_denominator": scenario.regime.adjust_denominator,
            "target_ratio": scenario.regime.target_ratio,
        }
    return {
        "chain": {"name": scenario.chain.name, "chain_id": scenario.chain.chain_id},
        "seed": scenario.seed,
        "block_count": scenario.block_count,
        "block_interval_s": scenario.block_interval_s,
        "regime": regime,
        "usage": {
            "mean_ratio": scenario.usage_model.mean_ratio,
            "jitter_ratio": scenario.usage_model.jitter_ratio,
        },
        "reported_limit": scenario.reported_limit.value,
        "priority": None
        if scenario.priority_model is None
        else {
            "mean_wei": scenario.priority_model.mean_wei,
            "jitter_wei": scenario.priority_model.jitter_wei,
        },
        "start_time_s": scenario.start_time_s,
    }


def serialize(ledger):
    return b"".join(to_line(header_to_dict(h)).encode() for h in ledger)


def test_same_seed_gives_byte_identical_ledgers():
    scenario = constant_fee_scenario(seed=42)
    assert serialize(generate_scenario(scenario)) == serialize(generate_scenario(scenario))


def test_different_seeds_differ():
    a = generate_scenario(constant_fee_scenario(seed=1))
    b = generate_scenario(constant_fee_scenario(seed=2))
    assert serialize(a) != serialize(b)


def test_constant_regime_holds_base_fee():
    ledger = generate_scenario(constant_fee_scenario(base_fee_wei=10**7))
    assert {h.base_fee_per_gas.value_wei for h in ledger} == {10**7}


def test_ledger_shape():
    scenario = constant_fee_scenario(block_count=100, block_interval_s=3)
    ledger = generate_scenario(scenario)
    assert [h.number for h in ledger] == list(range(100))
    assert [h.timestamp for h in ledger] == [
        scenario.start_time_s + 3 * n for n in range(100)
    ]
    assert all(h.gas_used.value <= h.gas_limit.value for h in ledger)


def test_next_base_fee_fixed_point_at_target():
    regime = AdaptiveBaseFee(initial_wei=10**9)
    assert next_base_fee(10**9, 15_000_000, 30_000_000, regime) == 10**9


def test_next_base_fee_constant_regime():
    assert next_base_fee(123, 999, 30_000_000, ConstantBaseFee(10**7)) == 10**7


def test_next_base_fee_formula_value():
    # used at twice target with denominator 8: 10 gwei * (1 + 1/8) = 11.25 gwei
    regime = AdaptiveBaseFee(initial_wei=0, adjust_denominator=8, target_ratio=0.5)
    assert next_base_fee(10 * 10**9, 30_000_000, 30_000_000, regime) == 11_250_000_000


def test_next_base_fee_respects_floor():
    regime = AdaptiveBaseFee(initial_wei=0, min_wei=10**6)
    assert next_base_fee(10**6, 0, 30_000_000, regime) == 10**6


def test_persistently_high_usage_never_decreases_fee():
    scenario = adaptive_fee_scenario(block_count=500, jitter_ratio=0.05)
    scenario = Scenario(
        chain=scenario.chain,
        seed=scenario.seed,
        block_count=scenario.block_count,
        block_interval_s=scenario.block_interval_s,
        regime=scenario.regime,
        usage_model=type(scenario.usage_model)(mean_ratio=0.9, jitter_ratio=0.05),
        reported_limit=scenario.reported_limit,
        priority_model=None,
    )
    ledger = generate_scenario(scenario)
    fees = [h.base_fee_per_gas.value_wei for h in ledger]
    assert all(b >= a for a, b in zip(fees, fees[1:]))


def test_generate_rejects_bad_parameters():
    good = constant_fee_scenario()
    for bad in (
        {"block_count": 0},
        {"block_interval_s": 0},
    ):
        with pytest.raises(InvalidScenario):
            generate_scenario(
                Scenario(**{**scenario_kwargs(good), **bad})
            )


def scenario_kwargs(s):
    return {
        "chain": s.chain,
        "seed": s.seed,
        "block_count": s.block_count,
        "block_interval_s": s.block_interval_s,
        "regime": s.regime,
        "usage_model": s.usage_model,
        "reported_limit": s.reported_limit,
        "priority_model": s.priority_model,
        "start_time_s": s.start_time_s,
    }


def test_wire_round_trip_every_generated_header():
    ledger = generate_scenario(constant_fee_scenario(block_count=200))
    for header in ledger:
        assert decode_block_fields(header.chain, encode_header_wire(header)) == header


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_prng_is_deterministic(seed):
    a = Xorshift64Star(seed)
    b = Xorshift64Star(seed)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]


def test_prng_known_stream_is_stable():
    # frozen first outputs for seed 1; guards accidental recurrence edits
    rng = Xorshift64Star(1)
    first = [rng.next_u64() for _ in range(3)]
    assert first == first  # self-consistency
    rng2 = Xorshift64Star(1)
    assert [rng2.next_u64() for _ in range(3)] == first


def test_scenario_dict_round_trip():
    for scenario in (constant_fee_scenario(), adaptive_fee_scenario()):
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario
    with pytest.raises(InvalidScenario):
        scenario_from_dict({"seed": 1})


@pytest.mark.parametrize("path, value", [
    (("block_count",), 2.9), (("block_count",), "7"), (("seed",), True),
    (("chain", "chain_id"), 1.0), (("reported_limit",), None), (("start_time_s",), "0"),
    (("regime", "initial_wei"), 1e10), (("regime", "adjust_denominator"), False),
    (("priority", "mean_wei"), "1"),
    (("usage", "mean_ratio"), "0.5"), (("usage", "jitter_ratio"), True),
    (("regime", "target_ratio"), None),
])
def test_scenario_numbers_are_never_coerced(path, value):
    obj = with_value(scenario_to_dict(adaptive_fee_scenario()), path, value)
    with pytest.raises(InvalidScenario, match=f"{path[-1]} must be"):
        scenario_from_dict(obj)


def with_value(obj, path, value):
    """obj with the value at path (a tuple of keys) set to value."""
    *parents, key = path
    target = obj
    for parent in parents:
        target = target[parent]
    target[key] = value
    return obj


@pytest.mark.parametrize("path, value", [
    (("chain", "name"), 5), (("chain", "name"), "../x"), (("chain", "chain_id"), -1),
    (("start_time_s",), -10), (("priority", "jitter_wei"), -5), (("reported_limit",), 0),
    (("usage", "jitter_ratio"), math.nan), (("usage", "jitter_ratio"), math.inf),
    (("regime", "initial_wei"), -1),
])
def test_scenario_refuses_values_out_of_range(path, value):
    """A value of the right type but out of range is an InvalidScenario
    when the scenario is built, never an error later in generation."""
    obj = with_value(scenario_to_dict(adaptive_fee_scenario(block_count=10)), path, value)
    with pytest.raises(InvalidScenario):
        generate_scenario(scenario_from_dict(obj))


def test_a_replaced_scenario_checks_itself():
    with pytest.raises(InvalidScenario, match="start_time_s must be non-negative"):
        dataclasses.replace(constant_fee_scenario(), start_time_s=-10)


def test_scenario_ratio_fields_take_json_integers():
    obj = scenario_to_dict(adaptive_fee_scenario())
    obj["usage"]["jitter_ratio"] = 0
    assert scenario_from_dict(obj).usage_model.jitter_ratio == 0.0


VOLATILITY = Path(__file__).resolve().parent.parent / "scripts" / "volatility"
VOLATILITY_SCENARIOS = sorted(p for p in VOLATILITY.glob("*.json") if p.name != "config.json")


@pytest.mark.parametrize("path", VOLATILITY_SCENARIOS, ids=lambda p: p.stem)
def test_committed_scenario_is_in_full_form(path):
    """A misspelled optional key would load as its default without a word;
    the full form scenario_to_dict writes leaves no key to default."""
    obj = json.loads(path.read_text(encoding="utf-8"))
    scenario = scenario_from_dict(obj)
    assert scenario_to_dict(scenario) == obj
    assert scenario.chain.name == path.stem
    assert scenario.block_count * scenario.block_interval_s == 12 * 3600


def test_volatility_config_names_exactly_the_scenario_chains():
    config = load_config(VOLATILITY / "config.json")
    scenarios = [scenario_from_dict(json.loads(p.read_text(encoding="utf-8")))
                 for p in VOLATILITY_SCENARIOS]
    assert len(config.networks) == len(scenarios) == 4
    assert {p.chain for p in config.networks} == {s.chain for s in scenarios}


def post(url, payload):
    """POST raw bytes on a fresh connection; returns (status, decoded JSON body)."""
    parts = urlsplit(url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=5)
    try:
        connection.request("POST", "/", payload, {"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def rpc(url, method, params):
    status, body = post(
        url, json.dumps({"jsonrpc": "2.0", "id": 1, "method": method, "params": params}).encode()
    )
    assert status == 200
    return body


def test_server_clock_gates_head():
    scenario = constant_fee_scenario(block_count=3, block_interval_s=10)
    ledger = generate_scenario(scenario)
    clock = ManualClock(scenario.start_time_s)  # before the second block's time
    with SimNodeServer(ledger, clock) as server:
        body = rpc(server.url, "eth_blockNumber", [])
        assert body["result"] == "0x0"
        clock.advance(10)
        assert rpc(server.url, "eth_blockNumber", [])["result"] == "0x1"
        clock.advance(1000)
        assert rpc(server.url, "eth_blockNumber", [])["result"] == "0x2"


def test_server_returns_null_for_unknown_block():
    scenario = constant_fee_scenario(block_count=3)
    ledger = generate_scenario(scenario)
    clock = ManualClock(scenario.start_time_s + 10_000)
    with SimNodeServer(ledger, clock) as server:
        body = rpc(server.url, "eth_getBlockByNumber", ["0x5", False])
        assert body["result"] is None


def test_server_serves_exact_headers():
    scenario = constant_fee_scenario(block_count=50)
    ledger = generate_scenario(scenario)
    clock = ManualClock(scenario.start_time_s + 10_000)
    with SimNodeServer(ledger, clock) as server:
        for number in (0, 7, 49):
            body = rpc(server.url, "eth_getBlockByNumber", [hex(number), False])
            assert decode_block_fields(scenario.chain, body["result"]) == ledger[number]
        latest = rpc(server.url, "eth_getBlockByNumber", ["latest", False])
        assert decode_block_fields(scenario.chain, latest["result"]) == ledger[-1]


def test_server_error_objects_for_malformed_requests():
    scenario = constant_fee_scenario(block_count=2)
    ledger = generate_scenario(scenario)
    with SimNodeServer(ledger, ManualClock(scenario.start_time_s)) as server:
        bad_json = post(server.url, b"{nope")[1]
        assert bad_json["error"]["code"] == -32700
        no_version = rpc(server.url, "eth_blockNumber", [])  # fine
        assert "result" in no_version
        missing = post(server.url, json.dumps({"id": 1, "method": "x"}).encode())[1]
        assert missing["error"]["code"] == -32600
        unknown = rpc(server.url, "eth_getLogs", [])
        assert unknown["error"]["code"] == -32601
        bad_params = rpc(server.url, "eth_getBlockByNumber", [123, False])
        assert bad_params["error"]["code"] == -32602


def raw_exchange(url, request):
    """Send raw bytes on a fresh socket; return all the server sends before
    it closes the connection. A server that keeps it open fails the read
    after 2 s."""
    parts = urlsplit(url)
    received = b""
    with socket.create_connection((parts.hostname, parts.port), timeout=2) as sock:
        sock.sendall(request)
        while chunk := sock.recv(4096):
            received += chunk
    return received


@pytest.mark.parametrize("header, status", [
    (b"Content-Length: -1\r\n", b"400"),
    (b"Content-Length: abc\r\n", b"400"),
    (b"Content-Length: +2\r\n", b"400"),
    (b"", b"411"),
    (b"Transfer-Encoding: chunked\r\n", b"411"),
])
def test_server_refuses_a_body_without_a_valid_content_length(header, status, capfd):
    """The reply comes at once and closes the connection, with no traceback."""
    scenario = constant_fee_scenario(block_count=2)
    with SimNodeServer(generate_scenario(scenario), ManualClock(scenario.start_time_s)) as server:
        reply = raw_exchange(server.url, b"POST / HTTP/1.1\r\nHost: node\r\n" + header + b"\r\n")
    assert reply.startswith(b"HTTP/1.1 " + status + b" ")
    assert b"\r\nConnection: close\r\n" in reply
    assert "Traceback" not in capfd.readouterr().err


def test_server_keeps_a_connection_alive_until_it_stops():
    scenario = constant_fee_scenario(block_count=3)
    ledger = generate_scenario(scenario)
    server = SimNodeServer(ledger, ManualClock(scenario.start_time_s + 10_000))
    server.start()
    parts = urlsplit(server.url)
    connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=5)
    payload = json.dumps({"jsonrpc": "2.0", "id": 1, "method": "eth_blockNumber",
                          "params": []}).encode()
    try:
        socks = []
        for _ in range(3):
            connection.request("POST", "/", payload, {"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.version == 11
            assert json.loads(response.read())["result"] == "0x2"
            socks.append(connection.sock)
        assert socks[0] is not None and socks == [socks[0]] * 3  # one connection throughout
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 2.0
        with pytest.raises((ConnectionError, http.client.HTTPException)):
            connection.request("POST", "/", payload, {"Content-Type": "application/json"})
            connection.getresponse()  # a stopped node answers no kept-alive connection
    finally:
        connection.close()


class HeldClock:
    """A clock whose now() blocks until release is set; entered is set
    once a caller is inside."""

    def __init__(self, now):
        self._now = now
        self.entered = threading.Event()
        self.release = threading.Event()

    def now(self):
        self.entered.set()
        self.release.wait(10)
        return self._now


def test_server_stop_waits_for_its_handler_threads():
    """stop() returns only once every handler thread has ended: a request
    held inside the clock holds stop() until the clock answers, and the
    request is still answered."""
    scenario = constant_fee_scenario(block_count=3)
    clock = HeldClock(scenario.start_time_s + 10_000)
    server = SimNodeServer(generate_scenario(scenario), clock)
    server.start()
    parts = urlsplit(server.url)
    payload = json.dumps({"jsonrpc": "2.0", "id": 1, "method": "eth_blockNumber",
                          "params": []}).encode()
    replies = []

    def ask():
        connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
        try:
            connection.request("POST", "/", payload, {"Content-Type": "application/json"})
            replies.append(json.loads(connection.getresponse().read())["result"])
        finally:
            connection.close()

    client = threading.Thread(target=ask)
    stopper = threading.Thread(target=server.stop)
    try:
        client.start()
        assert clock.entered.wait(5)
        stopper.start()
        stopper.join(0.5)
        assert stopper.is_alive()  # held by the handler inside now()
    finally:
        clock.release.set()
        client.join(5)
        if stopper.ident is None:  # never started
            server.stop()
        stopper.join(5)
    assert not stopper.is_alive() and not client.is_alive()
    assert replies == ["0x2"]


def test_ledger_client_round_trips_full_scenario():
    scenario = constant_fee_scenario(block_count=1000)
    ledger = generate_scenario(scenario)
    clock = ManualClock(scenario.start_time_s + 10**7)
    client = LedgerRpcClient(ledger, clock, scenario.chain)
    assert client.head_number() == 999
    decoded = [client.fetch_block(n) for n in range(1000)]
    assert decoded == ledger


@pytest.mark.parametrize("offset_s,head", [
    (-1000, 0),  # before genesis: genesis is still visible
    (0, 0),
    (10 * 12, 10),  # exactly at block 10's timestamp
    (10 * 12 + 11, 10),
    (10 * 12 + 12, 11),
    (49 * 12, 49),  # the last block
    (10**7, 49),  # long past the last block
])
def test_ledger_head_follows_the_clock(offset_s, head):
    scenario = constant_fee_scenario(block_count=50, block_interval_s=12)
    client = LedgerRpcClient(generate_scenario(scenario),
                             ManualClock(scenario.start_time_s + offset_s), scenario.chain)
    assert client.head_number() == head
    assert client.fetch_block(head).number == head


def test_ledger_refuses_decreasing_timestamps():
    """The head is found by bisecting the timestamps, so a ledger whose
    timestamps decrease is refused when it is built, by the in-process
    client and the server alike; equal timestamps are accepted."""
    headers = [make_header(number=n, timestamp=ts) for n, ts in enumerate([10, 12, 11])]
    with pytest.raises(ValueError, match="decrease at block 2"):
        LedgerRpcClient(headers, ManualClock(0), TEST_CHAIN)
    with pytest.raises(ValueError, match="decrease at block 2"):
        SimNodeServer(headers, ManualClock(0))
    tied = [make_header(number=n, timestamp=ts) for n, ts in enumerate([10, 12, 12])]
    assert LedgerRpcClient(tied, ManualClock(12), TEST_CHAIN).head_number() == 2


def test_ledger_refuses_headers_not_numbered_from_zero():
    """Block n is served from headers[n], so a ledger whose headers are
    not numbered 0, 1, 2, ... is refused when it is built, by the
    in-process client and the server alike."""
    late = [make_header(number=n, timestamp=1000 + n) for n in range(10, 13)]
    with pytest.raises(ValueError, match="ledger block 0 is numbered 10"):
        LedgerRpcClient(late, ManualClock(2000), TEST_CHAIN)
    gapped = [make_header(number=n, timestamp=1000 + n) for n in (0, 1, 3)]
    with pytest.raises(ValueError, match="ledger block 2 is numbered 3"):
        SimNodeServer(gapped, ManualClock(2000))


@given(st.lists(st.integers(0, 5), min_size=1, max_size=12), st.integers(-2, 70))
def test_a_block_is_served_exactly_when_it_is_at_or_below_the_head(gaps, now):
    """block_at's own test, its timestamp against the clock, agrees with
    number <= head_number() on any ledger with non-decreasing timestamps."""
    stamps = [sum(gaps[:n + 1]) for n in range(len(gaps))]
    headers = [make_header(number=n, timestamp=ts) for n, ts in enumerate(stamps)]
    client = LedgerRpcClient(headers, ManualClock(now), TEST_CHAIN)
    head = client.head_number()
    for number in range(-1, len(headers) + 1):
        if 0 <= number <= head:
            assert client.fetch_block(number) == headers[number]
        else:
            with pytest.raises(BlockNotFound):
                client.fetch_block(number)


@given(st.integers(0, 2**80), st.integers(0, 2**40), st.integers(0, 2**64),
       st.integers(0, 2**64), st.none() | st.integers(0, 2**64))
def test_wire_quantities_are_encode_quantity(number, timestamp, gas, base_fee, priority):
    header = make_header(number=number, timestamp=timestamp, gas_used=gas, gas_limit=gas,
                         base_fee_wei=base_fee, priority_fee_wei=priority)
    expected = {"number": number, "timestamp": timestamp, "gasUsed": gas, "gasLimit": gas,
                "baseFeePerGas": base_fee}
    if priority is not None:
        expected["priorityFeeObserved"] = priority
    assert encode_header_wire(header) == {key: encode_quantity(value)
                                          for key, value in expected.items()}


@pytest.mark.parametrize("field", ["number", "timestamp"])
def test_wire_refuses_a_negative_number_or_timestamp(field):
    with pytest.raises(ValueError, match="non-negative"):
        encode_header_wire(make_header(**{field: -1}))
