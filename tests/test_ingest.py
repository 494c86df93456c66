import base64
import contextlib
import json
import os
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import TEST_CHAIN, constant_fee_scenario, make_header, make_profile
from evmon.ingest import (
    BlockNotFound,
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


@pytest.mark.parametrize("bad", ["12ab", "0x", "", "0xzz", "0x1g", "x1", "0x-1", "0x+a",
                                 "0x1_0", "0x 1", "0x1 ", "0x\u0661"])
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


def test_decode_rejects_negative_base_fee():
    obj = wire(make_header())
    obj["baseFeePerGas"] = "0x-1"
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
        emitted.append,
        client=source,
        max_blocks=max_blocks,
        start_number=start_number,
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

    profile = make_profile()
    emitted = []
    with pytest.raises(InvalidHeader, match="halted at block 3: poisoned block"):
        poll_chain(profile, emitted.append, client=PoisonSource([9], ledger(10)),
                   max_blocks=10, start_number=0)
    # halted at the poisoned block, earlier emits kept
    assert [h.number for h in emitted] == [0, 1, 2]


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
    count = poll_chain(profile, emitted.append, client=ScriptedSource([4], ledger(10)),
                       stop=stop, max_blocks=5, start_number=0)
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
        client.close()


def test_rpc_client_reports_unreachable_endpoint():
    client = RpcClient("http://127.0.0.1:1", TEST_CHAIN, timeout_s=0.2)
    with pytest.raises(RpcUnavailable):
        client.head_number()


class ScriptedResponse:
    status = 200

    def __init__(self, body):
        self._body = body

    def read(self):
        return json.dumps(self._body).encode()


class ScriptedConnection:
    """Stands in for the client's http.client connection: answers each
    request with the next body."""

    sock = None

    def __init__(self, bodies):
        self.bodies = list(bodies)

    def request(self, method, url, body, headers):
        pass

    def getresponse(self):
        return ScriptedResponse(self.bodies.pop(0))

    def close(self):
        pass


def scripted_client(bodies):
    client = RpcClient("http://scripted.invalid", TEST_CHAIN)
    client._connection = ScriptedConnection(bodies)
    return client


@pytest.mark.parametrize("body", [None, [], "x", 5])
def test_rpc_client_rejects_a_body_that_is_not_an_object(body):
    client = scripted_client([body, body])
    with pytest.raises(RpcUnavailable, match="not an object"):
        client.head_number()
    with pytest.raises(RpcUnavailable, match="not an object"):
        client.fetch_block(0)


def test_poll_chain_retries_past_a_body_that_is_not_an_object():
    header = make_header(number=0)

    def reply(result):
        return {"jsonrpc": "2.0", "id": 1, "result": result}

    client = scripted_client([[], reply("0x0"), None, reply(wire(header))])
    count, numbers = run_poll(client, max_blocks=1, start_number=0)
    assert (count, numbers) == (1, [0])
    assert client._connection.bodies == []


def test_sequential_fetches_match_scenario_record():
    scenario = constant_fee_scenario(block_count=10)
    ledger_blocks = generate_scenario(scenario)
    clock = ManualClock(scenario.start_time_s + 10_000)
    with SimNodeServer(ledger_blocks, clock) as server:
        client = RpcClient(server.url, scenario.chain)
        fetched = [client.fetch_block(n) for n in range(10)]
        client.close()
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
            emitted.append,
            client=client,
            max_blocks=1000,
            start_number=0,
        )
        client.close()
    assert count == 1000
    assert [h.number for h in emitted] == list(range(1000))
    assert emitted == ledger_blocks


def test_poll_chain_stops_on_event():
    source = ScriptedSource([5], ledger(10))
    stop = threading.Event()
    stop.set()
    profile = make_profile()
    count = poll_chain(profile, lambda h: None, client=source, stop=stop)
    assert count == 0


def test_sequential_fetches_share_one_connection_without_stalling():
    """200 calls on one kept-alive connection: a server that wrote headers
    and body separately would stall each call on delayed ACK (~8.8 s)."""
    scenario = constant_fee_scenario(block_count=200)
    ledger_blocks = generate_scenario(scenario)
    clock = ManualClock(scenario.start_time_s + 10_000)
    with SimNodeServer(ledger_blocks, clock) as server:
        client = RpcClient(server.url, scenario.chain)
        started = time.monotonic()
        first = client.fetch_block(0)
        sock = client._connection.sock
        fetched = [first] + [client.fetch_block(n) for n in range(1, 200)]
        elapsed = time.monotonic() - started
        assert client._connection.sock is sock
        client.close()
    assert fetched == ledger_blocks
    assert elapsed < 2.0


def test_connection_closed_while_idle_is_reopened_without_error():
    scenario = constant_fee_scenario(block_count=5)
    ledger_blocks = generate_scenario(scenario)
    clock = ManualClock(scenario.start_time_s + 10_000)
    with SimNodeServer(ledger_blocks, clock) as server:
        # the server drops a connection that stays idle for 0.2 s
        server.RequestHandlerClass = type("IdleTimeoutHandler",
                                          (server.RequestHandlerClass,), {"timeout": 0.2})
        client = RpcClient(server.url, scenario.chain)
        assert client.head_number() == 4
        dropped = client._connection.sock
        time.sleep(0.6)
        assert client.head_number() == 4  # no RpcUnavailable
        assert client._connection.sock is not dropped
        client.close()


def test_a_failure_on_a_fresh_connection_is_not_retried():
    class ClosingHandler(BaseHTTPRequestHandler):
        posts_seen = 0

        def do_POST(self):  # noqa: N802 - http.server API
            type(self).posts_seen += 1
            self.close_connection = True  # hang up without a response

        def log_message(self, format, *args):  # noqa: A002
            pass

    with recording_server(ClosingHandler) as url:
        client = RpcClient(url, TEST_CHAIN, timeout_s=5)
        with pytest.raises(RpcUnavailable):
            client.head_number()
    assert ClosingHandler.posts_seen == 1


class RecordingHandler(BaseHTTPRequestHandler):
    """Records each request and answers eth_blockNumber with 0x5, or with
    the status its class sets."""

    protocol_version = "HTTP/1.1"
    status = 200
    seen: list = []

    def do_POST(self):  # noqa: N802 - http.server API
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.seen.append((self.command, self.path, dict(self.headers), json.loads(body)))
        payload = json.dumps({"jsonrpc": "2.0", "id": 1, "result": "0x5"}).encode()
        self.send_response(self.status)
        if self.status != 200:
            self.send_header("Location", "/elsewhere")
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format, *args):  # noqa: A002
        pass


@contextlib.contextmanager
def recording_server(handler):
    """A stdlib HTTP server on 127.0.0.1 for one handler class; yields its URL."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("suffix, path", [("/rpc/v1?key=abc", "/rpc/v1?key=abc"), ("", "/")])
def test_rpc_client_posts_to_the_endpoint_path_with_basic_auth(suffix, path):
    handler = type("Handler", (RecordingHandler,), {"seen": []})
    with recording_server(handler) as url:
        endpoint = url.replace("http://", "http://user:p%40ss@") + suffix
        client = RpcClient(endpoint, TEST_CHAIN)
        assert client.head_number() == 5
        client.close()
    [(method, seen_path, headers, body)] = handler.seen
    assert (method, seen_path) == ("POST", path)
    assert headers["Authorization"] == "Basic " + base64.b64encode(b"user:p@ss").decode()
    assert headers["Content-Type"] == "application/json"
    assert body["method"] == "eth_blockNumber"


@pytest.mark.parametrize("status", [301, 500])
def test_rpc_client_follows_no_redirect_and_takes_only_200(status):
    handler = type("Handler", (RecordingHandler,), {"seen": [], "status": status})
    with recording_server(handler) as url:
        client = RpcClient(url, TEST_CHAIN)
        with pytest.raises(RpcUnavailable, match=f"HTTP {status}"):
            client.head_number()
        client.close()
    assert len(handler.seen) == 1


GUARD_PROGRAM = """
import importlib, pkgutil, sys
sys.modules["requests"] = None  # any import of requests now raises ImportError
import evmon
for module in pkgutil.iter_modules(evmon.__path__):
    importlib.import_module(f"evmon.{module.name}")
from conftest import constant_fee_scenario
from evmon.ingest import RpcClient
from evmon.simnode import ManualClock, SimNodeServer, generate_scenario
scenario = constant_fee_scenario(block_count=3)
ledger = generate_scenario(scenario)
with SimNodeServer(ledger, ManualClock(scenario.start_time_s + 10_000)) as server:
    client = RpcClient(server.url, scenario.chain)
    assert client.fetch_block(2) == ledger[2]
    client.close()
print("ok")
"""


def test_evmon_runs_without_requests():
    tests_dir = Path(__file__).resolve().parent
    src_dir = tests_dir.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src_dir), str(tests_dir)]))
    result = subprocess.run([sys.executable, "-c", GUARD_PROGRAM], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
