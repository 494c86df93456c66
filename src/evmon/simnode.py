"""Deterministic mock EVM node for hermetic end-to-end runs.

Generates per-chain synthetic block ledgers from seeded scenarios and
serves them over the same JSON-RPC surface the ingest module consumes
(bit-exact field names, 0x-hex quantities). A virtual clock gates which
blocks are visible, so a 12-hour scenario replays in milliseconds while
real-clock mode exercises actual poll timing.

Determinism contract: identical (seed, parameters) yield byte-identical
ledgers on any platform. The generator path is integer-only, driven by a
xorshift64* PRNG with the recurrence

    x ^= x >> 12;  x ^= (x << 25) & 2**64-1;  x ^= x >> 27
    output = (x * 0x2545F4914F6CDD1D) mod 2**64

Per block, draws happen in a fixed order: gas_used first, then the
priority-fee estimate when a priority model is configured.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Protocol

from evmon.ingest import decode_block_fields, encode_quantity, parse_quantity
from evmon.model import ChainRef, FeeQuantity, GasQuantity, RawBlockHeader

_MASK64 = 2**64 - 1
_MULTIPLIER = 0x2545F4914F6CDD1D
_SEED_FALLBACK = 0x9E3779B97F4A7C15  # xorshift state must never be zero


class InvalidScenario(ValueError):
    """Scenario parameters violate their invariants."""


class Xorshift64Star:
    """The fixed 64-bit PRNG from the module docstring; portable by design."""

    def __init__(self, seed: int) -> None:
        self._state = (seed & _MASK64) or _SEED_FALLBACK

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * _MULTIPLIER) & _MASK64

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n); modulo bias is immaterial for jitter."""
        if n <= 0:
            raise ValueError(f"below() needs n > 0, got {n}")
        return self.next_u64() % n


@dataclass(frozen=True)
class ConstantBaseFee:
    base_fee_wei: int


@dataclass(frozen=True)
class AdaptiveBaseFee:
    """Standard EVM-style fee-market update (see next_base_fee)."""

    initial_wei: int
    min_wei: int = 0
    adjust_denominator: int = 8
    target_ratio: float = 0.5


Regime = ConstantBaseFee | AdaptiveBaseFee


@dataclass(frozen=True)
class UsageModel:
    """gas_used distribution: uniform jitter around mean_ratio * limit."""

    mean_ratio: float
    jitter_ratio: float = 0.0


@dataclass(frozen=True)
class PriorityFeeModel:
    """Block-level priority-fee estimate: uniform jitter around mean_wei."""

    mean_wei: int
    jitter_wei: int = 0


@dataclass(frozen=True)
class Scenario:
    chain: ChainRef
    seed: int
    block_count: int
    block_interval_s: int
    regime: Regime
    usage_model: UsageModel
    reported_limit: GasQuantity
    priority_model: PriorityFeeModel | None = None
    start_time_s: int = 1_700_000_000


def next_base_fee(current_wei: int, gas_used: int, effective_limit: int, regime: Regime) -> int:
    """Base fee for the next block under the regime.

    Constant regime returns its configured fee unchanged. The adaptive rule
    is next = max(min_wei, round(current * (1 + (used/(target_ratio*limit)
    - 1) / denominator))), evaluated in exact integer arithmetic with the
    rounding tie broken upward: with T = round(target_ratio * limit),

        next = (current * (used + T*(denominator-1)) + T*denominator // 2)
               // (T * denominator)

    Usage exactly at target is a fixed point.
    """
    if isinstance(regime, ConstantBaseFee):
        return regime.base_fee_wei
    if effective_limit <= 0:
        raise ValueError("adaptive fee update needs a positive limit")
    target = max(1, round(effective_limit * regime.target_ratio))
    denom = target * regime.adjust_denominator
    numer = current_wei * (gas_used + target * (regime.adjust_denominator - 1))
    return max(regime.min_wei, (numer + denom // 2) // denom)


def generate_scenario(scenario: Scenario) -> list[RawBlockHeader]:
    """Materialize the scenario's full block ledger, deterministically.

    Block numbers run 0..block_count-1 with timestamps start_time_s +
    n * block_interval_s; the base fee follows the regime, updated from
    each block's gas_used; gas_used never exceeds reported_limit.
    """
    if scenario.block_count <= 0:
        raise InvalidScenario(f"block_count must be positive, got {scenario.block_count}")
    if scenario.block_interval_s <= 0:
        raise InvalidScenario(
            f"block_interval_s must be positive, got {scenario.block_interval_s}"
        )
    usage = scenario.usage_model
    if not 0.0 <= usage.mean_ratio <= 1.0 or usage.jitter_ratio < 0.0:
        raise InvalidScenario(
            f"usage model needs mean_ratio in [0,1] and jitter_ratio >= 0, got {usage}"
        )
    if isinstance(scenario.regime, AdaptiveBaseFee):
        if scenario.regime.adjust_denominator <= 0 or not 0.0 < scenario.regime.target_ratio <= 1.0:
            raise InvalidScenario(f"bad adaptive regime {scenario.regime}")

    limit = scenario.reported_limit.value
    # single float->int conversions; the per-block path below is integer-only
    mean_gas = round(limit * usage.mean_ratio)
    span_gas = round(limit * usage.jitter_ratio)
    rng = Xorshift64Star(scenario.seed)

    if isinstance(scenario.regime, ConstantBaseFee):
        base_fee = scenario.regime.base_fee_wei
    else:
        base_fee = scenario.regime.initial_wei

    ledger = []
    prev_used: int | None = None
    for n in range(scenario.block_count):
        if n > 0:
            assert prev_used is not None
            base_fee = next_base_fee(base_fee, prev_used, limit, scenario.regime)
        gas_used = mean_gas - span_gas + rng.below(2 * span_gas + 1)
        gas_used = min(max(gas_used, 0), limit)
        priority = None
        if scenario.priority_model is not None:
            pm = scenario.priority_model
            tip = pm.mean_wei - pm.jitter_wei + rng.below(2 * pm.jitter_wei + 1)
            priority = FeeQuantity(max(tip, 0))
        ledger.append(
            RawBlockHeader(
                chain=scenario.chain,
                number=n,
                timestamp=scenario.start_time_s + n * scenario.block_interval_s,
                gas_used=GasQuantity(gas_used),
                gas_limit=scenario.reported_limit,
                base_fee_per_gas=FeeQuantity(base_fee),
                priority_fee_observed=priority,
            )
        )
        prev_used = gas_used
    return ledger


def encode_header_wire(header: RawBlockHeader) -> dict[str, str]:
    """The JSON-RPC block object for a header, all quantities 0x-hex.

    priorityFeeObserved is a non-standard extension field real nodes omit;
    ingest reads it only when present.
    """
    obj = {
        "number": encode_quantity(header.number),
        "timestamp": encode_quantity(header.timestamp),
        "gasUsed": encode_quantity(header.gas_used.value),
        "gasLimit": encode_quantity(header.gas_limit.value),
        "baseFeePerGas": encode_quantity(header.base_fee_per_gas.value_wei),
    }
    if header.priority_fee_observed is not None:
        obj["priorityFeeObserved"] = encode_quantity(header.priority_fee_observed.value_wei)
    return obj


class Clock(Protocol):
    def now(self) -> float: ...


class RealClock:
    def now(self) -> float:
        return time.time()


class ManualClock:
    """A clock tests advance explicitly."""

    def __init__(self, start: float) -> None:
        self._now = start
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> None:
        with self._lock:
            self._now += seconds

    def set(self, t: float) -> None:
        with self._lock:
            self._now = t


class ScaledClock:
    """Virtual time advancing at rate x real time from a fixed start."""

    def __init__(self, start: float, rate: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self._start = start
        self._rate = rate
        self._t0 = time.monotonic()

    def now(self) -> float:
        return self._start + (time.monotonic() - self._t0) * self._rate


class _Ledger:
    """Immutable ledger plus clock-gated head lookup."""

    def __init__(self, headers: list[RawBlockHeader], clock: Clock) -> None:
        if not headers:
            raise ValueError("ledger must contain at least one block")
        self.headers = headers
        self.clock = clock

    def head_number(self) -> int:
        """Highest block whose timestamp <= the clock; genesis is always
        visible (a node has its genesis from the start)."""
        now = self.clock.now()
        lo, hi = 0, len(self.headers) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.headers[mid].timestamp <= now:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def block_at(self, number: int) -> RawBlockHeader | None:
        if number < 0 or number > self.head_number():
            return None
        return self.headers[number]


class LedgerRpcClient:
    """In-process BlockSource over a ledger, round-tripping the wire codec.

    Every fetch goes through encode_header_wire -> decode_block_fields so
    the hex path is exercised exactly as over HTTP, without the sockets.
    """

    def __init__(self, headers: list[RawBlockHeader], clock: Clock, chain: ChainRef) -> None:
        self._ledger = _Ledger(headers, clock)
        self._chain = chain

    def head_number(self) -> int:
        return self._ledger.head_number()

    def fetch_block(self, number: int) -> RawBlockHeader:
        header = self._ledger.block_at(number)
        if header is None:
            from evmon.ingest import BlockNotFound

            raise BlockNotFound(f"{self._chain.name}: block {number} not found")
        return decode_block_fields(self._chain, encode_header_wire(header))


def _rpc_error(req_id: Any, code: int, message: str) -> dict[str, Any]:
    return {"jsonrpc": "2.0", "id": req_id, "error": {"code": code, "message": message}}


def _rpc_result(req_id: Any, result: Any) -> dict[str, Any]:
    return {"jsonrpc": "2.0", "id": req_id, "result": result}


def handle_rpc_request(ledger: _Ledger, request: Any) -> dict[str, Any]:
    """Serve one JSON-RPC request object against the ledger."""
    if not isinstance(request, dict) or request.get("jsonrpc") != "2.0":
        return _rpc_error(None, -32600, "invalid request")
    req_id = request.get("id")
    method = request.get("method")
    params = request.get("params", [])
    if not isinstance(method, str):
        return _rpc_error(req_id, -32600, "invalid request")
    if not isinstance(params, list):
        return _rpc_error(req_id, -32602, "params must be an array")

    if method == "eth_blockNumber":
        return _rpc_result(req_id, encode_quantity(ledger.head_number()))
    if method == "eth_getBlockByNumber":
        if len(params) < 1 or not isinstance(params[0], str):
            return _rpc_error(req_id, -32602, "expected [blockTag, fullTransactions]")
        tag = params[0]
        if tag == "latest":
            number = ledger.head_number()
        else:
            try:
                number = parse_quantity(tag)
            except Exception:
                return _rpc_error(req_id, -32602, f"bad block tag {tag!r}")
        header = ledger.block_at(number)
        return _rpc_result(req_id, None if header is None else encode_header_wire(header))
    return _rpc_error(req_id, -32601, f"method {method!r} not found")


class _Handler(BaseHTTPRequestHandler):
    server: "SimNodeServer"

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length)
        try:
            request = json.loads(body)
        except ValueError:
            response = _rpc_error(None, -32700, "parse error")
        else:
            response = handle_rpc_request(self.server.ledger, request)
        payload = json.dumps(response).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # keep test output clean


class SimNodeServer(ThreadingHTTPServer):
    """Serves a generated ledger on 127.0.0.1 until stopped.

    Usable as a context manager; .url is the endpoint to point a profile
    at. The ledger is immutable; only the clock readout changes.
    """

    def __init__(self, headers: list[RawBlockHeader], clock: Clock, port: int = 0) -> None:
        self.ledger = _Ledger(headers, clock)
        self._thread: threading.Thread | None = None
        super().__init__(("127.0.0.1", port), _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> None:
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "SimNodeServer":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    """JSON-friendly scenario form; the schema is documented in the README."""
    if isinstance(scenario.regime, ConstantBaseFee):
        regime: dict[str, Any] = {"type": "constant", "base_fee_wei": scenario.regime.base_fee_wei}
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


def scenario_from_dict(obj: dict[str, Any]) -> Scenario:
    try:
        regime_obj = obj["regime"]
        if regime_obj["type"] == "constant":
            regime: Regime = ConstantBaseFee(base_fee_wei=int(regime_obj["base_fee_wei"]))
        elif regime_obj["type"] == "adaptive":
            regime = AdaptiveBaseFee(
                initial_wei=int(regime_obj["initial_wei"]),
                min_wei=int(regime_obj.get("min_wei", 0)),
                adjust_denominator=int(regime_obj.get("adjust_denominator", 8)),
                target_ratio=float(regime_obj.get("target_ratio", 0.5)),
            )
        else:
            raise InvalidScenario(f"unknown regime type {regime_obj['type']!r}")
        priority_obj = obj.get("priority")
        return Scenario(
            chain=ChainRef(name=obj["chain"]["name"], chain_id=int(obj["chain"]["chain_id"])),
            seed=int(obj["seed"]),
            block_count=int(obj["block_count"]),
            block_interval_s=int(obj["block_interval_s"]),
            regime=regime,
            usage_model=UsageModel(
                mean_ratio=float(obj["usage"]["mean_ratio"]),
                jitter_ratio=float(obj["usage"].get("jitter_ratio", 0.0)),
            ),
            reported_limit=GasQuantity(int(obj["reported_limit"])),
            priority_model=None
            if priority_obj is None
            else PriorityFeeModel(
                mean_wei=int(priority_obj["mean_wei"]),
                jitter_wei=int(priority_obj.get("jitter_wei", 0)),
            ),
            start_time_s=int(obj.get("start_time_s", 1_700_000_000)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InvalidScenario):
            raise
        raise InvalidScenario(f"bad scenario object: {exc}") from exc
