"""Block-header acquisition over EVM JSON-RPC.

Polls eth_blockNumber and backfills with eth_getBlockByNumber so each new
block is emitted exactly once, in ascending order, without gaps: a head
jump of k > 1 fetches the k-1 missing blocks first, and a repeated head is
deduplicated. Chain reorganizations are out of scope at this level: an
emitted number is never re-emitted, and a head regression is logged and
ignored.

Transport failures back off exponentially (base = poll interval, capped at
30 s) and never exit the process; a block that repeatedly decodes invalid
halts this chain's ingest instead, preferring data integrity over
availability.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from typing import Any, Callable, Protocol

import requests

from evmon.model import (
    ChainRef,
    FeeQuantity,
    GasQuantity,
    RawBlockHeader,
    ValidatedProfile,
)

log = logging.getLogger(__name__)

BACKOFF_CAP_S = 30.0
INVALID_HEADER_RETRIES = 3


class MalformedQuantity(ValueError):
    """An RPC quantity string is not 0x-prefixed hex."""


class RpcUnavailable(Exception):
    """Transport-level failure talking to the endpoint."""


class BlockNotFound(Exception):
    """The node returned a null result for the requested block."""


class InvalidHeader(ValueError):
    """A block object is missing fields or violates header invariants."""


def parse_quantity(hex_string: str) -> int:
    """Decode a 0x-prefixed hexadecimal quantity to a non-negative int."""
    if not isinstance(hex_string, str) or not hex_string.startswith("0x"):
        raise MalformedQuantity(f"missing 0x prefix: {hex_string!r}")
    digits = hex_string[2:]
    if not digits:
        raise MalformedQuantity(f"empty hex digits: {hex_string!r}")
    try:
        return int(digits, 16)
    except ValueError:
        raise MalformedQuantity(f"non-hex characters: {hex_string!r}") from None


def encode_quantity(value: int) -> str:
    """Canonical EVM hex encoding: 0x-prefixed, minimal digits."""
    if value < 0:
        raise ValueError(f"quantities are non-negative, got {value}")
    return hex(value)


def decode_block_fields(chain: ChainRef, obj: dict[str, Any]) -> RawBlockHeader:
    """Decode an eth_getBlockByNumber result object into a header.

    Requires number, timestamp, gasUsed, gasLimit and baseFeePerGas (all
    monitored chains run a base-fee market, so an absent baseFeePerGas is
    an error, not a legacy block). The optional priorityFeeObserved
    extension carries a block-level priority-fee estimate where the source
    provides one. Validates gas_used <= gas_limit.
    """
    if not isinstance(obj, dict):
        raise InvalidHeader(f"block object is {type(obj).__name__}, not an object")
    fields = {}
    for key in ("number", "timestamp", "gasUsed", "gasLimit", "baseFeePerGas"):
        if key not in obj or obj[key] is None:
            raise InvalidHeader(f"missing field {key}")
        try:
            fields[key] = parse_quantity(obj[key])
        except MalformedQuantity as exc:
            raise InvalidHeader(f"field {key}: {exc}") from None
    if fields["gasUsed"] > fields["gasLimit"]:
        raise InvalidHeader(
            f"gas_used {fields['gasUsed']} exceeds gas_limit {fields['gasLimit']}"
        )
    priority = None
    if obj.get("priorityFeeObserved") is not None:
        try:
            priority = FeeQuantity(parse_quantity(obj["priorityFeeObserved"]))
        except MalformedQuantity as exc:
            raise InvalidHeader(f"field priorityFeeObserved: {exc}") from None
    return RawBlockHeader(
        chain=chain,
        number=fields["number"],
        timestamp=fields["timestamp"],
        gas_used=GasQuantity(fields["gasUsed"]),
        gas_limit=GasQuantity(fields["gasLimit"]),
        base_fee_per_gas=FeeQuantity(fields["baseFeePerGas"]),
        priority_fee_observed=priority,
    )


class BlockSource(Protocol):
    """What poll_chain needs from a node client."""

    def head_number(self) -> int: ...

    def fetch_block(self, number: int) -> RawBlockHeader: ...


class RpcClient:
    """JSON-RPC 2.0 over HTTP POST against one endpoint."""

    def __init__(self, endpoint: str, chain: ChainRef, timeout_s: float = 10.0) -> None:
        self.endpoint = endpoint
        self.chain = chain
        self.timeout_s = timeout_s
        self._session = requests.Session()
        self._next_id = 0

    def _call(self, method: str, params: list[Any]) -> Any:
        self._next_id += 1
        payload = {"jsonrpc": "2.0", "id": self._next_id, "method": method, "params": params}
        try:
            response = self._session.post(self.endpoint, json=payload, timeout=self.timeout_s)
        except requests.RequestException as exc:
            raise RpcUnavailable(f"{self.endpoint}: {exc}") from exc
        if response.status_code != 200:
            raise RpcUnavailable(f"{self.endpoint}: HTTP {response.status_code}")
        try:
            body = response.json()
        except ValueError as exc:
            raise RpcUnavailable(f"{self.endpoint}: non-JSON response") from exc
        if "error" in body and body["error"] is not None:
            raise RpcUnavailable(f"{self.endpoint}: rpc error {body['error']}")
        return body.get("result")

    def head_number(self) -> int:
        result = self._call("eth_blockNumber", [])
        try:
            return parse_quantity(result)
        except MalformedQuantity as exc:
            raise RpcUnavailable(f"bad eth_blockNumber result: {exc}") from None

    def fetch_block(self, number: int) -> RawBlockHeader:
        result = self._call("eth_getBlockByNumber", [encode_quantity(number), False])
        if result is None:
            raise BlockNotFound(f"{self.chain.name}: block {number} not found")
        return decode_block_fields(self.chain, result)

    def close(self) -> None:
        self._session.close()


@dataclass
class IngestCursor:
    """Per-chain ingest progress; emitted numbers increase by exactly 1.

    start_number pins where a fresh cursor begins; None means the head
    observed at startup (monitoring, not archival backfill).
    """

    chain: ChainRef
    last_emitted: int | None = None
    start_number: int | None = None


def poll_chain(
    profile: ValidatedProfile,
    cursor: IngestCursor,
    emit: Callable[[RawBlockHeader], None],
    *,
    client: BlockSource | None = None,
    stop: threading.Event | None = None,
    max_blocks: int | None = None,
) -> int:
    """Poll the chain's head and emit each new block exactly once, in order.

    Runs until stop is set or max_blocks headers were emitted; returns the
    emission count. Start position defaults to the head observed at
    startup (monitoring, not archival backfill). emit is called in this
    thread, so a blocking sink provides backpressure.
    """
    if stop is None:
        stop = threading.Event()
    if client is None:
        client = RpcClient(profile.rpc_url, profile.chain)
    poll_interval_s = profile.poll_interval_ms / 1000.0
    backoff_s = poll_interval_s
    emitted = 0

    def done() -> bool:
        return stop.is_set() or (max_blocks is not None and emitted >= max_blocks)

    while not done():
        try:
            head = client.head_number()
        except RpcUnavailable as exc:
            log.warning("%s: head poll failed (%s); backing off %.1fs",
                        profile.chain.name, exc, backoff_s)
            stop.wait(backoff_s)
            backoff_s = min(backoff_s * 2, BACKOFF_CAP_S)
            continue
        backoff_s = poll_interval_s

        if cursor.last_emitted is None:
            next_number = cursor.start_number if cursor.start_number is not None else head
            if next_number > head:
                stop.wait(poll_interval_s)
                continue
        elif head < cursor.last_emitted:
            log.warning("%s: head regressed %d -> %d; ignoring",
                        profile.chain.name, cursor.last_emitted, head)
            stop.wait(poll_interval_s)
            continue
        else:
            next_number = cursor.last_emitted + 1

        for number in range(next_number, head + 1):
            try:
                header = _fetch_with_retry(client, profile, number, stop, poll_interval_s)
            except InvalidHeader:
                return emitted  # diagnostic already logged; halt this chain
            if header is None:
                stop.wait(poll_interval_s)
                break  # announced block not yet servable; re-poll the head
            emit(header)
            cursor.last_emitted = number
            emitted += 1
            if done():
                break
        else:
            stop.wait(poll_interval_s)
    return emitted


def _fetch_with_retry(
    client: BlockSource,
    profile: ValidatedProfile,
    number: int,
    stop: threading.Event,
    poll_interval_s: float,
) -> RawBlockHeader | None:
    """Fetch one block, retrying transport errors with capped backoff.

    A persistently invalid header logs a diagnostic and re-raises so
    poll_chain halts this chain; a missing block (head/visibility race)
    returns None so the outer loop re-polls.
    """
    backoff_s = poll_interval_s
    invalid_seen = 0
    while not stop.is_set():
        try:
            return client.fetch_block(number)
        except RpcUnavailable as exc:
            log.warning("%s: fetch %d failed (%s); backing off %.1fs",
                        profile.chain.name, number, exc, backoff_s)
            stop.wait(backoff_s)
            backoff_s = min(backoff_s * 2, BACKOFF_CAP_S)
        except BlockNotFound:
            return None
        except InvalidHeader as exc:
            invalid_seen += 1
            if invalid_seen >= INVALID_HEADER_RETRIES:
                log.error("%s: block %d invalid after %d attempts (%s); halting this chain",
                          profile.chain.name, number, invalid_seen, exc)
                raise
            stop.wait(poll_interval_s)
    return None
