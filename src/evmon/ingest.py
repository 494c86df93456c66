"""Block-header acquisition over EVM JSON-RPC.

Polls eth_blockNumber and backfills with eth_getBlockByNumber so each new
block is emitted exactly once, in ascending order, without gaps: a head
jump of k > 1 fetches the k-1 missing blocks first, and a repeated head is
deduplicated. Chain reorganizations are out of scope at this level: an
emitted number is never re-emitted, and a head regression is logged and
ignored.

One retry policy covers both calls, and nothing in it exits the process:
- a transport failure (RpcUnavailable) of a head poll or a fetch waits one
  shared backoff, which starts at the poll interval, doubles up to
  BACKOFF_CAP_S (30 s) and resets when a call answers or a block is not
  found;
- a block not found (announced before it is servable) waits one poll
  interval, then the head is polled again;
- a block that decodes invalid, or that comes back under another number,
  waits one poll interval and is fetched again. The third such answer for
  one block, counted across transport failures and reset by an answer or
  a not-found, halts this chain's ingest, preferring data integrity over
  availability: poll_chain raises InvalidHeader("halted at block N: ...").

poll_chain alone decides, through its idle callback, when its caller
processes what it emitted.

This module holds the polling, the retry policy and the wire decoder, and
loads no HTTP code: the HTTP transport, RpcClient, is evmon.rpc.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Any, Callable, Protocol

from evmon.model import (
    ChainRef,
    FeeQuantity,
    GasQuantity,
    NetworkProfile,
    RawBlockHeader,
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
    """Decode a 0x-prefixed hexadecimal quantity to a non-negative int.

    The digits must be ASCII [0-9a-fA-F]+.
    """
    if not isinstance(hex_string, str) or not hex_string.startswith("0x"):
        raise MalformedQuantity(f"missing 0x prefix: {hex_string!r}")
    if len(hex_string) == 2:
        raise MalformedQuantity(f"empty hex digits: {hex_string!r}")
    # int() alone would also take a sign, underscores, whitespace and non-ASCII digits
    if not (hex_string.isascii() and hex_string.isalnum()):
        raise MalformedQuantity(f"non-hex characters: {hex_string!r}")
    try:
        return int(hex_string, 16)
    except ValueError:
        raise MalformedQuantity(f"non-hex characters: {hex_string!r}") from None


def encode_quantity(value: int) -> str:
    """Canonical EVM hex encoding: 0x-prefixed, minimal digits."""
    if value < 0:
        raise ValueError(f"quantities are non-negative, got {value}")
    return hex(value)


_REQUIRED_FIELDS = ("number", "timestamp", "gasUsed", "gasLimit", "baseFeePerGas")


def _field_quantity(key: str, value: Any) -> int:
    """parse_quantity's verdict on a field that is not canonical hex."""
    try:
        return parse_quantity(value)
    except MalformedQuantity as exc:
        raise InvalidHeader(f"field {key}: {exc}") from None


def decode_block_fields(chain: ChainRef, obj: dict[str, Any]) -> RawBlockHeader:
    """Decode an eth_getBlockByNumber result object into a header.

    Requires number, timestamp, gasUsed, gasLimit and baseFeePerGas (all
    monitored chains run a base-fee market, so an absent baseFeePerGas is
    an error, not a legacy block). The optional priorityFeeObserved
    extension carries a block-level priority-fee estimate where the source
    provides one. Validates gas_used <= gas_limit.

    A field in canonical form (0x and minimal lowercase digits, as nodes
    send it) is decoded inline, with no function call of its own: it is
    int(value, 16), and "0x%x" % that int gives value back. The check is
    a %-format rather than an f-string because it is the cheaper of the
    two, and both write the same string for every int, a negative one
    included. Any other value goes to parse_quantity, so a field is
    accepted, or refused with the same text, exactly as parse_quantity
    alone decides.
    """
    if not isinstance(obj, dict):
        raise InvalidHeader(f"block object is {type(obj).__name__}, not an object")
    fields = {}
    for key in _REQUIRED_FIELDS:
        value = obj[key] if key in obj else None
        if value is None:
            raise InvalidHeader(f"missing field {key}")
        try:
            quantity = int(value, 16)
        except (TypeError, ValueError):
            quantity = None
        # int() also takes 0X, a sign, '_', whitespace and non-ASCII digits:
        # only the canonical form is taken here
        if quantity is None or "0x%x" % quantity != value:
            quantity = _field_quantity(key, value)
        fields[key] = quantity
    if fields["gasUsed"] > fields["gasLimit"]:
        raise InvalidHeader(
            f"gas_used {fields['gasUsed']} exceeds gas_limit {fields['gasLimit']}"
        )
    priority = obj["priorityFeeObserved"] if "priorityFeeObserved" in obj else None
    if priority is not None:
        try:
            tip = int(priority, 16)
        except (TypeError, ValueError):
            tip = None
        if tip is None or "0x%x" % tip != priority:
            tip = _field_quantity("priorityFeeObserved", priority)
        priority = FeeQuantity(tip)
    return RawBlockHeader(chain, fields["number"], fields["timestamp"],
                          GasQuantity(fields["gasUsed"]), GasQuantity(fields["gasLimit"]),
                          FeeQuantity(fields["baseFeePerGas"]), priority)


class BlockSource(Protocol):
    """What poll_chain needs from a node client."""

    def head_number(self) -> int: ...

    def fetch_block(self, number: int) -> RawBlockHeader: ...


def poll_chain(
    profile: NetworkProfile,
    emit: Callable[[RawBlockHeader], None],
    *,
    client: BlockSource,
    stop: threading.Event | None = None,
    max_blocks: int | None = None,
    start_number: int | None = None,
    idle: Callable[[], None] | None = None,
) -> int:
    """Poll the chain's head and emit each new block exactly once, in order.

    Runs until stop is set or max_blocks headers were emitted; returns the
    emission count. Raises InvalidHeader ("halted at block N: ...") when a
    block stays invalid after retries. Emission begins at start_number,
    or with None at the head observed at startup (monitoring, not archival
    backfill); emitted numbers then increase by exactly 1. emit and idle
    run in this thread, and an exception from either ends the loop. idle,
    if given, is when the caller processes what was emitted: it runs
    before each sleep (poll interval or backoff), and right after an emit
    once a poll interval has passed since the last sleep or idle.

    Each pass makes one call: a head poll when no polled head is left to
    fetch up to, otherwise a fetch of the next block.
    """
    if start_number is not None and start_number < 0:
        raise ValueError(f"start_number must be non-negative, got {start_number}")
    if stop is None:
        stop = threading.Event()
    poll_interval_s = profile.poll_interval_ms / 1000.0
    backoff_s = poll_interval_s
    invalid_seen = 0
    emitted = 0
    next_number = start_number or 0  # with None, re-anchored at each head poll
    head: int | None = None  # the polled head still to fetch up to
    run_idle = idle or (lambda: None)
    idled_at = time.monotonic()  # when a sleep last ended or idle last returned

    def sleep(seconds: float) -> None:
        nonlocal idled_at
        run_idle()
        stop.wait(seconds)
        idled_at = time.monotonic()

    while not stop.is_set() and (max_blocks is None or emitted < max_blocks):
        polling = head is None
        try:
            if polling:
                head = client.head_number()
            else:
                header = client.fetch_block(next_number)
                if header.number != next_number:
                    raise InvalidHeader(f"asked for block {next_number}, "
                                        f"got block {header.number}")
        except RpcUnavailable as exc:
            log.warning("%s: %s failed (%s); backing off %.1fs", profile.chain.name,
                        "head poll" if polling else f"fetch {next_number}", exc, backoff_s)
            sleep(backoff_s)
            backoff_s = min(backoff_s * 2, BACKOFF_CAP_S)
            continue
        except InvalidHeader as exc:
            invalid_seen += 1
            if invalid_seen >= INVALID_HEADER_RETRIES:
                log.error("%s: block %d invalid after %d attempts (%s); halting this chain",
                          profile.chain.name, next_number, invalid_seen, exc)
                raise InvalidHeader(f"halted at block {next_number}: {exc}") from exc
            sleep(poll_interval_s)
            continue
        except BlockNotFound:
            header = None  # announced but not yet servable: re-poll the head
        backoff_s = poll_interval_s
        invalid_seen = 0

        if polling:
            if not emitted and start_number is None:
                next_number = head  # until the first emission, start at the latest head
            if head >= next_number:
                continue
            if emitted and head < next_number - 1:
                log.warning("%s: head regressed %d -> %d; ignoring",
                            profile.chain.name, next_number - 1, head)
        elif header is not None:
            emit(header)
            emitted += 1
            next_number += 1
            if time.monotonic() - idled_at >= poll_interval_s:
                run_idle()
                idled_at = time.monotonic()
            if next_number <= head or emitted == max_blocks:
                continue
        head = None
        sleep(poll_interval_s)
    return emitted
