"""JSON-RPC 2.0 over HTTP: the program's HTTP client.

RpcClient is the BlockSource monitor builds for a chain's rpc_url when no
client_factory is given. It lives apart from ingest so that a process that
never talks to a node (replay, stats, plot, monitor over in-process
clients) never imports http.client and, through it, ssl and email.
"""

from __future__ import annotations

import base64
import http.client
import json
from typing import Any
from urllib.parse import unquote, urlsplit

from evmon.ingest import (
    BlockNotFound,
    MalformedQuantity,
    RpcUnavailable,
    decode_block_fields,
    encode_quantity,
    parse_quantity,
)
from evmon.model import ChainRef, RawBlockHeader

TIMEOUT_S = 10.0  # for each connect and each socket read


class RpcClient:
    """JSON-RPC 2.0 over HTTP POST on one kept-alive connection to one endpoint.

    The connection goes straight to the endpoint's host: proxy environment
    variables are ignored and redirects are not followed (a 3xx is an
    RpcUnavailable like any status other than 200). An https endpoint is
    verified against the system trust store, and user:pass@ in the URL is
    sent as Basic authorization. A reply is taken only when its id is the
    request's (JSON-RPC 2.0, section 5).
    """

    def __init__(self, endpoint: str, chain: ChainRef) -> None:
        self.endpoint = endpoint
        self.chain = chain
        url = urlsplit(endpoint)
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._headers = {"Content-Type": "application/json"}
        if url.username is not None:
            credentials = f"{unquote(url.username)}:{unquote(url.password or '')}"
            self._headers["Authorization"] = \
                "Basic " + base64.b64encode(credentials.encode()).decode("ascii")
        connection_class: type[http.client.HTTPConnection] = (
            http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection)
        # an explicit port, or http.client would read an IPv6 host's last group as one
        self._connection = connection_class(
            url.hostname or "", url.port or connection_class.default_port, timeout=TIMEOUT_S)
        self._next_id = 0

    def _post(self, payload: bytes) -> tuple[int, bytes]:
        """One request and its whole response on the kept-alive connection.

        A server may close a connection while it is idle; the next request
        on it then fails before any response arrives. Such a request is sent
        once more on a fresh connection (both methods are reads, so this is
        safe); a failure on a fresh connection is not retried.
        """
        reused = self._connection.sock is not None
        try:
            self._connection.request("POST", self._path, payload, self._headers)
            response = self._connection.getresponse()
        except (BrokenPipeError, ConnectionResetError):  # includes RemoteDisconnected
            if not reused:
                raise
            self._connection.close()
            self._connection.request("POST", self._path, payload, self._headers)
            response = self._connection.getresponse()
        return response.status, response.read()

    def _call(self, method: str, params: list[Any]) -> Any:
        self._next_id += 1
        payload = {"jsonrpc": "2.0", "id": self._next_id, "method": method, "params": params}
        try:
            status, data = self._post(json.dumps(payload).encode())
        except (OSError, http.client.HTTPException) as exc:
            self._connection.close()  # the next call reconnects
            raise RpcUnavailable(f"{self.endpoint}: {exc}") from exc
        if status != 200:
            raise RpcUnavailable(f"{self.endpoint}: HTTP {status}")
        try:
            body = json.loads(data)
        except ValueError as exc:
            raise RpcUnavailable(f"{self.endpoint}: non-JSON response") from exc
        if not isinstance(body, dict):
            raise RpcUnavailable(f"{self.endpoint}: response is {type(body).__name__}, "
                                 "not an object")
        reply_id = body.get("id")
        if type(reply_id) is not int or reply_id != self._next_id:
            self._connection.close()  # the replies on it no longer pair with the requests
            raise RpcUnavailable(f"{self.endpoint}: reply id {reply_id!r} does not match "
                                 f"request id {self._next_id}")
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
        self._connection.close()
