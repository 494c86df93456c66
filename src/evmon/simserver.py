"""The mock node over HTTP: JSON-RPC 2.0 served from a simnode ledger.

handle_rpc_request answers one request object against a ledger, and
SimNodeServer serves it on 127.0.0.1 with persistent HTTP/1.1
connections, as a real node does. They live apart from simnode so that a
process that only drives in-process ledgers (LedgerRpcClient) never
imports http.server.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from evmon.ingest import encode_quantity, parse_quantity
from evmon.model import RawBlockHeader
from evmon.simnode import Clock, _Ledger, encode_header_wire


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
    """HTTP/1.1 with persistent connections, as a real node serves JSON-RPC.

    A request body must come with a Content-Length of decimal digits: a
    request without one (a chunked body included) is answered 411, one with
    any other value 400, and either closes the connection.

    wfile is buffered, so each response leaves in one write when
    handle_one_request flushes it: headers and body written separately
    would make every call wait on the client's delayed ACK.
    """

    server: "SimNodeServer"
    protocol_version = "HTTP/1.1"
    wbufsize = -1

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        # send_error also answers "Connection: close": no unread body is taken for a request
        length = self.headers.get("Content-Length")
        if length is None or "Transfer-Encoding" in self.headers:
            self.send_error(411)
            return
        if not (length.isascii() and length.isdigit()):
            self.send_error(400, "Bad Content-Length")
            return
        body = self.rfile.read(int(length))
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
    at. The ledger is immutable; only the clock readout changes. stop()
    also ends every kept-alive connection, as a node that goes down does,
    and returns once every handler thread has ended.
    """

    daemon_threads = False  # so server_close joins the handler threads

    def __init__(self, headers: list[RawBlockHeader], clock: Clock, port: int = 0) -> None:
        self.ledger = _Ledger(headers, clock)
        self._thread: threading.Thread | None = None
        self._stopping = False
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()
        super().__init__(("127.0.0.1", port), _Handler)

    def finish_request(self, request: Any, client_address: Any) -> None:
        with self._open_lock:
            if self._stopping:
                return  # accepted before stop(); closed unanswered
            self._open.add(request)
        try:
            super().finish_request(request, client_address)
        finally:
            with self._open_lock:
                self._open.discard(request)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> None:
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self.shutdown()
        with self._open_lock:
            self._stopping = True
            for connection in self._open:
                try:
                    # a request in flight is answered; the handler's next read is EOF
                    connection.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # the client closed it first
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "SimNodeServer":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
