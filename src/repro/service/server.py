"""PUF-authentication-as-a-service: in-process API + TCP transport.

:class:`PufAuthService` is the long-lived serving object ROADMAP item 1
asks for: it owns an enrollment database, a verification engine, and a
request coalescer, and exposes

* an **in-process async API** — ``await service.verify(request)`` from
  any task; concurrent callers are coalesced into fused device-batched
  engine passes, and

* an optional **JSON-lines TCP transport** — one request object per
  line, one reply object per line, ids echoed so clients may pipeline.
  The off-chip-memory-as-async-endpoint idiom (assassyn, PAPERS.md):
  a verification is a request/response exchange, never a blocking call
  into the simulator.

Requests are validated *before* they reach the batcher, so a malformed
or Frac-incapable module spec is refused immediately and can never
poison the batch it would have shared.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from ..dram.vendor import GROUPS
from ..errors import ConfigurationError
from ..telemetry.registry import active as _telemetry_active
from .batcher import RequestBatcher, VerificationEngine, VerifyReply, VerifyRequest
from .clock import Clock
from .config import CoalescePolicy, parse_module_id
from .enrollment import EnrollmentDb

__all__ = ["PufAuthService", "parse_request_line"]


def parse_request_line(line: str) -> VerifyRequest:
    """Decode one JSON-lines transport request.

    Accepts either a canonical ``"module": "<group>-<serial>"`` id or
    explicit ``"group"``/``"serial"`` fields, plus optional ``"epoch"``
    and ``"claim"``.  Raises :class:`ConfigurationError` on malformed
    input — the transport turns that into an error reply.
    """
    try:
        document = json.loads(line)
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"malformed JSON request: {error}") from None
    if not isinstance(document, dict):
        raise ConfigurationError("request must be a JSON object")
    if "module" in document:
        group_id, serial = parse_module_id(str(document["module"]))
    else:
        try:
            group_id = str(document["group"])
            serial = int(document["serial"])
        except (KeyError, TypeError, ValueError):
            raise ConfigurationError(
                "request needs 'module' or 'group'+'serial'") from None
    claim = document.get("claim")
    return VerifyRequest(
        request_id=str(document.get("id", "")),
        group_id=group_id,
        serial=serial,
        epoch=int(document.get("epoch", 1)),
        claimed_id=None if claim is None else str(claim))


class PufAuthService:
    """Long-lived authentication service over an enrolled fleet."""

    def __init__(self, db: EnrollmentDb, *,
                 policy: CoalescePolicy | None = None,
                 clock: Clock | None = None) -> None:
        self.db = db
        self.engine = VerificationEngine(db)
        self.batcher = RequestBatcher(
            self.engine, policy or db.config.coalesce, clock)
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task[None]] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        await self.batcher.start()

    async def stop(self) -> None:
        """Stop the transport (if any), drain the batcher, shut down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for connection in list(self._connections):
            connection.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        await self.batcher.stop()

    # ------------------------------------------------------------------
    # in-process API
    # ------------------------------------------------------------------

    def validate(self, request: VerifyRequest) -> None:
        """Refuse requests the engine could not serve.

        Validation happens before coalescing so one bad request cannot
        take down the fused pass its batch-mates ride on.
        """
        profile = GROUPS.get(request.group_id)
        if profile is None:
            raise ConfigurationError(
                f"unknown vendor group {request.group_id!r}")
        if profile.decoder.enforces_command_spacing:
            raise ConfigurationError(
                f"group {request.group_id!r} drops out-of-spec commands; "
                f"its modules cannot host a Frac PUF (Table I)")

    async def verify(self, request: VerifyRequest) -> VerifyReply:
        """Authenticate one presented module (coalesced under load)."""
        self.validate(request)
        return await self.batcher.submit(request)

    # ------------------------------------------------------------------
    # JSON-lines TCP transport
    # ------------------------------------------------------------------

    async def serve_tcp(self, host: str = "127.0.0.1",
                        port: int = 0) -> tuple[str, int]:
        """Start the transport; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise ConfigurationError("transport already serving")
        self._server = await asyncio.start_server(
            self._handle_connection, host, port)
        bound = self._server.sockets[0].getsockname()
        return str(bound[0]), int(bound[1])

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        write_lock = asyncio.Lock()
        in_flight: set[asyncio.Task[None]] = set()

        async def serve_line(line: str) -> None:
            reply = await self._reply_for_line(line)
            async with write_lock:
                writer.write((json.dumps(reply, sort_keys=True) + "\n")
                             .encode())
                await writer.drain()

        try:
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                line = raw.decode().strip()
                if not line:
                    continue
                # One task per line: a pipelined client's requests
                # coalesce into shared batches instead of serializing.
                line_task = asyncio.ensure_future(serve_line(line))
                in_flight.add(line_task)
                line_task.add_done_callback(in_flight.discard)
            if in_flight:
                await asyncio.gather(*in_flight, return_exceptions=True)
        except asyncio.CancelledError:
            for line_task in list(in_flight):
                line_task.cancel()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass
            if task is not None:
                self._connections.discard(task)

    async def _reply_for_line(self, line: str) -> dict[str, Any]:
        telemetry = _telemetry_active()
        try:
            request = parse_request_line(line)
            reply = await self.verify(request)
        except ConfigurationError as error:
            if telemetry is not None:
                telemetry.count("service.transport_errors")
            return {"error": str(error)}
        document = reply.to_json_dict()
        document["id"] = request.request_id
        return document
