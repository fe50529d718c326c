"""The asyncio front end: stdlib-only HTTP over ``asyncio.start_server``.

One long-lived process owns the compile cache and the warm worker
pools; every request that fingerprints to a seen model shape skips
compilation and lands on already-forked workers.  Blocking work (the
whole :meth:`~repro.serve.session.InferenceService.handle` pipeline)
runs on a thread pool via ``loop.run_in_executor``.  The server opens
each request's one record (its
:class:`~repro.telemetry.flight.FlightRecorder`) when it accepts the
request; the sampling thread feeds and closes it, and
``GET /v1/requests/<id>``, its ``/flightrecorder`` and ``/v1/metrics``
read it from the event loop under the record's lock.

Routes::

    POST /v1/infer                          run one inference request
    GET  /v1/health                         liveness + in-flight count
    GET  /v1/metrics                        request-level aggregates (JSON)
    GET  /v1/metrics?format=prometheus      OpenMetrics text exposition
    GET  /v1/requests/<id>                  live status of a named request
    GET  /v1/requests/<id>/flightrecorder   flight-recorder ring / post-mortem
    GET  /v1/report/<id>                    the request's HTML report artifact
    POST /v1/shutdown                       graceful stop
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import time
import traceback
import urllib.parse
from concurrent.futures import ThreadPoolExecutor

from repro.errors import ReproError
from repro.serve.checkpoint import _safe_name
from repro.serve.protocol import (
    ProtocolError,
    error_response,
    http_response,
    json_response,
    parse_infer_request,
    read_http_request,
)
from repro.serve.session import InferenceService
from repro.telemetry.obslog import configure_event_log, log_event

#: Content type of the ``?format=prometheus`` exposition.
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)


class ReproServer:
    """The service process.  ``port=0`` binds an ephemeral port; read
    the actual one from :attr:`port` after :meth:`start`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        service: InferenceService | None = None,
        checkpoint_dir: str | None = None,
        artifact_dir: str | None = None,
        max_workers: int = 4,
        log_path: str | None = None,
        log_level: str = "info",
    ):
        self.host = host
        self.port = port
        self.service = service or InferenceService(
            checkpoint_dir=checkpoint_dir, artifact_dir=artifact_dir
        )
        if log_path is not None:
            configure_event_log(path=log_path, level=log_level)
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve"
        )
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._in_flight = 0
        self._anon_ids = itertools.count(1)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Block until ``POST /v1/shutdown`` (or cancellation)."""
        if self._server is None:
            await self.start()
        try:
            await self._shutdown.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            self._executor.shutdown(wait=False)
            from repro.core.chains import shutdown_worker_pools

            shutdown_worker_pools()

    def run(self, announce=None) -> None:
        """Convenience blocking entry point (the CLI uses this)."""

        async def main():
            await self.start()
            if announce is not None:
                announce(self)
            await self.serve_forever()

        asyncio.run(main())

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            try:
                request = await read_http_request(reader)
            except ProtocolError as exc:
                writer.write(error_response(400, str(exc)))
                await writer.drain()
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            if request is None:
                return
            response = await self._route(request)
            writer.write(response)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _route(self, request) -> bytes:
        raw_path, _, raw_query = request.path.partition("?")
        method, path = request.method, raw_path.rstrip("/") or "/"
        query = urllib.parse.parse_qs(raw_query)
        if method == "POST" and path == "/v1/infer":
            return await self._handle_infer(request)
        if method == "POST" and path == "/v1/shutdown":
            self._shutdown.set()
            return json_response(200, {"status": "shutting down"})
        if method == "GET" and path == "/v1/health":
            return json_response(
                200,
                {
                    "status": "ok",
                    "in_flight": self._in_flight,
                    "time": time.time(),
                },
            )
        if method == "GET" and path == "/v1/metrics":
            fmt = (query.get("format") or ["json"])[0]
            if fmt == "prometheus":
                text = self.service.metrics.prometheus(
                    in_flight=self._in_flight
                )
                return http_response(
                    200, text.encode(),
                    content_type=OPENMETRICS_CONTENT_TYPE,
                )
            if fmt != "json":
                return error_response(
                    400, f"unknown metrics format {fmt!r}; "
                    "use 'json' or 'prometheus'"
                )
            snap = self.service.metrics.snapshot()
            snap["active_requests"] = self.service.active_requests()
            return json_response(200, snap)
        if method == "GET" and path.startswith("/v1/requests/"):
            rest = path[len("/v1/requests/"):]
            if rest.endswith("/flightrecorder"):
                rid = rest[:-len("/flightrecorder")]
                record = self.service.flight_record(rid)
                if record is None:
                    return error_response(
                        404, f"no flight record for request {rid!r}"
                    )
                return json_response(200, record)
            rid = rest
            status = self.service.request_status(rid)
            if status is None:
                return error_response(404, f"unknown request {rid!r}")
            return json_response(200, status)
        if method == "GET" and path.startswith("/v1/report/"):
            return self._handle_report(path[len("/v1/report/"):])
        if path in (
            "/v1/infer", "/v1/shutdown", "/v1/health", "/v1/metrics",
        ):
            return error_response(405, f"{method} not allowed on {path}")
        return error_response(404, f"no route for {method} {path}")

    # -- /v1/infer ---------------------------------------------------------

    async def _handle_infer(self, request) -> bytes:
        enqueued_at = time.monotonic()
        try:
            payload = json.loads(request.body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return error_response(400, f"invalid JSON body: {exc}")
        try:
            req = parse_infer_request(payload)
        except ProtocolError as exc:
            return error_response(400, str(exc))

        rid = req.request_id or f"anon-{next(self._anon_ids)}"
        flight = self.service.open_record(rid)
        self._in_flight += 1
        log_event(
            "request.accepted", rid=rid, chains=req.chains,
            samples=req.samples, executor=req.executor,
            resume=req.resume and req.request_id is not None,
        )
        try:
            response = await asyncio.get_running_loop().run_in_executor(
                self._executor,
                functools.partial(
                    self.service.handle, req,
                    enqueued_at=enqueued_at, flight=flight,
                ),
            )
        except (ProtocolError, ReproError) as exc:
            self._note_error(rid, exc)
            return error_response(400, str(exc))
        except Exception as exc:
            self._note_error(rid, exc)
            return error_response(500, f"internal error: {exc}")
        finally:
            self._in_flight -= 1
        return json_response(200, response)

    def _note_error(self, rid: str, exc: BaseException) -> None:
        self.service.metrics.record_error(error=exc, request_id=rid)
        log_event(
            "request.error", level="error", rid=rid,
            error=type(exc).__name__, message=str(exc),
            traceback=traceback.format_exc(),
        )

    # -- /v1/report --------------------------------------------------------

    def _handle_report(self, rid: str) -> bytes:
        import os

        artifact_dir = self.service.artifact_dir
        if not artifact_dir or not rid:
            return error_response(404, "reports are not enabled")
        path = os.path.join(artifact_dir, _safe_name(rid) + ".html")
        try:
            with open(path, "rb") as f:
                body = f.read()
        except FileNotFoundError:
            return error_response(404, f"no report for request {rid!r}")
        return http_response(200, body, content_type="text/html")
