"""Wire protocol for the inference service: JSON schema + minimal HTTP.

No third-party dependencies: HTTP/1.1 is parsed directly off the
asyncio stream (request line, headers, ``Content-Length`` body) and
responses are rendered by hand.  The service speaks JSON both ways.

Request schema (``POST /v1/infer``)::

    {
      "request_id": "job-42",            // optional; enables checkpoints
      "model_source": "...augur text...",
      "data": {"N": 40, "y": [...], ...},  // hypers + observations, mixed
      "query": {
        "samples": 500, "burn_in": 0, "thin": 1, "chains": 2,
        "seed": 0, "collect": ["mu"], "schedule": null,
        "executor": "processes", "chunk_size": 25,
        "warmup": 500, "target_accept": 0.8,  // HMC/NUTS adaptation
        "tune": false            // autotune the schedule by measurement
      },
      "budget": {
        "deadline_s": 2.0,     // wall-clock cap for the request
        "max_draws": 100,      // cap on new kept draws this call
        "target_rhat": 1.01    // early-stop once split R-hat converges
      },
      "resume": true,          // continue this id's checkpoint if any
      "return_draws": false,   // embed raw draws in the response
      "report": true           // write the HTML/JSON report artifact
    }

All of ``query``/``budget`` and their members are optional; defaults
match the CLI.  ``data`` values follow the CLI input coercion rules
(nested lists with unequal row lengths load as ragged arrays).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.chains import EXECUTORS
from repro.errors import ReproError
from repro.telemetry.jsonenc import dumps

#: Largest accepted request body (model text + data), in bytes.
MAX_BODY_BYTES = 64 << 20


class ProtocolError(ReproError):
    """A malformed or invalid service request."""


# ----------------------------------------------------------------------
# Request schema.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Budget:
    """Per-request sampling budget: the request answers when the first
    of deadline / draw cap / convergence target is reached (or all
    requested draws are taken)."""

    deadline_s: float | None = None
    max_draws: int | None = None
    target_rhat: float | None = None


@dataclass
class InferRequest:
    """One parsed, validated inference request."""

    model_source: str
    values: dict
    request_id: str | None = None
    samples: int = 500
    burn_in: int = 0
    thin: int = 1
    chains: int = 1
    seed: int = 0
    collect: tuple | None = None
    schedule: str | None = None
    executor: str = "sequential"
    chunk_size: int | None = None
    warmup: int = 0
    target_accept: float = 0.8
    tune: bool = False
    budget: Budget = field(default_factory=Budget)
    resume: bool = True
    return_draws: bool = False
    report: bool = True


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ProtocolError(msg)


def _get_int(obj: dict, key: str, default, lo=None) -> int | None:
    v = obj.get(key, default)
    if v is None:
        return None
    _require(isinstance(v, int) and not isinstance(v, bool),
             f"{key!r} must be an integer")
    if lo is not None:
        _require(v >= lo, f"{key!r} must be >= {lo}")
    return v


def _get_num(obj: dict, key: str, default) -> float | None:
    v = obj.get(key, default)
    if v is None:
        return None
    _require(isinstance(v, (int, float)) and not isinstance(v, bool),
             f"{key!r} must be a number")
    return float(v)


def parse_infer_request(payload) -> InferRequest:
    """Validate a decoded JSON body into an :class:`InferRequest`.

    Data values are kept raw here; the session coerces them with the
    CLI's input rules right before compilation (so protocol parsing
    stays dependency-light and unit-testable).
    """
    _require(isinstance(payload, dict), "request body must be a JSON object")
    source = payload.get("model_source") or payload.get("model")
    _require(isinstance(source, str) and source.strip() != "",
             "'model_source' (the model text) is required")
    values = payload.get("data", {})
    _require(isinstance(values, dict), "'data' must be an object")
    request_id = payload.get("request_id")
    if request_id is not None:
        _require(
            isinstance(request_id, str) and 0 < len(request_id) <= 200,
            "'request_id' must be a non-empty string (<= 200 chars)",
        )

    query = payload.get("query", {})
    _require(isinstance(query, dict), "'query' must be an object")
    samples = _get_int(query, "samples", 500, lo=1)
    burn_in = _get_int(query, "burn_in", 0, lo=0)
    thin = _get_int(query, "thin", 1, lo=1)
    chains = _get_int(query, "chains", 1, lo=1)
    seed = _get_int(query, "seed", 0)
    chunk_size = _get_int(query, "chunk_size", None, lo=1)
    warmup = _get_int(query, "warmup", 0, lo=0)
    target_accept = _get_num(query, "target_accept", 0.8)
    _require(
        0.0 < target_accept < 1.0,
        "'target_accept' must lie strictly between 0 and 1",
    )
    executor = query.get("executor", "sequential")
    _require(executor in EXECUTORS,
             f"'executor' must be one of {', '.join(EXECUTORS)}")
    tune = query.get("tune", False)
    _require(isinstance(tune, bool), "'tune' must be a boolean")
    schedule = query.get("schedule")
    if schedule is not None:
        _require(isinstance(schedule, str), "'schedule' must be a string")
    collect = query.get("collect")
    if collect is not None:
        _require(
            isinstance(collect, list)
            and all(isinstance(c, str) for c in collect),
            "'collect' must be a list of parameter names",
        )
        collect = tuple(collect)

    braw = payload.get("budget", {})
    _require(isinstance(braw, dict), "'budget' must be an object")
    deadline = _get_num(braw, "deadline_s", None)
    if deadline is not None:
        _require(deadline > 0, "'deadline_s' must be positive")
    max_draws = _get_int(braw, "max_draws", None, lo=1)
    target_rhat = _get_num(braw, "target_rhat", None)
    if target_rhat is not None:
        _require(target_rhat >= 1.0, "'target_rhat' must be >= 1.0")

    def flag(key, default):
        v = payload.get(key, default)
        _require(isinstance(v, bool), f"{key!r} must be a boolean")
        return v

    return InferRequest(
        model_source=source,
        values=values,
        request_id=request_id,
        samples=samples,
        burn_in=burn_in,
        thin=thin,
        chains=chains,
        seed=seed,
        collect=collect,
        schedule=schedule,
        executor=executor,
        chunk_size=chunk_size,
        warmup=warmup,
        target_accept=target_accept,
        tune=tune,
        budget=Budget(deadline, max_draws, target_rhat),
        resume=flag("resume", True),
        return_draws=flag("return_draws", False),
        report=flag("report", True),
    )


def coerce_values(values: dict) -> dict:
    """Apply the CLI's JSON input coercion (arrays, ragged arrays) to a
    request's raw data values."""
    from repro.cli import _coerce_json_value

    return {k: _coerce_json_value(v) for k, v in values.items()}


# ----------------------------------------------------------------------
# Minimal HTTP.
# ----------------------------------------------------------------------


@dataclass
class HttpRequest:
    method: str
    path: str
    headers: dict
    body: bytes


STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


async def read_http_request(reader) -> HttpRequest | None:
    """Parse one HTTP/1.1 request off an asyncio stream reader.

    Returns ``None`` on a cleanly closed connection before any bytes.
    Raises :class:`ProtocolError` on malformed input or an oversized
    body (the server maps that to a 400/413).
    """
    line = await reader.readline()
    if not line:
        return None
    try:
        parts = line.decode("latin-1").split()
        method, target = parts[0].upper(), parts[1]
    except (UnicodeDecodeError, IndexError):
        raise ProtocolError("malformed HTTP request line")
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:
            raise ProtocolError("malformed HTTP header")
        headers[name.strip().lower()] = value.strip()
    length = 0
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise ProtocolError("invalid Content-Length")
    if length > MAX_BODY_BYTES:
        raise ProtocolError(
            f"request body exceeds {MAX_BODY_BYTES} bytes", )
    body = await reader.readexactly(length) if length else b""
    return HttpRequest(method, target, headers, body)


def http_response(
    status: int, body: bytes, content_type: str = "application/json"
) -> bytes:
    """Render one complete HTTP/1.1 response (connection: close)."""
    head = (
        f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body


def json_response(status: int, payload) -> bytes:
    """``payload`` as a JSON response, through the telemetry encoder: a
    nan or infinite float (an unknown R-hat or ESS, the R-hat of chains
    stuck at different values) is sent as ``null``."""
    return http_response(status, dumps(payload).encode())


def error_response(status: int, message: str) -> bytes:
    return json_response(status, {"status": "error", "error": message})
