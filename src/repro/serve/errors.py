"""Typed API errors.

Every failure the daemon can hand a client maps to one exception class
with a stable machine-readable ``code``; the handler layer renders them
all through :func:`error_body` so clients never have to parse prose.
Backpressure and drain rejections carry ``retry_after`` (whole seconds),
which the server echoes as a ``Retry-After`` header — the contract the
closed-loop load generator keys its retry pacing on.
"""

from __future__ import annotations

import json

__all__ = [
    "ApiError",
    "BadRequest",
    "Draining",
    "HeaderTooLarge",
    "MalformedRequest",
    "MethodNotAllowed",
    "NotFound",
    "PayloadTooLarge",
    "TooManyRequests",
    "Unimplemented",
    "UriTooLong",
    "VersionNotSupported",
    "error_body",
]


class ApiError(Exception):
    """Base of every typed API failure (HTTP status + stable code)."""

    status = 500
    code = "internal"
    #: The request's framing cannot be trusted (its body may be unread
    #: or cut short), so the reply says ``Connection: close`` and the
    #: connection carries no further request.
    closes = False

    def __init__(self, message: str, *, retry_after: int | None = None,
                 details: dict | None = None) -> None:
        super().__init__(message)
        self.message = message
        self.retry_after = retry_after
        self.details = details

    def payload(self) -> dict:
        error: dict = {"code": self.code, "message": self.message}
        if self.retry_after is not None:
            error["retry_after"] = self.retry_after
        if self.details:
            error["details"] = self.details
        return {"error": error}


class BadRequest(ApiError):
    status = 400
    code = "bad_request"


class MalformedRequest(BadRequest):
    """A broken request line, header line, ``Content-Length`` or body."""

    closes = True


class NotFound(ApiError):
    status = 404
    code = "not_found"


class MethodNotAllowed(ApiError):
    status = 405
    code = "method_not_allowed"


class PayloadTooLarge(ApiError):
    # The body is left unread, so it must not be parsed as a request.
    status = 413
    code = "payload_too_large"
    closes = True


class UriTooLong(ApiError):
    """A request line over 65536 bytes."""

    status = 414
    code = "uri_too_long"
    closes = True


class HeaderTooLarge(ApiError):
    """A header line over 65536 bytes, or too many header lines."""

    status = 431
    code = "header_too_large"
    closes = True


class Unimplemented(ApiError):
    """An unknown method, or a ``Transfer-Encoding`` body."""

    status = 501
    code = "not_implemented"
    closes = True


class VersionNotSupported(ApiError):
    """A request line naming HTTP/2 or later."""

    status = 505
    code = "http_version_not_supported"
    closes = True


class TooManyRequests(ApiError):
    """Backpressure: the bounded request queue is full."""

    status = 429
    code = "backpressure"


class Draining(ApiError):
    """The daemon is shutting down; in-flight work completes, new work
    is turned away."""

    status = 503
    code = "draining"


def error_body(exc: ApiError) -> bytes:
    return (json.dumps(exc.payload()) + "\n").encode("utf-8")
