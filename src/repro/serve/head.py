"""HTTP/1.1 header blocks, read the same way at both ends of the loop.

The daemon's ``Handler.parse_request`` reads every request's header
block with :func:`read_headers`, and the load generator reads every
reply's with it, so one piece of code parses the HTTP heads that
``repro serve`` and ``repro loadtest`` exchange (RFC 9112 §5).
"""

from __future__ import annotations

from repro.serve.errors import HeaderTooLarge, MalformedRequest

__all__ = ["MAX_HEADER_LINES", "MAX_LINE", "read_headers"]

#: ``http.client``'s limits on a head: bytes per line (CRLF included),
#: and lines per header block (its closing blank line included).
MAX_LINE = 65536
MAX_HEADER_LINES = 100


def read_headers(readline) -> dict[str, str]:
    """Read one header block through a buffered reader's ``readline``.

    Returns a plain dict keyed by lower-cased name; the first value
    wins, as ``HTTPMessage.get`` returns it, except that a repeated
    ``Content-Length`` with another value becomes ``"a, b"``, which no
    reader takes for a length.  The block ends at a blank line or at
    the end of the stream.  A line over ``MAX_LINE`` bytes or a block
    over ``MAX_HEADER_LINES`` lines raises :class:`HeaderTooLarge`; a
    line that is not ``name: value`` raises :class:`MalformedRequest`.
    """
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES):
        raw = readline(MAX_LINE + 1)
        if len(raw) > MAX_LINE:
            raise HeaderTooLarge(f"header line over {MAX_LINE} bytes")
        if raw in (b"\r\n", b"\n", b""):
            return headers
        text = raw.decode("iso-8859-1")
        name, colon, value = text.partition(":")
        # No colon, no name, or whitespace in the name (which covers
        # obs-fold continuation lines): RFC 9112 §5.1-5.2.
        if not colon or not name or " " in name or "\t" in name:
            raise MalformedRequest(f"bad header line {text.rstrip()[:80]!r}")
        key = name.lower()
        value = value.strip(" \t\r\n")
        if key not in headers:
            headers[key] = value
        elif key == "content-length" and headers[key] != value:
            headers[key] += ", " + value
    raise HeaderTooLarge(f"more than {MAX_HEADER_LINES - 1} header lines")
