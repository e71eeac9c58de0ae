"""The one reader and one writer of every file gridprompt touches.

Both use ``os.open``/``os.read``/``os.write`` with no text-mode stream, so files are
UTF-8 whatever the locale: a read turns ``\\r\\n`` and ``\\r`` into ``\\n``, and a write
puts exactly the UTF-8 bytes of its text, LF line ends included, on every platform.
"""
from __future__ import annotations

import os

_CHUNK = 1 << 16  # bytes per os.read: each read allocates this much, however small the file
_BINARY = getattr(os, "O_BINARY", 0)  # no newline translation where the OS has it


def read_utf8(path: str | os.PathLike, error: type[Exception] = OSError) -> str:
    """The text of a file; a missing, unreadable or non-UTF-8 one raises ``error("{path}: why")``."""
    try:
        fd = os.open(path, os.O_RDONLY | _BINARY)
        try:
            data = b"".join(iter(lambda: os.read(fd, _CHUNK), b""))
        finally:
            os.close(fd)
        text = data.decode("utf-8")  # write_utf8 puts no \r, so most reads skip both scans
        return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
    except OSError as exc:
        raise error(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from exc


def write_utf8(path: str | os.PathLike, text: str) -> None:
    """Create or truncate a file and write exactly the UTF-8 bytes of text."""
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | _BINARY, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)
