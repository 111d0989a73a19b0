"""How a LifeRaft file is framed, checked, published and rejected.

Every file the system keeps — ``.lrbs`` bucket stores, ``.lrcp``
checkpoints, ``.lrtr`` recorded traces, ``.lrrun`` run archives and the
JSON exports (metrics snapshots, span timelines, SLA envelopes) — follows
one discipline, and this module is the only place it is written down:

* **Framing.**  A binary file opens with a little-endian struct header
  whose first two fields are a 4-byte magic and a ``uint16`` version;
  :func:`unpack_header` checks length, magic and version before any other
  field is trusted.
* **Checking.**  Headers, payloads and pages carry CRC-32s
  (:func:`crc32`, :func:`check_crc`); JSON payloads decode through
  :func:`decode_json`.
* **Publishing.**  A writer fills a same-directory temp file
  (:class:`AtomicFile`, named ``<random><ext>.tmp``) and ``os.replace``
  publishes it whole: readers see the previous file or the complete new
  one, never a torn one, and a failed write leaves the destination
  byte-identical and no temp file behind.
* **Rejecting.**  Anything missing, unreadable, truncated, corrupt or
  version-skewed raises one :class:`FormatError` naming the format and
  the path — never a ``struct.error``, ``IndexError`` or decoder error.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from zlib import crc32

__all__ = [
    "AtomicFile",
    "FormatError",
    "atomic_write",
    "check_crc",
    "crc32",
    "decode_json",
    "read_file",
    "unpack_header",
]


class FormatError(ValueError):
    """A LifeRaft file is missing, malformed, corrupt, truncated or version-skewed."""


class AtomicFile:
    """A same-directory temp file that replaces its destination whole or not at all.

    Write through :attr:`handle`, then :meth:`publish` (or :meth:`discard`
    on failure).  The temp file lives beside the destination, so the final
    ``os.replace`` never crosses a filesystem, and a reader that has the
    old file open or mapped keeps its bytes (the new file is a new inode).
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        directory = os.path.dirname(os.path.abspath(self.path))
        suffix = os.path.splitext(self.path)[1] + ".tmp"
        fd, self.temp_path = tempfile.mkstemp(dir=directory, suffix=suffix)
        self.handle = os.fdopen(fd, "wb")

    def publish(self, fsync: bool = False) -> int:
        """Flush (and optionally fsync), then rename over the destination.

        Returns the published file's byte size.  On any failure the temp
        file is removed and the destination is left as it was.
        """
        try:
            self.handle.flush()
            if fsync:
                os.fsync(self.handle.fileno())
            size = os.fstat(self.handle.fileno()).st_size
            self.handle.close()
            os.replace(self.temp_path, self.path)
        except BaseException:
            self.discard()
            raise
        return size

    def discard(self) -> None:
        """Close and remove the temp file; the destination is untouched."""
        self.handle.close()
        try:
            os.unlink(self.temp_path)
        except FileNotFoundError:
            pass


def atomic_write(path: str | os.PathLike, *chunks: bytes, fsync: bool = False) -> int:
    """Publish *chunks*, concatenated, as *path*; returns the byte size."""
    target = AtomicFile(path)
    try:
        target.handle.writelines(chunks)
    except BaseException:
        target.discard()
        raise
    return target.publish(fsync=fsync)


def read_file(path: str | os.PathLike, what: str) -> bytes:
    """The whole file at *path*; an ``OSError`` becomes a :class:`FormatError`."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as error:
        raise FormatError(f"cannot read {what}: {error}") from error


def unpack_header(data, header: struct.Struct, magic: bytes, version: int, what: str) -> tuple:
    """Unpack *header* from the front of *data*, checking length, magic and version.

    *header*'s first two fields must be the magic and the version.
    """
    if len(data) < header.size:
        raise FormatError(
            f"{what} is truncated: {len(data)} bytes, its header needs {header.size}"
        )
    fields = header.unpack_from(data, 0)
    if fields[0] != magic:
        raise FormatError(f"{what} is not a {magic.decode()} file (bad magic {fields[0]!r})")
    if fields[1] != version:
        raise FormatError(
            f"{what} has format version {fields[1]}; this build reads version {version}"
        )
    return fields


def check_crc(data, expected: int, what: str) -> None:
    """Raise unless the CRC-32 of *data* is *expected*."""
    if crc32(data) != expected:
        raise FormatError(f"{what} failed its CRC check")


def decode_json(payload: bytes, what: str):
    """Decode a UTF-8 JSON payload; undecodable bytes raise :class:`FormatError`."""
    try:
        return json.loads(payload.decode("utf-8"))
    except ValueError as error:  # JSONDecodeError and UnicodeDecodeError
        raise FormatError(f"{what} is not valid JSON: {error}") from error
