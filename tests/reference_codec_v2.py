"""Frozen, test-only oracle of the durable format, version 2.

``tests/reference_codec.py`` is version 1 and stays as it is: what it
writes is what older builds left on disk, and the live decoder must
still read it.  This file is that ladder plus the one thing version 2
added, the state-table tag, written the slow, obvious way: one
``struct.pack`` per key and one per value.  It is never imported by
``src/``: the tests hold the live encoder to
``encode(x) == reference_encode_v2(x)``.  Do not optimise or tidy it; a
format change must show up as a diff against this file.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.errors import StorageError

_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_BYTES = 0x06
_TAG_TUPLE = 0x07
_TAG_LIST = 0x08
_TAG_DICT = 0x09
_TAG_TABLE = 0x0A

_FLOAT = struct.Struct(">d")

#: Key-column width in bytes -> little-endian unsigned struct format.
_KEY_FORMATS = {1: "<B", 2: "<H", 4: "<I"}


def _write_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _wide_zigzag(value: int) -> int:
    # Zig-zag mapping for arbitrary-precision ints (Python ints are unbounded).
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def _encode_into(out: bytearray, obj: Any) -> None:
    if obj is None:
        out.append(_TAG_NONE)
    elif obj is True:
        out.append(_TAG_TRUE)
    elif obj is False:
        out.append(_TAG_FALSE)
    elif isinstance(obj, int):
        out.append(_TAG_INT)
        _write_varint(out, _wide_zigzag(obj))
    elif isinstance(obj, float):
        out.append(_TAG_FLOAT)
        out.extend(_FLOAT.pack(obj))
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out.append(_TAG_STR)
        _write_varint(out, len(raw))
        out.extend(raw)
    elif isinstance(obj, (bytes, bytearray)):
        out.append(_TAG_BYTES)
        _write_varint(out, len(obj))
        out.extend(obj)
    elif isinstance(obj, tuple):
        out.append(_TAG_TUPLE)
        _write_varint(out, len(obj))
        for item in obj:
            _encode_into(out, item)
    elif isinstance(obj, list):
        out.append(_TAG_LIST)
        _write_varint(out, len(obj))
        for item in obj:
            _encode_into(out, item)
    elif isinstance(obj, dict) and _is_state_table(obj):
        keys = sorted(obj)
        width = 1 if keys[-1] <= 0xFF else 2 if keys[-1] <= 0xFFFF else 4
        out.append(_TAG_TABLE)
        _write_varint(out, len(keys))
        out.append(width)
        for key in keys:
            out.extend(struct.pack(_KEY_FORMATS[width], key))
        for key in keys:
            out.extend(struct.pack("<d", obj[key]))
    elif isinstance(obj, dict):
        out.append(_TAG_DICT)
        _write_varint(out, len(obj))
        try:
            items = sorted(obj.items())
        except TypeError:
            # Mixed-type keys cannot be sorted; fall back to a
            # deterministic sort on the encoded key bytes.
            items = sorted(obj.items(), key=lambda kv: reference_encode_v2(kv[0]))
        for key, value in items:
            _encode_into(out, key)
            _encode_into(out, value)
    else:
        raise StorageError(f"cannot serialize object of type {type(obj).__name__}")


def _is_state_table(obj: dict) -> bool:
    """Non-empty, every key exactly an ``int`` in ``[0, 2**32)``, every
    value exactly a ``float`` (no bool, no subclass)."""
    if not obj:
        return False
    for key, value in obj.items():
        if type(key) is not int or not 0 <= key <= 0xFFFFFFFF:
            return False
        if type(value) is not float:
            return False
    return True


def reference_encode_v2(obj: Any) -> bytes:
    """Serialize ``obj`` into version 2 of the tagged binary format."""
    out = bytearray()
    _encode_into(out, obj)
    return bytes(out)
