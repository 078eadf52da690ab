"""Tagged binary codec for everything the system persists.

A compact, dependency-free, deterministic serialization format.  It
exists for two reasons:

1. *Honest durability.*  Recovery paths decode the same bytes a real
   engine would read back from disk; nothing recovers from live Python
   references.
2. *Honest I/O accounting.*  The storage device model charges virtual
   time per byte, so log-record sizes (the quantity DistDGCC inflates
   and MorphStreamR's selective logging shrinks) must be real.

Format: one tag byte followed by a payload.  Integers are
zig-zag + varint encoded, floats are IEEE-754 doubles, strings are
UTF-8 with a varint length prefix, containers are a varint count
followed by the elements.  Dict keys are sorted during encoding so the
output is deterministic regardless of insertion order.

Supported types: ``None``, ``bool``, ``int``, ``float``, ``str``,
``bytes``, ``tuple``, ``list``, ``dict`` (tuples decode as tuples and
lists as lists — the distinction is preserved).

The encoding is canonical: ``encode(decode(b)) == b`` for every ``b``
that :func:`encode` produced.  Two things lean on that.  An
:class:`Encoded` carries bytes that are already codec output, so a
payload is walked once and the same bytes are measured, charged and
stored (or spliced into a larger record).  And the one shape that
dominates checkpoints and watermarks — a numeric table, ``{int:
float}`` — takes a tighter loop on both sides that emits and accepts
exactly the bytes the general path does.
"""

from __future__ import annotations

import struct
from typing import Any, List, Optional, Tuple

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

_FLOAT = struct.Struct(">d")

# Numeric-table entries, one pack per record: the INT tag, a 1-, 2- or
# 3-byte varint, the FLOAT tag and the double.
_ENTRY_1 = struct.Struct(">BBBd").pack
_ENTRY_2 = struct.Struct(">BBBBd").pack
_ENTRY_3 = struct.Struct(">BBBBBd").pack
#: Entries joined per append to the output: bounds the list of parts a
#: 65 536-record table would otherwise hold all at once.
_TABLE_CHUNK = 2048


class Encoded:
    """Bytes that are already :func:`encode` output for some value.

    Stores take one in place of the value and skip their own encode;
    nested inside a value, :func:`encode` splices it verbatim.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        self.data = data

    def __len__(self) -> int:
        return len(self.data)


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


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise StorageError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _wide_zigzag(value: int) -> int:
    # Zig-zag mapping for arbitrary-precision ints (Python ints are unbounded).
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    return value >> 1 if not value & 1 else -((value + 1) >> 1)


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
    elif isinstance(obj, dict):
        out.append(_TAG_DICT)
        _write_varint(out, len(obj))
        # ``type(x) is``, not isinstance: a bool among the keys or values
        # (or any subclass) must take the general path's tags.
        if set(map(type, obj)) == {int} and set(map(type, obj.values())) == {float}:
            _encode_numeric_table(out, obj)
            return
        try:
            items = sorted(obj.items())
        except TypeError:
            # Mixed-type keys cannot be sorted; fall back to a
            # deterministic sort on the encoded key bytes.
            items = sorted(obj.items(), key=lambda kv: encode(kv[0]))
        for key, value in items:
            _encode_into(out, key)
            _encode_into(out, value)
    # Last: rare, and every check above it is paid by each event-,
    # command- and view-shaped value.
    elif isinstance(obj, Encoded):
        out += obj.data
    else:
        raise StorageError(f"cannot serialize object of type {type(obj).__name__}")


def _encode_numeric_table(out: bytearray, table: dict) -> None:
    """Append the entries of an ``{int: float}`` dict, byte for byte
    what the general path emits for them.

    Keys are unique, so sorting them alone gives the order that sorting
    the items does.
    """
    int_tag, float_tag = _TAG_INT, _TAG_FLOAT
    keys = sorted(table)
    for start in range(0, len(keys), _TABLE_CHUNK):
        parts: List[bytes] = []
        append = parts.append
        for key in keys[start : start + _TABLE_CHUNK]:
            zigzag = key << 1 if key >= 0 else (-key << 1) - 1
            if zigzag < 0x80:
                append(_ENTRY_1(int_tag, zigzag, float_tag, table[key]))
            elif zigzag < 0x4000:
                append(
                    _ENTRY_2(
                        int_tag, zigzag & 0x7F | 0x80, zigzag >> 7,
                        float_tag, table[key],
                    )
                )
            elif zigzag < 0x200000:
                append(
                    _ENTRY_3(
                        int_tag, zigzag & 0x7F | 0x80, zigzag >> 7 & 0x7F | 0x80,
                        zigzag >> 14, float_tag, table[key],
                    )
                )
            else:
                entry = bytearray()
                _encode_into(entry, key)
                _encode_into(entry, table[key])
                append(entry)
        out += b"".join(parts)


def varint_len(value: int) -> int:
    """Bytes the unsigned varint of ``value`` occupies."""
    return max(1, (value.bit_length() + 6) // 7)


def encoded_list_size(item_sizes: List[int]) -> int:
    """Encoded length of a list whose items encode to ``item_sizes``
    bytes each: tag, count, then the items."""
    return 1 + varint_len(len(item_sizes)) + sum(item_sizes)


def encode(obj: Any, item_sizes: Optional[List[int]] = None) -> bytes:
    """Serialize ``obj`` into the tagged binary format.

    With ``item_sizes`` (``obj`` must then be a list) the encoded length
    of each item is appended to it in the same pass, so a store that
    later regroups the items can price any sub-list by arithmetic
    (:func:`encoded_list_size`) instead of encoding it again.
    """
    out = bytearray()
    if item_sizes is None:
        _encode_into(out, obj)
        return bytes(out)
    if not isinstance(obj, list):
        raise StorageError("item sizes are only recorded for a list")
    out.append(_TAG_LIST)
    _write_varint(out, len(obj))
    mark = len(out)
    for item in obj:
        _encode_into(out, item)
        item_sizes.append(len(out) - mark)
        mark = len(out)
    return bytes(out)


def _decode_from(data: bytes, pos: int) -> Tuple[Any, int]:
    if pos >= len(data):
        raise StorageError("truncated record: missing tag")
    tag = data[pos]
    pos += 1
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_INT:
        raw, pos = _read_varint(data, pos)
        return _unzigzag(raw), pos
    if tag == _TAG_FLOAT:
        if pos + 8 > len(data):
            raise StorageError("truncated float")
        return _FLOAT.unpack_from(data, pos)[0], pos + 8
    if tag == _TAG_STR:
        length, pos = _read_varint(data, pos)
        end = pos + length
        if end > len(data):
            raise StorageError("truncated string")
        try:
            return data[pos:end].decode("utf-8"), end
        except UnicodeDecodeError:
            raise StorageError("string payload is not valid UTF-8") from None
    if tag == _TAG_BYTES:
        length, pos = _read_varint(data, pos)
        end = pos + length
        if end > len(data):
            raise StorageError("truncated bytes")
        return data[pos:end], end
    if tag in (_TAG_TUPLE, _TAG_LIST):
        count, pos = _read_varint(data, pos)
        items: List[Any] = []
        for _ in range(count):
            item, pos = _decode_from(data, pos)
            items.append(item)
        return (tuple(items) if tag == _TAG_TUPLE else items), pos
    if tag == _TAG_DICT:
        count, pos = _read_varint(data, pos)
        return _decode_entries(data, pos, count)
    raise StorageError(f"unknown tag byte 0x{tag:02x}")


def _decode_entries(data: bytes, pos: int, count: int) -> Tuple[dict, int]:
    """``count`` key/value pairs starting at ``pos``.

    INT keys (of up to three varint bytes) and FLOAT values — the numeric
    tables that make up every checkpoint — are read inline; anything
    else goes through :func:`_decode_from`.  The inline reads do not
    bounds-check: running off the end raises ``IndexError`` or
    ``struct.error``, reported like every other truncation.
    """
    unpack_float = _FLOAT.unpack_from
    result = {}
    try:
        for _ in range(count):
            if data[pos] == _TAG_INT:
                raw = data[pos + 1]
                if raw < 0x80:
                    pos += 2
                elif data[pos + 2] < 0x80:
                    raw = raw & 0x7F | data[pos + 2] << 7
                    pos += 3
                elif data[pos + 3] < 0x80:
                    raw = raw & 0x7F | (data[pos + 2] & 0x7F) << 7 | data[pos + 3] << 14
                    pos += 4
                else:
                    raw, pos = _read_varint(data, pos + 1)
                key = raw >> 1 if not raw & 1 else -((raw + 1) >> 1)
            else:
                key, pos = _decode_from(data, pos)
                try:
                    hash(key)
                except TypeError:
                    raise StorageError(
                        f"dict key of type {type(key).__name__} is not hashable"
                    ) from None
            if data[pos] == _TAG_FLOAT:
                result[key] = unpack_float(data, pos + 1)[0]
                pos += 9
            else:
                result[key], pos = _decode_from(data, pos)
    except (IndexError, struct.error):
        raise StorageError("truncated dict entry") from None
    return result, pos


def decode(data: bytes, item_sizes: Optional[List[int]] = None) -> Any:
    """Deserialize bytes produced by :func:`encode`.

    Raises :class:`~repro.errors.StorageError` on truncated or trailing
    bytes — a partial flush must never decode silently.  With
    ``item_sizes`` (``data`` must then hold a list) the encoded length
    of each item is appended to it, mirroring :func:`encode`.
    """
    if item_sizes is None:
        obj, pos = _decode_from(data, 0)
    else:
        if data[:1] != bytes((_TAG_LIST,)):
            raise StorageError("item sizes are only recorded for a list")
        count, pos = _read_varint(data, 1)
        obj = []
        for _ in range(count):
            item, end = _decode_from(data, pos)
            obj.append(item)
            item_sizes.append(end - pos)
            pos = end
    if pos != len(data):
        raise StorageError(f"{len(data) - pos} trailing bytes after record")
    return obj
