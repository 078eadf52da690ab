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

One dict shape has a tag of its own.  A *state table* — every key
exactly an ``int`` in ``[0, 2**32)``, every value exactly a ``float``,
which is what every checkpoint and watermark delta is made of — is
written as two packed columns: varint count, a key-width byte (1, 2 or
4, the narrowest that holds the largest key), the sorted keys as
fixed-width little-endian unsigned integers, then the values as
little-endian IEEE-754 doubles in the same order.  A record costs
``width + 8`` bytes and no per-record Python work: both columns go
through ``array`` in one call each way.  Every other dict (a bool or
subclass among the keys or values, a negative or wider key, no entries)
stays under the general dict tag, and so do the tables older builds
wrote: a reader needs no version switch, the tag says which it is.

Supported types: ``None``, ``bool``, ``int``, ``float``, ``str``,
``bytes``, ``tuple``, ``list``, ``dict`` (tuples decode as tuples and
lists as lists — the distinction is preserved).

The encoding is canonical: ``encode(decode(b)) == b`` for every ``b``
that :func:`encode` produced (a value has one encoding: a dict that
qualifies as a state table is never written under the general tag).
An :class:`Encoded` leans on that: it carries bytes that are already
codec output, so a payload is walked once and the same bytes are
measured, charged and stored (or spliced into a larger record).

Input events are the one thing persisted outside this format: the input
log and the command logs hold packed event rows
(:mod:`repro.storage.rows`), one ``struct`` call per event each way.
The codec still frames them: a rows payload leads with a byte that is no
tag here (``0x0B``), then the codec bytes of its header (the schema
declarations its rows use, and an optional tail of one int tuple per
row as two :func:`pack_column` columns), then the rows; an event no
struct holds exactly is a *codec row*, its schema id followed by this
format's bytes of the whole ``(seq, kind, payload)`` triple.  Rows are
canonical per store rather than per value: an event's row depends on the
widths its store has declared so far, so the promise for rows is that
the bytes a store keeps are the bytes its append wrote, and a command
log splices them unchanged.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

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
# 0x0B is never a tag: it leads a packed event-rows payload
# (:mod:`repro.storage.rows`), which the first byte then tells apart.

_FLOAT = struct.Struct(">d")

#: Key-column width of a state table -> ``array`` type code of the
#: unsigned integer that wide (1, 2 and 4 bytes; the sizes are the C
#: compiler's, so they are looked up, not assumed).
_KEY_CODES = {array(code).itemsize: code for code in "BHI"}
#: Columns are little-endian on disk whatever the host is.
_SWAP_COLUMNS = sys.byteorder == "big"


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
        # ``type(x) is``, not isinstance: a bool among the keys or values
        # (or any subclass) must take the general path's tags.
        if set(map(type, obj)) == {int} and set(map(type, obj.values())) == {float}:
            keys = sorted(obj)
            if keys[0] >= 0 and keys[-1] < 1 << 32:
                _encode_table(out, obj, keys)
                return
        out.append(_TAG_DICT)
        _write_varint(out, len(obj))
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


def _encode_table(out: bytearray, table: dict, keys: List[int]) -> None:
    """Append a state table (``keys`` is ``sorted(table)``, all within
    ``[0, 2**32)``) as its key column and its value column."""
    width = 1 if keys[-1] < 1 << 8 else 2 if keys[-1] < 1 << 16 else 4
    out.append(_TAG_TABLE)
    _write_varint(out, len(keys))
    out.append(width)
    for column in (
        array(_KEY_CODES[width], keys),
        array("d", map(table.__getitem__, keys)),
    ):
        if _SWAP_COLUMNS:
            column.byteswap()
        out += column


#: ``array`` type codes a packed column may take, narrowest first
#: (unsigned or signed 1/2/4-byte ints, or doubles): element type, and
#: the code of each width.
_COLUMN_CODES = {
    codes: (kind, {array(code).itemsize: code for code in codes})
    for codes, kind in (("BHI", int), ("bhi", int), ("d", float))
}


def pack_column(values: Sequence[Any], codes: str = "BHI") -> Optional[bytes]:
    """``values`` as one column: a width byte, then every value
    little-endian as the first ``array`` type of ``codes`` that holds
    them all.  ``None`` when none does, or when a value is not exactly
    an ``int`` (a ``float`` for ``"d"``), so a column reads back as the
    very values packed: no ``bool``, no ``str``."""
    if not set(map(type, values)) <= {_COLUMN_CODES[codes][0]}:
        return None
    for code in codes:
        try:
            column = array(code, values)
        except OverflowError:
            continue
        if _SWAP_COLUMNS:
            column.byteswap()
        return bytes((column.itemsize,)) + column.tobytes()
    return None


def unpack_column(blob: bytes, codes: str = "BHI") -> array:
    """The values :func:`pack_column` packed into ``blob`` with ``codes``."""
    code = _COLUMN_CODES[codes][1].get(blob[0]) if blob else None
    if code is None or (len(blob) - 1) % blob[0]:
        raise StorageError(f"packed column of {len(blob)} bytes has no valid width")
    column = array(code, blob[1:])
    if _SWAP_COLUMNS:
        column.byteswap()
    return column


class ImageLayout:
    """Where the records sit in the encoding of a ``{name: state table}``
    dict (``tables``: name -> key → position index, value column offset).
    Key sets fix every other byte: such encodings differ only there."""

    __slots__ = ("tables", "_fixed")

    def __init__(self, data: bytes, tables: Dict[Any, Tuple[Dict[int, int], int]]):
        self.tables = tables
        cuts = [0, *(x for index, at in tables.values() for x in (at, at + 8 * len(index)))]
        #: ``(start, bytes)`` of every stretch outside the value columns.
        self._fixed = [(a, data[a:b]) for a, b in zip(cuts[::2], cuts[1::2] + [len(data)])]

    def adopt(self, payload: bytes) -> Optional["StateImage"]:
        """The image of a copy of ``payload`` if only its value slots
        differ from this layout's bytes, else ``None``."""
        start, tail = self._fixed[-1]
        laid_out = len(payload) == start + len(tail) and all(
            payload[a : a + len(fixed)] == fixed for a, fixed in self._fixed
        )
        return StateImage(self, bytearray(payload)) if laid_out else None


def layout_of(data: bytes, value: Mapping) -> Optional[ImageLayout]:
    """The layout of ``data``, the encoding of ``value``, if every table
    took the state-table tag (indexes keep ``value``'s key objects); not
    on a big-endian host, where native doubles are not the columns'."""
    if _SWAP_COLUMNS or data[0] != _TAG_DICT:
        return None
    count, pos = _read_varint(data, 1)
    tables = {}
    for _ in range(count):
        name, pos = _decode_from(data, pos)
        if data[pos] != _TAG_TABLE:
            return None
        records, pos = _read_varint(data, pos + 1)
        at = pos + 1 + records * data[pos]
        keys = sorted(value[name])
        # Keys 0..n-1 are their own positions: one int object serves both.
        positions = keys if keys[-1] == records - 1 else range(records)
        tables[name] = (dict(zip(keys, positions)), at)
        pos = at + 8 * records
    return ImageLayout(data, tables)


class StateImage:
    """The encoding ``data`` of a ``{name: state table}`` dict; ``columns``
    maps each name to its key index and value column (``data`` cast to
    doubles), so a record is read and patched in place."""

    __slots__ = ("layout", "data", "columns")

    def __init__(self, layout: ImageLayout, data: bytearray):
        self.layout = layout
        self.data = data
        view = memoryview(data)
        self.columns = {
            name: (index, view[at : at + 8 * len(index)].cast("d"))
            for name, (index, at) in layout.tables.items()
        }

    def patch(self, tables: Mapping[Any, Mapping[int, float]]) -> bool:
        """Write each record of ``tables`` (name -> records) into its slot;
        ``False`` (image partly patched) on a value not exactly a float."""
        for name, records in tables.items():
            index, column = self.columns[name]
            for key, value in records.items():
                if type(value) is not float:
                    return False
                column[index[key]] = value
        return True


def join_list(items: Sequence[bytes]) -> bytes:
    """The encoded list whose items' codec bytes are ``items``, built
    without walking any item again."""
    out = bytearray((_TAG_LIST,))
    _write_varint(out, len(items))
    out += b"".join(items)
    return bytes(out)


def encode(obj: Any) -> bytes:
    """Serialize ``obj`` into the tagged binary format."""
    out = bytearray()
    _encode_into(out, obj)
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
        result = {}
        for _ in range(count):
            key, pos = _decode_from(data, pos)
            try:
                hash(key)
            except TypeError:
                raise StorageError(
                    f"dict key of type {type(key).__name__} is not hashable"
                ) from None
            result[key], pos = _decode_from(data, pos)
        return result, pos
    if tag == _TAG_TABLE:
        return _decode_table(data, pos)
    raise StorageError(f"unknown tag byte 0x{tag:02x}")


def _decode_table(data: bytes, pos: int) -> Tuple[dict, int]:
    """The state table whose record count is at ``pos``.

    Everything is checked against the bytes actually present before a
    column is materialised, so a corrupt count cannot ask for memory.
    """
    count, pos = _read_varint(data, pos)
    if pos >= len(data):
        raise StorageError("truncated table: missing key width")
    width = data[pos]
    if width not in _KEY_CODES:
        raise StorageError(f"unknown table key width {width}")
    values_at = pos + 1 + count * width
    end = values_at + count * 8
    if not count or end > len(data):
        raise StorageError(
            f"table claims {count} records, {len(data) - pos - 1} bytes follow"
        )
    keys = array(_KEY_CODES[width], data[pos + 1 : values_at])
    values = array("d", data[values_at:end])
    if _SWAP_COLUMNS:
        keys.byteswap()
        values.byteswap()
    table = dict(zip(keys, values))
    if len(table) != count:
        raise StorageError("table key column repeats a key")
    return table, end


def decode_prefix(data: bytes, pos: int = 0) -> Tuple[Any, int]:
    """The value encoded at ``data[pos:]`` and the index just past it:
    for a format that embeds codec values among other bytes."""
    return _decode_from(data, pos)


def decode(data: bytes) -> Any:
    """Deserialize bytes produced by :func:`encode`.

    Raises :class:`~repro.errors.StorageError` on truncated or trailing
    bytes — a partial flush must never decode silently.
    """
    obj, pos = _decode_from(data, 0)
    if pos != len(data):
        raise StorageError(f"{len(data) - pos} trailing bytes after record")
    return obj
