"""Packed event rows: the input log's durable form.

Every input event is written once, at ingress (§VI-C step ①), and the
five command logs (WAL, PACMAN, DL, LV, LVC) splice a subset of those
bytes into their segments.  An event is a *row*: a one-byte schema id,
then ``seq`` and the payload's scalars packed by one ``struct.Struct``,
so writing it is one ``pack`` call and reading it one ``unpack`` call.

A schema is declared as ``(id, kind, layout)``.  The layout holds one
``struct`` code per field, ``seq``'s first: ``?`` a ``bool``, ``d`` a
``float`` (its bits, so ``-0.0`` and a NaN's payload survive), ``B`` /
``H`` / ``I`` / ``Q`` an ``int`` in 1/2/4/8 bytes; one parenthesised run
may be a tuple field of scalars.  An int field takes the narrowest width
that holds every value the store has written under the event's kind and
field types (the way :func:`~repro.storage.codec.pack_column` picks a
column's); a wider value declares a wider schema.  Schema id 0, the
*codec row*, is the id byte and then the codec bytes of ``seq``,
``kind`` and ``payload``: it takes an event no struct holds exactly (a
``str``, ``None``, a second or nested tuple, a negative int or one of
2**64 and up, a subclass of a scalar type).  Types are part of the
schema key, so every event reads back type-exact.

A *rows payload* is :data:`ROWS`, the codec bytes of ``(declarations,
tail)``, then the rows.  The declarations cover exactly the ids its rows
use, so a blob decodes on its own and garbage collection can never
orphan a schema; ``tail`` is ``None`` or one int tuple per row (DL's
edge records, LV's vectors) as two packed columns: the row lengths and
every value flattened, signed (LV's ``-1``), so it reads back in two
``unpack_column`` calls; a tail of any other shape is refused.  No codec
value starts with :data:`ROWS`, so the first byte tells a rows payload
from any other codec value.
Rows are the only format an append or a command segment is read in:
one in any other is refused as corrupt, with the segment named.
"""

from __future__ import annotations

import re
import struct
from functools import lru_cache, partial
from itertools import accumulate, chain
from operator import itemgetter
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.engine.events import Event
from repro.errors import StorageError
from repro.storage.codec import decode_prefix, encode, pack_column, unpack_column

#: Leading byte of a rows payload (the codec leaves it unused).
ROWS = b"\x0b"

#: The codec row's schema id; declared ids are the other byte values.
_CODEC_ROW, _MAX_ID = 0, 255
#: Each int code, narrowest first, with the first value too wide for it.
_INTS = (("B", 1 << 8), ("H", 1 << 16), ("I", 1 << 32), ("Q", 1 << 64))
_TYPE_OF = {"?": bool, "d": float, **{code: int for code, _limit in _INTS}}
_CODE_OF = {bool: "?", float: "d"}
_LAYOUT = re.compile(r"[BHIQ][BHIQd?]*(?:\([BHIQd?]*\)[BHIQd?]*)?")
_new = tuple.__new__


class Rows(NamedTuple):
    """A decoded rows payload: its events, and the per-row tail (one
    int tuple per row, or ``None``)."""

    events: List[Event]
    tail: Any


def _code(value: Any) -> Optional[str]:
    """The struct code that holds ``value`` exactly, or ``None``."""
    if type(value) is int:
        return next((code for code, limit in _INTS if 0 <= value < limit), None)
    return _CODE_OF.get(type(value))


def _layout(seq: Any, payload: Any) -> Optional[str]:
    """The narrowest layout of one event, or ``None`` (a codec row)."""
    if type(seq) is not int or type(payload) is not tuple:
        return None
    codes = [_code(seq)]
    for field in payload:
        is_tuple = type(field) is tuple
        codes += ["(", *map(_code, field), ")"] if is_tuple else [_code(field)]
    return None if None in codes or codes.count("(") > 1 else "".join(codes)


def _widen(old: str, new: str) -> str:
    """``new`` with every int code at least as wide as ``old``'s, or
    ``new`` alone when the two describe different shapes."""
    rank = "BHIQ".find
    pairs = list(zip(old, new))
    if len(old) != len(new) or any(a != b and -1 in (rank(a), rank(b)) for a, b in pairs):
        return new
    return "".join(max(a, b, key=rank) for a, b in pairs)


@lru_cache(maxsize=4 * _MAX_ID)
def _schema(kind: str, layout: str) -> Tuple[struct.Struct, str, Any, Any]:
    """``(struct, kind, payload getter, tuple field)`` of one declared
    schema.  The struct packs ``(id, seq, *scalars)``; the getter cuts
    the payload out of the unpacked values in one call; the tuple field
    is ``(its index in the payload, its element types)``, or ``None``."""
    if not _LAYOUT.fullmatch(layout):
        raise StorageError(f"row layout {layout!r} is malformed")
    head, nested, rest = layout.partition("(")
    inner, _close, tail = rest.partition(")")
    row = struct.Struct("<B" + head + inner + tail)
    if not nested:
        return row, kind, itemgetter(slice(2, None)), None
    at, end = 1 + len(head), 1 + len(head) + len(inner)
    items = [*range(2, at), slice(at, end), *range(end, end + len(tail))]
    get = itemgetter(*items) if len(items) > 1 else lambda vals: (vals[at:end],)
    return row, kind, get, (at - 2, tuple(_TYPE_OF[code] for code in inner))


def _packer(sid: int, kind: str, layout: str):
    """``pack(seq, *payload)`` for one schema, for payloads whose fields
    have the types its packer key names.  The tuple field's elements
    are checked here, so a ``bool`` never packs as an ``int``; a
    mismatch raises ``TypeError``."""
    row, _kind, _get, nested = _schema(kind, layout)
    if nested is None:
        return partial(row.pack, sid)
    at, types = nested

    def pack(seq: int, *payload: Any) -> bytes:
        inner = payload[at]
        if tuple(map(type, inner)) != types:
            raise TypeError("tuple field changed shape")
        return row.pack(sid, seq, *payload[:at], *inner, *payload[at + 1 :])

    return pack


class RowSchemas:
    """One event store's schema dictionary.

    Ids are assigned in the order shapes first appear, so a store's
    bytes depend on its own history only.  :meth:`declare` adopts the
    declarations of a reopened blob; a new shape then takes the next id
    above every declared one.
    """

    def __init__(self) -> None:
        self._decls: Dict[int, Tuple[str, str]] = {}
        self._ids: Dict[Tuple[str, str], int] = {}
        #: (kind, seq type, payload type, *field types) -> (layout, pack)
        #: of the widest schema written under that key.
        self._packers: Dict[tuple, Tuple[str, Any]] = {}

    def pack(self, events: Iterable[Any]) -> List[bytes]:
        """One row per ``(seq, kind, payload)`` event, in order."""
        rows: List[bytes] = []
        add = rows.append
        packers = self._packers
        for seq, kind, payload in events:
            try:
                key = (kind, type(seq), type(payload), *map(type, payload))
                add(packers[key][1](seq, *payload))
            except (KeyError, TypeError, struct.error):
                add(self._slow_row(seq, kind, payload))
        return rows

    def _slow_row(self, seq: Any, kind: Any, payload: Any) -> bytes:
        """The row of an event whose shape or widths are new to the store."""
        layout = _layout(seq, payload) if type(kind) is str else None
        if layout is not None:
            key = (kind, type(seq), type(payload), *map(type, payload))
            if key in self._packers:
                layout = _widen(self._packers[key][0], layout)
            sid = self._ids.get((kind, layout), max(self._decls, default=0) + 1)
            if sid <= _MAX_ID:
                self._decls[sid], self._ids[(kind, layout)] = (kind, layout), sid
                pack = _packer(sid, kind, layout)
                self._packers[key] = (layout, pack)
                return pack(seq, *payload)
        return b"".join((bytes((_CODEC_ROW,)), encode(seq), encode(kind), encode(payload)))

    def declare(self, decls: Any) -> None:
        """Adopt a reopened blob's declarations; an id declared twice
        with different meanings is a corrupt log."""
        for sid, decl in _check_decls(decls).items():
            if self._decls.setdefault(sid, decl) != decl:
                raise StorageError(
                    f"row schema {sid} is declared as {self._decls[sid]} and as {decl}"
                )
            self._ids[decl] = sid

    def payload(self, rows: List[bytes], tail: Optional[tuple] = None) -> bytes:
        """The rows payload of ``rows`` (this store's rows, in order)."""
        used = sorted(set(map(itemgetter(0), rows)) - {_CODEC_ROW})
        decls = tuple((sid, *self._decls[sid]) for sid in used)
        if tail is not None:
            tail = (pack_column(list(map(len, tail))), pack_column([*chain(*tail)], "bhi"))
            if None in tail:
                raise StorageError("rows tail holds a value no packed column takes")
        return b"".join((ROWS, encode((decls, tail)), *rows))

    def unpack(self, rows: Iterable[bytes]) -> List[Event]:
        """The events of this store's ``rows``."""
        return _unpack(rows, self._decls)


def _unpack(rows: Iterable[bytes], decls: Dict[int, Tuple[str, str]]) -> List[Event]:
    schemas = {sid: _schema(*decl) for sid, decl in decls.items()}
    events: List[Event] = []
    add = events.append
    for row in rows:
        if row[0] == _CODEC_ROW:
            event, end = _read_codec_row(row, 1)
            if end != len(row):
                raise StorageError("codec row carries trailing bytes")
            add(event)
            continue
        row_struct, kind, get, _nested = schemas[row[0]]
        vals = row_struct.unpack(row)
        add(_new(Event, (vals[1], kind, get(vals))))
    return events


def _read_codec_row(data: bytes, pos: int) -> Tuple[Event, int]:
    """The event of the codec row whose fields start at ``pos``, and
    the index just past it."""
    seq, pos = decode_prefix(data, pos)
    kind, pos = decode_prefix(data, pos)
    payload, pos = decode_prefix(data, pos)
    return _new(Event, (seq, kind, payload)), pos


def _check_decls(decls: Any) -> Dict[int, Tuple[str, str]]:
    """A header's declarations as ``{id: (kind, layout)}``; raises
    :class:`~repro.errors.StorageError` on anything malformed."""
    if type(decls) is not tuple:
        raise StorageError("rows header declares no schema tuple")
    checked: Dict[int, Tuple[str, str]] = {}
    for decl in decls:
        if not (
            type(decl) is tuple
            and len(decl) == 3
            and type(decl[0]) is int
            and _CODEC_ROW < decl[0] <= _MAX_ID
            and decl[0] not in checked
            and type(decl[1]) is str
            and type(decl[2]) is str
        ):
            raise StorageError(f"rows header has a bad declaration {decl!r}")
        _schema(decl[1], decl[2])
        checked[decl[0]] = (decl[1], decl[2])
    return checked


def split_rows(payload: bytes) -> Tuple[tuple, List[bytes], Any]:
    """``(declarations, rows, tail)`` of a rows payload.

    Raises :class:`~repro.errors.StorageError` on anything but a whole
    payload: a bad header, a row of an undeclared schema, a short row,
    or a tail that is not two packed columns holding one tuple per row.
    """
    if payload[:1] != ROWS:
        raise StorageError("not a rows payload")
    header, pos = decode_prefix(payload, 1)
    if type(header) is not tuple or len(header) != 2:
        raise StorageError("rows header is not (declarations, tail)")
    decls, tail = header
    sizes = {sid: _schema(*decl)[0].size for sid, decl in _check_decls(decls).items()}
    rows: List[bytes] = []
    while pos < len(payload):
        sid = payload[pos]
        if sid == _CODEC_ROW:
            stop = _read_codec_row(payload, pos + 1)[1]
        elif sid not in sizes:
            raise StorageError(f"row of undeclared schema {sid}")
        elif pos + sizes[sid] > len(payload):
            raise StorageError(f"row of schema {sid} is cut short")
        else:
            stop = pos + sizes[sid]
        rows.append(payload[pos:stop])
        pos = stop
    if tail is not None:
        if type(tail) is not tuple or len(tail) != 2 or {*map(type, tail)} != {bytes}:
            raise StorageError("rows tail is not two packed columns")
        lengths, values = unpack_column(tail[0]), tuple(unpack_column(tail[1], "bhi"))
        if len(lengths) != len(rows) or sum(lengths) != len(values):
            raise StorageError("rows tail does not hold one tuple per row")
        ends = list(accumulate(lengths))
        tail = tuple(map(values.__getitem__, map(slice, [0, *ends[:-1]], ends)))
    return decls, rows, tail


def decode_rows(payload: bytes) -> Rows:
    """A rows payload's events and tail, decoded against its own
    declarations alone."""
    decls, rows, tail = split_rows(payload)
    return Rows(_unpack(rows, _check_decls(decls)), tail)

