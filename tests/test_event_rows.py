"""The input log as packed event rows.

An event goes to disk as one struct-packed row under a schema its blob
declares (``repro.storage.rows``).  Three things are held here:

- the round trip is exact, type for type, for every workload's events
  and for payloads built to break a struct (strings, deep nesting,
  negative and 64-bit-plus ints, a ``bool`` beside an ``int``, ``-0.0``,
  NaN bit patterns, an empty payload);
- the storage decoder contract holds for rows: a malformed rows payload is a
  ``StorageError``, and one behind a valid checksum is a
  ``CorruptSegmentError`` naming the segment, in memory and on files;
- what older builds wrote (codec-list appends and command segments, and
  command-log tails of one codec value per row) is refused as corrupt,
  naming the append or the stream and epoch; a refused command segment
  degrades to the replay rung, exactly;
- a tail is one int tuple per row in two packed columns, and a DL, LV
  or LVC record of the wrong shape behind a valid checksum degrades
  that epoch to the replay rung, exactly, instead of crashing recovery.
"""

from __future__ import annotations

import struct
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SCHEMES
from repro.engine.events import Event
from repro.errors import CorruptSegmentError, StorageError, TornSegmentError
from repro.storage.codec import decode_prefix, encode, pack_column
from repro.storage.device import StorageDevice
from repro.storage.filedisk import FileBackedDisk
from repro.storage.integrity import protect, verify
from repro.storage.rows import ROWS, RowSchemas, decode_rows, split_rows
from repro.storage.stores import Disk, EventStore, LogStore
from repro.workloads import (
    GrepSum,
    OnlineBidding,
    StreamingLedger,
    SyntheticWorkload,
    TollProcessing,
)
from tests.conftest import serial_ground_truth

#: The six inputs the benchmark and the figures feed the engine.
WORKLOADS = {
    "SL": lambda: StreamingLedger(
        512, transfer_ratio=0.5, multi_partition_ratio=0.2, skew=0.6
    ),
    "GS": lambda: GrepSum(
        1024, list_len=8, skew=0.95, multi_partition_ratio=0.5, abort_ratio=0.05
    ),
    "GS_BIG": lambda: GrepSum(
        65536, list_len=4, skew=0.2, multi_partition_ratio=0.5, abort_ratio=0.0
    ),
    "TP": lambda: TollProcessing(256, skew=0.6, capacity=10),
    "OB": lambda: OnlineBidding(),
    "SYN": lambda: SyntheticWorkload(),
}
COMMAND_LOGS = ("DL", "LV", "LVC", "PACMAN", "WAL")
#: The command logs whose segments carry a tail.
TAIL_LOGS = ("DL", "LV", "LVC")


def exact(events):
    """Events as their codec bytes: equal only if every field has the
    same type and the same bits (``True`` vs ``1``, ``-0.0`` vs ``0.0``,
    two NaNs, a tuple vs a list)."""
    assert all(type(event) is Event for event in events)
    return [encode(tuple(event)) for event in events]


def round_trips(events):
    """Pack ``events`` through one store's schemas; the rows must read
    back exactly, both from the schemas and from a self-contained
    payload."""
    schemas = RowSchemas()
    rows = schemas.pack(events)
    want = exact([Event._make(event) for event in events])
    assert exact(schemas.unpack(rows)) == want
    assert exact(decode_rows(schemas.payload(rows)).events) == want
    return rows


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(WORKLOADS)),
    seed=st.integers(0, 2**16),
    count=st.integers(1, 80),
)
def test_every_workloads_events_round_trip_exactly(name, seed, count):
    round_trips(WORKLOADS[name]().generate(count, seed=seed))


_nan = st.integers(0x7FF0_0000_0000_0001, 0x7FFF_FFFF_FFFF_FFFF).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
)
_scalars = st.one_of(
    st.integers(0, 2**16),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**63, 2**64 - 1, 2**64, -1, True, False, 0, 1, -0.0, 0.0]),
    st.booleans(),
    st.floats(),
    _nan,
    st.text(max_size=4),
    st.none(),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple), st.lists(inner, max_size=3)
    ),
    max_leaves=10,
)
_events = st.tuples(
    st.one_of(st.integers(0, 2**20), st.integers(-3, 2**65)),
    st.sampled_from(["w", "sum", "ü", ""]),
    st.lists(_values, max_size=5).map(tuple),
)


@settings(max_examples=150, deadline=None)
@given(events=st.lists(_events, min_size=1, max_size=12))
def test_adversarial_payloads_round_trip_exactly(events):
    round_trips(events)


def test_a_bool_beside_an_int_keeps_its_type():
    events = [(0, "k", (1, (2, 3))), (1, "k", (True, (2, 3))), (2, "k", (1, (2, False)))]
    rows = round_trips(events)
    assert len({row[0] for row in rows}) == 3  # three schemas, none shared


def test_widths_are_the_narrowest_that_hold_every_value_so_far():
    schemas = RowSchemas()
    small, wide, small_again = schemas.pack(
        [(1, "k", (7,)), (2, "k", (70_000,)), (3, "k", (7,))]
    )
    assert len(small) == 1 + 1 + 1 and len(wide) == 1 + 1 + 4
    assert len(small_again) == len(wide)  # the widened schema sticks
    assert schemas.unpack([small, wide, small_again])[2] == (3, "k", (7,))


# ----------------------------------------------------------------------
# decoder contract
# ----------------------------------------------------------------------


def _payload(decls, rows, tail=None):
    return ROWS + encode((decls, tail)) + b"".join(rows)


def _columns(lengths, values):
    """A tail's two packed columns: row lengths, flattened values."""
    return pack_column(lengths), pack_column(values, "bhi")


_ROW = struct.pack("<BBd", 1, 5, 2.5)  # schema 1: seq in a byte, one float
_DECL = ((1, "k", "Bd"),)

#: Rows payloads that must not decode, each with what is wrong.
MALFORMED = {
    "no-header": ROWS,
    "header-not-a-pair": ROWS + encode(5) + _ROW,
    "header-three-items": ROWS + encode((_DECL, None, None)) + _ROW,
    "unknown-schema-id": _payload(_DECL, [_ROW, b"\x02" + _ROW[1:]]),
    "short-row": _payload(_DECL, [_ROW, _ROW[:-3]]),
    "trailing-byte": _payload(_DECL, [_ROW]) + b"\xff",
    "id-zero-declared": _payload(((0, "k", "Bd"),), [_ROW]),
    "id-256-declared": _payload(((256, "k", "Bd"),), [_ROW]),
    "id-declared-twice": _payload(_DECL + ((1, "k", "Bd"),), [_ROW]),
    "unknown-code": _payload(((1, "k", "Bz"),), [_ROW]),
    "unclosed-tuple": _payload(((1, "k", "B(d"),), [_ROW]),
    "two-tuple-fields": _payload(((1, "k", "B(d)(d)"),), [_ROW]),
    "seq-not-an-int": _payload(((1, "k", "dd"),), [_ROW]),
    "kind-not-a-str": _payload(((1, 7, "Bd"),), [_ROW]),
    "tail-count": _payload(_DECL, [_ROW, _ROW], tail=_columns([1], [-1])),
    "tail-not-a-pair": _payload(_DECL, [_ROW], tail=_columns([1], [-1])[:1]),
    "tail-column-not-bytes": _payload(_DECL, [_ROW], tail=(_columns([1], [-1])[0], 5)),
    "tail-bad-width": _payload(_DECL, [_ROW], tail=(b"\x03\x01", b"\x01\xff")),
    "tail-values-not-the-lengths": _payload(_DECL, [_ROW], tail=_columns([2], [-1])),
    "tail-of-codec-values": _payload(_DECL, [_ROW, _ROW], tail=((-1,), (0, 1))),
    "codec-row-of-two-fields": _payload((), [b"\x00" + encode(1) + encode("k")]),
    "codec-row-cut-short": _payload((), [b"\x00" + encode(1) + encode("kind")[:-2]]),
}


def test_a_tail_is_one_int_tuple_per_row_in_two_columns():
    schemas = RowSchemas()
    rows = schemas.pack([(seq, "k", (seq, 0.5)) for seq in range(4)])
    tail = ((), (-1, 0, 70_000), (5,), (-(2**31), 2**31 - 1))
    payload = schemas.payload(rows, tail)
    header, _end = decode_prefix(payload, 1)
    assert [type(column) for column in header[1]] == [bytes, bytes]
    assert decode_rows(payload).tail == tail
    assert decode_rows(schemas.payload([], ())).tail == ()
    with pytest.raises(StorageError, match="no packed column takes"):
        schemas.payload(rows[:1], ((2**31,),))


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_a_malformed_rows_payload_is_a_storage_error(name):
    with pytest.raises(StorageError):
        decode_rows(MALFORMED[name])


@pytest.mark.parametrize("medium", ["memory", "file"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_a_checksummed_malformed_segment_is_corrupt_and_named(tmp_path, medium, name):
    """The frame holds, the rows do not: recovery must see corruption
    of that very segment, as the ladder expects of any unreadable one."""
    if medium == "memory":
        logs = LogStore(StorageDevice())
    else:
        logs = FileBackedDisk(tmp_path).logs
    logs._segments[("wal", 3)] = protect(MALFORMED[name])
    if medium == "file":
        logs = FileBackedDisk(tmp_path).logs
    with pytest.raises(CorruptSegmentError, match="log stream 'wal' epoch 3"):
        logs.read_epoch("wal", 3)


@pytest.mark.parametrize("medium", ["memory", "file"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_a_checksummed_malformed_append_is_corrupt_and_named(tmp_path, medium, name):
    store = EventStore(StorageDevice())
    if medium == "file":
        store = FileBackedDisk(tmp_path).events
    store._log[("arrivals", 0)] = ROWS + protect(MALFORMED[name])
    with pytest.raises(CorruptSegmentError, match="event append 0"):
        if medium == "file":
            FileBackedDisk(tmp_path)
        else:
            store._restore()


def _appended_root(tmp_path):
    disk = FileBackedDisk(tmp_path)
    disk.events.append_events([(seq, "w", (seq, 0.5)) for seq in range(6)])
    disk.events.append_events([(seq, "w", (seq, 0.5)) for seq in range(6, 9)])
    disk.events.seal_epoch(0, 4)
    return tmp_path / "events" / "arrivals"


def test_an_append_that_fails_its_checksum_refuses_to_reopen(tmp_path):
    """A bit flip in an unsealed append on the medium must not reopen
    as a shorter input log: the reopen names the append instead."""
    path = _appended_root(tmp_path) / "6.bin"
    blob = bytearray(path.read_bytes())
    blob[-2] ^= 0x10
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptSegmentError, match="event append 6"):
        FileBackedDisk(tmp_path)


def test_a_torn_append_refuses_to_reopen(tmp_path):
    path = _appended_root(tmp_path) / "0.bin"
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(TornSegmentError, match="event append 0"):
        FileBackedDisk(tmp_path)


def test_an_append_is_a_format_byte_then_a_frame(tmp_path):
    blob = (_appended_root(tmp_path) / "6.bin").read_bytes()
    assert blob[:1] == ROWS
    decls, rows, tail = split_rows(verify(blob[1:]))
    assert decls == ((1, "w", "BBd"),) and len(rows) == 3 and tail is None


# ----------------------------------------------------------------------
# version 1 is refused by name
# ----------------------------------------------------------------------

EPOCH_LEN = 40
RUN = dict(num_workers=3, epoch_len=EPOCH_LEN, snapshot_interval=3)


def _codec_list(events, tail=None):
    """The codec list older builds wrote for ``events``: their
    ``(seq, kind, payload)`` triples, or ``(triple, extra)`` pairs."""
    triples = [tuple(event) for event in events]
    return encode(triples if tail is None else list(zip(triples, tail)))


def _index(path):
    return int(path.stem)


@pytest.mark.parametrize("name", ["CKPT", "MSR", *COMMAND_LOGS])
def test_a_v1_root_is_refused_naming_the_append(tmp_path, gs, name):
    """A root each scheme wrote (a sealed epoch past the checkpoint, a
    pending tail) whose appends are then rewritten as the unframed codec
    lists older builds wrote does not reopen: the first live append is
    refused by index."""
    events = gs.generate(EPOCH_LEN * 5 + 25, seed=3)
    scheme = SCHEMES[name](gs, disk=FileBackedDisk(tmp_path), **RUN)
    for start in range(0, len(events), EPOCH_LEN):
        scheme.process_stream(events[start : start + EPOCH_LEN])
    appends = sorted((tmp_path / "events" / "arrivals").glob("*.bin"), key=_index)
    assert len(appends) >= 3
    for path in appends:
        path.write_bytes(_codec_list(decode_rows(verify(path.read_bytes()[1:])).events))
    first = _index(appends[0])
    with pytest.raises(CorruptSegmentError, match=f"event append {first} is not led"):
        FileBackedDisk(tmp_path)


def _crashed(sl, name):
    """A run of five epochs crashed after its checkpoint: epochs 3 and
    4 replay."""
    events = sl.generate(EPOCH_LEN * 5, seed=4)
    scheme = SCHEMES[name](sl, **RUN)
    scheme.process_stream(events)
    scheme.crash()
    return scheme, events


@pytest.mark.parametrize("name", COMMAND_LOGS)
def test_a_v1_command_segment_replays_exactly(sl, name):
    """In memory: epochs 3 and 4's command segments replaced by the
    codec lists older builds wrote (DL's edges, LV's vectors beside the
    commands).  Each is refused as corrupt, naming its stream and epoch,
    and the ladder replays those epochs from the input log, exactly."""
    scheme, events = _crashed(sl, name)
    stream = scheme.log_streams[0]
    for epoch_id in (3, 4):
        key = (stream, epoch_id)
        commands, tail = decode_rows(verify(scheme.disk.logs._segments[key]))
        scheme.disk.logs._segments[key] = protect(_codec_list(commands, tail))
    report = scheme.recover()
    assert report.ladder == {"replay": 2} and report.epochs_replayed == 2
    assert [(f.epoch_id, f.error, f.rung) for f in report.fallbacks] == [
        (3, "CorruptSegmentError", "replay"),
        (4, "CorruptSegmentError", "replay"),
    ]
    for fallback in report.fallbacks:
        assert f"log stream {stream!r} epoch {fallback.epoch_id} is not rows" in (
            fallback.detail
        )
    expected, _txns, _outcome = serial_ground_truth(sl, events)
    assert scheme.store.equals(expected), scheme.store.diff(expected, 5)


def _codec_tail(name, record):
    """The tail value older builds wrote for one flat ``record``: LV's
    vector, LVC's ``(stream, pos)`` pairs, DL's ``(ins, outs)`` per
    operation."""
    if name == "LVC":
        return tuple(zip(record[::2], record[1::2]))
    if name == "LV":
        return record
    n_ops = record[0]
    counts, uids = record[1 : 1 + 2 * n_ops], iter(record[1 + 2 * n_ops :])
    pairs = zip(counts[::2], counts[1::2])
    return tuple(tuple(tuple(islice(uids, count)) for count in pair) for pair in pairs)


@pytest.mark.parametrize("name", TAIL_LOGS)
def test_a_codec_value_tail_is_refused_and_replays_exactly(sl, name):
    """Epoch 3's segment rewritten with the tail older builds wrote (one
    codec value per row, beside the same rows): refused as corrupt,
    naming its stream and epoch, and the epoch replays from the input
    log, exactly."""
    scheme, events = _crashed(sl, name)
    key = (scheme.log_streams[0], 3)
    decls, rows, tail = split_rows(verify(scheme.disk.logs._segments[key]))
    old_tail = tuple(_codec_tail(name, record) for record in tail)
    scheme.disk.logs._segments[key] = protect(_payload(decls, rows, old_tail))
    report = scheme.recover()
    assert report.ladder == {"fast": 1, "replay": 1}
    [fallback] = report.fallbacks
    assert (fallback.epoch_id, fallback.error) == (3, "CorruptSegmentError")
    assert f"log stream {key[0]!r} epoch 3" in fallback.detail
    assert "rows tail is not two packed columns" in fallback.detail
    expected, _txns, _outcome = serial_ground_truth(sl, events)
    assert scheme.store.equals(expected), scheme.store.diff(expected, 5)


#: Per tail log: a record its recovery must refuse, built from a real
#: one, and the error that names it.
_BAD_RECORDS = {
    # One value short: the length no longer fits the edge counts.
    "DL": (lambda record, workers: record[:-1], "CorruptSegmentError"),
    # One entry too many for the stream count.
    "LV": (lambda record, workers: (*record, 0), "VectorMismatchError"),
    # A pair naming a stream past the last worker.
    "LVC": (lambda record, workers: (*record, workers, 0), "VectorMismatchError"),
}


@pytest.mark.parametrize("name", TAIL_LOGS)
def test_a_malformed_tail_record_degrades_to_replay_exactly(sl, name):
    """A record of the right type and the wrong shape behind a valid
    checksum: recovery refuses it, naming the stream, epoch and record,
    instead of crashing, and the ladder replays that epoch exactly."""
    scheme, events = _crashed(sl, name)
    key = (scheme.log_streams[0], 4)
    _decls, rows, tail = split_rows(verify(scheme.disk.logs._segments[key]))
    bad, error = _BAD_RECORDS[name]
    tail = (*tail[:2], bad(tail[2], RUN["num_workers"]), *tail[3:])
    scheme.disk.logs._segments[key] = protect(scheme.disk.events.rows_payload(rows, tail))
    report = scheme.recover()
    assert report.ladder == {"fast": 1, "replay": 1}
    [fallback] = report.fallbacks
    assert (fallback.epoch_id, fallback.error) == (4, error)
    assert f"log stream {key[0]!r} epoch 4 record 2" in fallback.detail
    expected, _txns, _outcome = serial_ground_truth(sl, events)
    assert scheme.store.equals(expected), scheme.store.diff(expected, 5)


def test_a_v1_arrival_blob_is_refused_in_memory():
    events = [Event(seq, "w", (seq, 0.25, seq % 2 == 0)) for seq in range(5)]
    store = EventStore(StorageDevice())
    store._log[("arrivals", 0)] = _codec_list(events)
    with pytest.raises(CorruptSegmentError, match="event append 0 is not led"):
        store._restore()


def test_a_disk_built_in_memory_reads_rows_back_type_exact():
    disk = Disk()
    events = [Event(0, "a", (True, 1, -0.0, ("x",))), Event(1, "b", ())]
    disk.events.append_events(events)
    disk.events.seal_epoch(0, 2)
    assert exact(disk.events.read_epochs(0, 0)[0]) == exact(events)


def test_reopened_files_are_the_rows_the_append_wrote(tmp_path):
    root = _appended_root(tmp_path)
    assert sorted(p.name for p in root.iterdir()) == ["0.bin", "6.bin"]
    reopened = FileBackedDisk(Path(tmp_path)).events
    assert [e.seq for e in reopened.read_epochs(0, 0)[0]] == [0, 1, 2, 3]
    assert [e.seq for e in reopened.read_pending()[0]] == [4, 5, 6, 7, 8]
