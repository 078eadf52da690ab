"""MSR's view segment on disk: version 2 columns, the only version read.

Since segment version 2 the partition map and the ParametricView go to
disk as packed columns.  Four things hold that in place:

- the segments a fixed MSR run commits on SL, GS and TP are pinned by
  sha256, the way ``test_command_log_bytes.py`` pins the command logs;
- a staged segment loads back to the views it was staged with, through
  the columns and through the pair and row forms of keys no column
  holds;
- a version 1 segment (what older builds left on disk) is refused, from
  memory and from a reopened file-backed root, naming the segment;
- a segment whose checksum holds but whose fields disagree raises
  ``CorruptSegmentError`` naming the segment, never a bare
  ``ValueError`` or ``TypeError``.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.logmanager import SEGMENT_VERSION, STREAM, LoggingManager, ViewSegment
from repro.core.views import AbortView, ParametricView
from repro.engine.refs import StateRef
from repro.errors import CorruptSegmentError
from repro.storage.codec import Encoded, decode, encode
from repro.storage.filedisk import FileBackedDisk
from repro.storage.stores import Disk
from tests.test_command_log_bytes import committed_log_digest

#: sha256 over every segment the fixed run of ``committed_log_digest``
#: commits under MSR, recorded when segments went to version 2.
PINS = {
    "gs": "b873d942ca6a50b7168450aaefddd642a0685c2b347d8ea6afa2ae66636082e5",
    "sl": "8bea89b7ceb8f7a2089e86c818f747a400e754ca641e3bd7575197496089be92",
    "tp": "9358f483e53b3227c92d8e5f3f14b41c518f289e7f4519f4f86e5f3a061644ab",
}

#: str keys: no column holds them, so their table takes the row form.
A, B = StateRef("t", "A"), StateRef("t", "B")
#: int keys: columns (300 makes the key column two bytes wide).
P, Q = StateRef("acc", 3), StateRef("acc", 300)
#: a key past 32 bits: the row form again.
W = StateRef("wide", 2**32)

WHERE = ["memory", "files"]


def load(where, tmp_path, blob, epoch_id=0):
    """Commit ``blob`` as ``epoch_id``'s view segment, then load it back:
    from the same in-memory ``Disk``, or from a ``FileBackedDisk``
    reopened on the root the segment was written to."""
    if where == "memory":
        disk = Disk()
        disk.logs.commit_epoch(STREAM, epoch_id, Encoded(blob))
    else:
        FileBackedDisk(tmp_path).logs.commit_epoch(STREAM, epoch_id, Encoded(blob))
        disk = FileBackedDisk(tmp_path)
    return LoggingManager(disk).load_epoch(epoch_id)[0]


@pytest.mark.parametrize("workload_name", sorted(PINS))
def test_committed_segments_match_the_pinned_digest(workload_name, request):
    workload = request.getfixturevalue(workload_name)
    assert committed_log_digest("MSR", workload) == PINS[workload_name]


@pytest.mark.parametrize("where", WHERE)
def test_v1_segment_is_refused(where, tmp_path):
    """Version 1: one tagged tuple per view entry (to key included) and
    per map entry."""
    entries = ((5, 0, ("acc", 3), ("acc", 300), 1.5),)
    blob = encode((1, 4, (4, (2, 9)), (4, entries), ((("acc", 3), 0),)))
    with pytest.raises(CorruptSegmentError, match="'msr' epoch 4 .*version 1 "):
        load(where, tmp_path, blob, epoch_id=4)


#: Refs of three kinds of table: int keys a column holds ("acc", "ast"),
#: int keys some of which none holds ("wide": negative or past 32 bits),
#: and str keys ("user").
refs = st.one_of(
    st.builds(StateRef, st.sampled_from(["acc", "ast"]), st.integers(0, 70_000)),
    st.builds(
        StateRef, st.just("wide"), st.integers(-2, 2) | st.integers(2**32 - 2, 2**33)
    ),
    st.builds(StateRef, st.just("user"), st.text(max_size=3)),
)


@given(
    epoch_id=st.integers(0, 50),
    aborted=st.frozensets(st.integers(0, 5000), max_size=4),
    entries=st.dictionaries(
        st.tuples(st.integers(0, 5000) | st.just(2**32), st.integers(-1, 200), refs),
        st.floats(allow_nan=False),
        max_size=20,
    ),
    pmap=st.none()
    | st.dictionaries(refs, st.integers(0, 300) | st.just(70_000), max_size=20),
)
@example(  # str keys
    epoch_id=3, aborted=frozenset({7}), entries={(5, -1, A): 1.5}, pmap={A: 0, B: 1}
)
@example(  # keys and ids past what a column holds
    epoch_id=0, aborted=frozenset(), entries={(2**32, 0, W): 2.0}, pmap={W: 1, P: 300}
)
@example(epoch_id=1, aborted=frozenset(), entries={}, pmap={P: 0, Q: 1})  # empty view
@example(epoch_id=2, aborted=frozenset({1}), entries={(1, 0, P): -0.5}, pmap=None)
@settings(max_examples=60, deadline=None)
def test_a_staged_segment_loads_back_the_same(epoch_id, aborted, entries, pmap):
    lm = LoggingManager(Disk())
    lm.stage(
        ViewSegment(
            epoch_id,
            AbortView(epoch_id, aborted),
            ParametricView(epoch_id, dict(entries)),
            None if pmap is None else dict(pmap),
        )
    )
    assert decode(lm._buffer[0][1].data)[0] == SEGMENT_VERSION
    lm.commit()
    segment, _io = lm.load_epoch(epoch_id)
    assert segment.epoch_id == epoch_id
    assert segment.abort_view == AbortView(epoch_id, aborted)
    assert segment.partition_map == pmap
    if pmap is not None:
        # Same key types too: an int key never comes back a float.
        assert sorted(map(repr, segment.partition_map.items())) == sorted(
            map(repr, pmap.items())
        )
    assert len(segment.parametric_view) == len(entries)
    for (txn_id, op_index, ref), value in entries.items():
        assert segment.parametric_view.lookup(txn_id, op_index, ref) == value


#: One view entry, (txn 5, op 0, t[7]) -> 1.5, and the map t[7] -> 0,
#: t[8] -> 1, written out by hand as version 2 columns.
ONE = b"\x08" + struct.pack("<d", 1.5)
VIEW = (0, ("t",), (b"\x01\x05", b"\x01\x00", b"\x01\x00", b"\x01\x07", ONE), ())
MAP = ((("t", b"\x01\x07\x08", b"\x01\x00\x01"),), ())


def v2(view=VIEW, pmap=MAP):
    return (SEGMENT_VERSION, 0, (0, ()), view, pmap)


def view(*columns):
    return (0, ("t",), columns, ())


def table(keys, ids):
    return ((("t", keys, ids),), ())


MALFORMED = {
    "map key width byte": v2(pmap=table(b"\x03\x07\x08\x09", b"\x01\x00\x01\x02")),
    "map key length does not divide": v2(pmap=table(b"\x02\x07\x00\x08", b"\x01\x00\x01")),
    "map id column short": v2(pmap=table(b"\x01\x07\x08", b"\x01\x00")),
    "map key repeated": v2(pmap=table(b"\x01\x07\x07", b"\x01\x00\x01")),
    "map column not bytes": v2(pmap=table(7, b"\x01\x00")),
    "view value width byte": v2(
        view=view(b"\x01\x05", b"\x01\x00", b"\x01\x00", b"\x01\x07", b"\x04" + bytes(8))
    ),
    "view value column short": v2(
        view=view(b"\x01\x05", b"\x01\x00", b"\x01\x00", b"\x01\x07", b"\x08")
    ),
    "view column missing": v2(view=view(b"\x01\x05", b"\x01\x00", b"\x01\x00", b"\x01\x07")),
    "view entry repeated": v2(
        view=view(
            b"\x01\x05\x05",
            b"\x01\x00\x00",
            b"\x01\x00\x00",
            b"\x01\x07\x07",
            b"\x08" + struct.pack("<2d", 1.5, 2.5),
        )
    ),
    "view table index out of range": v2(
        view=view(b"\x01\x05", b"\x01\x00", b"\x01\x01", b"\x01\x07", ONE)
    ),
    "segment of the wrong arity": (SEGMENT_VERSION, 0, (0, ()), VIEW),
    "map pair of the wrong arity": v2(pmap=((), ((("t", "k"), 0, 9),))),
    # A row with version 1's to key in it.
    "view row of the wrong arity": v2(
        view=(0, (), (), ((5, 0, ("t", "k"), ("t", "k"), 1.5),))
    ),
}


@pytest.mark.parametrize("where", WHERE)
def test_hand_written_columns_load(where, tmp_path):
    segment = load(where, tmp_path, encode(v2()))
    assert segment.partition_map == {StateRef("t", 7): 0, StateRef("t", 8): 1}
    assert segment.parametric_view.lookup(5, 0, StateRef("t", 7)) == 1.5


@pytest.mark.parametrize("where", WHERE)
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_segment_is_corrupt_and_named(where, case, tmp_path):
    with pytest.raises(CorruptSegmentError, match="'msr' epoch 0"):
        load(where, tmp_path, encode(MALFORMED[case]))
