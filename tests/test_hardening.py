"""Hardening properties: fuzzed decoding, accounting invariants,
format versioning."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.logmanager import SEGMENT_VERSION, STREAM, LoggingManager, ViewSegment
from repro.core.views import AbortView, ParametricView
from repro.errors import CorruptSegmentError, StorageError
from repro.sim.clock import Machine
from repro.sim.executor import ParallelExecutor, SimTask
from repro.storage.codec import Encoded, decode, encode
from repro.storage.stores import Disk
from tests.reference_codec import reference_encode


#: ``{300: 1.5}`` and ``{70000: 2.0}``: state-table frames (a 2- and a
#: 4-byte key column), cut below to hold the column decoder to the
#: truncation contract.
_TABLE_2 = encode({300: 1.5})
_TABLE_4 = encode({70000: 2.0})
#: The same two tables as builds before the table tag wrote them
#: (``TAG_DICT`` of tagged pairs), which must keep failing cleanly too.
_V1_TABLE_2 = reference_encode({300: 1.5})
_V1_TABLE_3 = reference_encode({70000: 2.0})

#: Arbitrary bytes, and arbitrary bytes behind a table tag with a
#: plausible count and width so the column reads are actually reached.
_garbage = st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=200).map(lambda tail: b"\x0a" + tail),
    st.builds(
        lambda count, width, tail: bytes((0x0A, count, width)) + tail,
        st.integers(0, 20),
        st.sampled_from([0, 1, 2, 3, 4, 8, 255]),
        st.binary(max_size=200),
    ),
)


@given(_garbage)
@example(b"\x05\x01\x80")  # string payload that is not UTF-8
@example(b"\x09\x01\x08\x00\x00")  # a list where a dict key belongs
@example(b"\x09\x01" + _TABLE_2 + b"\x00")  # a table where a dict key belongs
@example(b"\x03" + b"\x80" * 64)  # varint that never terminates
@example(_TABLE_2[:2])  # table cut before its width byte
@example(_TABLE_2[:4])  # table cut mid-key
@example(_TABLE_4[:5])
@example(_TABLE_2[:-3])  # table cut mid-float
@example(_TABLE_2[:5])  # table cut between the key column and the values
@example(b"\x0a" + b"\xff" * 9 + b"\x01\x04" + b"\x00" * 12)  # count 2**64 - 1
@example(_V1_TABLE_2[:4])  # v1 table cut mid-key
@example(_V1_TABLE_3[:5])
@example(_V1_TABLE_2[:-3])  # v1 table cut mid-float
@example(_V1_TABLE_2[:5])  # v1 table cut between key and value
@settings(max_examples=400, deadline=None)
def test_property_decoder_never_crashes_on_garbage(data):
    """Arbitrary bytes either decode to a value or raise StorageError —
    never any other exception (a recovery path must fail cleanly)."""
    try:
        decode(data)
    except StorageError:
        pass
    except RecursionError:
        pytest.fail("decoder recursed unboundedly on garbage input")


@given(st.binary(min_size=1, max_size=100), st.integers(0, 99))
@settings(max_examples=200, deadline=None)
def test_property_single_byte_corruption_never_decodes_wrong(data, position):
    """Flipping one byte of a valid encoding either still raises, or
    decodes to *something* — but framed segments (CRC) always detect it.
    Here we check the raw codec never produces the original value from
    corrupted input (no silent aliasing)."""
    blob = encode(data)
    index = position % len(blob)
    corrupted = bytearray(blob)
    corrupted[index] ^= 0xFF
    try:
        result = decode(bytes(corrupted))
    except StorageError:
        return
    assert result != data or bytes(corrupted) == blob


@given(
    st.lists(
        st.tuples(
            st.integers(0, 3),  # worker
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            st.integers(0, 4),  # dependency fan-in (on earlier tasks)
        ),
        max_size=40,
    )
)
@settings(max_examples=150, deadline=None)
def test_property_executor_accounting_sums_to_elapsed(spec):
    """For arbitrary DAGs, per-core bucket totals plus residual idle
    always reconstruct the makespan — no time is created or lost."""
    tasks = []
    for index, (worker, cost, fan_in) in enumerate(spec):
        deps = tuple(range(max(0, index - fan_in), index))
        tasks.append(SimTask(index, worker, cost, deps))
    machine = Machine(4)
    executor = ParallelExecutor(machine, sync_cost=0.5, remote_cost=0.25)
    result = executor.run(tasks)
    machine.barrier()
    # After the final barrier every core's clock equals the makespan and
    # the per-core bucket sum equals its clock.
    for core in machine.cores:
        assert core.clock == pytest.approx(machine.elapsed())
        assert sum(core.buckets.values()) == pytest.approx(core.clock)
    assert machine.elapsed() >= result.makespan - 1e-12


class TestSegmentVersioning:
    def _segment(self):
        return ViewSegment(0, AbortView(0), ParametricView(0), None)

    def test_segments_carry_the_current_version(self):
        assert SEGMENT_VERSION == 2
        assert self._segment().encoded()[0] == SEGMENT_VERSION

    def test_round_trip(self):
        raw = decode(encode(self._segment().encoded()))
        restored = ViewSegment.from_encoded(raw)
        assert restored.epoch_id == 0

    def _load(self, version, epoch_id):
        """Commit this build's empty segment for ``epoch_id`` with its
        version replaced, then load it back."""
        segment = ViewSegment(epoch_id, AbortView(epoch_id), ParametricView(epoch_id), None)
        raw = (version, *segment.encoded()[1:])
        disk = Disk()
        disk.logs.commit_epoch(STREAM, epoch_id, Encoded(encode(raw)))
        return LoggingManager(disk).load_epoch(epoch_id)

    def test_version_1_is_refused(self):
        with pytest.raises(CorruptSegmentError, match="'msr' epoch 0 .*version 1 "):
            self._load(1, 0)

    def test_unknown_version_rejected(self):
        # A StorageError, so load_epoch reports it as a corrupt segment.
        raw = list(self._segment().encoded())
        raw[0] = 3
        with pytest.raises(StorageError, match="version 3 "):
            ViewSegment.from_encoded(tuple(raw))

    def test_an_unknown_version_is_a_corrupt_segment_named_by_epoch(self):
        with pytest.raises(CorruptSegmentError, match="'msr' epoch 5 .*version 3 "):
            self._load(3, 5)

    def test_versioned_segment_survives_disk_round_trip(self):
        lm = LoggingManager(Disk())
        lm.stage(self._segment())
        lm.commit()
        segment, _io = lm.load_epoch(0)
        assert segment.epoch_id == 0
