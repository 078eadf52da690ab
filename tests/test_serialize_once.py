"""Serialize once: bytes encoded stay close to bytes written.

Every durable payload is walked by the encoder one time; the sizes the
cost model charges are read off that encoding.  The check is a count,
so it repeats exactly: over a run → crash → recover cycle, the summed
length of everything ``codec.encode`` returned must stay within a small
factor of what reached the device.  Before the stores accepted
:class:`~repro.storage.codec.Encoded` payloads the ratio was 3.0–4.0
(each payload encoded to measure it, again to store it, and the event
store re-encoding on every size query).

What legitimately keeps the ratio above 1: a recovery watermark is
billed the delta blobs it appends plus 64 bytes, while ``encode``
returns (and this count sums) the whole record: a ~160-byte header and
the earlier blobs, spliced in as bytes.  That excess scales with what
the replayed epochs wrote, never with the state
(``test_resumable_recovery.py::TestWatermarkIsADeltaLog`` holds it
under 1.1 on a big state).  No measure-only encoding is left: a delta
checkpoint encodes its delta and nothing else
(``test_incremental_checkpoints.py`` holds that).
The ``encoded_bytes`` fixture is in ``conftest.py``.

An event is packed once too: the spout's ingress append packs it into a
row, and the five command logs (WAL, PACMAN, DL, LV, LVC) splice the
rows the event store kept instead of encoding the event again
(``test_command_log_bytes.py`` pins the segments byte for byte).
"""

from __future__ import annotations

import pytest

from repro import SCHEMES
from repro.errors import SealedEpochMismatchError
from repro.storage.rows import RowSchemas

EPOCH_LEN = 48
EPOCHS = 6
RECOVERABLE = sorted(n for n, cls in SCHEMES.items() if cls.persists_events)
COMMAND_LOGS = ("DL", "LV", "LVC", "PACMAN", "WAL")


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_encoded_bytes_stay_close_to_written_bytes(name, sl, encoded_bytes):
    events = sl.generate(EPOCH_LEN * EPOCHS, seed=7)
    scheme = SCHEMES[name](
        sl, num_workers=4, epoch_len=EPOCH_LEN, snapshot_interval=4
    )
    # Set-up (the epoch -1 snapshot) is excluded on both sides.
    stats = scheme.disk.device.stats
    written_at_start, encoded_bytes[0] = stats.bytes_written, 0

    for start in range(0, len(events), EPOCH_LEN):
        scheme.process_stream(events[start : start + EPOCH_LEN])
    if scheme.persists_events:  # NAT cannot recover: runtime only.
        scheme.crash()
        report = scheme.recover()
        assert report.epochs_replayed == 2 and set(report.ladder) == {"fast"}

    written = stats.bytes_written - written_at_start
    if not written:  # NAT persists nothing: nothing to encode either.
        assert encoded_bytes[0] == 0
        return
    assert encoded_bytes[0] <= 1.25 * written, (
        f"{name}: encoded {encoded_bytes[0]} bytes for {written} written "
        f"({encoded_bytes[0] / written:.2f}x)"
    )


@pytest.mark.parametrize("workload_name", ["sl", "gs"])
@pytest.mark.parametrize("name", RECOVERABLE)
def test_each_event_is_encoded_once(name, workload_name, request, monkeypatch):
    """Over run → crash → recover, each ingested event is packed into a
    row once: at ingress, never again for a command log."""
    workload = request.getfixturevalue(workload_name)
    calls = [0]
    pack = RowSchemas.pack

    def counting(self, events):
        events = list(events)
        calls[0] += len(events)
        return pack(self, events)

    monkeypatch.setattr(RowSchemas, "pack", counting)
    events = workload.generate(EPOCH_LEN * EPOCHS, seed=7)
    scheme = SCHEMES[name](
        workload, num_workers=4, epoch_len=EPOCH_LEN, snapshot_interval=4
    )
    for start in range(0, len(events), EPOCH_LEN):
        scheme.process_stream(events[start : start + EPOCH_LEN])
    scheme.crash()
    assert scheme.recover().epochs_replayed == 2
    assert calls[0] == len(events)


@pytest.mark.parametrize("name", COMMAND_LOGS)
def test_a_sealed_epoch_that_disagrees_with_its_batch_is_refused(
    name, sl, monkeypatch
):
    """A command log splices the sealed epoch's bytes by position, so a
    store that sealed a different count than the batch fails loudly
    instead of logging the wrong commands."""
    scheme = SCHEMES[name](sl, num_workers=4, epoch_len=EPOCH_LEN)
    events = scheme.disk.events
    seal = events.seal_epoch
    monkeypatch.setattr(
        events, "seal_epoch", lambda epoch_id, count: seal(epoch_id, count - 1)
    )
    with pytest.raises(
        SealedEpochMismatchError,
        match=f"sealed {EPOCH_LEN - 1} events, the batch holds {EPOCH_LEN}",
    ):
        scheme.process_stream(sl.generate(EPOCH_LEN, seed=7))
    assert not scheme.disk.logs.has_epoch(scheme.log_streams[0], 0)
