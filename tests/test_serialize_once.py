"""Serialize once: bytes encoded stay close to bytes written.

Every durable payload is walked by the encoder one time; the sizes the
cost model charges are read off that encoding.  The check is a count,
so it repeats exactly: over a run → crash → recover cycle, the summed
length of everything ``codec.encode`` returned must stay within a small
factor of what reached the device.  Before the stores accepted
:class:`~repro.storage.codec.Encoded` payloads the ratio was 3.0–4.0
(each payload encoded to measure it, again to store it, and the event
store re-encoding on every size query).

What legitimately keeps the ratio above 1: a recovery watermark holds
the full state but is billed only ``64 + delta`` bytes, and the sizes
of that delta are measured without a matching write.
"""

from __future__ import annotations

import sys

import pytest

from repro import SCHEMES
from repro.storage import codec

EPOCH_LEN = 48
EPOCHS = 6


@pytest.fixture
def encoded_bytes(monkeypatch):
    """A one-element list summing ``len()`` of every ``encode`` result.

    ``from repro.storage.codec import encode`` copies the binding, so
    the counting wrapper replaces it in every ``repro.*`` namespace
    (the way ``bench/spans.py`` traces it).
    """
    original = codec.encode
    total = [0]

    def counting(*args, **kwargs):
        blob = original(*args, **kwargs)
        total[0] += len(blob)
        return blob

    patched = set()
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counting)
                patched.add(name)
    assert {"repro.storage.stores", "repro.ft.base", "repro.core.logmanager"} <= patched
    return total


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
    assert encoded_bytes[0] <= 1.35 * written, (
        f"{name}: encoded {encoded_bytes[0]} bytes for {written} written "
        f"({encoded_bytes[0] / written:.2f}x)"
    )
