"""Command-log segments are pinned byte for byte.

WAL, PACMAN, DL, LV and LVC log the command (the input event) of every
committed transaction.  Each digest below is the sha256 of every log
segment one fixed run committed, recorded while the schemes still
encoded each command themselves; splicing the bytes the ingress append
kept must reproduce them exactly, the way ``reference_codec_v2.py`` pins
what ``encode`` writes.  TP is the abort-heavy input (an aborted
transaction logs nothing), and the run crashes with a partial epoch
pending, so the epochs after recovery log a tail that was restored from
the event store rather than appended by this process.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import SCHEMES

EPOCH_LEN = 48
EPOCHS = 8
#: Events processed before the crash: five epochs and a partial one.
BEFORE_CRASH = 5 * EPOCH_LEN + 20

PINS = {
    ("DL", "gs"): "8c5be5952de04017c6d1c59acfc08368516d8a2c8ea13cdecdc98920857a58ad",
    ("DL", "sl"): "16afe48c5006f4b85eb37af0181179fd700dba0c324ae9e0169c45154945d648",
    ("DL", "tp"): "fa39136e74e5c54d8d99b762fc16dd95ec32d39b58c0dcf86dfdbdeb14276bfb",
    ("LV", "gs"): "4ac9a7ecf6e9f553cec20a073acfc9b6cebba9def375f0845da26864f2f04948",
    ("LV", "sl"): "94b72677aabad870086a7f6d6caf03cd8dfe62e96f2e18f2712e0b317b945a4d",
    ("LV", "tp"): "e67904e7a3f0e568f33c47113f09114022fc7503e4b2fe63b26ec86269d2a871",
    ("LVC", "gs"): "507bb12a8f63999ba14a191bdfa39fb527de766ee96f118e5432aae0cf8e7b9a",
    ("LVC", "sl"): "76c1d95e78a67f594e667210d4d36b41ffbc47e1d45acb1a7491dc586ecd14ba",
    ("LVC", "tp"): "9f076e1e8e991bdd688348249aaf063f7c6f78cf23b1b6e0e6dee787b5ea5bf5",
    ("PACMAN", "gs"): "2fcd49a88f086a6629b7f3527192904e318cabf13ade04833eaed56ad7b39695",
    ("PACMAN", "sl"): "c9a0ba9cb1de355bc43ae93b530d1001f5572626335e27c0262ece628b19a58a",
    ("PACMAN", "tp"): "b575bc80b1b6ab1c6ae9dfcb840ce4c5fefd5010ca6609870299bee1350b5213",
    ("WAL", "gs"): "2fcd49a88f086a6629b7f3527192904e318cabf13ade04833eaed56ad7b39695",
    ("WAL", "sl"): "c9a0ba9cb1de355bc43ae93b530d1001f5572626335e27c0262ece628b19a58a",
    ("WAL", "tp"): "b575bc80b1b6ab1c6ae9dfcb840ce4c5fefd5010ca6609870299bee1350b5213",
}


def committed_log_digest(name: str, workload) -> str:
    """sha256 over every ``(stream, epoch)`` segment of the fixed run,
    in key order.  No checkpoint falls inside the run, so GC reclaims
    nothing and every committed segment is still on the disk."""
    events = workload.generate(EPOCH_LEN * EPOCHS, seed=7)
    scheme = SCHEMES[name](
        workload, num_workers=4, epoch_len=EPOCH_LEN, snapshot_interval=64
    )
    scheme.process_stream(events[:BEFORE_CRASH])
    scheme.crash()
    scheme.recover()
    scheme.process_stream(events[BEFORE_CRASH:])
    assert scheme.next_epoch == EPOCHS
    digest = hashlib.sha256()
    for (stream, epoch_id), blob in sorted(scheme.disk.logs._segments.items()):
        digest.update(f"{stream} {epoch_id} {len(blob)}\n".encode())
        digest.update(blob)
    return digest.hexdigest()


@pytest.mark.parametrize("name, workload_name", sorted(PINS))
def test_committed_segments_match_the_pinned_digest(name, workload_name, request):
    workload = request.getfixturevalue(workload_name)
    assert committed_log_digest(name, workload) == PINS[name, workload_name]
