"""Command-log segments are pinned byte for byte.

WAL, PACMAN, DL, LV and LVC log the command (the input event) of every
committed transaction.  Each digest below is the sha256 of every log
segment one fixed run committed.  A segment is a rows payload: the rows
the ingress append packed, spliced under one header that declares their
schemas (DL's edge records and LV's vectors in its tail), so a change to
the row format, or a scheme that encodes its commands again, shows up
here.  TP is the abort-heavy input (an aborted transaction logs
nothing), and the run crashes with a partial epoch pending, so the
epochs after recovery log a tail that was restored from the event store
rather than appended by this process.

The comment on each pin is the total segment bytes of the run, as rows
and, before them, as the codec list of command tuples (whose digests
this file pinned until rows replaced it).
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
    # 9 472 bytes as rows (16 120 as a codec list)
    ("DL", "gs"): "7d19c37bd543623a0d9b5662311a9bdd9f2adde8bc5951e9bb1e49b34eb7dcf2",
    # 25 099 bytes as rows (32 123 as a codec list)
    ("DL", "sl"): "19910ca9ee0fde60ee4f5fa8d0eaeae1ff068c09cd22f29626e8b2ee21ad3b3d",
    # 10 834 bytes as rows (15 302 as a codec list)
    ("DL", "tp"): "6d197d6415054f53ff6e2ba9e3b788250ecb5e579394bb6f58e1c5ceec4a4407",
    # 9 040 bytes as rows (15 688 as a codec list)
    ("LV", "gs"): "3fae7abfafb9255483edfd336be9d8e084010fb8413f29cef473e0b7cbb2b4a4",
    # 12 098 bytes as rows (19 122 as a codec list)
    ("LV", "sl"): "9dfb4277981571f97d74d83ccf0277a507a6a296e850b73d0a78de5dee6a4327",
    # 6 546 bytes as rows (11 014 as a codec list)
    ("LV", "tp"): "0b121e1742ebb1baae66282319ab3d8d629e42665ff65d73eb799f2a80165134",
    # 7 504 bytes as rows (14 152 as a codec list)
    ("LVC", "gs"): "99a8481ed14e64ca28610f45c157bf09f1cd986eed7e4a40c607618755e081f1",
    # 11 076 bytes as rows (18 100 as a codec list)
    ("LVC", "sl"): "65ee0a03df50b82aa88cb87cde3521b39aa5c5654448c56b55816410b0d66890",
    # 5 052 bytes as rows (9 520 as a codec list)
    ("LVC", "tp"): "5d5c0a048d7b3fd850cc70235ac393ef985402b3e7fd8bd051f560c135b4ab7e",
    # 5 582 bytes as rows (11 548 as a codec list)
    ("PACMAN", "gs"): "b01b5b8ae1c364b6b3616fa358ac7459e40195eb6d21c578cc481e4b3c92cb4e",
    # 8 390 bytes as rows (14 682 as a codec list)
    ("PACMAN", "sl"): "e021edb6128206e15f1087d2cc33968db998f305c632e8c994812172e1de1d86",
    # 3 718 bytes as rows (7 630 as a codec list)
    ("PACMAN", "tp"): "24209e95058ab18706ef4210e2021b850d48eb59bc12fc8fd48d4e25654698b5",
    # 5 582 bytes as rows (11 548 as a codec list)
    ("WAL", "gs"): "b01b5b8ae1c364b6b3616fa358ac7459e40195eb6d21c578cc481e4b3c92cb4e",
    # 8 390 bytes as rows (14 682 as a codec list)
    ("WAL", "sl"): "e021edb6128206e15f1087d2cc33968db998f305c632e8c994812172e1de1d86",
    # 3 718 bytes as rows (7 630 as a codec list)
    ("WAL", "tp"): "24209e95058ab18706ef4210e2021b850d48eb59bc12fc8fd48d4e25654698b5",
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
