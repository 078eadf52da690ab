"""Command-log segments are pinned byte for byte.

WAL, PACMAN, DL, LV and LVC log the command (the input event) of every
committed transaction.  Each digest below is the sha256 of every log
segment one fixed run committed.  A segment is a rows payload: the rows
the ingress append packed, spliced under one header that declares their
schemas (DL's edge records and LV's vectors in its tail, as two packed
columns), so a change to the row or tail format, or a scheme that
encodes its commands again, shows up here.  TP is the abort-heavy input
(an aborted transaction logs nothing), and the run crashes with a
partial epoch pending, so the epochs after recovery log a tail that was
restored from the event store rather than appended by this process.

The comment on each pin is the total segment bytes of the run, as rows
and, before them, as the codec list of command tuples (whose digests
this file pinned until rows replaced it).  DL, LV and LVC also give the
bytes of the rows whose tail was one codec value per row (pinned until
the tail became two packed columns).
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
    # 7 587 bytes as rows (9 472 with a codec-value tail, 16 120 as a codec list)
    ("DL", "gs"): "24ee449232a49b5c9c771c3ffa787b5c6db1d10a6f285d5d9caad3afb2a02c36",
    # 21 100 bytes as rows (25 099 with a codec-value tail, 32 123 as a codec list)
    ("DL", "sl"): "4aeeacaca28410ea7534890987a2d796d1f47d3856884335812349d4d4d9c9e3",
    # 6 826 bytes as rows (10 834 with a codec-value tail, 15 302 as a codec list)
    ("DL", "tp"): "06958223a38d0885c11e5a51dc02791c182a9b899721d4e5cf3075cdfd1d4b91",
    # 7 371 bytes as rows (9 040 with a codec-value tail, 15 688 as a codec list)
    ("LV", "gs"): "b485781845b5355d549b94703f314f92d8f7d26f1b22a5ee904107976c0857cb",
    # 10 304 bytes as rows (12 098 with a codec-value tail, 19 122 as a codec list)
    ("LV", "sl"): "8a9a81f2965d17c3a74c453f9609f9d5ef383706919cc65196261b34a6651bed",
    # 5 190 bytes as rows (6 546 with a codec-value tail, 11 014 as a codec list)
    ("LV", "tp"): "b94e9b959a3d79ba79eb4e9729922716de296e3e30827ba41f974762563f3282",
    # 6 391 bytes as rows (7 504 with a codec-value tail, 14 152 as a codec list)
    ("LVC", "gs"): "5beb6053cd72e165652adf26e1b51d344f73aa01e2a592927738cdaddc965815",
    # 9 462 bytes as rows (11 076 with a codec-value tail, 18 100 as a codec list)
    ("LVC", "sl"): "e61fe9a7df364449a97d12605a022fd8792930323da4b70e804baebffc4a530a",
    # 4 310 bytes as rows (5 052 with a codec-value tail, 9 520 as a codec list)
    ("LVC", "tp"): "01bce3c3cb95ef904ea8ab525ac4e32c234125f88677c0a9c3aaabbd44dc9cff",
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
