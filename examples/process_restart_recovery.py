"""Literal durability: kill the process, restart, recover from files.

Most of this repository simulates crashes inside one process.  This
example makes it literal: a child process runs MorphStreamR with a
file-backed disk and dies via ``os._exit`` mid-stream (no cleanup, no
atexit — as close to a power cut as a process can get).  The parent
then recovers *in this process* from nothing but the files the child
left behind, and verifies the result against the serial ground truth.

Run::

    python examples/process_restart_recovery.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

from repro import MorphStreamR, StreamingLedger
from repro.harness.report import format_seconds
from repro.harness.runner import ground_truth
from repro.storage.filedisk import FileBackedDisk

NUM_EVENTS = 1500
CHILD_SCRIPT = textwrap.dedent(
    """
    import os, sys
    from repro import MorphStreamR, StreamingLedger
    from repro.storage.filedisk import FileBackedDisk

    root = sys.argv[1]
    workload = StreamingLedger(256, transfer_ratio=0.6, skew=0.5,
                               query_ratio=0.1, num_partitions=8)
    engine = MorphStreamR(
        workload, num_workers=8, epoch_len=128, snapshot_interval=4,
        disk=FileBackedDisk(root),
    )
    engine.process_stream(workload.generate({num_events}, seed=77))
    print(f"child: processed {{engine.events_processed}} events, "
          f"epoch {{engine.next_epoch - 1}} sealed", flush=True)
    os._exit(1)  # die without any cleanup — the power cut
    """
)


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="repro-restart-"))
    print(f"durable root: {root}")

    child = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT.format(num_events=NUM_EVENTS),
         str(root)],
        capture_output=True,
        text=True,
    )
    print(child.stdout.strip())
    assert child.returncode == 1, child.stderr  # the deliberate _exit(1)

    files = sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
    print(f"\nthe child left {len(files)} durable files, e.g.:")
    for path in files[:6]:
        print(f"  {path}")

    # A completely fresh engine in THIS process adopts the files.
    workload = StreamingLedger(
        256, transfer_ratio=0.6, skew=0.5, query_ratio=0.1, num_partitions=8
    )
    engine = MorphStreamR(
        workload,
        num_workers=8,
        epoch_len=128,
        snapshot_interval=4,
        disk=FileBackedDisk(root),
    )
    engine.adopt_crash_state()
    report = engine.recover()
    print(
        f"\nrecovered in this process: {report.events_replayed} events "
        f"replayed in {format_seconds(report.elapsed_seconds)} (virtual)"
    )

    sealed = (engine.crash_epoch + 1) * 128
    events = workload.generate(NUM_EVENTS, seed=77)
    expected_state, _outputs = ground_truth(workload, events[:sealed])
    assert engine.store.equals(expected_state), "state mismatch!"
    print(
        f"state after {sealed} sealed events matches the serial ground "
        f"truth; {len(engine._pending_events)} tail events were restored "
        "to the buffer."
    )


if __name__ == "__main__":
    main()
