"""Frozen, test-only oracle of MSR's view segment, version 1.

Version 1 wrote every partition-map entry and every ParametricView entry
as a tagged tuple of its own, and each view entry carried the paper's
``(From_key, To_key)`` pair.  Version 2 writes both as packed columns and
keeps no to key.  This file is the version 1 writer as
``ViewSegment.encoded`` stood, written out on plain tuples.  It is never
imported by ``src/``: what it writes is what older builds left on disk,
and ``LoggingManager.load_epoch`` must keep reading it.  Do not optimise
or tidy it; a change to version 1 must show up as a diff against this
file.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from tests.reference_codec import reference_encode

VERSION = 1


def reference_segment_v1(
    epoch_id: int,
    aborted: Iterable[int],
    entries: Iterable[Tuple[int, int, tuple, tuple, float]],
    partition_map: Optional[Dict[tuple, int]],
) -> bytes:
    """Codec bytes of a version 1 view segment.

    ``entries`` are ``(txn_id, op_index, from_ref, to_ref, value)`` with
    no two sharing ``(txn_id, op_index, from_ref)``; a ref is any
    ``(table, key)`` pair.  ``partition_map`` maps refs to partition ids,
    or is ``None`` (selective logging off).
    """
    abort_raw = (epoch_id, tuple(sorted(aborted)))
    rows = []
    for txn_id, op_index, from_ref, to_ref, value in sorted(entries):
        rows.append(
            (
                txn_id,
                op_index,
                (from_ref[0], from_ref[1]),
                (to_ref[0], to_ref[1]),
                value,
            )
        )
    view_raw = (epoch_id, tuple(rows))
    if partition_map is None:
        partition_raw = None
    else:
        pairs = []
        for ref, pid in sorted(partition_map.items()):
            pairs.append(((ref[0], ref[1]), pid))
        partition_raw = tuple(pairs)
    return reference_encode((VERSION, epoch_id, abort_raw, view_raw, partition_raw))
