"""Frozen, test-only oracle of the input log and command logs, version 1.

Version 1 wrote an ingress append as one unframed codec list of
``(seq, kind, payload)`` triples, and a command-log segment as the codec
list a scheme group-committed: the triples of its committed events (WAL,
PACMAN), or ``(triple, extra)`` pairs (DL's per-operation edge records,
LV's and LVC's vectors).  The log store framed a segment; the event
store did not frame an append.  This file is that writer, written out on
plain tuples.  It is never imported by ``src/``: what it writes is what
older builds left on disk, and the event store, the log store and the
five command-log schemes must keep reading it.  Do not optimise or tidy
it; a change to version 1 must show up as a diff against this file.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

from repro.storage.integrity import protect
from tests.reference_codec_v2 import reference_encode_v2


def _triple(event: Sequence[Any]) -> tuple:
    seq, kind, payload = event
    return (seq, kind, payload)


def reference_arrivals_v1(events: Iterable[Sequence[Any]]) -> bytes:
    """The bytes of one version 1 ingress append (no frame)."""
    return reference_encode_v2([_triple(event) for event in events])


def reference_command_segment_v1(
    commands: Iterable[Sequence[Any]], extras: Optional[Iterable[Any]] = None
) -> bytes:
    """The framed bytes of one version 1 command-log segment: triples,
    or ``(triple, extra)`` pairs when ``extras`` is given."""
    triples = [_triple(event) for event in commands]
    records: list = triples
    if extras is not None:
        records = [(triple, extra) for triple, extra in zip(triples, extras)]
    return protect(reference_encode_v2(records))
