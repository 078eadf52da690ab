"""Input events.

An event is the unit of the delivery guarantee: it must affect state
exactly once and produce exactly one output (§II-C).  ``seq`` is the
global arrival sequence number and doubles as the timestamp of the
state transaction the event triggers.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class Event(NamedTuple):
    """One input event: ``(seq, kind, payload)``.

    ``kind`` selects the transaction template in the workload (e.g.
    ``"transfer"`` vs ``"deposit"`` in Streaming Ledger); ``payload``
    carries the template's parameters and must be codec-serializable.

    A ``NamedTuple``, like :class:`~repro.engine.operations.Operation`:
    the event is its own encoded form, so the input log's row decoder
    (:mod:`repro.storage.rows`) builds one in a single C call.  It
    compares and hashes equal to the plain ``(seq, kind, payload)``
    tuple.
    """

    seq: int
    kind: str
    payload: Tuple = ()
