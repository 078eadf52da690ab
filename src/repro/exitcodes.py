"""CLI exit codes — one table, shared by every subcommand and CI job.

These are contracts: CI greps for specific codes to tell *why* a step
went red (a verification failure reruns under the same seed, an
invariant violation uploads its minimized counterexample).  Changing a
value is a breaking change to every workflow that consumes it; add new
codes at the end.
"""

from __future__ import annotations

#: Success: every verification, gate and invariant held.
EXIT_OK = 0
#: Generic failure: silent divergence, SLO breach, a moved record number
#: in ``repro gate``, data loss, or a crash-point coverage gap in ``repro check``.
EXIT_FAILURE = 1
#: Usage error: bad flags or malformed input files.
EXIT_USAGE = 2
#: 3 is retired (it meant "execution backend unavailable"); the codes
#: after it keep their values.
#: ``repro check`` found (or ``--replay`` reproduced) an invariant
#: violation — there is a concrete fault schedule under which recovery
#: is *wrong*, with a minimized repro file naming it.
EXIT_INVARIANT = 4
