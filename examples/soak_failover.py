"""Soak: sustained traffic with seeded failovers, graded against SLOs.

This example is a thin wrapper over the real harness — it runs exactly
what ``repro soak`` runs.  The soak drives a Zipf-skewed Grep&Sum
stream through the recovery scheme at a calibrated offered rate,
crashes and recovers it on a seeded schedule, serves bounded-staleness
degraded reads from the last durable checkpoint while the engine is
down, meters admission through a token bucket during catch-up, and
grades the whole run against declarative SLO targets (p99/p999
latency, availability error budget, MTTR).

Run::

    python examples/soak_failover.py             # bounded smoke pair
    python examples/soak_failover.py --cluster   # cluster cell only
    python examples/soak_failover.py --chaos     # + torn log flushes

Anything beyond the flags above is passed straight through to the
``repro soak`` CLI, e.g.::

    python examples/soak_failover.py --epochs 32 --crashes 4 --json -
"""

from __future__ import annotations

import sys

from repro.cli import main as repro_main


def main() -> int:
    passthrough = list(sys.argv[1:])
    args = ["soak"]
    if "--cluster" in passthrough:
        passthrough.remove("--cluster")
        args += ["--smoke", "--mode", "cluster"]
    elif any(a.startswith("--epochs") or a.startswith("--keys")
             for a in passthrough):
        # Caller is sizing the run explicitly; don't force smoke scale.
        args += ["--mode", "single"]
    else:
        args += ["--smoke", "--mode", "both"]
    return repro_main(args + passthrough)


if __name__ == "__main__":
    sys.exit(main())
