"""The trace clock: microseconds since a per-process-tree origin.

The engine and the experiment runner stamp their complete-span trace
events with it.
"""

from __future__ import annotations

import time

#: Per-process monotonic origin: trace timestamps are microseconds since
#: this module was first imported.  ``time.monotonic`` is CLOCK_MONOTONIC
#: on Linux (system-wide), so timestamps from pool workers on the same
#: machine line up with the parent's.
_ORIGIN = time.monotonic()


def now_us() -> float:
    """Microseconds since process-tree trace origin."""
    return (time.monotonic() - _ORIGIN) * 1e6
