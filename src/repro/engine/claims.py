"""In-flight claim files: the workload store's single-box dump lock.

A *claim* marks a piece of content-addressed work (generating and
dumping a workload) as in flight, so concurrent processes on one box
wait for the winner's published result instead of redoing the work.
Claims are plain files created with ``O_EXCL`` - the atomic create is
the lock - holding the owner pid and a wall-clock timestamp.

A claim is *stale* (and may be broken by any contender) when its owner
process is dead or the claim is older than ``ttl_s``; both cover the
crashed-worker case, so a dead worker can never wedge later sweeps.
Breaking a claim is best-effort: two contenders may race on the unlink,
but the follow-up ``O_EXCL`` create still admits exactly one winner.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Optional

#: Claims older than this are presumed abandoned even if the owner pid
#: is alive (the owner may be wedged, or the pid recycled).
DEFAULT_CLAIM_TTL_S = 900.0


def pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a same-box process."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-uid process
        return True
    except OSError:  # pragma: no cover - exotic platforms
        return True
    return True


class ClaimBox:
    """A directory of ``<key>.claim`` files with expiry semantics."""

    def __init__(self, root: os.PathLike, ttl_s: float = DEFAULT_CLAIM_TTL_S):
        self.root = Path(root)
        self.ttl_s = float(ttl_s)

    def path(self, key: str) -> Path:
        return self.root / f"{key}.claim"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def acquire(self, key: str) -> bool:
        """Try to claim ``key``; breaks a stale claim first.

        Returns ``True`` when this process now owns the claim.  Any
        filesystem error degrades to ``True`` (claiming is an
        optimisation - work must proceed without it).
        """
        path = self.path(key)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError:
            return True
        for _ in range(2):
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                info = self._read(path)
                if info is not None and not self._stale(info):
                    return False
                # Stale (or unreadable) claim: break it and retry the
                # exclusive create; losing the unlink race is fine.
                try:
                    os.unlink(path)
                except OSError:
                    return False
                continue
            except OSError:
                return True
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump({"pid": os.getpid(), "ts": time.time()},
                              handle)
            except OSError:  # pragma: no cover - disk full mid-claim
                pass
            return True
        return False

    def release(self, key: str) -> None:
        """Drop the claim on ``key`` (idempotent)."""
        try:
            os.unlink(self.path(key))
        except OSError:
            pass

    def active(self, key: str) -> bool:
        """True while ``key`` is claimed by a live, fresh owner."""
        info = self._read(self.path(key))
        return info is not None and not self._stale(info)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _stale(self, info: Dict[str, Any]) -> bool:
        age = time.time() - float(info.get("ts", 0.0))
        if age > self.ttl_s:
            return True
        return not pid_alive(int(info.get("pid", 0)))

    @staticmethod
    def _read(path: Path) -> Optional[Dict[str, Any]]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            # Unreadable/torn claims look stale after a grace period;
            # report them as empty (-> stale via pid 0) so a contender
            # can break them rather than wait forever.
            try:
                if (path.exists()
                        and time.time() - path.stat().st_mtime < 2.0):
                    return {"pid": os.getpid(), "ts": time.time()}
            except OSError:
                pass
            return None
