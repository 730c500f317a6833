"""Content-addressed on-disk result cache for sweep evaluations.

Every cache entry is keyed by the SHA-256 of a canonical JSON encoding
of *everything the result depends on*: the cache schema version, the
benchmark profile's field values, the grids, the trace length and seed,
the simulator config's fingerprint and the sampling config.  Change any
of those and the key changes, so stale entries are never served; they
are simply orphaned under the old key.

Entries live under ``.repro_cache/v<N>/<kk>/<key>.json`` (override the
root with ``REPRO_CACHE_DIR`` or ``ResultCache(root=...)``).  Writes
are atomic (temp file + ``os.replace``) so concurrent worker processes
and runs never observe torn entries; a lookup opens the entry file, a
missing file is a miss, and corrupt or unreadable entries are counted
(``counters()["corrupt"]``), unlinked, and treated as misses.  An entry
that parses but holds the wrong shape for its unit is treated the same
way once the engine :meth:`~ResultCache.reject`\\ s it.

``ResultCache(enabled=False)`` bypasses the cache entirely; delete the
directory (or call :meth:`ResultCache.clear`) to drop it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Mapping, Optional

#: Bump when the stored value layout (not the inputs) changes shape.
CACHE_VERSION = 1

#: Default cache root, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"


def canonical_key(payload: Mapping[str, Any]) -> str:
    """SHA-256 over a canonical (sorted, compact) JSON encoding."""
    encoded = json.dumps(
        {"cache_version": CACHE_VERSION, **payload},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


class ResultCache:
    """Persistent key/value store for evaluated sweep work units.

    Values must be JSON-serialisable; callers are responsible for
    encoding tuples/dicts into JSON-stable shapes (the engine stores
    ``[[cache_kb, slices, value], ...]`` row lists).
    """

    def __init__(self, root: Optional[os.PathLike] = None,
                 enabled: bool = True):
        env_root = os.environ.get("REPRO_CACHE_DIR")
        self.root = Path(root if root is not None
                         else (env_root or DEFAULT_CACHE_DIR))
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt = 0

    # ------------------------------------------------------------------
    # key construction
    # ------------------------------------------------------------------

    @staticmethod
    def make_key(payload: Mapping[str, Any]) -> str:
        """Content-address a key-field mapping (see :func:`canonical_key`)."""
        return canonical_key(payload)

    def _path_for(self, key: str) -> Path:
        return self.root / f"v{CACHE_VERSION}" / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # store operations
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """The cached value for ``key``, or ``None`` on a miss.

        A missing entry file is a plain miss; corrupt entries are
        unlinked and counted.
        """
        if not self.enabled:
            return None
        path = self._path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            value = entry["value"]
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self._quarantine(path)
            return None
        self.hits += 1
        return value

    def reject(self, key: str) -> None:
        """Take back the hit :meth:`get` just served for ``key``.

        For a caller whose value parses but has the wrong shape: the
        entry is counted and unlinked like any corrupt one, and the hit
        becomes a miss.
        """
        self.hits -= 1
        self._quarantine(self._path_for(key))

    def _quarantine(self, path: Path) -> None:
        """Count a poison entry and unlink it, so the recompute can
        repair the cache instead of tripping on it forever."""
        self.corrupt += 1
        self.misses += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    def put(self, key: str, value: Any,
            key_fields: Optional[Mapping[str, Any]] = None) -> None:
        """Store ``value`` under ``key`` atomically.

        ``key_fields``, when given, is written alongside the value so a
        human inspecting ``.repro_cache/`` can see what an entry is.
        """
        if not self.enabled:
            return
        path = self._path_for(key)
        entry = {"key": key, "value": value}
        if key_fields is not None:
            entry["key_fields"] = dict(key_fields)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(path.parent), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(entry, handle, default=str)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only or full filesystem degrades to compute-only.
            return
        self.puts += 1

    def clear(self) -> int:
        """Delete every cached entry (all schema versions); returns count.

        Only the cache's own ``v<N>/<kk>/<key>.json`` entry files go;
        any other file under the root is left alone.
        """
        removed = 0
        for path in sorted(self.root.glob("v[0-9]*/??/*.json")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def counters(self) -> Mapping[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "puts": self.puts, "corrupt": self.corrupt}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "on" if self.enabled else "off"
        return (f"ResultCache({str(self.root)!r}, {state}, "
                f"hits={self.hits}, misses={self.misses})")
