"""The single shared entry point for economics backend selection.

Every layer that evaluates market economics - the optimizer, the
pairwise comparisons, the efficiency tables, the auction, the streaming
allocation service, engine work units and both CLIs - accepts a
``backend=`` keyword and routes it through :func:`resolve_backend`
here.

Two backends exist:

* ``"numpy"`` - the vectorized market kernel (tensors over the config
  grid); the default whenever numpy imports;
* ``"python"`` - the scalar reference loops, kept for equivalence
  suites and numpy-less installs.

``resolve_backend(None)`` returns :data:`DEFAULT_BACKEND`, and asking
for ``"numpy"`` without numpy installed silently degrades to
``"python"`` (same numbers, scalar speed) so library code never
hard-fails on the optional import.
"""

from __future__ import annotations

from typing import Optional

try:  # pragma: no cover - exercised implicitly by every numpy test
    import numpy  # noqa: F401  (import probe only)

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - the no-numpy container case
    HAVE_NUMPY = False

#: Backend names accepted throughout the economics layer.
BACKENDS = ("numpy", "python")

#: What ``backend=None`` resolves to.
DEFAULT_BACKEND = "numpy" if HAVE_NUMPY else "python"


def resolve_backend(backend: Optional[str]) -> str:
    """Validate/default a backend name.

    ``None`` means :data:`DEFAULT_BACKEND`; asking for ``"numpy"``
    without numpy installed silently degrades to ``"python"`` (same
    numbers, scalar speed) so library code never hard-fails on the
    optional import.
    """
    if backend is None:
        return DEFAULT_BACKEND
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "numpy" and not HAVE_NUMPY:
        return "python"
    return backend


def require_numpy() -> None:
    """Raise with the canonical message when numpy is mandatory."""
    if not HAVE_NUMPY:
        raise RuntimeError(
            "numpy is not available; use backend='python' "
            "(resolve_backend(None) degrades automatically)"
        )
