"""Validation of the ``backend=`` keyword that two constructors keep.

The numpy market kernel (:mod:`repro.economics.tensor`) is the only
economics path.  :class:`~repro.engine.core.SweepEngine` and
:class:`~repro.cloud.service.AllocationService` still accept
``backend=`` so existing callers keep working, but the only legal
values are ``None`` and ``"numpy"``.
"""

from __future__ import annotations

from typing import Optional


def resolve_backend(backend: Optional[str]) -> str:
    """``"numpy"`` for ``None`` or ``"numpy"``; ``ValueError`` otherwise."""
    if backend is not None and backend != "numpy":
        raise ValueError(
            f"unknown economics backend {backend!r}; the numpy market "
            "kernel is the only one (pass None or 'numpy')")
    return "numpy"
