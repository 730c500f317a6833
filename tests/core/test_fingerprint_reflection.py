"""Reflection guard: every SimConfig field must reach ``fingerprint()``.

``SimConfig.fingerprint()`` is the content-address basis for the sweep
engine's on-disk result cache.  A config field that doesn't reach the
fingerprint silently aliases cache entries: two sweeps differing only in
that knob would serve each other's results.  These tests enumerate the
dataclass fields *by reflection* - so a field added tomorrow is covered
the day it's added - and fail if any field (the inert ``backend`` field
included) can change without changing the fingerprint.
"""

import copy
from dataclasses import fields, is_dataclass

import pytest

from repro.core.config import SimConfig


def _leaf_paths(obj, prefix=()):
    """(path, value) for every non-dataclass leaf field, recursively."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value) and not isinstance(value, type):
            yield from _leaf_paths(value, prefix + (f.name,))
        else:
            yield prefix + (f.name,), value


def _perturb(value):
    """A different value of the same shape (validation is bypassed -
    only fingerprint sensitivity is under test, not validators)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 1.0
    if isinstance(value, str):
        return value + "-perturbed"
    if isinstance(value, tuple):
        return value + (1,)
    if value is None:
        return (1, 2)  # optional sequence knobs: give them a value
    raise TypeError(f"unhandled leaf type {type(value)!r}: add a case")


def _set_path(config, path, value):
    """In-place write through frozen dataclasses (bypasses validation)."""
    target = config
    for name in path[:-1]:
        target = getattr(target, name)
    object.__setattr__(target, path[-1], value)


def _lookup(mapping, path):
    for name in path:
        mapping = mapping[name]
    return mapping


ALL_PATHS = sorted(_leaf_paths(SimConfig()))


def test_reflection_sees_a_nontrivial_config_surface():
    # If this shrinks to nothing the walk itself broke.
    assert len(ALL_PATHS) >= 20
    assert (("backend",), "python") in ALL_PATHS


@pytest.mark.parametrize(
    "path", [p for p, _ in ALL_PATHS],
    ids=[".".join(p) for p, _ in ALL_PATHS])
def test_every_field_perturbs_the_fingerprint(path):
    base = SimConfig().fingerprint()
    config = copy.deepcopy(SimConfig())
    original = _lookup(base, path)
    _set_path(config, path, _perturb(original))
    perturbed = config.fingerprint()
    assert perturbed != base, (
        f"field {'.'.join(path)} changed without changing the "
        f"fingerprint: engine cache entries would alias"
    )
    # The change must land at the field's own path (tuples are encoded
    # as lists, so compare against the base entry, not the raw value).
    assert _lookup(perturbed, path) != _lookup(base, path)


def test_fingerprint_keys_match_dataclass_fields_exactly():
    """The fingerprint must be exactly the dataclass field set - no
    hand-maintained subset (missing = aliasing) and no stray extras."""

    def check(obj, mapping, where):
        names = {f.name for f in fields(obj)}
        assert set(mapping) == names, where
        for f in fields(obj):
            value = getattr(obj, f.name)
            if is_dataclass(value) and not isinstance(value, type):
                check(value, mapping[f.name], f"{where}.{f.name}")

    config = SimConfig()
    check(config, config.fingerprint(), "SimConfig")
