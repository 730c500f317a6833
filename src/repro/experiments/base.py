"""The common experiment API: pure ``run()``, thin ``main()`` renderer.

Every experiment module follows one protocol:

* ``NAME`` - the runner-facing identifier (``--only <NAME>``);
* ``run(..., engine=None) -> <frozen dataclass result>`` - pure (no
  printing), returns a module-specific :class:`ExperimentResult`
  subclass.  The analytic artefacts read the model directly and take
  only ``engine.obs`` from an :class:`~repro.engine.core.SweepEngine`,
  so the numbers are identical with or without one (regression-tested);
  ``datacenter_stream(shards>1)`` fans its shards out through it;
* ``render(result)`` - prints a result the way the paper presents it;
* ``main()`` - ``render(run())``, the CLI entry point.

:class:`ExperimentResult` carries the JSON-facing surface: ``name``,
``params``, ``rows`` (flat dicts, the artefact's tabular form),
``elapsed`` and ``to_json()``.  Subclasses add richer typed payloads
(series, tables, gain lists) for programmatic consumers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Protocol, Tuple, runtime_checkable


def _jsonable(value: Any) -> Any:
    """Best-effort JSON coercion for row/param values."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


@dataclass(frozen=True)
class ExperimentResult:
    """Common base: what every experiment returns from ``run()``."""

    name: str
    params: Dict[str, Any]
    rows: Tuple[Dict[str, Any], ...]
    elapsed: float

    def to_dict(self, include_elapsed: bool = True) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "params": _jsonable(self.params),
            "rows": [_jsonable(row) for row in self.rows],
        }
        if include_elapsed:
            out["elapsed"] = self.elapsed
        return out

    def to_json(self, indent: int = 2,
                include_elapsed: bool = True) -> str:
        return json.dumps(self.to_dict(include_elapsed=include_elapsed),
                          indent=indent)


@runtime_checkable
class Experiment(Protocol):
    """Structural protocol every experiment module satisfies."""

    NAME: str

    def run(self, *args: Any, **kwargs: Any) -> ExperimentResult: ...

    def main(self) -> None: ...
