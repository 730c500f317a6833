"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one paper artefact (see DESIGN.md section 4)
and asserts its headline claim, so ``pytest benchmarks/ --benchmark-only``
is simultaneously a timing run and a reproduction check.
"""

import json
import os

import pytest

from repro.perfmodel.model import AnalyticModel


@pytest.fixture(scope="session")
def model():
    return AnalyticModel()


@pytest.fixture
def perf_smoke_dump(tmp_path):
    """``dump(name, payload)``: write a perf smoke's timing JSON and
    return its path.

    Files land in ``REPRO_PERF_SMOKE_DIR`` when it is set (CI uploads
    them as artifacts from there), else in the test's ``tmp_path``, so
    a local run leaves nothing in the working directory.
    """
    out_dir = os.environ.get("REPRO_PERF_SMOKE_DIR") or str(tmp_path)
    os.makedirs(out_dir, exist_ok=True)

    def dump(name, payload):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        return path

    return dump
