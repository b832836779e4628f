"""The benchmark's tracer targets exist and its workloads pass their checks.

``bench/spans.py`` rebinds each ``TARGETS`` entry by name while it traces a
run, so a renamed or deleted function breaks ``bench/run.py``; so does a change
that makes a workload's ``check`` fail. These tests read ``bench/`` without
writing to it or installing the tracer: one resolves every target, the other
runs one unwarmed call of every workload and its check.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return _load("bench_spans", BENCH / "spans.py").TARGETS


@pytest.mark.parametrize("name,module,attr,owner", _targets(), ids=lambda v: str(v))
def test_tracer_target_resolves(name, module, attr, owner):
    mod = importlib.import_module(f"nilfourier.{module}")
    if owner is None:
        assert callable(getattr(mod, attr, None)), f"{name}: nilfourier.{module}.{attr}"
    else:
        cls = getattr(mod, owner, None)
        assert cls is not None, f"{name}: nilfourier.{module}.{owner}"
        # the tracer rebinds the method in the class's own namespace
        assert callable(vars(cls).get(attr)), f"{name}: {owner}.{attr}"


def test_every_workload_passes_its_check(monkeypatch):
    # workloads.py imports its sibling reference.py as a top-level module
    monkeypatch.setitem(sys.modules, "reference", _load("reference", BENCH / "reference.py"))
    workloads = _load("bench_workloads", BENCH / "workloads.py").WORKLOADS
    for name, cls in workloads.items():
        workload = cls()
        state = workload.setup(seed=0, warm=False)
        result = workload.call(state, 0)
        ok, err = workload.check(state, 0, result, workload.expected(state, 0, result))
        assert ok, f"{name}: check failed, error {err}"
