"""The benchmark's tracer targets name functions that exist.

``bench/spans.py`` rebinds each ``TARGETS`` entry by name while it traces a
run, so a renamed or deleted function breaks ``bench/run.py``. This test reads
the target list (without installing the tracer) and resolves every entry.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


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
