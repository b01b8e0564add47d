"""The benchmark's tracer (``bench/spans.py``) still sees every layer of a read.

The tracer rebinds names inside the library: ``json`` and ``validate``
in ``io``, ``support`` where ``io`` calls it, and
``KModuleStructure.__post_init__``.  A change that stops going through
one of them would silently drop a per-layer metric; this test fails
instead.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import modbasis
import modbasis.cli  # the tracer wraps cli_main too

from conftest import make_e1

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _children(spans, parent_name):
    parents = [i for i, span in enumerate(spans) if span[0] == parent_name]
    assert len(parents) == 1, parent_name
    return {span[0] for span in spans if span[3] == parents[0]}


def test_tracer_sees_parse_build_validate_and_support(tmp_path):
    path = tmp_path / "e1.json"
    modbasis.write_document(make_e1(), path)
    tracer = _load_spans().Tracer(modbasis)
    tracer.install()
    try:
        loaded = modbasis.read_document(path)
        text = modbasis.dumps_document(loaded)
    finally:
        tracer.uninstall()
    assert loaded == make_e1() and text == path.read_text()
    assert {"io.parse", "core.build", "core.validate"} <= _children(tracer.spans, "io.read")
    assert "core.support" in _children(tracer.spans, "io.dumps")
