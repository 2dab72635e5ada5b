"""The benchmark's tracer finds every package function it wraps.

``perfbench/tracer.py`` times each layer by wrapping named functions of the
package, and a target the package lacks shows up only as a note in its
output.  A change that deletes or renames a traced function fails here.
"""

import importlib.util
import sys
from pathlib import Path

import cyclesplit
from cyclesplit import pipeline

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    # read the file only: no bytecode cache is written next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists(monkeypatch):
    solve = pipeline.solve
    tracer = _load_tracer(monkeypatch).Tracer()
    try:
        # the partition and the enrichment ledger's helper graphs and loop
        # are gone from the package; the tracer still lists them until the
        # benchmark's targets are brought up to date (ROADMAP item 1), and
        # nothing else is absent
        assert tracer.install() == [
            "embedding.partition_vertices",
            "embedding.cover_graph",
            "embedding.close_graph",
            "embedding.enrich",
        ]
        assert pipeline.solve is not solve and cyclesplit.solve is not solve
    finally:
        tracer.uninstall()
    assert pipeline.solve is solve and cyclesplit.solve is solve
