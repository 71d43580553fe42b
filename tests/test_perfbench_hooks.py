"""The benchmark's trace hooks still install on, and come off, the program they time.

`perfbench/spans.py` swaps module and class attributes of the package for
timing wrappers. A class it names that the package no longer has fails every
traced benchmark run before its first estimate; this runs one small traced
pipeline to catch that.
"""
import importlib.util
from pathlib import Path

import pytest

from graphon_forge import pipeline
from graphon_forge.graphon_model import save_graphon
from graphon_forge.pipeline import PipelineConfig, run_pipeline

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hooked(spans):
    """Every attribute the hooks replace, as (owner, name) -> the object there now."""
    found = {
        (owner, attr): owner.__dict__.get(attr)
        for owner, attr, *_ in spans._patches(spans.Tracer())
    }
    found.update({("STAGE_FUNCS", stage): fn for stage, fn in pipeline.STAGE_FUNCS.items()})
    return found


def test_traced_run_records_every_stage_and_restores_the_program(spans, assortative_2block, tmp_path):
    save_graphon(assortative_2block, tmp_path / "model.json")
    cfg = PipelineConfig(model=str(tmp_path / "model.json"), n=3000, seed=0, out=str(tmp_path / "out"))
    before = hooked(spans)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert pipeline.STAGE_FUNCS["spectrum"] is not before[("STAGE_FUNCS", "spectrum")]
        tracer.estimate = 0
        res = run_pipeline(cfg)
        tracer.estimate = None
    assert not res.degenerate
    names = {name for _, name, *_ in tracer.spans}
    assert {f"pipeline.{stage}" for stage in pipeline.STAGE_ORDER} <= names
    assert "nonbacktracking.solve" in names and "moment_poly.fit" in names
    after = hooked(spans)
    assert after.keys() == before.keys()
    moved = [key for key in before if after[key] is not before[key]]
    assert moved == []
