"""The dump tables: every field is required, each fact has one file, and README's Outputs table lists the fields."""
import json
import re
from pathlib import Path

import numpy as np
import pytest

from graphon_forge import dumps
from graphon_forge.graphon_model import StepGraphon, save_graphon
from graphon_forge.pipeline import PipelineConfig, run_pipeline

README = Path(__file__).resolve().parents[1] / "README.md"
ROWS = [(table, row.name) for table in dumps.TABLES for row in table.rows]


@pytest.fixture(scope="module")
def good_dumps(tmp_path_factory):
    """A directory holding a well-formed file of every table, from one small run, and the run's K."""
    out = tmp_path_factory.mktemp("dumps")
    save_graphon(StepGraphon(np.array([0.5, 0.5]), np.array([[7.0, 1.0], [1.0, 7.0]])), out / "model.json")
    res = run_pipeline(PipelineConfig(model=str(out / "model.json"), n=3000, seed=0, N_override=3), out_dir=out)
    assert not res.degenerate
    dumps.write(out / "degenerate.json", dumps.DEGENERATE, {"stage": "fit", "reason": "a reason"}, "hash")
    return out, res.estimate.K


@pytest.mark.parametrize("table, field", ROWS, ids=[f"{t.name}:{f}" for t, f in ROWS])
def test_dump_missing_a_field_is_refused_naming_the_file_and_field(good_dumps, tmp_path, table, field):
    out, K = good_dumps
    doc = json.loads((out / table.name).read_text())
    dumps.read(out / table.name, table, K=K)  # the unspoilt file reads
    del doc[field]
    path = tmp_path / table.name
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        dumps.read(path, table, K=K)
    assert str(err.value) == f"{path}: field {field!r} is missing"


def test_each_stage_fact_has_one_file(good_dumps):
    """No field but config_hash is in two of the stage dumps a later stage reads back."""
    out, _ = good_dumps
    tables = (dumps.SPLIT, dumps.SPECTRUM, dumps.MOMENTS, dumps.FIT, dumps.DEGENERATE)
    homes = {}
    for table in tables:
        for name in json.loads((out / table.name).read_text()):
            homes.setdefault(name, []).append(table.name)
    shared = {name: files for name, files in homes.items() if len(files) > 1}
    assert shared == {"config_hash": [table.name for table in tables]}


def _split(text: str) -> list[str]:
    """`text` cut at its commas outside brackets."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch in "([{") - (ch in ")]}")
        if ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    return parts + [text[start:]]


def readme_fields(dump: str) -> set | None:
    """The fields of the `{...}` list in the row of README's Outputs table that names `dump`."""
    section = README.read_text().split("## Outputs", 1)[1].split("\n## ", 1)[0]
    row = re.search(rf"^\| `{re.escape(dump)}` \| .*?(`\{{.*)$", section, flags=re.M)
    if row is None:
        return None
    text, depth = row.group(1)[1:], 0
    for end, ch in enumerate(text):
        depth += (ch in "{[") - (ch in "}]")
        if depth == 0:
            return {re.match(r"\s*(\w+)", part).group(1) for part in _split(text[1:end])}


@pytest.mark.parametrize("table", [t for t in dumps.TABLES if t is not dumps.MODEL], ids=lambda t: t.name)
def test_readme_lists_each_dump_field(table):
    listed = readme_fields(table.name)
    assert listed is not None, f"README's Outputs table has no field list for {table.name}"
    assert listed - {"config_hash"} == {row.name for row in table.rows}
