"""The dump tables: every field is required, and README's Outputs table lists the fields the tables declare."""
import json
import re
from pathlib import Path

import numpy as np
import pytest

from graphon_forge import dumps
from graphon_forge.graphon_model import StepGraphon, save_graphon
from graphon_forge.pipeline import PipelineConfig, run_pipeline

README = Path(__file__).resolve().parents[1] / "README.md"
# every field of every table, a field of each `alphas` entry as (table, list field, entry field)
ROWS = [(table, row.name, None) for table in dumps.TABLES for row in table.rows] + [
    (table, row.name, sub.name) for table in dumps.TABLES for row in table.rows for sub in row.rows
]


@pytest.fixture(scope="module")
def good_dumps(tmp_path_factory):
    """A directory holding a well-formed file of every table, from one small run, and the run's K."""
    out = tmp_path_factory.mktemp("dumps")
    save_graphon(StepGraphon(np.array([0.5, 0.5]), np.array([[7.0, 1.0], [1.0, 7.0]])), out / "model.json")
    res = run_pipeline(PipelineConfig(model=str(out / "model.json"), n=3000, seed=0, N_override=3), out_dir=out)
    assert not res.degenerate
    dumps.write(out / "degenerate.json", dumps.DEGENERATE, {"stage": "fit", "reason": "a reason"}, "hash")
    return out, res.estimate.K


@pytest.mark.parametrize(
    "table, field, entry_field", ROWS,
    ids=[f"{t.name}:{f}" + (f"[0].{e}" if e else "") for t, f, e in ROWS],
)
def test_dump_missing_a_field_is_refused_naming_the_file_and_field(good_dumps, tmp_path, table, field, entry_field):
    out, K = good_dumps
    doc = json.loads((out / table.name).read_text())
    dumps.read(out / table.name, table, K=K)  # the unspoilt file reads
    if entry_field is None:
        del doc[field]
        where, name = "", field
    else:
        del doc[field][0][entry_field]
        where, name = f": {field}[0]", entry_field
    path = tmp_path / table.name
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        dumps.read(path, table, K=K)
    assert str(err.value) == f"{path}{where}: field {name!r} is missing"


def _split(text: str) -> list[str]:
    """`text` cut at its commas outside brackets."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch in "([{") - (ch in ")]}")
        if ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    return parts + [text[start:]]


def _fields(braced: str) -> dict:
    """Field name -> the fields of its list of objects, or None, from a `{a, b (note), c: [{d, e}]}` list."""
    out = {}
    for part in _split(braced.strip()[1:-1]):
        name = re.match(r"\s*(\w+)", part).group(1)
        inner = re.search(r"\[(\{.*\})\]", part)
        out[name] = _fields(inner.group(1)) if inner else None
    return out


def readme_fields(dump: str) -> dict | None:
    """The fields of the `{...}` list in the row of README's Outputs table that names `dump`."""
    section = README.read_text().split("## Outputs", 1)[1].split("\n## ", 1)[0]
    row = re.search(rf"^\| `{re.escape(dump)}` \| .*?(`\{{.*)$", section, flags=re.M)
    if row is None:
        return None
    text, depth = row.group(1)[1:], 0
    for end, ch in enumerate(text):
        depth += (ch in "{[") - (ch in "}]")
        if depth == 0:
            return _fields(text[:end + 1])


@pytest.mark.parametrize("table", [t for t in dumps.TABLES if t is not dumps.MODEL], ids=lambda t: t.name)
def test_readme_lists_each_dump_field(table):
    listed = readme_fields(table.name)
    assert listed is not None, f"README's Outputs table has no field list for {table.name}"
    listed.pop("config_hash", None)
    declared = {row.name: ({sub.name: None for sub in row.rows} if row.rows else None) for row in table.rows}
    assert listed == declared
