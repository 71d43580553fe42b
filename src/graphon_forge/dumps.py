"""The JSON files a run reads back, the stage dumps and the model file: one field table per file, one writer and one reader.

A `Table` has a `Field` row per field: name, kind, range and length rule.
`read` refuses the first field a file breaks, as `<path>: field '<name>' is
…`. A range reads as the messages state it (`> 0`, `>= 1`, `in (0, 1)`, `in
[0, {A})` with A a size) and bounds a value or each entry of a list; numbers
are finite unless a row says otherwise. A length rule is a size `K`, `K*s` (a flat list of s rows of K) or
`k,k` (k lists of k). A size is an integer or list field read earlier, the
caller's value of a `same_as` field, or else set by the first list it sizes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import zip_longest
from math import comb, isfinite
from pathlib import Path
from typing import Callable

import numpy as np

from .nonbacktracking import K_CAP
from .star_counts import TERM_BUDGET, total_degree_indices

STAGES = ("generate", "spectrum", "moments", "fit", "estimate", "evaluate")
ESTIMATE_VERSION = 2


class StageInputError(RuntimeError):
    """Missing or config-mismatched stage inputs."""


@dataclass(frozen=True)
class Field:
    name: str
    kind: str  # a key of _SCALARS; the lists integers and numbers; alphas; version
    range: str = ""  # for a version, the one this reader takes
    size: str = ""
    finite: bool = True
    same_as: str = ""  # the dump the caller read this field from; the two must agree
    choices: tuple = ()
    check: Callable | None = None  # (value, fields) -> how it breaks a rule between fields, once all are read
    rows: tuple = ()  # of each {alpha, value} object of an alphas list
    attr: str = ""  # the field's key in what `read` returns and `write` takes, when not `name`


@dataclass(frozen=True)
class Table:
    name: str
    rows: tuple[Field, ...]
    hash_in: str | None = ""  # the object field that holds config_hash; "": the top level; None: no hash
    compact: bool = False  # one line in row order; else sorted keys at indent 1


SPLIT = Table("split.json", (
    Field("epsilon", "number", "in (0, 1)"),
    Field("m1", "integer", ">= 0"),
    Field("m2", "integer", ">= 0"),
))
SPECTRUM = Table("spectrum.json", (
    Field("K", "integer", f"in [0, {K_CAP}]"),  # 0 when no eigenvalue cleared the cutoff
    Field("lambdas", "numbers", size="K"),
    Field("e1", "number", ">= 0"),
    Field("residuals", "numbers", ">= 0", size="K"),
))
MOMENTS = Table("moments.json", (
    Field("K", "integer", f"in [1, {K_CAP}]", same_as="spectrum.json"),
    Field("N", "integer", ">= 1"),
    # a non-finite value sends the fit down its degenerate path, staged or not
    Field("entries", "alphas", attr="values",
          rows=(Field("alpha", "integers"), Field("value", "number", finite=False))),
    Field("epsilon", "number", "in (0, 1)"),
    Field("P_diag", "numbers", size="K", attr="pair_diagonal"),
    Field("valid", "boolean", check=lambda valid, fields: valid != bool(np.all(fields["pair_diagonal"] > 0))
          and f"is {valid!r}, not {not valid!r}: true exactly when every P_diag > 0"),
))
FIT = Table("fit.json", (
    Field("K", "integer", f"in [1, {K_CAP}]", same_as="spectrum.json"),
    Field("N", "integer", ">= 1"),
    Field("kappa", "number", "> 0"),
    Field("delta", "number", "> 0"),
    Field("resolution", "integer", ">= 1"),
    Field("weights", "numbers", ">= 0", check=lambda w, fields: abs(w.sum() - 1.0) > 1e-9
          and f"sums to {float(w.sum())!r}, not to 1 within 1e-9"),
    Field("nodes", "numbers", size="K*weights"),
    Field("residual", "number", ">= 0"),
    Field("iterations", "integer", ">= 0"),
))
ESTIMATE = Table("estimate.json", (  # estimate_unscaled.json too
    Field("version", "version", str(ESTIMATE_VERSION)),
    Field("lambdas", "numbers", size="K"),
    Field("m", "integer", ">= 1"),
    Field("kappa", "number", ">= 0"),  # 0 for the constant estimator
    Field("atoms", "numbers", size="K*A"),
    Field("index", "integers", "in [0, {A})", size="m"),
    Field("provenance", "object"),
), hash_in="provenance", compact=True)
DEGENERATE = Table("degenerate.json", (
    Field("stage", "string", choices=STAGES),
    Field("reason", "string"),
))
MODEL = Table("model.json", (  # a config's model file, written and read through graphon_model
    Field("block_measures", "numbers", size="k"),
    Field("values", "numbers", size="k,k"),
), hash_in=None)
TABLES = (SPLIT, SPECTRUM, MOMENTS, FIT, ESTIMATE, DEGENERATE, MODEL)

_SCALARS = {  # kind: (test, what a value must be); bool is an int subclass, so `type`, not isinstance
    "integer": (lambda v: type(v) is int, "an integer"),
    "number": (lambda v: type(v) in (int, float), "a number"),
    "boolean": (lambda v: type(v) is bool, "true or false"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "object": (lambda v: isinstance(v, dict), "an object"),
}


def read_json_object(path) -> dict:
    """The JSON object in `path`; text that is not JSON, or JSON that is not an object, raises ValueError naming the file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ValueError(f"{path}: not readable JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level is a {type(doc).__name__}, not an object")
    return doc


def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)


def stage_input(path: Path) -> Path:
    if not path.exists():
        raise StageInputError(f"missing stage input {path}")
    return path


def check_hash(path, table: Table, doc: dict, config_hash: str) -> None:
    """Refuse `doc`, read from `path`, unless it holds `config_hash` where `table` keeps it."""
    holder = doc.get(table.hash_in) if table.hash_in else doc
    if not isinstance(holder, dict) or holder.get("config_hash") != config_hash:
        raise StageInputError(f"{path} was produced under a different config; refusing")


def read(path, table: Table, config_hash: str | None = None, **given) -> dict:
    """The fields of `table` in the file at `path`, each checked; `given` holds the `same_as` values.

    Given `config_hash`, a missing file, or one written under another hash,
    raises StageInputError before any field is read.
    """
    doc = read_json_object(path if config_hash is None else stage_input(Path(path)))
    if config_hash is not None:
        check_hash(path, table, doc, config_hash)
    return _rows(path, table.rows, doc, given)


def write(path, table: Table, fields: dict, config_hash: str | None = None) -> None:
    """Lay out the value in `fields` of each row of `table`; `vars` of a stage's object will do.

    `config_hash` is written at the top level of a table that keeps it there.
    """
    doc = document(table, fields)
    if table.compact:
        with open(path, "w") as fh:
            fh.write(json.dumps(doc))  # one C-encoder call; json.dump streams through the Python one
    else:
        write_json(path, {"config_hash": config_hash, **doc} if table.hash_in == "" else doc)


def document(table: Table, fields: dict) -> dict:
    """The JSON object `write` lays out, without a top-level config hash."""
    return {row.name: _plain(row, fields) for row in table.rows}


def _plain(row: Field, fields: dict):
    if row.kind == "version":
        return int(row.range)
    value = fields[row.attr or row.name]
    if row.kind == "alphas":
        return [{"alpha": list(a), "value": v}
                for a, v in zip(total_degree_indices(fields["K"], fields["N"]), value.tolist())]
    if not isinstance(value, np.ndarray):
        return value
    return (value.ravel() if "*" in row.size else value).tolist()  # a `K*s` list is laid out flat


def _refuse(label, name: str):
    return lambda text: ValueError(f"{label}: field {name!r} {text}")


def _rows(label, rows, doc: dict, env: dict) -> dict:
    fields = {}
    for row in rows:
        if row.name not in doc:
            raise _refuse(label, row.name)("is missing")
        fields[row.attr or row.name] = _value(label, row, doc[row.name], env)
    for row in rows:
        broken = row.check and row.check(fields[row.attr or row.name], fields)
        if broken:
            raise _refuse(label, row.name)(broken)
    return fields


def _value(label, row: Field, value, env: dict):
    refuse, kind = _refuse(label, row.name), row.kind
    if kind in ("integers", "numbers"):
        return _array(refuse, row, value, env)
    if kind == "alphas":
        return _alpha_values(label, row, value, env)
    if kind == "version":
        if value != int(row.range):
            raise ValueError(f"{label}: unsupported estimate file version {value!r} (this reader takes {row.range})")
        return value
    test, need = _SCALARS[kind]
    if row.choices:
        test, need = (lambda v: v in row.choices), f"one of {list(row.choices)}"
    nonfinite = kind == "number" and row.finite and type(value) is float and not isfinite(value)
    if nonfinite or not test(value) or (row.range and not _within(value, row.range)):
        raise refuse(f"is {value!r}, not {'a finite number' if nonfinite else need} {row.range}".rstrip())
    if row.same_as and value != env[row.name]:
        raise refuse(f"is {value!r}, not {row.same_as}'s {env[row.name]}")
    if kind == "integer":
        env[row.name] = value
    return float(value) if kind == "number" else value


def _array(refuse, row: Field, value, env: dict) -> np.ndarray:
    if not isinstance(value, list):
        raise refuse(f"is a {type(value).__name__}, not a list")
    shape = tuple(env[s] for s in row.size.split(",")) if "," in row.size else None
    arr = None
    if not any(isinstance(r, list) and bool in map(type, r) for r in (value if shape else [value])):
        try:  # numpy would cast a JSON boolean to a number
            arr = np.array(value) if value else np.empty(0, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            pass
    typed = arr is not None and arr.dtype.kind in ("i" if row.kind == "integers" else "if")
    if not typed or arr.shape != (shape or (len(value),)):
        raise refuse(f"is not a {shape[0]} × {shape[1]} array of numbers" if shape else f"holds entries that are not {row.kind}")
    if row.kind == "numbers":
        arr = arr.astype(float, copy=False)
        if row.finite and not np.isfinite(arr).all():
            raise refuse("holds entries that are not finite numbers")
    rng = row.range.format(**env)
    if rng and not _within(arr, rng):
        raise refuse(f"holds entries that are not {row.kind} {rng}")
    env[row.name] = len(arr)
    return _sized(refuse, row.size, arr, env) if row.size and not shape else arr


def _sized(refuse, size: str, arr: np.ndarray, env: dict) -> np.ndarray:
    n, (k, _, per) = arr.size, size.partition("*")
    if not per:
        if k not in env and n == 0:
            raise refuse("is empty")
        if env.setdefault(k, n) != n:
            raise refuse(f"has length {n}, not {env[k]}")
        return arr
    if per in env and n != env[k] * env[per]:
        raise refuse(f"holds {n} numbers, not {k} = {env[k]} for each of {env[per]} {per}")
    if n == 0 or n % env[k]:
        raise refuse(f"holds {n} numbers, not a positive multiple of {k} = {env[k]}")
    env.setdefault(per, n // env[k])
    return arr.reshape(-1, env[k])


def _alpha_values(label, row: Field, value, env: dict) -> np.ndarray:
    """The values of a list of {alpha, value} objects giving each alpha with |alpha| <= N once, in lexicographic order."""
    refuse = _refuse(label, row.name)
    if not isinstance(value, list) or not all(isinstance(item, dict) for item in value):
        raise refuse("is not a list of objects")
    K, N = env["K"], env["N"]
    if comb(N + K, K) > TERM_BUDGET:  # moment_table writes no such table
        raise _refuse(label, "N")(f"is {N}; at K = {K} that is over {TERM_BUDGET} entries")
    alphas, values = total_degree_indices(K, N), []
    for i, (item, want) in enumerate(zip_longest(value, alphas)):
        if item is None:
            raise refuse(f"ends before alpha {list(want)}")
        where = f"{label}: {row.name}[{i}]"
        entry = _rows(where, row.rows, item, env)
        alpha = entry["alpha"].tolist()
        if want is None or alpha != list(want):
            place = f"past the last of the {len(alphas)} alphas" if want is None else f"not {list(want)}"
            raise _refuse(where, "alpha")(
                f"is {alpha}, {place}; entries list each alpha with |alpha| <= {N} once, in lexicographic order"
            )
        values.append(entry["value"])
    return np.array(values)


def _within(x, rng: str) -> bool:
    """Whether `x`, or each entry of it, lies in `rng`: `> a`, `>= a`, or `in` an interval such as `[a, b)`."""
    op, bounds = rng.split(" ", 1)
    if op != "in":
        return bool(np.all(x > float(bounds) if op == ">" else x >= float(bounds)))
    lo, hi = map(float, bounds[1:-1].split(", "))
    return bool(np.all((x >= lo if bounds[0] == "[" else x > lo) & (x < hi if bounds[-1] == ")" else x <= hi)))
