"""Versioned, human-readable file formats for models and trajectories.

Both formats are compact canonical JSON (sorted keys, no indent) so that
a parse/serialize round trip is byte-stable; indented files load the
same. Hidden observations serialize as explicit nulls to keep "observed
to be anything" distinguishable from "not recorded". NaN and infinities
are never written and refused on reading.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .evidence import ObservedTrajectory
from .markov import CompleteTrajectory
from .model import Cim, CtbnModel, Variable

__all__ = [
    "MODEL_FORMAT",
    "TRAJECTORY_FORMAT",
    "FORMAT_VERSION",
    "ParseError",
    "dumps",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
    "records_to_dict",
    "records_from_dict",
    "save_records",
    "load_records",
    "record_to_trajectories",
]

MODEL_FORMAT = "ctbn-model"
TRAJECTORY_FORMAT = "ctbn-trajectories"
FORMAT_VERSION = 1


class ParseError(ValueError):
    def __init__(self, message: str, where: str | None = None):
        self.where = where
        super().__init__(f"{message} (at {where})" if where else message)


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"


def _load_json(path):
    """The JSON document in the file at ``path``; NaN and infinity tokens,
    which ``dumps`` never writes, are parse errors."""

    def refuse(token):
        raise ParseError(f"non-finite number {token} is not allowed", str(path))

    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", str(path)) from None


def _expect(cond: bool, message: str, where: str | None = None):
    if not cond:
        raise ParseError(message, where)


def _check_header(doc, expected_format: str, where: str):
    _expect(isinstance(doc, dict), "document must be a JSON object", where)
    _expect(doc.get("format") == expected_format, f"format must be {expected_format!r}", where)
    version = doc.get("version")
    _expect(
        version == FORMAT_VERSION,
        f"unknown version {version!r}, expected {FORMAT_VERSION}",
        where,
    )


def model_to_dict(model: CtbnModel) -> dict:
    doc: dict = {
        "format": MODEL_FORMAT,
        "version": FORMAT_VERSION,
        "variables": [
            {"name": v.name, "states": list(v.states), "phases": list(v.phases)}
            for v in model.variables
        ],
        "graph": {name: list(model.parents(name)) for name in model.names},
        "initial": {name: [float(x) for x in model.initial[name]] for name in model.names},
        "cims": {},
    }
    support = {}
    entry = {}
    for name in model.names:
        cim = model.cims[name]
        doc["cims"][name] = [
            {
                "parents": {p: model.by_name[p].states[s] for p, s in zip(cim.parents, states)},
                "matrix": [[float(x) for x in row] for row in cim.matrices[u]],
            }
            for u, states in enumerate(Cim.u_states(cim.parent_cards))
        ]
        if not np.array_equal(cim.support, ~np.eye(cim.dim, dtype=bool)):
            support[name] = [[bool(b) for b in row] for row in cim.support]
        var = model.by_name[name]
        if any(p > 1 for p in var.phases):
            entry[name] = [[float(x) for x in e] for e in model.entries[name]]
    if support:
        doc["support"] = support
    if entry:
        doc["entry"] = entry
    return doc


def _numbers(value, where: str, kind: type = float) -> np.ndarray:
    """``value`` as an array of ``kind``, float or bool; a ``ParseError`` at
    ``where`` unless it is one such value or a rectangular nesting of lists
    of them. A boolean is not a number, nor a number a boolean."""

    def fits(x) -> bool:
        if isinstance(x, list):
            return all(fits(y) for y in x)
        return isinstance(x, (int, float)) and isinstance(x, bool) == (kind is bool)

    if fits(value):
        try:
            return np.asarray(value, dtype=kind)
        except ValueError:
            pass
    noun = "boolean" if kind is bool else "number"
    raise ParseError(f"expected a {noun} or a rectangular list of {noun}s", where)


def _object(doc: dict, key: str) -> dict:
    """The optional object ``doc[key]``, empty when absent."""
    value = doc.get(key, {})
    _expect(isinstance(value, dict), f"{key} must be an object", key)
    return value


def model_from_dict(doc: dict) -> CtbnModel:
    _check_header(doc, MODEL_FORMAT, "model")
    raw_vars = doc.get("variables")
    _expect(isinstance(raw_vars, list) and raw_vars, "variables must be a non-empty list", "variables")
    variables = []
    for i, rv in enumerate(raw_vars):
        where = f"variables[{i}]"
        _expect(isinstance(rv, dict) and "name" in rv and "states" in rv, "need name and states", where)
        try:
            variables.append(Variable(rv["name"], tuple(rv["states"]), tuple(rv.get("phases") or ())) if rv.get("phases") else Variable(rv["name"], tuple(rv["states"])))
        except (TypeError, ValueError) as exc:
            raise ParseError(str(exc), where) from None
    by_name = {v.name: v for v in variables}

    graph = _object(doc, "graph")
    cims_doc = doc.get("cims")
    _expect(isinstance(cims_doc, dict), "cims must be an object", "cims")
    support_doc = _object(doc, "support")
    cims = {}
    for v in variables:
        where = f"cims[{v.name}]"
        items = cims_doc.get(v.name)
        _expect(isinstance(items, list) and items, f"missing CIM for {v.name!r}", where)
        parents = graph.get(v.name, [])
        _expect(isinstance(parents, list), "parents must be a list of variable names", f"graph[{v.name}]")
        parents = tuple(parents)
        for p in parents:
            _expect(isinstance(p, str) and p in by_name, f"unknown parent {p!r}", f"graph[{v.name}]")
        cards = tuple(by_name[p].n_states for p in parents)
        n_u = len(Cim.u_states(cards))
        _expect(len(items) == n_u, f"expected {n_u} matrices, found {len(items)}", where)
        mats = np.zeros((n_u, v.dim, v.dim))
        seen = set()
        for j, item in enumerate(items):
            iw = f"{where}[{j}]"
            _expect(isinstance(item, dict) and "matrix" in item, "need a matrix", iw)
            labels = item.get("parents", {})
            _expect(isinstance(labels, dict), "parents must be an object", iw)
            states = []
            for p in parents:
                _expect(p in labels, f"missing parent value for {p!r}", iw)
                try:
                    states.append(by_name[p].state_index(labels[p]))
                except ValueError:
                    raise ParseError(f"unknown state {labels[p]!r} of parent {p!r}", iw) from None
            u = Cim.u_index(cards, states)
            _expect(u not in seen, "duplicate parent instantiation", iw)
            seen.add(u)
            m = _numbers(item["matrix"], iw)
            _expect(m.shape == (v.dim, v.dim), f"matrix must be {v.dim}x{v.dim}", iw)
            mats[u] = m
        support = support_doc.get(v.name)
        if support is not None:
            support = _numbers(support, f"support[{v.name}]", bool)
        try:
            cims[v.name] = Cim(parents, cards, mats, support)
        except (TypeError, ValueError) as exc:
            raise ParseError(str(exc), where) from None

    initial_doc = _object(doc, "initial")
    initial = {}
    for v in variables:
        _expect(v.name in initial_doc, f"missing initial marginal for {v.name!r}", "initial")
        initial[v.name] = _numbers(initial_doc[v.name], f"initial[{v.name}]")
    entries = {}
    for name, rows in _object(doc, "entry").items():
        _expect(name in by_name, f"unknown variable {name!r}", "entry")
        _expect(isinstance(rows, list), "entry must list one distribution per state", f"entry[{name}]")
        entries[name] = tuple(_numbers(r, f"entry[{name}]") for r in rows)
    try:
        return CtbnModel(tuple(variables), cims, initial, entries)
    except ValueError as exc:
        raise ParseError(str(exc), "model") from None


def save_model(model: CtbnModel, path) -> None:
    Path(path).write_text(dumps(model_to_dict(model)), encoding="utf-8")


def load_model(path) -> CtbnModel:
    return model_from_dict(_load_json(path))


def records_to_dict(records: Sequence[ObservedTrajectory], model: CtbnModel) -> dict:
    out = []
    for rec in records:
        segs = []
        for a, b, vals in rec.segments:
            obs = {}
            for var, val in zip(model.variables, vals):
                obs[var.name] = None if val is None else var.states[val]
            segs.append({"start": float(a), "end": float(b), "observations": obs})
        out.append({"segments": segs})
    return {"format": TRAJECTORY_FORMAT, "version": FORMAT_VERSION, "records": out}


def _is_time(x) -> bool:
    """True iff x is a finite JSON number (a boolean is not one)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def records_from_dict(doc: dict, model: CtbnModel) -> list[ObservedTrajectory]:
    _check_header(doc, TRAJECTORY_FORMAT, "trajectories")
    raw = doc.get("records")
    _expect(isinstance(raw, list), "records must be a list", "records")
    records = []
    for i, rec in enumerate(raw):
        where = f"records[{i}]"
        segs_doc = rec.get("segments") if isinstance(rec, dict) else None
        _expect(isinstance(segs_doc, list) and segs_doc, "record needs segments", where)
        segs = []
        for j, seg in enumerate(segs_doc):
            sw = f"{where}.segments[{j}]"
            _expect(isinstance(seg, dict) and "start" in seg and "end" in seg, "need start and end", sw)
            _expect(_is_time(seg["start"]) and _is_time(seg["end"]), "start and end must be finite numbers", sw)
            obs = seg.get("observations", {})
            _expect(isinstance(obs, dict), "observations must be an object", sw)
            vals = []
            for var in model.variables:
                raw_val = obs.get(var.name)
                if raw_val is None:
                    vals.append(None)
                else:
                    try:
                        vals.append(var.state_index(raw_val))
                    except ValueError:
                        raise ParseError(f"unknown state {raw_val!r} of {var.name!r}", sw) from None
            segs.append((float(seg["start"]), float(seg["end"]), tuple(vals)))
        try:
            records.append(ObservedTrajectory._converted(tuple(segs), segs[-1][1]))
        except ValueError as exc:
            raise ParseError(str(exc), where) from None
    return records


def save_records(records: Sequence[ObservedTrajectory], model: CtbnModel, path) -> None:
    Path(path).write_text(dumps(records_to_dict(records, model)), encoding="utf-8")


def load_records(path, model: CtbnModel) -> list[ObservedTrajectory]:
    return records_from_dict(_load_json(path), model)


def record_to_trajectories(record: ObservedTrajectory) -> list[CompleteTrajectory]:
    """Split a fully observed record into one complete state trajectory per
    variable. Raises ParseError when any observation is hidden."""
    k = record.n_variables
    out = []
    for v in range(k):
        segs = []
        for a, b, vals in record.segments:
            if vals[v] is None:
                raise ParseError(f"record is not fully observed for variable {v}")
            s = vals[v]
            if segs and segs[-1][0] == s:
                segs[-1] = (s, segs[-1][1], b)
            else:
                segs.append((s, a, b))
        out.append(CompleteTrajectory(tuple(segs), record.horizon))
    return out
