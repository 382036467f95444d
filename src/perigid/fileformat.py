"""JSON framework files: parsing with path-carrying errors, canonical emission.

One document describes a gain graph, optionally a realization (positions plus
column-major lattice), optionally per-edge weights and a multiplier.  Gains
must be JSON integers; integral-valued floats are rejected so exact integer
arithmetic downstream stays honest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .construct import FiniteFramework
from .errors import ParseError
from .framework import Realization
from .gain import GainGraph, MARKINGS


@dataclass
class ParsedFramework:
    graph: GainGraph
    realization: Optional[Realization]
    stress: Optional[np.ndarray]
    lam: Optional[float]


def _fail(path: str, message: str, *index) -> ParseError:
    """``path`` is a template whose ``{}`` slots take ``index``; the checks
    format it only when they fail, so a valid document formats no path."""
    return ParseError(f"{path.format(*index)}: {message}")


def _require(data: dict, key: str, path: str, *index):
    if key not in data:
        raise _fail(f"{path}.{key}", "missing required field", *index)
    return data[key]


def _as_strict_int(value, path: str, *index) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(path, f"must be an integer (floats are rejected), got {value!r}", *index)
    return value


def _as_real(value, path: str, *index) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(path, f"must be a real number, got {value!r}", *index)
    try:
        real = float(value)
    except OverflowError:
        real = math.inf
    if not math.isfinite(real):
        raise _fail(path, f"must be a finite real number, got {value!r}", *index)
    return real


def _as_name(value, path: str, *index) -> str:
    if not isinstance(value, str) or not value:
        raise _fail(path, f"must be a non-empty string, got {value!r}", *index)
    return value


def _document(data) -> tuple[dict, int]:
    """The top-level object of a document (bytes, text or decoded) and its dimension."""
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"invalid UTF-8: {exc}") from exc
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("top level must be a JSON object")
    dim = _as_strict_int(_require(data, "dimension", "$"), "$.dimension")
    if dim < 1:
        raise _fail("$.dimension", "must be positive")
    return data, dim


def _vertices(data: dict, dim: int, need_position: bool) -> tuple[list, dict]:
    """Distinct vertex names in file order and the positions given for them."""
    raw_vertices = _require(data, "vertices", "$")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise _fail("$.vertices", "must be a non-empty list")
    names, name_set, positions = [], set(), {}
    for i, entry in enumerate(raw_vertices):
        if not isinstance(entry, dict):
            raise _fail("$.vertices[{}]", "must be an object", i)
        name = _as_name(_require(entry, "name", "$.vertices[{}]", i), "$.vertices[{}].name", i)
        if name in name_set:
            raise _fail("$.vertices[{}].name", f"duplicate vertex name {name!r}", i)
        names.append(name)
        name_set.add(name)
        if need_position or "position" in entry:
            pos = _require(entry, "position", "$.vertices[{}]", i)
            if not isinstance(pos, list) or len(pos) != dim:
                raise _fail("$.vertices[{}].position", f"must be a list of {dim} reals", i)
            positions[name] = np.array(
                [_as_real(x, "$.vertices[{}].position[{}]", i, k) for k, x in enumerate(pos)]
            )
    return names, positions


def _edges(data: dict, dim: int, names: list, with_gains: bool) -> tuple[list, list]:
    """(tail, head, gain or None, marking) per edge entry, and the raw weights."""
    raw_edges = _require(data, "edges", "$")
    if not isinstance(raw_edges, list):
        raise _fail("$.edges", "must be a list")
    name_set = set(names)
    edges, weights = [], []
    for i, entry in enumerate(raw_edges):
        if not isinstance(entry, dict):
            raise _fail("$.edges[{}]", "must be an object", i)
        tail = _as_name(_require(entry, "tail", "$.edges[{}]", i), "$.edges[{}].tail", i)
        head = _as_name(_require(entry, "head", "$.edges[{}]", i), "$.edges[{}].head", i)
        if tail not in name_set or head not in name_set:
            raise _fail("$.edges[{}]", f"edge references unknown vertex {tail!r} or {head!r}", i)
        gain = None
        if with_gains:
            gain_raw = _require(entry, "gain", "$.edges[{}]", i)
            if not isinstance(gain_raw, list) or len(gain_raw) != dim:
                raise _fail("$.edges[{}].gain", f"must be a list of {dim} integers", i)
            gain = tuple(
                _as_strict_int(x, "$.edges[{}].gain[{}]", i, k) for k, x in enumerate(gain_raw)
            )
        elif "gain" in entry:
            raise _fail("$.edges[{}].gain", "finite frameworks carry no gains", i)
        marking = entry.get("type", "bar")
        if marking not in MARKINGS:
            raise _fail("$.edges[{}].type", f"must be one of {MARKINGS}", i)
        edges.append((tail, head, gain, marking))
        weights.append(entry.get("weight"))
    return edges, weights


def _stress(weights: list) -> Optional[np.ndarray]:
    """Edge weights when every edge has one, None when none has."""
    with_weight = [w is not None for w in weights]
    if not any(with_weight):
        return None
    if not all(with_weight):
        missing = with_weight.index(False)
        raise _fail("$.edges[{}].weight", "all edges need weights or none", missing)
    return np.array([_as_real(w, "$.edges[{}].weight", i) for i, w in enumerate(weights)])


def loads(data) -> ParsedFramework:
    """Parse a framework document from bytes, text, or an already-decoded dict."""
    data, dim = _document(data)
    names, positions = _vertices(data, dim, need_position=False)

    lattice = None
    if data.get("lattice") is not None:
        raw = data["lattice"]
        if not isinstance(raw, list) or len(raw) != dim:
            raise _fail("$.lattice", f"must be a list of {dim} columns")
        cols = []
        for i, col in enumerate(raw):
            if not isinstance(col, list) or len(col) != dim:
                raise _fail("$.lattice[{}]", f"must be a list of {dim} reals", i)
            cols.append([_as_real(x, "$.lattice[{}][{}]", i, k) for k, x in enumerate(col)])
        lattice = np.array(cols).T  # columns of L are the stored columns

    edges, weights = _edges(data, dim, names, with_gains=True)
    try:
        graph = GainGraph(dim, names, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    stress = _stress(weights)

    realization = None
    if positions and lattice is not None:
        missing = [n for n in names if n not in positions]
        if missing:
            raise _fail("$.vertices", f"positions missing for {missing}")
        realization = Realization(positions, lattice)
    elif positions and lattice is None and len(positions) == len(names):
        raise _fail("$.lattice", "positions given but lattice missing")

    lam = None
    if data.get("lambda") is not None:
        lam = _as_real(data["lambda"], "$.lambda")
    return ParsedFramework(graph, realization, stress, lam)


def to_document(
    graph: GainGraph,
    realization: Optional[Realization] = None,
    stress=None,
    lam: Optional[float] = None,
) -> dict:
    """Framework document as a plain dict in canonical field order."""
    doc: dict = {"dimension": graph.dimension}
    vertices = []
    for v in graph.vertices:
        entry: dict = {"name": str(v)}
        if realization is not None:
            entry["position"] = [float(x) for x in realization.points[v]]
        vertices.append(entry)
    doc["vertices"] = vertices
    if realization is not None:
        doc["lattice"] = [
            [float(x) for x in realization.lattice[:, i]] for i in range(graph.dimension)
        ]
    edges = []
    w = None if stress is None else np.asarray(stress, dtype=float).reshape(-1)
    for i, e in enumerate(graph.edges):
        entry = {
            "tail": str(e.tail),
            "head": str(e.head),
            "gain": [int(g) for g in e.gain],
            "type": e.marking,
        }
        if w is not None:
            entry["weight"] = float(w[i])
        edges.append(entry)
    doc["edges"] = edges
    if lam is not None:
        doc["lambda"] = float(lam)
    return doc


def dumps(
    graph: GainGraph,
    realization: Optional[Realization] = None,
    stress=None,
    lam: Optional[float] = None,
) -> bytes:
    """Canonical UTF-8 serialization; stable under parse/emit round-trips."""
    doc = to_document(graph, realization, stress, lam)
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def loads_finite(data) -> tuple[FiniteFramework, Optional[np.ndarray]]:
    """Parse a finite framework: same schema minus lattice and gains."""
    data, dim = _document(data)
    names, points = _vertices(data, dim, need_position=True)
    edges, weights = _edges(data, dim, names, with_gains=False)
    try:
        finite = FiniteFramework(
            tuple(names),
            tuple((t, h) for t, h, _, _ in edges),
            points,
            tuple(m for _, _, _, m in edges),
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return finite, _stress(weights)
