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
from typing import NamedTuple, Optional

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


def _reals(values: list, path: str, *index) -> list:
    """``values`` with each entry checked by :func:`_as_real`, the last slot
    of ``path`` taking its position.  Finite floats, all that JSON decoding
    gives for a valid list, pass in one step."""
    if all(type(x) is float for x in values) and math.isfinite(sum(values)):
        return values
    return [_as_real(x, path, *index, k) for k, x in enumerate(values)]


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


def _vertices(data: dict, dim: int, need_position: bool) -> tuple[dict, dict]:
    """Each distinct vertex name's position in file order, and the
    coordinates given for them as lists of floats."""
    raw_vertices = _require(data, "vertices", "$")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise _fail("$.vertices", "must be a non-empty list")
    index, positions = {}, {}
    for i, entry in enumerate(raw_vertices):
        if not isinstance(entry, dict):
            raise _fail("$.vertices[{}]", "must be an object", i)
        # a quick test first; a field that fails it is checked again in full,
        # which raises its error or accepts a str (or int) subclass
        name = entry.get("name")
        if not (type(name) is str and name):
            name = _as_name(_require(entry, "name", "$.vertices[{}]", i), "$.vertices[{}].name", i)
        if name in index:
            raise _fail("$.vertices[{}].name", f"duplicate vertex name {name!r}", i)
        index[name] = i
        if need_position or "position" in entry:
            pos = _require(entry, "position", "$.vertices[{}]", i)
            if not isinstance(pos, list) or len(pos) != dim:
                raise _fail("$.vertices[{}].position", f"must be a list of {dim} reals", i)
            positions[name] = _reals(pos, "$.vertices[{}].position[{}]", i)
    return index, positions


def _lattice(data: dict, dim: int) -> Optional[np.ndarray]:
    raw = data.get("lattice")
    if raw is None:
        return None
    if not isinstance(raw, list) or len(raw) != dim:
        raise _fail("$.lattice", f"must be a list of {dim} columns")
    cols = []
    for i, col in enumerate(raw):
        if not isinstance(col, list) or len(col) != dim:
            raise _fail("$.lattice[{}]", f"must be a list of {dim} reals", i)
        cols.append(_reals(col, "$.lattice[{}][{}]", i))
    return np.array(cols).T  # columns of L are the stored columns


class _Edges(NamedTuple):
    """Per edge entry: tail and head vertex positions, exact gain (only with
    gains), marking and raw weight (None when absent)."""

    tails: list[int]
    heads: list[int]
    gains: list[tuple[int, ...]]
    markings: list[str]
    weights: list


def _edges(data: dict, dim: int, index: dict, with_gains: bool) -> _Edges:
    raw_edges = _require(data, "edges", "$")
    if not isinstance(raw_edges, list):
        raise _fail("$.edges", "must be a list")
    edges = _Edges([], [], [], [], [])
    tails, heads, gains, markings, weights = edges
    for i, entry in enumerate(raw_edges):
        if not isinstance(entry, dict):
            raise _fail("$.edges[{}]", "must be an object", i)
        # quick tests as in _vertices
        tail, head = entry.get("tail"), entry.get("head")
        if not (type(tail) is str and type(head) is str and tail in index and head in index):
            tail, head = _ends(entry, index, i)
        if with_gains:
            gain = entry.get("gain")
            if not (type(gain) is list and len(gain) == dim and all(type(x) is int for x in gain)):
                gain = _gain(entry, dim, i)
            gains.append(tuple(gain))
        elif "gain" in entry:
            raise _fail("$.edges[{}].gain", "finite frameworks carry no gains", i)
        marking = entry.get("type", "bar")
        if marking not in MARKINGS:
            raise _fail("$.edges[{}].type", f"must be one of {MARKINGS}", i)
        tails.append(index[tail])
        heads.append(index[head])
        markings.append(marking)
        weights.append(entry.get("weight"))
    return edges


def _ends(entry: dict, index: dict, i: int) -> tuple[str, str]:
    tail = _as_name(_require(entry, "tail", "$.edges[{}]", i), "$.edges[{}].tail", i)
    head = _as_name(_require(entry, "head", "$.edges[{}]", i), "$.edges[{}].head", i)
    if tail not in index or head not in index:
        raise _fail("$.edges[{}]", f"edge references unknown vertex {tail!r} or {head!r}", i)
    return tail, head


def _gain(entry: dict, dim: int, i: int) -> list[int]:
    gain = _require(entry, "gain", "$.edges[{}]", i)
    if not isinstance(gain, list) or len(gain) != dim:
        raise _fail("$.edges[{}].gain", f"must be a list of {dim} integers", i)
    return [_as_strict_int(x, "$.edges[{}].gain[{}]", i, k) for k, x in enumerate(gain)]


def _stress(weights: list) -> Optional[np.ndarray]:
    """Edge weights when every edge has one, None when none has."""
    with_weight = [w is not None for w in weights]
    if not any(with_weight):
        return None
    if not all(with_weight):
        missing = with_weight.index(False)
        raise _fail("$.edges[{}].weight", "all edges need weights or none", missing)
    return np.array(_reals(weights, "$.edges[{}].weight"))


def loads(data) -> ParsedFramework:
    """Parse a framework document from bytes, text, or an already-decoded dict.

    Every field is checked once, in the order dimension, vertices, lattice,
    edges, weights, positions against vertices and lattice, lambda; the first
    that fails raises a ParseError naming its path.  Zero loops and duplicate
    edges are graph errors, raised only once every field has passed.
    """
    data, dim = _document(data)
    index, positions = _vertices(data, dim, need_position=False)
    lattice = _lattice(data, dim)
    edges = _edges(data, dim, index, with_gains=True)
    stress = _stress(edges.weights)

    realization = None
    if positions:
        missing = [n for n in index if n not in positions]
        if missing:
            raise _fail("$.vertices", f"positions missing for {missing}")
        if lattice is None:
            raise _fail("$.lattice", "positions given but lattice missing")
        realization = Realization(positions, lattice)

    lam = None
    if data.get("lambda") is not None:
        lam = _as_real(data["lambda"], "$.lambda")

    try:
        graph = GainGraph._from_indices(
            dim, tuple(index), edges.tails, edges.heads, edges.gains, edges.markings
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
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
    index, positions = _vertices(data, dim, need_position=True)
    edges = _edges(data, dim, index, with_gains=False)
    names = tuple(index)
    try:
        finite = FiniteFramework(
            names,
            tuple((names[t], names[h]) for t, h in zip(edges.tails, edges.heads)),
            {name: np.array(p) for name, p in positions.items()},
            tuple(edges.markings),
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return finite, _stress(edges.weights)
