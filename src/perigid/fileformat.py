"""JSON framework files: parsing with path-carrying errors, canonical emission.

One document describes a gain graph, optionally a realization (positions plus
column-major lattice), optionally per-edge weights and a multiplier.  Gains
must be JSON integers; integral-valued floats are rejected so exact integer
arithmetic downstream stays honest.

The reader checks a list of entries column first: each field (names, tail
and head positions, gains, markings, weights, coordinates) is read as one
column and tested whole.  Only when a column fails its test are the entries
walked one by one, from the first, to raise the error of the first failing
path; the walk also accepts what the column tests leave to it, such as int
coordinates or str subclasses in a decoded document.

Emitted documents and the CLI's ``--json`` reports are written by one
indented-JSON writer, :func:`_indented_json`.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Optional

import numpy as np

from .construct import FiniteFramework
from .errors import ParseError
from .framework import Realization, point_matrix
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


def _all_type(values, kind: type) -> bool:
    """Whether every value's type is exactly ``kind``; true when there are none."""
    return set(map(type, values)) <= {kind}


def _finite_floats(values: list) -> bool:
    """Whether every value is a finite float, all that JSON decoding gives
    for a valid list of reals."""
    return _all_type(values, float) and math.isfinite(sum(values))


def _reals(values: list, path: str, *index) -> list:
    """``values`` with each entry checked by :func:`_as_real`, the last slot
    of ``path`` taking its position.  Finite floats pass in one step."""
    if _finite_floats(values):
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
    if _all_type(raw_vertices, dict):
        names = [entry.get("name") for entry in raw_vertices]
        coords = _coordinate_column(raw_vertices, dim, need_position)
        if coords is not None and _all_type(names, str) and all(names):
            index = dict(zip(names, range(len(names))))
            if len(index) == len(names):  # no name repeats
                return index, dict(zip(names, coords))
    return _vertex_walk(raw_vertices, dim, need_position)


def _coordinate_column(raw_vertices: list, dim: int, need_position: bool) -> Optional[list]:
    """Every vertex's position when each is a list of ``dim`` finite floats,
    [] when no vertex has one and none is needed, else None."""
    coords = [entry.get("position") for entry in raw_vertices]
    if _all_type(coords, list):
        flat = list(itertools.chain.from_iterable(coords))
        return coords if set(map(len, coords)) == {dim} and _finite_floats(flat) else None
    if need_position or any("position" in entry for entry in raw_vertices):
        return None
    return []


def _vertex_walk(raw_vertices: list, dim: int, need_position: bool) -> tuple[dict, dict]:
    """:func:`_vertices` entry by entry, for a column that failed its test:
    raises at the first failing entry, or accepts what the columns did not
    (int positions, str subclasses in a decoded document)."""
    index, positions = {}, {}
    for i, entry in enumerate(raw_vertices):
        if not isinstance(entry, dict):
            raise _fail("$.vertices[{}]", "must be an object", i)
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
    if _all_type(raw_edges, dict):
        edges = _edge_columns(raw_edges, dim, index, with_gains)
        if edges is not None:
            return edges
    return _edge_walk(raw_edges, dim, index, with_gains)


def _edge_columns(raw_edges: list, dim: int, index: dict, with_gains: bool) -> Optional[_Edges]:
    """The edge fields of a list of objects, one column each, or None at the
    first column that fails its test."""
    tail_names = [entry.get("tail") for entry in raw_edges]
    head_names = [entry.get("head") for entry in raw_edges]
    if not (_all_type(tail_names, str) and _all_type(head_names, str)):
        return None
    try:
        tails = list(map(index.__getitem__, tail_names))
        heads = list(map(index.__getitem__, head_names))
    except KeyError:
        return None
    gains = []
    if with_gains:
        raw_gains = [entry.get("gain") for entry in raw_edges]
        if not (
            _all_type(raw_gains, list)
            and set(map(len, raw_gains)) <= {dim}
            and _all_type(itertools.chain.from_iterable(raw_gains), int)
        ):
            return None
        gains = list(map(tuple, raw_gains))
    elif any("gain" in entry for entry in raw_edges):
        return None
    markings = [entry.get("type", "bar") for entry in raw_edges]
    if not (_all_type(markings, str) and set(markings) <= set(MARKINGS)):
        return None
    return _Edges(tails, heads, gains, markings, [entry.get("weight") for entry in raw_edges])


def _edge_walk(raw_edges: list, dim: int, index: dict, with_gains: bool) -> _Edges:
    """:func:`_edges` entry by entry, for a column that failed its test, as
    :func:`_vertex_walk` does for the vertices."""
    edges = _Edges([], [], [], [], [])
    tails, heads, gains, markings, weights = edges
    for i, entry in enumerate(raw_edges):
        if not isinstance(entry, dict):
            raise _fail("$.edges[{}]", "must be an object", i)
        tail = _as_name(_require(entry, "tail", "$.edges[{}]", i), "$.edges[{}].tail", i)
        head = _as_name(_require(entry, "head", "$.edges[{}]", i), "$.edges[{}].head", i)
        if tail not in index or head not in index:
            raise _fail("$.edges[{}]", f"edge references unknown vertex {tail!r} or {head!r}", i)
        if with_gains:
            gain = _require(entry, "gain", "$.edges[{}]", i)
            if not isinstance(gain, list) or len(gain) != dim:
                raise _fail("$.edges[{}].gain", f"must be a list of {dim} integers", i)
            gains.append(
                tuple(_as_strict_int(x, "$.edges[{}].gain[{}]", i, k) for k, x in enumerate(gain))
            )
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


def _stress(weights: list) -> Optional[np.ndarray]:
    """Edge weights when every edge has one, None when none has."""
    if _all_type(weights, type(None)):
        return None
    if _finite_floats(weights):
        return np.array(weights)
    with_weight = [w is not None for w in weights]
    if not all(with_weight):
        missing = with_weight.index(False)
        raise _fail("$.edges[{}].weight", "all edges need weights or none", missing)
    return np.array(_reals(weights, "$.edges[{}].weight"))


def loads(data) -> ParsedFramework:
    """Parse a framework document from bytes, text, or an already-decoded dict.

    The fields are checked in the order dimension, vertices, lattice, edges,
    weights, positions against vertices and lattice, lambda; the first that
    fails raises a ParseError naming its path.  Zero loops and duplicate
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
    names = list(map(str, graph.vertices))
    if realization is None:
        doc["vertices"] = [{"name": name} for name in names]
    else:
        positions = point_matrix(graph, realization).T.tolist()
        doc["vertices"] = [
            {"name": name, "position": position} for name, position in zip(names, positions)
        ]
        doc["lattice"] = realization.lattice.T.tolist()
    weights = None if stress is None else np.asarray(stress, dtype=float).reshape(-1).tolist()
    edges = []
    for i, (tail, head, gain, marking) in enumerate(graph.edges):
        entry = {"tail": str(tail), "head": str(head), "gain": list(gain), "type": marking}
        if weights is not None:
            entry["weight"] = weights[i]
        edges.append(entry)
    doc["edges"] = edges
    if lam is not None:
        doc["lambda"] = float(lam)
    return doc


def _float_text(x: float) -> str:
    """A float as the standard library's encoder writes it, NaN and the
    infinities as JavaScript literals."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# The scalar encoders, by exact type, of the standard library's encoder.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _indented_json(obj, sort_keys: bool) -> str:
    r"""``json.dumps(obj, indent=2, sort_keys=sort_keys)``, byte for byte.

    The standard library serves ``indent`` only from its pure-Python
    encoder, which yields every token through nested generators.  Here one
    recursive pass returns each container as one string: its parts joined by
    "," and the newline and indentation of its members.  Scalars of the
    exact types in ``_SCALARS`` go through the standard library's own
    scalar encoders.  Any other subtree (a float or int subclass such as
    ``np.float64``, an object ``json`` cannot serialize, a dict with a key
    that is not a string) is left to ``json.dumps`` with the same options,
    its newlines re-indented to its depth: ``json`` indents depth k by
    "\n" + "  " * k, and an encoded string holds no raw newline.  So the
    output, and the exception of an input ``json`` refuses, are the
    standard library's.  Circular references are not detected; reports and
    documents are trees.
    """
    scalar = _SCALARS.get

    def container(value, pad: str) -> str:
        kind = type(value)
        inner = pad + "  "
        if kind is list or kind is tuple:
            if not value:
                return "[]"
            parts = []
            for item in value:
                encode = scalar(type(item))
                parts.append(encode(item) if encode is not None else container(item, inner))
            return "[" + inner + ("," + inner).join(parts) + pad + "]"
        if kind is dict:
            if not value:
                return "{}"
            parts = []
            try:  # a key that is not a str raises TypeError, and so does sorting mixed keys
                for key, item in sorted(value.items()) if sort_keys else value.items():
                    encode = scalar(type(item))
                    parts.append(
                        encode_basestring_ascii(key)
                        + ": "
                        + (encode(item) if encode is not None else container(item, inner))
                    )
            except TypeError:  # or a member json refuses: json.dumps raises it again
                pass
            else:
                return "{" + inner + ("," + inner).join(parts) + pad + "}"
        return json.dumps(value, indent=2, sort_keys=sort_keys).replace("\n", pad)

    encode = scalar(type(obj))
    return encode(obj) if encode is not None else container(obj, "\n")


def dumps(
    graph: GainGraph,
    realization: Optional[Realization] = None,
    stress=None,
    lam: Optional[float] = None,
) -> bytes:
    """Canonical UTF-8 serialization; stable under parse/emit round-trips."""
    doc = to_document(graph, realization, stress, lam)
    return (_indented_json(doc, sort_keys=False) + "\n").encode("utf-8")


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
