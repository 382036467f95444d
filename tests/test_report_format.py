"""The byte format of what the CLI writes: ``--json`` reports are
``json.dumps(report, indent=2, sort_keys=True)`` and emitted framework
documents ``json.dumps(document, indent=2)``, each with a final newline.
The oracle re-dumps the decoded output with the standard library, so it
does not depend on how perigid writes it."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from perigid import fixtures
from perigid.cli import cli
from perigid.errors import DuplicateEdge
from perigid.fileformat import _indented_json, dumps, loads
from perigid.framework import Realization, point_matrix
from perigid.gain import MARKINGS, GainGraph

_floats = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.5e-310, 1e308, 1e-7, 1e16]
)
_ints = st.integers() | st.integers(2**63, 10**30) | st.integers(-(10**30), -(2**63))
_strings = st.text(
    st.characters(exclude_categories=["Cs"])
    | st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", " ", "é", "😀", "𝄞"]),
    max_size=6,
)
_leaves = st.one_of(
    st.none(), st.booleans(), _ints, _floats, _strings, _floats.map(np.float64)
)
_keys = st.one_of(_strings, st.integers(-3, 3), st.floats(-2, 2), st.booleans(), st.none())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_strings, children, max_size=4),
        st.dictionaries(_keys, children, max_size=4),
    )


_trees = st.recursive(_leaves, _containers, max_leaves=24)


def _outcome(render):
    try:
        return render(), None
    except (TypeError, ValueError) as exc:
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("sort_keys", [False, True])
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tree=_trees)
def test_indented_json_is_the_standard_library_indent(tree, sort_keys):
    """The same text as ``json.dumps(tree, indent=2, sort_keys=...)``, or
    the same exception: mixed key types raise when sorted."""
    ours = _outcome(lambda: _indented_json(tree, sort_keys))
    assert ours == _outcome(lambda: json.dumps(tree, indent=2, sort_keys=sort_keys))


@pytest.mark.parametrize(
    "tree, sort_keys",
    [
        *(([1.0, {"a": [object()]}], sort) for sort in (False, True)),
        *(({"a": {1: "b", "c": {2, 3}}}, sort) for sort in (False, True)),
        *(({"x": [np.int64(1)]}, sort) for sort in (False, True)),
        *(({(1, 2): 0}, sort) for sort in (False, True)),
        ([{"b": 1, 2: 3}], True),
        ({"a": {None: 1, 0: 2}}, True),
    ],
    ids=[
        *(f"{case}-{sort}" for case in ("object", "set", "numpy-int", "tuple-key")
          for sort in ("unsorted", "sorted")),
        "str-and-int-keys-sorted",
        "none-and-int-keys-sorted",
    ],
)
def test_indented_json_raises_what_the_standard_library_raises(tree, sort_keys):
    """An unserializable leaf or key, and keys that cannot be sorted, raise
    the standard library's TypeError with its message."""
    with pytest.raises(TypeError) as expected:
        json.dumps(tree, indent=2, sort_keys=sort_keys)
    with pytest.raises(TypeError) as raised:
        _indented_json(tree, sort_keys)
    assert str(raised.value) == str(expected.value)


def _report_is_canonical(text: str) -> None:
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def _document_is_canonical(text: str) -> None:
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


FIXTURES = ("flex1", "flex2", "hex", "octagon")
COMMANDS = [
    ["info"],
    ["rank"],
    ["stresses"],
    ["stresses", "--mode", "fixed"],
    ["stresses", "--mode", "volume"],
    *(["certify", "--mode", mode] for mode in ("flexible", "fixed", "spiderweb", "volume")),
    ["generic-test", "--mode", "flexible"],
    ["generic-test", "--mode", "fixed"],
    ["minimize"],
    ["cover", "--window", "1", "--svg", "{tmp}/cover.svg"],
]


@pytest.fixture()
def fixture_dir(tmp_path, capsys):
    directory = tmp_path / "fixtures"
    directory.mkdir()
    for name in FIXTURES:
        assert cli(["fixtures", "--name", name, "--emit", str(directory / f"{name}.json")]) == 0
    capsys.readouterr()
    return directory


def test_json_reports_are_sorted_two_space_json(fixture_dir, tmp_path, capsys):
    """Every command's ``--json`` report, with and without the matrices,
    alone and as a ``--batch`` section, is the standard library's sorted
    two-space dump of itself."""
    reports = 0
    for command in COMMANDS:
        argv = [arg.format(tmp=tmp_path) for arg in command[1:]]
        for extra in (["--json"], ["--json", "--emit-matrices"]):
            for name in FIXTURES:
                cli([command[0], str(fixture_dir / f"{name}.json"), *argv, *extra])
                out = capsys.readouterr().out
                if out:  # a refused input writes its error to stderr
                    _report_is_canonical(out)
                    reports += 1
            if command[0] == "cover":
                continue
            cli([command[0], "--batch", str(fixture_dir), *argv, *extra])
            sections = capsys.readouterr().out.split("=== ")[1:]
            assert len(sections) == len(FIXTURES)
            for section in sections:
                text = section.split("\n", 1)[1]
                if not text.startswith("error: "):
                    _report_is_canonical(text)
                    reports += 1
    assert cli(["fixtures", "--json"]) == 0
    _report_is_canonical(capsys.readouterr().out)
    assert reports >= 150


def test_emitted_documents_are_two_space_json(fixture_dir, tmp_path, capsys):
    """Framework documents, emitted to a file or written to stdout, are the
    standard library's two-space dump of themselves in canonical order."""
    for name in FIXTURES:
        _document_is_canonical((fixture_dir / f"{name}.json").read_text(encoding="utf-8"))
        assert cli(["fixtures", "--name", name]) == 0
        _document_is_canonical(capsys.readouterr().out)

    octagon = fixtures()["octagon"]
    finite = octagon.finite
    source = tmp_path / "octagon_finite.json"
    source.write_text(
        json.dumps(
            {
                "dimension": 2,
                "vertices": [
                    {"name": v, "position": [float(x) for x in finite.points[v]]}
                    for v in finite.vertices
                ],
                "edges": [
                    {"tail": u, "head": v, "type": m, "weight": float(w)}
                    for (u, v), m, w in zip(finite.edges, finite.markings, octagon.finite_stress)
                ],
            }
        )
    )
    rolled = tmp_path / "rolled.json"
    argv = ["from-finite", str(source), "--pairs", "0:4,2:6"]
    assert cli([*argv, "--emit", str(rolled), "--json"]) == 0
    _report_is_canonical(capsys.readouterr().out)
    _document_is_canonical(rolled.read_text(encoding="utf-8"))
    assert cli(argv) == 0
    out = capsys.readouterr().out
    assert out == rolled.read_text(encoding="utf-8")
    _document_is_canonical(out)


_names = st.text(st.characters(exclude_categories=["Cs"]), min_size=1, max_size=4)
_names |= st.sampled_from(["é", "😀", 'a"b', "\\", "\n"])
_odd_names = _names | st.integers(-5, 5) | st.tuples(st.integers(0, 3), st.integers(0, 3))
_gain_entries = st.integers(-2, 2) | st.integers(2**63, 10**30) | st.integers(-(10**30), -(2**63))


@st.composite
def _frameworks(draw, names=_odd_names, reals=_floats):
    """A gain graph with d = 1..3, possibly one vertex or no edge, loops of
    nonzero gain and gains past 2^63, with or without a realization, a
    stress and lambda."""
    d = draw(st.integers(1, 3))
    vertices = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    end = st.integers(0, len(vertices) - 1)
    gain = st.lists(_gain_entries, min_size=d, max_size=d).map(tuple)
    entries = st.lists(st.tuples(end, end, gain, st.sampled_from(MARKINGS)), max_size=6)
    kept = []
    for t, h, g, m in draw(entries):
        edge = (vertices[t], vertices[h], g, m)
        if t == h and not any(g):
            continue
        try:
            GainGraph(d, vertices, kept + [edge])
        except DuplicateEdge:
            continue
        kept.append(edge)
    graph = GainGraph(d, vertices, kept)
    realization = stress = lam = None
    if draw(st.booleans()):
        row = st.lists(reals, min_size=d, max_size=d)
        points = {v: np.array(draw(row)) for v in vertices}
        realization = Realization(points, np.array(draw(st.lists(row, min_size=d, max_size=d))))
    if draw(st.booleans()):
        stress = np.array(draw(st.lists(reals, min_size=len(kept), max_size=len(kept))))
    if draw(st.booleans()):
        lam = draw(reals)
    return graph, realization, stress, lam


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(framework=_frameworks())
def test_dumps_writes_the_reference_document(framework):
    """``dumps`` writes the text of ``json.dumps(document, indent=2)`` for
    the dict that the reference writer builds from ``graph.edges``."""
    assert dumps(*framework) == (
        json.dumps(oracles.to_document(*framework), indent=2) + "\n"
    ).encode("utf-8")


_finite = st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(framework=_frameworks(names=_names, reals=_finite))
def test_dumps_round_trips_through_loads(framework):
    """With finite reals and str names, reading what ``dumps`` writes gives
    back the graph, realization, stress and lambda.  With no edge there is
    no weight to write, so a stress reads back as none."""
    graph, realization, stress, lam = framework
    parsed = loads(dumps(graph, realization, stress, lam))
    assert parsed.graph == graph
    if realization is None:
        assert parsed.realization is None
    else:
        points = point_matrix(graph, parsed.realization)
        assert np.array_equal(points, point_matrix(graph, realization))
        assert np.array_equal(parsed.realization.lattice, realization.lattice)
    if stress is None or not graph.num_edges:
        assert parsed.stress is None
    else:
        assert np.array_equal(parsed.stress, stress)
    assert parsed.lam == lam


def test_dumps_reads_the_columns_not_the_edges(catalog):
    """Writing a fresh graph builds no tuple of GainEdge."""
    hexes = catalog["hex"]
    fresh = GainGraph._from_indices(
        2, hexes.graph.vertices, hexes.graph.tail_idx.tolist(), hexes.graph.head_idx.tolist(),
        hexes.graph._gains, hexes.graph._markings,
    )
    assert dumps(fresh, hexes.realization, hexes.stress, 1.0) == dumps(
        hexes.graph, hexes.realization, hexes.stress, 1.0
    )
    assert "edges" not in fresh.__dict__


def test_dumps_needs_one_weight_per_edge(catalog):
    """A stress one weight short or long is refused, not cut or indexed past."""
    hexes = catalog["hex"]
    for wrong in (hexes.stress[:-1], np.append(hexes.stress, 1.0)):
        with pytest.raises(ValueError, match="^need one weight per edge$"):
            dumps(hexes.graph, hexes.realization, wrong)
