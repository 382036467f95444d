import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import perigid
from perigid import fileformat
from perigid.cli import cli
from perigid.errors import DuplicateEdge, ParseError, PerigidError, ZeroLoop
from perigid.svg import render_covering

from oracles import reference_loads, reference_loads_finite


@pytest.fixture()
def fixture_file(tmp_path, capsys):
    def write(name):
        path = tmp_path / f"{name}.json"
        assert cli(["fixtures", "--name", name, "--emit", str(path)]) == 0
        capsys.readouterr()  # drop the emission report
        return str(path)

    return write


def flex2_document():
    return {
        "dimension": 2,
        "vertices": [
            {"name": "v1", "position": [0.0, 0.0]},
            {"name": "v2", "position": [0.5, 0.0]},
        ],
        "lattice": [[1.0, 0.0], [0.0, 1.0]],
        "edges": [
            {"tail": "v1", "head": "v2", "gain": [0, 0], "type": "bar", "weight": 4.0},
            {"tail": "v1", "head": "v2", "gain": [-1, 0], "type": "bar", "weight": 4.0},
            {"tail": "v1", "head": "v1", "gain": [0, 1], "type": "bar", "weight": 2.0},
            {"tail": "v1", "head": "v1", "gain": [1, 1], "type": "bar", "weight": -1.0},
            {"tail": "v1", "head": "v1", "gain": [-1, 1], "type": "bar", "weight": -1.0},
        ],
    }


def test_parse_flex2_document():
    parsed = fileformat.loads(json.dumps(flex2_document()))
    assert parsed.graph.num_edges == 5
    assert parsed.graph.num_vertices == 2
    assert parsed.realization is not None
    assert np.array_equal(parsed.stress, [4.0, 4.0, 2.0, -1.0, -1.0])


def test_parse_rejects_zero_loop():
    doc = flex2_document()
    doc["edges"].append({"tail": "v2", "head": "v2", "gain": [0, 0], "weight": 0.0})
    with pytest.raises(ZeroLoop):
        fileformat.loads(json.dumps(doc))


def test_parse_rejects_duplicate_class():
    doc = flex2_document()
    doc["edges"].append({"tail": "v2", "head": "v1", "gain": [1, 0], "weight": 1.0})
    with pytest.raises(DuplicateEdge):
        fileformat.loads(json.dumps(doc))


def test_parse_rejects_float_gain():
    doc = flex2_document()
    doc["edges"][0]["gain"] = [0.0, 0]
    with pytest.raises(ParseError, match="gain"):
        fileformat.loads(json.dumps(doc))


def test_parse_rejects_partial_weights():
    doc = flex2_document()
    del doc["edges"][2]["weight"]
    with pytest.raises(ParseError, match="weight"):
        fileformat.loads(json.dumps(doc))


def test_parse_error_paths():
    with pytest.raises(ParseError, match=r"\$\.dimension"):
        fileformat.loads(json.dumps({"vertices": [], "edges": []}))
    with pytest.raises(ParseError, match=r"vertices\[1\]"):
        fileformat.loads(
            json.dumps(
                {
                    "dimension": 2,
                    "vertices": [{"name": "a"}, {"name": "a"}],
                    "edges": [],
                }
            )
        )


_DELETE = object()


def _set(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    if value is _DELETE:
        del doc[last]
    else:
        doc[last] = value


@pytest.mark.parametrize(
    "path,value,message",
    [
        (("edges", 3, "gain", 1), 1.0, "$.edges[3].gain[1]: must be an integer (floats are rejected), got 1.0"),
        (("edges", 0, "gain", 0), True, "$.edges[0].gain[0]: must be an integer (floats are rejected), got True"),
        (("edges", 2, "gain"), [0], "$.edges[2].gain: must be a list of 2 integers"),
        (("edges", 2, "head"), _DELETE, "$.edges[2].head: missing required field"),
        (("edges", 1, "tail"), "", "$.edges[1].tail: must be a non-empty string, got ''"),
        (("edges", 4, "weight"), "1", "$.edges[4].weight: must be a real number, got '1'"),
        (("edges", 4, "weight"), _DELETE, "$.edges[4].weight: all edges need weights or none"),
        (("vertices", 1, "position", 0), "x", "$.vertices[1].position[0]: must be a real number, got 'x'"),
        (("vertices", 1, "name"), "v1", "$.vertices[1].name: duplicate vertex name 'v1'"),
        (("lattice", 1, 0), float("nan"), "$.lattice[1][0]: must be a finite real number, got nan"),
        (("lattice", 0), [1.0], "$.lattice[0]: must be a list of 2 reals"),
    ],
)
def test_parse_error_messages_name_the_deep_path(path, value, message):
    """Paths are formatted only when a check fails; the messages stay exact."""
    doc = flex2_document()
    _set(doc, path, value)
    with pytest.raises(ParseError) as raised:
        fileformat.loads(doc)
    assert str(raised.value) == message


@pytest.mark.parametrize("lattice", [True, False], ids=["with-lattice", "without-lattice"])
def test_parse_rejects_positions_on_some_vertices(lattice):
    """Positions on some vertices only are an error whether or not a lattice
    is given; without one they used to be dropped in silence."""
    doc = flex2_document()
    del doc["vertices"][1]["position"]
    if not lattice:
        del doc["lattice"]
    with pytest.raises(ParseError) as raised:
        fileformat.loads(doc)
    assert str(raised.value) == "$.vertices: positions missing for ['v2']"


def test_roundtrip_stability():
    raw = json.dumps(flex2_document()).encode()
    once = fileformat.loads(raw)
    emitted = fileformat.dumps(once.graph, once.realization, once.stress)
    twice = fileformat.loads(emitted)
    again = fileformat.dumps(twice.graph, twice.realization, twice.stress)
    assert emitted == again


def test_cli_certify_exit_codes(fixture_file):
    assert cli(["certify", fixture_file("flex2"), "--mode", "flexible"]) == 0
    assert cli(["certify", fixture_file("hex"), "--mode", "fixed"]) == 0
    # all-ones on hex is not a flexible-lattice stress -> Inconclusive -> 1
    assert cli(["certify", fixture_file("hex"), "--mode", "flexible"]) == 1


def test_cli_certify_improper_is_input_error(fixture_file, tmp_path):
    path = fixture_file("hex")
    doc = json.loads(Path(path).read_text())
    doc["edges"][0]["type"] = "strut"
    bad = tmp_path / "hex_strut.json"
    bad.write_text(json.dumps(doc))
    assert cli(["certify", str(bad), "--mode", "fixed"]) == 2


def test_cli_generic_test_codes(fixture_file):
    assert cli(["generic-test", fixture_file("hex"), "--mode", "flexible"]) == 1
    assert cli(["generic-test", fixture_file("flex1"), "--mode", "flexible"]) == 0


def test_cli_minimize_hex(fixture_file, capsys):
    code = cli(["minimize", fixture_file("hex"), "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["report"]["kkt"]["volume"] - 1.0) <= 1e-9
    assert data["report"]["kkt"]["passed"] is True


def _weightless(fixture_file, tmp_path, name: str) -> str:
    doc = json.loads(Path(fixture_file(name)).read_text())
    for edge in doc["edges"]:
        del edge["weight"]
    path = tmp_path / f"{name}_weightless.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("source", [["--stress", "compute"], []], ids=["compute", "from-file"])
def test_cli_minimize_computes_the_stress_of_a_weightless_file(
    fixture_file, tmp_path, capsys, source
):
    """With no weights in the file, ``--stress compute`` and the from-file
    default both take the normalised stress of the one-dimensional fixed
    stress space: on hex, its all-ones stress."""
    path = _weightless(fixture_file, tmp_path, "hex")
    assert cli(["minimize", path, "--json", *source]) == 0
    computed = json.loads(capsys.readouterr().out)["report"]
    assert cli(["minimize", fixture_file("hex"), "--json"]) == 0
    from_file = json.loads(capsys.readouterr().out)["report"]
    assert (computed["stress_source"], from_file["stress_source"]) == ("computed", "from-file")
    assert computed["kkt"]["passed"] is True
    assert computed["energy"] == pytest.approx(from_file["energy"], rel=1e-9)


@pytest.mark.parametrize("source", [["--stress", "compute"], []], ids=["compute", "from-file"])
def test_cli_minimize_without_a_stress_to_infer_is_input_error(
    fixture_file, tmp_path, capsys, source
):
    """Weightless flex2's fixed stress space has dimension 4, so no stress
    can be inferred: a ParseError and exit 2."""
    path = _weightless(fixture_file, tmp_path, "flex2")
    assert cli(["minimize", path, *source]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ParseError: cannot infer a stress")


def test_cli_info_rank_stresses(fixture_file, capsys):
    assert cli(["info", fixture_file("hex"), "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["report"]["gain_rank"] == 2
    assert info["report"]["full_rank_condition"]["holds"] is True

    assert cli(["rank", fixture_file("flex2"), "--json"]) == 0
    rank = json.loads(capsys.readouterr().out)["report"]
    assert rank["rigidity"]["rank"] == 4
    assert rank["fixed_rigidity"]["rank"] == 1
    assert rank["zd_laplacian"]["rank"] == 1

    assert cli(["stresses", fixture_file("flex2"), "--mode", "flexible", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)["report"]
    assert data["dimension"] == 1
    assert np.allclose(np.array(data["normalized"]) * 4.0, [4, 4, 2, -1, -1])


def test_cli_certify_compute_stress(fixture_file):
    assert cli(["certify", fixture_file("flex2"), "--mode", "flexible", "--stress", "compute"]) == 0


def test_cli_certify_volume(tmp_path, fixture_file, capsys):
    # build a unit-volume hex file with lambda from the stress space
    from perigid import ToleranceVault, fixtures, lambda_stress_space, normalized_stress

    hexes = fixtures()["hex"]
    tol = ToleranceVault()
    det = abs(np.linalg.det(hexes.realization.lattice))
    unit = hexes.realization.scaled(det**-0.5)
    vec = normalized_stress(lambda_stress_space(hexes.graph, unit, tol))
    path = tmp_path / "hex_unit.json"
    path.write_bytes(fileformat.dumps(hexes.graph, unit, vec[:9], lam=float(vec[9])))
    assert cli(["certify", str(path), "--mode", "volume"]) == 0
    capsys.readouterr()
    assert cli(["stresses", str(path), "--mode", "volume", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)["report"]
    assert data["dimension"] == 1


def test_cli_spiderweb(tmp_path, fixture_file):
    path = fixture_file("hex")
    doc = json.loads(Path(path).read_text())
    for edge in doc["edges"]:
        edge["type"] = "cable"
    cables = tmp_path / "hex_cables.json"
    cables.write_text(json.dumps(doc))
    assert cli(["certify", str(cables), "--mode", "spiderweb"]) == 0


def test_cli_report_determinism(fixture_file, capsys):
    argvs = [
        ["certify", fixture_file("octagon"), "--mode", "flexible", "--json"],
        ["generic-test", fixture_file("hex"), "--seed", "5", "--json"],
        ["minimize", fixture_file("hex"), "--json"],
        ["info", fixture_file("flex1")],
    ]
    for argv in argvs:
        cli(argv)
        first = capsys.readouterr().out
        cli(argv)
        second = capsys.readouterr().out
        assert first == second and first


def test_cli_env_seed(fixture_file, capsys, monkeypatch):
    path = fixture_file("hex")
    monkeypatch.setenv("PERIGID_SEED", "321")
    cli(["generic-test", path, "--json"])
    assert json.loads(capsys.readouterr().out)["seed"] == 321
    monkeypatch.setenv("PERIGID_SEED", "not-a-number")
    assert cli(["generic-test", path]) == 2


def test_cli_emit_matrices(fixture_file, capsys):
    cli(["rank", fixture_file("flex2"), "--json", "--emit-matrices"])
    data = json.loads(capsys.readouterr().out)
    mats = data["report"]["matrices"]
    assert mats["incidence_zd"] == [
        [-1, 1, 0, 0],
        [-1, 1, -1, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 1],
        [0, 0, -1, 1],
    ]
    assert mats["index_orders"]["vertices"] == ["v1", "v2"]


def test_cli_cover_svg(fixture_file, tmp_path, capsys):
    out = tmp_path / "hex.svg"
    assert cli(["cover", fixture_file("hex"), "--window", "1", "--svg", str(out), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)["report"]
    assert data["vertices"] == 54
    body = out.read_bytes()
    assert body.startswith(b"<?xml") and body.count(b"<circle") == 54
    # byte-determinism of the rendering
    assert cli(["cover", fixture_file("hex"), "--window", "1", "--svg", str(out)]) == 0
    assert out.read_bytes() == body


def test_cli_output_overwrites_longer_file(fixture_file, tmp_path):
    # outputs are written in place and cut to length, so nothing of a longer
    # earlier file is left behind
    out = tmp_path / "hex.svg"
    assert cli(["cover", fixture_file("hex"), "--window", "1", "--svg", str(out)]) == 0
    body = out.read_bytes()
    out.write_bytes(b"x" * (3 * len(body)))
    assert cli(["cover", fixture_file("hex"), "--window", "1", "--svg", str(out)]) == 0
    assert out.read_bytes() == body


def test_svg_styles(fixture_file, tmp_path):
    from perigid import ToleranceVault, fixtures

    octagon = fixtures()["octagon"]
    _, image = render_covering(octagon.graph, octagon.realization, 0, ToleranceVault())
    text = image.decode()
    assert "stroke-dasharray" in text  # cables dashed
    assert 'stroke-width="3.4"' in text  # struts thick


def test_cli_from_finite_and_roundtrip(tmp_path, capsys):
    finite_doc = {
        "dimension": 1,
        "vertices": [
            {"name": "a", "position": [0.0]},
            {"name": "b", "position": [1.3]},
            {"name": "c", "position": [2.9]},
        ],
        "edges": [
            {"tail": "a", "head": "b"},
            {"tail": "b", "head": "c"},
            {"tail": "c", "head": "a"},
        ],
    }
    src = tmp_path / "triangle.json"
    src.write_text(json.dumps(finite_doc))
    out = tmp_path / "triangle_periodic.json"
    assert cli(["from-finite", str(src), "--pairs", "a:b", "--emit", str(out)]) == 0
    capsys.readouterr()
    parsed = fileformat.loads(out.read_bytes())
    assert parsed.graph.num_vertices == 2
    assert sum(1 for e in parsed.graph.edges if e.is_loop) == 1
    # without --emit the document goes to stdout
    assert cli(["from-finite", str(src), "--pairs", "a:b"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == 1


def test_cli_fixture_listing(capsys):
    assert cli(["fixtures", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data["report"]["fixtures"]) == {"flex1", "flex2", "hex", "octagon"}
    assert cli(["fixtures", "--name", "nope"]) == 2


def test_cli_batch(tmp_path, capsys):
    for name in ("flex1", "flex2"):
        cli(["fixtures", "--name", name, "--emit", str(tmp_path / f"{name}.json")])
    capsys.readouterr()
    assert cli(["certify", "--batch", str(tmp_path), "--mode", "flexible"]) == 0
    out = capsys.readouterr().out
    assert out.count("=== ") == 2
    assert out.index("flex1") < out.index("flex2")


def test_cli_batch_reports_a_malformed_file_and_runs_the_rest(tmp_path, capsys):
    """A malformed file in a --batch directory gets an ``error: ParseError``
    section, each other file the report it gets on its own, and the call
    exits 2."""
    for name in ("flex1", "hex"):
        cli(["fixtures", "--name", name, "--emit", str(tmp_path / f"{name}.json")])
    (tmp_path / "broken.json").write_text("{")
    capsys.readouterr()
    assert cli(["info", "--batch", str(tmp_path)]) == 2
    sections = capsys.readouterr().out.split("=== ")[1:]
    paths = [str(tmp_path / f"{name}.json") for name in ("broken", "flex1", "hex")]
    assert [s.split("\n", 1)[0] for s in sections] == paths
    assert sections[0].split("\n", 1)[1].startswith("error: ParseError: ")
    for path, section in zip(paths[1:], sections[1:]):
        assert cli(["info", path]) == 0
        assert section == f"{path}\n{capsys.readouterr().out}"


@pytest.mark.parametrize(
    "argv, files, message",
    [
        (["cover", "--svg", "x.svg"], ["flex1"], "--batch is not supported for cover"),
        (["info"], [], "no *.json files in"),
    ],
    ids=["cover", "empty-directory"],
)
def test_cli_batch_refusals_exit_2(tmp_path, capsys, argv, files, message):
    for name in files:
        cli(["fixtures", "--name", name, "--emit", str(tmp_path / f"{name}.json")])
    capsys.readouterr()
    assert cli([argv[0], "--batch", str(tmp_path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ParseError: ")
    assert message in captured.err


def _flat(doc: dict) -> dict:
    doc["lattice"] = [[1.0, 2.0], [1.0, 2.0]]
    return doc


def _gain_rank_one(doc: dict) -> dict:
    """A path through the vertices with zero gains, and one more edge of gain (1, 0)."""
    names = [vertex["name"] for vertex in doc["vertices"]]
    ends = list(zip(names, names[1:])) + [(names[0], names[1])]
    doc["edges"] = [
        {"tail": t, "head": h, "gain": [0, 0], "type": "cable", "weight": 1.0} for t, h in ends
    ]
    doc["edges"][-1]["gain"] = [1, 0]
    return doc


@pytest.mark.parametrize(
    "edit, gate",
    [(_gain_rank_one, "spiderwebs have gain rank d"), (_flat, "spiderwebs are non-flat")],
    ids=["gain-rank", "flat"],
)
def test_cli_spiderweb_gates_exit_2(fixture_file, tmp_path, capsys, edit, gate):
    """A connected all-cable framework of gain rank less than d, and one
    with a flat lattice, fail the spiderweb gates with exit 2."""
    doc = json.loads(Path(fixture_file("hex")).read_text())
    for edge in doc["edges"]:
        edge["type"] = "cable"
    path = tmp_path / "gated.json"
    path.write_text(json.dumps(edit(doc)))
    assert cli(["certify", str(path), "--mode", "spiderweb"]) == 2
    assert capsys.readouterr().err == f"error: NotSpiderweb: {gate}\n"


def test_cli_volume_certificate_on_a_flat_lattice_exits_2(tmp_path, capsys):
    doc = _flat(flex2_document())
    doc["lambda"] = 1.0
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    assert cli(["certify", str(path), "--mode", "volume"]) == 2
    assert capsys.readouterr().err == (
        "error: FlatLattice: volume certificate needs a nonsingular lattice\n"
    )


def test_cli_fixed_generic_test_refuses_a_flat_lattice_before_the_count(tmp_path, capsys):
    """The fixed-lattice test reads the file's lattice, and a flat one exits
    2 with FlatLattice even below the edge count, where the same graph at a
    non-flat lattice is negative from the count alone."""
    doc = flex2_document()
    doc["edges"] = doc["edges"][:1]
    path = tmp_path / "one_edge.json"
    path.write_text(json.dumps(doc))
    assert cli(["generic-test", str(path), "--mode", "fixed", "--json"]) == 1
    failing = json.loads(capsys.readouterr().out)["report"]["certificate"]["failing"]
    assert failing.startswith("edge count 1 < 2")
    path.write_text(json.dumps(_flat(doc)))
    assert cli(["generic-test", str(path), "--mode", "fixed"]) == 2
    assert capsys.readouterr().err == "error: FlatLattice: supplied lattice is singular\n"


@pytest.mark.parametrize(
    "pairs, error",
    [
        ("a-b", "ParseError: --pairs entries look like u:v, got 'a-b'"),
        ("a:z", "PairConditionViolated: pair ('a', 'z') references unknown vertices"),
    ],
    ids=["malformed", "unknown-vertex"],
)
def test_cli_from_finite_bad_pairs_exit_2(tmp_path, capsys, pairs, error):
    finite_doc = {
        "dimension": 1,
        "vertices": [{"name": "a", "position": [0.0]}, {"name": "b", "position": [1.3]}],
        "edges": [{"tail": "a", "head": "b"}],
    }
    src = tmp_path / "finite.json"
    src.write_text(json.dumps(finite_doc))
    assert cli(["from-finite", str(src), "--pairs", pairs]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_cli_missing_file_is_input_error(tmp_path):
    assert cli(["info", str(tmp_path / "missing.json")]) == 2
    assert cli(["certify"]) == 2  # no file, no batch
    assert cli(["from-finite", "--pairs", "a:b"]) == 2


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli(["certify", "--mode", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["vertices"][0]["position"].__setitem__(0, float("nan")),
        lambda doc: doc["lattice"][1].__setitem__(0, float("inf")),
    ],
    ids=["nan-position", "inf-lattice"],
)
def test_cli_non_finite_real_is_input_error(tmp_path, capsys, edit):
    doc = flex2_document()
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # json writes NaN / Infinity literals
    assert cli(["certify", str(path), "--mode", "fixed"]) == 2
    assert "finite" in capsys.readouterr().err


def test_cli_from_finite_nan_weight_is_input_error(tmp_path, capsys):
    finite_doc = {
        "dimension": 1,
        "vertices": [{"name": "a", "position": [0.0]}, {"name": "b", "position": [1.3]}],
        "edges": [{"tail": "a", "head": "b", "weight": float("nan")}],
    }
    src = tmp_path / "nan_weight.json"
    src.write_text(json.dumps(finite_doc))
    assert cli(["from-finite", str(src), "--pairs", "a:b"]) == 2
    assert "$.edges[0].weight" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["vertices"].__setitem__(0, 1), "$.vertices[0]: must be an object"),
        (lambda doc: doc["vertices"][1].__setitem__("name", "a"), "duplicate vertex name 'a'"),
        (lambda doc: doc["edges"][0].__setitem__("head", "z"), "unknown vertex"),
    ],
    ids=["non-object-vertex", "duplicate-vertex", "unknown-vertex"],
)
def test_cli_from_finite_malformed_entry_is_input_error(tmp_path, capsys, edit, message):
    finite_doc = {
        "dimension": 1,
        "vertices": [{"name": "a", "position": [0.0]}, {"name": "b", "position": [1.3]}],
        "edges": [{"tail": "a", "head": "b"}],
    }
    edit(finite_doc)
    src = tmp_path / "bad_finite.json"
    src.write_text(json.dumps(finite_doc))
    assert cli(["from-finite", str(src), "--pairs", "a:b"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError:") and message in err


def test_cli_rank_uses_the_certificates_rank_policy(tmp_path, capsys):
    """rank and the fixed certificate cut the same stress Laplacian in one place."""
    doc = {
        "dimension": 2,
        "vertices": [{"name": "u", "position": [0.0, 0.0]}, {"name": "v", "position": [0.3, 0.2]}],
        "lattice": [[1.0, 0.0], [0.0, 1.0]],
        "edges": [  # 0.1 + 0.2 - 0.3 cancels to rounding noise in the vertex block
            {"tail": "u", "head": "v", "gain": [0, 0], "weight": 0.1},
            {"tail": "u", "head": "v", "gain": [1, 0], "weight": 0.2},
            {"tail": "u", "head": "v", "gain": [0, 1], "weight": -0.3},
        ],
    }
    path = tmp_path / "cancelling.json"
    path.write_text(json.dumps(doc))
    assert cli(["rank", str(path), "--json"]) == 0
    ranks = json.loads(capsys.readouterr().out)["report"]
    cli(["certify", str(path), "--mode", "fixed", "--json"])
    cert = json.loads(capsys.readouterr().out)["report"]["certificate"]
    assert ranks["laplacian"]["rank"] == 0
    assert ranks["laplacian"]["rank"] == 2 - cert["kernel_dims"]["laplacian"]


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


def _or_any(strategy):
    return st.one_of(strategy, _json_values)


_names = _or_any(st.sampled_from(["a", "b", "c"]))
_reals = st.floats() | st.integers(-(10**400), 10**400)
_vertex_entries = st.fixed_dictionaries(
    {"name": _names},
    optional={"position": _or_any(st.lists(_or_any(_reals), max_size=3))},
)
_edge_entries = st.fixed_dictionaries(
    {"tail": _names, "head": _names},
    optional={
        "gain": _or_any(st.lists(_or_any(st.integers(-2, 2) | st.integers()), max_size=3)),
        "type": _or_any(st.sampled_from(["bar", "cable", "strut"])),
        "weight": _or_any(_reals),
    },
)
_garbled_framework = st.fixed_dictionaries(
    {},
    optional={
        "dimension": _or_any(st.integers(-1, 3)),
        "vertices": _or_any(st.lists(_or_any(_vertex_entries), max_size=4)),
        "lattice": _or_any(st.lists(_or_any(st.lists(_or_any(_reals), max_size=3)), max_size=3)),
        "edges": _or_any(st.lists(_or_any(_edge_entries), max_size=5)),
        "lambda": _or_any(_reals),
    },
)


@st.composite
def _well_formed_framework(draw):
    """Documents whose every field is well formed, so that many parse; the
    rest fail on a zero loop, a duplicate edge, an unknown vertex, or
    positions or weights on only some entries."""
    d = draw(st.integers(1, 3))
    reals = st.floats(-2, 2) | st.integers(-2, 2)
    point = st.lists(reals, min_size=d, max_size=d)
    names = st.sampled_from("abc")
    # past 2^53 distinct gains can share a float64: duplicates must be found exactly
    gain_entries = st.integers(-1, 1) | st.sampled_from(
        [2**53, -(2**53), 2**53 + 1, -(2**53 + 1), 10**30]
    )

    def on_entries():  # a field carried by every entry, by none, or by some
        share = draw(st.sampled_from(["all", "none", "some"]))
        return lambda: share == "all" or (share == "some" and draw(st.booleans()))

    has_position, has_weight = on_entries(), on_entries()
    vertices = []
    for name in draw(st.lists(names, min_size=2, max_size=3, unique=True)):
        vertices.append({"name": name, **({"position": draw(point)} if has_position() else {})})
    edges = []
    for _ in range(draw(st.integers(0, 5))):
        edge = {
            "tail": draw(names),
            "head": draw(names),
            "gain": draw(st.lists(gain_entries, min_size=d, max_size=d)),
            "type": draw(st.sampled_from(["bar", "cable", "strut"])),
        }
        if has_weight():
            edge["weight"] = draw(reals)
        edges.append(edge)
    doc = {"dimension": d, "vertices": vertices, "edges": edges}
    if draw(st.booleans()):
        doc["lattice"] = draw(st.lists(point, min_size=d, max_size=d))
    if draw(st.booleans()):
        doc["lambda"] = draw(reals)
    return doc


_framework_like = st.one_of(_garbled_framework, _well_formed_framework())


def _outcome(reader, raw):
    try:
        return reader(raw), None
    except PerigidError as exc:
        return None, (type(exc), str(exc))


def _same_points(points, expected):
    assert list(points) == list(expected)
    assert all(np.array_equal(points[v], expected[v]) for v in expected)


def _same_stress(stress, expected):
    assert (stress is None) == (expected is None)
    assert stress is None or np.array_equal(stress, expected)


def _same_framework(parsed, expected):
    graph, want = parsed.graph, expected.graph
    assert graph == want
    for name in ("tail_idx", "head_idx", "loop_mask", "gain_array"):
        assert np.array_equal(getattr(graph, name), getattr(want, name)), name
    assert (parsed.realization is None) == (expected.realization is None)
    if expected.realization is not None:
        _same_points(parsed.realization.points, expected.realization.points)
        assert np.array_equal(parsed.realization.lattice, expected.realization.lattice)
    _same_stress(parsed.stress, expected.stress)
    assert parsed.lam == expected.lam


def _same_finite(parsed, expected):
    (finite, stress), (want, want_stress) = parsed, expected
    assert (finite.vertices, finite.edges, finite.markings) == (
        want.vertices,
        want.edges,
        want.markings,
    )
    _same_points(finite.points, want.points)
    _same_stress(stress, want_stress)


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(value=st.one_of(_json_values, _framework_like, st.binary(max_size=24)))
def test_readers_parse_or_raise_perigid_error(value):
    """Any file content either parses or raises a PerigidError (exit 2 in the
    CLI), and the one-pass readers agree with the two-pass reference: the same
    graph, arrays and geometry, or the same error type and message."""
    raw = value if isinstance(value, bytes) else json.dumps(value).encode("utf-8")
    for reader, reference, same in (
        (fileformat.loads, reference_loads, _same_framework),
        (fileformat.loads_finite, reference_loads_finite, _same_finite),
    ):
        parsed, error = _outcome(reader, raw)
        expected, expected_error = _outcome(reference, raw)
        assert error == expected_error
        if error is None:
            same(parsed, expected)


@pytest.mark.parametrize(
    "option",
    [["--trials", "0"], ["--tol", "0"], ["--tol", "nan"], ["--tol", "inf"]],
    ids=" ".join,
)
def test_cli_bad_numeric_option_is_usage_error(fixture_file, capsys, option):
    assert cli(["generic-test", fixture_file("hex"), *option]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,env",
    [
        (["generic-test", "--seed", "-1"], None),
        (["generic-test"], "-1"),
        (["certify", "--stress", "compute", "--seed", "-3"], None),
    ],
    ids=["flag", "environment", "certify-compute"],
)
def test_cli_negative_seed_is_usage_error(fixture_file, capsys, monkeypatch, argv, env):
    """A negative seed is rejected before any draw, as a ParseError."""
    path = fixture_file("flex2")
    if env is not None:
        monkeypatch.setenv("PERIGID_SEED", env)
    assert cli([argv[0], path, *argv[1:]]) == 2
    assert capsys.readouterr().err == (
        "error: ParseError: invalid option value: rng_seed must be non-negative\n"
    )


def test_cli_tolerance_with_no_non_flat_lattice_exits_2(fixture_file):
    """At --tol 0.999 no random lattice is non-flat; the call exits 2 naming
    the tolerance, in a child process that would time out if it hung."""
    env = dict(os.environ, PYTHONPATH=str(Path(perigid.__file__).parents[1]))
    argv = [sys.executable, "-m", "perigid.cli", "generic-test", fixture_file("flex2")]
    done = subprocess.run(argv + ["--tol", "0.999"], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr == (
        "error: FlatLattice: none of 10 random lattices is non-flat at residual_tol 0.999\n"
    )


def test_cli_calls_share_one_parser_and_no_state(fixture_file, capsys):
    """One process builds the argument parser once; no option of one call
    leaks into the next, and a repeated call gives the same bytes."""
    from perigid import cli as cli_mod

    path = fixture_file("hex")
    assert cli_mod._build_parser() is cli_mod._build_parser()
    first_code = cli(["certify", path, "--mode", "fixed"])
    first = capsys.readouterr().out
    cli(["generic-test", path, "--trials", "1", "--json"])
    assert json.loads(capsys.readouterr().out)["tolerances"]["generic_trials"] == 1
    cli(["generic-test", path, "--json"])
    assert json.loads(capsys.readouterr().out)["tolerances"]["generic_trials"] == 3
    assert cli(["certify", path, "--mode", "fixed"]) == first_code
    assert capsys.readouterr().out == first


def test_cli_tol_flag(fixture_file, capsys):
    cli(["certify", fixture_file("flex2"), "--mode", "flexible", "--tol", "1e-6", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert data["tolerances"] == {
        "rank_rel_tol": 1e-6,
        "residual_tol": 1e-6,
        "generic_trials": 3,
    }


def test_cli_internal_inconsistency_exit_code(fixture_file, monkeypatch):
    from perigid import cli as cli_mod
    from perigid.errors import InternalInconsistency

    def boom(parsed, vault, args):
        raise InternalInconsistency("forced")

    monkeypatch.setitem(cli_mod._HANDLERS, "info", boom)
    assert cli(["info", fixture_file("flex1")]) == 3


def test_cli_cover_flat_lattice(tmp_path):
    doc = flex2_document()
    doc["lattice"] = [[0.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    assert cli(["cover", str(path), "--window", "1", "--svg", str(tmp_path / "x.svg")]) == 2


def test_cli_compute_stress_multidimensional_space(fixture_file, capsys):
    # flex2's special point has a 4-dim fixed stress space; compute mode
    # samples a seeded combination and still produces a deterministic report
    path = fixture_file("flex2")
    code = cli(["certify", path, "--mode", "fixed", "--stress", "compute", "--json"])
    first = capsys.readouterr().out
    code2 = cli(["certify", path, "--mode", "fixed", "--stress", "compute", "--json"])
    second = capsys.readouterr().out
    assert code == code2 and first == second
    assert json.loads(first)["report"]["stress_space_dim"] == 4


@pytest.mark.parametrize(
    "mode, space, verdict, failing",
    [
        ("fixed", "fixed_stress_space", "Inconclusive", "Laplacian not PSD"),
        ("volume", "lambda_stress_space", "Inconclusive", "multiplier -0.30"),
    ],
)
def test_cli_compute_stress_ignores_basis_rotation(
    fixture_file, monkeypatch, capsys, mode, space, verdict, failing
):
    """``--stress compute`` projects a seeded Gaussian onto the stress space,
    so rotating the space's orthonormal basis leaves the report as it was."""
    path = fixture_file("flex2")
    argv = ["certify", path, "--mode", mode, "--stress", "compute", "--json"]
    code = cli(argv)
    report = json.loads(capsys.readouterr().out)["report"]
    stress = importlib.import_module("perigid.stress")
    original = getattr(stress, space)

    def rotated(*args):
        basis = original(*args)
        turn, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((basis.shape[1],) * 2))
        return basis @ turn

    monkeypatch.setattr(stress, space, rotated)
    assert cli(argv) == code == 1
    again = json.loads(capsys.readouterr().out)["report"]
    cert, cert_again = report["certificate"], again["certificate"]
    assert report["stress_space_dim"] == again["stress_space_dim"] >= 2
    assert cert["verdict"] == cert_again["verdict"] == verdict
    assert cert["failing"].startswith(failing) and cert_again["failing"].startswith(failing)
    assert np.allclose(cert["witness_stress"], cert_again["witness_stress"], atol=1e-12)


def test_cli_octagon_from_finite_end_to_end(tmp_path, capsys):
    """Finite octagon file -> rolled-up framework -> SuperStable certificate."""
    from perigid import fixtures

    octagon = fixtures()["octagon"]
    finite = octagon.finite
    doc = {
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
    src = tmp_path / "octagon_finite.json"
    src.write_text(json.dumps(doc))
    rolled = tmp_path / "octagon_rolled.json"
    assert cli(["from-finite", str(src), "--pairs", "0:4,2:6", "--emit", str(rolled)]) == 0
    capsys.readouterr()
    parsed = fileformat.loads(rolled.read_bytes())
    assert parsed.graph.num_edges == 12
    assert np.array_equal(parsed.realization.lattice, 2.0 * np.eye(2))
    assert cli(["certify", str(rolled), "--mode", "flexible", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["report"]["certificate"]["verdict"] == "SuperStable"


def test_cli_stresses_fixed_mode(fixture_file, capsys):
    assert cli(["stresses", fixture_file("hex"), "--mode", "fixed", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)["report"]
    assert data["dimension"] == 1
    assert np.allclose(data["normalized"], np.ones(9))


# gain graphs at their edge count, on vertices v1 and v2, whose trials take
# the branches that hex (6 vertices, 9 edges, below both counts) no longer
# reaches: each trial's branch and the (tail, head, gain) triples
_AT_COUNT = {
    # five edges reach the flexible count 2*2 + 1, but v2 hangs on one edge
    "loops+pendant": (
        "not infinitesimally rigid",
        [("v1", "v1", g) for g in ((1, 0), (0, 1), (1, 1), (1, -1))] + [("v1", "v2", (0, 0))],
    ),
    # two edges reach the fixed count 2*(2 - 1) and carry no stress
    "double-edge": ("stress-free", [("v1", "v2", (0, 0)), ("v1", "v2", (1, 0))]),
}


# (name, mode) of the cases whose test is positive: its first trial proves it
_PROVED_FIRST = {("flex1", "flexible"), ("flex1", "fixed")}


@pytest.mark.parametrize(
    "name, mode, keys",
    [
        ("flex1", "flexible", ["seed", "infinitesimally_rigid", "positive", "branch", "marginal"]),
        ("hex", "flexible", []),
        (
            "flex2",
            "flexible",
            ["seed", "infinitesimally_rigid", "stress_space_dim", "positive", "branch", "marginal"],
        ),
        (
            "flex1",
            "fixed",
            ["seed", "stress_space_dim", "stress_kernel_dim", "positive", "branch", "marginal"],
        ),
        ("hex", "fixed", []),
        (
            "loops+pendant",
            "flexible",
            ["seed", "infinitesimally_rigid", "positive", "branch", "marginal"],
        ),
        ("double-edge", "fixed", ["seed", "stress_space_dim", "positive", "branch", "marginal"]),
    ],
)
def test_cli_generic_test_trial_log_key_order(fixture_file, tmp_path, capsys, name, mode, keys):
    """Text reports print trial entries as dicts, so their key order is output:
    the branch's keys, then the proof's.  A positive test stops at its first
    proved trial, and a negative one runs every trial.  hex is decided by its
    edge count: no trial, an empty log, and ``failing`` names the count."""
    branch, edges = _AT_COUNT.get(name, (None, None))
    if edges:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "dimension": 2,
            "vertices": [{"name": "v1"}, {"name": "v2"}],
            "edges": [{"tail": t, "head": h, "gain": list(g)} for t, h, g in edges],
        }))
        path = str(path)
    else:
        path = fixture_file(name)
    cli(["generic-test", path, "--mode", mode])
    lines = capsys.readouterr().out.splitlines()
    prefix = "report.certificate.trial_log: "
    entries = ast.literal_eval(next(x for x in lines if x.startswith(prefix))[len(prefix):])
    if not keys:
        count = {"flexible": 13, "fixed": 10}[mode]
        assert entries == []
        assert "report.certificate.marginal: False" in lines
        assert (
            f"report.certificate.failing: edge count 9 < {count}: "
            "no realization is infinitesimally rigid"
        ) in lines
        return
    seeds = [2024] if (name, mode) in _PROVED_FIRST else [2024, 2025, 2026]
    assert [e["seed"] for e in entries] == seeds
    assert all(list(e) == keys + ["path", "lambda2", "bound", "proved"] for e in entries)
    assert all(e["branch"] == (branch or e["branch"]) for e in entries)


def test_cli_info_huge_gain_exact_rank(fixture_file, tmp_path, capsys):
    """A 10^30 gain is beyond any float rank cut; the I_zd rank is exact."""
    doc = json.loads(Path(fixture_file("hex")).read_text())
    doc["edges"][6]["gain"] = [10**30, 0]
    path = tmp_path / "hex_huge.json"
    path.write_text(json.dumps(doc))
    assert cli(["info", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["connected"] and report["gain_rank"] == 2
    assert report["full_rank_condition"] == {"holds": True, "rank_incidence_zd": 7}


def test_cli_rank_huge_gain_exact_incidence_ranks(tmp_path, capsys):
    """A 10^30 loop gain swamps a float SVD of I_zd (it ranked 1); the
    incidence ranks come from the spanning forest and the cycle gains."""
    doc = {
        "dimension": 2,
        "vertices": [
            {"name": name, "position": pos}
            for name, pos in (("a", [0.0, 0.0]), ("b", [0.5, 0.1]), ("c", [0.2, 0.6]))
        ],
        "lattice": [[1.0, 0.0], [0.0, 1.0]],
        "edges": [
            {"tail": "a", "head": "b", "gain": [0, 0]},
            {"tail": "b", "head": "c", "gain": [0, 1]},
            {"tail": "c", "head": "a", "gain": [0, 0]},
            {"tail": "a", "head": "a", "gain": [10**30, 0]},
        ],
    }
    path = tmp_path / "huge_loop.json"
    path.write_text(json.dumps(doc))
    assert cli(["info", str(path), "--json"]) == 0
    info = json.loads(capsys.readouterr().out)["report"]
    assert info["full_rank_condition"] == {"holds": True, "rank_incidence_zd": 4}
    assert cli(["rank", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["incidence"] == {"shape": [4, 3], "rank": 2, "marginal": False}
    assert report["incidence_zd"] == {"shape": [4, 5], "rank": 4, "marginal": False}


def _three_dim_document():
    return {
        "dimension": 3,
        "vertices": [{"name": "a", "position": [0.0, 0.0, 0.0]}],
        "lattice": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "edges": [
            {"tail": "a", "head": "a", "gain": g}
            for g in ([1, 0, 0], [0, 1, 0], [0, 0, 1])
        ],
    }


@pytest.mark.parametrize(
    "case, message",
    [("negative window", "nonnegative"), ("over budget", "limit"), ("d = 3", "two-dimensional")],
)
def test_cli_cover_bad_request_is_input_error(fixture_file, tmp_path, capsys, case, message):
    path, window = fixture_file("hex"), "1"
    if case == "negative window":
        window = "-1"
    elif case == "over budget":
        window = "200"  # 401^2 * 6 nodes
    else:
        path = str(tmp_path / "cube.json")
        with open(path, "w") as fh:
            json.dump(_three_dim_document(), fh)
    out = tmp_path / "out.svg"
    assert cli(["cover", path, "--window", window, "--svg", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["cover", "from-finite", "fixtures"])
def test_cli_unwritable_output_is_input_error(fixture_file, tmp_path, capsys, command):
    finite = tmp_path / "finite.json"
    finite.write_text(json.dumps({
        "dimension": 1,
        "vertices": [{"name": "a", "position": [0.0]}, {"name": "b", "position": [1.3]}],
        "edges": [{"tail": "a", "head": "b"}],
    }))
    out = str(tmp_path / "missing-dir" / "out")
    argv = {
        "cover": ["cover", fixture_file("hex"), "--svg", out],
        "from-finite": ["from-finite", str(finite), "--pairs", "a:b", "--emit", out],
        "fixtures": ["fixtures", "--name", "hex", "--emit", out],
    }[command]
    assert cli(argv) == 2
    assert capsys.readouterr().err.startswith("error: ParseError:")


@pytest.mark.parametrize(
    "argv, module, name",
    [
        (["certify", "--mode", "flexible"], "certify", "certify_super_stable"),
        (["certify", "--mode", "fixed"], "certify", "certify_fixed_lattice"),
        (["certify", "--mode", "spiderweb"], "certify", "certify_spiderweb"),
        (["certify", "--mode", "fixed", "--stress", "compute"], "stress", "fixed_stress_space"),
        (["stresses", "--mode", "volume"], "stress", "lambda_stress_space"),
        (["generic-test", "--mode", "flexible"], "certify", "generic_global_rigidity_test"),
        (["generic-test", "--mode", "fixed"], "certify", "generic_fixed_global_rigidity_test"),
        (["certify", "--mode", "volume"], "certify", "certify_volume_constrained"),
    ],
)
def test_cli_mode_table_calls_module_attributes(
    fixture_file, tmp_path, monkeypatch, argv, module, name
):
    """The CLI reaches each mode's functions through their module attributes at
    call time, so a wrapper installed there (as a profiler does) sees the call."""
    doc = json.loads(Path(fixture_file("hex")).read_text())
    for edge in doc["edges"]:
        edge["type"] = "cable"
    doc["lambda"] = 1.0  # the volume certificate refuses the lattice; the call is what counts
    path = tmp_path / "hex_cables.json"
    path.write_text(json.dumps(doc))
    target = importlib.import_module(f"perigid.{module}")
    original, calls = getattr(target, name), []

    def wrapped(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(target, name, wrapped)
    cli([argv[0], str(path), *argv[1:]])
    assert calls == [name]


def test_generic_test_on_the_gram_path_does_not_depend_on_the_hash_seed(tmp_path):
    """``generic-test --batch`` over ``out_degree_graph(0, n)`` for n = 40
    (R's Gram proof, L's eigvalsh) and n = 100 (both Gram proofs), in both
    modes, prints the same bytes in child processes with different
    ``PYTHONHASHSEED``."""
    from oracles import out_degree_graph

    for n in (40, 100):
        (tmp_path / f"out3-{n}.json").write_bytes(fileformat.dumps(out_degree_graph(0, n=n)))
    argv = [sys.executable, "-m", "perigid.cli", "generic-test", "--batch", str(tmp_path)]
    outputs = {}
    for hashseed in ("1", "4242"):
        env = dict(os.environ, PYTHONPATH=str(Path(perigid.__file__).parents[1]),
                   PYTHONHASHSEED=hashseed)
        for mode in ("flexible", "fixed"):
            done = subprocess.run(argv + ["--mode", mode], env=env, capture_output=True,
                                  timeout=120)
            assert done.returncode == 0 and done.stderr == b""
            outputs.setdefault(mode, set()).add(done.stdout)
    assert all(len(seen) == 1 for seen in outputs.values())
