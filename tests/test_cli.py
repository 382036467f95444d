import ast
import importlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from perigid import fileformat
from perigid.cli import cli
from perigid.errors import DuplicateEdge, ParseError, PerigidError, ZeroLoop
from perigid.svg import render_covering


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


def test_svg_styles(fixture_file, tmp_path):
    from perigid import ToleranceVault, fixtures

    octagon = fixtures()["octagon"]
    image = render_covering(octagon.graph, octagon.realization, 0, ToleranceVault())
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


def test_cli_missing_file_is_input_error(tmp_path):
    assert cli(["info", str(tmp_path / "missing.json")]) == 2
    assert cli(["certify"]) == 2  # no file, no batch


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
_framework_like = st.fixed_dictionaries(
    {},
    optional={
        "dimension": _or_any(st.integers(-1, 3)),
        "vertices": _or_any(st.lists(_or_any(_vertex_entries), max_size=4)),
        "lattice": _or_any(st.lists(_or_any(st.lists(_or_any(_reals), max_size=3)), max_size=3)),
        "edges": _or_any(st.lists(_or_any(_edge_entries), max_size=5)),
        "lambda": _or_any(_reals),
    },
)


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(value=st.one_of(_json_values, _framework_like, st.binary(max_size=24)))
def test_readers_parse_or_raise_perigid_error(value):
    """Any file content either parses or raises a PerigidError (exit 2 in the CLI)."""
    raw = value if isinstance(value, bytes) else json.dumps(value).encode("utf-8")
    for reader in (fileformat.loads, fileformat.loads_finite):
        try:
            reader(raw)
        except PerigidError:
            pass


@pytest.mark.parametrize(
    "option", [["--trials", "0"], ["--tol", "0"], ["--tol", "nan"]], ids=" ".join
)
def test_cli_bad_numeric_option_is_usage_error(fixture_file, capsys, option):
    assert cli(["generic-test", fixture_file("hex"), *option]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError:") and err.count("\n") == 1


def test_cli_tol_flag(fixture_file, capsys):
    cli(["certify", fixture_file("flex2"), "--mode", "flexible", "--tol", "1e-6", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert data["tolerances"] == {
        "rank_rel_tol": 1e-6,
        "psd_slack": 1e-6,
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


@pytest.mark.parametrize(
    "name, mode, keys",
    [
        ("flex1", "flexible", ["seed", "infinitesimally_rigid", "positive", "branch"]),
        ("hex", "flexible", ["seed", "infinitesimally_rigid", "positive", "branch"]),
        (
            "flex2",
            "flexible",
            ["seed", "infinitesimally_rigid", "stress_space_dim", "positive", "branch"],
        ),
        ("flex1", "fixed", ["seed", "stress_space_dim", "stress_kernel_dim", "positive", "branch"]),
        ("hex", "fixed", ["seed", "stress_space_dim", "positive", "branch"]),
    ],
)
def test_cli_generic_test_trial_log_key_order(fixture_file, capsys, name, mode, keys):
    """Text reports print trial entries as dicts, so their key order is output."""
    cli(["generic-test", fixture_file(name), "--mode", mode])
    prefix = "report.certificate.trial_log: "
    line = next(x for x in capsys.readouterr().out.splitlines() if x.startswith(prefix))
    entries = ast.literal_eval(line[len(prefix):])
    assert [e["seed"] for e in entries] == [2024, 2025, 2026]
    assert all(list(e) == keys for e in entries)


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


@pytest.mark.parametrize(
    "argv, module, name",
    [
        (["certify", "--mode", "flexible"], "certify", "certify_super_stable"),
        (["certify", "--mode", "fixed"], "certify", "certify_fixed_lattice"),
        (["certify", "--mode", "spiderweb"], "certify", "certify_spiderweb"),
        (["certify", "--mode", "fixed", "--stress", "compute"], "certify", "fixed_stress_space"),
        (["stresses", "--mode", "volume"], "certify", "lambda_stress_space"),
        (["generic-test", "--mode", "flexible"], "certify", "generic_global_rigidity_test"),
        (["generic-test", "--mode", "fixed"], "certify", "generic_fixed_global_rigidity_test"),
        (["certify", "--mode", "volume"], "optimize", "certify_volume_constrained"),
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
