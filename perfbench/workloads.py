"""The three workloads: their inputs, their operations and the checks on each output.

Every workload reports every end-to-end metric.  Each builds its focus
operations at full size and adds a small "probe" of every other command
family, so that a change aimed at one workload has a measured "no change"
prediction on the others (see README.md).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import gen
import oracle

KINDS = ("generic_flexible", "generic_fixed", "certify_fixed", "certify_spiderweb",
         "certify_volume", "minimize", "batch", "cover", "from_finite")

WORKLOADS = ("generic", "certify", "batch")

GENERIC_POSITIVE = {"flexible": "GenericGloballyRigid", "fixed": "FixedLatticeGenericGloballyRigid"}
GENERIC_NEGATIVE = {"flexible": "GenericNotGloballyRigid",
                    "fixed": "FixedLatticeGenericNotGloballyRigid"}
CERTIFY_VERDICT = {"fixed": "FixedLatticeSuperStable", "spiderweb": "FixedLatticeSuperStable",
                   "volume": "VolumeSuperStable"}
BATCH_COMMANDS = ("info", "rank", "stresses", "certify", "generic-test", "minimize")

# Verdicts the repository README documents for the built-in examples.
README_CERTIFY = {"flex1": "SuperStable", "flex2": "SuperStable", "hex": "Inconclusive",
                  "octagon": "SuperStable"}
README_GENERIC = {"flex1": "GenericGloballyRigid", "flex2": "GenericNotGloballyRigid",
                  "hex": "GenericNotGloballyRigid"}
# minimize needs a PSD lattice-extended Laplacian with a 1-dimensional kernel;
# only hex's all-ones stress has one.
MINIMIZE_REFUSED = ("flex1", "flex2", "octagon")

Check = Callable[[str, object], list]


@dataclass
class Op:
    """One CLI call: what it runs, which metric it feeds and how its output is judged."""

    id: str
    kind: str  # one of KINDS, or "fault"
    argv: list
    check: Check  # (stdout, exit code) -> list of problems
    reports: int = 1
    probe: bool = False  # a small call outside the workload's focus
    repeat: int = 1  # calls per round
    sections: tuple = ()  # --batch calls: the file behind each report

    def failed_reports(self, problems: list) -> int:
        """Reports lost by a call whose output has ``problems``.

        A ``--batch`` call loses the reports of the files its problems name;
        a problem of the whole call (unreadable output, missing sections,
        wrong exit code) loses every report.
        """
        named = {p.split(": ", 1)[0] for p in problems}
        if self.sections and named <= set(self.sections):
            return len(named)
        return self.reports


@dataclass
class Workload:
    name: str
    ops: list = field(default_factory=list)
    inputs: list = field(default_factory=list)  # (path, "periodic" | "finite" | "fault")

    def add(self, op: Op) -> None:
        self.ops.append(op)


class Inputs:
    """Writes input files under ``root`` and remembers what the checks need."""

    def __init__(self, root: Path, workload: Workload):
        self.root = root
        self.workload = workload

    def write(self, rel: str, doc: dict, role: str = "periodic") -> str:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        self.workload.inputs.append((rel, role))
        return rel


# -- output parsing and checks ----------------------------------------------

def _report(out: str) -> dict:
    return json.loads(out)["report"]


def _batch_sections(out: str) -> dict:
    """``--batch`` stdout split into {path: text}."""
    sections = {}
    for chunk in re.split(r"^=== ", out, flags=re.M)[1:]:
        path, _, body = chunk.partition("\n")
        sections[path] = body
    return sections


def _verdict_code(verdict: str) -> int:
    return 0 if verdict in ("SuperStable", "FixedLatticeSuperStable", "VolumeSuperStable",
                            "GenericGloballyRigid", "FixedLatticeGenericGloballyRigid") else 1


def _guard(fn) -> Check:
    """Turn a malformed output (unparsable JSON, missing key) into a problem."""
    def check(out: str, code) -> list:
        try:
            return fn(out, code)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output ({type(exc).__name__}: {exc}): {out[:200]!r}"]
    return check


def check_verdict(expected: str) -> Check:
    @_guard
    def check(out, code):
        verdict = _report(out)["certificate"]["verdict"]
        problems = []
        if verdict != expected:
            problems.append(f"verdict {verdict}, expected {expected}")
        if code != _verdict_code(expected):
            problems.append(f"exit code {code}, expected {_verdict_code(expected)}")
        return problems
    return check


def _minimizer_problems(doc: dict, report: dict) -> list:
    problems = [] if report["kkt"]["passed"] else ["KKT report did not pass"]
    return problems + oracle.check_minimizer(doc, report)


def check_minimize(doc: dict) -> Check:
    @_guard
    def check(out, code):
        problems = [] if code == 0 else [f"exit code {code}"]
        return problems + _minimizer_problems(doc, _report(out))
    return check


def check_cover(window: int, doc: dict) -> Check:
    expected = (2 * window + 1) ** doc["dimension"] * len(doc["vertices"])

    @_guard
    def check(out, code):
        report = _report(out)
        problems = [] if code == 0 else [f"exit code {code}"]
        if report["vertices"] != expected:
            problems.append(f"{report['vertices']} covering nodes, expected {expected}")
        if report["edges"] <= 0 or report["bytes"] <= 0:
            problems.append("empty covering rendering")
        return problems
    return check


def check_from_finite(finite: dict, pairs: list) -> Check:
    lattice = oracle.rolled_lattice(finite, pairs)
    d = finite["dimension"]

    @_guard
    def check(out, code):
        report = _report(out)
        problems = [] if code == 0 else [f"exit code {code}"]
        got = np.array(report["lattice_columns"], dtype=float).T
        if got.shape != lattice.shape or np.abs(got - lattice).max() > 1e-12:
            problems.append(f"lattice columns {got.tolist()} != pair differences {lattice.tolist()}")
        if report["vertices"] != len(finite["vertices"]) - d:
            problems.append(f"{report['vertices']} quotient vertices")
        if report["edges"] != len(finite["edges"]):
            problems.append(f"{report['edges']} quotient edges")
        return problems
    return check


def _check_stresses(doc: dict, report: dict) -> list:
    """Each basis vector is an equilibrium stress and the basis is orthonormal."""
    basis = np.array(report["basis"], dtype=float).reshape(-1, len(doc["edges"]))
    if basis.shape[0] != report["dimension"]:
        return [f"{basis.shape[0]} basis vectors for dimension {report['dimension']}"]
    if basis.shape[0] == 0:
        return []
    g = _arrays(doc)
    rig = oracle.rigidity_rows(g, g["points"], g["lattice"], with_lattice=True)
    scale = max(1.0, float(np.abs(rig).max()))
    problems = []
    if np.abs(basis @ rig).max() > 1e-8 * scale:
        problems.append(f"basis vector out of equilibrium by {np.abs(basis @ rig).max():.3g}")
    if np.abs(basis @ basis.T - np.eye(basis.shape[0])).max() > 1e-8:
        problems.append("stress basis is not orthonormal")
    return problems


def _arrays(doc: dict) -> dict:
    """Array form (see gen) of a periodic document with positions."""
    names = [v["name"] for v in doc["vertices"]]
    index = {name: i for i, name in enumerate(names)}
    d = doc["dimension"]
    return {
        "d": d,
        "names": names,
        "tail": np.array([index[e["tail"]] for e in doc["edges"]], dtype=np.int64),
        "head": np.array([index[e["head"]] for e in doc["edges"]], dtype=np.int64),
        "gain": np.array([e["gain"] for e in doc["edges"]], dtype=float).reshape(-1, d),
        "points": np.array([v["position"] for v in doc["vertices"]], dtype=float),
        "lattice": np.array(doc["lattice"], dtype=float).T,
    }


@dataclass
class BatchFile:
    """What the checks know about one file of a --batch directory."""

    doc: dict
    fixture: Optional[str]  # name of the worked example, or None for synthetic
    generic: Optional[bool]  # oracle's flexible generic verdict, None if undecided


def _batch_expectation(command: str, f: BatchFile) -> tuple:
    """(exit code, per-file check) for one file under one batch command."""
    doc, fixture = f.doc, f.fixture
    d, n = doc["dimension"], len(doc["vertices"])

    def info(report):
        problems = []
        if (report["vertices"], report["edges"]) != (n, len(doc["edges"])):
            problems.append("vertex or edge count")
        if not (report["connected"] and report["gain_rank"] == d
                and report["full_rank_condition"]["holds"]):
            problems.append("connected, gain rank d, full rank condition expected")
        return problems

    def rank(report):
        got = (report["incidence"]["rank"], report["incidence_zd"]["rank"])
        return [] if got == (n - 1, n - 1 + d) else [f"incidence ranks {got}"]

    def verdict_of(expected):
        def check(report):
            got = report["certificate"]["verdict"]
            return [] if expected is None or got == expected else [f"verdict {got}, expected {expected}"]
        return check

    if command == "info":
        return 0, info
    if command == "rank":
        return 0, rank
    if command == "stresses":
        return 0, lambda report: _check_stresses(doc, report)
    if command == "certify":
        expected = README_CERTIFY[fixture] if fixture else "Inconclusive"
        return _verdict_code(expected), verdict_of(expected)
    if command == "generic-test":
        if fixture:
            expected = README_GENERIC.get(fixture)
        else:
            expected = None if f.generic is None else (
                GENERIC_POSITIVE["flexible"] if f.generic else GENERIC_NEGATIVE["flexible"])
        code = None if expected is None else _verdict_code(expected)
        return code, verdict_of(expected)
    if fixture in MINIMIZE_REFUSED:
        return 2, None
    return 0, lambda report: _minimizer_problems(doc, report)


def check_batch(command: str, files: dict) -> Check:
    """Every file's section of a --batch run, and the worst exit code."""
    expectations = {path: _batch_expectation(command, f) for path, f in files.items()}

    @_guard
    def check(out, code):
        sections = _batch_sections(out)
        problems = []
        if sorted(sections) != sorted(files):
            return [f"batch sections {sorted(sections)[:4]}... do not match the directory"]
        worst = 0
        for path, (want_code, per_file) in expectations.items():
            body = sections[path]
            if per_file is None:
                if not body.startswith("error: HypothesisFailed"):
                    problems.append(f"{path}: expected HypothesisFailed, got {body[:80]!r}")
                worst = max(worst, 2)
                continue
            report = json.loads(body)["report"]
            if want_code is None:  # undecided: take the file's own verdict
                want_code = _verdict_code(report["certificate"]["verdict"])
            worst = max(worst, want_code)
            problems += [f"{path}: {p}" for p in per_file(report)]
        if code != worst:
            problems.append(f"exit code {code}, expected {worst}")
        return problems
    return check


# -- known faults: each check states the correct behaviour ------------------

@_guard
def _no_false_certificate(out, code):
    verdict = _report(out)["certificate"]["verdict"]
    if code == 0 or verdict == "FixedLatticeSuperStable":
        return [f"positive certificate {verdict} for a framework out of equilibrium"]
    return []


@_guard
def _huge_gain_info(out, code):
    if code == 2:
        return []
    if code != 0:
        return [f"exit code {code}: expected a report or a typed input error"]
    report = _report(out)
    if not (report["connected"] and report["gain_rank"] == 2):
        return ["wrong info report"]
    return []


def _nan_is_input_error(out, code):
    return [] if code == 2 else [f"exit code {code} for a NaN position, expected 2"]


# -- building the workloads ---------------------------------------------------

SIZES = {
    # (d, |V|) of the generic graphs, the certify frameworks; batch directory size
    "generic": {"full": ((2, 160), (3, 100)), "quick": ((2, 16), (3, 10))},
    "certify": {"full": ((2, 640), (3, 320)), "quick": ((2, 40), (3, 20))},
    "batch": {"full": 60, "quick": 4},
}
COVER_WINDOW = {"batch": 4, "probe": 1}
# Probe calls take milliseconds; repeating them gives their medians enough
# samples.  certify's rounds are the longest, so it has the fewest of them.
PROBE_REPEAT = {"generic": 5, "certify": 10, "batch": 5}
# batch's cover and from-finite calls are short next to its --batch calls.
SINGLE_CALL_REPEAT = 3


def _fixture_docs() -> dict:
    return {
        "flex1": gen.to_document(gen.flex1_framework()),
        "flex2": gen.to_document(gen.flex2_framework()),
        "hex": gen.to_document(gen.hex_framework()),
        "octagon": _rolled_octagon(),
    }


def _rolled_octagon() -> dict:
    """The octagon tensegrity rolled up along its pairs, by the benchmark's own rule."""
    finite, pairs = gen.octagon_finite()
    lattice = oracle.rolled_lattice(finite, pairs)
    heads = {h: i for i, (_, h) in enumerate(pairs)}
    merged = {h: t for t, h in pairs}
    d = finite["dimension"]
    vertices = [v for v in finite["vertices"] if v["name"] not in heads]
    edges = []
    for e in finite["edges"]:
        gain = [0] * d
        for end, sign in ((e["head"], 1), (e["tail"], -1)):
            if end in heads:
                gain[heads[end]] += sign
        edges.append({"tail": merged.get(e["tail"], e["tail"]),
                      "head": merged.get(e["head"], e["head"]),
                      "gain": gain, "type": e["type"], "weight": e["weight"]})
    return {"dimension": d, "vertices": vertices,
            "lattice": [list(map(float, lattice[:, i])) for i in range(d)], "edges": edges}


def _generic_ops(w: Workload, rel: str, g: dict, seed: int,
                 expect: Optional[dict] = None) -> None:
    for mode in ("flexible", "fixed"):
        positive = expect[mode] if expect else oracle.generic_verdict(g, mode, seed)
        expected = GENERIC_POSITIVE[mode] if positive else GENERIC_NEGATIVE[mode]
        w.add(Op(f"generic-{mode}:{rel}", f"generic_{mode}",
                 ["generic-test", rel, "--mode", mode, "--json"], check_verdict(expected)))


def _certify_ops(w: Workload, rel: str, doc: dict) -> None:
    w.add(Op(f"minimize:{rel}", "minimize", ["minimize", rel, "--json"], check_minimize(doc)))
    for mode, verdict in CERTIFY_VERDICT.items():
        w.add(Op(f"certify-{mode}:{rel}", f"certify_{mode}",
                 ["certify", rel, "--mode", mode, "--json"], check_verdict(verdict)))


def _batch_dir(inputs: Inputs, rng, directory: str, synthetic: int, seed: int) -> dict:
    """Worked examples plus small positively stressed cable frameworks.

    Synthetic file i has d = 2 or 3 and 4-12 vertices; half get (d+1)|V|
    random chords (mostly generically rigid), half none (below the count).
    """
    files = {}
    for name, doc in _fixture_docs().items():
        rel = inputs.write(f"{directory}/fix_{name}.json", doc)
        files[rel] = BatchFile(doc, name, None)
    for i in range(synthetic):
        d = 2 + i % 2
        n = 4 + (i // 2) % 9
        chords = d + 1 if (i // 2) % 2 == 0 else 0
        g = gen.cable_framework(rng, d, n, chords)
        try:
            generic = oracle.generic_verdict(g, "flexible", seed + i)
        except oracle.OracleUndecided:
            generic = None
        doc = gen.to_document(g)
        rel = inputs.write(f"{directory}/s{i:02d}.json", doc)
        files[rel] = BatchFile(doc, None, generic)
    return files


def _add_batch_commands(w: Workload, directory: str, files: dict,
                        commands=BATCH_COMMANDS) -> None:
    for command in commands:
        w.add(Op(f"batch-{command}:{directory}", "batch",
                 [command, "--batch", directory, "--json"],
                 check_batch(command, files), reports=len(files), sections=tuple(files)))


def _add_probes(w: Workload, inputs: Inputs, rng, seed: int, kinds: set) -> None:
    """Small calls for the command families the workload is not about."""
    first = len(w.ops)
    if kinds & {"generic_flexible", "generic_fixed"}:
        g = gen.out_degree_graph(rng, 2, 16, 3)
        rel = inputs.write("probe/graph.json", gen.to_document(g))
        _generic_ops(w, rel, g, seed)
    if kinds & {"certify_fixed", "certify_spiderweb", "certify_volume", "minimize"}:
        doc = gen.to_document(gen.cable_framework(rng, 2, 30, 1))
        _certify_ops(w, inputs.write("probe/frame.json", doc), doc)
    if "batch" in kinds:
        files = _batch_dir(inputs, rng, "probe/dir", 4, seed)
        _add_batch_commands(w, "probe/dir", files, commands=("info",))
    if "cover" in kinds:
        doc = _fixture_docs()["hex"]
        rel = inputs.write("probe/hex.json", doc)
        window = COVER_WINDOW["probe"]
        w.add(Op(f"cover:{rel}", "cover", ["cover", rel, "--window", str(window),
                                           "--svg", "out/probe.svg", "--json"],
                 check_cover(window, doc)))
    if "from_finite" in kinds:
        finite, pairs = gen.octagon_finite()
        _add_from_finite(w, inputs, "probe/octagon_finite.json", finite, pairs)
    for op in w.ops[first:]:
        op.probe = True
        op.repeat = PROBE_REPEAT[w.name]


def _add_from_finite(w: Workload, inputs: Inputs, rel: str, finite: dict, pairs: list) -> None:
    inputs.write(rel, finite, role="finite")
    text = ",".join(f"{t}:{h}" for t, h in pairs)
    w.add(Op(f"from-finite:{rel}", "from_finite",
             ["from-finite", rel, "--pairs", text, "--emit", "out/rolled.json", "--json"],
             check_from_finite(finite, pairs)))


def build(name: str, seed: int, root: Path, quick: bool) -> Workload:
    """Generate the inputs of workload ``name`` under ``root`` and list its operations."""
    w = Workload(name)
    inputs = Inputs(root, w)
    size = "quick" if quick else "full"
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    (root / "out").mkdir(parents=True, exist_ok=True)
    if name == "generic":
        for d, n in SIZES["generic"][size]:
            pos = gen.out_degree_graph(rng, d, n, d + 1)
            neg = gen.sparse_graph(rng, d, n, d * n - d - 1)
            for label, g in (("pos", pos), ("neg", neg)):
                expect = {m: oracle.generic_verdict(g, m, seed) for m in ("flexible", "fixed")}
                for variant, graph in (("", g), ("_switched", gen.switched_copy(rng, g))):
                    rel = inputs.write(f"in/d{d}_{label}{variant}.json", gen.to_document(graph))
                    _generic_ops(w, rel, graph, seed, expect=expect)
        focus = {"generic_flexible", "generic_fixed"}
    elif name == "certify":
        for d, n in SIZES["certify"][size]:
            doc = gen.to_document(gen.cable_framework(rng, d, n, 1))
            _certify_ops(w, inputs.write(f"in/cable_d{d}_n{n}.json", doc), doc)
        focus = {"certify_fixed", "certify_spiderweb", "certify_volume", "minimize"}
    else:
        files = _batch_dir(inputs, rng, "in/batch", SIZES["batch"][size], seed)
        _add_batch_commands(w, "in/batch", files)
        cover = gen.to_document(gen.cable_framework(rng, 2, 8, 1))
        rel = inputs.write("in/cover.json", cover)
        window = COVER_WINDOW["batch"]
        w.add(Op(f"cover:{rel}", "cover", ["cover", rel, "--window", str(window),
                                           "--svg", "out/cover.svg", "--json"],
                 check_cover(window, cover)))
        finite, pairs = gen.grid_finite(rng, 6 if quick else 12)
        _add_from_finite(w, inputs, "in/grid_finite.json", finite, pairs)
        for op in w.ops[-2:]:
            op.repeat = SINGLE_CALL_REPEAT
        _add_faults(w, inputs)
        focus = {"batch", "cover", "from_finite"}
    _add_probes(w, inputs, rng, seed, set(KINDS) - focus)
    return w


def _add_faults(w: Workload, inputs: Inputs) -> None:
    """Known faults of the program, on inputs that do not depend on the seed."""
    rel = inputs.write("fault/hex_gain_1e9.json", gen.bad_gain_hex((10 ** 9, 0)), role="fault")
    w.add(Op("fault-false-certificate", "fault",
             ["certify", rel, "--mode", "fixed", "--json"], _no_false_certificate))
    rel = inputs.write("fault/hex_gain_1e30.json", gen.bad_gain_hex((10 ** 30, 0)), role="fault")
    w.add(Op("fault-huge-gain", "fault", ["info", rel, "--json"], _huge_gain_info))
    rel = inputs.write("fault/hex_nan.json", gen.nan_position_hex(), role="fault")
    w.add(Op("fault-nan-position", "fault",
             ["certify", rel, "--mode", "fixed", "--json"], _nan_is_input_error))
