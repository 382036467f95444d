"""A generic verdict is a property of the gain graph up to switching,
relabelling and edge reversal: none of them may move the verdict or the exit
code of ``generic-test``, on either side of either mode's edge count."""

import contextlib
import io
import itertools
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from perigid import fileformat
from perigid.cli import cli
from perigid.gain import GainEdge, GainGraph, canonicalize_edge

# the edge count below which each mode's verdict is negative with no trial
COUNTS = {"flexible": lambda d, n: d * n + d * (d - 1) // 2, "fixed": lambda d, n: d * (n - 1)}


def _edge_classes(d: int, verts: tuple) -> list:
    """One representative of every edge class with gains in {-1, 0, 1}^d."""
    pool = {}
    for t, h in itertools.combinations_with_replacement(range(len(verts)), 2):
        for gain in itertools.product((-1, 0, 1), repeat=d):
            if t != h or any(gain):
                pool[canonicalize_edge(verts[t], verts[h], gain, verts)[:3]] = None
    return list(pool)


@st.composite
def graphs_near_a_count(draw):
    """A gain graph whose edge count is within two of one mode's count."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4 if d < 3 else 3))
    verts = tuple(f"v{i}" for i in range(n))
    pool = _edge_classes(d, verts)
    count = COUNTS[draw(st.sampled_from(sorted(COUNTS)))](d, n)
    size = min(len(pool), max(0, count + draw(st.integers(-2, 2))))
    edges = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size, unique=True))
    return GainGraph(d, verts, edges)


def outcome(folder, graph: GainGraph, mode: str) -> tuple:
    """Verdict and exit code of ``generic-test`` on the graph, written to a new
    file in ``folder`` (overwriting one file makes ext4 flush it to disk on
    every close)."""
    fd, path = tempfile.mkstemp(suffix=".json", dir=folder)
    with os.fdopen(fd, "wb") as handle:
        handle.write(fileformat.dumps(graph))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli(["generic-test", path, "--mode", mode, "--json"])
    return json.loads(out.getvalue())["report"]["certificate"]["verdict"], code


@settings(max_examples=30, deadline=None)
@given(graph=graphs_near_a_count(), data=st.data())
def test_generic_verdict_invariant_under_switching_relabelling_reversal(
    tmp_path_factory, graph, data
):
    folder = tmp_path_factory.getbasetemp()
    d, verts = graph.dimension, graph.vertices
    vertex = data.draw(st.sampled_from(verts))
    mu = data.draw(st.tuples(*[st.integers(-2, 2)] * d))
    order = data.draw(st.permutations(range(len(verts))))
    names = {v: f"u{order[i]}" for i, v in enumerate(verts)}
    flips = data.draw(st.lists(st.booleans(), min_size=graph.num_edges, max_size=graph.num_edges))
    relabelled = GainGraph(
        d,
        sorted(names.values()),
        [GainEdge(names[e.tail], names[e.head], e.gain) for e in graph.edges],
    )
    reversed_ = GainGraph(
        d, verts, [e.reversed() if flip else e for e, flip in zip(graph.edges, flips)]
    )
    for mode in COUNTS:
        expected = outcome(folder, graph, mode)
        assert outcome(folder, graph.switch(vertex, mu), mode) == expected
        assert outcome(folder, relabelled, mode) == expected
        assert outcome(folder, reversed_, mode) == expected
