"""Two implications of the definitions that guard the generic tests' stopping
rule (a proved trial ends the test) without a reference solver.

- Flexible implies fixed: every framework equivalent to a realization under
  a fixed lattice is also equivalent to it under a flexible one, and an
  isometry that keeps a non-flat lattice is a translation, so a generically
  globally rigid graph under a flexible lattice is one under a fixed lattice.
- An added edge keeps global rigidity: it only removes equivalent
  frameworks, so a positive graph stays positive with one more edge, in
  either mode.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from perigid import ToleranceVault
from perigid.certify import generic_fixed_global_rigidity_test, generic_global_rigidity_test
from perigid.gain import GainGraph

from test_generic_invariance import COUNTS, _edge_classes

TESTS = {"flexible": generic_global_rigidity_test, "fixed": generic_fixed_global_rigidity_test}
TOL = ToleranceVault()


@st.composite
def graphs_at_a_count(draw):
    """A gain graph with 2 to 6 vertices (2 to 4 in d = 3) and from the
    flexible count to four edges above it, where both verdicts occur in
    both modes, and one more edge class it lacks."""
    d = draw(st.integers(2, 3))
    n = draw(st.integers(2, 6 if d == 2 else 4))
    verts = tuple(f"v{i}" for i in range(n))
    pool = _edge_classes(d, verts)
    count = COUNTS["flexible"](d, n)
    size = draw(st.integers(count, count + 4))
    edges = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size, unique=True))
    extra = draw(st.sampled_from([e for e in pool if e not in edges]))
    return GainGraph(d, verts, edges), extra


@settings(max_examples=100, deadline=None)
@given(case=graphs_at_a_count())
def test_flexible_positive_is_fixed_positive(case):
    graph, _ = case
    if generic_global_rigidity_test(graph, TOL).positive:
        assert generic_fixed_global_rigidity_test(graph, TOL).positive


@settings(max_examples=100, deadline=None)
@given(case=graphs_at_a_count(), mode=st.sampled_from(sorted(TESTS)))
def test_positive_stays_positive_with_an_added_edge(case, mode):
    graph, extra = case
    if TESTS[mode](graph, TOL).positive:
        grown = GainGraph(graph.dimension, graph.vertices, [*graph.edges, extra])
        assert TESTS[mode](grown, TOL).positive
