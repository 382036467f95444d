"""Quotient gain graphs of periodic graphs.

A gain graph stores finitely many edges labeled by integer translation
vectors; unrolling those labels over the integer lattice recovers the infinite
periodic graph.  Edges keep the orientation they were constructed with (an
orientation flip only multiplies incidence rows by -1 and leaves every
Laplacian unchanged), while :func:`canonicalize_edge` provides the canonical
representative used to detect duplicates under (u,v,g) ~ (v,u,-g).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    DuplicateEdge,
    GainDimensionMismatch,
    ParseError,
    ZeroLoop,
)
from .linalg import smith_rank
from .tolerances import ToleranceVault

Vertex = Hashable

MARKINGS = ("bar", "cable", "strut")

# Largest covering window, in nodes (2w+1)^d |V|, that CoveringWindow builds.
_MAX_WINDOW_NODES = 100_000


class GainEdge(NamedTuple):
    tail: Vertex
    head: Vertex
    gain: tuple[int, ...]
    marking: str = "bar"

    @property
    def is_loop(self) -> bool:
        return self.tail == self.head

    def reversed(self) -> "GainEdge":
        return GainEdge(self.head, self.tail, tuple(-g for g in self.gain), self.marking)


def _gain_tuple(gain) -> tuple[int, ...]:
    if isinstance(gain, (tuple, list)) and all(
        isinstance(g, int) and not isinstance(g, bool) for g in gain
    ):
        return tuple(gain)
    out = []
    for g in np.asarray(gain).ravel().tolist():
        if isinstance(g, bool) or not isinstance(g, int):
            raise GainDimensionMismatch(f"gain entries must be integers, got {g!r}")
        out.append(g)
    return tuple(out)


def _canonical(tail, head, gain: tuple[int, ...], index) -> GainEdge:
    """The rule behind :func:`canonicalize_edge`; ``index`` maps vertex -> position."""
    if tail == head:
        if not any(gain):
            raise ZeroLoop(f"loop at {tail!r} must have a nonzero gain")
        first = next(g for g in gain if g != 0)
        if first < 0:
            gain = tuple(-g for g in gain)
        return GainEdge(tail, head, gain)
    if index[tail] > index[head]:
        return GainEdge(head, tail, tuple(-g for g in gain))
    return GainEdge(tail, head, gain)


def canonicalize_edge(tail, head, gain, order: Sequence[Vertex]) -> GainEdge:
    """Canonical representative of the edge class {(u,v,g), (v,u,-g)}.

    Non-loops are oriented tail-before-head in ``order``; loops flip so the
    first nonzero gain entry is positive.  Idempotent.
    """
    return _canonical(tail, head, _gain_tuple(gain), {v: i for i, v in enumerate(order)})


def _covering_neighbors(graph: "GainGraph", v: Vertex, shift: tuple[int, ...]):
    """Covering nodes next to (v, shift), one per edge end at v (a loop gives two)."""
    for e, other, sign in graph._incidence[graph._index[v]]:
        gain = graph.edges[e].gain
        yield graph.vertices[other], tuple(s + sign * g for s, g in zip(shift, gain))


class _Forest(NamedTuple):
    component: list[int]  # per vertex position; components numbered by first vertex
    cycle_gains: list[list[tuple[int, ...]]]  # per component, exact integers


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class GainGraph:
    """Finite directed multigraph with integer-vector gains and edge markings.

    Immutable after construction; all derived matrices use the construction
    order of vertices and edges, so matrix layouts are reproducible
    bit-for-bit.  Construction also caches the edge structure as read-only
    arrays, from which every matrix is gathered or scattered in O(|E|):
    ``tail_idx`` and ``head_idx`` (vertex positions, intp), ``loop_mask`` and
    ``gain_array`` (|E| x d, float64 so huge integer gains cannot overflow;
    the exact integers stay on the edges).  A per-vertex incidence table and
    a breadth-first spanning forest are built from them on first use; the
    components, the gain rank, the rank condition and the covering windows
    all read those two.
    """

    def __init__(self, dimension: int, vertices: Sequence[Vertex], edges: Iterable):
        if dimension < 1:
            raise ValueError("dimension must be a positive integer")
        self.dimension = int(dimension)
        self.vertices: tuple[Vertex, ...] = tuple(vertices)
        if not self.vertices:
            raise ValueError("a gain graph needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("vertex names must be distinct")
        self._index: dict[Vertex, int] = {v: i for i, v in enumerate(self.vertices)}

        normalized: list[GainEdge] = []
        seen: set[tuple] = set()
        for raw in edges:
            edge = self._coerce_edge(raw)
            key = _canonical(edge.tail, edge.head, edge.gain, self._index)[:3]
            if key in seen:
                raise DuplicateEdge(f"edge {edge} duplicates an earlier edge under ~")
            seen.add(key)
            normalized.append(edge)
        self.edges: tuple[GainEdge, ...] = tuple(normalized)

        index = self._index
        self.tail_idx = _frozen(np.array([index[e.tail] for e in normalized], dtype=np.intp))
        self.head_idx = _frozen(np.array([index[e.head] for e in normalized], dtype=np.intp))
        self.loop_mask = _frozen(self.tail_idx == self.head_idx)
        try:
            gains = np.array([e.gain for e in normalized], dtype=float)
        except OverflowError as exc:
            raise ValueError("gain entries must fit in a float64") from exc
        self.gain_array = _frozen(gains.reshape(len(normalized), self.dimension))

    def _coerce_edge(self, raw) -> GainEdge:
        if isinstance(raw, GainEdge):
            tail, head, gain, marking = raw
        else:
            parts = tuple(raw)
            if len(parts) == 3:
                tail, head, gain = parts
                marking = "bar"
            elif len(parts) == 4:
                tail, head, gain, marking = parts
            else:
                raise ValueError(f"edge must be (tail, head, gain[, marking]), got {raw!r}")
        if tail not in self._index or head not in self._index:
            raise ValueError(f"edge {raw!r} references an unknown vertex")
        if marking not in MARKINGS:
            raise ValueError(f"marking must be one of {MARKINGS}, got {marking!r}")
        gain = _gain_tuple(gain)
        if len(gain) != self.dimension:
            raise GainDimensionMismatch(
                f"gain {gain} has length {len(gain)}, expected {self.dimension}"
            )
        if tail == head and not any(gain):
            raise ZeroLoop(f"loop at {tail!r} must have a nonzero gain")
        return GainEdge(tail, head, gain, marking)

    # -- basic accessors -------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def vertex_index(self, v: Vertex) -> int:
        return self._index[v]

    def markings(self) -> tuple[str, ...]:
        return tuple(e.marking for e in self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GainGraph)
            and self.dimension == other.dimension
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return (
            f"GainGraph(d={self.dimension}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges})"
        )

    def with_markings(self, markings: Sequence[str]) -> "GainGraph":
        if len(markings) != self.num_edges:
            raise ValueError("need one marking per edge")
        edges = [GainEdge(e.tail, e.head, e.gain, m) for e, m in zip(self.edges, markings)]
        return GainGraph(self.dimension, self.vertices, edges)

    def without_loops(self) -> tuple["GainGraph", list[int]]:
        """Loop-free copy plus the indices of the surviving edges."""
        keep = [i for i, e in enumerate(self.edges) if not e.is_loop]
        return GainGraph(self.dimension, self.vertices, [self.edges[i] for i in keep]), keep

    def with_extra_loops(self, vertex: Vertex, gains, marking: str = "bar") -> "GainGraph":
        extra = [GainEdge(vertex, vertex, _gain_tuple(g), marking) for g in gains]
        return GainGraph(self.dimension, self.vertices, list(self.edges) + extra)

    # -- incidence structure ---------------------------------------------

    def incidence(self) -> np.ndarray:
        """|E| x |V| incidence matrix; loops give all-zero rows."""
        mat = np.zeros((self.num_edges, self.num_vertices))
        rows = np.flatnonzero(~self.loop_mask)
        mat[rows, self.tail_idx[rows]] = -1.0
        mat[rows, self.head_idx[rows]] = 1.0
        return mat

    def gain_matrix(self) -> np.ndarray:
        """d x |E| matrix whose column for edge e is its gain vector."""
        return self.gain_array.T.copy()

    def incidence_zd(self) -> np.ndarray:
        """|E| x (|V|+d) incidence matrix with gains in the last d columns."""
        return np.hstack([self.incidence(), self.gain_array])

    # -- connectivity and gain rank ---------------------------------------

    @cached_property
    def _incidence(self) -> list[list[tuple[int, int, int]]]:
        """Per vertex position: (edge index, other end, +1 leaving / -1 entering).
        A loop is listed twice at its vertex, once each way."""
        table: list[list[tuple[int, int, int]]] = [[] for _ in self.vertices]
        for e, (t, h) in enumerate(zip(self.tail_idx.tolist(), self.head_idx.tolist())):
            table[t].append((e, h, 1))
            table[h].append((e, t, -1))
        return table

    @cached_property
    def _forest(self) -> _Forest:
        """Breadth-first spanning forest, rooted at each component's first vertex.

        The potential phi of a vertex is the gain of its forest path from the
        root; a non-forest edge tail -> head closes the cycle root -> tail ->
        head -> root, whose gain is phi(tail) + g - phi(head).
        """
        component = [-1] * self.num_vertices
        potential: list[tuple[int, ...]] = [()] * self.num_vertices
        in_forest = [False] * self.num_edges
        count = 0
        for root in range(self.num_vertices):
            if component[root] >= 0:
                continue
            component[root], potential[root] = count, (0,) * self.dimension
            queue = [root]
            for v in queue:  # grows while it is read: breadth-first order
                for e, other, sign in self._incidence[v]:
                    if component[other] < 0:
                        gain = self.edges[e].gain
                        component[other] = count
                        potential[other] = tuple(p + sign * g for p, g in zip(potential[v], gain))
                        in_forest[e] = True
                        queue.append(other)
            count += 1
        cycle_gains: list[list[tuple[int, ...]]] = [[] for _ in range(count)]
        for e, (t, h) in enumerate(zip(self.tail_idx.tolist(), self.head_idx.tolist())):
            if not in_forest[e]:
                cycle = zip(potential[t], self.edges[e].gain, potential[h])
                cycle_gains[component[t]].append(tuple(pt + g - ph for pt, g, ph in cycle))
        return _Forest(component, cycle_gains)

    def components(self) -> list[list[Vertex]]:
        """Connected components, each listing its vertices in graph order."""
        comps: list[list[Vertex]] = [[] for _ in self._forest.cycle_gains]
        for v, c in zip(self.vertices, self._forest.component):
            comps[c].append(v)
        return comps

    def is_connected(self) -> bool:
        return len(self._forest.cycle_gains) == 1

    def gain_rank(self) -> int:
        """Rank of the gain group, maximised over connected components."""
        ranks = [smith_rank(np.array(g, dtype=object)) for g in self._forest.cycle_gains if g]
        return max(ranks, default=0)

    def full_rank_condition(self, tol: Optional[ToleranceVault] = None) -> tuple[bool, int]:
        """Check connected + gain rank d through the exact rank of I_zd.

        Shifting each vertex column by its spanning-forest potential times the
        gain columns turns every forest row into a plain incidence row and
        every other row into its cycle gain, so
        rank I_zd = (|V| - #components) + rank of all cycle gains stacked.
        The stacked rank is at most d, so rank I_zd = |V|-1+d exactly when the
        graph is connected with gain rank d; one pass gives both.  ``tol`` is
        unused: no cut is made.
        """
        per_component = self._forest.cycle_gains
        cycles = [g for gains in per_component for g in gains]
        rank = self.num_vertices - len(per_component)
        if cycles:
            rank += smith_rank(np.array(cycles, dtype=object))
        return len(per_component) == 1 and rank == self.num_vertices - 1 + self.dimension, rank

    # -- covering window and switching ------------------------------------

    def covering_window(self, window: int) -> "CoveringWindow":
        return CoveringWindow.build(self, window)

    def switch(self, vertex: Vertex, mu) -> "GainGraph":
        """Re-gauge gains around ``vertex``: +mu entering, -mu leaving, loops fixed."""
        if vertex not in self._index:
            raise ValueError(f"unknown vertex {vertex!r}")
        mu = _gain_tuple(mu)
        if len(mu) != self.dimension:
            raise GainDimensionMismatch("switching vector has the wrong dimension")
        edges = []
        for e in self.edges:
            gain = e.gain
            if not e.is_loop:
                if e.head == vertex:
                    gain = tuple(g + m for g, m in zip(gain, mu))
                elif e.tail == vertex:
                    gain = tuple(g - m for g, m in zip(gain, mu))
            edges.append(GainEdge(e.tail, e.head, gain, e.marking))
        return GainGraph(self.dimension, self.vertices, edges)


@dataclass(frozen=True)
class CoveringWindow:
    """Finite portion of the covering graph over shifts in [-w, w]^d."""

    graph: GainGraph = field(repr=False)
    window: int
    vertices: tuple[tuple[Vertex, tuple[int, ...]], ...]
    edges: tuple[tuple[tuple[Vertex, tuple[int, ...]], tuple[Vertex, tuple[int, ...]]], ...]

    @staticmethod
    def build(graph: GainGraph, window: int) -> "CoveringWindow":
        if window < 0:
            raise ParseError("window must be a nonnegative integer")
        nodes = (2 * window + 1) ** graph.dimension * graph.num_vertices
        if nodes > _MAX_WINDOW_NODES:
            raise ParseError(
                f"window {window} needs {nodes} covering nodes, over the limit "
                f"of {_MAX_WINDOW_NODES}"
            )
        shifts = list(
            itertools.product(range(-window, window + 1), repeat=graph.dimension)
        )
        nodes = [(v, shift) for v in graph.vertices for shift in shifts]
        node_pos = {n: i for i, n in enumerate(nodes)}
        pairs = set()
        for i, node in enumerate(nodes):
            for other in _covering_neighbors(graph, *node):
                j = node_pos.get(other)
                if j is not None and j != i:
                    pairs.add((i, j) if i < j else (j, i))
        edges = tuple((nodes[a], nodes[b]) for a, b in sorted(pairs))
        return CoveringWindow(graph, window, tuple(nodes), edges)

    def degree(self, node) -> int:
        return sum(1 for a, b in self.edges if a == node or b == node)

    def interior_vertices(self) -> list:
        """Window vertices all of whose covering neighbors stay in the window."""
        node_set = set(self.vertices)
        return [
            node
            for node in self.vertices
            if all(n in node_set for n in _covering_neighbors(self.graph, *node))
        ]
