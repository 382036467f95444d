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
    the exact integers stay on the edges).
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

    def components(self) -> list[list[Vertex]]:
        remaining = set(self.vertices)
        adjacency: dict[Vertex, set[Vertex]] = {v: set() for v in self.vertices}
        for e in self.edges:
            adjacency[e.tail].add(e.head)
            adjacency[e.head].add(e.tail)
        comps = []
        for start in self.vertices:
            if start not in remaining:
                continue
            stack, comp = [start], []
            remaining.discard(start)
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in adjacency[v]:
                    if w in remaining:
                        remaining.discard(w)
                        stack.append(w)
            comps.append(comp)
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def _component_cycle_gains(self, comp: Sequence[Vertex]) -> list[tuple[int, ...]]:
        comp_set = set(comp)
        root = comp[0]
        potential: dict[Vertex, np.ndarray] = {root: np.zeros(self.dimension, dtype=object)}
        tree_edges: set[int] = set()
        frontier = [root]
        while frontier:
            nxt = []
            for idx, e in enumerate(self.edges):
                if idx in tree_edges or e.is_loop:
                    continue
                if e.tail in potential and e.head not in potential and e.tail in comp_set:
                    potential[e.head] = potential[e.tail] + np.array(e.gain, dtype=object)
                    tree_edges.add(idx)
                    nxt.append(e.head)
                elif e.head in potential and e.tail not in potential and e.head in comp_set:
                    potential[e.tail] = potential[e.head] - np.array(e.gain, dtype=object)
                    tree_edges.add(idx)
                    nxt.append(e.tail)
            if not nxt:
                break
            frontier = nxt
        gains = []
        for idx, e in enumerate(self.edges):
            if idx in tree_edges or e.tail not in comp_set:
                continue
            # closed walk root -> tail -> head -> root has gain phi(tail)+g-phi(head)
            cycle = potential[e.tail] + np.array(e.gain, dtype=object) - potential[e.head]
            gains.append(tuple(int(x) for x in cycle))
        return gains

    def gain_rank(self) -> int:
        """Rank of the gain group, maximised over connected components."""
        best = 0
        for comp in self.components():
            gains = self._component_cycle_gains(comp)
            if gains:
                best = max(best, smith_rank(np.array(gains, dtype=object)))
        return best

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
        comps = self.components()
        cycles = [g for comp in comps for g in self._component_cycle_gains(comp)]
        rank = self.num_vertices - len(comps)
        if cycles:
            rank += smith_rank(np.array(cycles, dtype=object))
        return len(comps) == 1 and rank == self.num_vertices - 1 + self.dimension, rank

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
        node_set = set(nodes)
        node_pos = {n: i for i, n in enumerate(nodes)}
        edge_set = set()
        for v, shift in nodes:
            for other in CoveringWindow._neighbors(graph, v, shift):
                if other in node_set:
                    a, b = (v, shift), other
                    if node_pos[a] > node_pos[b]:
                        a, b = b, a
                    if a != b:
                        edge_set.add((a, b))
        edges = tuple(sorted(edge_set, key=lambda ab: (node_pos[ab[0]], node_pos[ab[1]])))
        return CoveringWindow(graph, window, tuple(nodes), edges)

    @staticmethod
    def _neighbors(graph: GainGraph, v: Vertex, shift: tuple[int, ...]):
        for e in graph.edges:
            if e.tail == v:
                yield (e.head, tuple(s + g for s, g in zip(shift, e.gain)))
            if e.head == v:
                yield (e.tail, tuple(s - g for s, g in zip(shift, e.gain)))

    def degree(self, node) -> int:
        return sum(1 for a, b in self.edges if a == node or b == node)

    def interior_vertices(self) -> list:
        """Window vertices all of whose covering neighbors stay in the window."""
        node_set = set(self.vertices)
        out = []
        for v, shift in self.vertices:
            if all(
                n in node_set for n in self._neighbors(self.graph, v, shift)
            ):
                out.append((v, shift))
        return out
