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
from operator import add, neg, sub
from typing import Hashable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DuplicateEdge,
    GainDimensionMismatch,
    ParseError,
    ZeroLoop,
)
from .linalg import smith_rank

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


def _check_marking(marking) -> None:
    if marking not in MARKINGS:
        raise ValueError(f"marking must be one of {MARKINGS}, got {marking!r}")


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


def _loop_gain(gain: tuple[int, ...]) -> tuple[int, ...] | None:
    """A loop's gain with its first nonzero entry made positive; None when
    every entry is zero."""
    first = next((g for g in gain if g), 0)
    if not first:
        return None
    return gain if first > 0 else tuple(map(neg, gain))


def _loop_key(v: int, gain: tuple[int, ...]) -> tuple | None:
    """The duplicate key (v, v, canonical gain) of a loop at position v; None
    for a zero loop."""
    loop_gain = _loop_gain(gain)
    return None if loop_gain is None else (v, v, loop_gain)


def _canonical(tail, head, gain: tuple[int, ...], index) -> tuple:
    """(tail, head, gain) of the canonical representative, the rule behind
    :func:`canonicalize_edge`; ``index`` maps vertex -> position."""
    if tail == head:
        loop_gain = _loop_gain(gain)
        if loop_gain is None:
            raise ZeroLoop(f"loop at {tail!r} must have a nonzero gain")
        return tail, head, loop_gain
    if index[tail] > index[head]:
        return head, tail, tuple(-g for g in gain)
    return tail, head, gain


def canonicalize_edge(tail, head, gain, order: Sequence[Vertex]) -> GainEdge:
    """Canonical representative of the edge class {(u,v,g), (v,u,-g)}.

    Non-loops are oriented tail-before-head in ``order``; loops flip so the
    first nonzero gain entry is positive.  Idempotent.
    """
    index = {v: i for i, v in enumerate(order)}
    return GainEdge(*_canonical(tail, head, _gain_tuple(gain), index))


class _Incidence(NamedTuple):
    """The edge ends by vertex, as compressed sparse rows.  Edge e has ends 2e
    (its tail) and 2e + 1 (its head); vertex v's ends are
    ``ends[start[v]:start[v + 1]]``, in edge order, a loop's tail end first."""

    start: list[int]  # |V| + 1 offsets into ends and others
    ends: list[int]
    others: list[int]  # the vertex at each end's far end


class _Forest(NamedTuple):
    """Breadth-first spanning forest, rooted at each component's first vertex."""

    component: list[int]  # per vertex position; components numbered by first vertex
    count: int  # number of components
    order: list[int]  # vertex positions in visiting order, so each after its parent
    parent_end: list[int]  # per vertex, the end of the forest edge it was reached by; -1 at roots


class _LaplacianSupport(NamedTuple):
    """The non-loop edges, the distinct vertex pairs {lo, hi} they join, and
    the flat (vertex, coordinate) slots of a row-major |V| x d array that
    their ends scatter into."""

    edges: np.ndarray  # positions of the non-loop edges, in edge order
    tails: np.ndarray  # their tail and head positions
    heads: np.ndarray
    pair: np.ndarray  # each one's pair index
    ends: np.ndarray  # every pair's hi end, then every pair's lo end
    others: np.ndarray  # the far end of each: lo, then hi
    end_slots: np.ndarray  # the near end's (vertex, coordinate) slots of a |V| x d array
    head_slots: np.ndarray  # each edge's head slots
    tail_slots: np.ndarray  # and tail slots


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class GainGraph:
    """Finite directed multigraph with integer-vector gains and edge markings.

    Immutable after construction; all derived matrices use the construction
    order of vertices and edges, so matrix layouts are reproducible
    bit-for-bit.  Construction keeps the edges as columns: the exact gain
    tuples and the markings, plus read-only arrays from which every matrix
    is gathered or scattered in O(|E|): ``tail_idx`` and ``head_idx`` (vertex
    positions, intp), ``loop_mask`` and ``gain_array`` (|E| x d, float64 so
    huge integer gains cannot overflow; the exact integers stay in the gain
    column).  The tuple of :class:`GainEdge` that ``edges`` gives is built
    from the columns on first read.

    Connectivity reads a table of the edge ends by vertex, compressed sparse
    rows from a stable counting sort of the ends [t0, h0, t1, h1, ...], and a
    breadth-first spanning forest over it that labels the components.  The
    exact potentials and cycle gains of the forest, which only the gain rank
    and the rank condition read, are computed the first time one of them is
    asked for.  The weighted Laplacians and the equilibrium sums read a
    grouping of the non-loop edges by vertex pair; the covering windows read
    the gain array.  All of these are built on first use, then kept.
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
        coerced = [self._coerce_edge(raw) for raw in edges]
        index = self._index
        self._assemble(
            [index[e.tail] for e in coerced],
            [index[e.head] for e in coerced],
            [e.gain for e in coerced],
            [e.marking for e in coerced],
        )

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
        _check_marking(marking)
        gain = _gain_tuple(gain)
        if len(gain) != self.dimension:
            raise GainDimensionMismatch(
                f"gain {gain} has length {len(gain)}, expected {self.dimension}"
            )
        return GainEdge(tail, head, gain, marking)

    @classmethod
    def _from_indices(
        cls,
        dimension: int,
        vertices: tuple[Vertex, ...],
        tails: list[int],
        heads: list[int],
        gains: Sequence[tuple[int, ...]],
        markings: Sequence[str],
    ) -> "GainGraph":
        """The graph whose edge e runs from ``vertices[tails[e]]`` to
        ``vertices[heads[e]]`` with gain ``gains[e]`` and marking
        ``markings[e]``.  Each field must already be checked: distinct
        vertices, gains as exact integer tuples of length ``dimension``,
        markings from MARKINGS.  Only the graph invariants are checked here."""
        graph = cls.__new__(cls)
        graph.dimension = dimension
        graph.vertices = vertices
        graph._index = {v: i for i, v in enumerate(vertices)}
        graph._assemble(tails, heads, gains, markings)
        return graph

    def _assemble(self, tails: list, heads: list, gains: Sequence, markings: Sequence) -> None:
        """Raise ZeroLoop and DuplicateEdge in edge order, then keep the
        columns and their arrays.  Both are found on exact keys (lo, hi,
        canonical gain) of vertex positions, so gains past 2^53 stay apart."""
        self.tail_idx = _frozen(np.array(tails, dtype=np.intp))
        self.head_idx = _frozen(np.array(heads, dtype=np.intp))
        self.loop_mask = _frozen(self.tail_idx == self.head_idx)
        keys = [
            (t, h, g) if t < h else (h, t, tuple(map(neg, g))) if t > h else _loop_key(t, g)
            for t, h, g in zip(tails, heads, gains)
        ]
        unique = set(keys)
        if len(unique) < len(keys) or None in unique:
            self._raise_first_fault(keys, tails, heads, gains, markings)
        self._gains: tuple[tuple[int, ...], ...] = tuple(gains)
        self._markings: tuple[str, ...] = tuple(markings)

        count = len(self._gains) * self.dimension
        try:
            array = np.fromiter(itertools.chain.from_iterable(self._gains), float, count)
        except OverflowError as exc:
            raise ValueError("gain entries must fit in a float64") from exc
        self.gain_array = _frozen(array.reshape(len(self._gains), self.dimension))

    def _raise_first_fault(self, keys: list, tails: list, heads: list, gains, markings) -> None:
        """Raise the first zero loop (key None) or duplicate key in edge order."""
        names, seen = self.vertices, set()
        for e, key in enumerate(keys):
            if key is None:
                raise ZeroLoop(f"loop at {names[tails[e]]!r} must have a nonzero gain")
            if key in seen:
                edge = GainEdge(names[tails[e]], names[heads[e]], gains[e], markings[e])
                raise DuplicateEdge(f"edge {edge} duplicates an earlier edge under ~")
            seen.add(key)

    # -- basic accessors -------------------------------------------------

    @cached_property
    def edges(self) -> tuple[GainEdge, ...]:
        """The edges in construction order, built from the columns on first read."""
        names = self.vertices
        tails = [names[t] for t in self.tail_idx.tolist()]
        heads = [names[h] for h in self.head_idx.tolist()]
        return tuple(map(GainEdge, tails, heads, self._gains, self._markings))

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self._markings)

    def vertex_index(self, v: Vertex) -> int:
        return self._index[v]

    def markings(self) -> tuple[str, ...]:
        return self._markings

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GainGraph)
            and self.dimension == other.dimension
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        # the exact columns that __eq__ compares, through the edges they build
        return hash((self.dimension, self.vertices, tuple(self.tail_idx.tolist()),
                     tuple(self.head_idx.tolist()), self._gains, self._markings))

    def __repr__(self) -> str:
        return (
            f"GainGraph(d={self.dimension}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges})"
        )

    def with_markings(self, markings: Sequence[str]) -> "GainGraph":
        if len(markings) != self.num_edges:
            raise ValueError("need one marking per edge")
        for marking in markings:
            _check_marking(marking)
        return self._from_indices(
            self.dimension,
            self.vertices,
            self.tail_idx.tolist(),
            self.head_idx.tolist(),
            self._gains,
            tuple(markings),
        )

    def without_loops(self) -> tuple["GainGraph", list[int]]:
        """Loop-free copy plus the indices of the surviving edges."""
        keep = np.flatnonzero(~self.loop_mask).tolist()
        graph = self._from_indices(
            self.dimension,
            self.vertices,
            self.tail_idx[keep].tolist(),
            self.head_idx[keep].tolist(),
            [self._gains[i] for i in keep],
            [self._markings[i] for i in keep],
        )
        return graph, keep

    def with_extra_loops(self, vertex: Vertex, gains, marking: str = "bar") -> "GainGraph":
        extra = [self._coerce_edge((vertex, vertex, g, marking)) for g in gains]
        loops = [self._index[e.tail] for e in extra]
        return self._from_indices(
            self.dimension,
            self.vertices,
            self.tail_idx.tolist() + loops,
            self.head_idx.tolist() + loops,
            self._gains + tuple(e.gain for e in extra),
            self._markings + tuple(e.marking for e in extra),
        )

    # -- incidence structure ---------------------------------------------

    def incidence(self) -> np.ndarray:
        """|E| x |V| incidence matrix; loops give all-zero rows."""
        mat = np.zeros((self.num_edges, self.num_vertices))
        rows = np.flatnonzero(~self.loop_mask)
        mat[rows, self.tail_idx[rows]] = -1.0
        mat[rows, self.head_idx[rows]] = 1.0
        return mat

    def incidence_zd(self) -> np.ndarray:
        """|E| x (|V|+d) incidence matrix with gains in the last d columns."""
        return np.hstack([self.incidence(), self.gain_array])

    @cached_property
    def _laplacian_support(self) -> "_LaplacianSupport":
        """Index arrays of the non-loop edges, which carry the weighted
        Laplacian and the cross block: built on first use, then kept.  Edges
        that join the same pair {lo, hi} are grouped by a stable sort of the
        keys lo |V| + hi, so each pair's edges keep their edge order."""
        edges = (~self.loop_mask).nonzero()[0]
        tails, heads = self.tail_idx[edges], self.head_idx[edges]
        n, d = self.num_vertices, self.dimension
        keys = np.minimum(tails, heads) * n + np.maximum(tails, heads)
        order = keys.argsort(kind="stable")
        first = np.empty(keys.size, dtype=bool)
        first[:1] = True
        np.not_equal(keys[order[1:]], keys[order[:-1]], out=first[1:])
        pair = np.empty_like(order)
        pair[order] = first.cumsum() - 1
        lo, hi = np.divmod(keys[order[first]], n)
        coords = np.arange(d)
        ends = np.concatenate([hi, lo])
        return _LaplacianSupport(
            edges, tails, heads, pair, ends, np.concatenate([lo, hi]),
            *((at[:, None] * d + coords).ravel() for at in (ends, heads, tails)),
        )

    # -- connectivity and gain rank ---------------------------------------

    @cached_property
    def _incidence(self) -> _Incidence:
        """The edge ends by vertex, placed by a counting sort of the ends
        [t0, h0, t1, h1, ...]: it is stable, so each vertex's ends keep their
        edge order and a loop's tail end comes before its head end."""
        tails, heads = self.tail_idx.tolist(), self.head_idx.tolist()
        count = [0] * (self.num_vertices + 1)
        for t, h in zip(tails, heads):
            count[t + 1] += 1
            count[h + 1] += 1
        start = list(itertools.accumulate(count))
        free = start[:-1]  # each vertex's next unfilled slot
        ends, others = [0] * (2 * len(tails)), [0] * (2 * len(tails))
        for e, (t, h) in enumerate(zip(tails, heads)):
            k = free[t]
            free[t], ends[k], others[k] = k + 1, 2 * e, h
            k = free[h]
            free[h], ends[k], others[k] = k + 1, 2 * e + 1, t
        return _Incidence(start, ends, others)

    @cached_property
    def _forest(self) -> _Forest:
        """Breadth-first spanning forest: component labels and the end each
        vertex was reached by, with no gains."""
        start, ends, others = self._incidence
        component, parent_end, order = [-1] * self.num_vertices, [-1] * self.num_vertices, []
        count = 0
        for root in range(self.num_vertices):
            if component[root] >= 0:
                continue
            component[root] = count
            queue = [root]
            for v in queue:  # grows while it is read: breadth-first order
                for k in range(start[v], start[v + 1]):
                    other = others[k]
                    if component[other] < 0:
                        component[other], parent_end[other] = count, ends[k]
                        queue.append(other)
            order += queue
            count += 1
        return _Forest(component, count, order, parent_end)

    @cached_property
    def _cycle_gains(self) -> list[list[tuple[int, ...]]]:
        """Per component, the exact gains of the cycles that the non-forest
        edges close, computed on first use.

        The potential phi of a vertex is the gain of its forest path from the
        root; a non-forest edge tail -> head closes the cycle root -> tail ->
        head -> root, whose gain is phi(tail) + g - phi(head).
        """
        forest, gains = self._forest, self._gains
        tails, heads = self.tail_idx.tolist(), self.head_idx.tolist()
        potential = [(0,) * self.dimension] * self.num_vertices
        in_forest = [False] * self.num_edges
        for v in forest.order:
            end = forest.parent_end[v]
            if end < 0:
                continue
            e = end >> 1
            in_forest[e] = True
            if end & 1:  # reached from the head: v is the tail
                potential[v] = tuple(map(sub, potential[heads[e]], gains[e]))
            else:
                potential[v] = tuple(map(add, potential[tails[e]], gains[e]))
        cycle_gains: list[list[tuple[int, ...]]] = [[] for _ in range(forest.count)]
        for e, (t, h) in enumerate(zip(tails, heads)):
            if not in_forest[e]:
                cycle = map(sub, map(add, potential[t], gains[e]), potential[h])
                cycle_gains[forest.component[t]].append(tuple(cycle))
        return cycle_gains

    def components(self) -> list[list[Vertex]]:
        """Connected components, each listing its vertices in graph order."""
        comps: list[list[Vertex]] = [[] for _ in range(self._forest.count)]
        for v, c in zip(self.vertices, self._forest.component):
            comps[c].append(v)
        return comps

    def is_connected(self) -> bool:
        return self._forest.count == 1

    @cached_property
    def _cycle_ranks(self) -> list[int]:
        """Exact rank of each component's cycle gains."""
        return [smith_rank(np.array(g, dtype=object)) for g in self._cycle_gains]

    def gain_rank(self) -> int:
        """Rank of the gain group, maximised over connected components."""
        return max(self._cycle_ranks)

    def full_rank_condition(self) -> tuple[bool, int]:
        """Check connected + gain rank d through the exact rank of I_zd.

        Shifting each vertex column by its spanning-forest potential times the
        gain columns turns every forest row into a plain incidence row and
        every other row into its cycle gain, so
        rank I_zd = (|V| - #components) + rank of all cycle gains stacked.
        The stacked rank is at most d, so rank I_zd = |V|-1+d exactly when the
        graph is connected with gain rank d; one pass gives both, exactly.
        """
        count = self._forest.count
        rank = self.num_vertices - count
        if count == 1:
            rank += self._cycle_ranks[0]
        else:
            cycles = [g for gains in self._cycle_gains for g in gains]
            rank += smith_rank(np.array(cycles, dtype=object))
        return count == 1 and rank == self.num_vertices - 1 + self.dimension, rank

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
        v = self._index[vertex]
        tails, heads = self.tail_idx.tolist(), self.head_idx.tolist()
        gains = []
        for t, h, gain in zip(tails, heads, self._gains):
            if t != h:
                if h == v:
                    gain = tuple(g + m for g, m in zip(gain, mu))
                elif t == v:
                    gain = tuple(g - m for g, m in zip(gain, mu))
            gains.append(gain)
        return self._from_indices(
            self.dimension, self.vertices, tails, heads, gains, self._markings
        )


@dataclass(frozen=True)
class CoveringWindow:
    """Finite portion of the covering graph over shifts in [-w, w]^d.

    Node (v, s) is numbered v S + sigma(s), where S = (2w+1)^d and sigma(s)
    is the shift's position in ``itertools.product`` order; ``vertices``
    lists the nodes in that order, and ``_shifts`` holds the S shifts as
    rows.  Edge k of ``edges`` joins nodes ``_lo[k] < _hi[k]`` and lifts
    graph edge ``_edge[k]``; the edges are sorted by (lo, hi).
    """

    graph: GainGraph = field(repr=False)
    window: int
    vertices: tuple[tuple[Vertex, tuple[int, ...]], ...]
    edges: tuple[tuple[tuple[Vertex, tuple[int, ...]], tuple[Vertex, tuple[int, ...]]], ...]
    _shifts: np.ndarray = field(repr=False, compare=False)
    _lo: np.ndarray = field(repr=False, compare=False)
    _hi: np.ndarray = field(repr=False, compare=False)
    _edge: np.ndarray = field(repr=False, compare=False)

    @staticmethod
    def build(graph: GainGraph, window: int) -> "CoveringWindow":
        """The window's node pairs for all edges at once: edge (t, h, g)
        joins (t, s) and (h, s + g) for every window shift s with s + g in
        the window, so sigma(s + g) = sigma(s) + g . place."""
        if window < 0:
            raise ParseError("window must be a nonnegative integer")
        width = 2 * window + 1
        size = width**graph.dimension
        count = size * graph.num_vertices
        if count > _MAX_WINDOW_NODES:
            raise ParseError(
                f"window {window} needs {count} covering nodes, over the limit "
                f"of {_MAX_WINDOW_NODES}"
            )
        place = width ** np.arange(graph.dimension - 1, -1, -1)
        shifts = np.arange(size)[:, None] // place % width - window
        # an edge with a gain entry past 2w joins no two window nodes, and
        # dropping it first keeps exact gains up to 1e30 out of int64
        near = np.flatnonzero((np.abs(graph.gain_array) <= 2 * window).all(axis=1))
        gains = graph.gain_array[near].astype(np.intp)
        e, s = (np.abs(shifts + gains[:, None]) <= window).all(axis=2).nonzero()
        tails = graph.tail_idx[near[e]] * size + s
        heads = graph.head_idx[near[e]] * size + s + (gains @ place)[e]
        keys, first = np.unique(
            np.minimum(tails, heads) * count + np.maximum(tails, heads), return_index=True
        )
        lo, hi = np.divmod(keys, count)
        nodes = tuple(
            itertools.product(
                graph.vertices,
                itertools.product(range(-window, window + 1), repeat=graph.dimension),
            )
        )
        edges = tuple(zip(*(map(nodes.__getitem__, end.tolist()) for end in (lo, hi))))
        return CoveringWindow(graph, window, nodes, edges, shifts, lo, hi, near[e[first]])

    @cached_property
    def _degrees(self) -> dict:
        counts = np.bincount(np.concatenate([self._lo, self._hi]), minlength=len(self.vertices))
        return dict(zip(self.vertices, counts.tolist()))

    def degree(self, node) -> int:
        return self._degrees.get(node, 0)

    def interior_vertices(self) -> list:
        """Window vertices all of whose covering neighbors stay in the window:
        those whose shift plus their vertex's least and greatest end offset
        (+g at a tail end, -g at a head end) stays in [-w, w]^d."""
        graph, w = self.graph, self.window
        # an entry past 2w leaves the window from every shift, as 2w + 1 does
        gains = np.clip(graph.gain_array, -2 * w - 1, 2 * w + 1).astype(np.intp)
        # offset 0, the node itself, is in the window: an isolated vertex's nodes are interior
        least = np.zeros((graph.num_vertices, graph.dimension), dtype=np.intp)
        most = least.copy()
        for at, offsets in ((graph.tail_idx, gains), (graph.head_idx, -gains)):
            np.minimum.at(least, at, offsets)
            np.maximum.at(most, at, offsets)
        inside = (self._shifts + least[:, None] >= -w) & (self._shifts + most[:, None] <= w)
        return list(itertools.compress(self.vertices, inside.all(axis=2).ravel().tolist()))
