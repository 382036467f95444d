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
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import neg
from typing import Hashable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DuplicateEdge,
    GainDimensionMismatch,
    ParseError,
    ZeroLoop,
)

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


def _edge_keys(tails: Sequence, heads: Sequence, gains: Sequence, dimension: int) -> list:
    """The duplicate key of each edge on vertex positions: (lo, hi, gain
    from lo to hi) for a non-loop, and (v, v, gain with its first nonzero
    entry positive) for a loop, None for a zero loop.  Two edges share a key
    exactly when (u,v,g) ~ (v,u,-g) makes them one class.  A gain beats the
    zero tuple exactly when its first nonzero entry is positive."""
    zero = (0,) * dimension
    return [
        (t, h, g) if t < h else (h, t, tuple(map(neg, g))) if t > h
        else (t, t, g) if g > zero else (t, t, tuple(map(neg, g))) if g < zero else None
        for t, h, g in zip(tails, heads, gains)
    ]


def canonicalize_edge(tail, head, gain, order: Sequence[Vertex]) -> GainEdge:
    """Canonical representative of the edge class {(u,v,g), (v,u,-g)}.

    Non-loops are oriented tail-before-head in ``order``; loops flip so the
    first nonzero gain entry is positive.  Idempotent; an end that is not in
    ``order``, at a loop too, raises KeyError.
    """
    index = {v: i for i, v in enumerate(order)}
    gain = _gain_tuple(gain)
    t = index[tail]
    [key] = _edge_keys([t], [index[head]], [gain], len(gain))
    if key is None:
        raise ZeroLoop(f"loop at {tail!r} must have a nonzero gain")
    return GainEdge(*((tail, head) if key[0] == t else (head, tail)), key[2])


def _add_row(echelon: dict[int, Sequence[int]], row: Sequence[int]) -> None:
    """Add an integer row to ``echelon``, a fraction-free row echelon form
    over Q that maps each pivot column to the row whose first nonzero entry
    it holds: the row is reduced by the pivot rows in column order, and what
    is left, when nonzero, is divided by its gcd and kept.  The rank is
    ``len(echelon)``."""
    for c in range(len(row)):
        if row[c]:
            top = echelon.get(c)
            if top is None:
                divisor = math.gcd(*row)
                echelon[c] = [x // divisor for x in row]
                return
            a, b = top[c], row[c]
            row = [a * x - b * y for x, y in zip(row, top)]


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

    Connectivity reads the component labels of one union-find pass over
    the edge columns.  The gain rank and the rank condition read one
    weighted union-find pass, which keeps exact potentials and an exact
    echelon of each component's cycle gains and stops once a rank reaches
    d; it runs the first time one of them is asked for.  The weighted
    Laplacians and the equilibrium sums read a grouping of the non-loop
    edges by vertex pair; the covering windows read the gain array.  All of
    these are built on first use, then kept.
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
        keys = _edge_keys(tails, heads, gains, self.dimension)
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

    @cached_property
    def _marking_signs(self) -> np.ndarray:
        """Per edge, int8, the sign its weight may not oppose: 1 at a cable,
        -1 at a strut, 0 at a bar."""
        signs = map({"bar": 0, "cable": 1, "strut": -1}.__getitem__, self._markings)
        return _frozen(np.fromiter(signs, np.int8, self.num_edges))

    @cached_property
    def _key(self) -> tuple:
        """The exact columns, which equality compares and the hash keys on."""
        return (self.dimension, self.vertices, tuple(self.tail_idx.tolist()),
                tuple(self.head_idx.tolist()), self._gains, self._markings)

    def __eq__(self, other) -> bool:
        return isinstance(other, GainGraph) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

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
    def _components(self) -> tuple[list[int], int]:
        """Each vertex's component, numbered by first vertex, and the number
        of components: one union-find pass over the edges.  Each set's root
        is its least vertex and path halving only points a vertex at a lesser
        one, so one scan in vertex order reads each label off the parent's."""
        parent = list(range(self.num_vertices))
        for t, h in zip(self.tail_idx.tolist(), self.head_idx.tolist()):
            while t != (p := parent[t]):
                parent[t] = t = parent[p]
            while h != (p := parent[h]):
                parent[h] = h = parent[p]
            if t < h:
                parent[h] = t
            else:
                parent[t] = h
        component, count = parent, 0
        for v, p in enumerate(parent):
            if p == v:
                component[v], count = count, count + 1
            else:
                component[v] = component[p]
        return component, count

    @cached_property
    def _gain_ranks(self) -> tuple[int, int]:
        """The largest exact rank of one component's cycle gains, and the
        rank of all cycle gains stacked: one weighted union-find pass.

        Each vertex keeps its potential offset phi(v) - phi(parent), where
        phi(head) = phi(tail) + g along the edges that join two sets.  An
        edge tail -> head inside one set closes a cycle of gain
        phi(tail) + g - phi(head), which goes into that set's echelon; when
        two sets join, their echelons join.  A gain vector x travels packed
        into the integer sum_i x_i 2^(k i): every offset and cycle gain has
        entries under 2 |V| max|g| < 2^(k-1) in size, so sums stay exact and
        the balanced digits come back.  Ranks are at most d, so the pass
        stops once one set's echelon reaches d.
        """
        d, n = self.dimension, self.num_vertices
        most = int(np.abs(self.gain_array).max(initial=0.0))
        k = most.bit_length() + n.bit_length() + 2
        if most < 2**53 and k * d < 63:  # exact float gains, and int64 sums
            packed = (self.gain_array.astype(np.int64) @ (1 << k * np.arange(d))).tolist()
        else:
            packed = [sum(x << k * i for i, x in enumerate(g)) for g in self._gains]
        base, half = 1 << k, 1 << k - 1
        parent, offset, echelons = list(range(n)), [0] * n, {}
        for t, h, x in zip(self.tail_idx.tolist(), self.head_idx.tolist(), packed):
            while t != (p := parent[t]):  # x += phi(t) - phi(root), halving the path
                offset[t] += offset[p]
                parent[t] = q = parent[p]
                x += offset[t]
                t = q
            while h != (p := parent[h]):
                offset[h] += offset[p]
                parent[h] = q = parent[p]
                x -= offset[h]
                h = q
            if t != h:
                parent[h], offset[h] = t, x
                if h not in echelons:
                    continue
                rows = echelons.pop(h).values()
            elif x:
                row = []
                for _ in range(d):
                    x, digit = divmod(x + half, base)
                    row.append(digit - half)
                rows = [row]
            else:
                continue
            echelon = echelons.setdefault(t, {})
            for row in rows:
                _add_row(echelon, row)
            if len(echelon) == d:
                return d, d
        stacked: dict = {}
        for row in itertools.chain.from_iterable(e.values() for e in echelons.values()):
            _add_row(stacked, row)
        return max(map(len, echelons.values()), default=0), len(stacked)

    def components(self) -> list[list[Vertex]]:
        """Connected components, each listing its vertices in graph order."""
        component, count = self._components
        comps: list[list[Vertex]] = [[] for _ in range(count)]
        for v, c in zip(self.vertices, component):
            comps[c].append(v)
        return comps

    def is_connected(self) -> bool:
        return self._components[1] == 1

    def gain_rank(self) -> int:
        """Rank of the gain group, maximised over connected components."""
        return self._gain_ranks[0]

    def full_rank_condition(self) -> tuple[bool, int]:
        """Check connected + gain rank d through the exact rank of I_zd.

        The edges that join two sets in the walk form a spanning forest.
        Shifting each vertex column by its potential times the gain columns
        turns every forest row into a plain incidence row and
        every other row into its cycle gain, so
        rank I_zd = (|V| - #components) + rank of all cycle gains stacked.
        The stacked rank is at most d, so rank I_zd = |V|-1+d exactly when the
        graph is connected with gain rank d.
        """
        count = self._components[1]
        rank = self.num_vertices - count + self._gain_ranks[1]
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
