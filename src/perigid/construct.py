"""Finite-to-periodic construction and the built-in fixture catalog.

A finite framework with d chosen vertex pairs rolls up into a gain graph: each
pair's difference vector becomes a lattice column and the paired vertices are
identified, with gains recording which cell boundary each edge crosses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DependentLatticeVectors,
    PairConditionViolated,
    ShapeMismatch,
)
from .framework import Realization, _non_flat
from .gain import MARKINGS, GainEdge, GainGraph, Vertex
from .stress import weighted_laplacians
from .tolerances import DEFAULT_TOL, ToleranceVault

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class FiniteFramework:
    """Simple finite graph with positions and cable/strut/bar markings."""

    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[Vertex, Vertex], ...]
    points: dict
    markings: tuple[str, ...]

    def __post_init__(self) -> None:
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError("finite frameworks have no loops")
            key = frozenset((u, v))
            if key in seen:
                raise ValueError(f"parallel edge {u!r}-{v!r}")
            seen.add(key)
        if len(self.markings) != len(self.edges):
            raise ValueError("need one marking per edge")
        for marking in self.markings:
            if marking not in MARKINGS:
                raise ValueError(f"marking must be one of {MARKINGS}, got {marking!r}")
        dims = {np.asarray(self.points[v]).size for v in self.vertices}
        if len(dims) != 1:
            raise ValueError("inconsistent point dimensions")

    @property
    def dimension(self) -> int:
        return int(np.asarray(self.points[self.vertices[0]]).size)

    def weighted_laplacian(self, weights) -> np.ndarray:
        """Classical stress matrix I(G)^T diag(w) I(G) of the finite graph."""
        w = np.asarray(weights, dtype=float).reshape(-1)
        index = {v: i for i, v in enumerate(self.vertices)}
        inc = np.zeros((len(self.edges), len(self.vertices)))
        for row, (u, v) in enumerate(self.edges):
            inc[row, index[u]] = -1.0
            inc[row, index[v]] = 1.0
        return inc.T @ (w[:, None] * inc)

    def equilibrium_residual(self, weights) -> float:
        """Max force-balance residual: P L(G,w) should vanish."""
        w = np.asarray(weights, dtype=float).reshape(-1)
        P = np.column_stack([np.asarray(self.points[v], dtype=float) for v in self.vertices])
        return float(np.abs(P @ self.weighted_laplacian(w)).max())


@dataclass(frozen=True)
class PeriodicQuotient:
    """Output of the finite-to-periodic construction."""

    graph: GainGraph
    realization: Realization


def finite_to_periodic(
    finite: FiniteFramework, pairs: Sequence[tuple[Vertex, Vertex]]
) -> PeriodicQuotient:
    """Roll a finite framework up into a gain graph along d vertex pairs.

    Pair tails may repeat but no tail may equal any head and heads must be
    distinct; the head-minus-tail difference vectors become the lattice
    columns and must be linearly independent.
    """
    d = finite.dimension
    if len(pairs) != d:
        raise PairConditionViolated(f"need exactly {d} vertex pairs")
    tails = [u for u, _ in pairs]
    heads = [v for _, v in pairs]
    if len(set(heads)) != len(heads):
        raise PairConditionViolated("pair heads v_i must be pairwise distinct")
    if set(tails) & set(heads):
        raise PairConditionViolated("pair tails u_i must avoid every head v_j")
    for u, v in pairs:
        if u not in finite.points or v not in finite.points:
            raise PairConditionViolated(f"pair ({u!r}, {v!r}) references unknown vertices")

    columns = np.column_stack(
        [np.asarray(finite.points[v], dtype=float) - np.asarray(finite.points[u], dtype=float) for u, v in pairs]
    )
    if not _non_flat(columns, DEFAULT_TOL):
        raise DependentLatticeVectors("pair difference vectors are linearly dependent")

    head_index = {v: i for i, v in enumerate(heads)}
    merged = {v: u for u, v in pairs}
    # row i is e_i and the last row, index -1, is zero: an end that heads no pair adds nothing
    unit = np.eye(d + 1, d, dtype=int)

    gained = []
    for (a, b), marking in zip(finite.edges, finite.markings):
        i, j = head_index.get(a, -1), head_index.get(b, -1)
        if i > j:  # orient each edge towards its larger pair index
            a, b, i, j = b, a, j, i
        gain = tuple((unit[j] - unit[i]).tolist())
        gained.append(GainEdge(merged.get(a, a), merged.get(b, b), gain, marking))

    surviving = tuple(v for v in finite.vertices if v not in head_index)
    graph = GainGraph(d, surviving, gained)
    points = {v: np.asarray(finite.points[v], dtype=float) for v in surviving}
    return PeriodicQuotient(graph, Realization(points, columns))


def conjugation_identity_check(
    finite: FiniteFramework,
    weights,
    pairs: Sequence[tuple[Vertex, Vertex]],
    tol: Optional[ToleranceVault] = None,
) -> float:
    """Residual of the row-operation conjugation tying the two stress matrices.

    tau subtracts lattice row i from the row of each pair tail's surviving
    image; rho reindexes to the finite vertex order with each pair head at its
    original slot.  Returns the max-entry residual of
    L(F,w) - rho tau Lzd(G,w) tau^T rho^T.
    """
    quotient = finite_to_periodic(finite, pairs)
    graph = quotient.graph
    d = graph.dimension
    n_quot = graph.num_vertices
    size = n_quot + d
    if size != len(finite.vertices):
        raise ShapeMismatch("identified vertex count does not match lattice rank")
    lap_zd = weighted_laplacians(graph, weights).zd_laplacian

    tau = np.eye(size)
    for i, (u, _) in enumerate(pairs):
        tau[graph.vertex_index(u), n_quot + i] = -1.0

    rho = np.zeros((size, size))
    head_index = {v: i for i, (_, v) in enumerate(pairs)}
    for slot, vertex in enumerate(finite.vertices):
        if vertex in head_index:
            rho[slot, n_quot + head_index[vertex]] = 1.0
        else:
            rho[slot, graph.vertex_index(vertex)] = 1.0

    reconstructed = rho @ tau @ lap_zd @ tau.T @ rho.T
    return float(np.abs(finite.weighted_laplacian(weights) - reconstructed).max())


@dataclass(frozen=True)
class Fixture:
    """A named worked example: graph, realization, distinguished stress."""

    name: str
    graph: GainGraph
    realization: Realization
    stress: np.ndarray
    description: str
    finite: Optional[FiniteFramework] = None
    finite_stress: Optional[np.ndarray] = None
    pairs: Optional[tuple] = None


def _flex1() -> Fixture:
    graph = GainGraph(
        2,
        ("v1",),
        [
            ("v1", "v1", (1, 0)),
            ("v1", "v1", (0, 1)),
            ("v1", "v1", (1, 1)),
            ("v1", "v1", (-1, 1)),
        ],
    )
    real = Realization({"v1": (0.0, 0.0)}, np.eye(2))
    return Fixture(
        "flex1",
        graph,
        real,
        np.array([-2.0, -2.0, 1.0, 1.0]),
        "single vertex orbit, four loops, zero stress matrix",
    )


def _flex2() -> Fixture:
    graph = GainGraph(
        2,
        ("v1", "v2"),
        [
            ("v1", "v2", (0, 0)),
            ("v1", "v2", (-1, 0)),
            ("v1", "v1", (0, 1)),
            ("v1", "v1", (1, 1)),
            ("v1", "v1", (-1, 1)),
        ],
    )
    real = Realization({"v1": (0.0, 0.0), "v2": (0.5, 0.0)}, np.eye(2))
    return Fixture(
        "flex2",
        graph,
        real,
        np.array([4.0, 4.0, 2.0, -1.0, -1.0]),
        "two vertex orbits with a rank-one PSD stress matrix",
    )


def _hex() -> Fixture:
    vertices = tuple(f"v{k}" for k in range(1, 7))
    # Unit hexagon at angles (k-1)*60 degrees, coordinates as exact doubles.
    half_rt3 = 0.5 * SQRT3
    points = {
        "v1": (1.0, 0.0),
        "v2": (0.5, half_rt3),
        "v3": (-0.5, half_rt3),
        "v4": (-1.0, 0.0),
        "v5": (-0.5, -half_rt3),
        "v6": (0.5, -half_rt3),
    }
    edges = [
        ("v1", "v2", (0, 0)),
        ("v2", "v3", (0, 0)),
        ("v3", "v4", (0, 0)),
        ("v4", "v5", (0, 0)),
        ("v5", "v6", (0, 0)),
        ("v6", "v1", (0, 0)),
        ("v1", "v4", (1, 0)),
        ("v2", "v5", (0, 1)),
        ("v3", "v6", (-1, 1)),
    ]
    lattice = np.array([[3.0, 1.5], [0.0, 1.5 * SQRT3]])
    return Fixture(
        "hex",
        GainGraph(2, vertices, edges),
        Realization(points, lattice),
        np.ones(9),
        "graphene: hexagon ring with three gained chords, all-ones stress",
    )


def _octagon_finite() -> tuple[FiniteFramework, np.ndarray, tuple]:
    vertices = tuple(str(k) for k in range(8))
    # Regular octagon at angles pi + k*pi/4, coordinates as exact doubles.
    c = SQRT2 / 2.0
    points = {
        "0": (-1.0, 0.0),
        "1": (-c, -c),
        "2": (0.0, -1.0),
        "3": (c, -c),
        "4": (1.0, 0.0),
        "5": (c, c),
        "6": (0.0, 1.0),
        "7": (-c, c),
    }
    rim = [(str(k), str((k + 1) % 8)) for k in range(8)]
    diagonals = [("0", "3"), ("4", "7"), ("1", "6"), ("2", "5")]
    markings = ("cable",) * 8 + ("strut",) * 4
    finite = FiniteFramework(vertices, tuple(rim + diagonals), points, markings)
    stress = np.array(
        [2 + SQRT2, SQRT2 + 1] * 4 + [-1.0, -1.0, -1.0, -1.0]
    )
    pairs = (("0", "4"), ("2", "6"))
    return finite, stress, pairs


def _octagon() -> Fixture:
    finite, stress, pairs = _octagon_finite()
    quotient = finite_to_periodic(finite, pairs)
    return Fixture(
        "octagon",
        quotient.graph,
        quotient.realization,
        stress,
        "rolled-up super stable octagon tensegrity (rim cables, strut diagonals)",
        finite=finite,
        finite_stress=stress,
        pairs=pairs,
    )


def fixtures() -> dict[str, Fixture]:
    """Catalog of the built-in worked examples."""
    out = {}
    for build in (_flex1, _flex2, _hex, _octagon):
        fix = build()
        out[fix.name] = fix
    return out
