"""Seeded input generator for the perigid benchmark.

Everything here is plain numpy: perigid only ever sees the JSON files this
module writes.  A framework is kept in the benchmark's own array form,

    {"d": int, "names": [str], "tail": int[E], "head": int[E],
     "gain": int[E, d], "weight": float[E] | None,
     "points": float[n, d] | None, "lattice": float[d, d] | None,
     "lam": float | None, "type": str}

and turned into a perigid document only by :func:`to_document`.
"""

from __future__ import annotations

import math

import numpy as np

GAIN_VALUES = (-1, 0, 1)


def _class_key(t: int, h: int, g) -> tuple:
    """Edge class under (u, v, g) ~ (v, u, -g); loops keep a sign-normalised gain."""
    g = tuple(int(x) for x in g)
    if t == h:
        first = next(x for x in g if x)
        return (t, t, g if first > 0 else tuple(-x for x in g))
    if t < h:
        return (t, h, g)
    return (h, t, tuple(-x for x in g))


class _EdgeSet:
    def __init__(self, d: int):
        self.d = d
        self.tail: list[int] = []
        self.head: list[int] = []
        self.gain: list[tuple] = []
        self._seen: set = set()

    def add(self, t: int, h: int, g) -> bool:
        g = tuple(int(x) for x in g)
        if t == h and not any(g):
            return False
        key = _class_key(t, h, g)
        if key in self._seen:
            return False
        self._seen.add(key)
        self.tail.append(t)
        self.head.append(h)
        self.gain.append(g)
        return True

    def __len__(self) -> int:
        return len(self.tail)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.array(self.tail, dtype=np.int64),
            np.array(self.head, dtype=np.int64),
            np.array(self.gain, dtype=np.int64).reshape(-1, self.d),
        )


def _random_gain(rng: np.random.Generator, d: int) -> tuple:
    return tuple(int(x) for x in rng.choice(GAIN_VALUES, size=d))


def _graph(d: int, n: int, es: _EdgeSet, prefix: str = "v") -> dict:
    tail, head, gain = es.arrays()
    return {
        "d": d,
        "names": [f"{prefix}{i}" for i in range(n)],
        "tail": tail,
        "head": head,
        "gain": gain,
        "weight": None,
        "points": None,
        "lattice": None,
        "lam": None,
        "type": "bar",
    }


def out_degree_graph(rng: np.random.Generator, d: int, n: int, out: int) -> dict:
    """Every vertex sends ``out`` edges with random heads and random gains."""
    es = _EdgeSet(d)
    for t in range(n):
        sent = 0
        while sent < out:
            h = int(rng.integers(n))
            if h != t and es.add(t, h, _random_gain(rng, d)):
                sent += 1
    return _graph(d, n, es)


def sparse_graph(rng: np.random.Generator, d: int, n: int, num_edges: int) -> dict:
    """Random spanning tree plus random chords, ``num_edges`` edges in total."""
    es = _EdgeSet(d)
    order = rng.permutation(n)
    for k in range(1, n):
        parent = int(order[int(rng.integers(k))])
        es.add(parent, int(order[k]), _random_gain(rng, d))
    while len(es) < num_edges:
        t, h = (int(x) for x in rng.integers(n, size=2))
        if t != h:
            es.add(t, h, _random_gain(rng, d))
    return _graph(d, n, es)


def cable_graph(rng: np.random.Generator, d: int, n: int, chords_per_vertex: int) -> dict:
    """Connected gain graph of gain rank d by construction.

    A zero-gain Hamiltonian path v0 - v1 - ... - v(n-1) is closed by d edges
    v(n-1) -> v0 with gains e_1..e_d, so the d cycles through the path carry
    the unit gains.  Then ``chords_per_vertex * n`` chords between random
    vertices, with random gains.
    """
    es = _EdgeSet(d)
    for k in range(1, n):
        es.add(k - 1, k, (0,) * d)
    for i in range(d):
        unit = [0] * d
        unit[i] = 1
        es.add(n - 1, 0, unit)
    target = len(es) + chords_per_vertex * n
    while len(es) < target:
        t, h = (int(x) for x in rng.integers(n, size=2))
        if t != h:
            es.add(t, h, _random_gain(rng, d))
    return _graph(d, n, es)


def zd_laplacian(g: dict, weights: np.ndarray) -> np.ndarray:
    """Lattice-extended weighted Laplacian, assembled edge by edge."""
    d, n = g["d"], len(g["names"])
    lap = np.zeros((n + d, n + d))
    for t, h, gain, w in zip(g["tail"], g["head"], g["gain"], weights):
        row = np.zeros(n + d)
        if t != h:
            row[t] -= 1.0
            row[h] += 1.0
        row[n:] = gain
        nz = np.flatnonzero(row)
        lap[np.ix_(nz, nz)] += w * np.outer(row[nz], row[nz])
    return lap


def place_at_standard_realization(g: dict) -> None:
    """Put a positively stressed framework at its unit-volume energy minimiser.

    With vertex v0 pinned at the origin, force balance at the other vertices
    gives P' = -L B'^T A'^-1; the energy is then tr(L S L^T) with the Schur
    complement S = C - B'^T A'^-1 B', minimised under det L = 1 by
    L = det(S)^(1/2d) S^(-1/2), with multiplier lambda = det(S)^(1/d).
    """
    d, n = g["d"], len(g["names"])
    lap = zd_laplacian(g, g["weight"])
    a = lap[1:n, 1:n]
    b = lap[1:n, n:]
    c = lap[n:, n:]
    a_inv_b = np.linalg.solve(a, b)
    schur = c - b.T @ a_inv_b
    schur = 0.5 * (schur + schur.T)
    vals, vecs = np.linalg.eigh(schur)
    det_s = float(np.prod(vals))
    lattice = det_s ** (1.0 / (2 * d)) * (vecs @ np.diag(vals ** -0.5) @ vecs.T)
    rest = -(lattice @ a_inv_b.T)  # d x (n-1)
    points = np.zeros((n, d))
    points[1:] = rest.T
    g["points"] = points
    g["lattice"] = lattice
    g["lam"] = det_s ** (1.0 / d)


def cable_framework(rng: np.random.Generator, d: int, n: int, chords_per_vertex: int) -> dict:
    """All-cable framework with positive stress, at its standard realization."""
    g = cable_graph(rng, d, n, chords_per_vertex)
    g["weight"] = rng.uniform(0.5, 1.5, size=len(g["tail"]))
    g["type"] = "cable"
    place_at_standard_realization(g)
    return g


def switched_copy(rng: np.random.Generator, g: dict, prefix: str = "u") -> dict:
    """Relabel, reorder, reorient and gain-switch a gain graph.

    Vertex v gets a new name and a switching vector mu(v); an edge (t, h, g)
    becomes (t, h, g + mu(h) - mu(t)), possibly written reversed as
    (h, t, -g').  Generic verdicts are invariant under all of it.
    """
    d, n = g["d"], len(g["names"])
    perm = rng.permutation(n)  # old index -> new index
    mu = rng.integers(-2, 3, size=(n, d))
    gain = g["gain"] + mu[g["head"]] - mu[g["tail"]]
    tail, head = perm[g["tail"]], perm[g["head"]]
    flip = rng.random(len(tail)) < 0.5
    flip &= tail != head
    tail, head = np.where(flip, head, tail), np.where(flip, tail, head)
    gain = np.where(flip[:, None], -gain, gain)
    order = rng.permutation(len(tail))
    out = dict(g)
    out["names"] = [f"{prefix}{i}" for i in range(n)]
    out["tail"], out["head"], out["gain"] = tail[order], head[order], gain[order]
    if g["weight"] is not None:
        out["weight"] = g["weight"][order]
    if g["points"] is not None:
        points = np.empty_like(g["points"])
        points[perm] = g["points"]
        out["points"] = points
    return out


def to_document(g: dict) -> dict:
    """The perigid JSON document for a framework in array form."""
    d = g["d"]
    vertices = []
    for i, name in enumerate(g["names"]):
        entry: dict = {"name": name}
        if g["points"] is not None:
            entry["position"] = [float(x) for x in g["points"][i]]
        vertices.append(entry)
    doc: dict = {"dimension": d, "vertices": vertices}
    if g["lattice"] is not None:
        doc["lattice"] = [[float(x) for x in g["lattice"][:, i]] for i in range(d)]
    edges = []
    for k in range(len(g["tail"])):
        entry = {
            "tail": g["names"][int(g["tail"][k])],
            "head": g["names"][int(g["head"][k])],
            "gain": [int(x) for x in g["gain"][k]],
            "type": g["type"],
        }
        if g["weight"] is not None:
            entry["weight"] = float(g["weight"][k])
        edges.append(entry)
    doc["edges"] = edges
    if g["lam"] is not None:
        doc["lambda"] = float(g["lam"])
    return doc


# -- worked examples, written from their definitions -------------------------

def _fixture(d, names, edges, points, lattice, weights) -> dict:
    index = {name: i for i, name in enumerate(names)}
    return {
        "d": d,
        "names": list(names),
        "tail": np.array([index[t] for t, _, _ in edges], dtype=np.int64),
        "head": np.array([index[h] for _, h, _ in edges], dtype=np.int64),
        "gain": np.array([g for _, _, g in edges], dtype=np.int64).reshape(-1, d),
        "weight": np.array(weights, dtype=float),
        "points": np.array(points, dtype=float),
        "lattice": np.array(lattice, dtype=float),
        "lam": None,
        "type": "bar",
    }


def hex_framework() -> dict:
    """Graphene quotient: hexagon ring plus three gained chords, all-ones stress."""
    half_rt3 = 0.5 * math.sqrt(3.0)
    names = [f"v{k}" for k in range(1, 7)]
    points = [(1.0, 0.0), (0.5, half_rt3), (-0.5, half_rt3),
              (-1.0, 0.0), (-0.5, -half_rt3), (0.5, -half_rt3)]
    edges = [("v1", "v2", (0, 0)), ("v2", "v3", (0, 0)), ("v3", "v4", (0, 0)),
             ("v4", "v5", (0, 0)), ("v5", "v6", (0, 0)), ("v6", "v1", (0, 0)),
             ("v1", "v4", (1, 0)), ("v2", "v5", (0, 1)), ("v3", "v6", (-1, 1))]
    lattice = [[3.0, 1.5], [0.0, 1.5 * math.sqrt(3.0)]]
    return _fixture(2, names, edges, points, lattice, [1.0] * 9)


def flex1_framework() -> dict:
    edges = [("v1", "v1", (1, 0)), ("v1", "v1", (0, 1)),
             ("v1", "v1", (1, 1)), ("v1", "v1", (-1, 1))]
    return _fixture(2, ["v1"], edges, [(0.0, 0.0)], np.eye(2), [-2.0, -2.0, 1.0, 1.0])


def flex2_framework() -> dict:
    edges = [("v1", "v2", (0, 0)), ("v1", "v2", (-1, 0)), ("v1", "v1", (0, 1)),
             ("v1", "v1", (1, 1)), ("v1", "v1", (-1, 1))]
    return _fixture(2, ["v1", "v2"], edges, [(0.0, 0.0), (0.5, 0.0)], np.eye(2),
                    [4.0, 4.0, 2.0, -1.0, -1.0])


def octagon_finite() -> tuple[dict, list]:
    """Regular octagon tensegrity (rim cables, strut diagonals) and its roll-up pairs."""
    c = math.sqrt(2.0) / 2.0
    points = [(-1.0, 0.0), (-c, -c), (0.0, -1.0), (c, -c),
              (1.0, 0.0), (c, c), (0.0, 1.0), (-c, c)]
    rim = [(k, (k + 1) % 8) for k in range(8)]
    diagonals = [(0, 3), (4, 7), (1, 6), (2, 5)]
    r2 = math.sqrt(2.0)
    doc = {
        "dimension": 2,
        "vertices": [{"name": str(k), "position": list(p)} for k, p in enumerate(points)],
        "edges": [
            {"tail": str(a), "head": str(b), "type": kind, "weight": w}
            for (a, b), kind, w in zip(
                rim + diagonals,
                ["cable"] * 8 + ["strut"] * 4,
                [2 + r2, r2 + 1] * 4 + [-1.0] * 4,
            )
        ],
    }
    return doc, [("0", "4"), ("2", "6")]


def grid_finite(rng: np.random.Generator, k: int) -> tuple[dict, list]:
    """Jittered k x k triangulated grid, rolled up along its two side pairs.

    The pairs join (0, j) to (k-1, j) for one j and (i, 0) to (i, k-1) for
    one i, with every pair head distinct and no head used as a tail.
    """
    def name(i: int, j: int) -> str:
        return f"g{i}_{j}"

    jitter = rng.uniform(-0.1, 0.1, size=(k, k, 2))
    vertices = [
        {"name": name(i, j), "position": [float(i + jitter[i, j, 0]), float(j + jitter[i, j, 1])]}
        for i in range(k)
        for j in range(k)
    ]
    edges = []
    for i in range(k):
        for j in range(k):
            for di, dj in ((1, 0), (0, 1), (1, 1)):
                if i + di < k and j + dj < k:
                    edges.append({"tail": name(i, j), "head": name(i + di, j + dj), "type": "bar"})
    doc = {"dimension": 2, "vertices": vertices, "edges": edges}
    pairs = [(name(0, 1), name(k - 1, 1)), (name(1, 0), name(1, k - 1))]
    return doc, pairs


def bad_gain_hex(gain) -> dict:
    """The hex example with edge 6 (v1 -> v4, 0-based) given another gain."""
    doc = to_document(hex_framework())
    doc["edges"][6]["gain"] = [int(x) for x in gain]  # may exceed int64
    return doc


def nan_position_hex() -> dict:
    doc = to_document(hex_framework())
    doc["vertices"][0]["position"][0] = float("nan")
    return doc
