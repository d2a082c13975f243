"""Fixed interaction graphs over which agents exchange actions.

A graph is stored once, in compressed sparse row (CSR) form with read-only
arrays (see :class:`Graph`), so it is immutable once built: the dynamics
assume a fixed interaction structure, and immutability makes graphs safely
shareable across concurrent simulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


@dataclass(frozen=True, eq=False)
class Graph:
    """Interaction graph with per-agent in-neighborhoods, in CSR form.

    ``indices[indptr[i]:indptr[i + 1]]`` lists the agents that influence
    agent i, strictly ascending for reproducible iteration order.  Both
    arrays are stored as read-only int64 copies.  Every agent must have at
    least one neighbor because the opinion update divides by the
    neighborhood size; an undirected graph lists every pair both ways.
    No other module reads the CSR arrays: the run loop takes neighbor averages
    from :meth:`neighbor_mean`, and the cluster analysis :meth:`count_equal`
    and :meth:`components`.
    """

    n_agents: int
    indptr: np.ndarray
    indices: np.ndarray
    directed: bool = False

    def __post_init__(self):
        n = self.n_agents
        if n < 1:
            raise ValueError(f"graph needs at least one agent, got {n}")
        indptr = np.array(self.indptr, dtype=np.int64)
        indices = np.array(self.indices, dtype=np.int64)
        indptr.flags.writeable = indices.flags.writeable = False
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        if indices.ndim != 1 or indptr.shape != (n + 1,) or indptr[0] != 0 \
                or indptr[-1] != indices.size:
            raise ValueError(f"indptr must hold {n + 1} offsets from 0 to {indices.size}")
        degrees = indptr[1:] - indptr[:-1]
        if (degrees < 1).any():
            raise ValueError(f"agent {np.argmax(degrees < 1)} has no neighbors")
        rows = np.repeat(np.arange(n), degrees)
        bad = (indices < 0) | (indices >= n)
        if bad.any():
            k = np.argmax(bad)
            raise ValueError(f"agent {rows[k]} lists out-of-range neighbor {indices[k]}")
        bad = indices == rows
        if bad.any():
            raise ValueError(f"agent {rows[np.argmax(bad)]} has a self-loop")
        bad = (rows[1:] == rows[:-1]) & (indices[1:] <= indices[:-1])
        if bad.any():
            i = rows[np.argmax(bad)]
            raise ValueError(f"neighbors of agent {i} are not sorted or not distinct")
        if not self.directed:
            keys = rows * n + indices
            reverse = np.sort(indices * n + rows)
            if (keys != reverse).any():
                i, j = divmod(int(np.setdiff1d(keys, reverse)[0]), n)
                raise ValueError(f"undirected graph is asymmetric: {j} -> {i} but not {i} -> {j}")

    @cached_property
    def degrees(self) -> np.ndarray:
        """In-degree n_i of every agent (read-only)."""
        degrees = self.indptr[1:] - self.indptr[:-1]
        degrees.flags.writeable = False
        return degrees

    def neighbor_mean(self, q: np.ndarray) -> np.ndarray:
        """In-neighbor mean of int64 actions ``q`` [N], or of each row of ``q`` [P, N] alike."""
        gathered = q[self.indices] if q.ndim == 1 else q[:, self.indices]
        return np.add.reduceat(gathered, self._row_starts, axis=-1) / self.degrees

    def count_equal(self, labels: np.ndarray) -> np.ndarray:
        """For each agent, how many of its in-neighbors share its entry of ``labels``."""
        same = labels[self.indices] == np.repeat(labels, self.degrees)
        return np.add.reduceat(same, self._row_starts, dtype=np.int64)

    def components(self, labels: np.ndarray) -> np.ndarray:
        """For each agent, the smallest agent it reaches over equal-label edges either way.

        Hook-and-compress (Shiloach & Vishkin, J. Algorithms 3, 1982): each round
        hooks every root under the smallest root an edge leads to, then jumps
        pointers to the roots.  A root hooks only under a smaller one.
        """
        rows = np.repeat(np.arange(self.n_agents), self.degrees)
        same = labels[self.indices] == labels[rows]
        a, b = rows[same], self.indices[same]
        root = np.arange(self.n_agents)
        while a.size:
            ra, rb = root[a], root[b]
            np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
            while (root[root] != root).any():
                root = root[root]
            a, b = a[ra != rb], b[ra != rb]  # an edge inside one tree stays inside
        return root

    @cached_property
    def _row_starts(self) -> np.ndarray:
        """Writable ``indptr[:-1]``: ``reduceat`` copies a read-only index array per call."""
        return self.indptr[:-1].copy()

    @property
    def n_edges(self) -> int:
        """Number of directed edges (ordered influence pairs)."""
        return int(self.indices.size)


def _from_edges(n: int, src: np.ndarray, dst: np.ndarray, directed: bool) -> Graph:
    """Graph on ``n`` agents from the pairs "src[k] influences dst[k]".

    An undirected graph also gets every reversed pair.  Repeated pairs are
    merged.  ``src`` and ``dst`` are int64 arrays of agents in [0, n).
    """
    if not directed:
        src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
    # one key per pair, ordered by row (dst) and then by neighbor (src)
    keys = np.sort(dst * n + src)
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    rows, indices = np.divmod(keys, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return Graph(n_agents=n, indptr=indptr, indices=indices, directed=directed)


def complete_graph(n: int) -> Graph:
    """All-to-all undirected graph on ``n`` agents.

    Requires n >= 2 so that every agent has a neighbor.
    """
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got {n}")
    src, dst = np.nonzero(np.tri(n, k=-1, dtype=bool))  # every pair src > dst
    return _from_edges(n, src, dst, directed=False)


def square_lattice(side: int) -> Graph:
    """side x side grid, 4-neighborhood (up/down/left/right), no wraparound.

    Corner agents have 2 neighbors, border agents 3, interior agents 4.
    Agent (r, c) has index ``r * side + c``.
    """
    if side < 2:
        raise ValueError(f"square lattice needs side >= 2, got {side}")
    idx = np.arange(side * side).reshape(side, side)
    src = np.concatenate((idx[:, :-1].ravel(), idx[:-1, :].ravel()))
    dst = np.concatenate((idx[:, 1:].ravel(), idx[1:, :].ravel()))
    return _from_edges(side * side, src, dst, directed=False)


def random_graph(n: int, edge_prob: float, seed: int) -> Graph:
    """Undirected Erdos-Renyi style graph, deterministic for a fixed seed.

    Isolated vertices are repaired by attaching each to one uniformly
    chosen other vertex, so the result is always legal for the dynamics
    (minimum degree 1) without rejection sampling.
    """
    if n < 2:
        raise ValueError(f"random graph needs n >= 2, got {n}")
    if not 0.0 < edge_prob <= 1.0:
        raise ValueError(f"edge_prob must lie in (0, 1], got {edge_prob}")
    rng = np.random.default_rng(seed)
    # row i draws once for its pairs (i, j > i): the draw order fixes the graph
    hits = [np.flatnonzero(rng.random(n - i - 1) < edge_prob) + (i + 1) for i in range(n)]
    degree = np.array([h.size for h in hits]) + np.bincount(np.concatenate(hits), minlength=n)
    for i in np.flatnonzero(degree == 0).tolist():
        if degree[i] == 0:  # not attached by an earlier repair
            j = int(rng.integers(0, n - 1))
            if j >= i:
                j += 1
            hits[i] = np.array([j])
            degree[j] += 1
    src = np.repeat(np.arange(n), [h.size for h in hits])
    return _from_edges(n, src, np.concatenate(hits), directed=False)


def _int_field(token: str, field: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"line {lineno}: {field} must be an integer, got {token!r}") from None


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    Format: a header line ``N <n> directed=<0|1>`` followed by one
    ``<src> <dst>`` pair per line.  Blank lines and ``#`` comments are
    ignored.  A pair means "src influences dst"; for undirected graphs
    each pair is symmetrized.
    """
    header = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 3 or parts[0] != "N" or not parts[2].startswith("directed="):
                raise ValueError(
                    f"line {lineno}: expected header 'N <n> directed=<0|1>', got {raw!r}"
                )
            n = _int_field(parts[1], "agent count", lineno)
            if n < 1:
                raise ValueError(f"line {lineno}: agent count must be at least 1, got {n}")
            flag = parts[2].removeprefix("directed=")
            if flag not in ("0", "1"):
                raise ValueError(f"line {lineno}: directed flag must be 0 or 1, got {flag!r}")
            header = (lineno, n, flag == "1")
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<src> <dst>', got {raw!r}")
        src, dst = _int_field(parts[0], "src", lineno), _int_field(parts[1], "dst", lineno)
        # checked here: in _from_edges' row-major keys a bad src lands in another row
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"line {lineno}: edge ({src}, {dst}) out of range for {n} agents")
        if src == dst:
            raise ValueError(f"line {lineno}: self-loop on agent {src}")
        edges.append((src, dst))
    if header is None:
        raise ValueError("edge list has no header line")
    header_line, n, directed = header
    # an edge line gives at most two agents a neighbor
    if n > 2 * len(edges):
        raise ValueError(
            f"line {header_line}: {len(edges)} edges leave some of the {n} agents "
            f"with no neighbors"
        )
    src, dst = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    return _from_edges(n, src, dst, directed=directed)


def read_edge_list(path: str | Path) -> Graph:
    """Load a graph from an edge-list file (see :func:`parse_edge_list`)."""
    return parse_edge_list(Path(path).read_text())


# Graph kind -> (generator, the GraphSpec fields it takes in argument order).
# The [graph] section of a config document takes the same fields as keys.
_GRAPH_KINDS = {
    "complete": (complete_graph, ("n",)),
    "lattice": (square_lattice, ("side",)),
    "random": (random_graph, ("n", "edge_prob", "seed")),
    "edgelist": (read_edge_list, ("path",)),
}


@dataclass(frozen=True)
class GraphSpec:
    """Serializable recipe for building a graph (generator name + arguments)."""

    kind: str  # complete | lattice | random | edgelist
    n: int | None = None
    side: int | None = None
    edge_prob: float | None = None
    seed: int | None = None
    path: str | None = None

    def build(self) -> Graph:
        if self.kind not in _GRAPH_KINDS:
            raise ValueError(f"unknown graph kind {self.kind!r}")
        generator, fields = _GRAPH_KINDS[self.kind]
        args = [getattr(self, f) for f in fields]
        if any(a is None for a in args):
            raise ValueError(f"{self.kind} graph spec needs {', '.join(fields)}")
        return generator(*args)
