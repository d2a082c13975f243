"""Fixed interaction graphs over which agents exchange actions.

A graph is stored once, in compressed sparse row (CSR) form with read-only
arrays (see :class:`Graph`); a complete graph is stored as its agent count
and answers every query in closed form, and a square lattice is stored as its
side and answers every query on its grid.  Graphs are immutable: the dynamics
assume a fixed interaction structure, and immutability makes graphs safe to
share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


def _check_count(name: str, value, lo: int) -> None:
    """Reject a count that is not an int of at least ``lo``; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < lo:
        bound = "nonnegative" if lo == 0 else "positive" if lo == 1 else f"at least {lo}"
        raise ValueError(f"{name} must be {bound}, got {value}")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class Graph:
    """Interaction graph with per-agent in-neighborhoods, in CSR form.

    ``indices[indptr[i]:indptr[i + 1]]`` lists the agents that influence
    agent i, strictly ascending for reproducible iteration order.  Both
    arrays must hold integers; they are stored as read-only int64 copies.
    Every agent needs a neighbor, as the opinion update divides by the
    neighborhood size; an undirected graph lists every pair both ways.
    No other module reads the CSR arrays: the run loop takes neighbor averages
    from :meth:`neighbor_mean`, the cluster analysis :meth:`count_equal`,
    :meth:`components` and :attr:`degrees`, and the benchmark
    :attr:`n_edges`.  A square lattice answers all five on its grid (see
    :func:`square_lattice`), and a complete graph in closed form (see
    :func:`complete_graph`); each builds its CSR arrays only when read.
    """

    n_agents: int
    indptr: np.ndarray
    indices: np.ndarray
    directed: bool = False

    def __post_init__(self):
        n = self.n_agents
        _check_count("n_agents", n, 1)
        for name in ("indptr", "indices"):  # a float or a bool raises, not truncates
            array = np.asarray(getattr(self, name))
            if array.dtype.kind in "uO":  # past int64, a uint64 wraps and an int reads as object
                for v in array.ravel().tolist():
                    if type(v) is int and not -2**63 <= v < 2**63:
                        raise ValueError(f"{name} holds {v}, outside the int64 range")
            if array.size and array.dtype.kind not in "iu":  # an empty list reads as float64
                raise ValueError(f"{name} must hold integers, got dtype {array.dtype}")
            object.__setattr__(self, name, _read_only(array.astype(np.int64)))
        indptr, indices = self.indptr, self.indices
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
        return _read_only(self.indptr[1:] - self.indptr[:-1])

    def neighbor_mean(self, q: np.ndarray) -> np.ndarray:
        """In-neighbor mean of +-1 int actions ``q`` [N], or of each row of ``q`` [P, N] alike."""
        return np.add.reduceat(np.take(q, self.indices, axis=-1), self._row_starts, axis=-1,
                               dtype=np.int64) / self.degrees  # take: 1.2-2x faster than q[..., i]

    def count_equal(self, labels: np.ndarray) -> np.ndarray:
        """For each agent, how many of its in-neighbors share its entry of ``labels``."""
        same = labels[self.indices] == np.repeat(labels, self.degrees)
        return np.add.reduceat(same, self._row_starts, dtype=np.int64)

    def components(self, labels: np.ndarray) -> np.ndarray:
        """For each agent, the smallest agent it reaches over equal-label edges either way."""
        rows = np.repeat(np.arange(self.n_agents), self.degrees)
        same = labels[self.indices] == labels[rows]
        return _hook_and_compress(self.n_agents, rows[same], self.indices[same])

    @cached_property
    def _row_starts(self) -> np.ndarray:
        """Writable ``indptr[:-1]``: ``reduceat`` copies a read-only index array per call."""
        return self.indptr[:-1].copy()

    @property
    def n_edges(self) -> int:
        """Number of directed edges (ordered influence pairs)."""
        return int(self.indices.size)


def _hook_and_compress(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each of ``n`` agents, the smallest agent it reaches over the edges a[k] -- b[k].

    Hook-and-compress (Shiloach & Vishkin, J. Algorithms 3, 1982): each round
    hooks every root under the smallest root an edge leads to, then jumps
    pointers to the roots.  A root hooks only under a smaller one.
    """
    root = np.arange(n)
    while a.size:
        ra, rb = root[a], root[b]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while (root[root] != root).any():
            root = root[root]
        a, b = a[ra != rb], b[ra != rb]  # an edge inside one tree stays inside
    return root


def _from_edges(n: int, src: np.ndarray, dst: np.ndarray, directed: bool) -> Graph:
    """Graph on ``n`` agents from the pairs "src[k] influences dst[k]".

    An undirected graph also gets every reversed pair.  Repeated pairs are
    merged.  ``src`` and ``dst`` are int64 arrays of agents in [0, n).
    """
    if not directed:
        src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
    # one key per distinct pair, ordered by row (dst) and then by neighbor (src)
    keys = np.unique(dst * n + src)
    rows, indices = np.divmod(keys, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return Graph(n_agents=n, indptr=indptr, indices=indices, directed=directed)


class _CompleteGraph(Graph):
    """The all-to-all graph on ``n_agents`` agents, held as its agent count.

    Every agent hears the other n - 1, so each query has a closed form in
    O(n): the neighbor mean is (S - q) / (n - 1) with S the sum of a row of
    actions, and the agents sharing a label form one group, found by one
    ``np.unique`` call; ``equal_nan=False`` leaves each NaN alone, as ``==``
    between neighbors does.  Sums of +-1 actions are exact integers, so the
    mean has the bits of the CSR sums.  ``indptr`` and ``indices`` are built,
    read-only, on first read; no query reads them.
    """

    def __init__(self, n_agents: int):
        object.__setattr__(self, "n_agents", n_agents)

    def __repr__(self) -> str:  # the dataclass repr would build both arrays
        return f"complete_graph({self.n_agents})"

    @cached_property
    def indptr(self) -> np.ndarray:
        return _read_only(np.arange(self.n_agents + 1, dtype=np.int64) * (self.n_agents - 1))

    @cached_property
    def indices(self) -> np.ndarray:  # row by row, ascending
        return _read_only(np.nonzero(~np.eye(self.n_agents, dtype=bool))[1])

    @cached_property
    def degrees(self) -> np.ndarray:
        return _read_only(np.full(self.n_agents, self.n_agents - 1, dtype=np.int64))

    @property
    def n_edges(self) -> int:
        return self.n_agents * (self.n_agents - 1)

    def neighbor_mean(self, q: np.ndarray) -> np.ndarray:
        return (q.sum(axis=-1, keepdims=True) - q) / (self.n_agents - 1)

    def count_equal(self, labels: np.ndarray) -> np.ndarray:
        _, group, sizes = np.unique(labels, return_inverse=True, return_counts=True,
                                    equal_nan=False)
        return sizes[group] - 1

    def components(self, labels: np.ndarray) -> np.ndarray:
        _, first, group = np.unique(labels, return_index=True, return_inverse=True,
                                    equal_nan=False)
        return first[group]


def complete_graph(n: int) -> Graph:
    """All-to-all undirected graph on ``n`` agents, stored without edges.

    Requires n >= 2 so that every agent has a neighbor.
    """
    _check_count("n", n, 2)
    return _CompleteGraph(n)


class _SquareLattice(Graph):
    """The side x side lattice, held as its side; each query reads a side x side grid.

    Neighbor sums add four shifted views of the zero-padded grid, exact integers
    with the bits of CSR's; label queries find each equal-label edge once.  The
    CSR arrays are built, and checked by :class:`Graph`, on first read only.
    """

    def __init__(self, side: int):
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "n_agents", side * side)

    def __repr__(self) -> str:  # the dataclass repr would build both arrays
        return f"square_lattice({self.side})"

    @cached_property
    def _csr(self) -> Graph:  # under one label everywhere, every edge joins equal labels
        return _from_edges(self.n_agents, *self._equal_edges(np.zeros(self.n_agents)), False)

    indptr = cached_property(lambda self: self._csr.indptr)
    indices = cached_property(lambda self: self._csr.indices)

    @cached_property
    def degrees(self) -> np.ndarray:
        return _read_only(self.count_equal(np.zeros(self.n_agents)))

    @property
    def n_edges(self) -> int:
        return 4 * self.side * (self.side - 1)

    def _equal_edges(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ends a, b of every edge whose two agents share a label, each edge once."""
        side = self.side
        grid = np.asarray(labels).reshape(side, side)
        right = np.flatnonzero(grid[:, :-1] == grid[:, 1:])
        right += right // (side - 1)  # from a [side, side - 1] index to an agent
        down = np.flatnonzero(grid[:-1] == grid[1:])
        return np.concatenate((right, down)), np.concatenate((right + 1, down + side))

    def neighbor_mean(self, q: np.ndarray) -> np.ndarray:
        side = self.side
        grid = np.zeros(q.shape[:-1] + (side + 2, side + 2), dtype=np.int64)
        grid[..., 1:-1, 1:-1] = q.reshape(q.shape[:-1] + (side, side))
        total = grid[..., :-2, 1:-1] + grid[..., 2:, 1:-1]
        total += grid[..., 1:-1, :-2]
        total += grid[..., 1:-1, 2:]
        return (total / self.degrees.reshape(side, side)).reshape(q.shape)

    def count_equal(self, labels: np.ndarray) -> np.ndarray:
        return np.bincount(np.concatenate(self._equal_edges(labels)), minlength=self.n_agents)

    def components(self, labels: np.ndarray) -> np.ndarray:
        return _hook_and_compress(self.n_agents, *self._equal_edges(labels))


def square_lattice(side: int) -> Graph:
    """side x side grid, 4-neighborhood (up/down/left/right), no wraparound.

    Corner agents have 2 neighbors, border agents 3, interior agents 4.
    Agent (r, c) has index ``r * side + c``.
    """
    _check_count("side", side, 2)
    return _SquareLattice(int(side))


def random_graph(n: int, edge_prob: float, seed: int) -> Graph:
    """Undirected Erdos-Renyi style graph, deterministic for a fixed seed.

    Isolated vertices are repaired by attaching each to one uniformly
    chosen other vertex, so the result is always legal for the dynamics
    (minimum degree 1) without rejection sampling.
    """
    _check_count("n", n, 2)
    _check_count("seed", seed, 0)
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
