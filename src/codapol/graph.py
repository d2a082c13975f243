"""Fixed interaction graphs over which agents exchange actions.

A graph is immutable once built: the dynamics assume a fixed interaction
structure, and immutability makes graphs safely shareable across
concurrent simulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Graph:
    """Interaction graph with per-agent in-neighborhoods.

    ``neighbors[i]`` lists the agents that influence agent i, sorted
    ascending for reproducible iteration order.  Every agent must have at
    least one neighbor because the opinion update divides by the
    neighborhood size.
    """

    n_agents: int
    neighbors: tuple[tuple[int, ...], ...]
    directed: bool = False

    def __post_init__(self):
        n = self.n_agents
        if n < 1:
            raise ValueError(f"graph needs at least one agent, got {n}")
        if len(self.neighbors) != n:
            raise ValueError(
                f"neighbor table has {len(self.neighbors)} rows for {n} agents"
            )
        for i, nbrs in enumerate(self.neighbors):
            if len(nbrs) == 0:
                raise ValueError(f"agent {i} has no neighbors")
            if len(set(nbrs)) != len(nbrs):
                raise ValueError(f"agent {i} has duplicate neighbors")
            if list(nbrs) != sorted(nbrs):
                raise ValueError(f"neighbors of agent {i} are not sorted")
            for j in nbrs:
                if not 0 <= j < n:
                    raise ValueError(f"agent {i} lists out-of-range neighbor {j}")
                if j == i:
                    raise ValueError(f"agent {i} has a self-loop")
        if not self.directed:
            nbr_sets = [set(nbrs) for nbrs in self.neighbors]
            for i, nbrs in enumerate(self.neighbors):
                for j in nbrs:
                    if i not in nbr_sets[j]:
                        raise ValueError(
                            f"undirected graph is asymmetric: {j} -> {i} but not {i} -> {j}"
                        )

    @cached_property
    def degrees(self) -> np.ndarray:
        """In-degree n_i of every agent."""
        return np.array([len(nbrs) for nbrs in self.neighbors], dtype=np.int64)

    @cached_property
    def indptr(self) -> np.ndarray:
        """CSR-style offsets into :attr:`flat_neighbors`."""
        out = np.zeros(self.n_agents + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=out[1:])
        return out

    @cached_property
    def flat_neighbors(self) -> np.ndarray:
        """All neighbor lists concatenated, for vectorized neighbor sums."""
        return np.concatenate([np.asarray(nbrs, dtype=np.int64) for nbrs in self.neighbors])

    @property
    def n_edges(self) -> int:
        """Number of directed edges (ordered influence pairs)."""
        return int(self.degrees.sum())


def _from_adjacency(adj: list[set[int]], directed: bool) -> Graph:
    return Graph(
        n_agents=len(adj),
        neighbors=tuple(tuple(sorted(s)) for s in adj),
        directed=directed,
    )


def complete_graph(n: int) -> Graph:
    """All-to-all undirected graph on ``n`` agents.

    Requires n >= 2 so that every agent has a neighbor.
    """
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got {n}")
    return Graph(
        n_agents=n,
        neighbors=tuple(
            tuple(j for j in range(n) if j != i) for i in range(n)
        ),
        directed=False,
    )


def square_lattice(side: int) -> Graph:
    """side x side grid, 4-neighborhood (up/down/left/right), no wraparound.

    Corner agents have 2 neighbors, border agents 3, interior agents 4.
    Agent (r, c) has index ``r * side + c``.
    """
    if side < 2:
        raise ValueError(f"square lattice needs side >= 2, got {side}")
    adj: list[set[int]] = [set() for _ in range(side * side)]
    for r in range(side):
        for c in range(side):
            i = r * side + c
            if r > 0:
                adj[i].add(i - side)
            if r < side - 1:
                adj[i].add(i + side)
            if c > 0:
                adj[i].add(i - 1)
            if c < side - 1:
                adj[i].add(i + 1)
    return _from_adjacency(adj, directed=False)


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
    adj: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        draws = rng.random(n - i - 1)
        for k, j in enumerate(range(i + 1, n)):
            if draws[k] < edge_prob:
                adj[i].add(j)
                adj[j].add(i)
    for i in range(n):
        if not adj[i]:
            j = int(rng.integers(0, n - 1))
            if j >= i:
                j += 1
            adj[i].add(j)
            adj[j].add(i)
    return _from_adjacency(adj, directed=False)


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
        if header is None:
            parts = line.split()
            if len(parts) != 3 or parts[0] != "N" or not parts[2].startswith("directed="):
                raise ValueError(
                    f"line {lineno}: expected header 'N <n> directed=<0|1>', got {raw!r}"
                )
            n = int(parts[1])
            if n < 1:
                raise ValueError(f"line {lineno}: agent count must be at least 1, got {n}")
            flag = parts[2].removeprefix("directed=")
            if flag not in ("0", "1"):
                raise ValueError(f"line {lineno}: directed flag must be 0 or 1, got {flag!r}")
            header = (lineno, n, flag == "1")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<src> <dst>', got {raw!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if header is None:
        raise ValueError("edge list has no header line")
    header_line, n, directed = header
    # an edge line gives at most two agents a neighbor
    if n > 2 * len(edges):
        raise ValueError(
            f"line {header_line}: {len(edges)} edges leave some of the {n} agents "
            f"with no neighbors"
        )
    adj: list[set[int]] = [set() for _ in range(n)]
    for src, dst in edges:
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"edge ({src}, {dst}) out of range for {n} agents")
        if src == dst:
            raise ValueError(f"self-loop on agent {src}")
        adj[dst].add(src)
        if not directed:
            adj[src].add(dst)
    return _from_adjacency(adj, directed=directed)


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
