import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codapol.analysis import find_preserved_clusters
from codapol.dynamics import ModelParams, initial_state, random_opinions, simulate
from codapol.graph import (
    Graph,
    GraphSpec,
    complete_graph,
    parse_edge_list,
    random_graph,
    read_edge_list,
    square_lattice,
)
from helpers import (
    check_neighbor_table,
    complete_graph_neighbors,
    csr_of,
    edge_list_neighbors,
    local_field,
    neighbors,
    random_graph_neighbors,
    same_action_components_bfs,
    square_lattice_neighbors,
)


def assert_graph_is(g, table):
    """Every stored and derived form of ``g`` matches the oracle table."""
    indptr, indices = csr_of(table)
    assert g.n_agents == len(table)
    assert neighbors(g) == table
    assert g.indptr.dtype == np.int64 and g.indptr.tolist() == indptr
    assert g.indices.dtype == np.int64 and g.indices.tolist() == indices
    assert g.degrees.tolist() == [len(nbrs) for nbrs in table]
    assert g.n_edges == len(indices)


class TestGeneratorsAgainstOracles:
    @pytest.mark.parametrize("n", [2, 3, 20, 57])
    def test_complete(self, n):
        assert_graph_is(complete_graph(n), complete_graph_neighbors(n))

    @pytest.mark.parametrize("side", [2, 3, 7, 50])
    def test_lattice(self, side):
        assert_graph_is(square_lattice(side), square_lattice_neighbors(side))

    @pytest.mark.parametrize("n", [2, 3, 10, 40, 200])
    @pytest.mark.parametrize("edge_prob", [0.01, 0.05, 0.3, 1.0])
    def test_random(self, n, edge_prob):
        for seed in range(6):
            g = random_graph(n, edge_prob, seed)
            assert_graph_is(g, random_graph_neighbors(n, edge_prob, seed))

    @given(data=st.data(), n=st.integers(2, 8), directed=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_edge_list(self, data, n, directed):
        agent = st.integers(0, n - 1)
        pairs = data.draw(st.lists(
            st.tuples(agent, agent).filter(lambda e: e[0] != e[1]), max_size=3 * n,
        ))
        # repeat and reverse some of the drawn pairs
        pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
        pairs += [(b, a) for a, b in data.draw(st.lists(st.sampled_from(pairs), max_size=4))] \
            if pairs else []
        text = f"N {n} directed={int(directed)}\n" + "".join(f"{a} {b}\n" for a, b in pairs)
        expected = edge_list_neighbors(n, pairs, directed)
        try:
            check_neighbor_table(n, expected, directed)
        except ValueError:
            with pytest.raises(ValueError, match="no neighbors"):
                parse_edge_list(text)
        else:
            g = parse_edge_list(text)
            assert g.directed == directed
            assert_graph_is(g, expected)

    @given(data=st.data(), n=st.integers(1, 5), directed=st.booleans(),
           shape=st.sampled_from(["raw", "pairs", "symmetric"]))
    @settings(max_examples=300, deadline=None)
    def test_validation_matches_loop_check(self, data, n, directed, shape):
        if shape == "raw":  # any row: out of range, repeated or unsorted
            rows = data.draw(st.lists(
                st.lists(st.integers(-1, n), max_size=4), min_size=n, max_size=n,
            ))
        else:  # sorted distinct rows, without self-loops unless n = 1
            pairs = {(a, (a + k) % n) for a, k in data.draw(st.sets(st.tuples(
                st.integers(0, n - 1), st.integers(1, max(1, n - 1)))))}
            if shape == "symmetric":
                pairs |= {(b, a) for a, b in pairs}
            rows = [sorted(b for a, b in pairs if a == i) for i in range(n)]
        indptr, indices = csr_of(rows)
        try:
            check_neighbor_table(n, rows, directed)
        except ValueError:
            with pytest.raises(ValueError):
                Graph(n, indptr, indices, directed)
        else:
            assert_graph_is(Graph(n, indptr, indices, directed), tuple(map(tuple, rows)))


class TestCompleteGraph:
    def test_twenty_nodes_all_degree_nineteen(self):
        g = complete_graph(20)
        assert g.n_agents == 20
        assert all(len(nbrs) == 19 for nbrs in neighbors(g))
        assert not g.directed

    def test_smallest_legal(self):
        g = complete_graph(2)
        assert neighbors(g) == ((1,), (0,))

    def test_directed_edge_count_matches_enumeration(self):
        g = complete_graph(5)
        # oracle: enumerate ordered pairs of distinct agents
        expected = sum(1 for i in range(5) for j in range(5) if i != j)
        assert expected == 20
        assert g.n_edges == expected

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            complete_graph(1)

    @given(n=st.integers(2, 60), points=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_closed_forms_match_csr(self, n, points, seed):
        g, csr = complete_graph(n), Graph(n, *csr_of(complete_graph_neighbors(n)))
        assert g.n_edges == n * (n - 1) and repr(g) == f"complete_graph({n})"
        rng = np.random.default_rng(seed)
        q = rng.choice([-1, 1], size=(points, n)).astype(np.int64)
        for actions in (q, q[0]):
            assert g.neighbor_mean(actions).tobytes() == csr.neighbor_mean(actions).tobytes()
        # NaN equals no label, so each NaN agent is alone; -0.0 == 0.0
        for labels in (rng.integers(-1, 2, n), rng.random(n) < 0.5,
                       rng.choice([0.0, -0.0, 1.5, np.nan], n)):
            for query in ("count_equal", "components"):
                got, want = getattr(g, query)(labels), getattr(csr, query)(labels)
                assert got.dtype == want.dtype == np.int64 and got.tolist() == want.tolist()
        assert not {"indptr", "indices"} & vars(g).keys()  # no query has built them
        for name in ("degrees", "indptr", "indices"):
            got, want = getattr(g, name), getattr(csr, name)
            assert got.dtype == np.int64 and got.tolist() == want.tolist()
            assert not got.flags.writeable


class TestSquareLattice:
    @given(side=st.integers(2, 40), weights=st.tuples(*[st.integers(0, 3)] * 3).filter(any),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_grid_queries_match_csr(self, side, weights, seed):
        n = side * side
        g, csr = square_lattice(side), Graph(n, *csr_of(square_lattice_neighbors(side)))
        assert g.n_edges == csr.n_edges and repr(g) == f"square_lattice({side})"
        rng = np.random.default_rng(seed)
        for dtype in (np.int8, np.int64):
            q = rng.choice([-1, 1], size=(3, n)).astype(dtype)
            for actions in (q, q[0]):
                assert g.neighbor_mean(actions).tobytes() == csr.neighbor_mean(actions).tobytes()
        # NaN equals no label, so each NaN agent is alone
        share = np.array(weights) / sum(weights)
        for labels in (rng.choice([-1.0, 1.0, np.nan], n, p=share), rng.random(n) < share[0]):
            for query in ("count_equal", "components"):
                got, want = getattr(g, query)(labels), getattr(csr, query)(labels)
                assert got.dtype == want.dtype == np.int64 and got.tolist() == want.tolist()
        assert not {"indptr", "indices"} & vars(g).keys()  # no query has built them
        for name in ("degrees", "indptr", "indices"):
            got, want = getattr(g, name), getattr(csr, name)
            assert got.dtype == np.int64 and got.tolist() == want.tolist()
            assert not got.flags.writeable

    def test_million_agent_run_builds_no_edges(self):
        tracemalloc.start()
        try:
            g = square_lattice(1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        params = ModelParams(beta=0.45, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=15.0)
        s0 = initial_state(random_opinions(1, g.n_agents), 100.0, params)
        assert find_preserved_clusters(simulate(s0, g, params, 2), g, params.beta)
        assert "indices" not in vars(g)

    def test_fifty_by_fifty(self):
        g = square_lattice(50)
        assert g.n_agents == 2500

    def test_two_by_two_all_corners(self):
        g = square_lattice(2)
        assert all(len(nbrs) == 2 for nbrs in neighbors(g))

    def test_three_by_three_degree_multiset(self):
        g = square_lattice(3)
        # oracle: enumerate the 3x3 grid by hand
        degs = {}
        for r in range(3):
            for c in range(3):
                d = sum(1 for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1))
                        if 0 <= r + dr < 3 and 0 <= c + dc < 3)
                degs[r * 3 + c] = d
        assert sorted(degs.values()) == [2, 2, 2, 2, 3, 3, 3, 3, 4]
        assert sorted(len(n) for n in neighbors(g)) == [2, 2, 2, 2, 3, 3, 3, 3, 4]
        assert len(neighbors(g)[4]) == 4  # center agent

    def test_adjacency_matches_enumeration(self):
        g = square_lattice(4)
        for r in range(4):
            for c in range(4):
                i = r * 4 + c
                expected = sorted(
                    (r + dr) * 4 + (c + dc)
                    for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1))
                    if 0 <= r + dr < 4 and 0 <= c + dc < 4
                )
                assert list(neighbors(g)[i]) == expected

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            square_lattice(1)


class TestRandomGraph:
    def test_full_probability_is_complete(self):
        assert neighbors(random_graph(10, 1.0, seed=3)) == neighbors(complete_graph(10))

    def test_deterministic_for_fixed_seed(self):
        a = random_graph(50, 0.1, seed=7)
        b = random_graph(50, 0.1, seed=7)
        assert neighbors(a) == neighbors(b)

    def test_isolated_vertices_repaired(self):
        g = random_graph(50, 0.1, seed=7)
        assert min(len(nbrs) for nbrs in neighbors(g)) >= 1

    @given(n=st.integers(2, 25), edge_prob=st.floats(0.01, 1.0), seed=st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_invariants(self, n, edge_prob, seed):
        g = random_graph(n, edge_prob, seed)
        undirected_edges = set()
        table = neighbors(g)
        for i, nbrs in enumerate(table):
            assert list(nbrs) == sorted(set(nbrs))
            assert i not in nbrs
            assert len(nbrs) >= 1
            for j in nbrs:
                assert i in table[j]  # symmetry
                undirected_edges.add(frozenset((i, j)))
        assert g.n_edges == 2 * len(undirected_edges)  # degree sum

    def test_preconditions(self):
        with pytest.raises(ValueError):
            random_graph(1, 0.5, seed=0)
        with pytest.raises(ValueError):
            random_graph(10, 0.0, seed=0)
        with pytest.raises(ValueError):
            random_graph(10, 1.5, seed=0)


class TestGraphValidation:
    def test_immutable(self):
        g = complete_graph(3)
        with pytest.raises(AttributeError):
            g.n_agents = 4
        for array in (g.indptr, g.indices, g.degrees):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 2

    def test_arrays_copied(self):
        indptr, indices = np.array([0, 1, 2]), np.array([1, 0])
        g = Graph(2, indptr, indices)
        indices[:] = 5
        assert neighbors(g) == ((1,), (0,))
        assert indices.flags.writeable

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="agent 0 has a self-loop"):
            Graph(n_agents=2, indptr=[0, 2, 3], indices=[0, 1, 0], directed=True)

    def test_empty_neighborhood_rejected(self):
        with pytest.raises(ValueError, match="agent 1 has no neighbors"):
            Graph(n_agents=2, indptr=[0, 1, 1], indices=[1], directed=True)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="agent 1 lists out-of-range neighbor 2"):
            Graph(n_agents=2, indptr=[0, 1, 2], indices=[1, 2], directed=True)

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="agent 1 are not sorted or not distinct"):
            Graph(n_agents=3, indptr=[0, 1, 3, 4], indices=[1, 0, 0, 1], directed=True)

    def test_asymmetric_undirected_rejected(self):
        with pytest.raises(ValueError, match="asymmetric: 2 -> 1 but not 1 -> 2"):
            Graph(n_agents=3, indptr=[0, 1, 3, 4], indices=[1, 0, 2, 0], directed=False)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="neighbors of agent 0 are not sorted"):
            Graph(n_agents=3, indptr=[0, 2, 4, 6], indices=[2, 1, 0, 2, 0, 1],
                  directed=False)

    @pytest.mark.parametrize("indptr", [
        [0, 1],  # too short
        [0, 1, 2, 2],  # too long
        [1, 1, 2],  # does not start at 0
        [0, 1, 3],  # does not end at indices.size
    ])
    def test_bad_indptr_rejected(self, indptr):
        with pytest.raises(ValueError, match="indptr must hold 3 offsets from 0 to 2"):
            Graph(n_agents=2, indptr=indptr, indices=[1, 0], directed=False)

    @pytest.mark.parametrize("indptr, indices, name", [
        ([0, 1.7, 2], [1, 0], "indptr"),  # would truncate to [0, 1, 2]
        ([0, 1, 2], [1.9, 0.2], "indices"),  # would truncate to [1, 0]
        ([0, 1, 2], [True, False], "indices"),
        ([0, 1, 2], np.array([1, 0], dtype=object), "indices"),  # ints in range, as objects
    ])
    def test_non_integer_csr_rejected(self, indptr, indices, name):
        with pytest.raises(ValueError, match=f"{name} must hold integers, got dtype"):
            Graph(n_agents=2, indptr=indptr, indices=indices)

    @pytest.mark.parametrize("indptr, indices, name, value", [
        ([0, 1, 2], np.array([2**64 - 1, 0], dtype=np.uint64), "indices", 2**64 - 1),
        (np.array([0, 2**63, 2], dtype=np.uint64), [1, 0], "indptr", 2**63),
        ([0, 1, 2], [2**70, 0], "indices", 2**70),
        ([0, 1, 2], [1, -2**63 - 1], "indices", -2**63 - 1),
    ])
    def test_indices_beyond_int64_rejected(self, indptr, indices, name, value):
        # a uint64 past int64 once wrapped, and a wider int read as dtype object
        with pytest.raises(ValueError, match=f"^{name} holds {value}, outside the int64 range$"):
            Graph(n_agents=2, indptr=indptr, indices=indices)

    def test_unsigned_csr_in_range_accepted(self):
        g = Graph(2, np.array([0, 1, 2], dtype=np.uint64), np.array([1, 0], dtype=np.uint8))
        assert neighbors(g) == ((1,), (0,)) and g.indices.dtype == np.int64

    def test_no_agents_rejected(self):
        with pytest.raises(ValueError, match="n_agents must be positive, got 0"):
            Graph(n_agents=0, indptr=[0], indices=[])

    def test_csr_arrays_consistent(self):
        g = square_lattice(3)
        assert g.indptr[-1] == g.n_edges
        for i, nbrs in enumerate(square_lattice_neighbors(3)):
            got = g.indices[g.indptr[i]:g.indptr[i + 1]]
            assert list(got) == list(nbrs)


# a directed graph: agent 1 lists 0 and 3, agent 2 lists 0 and 1, ...
DIRECTED_TEXT = "N 5 directed=1\n0 1\n1 2\n2 3\n3 4\n4 0\n0 2\n3 1\n"


class TestNeighborMean:
    @pytest.mark.parametrize("graph", [
        square_lattice(5),
        random_graph(30, 0.2, 1),
        complete_graph(12),
        parse_edge_list(DIRECTED_TEXT),
    ], ids=["lattice", "random", "complete", "edgelist-directed"])
    def test_stack_matches_rows_and_per_agent_loop(self, graph):
        n, table = graph.n_agents, neighbors(graph)
        q = np.random.default_rng(n).choice([-1, 1], size=(6, n)).astype(np.int64)
        stack = graph.neighbor_mean(q)
        assert stack.shape == (6, n) and stack.dtype == np.float64
        for row, mean in zip(q, stack):
            assert graph.neighbor_mean(row).tobytes() == mean.tobytes()
            loop = [sum(int(row[j]) for j in nbrs) / len(nbrs) for nbrs in table]
            assert np.array(loop).tobytes() == mean.tobytes()
            for beta, q_p in [(0.0, 1), (0.3, -1), (0.77, 1), (1.0, -1)]:
                fields = [local_field(nbrs, row, q_p, beta) for nbrs in table]
                assert np.array(fields).tobytes() == ((1.0 - beta) * mean + beta * q_p).tobytes()


    @given(data=st.data(), kind=st.sampled_from(["random", "lattice", "directed"]),
           points=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_agent_loop(self, data, kind, points, seed):
        rng = np.random.default_rng(seed)
        if kind == "random":
            g = random_graph(data.draw(st.integers(2, 40)), data.draw(st.floats(0.02, 1.0)),
                             data.draw(st.integers(0, 2**32 - 1)))
        elif kind == "lattice":  # the stencil, corners and borders included
            g = square_lattice(data.draw(st.integers(2, 40)))
        else:  # k in-neighbors each, plus a few extra edges
            n = data.draw(st.integers(2, 1100))
            k = data.draw(st.integers(1, min(4, n - 1)))
            pairs = [((dst + off) % n, dst) for dst in range(n)
                     for off in (rng.permutation(n - 1)[:k] + 1).tolist()]
            for _ in range(data.draw(st.integers(0, 3))):
                a, b = rng.choice(n, size=2, replace=False).tolist()
                pairs.append((a, b))
            g = parse_edge_list(f"N {n} directed=1\n" + "".join(f"{a} {b}\n" for a, b in
                                                                  sorted(set(pairs))))
        n, table = g.n_agents, neighbors(g)
        shape = (points, n) if points else (n,)
        q = rng.choice([-1, 1], size=shape).astype(np.int64)
        got = g.neighbor_mean(q)
        assert got.shape == shape and got.dtype == np.float64
        for row, mean in zip(q.reshape(-1, n), got.reshape(-1, n)):
            loop = [sum(int(row[j]) for j in nbrs) / len(nbrs) for nbrs in table]
            assert np.array(loop).tobytes() == mean.tobytes()

    @pytest.mark.parametrize("points", [0, 3])
    def test_large_lattice_stencil_matches_csr(self, points):
        lattice = square_lattice(300)
        csr = Graph(lattice.n_agents, lattice.indptr, lattice.indices)
        shape = (points, lattice.n_agents) if points else (lattice.n_agents,)
        q = np.random.default_rng(points).choice([-1, 1], size=shape).astype(np.int64)
        got = lattice.neighbor_mean(q)
        assert got.shape == shape and got.dtype == np.float64
        assert got.tobytes() == csr.neighbor_mean(q).tobytes()

    def test_star_graph_mean(self):
        star = parse_edge_list("N 12 directed=0\n" + "".join(f"0 {i}\n" for i in range(1, 12)))
        q = np.array([1, -1] * 6, dtype=np.int64)
        assert star.neighbor_mean(q).tolist() == [-1 / 11] + [1.0] * 11


def serpentine_labels(side):
    """Labels of a side x side lattice whose 1-cells form one winding path.

    Odd rows are 0-walls, each with a gap at alternate ends, so the 1-cells
    run along every even row and turn through the gaps; ``side`` must be odd
    for the path to end on a full row.
    """
    labels = np.ones((side, side), dtype=np.int64)
    labels[1::2, :] = 0
    labels[1::4, -1] = 1
    labels[3::4, 0] = 1
    return labels.ravel()


def smallest_reachable(labels, graph):
    """Per agent, the smallest agent of its equal-label component, by BFS."""
    out = np.empty(graph.n_agents, dtype=np.int64)
    for comp in same_action_components_bfs(labels, graph):
        out[list(comp)] = comp[0]
    return out


class TestLabelQueries:
    """``count_equal`` and ``components`` against per-agent loops over ``neighbors``."""

    GRAPHS = {
        "lattice": square_lattice(7),
        "random": random_graph(40, 0.08, 3),
        "complete": complete_graph(9),
        "edgelist-directed": parse_edge_list(DIRECTED_TEXT),
    }

    @pytest.mark.parametrize("name", GRAPHS)
    @pytest.mark.parametrize("n_labels", [1, 2, 3, 5])
    def test_match_per_agent_loops(self, name, n_labels):
        graph = self.GRAPHS[name]
        rng = np.random.default_rng(n_labels)
        for _ in range(5):
            labels = rng.integers(0, n_labels, graph.n_agents) - 1
            counts = graph.count_equal(labels)
            assert counts.dtype == np.int64
            assert counts.tolist() == [sum(int(labels[j] == labels[i]) for j in nbrs)
                                       for i, nbrs in enumerate(neighbors(graph))]
            assert graph.components(labels).tolist() == \
                smallest_reachable(labels, graph).tolist()

    def test_directed_edges_join_both_ends(self):
        # 1 -> 2 is listed once, as agent 2's in-neighbor, yet joins 1 and 2
        g = parse_edge_list("N 4 directed=1\n1 2\n3 0\n2 1\n0 3\n")
        assert g.components(np.array([5, 5, 5, 5])).tolist() == [0, 1, 1, 0]
        g = parse_edge_list("N 3 directed=1\n1 2\n2 0\n0 1\n")
        assert g.components(np.array([7, 7, 7])).tolist() == [0, 0, 0]
        assert g.components(np.array([7, 8, 7])).tolist() == [0, 1, 0]

    @pytest.mark.parametrize("side", [3, 5, 41])
    def test_serpentine_path_is_one_component(self, side):
        g = square_lattice(side)
        labels = serpentine_labels(side)
        path = np.flatnonzero(labels == 1)
        assert path.size == (side + 1) // 2 * side + (side - 1) // 2
        assert g.count_equal(labels)[path].max() == 2  # a path, not a blob
        roots = g.components(labels)
        assert np.all(roots[path] == 0)
        assert roots.tolist() == smallest_reachable(labels, g).tolist()

    def test_long_path_in_random_order(self):
        # a path whose agent numbers are shuffled needs several hook rounds
        n = 3000
        order = np.random.default_rng(4).permutation(n)
        text = f"N {n} directed=0\n" + "".join(f"{a} {b}\n" for a, b in zip(order, order[1:]))
        g = parse_edge_list(text)
        assert np.all(g.components(np.zeros(n)) == 0)
        cut = np.zeros(n)
        cut[order[n // 2:]] = 1
        expected = np.where(cut == 1, order[n // 2:].min(), order[:n // 2].min())
        assert g.components(cut).tolist() == expected.tolist()


class TestEdgeList:
    def test_undirected_round_trip(self):
        text = """
        # a 3-cycle
        N 3 directed=0
        0 1
        1 2

        0 2
        """
        g = parse_edge_list(text)
        assert not g.directed
        assert neighbors(g) == ((1, 2), (0, 2), (0, 1))

    def test_directed_in_neighborhoods(self):
        g = parse_edge_list("N 3 directed=1\n0 1\n0 2\n1 2\n2 0\n")
        assert g.directed
        # line "src dst" means src influences dst
        assert neighbors(g) == ((2,), (0,), (0, 1))

    def test_file_loading(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("N 2 directed=0\n0 1\n")
        g = read_edge_list(path)
        assert neighbors(g) == ((1,), (0,))

    @pytest.mark.parametrize("text, match", [
        ("0 1\n", "header"),
        ("N 2 directed=2\n0 1\n", "directed flag"),
        ("N 2 directed=0\n0 1 2\n", "expected"),
        ("N 2 directed=0\n0 5\n", "out of range"),
        ("N 2 directed=0\n1 1\n", "self-loop"),
        ("", "no header"),
        ("N -3 directed=0\n0 1\n", "line 1: agent count must be at least 1, got -3"),
        ("N 0 directed=1\n", "line 1: agent count must be at least 1, got 0"),
        ("N 100000 directed=0\n0 1\n1 2\n", "line 1: 2 edges leave some of the 100000 agents"),
        ("N 5 directed=0\n0 1\n2 3\n", "line 1: 2 edges leave some of the 5 agents"),
        ("N 3 directed=0\n0 1\n1 0\n", "agent 2 has no neighbors"),
        ("N x directed=0\n0 1\n", "line 1: agent count must be an integer, got 'x'"),
        ("N 2 directed=0\n0 a\n", "line 2: dst must be an integer, got 'a'"),
        ("N 2 directed=0\n\n0 1.5\n", "line 3: dst must be an integer, got '1.5'"),
    ])
    def test_malformed_rejected(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_edge_list(text)

    def test_agent_count_at_twice_the_edges_accepted(self):
        g = parse_edge_list("N 4 directed=0\n0 1\n2 3\n")
        assert neighbors(g) == ((1,), (0,), (3,), (2,))

    def test_isolated_vertex_rejected(self):
        # agent 2 never appears; the dynamics could not divide by its degree
        with pytest.raises(ValueError, match="no neighbors"):
            parse_edge_list("N 3 directed=0\n0 1\n")


class TestGraphSpec:
    def test_dispatch(self, tmp_path):
        assert GraphSpec(kind="complete", n=4).build().n_agents == 4
        assert GraphSpec(kind="lattice", side=3).build().n_agents == 9
        g = GraphSpec(kind="random", n=10, edge_prob=0.5, seed=1).build()
        assert g.n_agents == 10
        path = tmp_path / "g.txt"
        path.write_text("N 2 directed=0\n0 1\n")
        assert GraphSpec(kind="edgelist", path=str(path)).build().n_agents == 2

    def test_missing_arguments(self):
        with pytest.raises(ValueError):
            GraphSpec(kind="complete").build()
        with pytest.raises(ValueError):
            GraphSpec(kind="nonsense").build()
