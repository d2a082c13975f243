import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codapol.graph import (
    Graph,
    GraphSpec,
    complete_graph,
    parse_edge_list,
    random_graph,
    read_edge_list,
    square_lattice,
)


class TestCompleteGraph:
    def test_twenty_nodes_all_degree_nineteen(self):
        g = complete_graph(20)
        assert g.n_agents == 20
        assert all(len(nbrs) == 19 for nbrs in g.neighbors)
        assert not g.directed

    def test_smallest_legal(self):
        g = complete_graph(2)
        assert g.neighbors[0] == (1,)
        assert g.neighbors[1] == (0,)

    def test_directed_edge_count_matches_enumeration(self):
        g = complete_graph(5)
        # oracle: enumerate ordered pairs of distinct agents
        expected = sum(1 for i in range(5) for j in range(5) if i != j)
        assert expected == 20
        assert g.n_edges == expected

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            complete_graph(1)


class TestSquareLattice:
    def test_fifty_by_fifty(self):
        g = square_lattice(50)
        assert g.n_agents == 2500

    def test_two_by_two_all_corners(self):
        g = square_lattice(2)
        assert all(len(nbrs) == 2 for nbrs in g.neighbors)

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
        assert sorted(len(n) for n in g.neighbors) == [2, 2, 2, 2, 3, 3, 3, 3, 4]
        assert len(g.neighbors[4]) == 4  # center agent

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
                assert list(g.neighbors[i]) == expected

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            square_lattice(1)


class TestRandomGraph:
    def test_full_probability_is_complete(self):
        assert random_graph(10, 1.0, seed=3).neighbors == complete_graph(10).neighbors

    def test_deterministic_for_fixed_seed(self):
        a = random_graph(50, 0.1, seed=7)
        b = random_graph(50, 0.1, seed=7)
        assert a.neighbors == b.neighbors

    def test_isolated_vertices_repaired(self):
        g = random_graph(50, 0.1, seed=7)
        assert min(len(nbrs) for nbrs in g.neighbors) >= 1

    @given(n=st.integers(2, 25), edge_prob=st.floats(0.01, 1.0), seed=st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_invariants(self, n, edge_prob, seed):
        g = random_graph(n, edge_prob, seed)
        undirected_edges = set()
        for i, nbrs in enumerate(g.neighbors):
            assert list(nbrs) == sorted(set(nbrs))
            assert i not in nbrs
            assert len(nbrs) >= 1
            for j in nbrs:
                assert i in g.neighbors[j]  # symmetry
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

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(n_agents=2, neighbors=((0, 1), (0,)), directed=True)

    def test_empty_neighborhood_rejected(self):
        with pytest.raises(ValueError, match="no neighbors"):
            Graph(n_agents=2, neighbors=((1,), ()), directed=True)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out-of-range"):
            Graph(n_agents=2, neighbors=((1,), (2,)), directed=True)

    def test_asymmetric_undirected_rejected(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(n_agents=3, neighbors=((1,), (0, 2), (0,)), directed=False)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="not sorted"):
            Graph(n_agents=3, neighbors=((2, 1), (0, 2), (0, 1)), directed=False)

    def test_csr_arrays_consistent(self):
        g = square_lattice(3)
        assert g.indptr[-1] == g.n_edges
        for i, nbrs in enumerate(g.neighbors):
            got = g.flat_neighbors[g.indptr[i]:g.indptr[i + 1]]
            assert list(got) == list(nbrs)


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
        assert g.neighbors == ((1, 2), (0, 2), (0, 1))

    def test_directed_in_neighborhoods(self):
        g = parse_edge_list("N 3 directed=1\n0 1\n0 2\n1 2\n2 0\n")
        assert g.directed
        # line "src dst" means src influences dst
        assert g.neighbors == ((2,), (0,), (0, 1))

    def test_file_loading(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("N 2 directed=0\n0 1\n")
        g = read_edge_list(path)
        assert g.neighbors == ((1,), (0,))

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
    ])
    def test_malformed_rejected(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_edge_list(text)

    def test_agent_count_at_twice_the_edges_accepted(self):
        g = parse_edge_list("N 4 directed=0\n0 1\n2 3\n")
        assert g.neighbors == ((1,), (0,), (3,), (2,))

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
