import itertools
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from codapol import analysis as analysis_module
from codapol.analysis import (
    ActionSpacePoint,
    Aperiodic,
    ClusterReport,
    FixedPoint,
    InsufficientDataError,
    LimitCycle,
    certify_cluster,
    classify_states,
    find_preserved_clusters,
    fs_action_equilibria,
    fs_escape_bound,
    pollution_bounds,
    pollution_equilibrium,
    predicted_opinion_limit,
    qp_stationarity_certificate,
    same_action_components,
    write_cluster_csv,
    write_lattice_grid_csv,
)
from codapol.dynamics import (
    ModelParams,
    Trajectory,
    fs_initial_state,
    initial_state,
    local_fields,
    random_opinions,
    simulate,
)
from codapol.graph import (
    Graph,
    GraphSpec,
    complete_graph,
    parse_edge_list,
    random_graph,
    square_lattice,
)

from helpers import (
    SPECIAL_FLOATS,
    attractor_bytes,
    brute_force_period,
    certify_cluster_loop,
    classify_unfiltered,
    find_preserved_clusters_loop,
    fs_flip_time,
    neighbors,
    report_key,
    same_action_components_bfs,
    write_cluster_csv_per_row,
    write_lattice_grid_csv_per_row,
)

BASE = ModelParams(beta=0.45, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=15.0)

# Two labellings of one directed graph (agents 0 and 1 swapped): in the first,
# agent 0 lists only agent 2, so 0 and 1 are joined by the edge 0 -> 1 alone.
DIRECTED_TEXT = "N 4 directed=1\n0 1\n2 0\n3 2\n2 3\n"
DIRECTED = parse_edge_list(DIRECTED_TEXT)
DIRECTED_SWAPPED = parse_edge_list("N 4 directed=1\n1 0\n2 1\n3 2\n2 3\n")
SWAP_01 = [1, 0, 2, 3]

# Actions of a 3 x 3 lattice with an entry other than -1 and 1, each with the
# agent and value its error names.  0 is a ClusterReport's "mixed" action, and
# int() would read 0.5 as 0.
BAD_ACTIONS = [
    (np.zeros(9), r"agent 0 has action 0\.0; an action must be -1 or 1$"),
    (np.full(9, 0.5), r"agent 0 has action 0\.5;"),
    (np.array([1] * 8 + [7]), r"agent 8 has action 7;"),
    (np.array([1, np.nan] + [1] * 7), r"agent 1 has action nan;"),
]


class TestPredictedOpinionLimit:
    def test_unanimous_neighbors_against_signal(self):
        # matches the observed beta=0.45 simulation limit
        lim = predicted_opinion_limit(19, 19, -1, 0.45)
        assert lim == pytest.approx(0.1, abs=1e-15)

    def test_pure_neighbor_term(self):
        assert predicted_opinion_limit(5, 5, -1, 0.0) == 1.0

    def test_pure_signal_term(self):
        assert predicted_opinion_limit(2, 7, -1, 1.0) == -1.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            predicted_opinion_limit(5, 4, 1, 0.5)
        with pytest.raises(ValueError):
            predicted_opinion_limit(0, 0, 1, 0.5)

    @pytest.mark.parametrize("name, q_p_star, beta", [
        ("q_p_star", 5, 0.5),
        ("q_p_star", 0, 0.5),
        ("q_p_star", True, 0.5),
        ("q_p_star", "1", 0.5),
        ("q_p_star", math.nan, 0.5),
        ("beta", 1, math.nan),
        ("beta", 1, -0.1),
        ("beta", -1, 1.5),
        ("beta", -1, math.inf),
        ("beta", 1, True),
        ("beta", 1, "0.5"),
    ])
    def test_bad_signal_or_weight_rejected_by_name(self, name, q_p_star, beta):
        with pytest.raises(ValueError, match=rf"^{name} must "):
            predicted_opinion_limit(1, 2, q_p_star, beta)

    def test_equals_the_run_loops_field_bit_for_bit(self):
        # agent 0 of a complete graph on n_i + 1 agents sees n_plus neighbors at +1;
        # with this partition and signal stationary, its opinion settles on that field
        for n_i in range(1, 13):
            graph = complete_graph(n_i + 1)
            for n_plus, q_p, beta in itertools.product(
                    range(n_i + 1), (-1, 1), (0.0, 0.01, 0.1, 0.3, 0.45, 0.7, 0.99, 1.0)):
                actions = np.where(np.arange(n_i + 1) <= n_plus, 1, -1)
                want = local_fields(actions, q_p, graph, beta)[0]
                assert predicted_opinion_limit(n_plus, n_i, q_p, beta).hex() == want.hex()


class TestPollutionEquilibrium:
    def test_unanimous_positive(self):
        assert pollution_equilibrium(20, 0, BASE) == 40.0

    def test_unanimous_negative_zero_emissions(self):
        assert pollution_equilibrium(0, 20, BASE) == 0.0

    def test_even_split(self):
        assert pollution_equilibrium(10, 10, BASE) == 20.0

    def test_bounds_are_the_unanimous_specializations(self):
        p_min, p_max = pollution_bounds(BASE, 20)
        assert p_min == pollution_equilibrium(0, 20, BASE) == 0.0
        assert p_max == pollution_equilibrium(20, 0, BASE) == 40.0


class TestQpStationarityCertificate:
    def test_corridor_below_threshold(self):
        params = ModelParams(beta=0.45, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=50.0)
        assert qp_stationarity_certificate(30.0, params, 20) is True

    def test_threshold_inside_corridor(self):
        assert qp_stationarity_certificate(100.0, BASE, 20) is False

    def test_boundary_inclusive(self):
        params = ModelParams(beta=0.45, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=40.0)
        assert qp_stationarity_certificate(40.0, params, 20) is True


TWO_AGENT_CSR = dict(indptr=[0, 1, 2], indices=[1, 0])


class TestCountArguments:
    """Every count argument of the graph constructors and the analytical
    helpers rejects a non-int, a bool and a value below its bound by name."""

    @pytest.mark.parametrize("bad", [2.5, True, "3", np.float64(3), -1],
                             ids=["float", "bool", "str", "np.float64", "negative"])
    @pytest.mark.parametrize("name, call", [
        ("n_agents", lambda v: Graph(n_agents=v, **TWO_AGENT_CSR)),
        ("n", complete_graph),
        ("side", square_lattice),
        ("n", lambda v: random_graph(v, 0.5, seed=0)),
        ("seed", lambda v: random_graph(4, 0.5, seed=v)),
        ("n_plus", lambda v: pollution_equilibrium(v, 0, BASE)),
        ("n_minus", lambda v: pollution_equilibrium(0, v, BASE)),
        ("n_agents", lambda v: pollution_bounds(BASE, v)),
        ("n_agents", lambda v: qp_stationarity_certificate(30.0, BASE, v)),
        ("n_agents", lambda v: fs_action_equilibria(BASE, v)),
        ("n_i", lambda v: predicted_opinion_limit(0, v, 1, 0.5)),
        ("n_i_plus_star", lambda v: predicted_opinion_limit(v, 3, 1, 0.5)),
    ], ids=["Graph", "complete_graph", "square_lattice", "random_graph-n", "random_graph-seed",
            "pollution_equilibrium-n_plus", "pollution_equilibrium-n_minus", "pollution_bounds",
            "qp_stationarity_certificate", "fs_action_equilibria",
            "predicted_opinion_limit-n_i", "predicted_opinion_limit-n_i_plus_star"])
    def test_bad_count_rejected_by_name(self, name, call, bad):
        with pytest.raises(ValueError, match=rf"^{name} must be "):
            call(bad)

    @pytest.mark.parametrize("call, match", [
        (lambda: complete_graph(1), "n must be at least 2, got 1"),
        (lambda: square_lattice(0), "side must be at least 2, got 0"),
    ])
    def test_messages_state_the_bound(self, call, match):
        with pytest.raises(ValueError, match=f"^{match}$"):
            call()


class TestCertifyCluster:
    def test_complete_graph_weak_threshold(self):
        g = complete_graph(20)
        actions = np.ones(20, dtype=np.int64)
        # |A| - 1 >= 20 - |A| - (0.45/0.55)*19 boils down to |A| >= 2.73
        assert certify_cluster(range(3), g, actions, 0.45).weakly_robust
        assert not certify_cluster(range(2), g, actions, 0.45).weakly_robust

    def test_complete_graph_strong_threshold(self):
        g = complete_graph(20)
        actions = np.ones(20, dtype=np.int64)
        # |A| - 1 >= 20 - |A| + 15.545 boils down to |A| >= 18.27
        assert certify_cluster(range(19), g, actions, 0.45).strongly_robust
        assert not certify_cluster(range(18), g, actions, 0.45).strongly_robust

    def test_lattice_interior_strong_needs_whole_neighborhood(self):
        g = square_lattice(5)
        center = 12
        actions = -np.ones(25, dtype=np.int64)
        # center plus all four neighbors: every outside neighbor count is 0
        # only for the center itself; its slack 4 >= 0 + 0.8181*4 holds
        block = [center] + list(neighbors(g)[center])
        rep = certify_cluster(block, g, actions, 0.45)
        per_agent = {v[0]: v for v in rep.violations}
        assert center not in per_agent
        # center alone with one neighbor missing fails the strong condition
        rep2 = certify_cluster([center] + list(neighbors(g)[center])[:3], g, actions, 0.45)
        assert not rep2.strongly_robust

    def test_mixed_actions_marked(self):
        g = complete_graph(4)
        rep = certify_cluster([0, 1], g, np.array([1, -1, 1, 1]), 0.3)
        assert rep.mixed_action
        assert not rep.weakly_robust and not rep.strongly_robust
        assert rep.action == 0

    def test_beta_one_semantics(self):
        g = complete_graph(4)
        actions = np.ones(4, dtype=np.int64)
        rep = certify_cluster([0, 1], g, actions, 1.0)
        assert rep.weakly_robust
        assert not rep.strongly_robust
        assert rep.worst_strong_slack == -math.inf

    def test_float_boundary_decided_by_the_run_loop_field(self):
        # each member of the 6-clique A also has 4 neighbors in the 30-clique B:
        # in - out - beta / (1 - beta) n_i = 5 - 4 - (0.1 / 0.9) 9 rounds to 0.0,
        # but the loop's field 0.9 (1 / 9) - 0.1 rounds to -1.39e-17
        a, b = range(6), range(6, 36)
        pairs = [*itertools.combinations(a, 2), *itertools.combinations(b, 2),
                 *((i, 6 + 4 * i + j) for i in a for j in range(4))]
        g = parse_edge_list("N 36 directed=0\n" + "".join(f"{i} {j}\n" for i, j in pairs))
        params = ModelParams(beta=0.1, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=1.0)
        s0 = initial_state(np.where(np.arange(36) < 6, 0.5, -0.5), 100.0, params)
        rep = certify_cluster(a, g, s0.actions, params.beta)
        assert rep.weakly_robust and not rep.strongly_robust
        assert rep.worst_strong_slack == 0.0
        assert rep.violations == tuple((i, 5, 4, 0.0) for i in a)
        assert report_key(rep) == report_key(certify_cluster_loop(a, g, s0.actions, params.beta))
        traj = simulate(s0, g, params, 5)
        assert (traj.q_p == -1).all()  # the signal stays against A
        assert (traj.actions[:4, :6] == 1).all() and (traj.actions[4, :6] == -1).all()

    def test_violations_record_counts_and_slack(self):
        g = complete_graph(20)
        actions = np.ones(20, dtype=np.int64)
        rep = certify_cluster(range(2), g, actions, 0.45)
        assert not rep.weakly_robust
        agent, inside, outside, slack = rep.violations[0]
        assert inside == 1 and outside == 18
        assert slack == pytest.approx(1 - 18 + (0.45 / 0.55) * 19, abs=1e-12)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            certify_cluster([], complete_graph(3), np.ones(3), 0.5)

    @pytest.mark.parametrize("members, actions, beta, match", [
        ([0, 1], np.ones(9), -0.1, r"beta must lie in \[0, 1\], got -0.1"),
        ([0, 1], np.ones(9), 1.5, r"beta must lie in \[0, 1\], got 1.5"),
        ([0, 9], np.ones(9), 0.4, r"member 9 out of range \[0, 9\)"),
        ([-1, 0], np.ones(9), 0.4, r"member -1 out of range \[0, 9\)"),
        ([0, 1], np.ones(4), 0.4, r"one action per agent \(9\).*shape \(4,\)"),
        ([0, 1], np.ones(12), 0.4, r"one action per agent \(9\).*shape \(12,\)"),
        ([0, 1], np.ones((1, 9)), 0.4, r"one action per agent \(9\).*shape \(1, 9\)"),
        ([2**70], np.ones(9), 0.4, rf"member {2**70} out of range \[0, 9\)"),
        (np.array([1, 2**63], dtype=np.uint64), np.ones(9), 0.4,
         rf"member {2**63} out of range \[0, 9\)"),
        *(([0, 1], actions, 0.3, match) for actions, match in BAD_ACTIONS),
        ([0, 1], np.ones(9), True, r"beta must be an int or a float, got True"),
        ([0, 1], np.ones(9), "0.5", r"beta must be an int or a float, got '0.5'"),
    ])
    def test_bad_input_rejected(self, members, actions, beta, match):
        with pytest.raises(ValueError, match=match):
            certify_cluster(members, square_lattice(3), actions, beta)

    def test_members_taken_from_any_iterable(self):
        g, actions = square_lattice(3), np.ones(9, dtype=np.int64)
        want = report_key(certify_cluster([0, 1, 3], g, actions, 0.3))
        for members in ({3, 1, 0}, (m for m in [3, 0, 1, 0]), np.array([1, 3, 0]),
                        [np.int32(0), np.uint8(1), 3], np.array([0, 3, 1], dtype=np.uint16)):
            assert report_key(certify_cluster(members, g, actions, 0.3)) == want
        assert report_key(certify_cluster(range(2), g, actions, 0.3)) == \
            report_key(certify_cluster([0, 1], g, actions, 0.3))

    @pytest.mark.parametrize("members, shown", [
        ([0.9, 1.2], "0.9"), ([0, 1.0], "1.0"), ([True, 1], "True"), ([1, False], "False"),
        (["1"], "'1'"), ([np.float64(2.0)], r"np.float64\(2.0\)|2.0"),
        ([np.True_], r"np.True_|True"), (np.array([0.5, 1.0]), r"np.float64\(0.5\)|0.5"),
        (np.array([True, False]), r"np.True_|True"), (np.array(["1"]), r"np.str_\('1'\)|'1'"),
    ])
    def test_non_int_members_rejected(self, members, shown):
        # a float, a bool or a string is not a member, even where int() reads one
        with pytest.raises(ValueError, match=rf"member must be an int, got ({shown})$"):
            certify_cluster(members, complete_graph(4), np.ones(4, dtype=np.int64), 0.3)

    @given(
        seed=st.integers(0, 500),
        beta_lo=st.floats(0.0, 0.98),
        gap=st.floats(0.001, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_beta(self, seed, beta_lo, gap):
        beta_hi = min(beta_lo + gap, 0.99)
        rng = np.random.default_rng(seed)
        g = random_graph(12, 0.4, seed=seed)
        actions = rng.choice([-1, 1], size=12)
        members = rng.choice(12, size=rng.integers(1, 8), replace=False)
        actions[members] = actions[members[0]]  # force common action
        lo = certify_cluster(members, g, actions, beta_lo)
        hi = certify_cluster(members, g, actions, beta_hi)
        # the margin grows with beta: weak can only switch off->on, strong on->off
        if lo.weakly_robust:
            assert hi.weakly_robust
        if hi.strongly_robust:
            assert lo.strongly_robust

    @given(seed=st.integers(0, 500), beta=st.floats(0.5, 1.0, exclude_min=True))
    @settings(max_examples=80, deadline=None)
    def test_no_strong_clusters_above_half(self, seed, beta):
        rng = np.random.default_rng(seed)
        g = random_graph(10, 0.35, seed=seed)
        actions = np.full(10, rng.choice([-1, 1]))
        size = int(rng.integers(1, 11))
        members = rng.choice(10, size=size, replace=False)
        assert not certify_cluster(members, g, actions, beta).strongly_robust


class TestSameActionComponents:
    def test_splits_by_action_and_connectivity(self):
        g = square_lattice(3)
        actions = np.array([1, 1, -1,
                            -1, 1, -1,
                            1, 1, 1])
        comps = same_action_components(actions, g)
        # center (4) links down to 7, so the action-1 agents are one component
        assert (0, 1, 4, 6, 7, 8) in comps
        assert (2, 5) in comps
        assert (3,) in comps
        assert len(comps) == 3

    def test_restricted_pool(self):
        g = complete_graph(4)
        comps = same_action_components(np.array([1, 1, 1, -1]), g, agents=[0, 2, 3])
        assert comps == [(0, 2), (3,)]

    @pytest.mark.parametrize("actions", [[1, 1, -1, -1], [1, 1, 1, -1], [-1, 1, 1, 1],
                                         [1, -1, 1, -1]])
    def test_directed_edges_count_both_ways(self, actions):
        comps = same_action_components(np.array(actions), DIRECTED)
        swapped = same_action_components(np.array(actions)[SWAP_01], DIRECTED_SWAPPED)
        relabelled = sorted(tuple(sorted(SWAP_01[i] for i in c)) for c in swapped)
        assert comps == relabelled

    def test_edge_listed_one_way_joins_both_ends(self):
        assert same_action_components(np.array([1, 1, -1, -1]), DIRECTED) == [(0, 1), (2, 3)]

    @pytest.mark.parametrize("actions, agents, match", [
        (np.ones(9), [-1], r"agent -1 out of range \[0, 9\)"),
        (np.ones(9), [0, 9], r"agent 9 out of range \[0, 9\)"),
        (np.ones(4), None, r"one action per agent \(9\).*shape \(4,\)"),
        (np.ones(12), [0], r"one action per agent \(9\).*shape \(12,\)"),
        *((actions, None, match) for actions, match in BAD_ACTIONS),
    ])
    def test_bad_input_rejected(self, actions, agents, match):
        with pytest.raises(ValueError, match=match):
            same_action_components(actions, square_lattice(3), agents=agents)

    def test_agents_off_the_pool_join_nothing(self):
        # the pool's agents share action 1 with agents 3, 5 and 6, which link them
        # but are not in the pool
        actions = np.array([1, -1, 1, 1, 1, 1, 1, -1, 1])
        comps = same_action_components(actions, square_lattice(3), agents=[0, 2, 4, 8])
        assert comps == [(0,), (2,), (4,), (8,)]

    @pytest.mark.parametrize("agents, shown", [
        ([0.5, 1.5], "0.5"), ([True, 2], "True"), (["0"], "'0'"), (np.array([0.0]), "0.0"),
    ])
    def test_non_int_agents_rejected(self, agents, shown):
        with pytest.raises(ValueError, match=rf"agent must be an int, got .*{shown}"):
            same_action_components(np.ones(4), complete_graph(4), agents=agents)

    def test_pool_taken_from_any_iterable(self):
        g, actions = square_lattice(3), np.array([1, 1, -1, 1, 1, -1, 1, 1, 1])
        want = [(0, 1, 3), (5,), (7, 8)]
        for agents in ([0, 1, 3, 5, 7, 8], {8, 7, 5, 3, 1, 0}, (a for a in [8, 0, 1, 3, 5, 7, 8]),
                       np.array([0, 1, 3, 5, 7, 8])):
            assert same_action_components(actions, g, agents=agents) == want
        assert same_action_components(actions, g, agents=[]) == []


class TestFindPreservedClusters:
    def test_unanimous_constant_run_is_one_strong_component(self):
        g = complete_graph(20)
        traj = simulate(fs_initial_state(0.4, 20, 100.0, BASE), g, BASE, 200)
        reports = find_preserved_clusters(traj, g, BASE.beta)
        assert len(reports) == 1
        rep = reports[0]
        assert rep.size == 20
        assert rep.action == 1
        assert rep.strongly_robust  # no outside neighbors at all

    def test_everyone_flips_gives_empty_list(self):
        params = ModelParams(beta=0.75, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=15.0)
        g = complete_graph(20)
        traj = simulate(fs_initial_state(0.4, 20, 100.0, params), g, params, 200)
        assert np.any(traj.actions != traj.actions[0])  # the run does oscillate
        assert find_preserved_clusters(traj, g, params.beta) == []

    def test_lattice_strong_clusters_self_consistent(self):
        g = square_lattice(12)
        params = ModelParams(beta=0.2, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=15.0)
        s0 = initial_state(random_opinions(5, 144), 100.0, params)
        traj = simulate(s0, g, params, 100)
        for rep in find_preserved_clusters(traj, g, params.beta):
            for i in rep.members:
                assert np.all(traj.actions[:, i] == traj.actions[0, i])

    def test_stride_one_never_counts_an_agent_that_flips_and_returns(self):
        g = square_lattice(8)
        params = ModelParams(beta=0.45, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=15.0)
        traj = simulate(initial_state(random_opinions(2, 64), 100.0, params), g, params, 20)
        acts = traj.actions
        flips_back = np.flatnonzero((acts[-1] == acts[0]) & (acts != acts[0]).any(axis=0))
        assert flips_back.size  # the run has such agents
        members = {i for rep in find_preserved_clusters(traj, g, params.beta)
                   for i in rep.members}
        assert members and members.isdisjoint(flips_back.tolist())

    def test_strong_clusters_at_start_never_flip(self):
        # unconditional preservation: certified-strong components of the
        # initial actions keep their actions through any later evolution
        for seed in (1, 2, 3):
            g = square_lattice(8)
            params = ModelParams(beta=0.2, gamma=0.5, e_min=0.0, e_max=1.0,
                                 p_bar=20.0)
            s0 = initial_state(random_opinions(seed, 64), 100.0, params)
            traj = simulate(s0, g, params, 150)
            comps = same_action_components(traj.actions[0], g)
            strong = [c for c in comps
                      if certify_cluster(c, g, traj.actions[0], params.beta).strongly_robust]
            for comp in strong:
                for i in comp:
                    assert np.all(traj.actions[:, i] == traj.actions[0, i])

    def test_weak_clusters_preserved_while_signal_agrees(self):
        # conditional preservation: with the signal pinned at -1 for the whole
        # run, weakly robust clusters of action -1 never flip
        for seed in (4, 5):
            g = square_lattice(8)
            params = ModelParams(beta=0.3, gamma=0.5, e_min=0.5, e_max=1.0,
                                 p_bar=15.0)
            s0 = initial_state(random_opinions(seed, 64), 100.0, params)
            traj = simulate(s0, g, params, 150)
            assert np.all(traj.q_p == -1)  # pollution stays above threshold
            comps = same_action_components(traj.actions[0], g)
            for comp in comps:
                rep = certify_cluster(comp, g, traj.actions[0], params.beta)
                if rep.action == -1 and rep.weakly_robust:
                    for i in comp:
                        assert np.all(traj.actions[:, i] == -1)

    # float boundaries, where the margin slack and the run loop's field round apart
    @example(beta=0.1, size=6, out=4, seed=0)
    @example(beta=0.4, size=6, out=1, seed=0)
    @example(beta=0.05, size=11, out=9, seed=0)
    @example(beta=0.45, size=2, out=10, seed=0)
    @given(beta=st.sampled_from([0.05, 0.1, 0.25, 0.4, 0.45, 0.5, 0.9]), size=st.integers(1, 16),
           out=st.integers(0, 24), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_certificates_hold_over_the_run(self, beta, size, out, seed):
        # a clique of `size` agents at action 1, each also listing `out` agents of its
        # own frozen at -1, so the run's field is the certificate's worst case
        assume(size + out >= 2)
        pairs = [*itertools.combinations(range(size), 2),
                 *((i, size + out * i + j) for i in range(size) for j in range(out))]
        n = size * (1 + out)
        g = parse_edge_list(f"N {n} directed=0\n" + "".join(f"{a} {b}\n" for a, b in pairs))
        theta = np.full(n, -1.0)
        theta[:size] = np.random.default_rng(seed).uniform(0.01, 1.0, size)
        for q_p, p_bar in ((1, 1e9), (-1, -1.0)):  # the signal held for, then against, them
            params = ModelParams(beta=beta, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=p_bar)
            s0 = initial_state(theta, 0.0, params, allow_boundary=True)
            rep = certify_cluster(range(size), g, s0.actions, beta)
            traj = simulate(s0, g, params, 40, allow_boundary=True)
            assert (traj.q_p == q_p).all()
            if rep.weakly_robust if q_p == 1 else rep.strongly_robust:
                assert (traj.actions[:, :size] == 1).all()

    def test_directed_edge_list_run(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(DIRECTED_TEXT)
        g = GraphSpec(kind="edgelist", path=str(path)).build()
        # agent 0 holds the boundary opinion 1, which never moves; every other
        # agent follows its neighbors (weight 0.8) against either signal
        params = ModelParams(beta=0.2, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=15.0)
        s0 = initial_state([1.0, 0.5, -0.5, -0.5], 100.0, params, allow_boundary=True)
        traj = simulate(s0, g, params, 50, allow_boundary=True)
        assert set(traj.q_p.tolist()) == {-1, 1}
        assert np.all(traj.actions == traj.actions[0])
        reports = find_preserved_clusters(traj, g, params.beta)
        assert [(r.members, r.action) for r in reports] == [((0, 1), 1), ((2, 3), -1)]
        # agent 0 lists only agent 2, which lies outside its cluster
        assert not reports[0].weakly_robust and reports[0].violations[0][:3] == (0, 0, 1)
        assert reports[1].strongly_robust

    def test_no_snapshots_rejected(self):
        g = complete_graph(3)
        empty = Trajectory(recording_stride=1, ticks=np.zeros(0, dtype=np.int64),
                           opinions=np.zeros((0, 3)), pollution=np.zeros(0),
                           actions=np.zeros((0, 3), dtype=np.int8), q_p=np.zeros(0, dtype=np.int8))
        with pytest.raises(ValueError, match="no snapshots"):
            find_preserved_clusters(empty, g, BASE.beta)

    @pytest.mark.parametrize("beta", [-0.5, 1.25])
    def test_beta_out_of_range_rejected(self, beta):
        g = complete_graph(20)
        traj = simulate(fs_initial_state(0.4, 20, 100.0, BASE), g, BASE, 5)
        with pytest.raises(ValueError, match="beta must lie in"):
            find_preserved_clusters(traj, g, beta)

    @pytest.mark.parametrize("beta", [True, "0.5"])
    def test_beta_not_a_number_rejected(self, beta):
        g = complete_graph(20)
        traj = simulate(fs_initial_state(0.4, 20, 100.0, BASE), g, BASE, 5)
        with pytest.raises(ValueError, match=f"^beta must be an int or a float, got {beta!r}$"):
            find_preserved_clusters(traj, g, beta)

    @pytest.mark.parametrize("graph", [square_lattice(6), complete_graph(10)],
                             ids=["larger", "smaller"])
    def test_graph_size_mismatch_rejected(self, graph):
        params = ModelParams(beta=0.45, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=15.0)
        traj = simulate(fs_initial_state(0.4, 20, 100.0, params), complete_graph(20), params, 5)
        with pytest.raises(ValueError, match="graph has .* agents, trajectory has 20"):
            find_preserved_clusters(traj, graph, params.beta)


def recorded(acts):
    """A trajectory whose actions are the rows of ``acts``; only the actions are read."""
    acts = np.asarray(acts, dtype=np.int8)
    s = acts.shape[0]
    return Trajectory(recording_stride=1, ticks=np.arange(s), opinions=acts / 2.0,
                      pollution=np.full(s, 100.0), actions=acts,
                      q_p=np.full(s, -1, dtype=np.int8))


ORACLE_GRAPHS = {
    "random": random_graph(40, 0.07, 11),
    "random-dense": random_graph(25, 0.3, 2),
    "lattice": square_lattice(8),
    "complete": complete_graph(9),
    "edgelist-directed": parse_edge_list(
        "N 12 directed=1\n" + "".join(f"{(i + 1) % 12} {i}\n" for i in range(12))
        + "0 5\n5 0\n3 9\n7 2\n11 4\n4 8\n8 4\n6 10\n"),
}
ORACLE_BETAS = [0.0, 0.3, 0.45, 0.5, 0.77, 1.0]


class TestClustersAgainstLoopOracles:
    """Reports match the breadth-first search and per-member loop field for field."""

    @pytest.mark.parametrize("name", ORACLE_GRAPHS)
    @pytest.mark.parametrize("seed", range(4))
    def test_components_and_certificates(self, name, seed):
        g = ORACLE_GRAPHS[name]
        n = g.n_agents
        rng = np.random.default_rng(seed)
        betas = ORACLE_BETAS + [float(rng.random())]
        for _ in range(4):
            actions = np.where(rng.random(n) < rng.uniform(0.2, 0.9), 1, -1)
            pool = np.flatnonzero(rng.random(n) < 0.6).tolist()
            for agents in (None, pool):
                comps = same_action_components(actions, g, agents=agents)
                assert comps == same_action_components_bfs(actions, g, agents=agents)
                assert all(type(i) is int for comp in comps for i in comp)
                for comp in comps[:5]:
                    for beta in betas:
                        assert report_key(certify_cluster(comp, g, actions, beta)) == \
                            report_key(certify_cluster_loop(comp, g, actions, beta))
            members = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            for beta in betas:  # arbitrary sets: mixed, disconnected or same-action
                same = np.where(np.isin(np.arange(n), members), actions[members[0]], actions)
                for acts in (actions, same):
                    assert report_key(certify_cluster(members, g, acts, beta)) == \
                        report_key(certify_cluster_loop(members, g, acts, beta))

    @pytest.mark.parametrize("name", ["random", "random-dense", "lattice", "edgelist-directed"])
    @pytest.mark.parametrize("beta", [0.0, 0.2, 0.45, 1.0])
    def test_preserved_clusters_on_short_runs(self, name, beta):
        g = ORACLE_GRAPHS[name]
        for seed in range(3):
            params = ModelParams(beta=beta, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=15.0)
            s0 = initial_state(random_opinions(seed, g.n_agents), 100.0, params)
            traj = simulate(s0, g, params, 12)
            got = [report_key(r) for r in find_preserved_clusters(traj, g, beta)]
            assert got == [report_key(r) for r in find_preserved_clusters_loop(traj, g, beta)]

    def test_preserved_clusters_with_violations_of_both_kinds(self):
        # a 30 x 30 lattice of random actions has many small clusters, some
        # failing only the strong condition and some failing the weak one too
        g = square_lattice(30)
        acts = np.random.default_rng(9).choice([-1, 1], size=(3, 900))
        acts[1:, ::3] = acts[0, ::3]
        traj = recorded(acts)
        for beta in ORACLE_BETAS:
            got = find_preserved_clusters(traj, g, beta)
            assert [report_key(r) for r in got] == \
                [report_key(r) for r in find_preserved_clusters_loop(traj, g, beta)]
        reports = find_preserved_clusters(traj, g, 0.3)
        assert any(r.weakly_robust and not r.strongly_robust for r in reports)
        assert any(not r.weakly_robust and len(r.violations) > 1 for r in reports)


def assert_reports_match_loops(traj, graph, beta):
    got = find_preserved_clusters(traj, graph, beta)
    assert [report_key(r) for r in got] == \
        [report_key(r) for r in find_preserved_clusters_loop(traj, graph, beta)]
    for rep in got:  # each component alone, as a one-cluster certificate
        assert report_key(certify_cluster(rep.members, graph, traj.actions[0], beta)) == \
            report_key(rep)
    return got


class TestSegmentedCertification:
    """All clusters certified in one pass, against the per-member loops."""

    @given(data=st.data(), kind=st.sampled_from(["random", "lattice", "directed"]),
           beta=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
           p_plus=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           p_flip=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 0.5)),
           snapshots=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_loop_oracles(self, data, kind, beta, p_plus, p_flip, snapshots, seed):
        if kind == "random":
            g = random_graph(data.draw(st.integers(2, 30)), data.draw(st.floats(0.02, 1.0)),
                             data.draw(st.integers(0, 2**32 - 1)))
        elif kind == "lattice":
            g = square_lattice(data.draw(st.integers(2, 9)))
        else:  # every agent lists at least one in-neighbor
            n = data.draw(st.integers(2, 16))
            pairs = [((dst + data.draw(st.integers(1, n - 1))) % n, dst) for dst in range(n)]
            pairs += data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                                        .filter(lambda e: e[0] != e[1]), max_size=2 * n))
            g = parse_edge_list(f"N {n} directed=1\n" + "".join(f"{a} {b}\n" for a, b in pairs))
        n = g.n_agents
        rng = np.random.default_rng(seed)
        acts = np.tile(np.where(rng.random(n) < p_plus, 1, -1), (snapshots, 1))
        acts[1:] *= np.where(rng.random((snapshots - 1, n)) < p_flip, -1, 1)
        got = assert_reports_match_loops(recorded(acts), g, beta)
        if snapshots > 1 and p_flip == 1.0:
            assert got == []
        members = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        assert report_key(certify_cluster(members, g, acts[0], beta)) == \
            report_key(certify_cluster_loop(members, g, acts[0], beta))

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.5, 1.0])
    def test_none_one_and_singletons(self, beta):
        g = square_lattice(5)
        checker = np.where(np.arange(25) % 2, 1, -1)  # odd side: no two neighbors agree
        assert assert_reports_match_loops(recorded([checker, -checker]), g, beta) == []
        (whole,) = assert_reports_match_loops(recorded([np.ones(25)] * 2), g, beta)
        assert whole.members == tuple(range(25)) and whole.weakly_robust
        assert whole.strongly_robust == (beta < 1.0)
        singles = assert_reports_match_loops(recorded([checker] * 3), g, beta)
        assert [r.members for r in singles] == [(i,) for i in range(25)]
        for i, rep in enumerate(singles):  # no neighbor inside: slacks -n_i + margin, -n_i - margin
            n_i = int(g.degrees[i])
            if beta == 1.0:  # an infinite margin: weak slack +inf, strong slack -inf
                assert rep.weakly_robust and rep.violations == ((i, 0, n_i, -math.inf),)
            if beta == 0.0:
                assert not rep.weakly_robust and rep.violations == ((i, 0, n_i, -float(n_i)),)

    def test_binding_ties_keep_member_order(self):
        # row 2 of a 5 x 5 lattice holds +1 and the rest -1: an end member of the
        # row has 1 neighbor inside and 2 outside, a middle one 2 and 2, so at
        # beta = 1/2 (margin n_i) all five strong slacks are -4
        acts = np.full((2, 25), -1)
        acts[:, 10:15] = 1
        g = square_lattice(5)
        for beta, weakly, violations in [
            (0.0, False, [(10, 1, 2, -1.0), (14, 1, 2, -1.0)]),
            (0.5, True, [(i, 2 - (i in (10, 14)), 2, -4.0) for i in range(10, 15)]),
            (1.0, True, [(i, 2 - (i in (10, 14)), 2, -math.inf) for i in range(10, 15)]),
        ]:
            reports = assert_reports_match_loops(recorded(acts), g, beta)
            (row,) = [r for r in reports if r.action == 1]
            assert row.members == tuple(range(10, 15)) and row.weakly_robust == weakly
            assert list(row.violations) == violations


class TestFsActionEquilibria:
    @pytest.mark.parametrize("beta, expected", [
        pytest.param(0.45, {ActionSpacePoint(1, -1), ActionSpacePoint(-1, 1)}, id="beta0.45"),
        pytest.param(0.75, set(), id="beta0.75"),
    ])
    def test_threshold_inside_corridor_predicts_switching(self, beta, expected):
        # p_min < p_bar < p_max: neither same-sign point holds, and the mixed
        # points hold exactly when their field q * (1 - 2 beta) keeps q's sign
        assert fs_action_equilibria(replace(BASE, beta=beta), 20) == expected

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.501, 0.8])
    def test_prediction_matches_synchronized_runs(self, beta):
        # a synchronized run started in (q, q_p) stays there for 200 ticks
        # exactly when that point is predicted; p_bar = 0 and 40 are p_min and
        # p_max, where the pollution meets the threshold and the memory holds
        g = complete_graph(20)
        for p_bar in (-10.0, 0.0, 15.0, 40.0, 100.0):
            params = replace(BASE, beta=beta, p_bar=p_bar)
            predicted = fs_action_equilibria(params, 20)
            for q, q_p, size in itertools.product((1, -1), (1, -1), (0.01, 0.9)):
                state = fs_initial_state(size * q, 20, p_bar - 0.5 * q_p, params)
                traj = simulate(state, g, params, 200)
                stays = bool((traj.actions == q).all() and (traj.q_p == q_p).all())
                assert stays == ((q, q_p) in predicted), (p_bar, q, q_p, size)

    def test_high_threshold_admits_unanimous_positive(self):
        params = ModelParams(beta=0.75, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=50.0)
        assert fs_action_equilibria(params, 20) == {ActionSpacePoint(1, 1)}

    def test_negative_threshold_admits_unanimous_negative(self):
        params = ModelParams(beta=0.75, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=-1.0)
        assert fs_action_equilibria(params, 20) == {ActionSpacePoint(-1, -1)}

    def test_mixed_points_never_returned(self):
        # beta > 1/2: the field q * (1 - 2 beta) flips a mixed point's opinion
        for p_bar in (-10.0, 0.0, 15.0, 40.0, 100.0):
            params = ModelParams(beta=0.8, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=p_bar)
            for point in fs_action_equilibria(params, 20):
                assert point.q == point.q_p

    def test_predicted_equilibrium_holds_in_coupled_run(self):
        # when (1, 1) is an action-space equilibrium, a synchronized run that
        # starts in it stays in it; pollution settles at its ceiling and the
        # opinions climb monotonically toward the boundary
        params = ModelParams(beta=0.75, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=50.0)
        assert fs_action_equilibria(params, 20) == {ActionSpacePoint(1, 1)}
        g = complete_graph(20)
        traj = simulate(fs_initial_state(0.4, 20, 10.0, params), g, params, 3000)
        assert np.all(traj.actions == 1)
        assert np.all(traj.q_p == 1)
        assert abs(traj.pollution[-1] - 40.0) < 1e-6
        theta = traj.opinions[:, 0]
        assert np.all(np.diff(theta) >= 0)
        assert theta[-1] > 0.999


class TestFsEscapeBound:
    def test_examples(self):
        assert fs_escape_bound(0.75) == 2
        assert fs_escape_bound(1.0) == 1
        assert fs_escape_bound(0.51) == 50

    def test_domain_error(self):
        with pytest.raises(ValueError):
            fs_escape_bound(0.5)
        with pytest.raises(ValueError):
            fs_escape_bound(0.3)
        with pytest.raises(ValueError, match=r"beta in \(1/2, 1\], got 2.0"):
            fs_escape_bound(2.0)
        with pytest.raises(ValueError, match=r"beta in \(1/2, 1\], got nan"):
            fs_escape_bound(math.nan)

    @pytest.mark.parametrize("beta", [True, "0.5"])
    def test_beta_not_a_number_rejected(self, beta):
        # True would pass the range test as 1
        with pytest.raises(ValueError, match=f"^beta must be an int or a float, got {beta!r}$"):
            fs_escape_bound(beta)

    @given(
        beta=st.floats(0.501, 1.0),
        theta0=st.floats(0.0, (math.sqrt(5.0) - 1.0) / 2.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_bound_holds_below_golden_section(self, beta, theta0):
        # in this starting range every step moves the common opinion down by
        # at least 2*beta - 1, which is what the bound counts
        assert fs_flip_time(theta0, beta) <= fs_escape_bound(beta)

    def test_bound_not_universal_for_large_initial_opinions(self):
        # documented limitation: near the boundary the early steps shrink
        # more slowly, and the switching time exceeds the bound
        assert fs_escape_bound(0.7) == 3
        assert fs_flip_time(0.99, 0.7) == 4


def planted_sequence(rng, period, length, dim, noise):
    base = rng.uniform(-1, 1, size=(period, dim))
    # keep distinct cycle states well separated so the planted period is minimal
    for i in range(period):
        base[i, 0] = i * 0.35 - 0.8
    reps = length // period + 2
    seq = np.tile(base, (reps, 1))[:length]
    return seq + rng.uniform(-noise, noise, size=seq.shape)


class TestClassifyAttractor:
    def test_constant_sequence_is_fixed_point(self):
        out = classify_states(np.tile([0.3, -0.2], (40, 1)), np.full(40, 5.0), tol=1e-9,
                              max_period=16)
        assert isinstance(out, FixedPoint)
        assert out.p_star == 5.0
        assert np.array_equal(out.theta_star, np.array([0.3, -0.2]))

    def test_exact_alternation_is_period_two(self):
        out = classify_states(np.tile([[0.5], [-0.5]], (20, 1)), np.tile([1.0, 2.0], 20),
                              tol=1e-9, max_period=16)
        assert isinstance(out, LimitCycle)
        assert out.period == 2

    def test_planted_period_three_with_subtolerance_noise(self):
        rng = np.random.default_rng(0)
        tol = 1e-9
        seq = planted_sequence(rng, 3, 80, 4, noise=tol / 10)
        out = classify_states(seq[:, :-1], seq[:, -1], tol=tol, max_period=16)
        oracle = brute_force_period([row for row in seq], tol, 16)
        assert oracle == 3
        assert isinstance(out, LimitCycle) and out.period == 3

    def test_no_recurrence_is_aperiodic(self):
        rng = np.random.default_rng(1)
        seq = rng.uniform(-1, 1, size=(64, 3))
        out = classify_states(seq[:, :2], seq[:, 2], tol=1e-9, max_period=16)
        assert isinstance(out, Aperiodic)

    def test_insufficient_tail_rejected(self):
        with pytest.raises(InsufficientDataError):
            classify_states(np.full((30, 1), 0.1), np.ones(30), tol=1e-9, max_period=16)

    @pytest.mark.parametrize("theta_shape, pollution_shape", [
        ((600, 3), (600, 2)),  # the second pollution column once read as two more agents
        ((600, 3), (500,)),
        ((600,), (600, 1)),
        ((600, 3, 1), (600,)),
        ((), (600,)),
    ])
    def test_disagreeing_shapes_rejected(self, theta_shape, pollution_shape):
        rng = np.random.default_rng(0)
        match = re.escape(f"thetas of shape {theta_shape} and pollutions of shape "
                          f"{pollution_shape} are not a [T] or [T, N] and a [T] tail")
        for make in (rng.random, np.zeros):  # a random tail and a fixed point
            with pytest.raises(ValueError, match=match):
                classify_states(make(theta_shape), make(pollution_shape), max_period=8)

    def test_one_agent_and_broadcast_tails_accepted(self):
        column = np.full(40, 0.3)
        assert classify_states(column, np.full(40, 5.0), max_period=16).p_star == 5.0
        # a fully synchronized tail broadcasts one column (stride 0), and stays uncopied
        thetas = np.broadcast_to(column[:, None], (40, 10**6))
        tracemalloc.start()
        try:
            out = classify_states(thetas, np.full(40, 5.0), max_period=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.theta_star.shape == (10**6,) and out.theta_star.strides == (0,)
        assert peak < 10**5  # one copied row alone is 8 MB

    def test_tail_without_agents(self):
        # a [T, 0] tail is classified by its pollutions alone
        out = classify_states(np.zeros((40, 0)), np.full(40, 3.0), max_period=4)
        assert out.kind == "fixed" and out.theta_star.shape == (0,) and out.p_star == 3.0
        out = classify_states(np.zeros((40, 0)), np.tile([1.0, 2.0], 20), max_period=4)
        assert out == LimitCycle(period=2)
        assert classify_states(np.zeros((40, 0)), np.arange(40.0), max_period=4).kind == "aperiodic"

    @pytest.mark.parametrize("period", [None, 2])
    def test_wide_tail_is_not_copied(self, period):
        # the [1024, 10 000] tail is 78 MB; its gaps are taken in 1 MB row blocks,
        # where a copy of the tail and its [max_period, N] gaps took 117 MB
        rng = np.random.default_rng(5)
        if period is None:
            thetas, pollutions = rng.random((1024, 10**4)), rng.random(1024)
        else:
            thetas = np.tile(rng.random((period, 10**4)), (1024 // period, 1))
            pollutions = np.tile(rng.random(period), 1024 // period)
        tracemalloc.start()
        try:
            out = classify_states(thetas, pollutions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert getattr(out, "period", None) == period
        assert out.kind == ("aperiodic" if period is None else "cycle")
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0, True, "1e-9"])
    def test_bad_tol_rejected(self, tol):
        thetas = np.full((40, 2), 0.3)
        with pytest.raises(ValueError, match="tol"):
            classify_states(thetas, np.full(40, 5.0), tol=tol, max_period=16)

    @pytest.mark.parametrize("max_period, match", [
        (0, "max_period must be positive, got 0"),
        (-1, "max_period must be positive, got -1"),
        (True, "max_period must be an int, got True"),
        (2.5, "max_period must be an int, got 2.5"),
    ], ids=["0", "-1", "True", "2.5"])
    def test_bad_max_period_rejected(self, max_period, match):
        thetas = np.full((40, 2), 0.3)
        with pytest.raises(ValueError, match=match):
            classify_states(thetas, np.full(40, 5.0), max_period=max_period)

    def test_agrees_with_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        tol = 1e-9
        max_period = 16
        for _ in range(100):
            period = int(rng.integers(1, 13))
            if rng.random() < 0.2:
                states = rng.uniform(-1, 1, size=(70, 3))  # aperiodic draw
            else:
                states = planted_sequence(rng, period, 70, 3, noise=tol / 10)
            got = classify_states(states[:, :2], states[:, 2], tol=tol,
                                  max_period=max_period)
            oracle = brute_force_period(list(states), tol, max_period)
            if oracle is None:
                assert isinstance(got, Aperiodic)
            elif oracle == 1:
                assert isinstance(got, FixedPoint)
            else:
                assert isinstance(got, LimitCycle)
                assert got.period == oracle

    @pytest.mark.parametrize("tail", [[0.5] * 8], ids=["fixed"])
    def test_state_vectors_do_not_alias_the_tail(self, tail):
        thetas = np.column_stack([tail, tail])
        out = classify_states(thetas, np.ones(8), max_period=2)
        before = attractor_bytes(out)
        thetas[:] = 7.0
        assert attractor_bytes(out) == before


def _recurring_last_state(rng):
    # the last state equals the one 5 ticks earlier, no other pair matches
    states = rng.uniform(-1, 1, size=(64, 3))
    states[-1] = states[-6]
    return states, 2.0**-30, 16


def _false_return_inside_cycle(rng):
    # period 6, with the last state also equal to the one 3 ticks earlier
    base = rng.uniform(-1, 1, size=(6, 3))
    base[3] = base[0]
    states = np.tile(base, (11, 1))[:64]
    assert (len(states) - 1) % 6 == 3
    return states, 2.0**-30, 16


def _gap_equal_to_tol(rng):
    # exact alternation; the last state is off by exactly tol (strict < fails)
    tol = 2.0**-20
    states = np.tile([[0.25, 0.5, 3.0], [0.75, -0.5, 4.0]], (20, 1))
    states[-1, 0] += tol
    return states, tol, 16


def _gap_just_below_tol(rng):
    tol = 2.0**-20
    states = np.tile([[0.25, 0.5, 3.0], [0.75, -0.5, 4.0]], (20, 1))
    states[-1, 0] = np.nextafter(states[-1, 0] + tol, 0.0)
    return states, tol, 16


def _nan_in_last_row(rng):
    states = np.tile([[0.25, 0.5, 3.0], [0.75, -0.5, 4.0]], (20, 1))
    states[-1, 1] = math.nan
    return states, 1e-9, 16


def _nan_in_earlier_row(rng):
    states = np.tile([[0.25, 0.5, 3.0], [0.75, -0.5, 4.0]], (20, 1))
    states[7, 2] = math.nan
    return states, 1e-9, 16


def _nan_at_candidate_row(rng):
    # NaN exactly m=2 ticks before the last state: the period-2 gap is NaN
    states = np.tile([[0.25, 0.5, 3.0], [0.75, -0.5, 4.0]], (20, 1))
    states[-3, 0] = math.nan
    return states, 1e-9, 16


def _tail_of_twice_max_period(rng):
    # n_tail == 2 max_period, planted period max_period
    return planted_sequence(rng, 8, 16, 3, noise=1e-10), 1e-9, 8


def _fixed_point_in_twice_max_period(rng):
    return np.full((16, 2), 0.125), 1e-9, 8


ADVERSARIAL_TAILS = [
    _recurring_last_state, _false_return_inside_cycle, _gap_equal_to_tol,
    _gap_just_below_tol, _nan_in_last_row, _nan_in_earlier_row,
    _nan_at_candidate_row, _tail_of_twice_max_period, _fixed_point_in_twice_max_period,
]


class TestPeriodPrefilter:
    """classify_states must equal the unfiltered scan it shortcuts."""

    @staticmethod
    def assert_matches_unfiltered(states, tol, max_period):
        got = classify_states(states[:, :-1], states[:, -1], tol=tol, max_period=max_period)
        want = classify_unfiltered(states[:, :-1], states[:, -1], tol, max_period)
        assert attractor_bytes(got) == attractor_bytes(want)
        return got

    @pytest.mark.parametrize("make", ADVERSARIAL_TAILS, ids=lambda f: f.__name__.strip("_"))
    def test_adversarial_tail(self, make):
        states, tol, max_period = make(np.random.default_rng(11))
        self.assert_matches_unfiltered(states, tol, max_period)

    def test_adversarial_outcomes(self):
        # the cases above exercise the paths they are named for
        rng = np.random.default_rng(11)
        kinds = {}
        for make in ADVERSARIAL_TAILS:
            states, tol, max_period = make(rng)
            att = classify_states(states[:, :-1], states[:, -1], tol=tol, max_period=max_period)
            kinds[make.__name__] = (att.kind, getattr(att, "period", None))
        assert kinds["_recurring_last_state"] == ("aperiodic", None)
        assert kinds["_false_return_inside_cycle"] == ("cycle", 6)
        assert kinds["_gap_equal_to_tol"] == ("aperiodic", None)
        assert kinds["_gap_just_below_tol"] == ("cycle", 2)
        assert kinds["_nan_in_last_row"] == ("aperiodic", None)
        assert kinds["_nan_in_earlier_row"] == ("aperiodic", None)
        assert kinds["_nan_at_candidate_row"] == ("aperiodic", None)
        assert kinds["_tail_of_twice_max_period"] == ("cycle", 8)
        assert kinds["_fixed_point_in_twice_max_period"] == ("fixed", None)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), period=st.integers(1, 12),
           noise_over_tol=st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0]),
           extra=st.integers(0, 20), dim=st.integers(1, 4))
    def test_planted_tails_near_tol(self, seed, period, noise_over_tol, extra, dim):
        # noise around tol makes some candidate periods pass the last-state
        # gap and fail the full check, in either order
        rng = np.random.default_rng(seed)
        tol, max_period = 1e-6, 12
        states = planted_sequence(rng, period, 2 * max_period + extra, dim + 1,
                                  noise=noise_over_tol * tol / 2)
        self.assert_matches_unfiltered(states, tol, max_period)

    def test_tail_that_settles_late_costs_one_row_per_period(self, monkeypatch):
        # every last-state gap passes, since the tail has settled by its end; the
        # first state rejects each period in one row, not in a full-tail check
        max_period = 64
        states = np.column_stack([1000.0 * 0.5 ** np.arange(4 * max_period)] * 3)
        rows = []

        class CountingNumpy:
            """numpy, with each ``max`` call's rows compared counted."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def max(a, **kwargs):
                rows.append(len(a) if np.ndim(a) > 1 else 1)
                return np.max(a, **kwargs)

        monkeypatch.setattr(analysis_module, "np", CountingNumpy())
        assert self.assert_matches_unfiltered(states, 1e-9, max_period).kind == "aperiodic"
        assert sum(rows) == 2 * max_period  # the gap vector, then one row per period


class TestCsvExports:
    def test_cluster_csv(self, tmp_path):
        g = complete_graph(20)
        actions = np.ones(20, dtype=np.int64)
        reports = [
            certify_cluster(range(19), g, actions, 0.45),
            certify_cluster(range(2), g, actions, 0.45),
        ]
        path = tmp_path / "clusters.csv"
        write_cluster_csv(reports, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "cluster_id,size,action,weak,strong,worst_slack"
        first = lines[1].split(",")
        assert first[:5] == ["0", "19", "1", "1", "1"]
        assert float(first[5]) > 0

    def test_lattice_grid_csv(self, tmp_path):
        g = square_lattice(4)
        params = ModelParams(beta=0.2, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=15.0)
        s0 = initial_state(random_opinions(3, 16), 100.0, params)
        traj = simulate(s0, g, params, 30)
        reports = find_preserved_clusters(traj, g, params.beta)
        path = tmp_path / "grid.csv"
        write_lattice_grid_csv(traj, 4, reports, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "row,col,theta_final,action_final,in_strong_cluster"
        assert len(lines) == 17
        strong_members = set()
        for rep in reports:
            if rep.strongly_robust:
                strong_members.update(rep.members)
        for line in lines[1:]:
            r, c, theta, action, strong = line.split(",")
            i = int(r) * 4 + int(c)
            assert float(theta) == traj.opinions[-1, i]
            assert int(action) == traj.actions[-1, i]
            assert int(strong) == (1 if i in strong_members else 0)

    @staticmethod
    def split_lattice_run():
        # left half +0.9, right half -0.9 and one +0.9 island that flips:
        # the left half is strongly robust, the right half is not
        side = 6
        g = square_lattice(side)
        params = ModelParams(beta=0.2, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=15.0)
        opinions = np.where(np.arange(side * side) % side < side // 2, 0.9, -0.9)
        opinions[3 * side + 4] = 0.9
        traj = simulate(initial_state(opinions, 100.0, params), g, params, 3)
        return g, params, traj

    @pytest.mark.parametrize("case", ["certified", "special", "empty"])
    def test_cluster_csv_bytes_match_per_row_writer(self, tmp_path, case):
        reports = []
        if case == "certified":
            g = complete_graph(20)
            mixed = np.array([1, -1] * 10)
            ones = np.ones(20, dtype=np.int64)
            reports = [
                certify_cluster(range(19), g, ones, 0.45),
                certify_cluster(range(4), g, mixed, 0.45),
                certify_cluster(range(3), g, ones, 1.0),
                certify_cluster(range(2), g, ones, 0.45),
            ]
            slacks = [rep.worst_strong_slack for rep in reports]
            assert math.isnan(slacks[1]) and slacks[2] == -math.inf
            _, params, traj = self.split_lattice_run()
            reports += find_preserved_clusters(traj, square_lattice(6), params.beta)
        elif case == "special":
            reports = [
                ClusterReport(members=(k,), action=(-1, 0, 1)[k % 3], weakly_robust=k % 2 == 0,
                              strongly_robust=k % 3 == 0, worst_strong_slack=x)
                for k, x in enumerate(SPECIAL_FLOATS)
            ]
        write_cluster_csv(reports, tmp_path / "bulk.csv")
        write_cluster_csv_per_row(reports, tmp_path / "per_row.csv")
        bulk = (tmp_path / "bulk.csv").read_bytes()
        assert bulk == (tmp_path / "per_row.csv").read_bytes()
        assert bulk.count(b"\n") == len(reports) + 1

    @pytest.mark.parametrize("case", ["simulated", "special"])
    def test_grid_csv_bytes_match_per_row_writer(self, tmp_path, case):
        g, params, traj = self.split_lattice_run()
        reports = find_preserved_clusters(traj, g, params.beta)
        if case == "special":
            final = np.resize(np.array(SPECIAL_FLOATS), traj.n_agents)
            actions = np.resize(np.array([1, -1], dtype=traj.actions.dtype), traj.n_agents)
            traj = replace(traj, opinions=np.vstack([traj.opinions[:-1], final]),
                           actions=np.vstack([traj.actions[:-1], actions]))
        assert {rep.strongly_robust for rep in reports} == {True, False}
        write_lattice_grid_csv(traj, 6, reports, tmp_path / "bulk.csv")
        write_lattice_grid_csv_per_row(traj, 6, reports, tmp_path / "per_row.csv")
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "per_row.csv").read_bytes()

    def test_grid_side_mismatch_rejected(self, tmp_path):
        g = square_lattice(4)
        params = ModelParams(beta=0.2, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=15.0)
        s0 = initial_state(random_opinions(3, 16), 100.0, params)
        traj = simulate(s0, g, params, 5)
        with pytest.raises(ValueError):
            write_lattice_grid_csv(traj, 5, [], tmp_path / "grid.csv")
