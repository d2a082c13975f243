import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    random_opinions,
    simulate,
)
from codapol.graph import GraphSpec, complete_graph, parse_edge_list, random_graph, square_lattice

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
    ])
    def test_bad_input_rejected(self, members, actions, beta, match):
        with pytest.raises(ValueError, match=match):
            certify_cluster(members, square_lattice(3), actions, beta)

    def test_members_taken_from_any_iterable(self):
        g, actions = square_lattice(3), np.ones(9, dtype=np.int64)
        want = report_key(certify_cluster([0, 1, 3], g, actions, 0.3))
        for members in ({3, 1, 0}, (m for m in [3, 0, 1, 0]), np.array([1, 3, 0])):
            assert report_key(certify_cluster(members, g, actions, 0.3)) == want

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
    ])
    def test_bad_input_rejected(self, actions, agents, match):
        with pytest.raises(ValueError, match=match):
            same_action_components(actions, square_lattice(3), agents=agents)

    def test_agents_off_the_pool_join_nothing(self):
        # agents 0 and 2 share action 0 with every agent between them, none in the pool
        actions = np.array([0, 5, 0, 0, 0, 0, 0, 7, 0])
        comps = same_action_components(actions, square_lattice(3), agents=[0, 2, 4, 8])
        assert comps == [(0,), (2,), (4,), (8,)]

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

    @pytest.mark.parametrize("graph", [square_lattice(6), complete_graph(10)],
                             ids=["larger", "smaller"])
    def test_graph_size_mismatch_rejected(self, graph):
        params = ModelParams(beta=0.45, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=15.0)
        traj = simulate(fs_initial_state(0.4, 20, 100.0, params), complete_graph(20), params, 5)
        with pytest.raises(ValueError, match="graph has .* agents, trajectory has 20"):
            find_preserved_clusters(traj, graph, params.beta)


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
        for draw in range(4):
            actions = np.where(rng.random(n) < rng.uniform(0.2, 0.9), 1, -1)
            if draw == 3:  # any integer labels, 0 included, join as the loop joins them
                actions = rng.integers(-1, 2, n)
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
        acts = np.random.default_rng(9).choice([-1, 1], size=(3, 900)).astype(np.int8)
        acts[1:, ::3] = acts[0, ::3]
        traj = Trajectory(recording_stride=1, ticks=np.arange(3),
                          opinions=acts.astype(float) / 2, pollution=np.full(3, 100.0),
                          actions=acts, q_p=np.full(3, -1, dtype=np.int8))
        for beta in ORACLE_BETAS:
            got = find_preserved_clusters(traj, g, beta)
            assert [report_key(r) for r in got] == \
                [report_key(r) for r in find_preserved_clusters_loop(traj, g, beta)]
        reports = find_preserved_clusters(traj, g, 0.3)
        assert any(r.weakly_robust and not r.strongly_robust for r in reports)
        assert any(not r.weakly_robust and len(r.violations) > 1 for r in reports)


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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
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
