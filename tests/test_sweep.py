import csv
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codapol.analysis import Aperiodic, FixedPoint, LimitCycle, class_period, classify_states
from codapol import dynamics
from codapol.csvout import _BLOCK_FIELDS
from codapol.dynamics import (
    ModelParams,
    SimState,
    _run,
    fs_initial_state,
    initial_state,
    quantize_opinion,
    random_opinions,
    simulate,
    step,
)
from codapol.graph import (
    Graph,
    GraphSpec,
    complete_graph,
    parse_edge_list,
    random_graph,
    square_lattice,
)
from codapol import sweep as sweep_module
from codapol.sweep import (
    SWEEPABLE,
    InitSpec,
    SweepError,
    SweepRow,
    SweepSpec,
    attractor_gallery,
    run_sweep,
    write_bifurcation_csv,
    write_gallery_csv,
)

from helpers import (
    SPECIAL_FLOATS,
    attractor_bytes,
    brute_force_period,
    run_loop,
    write_bifurcation_csv_per_row,
    write_gallery_csv_per_row,
)

BASE = ModelParams(beta=0.5, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=15.0)
COMPLETE_20 = GraphSpec(kind="complete", n=20)
# a directed ring of 10 with chords; in-degrees 1 to 3
DIRECTED_EDGES = "N 10 directed=1\n" + "".join(
    f"{i} {(i + 1) % 10}\n" for i in range(10)) + "0 5\n3 5\n7 2\n9 4\n2 8\n"


def fs_spec(grid, transient=2000, tail=512, max_period=128, **kwargs):
    defaults = dict(
        base_params=BASE,
        swept_param="beta",
        grid=tuple(grid),
        initial=InitSpec("fs", p0=100.0, theta0=0.4),
        graph_spec=COMPLETE_20,
        transient=transient,
        tail=tail,
        max_period=max_period,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestSweepSpecValidation:
    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="swept_param"):
            fs_spec([0.4], swept_param="e_min")

    def test_non_increasing_grid_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            fs_spec([0.5, 0.4])
        with pytest.raises(ValueError, match="increasing"):
            fs_spec([0.4, 0.4])

    def test_invalid_substituted_value_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            fs_spec([0.5, 1.0], swept_param="gamma")

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0, True, "1e-9"])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            fs_spec([0.3], tol=tol)

    @pytest.mark.parametrize("swept, grid, bad", [
        ("beta", ("0.3",), "'0.3'"),
        ("beta", (0.2, True), "True"),
        ("p_bar", (np.float64(10.0), None), "None"),
    ])
    def test_non_number_grid_values_rejected(self, swept, grid, bad):
        with pytest.raises(ValueError, match=f"^{swept} grid value must be an int or a float, "
                                             f"got {bad}$"):
            fs_spec(grid, swept_param=swept)

    def test_numpy_and_int_grid_values_accepted(self):
        assert fs_spec([np.float32(0.25), 1], swept_param="beta").grid == (0.25, 1.0)

    @pytest.mark.parametrize("field, value, match", [
        ("transient", -1, "transient must be nonnegative, got -1"),
        ("tail", 0, "tail must be positive, got 0"),
        ("max_period", 0, "max_period must be positive, got 0"),
        ("max_period", -4, "max_period must be positive, got -4"),
        ("transient", 10.5, "transient must be an int, got 10.5"),
        ("tail", True, "tail must be an int, got True"),
        ("max_period", 2.5, "max_period must be an int, got 2.5"),
    ])
    def test_bad_run_length_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            fs_spec([0.3], **{field: value})

    @pytest.mark.parametrize("threads, match", [
        (0, "threads must be positive, got 0"),
        (-2, "threads must be positive, got -2"),
        (1.5, "threads must be an int, got 1.5"),
        (True, "threads must be an int, got True"),
    ], ids=["0", "-2", "1.5", "True"])
    def test_thread_count_must_be_positive(self, threads, match):
        with pytest.raises(ValueError, match=match):
            run_sweep(fs_spec([0.45]), threads=threads)


class TestInitSpecs:
    @pytest.mark.parametrize("theta0, p0", [
        (math.nan, 100.0), (math.inf, 100.0), (0.4, math.nan), (0.4, -math.inf),
    ], ids=["theta0-nan", "theta0-inf", "p0-nan", "p0--inf"])
    def test_fs_init_rejects_non_finite(self, theta0, p0):
        name = "theta0" if not math.isfinite(theta0) else "p0"
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            InitSpec("fs", p0=p0, theta0=theta0)

    @pytest.mark.parametrize("p0", [math.nan, math.inf, -math.inf])
    def test_random_init_rejects_non_finite_p0(self, p0):
        with pytest.raises(ValueError, match="p0 must be finite"):
            InitSpec("random", p0=p0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, False])
    def test_random_init_rejects_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match=r"seed must be an int in \[0, 2\*\*64\)"):
            fs_spec([0.45], initial=InitSpec("random", p0=100.0), seed=seed)

    def test_random_init_accepts_seed_range_ends(self):
        for seed in (0, 2**64 - 1):
            assert fs_spec([0.45], initial=InitSpec("random", p0=100.0), seed=seed).seed == seed

    @pytest.mark.parametrize("name", ["p0", "theta0"])
    @pytest.mark.parametrize("value", [True, np.False_, "1", 0.5j])
    def test_fs_init_rejects_non_numbers(self, name, value):
        fields = {"p0": 100.0, "theta0": 0.4, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an int or a float, got "):
            InitSpec("fs", **fields)

    def test_init_takes_ints_and_numpy_numbers(self):
        assert InitSpec("fs", p0=np.int64(100), theta0=np.float32(0.5)).theta0 == 0.5
        assert InitSpec("random", p0=100).theta0 is None
        with pytest.raises(ValueError, match="^p0 must be an int or a float, got None$"):
            InitSpec("random", p0=None)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown init kind 'sync'"):
            InitSpec("sync", p0=100.0, theta0=0.4)

    @pytest.mark.parametrize("kind, field", [("fs", "theta0"), ("file", "path")])
    def test_missing_field_rejected(self, kind, field):
        with pytest.raises(ValueError, match=f"{kind} init spec needs {field}"):
            InitSpec(kind, p0=100.0)


class TestRunSweep:
    def test_weak_coupling_point_is_fixed(self):
        rows = run_sweep(fs_spec([0.45]))
        assert len(rows) == 1
        att = rows[0].attractor
        assert isinstance(att, FixedPoint)
        assert abs(att.theta_star[0] - 0.1) < 1e-9
        assert abs(att.p_star - 40.0) < 1e-6

    def test_empty_grid(self):
        assert run_sweep(fs_spec([])) == []

    def test_beta_near_one_is_limit_cycle(self):
        rows = run_sweep(fs_spec([0.999]))
        att = rows[0].attractor
        assert isinstance(att, LimitCycle)
        # the reported period agrees with a brute-force minimal-period scan
        states = [np.array([t, p]) for t, p in zip(rows[0].opinion_samples, rows[0].p_samples)]
        oracle = brute_force_period(states, tol=1e-9, max_period=128)
        assert oracle == att.period

    def test_below_half_settles_at_predicted_level(self):
        grid = (0.30, 0.38, 0.45)
        rows = run_sweep(fs_spec(grid, transient=500, tail=512))
        for row in rows:
            att = row.attractor
            assert isinstance(att, FixedPoint)
            # actions settle at 1 against a -1 signal: limit (1-b)*1 + b*(-1)
            predicted = (1.0 - row.param_value) - row.param_value
            assert np.all(np.abs(att.theta_star - predicted) < 1e-9)

    def test_rows_independent_of_grid_company(self):
        full = run_sweep(fs_spec([0.45, 0.7, 0.999]))
        solo = run_sweep(fs_spec([0.7]))
        assert np.array_equal(full[1].opinion_samples, solo[0].opinion_samples)
        assert np.array_equal(full[1].p_samples, solo[0].p_samples)
        assert full[1].attractor.kind == solo[0].attractor.kind

    def test_thread_count_does_not_change_results(self):
        grid = [0.45, 0.6, 0.72, 0.85, 0.93, 0.999]
        seq = run_sweep(fs_spec(grid), threads=1)
        par = run_sweep(fs_spec(grid), threads=3)
        assert len(seq) == len(par)
        for a, b in zip(seq, par):
            assert a.param_value == b.param_value
            assert a.attractor.kind == b.attractor.kind
            assert np.array_equal(a.opinion_samples, b.opinion_samples)
            assert np.array_equal(a.p_samples, b.p_samples)

    def test_batch_matches_single_run_engine_bitwise(self):
        spec = fs_spec([0.45, 0.83, 0.999], transient=300, tail=260, max_period=128)
        rows = run_sweep(spec)
        graph = COMPLETE_20.build()
        for row in rows:
            params = spec.params_at(row.param_value)
            s0 = fs_initial_state(0.4, 20, 100.0, params)
            thetas, ps, _, _ = run_loop(s0, graph, params, spec.transient + spec.tail)
            assert np.array_equal(row.opinion_samples, thetas[spec.transient + 1:, 0])
            assert np.array_equal(row.p_samples, ps[spec.transient + 1:])

    @pytest.mark.parametrize("graph_spec", [
        GraphSpec(kind="lattice", side=4),
        GraphSpec(kind="random", n=16, edge_prob=0.4, seed=3),
        GraphSpec(kind="complete", n=12),
        GraphSpec(kind="edgelist", path=DIRECTED_EDGES),
    ], ids=["lattice", "random", "complete", "edgelist-directed"])
    def test_batch_matches_single_run_engine_on_sparse_graphs(self, graph_spec, tmp_path,
                                                              monkeypatch):
        if graph_spec.kind == "edgelist":  # the path field holds the file's text
            path = tmp_path / "g.txt"
            path.write_text(graph_spec.path)
            graph_spec = replace(graph_spec, path=str(path))
        spec = fs_spec([0.3, 0.6, 0.95], transient=200, tail=260, max_period=128,
                       initial=InitSpec("random", p0=100.0), seed=9, graph_spec=graph_spec)
        calls = run_loop_calls(monkeypatch)
        rows = run_sweep(spec)
        graph = graph_spec.build()
        opinions0 = random_opinions(9, graph.n_agents)
        for row, batch_tail in zip(rows, tail_opinions(calls), strict=True):
            params = spec.params_at(row.param_value)
            s0 = initial_state(opinions0, 100.0, params)
            traj = simulate(s0, graph, params, spec.transient + spec.tail, stride=1)
            tail = traj.opinions[spec.transient + 1:]
            assert batch_tail.shape == tail.shape
            assert batch_tail.tobytes() == tail.tobytes()
            assert row.opinion_samples.tobytes() == tail.mean(axis=1).tobytes()
            assert np.array_equal(row.p_samples, traj.pollution[spec.transient + 1:])

    @pytest.mark.parametrize("initial, match", [
        (InitSpec("fs", p0=100.0, theta0=1.0), "agent 0"),
        (InitSpec("fs", p0=15.0, theta0=0.4), "threshold"),
        (InitSpec("random", p0=15.0), "threshold"),
    ])
    def test_invalid_initial_rejected(self, initial, match):
        spec = fs_spec([0.45, 0.999], initial=initial)
        with pytest.raises(ValueError, match=match):
            run_sweep(spec)
        with pytest.raises(ValueError, match=match):
            attractor_gallery([0.45], spec)

    def test_non_fs_sweep_stores_the_mean(self, monkeypatch):
        spec = fs_spec(
            [0.3, 0.52, 0.999],
            transient=300, tail=260, max_period=128,
            initial=InitSpec("random", p0=100.0), seed=9,
            graph_spec=GraphSpec(kind="lattice", side=4),
        )
        calls = run_loop_calls(monkeypatch)
        rows = run_sweep(spec)
        tails = tail_opinions(calls)
        for row, tail in zip(rows, tails, strict=True):
            assert row.opinion_samples.shape == (260,)
            assert row.opinion_samples.tobytes() == tail.mean(axis=1).tobytes()
        # 0.3 settles at one opinion; the agents of 0.52 and 0.999 keep apart
        assert [bool((tail != tail[:, :1]).any()) for tail in tails] == [False, True, True]

    def test_point_failure_names_grid_value(self):
        spec = fs_spec([0.45], tail=100, max_period=128)  # tail < 2 * max_period
        with pytest.raises(SweepError, match=r"^beta = 0\.45: tail of 100 samples"):
            run_sweep(spec)

    def test_point_failure_names_swept_parameter(self):
        spec = fs_spec([40.0], swept_param="p_bar", tail=100, max_period=128)
        with pytest.raises(SweepError, match=r"^p_bar = 40\.0: tail of 100 samples"):
            run_sweep(spec)
        with pytest.raises(SweepError, match=r"^beta = 0\.6: tail of 100 samples"):
            attractor_gallery([0.6], spec)

    def test_swept_pollution_threshold(self):
        # thresholds below the reachable corridor keep the signal pinned at -1,
        # so the opinions settle quickly at (1 - beta) - beta
        spec = fs_spec([5.0, 8.0], swept_param="p_bar",
                       base_params=ModelParams(0.45, 0.5, 0.0, 1.0, 15.0),
                       transient=500, tail=512)
        for row in run_sweep(spec):
            att = row.attractor
            assert isinstance(att, FixedPoint)
            assert np.all(np.abs(att.theta_star - 0.1) < 1e-9)

    def test_boundary_crawl_is_aperiodic_within_budget(self):
        # threshold above the corridor sends the system to the unanimous
        # boundary equilibrium; the approach is harmonically slow, so at desk
        # budgets the classifier honestly reports no recurrence
        spec = fs_spec([50.0], swept_param="p_bar",
                       base_params=ModelParams(0.45, 0.5, 0.0, 1.0, 15.0),
                       transient=500, tail=512)
        (row,) = run_sweep(spec)
        assert row.attractor.kind == "aperiodic"
        assert row.opinion_samples[-1] > 0.999  # heading to the boundary
        diffs = np.diff(row.opinion_samples)
        assert np.all(diffs >= 0)  # monotone crawl, not oscillation


def assert_rows_match_full_runs(spec, threads):
    """Every FS sweep row equals the per-agent reference run + classify_states, bitwise."""
    rows = run_sweep(spec, threads=threads)
    assert [row.param_value for row in rows] == list(spec.grid)
    graph = spec.graph_spec.build()
    for row in rows:
        params = spec.params_at(row.param_value)
        s0 = fs_initial_state(spec.initial.theta0, graph.n_agents, spec.initial.p0, params)
        thetas, ps, _, _ = run_loop(s0, graph, params, spec.transient + spec.tail)
        tail_theta = thetas[spec.transient + 1:]
        tail_p = ps[spec.transient + 1:]
        assert row.opinion_samples.tobytes() == tail_theta[:, 0].tobytes()
        assert row.p_samples.tobytes() == tail_p.tobytes()
        want = classify_states(tail_theta, tail_p, tol=spec.tol, max_period=spec.max_period)
        assert attractor_bytes(row.attractor) == attractor_bytes(want)
    return rows


def assert_single_runs_match_loop(s0, graph, params, n_steps):
    """simulate, and step repeated, equal the per-agent reference run byte for byte."""
    want = run_loop(s0, graph, params, n_steps)
    traj = simulate(s0, graph, params, n_steps, allow_boundary=True)
    for got, ref in zip((traj.opinions, traj.pollution, traj.actions, traj.q_p), want):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    state = s0
    for k in range(1, n_steps + 1):
        state = step(state, graph, params)
        assert state.opinions.tobytes() == want[0][k].tobytes()
        assert type(state.pollution) is float and state.pollution == want[1][k]
        assert state.actions.dtype == np.int64 and state.actions.tolist() == want[2][k].tolist()
        assert type(state.q_p) is int and state.q_p == want[3][k]


def neighbor_mean_calls(monkeypatch):
    """Record each ``neighbor_mean`` call on any graph; the FS quotient makes none.

    A complete graph is a ``Graph`` subclass with its own ``neighbor_mean``, so
    every class that defines one is patched.
    """
    calls = []
    for cls in (Graph, *Graph.__subclasses__()):
        if "neighbor_mean" in vars(cls):
            def counted(self, q, original=cls.neighbor_mean):
                calls.append(q.shape)
                return original(self, q)

            monkeypatch.setattr(cls, "neighbor_mean", counted)
    return calls


def draw_graph_spec(data, tmp_path_factory):
    """A complete, lattice, random or directed edge-list graph spec, drawn by hypothesis."""
    kind = data.draw(st.sampled_from(["complete", "lattice", "random", "edgelist"]), label="kind")
    if kind == "lattice":
        return GraphSpec(kind=kind, side=data.draw(st.integers(2, 6), label="side"))
    n = data.draw(st.integers(2, 40 if kind != "edgelist" else 12), label="n")
    if kind == "complete":
        return GraphSpec(kind=kind, n=n)
    if kind == "random":
        return GraphSpec(kind=kind, n=n, edge_prob=data.draw(st.floats(0.01, 1.0), label="p"),
                         seed=data.draw(st.integers(0, 2**32), label="seed"))
    # a directed ring gives every agent an in-neighbor; chords add more
    chords = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                                .filter(lambda e: e[0] != e[1]), max_size=2 * n), label="chords")
    path = tmp_path_factory.mktemp("graph") / "edges.txt"
    path.write_text(f"N {n} directed=1\n" + "".join(
        f"{i} {j}\n" for i, j in [(i, (i + 1) % n) for i in range(n)] + chords))
    return GraphSpec(kind=kind, path=str(path))


SWEPT_VALUES = {
    "beta": st.floats(0.0, 1.0),
    "gamma": st.floats(0.01, 0.99),
    "p_bar": st.floats(1.0, 99.0),
}


class TestFsQuotient:
    """The one-column FS quotient, in sweeps and single runs, equals the full
    N-agent state of the reference run, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_fs_sweeps(self, data, tmp_path_factory):
        graph_spec = draw_graph_spec(data, tmp_path_factory)
        swept = data.draw(st.sampled_from(SWEEPABLE), label="swept")
        grid = sorted(set(data.draw(
            st.lists(SWEPT_VALUES[swept], min_size=1, max_size=4), label="grid")))
        theta0 = data.draw(st.sampled_from([0.4, -0.999999, 1e-300]), label="theta0")
        transient = data.draw(st.integers(0, 300), label="transient")
        threads = data.draw(st.sampled_from([1, 2]), label="threads")
        spec = fs_spec(grid, swept_param=swept, transient=transient, tail=40,
                       max_period=16, initial=InitSpec("fs", p0=100.0, theta0=theta0),
                       graph_spec=graph_spec)
        with pytest.MonkeyPatch.context() as mp:
            calls = neighbor_mean_calls(mp)
            assert_rows_match_full_runs(spec, threads)
        assert calls == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_threshold_tie_grid(self, threads):
        # at p_bar = 40 the pollution lands exactly on the threshold at tick 54
        spec = fs_spec([38.0, 40.0, 42.0], swept_param="p_bar",
                       base_params=ModelParams(0.45, 0.5, 0.0, 1.0, 15.0),
                       transient=100, tail=256, max_period=128)
        params = spec.params_at(40.0)
        traj = simulate(fs_initial_state(0.4, 20, 100.0, params), COMPLETE_20.build(),
                        params, 60)
        assert traj.pollution[54] == 40.0
        rows = assert_rows_match_full_runs(spec, threads)
        assert rows[1].attractor.kind == "fixed"

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_single_runs(self, data, tmp_path_factory):
        graph = draw_graph_spec(data, tmp_path_factory).build()
        params = ModelParams(
            beta=data.draw(SWEPT_VALUES["beta"], label="beta"),
            gamma=data.draw(SWEPT_VALUES["gamma"], label="gamma"),
            e_min=0.0, e_max=1.0,
            p_bar=data.draw(SWEPT_VALUES["p_bar"], label="p_bar"),
        )
        theta0 = data.draw(st.sampled_from([0.4, -0.999999, 1e-300, 1.0, -1.0]), label="theta0")
        n_steps = data.draw(st.integers(0, 300), label="n_steps")
        s0 = fs_initial_state(theta0, graph.n_agents, 100.0, params, allow_boundary=True)
        with pytest.MonkeyPatch.context() as mp:
            calls = neighbor_mean_calls(mp)
            assert_single_runs_match_loop(s0, graph, params, n_steps)
        assert calls == []

    def test_single_run_threshold_tie(self):
        # the tie of test_threshold_tie_grid, in a single run: q_p keeps its memory
        params = ModelParams(0.45, 0.5, 0.0, 1.0, 40.0)
        s0 = fs_initial_state(0.4, 20, 100.0, params)
        assert run_loop(s0, complete_graph(20), params, 60)[1][54] == 40.0
        assert_single_runs_match_loop(s0, complete_graph(20), params, 60)

    @pytest.mark.parametrize("graph", [
        random_graph(9, 1.0, seed=4),
        parse_edge_list("N 5 directed=1\n" + "".join(
            f"{i} {j}\n" for i in range(5) for j in range(5) if i != j)),
    ], ids=["random-p1", "directed-edge-list"])
    def test_complete_graphs_take_the_quotient(self, graph, monkeypatch):
        assert graph.n_edges == graph.n_agents * (graph.n_agents - 1)
        params = ModelParams(0.52, 0.5, 0.0, 1.0, 0.25 * graph.n_agents)
        calls = neighbor_mean_calls(monkeypatch)
        s0 = fs_initial_state(0.4, graph.n_agents, 100.0, params)
        assert_single_runs_match_loop(s0, graph, params, 200)
        assert calls == []

    @pytest.mark.parametrize("case", ["one-agent-out-of-sync", "memory-out-of-sync"])
    def test_other_states_keep_every_agent(self, case, monkeypatch):
        params = ModelParams(0.52, 0.5, 0.0, 1.0, 1.5)
        calls = neighbor_mean_calls(monkeypatch)
        if case == "one-agent-out-of-sync":
            opinions = np.full(6, 0.4)
            opinions[3] = 0.41
            assert_single_runs_match_loop(initial_state(opinions, 100.0, params),
                                          complete_graph(6), params, 50)
        else:
            # equal opinions at a tie keep unequal memories, which simulate rejects
            s0 = SimState(np.zeros(6), 100.0, np.array([1, 1, 1, -1, 1, 1]), 1)
            want = run_loop(s0, complete_graph(6), params, 1)
            s1 = step(s0, complete_graph(6), params)
            assert len(set(want[0][1].tolist())) == 2
            assert s1.opinions.tobytes() == want[0][1].tobytes()
        assert calls

    @pytest.mark.parametrize("theta0", [0.4, -0.999999, 1e-300])
    def test_mixed_regimes(self, theta0):
        spec = fs_spec([0.3, 0.52, 0.999], transient=2000, tail=256, max_period=128,
                       initial=InitSpec("fs", p0=100.0, theta0=theta0))
        rows = assert_rows_match_full_runs(spec, threads=2)
        assert {row.attractor.kind for row in rows} == {"fixed", "cycle", "aperiodic"}

    def test_rows_hold_no_agent_vectors(self):
        # the n = 20 complete-graph setting scaled to 300 x 300 agents: p_bar and p0
        # stay at 0.375 and 2.5 times the corridor ceiling n e_max / (1 - gamma)
        spec = fs_spec([0.52, 0.8], transient=2000, tail=512, max_period=256,
                       base_params=replace(BASE, p_bar=67500.0),
                       initial=InitSpec("fs", p0=450000.0, theta0=0.4),
                       graph_spec=GraphSpec(kind="lattice", side=300))
        tracemalloc.start()
        try:
            rows = run_sweep(spec)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert [row.attractor.kind for row in rows] == ["aperiodic", "cycle"]
        assert held < 16e6  # one tail of 90 000 opinions alone is 369 MB

    def test_fixed_rows_hold_one_opinion(self):
        # the lattice of test_rows_hold_no_agent_vectors at two fixed betas: each
        # theta_star keeps length N, but holds one opinion broadcast to all agents
        spec = fs_spec([0.3, 0.45], transient=2000, tail=512, max_period=256,
                       base_params=replace(BASE, p_bar=67500.0),
                       initial=InitSpec("fs", p0=450000.0, theta0=0.4),
                       graph_spec=GraphSpec(kind="lattice", side=300))
        tracemalloc.start()
        try:
            rows = run_sweep(spec)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert [row.attractor.kind for row in rows] == ["fixed", "fixed"]
        assert [row.attractor.theta_star.shape for row in rows] == [(90_000,)] * 2
        assert held < 90_000 * 8 / 2  # half of one opinion vector



# Exact FS orbits on complete graphs of n agents, at gamma 0.5, p_bar 0.75 n and p0
# 5 n (the benchmark's n = 20 setting, scaled): beta 0.3 and 0.45 are fixed from
# tick 54, 0.515 has period 77 from tick 484, 0.63 period 13 from 884 and 0.635
# period 11 from 1041, while 0.52 and 0.53 recur within no 20 000 ticks.
RECUR_BETAS = (0.3, 0.45, 0.515, 0.63, 0.635, 0.52, 0.53)


def assert_run_matches_loop(s0, graph, params, ticks):
    """_run of points from ``s0`` (one point as scalars, more as a batch) equals the
    per-agent reference run at every record, bit for bit."""
    par = vars(params[0]) if len(params) == 1 else {
        k: [getattr(pr, k) for pr in params] for k in vars(params[0])}
    got = _run(s0, graph, par, ticks)
    for j, pr in enumerate(params):
        want = run_loop(s0, graph, pr, ticks[-1])
        for g, w in zip(got, want):
            assert g[j].dtype == w.dtype and g[j].tobytes() == w[list(ticks)].tobytes()


def assert_fs_run_matches_loop(params, theta0, n, ticks, p0=None):
    """assert_run_matches_loop from an FS start on a complete graph of n agents."""
    s0 = fs_initial_state(theta0, n, 5.0 * n if p0 is None else p0, params[0])
    assert_run_matches_loop(s0, complete_graph(n), params, ticks)


def step_opinion_calls(monkeypatch):
    """Record each ``step_opinion`` call of the run loop: one per tick of a run."""
    calls, real = [], dynamics.step_opinion

    def counted(theta, f):
        calls.append(None)
        return real(theta, f)

    monkeypatch.setattr(dynamics, "step_opinion", counted)
    return calls


class TestFsRecurrence:
    """A run of any start, FS, random or read from a file, stops at an exact
    recurrence of its state and fills the later records by index; every record
    keeps the bits of the plain loop.  A random-start 20 x 20 lattice at beta 0.3
    recurs with period 20 from tick 255 and stops at tick 276."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_and_file_starts(self, data, tmp_path_factory):
        # small graphs, where a third to a half of these runs stop: complete graphs at
        # beta 0.6 and 0.8 with periods up to 28, lattices mostly fixed from ~1080
        kind = data.draw(st.sampled_from(["complete", "lattice", "random"]), label="kind")
        if kind == "lattice":
            graph = square_lattice(data.draw(st.integers(2, 3), label="side"))
        elif kind == "complete":
            graph = complete_graph(data.draw(st.integers(2, 7), label="n"))
        else:
            graph = random_graph(data.draw(st.integers(2, 9), label="n"),
                                 data.draw(st.floats(0.1, 1.0), label="edge_prob"),
                                 data.draw(st.integers(0, 2**32), label="graph_seed"))
        n = graph.n_agents
        betas = data.draw(st.lists(st.sampled_from([0.3, 0.45, 0.6, 0.8, 0.95]) | st.floats(0, 1),
                                   min_size=1, max_size=3), label="betas")
        params = [ModelParams(b, 0.5, 0.0, 1.0, 0.75 * n) for b in betas]
        if data.draw(st.booleans(), label="file"):  # some agents share an opinion, or all do
            values = st.sampled_from([-0.5, 0.2, 0.4, 0.7])
            opinions = data.draw(st.one_of(st.lists(values, min_size=n, max_size=n),
                                           values.map(lambda v: [v] * n)), label="opinions")
            path = tmp_path_factory.mktemp("start") / "opinions.txt"
            path.write_text(" ".join(map(repr, opinions)))
            start = InitSpec("file", p0=100.0, path=str(path))
        else:
            start = InitSpec("random", p0=100.0)
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        s0 = initial_state(start.opinions(n, seed), 100.0, params[0])
        end = data.draw(st.integers(2100, 2400), label="end")  # past the 2048 anchor's stops
        stride = data.draw(st.integers(1, 7), label="stride")
        assert_run_matches_loop(s0, graph, params, sorted({*range(0, end, stride), end}))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_batches(self, data):
        n = data.draw(st.integers(2, 4), label="n")
        # the pool's recurring betas at its gamma and p_bar, or anything
        recur = data.draw(st.booleans(), label="recur")
        beta = st.sampled_from(RECUR_BETAS[:5]) if recur else st.one_of(
            st.sampled_from(RECUR_BETAS), st.floats(0.0, 1.0))
        betas = data.draw(st.lists(beta, min_size=1, max_size=6), label="betas")
        gamma = 0.5 if recur else data.draw(st.floats(0.01, 0.99), label="gamma")
        p_bar = 0.75 * n if recur else data.draw(st.floats(0.1 * n, 1.9 * n), label="p_bar")
        theta0 = data.draw(st.one_of(st.just(0.4), st.floats(-0.99, 0.99).filter(bool)),
                           label="theta0")
        end = data.draw(st.integers(1, 2600), label="end")
        if data.draw(st.booleans(), label="tail"):  # the records of a sweep tail
            ticks = range(data.draw(st.integers(1, end), label="first"), end + 1)
        else:  # simulate's records
            ticks = sorted({*range(0, end, data.draw(st.sampled_from([1, 7]))), end})
        params = [ModelParams(b, gamma, 0.0, 1.0, p_bar) for b in betas]
        assert_fs_run_matches_loop(params, theta0, n, ticks)

    def test_batch_of_early_late_and_no_recurrence(self, monkeypatch):
        calls = step_opinion_calls(monkeypatch)
        params = [ModelParams(b, 0.5, 0.0, 1.0, 1.5) for b in RECUR_BETAS]
        assert_fs_run_matches_loop(params, 0.4, 2, range(1, 2601))
        assert len(calls) == 2600  # 0.52 and 0.53 keep the batch running
        calls.clear()
        assert_fs_run_matches_loop(params[:5], 0.4, 2, range(1, 2601))
        # the last point recurs in the window of the 2048 anchor, at period 77, and 76
        # more ticks run the longest period once
        assert len(calls) == 2048 + 77 + 76

    @pytest.mark.parametrize("betas", [[0.5], [0.5, 0.3]], ids=["single", "batch"])
    def test_ties_keep_the_memory(self, betas):
        # at beta = 1/2 against q_p = -1 the field is 0, so 1e-300 steps to exactly 0
        params = [ModelParams(b, 0.5, 0.0, 1.0, 15.0) for b in betas]
        assert run_loop(fs_initial_state(1e-300, 20, 100.0, params[0]), complete_graph(20),
                        params[0], 1)[0][1, 0] == 0.0
        assert_fs_run_matches_loop(params, 1e-300, 20, range(1, 300), p0=100.0)
        # from 8 the pollution climbs by halves to 40 and lands on p_bar = 36 at tick 3
        params = [replace(pr, p_bar=36.0) for pr in params]
        assert run_loop(fs_initial_state(0.4, 20, 8.0, params[0]), complete_graph(20),
                        params[0], 3)[1][3] == 36.0
        assert_fs_run_matches_loop(params, 0.4, 20, range(1, 300), p0=8.0)

    @pytest.mark.parametrize("gamma", [0.5, 0.99])
    def test_pollution_still_converging(self, gamma):
        # at gamma = 0.99 the opinion is fixed long before the pollution's bits are
        params = [ModelParams(0.45, gamma, 0.0, 1.0, 1.5)]
        for points in (params, params * 2):
            assert_fs_run_matches_loop(points, 0.4, 2, range(1, 6001))

    @pytest.mark.parametrize("theta0", [0.4, -0.4])
    def test_nan_pollution_keeps_the_signal(self, theta0):
        # 20 agents at +-1e308 take the pollution to +-inf at tick 1 and q_p to -+1; at
        # beta 0.6 and 0.9 the actions flip, and inf - inf is NaN from then on, a tie
        # that keeps q_p at -1 from 0.4 and at +1 from -0.4
        base = ModelParams(0.5, 0.5, -1e308, 1e308, 15.0)
        params = [replace(base, beta=b) for b in (0.3, 0.6, 0.9)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert_fs_run_matches_loop(params, theta0, 20, range(300), p0=100.0)
            rows = assert_rows_match_full_runs(fs_spec(
                [0.3, 0.6, 0.9], transient=100, tail=64, max_period=32, base_params=base,
                initial=InitSpec("fs", p0=100.0, theta0=theta0)), threads=1)
        assert [np.isnan(row.p_samples).all() for row in rows] == [False, True, True]

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("beta", RECUR_BETAS)
    def test_simulate(self, beta, stride):
        params = ModelParams(beta, 0.5, 0.0, 1.0, 1.5)
        s0 = fs_initial_state(0.4, 2, 10.0, params)
        traj = simulate(s0, complete_graph(2), params, 2600, stride)
        want = run_loop(s0, complete_graph(2), params, 2600)
        for got, ref in zip((traj.opinions, traj.pollution, traj.actions, traj.q_p), want):
            assert got.tobytes() == ref[traj.ticks].tobytes()

    @pytest.mark.parametrize("window, calls_made", [(11, 2048 + 11 + 10), (10, 2600)],
                             ids=["period-equal-to-window", "period-one-past-window"])
    @pytest.mark.parametrize("betas", [[0.635], [0.45, 0.635]], ids=["single", "batch"])
    def test_period_at_the_window_edge(self, monkeypatch, betas, window, calls_made):
        # 0.635 has period 11 from tick 1041 on, so the anchor at 2048 finds it
        monkeypatch.setattr(dynamics, "_RECUR_WINDOW", window)
        calls = step_opinion_calls(monkeypatch)
        params = [ModelParams(b, 0.5, 0.0, 1.0, 1.5) for b in betas]
        assert_fs_run_matches_loop(params, 0.4, 2, range(2601))
        assert len(calls) == calls_made

    @pytest.mark.parametrize("window, calls_made", [(28, 512 + 28 + 27), (27, 1100)],
                             ids=["period-equal-to-window", "period-one-past-window"])
    @pytest.mark.parametrize("betas", [[0.6], [0.8, 0.6]], ids=["single", "batch"])
    def test_random_start_period_at_the_window_edge(self, monkeypatch, betas, window,
                                                    calls_made):
        # a random start on a complete graph of 6 recurs at beta 0.6 with period 28 from
        # tick 503, so the anchor at 512 finds it, and at 0.8 with period 8 from tick 129
        monkeypatch.setattr(dynamics, "_RECUR_WINDOW", window)
        calls = step_opinion_calls(monkeypatch)
        graph, params, s0 = random_start(complete_graph(6), betas[0], 4.5)
        assert_run_matches_loop(s0, graph, [replace(params, beta=b) for b in betas],
                                range(1101))
        assert len(calls) == calls_made

    @pytest.mark.parametrize("beta, label, calls_made", [
        (0.3, "cycle,10", 276 + 19),  # period 20 from tick 255, found at the 256 anchor
        (0.6, "aperiodic,", 11_024),  # never recurs: every tick runs
    ])
    def test_random_start_classify_stops_at_its_recurrence(self, monkeypatch, beta, label,
                                                           calls_made):
        # the CLI classify command's one-point sweep, at the default transient and tail
        spec = SweepSpec(base_params=ModelParams(beta, 0.5, 0.0, 1.0, 300.0), swept_param="beta",
                         grid=(beta,), initial=InitSpec("random", p0=100.0),
                         graph_spec=GraphSpec(kind="lattice", side=20), seed=1)
        calls = step_opinion_calls(monkeypatch)
        (row,) = run_sweep(spec)
        assert class_period(row.attractor) == label
        assert len(calls) == calls_made
        if beta == 0.3:  # the tail's last 40 ticks, against ticks 965-1004 of a full run
            graph = spec.graph_spec.build()
            s0 = initial_state(random_opinions(1, graph.n_agents), 100.0, spec.base_params)
            want = simulate(s0, graph, spec.base_params, 11_024 - 20 * 501)
            assert row.p_samples[-40:].tobytes() == want.pollution[-40:].tobytes()
            assert (row.opinion_samples[-40:].tobytes()
                    == want.opinions[-40:].mean(axis=1).tobytes())

    @pytest.mark.parametrize("side, p_bar, calls_made", [
        (100, 15.0, 2049),  # fixed from tick 1091, found at the 2048 anchor
        (20, 300.0, 276 + 4),  # period 20: every later record reads offset 4
    ])
    def test_stopped_run_holds_no_cycle_of_states(self, monkeypatch, side, p_bar, calls_made):
        graph, params, s0 = random_start(square_lattice(side), 0.3, p_bar)
        runs = {}
        for first in (dynamics._RECUR_FIRST, 10**9):  # the stop, and no recurrence test
            monkeypatch.setattr(dynamics, "_RECUR_FIRST", first)
            calls = step_opinion_calls(monkeypatch)
            tracemalloc.start()
            try:
                traj = simulate(s0, graph, params, 3000, stride=1000)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            runs[first] = traj, peak, len(calls)
        (stopped, peak, made), (full, full_peak, _) = runs.values()
        assert made == calls_made
        for name in ("opinions", "pollution", "actions", "q_p"):
            assert getattr(stopped, name).tobytes() == getattr(full, name).tobytes()
        # a state of opinions and int64 actions is 16 bytes an agent: the anchor's bits
        # and one kept state are two, where the 20 x 20 cycle would hold 19
        assert peak < full_peak + 3 * 16 * graph.n_agents


def memory_flips(traj):
    """For each recorded step, whether some action or q_p changed across it."""
    actions, q_p = traj.actions.astype(np.int64), traj.q_p.astype(np.int64)
    return (actions[1:] != actions[:-1]).any(axis=1) | (q_p[1:] != q_p[:-1])


def random_start(graph, beta, p_bar, seed=1):
    """A random start on ``graph``, with gamma 0.5, emissions 0 / 1 and p0 = 100."""
    params = ModelParams(beta, 0.5, 0.0, 1.0, p_bar)
    return graph, params, initial_state(random_opinions(seed, graph.n_agents), 100.0, params)


class TestReusedField:
    """Outside an FS batch the run loop keeps its field while no action or q_p
    flips: runs equal the per-agent reference run bit for bit, and the field
    is computed again only after a tick that flipped one."""

    @pytest.mark.parametrize("graph, beta, p_bar, quiet", [
        (square_lattice(8), 0.45, 15.0, True),  # the actions freeze within a few ticks
        (square_lattice(8), 0.9, 32.0, False),  # p_bar = N / 2: actions and q_p keep flipping
        (complete_graph(12), 0.45, 15.0, True),
        (parse_edge_list(DIRECTED_EDGES), 0.45, 15.0, True),
    ], ids=["quiet", "strong-coupling", "complete", "directed"])
    def test_runs_match_loop(self, graph, beta, p_bar, quiet):
        graph, params, s0 = random_start(graph, beta, p_bar)
        assert_single_runs_match_loop(s0, graph, params, 100)
        traj = simulate(s0, graph, params, 100)
        flips = memory_flips(traj)
        if quiet:
            assert 0 < flips.sum() <= 5 and not flips[10:].any()
        else:
            assert flips.sum() >= 80 and (traj.q_p[1:] != traj.q_p[:-1]).sum() >= 20

    @pytest.mark.parametrize("sign", [1, -1])
    def test_opinions_landing_on_zero_keep_their_memories(self, sign):
        # at beta = 0 agent 0 of a complete graph of 3 faces a field of exactly 0 (its
        # neighbors hold +1 and -1), so +-1e-200 lands on 0.0 at tick 1 and keeps its memory
        # while agent 2 moves; the memory then sets the field of agents 1 and 2
        params = ModelParams(0.0, 0.5, 0.0, 1.0, 15.0)
        s0 = initial_state([sign * 1e-200, 0.5, -0.5], 100.0, params)
        assert_single_runs_match_loop(s0, complete_graph(3), params, 40)
        traj = simulate(s0, complete_graph(3), params, 40)
        zero = traj.opinions[:, 0] == 0.0
        assert zero[1] and (traj.actions[zero, 0] == sign).all()

    def test_hand_built_zero_opinions_keep_their_memories(self):
        # simulate rejects a tick-0 opinion of +-0.0; the run loop keeps each memory
        graph, params = complete_graph(4), ModelParams(0.0, 0.5, 0.0, 1.0, 15.0)
        s0 = SimState(np.array([-0.0, 0.0, 0.5, -0.5]), 100.0, np.array([1, -1, 1, -1]), -1)
        want = run_loop(s0, graph, params, 30)
        got = _run(s0, graph, vars(params), range(31))
        assert got[2][0, 0].tolist() == [1, -1, 1, -1]
        for g, w in zip(got, want):
            assert g[0].tobytes() == w.tobytes()

    def test_zero_action_memory_takes_the_opinions_sign(self):
        # a hand-built memory of 0 is refreshed from the opinions, as quantize_opinion does
        opinions = np.array([0.4, -0.3, 0.2, -0.1, 0.6])
        s0 = SimState(opinions.copy(), 100.0, np.zeros(5, dtype=np.int64), -1)
        assert quantize_opinion(opinions, s0.actions).tolist() == [1, -1, 1, -1, 1]
        traj = simulate(s0, complete_graph(5), BASE, 30)
        for got, want in zip((traj.opinions, traj.pollution, traj.actions, traj.q_p),
                             run_loop(s0, complete_graph(5), BASE, 30)):
            assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="agent 0 has action 0"):  # step takes only +-1
            step(s0, complete_graph(5), BASE)

    def test_simulate_leaves_the_start_unchanged(self):
        graph, params, s0 = random_start(square_lattice(8), 0.9, 32.0)
        s0.actions = -s0.actions  # stale memories, which the run refreshes
        opinions, actions = s0.opinions.copy(), s0.actions.copy()
        simulate(s0, graph, params, 50)
        assert s0.opinions.tobytes() == opinions.tobytes()
        assert s0.actions.tobytes() == actions.tobytes()

    @pytest.mark.parametrize("side, beta, p_bar, fewest, most", [
        (60, 0.45, 15.0, 2, 11),  # perfbench's big-lattice config at side 60
        (50, 0.9, 1250.0, 100, 100),  # p_bar = N / 2: some action flips at every tick
        (8, 0.9, 32.0, 80, 100),
    ])
    def test_field_computed_once_plus_once_per_flip(self, side, beta, p_bar, fewest, most,
                                                    monkeypatch):
        graph, params, s0 = random_start(square_lattice(side), beta, p_bar)
        calls = neighbor_mean_calls(monkeypatch)
        flips = memory_flips(simulate(s0, graph, params, 100))
        # a flip in the last tick leaves no tick to compute a field for
        assert fewest <= len(calls) == 1 + flips[:-1].sum() <= most

    @pytest.mark.parametrize("beta, fewest, most", [
        (0.45, 1, 1),  # the gallery's fixed point: the FS column never flips
        (0.999, 30, 62),  # the gallery's limit cycle: it flips in most ticks
    ])
    def test_fs_point_computes_its_field_once_plus_once_per_flip(self, beta, fewest, most,
                                                                 monkeypatch):
        # fewer ticks than the first recurrence test, so every tick run is recorded
        params = replace(BASE, beta=beta)
        s0 = fs_initial_state(0.4, 20, 100.0, params)
        calls, real = [], dynamics._field
        monkeypatch.setattr(dynamics, "_field", lambda *args: calls.append(args) or real(*args))
        traj = simulate(s0, complete_graph(20), params, dynamics._RECUR_FIRST - 1)
        flips = memory_flips(traj)
        assert fewest <= len(calls) == 1 + flips[:-1].sum() <= most

    def test_non_fs_sweep_rows_equal_at_one_and_two_threads(self, monkeypatch):
        # in one [P, N] batch a point that froze shares the field computations of
        # the points still flipping; split, each chunk computes its own
        spec = fs_spec([0.3, 0.45, 0.9], base_params=ModelParams(0.5, 0.5, 0.0, 1.0, 32.0),
                       transient=100, tail=64, max_period=16,
                       initial=InitSpec("random", p0=100.0), seed=3,
                       graph_spec=GraphSpec(kind="lattice", side=8))
        calls = run_loop_calls(monkeypatch)
        one, two = run_sweep(spec, threads=1), run_sweep(spec, threads=2)
        assert len(calls) == 3
        for a, b in zip(one, two, strict=True):
            assert a.param_value == b.param_value
            assert attractor_bytes(a.attractor) == attractor_bytes(b.attractor)
            assert a.opinion_samples.tobytes() == b.opinion_samples.tobytes()
            assert a.p_samples.tobytes() == b.p_samples.tobytes()
        graph = spec.graph_spec.build()
        for row, batch_tail in zip(one, tail_opinions(calls[:1]), strict=True):
            params = spec.params_at(row.param_value)
            s0 = initial_state(random_opinions(3, graph.n_agents), 100.0, params)
            want = run_loop(s0, graph, params, spec.transient + spec.tail)
            assert batch_tail.tobytes() == want[0][spec.transient + 1:].tobytes()
            assert row.p_samples.tobytes() == want[1][spec.transient + 1:].tobytes()


def run_loop_calls(monkeypatch):
    """(params dict, result) of each run loop call of run_sweep, one per chunk."""
    calls, real = [], sweep_module._run

    def spy(initial, graph, par, record_ticks, stop=None):
        calls.append((par, real(initial, graph, par, record_ticks, stop)))
        return calls[-1][1]

    monkeypatch.setattr(sweep_module, "_run", spy)
    return calls


def tail_opinions(calls):
    """Every grid point's full [tail, N] opinions, in grid order, from run_loop_calls."""
    return [theta for _, (thetas, *_) in calls for theta in thetas]


class TestFsFromStartState:
    def test_equal_file_start_writes_the_fs_start_bytes(self, tmp_path, monkeypatch):
        (tmp_path / "opinions.txt").write_text(" ".join(["0.4"] * 20))
        starts = {"fs": InitSpec("fs", p0=100.0, theta0=0.4),
                  "file": InitSpec("file", p0=100.0, path=str(tmp_path / "opinions.txt"))}
        calls = run_loop_calls(monkeypatch)
        for name, initial in starts.items():
            rows = run_sweep(fs_spec([0.45, 0.52, 0.999], transient=300, tail=256,
                                     initial=initial), threads=2)
            write_bifurcation_csv(rows, tmp_path / f"{name}.csv")
        assert len(calls) == 2  # each start is FS, so one batch despite two threads
        assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "fs.csv").read_bytes()

    def test_one_point_random_start_at_two_threads(self, monkeypatch):
        # a grid of fewer points than threads runs one chunk per point
        spec = fs_spec([0.3], transient=100, tail=64, max_period=16,
                       initial=InitSpec("random", p0=100.0), seed=1,
                       graph_spec=GraphSpec(kind="lattice", side=4))
        calls = run_loop_calls(monkeypatch)
        (one,), (two,) = run_sweep(spec, threads=1), run_sweep(spec, threads=2)
        assert [par["beta"] for par, _ in calls] == [[0.3], [0.3]]
        assert attractor_bytes(one.attractor) == attractor_bytes(two.attractor)
        assert one.opinion_samples.tobytes() == two.opinion_samples.tobytes()
        assert one.p_samples.tobytes() == two.p_samples.tobytes()

    def test_fs_grid_runs_as_one_batch_at_any_thread_count(self, monkeypatch):
        calls = run_loop_calls(monkeypatch)
        run_sweep(fs_spec([0.45, 0.52, 0.999], transient=300, tail=256), threads=3)
        assert [par["beta"] for par, _ in calls] == [[0.45, 0.52, 0.999]]

    def test_other_grids_split_across_threads_byte_for_byte(self, monkeypatch):
        spec = fs_spec([0.3, 0.52, 0.999], transient=300, tail=256,
                       initial=InitSpec("random", p0=100.0), seed=9,
                       graph_spec=GraphSpec(kind="lattice", side=4))
        calls = run_loop_calls(monkeypatch)
        single = run_sweep(spec, threads=1)
        split = run_sweep(spec, threads=2)
        assert len(calls) == 3
        assert len(split) == len(single)
        chunks = sorted(calls[1:], key=lambda call: call[0]["beta"][0])  # appended as they end
        for a, b in zip(tail_opinions(calls[:1]), tail_opinions(chunks), strict=True):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        for a, b in zip(single, split):
            assert a.param_value == b.param_value
            assert attractor_bytes(a.attractor) == attractor_bytes(b.attractor)
            assert a.opinion_samples.tobytes() == b.opinion_samples.tobytes()
            assert a.p_samples.tobytes() == b.p_samples.tobytes()


class TestRandomStarts:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bounded_repeatable_and_thread_independent(self, data):
        # small complete, lattice and random graphs, random parameters and a random start
        kind = data.draw(st.sampled_from(["complete", "lattice", "random"]), label="kind")
        if kind == "lattice":
            graph_spec = GraphSpec(kind=kind, side=data.draw(st.integers(2, 5), label="side"))
        elif kind == "complete":
            graph_spec = GraphSpec(kind=kind, n=data.draw(st.integers(2, 8), label="n"))
        else:
            graph_spec = GraphSpec(kind=kind, n=data.draw(st.integers(2, 12), label="n"),
                                   edge_prob=data.draw(st.floats(0.01, 1.0), label="p"),
                                   seed=data.draw(st.integers(0, 2**32), label="graph_seed"))
        params = ModelParams(
            beta=data.draw(SWEPT_VALUES["beta"], label="beta"),
            gamma=data.draw(SWEPT_VALUES["gamma"], label="gamma"),
            e_min=0.0, e_max=1.0,
            p_bar=data.draw(SWEPT_VALUES["p_bar"], label="p_bar"),
        )
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        graph = graph_spec.build()
        s0 = initial_state(random_opinions(seed, graph.n_agents), 100.0, params)
        n_steps = data.draw(st.integers(0, 300), label="n_steps")
        first, second = (simulate(s0, graph, params, n_steps) for _ in range(2))
        assert (np.abs(first.opinions) <= 1.0).all()  # NaN fails too
        for name in ("ticks", "opinions", "pollution", "actions", "q_p"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes(), name

        swept = data.draw(st.sampled_from(SWEEPABLE), label="swept")
        grid = sorted(data.draw(st.lists(SWEPT_VALUES[swept], min_size=2, max_size=4,
                                         unique=True), label="grid"))
        spec = SweepSpec(base_params=params, swept_param=swept, grid=grid,
                         initial=InitSpec("random", p0=100.0), graph_spec=graph_spec, seed=seed,
                         transient=data.draw(st.integers(0, 200), label="transient"),
                         tail=32, max_period=16)

        def row_bytes(threads):
            return [(class_period(r.attractor), r.opinion_samples.tobytes(), r.p_samples.tobytes())
                    for r in run_sweep(spec, threads=threads)]

        assert row_bytes(1) == row_bytes(2)


class TestAttractorGallery:
    def test_full_trajectories_with_labels(self):
        base = fs_spec([0.5], transient=400, tail=260, max_period=128)
        entries = attractor_gallery([0.45, 0.999], base)
        assert [b for b, _, _ in entries] == [0.45, 0.999]
        for beta, traj, att in entries:
            assert traj.n_snapshots == base.transient + base.tail + 1
            assert traj.recording_stride == 1
        assert entries[0][2].kind == "fixed"
        assert entries[1][2].kind == "cycle"

    def test_monotone_settling_in_weak_coupling(self):
        base = fs_spec([0.5], transient=400, tail=260, max_period=128)
        ((_, traj, att),) = attractor_gallery([0.45], base)
        # after the first few quantizer-settling ticks the path is monotone
        th = traj.opinions[2:, 0]
        diffs = np.diff(th)
        assert np.all(diffs <= 0) or np.all(diffs >= 0)
        assert np.all(np.diff(traj.pollution[2:]) <= 0)  # decay toward 40

    def test_aperiodic_entry_has_no_recurrence(self):
        base = fs_spec([0.5], transient=10_000, tail=1024, max_period=256)
        ((_, traj, att),) = attractor_gallery([0.52], base)
        assert att.kind == "aperiodic"
        # exhaustive scan: no candidate period matches over the whole tail
        tail = np.column_stack([traj.opinions[-1024:, 0], traj.pollution[-1024:]])
        for m in range(1, 257):
            assert np.max(np.abs(tail[m:] - tail[:-m])) >= 1e-9

    def test_cycle_recurs_in_tail(self):
        base = fs_spec([0.5], transient=2000, tail=512, max_period=128)
        ((_, traj, att),) = attractor_gallery([0.999], base)
        m = att.period
        tail_th = traj.opinions[-512:, 0]
        tail_p = traj.pollution[-512:]
        assert np.max(np.abs(tail_th[m:] - tail_th[:-m])) < 1e-9
        assert np.max(np.abs(tail_p[m:] - tail_p[:-m])) < 1e-9

    @pytest.mark.parametrize("betas", [[0.45, 1.5], [-0.1], [0.45, 0.6, math.nan]])
    def test_bad_beta_rejected_before_any_run(self, betas, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("simulated before every beta was checked")

        monkeypatch.setattr("codapol.sweep.simulate", no_run)
        with pytest.raises(ValueError, match="beta") as info:
            attractor_gallery(betas, fs_spec([0.5], transient=10, tail=8, max_period=4))
        assert not isinstance(info.value, SweepError)

    @pytest.mark.parametrize("betas, bad", [(["0.45"], "'0.45'"), ([0.45, True], "True")])
    def test_non_number_betas_rejected(self, betas, bad):
        with pytest.raises(ValueError, match=f"^beta must be an int or a float, got {bad}$"):
            attractor_gallery(betas, fs_spec([0.5], transient=10, tail=8, max_period=4))

    def test_fs_gallery_on_a_lattice_matches_loop(self, monkeypatch):
        base = fs_spec([0.5], transient=300, tail=256, max_period=128,
                       graph_spec=GraphSpec(kind="lattice", side=4))
        calls = neighbor_mean_calls(monkeypatch)
        entries = attractor_gallery([0.45, 0.52, 0.999], base)
        assert calls == []
        graph = base.graph_spec.build()
        for beta, traj, att in entries:
            params = replace(BASE, beta=beta)
            want = run_loop(fs_initial_state(0.4, 16, 100.0, params), graph, params, 556)
            for got, ref in zip((traj.opinions, traj.pollution, traj.actions, traj.q_p), want):
                assert got.tobytes() == ref.tobytes()
            expected = classify_states(want[0][-256:], want[1][-256:], max_period=128)
            assert attractor_bytes(att) == attractor_bytes(expected)


class TestSweepCsv:
    def test_bifurcation_format(self, tmp_path):
        rows = run_sweep(fs_spec([0.45, 0.999]))
        path = tmp_path / "bifurcation.csv"
        write_bifurcation_csv(rows, path)
        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert list(records[0].keys()) == [
            "param_value", "class", "period", "sample_index", "theta_sample", "p_sample",
        ]
        assert len(records) == 2 * 512
        fixed = [r for r in records if r["class"] == "fixed"]
        cycles = [r for r in records if r["class"] == "cycle"]
        assert fixed and cycles
        assert all(r["period"] == "" for r in fixed)
        assert all(int(r["period"]) >= 2 for r in cycles)
        assert [int(r["sample_index"]) for r in records[:512]] == list(range(512))
        # floats round-trip
        row0 = run_sweep(fs_spec([0.45]))[0]
        assert float(records[0]["theta_sample"]) == row0.opinion_samples[0]

    def test_gallery_format(self, tmp_path):
        base = fs_spec([0.5], transient=300, tail=260, max_period=128)
        entries = attractor_gallery([0.45], base)
        path = tmp_path / "gallery.csv"
        write_gallery_csv(entries, path)
        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
        assert list(records[0].keys()) == ["beta", "tick", "theta", "p", "class"]
        assert len(records) == 300 + 260 + 1
        assert records[0]["class"] == "fixed"
        assert int(records[-1]["tick"]) == 560

    @pytest.mark.parametrize("case", ["gallery", "special", "empty"])
    def test_gallery_bytes_match_per_row_writer(self, tmp_path, case):
        base = fs_spec([0.5], transient=300, tail=256, max_period=128)
        entries = attractor_gallery([0.45, 0.52, 0.8], base)
        assert {att.kind for _, _, att in entries} == {"fixed", "cycle", "aperiodic"}
        if case == "special":
            special = np.array(SPECIAL_FLOATS)
            entries = [
                (beta, replace(traj, ticks=traj.ticks[:len(special)],
                               opinions=np.column_stack([np.roll(special, k), special]),
                               pollution=special[::-1].copy()), att)
                for k, (beta, (_, traj, att)) in enumerate(zip(SPECIAL_FLOATS, entries))
            ]
        elif case == "empty":
            entries = []
        write_gallery_csv(entries, tmp_path / "bulk.csv")
        write_gallery_csv_per_row(entries, tmp_path / "per_row.csv")
        bulk = (tmp_path / "bulk.csv").read_bytes()
        assert bulk == (tmp_path / "per_row.csv").read_bytes()
        assert bulk.count(b"\n") == 1 + sum(traj.n_snapshots for _, traj, _ in entries)

    @pytest.mark.parametrize("case", ["fs", "mean", "blocks"])
    def test_bifurcation_bytes_match_per_row_writer(self, tmp_path, case, monkeypatch):
        fs = case != "mean"
        if case == "fs":
            spec = fs_spec([0.45, 0.52, 0.999], transient=300, tail=256, max_period=128)
        elif case == "blocks":
            # rows of one and a half writer blocks of 4-field lines
            spec = fs_spec([0.45, 0.5, 0.52, 0.6, 0.7, 0.8, 0.999], transient=300,
                           tail=_BLOCK_FIELDS * 3 // 8, max_period=128)
        else:
            spec = fs_spec([0.3, 0.52, 0.999], transient=300, tail=256, max_period=128,
                           initial=InitSpec("random", p0=100.0), seed=9,
                           graph_spec=GraphSpec(kind="lattice", side=4))
        calls = run_loop_calls(monkeypatch)
        rows = run_sweep(spec)
        assert all((tail == tail[:, :1]).all() for tail in tail_opinions(calls)) == fs
        write_bifurcation_csv(rows, tmp_path / "bulk.csv")
        write_bifurcation_csv_per_row(rows, tmp_path / "per_row.csv")
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "per_row.csv").read_bytes()

    def test_bifurcation_bytes_on_special_values(self, tmp_path):
        special = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1])
        attractors = [
            FixedPoint(theta_star=np.array([0.5, -0.0]), p_star=1.0),
            LimitCycle(period=3),
            Aperiodic(),
        ]
        rows = []
        for i, attractor in enumerate(attractors):
            for value in (-0.0, 5e-324, 1e308 * (i + 1)):
                rows.append(SweepRow(value, attractor, np.roll(special, i), special[::-1]))
                rows.append(SweepRow(value, attractor, special[::-1], np.roll(special, -i)))
        write_bifurcation_csv(rows, tmp_path / "bulk.csv")
        write_bifurcation_csv_per_row(rows, tmp_path / "per_row.csv")
        text = (tmp_path / "bulk.csv").read_text()
        assert text == (tmp_path / "per_row.csv").read_text()
        for token in ("nan", "inf", "-inf", "-0", "4.9406564584124654e-324", "1e+308"):
            assert f",{token}," in text or f",{token}\n" in text
