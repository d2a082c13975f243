import csv
import math
import os
import re
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from codapol.dynamics import (
    ModelParams,
    SimState,
    _philox4x64,
    fs_initial_state,
    initial_state,
    local_fields,
    quantize_opinion,
    quantize_pollution,
    random_opinions,
    simulate,
    step,
    step_opinion,
    step_pollution,
)
from codapol.csvout import _BLOCK_FIELDS, _EXACT_MIN, CsvWriter
from codapol.graph import Graph, complete_graph, random_graph

from helpers import (
    SPECIAL_FLOATS,
    agent_uniforms,
    count_preservation_violations,
    count_trichotomy_violations,
    first_valid,
    is_rounding_event,
    local_field,
    neighbors,
    random_opinions_loop,
    run_loop,
    write_trajectory_csv_per_row,
)

BASE = ModelParams(beta=0.45, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=15.0)


def small_random_setup(seed, n=12, beta=None):
    rng = np.random.default_rng(seed)
    graph = random_graph(n, 0.3, seed=seed)
    params = ModelParams(
        beta=float(rng.uniform(0, 1)) if beta is None else beta,
        gamma=float(rng.uniform(0.05, 0.95)),
        e_min=float(rng.uniform(0, 1)),
        e_max=float(rng.uniform(1, 2)),
        p_bar=float(rng.uniform(0, 30)),
    )
    opinions = rng.uniform(-1, 1, size=n)
    opinions[opinions == 0.0] = 0.5
    p0 = float(rng.uniform(0, 60))
    if p0 == params.p_bar:
        p0 += 1.0
    return graph, params, initial_state(opinions, p0, params)


class TestModelParams:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError, match="beta"):
            ModelParams(beta=1.2, gamma=0.5, e_min=0, e_max=1, p_bar=0)
        with pytest.raises(ValueError, match="gamma"):
            ModelParams(beta=0.5, gamma=1.0, e_min=0, e_max=1, p_bar=0)
        with pytest.raises(ValueError, match="gamma"):
            ModelParams(beta=0.5, gamma=0.0, e_min=0, e_max=1, p_bar=0)
        with pytest.raises(ValueError, match="e_min"):
            ModelParams(beta=0.5, gamma=0.5, e_min=2, e_max=1, p_bar=0)

    @pytest.mark.parametrize("field, value", [
        ("p_bar", math.nan),
        ("p_bar", math.inf),
        ("e_max", math.inf),
        ("e_max", math.nan),
        ("e_min", -math.inf),
        ("beta", math.nan),
        ("gamma", math.nan),
    ])
    def test_non_finite_rejected(self, field, value):
        kwargs = dict(beta=0.5, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=0.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            ModelParams(**kwargs)

    @pytest.mark.parametrize("field", ["beta", "gamma", "e_min", "e_max", "p_bar"])
    @pytest.mark.parametrize("value", [True, False, np.True_, "0.5", None, 0.5j])
    def test_non_numbers_rejected(self, field, value):
        kwargs = dict(beta=0.5, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=0.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be an int or a float, got "):
            ModelParams(**kwargs)

    def test_numpy_numbers_accepted(self):
        params = ModelParams(beta=np.float32(0.5), gamma=np.float64(0.5), e_min=np.int8(0),
                             e_max=1, p_bar=np.uint64(15))
        assert params.p_bar == 15

    def test_boundary_betas_allowed(self):
        ModelParams(beta=0.0, gamma=0.5, e_min=0, e_max=1, p_bar=0)
        ModelParams(beta=1.0, gamma=0.5, e_min=0, e_max=0, p_bar=0)


class TestQuantizers:
    def test_opinion_examples(self):
        assert quantize_opinion(0.3, -1) == 1
        assert quantize_opinion(0.0, -1) == -1
        assert quantize_opinion(-0.2, 1) == -1
        assert quantize_opinion(0.0, 1) == 1
        theta = np.array([0.3, 0.0, -0.0, -0.2, 0.0, -0.0])
        for dtype in (np.int8, np.int64):
            prev = np.array([-1, -1, 1, 1, 1, -1], dtype=dtype)
            q = quantize_opinion(theta, prev)
            assert q.dtype == dtype and q.tolist() == [1, -1, 1, -1, 1, -1]

    def test_pollution_examples(self):
        assert quantize_pollution(100.0, 15.0, 1) == -1
        assert quantize_pollution(15.0, 15.0, 1) == 1
        assert quantize_pollution(15.0, 15.0, -1) == -1
        assert quantize_pollution(10.0, 15.0, -1) == 1
        assert quantize_pollution(math.nan, 15.0, -1) == -1
        assert type(quantize_pollution(15.0, 15.0, -1)) is int
        assert type(quantize_pollution(100.0, 15.0, 1)) is int
        p = np.array([100.0, 15.0, 15.0, 10.0, np.nan, np.nan])
        prev = np.array([1, 1, -1, -1, 1, -1])
        for p_bar in (15.0, np.full(6, 15.0)):
            assert quantize_pollution(p, p_bar, prev).tolist() == [-1, 1, -1, 1, 1, -1]

    def test_opinion_on_floats_gives_python_ints(self):
        for theta in (0.3, 0.0, -0.0, -0.2, math.nan):
            for prev in (-1, 1):
                assert type(quantize_opinion(theta, prev)) is int

    def test_opinion_matches_where_form(self):
        theta = np.array([0.0, -0.0, math.nan, 1e-300, -1e-300, 0.5, -1.0])
        for dtype in (np.int8, np.int64):
            for memory in (-1, 1):
                prev = np.full(theta.shape, memory, dtype=dtype)
                want = np.where(theta > 0.0, 1, np.where(theta < 0.0, -1, prev))
                got = quantize_opinion(theta, prev)
                assert got.dtype == want.dtype == dtype
                assert got.tolist() == want.tolist()
                assert [quantize_opinion(t, memory) for t in theta.tolist()] == want.tolist()

    @given(theta=st.floats(-1, 1), prev=st.sampled_from([-1, 1]))
    def test_opinion_sign_dominates_memory(self, theta, prev):
        q = quantize_opinion(theta, prev)
        assert quantize_opinion(np.array([theta]), np.array([prev])).tolist() == [q]
        if theta > 0:
            assert q == 1
        elif theta < 0:
            assert q == -1
        else:
            assert q == prev

    @given(p=st.floats(-100, 100), p_bar=st.floats(-50, 50), prev=st.sampled_from([-1, 1]))
    def test_pollution_polarity_inverted(self, p, p_bar, prev):
        q = quantize_pollution(p, p_bar, prev)
        assert quantize_pollution(np.array([p]), p_bar, np.array([prev])).tolist() == [q]
        if p > p_bar:
            assert q == -1
        elif p < p_bar:
            assert q == 1
        else:
            assert q == prev


class TestStepPollution:
    def test_examples(self):
        assert step_pollution(100.0, 20.0, 0.5) == 70.0
        assert step_pollution(40.0, 20.0, 0.5) == 40.0  # fixed point E/(1-gamma)
        assert step_pollution(8.0, 0.0, 0.5) == 4.0

    @given(p=st.floats(-1e6, 1e6), d=st.floats(-100, 100),
           e=st.floats(0, 100), gamma=st.floats(0.01, 0.99))
    def test_affine_in_pollution(self, p, d, e, gamma):
        lhs = step_pollution(p + d, e, gamma)
        rhs = step_pollution(p, e, gamma) + gamma * d
        assert lhs == pytest.approx(rhs, abs=1e-6, rel=1e-12)

    def test_geometric_convergence_to_ratio(self):
        gamma, total = 0.5, 20.0
        target = total / (1.0 - gamma)
        p = 100.0
        for k in range(1, 60):
            p = step_pollution(p, total, gamma)
            # geometric envelope, with absolute slack for rounding near the limit
            assert abs(p - target) <= (gamma ** k) * 60.0 + 1e-12
        assert abs(p - target) < 1e-6


class TestLocalField:
    def test_synchronized_complete_graph(self):
        g = complete_graph(20)
        q = np.ones(20, dtype=np.int64)
        f = local_fields(q, -1, g, beta=0.45)[0]
        # (1 - 0.45) * 1 + 0.45 * (-1) = 0.1
        assert f == pytest.approx(0.1, abs=1e-15)

    def test_pure_neighbor_term(self):
        g = complete_graph(5)
        q = np.array([1, 1, 1, -1, 1])  # agent 4 sees 3 plus, 1 minus
        assert local_fields(q, -1, g, beta=0.0)[4] == 0.5

    def test_pure_signal_term(self):
        g = complete_graph(5)
        q = np.array([1, -1, 1, -1, 1])
        assert local_fields(q, -1, g, beta=1.0)[0] == -1.0

    def test_vectorized_matches_scalar_bitwise(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            g = random_graph(15, 0.4, seed=seed)
            q = rng.choice([-1, 1], size=15).astype(np.int64)
            qp = int(rng.choice([-1, 1]))
            beta = float(rng.uniform(0, 1))
            vec = local_fields(q, qp, g, beta)
            scal = np.array([local_field(nbrs, q, qp, beta) for nbrs in neighbors(g)])
            assert np.array_equal(vec, scal)

    @given(seed=st.integers(0, 1000), beta=st.floats(0, 1))
    @settings(max_examples=30, deadline=None)
    def test_always_within_unit_interval(self, seed, beta):
        rng = np.random.default_rng(seed)
        g = random_graph(10, 0.4, seed=seed)
        q = rng.choice([-1, 1], size=10).astype(np.int64)
        qp = int(rng.choice([-1, 1]))
        f = local_fields(q, qp, g, beta)
        assert np.all(f >= -1.0) and np.all(f <= 1.0)


class TestStepOpinion:
    def test_examples(self):
        assert step_opinion(0.4, 1.0) == pytest.approx(0.904, abs=1e-15)
        assert step_opinion(1.0, -0.7) == 1.0
        assert step_opinion(-1.0, 0.9) == -1.0
        assert step_opinion(0.1, 0.1) == 0.1

    @given(theta=st.floats(-1, 1), f=st.floats(-1, 1))
    def test_stays_in_range_and_moves_toward_field(self, theta, f):
        out = step_opinion(theta, f)
        assert -1.0 <= out <= 1.0
        lo, hi = min(theta, f), max(theta, f)
        assert lo - 1e-12 <= out <= hi + 1e-12


class TestStep:
    def test_synchronized_step_example(self):
        g = complete_graph(20)
        s0 = fs_initial_state(0.4, 20, 100.0, BASE)
        s1 = step(s0, g, BASE)
        assert np.all(s1.opinions == s1.opinions[0])
        assert s1.opinions[0] == pytest.approx(0.148, abs=1e-15)
        assert s1.pollution == 70.0
        assert s1.tick == 1
        assert np.all(s1.actions == 1)
        assert s1.q_p == -1

    def test_unanimous_boundary_fixed_point(self):
        params = ModelParams(beta=0.45, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=50.0)
        g = complete_graph(20)
        s0 = fs_initial_state(1.0, 20, 40.0, params, allow_boundary=True)
        s1 = step(s0, g, params)
        assert np.all(s1.opinions == 1.0)
        assert s1.pollution == 40.0
        assert s1.q_p == 1

    def test_extreme_opinions_frozen(self):
        g = complete_graph(4)
        for beta in (0.0, 0.3, 0.8, 1.0):
            params = ModelParams(beta=beta, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=5.0)
            theta = np.array([1.0, -1.0, 1.0, -1.0])
            s0 = initial_state(theta, 100.0, params, allow_boundary=True)
            s1 = step(s0, g, params)
            assert np.array_equal(s1.opinions, theta)

    def test_dimension_mismatch_rejected(self):
        s0 = fs_initial_state(0.4, 5, 100.0, BASE)
        with pytest.raises(ValueError, match="agents"):
            step(s0, complete_graph(6), BASE)

    def test_refresh_heals_inconsistent_actions(self):
        g = complete_graph(3)
        bad = SimState(
            opinions=np.array([0.5, -0.5, 0.5]),
            pollution=100.0,
            actions=np.array([-1, -1, -1], dtype=np.int64),  # wrong for agents 0, 2
            q_p=1,  # wrong for p=100 > p_bar
            tick=0,
        )
        good = initial_state(np.array([0.5, -0.5, 0.5]), 100.0, BASE)
        s_bad = step(bad, g, BASE)
        s_good = step(good, g, BASE)
        assert np.array_equal(s_bad.opinions, s_good.opinions)
        assert s_bad.pollution == s_good.pollution


    @pytest.mark.parametrize("opinions, actions, q_p, pollution, match", [
        ([0.0, 0.5, 0.5, 0.5], [300, 1, 1, 1], 7, 100.0, "agent 0 has action 300;"),
        ([0.5, 0.5, 0.5, 0.5], [1, 1, 0, 1], 1, 100.0, "agent 2 has action 0;"),
        ([0.5, 1.5, 0.5, 0.5], [1, 1, 1, 1], 1, 100.0, r"agent 1 has opinion 1.5; .* \[-1, 1\]"),
        ([0.5, 0.5, 0.5, math.nan], [1, 1, 1, 1], 1, 100.0, "agent 3 has opinion nan;"),
        ([0.5, 0.5, 0.5, 0.5], [1, 1, 1, 1], 7, 100.0, "q_p must be -1 or 1, got 7"),
        ([0.5, 0.5, 0.5, 0.5], [1, 1, 1, 1], 0, 100.0, "q_p must be -1 or 1, got 0"),
        ([0.5, 0.5, 0.5, 0.5], [1, 1, 1, 1], 1, math.inf, "pollution must be finite"),
        ([0.5, 0.5, 0.5, 0.5], [1, 1, 1, 1], 1, math.nan, "pollution must be finite"),
    ])
    def test_illegal_state_rejected(self, opinions, actions, q_p, pollution, match):
        # int8 memories would wrap an action of 300 to 44 without a word
        state = SimState(np.array(opinions), pollution, np.array(actions, dtype=np.int64), q_p)
        with pytest.raises(ValueError, match=match):
            step(state, complete_graph(4), BASE)

    def test_mid_run_ties_and_boundaries_accepted(self):
        # a zero opinion keeps its memory and a pollution at p_bar keeps q_p
        state = SimState(np.array([0.0, -0.0, 1.0, -1.0]), BASE.p_bar,
                         np.array([-1, 1, 1, -1], dtype=np.int64), -1)
        s1 = step(state, complete_graph(4), BASE)
        want = run_loop(state, complete_graph(4), BASE, 1)
        assert s1.opinions.tobytes() == want[0][1].tobytes() and s1.pollution == want[1][1]
        assert s1.actions.dtype == np.int64 and s1.actions.tolist() == want[2][1].tolist()
        assert s1.q_p == want[3][1]


class TestInitialState:
    def test_zero_opinion_rejected_naming_agent(self):
        with pytest.raises(ValueError, match="agent 2"):
            initial_state([0.5, -0.5, 0.0], 100.0, BASE)

    def test_boundary_needs_override(self):
        with pytest.raises(ValueError, match="allow_boundary"):
            initial_state([1.0, 0.5], 100.0, BASE)
        s = initial_state([1.0, 0.5], 100.0, BASE, allow_boundary=True)
        assert list(s.actions) == [1, 1]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            initial_state([1.5], 100.0, BASE)

    def test_pollution_tie_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            initial_state([0.5], 15.0, BASE)

    @pytest.mark.parametrize("opinions, pollution, match", [
        ([math.nan, 0.5], 100.0, "agent 0"),
        ([0.5, math.inf], 100.0, "agent 1"),
        ([0.5, -math.inf], 100.0, "agent 1"),
        ([0.5, 0.25], math.nan, "finite"),
        ([0.5, 0.25], -math.inf, "finite"),
    ])
    def test_non_finite_rejected(self, opinions, pollution, match):
        with pytest.raises(ValueError, match=match):
            initial_state(opinions, pollution, BASE, allow_boundary=True)
        # simulate applies the same check to a hand-built state
        state = SimState(opinions=np.array(opinions), pollution=pollution,
                         actions=np.ones(2, dtype=np.int64), q_p=1)
        with pytest.raises(ValueError, match=match):
            simulate(state, complete_graph(2), BASE, 5, allow_boundary=True)

    def test_memories_from_signs(self):
        s = initial_state([0.5, -0.25], 3.0, BASE)
        assert list(s.actions) == [1, -1]
        assert s.q_p == 1  # p below threshold reads +1


class TestSimulate:
    def test_zero_steps_only_initial_snapshot(self):
        g = complete_graph(3)
        s0 = fs_initial_state(0.4, 3, 100.0, BASE)
        traj = simulate(s0, g, BASE, n_steps=0)
        assert traj.n_snapshots == 1
        assert traj.ticks[0] == 0
        assert np.array_equal(traj.opinions[0], s0.opinions)

    def test_weak_coupling_settles_at_predicted_point(self):
        g = complete_graph(20)
        s0 = fs_initial_state(0.4, 20, 100.0, BASE)
        traj = simulate(s0, g, BASE, n_steps=500, stride=10)
        assert np.all(np.abs(traj.opinions[-1] - 0.1) < 1e-9)
        assert abs(traj.pollution[-1] - 40.0) < 1e-6

    def test_deterministic_repeat(self):
        g, params, s0 = small_random_setup(11)
        a = simulate(s0.copy(), g, params, 200)
        b = simulate(s0.copy(), g, params, 200)
        assert np.array_equal(a.opinions, b.opinions)
        assert np.array_equal(a.pollution, b.pollution)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.q_p, b.q_p)

    def test_stride_records_final_tick(self):
        g = complete_graph(3)
        s0 = fs_initial_state(0.4, 3, 100.0, BASE)
        traj = simulate(s0, g, BASE, n_steps=10, stride=3)
        assert list(traj.ticks) == [0, 3, 6, 9, 10]

    def test_matches_repeated_step_bitwise(self):
        g, params, s0 = small_random_setup(23)
        traj = simulate(s0.copy(), g, params, 60)
        state = s0.copy()
        for s in range(61):
            assert np.array_equal(traj.opinions[s], state.opinions)
            assert traj.pollution[s] == state.pollution
            assert np.array_equal(traj.actions[s], state.actions.astype(np.int8))
            assert traj.q_p[s] == state.q_p
            if s < 60:
                state = step(state, g, params)

    def test_assumption_violations_named(self):
        g = complete_graph(3)
        s0 = fs_initial_state(0.4, 3, 100.0, BASE)
        s0.opinions[1] = 0.0
        with pytest.raises(ValueError, match="agent 1"):
            simulate(s0, g, BASE, 10)
        s0.opinions[1] = 0.4
        s0.pollution = BASE.p_bar
        with pytest.raises(ValueError, match="threshold"):
            simulate(s0, g, BASE, 10)

    def test_high_degree_int8_memories_sum_exactly(self):
        # in-degree 299 > 127: the int8 memories' neighbor sums of about 240 stay
        # exact only because numpy sums small ints in the platform int
        complete = complete_graph(300)
        csr = Graph(300, complete.indptr, complete.indices)
        params = ModelParams(beta=0.2, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=150.0)
        opinions = np.abs(random_opinions(3, 300))
        opinions[::10] *= -1.0
        s0 = initial_state(opinions, 100.0, params)
        want = run_loop(s0, csr, params, 6)
        assert want[2][0].sum() == 240
        for graph in (complete, csr):
            traj = simulate(s0, graph, params, 6)
            for got, ref in zip((traj.opinions, traj.pollution, traj.actions, traj.q_p), want):
                assert got.tobytes() == ref.tobytes()
        s1 = step(s0, csr, params)
        assert s1.opinions.tobytes() == want[0][1].tobytes()
        assert s1.actions.dtype == np.int64 and s1.actions.tolist() == want[2][1].tolist()

    @pytest.mark.parametrize("n_agents, n_steps, stride, match", [
        (3, -1, 1, "n_steps must be nonnegative, got -1"),
        (3, 10, 0, "stride must be positive, got 0"),
        (3, 10, -2, "stride must be positive, got -2"),
        (4, 10, 1, "state has 4 agents but graph has 3"),
        (3, True, 1, "n_steps must be an int, got True"),
        (3, 2.5, 1, "n_steps must be an int, got 2.5"),
        (3, 3, True, "stride must be an int, got True"),
        (3, 10, 1.5, "stride must be an int, got 1.5"),
    ])
    def test_bad_run_arguments_rejected(self, n_agents, n_steps, stride, match):
        s0 = fs_initial_state(0.4, n_agents, 100.0, BASE)
        with pytest.raises(ValueError, match=match):
            simulate(s0, complete_graph(3), BASE, n_steps, stride)

    def test_step_rejects_agent_count_mismatch(self):
        with pytest.raises(ValueError, match="state has 4 agents but graph has 3"):
            step(fs_initial_state(0.4, 4, 100.0, BASE), complete_graph(3), BASE)

    @pytest.mark.parametrize("actions", [[1], [[1] * 4] * 2], ids=["one", "two-rows"])
    def test_actions_of_wrong_shape_rejected(self, actions):
        # one memory would broadcast to every agent, and two rows fail in the record loop
        match = re.escape(f"state has actions of shape {np.shape(actions)} but graph has 4 agents")
        state = SimState(np.array([0.0, 0.5, 0.5, 0.5]), 100.0, np.array(actions), 1)
        with pytest.raises(ValueError, match=match):
            step(state, complete_graph(4), BASE)
        s0 = replace(fs_initial_state(0.4, 4, 100.0, BASE), actions=np.array(actions))
        with pytest.raises(ValueError, match=match):
            simulate(s0, complete_graph(4), BASE, 10)

    def test_boundary_opinions_need_override(self):
        g = complete_graph(3)
        params = BASE
        s0 = initial_state([1.0, 0.4, -0.4], 100.0, params, allow_boundary=True)
        with pytest.raises(ValueError, match="allow_boundary"):
            simulate(s0, g, params, 10)
        traj = simulate(s0, g, params, 10, allow_boundary=True)
        assert np.all(traj.opinions[:, 0] == 1.0)

    def test_range_closure_over_runs(self):
        for seed in range(4):
            g, params, s0 = small_random_setup(seed)
            traj = simulate(s0, g, params, 500)
            assert np.all(traj.opinions >= -1.0)
            assert np.all(traj.opinions <= 1.0)

    def test_trichotomy_on_recorded_steps(self):
        # every recorded step follows the monotonicity trichotomy, except for
        # correctly rounded strict steps such as the boundary stall
        for seed in range(4):
            g, params, s0 = small_random_setup(seed + 40)
            traj = simulate(s0, g, params, 300)
            for tick, agent, th, th1, f in count_trichotomy_violations(traj, g, params.beta):
                assert is_rounding_event(th, th1, f), (tick, agent, th, th1, f)

    def test_boundary_stall_reproduces(self):
        # regression: an opinion crossing near zero under a unit field lands
        # at 1 - delta^2, where the true increment is below half an ulp and
        # the iterate parks short of the field, outside the 1e-12 window
        g, params, s0 = small_random_setup(43)
        traj = simulate(s0, g, params, 300)
        stalls = count_trichotomy_violations(traj, g, params.beta)
        assert stalls, "expected at least one boundary stall in this seeded run"
        for tick, agent, th, th1, f in stalls:
            assert th1 == th
            assert abs(f) == 1.0
            assert is_rounding_event(th, th1, f), (tick, agent, th, f)

    def test_action_preservation_on_recorded_steps(self):
        for seed in range(4):
            g, params, s0 = small_random_setup(seed + 80)
            traj = simulate(s0, g, params, 300)
            assert count_preservation_violations(traj, g, params.beta) == []

    def test_majority_preservation_under_small_beta(self):
        # when beta < 1/(1 + n_i), a strict in-neighborhood majority for the
        # agent's own action keeps that action one more tick
        for seed in range(6):
            g, _, s0 = small_random_setup(seed + 120)
            table = neighbors(g)
            max_deg = max(len(nbrs) for nbrs in table)
            params = ModelParams(beta=0.9 / (1 + max_deg), gamma=0.5,
                                 e_min=0.0, e_max=1.0, p_bar=15.0)
            traj = simulate(s0, g, params, 200)
            for s in range(traj.n_snapshots - 1):
                for i in range(g.n_agents):
                    diff = sum(int(traj.actions[s, j]) for j in table[i])
                    q = int(traj.actions[s, i])
                    if q == 1 and diff > 0:
                        assert int(traj.actions[s + 1, i]) == 1
                    if q == -1 and diff < 0:
                        assert int(traj.actions[s + 1, i]) == -1

    def test_field_sign_identity_under_small_beta(self):
        # sign(f_i) equals sign(n_plus - n_minus + n_i*beta*q_p/(1-beta))
        # whenever beta < 1/(1 + n_i); checked away from exact zero
        rng = np.random.default_rng(9)
        g = random_graph(12, 0.4, seed=9)
        table = neighbors(g)
        for _ in range(50):
            q = rng.choice([-1, 1], size=12).astype(np.int64)
            qp = int(rng.choice([-1, 1]))
            for i in range(12):
                n_i = len(table[i])
                beta = 0.9 / (1 + n_i)
                f = local_fields(q, qp, g, beta)[i]
                arg = sum(int(q[j]) for j in table[i]) + n_i * beta * qp / (1 - beta)
                if abs(arg) > 1e-9:
                    assert math.copysign(1, f) == math.copysign(1, arg)

    def test_synchronized_state_stays_synchronized_bitwise(self):
        g = complete_graph(7)
        params = ModelParams(beta=0.7, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=15.0)
        s0 = fs_initial_state(0.4, 7, 100.0, params)
        thetas, _, _, _ = run_loop(s0, g, params, 400)
        assert (thetas == thetas[:, :1]).all()
        assert simulate(s0, g, params, 400).opinions.tobytes() == thetas.tobytes()

    @pytest.mark.parametrize("fs", [True, False], ids=["fs", "random"])
    def test_trajectory_arrays_read_only(self, fs):
        opinions = [0.4] * 5 if fs else [0.4, -0.3, 0.2, 0.1, -0.5]
        traj = simulate(initial_state(opinions, 100.0, BASE), complete_graph(5), BASE, 5)
        for name in ("ticks", "opinions", "pollution", "actions", "q_p"):
            arr = getattr(traj, name)
            with pytest.raises(ValueError, match="read-only"):
                arr[-1] = arr[0]
        state = traj.state_at(2)
        state.opinions[0], state.actions[0] = 0.1, -1


class TestRandomOpinions:
    def test_deterministic_and_indexed_by_agent(self):
        a = random_opinions(42, 20)
        b = random_opinions(42, 20)
        assert np.array_equal(a, b)
        # per-agent counter blocks: a shorter draw is a prefix of a longer one
        assert np.array_equal(random_opinions(42, 10), a[:10])

    def test_within_open_interval_no_zeros(self):
        vals = random_opinions(7, 3000)
        assert np.all(vals > -1.0) and np.all(vals < 1.0)
        assert np.all(vals != 0.0)

    def test_different_seeds_differ(self):
        assert not np.array_equal(random_opinions(1, 10), random_opinions(2, 10))

    @pytest.mark.parametrize("seed", [1.5, 2**64, -1, "3", True, False, np.bool_(True)])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match=r"seed must be an int in \[0, 2\*\*64\)"):
            random_opinions(seed, 3)

    def test_seed_range_ends_accepted(self):
        for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
            assert random_opinions(seed, 2).shape == (2,)

    def test_negative_agent_count_rejected(self):
        with pytest.raises(ValueError, match="n_agents must be nonnegative, got -1"):
            random_opinions(7, -1)

    @pytest.mark.parametrize("n", [2.5, True, "3", np.bool_(True)], ids=repr)
    def test_non_int_agent_count_rejected(self, n):
        with pytest.raises(ValueError, match="n_agents must be an int, got "):
            random_opinions(7, n)

    def test_numpy_int_agent_count_accepted(self):
        assert random_opinions(7, np.int64(3)).tobytes() == random_opinions(7, 3).tobytes()

    @pytest.mark.parametrize("n", [0, 1, 2, 5000])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1,
                                      np.uint64(2**64 - 1)], ids=repr)
    def test_matches_per_agent_generators(self, seed, n):
        got = random_opinions(seed, n)
        assert got.dtype == np.float64
        assert got.tobytes() == random_opinions_loop(seed, n).tobytes()

    @given(st.integers(0, 2**64 - 1), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_agent_generators_at_any_seed(self, seed, n):
        assert random_opinions(seed, n).tobytes() == random_opinions_loop(seed, n).tobytes()

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_blocks_leave_the_draws_unchanged(self, seed, monkeypatch):
        # 17 agents in blocks of 5: three full blocks and a partial one
        monkeypatch.setattr("codapol.dynamics._OPINION_BLOCK", 5)
        assert random_opinions(seed, 17).tobytes() == random_opinions_loop(seed, 17).tobytes()

    # Random123's published known-answer vectors for Philox4x64-10:
    # (counter, key) -> block, each word in hex.
    @pytest.mark.parametrize("counter, key, block", [
        ((0, 0, 0, 0), (0, 0),
         (0x16554d9eca36314c, 0xdb20fe9d672d0fdc, 0xd7e772cee186176b, 0x7e68b68aec7ba23b)),
        ((2**64 - 1,) * 4, (2**64 - 1,) * 2,
         (0x87b092c3013fe90b, 0x438c3c67be8d0224, 0x9cc7d7c69cd777b6, 0xa09caebf594f0ba0)),
        ((0x243f6a8885a308d3, 0x13198a2e03707344, 0xa4093822299f31d0, 0x082efa98ec4e6c89),
         (0x452821e638d01377, 0xbe5466cf34e90c6c),
         (0xa528f45403e61d95, 0x38c72dbd566e9788, 0xa5a1610e72fd18b5, 0x57bd43b5e52b7fe6)),
    ], ids=["zeros", "ones", "pi"])
    def test_philox_known_answers(self, counter, key, block):
        words = _philox4x64(tuple(np.array([c], dtype=np.uint64) for c in counter), key)
        assert [int(w[0]) for w in words] == list(block)

    def test_rejected_first_draws_are_redrawn_by_their_generators(self, monkeypatch):
        # word 0 = 0 gives u = -1 and 2**63 gives u = 0: both are drawn again
        # from the agent's own generator, every other agent keeps its draw
        seed, n, rejected = 20240, 50, {3: 0, 41: 2**63}
        real = _philox4x64

        def forced(counter, key):
            words = real(counter, key)
            for i, w in rejected.items():
                words[0][i] = w
            return words

        monkeypatch.setattr("codapol.dynamics._philox4x64", forced)
        got, want = random_opinions(seed, n), random_opinions_loop(seed, n)
        for i in rejected:
            draws = agent_uniforms(seed, i)
            next(draws)  # the rejected first draw
            want[i] = first_valid(draws)
        assert got.tobytes() == want.tobytes()

    def test_leaves_numpy_random_unimported(self):
        # numpy imports numpy.random lazily; a random start without redraws never needs it
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        code = ("import sys; from codapol import cli; from codapol.dynamics import "
                "random_opinions; random_opinions(3, 1000); "
                "print('numpy.random' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


# Doubles with edge-case %.17g forms: both zeros, the smallest subnormal, both
# infinities, NaNs with payloads and either sign, the first doubles with 17 and
# 18 integer digits, and the widest field (24 bytes).
EDGE_FLOATS = (0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan,
               *struct.unpack("<2d", struct.pack("<2Q", 0x7FF0000000000001, 0xFFF8000000000123)),
               1e16, 1e17, -2.2250738585072014e-308)
ANY_FLOAT = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]),
    st.sampled_from(EDGE_FLOATS),
)
# Doubles in and around the range that _float_fields formats without %, [1e-7,
# 1e16): a sign, a decade in [-8, 17), one of the binades that meet it and 52
# random mantissa bits.  ANY_FLOAT lands there about once in 80 draws.
DECADE_FLOAT = st.builds(
    lambda sign, decade, binade, mantissa: sign * math.ldexp(
        2**52 + mantissa, math.floor(decade * math.log2(10)) + binade - 52),
    st.sampled_from([1, -1]), st.integers(-8, 16), st.integers(0, 3), st.integers(0, 2**52 - 1))
ANY_INT64 = st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from([-2**63, 2**63 - 1]))
LABELS = ("", "fixed", "cycle", "aperiodic", "0.5,cycle,12", "1e+308,fixed,")


def write_parts(path, header, parts):
    """Write ``header`` and then each of ``parts``, a list of columns, by one ``write`` call."""
    with CsvWriter(path, header) as out:
        for part in parts:
            out.write(part)


def csv_per_field(header, parts):
    """Reference ``CsvWriter`` text: one % call per field, one join per line."""
    lines = [header]
    for columns in parts:
        n = len(columns[0][1] if isinstance(columns[0], tuple) else columns[0])
        for i in range(n):
            fields = []
            for col in columns:
                if isinstance(col, tuple):
                    fields.append(col[0][col[1][i]])
                    continue
                for x in np.atleast_1d(col[i]).tolist():
                    fields.append("%.17g" % x if isinstance(x, float) else "%d" % x)
            lines.append(",".join(fields))
    return "".join(line + "\n" for line in lines)


def random_part(rng, n, k):
    """Columns of n lines: k random-bit doubles, an int64, a bool and a label per line."""
    floats = rng.integers(0, 2**64, size=(n, k), dtype=np.uint64).view(np.float64)
    ints = rng.integers(-2**63, 2**63, size=n, dtype=np.int64)
    return [floats, ints, rng.random(n) < 0.5, (LABELS, rng.integers(0, len(LABELS), size=n))]


class TestWriteCsv:
    """``CsvWriter`` against a per-field % oracle."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_values(self, data, tmp_path_factory):
        parts = []
        k = data.draw(st.integers(1, 3), label="k")  # every write call gives the same columns
        for _ in range(data.draw(st.integers(1, 2), label="parts")):
            n = data.draw(st.integers(0, 12), label="lines")
            floats = data.draw(st.lists(ANY_FLOAT, min_size=n * k, max_size=n * k))
            ints = data.draw(st.lists(ANY_INT64, min_size=n, max_size=n))
            codes = data.draw(st.lists(st.integers(0, len(LABELS) - 1), min_size=n, max_size=n))
            parts.append([np.array(floats, dtype=np.float64).reshape(n, k),
                          np.array(ints, dtype=np.int64), (LABELS, np.array(codes, dtype=int)),
                          np.array(floats[:n], dtype=np.float64)])
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        write_parts(path, "h", parts)
        assert path.read_bytes().decode() == csv_per_field("h", parts)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_split_into_calls(self, data, tmp_path_factory):
        # a random_part line holds 2 + 3 fields; the lines go to the writer in one
        # call and in calls split anywhere, 0- and 1-line calls and block edges included
        step = _BLOCK_FIELDS // 5
        n = data.draw(st.one_of(st.integers(0, 12), st.sampled_from(
            [step - 1, step, step + 1, 2 * step + 1])), label="lines")
        edges = [min(n, x) for x in (1, step - 1, step, step + 1, 2 * step)]
        cuts = sorted(data.draw(st.lists(st.one_of(st.integers(0, n), st.sampled_from(edges)),
                                         max_size=6), label="cuts"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        whole = random_part(rng, n, 2)
        labels, codes = whole[-1]
        parts = []
        for a, b in zip([0, *cuts], [*cuts, n]):
            # each call brings its own label list: shuffled, after some unused labels
            perm, unused = rng.permutation(len(labels)), int(rng.integers(0, 3))
            own = ["unused"] * unused + [labels[i] for i in perm]
            parts.append([c[a:b] for c in whole[:-1]]
                         + [(own, unused + np.argsort(perm)[codes[a:b]])])
        one, split = (tmp_path_factory.mktemp("csv") / "out.csv" for _ in range(2))
        write_parts(one, "h", [whole])
        write_parts(split, "h", parts)
        assert split.read_bytes() == one.read_bytes()
        if n <= 12:
            assert one.read_text() == csv_per_field("h", [whole])

    # no shrink phase: shrinking a failing list of 128+ floats ran for minutes,
    # and the assertion's diff already shows the wrong field
    @settings(max_examples=50, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(floats=st.lists(DECADE_FLOAT, min_size=_EXACT_MIN, max_size=2 * _EXACT_MIN,
                           unique=True))
    def test_decade_values(self, floats, tmp_path_factory):
        # distinct enough for the block to take _float_fields' exact path
        part = [np.arange(len(floats)), np.array(floats)]
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        write_parts(path, "i,x", [part])
        assert path.read_bytes().decode() == csv_per_field("i,x", [part])

    def test_exact_range_edges(self, tmp_path):
        powers = [float(f"1e{k}") for k in range(-8, 18)]
        # each power of ten and its neighbours: 1e-07 and 1e-06 are the doubles
        # just below 10**-7 and 10**-6, which at the k of the decade above
        # round up to the next power of ten
        pinned = [y for x in powers for y in (np.nextafter(x, 0), x, np.nextafter(x, math.inf))]
        # exact ties in the 17th digit, to even both ways: an odd multiple of
        # 2**-(17 - X) in decade X times 10**(16 - X) ends in .5
        pinned += [(2 * math.floor(c * 10.0**x * 2**(17 - x) / 2) + 1) * 2.0**-(17 - x)
                   for x in range(-8, 16) for c in (1.25, 1.5, 2.0)]
        # multiples of 2**-20 that tie in decade 3, odd multiples of 0.5 above
        # 2**37 (trailing zeros dropped), 2**53 and 2**53 + 2, whose product is
        # shifted left, and both zeros
        pinned += [(2**24 + 1) * 2.0**-14, (3 * 2**24 + 5) * 2.0**-14, 2**37 + 0.5,
                   2**40 + 1.5, 2.0**53, 2.0**53 + 2, 0.0, -0.0]
        column = np.array(pinned + [-x for x in pinned])
        assert len(np.unique(column.view(np.int64))) >= _EXACT_MIN
        part = [np.arange(len(column)), column]
        write_parts(tmp_path / "out.csv", "i,x", [part])
        text = (tmp_path / "out.csv").read_text()
        assert text == csv_per_field("i,x", [part])
        fields = [line.split(",")[1] for line in text.split("\n")[1:-1]]
        assert {"9.9999999999999995e-08", "9007199254740992", "9007199254740994",
                "10000000000000000", "0", "-0"} <= set(fields)

    def test_edge_values_one_per_line(self, tmp_path):
        floats = np.array(EDGE_FLOATS)
        ints = np.resize(np.array([-2**63, 2**63 - 1, 0, -1], dtype=np.int64), len(floats))
        odd = np.arange(len(floats)) % 2
        part = [floats, ints, odd == 0, (("", "x"), odd)]
        write_parts(tmp_path / "out.csv", "a,b,c,d", [part])
        text = (tmp_path / "out.csv").read_text()
        assert text == csv_per_field("a,b,c,d", [part])
        assert "-2.2250738585072014e-308,0,1,\n" in text
        assert ",-9223372036854775808," in text and ",9223372036854775807," in text
        assert [line.split(",")[0] for line in text.split("\n")[1:-1]] == [
            "0", "-0", "4.9406564584124654e-324", "inf", "-inf", "nan", "nan", "nan",
            "10000000000000000", "1e+17", "-2.2250738585072014e-308"]

    def test_no_lines(self, tmp_path):
        empty = [np.empty((0, 2)), np.empty(0, dtype=np.int64), ((), np.empty(0, dtype=int))]
        for parts in ([], [empty], [empty, empty]):
            write_parts(tmp_path / "out.csv", "a,b", parts)
            assert (tmp_path / "out.csv").read_bytes() == b"a,b\n"

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_lines_around_block_boundary(self, tmp_path, delta):
        # a random_part line holds 2 + 3 fields
        n = _BLOCK_FIELDS // 5 + delta
        rng = np.random.default_rng(n)
        parts = [random_part(rng, n, 2), random_part(rng, 3, 2)]
        write_parts(tmp_path / "out.csv", "h", parts)
        text = (tmp_path / "out.csv").read_text()
        assert text == csv_per_field("h", parts)
        assert text.count("\n") == n + 4


class TestTrajectoryCsv:
    def test_header_and_round_trip(self, tmp_path):
        g, params, s0 = small_random_setup(3, n=4)
        traj = simulate(s0, g, params, 20, stride=5)
        path = tmp_path / "trajectory.csv"
        traj.write_csv(path)
        raw = path.read_bytes().decode()
        assert "\r" not in raw
        lines = raw.strip().split("\n")
        assert lines[0] == (
            "tick,p,q_p,theta_0,theta_1,theta_2,theta_3,q_0,q_1,q_2,q_3"
        )
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == traj.n_snapshots
        for s, row in enumerate(rows):
            assert int(row["tick"]) == traj.ticks[s]
            assert float(row["p"]) == traj.pollution[s]  # 17 digits round-trip
            for i in range(4):
                assert float(row[f"theta_{i}"]) == traj.opinions[s, i]
                assert int(row[f"q_{i}"]) == traj.actions[s, i]

    @pytest.mark.parametrize("case", ["simulated", "special", "blocks"])
    def test_bytes_match_per_row_writer(self, tmp_path, case):
        g, params, s0 = small_random_setup(3, n=len(SPECIAL_FLOATS))
        # 4001 snapshots of 3 + 2 x 7 fields span several writer blocks
        traj = simulate(s0, g, params, 4000 if case == "blocks" else 20,
                        stride=1 if case == "blocks" else 5)
        if case == "special":
            special = np.array(SPECIAL_FLOATS)
            traj = replace(
                traj,
                opinions=np.stack([np.roll(special, k) for k in range(traj.n_snapshots)]),
                pollution=special[:traj.n_snapshots][::-1].copy(),
            )
        traj.write_csv(tmp_path / "bulk.csv")
        write_trajectory_csv_per_row(traj, tmp_path / "per_row.csv")
        bulk = (tmp_path / "bulk.csv").read_bytes()
        assert bulk == (tmp_path / "per_row.csv").read_bytes()
        assert bulk.count(b"\n") == traj.n_snapshots + 1

    def test_state_at_round_trip(self):
        g, params, s0 = small_random_setup(17, n=5)
        traj = simulate(s0, g, params, 10)
        mid = traj.state_at(4)
        rest = simulate(mid, g, params, 6)
        assert np.array_equal(rest.opinions[-1], traj.opinions[-1])
