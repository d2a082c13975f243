"""Acceptance checklist.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest -s`` to see the lines as they happen).  Tolerances are pinned
here, not calibrated elsewhere.

Two criteria concern the vanishing mobility 1 - theta^2 near the boundary,
and are checked against what the double-precision map must do there:

* 02: on the fully synchronized orbit the field is exactly 1 and
  e = 1 - theta follows e <- e (1 - e)^2, so the unanimous equilibrium is
  approached harmonically, e_k <= 1/(1/e_0 + 2k); a fixed tolerance such
  as 1e-9 would need ~5e8 ticks even in exact arithmetic, and the
  double-precision iterate stalls near 5.3e-9 (see 04).  The check asks
  for a strictly decreasing e under that bound at every recorded tick, and
  for agreement with a 40-digit decimal orbit of the same recursion to a
  relative 1e-9.
* 04: every step must be up, down or stationary at the field within 1e-12,
  or a rounding event: the correctly rounded value of an exact step that
  satisfies the strict trichotomy (helpers.is_rounding_event).  Facing a
  unit field at distance e the increment is about 2 e^2, so the iterate
  stalls once e falls below ~5.3e-9, where 2 e^2 = 2^-54 is half an ulp.
"""

import time
from fractions import Fraction

import numpy as np

from codapol.analysis import (
    certify_cluster,
    classify_states,
    fs_escape_bound,
    same_action_components,
)
from codapol.cli import main
from codapol.dynamics import (
    ModelParams,
    fs_initial_state,
    initial_state,
    quantize_opinion,
    random_opinions,
    simulate,
    step_opinion,
)
from codapol.graph import GraphSpec, complete_graph, random_graph, square_lattice
from codapol.sweep import InitSpec, SweepSpec, run_sweep

from helpers import (
    boundary_orbit,
    brute_force_period,
    count_trichotomy_violations,
    is_rounding_event,
    neighbors,
    orbit_relative_error,
)

REFERENCE_PARAMS = ModelParams(beta=0.45, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=15.0)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {name}: {status}{suffix}", flush=True)


def test_01_weak_coupling_equilibrium():
    graph = complete_graph(20)
    start = time.perf_counter()
    s0 = fs_initial_state(0.4, 20, 100.0, REFERENCE_PARAMS)
    traj = simulate(s0, graph, REFERENCE_PARAMS, n_steps=500, stride=500)
    elapsed = time.perf_counter() - start
    theta_err = float(np.max(np.abs(traj.opinions[-1] - 0.1)))
    p_err = abs(float(traj.pollution[-1]) - 40.0)
    ok = theta_err < 1e-9 and p_err < 1e-6 and elapsed < 1.0
    report(1, "weak-coupling equilibrium", ok,
           f"theta_err={theta_err:.2e} p_err={p_err:.2e} {elapsed:.2f}s")
    assert theta_err < 1e-9
    assert p_err < 1e-6
    assert elapsed < 1.0


def test_02_unanimous_boundary_equilibrium():
    params = ModelParams(beta=0.45, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=50.0)
    graph = complete_graph(20)
    start = time.perf_counter()
    s0 = fs_initial_state(0.4, 20, 10.0, params)  # p below threshold: signal +1
    n_steps = 10_000
    traj = simulate(s0, graph, params, n_steps=n_steps, stride=100)
    elapsed = time.perf_counter() - start
    qp_constant = bool(np.all(traj.q_p == 1))
    p_err = abs(float(traj.pollution[-1]) - 40.0)
    # the field is exactly 1, so every agent follows e <- e (1 - e)^2 with
    # e = 1 - theta, and 1/(1 - e)^2 >= 1 + 2e gives e_k <= 1/(1/e_0 + 2k)
    synchronized = bool(np.all(traj.opinions == traj.opinions[:, :1]))
    theta = traj.opinions[:, 0]
    e = [1 - Fraction(float(t)) for t in theta]
    decreasing = all(later < earlier for earlier, later in zip(e, e[1:]))
    harmonic = all(e_k <= 1 / (1 / e[0] + 2 * int(k)) for e_k, k in zip(e, traj.ticks))
    orbit_err = orbit_relative_error(theta, traj.ticks, boundary_orbit(0.4, n_steps))
    ok = (qp_constant and p_err < 1e-6 and synchronized and decreasing and harmonic
          and orbit_err < 1e-9 and elapsed < 1.0)
    report(2, "unanimous boundary equilibrium", ok,
           f"qp_constant={qp_constant} p_err={p_err:.2e} 1-theta={float(e[-1]):.3e} "
           f"harmonic={harmonic} orbit_err={orbit_err:.1e} {elapsed:.2f}s")
    assert qp_constant, "observation signal flipped"
    assert p_err < 1e-6
    assert elapsed < 1.0
    assert synchronized, "fully synchronized start lost synchronization"
    assert decreasing and harmonic, (
        "1 - theta must decrease strictly and stay under the harmonic bound "
        "1/(1/e_0 + 2k) at every recorded tick"
    )
    assert orbit_err < 1e-9, (
        "1 - theta departs from the 40-digit orbit of e <- e (1 - e)^2 by a "
        f"relative {orbit_err:.3e}; accumulated rounding stays below 1e-10 here"
    )


def test_03_escape_bound_over_sampled_betas():
    # 100 sampled couplings in (0.5, 1]; synchronized dynamics against a
    # frozen -1 signal from the reference starting opinion 0.4
    rng = np.random.default_rng(314159)
    betas = 1.5 - rng.uniform(0.5, 1.0, size=100)  # spans (0.5, 1]
    theta0 = 0.4
    failures = []
    for beta in betas:
        bound = fs_escape_bound(float(beta))
        theta, q = theta0, 1
        flipped_at = None
        for k in range(1, bound + 1):
            f = (1.0 - beta) * q + beta * (-1.0)
            theta = step_opinion(theta, f)
            q = quantize_opinion(theta, q)
            if q == -1:
                flipped_at = k
                break
        if flipped_at is None:
            failures.append(float(beta))
    ok = not failures
    report(3, "escape bound over 100 sampled betas", ok,
           f"failures={len(failures)}")
    assert not failures, f"betas exceeding the bound: {failures}"


def _dense_adjacency(graph):
    a = np.zeros((graph.n_agents, graph.n_agents))
    for i, nbrs in enumerate(neighbors(graph)):
        for j in nbrs:
            a[i, j] = 1.0
    return a


def _vector_trichotomy_scan(traj, graph, beta, eq_tol=1e-12):
    """Vectorized scan; field values recomputed with a dense matmul.

    Returns the violations as a list of (tick, agent, theta, theta1, f).
    Cross-validated against the loop-based oracle in test 04.
    """
    adjacency = _dense_adjacency(graph)
    degrees = adjacency.sum(axis=1)
    q = traj.actions.astype(np.float64)
    sums = q @ adjacency.T
    fields = (1.0 - beta) * (sums / degrees) + beta * traj.q_p.astype(np.float64)[:, None]
    th0 = traj.opinions[:-1]
    th1 = traj.opinions[1:]
    f = fields[:-1]
    up = (th0 < th1) & (th1 < f)
    down = (th0 > th1) & (th1 > f)
    eq = (np.abs(th1 - th0) <= eq_tol) & (np.abs(th1 - f) <= eq_tol)
    bad = ~(up | down | eq)
    return [
        (int(traj.ticks[s]), int(i), float(th0[s, i]), float(th1[s, i]), float(f[s, i]))
        for s, i in zip(*np.nonzero(bad))
    ]


def test_04_step_trichotomy_bulk():
    rng = np.random.default_rng(271828)
    n_runs, n_steps = 50, 10_000
    all_violations = []
    for run in range(n_runs):
        n = int(rng.integers(5, 41))
        graph = random_graph(n, float(rng.uniform(0.15, 0.6)), seed=int(rng.integers(2**31)))
        params = ModelParams(
            beta=float(rng.uniform(0.0, 1.0)),
            gamma=float(rng.uniform(0.05, 0.95)),
            e_min=float(rng.uniform(0.0, 1.0)),
            e_max=float(rng.uniform(1.0, 2.0)),
            p_bar=float(rng.uniform(0.0, 40.0)),
        )
        opinions = rng.uniform(-1.0, 1.0, size=n)
        opinions[opinions == 0.0] = 0.5
        p0 = float(rng.uniform(0.0, 80.0))
        if p0 == params.p_bar:
            p0 += 1.0
        traj = simulate(initial_state(opinions, p0, params), graph, params, n_steps)
        all_violations.extend(_vector_trichotomy_scan(traj, graph, params.beta))
        if run == 0:
            # oracle cross-check of the vectorized scan on a short prefix
            short = simulate(initial_state(opinions, p0, params), graph, params, 300)
            slow = count_trichotomy_violations(short, graph, params.beta)
            assert slow == _vector_trichotomy_scan(short, graph, params.beta)
    # outside the 1e-12 window, a step must be the correct rounding of an
    # exact step that satisfies the strict trichotomy
    unexplained = [v for v in all_violations if not is_rounding_event(v[2], v[3], v[4])]
    ok = not unexplained
    report(4, "step trichotomy over 50 randomized runs", ok,
           f"outside_window={len(all_violations)} unexplained={len(unexplained)}")
    assert not unexplained, (
        "steps that are neither up, down, equal within 1e-12 nor a rounded "
        f"strict step: {unexplained[:5]}.  A boundary stall is a rounded step "
        "only facing a unit field within e ~ 5.3e-9 (2 e^2 = 2^-54)"
    )


def test_05_bifurcation_regimes():
    start = time.perf_counter()
    main_grid = tuple(0.501 + i * 0.001 for i in range(499))
    spec = SweepSpec(
        base_params=REFERENCE_PARAMS,
        swept_param="beta",
        grid=main_grid,
        initial=InitSpec("fs", p0=100.0, theta0=0.4),
        graph_spec=GraphSpec(kind="complete", n=20),
        transient=10_000,
        tail=1024,
    )
    rows = run_sweep(spec, threads=1)
    kinds = [row.attractor.kind for row in rows]
    control_spec = SweepSpec(
        base_params=REFERENCE_PARAMS,
        swept_param="beta",
        grid=tuple(0.30 + i * 0.01 for i in range(20)),
        initial=InitSpec("fs", p0=100.0, theta0=0.4),
        graph_spec=GraphSpec(kind="complete", n=20),
        transient=10_000,
        tail=1024,
    )
    control_kinds = [row.attractor.kind for row in run_sweep(control_spec, threads=1)]
    elapsed = time.perf_counter() - start
    n_cycle = kinds.count("cycle")
    n_aperiodic = kinds.count("aperiodic")
    control_fixed = all(k == "fixed" for k in control_kinds)
    ok = len(rows) == 499 and n_cycle >= 1 and n_aperiodic >= 1 and control_fixed \
        and elapsed < 300.0
    report(5, "bifurcation sweep regimes", ok,
           f"cycle={n_cycle} aperiodic={n_aperiodic} "
           f"control_fixed={control_fixed} {elapsed:.1f}s")
    assert len(rows) == 499
    assert n_cycle >= 1
    assert n_aperiodic >= 1
    assert control_fixed, f"control grid classes: {set(control_kinds)}"
    assert elapsed < 300.0


def test_06_lattice_cluster_preservation():
    graph = square_lattice(50)
    opinions = random_opinions(20_240, 2500)
    s0 = initial_state(opinions, 100.0, REFERENCE_PARAMS)
    traj = simulate(s0, graph, REFERENCE_PARAMS, n_steps=100)

    reports = [
        certify_cluster(comp, graph, traj.actions[0], REFERENCE_PARAMS.beta)
        for comp in same_action_components(traj.actions[0], graph)
    ]
    acts = traj.actions.astype(np.int64)

    strong_violations = []
    for rep in reports:
        if rep.strongly_robust:
            for i in rep.members:
                if not np.all(acts[:, i] == rep.action):
                    strong_violations.append(i)

    # maximal windows of constant observation signal; the conditional
    # preservation argument anchors at a tick where the members actually
    # hold the cluster action, so each window is checked from its start
    qp = traj.q_p.astype(np.int64)
    windows = []
    start = 0
    for s in range(1, len(qp) + 1):
        if s == len(qp) or qp[s] != qp[start]:
            windows.append((start, s - 1, int(qp[start])))
            start = s
    weak_violations = []
    n_anchored = 0
    for rep in reports:
        if not rep.weakly_robust or rep.mixed_action:
            continue
        members = list(rep.members)
        for lo, hi, sig in windows:
            if sig == rep.action and np.all(acts[lo, members] == rep.action):
                n_anchored += 1
                if not np.all(acts[lo:hi + 1, members] == rep.action):
                    weak_violations.append((rep.members[0], lo, hi))

    ok = not strong_violations and not weak_violations
    n_weak = sum(1 for r in reports if r.weakly_robust)
    n_strong = sum(1 for r in reports if r.strongly_robust)
    report(6, "lattice cluster preservation", ok,
           f"components={len(reports)} weak={n_weak} strong={n_strong} "
           f"windows={len(windows)} anchored={n_anchored} violations="
           f"{len(strong_violations) + len(weak_violations)}")
    assert windows[0][2] == -1  # the run opens above the threshold
    assert not strong_violations
    assert not weak_violations
    assert n_anchored > 0  # the conditional check is not vacuous


def test_07_no_strong_certificates_beyond_half():
    rng = np.random.default_rng(162342)
    offenders = []
    for _ in range(250):
        n = int(rng.integers(2, 25))
        graph = random_graph(n, float(rng.uniform(0.1, 0.9)), seed=int(rng.integers(2**31)))
        beta = float(1.0 - rng.uniform(0.0, 0.5))  # (0.5, 1.0]
        if beta <= 0.5:
            beta = 0.51
        size = int(rng.integers(1, n + 1))
        members = rng.choice(n, size=size, replace=False)
        actions = np.full(n, int(rng.choice([-1, 1])))
        rep = certify_cluster(members, graph, actions, beta)
        if rep.strongly_robust:
            offenders.append((beta, sorted(members)))
    ok = not offenders
    report(7, "no strong certificates for beta > 1/2", ok,
           f"cases=250 offenders={len(offenders)}")
    assert not offenders


def test_08_period_oracle_agreement():
    rng = np.random.default_rng(55_0234)
    tol, max_period, length, dim = 1e-9, 32, 72, 3
    disagreements = []
    for case in range(1000):
        planted = int(rng.integers(1, 33))
        if case % 7 == 0:
            states = rng.uniform(-1.0, 1.0, size=(length, dim))
        else:
            base = rng.uniform(-1.0, 1.0, size=(planted, dim))
            base[:, 0] = np.linspace(-0.9, 0.9, planted)  # keep states separated
            reps = length // planted + 2
            states = np.tile(base, (reps, 1))[:length]
            states = states + rng.uniform(-tol / 10, tol / 10, size=states.shape)
        got = classify_states(states[:, :dim - 1], states[:, dim - 1],
                              tol=tol, max_period=max_period)
        oracle = brute_force_period(list(states), tol, max_period)
        if oracle is None:
            agree = got.kind == "aperiodic"
        elif oracle == 1:
            agree = got.kind == "fixed"
        else:
            agree = got.kind == "cycle" and got.period == oracle
        if not agree:
            disagreements.append((case, oracle, got.kind))
    ok = not disagreements
    report(8, "period oracle agreement on 1000 sequences", ok,
           f"disagreements={len(disagreements)}")
    assert not disagreements


def test_09_manifest_determinism(tmp_path):
    config_text = """
[run]
command = sweep
out = {out}
seed = 99

[graph]
kind = complete
n = 20

[params]
beta = 0.5
gamma = 0.5
e_min = 0
e_max = 1
p_bar = 15

[init]
kind = fs
theta0 = 0.4
p0 = 100

[sweep]
param = beta
grid = 0.45,0.6,0.72,0.85,0.93,0.999
transient = 1500
tail = 512
max_period = 128
"""
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    out3 = tmp_path / "o3"
    cfg = tmp_path / "config.txt"
    cfg.write_text(config_text.format(out=out1))
    assert main(["--config", str(cfg), "--quiet"]) == 0
    assert main(["--config", str(out1 / "manifest.txt"), "--out", str(out2),
                 "--quiet"]) == 0
    assert main(["--config", str(out1 / "manifest.txt"), "--out", str(out3),
                 "--threads", "4", "--quiet"]) == 0

    sim_cfg = tmp_path / "sim.txt"
    sim_out1, sim_out2 = tmp_path / "s1", tmp_path / "s2"
    sim_cfg.write_text("""
[run]
command = simulate
out = {out}
seed = 5

[graph]
kind = lattice
side = 10

[params]
beta = 0.45
gamma = 0.5
e_min = 0
e_max = 1
p_bar = 15

[init]
kind = random
p0 = 100

[simulate]
steps = 100
stride = 1
""".format(out=sim_out1))
    assert main(["--config", str(sim_cfg), "--quiet"]) == 0
    assert main(["--config", str(sim_out1 / "manifest.txt"), "--out", str(sim_out2),
                 "--quiet"]) == 0

    def csv_bytes(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())
                if p.suffix == ".csv"}

    sweep_same = csv_bytes(out1) == csv_bytes(out2) == csv_bytes(out3)
    sim_same = csv_bytes(sim_out1) == csv_bytes(sim_out2)
    ok = sweep_same and sim_same
    report(9, "manifest re-runs are bit-identical", ok,
           f"sweep_same={sweep_same} (incl. threads=4) simulate_same={sim_same}")
    assert sweep_same
    assert sim_same
