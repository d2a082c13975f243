"""Independent oracles shared by the test modules.

These are written as plain loops, deliberately separate from the library's
vectorized implementations, so a test never checks code against itself.
"""

import csv
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from codapol.analysis import Aperiodic, ClusterReport, FixedPoint, LimitCycle


def brute_force_period(states, tol, max_period):
    """Minimal-period scan: try every candidate period at every offset.

    ``states`` is a sequence of 1-D arrays.  Returns 1 for a fixed point,
    the minimal period m in [2, max_period] for a cycle, or None when no
    candidate period matches within ``tol``.
    """
    n = len(states)
    for m in range(1, max_period + 1):
        ok = True
        for i in range(n - m):
            a, b = states[i], states[i + m]
            for x, y in zip(a, b):
                if abs(x - y) >= tol:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return m
    return None


def trichotomy_branch(theta_k, theta_k1, f_k, eq_tol=1e-12):
    """Which monotonicity relation a recorded step satisfies, or None.

    'eq' when the step is stationary at the field value within ``eq_tol``;
    otherwise 'up' / 'down' for the strict sandwich relations.
    """
    if abs(theta_k1 - theta_k) <= eq_tol and abs(theta_k1 - f_k) <= eq_tol:
        return "eq"
    if theta_k < theta_k1 < f_k:
        return "up"
    if theta_k > theta_k1 > f_k:
        return "down"
    return None


def is_rounding_event(theta_k, theta_k1, f_k):
    """True when a recorded step is a correctly rounded strict trichotomy step.

    The exact step theta* = theta + (1 - theta^2)(f - theta), taken in
    rational arithmetic from the recorded doubles, must lie strictly between
    theta_k and f_k, and the recorded theta_k1 must be within the
    double-precision error of evaluating the map:

        |theta_k1 - theta*| <= ulp(theta_k1) / 2 + 2^-51 |f_k - theta_k|

    The first term is the rounding of the final addition.  The second covers
    the four roundings in the factors (theta^2, 1 - theta^2, f - theta and
    their product), each at most 2^-53 relative, which perturb the increment
    by at most 3 * 2^-53 (1 + 2^-53)^3 |f - theta| < 2^-51 |f - theta|.

    This accepts a boundary stall only where it is forced: facing a unit
    field at distance e, the increment is about 2 e^2, below half an ulp
    (2^-54) for e below about 5.3e-9.  It also accepts a step that lands
    exactly on the field because the increment rounds up to f - theta.
    """
    theta, f = Fraction(theta_k), Fraction(f_k)
    target = theta + (1 - theta * theta) * (f - theta)
    if not (theta < target < f or theta > target > f):
        return False
    slack = Fraction(math.ulp(theta_k1)) / 2 + abs(f - theta) / 2**51
    return abs(Fraction(theta_k1) - target) <= slack


def boundary_orbit(theta0, n_steps, digits=40):
    """Reference orbit of 1 - theta under the unit field f = 1, in decimal.

    A fully synchronised population whose field is exactly 1 follows the
    scalar map theta <- theta + (1 - theta^2)(1 - theta), which for
    e = 1 - theta reads e <- e (1 - e)^2.  Returns e_0 .. e_{n_steps} as
    ``digits``-digit Decimals, starting from the exact value of 1 - theta0.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        e = 1 - Decimal(theta0)
        orbit = [e]
        for _ in range(n_steps):
            e = e * (1 - e) ** 2
            orbit.append(e)
    return orbit


def orbit_relative_error(opinions, ticks, orbit):
    """Largest relative error of recorded distances 1 - theta against ``orbit``.

    ``opinions[s]`` is the opinion recorded at tick ``ticks[s]``; each is
    compared with ``orbit[ticks[s]]`` from boundary_orbit.
    """
    worst = Fraction(0)
    for theta, tick in zip(opinions, ticks):
        ref = Fraction(orbit[int(tick)])
        worst = max(worst, abs(1 - Fraction(float(theta)) - ref) / ref)
    return float(worst)


def neighbors(graph):
    """Neighbor table of ``graph``: row i lists agent i's in-neighbors, ascending."""
    flat, ptr = graph.indices.tolist(), graph.indptr.tolist()
    return tuple(tuple(flat[ptr[i]:ptr[i + 1]]) for i in range(graph.n_agents))


def local_field(nbrs, actions, q_p, beta):
    """Field of an agent with in-neighbors ``nbrs``, by an explicit neighbor loop:
    (1 - beta) * (neighbor action sum / n_i) + beta * q_p."""
    ssum = 0
    for j in nbrs:
        ssum += int(actions[j])
    return (1.0 - beta) * (ssum / len(nbrs)) + beta * q_p


def count_trichotomy_violations(traj, graph, beta, eq_tol=1e-12):
    """Violations of the step monotonicity trichotomy over a stride-1 trajectory.

    Fields are recomputed from each snapshot with an explicit neighbor loop.
    Returns (tick, agent, theta, theta_next, field) tuples.
    """
    assert traj.recording_stride == 1
    table = neighbors(graph)
    violations = []
    for s in range(traj.n_snapshots - 1):
        qp = int(traj.q_p[s])
        for i in range(traj.n_agents):
            f = local_field(table[i], traj.actions[s], qp, beta)
            th = float(traj.opinions[s, i])
            th1 = float(traj.opinions[s + 1, i])
            if trichotomy_branch(th, th1, f, eq_tol) is None:
                violations.append((int(traj.ticks[s]), i, th, th1, f))
    return violations


def run_loop(state, graph, params, n_steps):
    """Reference run, agent by agent in Python floats, recording every tick.

    Refreshes the memories of ``state`` from its opinions and pollution, then
    applies the model's rules as written: each opinion moves toward the field
    (1 - beta) * (neighbor action sum / n_i) + beta * q_p, with the sum taken
    over :func:`neighbors`; the pollution decays by gamma and gains
    n_plus * e_max + n_minus * e_min; both quantizers keep their memory at a
    tie.  Returns opinions [S, N], pollution [S], actions int8 [S, N] and q_p
    int8 [S] for ticks 0 to ``n_steps``.
    """
    def sign(theta, prev):
        return 1 if theta > 0.0 else (-1 if theta < 0.0 else prev)

    def signal(p, prev):
        return -1 if p > params.p_bar else (1 if p < params.p_bar else prev)

    n = graph.n_agents
    table = neighbors(graph)
    theta = [float(x) for x in state.opinions]
    q = [sign(t, int(a)) for t, a in zip(theta, state.actions)]
    p = float(state.pollution)
    qp = signal(p, int(state.q_p))
    thetas, ps, qs, qps = [theta], [p], [q], [qp]
    for _ in range(n_steps):
        n_plus = sum(1 for a in q if a == 1)
        total = n_plus * params.e_max + (n - n_plus) * params.e_min
        new_theta = []
        for i in range(n):
            f = local_field(table[i], q, qp, params.beta)
            th = theta[i]
            new_theta.append(th + (1.0 - th * th) * (f - th))
        p = params.gamma * p + total
        theta = new_theta
        q = [sign(t, a) for t, a in zip(theta, q)]
        qp = signal(p, qp)
        thetas.append(theta)
        ps.append(p)
        qs.append(q)
        qps.append(qp)
    return (np.array(thetas, dtype=np.float64), np.array(ps, dtype=np.float64),
            np.array(qs, dtype=np.int8), np.array(qps, dtype=np.int8))


def agent_uniforms(seed, i):
    """Agent i's stream of uniform(-1, 1) draws: a numpy Philox generator of its own,
    keyed by ``seed``, at counter i << 64."""
    gen = np.random.Generator(np.random.Philox(key=seed, counter=i << 64))
    while True:
        yield gen.uniform(-1.0, 1.0)


def first_valid(draws):
    """The first draw that is neither 0 nor +-1."""
    return next(u for u in draws if u != 0.0 and abs(u) != 1.0)


def random_opinions_loop(seed, n_agents):
    """Reference random start, one generator per agent: each agent's first valid draw."""
    return np.array([first_valid(agent_uniforms(seed, i)) for i in range(n_agents)],
                    dtype=np.float64)


def count_preservation_violations(traj, graph, beta):
    """Violations of action preservation under a favorable field sign.

    Checks, on every recorded consecutive step: a nonnegative field with
    action 1 keeps action 1, and a nonpositive field with action -1 keeps
    action -1.
    """
    assert traj.recording_stride == 1
    table = neighbors(graph)
    violations = []
    for s in range(traj.n_snapshots - 1):
        qp = int(traj.q_p[s])
        for i in range(traj.n_agents):
            f = local_field(table[i], traj.actions[s], qp, beta)
            q_now = int(traj.actions[s, i])
            q_next = int(traj.actions[s + 1, i])
            if f >= 0.0 and q_now == 1 and q_next != 1:
                violations.append((int(traj.ticks[s]), i))
            if f <= 0.0 and q_now == -1 and q_next != -1:
                violations.append((int(traj.ticks[s]), i))
    return violations


def fs_flip_time(theta0, beta, q_p=-1, cap=10_000_000):
    """Steps until a synchronized population starting at action 1 switches.

    Scalar reference recursion with the observation signal frozen at q_p.
    """
    theta, q = theta0, 1
    for k in range(1, cap):
        f = (1.0 - beta) * q + beta * q_p
        theta = theta + (1.0 - theta * theta) * (f - theta)
        q = 1 if theta > 0 else (-1 if theta < 0 else q)
        if q == -1:
            return k
    raise AssertionError("no flip within cap")


def classify_unfiltered(thetas, pollutions, tol, max_period):
    """classify_states without the last-state prefilter: a full-tail check at every m.

    Returns the same attractor classes, a fixed point built from the same last
    tail row, so a result can be compared with :func:`attractor_bytes`; as
    there, the last row of a tail that broadcasts one column (stride 0) is
    kept as one element broadcast back.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    pollutions = np.asarray(pollutions, dtype=np.float64)
    states = np.column_stack([thetas, pollutions])
    for m in range(1, max_period + 1):
        if float(np.max(np.abs(states[m:] - states[:-m]))) < tol:
            if m == 1:
                last = thetas[-1, :1] if thetas.ndim == 2 and thetas.strides[1] == 0 else thetas[-1]
                return FixedPoint(theta_star=np.broadcast_to(last.copy(), thetas.shape[1:]),
                                  p_star=float(pollutions[-1]))
            return LimitCycle(period=m)
    return Aperiodic()


def attractor_bytes(att):
    """Kind, period and, for a fixed point, its state vector and pollution as raw bytes."""
    if att.kind != "fixed":
        return att.kind, getattr(att, "period", None)
    v = np.asarray(att.theta_star)
    return att.kind, v.shape, v.tobytes(), np.float64(att.p_star).tobytes()


# Floats every writer oracle is compared on: both infinities, a NaN, a
# negative zero, the smallest subnormal, a near-overflow value and a
# value whose shortest repr is shorter than its 17-digit form.
SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1)


def write_trajectory_csv_per_row(traj, path):
    """Reference trajectory.csv writer: one csv.writer call per snapshot."""
    n = traj.n_agents
    header = (
        ["tick", "p", "q_p"]
        + [f"theta_{i}" for i in range(n)]
        + [f"q_{i}" for i in range(n)]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for s in range(traj.n_snapshots):
            row = [str(int(traj.ticks[s])), f"{traj.pollution[s]:.17g}", str(int(traj.q_p[s]))]
            row += [f"{x:.17g}" for x in traj.opinions[s]]
            row += [str(int(a)) for a in traj.actions[s]]
            writer.writerow(row)


def write_gallery_csv_per_row(entries, path):
    """Reference gallery.csv writer: one csv.writer call per snapshot."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["beta", "tick", "theta", "p", "class"])
        for beta, traj, attractor in entries:
            kind = attractor.kind
            for s in range(traj.n_snapshots):
                writer.writerow([
                    f"{beta:.17g}", int(traj.ticks[s]),
                    f"{traj.opinions[s, 0]:.17g}", f"{traj.pollution[s]:.17g}", kind,
                ])


def write_cluster_csv_per_row(reports, path):
    """Reference clusters.csv writer: one csv.writer call per report."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cluster_id", "size", "action", "weak", "strong", "worst_slack"])
        for cid, rep in enumerate(reports):
            writer.writerow([
                cid,
                rep.size,
                rep.action,
                int(rep.weakly_robust),
                int(rep.strongly_robust),
                f"{rep.worst_strong_slack:.17g}",
            ])


def write_lattice_grid_csv_per_row(trajectory, side, reports, path):
    """Reference grid.csv writer: one csv.writer call per lattice cell."""
    strong_members = set()
    for rep in reports:
        if rep.strongly_robust:
            strong_members.update(rep.members)
    theta_final = trajectory.opinions[-1]
    action_final = trajectory.actions[-1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["row", "col", "theta_final", "action_final", "in_strong_cluster"])
        for r in range(side):
            for c in range(side):
                i = r * side + c
                writer.writerow([
                    r, c, f"{theta_final[i]:.17g}", int(action_final[i]),
                    int(i in strong_members),
                ])


def write_bifurcation_csv_per_row(rows, path):
    """Reference bifurcation.csv writer: one csv.writer call per scatter row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([
            "param_value", "class", "period", "sample_index", "theta_sample", "p_sample",
        ])
        for row in rows:
            kind = row.attractor.kind
            period = str(row.attractor.period) if kind == "cycle" else ""
            thetas = row.opinion_samples
            for s in range(thetas.shape[0]):
                writer.writerow([
                    f"{row.param_value:.17g}", kind, period, s,
                    f"{thetas[s]:.17g}", f"{row.p_samples[s]:.17g}",
                ])


# Set-based graph construction and per-agent validation, written as plain
# loops over Python sets, apart from the graph module's array code.  Each
# generator oracle returns the neighbor table: row i lists agent i's
# in-neighbors, ascending.

def _table(adj):
    return tuple(tuple(sorted(s)) for s in adj)


def complete_graph_neighbors(n):
    return tuple(tuple(j for j in range(n) if j != i) for i in range(n))


def square_lattice_neighbors(side):
    adj = [set() for _ in range(side * side)]
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
    return _table(adj)


def random_graph_neighbors(n, edge_prob, seed):
    rng = np.random.default_rng(seed)
    adj = [set() for _ in range(n)]
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
    return _table(adj)


def edge_list_neighbors(n, pairs, directed):
    """Table of in-range, loop-free pairs "src influences dst"."""
    adj = [set() for _ in range(n)]
    for src, dst in pairs:
        adj[dst].add(src)
        if not directed:
            adj[src].add(dst)
    return _table(adj)


def check_neighbor_table(n, neighbors, directed):
    """Raise ValueError for a table no legal graph has, agent by agent."""
    if n < 1:
        raise ValueError("no agents")
    if len(neighbors) != n:
        raise ValueError("wrong row count")
    for i, nbrs in enumerate(neighbors):
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
    if not directed:
        nbr_sets = [set(nbrs) for nbrs in neighbors]
        for i, nbrs in enumerate(neighbors):
            for j in nbrs:
                if i not in nbr_sets[j]:
                    raise ValueError(f"undirected graph is asymmetric: {j} -> {i}")


def csr_of(neighbors):
    """(indptr, indices) lists of a neighbor table, built by plain loops."""
    indptr, indices = [0], []
    for nbrs in neighbors:
        indices.extend(nbrs)
        indptr.append(len(indices))
    return indptr, indices


# Cluster search and certification agent by agent: a breadth-first search
# over the neighbor table (each edge followed both ways) and a per-member
# count of inside and outside neighbors, apart from the analysis module's
# label comparisons over CSR.

def same_action_components_bfs(actions, graph, agents=None):
    """Same-action components of the pool, each ascending, by smallest member."""
    pool = set(range(graph.n_agents)) if agents is None else set(int(a) for a in agents)
    table = neighbors(graph)
    adjacent = [set(nbrs) for nbrs in table]
    for i, nbrs in enumerate(table):
        for j in nbrs:
            adjacent[j].add(i)
    seen = set()
    components = []
    for start in sorted(pool):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in adjacent[i]:
                if j in pool and j not in seen and actions[j] == actions[i]:
                    seen.add(j)
                    comp.append(j)
                    queue.append(j)
        components.append(tuple(sorted(comp)))
    return components


def certify_cluster_loop(members, graph, actions, beta):
    """The weak and strong certificates of one vertex set, member by member."""
    mem = tuple(sorted(set(int(m) for m in members)))
    acts = {int(actions[i]) for i in mem}
    if len(acts) != 1:
        return ClusterReport(members=mem, action=0, weakly_robust=False,
                             strongly_robust=False, mixed_action=True)
    member_set = set(mem)
    margin_factor = math.inf if beta == 1.0 else beta / (1.0 - beta)
    weak_fails, strong_fails = [], []
    worst_strong = math.inf
    table = neighbors(graph)
    for i in mem:
        n_i = len(table[i])
        inside = sum(1 for j in table[i] if j in member_set)
        outside = n_i - inside
        margin = margin_factor * n_i
        weak_slack = inside - outside + margin
        strong_slack = inside - outside - margin
        worst_strong = min(worst_strong, strong_slack)
        if weak_slack < 0.0:
            weak_fails.append((i, inside, outside, weak_slack))
        if strong_slack < 0.0:
            strong_fails.append((i, inside, outside, strong_slack))
    binding = weak_fails if weak_fails else strong_fails
    return ClusterReport(
        members=mem, action=acts.pop(), weakly_robust=not weak_fails,
        strongly_robust=not strong_fails,
        violations=tuple(sorted(binding, key=lambda rec: rec[3])),
        worst_strong_slack=worst_strong,
    )


def find_preserved_clusters_loop(trajectory, graph, beta):
    """Certify each same-action component of the agents that never switch."""
    acts = trajectory.actions
    constant = [i for i in range(graph.n_agents) if (acts[:, i] == acts[0, i]).all()]
    components = same_action_components_bfs(acts[0], graph, agents=constant) if constant else []
    return [certify_cluster_loop(c, graph, acts[0], beta) for c in components]


def report_key(report):
    """Every field of a ClusterReport, with types, floats by ``repr``."""
    return (
        report.members, report.action, report.weakly_robust, report.strongly_robust,
        tuple((type(a), a, type(i), i, type(o), o, repr(s)) for a, i, o, s in report.violations),
        report.mixed_action, repr(report.worst_strong_slack),
        [type(m) for m in report.members], type(report.action),
        type(report.weakly_robust), type(report.strongly_robust),
        type(report.worst_strong_slack),
    )
