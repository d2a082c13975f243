"""Equilibrium predictions, cluster certificates, and attractor classification.

All operations here are pure functions of their inputs and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .dynamics import ModelParams, Trajectory, _check_count, _total_emission, _write_csv
from .graph import Graph


class InsufficientDataError(RuntimeError):
    """Raised when a trajectory tail is too short for the requested analysis."""


class ActionSpacePoint(NamedTuple):
    """Joint sign configuration (common action, observation signal)."""

    q: int
    q_p: int


@dataclass(frozen=True)
class FixedPoint:
    theta_star: np.ndarray
    p_star: float

    kind = "fixed"


@dataclass(frozen=True)
class LimitCycle:
    period: int  # minimal period, >= 2

    kind = "cycle"


@dataclass(frozen=True)
class Aperiodic:
    kind = "aperiodic"


AttractorClass = Union[FixedPoint, LimitCycle, Aperiodic]

DEFAULT_TOL = 1e-9
DEFAULT_MAX_PERIOD = 256


def class_period(attractor: AttractorClass) -> str:
    """CSV text ``class,period`` of an attractor; the period is empty unless it is a cycle."""
    return f"{attractor.kind},{attractor.period if attractor.kind == 'cycle' else ''}"


@dataclass(frozen=True)
class ClusterReport:
    """Certificate record for one candidate polarized cluster.

    ``violations`` lists (agent, in_count, out_count, slack) for agents that
    fail the binding condition (the weak one if it fails, otherwise the
    strong one), worst offenders first.  ``worst_strong_slack`` is the
    minimum strong-condition slack over members; it is negative exactly when
    the strong certificate fails.
    """

    members: tuple[int, ...]
    action: int  # common initial action, 0 when mixed
    weakly_robust: bool
    strongly_robust: bool
    violations: tuple[tuple[int, int, int, float], ...] = ()
    mixed_action: bool = False
    worst_strong_slack: float = math.nan

    @property
    def size(self) -> int:
        return len(self.members)


def predicted_opinion_limit(n_i_plus_star: int, n_i: int, q_p_star: int, beta: float) -> float:
    """Opinion limit when the neighbor partition and the signal are stationary.

    (1 - beta) * (2 * n_i_plus_star - n_i) / n_i + beta * q_p_star.
    """
    if not 0 <= n_i_plus_star <= n_i or n_i < 1:
        raise ValueError(
            f"need 0 <= n_i_plus_star <= n_i and n_i >= 1, got {n_i_plus_star}, {n_i}"
        )
    return (1.0 - beta) * (2 * n_i_plus_star - n_i) / n_i + beta * q_p_star


def pollution_equilibrium(n_plus: int, n_minus: int, params: ModelParams) -> float:
    """Pollution equilibrium for a stationary action partition.

    (n_plus * e_max + n_minus * e_min) / (1 - gamma); depends only on how the
    population splits between the two actions.
    """
    return _total_emission(n_plus, n_minus, params.e_min, params.e_max) / (1.0 - params.gamma)


def pollution_bounds(params: ModelParams, n_agents: int) -> tuple[float, float]:
    """(p_min, p_max): equilibria under unanimous action -1 / +1."""
    return (
        pollution_equilibrium(0, n_agents, params),
        pollution_equilibrium(n_agents, 0, params),
    )


def qp_stationarity_certificate(p_k: float, params: ModelParams, n_agents: int) -> bool:
    """Sufficient condition for the observation signal to be stationary.

    True when the corridor of reachable pollution stays on one side of the
    threshold: either the current pollution and the corridor ceiling p_max
    both sit at or below p_bar, or the current pollution and the corridor
    floor p_min both sit at or above p_bar.  Both clauses compare the bound
    reachable under the corresponding unanimous action against the
    threshold; using the high-emission bound in the second clause would
    break that symmetry and is deliberately not done.
    """
    p_min, p_max = pollution_bounds(params, n_agents)
    return (p_k <= p_max and p_max <= params.p_bar) or (
        p_k >= p_min and p_min >= params.p_bar
    )


def _mask(agents, n: int, what: str) -> np.ndarray:
    """Boolean [n] mask of the iterable ``agents``, each of which must lie in [0, n)."""
    idx = np.array([int(a) for a in agents], dtype=np.int64)
    bad = idx[(idx < 0) | (idx >= n)]
    if bad.size:
        raise ValueError(f"{what} {bad[0]} out of range [0, {n})")
    return np.bincount(idx, minlength=n) > 0


def _actions(actions, graph: Graph) -> np.ndarray:
    actions = np.asarray(actions)
    if actions.shape != (graph.n_agents,):
        raise ValueError(f"need one action per agent ({graph.n_agents}), "
                         f"got an array of shape {actions.shape}")
    return actions


def _components(graph: Graph, labels: np.ndarray, pool: np.ndarray) -> list[np.ndarray]:
    """The pool's components as ascending arrays, by smallest member (each one's root)."""
    members = np.flatnonzero(pool)
    roots = graph.components(labels)[members]
    order = np.argsort(roots, kind="stable")
    cuts = np.flatnonzero(np.diff(roots[order])) + 1
    return np.split(members[order], cuts) if members.size else []


def _certify(mem: np.ndarray, action: int, inside: np.ndarray, n_i: np.ndarray,
             beta: float) -> ClusterReport:
    """Certificate of the same-action cluster ``mem`` (ascending), given each
    member's in-neighbors ``n_i`` and how many of them lie in the cluster."""
    outside = n_i - inside
    margin = (math.inf if beta == 1.0 else beta / (1.0 - beta)) * n_i
    weak, strong = inside - outside + margin, inside - outside - margin
    weakly, worst = bool(weak.min() >= 0.0), float(strong.min())
    binding = strong if weakly else weak
    fails = np.flatnonzero(binding < 0.0)
    fails = fails[np.argsort(binding[fails], kind="stable")]  # ties keep member order
    return ClusterReport(
        members=tuple(mem.tolist()), action=action, weakly_robust=weakly,
        strongly_robust=worst >= 0.0, worst_strong_slack=worst,
        violations=tuple(zip(*(x[fails].tolist() for x in (mem, inside, outside, binding)))),
    )


def certify_cluster(members, graph: Graph, actions_at_0, beta: float) -> ClusterReport:
    """Evaluate the weak and strong robustness certificates for a vertex set.

    Weak condition per member i: |N_i in A| >= |N_i not in A| - beta/(1-beta) * n_i.
    Strong condition: same with the margin added instead of subtracted.
    At beta = 1 the margin diverges: every same-action set is weakly robust
    and no set is strongly robust.
    """
    in_cluster = _mask(members, graph.n_agents, "member")
    mem = np.flatnonzero(in_cluster)
    if not mem.size:
        raise ValueError("cluster must be nonempty")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    actions = _actions(actions_at_0, graph)
    if (actions[mem] != actions[mem[0]]).any():
        return ClusterReport(
            members=tuple(mem.tolist()), action=0, weakly_robust=False, strongly_robust=False,
            mixed_action=True,
        )
    inside = graph.count_equal(in_cluster)[mem]
    return _certify(mem, int(actions[mem[0]]), inside, graph.degrees[mem], beta)


def same_action_components(actions, graph: Graph, agents=None) -> list[tuple[int, ...]]:
    """Connected components of the same-action subgraph, by smallest member.

    Only agents in ``agents`` (default: all) participate; two participating
    agents are connected when one lists the other as neighbor and both hold
    the same action.  Edges are treated as undirected for connectivity.
    """
    actions = _actions(actions, graph)
    n = graph.n_agents
    pool = np.ones(n, dtype=bool) if agents is None else _mask(agents, n, "agent")
    # NaN equals no label, so an agent off the pool joins no component
    return [tuple(c.tolist()) for c in _components(graph, np.where(pool, actions, np.nan), pool)]


def find_preserved_clusters(trajectory: Trajectory, graph: Graph, beta: float) -> list[ClusterReport]:
    """Certify the maximal constant-action components of a recorded run.

    Agents whose action is equal at every recorded snapshot are partitioned
    into connected components of the same-action subgraph and each component
    is certified; reports come back ordered by smallest member index.  At a
    stride above 1, an agent that flips and flips back between two records
    counts as constant.  A constant agent's neighbor is in its component exactly
    when it is constant with the same action, so one labelling gives components
    and inside counts.
    """
    if trajectory.n_snapshots < 1:
        raise ValueError("trajectory has no snapshots")
    if graph.n_agents != trajectory.n_agents:
        raise ValueError(
            f"graph has {graph.n_agents} agents, trajectory has {trajectory.n_agents}"
        )
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    acts = trajectory.actions
    constant = (acts == acts[0]).all(axis=0)
    labels = np.where(constant, acts[0], np.nan)  # NaN equals no label
    inside, n_i = graph.count_equal(labels), graph.degrees
    return [_certify(m, int(acts[0, m[0]]), inside[m], n_i[m], beta)
            for m in _components(graph, labels, constant)]


def fs_action_equilibria(params: ModelParams, n_agents: int) -> set[ActionSpacePoint]:
    """Action-space equilibria of the fully synchronized coupled dynamics.

    A point (q, q_p) is an equilibrium when a synchronized run that starts in
    it stays there.  The same-sign points see the field +-1: (1, 1) holds iff
    p_max <= p_bar and (-1, -1) iff p_min >= p_bar.  The mixed points see the
    field q * (1 - 2 * beta), which keeps the opinion's sign iff beta <= 1/2
    (at beta = 1/2 the opinion shrinks as theta^3 and never changes sign):
    (1, -1) holds iff also p_max >= p_bar, and (-1, 1) iff p_min <= p_bar.
    An empty result predicts perpetual switching between the four quadrants.
    """
    p_min, p_max = pollution_bounds(params, n_agents)
    out: set[ActionSpacePoint] = set()
    if p_max <= params.p_bar:
        out.add(ActionSpacePoint(1, 1))
    if p_min >= params.p_bar:
        out.add(ActionSpacePoint(-1, -1))
    if params.beta <= 0.5 and p_max >= params.p_bar:
        out.add(ActionSpacePoint(1, -1))
    if params.beta <= 0.5 and p_min <= params.p_bar:
        out.add(ActionSpacePoint(-1, 1))
    return out


def fs_escape_bound(beta: float) -> int:
    """Steps a synchronized population can hold action 1 against a frozen -1 signal.

    Returns ceil(1 / (2*beta - 1)), which bounds the switching time whenever
    the common opinion starts at or below (sqrt(5) - 1) / 2: in that range
    every step moves the opinion down by at least 2*beta - 1.  Larger
    starting opinions shrink more slowly at first (the mobility factor
    1 - theta^2 is small near the boundary) and can exceed this bound.
    """
    if beta <= 0.5:
        raise ValueError(f"escape bound requires beta > 1/2, got {beta}")
    return math.ceil(1.0 / (2.0 * beta - 1.0))


def classify_states(thetas: np.ndarray, pollutions: np.ndarray, tol: float = DEFAULT_TOL,
                    max_period: int = DEFAULT_MAX_PERIOD) -> AttractorClass:
    """Classify a post-transient tail given stacked state arrays.

    Scans candidate periods in increasing order, so a reported cycle period
    is minimal.  Period 1 (all consecutive states within ``tol`` in max
    norm) is a fixed point; no match up to ``max_period`` is aperiodic.

    A period m can match only if the last state is within ``tol`` of the
    state m ticks earlier, so that gap is computed for every m in one
    vectorized step and the full-tail check runs only on the m that pass
    (cycle detection as in Brent, BIT 20, 1980).  The result is the same
    as checking every m; a NaN gap fails, as a NaN full check does.
    """
    _check_count("max_period", max_period, 1)
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    thetas = np.asarray(thetas, dtype=np.float64)
    pollutions = np.asarray(pollutions, dtype=np.float64)
    n_tail = thetas.shape[0]
    if n_tail < 2 * max_period:
        raise InsufficientDataError(
            f"tail of {n_tail} samples cannot resolve periods up to {max_period}; "
            f"need at least {2 * max_period}"
        )
    # an FS tail broadcasts one column to all agents (stride 0): measure that column,
    # and broadcast a fixed point's copy of it back
    cols = thetas[:, :1] if thetas.ndim == 2 and thetas.strides[1] == 0 else thetas
    states = np.column_stack([cols, pollutions])
    earlier = states[n_tail - 1 - max_period:n_tail - 1][::-1]
    gaps = np.max(np.abs(states[-1] - earlier), axis=1)
    for m in (np.flatnonzero(gaps < tol) + 1).tolist():
        if float(np.max(np.abs(states[m:] - states[:-m]))) < tol:
            if m == 1:
                return FixedPoint(theta_star=np.broadcast_to(cols[-1].copy(), thetas.shape[1:]),
                                  p_star=float(pollutions[-1]))
            return LimitCycle(period=m)
    return Aperiodic()


def write_cluster_csv(reports: Sequence[ClusterReport], path) -> None:
    """Export cluster certificates: cluster_id,size,action,weak,strong,worst_slack."""
    ints = np.array([(rep.size, rep.action, rep.weakly_robust, rep.strongly_robust)
                     for rep in reports], dtype=np.int64).reshape(-1, 4)
    slack = np.array([rep.worst_strong_slack for rep in reports], dtype=np.float64)
    _write_csv(path, "cluster_id,size,action,weak,strong,worst_slack",
               [[np.arange(len(reports)), ints, slack]])


def write_lattice_grid_csv(trajectory: Trajectory, side: int,
                           reports: Sequence[ClusterReport], path) -> None:
    """Per-cell export of a lattice run: row,col,theta_final,action_final,in_strong_cluster."""
    if side * side != trajectory.n_agents:
        raise ValueError(
            f"side {side} does not match {trajectory.n_agents} agents"
        )
    n = trajectory.n_agents
    strong = _mask((i for rep in reports if rep.strongly_robust for i in rep.members), n, "member")
    row, col = np.divmod(np.arange(n), side)
    _write_csv(path, "row,col,theta_final,action_final,in_strong_cluster",
               [[row, col, trajectory.opinions[-1], trajectory.actions[-1], strong]])
