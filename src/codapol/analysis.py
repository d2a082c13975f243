"""Equilibrium predictions, cluster certificates, and attractor classification.

All operations here are pure functions of their inputs and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .csvout import CsvWriter
from .dynamics import (ModelParams, Trajectory, _check_actions, _check_beta, _check_count,
                       _check_number, _field, _total_emission)
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
    minimum strong-condition slack over members.  The verdicts come from the
    run loop's field (see :func:`certify_cluster`), so at an exact boundary
    a slack's sign can disagree with them.
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

    (1 - beta) * (2 * n_i_plus_star - n_i) / n_i + beta * q_p_star, rounded as
    the run loop rounds the field.
    """
    _check_count("n_i", n_i, 1)
    _check_count("n_i_plus_star", n_i_plus_star, 0)
    if n_i_plus_star > n_i:
        raise ValueError(f"n_i_plus_star must be at most n_i = {n_i}, got {n_i_plus_star}")
    if isinstance(q_p_star, bool) or q_p_star not in (-1, 1):
        raise ValueError(f"q_p_star must be -1 or 1, got {q_p_star!r}")
    _check_beta(beta)
    return _field((2 * n_i_plus_star - n_i) / n_i, q_p_star, beta)


def pollution_equilibrium(n_plus: int, n_minus: int, params: ModelParams) -> float:
    """Pollution equilibrium for a stationary action partition.

    (n_plus * e_max + n_minus * e_min) / (1 - gamma); depends only on how the
    population splits between the two actions.
    """
    _check_count("n_plus", n_plus, 0)
    _check_count("n_minus", n_minus, 0)
    return _total_emission(n_plus, n_minus, params.e_min, params.e_max) / (1.0 - params.gamma)


def pollution_bounds(params: ModelParams, n_agents: int) -> tuple[float, float]:
    """(p_min, p_max): equilibria under unanimous action -1 / +1."""
    _check_count("n_agents", n_agents, 0)
    return pollution_equilibrium(0, n_agents, params), pollution_equilibrium(n_agents, 0, params)


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
    """Boolean [n] mask of the iterable ``agents``: ints in [0, n), where a bool is not an int."""
    items = list(agents)
    for a in items:
        if type(a) is bool or not isinstance(a, (int, np.integer)):
            raise ValueError(f"{what} must be an int, got {a!r}")
        if not 0 <= a < n:
            raise ValueError(f"{what} {a} out of range [0, {n})")
    return np.bincount(np.array(items, dtype=np.int64), minlength=n) > 0


def _actions(actions, graph: Graph) -> np.ndarray:
    """``actions`` as an array of one action per agent, each -1 or 1."""
    actions = np.asarray(actions)
    if actions.shape != (graph.n_agents,):
        raise ValueError(f"need one action per agent ({graph.n_agents}), "
                         f"got an array of shape {actions.shape}")
    _check_actions(actions)
    return actions


def _components(graph: Graph, labels: np.ndarray, pool: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """The pool's agents grouped by component, and the bounds of the groups.

    Group k is ``mem[bounds[k]:bounds[k + 1]]``, ascending; groups come by
    smallest member (each one's root).
    """
    members = np.flatnonzero(pool)
    roots = graph.components(labels)[members]
    order = np.argsort(roots, kind="stable")
    return members[order], np.flatnonzero(np.diff(roots[order], prepend=-1, append=-1))


def _certify(mem: np.ndarray, bounds: np.ndarray, actions: list[int], inside: np.ndarray,
             n_i: np.ndarray, beta: float) -> list[ClusterReport]:
    """Certificates of the same-action clusters ``mem[bounds[k]:bounds[k + 1]]``.

    Each cluster is ascending, with common action ``actions[k]``; ``n_i`` and
    ``inside`` give each member's in-neighbors and how many of them lie in its
    cluster.  Every member's slacks and verdicts come in one pass, each cluster's
    from ``minimum.reduceat`` (a segmented reduction: Blelloch, IEEE Trans.
    Computers 38, 1989), and its violations from one stable ``lexsort``.
    """
    outside = n_i - inside
    margin = (math.inf if beta == 1.0 else beta / (1.0 - beta)) * n_i
    weak, strong = inside - outside + margin, inside - outside - margin
    # the run loop's worst-case field, its mean int / int as in every neighbor_mean
    weak_ok, strong_ok = (_field((inside - outside) / n_i, q_p, beta) >= 0.0 for q_p in (1.0, -1.0))
    starts = bounds[:-1]
    weakly, strongly, worst = (np.minimum.reduceat(x, starts) for x in (weak_ok, strong_ok, strong))
    cluster = np.repeat(np.arange(starts.size), np.diff(bounds))
    binding = np.where(weakly[cluster], strong, weak)
    fails = np.flatnonzero(~np.where(weakly[cluster], strong_ok, weak_ok))
    fails = fails[np.lexsort((binding[fails], cluster[fails]))]  # ties keep member order
    cuts = np.searchsorted(cluster[fails], np.arange(bounds.size)).tolist()
    violations = list(zip(*(x[fails].tolist() for x in (mem, inside, outside, binding))))
    members, bounds = mem.tolist(), bounds.tolist()
    return [
        ClusterReport(members=tuple(members[a:b]), action=action, weakly_robust=w,
                      strongly_robust=s, worst_strong_slack=slack,
                      violations=tuple(violations[c:d]))
        for a, b, c, d, action, w, s, slack in zip(bounds, bounds[1:], cuts, cuts[1:], actions,
                                                   *(x.tolist() for x in (weakly, strongly, worst)))
    ]


def certify_cluster(members, graph: Graph, actions_at_0, beta: float) -> ClusterReport:
    """Evaluate the weak and strong robustness certificates for a vertex set.

    Weak condition per member i: |N_i in A| >= |N_i not in A| - beta/(1-beta) * n_i.
    Strong condition: same with the margin added instead of subtracted.
    Each holds when the run loop's float field (1 - beta) (in - out) / n_i +
    beta q_p, the signal q_p for (weak) or against (strong) the action, is 0
    or of the action's sign; rounding is monotone, so no field the run reaches
    is worse.  At beta = 1 every same-action set is weakly robust and none strongly.
    """
    in_cluster = _mask(members, graph.n_agents, "member")
    mem = np.flatnonzero(in_cluster)
    if not mem.size:
        raise ValueError("cluster must be nonempty")
    _check_beta(beta)
    actions = _actions(actions_at_0, graph)
    if (actions[mem] != actions[mem[0]]).any():
        return ClusterReport(
            members=tuple(mem.tolist()), action=0, weakly_robust=False, strongly_robust=False,
            mixed_action=True,
        )
    (report,) = _certify(mem, np.array([0, mem.size]), [int(actions[mem[0]])],
                         graph.count_equal(in_cluster)[mem], graph.degrees[mem], beta)
    return report


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
    mem, bounds = _components(graph, np.where(pool, actions, np.nan), pool)
    members, bounds = mem.tolist(), bounds.tolist()
    return [tuple(members[a:b]) for a, b in zip(bounds, bounds[1:])]


def find_preserved_clusters(trajectory: Trajectory, graph: Graph, beta: float) -> list[ClusterReport]:
    """Certify the maximal constant-action components of a recorded run.

    Agents whose action is equal at every recorded snapshot are partitioned
    into connected components of the same-action subgraph and each component
    is certified; reports come back ordered by smallest member index.  At a
    stride above 1, an agent that flips and flips back between two records
    counts as constant.  A constant agent's neighbor is in its component exactly
    when it is constant with the same action, so one labelling gives components
    and inside counts, and one pass over the members certifies every component.
    """
    if trajectory.n_snapshots < 1:
        raise ValueError("trajectory has no snapshots")
    if graph.n_agents != trajectory.n_agents:
        raise ValueError(
            f"graph has {graph.n_agents} agents, trajectory has {trajectory.n_agents}"
        )
    _check_beta(beta)
    acts = trajectory.actions
    constant = (acts == acts[0]).all(axis=0)
    labels = np.where(constant, acts[0], np.nan)  # NaN equals no label
    mem, bounds = _components(graph, labels, constant)
    if not mem.size:
        return []
    return _certify(mem, bounds, acts[0, mem[bounds[:-1]]].tolist(),
                    graph.count_equal(labels)[mem], graph.degrees[mem], beta)


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
    _check_number("beta", beta)
    if not 0.5 < beta <= 1.0:
        raise ValueError(f"escape bound requires beta in (1/2, 1], got {beta}")
    return math.ceil(1.0 / (2.0 * beta - 1.0))


def _check_tol(tol) -> None:
    """Reject a ``tol`` that is not a finite positive number; a bool is not a number."""
    _check_number("tol", tol)
    if not 0 < tol < math.inf:  # NaN fails
        raise ValueError(f"tol must be finite and positive, got {tol}")


# Values per block of opinion gaps in classify_states: 1 MB temporaries.
_GAP_BLOCK = 2**17


def _row_gaps(rows: np.ndarray, other: np.ndarray):
    """Yield max |rows[i] - other[i]| (``other`` may be one row) for [R, K]
    ``rows``, a block of rows at a time, so that no [R, K] temporary is made."""
    step = max(1, _GAP_BLOCK // max(1, rows.shape[1]))
    for i in range(0, len(rows), step):
        gaps = rows[i:i + step] - (other if other.ndim == 1 else other[i:i + step])
        yield np.max(np.abs(gaps, out=gaps), axis=1, initial=0.0)  # 0 for no agents


def classify_states(thetas: np.ndarray, pollutions: np.ndarray, tol: float = DEFAULT_TOL,
                    max_period: int = DEFAULT_MAX_PERIOD) -> AttractorClass:
    """Classify a post-transient tail: opinions [T] or [T, N], pollutions [T].

    Scans candidate periods in increasing order, so a reported cycle period
    is minimal.  Period 1 (all consecutive states within ``tol`` in max
    norm) is a fixed point; no match up to ``max_period`` is aperiodic.

    A period m can match only if the last state is within ``tol`` of the
    state m ticks earlier, so that gap is computed for every m in one
    vectorized step (cycle detection as in Brent, BIT 20, 1980).  An m that
    passes must then match the first state to the state m ticks later, row
    0 of its full-tail check, before that check runs.  The result is the
    same as checking every m; a NaN gap fails, as a NaN full check does.

    The opinion and pollution gaps are taken apart, and the opinion gaps in
    blocks of rows, so no copy of the tail is made; a period passes only if
    both parts are within ``tol``, which is the max-norm test on (theta, p).
    """
    _check_count("max_period", max_period, 1)
    _check_tol(tol)
    thetas = np.asarray(thetas, dtype=np.float64)
    pollutions = np.asarray(pollutions, dtype=np.float64)
    if thetas.ndim not in (1, 2) or pollutions.shape != thetas.shape[:1]:
        raise ValueError(f"thetas of shape {thetas.shape} and pollutions of shape "
                         f"{pollutions.shape} are not a [T] or [T, N] and a [T] tail")
    n_tail = thetas.shape[0]
    if n_tail < 2 * max_period:
        raise InsufficientDataError(
            f"tail of {n_tail} samples cannot resolve periods up to {max_period}; "
            f"need at least {2 * max_period}"
        )
    # an FS tail broadcasts one column to all agents (stride 0): measure that column,
    # and broadcast a fixed point's copy of it back
    fs = thetas.ndim == 2 and thetas.strides[1] == 0
    cols = thetas[:, :1] if fs else thetas.reshape(n_tail, -1)
    first = n_tail - 1 - max_period  # the earlier states, last first
    opinion_gaps = np.concatenate(list(_row_gaps(cols[first:-1][::-1], cols[-1])))
    candidates = (opinion_gaps < tol) & (np.abs(pollutions[-1] - pollutions[first:-1][::-1]) < tol)
    for m in (np.flatnonzero(candidates) + 1).tolist():
        if (np.max(np.abs(cols[m] - cols[0]), initial=0.0) < tol
                and abs(pollutions[m] - pollutions[0]) < tol
                and np.max(np.abs(pollutions[m:] - pollutions[:-m])) < tol
                and all(gaps.max() < tol for gaps in _row_gaps(cols[m:], cols[:-m]))):
            if m == 1:
                last = cols[-1] if thetas.ndim == 2 else thetas[-1]
                return FixedPoint(theta_star=np.broadcast_to(last.copy(), thetas.shape[1:]),
                                  p_star=float(pollutions[-1]))
            return LimitCycle(period=m)
    return Aperiodic()


def write_cluster_csv(reports: Sequence[ClusterReport], path) -> None:
    """Export cluster certificates: cluster_id,size,action,weak,strong,worst_slack."""
    ints = np.array([(rep.size, rep.action, rep.weakly_robust, rep.strongly_robust)
                     for rep in reports], dtype=np.int64).reshape(-1, 4)
    slack = np.array([rep.worst_strong_slack for rep in reports], dtype=np.float64)
    with CsvWriter(path, "cluster_id,size,action,weak,strong,worst_slack") as out:
        out.write([np.arange(len(reports)), ints, slack])


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
    with CsvWriter(path, "row,col,theta_final,action_final,in_strong_cluster") as out:
        out.write([row, col, trajectory.opinions[-1], trajectory.actions[-1], strong])
