"""Synchronous discrete-time engine for the coupled opinion/pollution model.

Each tick k carries a fully consistent tuple (theta(k), p(k), q(k), q_p(k)):
the stored actions are the sign-quantized opinions with memory-based tie
breaking, and the stored observation signal is the threshold-quantized
pollution with the same memory rule.  All tick-(k+1) quantities are computed
from tick-k quantities only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import Graph


@dataclass(frozen=True)
class ModelParams:
    """Scalar knobs of the coupled dynamics.

    beta:  weight of the observation signal against the neighbor average,
           in [0, 1].
    gamma: autonomous pollution decay rate, in (0, 1).
    e_min, e_max: per-agent emission levels for actions -1 / +1.
    p_bar: pollution threshold seen by the agents.
    """

    beta: float
    gamma: float
    e_min: float
    e_max: float
    p_bar: float

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        for name in ("e_min", "e_max", "p_bar"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.e_min <= self.e_max:
            raise ValueError(
                f"e_min must not exceed e_max, got e_min={self.e_min}, e_max={self.e_max}"
            )


@dataclass
class SimState:
    """Complete state at one tick: opinions, pollution, and both action memories."""

    opinions: np.ndarray  # float64[N], each in [-1, 1]
    pollution: float
    actions: np.ndarray  # int64[N], each in {-1, 1}
    q_p: int  # {-1, 1}
    tick: int = 0

    @property
    def n_agents(self) -> int:
        return self.opinions.shape[0]

    def copy(self) -> "SimState":
        return SimState(
            opinions=self.opinions.copy(),
            pollution=self.pollution,
            actions=self.actions.copy(),
            q_p=self.q_p,
            tick=self.tick,
        )


@dataclass
class Trajectory:
    """Recorded snapshots of a simulation, at a fixed stride plus the final tick."""

    params: ModelParams
    graph: Graph
    recording_stride: int
    ticks: np.ndarray  # int64[S], strictly increasing
    opinions: np.ndarray  # float64[S, N]
    pollution: np.ndarray  # float64[S]
    actions: np.ndarray  # int8[S, N]
    q_p: np.ndarray  # int8[S]

    @property
    def n_snapshots(self) -> int:
        return self.ticks.shape[0]

    @property
    def n_agents(self) -> int:
        return self.opinions.shape[1]

    def state_at(self, index: int) -> SimState:
        """Reconstruct the SimState stored at snapshot ``index``."""
        return SimState(
            opinions=self.opinions[index].copy(),
            pollution=float(self.pollution[index]),
            actions=self.actions[index].astype(np.int64),
            q_p=int(self.q_p[index]),
            tick=int(self.ticks[index]),
        )

    def write_csv(self, path) -> None:
        """Export as CSV with 17-significant-digit floats for round-trip fidelity.

        Header: ``tick,p,q_p,theta_0..theta_{N-1},q_0..q_{N-1}``.
        """
        n = self.n_agents
        header = ",".join(["tick,p,q_p"] + [f"theta_{i}" for i in range(n)]
                          + [f"q_{i}" for i in range(n)])
        _write_csv(path, header, "%d,%.17g,%d" + ",%.17g" * n + ",%d" * n, (
            (tick, p, q_p, *theta.tolist(), *q.tolist())
            for tick, p, q_p, theta, q in zip(self.ticks.tolist(), self.pollution.tolist(),
                                              self.q_p.tolist(), self.opinions, self.actions)
        ))


def _write_csv(path, header: str, fmt: str, rows) -> None:
    """Write ``header`` and then one ``fmt % row`` line per row to ``path``.

    Every CSV output goes through here, so all share one format: floats as
    ``%.17g`` (round-trip exact), ``\\n`` line ends and no quoting, which no
    field needs: each is a number, a class name or a column name.
    """
    line = fmt + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(line % row for row in rows)


def quantize_opinion(theta: float, prev_action: int) -> np.ndarray:
    """Sign of the opinion (elementwise; 0-d array on a float); a zero keeps the memory."""
    return np.where(theta > 0.0, 1, np.where(theta < 0.0, -1, prev_action))


def quantize_pollution(p: float, p_bar: float, prev_qp: int) -> int:
    """Threshold signal, polarity inverted (elementwise): above p_bar -1, below +1.

    At the threshold (or NaN) the previous signal is kept.  Comparisons, not
    ``np.where``, keep a float input in plain Python, with a Python int result.
    """
    above, below = p > p_bar, p < p_bar
    return prev_qp * (above == below) + below - above  # int first: numpy refuses bool - bool


def emissions(actions, params: ModelParams) -> np.ndarray:
    """Per-agent emission levels: e_max where the action is 1, e_min where -1."""
    return np.where(np.asarray(actions) == 1, params.e_max, params.e_min)


def _total_emission(n_plus, n_minus, e_min, e_max):
    """Total emission of n_plus agents at action 1 and n_minus at -1 (elementwise),
    by counts, which for equal summands matches the per-agent emission sum."""
    return n_plus * e_max + n_minus * e_min


def step_pollution(p: float, total_emission: float, gamma: float) -> float:
    """One pollution update (elementwise): decay by gamma, then add the total emission."""
    return gamma * p + total_emission


def _field(mean, q_p, beta):
    """Field (1 - beta) * (neighbor mean action) + beta * q_p (elementwise)."""
    return (1.0 - beta) * mean + beta * q_p


def local_field(i: int, actions, q_p: int, graph: Graph, beta: float) -> float:
    """Field value toward which agent i's opinion moves.

    (1 - beta) * (n_i_plus - n_i_minus) / n_i + beta * q_p, always in [-1, 1].
    """
    nbrs = graph.neighbors[i]
    return _field(sum(int(actions[j]) for j in nbrs) / len(nbrs), q_p, beta)


def local_fields(actions: np.ndarray, q_p: int, graph: Graph, beta: float) -> np.ndarray:
    """Vectorized :func:`local_field` for all agents at once, bitwise identical per agent."""
    return _field(graph.neighbor_mean(np.asarray(actions, dtype=np.int64)), q_p, beta)


def step_opinion(theta: float, f: float) -> float:
    """One opinion update: theta + (1 - theta^2) * (f - theta).

    The result stays in [-1, 1]; opinions at exactly +-1 never move.  Both
    kernels call it on whole arrays.
    """
    return theta + (1.0 - theta * theta) * (f - theta)


def _advance(theta: np.ndarray, q: np.ndarray, p: float, qp: int,
             graph: Graph, params: ModelParams):
    """Advance one tick from a consistent (theta, q, p, qp) tuple.

    The single-run kernel; ``sweep._run_chunk`` is its batched [P, N] form,
    and both keep only their loops around the rules above.  Both are kept:
    at P=1, N=20 this takes 27-29 us per tick and the batch 49-59 us, as the
    batch quantizes its pollution as an array, not a Python float, and its
    ``count_nonzero(axis=...)`` takes 6.9 us, not 2.3 us.
    """
    n_plus = int(np.count_nonzero(q == 1))
    theta_new = step_opinion(theta, _field(graph.neighbor_mean(q), qp, params.beta))
    p_new = step_pollution(p, _total_emission(n_plus, q.shape[0] - n_plus, params.e_min,
                                              params.e_max), params.gamma)
    return (theta_new, quantize_opinion(theta_new, q), p_new,
            quantize_pollution(p_new, params.p_bar, qp))


def step(state: SimState, graph: Graph, params: ModelParams) -> SimState:
    """One synchronous tick of the coupled dynamics.

    Refreshes the action memories from the current opinions/pollution, then
    computes the next pollution and every next opinion from tick-k
    quantities only.
    """
    if state.n_agents != graph.n_agents:
        raise ValueError(
            f"state has {state.n_agents} agents but graph has {graph.n_agents}"
        )
    q = quantize_opinion(state.opinions, state.actions)
    qp = quantize_pollution(state.pollution, params.p_bar, state.q_p)
    theta_new, q_new, p_new, qp_new = _advance(state.opinions, q, state.pollution, qp, graph, params)
    return SimState(
        opinions=theta_new,
        pollution=p_new,
        actions=q_new,
        q_p=qp_new,
        tick=state.tick + 1,
    )


def _check_initial(opinions: np.ndarray, pollution: float, p_bars: Sequence[float],
                   allow_boundary: bool = False) -> None:
    """Reject tick-0 states the quantizers cannot disambiguate.

    Opinions must be nonzero and lie in (-1, 1); the boundary values +-1 are
    admitted only with ``allow_boundary``, since they never evolve.  The
    pollution must be finite and off every threshold in ``p_bars``.
    """
    size = np.abs(np.asarray(opinions, dtype=np.float64))
    inside = size <= 1.0 if allow_boundary else size < 1.0
    bad = ~inside | (size == 0.0)  # NaN fails the range test
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"agent {i} has initial opinion {opinions[i]} outside (-1, 0) U (0, 1); "
            "pass allow_boundary=True to admit frozen extreme opinions +-1"
        )
    if not math.isfinite(pollution) or pollution in p_bars:
        raise ValueError(
            f"initial pollution {pollution!r} must be finite and off the threshold p_bar"
        )


def initial_state(opinions, pollution: float, params: ModelParams, *,
                  allow_boundary: bool = False) -> SimState:
    """Build a tick-0 state with action memories derived from signs.

    q_i(0) = sign(theta_i(0)) and q_p(0) = -sign(p(0) - p_bar), from the
    quantizers with memories -1 and +1, which no tie reaches: ties are
    rejected (see :func:`_check_initial`).
    """
    theta = np.asarray(opinions, dtype=np.float64).copy()
    _check_initial(theta, pollution, (params.p_bar,), allow_boundary)
    p = float(pollution)
    return SimState(opinions=theta, pollution=p, actions=quantize_opinion(theta, -1),
                    q_p=quantize_pollution(p, params.p_bar, 1), tick=0)


def fs_initial_state(theta0: float, n_agents: int, pollution: float,
                     params: ModelParams, *, allow_boundary: bool = False) -> SimState:
    """Fully synchronized tick-0 state: every agent holds opinion ``theta0``."""
    return initial_state(
        np.full(n_agents, theta0, dtype=np.float64), pollution, params,
        allow_boundary=allow_boundary,
    )


def random_opinions(seed: int, n_agents: int) -> np.ndarray:
    """I.i.d. uniform opinions on (-1, 1), deterministic and order-independent.

    Agent i's draw comes from its own counter block of a counter-based
    generator keyed by ``seed``, so the result depends only on (seed, i).
    Draws of exactly 0 or -1 are rejected and redrawn within the block.
    """
    out = np.empty(n_agents, dtype=np.float64)
    for i in range(n_agents):
        gen = np.random.Generator(np.random.Philox(key=seed, counter=i << 64))
        u = gen.uniform(-1.0, 1.0)
        while u == 0.0 or abs(u) == 1.0:
            u = gen.uniform(-1.0, 1.0)
        out[i] = u
    return out


def _run(initial: SimState, graph: Graph, params: ModelParams,
         record_ticks: Sequence[int]) -> tuple[np.ndarray, ...]:
    """Advance ``initial`` after refreshing its memories, recording at ``record_ticks``.

    The ticks are strictly increasing counts from ``initial``.  Returns
    opinions [S, N], pollution [S], actions int8 [S, N] and q_p int8 [S].
    """
    theta = initial.opinions.astype(np.float64, copy=True)
    p = float(initial.pollution)
    q = quantize_opinion(theta, np.asarray(initial.actions, dtype=np.int64))
    qp = quantize_pollution(p, params.p_bar, initial.q_p)

    n_rec = len(record_ticks)
    thetas = np.empty((n_rec, graph.n_agents), dtype=np.float64)
    ps = np.empty(n_rec, dtype=np.float64)
    qs = np.empty((n_rec, graph.n_agents), dtype=np.int8)
    qps = np.empty(n_rec, dtype=np.int8)

    k = 0
    for rec, tick in enumerate(record_ticks):
        for _ in range(tick - k):
            theta, q, p, qp = _advance(theta, q, p, qp, graph, params)
        k = tick
        thetas[rec] = theta
        ps[rec] = p
        qs[rec] = q
        qps[rec] = qp
    return thetas, ps, qs, qps


def simulate(initial: SimState, graph: Graph, params: ModelParams,
             n_steps: int, stride: int = 1, *, allow_boundary: bool = False) -> Trajectory:
    """Run ``n_steps`` ticks, recording every ``stride`` ticks plus the final tick.

    Bitwise deterministic for identical inputs; the recorded snapshot
    sequence is exactly what repeated :func:`step` calls would produce.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    if initial.n_agents != graph.n_agents:
        raise ValueError(
            f"state has {initial.n_agents} agents but graph has {graph.n_agents}"
        )
    _check_initial(initial.opinions, initial.pollution, (params.p_bar,), allow_boundary)

    record_ticks = sorted({*range(0, n_steps, stride), n_steps})
    thetas, ps, qs, qps = _run(initial, graph, params, record_ticks)
    return Trajectory(
        params=params,
        graph=graph,
        recording_stride=stride,
        ticks=np.array(record_ticks, dtype=np.int64),
        opinions=thetas,
        pollution=ps,
        actions=qs,
        q_p=qps,
    )
