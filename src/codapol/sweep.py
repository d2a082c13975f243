"""Parameter sweeps: bifurcation datasets and attractor galleries.

Grid points are independent experiments sharing one graph and one initial
state.  For throughput the sweep engine advances many grid points in one
vectorized batch; every elementwise operation matches the single-run engine
in :mod:`codapol.dynamics`, so batch results are bitwise identical to
running each point alone, regardless of chunking or thread count.

A fully synchronized start on a complete graph stays synchronized bit for
bit: every agent's neighbors all hold its own action q, so its neighbor
mean is q itself, +-1.0 exactly, and every agent takes the same update.
The batch therefore advances such a sweep as one column standing for all n
agents (the FS quotient), with the identity as its neighbor mean, at O(P)
per tick instead of O(P N), and broadcasts it back to N agents, so every
row and attractor vector keeps length N and the same bytes.

The gallery runs single points through :func:`codapol.dynamics.simulate`,
whose scalar kernel is the faster one at P=1 (see ``dynamics._advance``).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import count, repeat
from typing import Sequence, Union

import numpy as np

from .analysis import AttractorClass, classify_states
from .dynamics import ModelParams, Trajectory, _check_initial, _field, _total_emission
from .dynamics import _write_csv, initial_state, quantize_opinion, quantize_pollution
from .dynamics import random_opinions, simulate, step_opinion, step_pollution
from .graph import Graph, GraphSpec


class SweepError(RuntimeError):
    """A single grid point failed; the offending value is named in the message."""


@dataclass(frozen=True)
class FSInit:
    """Fully synchronized start: every agent at theta0, pollution at p0."""

    theta0: float
    p0: float

    def __post_init__(self):
        for name in ("theta0", "p0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class RandomInit:
    """Seeded i.i.d. uniform opinions on (-1, 1), pollution at p0."""

    seed: int
    p0: float

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if not math.isfinite(self.p0):
            raise ValueError(f"p0 must be finite, got {self.p0}")


InitSpec = Union[FSInit, RandomInit]

SWEEPABLE = ("beta", "gamma", "p_bar")


@dataclass(frozen=True)
class SweepSpec:
    """One bifurcation experiment: a grid of values for one swept parameter."""

    base_params: ModelParams
    swept_param: str
    grid: tuple[float, ...]
    initial: InitSpec
    graph_spec: GraphSpec
    transient: int = 10_000
    tail: int = 1024
    tol: float = 1e-9
    max_period: int = 256

    def __post_init__(self):
        if self.swept_param not in SWEEPABLE:
            raise ValueError(
                f"swept_param must be one of {SWEEPABLE}, got {self.swept_param!r}"
            )
        grid = tuple(float(v) for v in self.grid)
        object.__setattr__(self, "grid", grid)
        for a, b in zip(grid, grid[1:]):
            if not a < b:
                raise ValueError("grid values must be strictly increasing")
        for v in grid[:1] + grid[-1:]:
            self.params_at(v)  # each field's valid values form an interval
        if self.transient < 0:
            raise ValueError(f"transient must be nonnegative, got {self.transient}")
        if self.tail < 1:
            raise ValueError(f"tail must be positive, got {self.tail}")
        if self.max_period < 1:
            raise ValueError(f"max_period must be positive, got {self.max_period}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")

    def params_at(self, value: float) -> ModelParams:
        return replace(self.base_params, **{self.swept_param: value})


@dataclass(frozen=True)
class SweepRow:
    """One scatter column of the bifurcation diagram.

    For fully synchronized sweeps ``opinion_samples`` holds agent 0's
    opinion per tail tick (all agents are equal); otherwise it holds
    (min, mean, max) of the opinion vector per tail tick, shape [tail, 3].
    """

    param_value: float
    attractor: AttractorClass
    opinion_samples: np.ndarray
    p_samples: np.ndarray

    @property
    def is_fs(self) -> bool:
        return self.opinion_samples.ndim == 1

    def scatter_thetas(self) -> np.ndarray:
        """Per-sample scalar opinion for scatter export (mean when not FS)."""
        return self.opinion_samples if self.is_fs else self.opinion_samples[:, 1]


def _initial_opinions(init: InitSpec, n_agents: int) -> np.ndarray:
    """Tick-0 opinions of a fully synchronized or seeded-random start."""
    if isinstance(init, FSInit):
        return np.full(n_agents, init.theta0, dtype=np.float64)
    return random_opinions(init.seed, n_agents)


def _start(spec: SweepSpec) -> tuple[Graph, np.ndarray]:
    """The graph and tick-0 opinions every grid point of ``spec`` starts from."""
    if isinstance(spec.initial, FSInit) and spec.graph_spec.kind != "complete":
        raise ValueError("a fully synchronized initial state requires a complete graph")
    graph = spec.graph_spec.build()
    return graph, _initial_opinions(spec.initial, graph.n_agents)


def _run_chunk(spec: SweepSpec, graph: Graph, opinions0: np.ndarray,
               values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Advance a batch of grid points; returns tail states [P, tail, N] and [P, tail].

    The batched form of ``dynamics._advance``, which stays for single runs:
    at P=1, N=20 it takes 27-29 us per tick against 49-59 us here.  Both keep
    only their loops around the same rules.  The swept parameter is a column
    of P values, the others scalars.  Tick 0 quantizes with memories -1 and
    +1, which no tie reaches, since ``_check_initial`` rejects ties.

    Each column stands for a class of ``mult`` agents.  A fully synchronized
    start (on a complete graph, as ``_start`` requires) is one column with
    multiplicity n whose neighbor mean is its own action, exactly the +-1.0
    every agent of the full state sees; the tail is broadcast back to N
    agents.  Every other start keeps its N columns with multiplicity 1 and
    takes its means from ``graph.neighbor_mean``.
    """
    n_pts, n = len(values), graph.n_agents
    par = {**vars(spec.base_params), spec.swept_param: np.array(values)}
    gamma, e_min, e_max, p_bar = (par[k] for k in ("gamma", "e_min", "e_max", "p_bar"))
    beta = np.reshape(par["beta"], (-1, 1))

    if isinstance(spec.initial, FSInit):
        opinions0, mult = opinions0[:1], n
        neighbor_mean = lambda q: q  # each agent's neighbors all hold its own action
    else:
        mult, neighbor_mean = 1, graph.neighbor_mean

    theta = np.tile(opinions0, (n_pts, 1))
    p = np.full(n_pts, spec.initial.p0, dtype=np.float64)
    q = quantize_opinion(theta, -1)
    qp = quantize_pollution(p, p_bar, 1)

    tail_theta = np.empty((n_pts, spec.tail, len(opinions0)), dtype=np.float64)
    tail_p = np.empty((n_pts, spec.tail), dtype=np.float64)

    total_steps = spec.transient + spec.tail
    for k in range(total_steps):
        n_plus = np.count_nonzero(q == 1, axis=1) * mult
        theta = step_opinion(theta, _field(neighbor_mean(q), qp[:, None], beta))
        p = step_pollution(p, _total_emission(n_plus, n - n_plus, e_min, e_max), gamma)
        q, qp = quantize_opinion(theta, q), quantize_pollution(p, p_bar, qp)
        if k >= spec.transient:
            j = k - spec.transient
            tail_theta[:, j, :] = theta
            tail_p[:, j] = p
    return np.broadcast_to(tail_theta, (n_pts, spec.tail, n)), tail_p


def _rows_from_tails(spec: SweepSpec, values: Sequence[float],
                     tail_theta: np.ndarray, tail_p: np.ndarray) -> list[SweepRow]:
    rows = []
    for j, v in enumerate(values):
        try:
            attractor = classify_states(
                tail_theta[j], tail_p[j], tol=spec.tol, max_period=spec.max_period
            )
        except Exception as exc:
            raise SweepError(f"grid value {v!r}: {exc}") from exc
        if isinstance(spec.initial, FSInit):
            samples = tail_theta[j, :, 0].copy()
        else:
            samples = np.column_stack([
                tail_theta[j].min(axis=1),
                tail_theta[j].mean(axis=1),
                tail_theta[j].max(axis=1),
            ])
        rows.append(SweepRow(
            param_value=float(v),
            attractor=attractor,
            opinion_samples=samples,
            p_samples=tail_p[j].copy(),
        ))
    return rows


def run_sweep(spec: SweepSpec, threads: int = 1) -> list[SweepRow]:
    """Run every grid point and classify its long-run behavior.

    Output order matches the grid.  Results are bitwise deterministic for a
    fixed spec and do not depend on ``threads``.
    """
    if threads < 1:
        raise ValueError(f"threads must be positive, got {threads}")
    if not spec.grid:
        return []
    graph, opinions0 = _start(spec)
    p_bars = spec.grid if spec.swept_param == "p_bar" else (spec.base_params.p_bar,)
    _check_initial(opinions0, spec.initial.p0, p_bars)
    chunks = [c.tolist() for c in np.array_split(spec.grid, min(threads, len(spec.grid)))]
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        tails = list(pool.map(lambda vals: _run_chunk(spec, graph, opinions0, vals), chunks))
    # classify on the calling thread: a tracer wrapping classify_states sees run_sweep as caller
    rows: list[SweepRow] = []
    for vals, (tth, tp) in zip(chunks, tails):
        rows.extend(_rows_from_tails(spec, vals, tth, tp))
    return rows


def attractor_gallery(betas: Sequence[float], base: SweepSpec
                      ) -> list[tuple[float, Trajectory, AttractorClass]]:
    """Full stride-1 trajectories for phase-plane plots, with classification.

    Each entry simulates transient + tail ticks at one beta (other
    parameters from ``base``) and classifies the tail.  Every beta is
    checked, as a ``ModelParams`` field, before the first run.
    """
    points = [(b, replace(base.base_params, beta=float(b))) for b in betas]
    graph, opinions0 = _start(base)
    state0 = initial_state(opinions0, base.initial.p0, base.base_params)
    entries = []
    for b, params in points:
        try:
            traj = simulate(state0, graph, params, base.transient + base.tail, stride=1)
            attractor = classify_states(
                traj.opinions[-base.tail:], traj.pollution[-base.tail:],
                tol=base.tol, max_period=base.max_period,
            )
        except Exception as exc:
            raise SweepError(f"grid value {b!r}: {exc}") from exc
        entries.append((float(b), traj, attractor))
    return entries


def write_bifurcation_csv(rows: Sequence[SweepRow], path) -> None:
    """Export scatter data: param_value,class,period,sample_index,theta_sample,p_sample."""
    def lines():
        for row in rows:
            kind = row.attractor.kind
            period = row.attractor.period if kind == "cycle" else ""
            head = f"{row.param_value:.17g},{kind},{period},"
            yield from zip(repeat(head), count(), row.scatter_thetas().tolist(),
                           row.p_samples.tolist())

    _write_csv(path, "param_value,class,period,sample_index,theta_sample,p_sample",
               "%s%d,%.17g,%.17g", lines())


def write_gallery_csv(entries: Sequence[tuple[float, Trajectory, AttractorClass]],
                      path) -> None:
    """Export gallery trajectories: beta,tick,theta,p,class (agent-0 opinion)."""
    _write_csv(path, "beta,tick,theta,p,class", "%.17g,%d,%.17g,%.17g,%s", (
        (beta, tick, theta, p, attractor.kind)
        for beta, traj, attractor in entries
        for tick, theta, p in zip(traj.ticks.tolist(), traj.opinions[:, 0].tolist(),
                                  traj.pollution.tolist())
    ))
