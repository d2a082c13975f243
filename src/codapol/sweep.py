"""Parameter sweeps: bifurcation datasets and attractor galleries.

Grid points are independent experiments sharing one graph and one initial
state.  ``InitSpec`` describes that state, for the library and for the
config's ``[init]`` section alike, as ``GraphSpec`` describes the graph.
For throughput a sweep advances many grid points as one [P, N] batch
through ``dynamics._run``, the run loop single runs share, with the swept
parameter as a column of P values.  Every operation is elementwise per
point, so batch results are bitwise identical to running each point alone,
regardless of chunking or thread count; the CLI ``classify`` command runs
as a one-point sweep.  A fully synchronized start, on any graph, takes the
loop's FS quotient: one column stands for all n agents, at O(P) per tick
instead of O(P N), and is broadcast back, so a fixed point's ``theta_star``
keeps length N and every CSV the same bytes.  A run of any start stops once
every point's state has recurred bit for bit, and fills the rest of its tail
by index: a random-start 20 x 20 lattice at beta 0.3 has period 20 from tick 255.
The CSV writers hand ``csvout.CsvWriter`` one row or gallery entry per call.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import (DEFAULT_MAX_PERIOD, DEFAULT_TOL, AttractorClass, _check_tol, class_period,
                       classify_states)
from .csvout import CsvWriter
from .dynamics import (ModelParams, SimState, Trajectory, _check_count, _check_initial,
                       _check_number, _check_seed, _run, initial_state, quantize_opinion,
                       random_opinions, simulate)
from .graph import GraphSpec


class SweepError(RuntimeError):
    """A single grid point failed; the message names the swept parameter and value."""


# The fields beyond p0 that each kind of initial condition needs.
_INIT_KINDS = {"fs": ("theta0",), "random": (), "file": ("path",)}


@dataclass(frozen=True)
class InitSpec:
    """Tick-0 recipe: pollution at p0, and opinions fully synchronized at
    theta0 (fs), seeded i.i.d. uniform on (-1, 1) (random), or read from the
    whitespace-separated opinion file at path (file)."""

    kind: str  # fs | random | file
    p0: float
    theta0: float | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind not in _INIT_KINDS:
            raise ValueError(f"unknown init kind {self.kind!r}")
        for name in _INIT_KINDS[self.kind]:
            if getattr(self, name) is None:
                raise ValueError(f"{self.kind} init spec needs {name}")
        for name in ("theta0", "p0") if self.theta0 is not None else ("p0",):
            value = getattr(self, name)
            _check_number(name, value)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    def opinions(self, n_agents: int, seed: int) -> np.ndarray:
        """Tick-0 opinions of ``n_agents`` agents; ``seed`` keys a random start."""
        if self.kind == "fs":
            return np.full(n_agents, self.theta0, dtype=np.float64)
        if self.kind == "random":
            return random_opinions(seed, n_agents)
        values = []
        for k, tok in enumerate(Path(self.path).read_text().split(), start=1):
            try:
                values.append(float(tok))
            except ValueError:
                raise ValueError(f"opinion file {self.path!r}: value {k} must be a number, "
                                 f"got {tok!r}") from None
        if len(values) != n_agents:
            raise ValueError(
                f"opinion file {self.path!r} has {len(values)} values for {n_agents} agents"
            )
        return np.asarray(values, dtype=np.float64)


SWEEPABLE = ("beta", "gamma", "p_bar")


@dataclass(frozen=True)
class SweepSpec:
    """One bifurcation experiment: a grid of values for one swept parameter."""

    base_params: ModelParams
    swept_param: str
    grid: tuple[float, ...]
    initial: InitSpec
    graph_spec: GraphSpec
    seed: int = 0  # keys a random start
    transient: int = 10_000
    tail: int = 1024
    tol: float = DEFAULT_TOL
    max_period: int = DEFAULT_MAX_PERIOD

    def __post_init__(self):
        if self.swept_param not in SWEEPABLE:
            raise ValueError(
                f"swept_param must be one of {SWEEPABLE}, got {self.swept_param!r}"
            )
        for v in self.grid:
            _check_number(f"{self.swept_param} grid value", v)
        grid = tuple(float(v) for v in self.grid)
        object.__setattr__(self, "grid", grid)
        for a, b in zip(grid, grid[1:]):
            if not a < b:
                raise ValueError("grid values must be strictly increasing")
        for v in grid[:1] + grid[-1:]:
            self.params_at(v)  # each field's valid values form an interval
        for name, lo in (("transient", 0), ("tail", 1), ("max_period", 1)):
            _check_count(name, getattr(self, name), lo)
        _check_tol(self.tol)
        _check_seed(self.seed)

    def params_at(self, value: float) -> ModelParams:
        return replace(self.base_params, **{self.swept_param: value})


@dataclass(frozen=True)
class SweepRow:
    """One scatter column of the bifurcation diagram.

    ``opinion_samples`` holds one opinion per tail tick: agent 0's for fully
    synchronized sweeps (all agents are equal), otherwise the mean over agents.
    """

    param_value: float
    attractor: AttractorClass
    opinion_samples: np.ndarray
    p_samples: np.ndarray


@contextmanager
def _point(spec: SweepSpec, name: str, value):
    """Error context of one grid point; yields the spec's tail classifier."""
    try:
        yield lambda thetas, ps: classify_states(thetas, ps, tol=spec.tol,
                                                 max_period=spec.max_period)
    except Exception as exc:
        raise SweepError(f"{name} = {value!r}: {exc}") from exc


def run_sweep(spec: SweepSpec, threads: int = 1) -> list[SweepRow]:
    """Run every grid point and classify its long-run behavior.

    Output order matches the grid.  Results are bitwise deterministic for a
    fixed spec and do not depend on ``threads``, which splits only a grid whose
    start is not fully synchronized: two threads would double an FS tick's calls.
    One chunk runs on the calling thread, so Ctrl-C stops it; split chunks poll
    an event that a Ctrl-C sets, so it stops them too.
    """
    _check_count("threads", threads, 1)
    if not spec.grid:
        return []
    graph = spec.graph_spec.build()
    opinions0 = spec.initial.opinions(graph.n_agents, spec.seed)
    p_bars = spec.grid if spec.swept_param == "p_bar" else (spec.base_params.p_bar,)
    _check_initial(opinions0, spec.initial.p0, p_bars)
    # no tie at tick 0 (see _check_initial), so _run's FS test reads the opinions alone
    fs = bool((opinions0 == opinions0[0]).all())
    start = SimState(opinions0, spec.initial.p0, quantize_opinion(opinions0, -1), 1)
    tail = range(spec.transient + 1, spec.transient + spec.tail + 1)
    n_chunks = 1 if fs else min(threads, len(spec.grid))
    chunks = [c.tolist() for c in np.array_split(spec.grid, n_chunks)]

    stop = threading.Event() if n_chunks > 1 else None  # polled by the pool's chunks

    def run(vals):
        return _run(start, graph, {**vars(spec.base_params), spec.swept_param: vals}, tail, stop)

    if n_chunks == 1:
        tails = [run(chunks[0])]
    else:
        with ThreadPoolExecutor(max_workers=n_chunks) as pool:
            try:
                tails = list(pool.map(run, chunks))
            finally:  # on Ctrl-C the workers stop at their next poll, and the pool joins them
                stop.set()
    # classify on the calling thread: a tracer wrapping classify_states sees run_sweep as caller
    rows: list[SweepRow] = []
    for vals, (tth, tp, _, _) in zip(chunks, tails):
        for v, theta, p in zip(vals, tth, tp):
            with _point(spec, spec.swept_param, v) as classify:
                attractor = classify(theta, p)
            # an FS row's opinions and every row's pollution are views of the chunk's records
            rows.append(SweepRow(v, attractor, theta[:, 0] if fs else theta.mean(axis=1), p))
    return rows


def attractor_gallery(betas: Sequence[float], base: SweepSpec
                      ) -> list[tuple[float, Trajectory, AttractorClass]]:
    """Full stride-1 trajectories for phase-plane plots, with classification.

    Each entry simulates transient + tail ticks at one beta (other
    parameters from ``base``) and classifies the tail.  Every beta is
    checked, as a ``ModelParams`` field, before the first run.
    """
    for b in betas:
        _check_number("beta", b)
    points = [(b, replace(base.base_params, beta=float(b))) for b in betas]
    graph = base.graph_spec.build()
    opinions0 = base.initial.opinions(graph.n_agents, base.seed)
    state0 = initial_state(opinions0, base.initial.p0, base.base_params)
    entries = []
    for b, params in points:
        with _point(base, "beta", b) as classify:
            traj = simulate(state0, graph, params, base.transient + base.tail, stride=1)
            attractor = classify(traj.opinions[-base.tail:], traj.pollution[-base.tail:])
        entries.append((float(b), traj, attractor))
    return entries


def write_bifurcation_csv(rows: Sequence[SweepRow], path) -> None:
    """Export scatter data: param_value,class,period,sample_index,theta_sample,p_sample.

    One ``write`` call per row, so no file-long column is made; ``csvout``
    packs the rows into blocks of its own size.
    """
    with CsvWriter(path, "param_value,class,period,sample_index,theta_sample,p_sample") as out:
        for row in rows:
            n = len(row.p_samples)
            out.write([(["%.17g,%s" % (row.param_value, class_period(row.attractor))],
                        np.zeros(n, dtype=np.intp)), np.arange(n), row.opinion_samples,
                       row.p_samples])


def write_gallery_csv(entries: Sequence[tuple[float, Trajectory, AttractorClass]],
                      path) -> None:
    """Export gallery trajectories: beta,tick,theta,p,class (agent-0 opinion)."""
    with CsvWriter(path, "beta,tick,theta,p,class") as out:
        for beta, traj, attractor in entries:
            n = traj.n_snapshots
            out.write([np.full(n, beta), traj.ticks, traj.opinions[:, 0], traj.pollution,
                       ([attractor.kind], np.zeros(n, dtype=np.intp))])
