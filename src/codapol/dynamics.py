"""Synchronous discrete-time engine for the coupled opinion/pollution model.

Each tick k carries a fully consistent tuple (theta(k), p(k), q(k), q_p(k)):
the stored actions are the sign-quantized opinions with memory-based tie
breaking, and the stored observation signal is the threshold-quantized
pollution with the same memory rule.  All tick-(k+1) quantities are computed
from tick-k quantities only.
"""

from __future__ import annotations

import math
import struct
import threading
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
    """Recorded snapshots of a simulation, at a fixed stride plus the final tick.

    The arrays are stored as read-only views, as a fully synchronized run
    records one column and broadcasts it to every agent; :meth:`state_at`
    gives writable copies.
    """

    recording_stride: int
    ticks: np.ndarray  # int64[S], strictly increasing
    opinions: np.ndarray  # float64[S, N]
    pollution: np.ndarray  # float64[S]
    actions: np.ndarray  # int8[S, N]
    q_p: np.ndarray  # int8[S]

    def __post_init__(self):
        for name in ("ticks", "opinions", "pollution", "actions", "q_p"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            setattr(self, name, view)

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
        _write_csv(path, header, [[self.ticks, self.pollution, self.q_p, self.opinions,
                                   self.actions]])


# Fields per writer block (at least one line), and values per % call.  Freed
# block temporaries stay resident (glibc): after the 499-row bifurcation.csv of
# perfbench's fs-sweep, 2.5 MB at 2**14, 5 MB at 2**15, and 2**13 was slower.
_BLOCK_FIELDS = 2**14
_FORMAT_BATCH = 4096


def _column_fields(column, lines: slice) -> np.ndarray:
    """uint8 [lines, width] padded fields of ``column`` over ``lines``,
    formatting each distinct value once."""
    if isinstance(column, tuple):
        labels, codes = column
        used, index = np.unique(np.asarray(codes)[lines], return_inverse=True)
        values = [labels[c] for c in used.tolist()]
        fmt = f"%-{max(map(len, values))}s,"
    elif np.asarray(column).dtype.kind == "f":  # by bits, so -0.0 and 0.0 stay apart
        bits = np.ascontiguousarray(column[lines], dtype=np.float64).view(np.int64)
        used, index = np.unique(bits.reshape(-1), return_inverse=True)
        values, fmt = used.view(np.float64).tolist(), "%-24.17g,"
    else:
        used, index = np.unique(np.asarray(column)[lines].reshape(-1), return_inverse=True)
        values, fmt = used.tolist(), "%-21d,"
    text = "".join(fmt * len(batch) % tuple(batch) for batch in (
        values[i:i + _FORMAT_BATCH] for i in range(0, len(values), _FORMAT_BATCH)))
    table = np.frombuffer(text.encode("ascii"), np.uint8).reshape(len(values), -1)
    return table[:, (table != ord(" ")).any(axis=0)][index].reshape(lines.stop - lines.start, -1)


def _write_csv(path, header: str, parts) -> None:
    """Write ``header``, then the lines of each of ``parts``, to ``path``.

    Every CSV output goes through here.  A part is a list of columns: int or
    bool arrays, float arrays of shape [lines] or [lines, k], and text columns
    ``(labels, codes)``, whose line i reads ``labels[codes[i]]``.  Ints print
    as ``%d`` and floats as ``%.17g`` (round-trip exact); lines end in ``\\n``
    and no field needs quoting.  Each block of at most ``_BLOCK_FIELDS``
    fields formats every distinct value of a column once, by Python's own
    ``%`` in batched calls padded on the right to a fixed width (24 bytes
    holds any ``%.17g``, 21 any int64), gathers them into fixed-width lines
    and drops the pad spaces, which no number or label contains: the bytes
    are those of one ``%`` call per field.
    """
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for columns in parts:
            shapes = [np.shape(c[1] if isinstance(c, tuple) else c) for c in columns]
            step = max(1, _BLOCK_FIELDS // sum(math.prod(s[1:]) for s in shapes))
            for start in range(0, shapes[0][0], step):
                lines = slice(start, start + min(step, shapes[0][0] - start))
                block = np.concatenate([_column_fields(c, lines) for c in columns], axis=1)
                block[:, -1] = ord("\n")
                fh.write(block.tobytes().translate(None, b" "))


def quantize_opinion(theta: float, prev_action: int) -> int:
    """Sign of the opinion (elementwise); a zero, or NaN, keeps the memory.

    In the comparison form of :func:`quantize_pollution`: a float and an int
    give a Python int, and an array result has the dtype of an array memory.
    """
    pos, neg = theta > 0.0, theta < 0.0
    return prev_action * (pos == neg) + pos - neg


def quantize_pollution(p: float, p_bar: float, prev_qp: int) -> int:
    """Threshold signal, polarity inverted (elementwise): above p_bar -1, below +1.

    At the threshold (or NaN) the previous signal is kept.  Comparisons, not
    ``np.where``, keep a float input in plain Python, with a Python int result.
    """
    above, below = p > p_bar, p < p_bar
    return prev_qp * (above == below) + below - above  # int first: numpy refuses bool - bool


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


def local_fields(actions: np.ndarray, q_p: int, graph: Graph, beta: float) -> np.ndarray:
    """Field value toward which each agent's opinion moves.

    (1 - beta) * (n_i_plus - n_i_minus) / n_i + beta * q_p for agent i, always
    in [-1, 1].
    """
    return _field(graph.neighbor_mean(np.asarray(actions, dtype=np.int64)), q_p, beta)


def step_opinion(theta: float, f: float) -> float:
    """One opinion update: theta + (1 - theta^2) * (f - theta).

    The result stays in [-1, 1]; opinions at exactly +-1 never move.  The
    run loop calls it on a Python float or on whole arrays.
    """
    return theta + (1.0 - theta * theta) * (f - theta)


def step(state: SimState, graph: Graph, params: ModelParams) -> SimState:
    """One synchronous tick of the coupled dynamics.

    Refreshes the action memories from the current opinions/pollution, then
    computes the next pollution and every next opinion from tick-k
    quantities only.
    """
    thetas, ps, qs, qps = _run(state, graph, vars(params), [1])
    return SimState(
        opinions=thetas[0, 0].copy(),
        pollution=float(ps[0, 0]),
        actions=qs[0, 0].astype(np.int64),
        q_p=int(qps[0, 0]),
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


def _check_seed(seed) -> None:
    """Reject a seed that is not an int in [0, 2**64); a bool is not a seed."""
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2**64):
        raise ValueError(f"seed must be an int in [0, 2**64), got {seed!r}")


def _check_count(name: str, value, lo: int) -> None:
    """Reject a count that is not an int of at least ``lo`` (0 or 1); a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < lo:
        raise ValueError(f"{name} must be {'positive' if lo else 'nonnegative'}, got {value}")


# Philox4x64-10 round multipliers and key bumps (Salmon et al., SC'11).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = 0xFFFFFFFF
# Agents per Philox pass of random_opinions, which bounds its temporaries.
_OPINION_BLOCK = 2**16


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of each 128-bit product a * b, by 32-bit halves."""
    a_hi, a_lo = a >> 32, a & _LOW32
    b_hi, b_lo = b >> 32, b & _LOW32
    lo_hi, hi_lo = a_lo * b_hi, a_hi * b_lo
    carry = (a_lo * b_lo >> 32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)
    return a_hi * b_hi + (lo_hi >> 32) + (hi_lo >> 32) + (carry >> 32), a * b


def _philox4x64(counter, key) -> tuple[np.ndarray, ...]:
    """Philox4x64-10 blocks: four uint64 counter words (arrays) and two key words
    (ints) to the four output words.  uint64 arrays wrap mod 2**64 silently, as
    the generator does; the key schedule takes Python ints mod 2**64, since
    numpy scalars warn when they wrap."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for r in range(10):
        if r:
            k0, k1 = (k0 + _PHILOX_W[0]) % 2**64, (k1 + _PHILOX_W[1]) % 2**64
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


def random_opinions(seed: int, n_agents: int) -> np.ndarray:
    """I.i.d. uniform opinions on (-1, 1), deterministic and order-independent.

    Agent i's opinion is numpy's ``Generator(Philox(key=seed, counter=i << 64))
    .uniform(-1, 1)``, redrawn while it is 0 or -1, so it depends only on
    (seed, i).  Philox is counter-based (Salmon et al., "Parallel random
    numbers: as easy as 1, 2, 3", SC'11): that generator's first draw is
    ``-1 + 2 (w >> 11) 2**-53``, where w is word 0 of the Philox4x64-10 block
    at counter [1, i, 0, 0] under key (seed, 0), so one array pass per block of
    agents computes every agent's first draw.  Only agents whose first draw is
    rejected (probability 2**-52 each) run their own generator, from its second draw.
    """
    _check_seed(seed)
    _check_count("n_agents", n_agents, 0)
    seed = int(seed)
    out = np.empty(n_agents)
    for start in range(0, n_agents, _OPINION_BLOCK):
        agents = np.arange(start, min(start + _OPINION_BLOCK, n_agents), dtype=np.uint64)
        zeros = np.zeros_like(agents)
        word0 = _philox4x64((zeros + 1, agents, zeros, zeros), (seed, 0))[0]
        out[start:start + agents.size] = -1.0 + 2.0 * ((word0 >> 11) * 2.0**-53)
    for i in np.flatnonzero((out == 0.0) | (np.abs(out) == 1.0)).tolist():
        gen = np.random.Generator(np.random.Philox(key=seed, counter=i << 64))
        gen.random()  # the first draw, rejected above
        u = 0.0
        while u == 0.0 or abs(u) == 1.0:
            u = gen.uniform(-1.0, 1.0)
        out[i] = u
    return out


# An FS run's first recurrence anchor, and the ticks compared with each anchor,
# which bound the periods it finds (see _run); ticks between stop-event polls.
_RECUR_FIRST = 64
_RECUR_WINDOW = 256
_POLL_TICKS = 64


def _run(initial: SimState, graph: Graph, par: dict, record_ticks: Sequence[int],
         stop: threading.Event | None = None) -> tuple[np.ndarray, ...]:
    """Advance ``initial`` after refreshing its memories, recording at ``record_ticks``.

    The one run loop: ``simulate``, ``step`` and ``run_sweep`` (also the CLI
    ``classify`` command's) call it.  ``par`` maps each ``ModelParams`` field to a
    scalar or a column of P values; the ticks are strictly increasing counts
    from ``initial``.  Returns opinions [P, S, N], pollution [P, S], actions
    int8 [P, S, N] and q_p int8 [P, S].  A set ``stop`` event raises
    ``KeyboardInterrupt`` within ``_POLL_TICKS`` ticks.

    On any graph a state with equal opinions and memories stays so bit for
    bit: ``Graph`` gives every agent d >= 1 in-neighbors, so its neighbor
    mean is d q / d = q exactly.  Such a run advances one column for all n
    agents (the FS quotient) and broadcasts its record back.  A single point
    keeps pollution, params, action count and an FS opinion as Python
    scalars, which the elementwise rules take at a fraction of numpy's
    per-call cost; P points run as a [P, N] state with [P, 1] columns.  An
    FS batch looks its fields and emission totals up in per-point tables
    built by the same rules, so a tick is a few numpy calls.

    An FS tick depends only on (theta, p, q, q_p) and the params, so a state
    with the same bits at ticks a and a + m repeats with period m from a on
    (cycle detection as in Brent, BIT 20, 1980).  An FS run compares an
    anchor at each power of two from ``_RECUR_FIRST`` on with each of the
    next ``_RECUR_WINDOW`` ticks.  Once every point has recurred in one
    window, it runs the longest period once more and fills the later
    records by index, with the bits of a full run.
    """
    n = graph.n_agents
    if initial.n_agents != n:
        raise ValueError(f"state has {initial.n_agents} agents but graph has {n}")
    n_pts = max(np.size(v) for v in par.values())
    p = float(initial.pollution)
    if n_pts == 1:
        par = {k: np.asarray(v).item() for k, v in par.items()}
    else:
        par = {k: np.reshape(v, (-1, 1)) for k, v in par.items()}
        p = np.full((n_pts, 1), p)
    beta, gamma, e_min, e_max, p_bar = (par[k] for k in ("beta", "gamma", "e_min", "e_max", "p_bar"))
    theta = np.asarray(initial.opinions, dtype=np.float64)
    q = quantize_opinion(theta, np.asarray(initial.actions, dtype=np.int64))
    qp = quantize_pollution(p, p_bar, initial.q_p)

    fs = (theta == theta[0]).all() and (q == q[0]).all()
    if fs:
        theta, q = theta[:1], q[:1]
        neighbor_mean, count_plus = (lambda q: q), (lambda q: n * (q == 1))
    elif n_pts == 1:
        neighbor_mean, count_plus = graph.neighbor_mean, lambda q: int(np.count_nonzero(q == 1))
    else:
        neighbor_mean, count_plus = graph.neighbor_mean, lambda q: np.count_nonzero(
            q == 1, axis=1, keepdims=True)
    if n_pts > 1:
        theta, q = np.tile(theta, (n_pts, 1)), np.tile(q, (n_pts, 1))
    elif fs:
        theta, q = theta.item(), q.item()

    def advance(state, ticks):
        theta, p, q, qp = state
        for _ in range(ticks):
            n_plus = count_plus(q)
            theta = step_opinion(theta, _field(neighbor_mean(q), qp, beta))
            p = step_pollution(p, _total_emission(n_plus, n - n_plus, e_min, e_max), gamma)
            q, qp = quantize_opinion(theta, q), quantize_pollution(p, p_bar, qp)
        return theta, p, q, qp

    table = fs and n_pts > 1
    if table:
        # the signs as ints, q + 1 in {0, 2} and (q_p + 1) / 2 in {0, 1}, sum to a
        # point's column of the field and emission tables; bools would index as masks
        base = 4 * np.arange(n_pts)[:, None]
        fields, totals = (np.broadcast_to(t, (n_pts, 4)).ravel() for t in (
            _field(np.array([-1, -1, 1, 1]), np.array([-1, 1, -1, 1]), beta),
            _total_emission(np.array([0, 0, n, n]), np.array([n, n, 0, 0]), e_min, e_max)))
        q, qp = q + 1, (qp + 1) // 2

        def advance(state, ticks):  # a zero or NaN keeps the memory, as the quantizers do
            theta, p, s, sp = state
            for _ in range(ticks):
                at = base + s + sp
                theta = step_opinion(theta, fields.take(at))
                p = step_pollution(p, totals.take(at), gamma)
                s = np.where(theta > 0.0, 2, np.where(theta < 0.0, 0, s))
                sp = np.where(p < p_bar, 1, np.where(p > p_bar, 0, sp))
            return theta, p, s, sp

    shape = (n_pts, len(record_ticks), 1 if fs else n)
    thetas, qs = np.empty(shape), np.empty(shape, dtype=np.int8)
    ps, qps = np.empty(shape[:2] + (1,)), np.empty(shape[:2] + (1,), dtype=np.int8)
    recs = [a.swapaxes(0, 1) for a in (thetas, ps, qs, qps)]  # [S, P, .]
    rec_theta, rec_p, rec_q, rec_qp = recs

    # the anchor, the state at tick a (the first at 2 a = _RECUR_FIRST), and found[j],
    # point j's period since a (0 while none); the next recurrence test is due at
    # tick `due`, and the next test or stop poll at tick `check`
    state, k, done = (theta, p, q, qp), 0, False
    a, anchor, due = _RECUR_FIRST // 2, None, _RECUR_FIRST if fs else math.inf
    poll = math.inf if stop is None else _POLL_TICKS
    check = min(due, poll)
    for rec, tick in enumerate(record_ticks):
        while k < tick:
            end = min(tick, check)
            state, k = advance(state, end - k), end
            if k < check:
                continue
            if stop is not None and stop.is_set():
                raise KeyboardInterrupt("run stopped")
            if k == due:  # compare bits, as -0.0 == 0.0
                now = np.concatenate(state, axis=1).view(np.int64) if table else state
                if anchor is not None and table:
                    found[(now == anchor).all(axis=1) & (found == 0)] = k - a
                    done = found.all()
                elif anchor is not None:
                    found = k - a
                    done = now == anchor and struct.pack("4d", *now) == struct.pack("4d", *anchor)
                if done:
                    break
                if k == 2 * a:
                    a, anchor, found = k, now, np.zeros(n_pts, dtype=np.int64)
                due = k + 1 if k < a + _RECUR_WINDOW else 2 * a
            check = min(due, k + poll)
        if done:
            break
        rec_theta[rec], rec_p[rec], rec_q[rec], rec_qp[rec] = state
    if done:  # record t >= k holds the state of tick k + (t - k) mod found[j]
        found = np.reshape(found, -1)
        cycle = [state]
        for _ in range(found.max() - 1):
            cycle.append(advance(cycle[-1], 1))
        at = (np.asarray(record_ticks[rec:])[:, None] - k) % found
        for i, out in enumerate(recs):
            out[rec:] = np.array([s[i] for s in cycle]).reshape(len(cycle), n_pts, 1)[
                at, np.arange(n_pts)]
    if table:  # back to -1/+1, in place
        qs -= 1
        qps *= 2
        qps -= 1
    full = shape[:2] + (n,)
    return np.broadcast_to(thetas, full), ps[..., 0], np.broadcast_to(qs, full), qps[..., 0]


def simulate(initial: SimState, graph: Graph, params: ModelParams,
             n_steps: int, stride: int = 1, *, allow_boundary: bool = False) -> Trajectory:
    """Run ``n_steps`` ticks, recording every ``stride`` ticks plus the final tick.

    Bitwise deterministic for identical inputs; the recorded snapshot
    sequence is exactly what repeated :func:`step` calls would produce.
    """
    _check_count("n_steps", n_steps, 0)
    _check_count("stride", stride, 1)
    _check_initial(initial.opinions, initial.pollution, (params.p_bar,), allow_boundary)

    record_ticks = sorted({*range(0, n_steps, stride), n_steps})
    thetas, ps, qs, qps = _run(initial, graph, vars(params), record_ticks)
    return Trajectory(
        recording_stride=stride,
        ticks=np.array(record_ticks, dtype=np.int64),
        opinions=thetas[0],
        pollution=ps[0],
        actions=qs[0],
        q_p=qps[0],
    )
