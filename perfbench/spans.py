"""Span tracing of codapol from the outside.

A :class:`Tracer` replaces the functions at the points where one codapol
module calls another with wrappers that record a span (name, start, end,
parent) and restores the originals on exit.  A function is wrapped under the
name the caller looks it up by: ``cli.py`` imports ``simulate`` into its own
namespace, so ``codapol.cli.simulate`` is the point for CLI calls and
``codapol.sweep.simulate`` the one for gallery calls.  A point that no longer
exists is skipped, and its metrics read 0; so do the counts of a point
whose arguments or result no longer have the expected names.

Span self time is its duration minus its children's; the work counts come
from the wrapped calls' arguments and results, read after the traced work
ends wherever reading them would cost time inside a span.
"""

from __future__ import annotations

import importlib
import inspect
import os
import threading
import time
from dataclasses import dataclass, field

# (owner, attribute, span name); an owner "module:Class" names a class attribute.
POINTS = (
    ("codapol.config", "parse_config", "config.parse"),
    ("codapol.cli", "run", "cli.run"),
    ("codapol.cli", "render_config", "config.render"),
    ("codapol.graph:GraphSpec", "build", "graph.build"),
    ("codapol.cli", "random_opinions", "dynamics.random_opinions"),
    ("codapol.sweep", "random_opinions", "dynamics.random_opinions"),
    ("codapol.cli", "initial_state", "dynamics.initial_state"),
    ("codapol.sweep", "initial_state", "dynamics.initial_state"),
    ("codapol.cli", "simulate", "dynamics.simulate"),
    ("codapol.sweep", "simulate", "dynamics.simulate"),
    ("codapol.cli", "step", "dynamics.step"),
    ("codapol.dynamics:Trajectory", "write_csv", "dynamics.trajectory_csv"),
    ("codapol.cli", "run_sweep", "sweep.run_sweep"),
    ("codapol.cli", "attractor_gallery", "sweep.gallery"),
    ("codapol.cli", "write_gallery_csv", "sweep.gallery_csv"),
    ("codapol.cli", "write_bifurcation_csv", "sweep.bifurcation_csv"),
    ("codapol.sweep", "classify_states", "analysis.classify"),
    ("codapol.cli", "classify_states", "analysis.classify"),
    ("codapol.cli", "find_preserved_clusters", "analysis.clusters"),
    ("codapol.cli", "write_cluster_csv", "analysis.cluster_csv"),
    ("codapol.cli", "write_lattice_grid_csv", "analysis.grid_csv"),
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _bound(sig, args, kwargs) -> dict:
    return sig.bind(*args, **kwargs).arguments


# Per-point bookkeeping run after the wrapped call returns, outside its span.
def _after_graph(span, sig, args, kwargs, result):
    span.attrs["graph"] = result


def _after_simulate(span, sig, args, kwargs, result):
    a = _bound(sig, args, kwargs)
    span.attrs["agent_steps"] = int(a["n_steps"]) * int(a["graph"].n_agents)


def _after_path(span, sig, args, kwargs, result):
    span.attrs["path"] = _bound(sig, args, kwargs)["path"]


def _after_sweep(span, sig, args, kwargs, result):
    spec = _bound(sig, args, kwargs)["spec"]
    span.attrs["points"] = len(spec.grid)
    span.attrs["ticks"] = spec.transient + spec.tail


def _after_classify(span, sig, args, kwargs, result):
    span.attrs["kind"] = result.kind


def _after_clusters(span, sig, args, kwargs, result):
    span.attrs["found"] = len(result)


AFTER = {
    "graph.build": _after_graph,
    "dynamics.simulate": _after_simulate,
    "dynamics.trajectory_csv": _after_path,
    "sweep.bifurcation_csv": _after_path,
    "sweep.run_sweep": _after_sweep,
    "analysis.classify": _after_classify,
    "analysis.clusters": _after_clusters,
}


class Tracer:
    """Context manager: wraps every point in :data:`POINTS` on entry, restores on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.installed: list[tuple[object, str, object]] = []
        self._local = threading.local()

    def __enter__(self) -> "Tracer":
        for owner_name, attr, name in POINTS:
            owner = _resolve(owner_name)
            original = vars(owner).get(attr)
            if original is None:
                continue
            setattr(owner, attr, self._wrapper(original, name))
            self.installed.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every wrapped point holds its original function again."""
        return all(vars(owner)[attr] is original for owner, attr, original in self.installed)

    def _wrapper(self, original, name):
        after = AFTER.get(name)
        sig = inspect.signature(original) if after is not None else None
        spans = self.spans
        local = self._local

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if after is not None:
                try:
                    after(span, sig, args, kwargs, result)
                except (AttributeError, KeyError, TypeError) as exc:
                    span.attrs["count_error"] = repr(exc)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def finish(self) -> None:
        """Read the counts deferred out of the spans: graph sizes and file sizes."""
        for span in self.spans:
            graph = span.attrs.pop("graph", None)
            if graph is not None:
                span.attrs["n_agents"] = graph.n_agents
                span.attrs["edges"] = graph.n_edges
            path = span.attrs.pop("path", None)
            if path is not None:
                span.attrs["bytes"] = os.path.getsize(path)

    # -- derived quantities -------------------------------------------------

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, span in enumerate(self.spans):
            if span.parent is not None:
                kids[span.parent].append(i)
        return kids

    def self_times(self) -> list[float]:
        kids = self.children()
        return [s.duration - sum(self.spans[c].duration for c in kids[i])
                for i, s in enumerate(self.spans)]

    def nesting_errors(self) -> list[str]:
        """Spans that do not lie inside their parent, or that overlap a sibling."""
        errors = []
        for i, span in enumerate(self.spans):
            if span.end < span.start:
                errors.append(f"span {i} {span.name} ends before it starts")
            if span.parent is not None:
                p = self.spans[span.parent]
                if not (p.start <= span.start and span.end <= p.end):
                    errors.append(f"span {i} {span.name} lies outside parent {p.name}")
        for i, kids in enumerate(self.children()):
            ordered = sorted(kids, key=lambda c: self.spans[c].start)
            for a, b in zip(ordered, ordered[1:]):
                if self.spans[b].start < self.spans[a].end:
                    errors.append(f"children {a} and {b} of span {i} overlap")
        return errors

    def accounting_errors(self, tol: float = 1e-9) -> list[str]:
        """Check that span self times under cli.run roots sum to the cli.run total.

        Every span other than the benchmark's own parse_config calls must sit
        under a cli.run root.
        """
        selfs = self.self_times()
        kids = self.children()
        roots = [i for i, s in enumerate(self.spans) if s.parent is None]
        errors = [f"span {i} {self.spans[i].name} is outside every cli.run span"
                  for i in roots if self.spans[i].name not in ("cli.run", "config.parse")]
        stack = [i for i in roots if self.spans[i].name == "cli.run"]
        total = sum(self.spans[i].duration for i in stack)
        tree_self = 0.0
        while stack:
            i = stack.pop()
            tree_self += selfs[i]
            stack.extend(kids[i])
        if abs(tree_self - total) > tol * max(1.0, total):
            errors.append(f"self times sum to {tree_self!r} s, cli.run spans to {total!r} s")
        return errors

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric the spans give (all but the run-level ones)."""
        selfs = self.self_times()
        kids = self.children()
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span in self.spans:
            total[span.name] = total.get(span.name, 0.0) + span.duration
            calls[span.name] = calls.get(span.name, 0) + 1

        def t(name):
            return total.get(name, 0.0)

        def attr_sum(name, key):
            return sum(s.attrs.get(key, 0) for s in self.spans if s.name == name)

        def per(numer, denom, scale):
            return numer / denom * scale if denom else 0.0

        sweep_steps = 0
        advance = 0.0
        for i, span in enumerate(self.spans):
            if span.name != "sweep.run_sweep":
                continue
            advance += selfs[i]
            n = sum(self.spans[c].attrs.get("n_agents", 0) for c in kids[i]
                    if self.spans[c].name == "graph.build")
            sweep_steps += span.attrs.get("points", 0) * span.attrs.get("ticks", 0) * n
        kinds = [s.attrs.get("kind") for s in self.spans if s.name == "analysis.classify"]
        edges = attr_sum("graph.build", "edges")
        agent_steps = attr_sum("dynamics.simulate", "agent_steps")
        traj_bytes = attr_sum("dynamics.trajectory_csv", "bytes")
        n_classify = calls.get("analysis.classify", 0)
        return {
            "config.parse_s": t("config.parse"),
            "config.render_s": t("config.render"),
            "graph.build_s": t("graph.build"),
            "graph.edges": edges,
            "graph.build_ns_per_edge": per(t("graph.build"), edges, 1e9),
            "dynamics.random_opinions_s": t("dynamics.random_opinions"),
            "dynamics.initial_state_s": t("dynamics.initial_state"),
            "dynamics.simulate_s": t("dynamics.simulate"),
            "dynamics.agent_steps": agent_steps,
            "dynamics.simulate_ns_per_agent_step": per(t("dynamics.simulate"), agent_steps, 1e9),
            "dynamics.step_calls": calls.get("dynamics.step", 0),
            "dynamics.step_s": t("dynamics.step"),
            "dynamics.trajectory_csv_s": t("dynamics.trajectory_csv"),
            "dynamics.trajectory_csv_bytes": traj_bytes,
            "dynamics.trajectory_csv_mb_per_s": per(traj_bytes / 1e6,
                                                    t("dynamics.trajectory_csv"), 1.0),
            "sweep.run_sweep_s": t("sweep.run_sweep"),
            "sweep.advance_s": advance,
            "sweep.agent_steps": sweep_steps,
            "sweep.advance_ns_per_agent_step": per(advance, sweep_steps, 1e9),
            "sweep.gallery_s": t("sweep.gallery"),
            "sweep.gallery_csv_s": t("sweep.gallery_csv"),
            "sweep.bifurcation_csv_s": t("sweep.bifurcation_csv"),
            "sweep.bifurcation_csv_bytes": attr_sum("sweep.bifurcation_csv", "bytes"),
            "analysis.classify_s": t("analysis.classify"),
            "analysis.classify_calls": n_classify,
            "analysis.classify_us_per_call": per(t("analysis.classify"), n_classify, 1e6),
            "analysis.rows_fixed": kinds.count("fixed"),
            "analysis.rows_cycle": kinds.count("cycle"),
            "analysis.rows_aperiodic": kinds.count("aperiodic"),
            "analysis.clusters_s": t("analysis.clusters"),
            "analysis.clusters_found": attr_sum("analysis.clusters", "found"),
            "analysis.cluster_csv_s": t("analysis.cluster_csv"),
            "analysis.grid_csv_s": t("analysis.grid_csv"),
            "cli.run_s": t("cli.run"),
            "cli.self_s": sum(selfs[i] for i, s in enumerate(self.spans) if s.name == "cli.run"),
        }
