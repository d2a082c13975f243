"""Command-line front end: run a configured experiment and write its outputs.

Every run writes a ``manifest.txt`` holding the fully resolved config; the
manifest is itself a valid config document, and re-running it reproduces
the CSV outputs bit-exactly.

Exit codes: 0 success, 1 configuration or precondition errors, 2 runtime
errors (for example a tail too short for classification).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .analysis import (
    InsufficientDataError,
    classify_states,
    find_preserved_clusters,
    write_cluster_csv,
    write_lattice_grid_csv,
)
from .config import ConfigError, RunConfig, parse_config, render_config
from .dynamics import _run, _write_csv, initial_state, simulate
from .sweep import (
    FSInit,
    RandomInit,
    SweepError,
    SweepSpec,
    _initial_opinions,
    attractor_gallery,
    run_sweep,
    write_bifurcation_csv,
    write_gallery_csv,
)


def _build_opinions(cfg: RunConfig, n_agents: int) -> np.ndarray:
    if cfg.init.kind != "file":
        return _initial_opinions(_init_spec(cfg), n_agents)
    values = []
    for k, tok in enumerate(Path(cfg.init.path).read_text().split(), start=1):
        try:
            values.append(float(tok))
        except ValueError:
            raise ValueError(f"opinion file {cfg.init.path!r}: value {k} must be a number, "
                             f"got {tok!r}") from None
    if len(values) != n_agents:
        raise ValueError(
            f"opinion file {cfg.init.path!r} has {len(values)} values "
            f"for {n_agents} agents"
        )
    return np.asarray(values, dtype=np.float64)


def _init_spec(cfg: RunConfig):
    if cfg.init.kind == "fs":
        return FSInit(theta0=cfg.init.theta0, p0=cfg.init.p0)
    return RandomInit(seed=cfg.seed, p0=cfg.init.p0)


def _sweep_spec(cfg: RunConfig, grid: tuple[float, ...], swept: str) -> SweepSpec:
    return SweepSpec(
        base_params=cfg.params,
        swept_param=swept,
        grid=grid,
        initial=_init_spec(cfg),
        graph_spec=cfg.graph,
        transient=cfg.transient,
        tail=cfg.tail,
        tol=cfg.tol,
        max_period=cfg.max_period,
    )


def _start_state(cfg: RunConfig):
    graph = cfg.graph.build()
    opinions = _build_opinions(cfg, graph.n_agents)
    return graph, initial_state(opinions, cfg.init.p0, cfg.params)


def run(cfg: RunConfig, quiet: bool = False) -> list[Path]:
    """Execute one command; returns the paths written (manifest first)."""
    manifest = render_config(cfg)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [out_dir / "manifest.txt"]
    written[0].write_text(manifest)

    if cfg.command in ("simulate", "clusters"):
        graph, state0 = _start_state(cfg)
        traj = simulate(state0, graph, cfg.params, cfg.steps, cfg.stride)
        if cfg.command == "simulate":
            path = out_dir / "trajectory.csv"
            traj.write_csv(path)
            written.append(path)
        reports = find_preserved_clusters(traj, graph, cfg.params.beta)
        path = out_dir / "clusters.csv"
        write_cluster_csv(reports, path)
        written.append(path)
        if cfg.graph.kind == "lattice":
            path = out_dir / "grid.csv"
            write_lattice_grid_csv(traj, cfg.graph.side, reports, path)
            written.append(path)
    elif cfg.command == "sweep":
        rows = run_sweep(_sweep_spec(cfg, cfg.grid, cfg.sweep_param), threads=cfg.threads)
        path = out_dir / "bifurcation.csv"
        write_bifurcation_csv(rows, path)
        written.append(path)
    elif cfg.command == "gallery":
        base = _sweep_spec(cfg, (cfg.params.beta,), "beta")
        entries = attractor_gallery(cfg.betas, base)
        path = out_dir / "gallery.csv"
        write_gallery_csv(entries, path)
        written.append(path)
    elif cfg.command == "classify":
        graph, state0 = _start_state(cfg)
        tail = range(cfg.transient + 1, cfg.transient + cfg.tail + 1)
        tail_theta, tail_p, _, _ = _run(state0, graph, vars(cfg.params), tail)
        attractor = classify_states(
            tail_theta[0], tail_p[0], tol=cfg.tol, max_period=cfg.max_period,
        )
        path = out_dir / "classification.csv"
        period = attractor.period if attractor.kind == "cycle" else ""
        _write_csv(path, "class,period", "%s,%s", [(attractor.kind, period)])
        written.append(path)

    if not quiet:
        for p in written:
            print(p)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="codapol",
        description="Deterministic simulator for a quantized opinion model "
                    "coupled to a pollution state.",
    )
    parser.add_argument("--config", required=True, help="config document to run")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--threads", type=int, help="sweep worker count")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    try:
        overrides = {key: getattr(args, key) for key in ("seed", "out", "threads")
                     if getattr(args, key) is not None}
        # Re-parsing the rendered config puts overrides through the file's checks
        # and makes sure the manifest written parses back.
        cfg = parse_config(render_config(replace(parse_config(text), **overrides)))
        run(cfg, quiet=args.quiet)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InsufficientDataError, SweepError, RuntimeError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
