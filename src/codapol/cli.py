"""Command-line front end: run a configured experiment and write its outputs.

Every finished run writes a ``manifest.txt`` holding the fully resolved
config; the manifest is itself a valid config document, and re-running it
reproduces the CSV outputs bit-exactly.  The ``classify`` command is a
one-point ``run_sweep``.

Exit codes: 0 success, 1 configuration or precondition errors, 2 runtime
errors (for example a tail too short for classification).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .analysis import (
    InsufficientDataError,
    class_period,
    find_preserved_clusters,
    write_cluster_csv,
    write_lattice_grid_csv,
)
from .config import ConfigError, RunConfig, parse_config, render_config
from .dynamics import _write_csv, initial_state, simulate
from .sweep import (
    SweepError,
    SweepSpec,
    attractor_gallery,
    run_sweep,
    write_bifurcation_csv,
    write_gallery_csv,
)


def _sweep_spec(cfg: RunConfig, grid: tuple[float, ...], swept: str) -> SweepSpec:
    return SweepSpec(
        base_params=cfg.params,
        swept_param=swept,
        grid=grid,
        initial=cfg.init,
        graph_spec=cfg.graph,
        seed=cfg.seed,
        transient=cfg.transient,
        tail=cfg.tail,
        tol=cfg.tol,
        max_period=cfg.max_period,
    )


def run(cfg: RunConfig, quiet: bool = False) -> list[Path]:
    """Execute one command; returns the paths written (manifest first).

    The manifest is rendered first and written last, so only a finished run has one.
    """
    manifest = render_config(cfg)
    out_dir = Path(cfg.out)
    written = [out_dir / "manifest.txt"]

    def output(name: str) -> Path:
        """Path of output ``name``, listed in ``written``.  The directory is made
        here, at the first output, so a run that fails before it leaves none."""
        out_dir.mkdir(parents=True, exist_ok=True)
        written.append(out_dir / name)
        return written[-1]

    if cfg.command in ("simulate", "clusters"):
        graph = cfg.graph.build()
        state0 = initial_state(cfg.init.opinions(graph.n_agents, cfg.seed), cfg.init.p0,
                               cfg.params)
        traj = simulate(state0, graph, cfg.params, cfg.steps, cfg.stride)
        if cfg.command == "simulate":
            traj.write_csv(output("trajectory.csv"))
        reports = find_preserved_clusters(traj, graph, cfg.params.beta)
        write_cluster_csv(reports, output("clusters.csv"))
        if cfg.graph.kind == "lattice":
            write_lattice_grid_csv(traj, cfg.graph.side, reports, output("grid.csv"))
    elif cfg.command == "sweep":
        rows = run_sweep(_sweep_spec(cfg, cfg.grid, cfg.sweep_param), threads=cfg.threads)
        write_bifurcation_csv(rows, output("bifurcation.csv"))
    elif cfg.command == "gallery":
        base = _sweep_spec(cfg, (cfg.params.beta,), "beta")
        write_gallery_csv(attractor_gallery(cfg.betas, base), output("gallery.csv"))
    elif cfg.command == "classify":
        (row,) = run_sweep(_sweep_spec(cfg, (cfg.params.beta,), "beta"))
        _write_csv(output("classification.csv"), "class,period",
                   [[([class_period(row.attractor)], [0])]])

    written[0].write_text(manifest)
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
