"""Catalog of the benchmark's metrics, with the rationale later changes cite.

``END_TO_END`` metrics come from untraced runs and carry the bound by which a
change may worsen them.  ``PER_LAYER`` metrics come from a separate traced
run; each names the end-to-end metric it should move and the workloads where
that move should show, so a change can say beforehand which numbers move and
which stay flat.  Counts (``count`` and ``bytes`` units) repeat exactly
between runs of one seed and are reported as counts, not rates.  For counts
that describe the result rather than the cost (``analysis.rows_*``,
``analysis.clusters_found``) any change at all is a correctness signal; their
``better`` is nominal.  A per-layer metric whose layer a workload never calls
reads 0 on that workload.
"""

from __future__ import annotations

from workloads import WORKLOADS as ALL

# name: (unit, better, bound, meaning)
# The timings are seconds at the reference speed of calibrate.py: wall time
# minus the kernel samples, scaled by the kernel's reference time over its
# mean sampled time.  On a shared 2-vCPU machine whose speed swings with
# other tenants' load, raw wall times of the same code spread by 14-33%
# between repetitions and their medians moved by 20-30% between sets of
# runs.  Scaled, over four sets of ten 25 s runs per workload, the quartile
# spread over the median of run_s stayed at or under 5.5% (one earlier set:
# 11% on fs-sweep) and medians moved by at most 16% between sets (fs-sweep,
# sets an hour apart; 5% between consecutive sets).  setup_s spreads by up
# to 22% on fs-sweep, whose setup takes under a millisecond.  So the timings
# keep the largest bound allowed, 0.25; peak memory spreads by under 1%.
END_TO_END = {
    "run_s": ("s", "lower", 0.25,
              "seconds of the workload's codapol.cli.run calls, CSVs and manifests included, "
              "at the reference speed"),
    "setup_s": ("s", "lower", 0.25,
                "parse_config, GraphSpec.build, initial opinions and initial_state for every "
                "command of the workload, at the reference speed"),
    "peak_rss_mb": ("MB", "lower", 0.1,
                    "peak resident memory of the process that ran one repetition"),
}

# name: (unit, better, moves, shows on)
PER_LAYER = {
    "config.parse_s": ("s", "lower", "setup_s", ALL),
    "config.render_s": ("s", "lower", "setup_s", ALL),
    "graph.build_s": ("s", "lower", "setup_s", ("big-lattice",)),
    "graph.edges": ("count", "lower", "setup_s", ("big-lattice",)),
    "graph.build_ns_per_edge": ("ns", "lower", "setup_s", ("big-lattice",)),
    "dynamics.random_opinions_s": ("s", "lower", "setup_s", ("big-lattice", "lattice")),
    "dynamics.initial_state_s": ("s", "lower", "setup_s", ("big-lattice", "lattice")),
    "dynamics.simulate_s": ("s", "lower", "run_s", ("gallery", "big-lattice")),
    "dynamics.agent_steps": ("count", "lower", "run_s", ("gallery", "big-lattice")),
    "dynamics.simulate_ns_per_agent_step": ("ns", "lower", "run_s", ("gallery", "big-lattice")),
    "dynamics.step_calls": ("count", "lower", "run_s", ("gallery",)),
    "dynamics.step_s": ("s", "lower", "run_s", ("gallery",)),
    "dynamics.trajectory_csv_s": ("s", "lower", "run_s", ("lattice",)),
    "dynamics.trajectory_csv_bytes": ("bytes", "lower", "run_s", ("lattice",)),
    "dynamics.trajectory_csv_mb_per_s": ("MB/s", "higher", "run_s", ("lattice",)),
    "sweep.run_sweep_s": ("s", "lower", "run_s", ("fs-sweep",)),
    "sweep.advance_s": ("s", "lower", "run_s", ("fs-sweep",)),
    "sweep.agent_steps": ("count", "lower", "run_s", ("fs-sweep",)),
    "sweep.advance_ns_per_agent_step": ("ns", "lower", "run_s", ("fs-sweep",)),
    "sweep.gallery_s": ("s", "lower", "run_s", ("gallery",)),
    "sweep.gallery_csv_s": ("s", "lower", "run_s", ("gallery",)),
    "sweep.bifurcation_csv_s": ("s", "lower", "run_s", ("fs-sweep",)),
    "sweep.bifurcation_csv_bytes": ("bytes", "lower", "run_s", ("fs-sweep",)),
    # run_sweep at threads=2 against threads=1 on the fs-sweep main grid; no
    # end-to-end effect while the workloads run single-threaded.
    "sweep.threads2_speedup": ("ratio", "higher", None, ("fs-sweep",)),
    "analysis.classify_s": ("s", "lower", "run_s", ("fs-sweep", "gallery")),
    "analysis.classify_calls": ("count", "lower", "run_s", ("fs-sweep", "gallery")),
    "analysis.classify_us_per_call": ("us", "lower", "run_s", ("fs-sweep", "gallery")),
    "analysis.rows_fixed": ("count", "higher", None, ("fs-sweep", "gallery")),
    "analysis.rows_cycle": ("count", "higher", None, ("fs-sweep", "gallery")),
    "analysis.rows_aperiodic": ("count", "higher", None, ("fs-sweep", "gallery")),
    "analysis.clusters_s": ("s", "lower", "run_s", ("big-lattice", "lattice")),
    "analysis.clusters_found": ("count", "higher", None, ("big-lattice", "lattice")),
    "analysis.cluster_csv_s": ("s", "lower", "run_s", ("big-lattice",)),
    "analysis.grid_csv_s": ("s", "lower", "run_s", ("big-lattice",)),
    "cli.run_s": ("s", "lower", "run_s", ALL),
    "cli.self_s": ("s", "lower", "run_s", ALL),
    # traced run_s over untraced run_s, minus one, for the same workload and seed
    "trace.overhead_frac": ("fraction", "lower", None, ALL),
}


def unit(name: str) -> str:
    return (END_TO_END.get(name) or PER_LAYER[name])[0]
