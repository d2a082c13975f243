"""One repetition of a workload, run in a process of its own.

``python3 perfbench/worker.py '<task json>'`` prints one JSON line with the
repetition's timings, the SHA-256 digest of every CSV it wrote and its peak
resident memory.  Tasks:

* ``{"mode": "rep", "workload", "seed", "out", ...}`` runs every command of
  the workload (optional keys: ``sizes`` "full"/"tiny", ``traced``,
  ``setup_min_s``, ``threads``, ``labels``);
* ``{"mode": "manifest", "out", "new"}`` re-runs every ``manifest.txt`` under
  ``out`` into ``new`` and byte-compares the CSVs.
"""

from __future__ import annotations

import filecmp
import gc
import hashlib
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def import_codapol():
    """Import codapol from the checkout's own ``src/``, never from elsewhere."""
    if not (SRC / "codapol" / "__init__.py").is_file():
        raise ImportError(f"no codapol sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import codapol

    if Path(codapol.__file__).resolve().parent != SRC / "codapol":
        raise ImportError(f"codapol imported from {codapol.__file__}, not from {SRC}")
    return codapol


sys.path.insert(0, str(HERE))
import_codapol()

import numpy as np  # noqa: E402
from codapol import cli, config, dynamics  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


# Kernel samples a single setup must hold to be scaled by them alone.
SETUP_OWN_KERNELS = 5


def setup_once(cmds) -> None:
    """The work each command does before its first tick."""
    for _, text in cmds:
        cfg = config.parse_config(text)
        graph = cfg.graph.build()
        if cfg.init.kind == "random":
            opinions = dynamics.random_opinions(cfg.seed, graph.n_agents)
        else:
            opinions = np.full(graph.n_agents, cfg.init.theta0, dtype=np.float64)
        dynamics.initial_state(opinions, cfg.init.p0, cfg.params)


def run_commands(cmds, sampler: calibrate.Sampler) -> calibrate.Span:
    """The ``cli.run`` calls, outputs and manifests included, as one span."""
    spans = []
    for _, text in cmds:
        cfg = config.parse_config(text)
        mark = sampler.now()
        cli.run(cfg, quiet=True)
        spans.append(sampler.since(mark))
    return calibrate.Span(sum(s.wall for s in spans), sum(s.sampling for s in spans),
                          [k for s in spans for k in s.kernels])


def digests(out: Path) -> dict[str, str]:
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*.csv"))
    }


def rep(workload: str, seed: int, out: str, sizes: str = "full", traced: bool = False,
        setup_min_s: float = 0.0, threads: int = 1, labels=None, scaled: bool = False) -> dict:
    """Run every command of the workload once.

    ``run_s`` and ``setup_s`` (``setup_min_s`` seconds of repeated setups)
    are wall seconds, or with ``scaled`` seconds at the reference speed of
    ``calibrate``; ``run_wall_s`` and ``speed`` keep the raw figures.
    """
    table = workloads.TINY if sizes == "tiny" else workloads.FULL
    cmds = workloads.commands(workload, seed, out, table, threads)
    if labels is not None:
        cmds = [c for c in cmds if c[0] in labels]
    result: dict = {}
    with calibrate.Sampler(calibrate.INTERVAL_S if scaled and not traced else None) as sampler:
        if setup_min_s > 0:
            samples = []
            window = sampler.now()
            t_end = time.perf_counter() + setup_min_s
            while not samples or time.perf_counter() < t_end:
                mark = sampler.now()
                setup_once(cmds)
                samples.append(sampler.since(mark))
            result["setup_s"] = [s.net for s in samples]
            if scaled:
                # A setup long enough to hold kernel samples is scaled by its
                # own; short ones by the window's typical kernel time.
                typical = calibrate.factor(sampler.since(window).kernels, typical=True)
                result["setup_s"] = [
                    s.net * (calibrate.factor(s.kernels)
                             if len(s.kernels) >= SETUP_OWN_KERNELS else typical)
                    for s in samples]
        gc.collect()
        if traced:
            with Tracer() as tracer:
                span = run_commands(cmds, sampler)
            tracer.finish()
        else:
            span = run_commands(cmds, sampler)
    f = calibrate.factor(span.kernels) if scaled else 1.0
    result.update(run_s=span.net * f, run_wall_s=span.net, speed=f)
    if traced:
        result["layers"] = tracer.layer_metrics()
        result["run_sweep_s"] = [s.duration for s in tracer.spans if s.name == "sweep.run_sweep"]
        result["trace_errors"] = tracer.nesting_errors() + tracer.accounting_errors()
        if not tracer.restored():
            result["trace_errors"].append("wrapped functions were not restored")
        result["points"] = len(tracer.installed)
        result["count_errors"] = sorted({s.attrs["count_error"] for s in tracer.spans
                                         if "count_error" in s.attrs})
    result["digests"] = digests(Path(out))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = np.__version__
    return result


def manifest(out: str, new: str) -> dict:
    """Re-run every manifest under ``out`` into ``new``; list the CSVs that differ."""
    out, new = Path(out), Path(new)
    mismatches = []
    for path in sorted(out.rglob("manifest.txt")):
        rel = path.parent.relative_to(out)
        cfg = replace(config.parse_config(path.read_text()), out=str(new / rel))
        cli.run(cfg, quiet=True)
        old_csvs = sorted(p.name for p in path.parent.glob("*.csv"))
        new_csvs = sorted(p.name for p in (new / rel).glob("*.csv"))
        if old_csvs != new_csvs:
            mismatches.append(f"{rel}: wrote {new_csvs}, expected {old_csvs}")
        mismatches += [f"{rel}/{name}" for name in old_csvs if name in new_csvs
                       and not filecmp.cmp(path.parent / name, new / rel / name, shallow=False)]
    return {"mismatches": mismatches}


def main(argv) -> int:
    task = json.loads(argv[1])
    mode = task.pop("mode")
    result = rep(**task) if mode == "rep" else manifest(**task)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
