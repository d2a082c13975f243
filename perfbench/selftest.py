#!/usr/bin/env python3
"""Self-test of the benchmark, mostly at tiny sizes.

    python3 perfbench/selftest.py

Prints one PASS/FAIL line per check and exits 1 if any check fails.  Checks
that BENCHMARK.json matches ``metrics.py``; that the calibration sampler
samples throughout a span and restores SIGALRM; that every workload, run at the
sizes of ``workloads.TINY``, yields every metric; that traced child spans
lie inside their parents and their self times sum to ``cli.run_s``; that
``sweep.agent_steps`` equals points x (transient + tail) x N; that the
wrapped functions are restored after a traced run; and that ``run.py``
prints every metric with its unit on the smallest full workload, and fails
without a result where the codapol sources are missing.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import calibrate
import metrics
import spans
import worker
import workloads
from codapol import config

SCRATCH = worker.ROOT / ".perfbench_out" / "selftest"
results: list[bool] = []


def check(name: str, ok: bool, detail="") -> None:
    results.append(bool(ok))
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if not ok and detail else ""))


def check_benchmark_json() -> None:
    bench = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]}
    check("BENCHMARK.json end_to_end matches metrics.END_TO_END",
          e2e == {k: v[:3] for k, v in metrics.END_TO_END.items()}, e2e)
    layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    check("BENCHMARK.json per_layer matches metrics.PER_LAYER",
          layer == {k: v[:2] for k, v in metrics.PER_LAYER.items()}, layer)
    check("BENCHMARK.json workloads match workloads.WORKLOADS",
          tuple(w["name"] for w in bench["workloads"]) == workloads.WORKLOADS)


def snapshot() -> dict:
    return {(owner, attr): vars(spans._resolve(owner)).get(attr)
            for owner, attr, _ in spans.POINTS}


def check_workload(name: str) -> None:
    out = SCRATCH / name
    plain = worker.rep(name, 5, str(out / "plain"), sizes="tiny", setup_min_s=0.01,
                       scaled=True)
    e2e = {"run_s": plain["run_s"], "setup_s": min(plain["setup_s"]),
           "peak_rss_mb": plain["peak_rss_mb"]}
    check(f"{name}: every end-to-end metric is positive",
          set(e2e) == set(metrics.END_TO_END) and all(v > 0 for v in e2e.values()), e2e)

    before = snapshot()
    traced = worker.rep(name, 5, str(out / "traced"), sizes="tiny", traced=True)
    check(f"{name}: wrapped functions restored", snapshot() == before)
    check(f"{name}: every trace point exists", traced["points"] == len(spans.POINTS),
          f"{traced['points']} of {len(spans.POINTS)}")
    check(f"{name}: spans nest and self times sum to cli.run_s",
          not traced["trace_errors"], traced["trace_errors"])
    check(f"{name}: every count read", not traced["count_errors"], traced["count_errors"])
    layers = traced["layers"]
    run_level = {"sweep.threads2_speedup", "trace.overhead_frac"}
    check(f"{name}: every per-layer metric produced",
          set(layers) | run_level == set(metrics.PER_LAYER),
          set(metrics.PER_LAYER) ^ (set(layers) | run_level))
    check(f"{name}: tracing leaves the outputs unchanged",
          plain["digests"] == traced["digests"] and plain["digests"])
    check(f"{name}: cli.run_s covers the traced run_s",
          0 < layers["cli.run_s"] <= traced["run_s"])
    if name == "fs-sweep":
        n = workloads.TINY[name]["n"]
        expected = sum(
            len(cfg.grid) * (cfg.transient + cfg.tail) * n
            for cfg in (config.parse_config(text)
                        for _, text in workloads.commands(name, 5, "x", workloads.TINY)))
        check("fs-sweep: sweep.agent_steps == points x (transient + tail) x N",
              layers["sweep.agent_steps"] == expected, (layers["sweep.agent_steps"], expected))
        rows = sum(layers[f"analysis.rows_{k}"] for k in ("fixed", "cycle", "aperiodic"))
        check("fs-sweep: one classification per grid point",
              rows == layers["analysis.classify_calls"] > 0)
    if name == "gallery":
        s = workloads.TINY[name]
        check("gallery: dynamics.step_calls == classify commands x tail",
              layers["dynamics.step_calls"] == len(s["betas"]) * s["tail"])


def check_sampler() -> None:
    handler = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler(0.01) as sampler:
        mark = sampler.now()
        t_end = time.perf_counter() + 0.3
        while time.perf_counter() < t_end:
            pass
        span = sampler.since(mark)
    check("sampler takes kernel samples throughout a span",
          len(span.kernels) >= 5 and 0 < span.sampling < span.wall, vars(span))
    check("sampler restores SIGALRM and disarms its timer",
          signal.getsignal(signal.SIGALRM) is handler
          and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0))
    check("scaling factor is positive", calibrate.factor(span.kernels) > 0)


def check_run_py() -> None:
    cmd = [sys.executable, str(worker.HERE / "run.py"), "--workload", "lattice",
           "--seed", "3", "--seconds", "1"]
    for trace, names in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
        proc = subprocess.run(cmd + ["--trace", str(trace)], cwd=worker.ROOT,
                              capture_output=True, text=True, timeout=170)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            check(f"run.py --trace {trace} prints a result", False, proc.stderr[-2000:])
            continue
        check(f"run.py --trace {trace}: result keys",
              set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
        check(f"run.py --trace {trace}: correct with no failed operation",
              result["correct"] is True and result["failed"] == 0
              and result["attempted"] >= 1 + trace, result)
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        check(f"run.py --trace {trace}: every metric printed with its unit",
              printed == {k: metrics.unit(k) for k in names}, printed)

    with tempfile.TemporaryDirectory(dir=SCRATCH) as bare:
        shutil.copy(worker.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(worker.HERE, f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gallery",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
        check("run.py fails without a result where src/ is missing",
              proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout)


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        check_benchmark_json()
        check_sampler()
        for name in workloads.WORKLOADS:
            check_workload(name)
        check_run_py()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{sum(results)} of {len(results)} checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
