#!/usr/bin/env python3
"""Benchmark of codapol's reference experiments, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see ``workloads.py``):
``fs-sweep``, ``lattice``, ``big-lattice`` and ``gallery``.  Each
repetition runs in a fresh worker process; repetitions follow one another
until the next one would end after ``--seconds`` (there is always at least
one).  Seed-dependent workloads give repetition r the seed ``N + r``.

With ``--trace 0`` the result reports the end-to-end metrics as medians over
the repetitions (``setup_s`` over the setup samples of the first few).  Their
times are scaled to a fixed machine speed by the calibration kernel of
``calibrate.py``, sampled throughout each timed span; the raw wall times go
to the results file.
With ``--trace 1`` untraced and traced repetitions alternate on seed N, and
the result reports the per-layer metrics of ``metrics.PER_LAYER`` as medians
over the traced ones; on ``fs-sweep`` the main grid is also run at two
threads and its ``bifurcation.csv`` byte-compared with the single-threaded
one.

Every repetition's CSVs are hashed and compared with ``reference.json``,
recorded from the seed commit by ``make_reference.py``.  The traced run also
re-runs the manifests of its first repetition and byte-compares their CSVs.
A mismatch, an exception or a trace inconsistency is a failed operation.

The last stdout line is the result; the line before it holds the
environment stamp, which is also written with the raw samples to
``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import datetime
import filecmp
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402

# The first SETUP_REPS repetitions of a run repeat the setup for at least
# SETUP_MIN_S each; later ones skip it and spend the time on run_s samples.
SETUP_REPS = 3
SETUP_MIN_S = 1.0
RUN_LIMIT_S = 170.0  # every worker is killed by then
WORKER_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")


class Run:
    """One benchmark invocation: its workers, operations and raw samples."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool):
        self.workload, self.seed, self.seconds, self.traced = workload, seed, seconds, traced
        self.reference = json.loads((HERE / "reference.json").read_text())["workloads"][workload]
        stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
        self.name = f"{workload}-seed{seed}-trace{int(traced)}-{stamp}-{os.getpid()}"
        self.dir = ROOT / ".perfbench_out" / self.name
        self.t0 = time.perf_counter()
        self.ops: list[dict] = []
        self.samples: dict = {}
        self.numpy = None
        self.threads = len(os.sched_getaffinity(0))

    def worker(self, task: dict) -> dict | None:
        left = RUN_LIMIT_S - (time.perf_counter() - self.t0)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(task)],
                stdout=subprocess.PIPE, text=True, env=WORKER_ENV, cwd=ROOT,
                timeout=max(left, 1.0),
            )
        except subprocess.TimeoutExpired:
            return None
        if proc.returncode != 0:
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def op(self, kind: str, ok: bool, detail: str = "") -> bool:
        self.ops.append({"op": kind, "ok": ok, "detail": detail})
        return ok

    def rep(self, index: int, seed: int, traced: bool, **extra) -> dict | None:
        """Run one repetition into its own directory and check its CSV digests."""
        out = self.dir / f"rep{index}"
        res = self.worker({"mode": "rep", "workload": self.workload, "seed": seed,
                           "out": str(out), "traced": traced, **extra})
        if res is None:
            self.op("rep", False, f"worker failed (seed {seed})")
            return None
        self.numpy = res["numpy"]
        key = str(workloads.config_seed(self.workload, seed)) \
            if self.workload in workloads.SEEDED else "*"
        want = self.reference[key]
        if "labels" in extra:
            want = {k: v for k, v in want.items() if k.split("/")[0] in extra["labels"]}
        bad = sorted(k for k in set(want) | set(res["digests"])
                     if want.get(k) != res["digests"].get(k))
        errors = res.get("trace_errors", [])
        ok = self.op("rep", not bad and not errors,
                     "; ".join([f"digest mismatch: {', '.join(bad)}"] * bool(bad) + errors))
        return res if ok else None

    def manifest_check(self) -> None:
        res = self.worker({"mode": "manifest", "out": str(self.dir / "rep0"),
                           "new": str(self.dir / "manifest")})
        if res is None:
            self.op("manifest", False, "worker failed")
        else:
            self.op("manifest", not res["mismatches"], "; ".join(res["mismatches"]))

    def untraced(self) -> dict:
        reps = []
        index = 0
        while True:
            t = time.perf_counter()
            res = self.rep(index, self.seed + index, False, scaled=True,
                           setup_min_s=SETUP_MIN_S if index < SETUP_REPS else 0.0)
            if res is not None:
                reps.append(res)
            shutil.rmtree(self.dir / f"rep{index}", ignore_errors=True)
            index += 1
            if self._spent() + (time.perf_counter() - t) > self.seconds:
                break
        if not reps:
            return {}
        self.samples = {
            "run_s": [r["run_s"] for r in reps],
            "setup_s": [s for r in reps for s in r.get("setup_s", [])],
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        }
        values = {name: statistics.median(v) for name, v in self.samples.items()}
        self.samples.update(run_wall_s=[r["run_wall_s"] for r in reps],
                            speed=[r["speed"] for r in reps])
        return values

    def traced_run(self) -> dict:
        """Alternate untraced and traced repetitions on one seed; per-layer medians."""
        plain, traced = [], []
        speedup = None
        index = 0
        while True:
            t = time.perf_counter()
            for is_traced, into in ((False, plain), (True, traced)):
                res = self.rep(index, self.seed, is_traced)
                if res is not None:
                    into.append(res)
                index += 1
            if self.workload == "fs-sweep" and speedup is None and res is not None:
                speedup = self._threads2(res, self.dir / f"rep{index - 1}")
            for i in range(1, index):
                shutil.rmtree(self.dir / f"rep{i}", ignore_errors=True)
            if self._spent() + (time.perf_counter() - t) > self.seconds:
                break
        self.manifest_check()
        if not plain or not traced:
            return {}
        layers = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
        out = {}
        for name, values in layers.items():
            if metrics.unit(name) in ("count", "bytes"):
                out[name] = values[0]
                if len(set(values)) > 1:
                    self.op("counts", False, f"{name} differs between repetitions: {values}")
            else:
                out[name] = statistics.median(values)
        out["sweep.threads2_speedup"] = speedup or 0.0
        out["trace.overhead_frac"] = (statistics.median(r["run_s"] for r in traced)
                                      / statistics.median(r["run_s"] for r in plain) - 1.0)
        self.samples = {"layers": layers, "untraced_run_s": [r["run_s"] for r in plain],
                        "count_errors": traced[0]["count_errors"]}
        return out

    def _threads2(self, single: dict, single_dir: Path) -> float:
        """Traced run_sweep at two threads against one on the main grid.

        The two bifurcation.csv files must be byte-identical.  Gives 0 when
        the process may use only one CPU.
        """
        if self.threads < 2:
            return 0.0
        res = self.rep("threads2", self.seed, True, threads=2, labels=["main"])
        if res is None:
            return 0.0
        name = "main/bifurcation.csv"
        same = filecmp.cmp(single_dir / name, self.dir / "repthreads2" / name, shallow=False)
        shutil.rmtree(self.dir / "repthreads2", ignore_errors=True)
        self.op("threads2", same, "" if same else "threads=2 bifurcation.csv differs")
        return single["run_sweep_s"][0] / res["run_sweep_s"][0] if same else 0.0

    def _spent(self) -> float:
        return time.perf_counter() - self.t0


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref).strip()
    if direct:
        return direct
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(run: Run) -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        level = _read(index / "level").strip()
        if level.isdigit():
            caches[int(level)] = _read(index / "size").strip()
    return {
        "python": platform.python_version(),
        "numpy": run.numpy,
        "nproc": run.threads,
        "cpu_model": model,
        "last_level_cache": caches[max(caches)] if caches else "unknown",
        "git_commit": git_commit(),
        "workload": run.workload,
        "seed": run.seed,
        "traced": run.traced,
        "seconds": run.seconds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "codapol" / "__init__.py").is_file():
        print(f"error: no codapol sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        values = run.traced_run() if run.traced else run.untraced()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    failed = sum(not op["ok"] for op in run.ops)
    for op in run.ops:
        if not op["ok"]:
            print(f"failed {op['op']}: {op['detail']}", file=sys.stderr)
    if not values:
        print("error: no repetition completed", file=sys.stderr)
        return 1

    names = metrics.PER_LAYER if run.traced else metrics.END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": metrics.unit(name)} for name in names},
    }
    env = environment(run)
    results_dir = ROOT / ".perfbench_out" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{run.name}.json").write_text(json.dumps(
        {"env": env, "ops": run.ops, "samples": run.samples, "result": result}, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
