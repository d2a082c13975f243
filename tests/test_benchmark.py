"""The benchmark's own correctness checks, run on its workloads at tiny sizes.

``perfbench/worker.py`` is imported by path, as the benchmark runs it.  A
traced run must nest its spans, sum its self times and read its counts
without error; its CSVs, and those of a two-thread run and of a manifest
re-run, must equal an untraced run's byte for byte.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fs-sweep", "lattice", "big-lattice", "gallery")


@pytest.fixture(scope="module")
def worker():
    saved = list(sys.path)  # the worker puts perfbench/ on the path
    spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                  ROOT / "perfbench" / "worker.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_checks_pass(worker, workload, tmp_path):
    def rep(name, **kwargs):
        return worker.rep(workload, 5, str(tmp_path / name), sizes="tiny", **kwargs)

    traced = rep("traced", traced=True)
    assert traced["trace_errors"] == []
    assert traced["count_errors"] == []
    plain = rep("plain")
    assert plain["digests"] and traced["digests"] == plain["digests"]
    assert rep("threads2", threads=2)["digests"] == plain["digests"]
    rerun = worker.manifest(str(tmp_path / "plain"), str(tmp_path / "rerun"))
    assert rerun["mismatches"] == []
