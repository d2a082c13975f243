import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from codapol.analysis import classify_states
from codapol.cli import main
from codapol.dynamics import ModelParams, fs_initial_state, random_opinions, simulate
from codapol.graph import complete_graph

BASE_SECTIONS = """
[graph]
kind = complete
n = 20

[params]
beta = 0.45
gamma = 0.5
e_min = 0
e_max = 1
p_bar = 15

[init]
kind = fs
theta0 = 0.4
p0 = 100
"""


def write_config(tmp_path, command_block, out, name="config.txt", seed=7,
                 sections=BASE_SECTIONS, threads=None):
    threads_line = f"threads = {threads}\n" if threads is not None else ""
    text = (
        f"[run]\ncommand = {command_block[0]}\nout = {out}\nseed = {seed}\n"
        + threads_line + sections + command_block[1]
    )
    path = tmp_path / name
    path.write_text(text)
    return path


ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())["workloads"]

SIMULATE_BLOCK = ("simulate", "\n[simulate]\nsteps = 120\nstride = 1\n")
SWEEP_BLOCK = (
    "sweep",
    "\n[sweep]\nparam = beta\ngrid = 0.45,0.7,0.999\n"
    "transient = 1500\ntail = 512\nmax_period = 128\n",
)
GALLERY_BLOCK = (
    "gallery",
    "\n[gallery]\nbetas = 0.45,0.999\ntransient = 1500\ntail = 512\nmax_period = 128\n",
)


class TestSimulateCommand:
    def test_writes_trajectory_clusters_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SIMULATE_BLOCK, out)
        assert main(["--config", str(cfg)]) == 0
        assert (out / "manifest.txt").is_file()
        assert (out / "trajectory.csv").is_file()
        assert (out / "clusters.csv").is_file()
        assert not (out / "grid.csv").exists()
        printed = capsys.readouterr().out
        assert "trajectory.csv" in printed

    def test_quiet_suppresses_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SIMULATE_BLOCK, out)
        assert main(["--config", str(cfg), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_lattice_run_adds_grid_file(self, tmp_path):
        sections = BASE_SECTIONS.replace(
            "kind = complete\nn = 20", "kind = lattice\nside = 6"
        ).replace("kind = fs\ntheta0 = 0.4", "kind = random")
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SIMULATE_BLOCK, out, sections=sections)
        assert main(["--config", str(cfg)]) == 0
        grid_lines = (out / "grid.csv").read_text().strip().split("\n")
        assert len(grid_lines) == 37
        assert grid_lines[0] == "row,col,theta_final,action_final,in_strong_cluster"

    def test_clusters_command_skips_trajectory(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, ("clusters", SIMULATE_BLOCK[1]), out)
        assert main(["--config", str(cfg)]) == 0
        assert (out / "clusters.csv").is_file()
        assert not (out / "trajectory.csv").exists()

    def test_opinion_file_init(self, tmp_path):
        ops = tmp_path / "ops.txt"
        ops.write_text("\n".join(str(0.1 + 0.02 * i) for i in range(20)))
        sections = BASE_SECTIONS.replace(
            "kind = fs\ntheta0 = 0.4", f"kind = file\npath = {ops}"
        )
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SIMULATE_BLOCK, out, sections=sections)
        assert main(["--config", str(cfg)]) == 0
        header = (out / "trajectory.csv").read_text().split("\n", 2)
        first_row = header[1].split(",")
        assert float(first_row[3]) == 0.1  # theta_0 at tick 0

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_opinion_file_exits_one(self, tmp_path, capsys, bad):
        ops = tmp_path / "ops.txt"
        ops.write_text("\n".join([bad] + ["0.5"] * 19))
        sections = BASE_SECTIONS.replace(
            "kind = fs\ntheta0 = 0.4", f"kind = file\npath = {ops}"
        )
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SIMULATE_BLOCK, out, sections=sections)
        assert main(["--config", str(cfg)]) == 1
        assert "agent 0" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_unparsable_opinion_file_names_file_and_position(self, tmp_path, capsys):
        ops = tmp_path / "ops.txt"
        ops.write_text("0.5 0.25\n" + "0.5\n" * 5 + "abc\n" + "0.5\n" * 13)
        sections = BASE_SECTIONS.replace(
            "kind = fs\ntheta0 = 0.4", f"kind = file\npath = {ops}"
        )
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SIMULATE_BLOCK, out, sections=sections)
        assert main(["--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"error: opinion file {str(ops)!r}: value 8 must be a number, got 'abc'" in err
        assert not (out / "trajectory.csv").exists()


    @pytest.mark.parametrize("count", [19, 21])
    def test_opinion_file_length_mismatch_exits_one(self, tmp_path, capsys, count):
        ops = tmp_path / "ops.txt"
        ops.write_text("0.5\n" * count)
        sections = BASE_SECTIONS.replace(
            "kind = fs\ntheta0 = 0.4", f"kind = file\npath = {ops}"
        )
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SIMULATE_BLOCK, out, sections=sections)
        assert main(["--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"error: opinion file {str(ops)!r} has {count} values for 20 agents" in err
        assert not (out / "trajectory.csv").exists()


class TestSweepCommand:
    def test_bifurcation_csv_written(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SWEEP_BLOCK, out)
        assert main(["--config", str(cfg)]) == 0
        lines = (out / "bifurcation.csv").read_text().strip().split("\n")
        assert lines[0] == "param_value,class,period,sample_index,theta_sample,p_sample"
        assert len(lines) == 1 + 3 * 512

    def test_gallery_command(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, GALLERY_BLOCK, out)
        assert main(["--config", str(cfg)]) == 0
        lines = (out / "gallery.csv").read_text().strip().split("\n")
        assert lines[0] == "beta,tick,theta,p,class"
        assert len(lines) == 1 + 2 * (1500 + 512 + 1)

    def test_classify_command(self, tmp_path):
        block = (
            "classify",
            "\n[classify]\ntransient = 1500\ntail = 512\nmax_period = 128\n",
        )
        out = tmp_path / "out"
        cfg = write_config(tmp_path, block, out)
        assert main(["--config", str(cfg)]) == 0
        text = (out / "classification.csv").read_text()
        assert text.startswith("class,period\n")
        assert text.strip().split("\n")[1] == "fixed,"

    def test_classify_cycle_command(self, tmp_path):
        block = (
            "classify",
            "\n[classify]\ntransient = 1500\ntail = 512\nmax_period = 128\n",
        )
        out = tmp_path / "out"
        sections = BASE_SECTIONS.replace("beta = 0.45", "beta = 0.8")
        cfg = write_config(tmp_path, block, out, sections=sections)
        assert main(["--config", str(cfg)]) == 0
        assert (out / "classification.csv").read_bytes() == b"class,period\ncycle,8\n"

    def test_classify_tail_runs_through_threshold_tie(self, tmp_path, monkeypatch):
        # With p_bar = 40 the pollution of this FS start decays onto the
        # threshold exactly at tick 54, inside the transient: a run restarted
        # from there is rejected, so the tail has to come from one run.
        params = ModelParams(beta=0.45, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=40.0)
        transient, tail = 100, 256
        traj = simulate(fs_initial_state(0.4, 20, 100.0, params), complete_graph(20),
                        params, transient + tail)
        assert traj.pollution[53] != 40.0 and traj.pollution[54] == 40.0
        with pytest.raises(ValueError, match="threshold"):
            simulate(traj.state_at(transient), complete_graph(20), params, tail)

        seen = {}

        def recording_classify(theta, p, **kwargs):
            seen.update(theta=theta.copy(), p=p.copy())
            return classify_states(theta, p, **kwargs)

        monkeypatch.setattr("codapol.sweep.classify_states", recording_classify)
        block = (
            "classify",
            f"\n[classify]\ntransient = {transient}\ntail = {tail}\nmax_period = 128\n",
        )
        out = tmp_path / "out"
        sections = BASE_SECTIONS.replace("p_bar = 15", "p_bar = 40")
        cfg = write_config(tmp_path, block, out, sections=sections)
        assert main(["--config", str(cfg)]) == 0
        assert (out / "classification.csv").read_text() == "class,period\nfixed,\n"
        assert np.array_equal(seen["theta"], traj.opinions[transient + 1:])
        assert np.array_equal(seen["p"], traj.pollution[transient + 1:])


class TestDeterminism:
    def read_csvs(self, out):
        return {
            p.name: p.read_bytes()
            for p in sorted(out.iterdir())
            if p.suffix == ".csv"
        }

    def test_manifest_rerun_reproduces_simulate_bytes(self, tmp_path):
        sections = BASE_SECTIONS.replace(
            "kind = complete\nn = 20", "kind = lattice\nside = 6"
        ).replace("kind = fs\ntheta0 = 0.4", "kind = random")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cfg = write_config(tmp_path, SIMULATE_BLOCK, out1, sections=sections)
        assert main(["--config", str(cfg), "--quiet"]) == 0
        assert main(["--config", str(out1 / "manifest.txt"), "--out", str(out2),
                     "--quiet"]) == 0
        assert self.read_csvs(out1) == self.read_csvs(out2)

    def test_manifest_rerun_reproduces_sweep_bytes_across_threads(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cfg = write_config(tmp_path, SWEEP_BLOCK, out1)
        assert main(["--config", str(cfg), "--quiet"]) == 0
        assert main(["--config", str(out1 / "manifest.txt"), "--out", str(out2),
                     "--threads", "3", "--quiet"]) == 0
        assert self.read_csvs(out1) == self.read_csvs(out2)

    @pytest.mark.parametrize("block", [SWEEP_BLOCK, GALLERY_BLOCK], ids=["sweep", "gallery"])
    def test_manifest_rerun_reproduces_fs_lattice_bytes_across_threads(self, tmp_path, block):
        sections = BASE_SECTIONS.replace("kind = complete\nn = 20", "kind = lattice\nside = 4")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cfg = write_config(tmp_path, block, out1, sections=sections)
        assert main(["--config", str(cfg), "--quiet"]) == 0
        assert main(["--config", str(out1 / "manifest.txt"), "--out", str(out2),
                     "--threads", "3", "--quiet"]) == 0
        assert self.read_csvs(out1) == self.read_csvs(out2)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("block", [SWEEP_BLOCK, GALLERY_BLOCK], ids=["sweep", "gallery"])
    def test_opinion_file_matches_random_start(self, tmp_path, block, threads):
        # the file holds exactly the opinions a random start with seed 9 draws
        ops = tmp_path / "ops.txt"
        ops.write_text("".join(f"{v:.17g}\n" for v in random_opinions(9, 16)))
        lattice = BASE_SECTIONS.replace("kind = complete\nn = 20", "kind = lattice\nside = 4")
        csvs = []
        for kind, init in (("random", "kind = random"), ("file", f"kind = file\npath = {ops}")):
            sections = lattice.replace("kind = fs\ntheta0 = 0.4", init)
            cfg = write_config(tmp_path, block, tmp_path / kind, name=f"{kind}.txt", seed=9,
                               sections=sections, threads=threads)
            assert main(["--config", str(cfg), "--quiet"]) == 0
            csvs.append(self.read_csvs(tmp_path / kind))
        assert csvs[0] == csvs[1] and len(csvs[0]) == 1

    def test_seed_override_recorded_and_effective(self, tmp_path):
        sections = BASE_SECTIONS.replace("kind = fs\ntheta0 = 0.4", "kind = random")
        out1, out2, out3 = tmp_path / "o1", tmp_path / "o2", tmp_path / "o3"
        cfg = write_config(tmp_path, SIMULATE_BLOCK, out1, sections=sections, seed=1)
        assert main(["--config", str(cfg), "--quiet"]) == 0
        assert main(["--config", str(cfg), "--seed", "2", "--out", str(out2),
                     "--quiet"]) == 0
        assert "seed = 2" in (out2 / "manifest.txt").read_text()
        assert (out1 / "trajectory.csv").read_bytes() != (out2 / "trajectory.csv").read_bytes()
        # rerunning the overridden manifest reproduces the overridden run
        assert main(["--config", str(out2 / "manifest.txt"), "--out", str(out3),
                     "--quiet"]) == 0
        assert (out2 / "trajectory.csv").read_bytes() == (out3 / "trajectory.csv").read_bytes()


class TestExitCodes:
    def test_config_error_exits_one(self, tmp_path, capsys):
        sections = BASE_SECTIONS.replace("gamma = 0.5", "gamma = 1.0")
        cfg = write_config(tmp_path, SIMULATE_BLOCK, tmp_path / "o", sections=sections)
        assert main(["--config", str(cfg)]) == 1
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,key", [
        ("--seed", "-1", "seed"),
        ("--seed", str(2 ** 64), "seed"),
        ("--threads", "0", "threads"),
        ("--out", "o#1", "out"),
        ("--out", "", "out"),
    ])
    def test_bad_override_exits_one_naming_key(self, tmp_path, capsys, monkeypatch,
                                               flag, value, key):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, SIMULATE_BLOCK, tmp_path / "o")
        assert main(["--config", str(cfg), flag, value]) == 1
        assert f"'{key}' in [run]" in capsys.readouterr().err
        assert not any(tmp_path.glob("**/manifest.txt"))

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.txt")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_insufficient_tail_exits_two(self, tmp_path, capsys):
        block = (
            "classify",
            "\n[classify]\ntransient = 10\ntail = 64\nmax_period = 128\n",
        )
        out = tmp_path / "o"
        cfg = write_config(tmp_path, block, out)
        assert main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: beta = 0.45: tail of 64 samples")
        assert "grid value" not in err
        assert not out.exists()

    def test_sweep_point_failure_exits_two_naming_value(self, tmp_path, capsys):
        block = (
            "sweep",
            "\n[sweep]\nparam = beta\ngrid = 0.45\ntransient = 10\n"
            "tail = 64\nmax_period = 128\n",
        )
        cfg = write_config(tmp_path, block, tmp_path / "o")
        assert main(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("runtime error: beta = 0.45: ")

    @pytest.mark.parametrize("block,key,section", [
        (("gallery", "\n[gallery]\nbetas = 0.45,1.5\ntransient = 10\ntail = 8\n"),
         "betas", "gallery"),
        (("sweep", "\n[sweep]\nparam = beta\ngrid = 0.45,1.5\ntransient = 10\ntail = 8\n"),
         "grid", "sweep"),
        (("sweep", "\n[sweep]\nparam = gamma\ngrid = 0.5,1\ntransient = 10\ntail = 8\n"),
         "grid", "sweep"),
    ], ids=["gallery-beta", "sweep-beta", "sweep-gamma"])
    def test_bad_swept_value_exits_one_before_writing(self, tmp_path, capsys, block, key,
                                                       section):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, block, out)
        assert main(["--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: key {key!r} in [{section}]: value ")
        assert not out.exists()

    def test_bad_graph_key_exits_one_before_writing(self, tmp_path, capsys):
        sections = BASE_SECTIONS.replace(
            "kind = complete\nn = 20", "kind = random\nn = 20\nedge_prob = 0.5\nseed = -1")
        out = tmp_path / "o"
        cfg = write_config(tmp_path, SIMULATE_BLOCK, out, sections=sections)
        assert main(["--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: key 'seed' in [graph]: ")
        assert not out.exists()

    @pytest.mark.parametrize("old,new,match", [
        ("kind = complete\nn = 20", "kind = edgelist\npath = {edges}", "no neighbors"),
        ("p0 = 100", "p0 = 15", "threshold"),
    ], ids=["edgelist-agent-without-neighbors", "p0-on-threshold"])
    @pytest.mark.parametrize("block", [
        SIMULATE_BLOCK, SWEEP_BLOCK, GALLERY_BLOCK,
        ("classify", "\n[classify]\ntransient = 10\ntail = 8\nmax_period = 4\n"),
    ], ids=["simulate", "sweep", "gallery", "classify"])
    def test_failed_start_writes_no_manifest(self, tmp_path, capsys, old, new, match, block):
        edges = tmp_path / "edges.txt"
        edges.write_text("N 3 directed=0\n0 1\n")
        out = tmp_path / "o"
        sections = BASE_SECTIONS.replace(old, new.format(edges=edges))
        cfg = write_config(tmp_path, block, out, sections=sections)
        assert main(["--config", str(cfg)]) == 1
        assert match in capsys.readouterr().err
        assert not out.exists()

    def test_failed_sweep_point_writes_no_manifest(self, tmp_path):
        block = ("sweep", "\n[sweep]\nparam = beta\ngrid = 0.45\ntransient = 10\n"
                          "tail = 64\nmax_period = 128\n")
        out = tmp_path / "o"
        cfg = write_config(tmp_path, block, out)
        assert main(["--config", str(cfg)]) == 2
        assert not out.exists()

    def test_precondition_error_exits_one(self, tmp_path, capsys):
        # initial pollution exactly on the threshold violates the tie rule
        sections = BASE_SECTIONS.replace("p0 = 100", "p0 = 15")
        cfg = write_config(tmp_path, SIMULATE_BLOCK, tmp_path / "o", sections=sections)
        assert main(["--config", str(cfg)]) == 1
        assert "threshold" in capsys.readouterr().err


def child_env():
    """This environment with the checkout's ``src`` first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


class TestModuleEntryPoint:
    def test_python_m_codapol_runs_and_exits_with_main_code(self, tmp_path):
        env = child_env()
        out = tmp_path / "out"
        cfg = write_config(tmp_path, ("clusters", SIMULATE_BLOCK[1]), out)
        done = subprocess.run([sys.executable, "-m", "codapol", "--config", str(cfg)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [str(out / "manifest.txt"), str(out / "clusters.csv")]
        bad = write_config(tmp_path, SIMULATE_BLOCK, out, name="bad.txt",
                           sections=BASE_SECTIONS.replace("gamma = 0.5", "gamma = 1.0"))
        done = subprocess.run([sys.executable, "-m", "codapol", "--config", str(bad)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 1
        assert "gamma" in done.stderr

    # beta = 0.52 never recurs bit for bit (an FS run stops at a recurrence), and a
    # random start on a lattice splits the grid across the threads
    @pytest.mark.parametrize("command, head, sections, threads", [
        ("sweep", "\n[sweep]\nparam = beta\ngrid = 0.52,0.8\n", BASE_SECTIONS, None),
        ("classify", "\n[classify]\n", BASE_SECTIONS.replace("beta = 0.45", "beta = 0.52"), None),
        ("sweep", "\n[sweep]\nparam = beta\ngrid = 0.52,0.8\n", BASE_SECTIONS.replace(
            "kind = complete\nn = 20", "kind = lattice\nside = 4").replace(
            "kind = fs\ntheta0 = 0.4", "kind = random"), 2),
    ], ids=["sweep", "classify", "random-sweep-on-two-threads"])
    def test_ctrl_c_stops_a_fully_synchronized_run(self, tmp_path, command, head, sections,
                                                   threads):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, (command, head + "transient = 100000000\ntail = 512\n"), out,
                           sections=sections, threads=threads)
        child = subprocess.Popen(
            [sys.executable, "-m", "codapol", "--config", str(cfg), "--quiet"],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            # a background job starts with SIGINT ignored, and then Python ignores it too
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            time.sleep(2)
            assert child.poll() is None  # still in the transient
            child.send_signal(signal.SIGINT)
            assert child.wait(timeout=5) != 0
        finally:
            child.kill()
            child.wait()
        assert not (out / "manifest.txt").exists()


class TestExperimentDocuments:
    # each document of experiments/ with its CLI flags, and the CSVs it must
    # write as the benchmark workload that times it: {csv: (workload, seed key, name)}
    @pytest.mark.parametrize("doc, flags, csvs", [
        ("bifurcation-main", [], {"bifurcation.csv": ("fs-sweep", "*", "main/bifurcation.csv")}),
        ("bifurcation-control", [],
         {"bifurcation.csv": ("fs-sweep", "*", "control/bifurcation.csv")}),
        ("gallery", [], {"gallery.csv": ("gallery", "*", "gallery/gallery.csv")}),
        ("lattice", ["--seed", "1"],
         {f"{name}.csv": ("lattice", "1", f"simulate/{name}.csv")
          for name in ("trajectory", "clusters", "grid")}),
    ])
    def test_document_reproduces_reference_digests(self, tmp_path, doc, flags, csvs):
        out = tmp_path / doc
        config = ROOT / "experiments" / f"{doc}.txt"
        assert main(["--config", str(config), "--out", str(out), "--quiet", *flags]) == 0
        for name, (workload, key, ref_name) in csvs.items():
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert digest == REFERENCE[workload][key][ref_name], name
