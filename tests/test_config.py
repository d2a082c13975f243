from dataclasses import replace

import pytest

from codapol.config import COMMANDS, ConfigError, RunConfig, parse_config, render_config
from codapol.dynamics import ModelParams
from codapol.graph import GraphSpec
from codapol.sweep import InitSpec

SIM_TEXT = """
# weak-coupling run on the complete graph
[run]
command = simulate
out = runs/demo
seed = 7

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

[simulate]
steps = 500
stride = 1
"""


def sweep_text(grid_lines):
    return f"""
[run]
command = sweep
out = runs/sweep
seed = 3
threads = 2

[graph]
kind = complete
n = 20

[params]
beta = 0.5
gamma = 0.5
e_min = 0
e_max = 1
p_bar = 15

[init]
kind = fs
theta0 = 0.4
p0 = 100

[sweep]
param = beta
{grid_lines}
transient = 10000
tail = 1024
"""


class TestParse:
    def test_reference_simulate_config_echoes_values(self):
        cfg = parse_config(SIM_TEXT)
        assert cfg.command == "simulate"
        assert cfg.graph == GraphSpec(kind="complete", n=20)
        assert cfg.params == ModelParams(beta=0.45, gamma=0.5, e_min=0.0,
                                         e_max=1.0, p_bar=15.0)
        assert cfg.init == InitSpec(kind="fs", p0=100.0, theta0=0.4)
        assert cfg.steps == 500 and cfg.stride == 1
        assert cfg.seed == 7
        assert cfg.out == "runs/demo"

    def test_gamma_bound_message(self):
        text = SIM_TEXT.replace("gamma = 0.5", "gamma = 1.0")
        with pytest.raises(ConfigError, match=r"gamma must lie in \(0, 1\)"):
            parse_config(text)

    def test_emission_ordering_rejected(self):
        text = SIM_TEXT.replace("e_min = 0", "e_min = 2")
        with pytest.raises(ConfigError, match="e_min"):
            parse_config(text)

    def test_unknown_key_rejected(self):
        text = SIM_TEXT.replace("stride = 1", "stride = 1\nwarp = 9")
        with pytest.raises(ConfigError, match="unknown key.*warp"):
            parse_config(text)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"\[sweep\]"):
            parse_config(SIM_TEXT + "\n[sweep]\nparam = beta\n")

    def test_missing_section_rejected(self):
        text = SIM_TEXT.replace("[init]", "[init_zzz]").replace("kind = fs", "kind = fs")
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_duplicate_key_rejected(self):
        text = SIM_TEXT.replace("steps = 500", "steps = 500\nsteps = 7")
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(text)

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("command = simulate\n")

    def test_bad_number_message_names_key(self):
        text = SIM_TEXT.replace("beta = 0.45", "beta = lots")
        with pytest.raises(ConfigError, match="beta"):
            parse_config(text)

    def test_unknown_command_rejected(self):
        text = SIM_TEXT.replace("command = simulate", "command = explode")
        with pytest.raises(ConfigError, match="command"):
            parse_config(text)

    def test_seed_range_enforced(self):
        text = SIM_TEXT.replace("seed = 7", "seed = -1")
        with pytest.raises(ConfigError, match="seed"):
            parse_config(text)

    def test_init_file_must_exist(self, tmp_path):
        text = SIM_TEXT.replace(
            "kind = fs\ntheta0 = 0.4", "kind = file\npath = missing.txt"
        )
        with pytest.raises(ConfigError, match="missing.txt"):
            parse_config(text)
        opfile = tmp_path / "ops.txt"
        opfile.write_text("\n".join(["0.5"] * 20))
        cfg = parse_config(text.replace("missing.txt", str(opfile)))
        assert cfg.init.kind == "file"

    @pytest.mark.parametrize("old,new,key", [
        ("seed = 7", "seed = 18446744073709551616", "seed"),
        ("seed = 7", "seed = 7\nthreads = 0", "threads"),
        ("steps = 500", "steps = -1", "steps"),
        ("stride = 1", "stride = 0", "stride"),
        ("out = runs/demo", "out =", "out"),
    ])
    def test_bounds_name_the_key(self, old, new, key):
        with pytest.raises(ConfigError, match=f"'{key}' in"):
            parse_config(SIM_TEXT.replace(old, new))

    @pytest.mark.parametrize("graph,key", [
        ("kind = complete\nn = 1", "n"),
        ("kind = lattice\nside = 1", "side"),
        ("kind = random\nn = 1\nedge_prob = 0.5\nseed = 1", "n"),
        ("kind = random\nn = 30\nedge_prob = 0\nseed = 1", "edge_prob"),
        ("kind = random\nn = 30\nedge_prob = -0.25\nseed = 1", "edge_prob"),
        ("kind = random\nn = 30\nedge_prob = 1.5\nseed = 1", "edge_prob"),
        ("kind = random\nn = 30\nedge_prob = 0.5\nseed = -1", "seed"),
    ])
    def test_graph_bounds_name_the_key(self, graph, key):
        with pytest.raises(ConfigError, match=f"key '{key}' in \\[graph\\]: must"):
            parse_config(SIM_TEXT.replace("kind = complete\nn = 20", graph))

    @pytest.mark.parametrize("graph", [
        "kind = complete\nn = 2",
        "kind = lattice\nside = 2",
        "kind = random\nn = 2\nedge_prob = 1\nseed = 0",
    ])
    def test_graph_bounds_admit_their_ends(self, graph):
        parse_config(SIM_TEXT.replace("kind = complete\nn = 20", graph)).graph.build()

    @pytest.mark.parametrize("key,value", [
        ("transient", "-1"), ("tail", "0"), ("tol", "0"), ("tol", "-1e-9"), ("tol", "nan"),
        ("max_period", "0"),
    ])
    def test_tail_bounds_name_the_key(self, key, value):
        keys = {"transient": "10000", "tail": "1024", key: value}
        text = sweep_text("grid = 0.6").replace(
            "transient = 10000\ntail = 1024\n", "".join(f"{k} = {v}\n" for k, v in keys.items()))
        with pytest.raises(ConfigError, match=f"'{key}' in"):
            parse_config(text)

    @pytest.mark.parametrize("old,new,match", [
        ("[init]", "[params]\nbeta = 0.3\n\n[init]", r"line \d+: duplicate section \[params\]"),
        ("stride = 1", "stride 1", r"line \d+: expected 'key = value', got 'stride 1'"),
        ("stride = 1", "= 1", r"line \d+: empty key"),
        ("p_bar = 15\n", "", r"section \[params\] is missing key 'p_bar'"),
        ("kind = complete\nn = 20", "kind = complete", r"section \[graph\] is missing key 'n'"),
        ("[simulate]\nsteps = 500\nstride = 1\n", "",
         r"command 'simulate' needs section \[simulate\]"),
    ])
    def test_malformed_document_rejected(self, old, new, match):
        assert old in SIM_TEXT
        with pytest.raises(ConfigError, match=match):
            parse_config(SIM_TEXT.replace(old, new))


class TestGrid:
    def test_explicit_list(self):
        cfg = parse_config(sweep_text("grid = 0.55,0.7,0.9"))
        assert cfg.grid == (0.55, 0.7, 0.9)
        assert cfg.sweep_param == "beta"
        assert cfg.threads == 2

    def test_range_sugar_default_grid(self):
        cfg = parse_config(sweep_text(
            "grid_start = 0.501\ngrid_stop = 0.999\ngrid_step = 0.001"
        ))
        assert len(cfg.grid) == 499
        assert cfg.grid[0] == 0.501
        assert abs(cfg.grid[-1] - 0.999) < 1e-12

    def test_both_forms_rejected(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_config(sweep_text(
                "grid = 0.6\ngrid_start = 0.5\ngrid_stop = 0.9\ngrid_step = 0.1"
            ))

    def test_incomplete_range_rejected(self):
        with pytest.raises(ConfigError, match="grid"):
            parse_config(sweep_text("grid_start = 0.5\ngrid_stop = 0.9"))

    @pytest.mark.parametrize("grid_lines,match", [
        ("grid = ", r"key 'grid' in \[sweep\]: empty list"),
        ("grid = , ,", r"key 'grid' in \[sweep\]: empty list"),
        ("grid_start = 0.5\ngrid_stop = 0.9\ngrid_step = 0", "grid_step must be positive"),
        ("grid_start = 0.5\ngrid_stop = 0.9\ngrid_step = -0.1", "grid_step must be positive"),
        ("grid_start = 0.9\ngrid_stop = 0.5\ngrid_step = 0.1",
         "grid_stop must not be below grid_start"),
        ("grid_start = 0.5\ngrid_stop = 0.9\ngrid_step = 5e-324",
         "grid_step is too small to count the grid, got 5e-324"),
        ("grid = 0.7, 0.6", r"key 'grid' in \[sweep\]: values must be strictly increasing"),
        ("grid = 0.6, 0.6", r"key 'grid' in \[sweep\]: values must be strictly increasing"),
    ])
    def test_bad_grid_rejected(self, grid_lines, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(sweep_text(grid_lines))

    def test_gallery_betas_keep_any_order(self):
        text = sweep_text("").replace("command = sweep", "command = gallery").replace(
            "[sweep]\nparam = beta\n\ntransient", "[gallery]\nbetas = 0.999,0.45,0.45\ntransient")
        assert parse_config(text).betas == (0.999, 0.45, 0.45)

    @pytest.mark.parametrize("param,grid_lines,value,reason", [
        ("beta", "grid = 0.45,1.5", "1.5", r"beta must lie in \[0, 1\], got 1.5"),
        ("beta", "grid = -0.5,0.5", "-0.5", r"beta must lie in \[0, 1\], got -0.5"),
        ("gamma", "grid = 0.5,1.0", "1.0", r"gamma must lie in \(0, 1\), got 1.0"),
        ("beta", "grid_start = 0.9\ngrid_stop = 1.2\ngrid_step = 0.1", "1.2000000000000002",
         r"beta must lie in \[0, 1\]"),
    ])
    def test_every_grid_value_checked(self, param, grid_lines, value, reason):
        text = sweep_text(grid_lines).replace("param = beta", f"param = {param}")
        with pytest.raises(ConfigError, match=rf"key 'grid' in \[sweep\]: value {value}: {reason}"):
            parse_config(text)

    @pytest.mark.parametrize("betas,value", [("0.45,1.5", "1.5"), ("-0.25", "-0.25")])
    def test_every_gallery_beta_checked(self, betas, value):
        text = sweep_text("").replace("command = sweep", "command = gallery").replace(
            "[sweep]\nparam = beta\n\ntransient", f"[gallery]\nbetas = {betas}\ntransient")
        with pytest.raises(ConfigError, match=rf"key 'betas' in \[gallery\]: value {value}: beta"):
            parse_config(text)


class TestRoundTrip:
    def assert_round_trips(self, cfg):
        assert parse_config(render_config(cfg)) == cfg

    def test_simulate(self):
        self.assert_round_trips(parse_config(SIM_TEXT))

    def test_sweep_with_generated_grid(self):
        cfg = parse_config(sweep_text(
            "grid_start = 0.501\ngrid_stop = 0.999\ngrid_step = 0.001"
        ))
        self.assert_round_trips(cfg)

    def test_random_graph_and_random_init(self):
        text = SIM_TEXT.replace(
            "kind = complete\nn = 20",
            "kind = random\nn = 30\nedge_prob = 0.125\nseed = 11",
        ).replace("kind = fs\ntheta0 = 0.4", "kind = random")
        self.assert_round_trips(parse_config(text))

    def test_lattice_clusters(self):
        text = SIM_TEXT.replace("command = simulate", "command = clusters").replace(
            "kind = complete\nn = 20", "kind = lattice\nside = 8"
        ).replace("kind = fs\ntheta0 = 0.4", "kind = random")
        self.assert_round_trips(parse_config(text))

    def test_gallery(self):
        text = sweep_text("").replace("command = sweep", "command = gallery").replace(
            "[sweep]\nparam = beta\n\ntransient", "[gallery]\nbetas = 0.45,0.7,0.999\ntransient"
        )
        cfg = parse_config(text)
        assert cfg.betas == (0.45, 0.7, 0.999)
        self.assert_round_trips(cfg)

    def test_classify(self):
        text = sweep_text("").replace("command = sweep", "command = classify").replace(
            "[sweep]\nparam = beta\n\ntransient", "[classify]\ntransient"
        )
        cfg = parse_config(text)
        assert cfg.tail == 1024
        self.assert_round_trips(cfg)

    def test_render_is_stable(self):
        cfg = parse_config(SIM_TEXT)
        once = render_config(cfg)
        assert render_config(parse_config(once)) == once


GRAPHS = {
    "complete": GraphSpec(kind="complete", n=20),
    "lattice": GraphSpec(kind="lattice", side=5),
    "random": GraphSpec(kind="random", n=30, edge_prob=0.125, seed=11),
    "edgelist": GraphSpec(kind="edgelist", path="edges.txt"),
}
INITS = {
    "fs": InitSpec(kind="fs", p0=100.0, theta0=0.4),
    "random": InitSpec(kind="random", p0=1.5),
    "file": InitSpec(kind="file", p0=3.0, path="ops.txt"),
}
COMMAND_FIELDS = {
    "simulate": dict(steps=500, stride=3),
    "clusters": dict(steps=0, stride=1),
    "sweep": dict(sweep_param="p_bar", grid=(1.0, 2.5, 30.0), transient=10, tail=64,
                  tol=1e-7, max_period=32),
    "gallery": dict(betas=(0.45, 0.7, 0.999), transient=0, tail=1, max_period=1),
    "classify": dict(transient=1000, tail=512),
}
ALLOWED = [(command, graph, init) for command in COMMANDS for graph in GRAPHS for init in INITS]


class TestRoundTripEveryVariant:
    """Every command x graph kind x init kind the parser accepts survives a manifest."""

    def test_cases_cover_every_command(self):
        assert set(COMMAND_FIELDS) == set(COMMANDS)

    @pytest.mark.parametrize("command,graph,init", ALLOWED)
    def test_round_trip(self, tmp_path, monkeypatch, command, graph, init):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "edges.txt").write_text("N 2 directed=0\n0 1\n")
        (tmp_path / "ops.txt").write_text("0.5\n-0.5\n")
        params = ModelParams(beta=0.45, gamma=0.5, e_min=0.0, e_max=1.0, p_bar=15.0)
        cfg = RunConfig(command=command, graph=GRAPHS[graph], params=params,
                        init=INITS[init], out="runs/x", seed=2 ** 64 - 1, threads=2,
                        **COMMAND_FIELDS[command])
        text = render_config(cfg)
        assert parse_config(text) == cfg
        assert render_config(parse_config(text)) == text


class TestRenderRejectsValuesThatCannotRoundTrip:
    @pytest.mark.parametrize("out", ["runs/#1", "runs/a\nb", "runs/a\rb", " runs/a",
                                     "runs/a ", "runs/a\t"])
    def test_out(self, out):
        cfg = replace(parse_config(SIM_TEXT), out=out)
        with pytest.raises(ConfigError, match=r"'out' in \[run\]"):
            render_config(cfg)

    def test_path(self):
        cfg = replace(parse_config(SIM_TEXT), init=InitSpec(kind="file", p0=1.0, path="a#b"))
        with pytest.raises(ConfigError, match=r"'path' in \[init\]"):
            render_config(cfg)

    def test_unknown_command(self):
        cfg = replace(parse_config(SIM_TEXT), command="explode")
        with pytest.raises(ConfigError, match="command must be one of .*, got 'explode'"):
            render_config(cfg)

    def test_unknown_graph_kind(self):
        cfg = replace(parse_config(SIM_TEXT), graph=GraphSpec(kind="ring", n=4))
        with pytest.raises(ConfigError, match=r"\[graph\] kind"):
            render_config(cfg)
