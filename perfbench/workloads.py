"""The benchmark's workloads: the config documents each one runs through ``codapol.cli.run``.

Every workload is a list of commands; each command is one config document.
The documents are written out here rather than imported from ``scripts/`` so
that the measured work stays fixed when a script changes.

``FULL`` holds the sizes the benchmark measures; ``TINY`` holds sizes small
enough for the self-test to run every workload in a second or two.
"""

from __future__ import annotations

# Seed-dependent workloads run config seed ``seed % REFERENCE_SEEDS``; the
# reference digests in reference.json cover exactly these seeds.
REFERENCE_SEEDS = 64

_PARAMS = """
[params]
beta = {beta}
gamma = 0.5
e_min = 0
e_max = 1
p_bar = 15
"""

_SWEEP = """
[run]
command = sweep
out = {out}
seed = {seed}
threads = {threads}

[graph]
kind = complete
n = {n}
""" + _PARAMS + """
[init]
kind = fs
theta0 = 0.4
p0 = 100

[sweep]
param = beta
grid_start = {start}
grid_stop = {stop}
grid_step = {step}
transient = {transient}
tail = {tail}
max_period = {max_period}
"""

_LATTICE = """
[run]
command = {command}
out = {out}
seed = {seed}

[graph]
kind = lattice
side = {side}
""" + _PARAMS + """
[init]
kind = random
p0 = 100

[simulate]
steps = {steps}
stride = {stride}
"""

_FS_TAIL = """
[run]
command = {command}
out = {out}
seed = {seed}

[graph]
kind = complete
n = {n}
""" + _PARAMS + """
[init]
kind = fs
theta0 = 0.4
p0 = 100

[{command}]
{betas}transient = {transient}
tail = {tail}
max_period = {max_period}
"""

FULL = {
    "fs-sweep": dict(n=20, main=(0.501, 0.999, 0.001), control=(0.30, 0.49, 0.01),
                     transient=10000, tail=1024, max_period=256),
    "lattice": dict(side=50, steps=100, stride=1),
    "big-lattice": dict(side=300, steps=100, stride=100),
    "gallery": dict(n=20, betas=(0.45, 0.52, 0.999), transient=10000, tail=1024,
                    max_period=256),
}

TINY = {
    "fs-sweep": dict(n=4, main=(0.501, 0.509, 0.002), control=(0.30, 0.34, 0.02),
                     transient=50, tail=40, max_period=8),
    "lattice": dict(side=5, steps=6, stride=1),
    "big-lattice": dict(side=6, steps=10, stride=5),
    "gallery": dict(n=4, betas=(0.45, 0.52, 0.999), transient=50, tail=40, max_period=8),
}

WORKLOADS = ("fs-sweep", "lattice", "big-lattice", "gallery")

# Workloads whose outputs depend on the seed; the others are fully
# synchronized starts whose seed reaches only the manifest.
SEEDED = ("lattice", "big-lattice")


def _fmt(v: float) -> str:
    return repr(float(v))


def config_seed(workload: str, seed: int) -> int:
    """The config ``seed`` a workload seed maps to."""
    return seed % REFERENCE_SEEDS if workload in SEEDED else seed


def commands(workload: str, seed: int, out: str, sizes: dict = FULL,
             threads: int = 1) -> list[tuple[str, str]]:
    """(label, config text) for every command the workload runs, in order.

    ``label`` names the command's output subdirectory of ``out``; ``threads``
    applies to sweep commands only.
    """
    s = sizes[workload]
    seed = config_seed(workload, seed)
    if workload == "fs-sweep":
        return [
            (label, _SWEEP.format(
                out=f"{out}/{label}", seed=seed, threads=threads, n=s["n"], beta="0.5",
                start=_fmt(lo), stop=_fmt(hi), step=_fmt(st), transient=s["transient"],
                tail=s["tail"], max_period=s["max_period"]))
            for label, (lo, hi, st) in (("main", s["main"]), ("control", s["control"]))
        ]
    if workload in ("lattice", "big-lattice"):
        command = "simulate" if workload == "lattice" else "clusters"
        return [(command, _LATTICE.format(
            command=command, out=f"{out}/{command}", seed=seed, side=s["side"],
            beta="0.45", steps=s["steps"], stride=s["stride"]))]
    if workload == "gallery":
        tail = dict(seed=seed, n=s["n"], transient=s["transient"], tail=s["tail"],
                    max_period=s["max_period"])
        betas = ",".join(_fmt(b) for b in s["betas"])
        cmds = [("gallery", _FS_TAIL.format(
            command="gallery", out=f"{out}/gallery", beta="0.5",
            betas=f"betas = {betas}\n", **tail))]
        for b in s["betas"]:
            label = f"classify-{_fmt(b)}"
            cmds.append((label, _FS_TAIL.format(
                command="classify", out=f"{out}/{label}", beta=_fmt(b), betas="", **tail)))
        return cmds
    raise ValueError(f"unknown workload {workload!r}")
