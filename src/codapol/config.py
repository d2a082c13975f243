"""Flat key-value experiment configs and their canonical (manifest) rendering.

A config document has ``[section]`` headers and ``key = value`` lines; blank
lines and ``#`` comments are ignored.  Unknown sections or keys are errors,
never silently dropped.

The key table below (``_KEYS`` with ``_KINDS`` and ``_COMMAND_SECTION``) is
the format: every section, every key with its converter, bounds, renderer
and default, and the keys of each graph kind, init kind and command in
document order.  The ``[graph]`` and ``[init]`` sections hold the library's
``GraphSpec`` and ``InitSpec``, whose kind tables the key table reads, so
every command takes every graph and init kind.  ``parse_config`` and
``render_config`` both walk the key table, so ``render_config`` produces a
canonical document that parses back to an equal RunConfig.  That is what run
manifests are made of: a manifest alone reproduces a run bit-exactly.
Values that would not survive the trip (a ``#``, a line break, surrounding
whitespace) cannot be rendered.  The ``grid_start``/``grid_stop``/
``grid_step`` range form of a sweep grid is accepted on input only;
manifests list the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from .analysis import DEFAULT_MAX_PERIOD, DEFAULT_TOL
from .dynamics import ModelParams
from .graph import _GRAPH_KINDS, GraphSpec
from .sweep import _INIT_KINDS, SWEEPABLE, InitSpec


class ConfigError(ValueError):
    """Malformed or inconsistent configuration document."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved description of one command invocation."""

    command: str
    graph: GraphSpec
    params: ModelParams
    init: InitSpec
    out: str
    seed: int = 0
    threads: int = 1
    # simulate / clusters
    steps: int | None = None
    stride: int | None = None
    # sweep
    sweep_param: str | None = None
    grid: tuple[float, ...] | None = None
    # gallery
    betas: tuple[float, ...] | None = None
    # sweep / gallery / classify
    transient: int | None = None
    tail: int | None = None
    tol: float = DEFAULT_TOL
    max_period: int = DEFAULT_MAX_PERIOD


def _parse_sections(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section: {raw!r}")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = value
    return sections


def _convert(section: str, key: str, conv, raw):
    """``conv(raw)``, with any failure reported as a ConfigError naming the key."""
    try:
        return conv(raw)
    except ConfigError as exc:
        raise ConfigError(f"key {key!r} in [{section}]: {exc}") from None
    except Exception:
        raise ConfigError(f"key {key!r} in [{section}]: cannot interpret {raw!r}") from None


def _int(lo: int, hi: int | None = None):
    def conv(raw: str) -> int:
        value = int(raw, 10)
        if hi is not None and not lo <= value < hi:
            raise ConfigError(f"must lie in [{lo}, {hi}), got {value}")
        if value < lo:
            raise ConfigError(f"must be at least {lo}, got {value}")
        return value
    return conv


def _to_float(raw: str) -> float:
    value = float(raw)
    if math.isnan(value) or math.isinf(value):
        raise ConfigError(f"value {raw!r} must be finite")
    return value


def _positive_float(raw: str) -> float:
    value = _to_float(raw)
    if value <= 0:
        raise ConfigError(f"must be positive, got {value}")
    return value


def _probability(raw: str) -> float:
    value = _to_float(raw)
    if not 0.0 < value <= 1.0:
        raise ConfigError(f"must lie in (0, 1], got {value}")
    return value


def _to_float_list(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError("empty list")
    return tuple(_to_float(p) for p in parts)


def _increasing_float_list(raw: str) -> tuple[float, ...]:
    values = _to_float_list(raw)
    if any(not a < b for a, b in zip(values, values[1:])):
        raise ConfigError("values must be strictly increasing")
    return values


def _nonempty(raw: str) -> str:
    if not raw:
        raise ConfigError("must not be empty")
    return raw


def _one_of(choices):
    def conv(raw: str) -> str:
        if raw not in choices:
            raise ConfigError(f"must be one of {', '.join(choices)}, got {raw!r}")
        return raw
    return conv


def _existing_path(raw: str) -> str:
    if not Path(raw).is_file():
        raise ConfigError(f"path {raw!r} does not exist")
    return raw


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _fmt_list(values) -> str:
    return ",".join(_fmt(v) for v in values)


def _text(value) -> str:
    text = str(value)
    if "#" in text or text != text.strip() or len(text.splitlines()) > 1:
        raise ConfigError(
            f"{text!r} cannot round-trip: values may not contain '#' or line breaks "
            "or start or end with whitespace"
        )
    return text


# The key table.  _KEYS[section][key] is (converter, renderer, default or
# _REQUIRED); sections without kinds hold their keys in document order, and
# _KINDS lists the keys of each [graph] and [init] kind.
_REQUIRED = object()
_COMMAND_SECTION = {
    "simulate": "simulate", "sweep": "sweep", "gallery": "gallery",
    "clusters": "simulate", "classify": "classify",
}
COMMANDS = tuple(_COMMAND_SECTION)
_KINDS = {
    "graph": {kind: ("kind", *fields) for kind, (_, fields) in _GRAPH_KINDS.items()},
    "init": {kind: ("kind", "p0", *extra) for kind, extra in _INIT_KINDS.items()},
}
_FLOAT = (_to_float, _fmt, _REQUIRED)
_TAIL = {
    "transient": (_int(0), str, _REQUIRED),
    "tail": (_int(1), str, _REQUIRED),
    "tol": (_positive_float, _fmt, DEFAULT_TOL),
    "max_period": (_int(1), str, DEFAULT_MAX_PERIOD),
}
_KEYS = {
    "run": {
        "command": (_one_of(COMMANDS), _text, _REQUIRED),
        "out": (_nonempty, _text, _REQUIRED),
        "seed": (_int(0, 2 ** 64), str, 0),
        "threads": (_int(1), str, 1),
    },
    "graph": {
        "kind": (_one_of(_GRAPH_KINDS), _text, _REQUIRED),
        "n": (_int(2), str, _REQUIRED),
        "side": (_int(2), str, _REQUIRED),
        "edge_prob": (_probability, _fmt, _REQUIRED),
        "seed": (_int(0), str, _REQUIRED),
        "path": (_existing_path, _text, _REQUIRED),
    },
    "params": {key: _FLOAT for key in ("beta", "gamma", "e_min", "e_max", "p_bar")},
    "init": {
        "kind": (_one_of(_INIT_KINDS), _text, _REQUIRED),
        "p0": _FLOAT,
        "theta0": _FLOAT,
        "path": (_existing_path, _text, _REQUIRED),
    },
    "simulate": {"steps": (_int(0), str, _REQUIRED), "stride": (_int(1), str, 1)},
    "sweep": {
        "param": (_one_of(SWEEPABLE), _text, _REQUIRED),
        "grid": (_increasing_float_list, _fmt_list, _REQUIRED),
        **_TAIL,
    },
    "gallery": {"betas": (_to_float_list, _fmt_list, _REQUIRED), **_TAIL},
    "classify": _TAIL,
}
# RunConfig fields named apart from their key.
_FIELDS = {"param": "sweep_param"}


def _keys(section: str, kind) -> tuple[str, ...]:
    if section not in _KINDS:
        return tuple(_KEYS[section])
    if kind not in _KINDS[section]:
        raise ConfigError(
            f"[{section}] kind must be one of {', '.join(_KINDS[section])}, got {kind!r}"
        )
    return _KINDS[section][kind]


def _grid_range(data: dict[str, str]) -> dict:
    """``grid`` from the parse-only grid_start/grid_stop/grid_step keys, if given."""
    given = {k: data.pop(k) for k in ("grid_start", "grid_stop", "grid_step") if k in data}
    if not given:
        return {}
    if "grid" in data:
        raise ConfigError("give either grid or grid_start/grid_stop/grid_step, not both")
    if len(given) < 3:
        raise ConfigError("sweep grid needs grid=... or all of grid_start/grid_stop/grid_step")
    start, stop, step = (_convert("sweep", k, _to_float, raw) for k, raw in given.items())
    if step <= 0:
        raise ConfigError(f"grid_step must be positive, got {step}")
    if stop < start:
        raise ConfigError("grid_stop must not be below grid_start")
    steps = (stop - start) / step + 1e-9
    if math.isinf(steps):
        raise ConfigError(f"grid_step is too small to count the grid, got {step}")
    count = int(math.floor(steps)) + 1
    return {"grid": tuple(start + i * step for i in range(count))}


def _take(section: str, key: str, data: dict[str, str]):
    conv, _, default = _KEYS[section][key]
    if key in data:
        return _convert(section, key, conv, data.pop(key))
    if default is _REQUIRED:
        raise ConfigError(f"section [{section}] is missing key {key!r}")
    return default


def _read(sections: dict[str, dict[str, str]], section: str) -> dict:
    """Section ``section`` converted by the key table, keyed by field name."""
    if section not in sections:
        raise ConfigError(f"missing section [{section}]")
    data = dict(sections[section])
    values = _grid_range(data) if section == "sweep" else {}
    if section in _KINDS:
        values["kind"] = _take(section, "kind", data)
    for key in _keys(section, values.get("kind")):
        if key not in values:
            values[_FIELDS.get(key, key)] = _take(section, key, data)
    if data:
        raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(sorted(data))}")
    return values


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a config document."""
    sections = _parse_sections(text)
    run = _read(sections, "run")
    graph = GraphSpec(**_read(sections, "graph"))
    values = _read(sections, "params")
    try:
        params = ModelParams(**values)
    except ValueError as exc:
        raise ConfigError(f"section [params]: {exc}") from None
    init = InitSpec(**_read(sections, "init"))

    command = run["command"]
    section = _COMMAND_SECTION[command]
    unknown_sections = set(sections) - {"run", "graph", "params", "init", section}
    if unknown_sections:
        names = ", ".join(f"[{s}]" for s in sorted(unknown_sections))
        raise ConfigError(f"section(s) {names} are not used by command {command!r}")
    if section not in sections:
        raise ConfigError(f"command {command!r} needs section [{section}]")
    values = _read(sections, section)
    # Swept values must make valid ModelParams before any run starts.  Each
    # field's bounds are an interval, so the extreme values stand for all.
    swept = {"grid": values.get("sweep_param"), "betas": "beta"}
    for key in swept.keys() & values.keys():
        for v in (min(values[key]), max(values[key])):
            try:
                replace(params, **{swept[key]: v})
            except ValueError as exc:
                raise ConfigError(f"key {key!r} in [{section}]: value {v!r}: {exc}") from None
    return RunConfig(graph=graph, params=params, init=init, **run, **values)


def render_config(cfg: RunConfig) -> str:
    """Canonical document for ``cfg``; ``parse_config`` inverts it exactly."""
    if cfg.command not in COMMANDS:
        raise ConfigError(f"command must be one of {', '.join(COMMANDS)}, got {cfg.command!r}")
    blocks = []
    for section, obj in (("run", cfg), ("graph", cfg.graph), ("params", cfg.params),
                         ("init", cfg.init), (_COMMAND_SECTION[cfg.command], cfg)):
        lines = [f"[{section}]"]
        for key in _keys(section, getattr(obj, "kind", None)):
            render = _KEYS[section][key][1]
            value = _convert(section, key, render, getattr(obj, _FIELDS.get(key, key)))
            lines.append(f"{key} = {value}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
