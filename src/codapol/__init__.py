"""Deterministic simulator and analysis toolkit for a quantized opinion model
coupled to a scalar pollution state."""

from types import ModuleType as _ModuleType

from .analysis import (
    ActionSpacePoint,
    Aperiodic,
    ClusterReport,
    FixedPoint,
    InsufficientDataError,
    LimitCycle,
    certify_cluster,
    classify_states,
    find_preserved_clusters,
    fs_action_equilibria,
    fs_escape_bound,
    pollution_bounds,
    pollution_equilibrium,
    predicted_opinion_limit,
    qp_stationarity_certificate,
    same_action_components,
)
from .config import ConfigError, RunConfig, parse_config, render_config
from .dynamics import (
    ModelParams,
    SimState,
    Trajectory,
    fs_initial_state,
    initial_state,
    local_fields,
    quantize_opinion,
    quantize_pollution,
    random_opinions,
    simulate,
    step,
    step_opinion,
    step_pollution,
)
from .graph import Graph, GraphSpec, complete_graph, random_graph, read_edge_list, square_lattice
from .sweep import (
    InitSpec,
    SweepError,
    SweepRow,
    SweepSpec,
    attractor_gallery,
    run_sweep,
    write_bifurcation_csv,
    write_gallery_csv,
)

__all__ = [name for name, obj in globals().items()
           if not name.startswith("_") and not isinstance(obj, _ModuleType)]
