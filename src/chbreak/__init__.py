"""chbreak: a numerical laboratory for wave breaking in a damped
Camassa-Holm-type equation.

The package simulates the band-limited Galerkin truncation of the nonlocal
form of the equation, checks energy-based breaking criteria with certified
blow-up time bounds, follows characteristics through breaking, and extracts
the blow-up time, rate, and location from runs.
"""

from .config import emit_config, load_config, parse_config
from .criteria import (
    BreakingSearchResult,
    CriterionReport,
    check_criterion1,
    check_criterion2,
    forcing_constant,
    slope_threshold,
)
from .diagnostics import (
    DiagnosticsRecord,
    RateEstimate,
    estimate_blowup,
    track_rate,
)
from .errors import (
    ChbreakError,
    ConfigError,
    EdgeDecayError,
    NumericsError,
    SearchError,
)
from .grid import (
    Field,
    Grid,
    band_limit,
    check_edge_decay,
    conv_P_minus,
    conv_P_plus,
    deriv,
    h1_norm_sq,
    interp,
    smoothed_edge_decay,
    tail_fraction,
)
from .model import (
    DissipationProfile,
    InitialDatum,
    find_breaking_datum,
    make_datum,
    rhs,
)
from .riccati import (
    CoupledTrajectory,
    OdeTrajectory,
    chen_bound,
    omega_bound,
    solve_coupled,
    solve_omega,
    two_sided_bound,
)
from .characteristics import (
    CharacteristicTrack,
    LemmaResidual,
    advance,
    build_aux,
    diffeo_factor,
    lemma_residual,
    start_track,
)
from .solver import RunConfig, RunOutcome, SolverState, run, step

__version__ = "0.1.0"

__all__ = [
    "BreakingSearchResult",
    "CharacteristicTrack",
    "ChbreakError",
    "ConfigError",
    "CoupledTrajectory",
    "CriterionReport",
    "DiagnosticsRecord",
    "DissipationProfile",
    "EdgeDecayError",
    "Field",
    "Grid",
    "InitialDatum",
    "LemmaResidual",
    "NumericsError",
    "OdeTrajectory",
    "RateEstimate",
    "RunConfig",
    "RunOutcome",
    "SearchError",
    "SolverState",
    "advance",
    "band_limit",
    "build_aux",
    "check_criterion1",
    "check_criterion2",
    "check_edge_decay",
    "chen_bound",
    "conv_P_minus",
    "conv_P_plus",
    "deriv",
    "diffeo_factor",
    "emit_config",
    "estimate_blowup",
    "find_breaking_datum",
    "forcing_constant",
    "h1_norm_sq",
    "interp",
    "lemma_residual",
    "load_config",
    "make_datum",
    "omega_bound",
    "parse_config",
    "rhs",
    "run",
    "slope_threshold",
    "smoothed_edge_decay",
    "solve_coupled",
    "solve_omega",
    "start_track",
    "step",
    "tail_fraction",
    "track_rate",
    "two_sided_bound",
    "__version__",
]
